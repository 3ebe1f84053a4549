"""The public surface: the README's library example and the names the benchmark reads."""

import ast
import math
import re
import subprocess
import sys
from pathlib import Path

import dualcat
from dualcat import cli, closed_forms, solver

ROOT = Path(__file__).resolve().parent.parent

# Moved to tests/lifted.py as the chain-rule reference, or deleted.
REMOVED = [
    "SmoothFn", "lift", "compose", "pow_alpha",
    "COSH", "SINH", "TANH", "SECH", "EXP", "SQRT", "ARCSIN",
    "CurvatureSample",
    # Moved to tests/references.py: the report reads them off the characterization.
    "el_residual_real", "el_residual_dual", "multiplier_residual",
]


def readme_library_block() -> str:
    readme = (ROOT / "README.md").read_text()
    library = readme[readme.index("## Library"):]
    return re.search(r"```python\n(.*?)```", library, re.S).group(1)


def test_readme_library_example_runs(capsys):
    exec(compile(readme_library_block(), "README.md", "exec"), {})
    maxima = [ast.literal_eval(line) for line in capsys.readouterr().out.splitlines() if line.startswith("{")]
    assert len(maxima) == 2
    for report in maxima:
        assert report and all(math.isfinite(v) for v in report.values())


def test_readme_library_example_is_stationary_in_its_own_process():
    # Its last line is the first variation of a drawn variation on a catenary,
    # as a fresh interpreter prints it: both parts vanish to rounding.
    done = subprocess.run([sys.executable, "-c", readme_library_block()], capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    re_part, du_part = re.fullmatch(r"(\S+) \+ (\S+) eps", done.stdout.splitlines()[-1]).groups()
    assert abs(float(re_part)) <= 1e-15 and abs(float(du_part)) <= 1e-15


def test_benchmark_names_are_exported():
    source = (ROOT / "perfbench" / "workloads.py").read_text()
    modules = {"dualcat": dualcat, "cli": cli, "closed_forms": closed_forms}
    used = set(re.findall(r"\b(dualcat|cli|closed_forms)\.([A-Za-z_]\w*)", source))
    assert ("dualcat", "solve_curve") in used
    missing = [f"{mod}.{name}" for mod, name in sorted(used) if not hasattr(modules[mod], name)]
    assert missing == []
    # perfbench/spans.py times this stage by looking the name up.
    assert callable(solver.recover_w)


# NumPy functions that hand a sum of products to BLAS, whose kernel and thread
# count can change its last bit; a ``linalg`` call may also reach LAPACK.
BLAS_CALLS = {"dot", "vdot", "inner", "matmul", "tensordot", "einsum"}


def blas_uses(tree: ast.AST) -> list[int]:
    """Lines of tree with an ``@``, a call of a BLAS_CALLS name, or a ``linalg`` name or import."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)):
            hit = isinstance(node.op, ast.MatMult)
        elif isinstance(node, ast.Call):
            hit = getattr(node.func, "attr", getattr(node.func, "id", None)) in BLAS_CALLS
        elif isinstance(node, (ast.Attribute, ast.Name)):
            hit = getattr(node, "attr", getattr(node, "id", None)) == "linalg"
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [alias.name for alias in node.names] + [getattr(node, "module", None) or ""]
            hit = bool(BLAS_CALLS.union(["linalg"]).intersection(".".join(names).split(".")))
        else:
            continue
        if hit:
            lines.add(node.lineno)
    return sorted(lines)


def test_blas_guard_sees_each_form():
    source = """
a @ b
a @= b
np.dot(a, b)
a.dot(b)
vdot(a, b)
np.einsum("i,i", a, b)
np.linalg.norm(a)
from numpy.linalg import norm
import numpy.linalg
from numpy import linalg
from numpy import inner
a * b
np.add.reduce(a * b, axis=-1)
import numpy as np
"""
    assert blas_uses(ast.parse(source)) == list(range(2, 13))


def test_sources_make_no_blas_call():
    # Every rule sum, composite or tabulated, goes through quadrature.integrate,
    # so no BLAS kernel or thread count decides a printed digit.
    found = {
        path.name: uses
        for path in sorted((ROOT / "src" / "dualcat").glob("*.py"))
        if (uses := blas_uses(ast.parse(path.read_text(), str(path))))
    }
    assert found == {}


def test_removed_names_are_gone():
    present = [name for name in REMOVED if hasattr(dualcat, name)]
    assert present == []
    assert not hasattr(dualcat.curves, "CurvatureSample")
    assert not any(hasattr(dualcat.dual, name) or hasattr(dualcat.variational, name) for name in REMOVED)
