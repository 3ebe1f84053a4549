"""The public surface: the README's library example and the names the benchmark reads."""

import ast
import math
import re
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


def test_readme_library_example_runs(capsys):
    readme = (ROOT / "README.md").read_text()
    library = readme[readme.index("## Library"):]
    block = re.search(r"```python\n(.*?)```", library, re.S).group(1)
    exec(compile(block, "README.md", "exec"), {})
    maxima = [ast.literal_eval(line) for line in capsys.readouterr().out.splitlines() if line.startswith("{")]
    assert len(maxima) == 2
    for report in maxima:
        assert report and all(math.isfinite(v) for v in report.values())


def test_benchmark_names_are_exported():
    source = (ROOT / "perfbench" / "workloads.py").read_text()
    modules = {"dualcat": dualcat, "cli": cli, "closed_forms": closed_forms}
    used = set(re.findall(r"\b(dualcat|cli|closed_forms)\.([A-Za-z_]\w*)", source))
    assert ("dualcat", "solve_curve") in used
    missing = [f"{mod}.{name}" for mod, name in sorted(used) if not hasattr(modules[mod], name)]
    assert missing == []
    # perfbench/spans.py times this stage by looking the name up.
    assert callable(solver.recover_w)


def test_removed_names_are_gone():
    present = [name for name in REMOVED if hasattr(dualcat, name)]
    assert present == []
    assert not hasattr(dualcat.curves, "CurvatureSample")
    assert not any(hasattr(dualcat.dual, name) or hasattr(dualcat.variational, name) for name in REMOVED)
