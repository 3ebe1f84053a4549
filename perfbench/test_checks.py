"""Each benchmark check accepts dualcat's real output and rejects a corrupted one.

    python3 -m pytest perfbench/test_checks.py
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import workloads  # noqa: E402


def first_output(workload, key):
    op = next(op for op in workload.ops if op.key == key)
    return op.run()


def replace_row(text: str, name: str, value: str) -> str:
    """Replace the value of one ``name value`` line of verify or variation output."""
    return "".join(
        f"{name:<22} {value}\n" if line.split()[:1] == [name] else line + "\n"
        for line in text.splitlines()
    )


def replace_csv_value(text: str, row: int, column: str, factor: float) -> str:
    lines = text.splitlines()
    col = workloads.CSV_HEADER.split(",").index(column)
    cells = lines[row + 1].split(",")
    cells[col] = repr(float(cells[col]) * factor)
    lines[row + 1] = ",".join(cells)
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def closed_cli():
    return workloads.build_closed_cli(0)


@pytest.mark.parametrize("key", ["a1-0", "a0-0", "a-1-0"])
def test_closed_cli_rejects_corruption(closed_cli, key):
    verify, generate, energy = first_output(closed_cli, key)
    assert closed_cli.check(key, (verify, generate, energy)) == []

    for value in ("nan", "1e-07"):
        bad_verify = (verify[0], replace_row(verify[1], "el_real", value))
        assert closed_cli.check(key, (bad_verify, generate, energy)), value
    assert closed_cli.check(key, ((1, verify[1]), generate, energy))

    bad_generate = (generate[0], replace_csv_value(generate[1], 100, "z", 1.0 + 1e-9))
    assert closed_cli.check(key, (verify, bad_generate, energy))

    e0 = energy[1].splitlines()[0].split(" = ")[1]
    bad_energy = (energy[0], energy[1].replace(e0, repr(float(e0) * (1.0 + 1e-8)), 2))
    assert closed_cli.check(key, (verify, generate, bad_energy))


def test_probe_counts_as_failed_while_verify_passes_nan(closed_cli):
    rc, text = first_output(closed_cli, "probe")
    assert "nan" in text  # the first-integral residual
    assert closed_cli.check("probe", (0, text.replace("FAIL", "PASS")))
    assert closed_cli.check("probe", (1, text.replace("PASS", "FAIL"))) == []


def test_stationarity_rejects_corruption():
    wl = workloads.build_stationarity(0)
    rc, text = first_output(wl, "a1-0")
    assert wl.check("a1-0", (rc, text)) == []
    dE = text.splitlines()[0].split(" = ")[1].split(" + ")[0]
    assert wl.check("a1-0", (rc, text.replace(dE, "0.001", 1)))
    assert wl.check("a1-0", (1, text.replace("PASS", "FAIL")))

    rc, text = first_output(wl, "p1-0")
    assert wl.check("p1-0", (rc, text)) == []
    dE = text.splitlines()[0].split(" = ")[1].split(" + ")[0]
    assert wl.check("p1-0", (rc, text.replace(dE, repr(float(dE) * 1.01), 1)))
    assert wl.check("p1-0", (0, text.replace("FAIL", "PASS")))


def test_arclength_rejects_corruption():
    wl = workloads.build_arclength(0)
    out = first_output(wl, "x0")
    assert wl.check("x0", out) == []
    for curve in range(4):
        xs = list(out[curve])
        xs[1] += 1e-7
        bad = out[:curve] + (tuple(xs),) + out[curve + 1:]
        assert wl.check("x0", bad), curve


def test_solved_curve_check_rejects_another_solve():
    rng = workloads.np.random.default_rng([0, 4])
    alpha, init, v = workloads.solved_curve_inputs(rng)
    curve = workloads.dualcat.solve_curve(alpha, init, workloads.SOLVE_DOMAIN, v=v)
    assert workloads.check_solved_curve(curve, alpha, init, v) == []
    other = workloads.dualcat.solve_curve(alpha, init, workloads.SOLVE_DOMAIN, v=v + 1e-5)
    assert workloads.check_solved_curve(other, alpha, init, v)
    assert workloads.check_solved_curve(curve, alpha * (1.0 + 1e-6), init, v)
