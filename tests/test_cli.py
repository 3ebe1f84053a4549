"""Command-line interface behaviour: formats, exit codes, determinism."""

import csv
import io
import json
import math
import subprocess
import sys

import numpy as np
import pytest

import dualcat
from dualcat import cli
from dualcat.cli import CSV_COLUMNS, CSV_ROW, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGenerate:
    def test_csv_header_and_values(self, capsys):
        code, out, err = run_cli(
            capsys, "generate", "--alpha", "1", "--format", "csv", "--samples", "5"
        )
        assert code == 0 and err == ""
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == list(CSV_COLUMNS)
        assert len(rows) == 6
        first = dict(zip(CSV_COLUMNS, map(float, rows[1])))
        assert first["x"] == -1.0
        assert first["y"] == float(np.cosh(-1.0))  # .17g round-trips exactly
        assert first["yp"] == float(np.sinh(-1.0))
        assert abs(first["admis_res"]) < 1e-15

    def test_json_payload(self, capsys):
        code, out, err = run_cli(
            capsys, "generate", "--alpha", "-1", "--R", "2", "--v", "0.5",
            "--d1", "0.3", "--samples", "11",
        )
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {"params", "grid", "records", "summary"}
        assert len(payload["grid"]) == 11 and len(payload["records"]) == 11
        assert set(payload["records"][0]) == set(CSV_COLUMNS)
        summary = payload["summary"]
        assert summary["truncated"] is False
        assert summary["inferred_c"] == 2.0
        assert summary["admissibility_max"] < 1e-10
        assert summary["characterization_re_max"] < 1e-10

    def test_deterministic_output(self, capsys):
        args = ("generate", "--alpha", "1", "--c", "1.5", "--v", "0.8", "--d1", "0.4")
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first == second

    def test_negative_domain_bound(self, capsys):
        code, out, _ = run_cli(
            capsys, "generate", "--alpha", "0", "--c", "1.5", "--m", "4",
            "--domain", "-1:1", "--samples", "3",
        )
        assert code == 0
        assert json.loads(out)["grid"] == [-1.0, 0.0, 1.0]

    def test_solver_truncation_exits_3(self, capsys):
        code, _, err = run_cli(
            capsys, "generate", "--alpha", "3", "--solve", "--domain", "-1:1"
        )
        assert code == 3
        assert "truncated" in err

    def test_readme_example_columns(self, capsys):
        code, out, _ = run_cli(
            capsys, "generate", "--alpha", "-1", "--R", "2", "--v", "0.5",
            "--format", "csv", "--samples", "3",
        )
        assert code == 0
        assert out.splitlines()[1].startswith(
            "-1.998,0.089420355624432027,0.044710177812216013,0.999,22.343905770087243,"
        )


@pytest.mark.parametrize("argv", [("verify",), ("energy",), ("variation", "--count", "1")])
def test_every_command_exits_3_on_truncation(capsys, argv):
    code, _, err = run_cli(capsys, *argv, "--alpha", "3", "--solve", "--domain", "-2:2")
    assert code == 3
    assert "truncated" in err


class TestVerify:
    def test_readme_example(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--alpha", "1", "--c", "2", "--v", "1.1", "--d1", "-0.6")
        assert code == 0
        assert out == (
            "admissibility          8.8817841970012523e-16\n"
            "el_real                6.6613381477509392e-16\n"
            "el_dual                8.8817841970012523e-16\n"
            "first_integral         1.7763568394002505e-15\n"
            "characterization_re    6.6613381477509392e-16\n"
            "characterization_du    8.8817841970012523e-16\n"
            "inferred_c             2\n"
            "tolerance              1e-08\n"
            "result                 PASS\n"
        )

    def test_nan_residual_fails(self, capsys):
        # c = 1e-300 makes c**2 * y**2 = 0 * inf: the first integral is NaN.
        code, out, _ = run_cli(capsys, "verify", "--alpha", "1", "--c", "1e-300")
        assert code == 1
        assert "first_integral         nan\n" in out
        assert out.endswith("result                 FAIL\n")

    def test_closed_form_passes(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--alpha", "1", "--c", "2", "--v", "1.1",
            "--d1", "-0.6", "--d2", "0.4",
        )
        assert code == 0
        assert "result                 PASS" in out
        assert "inferred_c             2" in out

    def test_solver_curve_passes(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--alpha", "0.5", "--solve", "--domain", "-0.75:0.75",
            "--z0", "0.2", "--zp0", "0.1", "--v", "0.3",
        )
        assert code == 0
        assert "result                 PASS" in out

    def test_family_mismatch_fails(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--alpha", "-1", "--curve-alpha", "1"
        )
        assert code == 1
        assert "result                 FAIL" in out
        line = next(l for l in out.splitlines() if l.startswith("characterization_re"))
        assert float(line.split()[-1]) > 0.5

    def test_tolerance_override(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--alpha", "-1", "--curve-alpha", "1", "--tol", "10"
        )
        assert code == 0 and "PASS" in out


class TestEnergy:
    def test_readme_example(self, capsys):
        code, out, _ = run_cli(capsys, "energy", "--alpha", "1", "--domain", "0:1")
        assert code == 0
        assert out == "e0 = 1.4067151019617548\ne1 = 0\ntotal = 1.4067151019617548 + 0 eps\n"

    def test_worked_value(self, capsys):
        code, out, _ = run_cli(capsys, "energy", "--alpha", "1", "--domain", "0:1")
        assert code == 0
        lines = dict(l.split(" = ") for l in out.strip().splitlines())
        assert float(lines["e0"]) == pytest.approx(0.5 + math.sinh(2.0) / 4.0, abs=1e-12)
        assert float(lines["e1"]) == 0.0
        assert lines["total"].endswith(" eps")

    def test_tilted_split(self, capsys):
        _, out, _ = run_cli(
            capsys, "energy", "--alpha", "1", "--v", "1", "--domain", "0:1"
        )
        lines = dict(l.split(" = ") for l in out.strip().splitlines())
        assert abs(float(lines["e1"])) < 1e-14


class TestVariation:
    def test_stationary_family_passes(self, capsys):
        code, out, _ = run_cli(
            capsys, "variation", "--alpha", "1", "--count", "3", "--v", "0.5"
        )
        assert code == 0
        assert out.count("dE = ") == 3
        assert "result                 PASS" in out

    def test_perturbed_curve_fails(self, capsys):
        code, out, _ = run_cli(
            capsys, "variation", "--alpha", "1", "--count", "5", "--perturb", "0.1"
        )
        assert code == 1
        assert "result                 FAIL" in out


class TestErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            ("generate", "--alpha", "2"),  # no closed form without --solve
            ("generate", "--alpha", "1", "--samples", "1"),
            ("generate", "--alpha", "1", "--domain", "2:1"),
            ("generate", "--alpha", "1", "--domain", "nope"),
            ("generate", "--alpha", "1", "--c", "-1"),
            ("generate", "--alpha", "-1", "--domain", "-5:5"),  # outside the rim
            ("energy", "--alpha", "0", "--c", "1.5", "--m", "0"),  # height crosses zero
            ("variation", "--alpha", "1", "--count", "0"),
            ("variation", "--alpha", "1", "--v", "inf", "--count", "1"),
            ("energy", "--alpha", "1", "--panels", "0"),
            ("verify", "--alpha", "nan", "--solve"),
            ("verify", "--alpha", "1", "--c", "1e305", "--samples", "3"),  # height overflows
            ("generate", "--alpha", "1", "--c", "1e305", "--samples", "3"),
            # c**2 overflows (the height would be 1e-305 everywhere)
            ("verify", "--alpha", "1", "--c", "1e305", "--domain", "-1e-306:1e-306", "--samples", "3"),
            ("generate", "--alpha", "0.5", "--solve", "--step", "1e-9"),  # too many steps
            # z' overflows in the dual solve
            ("generate", "--alpha", "0.5", "--solve", "--domain=-0.75:0.75", "--zp0", "1.7e308"),
            ("verify", "--alpha", "0.5", "--solve", "--domain=-0.75:0.75", "--zp0", "1.7e308"),
            # the inferred first-integral constant leaves the float range
            ("verify", "--alpha", "-1", "--curve-alpha", "0", "--m", "1e-200", "--samples", "3"),
        ],
    )
    def test_usage_errors_exit_2(self, capsys, argv):
        code, _, err = run_cli(capsys, *argv)
        assert code == 2
        assert err.startswith("error:")

    def test_argparse_rejects_bad_branch(self):
        with pytest.raises(SystemExit) as exc:
            main(["generate", "--alpha", "0", "--branch", "sideways"])
        assert exc.value.code == 2

    def test_missing_alpha_rejected(self):
        with pytest.raises(SystemExit) as exc:
            main(["generate"])
        assert exc.value.code == 2


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "dualcat", "verify", "--alpha", "1"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    assert "PASS" in proc.stdout


@pytest.mark.parametrize(
    "argv, name",
    [
        (("verify", "--alpha", "1", "--c", "1e305", "--domain=-1e-306:1e-306", "--samples", "3"), "c"),
        (("generate", "--alpha", "0", "--c", "1e200", "--samples", "3"), "c"),
        (("energy", "--alpha", "-1", "--R", "1e200"), "R"),
        # cosh(c*x + m) overflows at the domain ends, before any formula runs
        (("verify", "--alpha", "1", "--c", "1000", "--samples", "3"), "c"),
        (("variation", "--alpha", "1", "--c", "1000", "--count", "1"), "c"),
    ],
)
def test_overflowing_parameter_gives_one_error_line(argv, name):
    # A subprocess, so NumPy warnings would reach stderr as they do for users.
    proc = subprocess.run(
        [sys.executable, "-m", "dualcat", *argv], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 2
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert f"{name} = " in lines[0] and "overflows" in lines[0]


def test_nan_probe_writes_nothing_to_stderr():
    # The NaN reaches the gate as a value; NumPy's overflow warnings stay quiet.
    proc = subprocess.run(
        [sys.executable, "-m", "dualcat", "verify", "--alpha", "1", "--c", "1e-300", "--samples", "3"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 1
    assert "first_integral         nan\n" in proc.stdout
    assert proc.stdout.endswith("result                 FAIL\n")
    assert proc.stderr == ""


# Pairs of calls where the first sets a flag, or fails, and the second does not.
REUSE_SEQUENCE = [
    ("verify", "--alpha", "1", "--curve-alpha", "0", "--c", "1.5", "--m", "4", "--samples", "5"),
    ("verify", "--alpha", "1", "--c", "1.5", "--m", "4", "--samples", "5"),
    ("variation", "--alpha", "1", "--count", "2", "--perturb", "0.1"),
    ("variation", "--alpha", "1", "--count", "2"),
    ("generate", "--alpha", "-1", "--R", "2", "--v", "0.5", "--samples", "4", "--format", "csv"),
    ("generate", "--alpha", "-1", "--R", "2", "--v", "0.5", "--samples", "4", "--format", "json"),
    ("generate", "--alpha", "0", "--branch", "sideways"),
    ("generate",),
    ("verify", "--alpha", "1", "--samples", "5"),
]


def test_reused_parser_matches_fresh_processes(capsys, monkeypatch):
    builds = []
    build_parser = cli.build_parser

    def counting_build_parser():
        builds.append(1)
        return build_parser()

    cli._parser.cache_clear()
    monkeypatch.setattr(cli, "build_parser", counting_build_parser)
    try:
        in_process = []
        for argv in REUSE_SEQUENCE:
            try:
                code = main(list(argv))
            except SystemExit as exc:
                code = exc.code
            in_process.append((code, capsys.readouterr().out))
    finally:
        cli._parser.cache_clear()
    assert len(builds) == 1
    assert [code for code, _ in in_process] == [1, 0, 1, 0, 0, 0, 2, 2, 0]
    fresh = [
        subprocess.Popen(
            [sys.executable, "-m", "dualcat", *argv],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        )
        for argv in REUSE_SEQUENCE
    ]
    outs = [proc.communicate(timeout=120)[0] for proc in fresh]
    for argv, got, proc, out in zip(REUSE_SEQUENCE, in_process, fresh, outs):
        assert got == (proc.returncode, out), argv


@pytest.mark.parametrize(
    "row",
    [
        (math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1.7976931348623157e308,
         -5e-324, -1.7976931348623157e308, 2.2250738585072014e-308, 0.1),
        (1.0, -1.0, 1e16, 1e17, 123456789012345678.0, 1e-5, 1e-4, 0.5, 2.0 / 3.0, -1e300, 1e-300),
    ],
)
def test_csv_row_format_matches_format_17g(row):
    assert CSV_ROW % row == ",".join(format(v, ".17g") for v in row)


def test_csv_row_format_on_random_bit_patterns():
    bits = np.random.default_rng(6).integers(0, 2**64, size=(2000, len(CSV_COLUMNS)), dtype=np.uint64)
    for row in bits.view(np.float64).tolist():
        assert CSV_ROW % tuple(row) == ",".join(format(v, ".17g") for v in row)


def _reference_csv(curve, alpha, v, samples):
    """The CSV table written value by value with format(v, ".17g")."""
    a, b = curve.domain
    report = dualcat.residual_report(curve, alpha, dualcat.DirectionSpec(v), grid=np.linspace(a, b, samples))
    lines = [",".join(CSV_COLUMNS)]
    for i in range(len(report.grid)):
        lines.append(",".join(format(float(report.columns[name][i]), ".17g") for name in CSV_COLUMNS))
    return "\n".join(lines) + "\n"


def test_csv_matches_value_by_value_reference(capsys):
    readme = dualcat.closed_form(dualcat.CatenaryParams(alpha=-1.0, R=2.0, v=0.5))
    init = dualcat.InitialData(0.0, 1.0, 0.0, 0.2, 0.1)
    solved = dualcat.solve_curve(0.5, init, (-0.75, 0.75), v=0.3)
    cases = [
        (("--alpha", "-1", "--R", "2", "--v", "0.5", "--samples", "3"), readme, -1.0, 0.5, 3),
        (("--alpha", "-1", "--R", "2", "--v", "0.5"), readme, -1.0, 0.5, 201),
        (
            ("--alpha", "0.5", "--solve", "--domain=-0.75:0.75", "--z0", "0.2", "--zp0", "0.1", "--v", "0.3"),
            solved, 0.5, 0.3, 201,
        ),
    ]
    for argv, curve, alpha, v, samples in cases:
        code, out, _ = run_cli(capsys, "generate", "--format", "csv", *argv)
        assert code == 0
        assert out == _reference_csv(curve, alpha, v, samples), argv


NO_SCIPY = """
import contextlib, io, sys
sys.modules["scipy"] = None
import dualcat
from dualcat.cli import main

solve = ["--alpha", "0.5", "--solve", "--domain=-0.5:0.5", "--samples", "5"]
runs = [
    ["verify", "--alpha", "1"],
    ["generate", "--alpha", "1", "--samples", "5"],
    ["energy", "--alpha", "-1"],
    ["variation", "--alpha", "1", "--count", "1"],
    ["verify", *solve],
    ["generate", *solve],
    ["energy", *solve],
    ["variation", *solve, "--count", "1"],
]
for argv in runs:
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0, argv
curve = dualcat.solve_curve(0.5, dualcat.InitialData(0.0, 1.0, 0.1, z0=0.2), (-0.5, 0.5))
x = curve.x_at_arclength(0.5 * curve.arc_length(*curve.domain))
assert curve.domain[0] < x < curve.domain[1]
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def test_runs_without_scipy():
    proc = subprocess.run(
        [sys.executable, "-c", NO_SCIPY], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "['scipy']"  # only the blocked placeholder
