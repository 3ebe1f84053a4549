"""Command-line interface behaviour: formats, exit codes, determinism."""

import argparse
import csv
import inspect
import io
import json
import math
import os
import platform
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dualcat
from dualcat import cli, quadrature
from dualcat.cli import CSV_COLUMNS, CSV_ROW, main

ROOT = Path(__file__).resolve().parent.parent


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _not_json(constant):
    raise ValueError(f"not JSON: {constant}")


def strict_json(text):
    """Parse text as RFC 8259 JSON, which has no NaN or Infinity."""
    return json.loads(text, parse_constant=_not_json)


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

    @pytest.mark.parametrize("argv, params", [
        (("--alpha", "-1", "--R", "2", "--d1", "0.3"),
         {"alpha": -1.0, "c": 1.0, "m": 0.0, "R": 2.0, "v": 0.0, "d1": 0.3, "d2": 0.0, "d3": 0.0,
          "branch": "plus", "solve": False, "samples": 3}),
        (("--alpha", "0.5", "--solve", "--domain=0.5:1.5", "--y0", "1.2", "--w0", "0.3", "--v", "0.2"),
         {"alpha": 0.5, "v": 0.2, "x0": 1.0, "y0": 1.2, "yp0": 0.0, "z0": 0.0, "zp0": 0.0, "w0": 0.3,
          "solve": True, "step": 0.001, "samples": 3}),
    ], ids=("closed", "solve"))
    def test_json_params_echo_what_the_curve_source_read(self, capsys, argv, params):
        code, out, err = run_cli(capsys, "generate", *argv, "--samples", "3")
        assert (code, err) == (0, "")
        assert strict_json(out)["params"] == params

    def test_json_writes_nonfinite_values_as_null(self, capsys):
        # c = 1e-300 makes the first-integral residual NaN (see TestVerify).
        probe = ("generate", "--alpha", "1", "--c", "1e-300", "--samples", "3")
        code, out, err = run_cli(capsys, *probe)
        assert (code, err) == (0, "")
        payload = strict_json(out)
        assert payload["summary"]["first_integral_max"] is None
        assert payload["summary"]["admissibility_max"] == 0.0
        assert payload["grid"] == [-1.0, 0.0, 1.0]

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

    def test_negative_value_as_its_own_token(self, capsys):
        joined = run_cli(capsys, "generate", "--alpha", "1", "--v=-1e-05", "--d1=-0.5", "--samples", "3")
        spaced = run_cli(capsys, "generate", "--alpha", "1", "--v", "-1e-05", "--d1", "-.5", "--samples", "3")
        assert joined[0] == 0 and spaced == joined

    def test_arc_w_far_from_the_origin_stays_finite(self, capsys):
        # w's d2 term is d2*(x - m): written as d2*x - d2*m, both products
        # overflow and every row of w reads nan.
        code, out, err = run_cli(
            capsys, "generate", "--alpha", "-1", "--R", "1e150", "--m", "1e160", "--d2", "1e150",
            "--format", "csv", "--samples", "3",
        )
        assert (code, err) == (0, "")
        assert out.splitlines() == [
            "x,y,w,z,yp,zp,kappa_re,kappa_du,char_res_re,char_res_du,admis_res",
            "9.9999999990009999e+159,4.4707522556132341e+148,-9.3077313563567721e+299,1.5692555275454236e+300,"
            "22.345235470786402,-1.5260738975400034e+150,-0,1,1.0000000000000001e-150,-4.6629367034256575e-15,0",
            "1e+160,9.9999999999999998e+149,0,9.999999999999999e+299,-0,0,-0,1,1e-150,0,0",
            "1.0000000000999e+160,4.4707522556132341e+148,9.3077313563567721e+299,1.5692555275454236e+300,"
            "-22.345235470786402,1.5260738975400034e+150,-0,1,1.0000000000000001e-150,-4.6629367034256575e-15,0",
        ]

    def test_solver_truncation_exits_3(self, capsys):
        code, _, err = run_cli(
            capsys, "generate", "--alpha", "3", "--solve", "--domain", "-1:1"
        )
        assert code == 3
        assert "truncated" in err


TRUNCATION_ROWS = [
    ("verify",), ("energy",), ("variation", "--count", "1"),
    # the --perturb curve carries no solve tag; the exit comes from the solve
    ("variation", "--count", "1", "--perturb", "0.1"),
    ("generate", "--samples", "3"),
]


# Each row again with a deformation, whose w needs a table over the whole solve.
@pytest.mark.parametrize("argv", TRUNCATION_ROWS + [row + ("--z0", "1", "--zp0", "0.5") for row in TRUNCATION_ROWS])
def test_every_command_exits_3_on_truncation(capsys, argv):
    code, out, err = run_cli(capsys, *argv, "--alpha", "3", "--solve", "--domain", "-2:2")
    assert code == 3
    assert "truncated" in err
    assert out


def test_leftover_domain_exits_3(capsys):
    # Three steps of 0.3 from x = 0 reach +-0.9, not the requested +-1.
    argv = ("--alpha", "1", "--solve", "--domain", "-1:1", "--step", "0.3")
    warning = "warning: solve truncated, achieved domain [-0.89999999999999991, 0.89999999999999991]\n"
    code, out, err = run_cli(capsys, "energy", *argv)
    assert (code, err) == (3, warning)
    assert out.startswith("e0 = 2.3710234860783999\n")
    code, out, err = run_cli(capsys, "generate", *argv, "--samples", "3")
    assert (code, err) == (3, warning)
    assert json.loads(out)["summary"]["truncated"] is True


TRUNCATED_AT_3 = "warning: solve truncated, achieved domain [-0.66700000000000004, 0.66700000000000004]\n"


class TestSolvePinned:
    """Exact output of --solve commands besides the README's: a coarse solve and a truncated one."""

    @pytest.mark.parametrize("samples", ["40", "41"])
    def test_read_between_knots(self, capsys, samples):
        # At step 0.05, 41 samples all fall on knots, where a solve's y'' and
        # z'' are the system's own right-hand side; the knot cells' Gauss
        # points show the interpolation error whatever the sample count.
        code, out, _ = run_cli(
            capsys, "verify", "--alpha", "1", "--solve", "--domain=-1:1", "--z0", "0.2", "--zp0", "0.1",
            "--v", "0.3", "--step", "0.05", "--samples", samples,
        )
        assert code == 1
        assert "el_dual                7.0483629903264244e-06\n" in out
        assert out.endswith("result                 FAIL\n")

    def test_truncated_energy(self, capsys):
        got = run_cli(capsys, "energy", "--alpha", "3", "--solve", "--domain", "-2:2")
        assert got == (
            3,
            "e0 = 107.87961544952209\ne1 = 0\ntotal = 107.87961544952209 + 0 eps\n",
            TRUNCATED_AT_3,
        )

    def test_truncated_generate_summary(self, capsys):
        code, out, err = run_cli(
            capsys, "generate", "--alpha", "3", "--solve", "--domain", "-2:2", "--samples", "3"
        )
        assert (code, err) == (3, TRUNCATED_AT_3)
        assert json.loads(out)["summary"] == {
            "inferred_c": 1.0,
            "achieved_domain": [-0.667, 0.667],
            "truncated": True,
            "admissibility_max": 0.0,
            "el_real_max": 6.194732806623494e-06,
            "el_dual_max": 0.0,
            "first_integral_max": 0.0001675839498602727,
            "characterization_re_max": 1.1412994579441949e-07,
            "characterization_du_max": 0.0,
        }


@pytest.mark.parametrize("command, tables", [
    (("verify",), 0),
    (("energy",), 0),
    (("variation", "--count", "2"), 0),
    (("generate",), 1),
])
def test_w_table_built_only_to_print_w(capsys, monkeypatch, command, tables):
    # A solve's w values come from a cumulative table of w', which only the
    # commands that print w need.
    built = []

    class Spy(quadrature.CumulativeIntegral):
        def __init__(self, f, edges):
            built.append(len(edges))
            super().__init__(f, edges)

    monkeypatch.setattr(quadrature, "CumulativeIntegral", Spy)
    readme_solve = (
        "--alpha", "0.5", "--solve", "--domain", "-0.75:0.75", "--z0", "0.2", "--zp0", "0.1", "--v", "0.3",
    )
    code, _, err = run_cli(capsys, command[0], *readme_solve, *command[1:])
    assert (code, err) == (0, "")
    assert len(built) == tables


@pytest.mark.parametrize(
    "argv",
    [
        ("generate", "--alpha", "0.5", "--solve", "--domain", "-0.75:0.75", "--samples", "3"),
        ("verify", "--alpha", "0.5", "--solve", "--domain", "-0.75:0.75", "--samples", "3"),
        ("generate", "--alpha", "1", "--domain", "-1:1", "--samples", "3", "--format", "csv"),
    ],
    ids=["generate-solve-json", "verify-solve", "generate-closed-csv"],
)
def test_domain_parsed_once_per_command(capsys, monkeypatch, argv):
    # _validate turns --domain into (lo, hi) once; the curve builder, a solve's
    # initial data and generate's JSON echo all read that tuple.
    parsed = []
    parse = cli._parse_domain
    monkeypatch.setattr(cli, "_parse_domain", lambda text: parsed.append(text) or parse(text))
    code, _, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    assert parsed == [argv[argv.index("--domain") + 1]]


@pytest.mark.parametrize("command", ["generate", "verify"])
@pytest.mark.parametrize(
    "argv",
    [
        ("--alpha", "-1", "--v", "0.3", "--d1", "0.2"),
        ("--alpha", "0.5", "--solve", "--domain", "-0.75:0.75", "--z0", "0.2", "--zp0", "0.1", "--v", "0.3"),
    ],
    ids=["closed", "solve"],
)
def test_one_frame_per_command(capsys, monkeypatch, command, argv):
    # residual_report samples the curve once, and generate prints the slopes
    # and curvature of that frame.
    frames = []
    build = dualcat.GraphCurve.frame
    monkeypatch.setattr(dualcat.GraphCurve, "frame", lambda self, x: frames.append(x) or build(self, x))
    code, _, err = run_cli(capsys, command, *argv)
    assert (code, err) == (0, "")
    assert len(frames) == 1


class TestVerify:
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
    # Exact stdout of closed forms in each family.  At alpha 0, y' and z' are
    # constant, so the fixer bump's denominator vanishes and the fixer joins
    # delta_z with coefficient 0.
    @pytest.mark.parametrize(
        "argv, code, lines",
        [
            (
                ("--alpha", "1", "--c", "1.3", "--v", "0.8", "--d1", "0.4"),
                0,
                [
                    "seed 0: dE = 1.7347234759768071e-18 + -1.0408340855860843e-17 eps",
                    "seed 1: dE = 2.927345865710862e-18 + -8.6736173798840355e-18 eps",
                    "seed 2: dE = 3.1035287187397564e-18 + 1.3010426069826053e-18 eps",
                    "max_abs_re             3.1035287187397564e-18",
                    "max_abs_du             1.0408340855860843e-17",
                    "tolerance              1.0000000000000001e-05",
                    "result                 PASS",
                ],
            ),
            (
                ("--alpha", "0", "--c", "1.5", "--m", "4", "--d1", "0.3"),
                0,
                [
                    "seed 0: dE = 6.9388939039072284e-18 + -4.670237504062639e-20 eps",
                    "seed 1: dE = 4.5536491244391186e-18 + -9.5201174936291888e-20 eps",
                    "seed 2: dE = -5.9631119486702744e-19 + -3.2983789437628439e-19 eps",
                    "max_abs_re             6.9388939039072284e-18",
                    "max_abs_du             3.2983789437628439e-19",
                    "tolerance              1.0000000000000001e-05",
                    "result                 PASS",
                ],
            ),
            (
                ("--alpha", "-1", "--v", "0.3", "--d1", "0.2"),
                0,
                [
                    "seed 0: dE = -1.6566609195578508e-16 + -8.5518397918704636e-14 eps",
                    "seed 1: dE = 3.4205440129636555e-14 + -6.4771538826891017e-14 eps",
                    "seed 2: dE = 3.8945040091052305e-14 + 1.6046192152785466e-14 eps",
                    "max_abs_re             3.8945040091052305e-14",
                    "max_abs_du             8.5518397918704636e-14",
                    "tolerance              1.0000000000000001e-05",
                    "result                 PASS",
                ],
            ),
            (
                ("--alpha", "1", "--perturb", "0.1"),
                1,
                [
                    "seed 0: dE = -0.0026442512698280993 + 0.049352617972705945 eps",
                    "seed 1: dE = 0.0041756263831119458 + 0.051831309782981366 eps",
                    "seed 2: dE = 0.0014697939123277581 + -0.050259274098853113 eps",
                    "max_abs_re             0.0041756263831119458",
                    "max_abs_du             0.051831309782981366",
                    "tolerance              1.0000000000000001e-05",
                    "result                 FAIL",
                ],
            ),
        ],
        ids=["alpha1", "alpha0", "alpha-1", "perturbed"],
    )
    def test_pinned_output(self, capsys, argv, code, lines):
        got, out, err = run_cli(capsys, "variation", *argv, "--count", "3")
        assert (got, out, err) == (code, "\n".join(lines) + "\n", "")

    @pytest.mark.parametrize(
        "argv, build",
        [
            (
                ("--alpha", "1", "--perturb", "0.1"),
                lambda: dualcat.perturbed_curve(
                    dualcat.closed_form(dualcat.CatenaryParams(alpha=1.0), (-1.0, 1.0)),
                    dualcat.BumpSum((dualcat.Bump(0.0, 0.6),), (1.0,)), dualcat.BumpSum((), ()), 0.1,
                ),
            ),
            # At exponent 0 the fixer joins with coefficient 0, on the panels the draw was given.
            (
                ("--alpha", "0", "--c", "1.5", "--m", "2"),
                lambda: dualcat.closed_form(dualcat.CatenaryParams(alpha=0.0, c=1.5, m=2.0)),
            ),
        ],
        ids=["alpha1", "alpha0"],
    )
    def test_panels_reach_the_library(self, capsys, argv, build):
        argv = ("variation", *argv, "--count", "1")
        _, out, _ = run_cli(capsys, *argv, "--panels", "8")
        _, default, _ = run_cli(capsys, *argv)
        var = dualcat.make_constrained_variation(build(), 0, panels=8)
        assert var.panels == 8
        fv = dualcat.first_variation(var, dualcat.DirectionSpec(0.0), float(argv[2]))
        first = "seed 0: dE = %.17g + %.17g eps" % (fv.re, fv.du)
        assert out.splitlines()[0] == first
        assert default.splitlines()[0] != first

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

    @pytest.mark.parametrize(
        "argv, lines",
        [
            (
                ("--alpha", "0.5", "--solve", "--domain=-0.75:0.75", "--perturb", "0.05"),
                [
                    "seed 0: dE = -0.0026777478816315311 + -0.015835577259747068 eps",
                    "seed 1: dE = 0.0029357683376826475 + -0.015756919273852529 eps",
                    "max_abs_re             0.0029357683376826475",
                    "max_abs_du             0.015835577259747068",
                ],
            ),
            (
                ("--alpha", "-1", "--R", "2", "--v", "0.5", "--perturb", "0.03"),
                [
                    "seed 0: dE = -0.00021032404020402589 + 0.00057138846987533042 eps",
                    "seed 1: dE = 0.00027261263793266848 + 0.00090514467057887268 eps",
                    "max_abs_re             0.00027261263793266848",
                    "max_abs_du             0.00090514467057887268",
                ],
            ),
        ],
        ids=["solved", "alpha-1"],
    )
    def test_pinned_perturbed_output(self, capsys, argv, lines):
        # Perturbed curves evaluate bump sums inside y and z as well.
        lines = lines + ["tolerance              1.0000000000000001e-05", "result                 FAIL"]
        got = run_cli(capsys, "variation", *argv, "--count", "2")
        assert got == (1, "\n".join(lines) + "\n", "")

    @pytest.mark.parametrize(
        "argv, builds", [(("--alpha", "1"), 3), (("--alpha", "0", "--c", "1.5", "--m", "2"), 3)], ids=["alpha1", "alpha0"]
    )
    def test_one_node_set_per_seed(self, capsys, monkeypatch, argv, builds):
        # A field holds the samples its constraint was corrected on, also at
        # exponent 0, where the fixer's denominator vanishes and it joins with coefficient 0.
        calls, build = [], quadrature.partitioned_nodes
        monkeypatch.setattr(quadrature, "partitioned_nodes", lambda *args: calls.append(args) or build(*args))
        code, _, _ = run_cli(capsys, "variation", *argv, "--count", "3")
        assert (code, len(calls)) == (0, builds)

    def test_steep_line_passes(self, capsys):
        # The fixer integral of a line vanishes whatever its slope, so every seed builds.
        code, out, err = run_cli(capsys, "variation", "--alpha", "0", "--c", "1e6", "--m", "2e6", "--count", "20")
        assert (code, err) == (0, "")
        assert out.count("dE = ") == 20
        assert out.splitlines()[-1] == "result                 PASS"

    def test_line_on_a_tiny_domain_passes(self, capsys):
        # A line's constraint integral vanishes when the panels split at the
        # bump edges, which they do on a domain 1e-12 wide as on any other.
        code, out, err = run_cli(
            capsys, "variation", "--alpha", "0", "--c", "1.5", "--m", "2", "--domain=0:1e-12", "--count", "5"
        )
        assert (code, err) == (0, "")
        assert out.count("dE = ") == 5
        assert out.splitlines()[-1] == "result                 PASS"

    def test_overflowing_constraint_is_an_error(self, capsys):
        code, out, err = run_cli(
            capsys, "variation", "--alpha", "1", "--perturb", "0.1", "--domain=-1e-300:1e-300", "--count", "1"
        )
        assert (code, out) == (2, "")
        assert err.startswith("error: seed 0: constraint integral") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv",
        [("--domain=0:1.7e308",), ("--domain=-1.7e308:1", "--perturb", "0.1", "--panels", "4")],
        ids=["seeded", "perturbed"],
    )
    def test_bump_whose_square_overflows_is_an_error(self, capsys, argv):
        # On a domain this wide a bump's radius squares past the float range:
        # the seeded bumps' in one case, the perturbing bump's in the other.
        code, out, err = run_cli(capsys, "variation", "--alpha", "0", "--c", "2", "--m", "3", *argv, "--count", "1")
        assert (code, out) == (2, "")
        assert err.startswith("error: a bump radius must have a finite square") and err.count("\n") == 1

    def test_nan_first_variation_fails_the_gate(self, capsys, monkeypatch):
        # A NaN dE on the first seed stays the maximum after finite ones.
        values = iter(dualcat.DualScalar(*pair) for pair in [(math.nan, 1e-9), (1e-9, math.nan), (1e-9, 2e-9)])
        monkeypatch.setattr(cli, "first_variation", lambda *args: next(values))
        code, out, _ = run_cli(capsys, "variation", "--alpha", "1", "--count", "3")
        assert code == 1
        assert out.splitlines()[-4:] == [
            f"{'max_abs_re':<22} nan", f"{'max_abs_du':<22} nan", f"{'tolerance':<22} 1.0000000000000001e-05",
            f"{'result':<22} FAIL",
        ]


@pytest.mark.parametrize(
    "argv",
    [
        ("energy", "--alpha", "-1", "--v", "0.3", "--d1", "0.2", "--d2", "0.5", "--panels", "3000"),
        ("variation", "--alpha", "1", "--c", "1.3", "--v", "0.4", "--d1", "0.2", "--perturb", "0.1",
         "--panels", "3000", "--count", "2"),
        ("generate", "--alpha", "1.7", "--solve", "--domain=-0.5:0.9", "--z0", "0.3", "--zp0", "-0.2", "--v", "0.2",
         "--samples", "301", "--format", "csv"),
    ],
)
def test_output_does_not_depend_on_blas_kernel_or_threads(argv):
    # Each printed digit comes from a rule sum: the composite rules of energy
    # and variation, here 15,000 nodes (more than OpenBLAS sums on one
    # thread), and the 5-point sums of the table that a solve's w column
    # reads.  The SSE3 Prescott kernel runs on every x86-64 CPU and, without
    # FMA, rounds a dot differently from the AVX2 and AVX-512 kernels; a
    # kernel that needs AVX2 or AVX-512 may not run on the CPU at hand, so
    # none is forced.
    envs = [{"OPENBLAS_NUM_THREADS": "1"}, {"OPENBLAS_NUM_THREADS": "2"}]
    if platform.machine() in ("x86_64", "AMD64"):
        envs.append({"OPENBLAS_CORETYPE": "Prescott"})
    runs = []
    for env in envs:
        proc = subprocess.run(
            [sys.executable, "-m", "dualcat", *argv], capture_output=True, env={**os.environ, **env}, timeout=120
        )
        runs.append((proc.returncode, proc.stdout, proc.stderr))
    assert all(run == runs[0] for run in runs)
    assert runs[0][1].count(b"\n") >= 3


def test_variation_and_energy_leave_numpy_ma_unloaded():
    # np.unique and np.union1d import numpy.ma on NumPy 2 (about 1.2 MB).
    script = """
import contextlib, io, sys
import numpy
preloaded = "numpy.ma" in sys.modules
import dualcat
from dualcat.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    main(["energy", "--alpha", "1"])
    main(["variation", "--alpha", "1", "--count", "2"])
    main(["variation", "--alpha", "1", "--count", "2", "--perturb", "0.1"])
bump = dualcat.BumpSum((dualcat.Bump(0.0, 0.6),), (1.0,))
base = dualcat.closed_form(dualcat.CatenaryParams(alpha=1.0, v=1.0))
dualcat.perturbed_curve(base, bump, bump, 0.1).w.value(0.2)
print(preloaded, "numpy.ma" in sys.modules)
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    preloaded, loaded = proc.stdout.split()
    if preloaded == "True":
        pytest.skip("this NumPy imports numpy.ma with numpy itself")
    assert loaded == "False"


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
            # rejected before any array of that size is allocated
            ("verify", "--alpha", "1", "--samples", "10000000000000"),
            ("energy", "--alpha", "1", "--panels", "10000000000000"),
            ("variation", "--alpha", "1", "--count", "1", "--panels", "10000000000000"),
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
            ("verify", "--alpha", "1", "--v", "-inf"),  # a separate negative value reaches _validate
            ("variation", "--alpha", "1", "--seed", "-1", "--count", "1"),  # NumPy seeds are non-negative
            ("verify", "--alpha", "1", "--tol", "-1"),  # a gate that no value can pass
            ("variation", "--alpha", "1", "--count", "1", "--tol", "-1"),
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

    @pytest.mark.parametrize("command", ["generate", "verify", "energy", "variation"])
    @pytest.mark.parametrize(
        "argv, flag",
        [(("--solve", f"--{name}", "0.5"), name) for name in ("c", "m", "R", "d1", "d2", "d3")]
        + [(("--solve", "--branch", "minus"), "branch")]
        + [((f"--{name}", "0.5"), name) for name in ("y0", "yp0", "z0", "zp0", "w0", "step")],
    )
    def test_flag_of_the_other_curve_source_exits_2(self, capsys, command, argv, flag):
        code, out, err = run_cli(capsys, command, "--alpha", "0.5", *argv)
        assert code == 2 and out == ""
        [line] = err.splitlines()
        assert line.startswith("error:") and f"--{flag}" in line

    def test_each_flag_of_the_other_source_is_named(self, capsys):
        argv = ("generate", "--alpha", "0.5", "--solve", "--c", "7", "--d1", "3", "--samples", "2")
        code, _, err = run_cli(capsys, *argv)
        assert (code, err) == (2, "error: --solve does not read --c, --d1\n")
        code, _, err = run_cli(capsys, "verify", "--alpha", "1", "--y0", "5", "--step", "0.5")
        assert (code, err) == (2, "error: only --solve reads --y0, --step\n")

    @pytest.mark.parametrize(
        "argv",
        [
            ("energy", "--alpha", "-1", "--samples", "100000"),
            ("energy", "--alpha", "1", "--tol", "1"),
            ("generate", "--alpha", "1", "--panels", "8"),
            ("generate", "--alpha", "1", "--seed", "3"),
            ("verify", "--alpha", "1", "--format", "csv"),
            ("variation", "--alpha", "1", "--samples", "5"),
        ],
    )
    def test_flag_the_subcommand_does_not_read_exits_2(self, argv):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2


CURVE_FLAGS = {
    "--alpha", "--c", "--m", "--R", "--v", "--d1", "--d2", "--d3", "--branch", "--domain",
    "--solve", "--step", "--y0", "--yp0", "--z0", "--zp0", "--w0",
}
ACCEPTED_FLAGS = {
    "generate": CURVE_FLAGS | {"--samples", "--format"},
    "verify": CURVE_FLAGS | {"--samples", "--tol", "--curve-alpha"},
    "energy": CURVE_FLAGS | {"--panels"},
    "variation": CURVE_FLAGS | {"--tol", "--panels", "--seed", "--perturb", "--count"},
}


def test_each_subcommand_accepts_only_the_flags_it_reads():
    [subparsers] = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    accepted = {
        name: {flag for action in parser._actions for flag in action.option_strings} - {"-h", "--help"}
        for name, parser in subparsers.choices.items()
    }
    assert accepted == ACCEPTED_FLAGS
    assert {name: len(flags) for name, flags in accepted.items()} == {
        "generate": 19, "verify": 20, "energy": 18, "variation": 22,
    }


def test_samples_default_is_the_report_default():
    # One constant owns the report's grid size, as quadrature.PANELS owns the rule's panels.
    default = inspect.signature(dualcat.residual_report).parameters["num"].default
    for command in ("generate", "verify"):
        assert cli.build_parser().parse_args([command, "--alpha", "1"]).samples == default == 201


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "dualcat", "verify", "--alpha", "1"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    assert "PASS" in proc.stdout


def test_closed_pipe_exits_141_quietly():
    # The reader goes away after one line, as `| head -1` does.
    argv = ("generate", "--alpha", "1", "--format", "csv", "--samples", "20000")
    with subprocess.Popen(
        [sys.executable, "-m", "dualcat", *argv], stdout=subprocess.PIPE, stderr=subprocess.PIPE
    ) as proc:
        assert proc.stdout.readline() == (",".join(CSV_COLUMNS) + "\n").encode()
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=120) == cli.EXIT_BROKEN_PIPE == 141
    assert err == b""


def readme_cli_examples() -> list:
    """(argv, shown lines) for each README block that begins with `$ dualcat`."""
    readme = (ROOT / "README.md").read_text()
    examples = []
    for block in re.findall(r"^```\w*\n(.*?)^```", readme, re.M | re.S):
        if block.startswith("$ dualcat "):
            command, *shown = block.splitlines()
            examples.append((shlex.split(command)[2:], shown))
    return examples


README_EXAMPLES = readme_cli_examples()


def test_readme_cli_examples_found():
    assert [argv[0] for argv, _ in README_EXAMPLES] == ["verify", "verify", "energy", "generate", "variation"]


@pytest.mark.parametrize(
    "argv, shown", README_EXAMPLES, ids=[f"{i}-{argv[0]}" for i, (argv, _) in enumerate(README_EXAMPLES)]
)
def test_readme_cli_example(capsys, argv, shown):
    # Without a line that ends in "...", the block is the whole output; with
    # one, each shown line is printed as is, and the one ending in "..." is a prefix.
    code, out, err = run_cli(capsys, *argv)
    assert code == 0 and err == ""
    printed = out.splitlines()
    if not any(want.endswith("...") for want in shown):
        assert printed == shown
    assert len(printed) >= len(shown)
    for got, want in zip(printed, shown):
        if want.endswith("..."):
            assert got.startswith(want[:-3])
        else:
            assert got == want


@pytest.mark.parametrize(
    "argv, name",
    [
        (("verify", "--alpha", "1", "--c", "1e305", "--domain=-1e-306:1e-306", "--samples", "3"), "c"),
        (("generate", "--alpha", "0", "--c", "1e200", "--samples", "3"), "c"),
        (("energy", "--alpha", "-1", "--R", "1e200"), "R"),
        # cosh(c*x + m) overflows at the domain ends, before any formula runs
        (("verify", "--alpha", "1", "--c", "1000", "--samples", "3"), "c"),
        (("variation", "--alpha", "1", "--c", "1000", "--count", "1"), "c"),
        # heights reach 5e305, so height times speed overflows in the energy
        (("energy", "--alpha", "1", "--c", "1.5", "--domain=0:470"), "e0"),
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
    """The CSV table read off the curve on its grid and written value by value
    with format(v, ".17g")."""
    xs = np.linspace(*curve.domain, samples)
    kappa = curve.curvature(xs)
    char = curve.characterization_residual(alpha, dualcat.DirectionSpec(v), xs)
    cols = (
        xs, curve.y.value(xs), curve.w.value(xs), curve.z.value(xs), curve.y.deriv(xs), curve.z.deriv(xs),
        kappa.re, kappa.du, char.re, char.du, curve.admissibility_residual(xs),
    )
    lines = [",".join(CSV_COLUMNS)]
    for i in range(samples):
        lines.append(",".join(format(float(col[i]), ".17g") for col in cols))
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

solve = ["--alpha", "0.5", "--solve", "--domain=-0.5:0.5"]
runs = [
    ["verify", "--alpha", "1"],
    ["generate", "--alpha", "1", "--samples", "5"],
    ["energy", "--alpha", "-1"],
    ["variation", "--alpha", "1", "--count", "1"],
    ["verify", *solve, "--samples", "5"],
    ["generate", *solve, "--samples", "5"],
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
