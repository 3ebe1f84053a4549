"""Property test over the CLI flags, run in process so every example reuses one parser.

Each example draws a subcommand, then either a closed-form family with
parameters in the ranges the README and the benchmark use or a ``--solve``
curve at a non-integer exponent, and sometimes one known bad input: a
non-finite float, ``--samples 1``, ``--count 0`` or a domain with lo >= hi.
Each value is passed as ``--flag=value`` or as ``--flag value``.
"""

import contextlib
import io
import json
import math

from hypothesis import given, settings, strategies as st

from dualcat.cli import main

# Closed-form families: the exponent, its parameter ranges and its default domain.
FAMILIES = {
    "1": ({"c": (0.5, 2.5), "m": (-0.5, 0.5)}, (-1.0, 1.0)),
    "0": ({"c": (1.05, 2.5), "m": (2.5, 4.5)}, (-1.0, 1.0)),
    "-1": ({"R": (1.0, 2.5), "m": (-0.3, 0.3)}, None),
}
# --solve curves: the exponent, the initial-data ranges and the step sizes.
SOLVE_ALPHA = (0.3, 0.8)
SOLVE_INITIAL = ("yp0", "z0", "zp0")
SOLVE_STEPS = ("1e-3", "2e-3", "5e-3", "1e-2")
DEFORMATION = ("v", "d1", "d2", "d3")
FLOAT_FLAGS = ("alpha", "c", "m", "R", "v", "d1", "d2", "d3", "tol")


def _num(draw, lo, hi):
    return draw(st.floats(lo, hi, allow_nan=False, allow_infinity=False))


def _flag(draw, name, value):
    """``--name=value`` or ``--name value``, as drawn."""
    return [f"--{name}={value}"] if draw(st.booleans()) else [f"--{name}", value]


@st.composite
def cli_argv(draw):
    command = draw(st.sampled_from(("generate", "verify", "energy", "variation")))
    if draw(st.integers(0, 4)) == 0:
        argv, domain = [command, "--alpha", repr(_num(draw, *SOLVE_ALPHA)), "--solve"], (-1.0, 1.0)
        for name in SOLVE_INITIAL:
            argv += _flag(draw, name, repr(_num(draw, -0.3, 0.3)))
        argv += _flag(draw, "step", draw(st.sampled_from(SOLVE_STEPS)))
    else:
        family = draw(st.sampled_from(sorted(FAMILIES)))
        ranges, domain = FAMILIES[family]
        params = {name: _num(draw, lo, hi) for name, (lo, hi) in ranges.items()}
        argv = [command, "--alpha", family]
        for name, val in params.items():
            argv += _flag(draw, name, repr(val))
    for name in DEFORMATION:
        if draw(st.booleans()):
            argv += _flag(draw, name, repr(_num(draw, -1.2, 1.2)))
    if draw(st.booleans()):
        if domain is None:
            radius = params["R"]
            domain = (params["m"] - 0.9 * radius, params["m"] + 0.9 * radius)
        lo, hi = sorted(_num(draw, *domain) for _ in range(2))
        if lo < hi:
            argv += _flag(draw, "domain", f"{lo!r}:{hi!r}")
    argv += ["--samples", str(draw(st.integers(2, 40)))]
    if command == "verify" and draw(st.booleans()):
        argv += _flag(draw, "tol", repr(draw(st.floats(1e-12, 1e-2))))
    if command == "verify" and draw(st.booleans()):
        argv += ["--curve-alpha", draw(st.sampled_from(sorted(FAMILIES)))]
    if command == "generate":
        argv += ["--format", draw(st.sampled_from(("csv", "json")))]
    if command in ("energy", "variation"):
        argv += ["--panels", str(draw(st.integers(1, 64)))]
    if command == "variation":
        argv += ["--count", str(draw(st.integers(1, 2))), "--seed", str(draw(st.integers(0, 10**6)))]
        if draw(st.booleans()):
            argv += _flag(draw, "perturb", repr(_num(draw, 0.05, 0.15)))

    bad = draw(st.sampled_from((None,) * 6 + ("non-finite", "samples", "count", "domain")))
    if bad == "non-finite":
        flag, val = draw(st.sampled_from(FLOAT_FLAGS)), draw(st.sampled_from(("nan", "inf", "-inf")))
        argv += _flag(draw, flag, val)
    elif bad == "samples":
        argv += ["--samples", "1"]
    elif bad == "count" and command == "variation":  # only variation takes --count
        argv += ["--count", "0"]
    elif bad == "domain":
        hi = _num(draw, -1.0, 1.0)
        lo = hi + draw(st.sampled_from((0.0, 0.5)))
        argv += _flag(draw, "domain", f"{lo!r}:{hi!r}")
    return argv


def _numbers(text):
    out = []
    for token in text.replace(",", " ").split():
        try:
            out.append(float(token))
        except ValueError:
            pass
    return out


@settings(max_examples=300, deadline=None, derandomize=True)
@given(cli_argv())
def test_cli_flag_properties(argv):
    out, err = io.StringIO(), io.StringIO()
    # Every drawn spelling parses, so an argparse rejection (SystemExit) fails.
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3), argv
    lines = out.getvalue().splitlines()
    passed = lines and lines[-1].split() == ["result", "PASS"]
    if passed or (argv[0] == "energy" and code == 0):
        assert all(math.isfinite(v) for v in _numbers(out.getvalue())), argv
    for line in err.getvalue().splitlines():
        assert line.startswith(("error:", "warning:")), (argv, line)
    # JSON output, when written, is strict JSON: no NaN or Infinity.
    if argv[0] == "generate" and argv[argv.index("--format") + 1] == "json" and out.getvalue():
        json.loads(out.getvalue(), parse_constant=_not_json)


def _not_json(constant):
    raise AssertionError(f"not JSON: {constant}")
