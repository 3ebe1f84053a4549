"""Property test over the CLI flags, run in process so every example reuses one parser.

Each example draws a subcommand, then either a closed-form family with
parameters in the ranges the README and the benchmark use or a ``--solve``
curve at a non-integer exponent, then the subcommand's own flags, and
sometimes one known bad input: a non-finite value of a float flag the example
takes, ``--samples 1``, ``--count 0``, a domain with lo >= hi, or one flag
that is not read (another subcommand's, or the other curve source's).
Each value is passed as ``--flag=value`` or as ``--flag value``.
"""

import contextlib
import io
import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from dualcat.cli import main

# Closed-form families: the exponent, its parameter ranges and its default domain.
FAMILIES = {
    "1": ({"c": (0.5, 2.5), "m": (-0.5, 0.5)}, (-1.0, 1.0)),
    "0": ({"c": (1.05, 2.5), "m": (2.5, 4.5)}, (-1.0, 1.0)),
    "-1": ({"R": (1.0, 2.5), "m": (-0.3, 0.3)}, None),
}
DEFORMATION = ("d1", "d2", "d3")
# --solve curves: the exponent, the initial-data ranges and the step sizes.
SOLVE_ALPHA = (0.3, 0.8)
SOLVE_INITIAL = {"y0": (0.8, 1.5), "yp0": (-0.3, 0.3), "z0": (-0.3, 0.3), "zp0": (-0.3, 0.3), "w0": (-0.3, 0.3)}
SOLVE_STEPS = ("1e-3", "2e-3", "5e-3", "1e-2")
# The flags that set each curve source; the other source does not read them.
CLOSED_FLOATS = ("c", "m", "R", *DEFORMATION)
CLOSED_FLAGS = (*CLOSED_FLOATS, "branch")
SOLVE_FLAGS = (*SOLVE_INITIAL, "step")
# The flags each subcommand takes besides the curve flags, and good values for them.
COMMAND_FLAGS = {
    "generate": ("samples", "format"),
    "verify": ("samples", "tol", "curve-alpha"),
    "energy": ("panels",),
    "variation": ("tol", "panels", "seed", "perturb", "count"),
}
COMMAND_VALUES = {
    "samples": st.integers(2, 40).map(str),
    "format": st.sampled_from(("csv", "json")),
    "tol": st.floats(1e-12, 1e-2).map(repr),
    "curve-alpha": st.sampled_from(sorted(FAMILIES)),
    "panels": st.integers(1, 64).map(str),
    "seed": st.integers(0, 10**6).map(str),
    "perturb": st.floats(0.05, 0.15).map(repr),
    "count": st.integers(1, 2).map(str),
}
COMMAND_FLOATS = ("tol", "curve-alpha", "perturb")


def _num(draw, lo, hi):
    return draw(st.floats(lo, hi, allow_nan=False, allow_infinity=False))


def _flag(draw, name, value):
    """``--name=value`` or ``--name value``, as drawn."""
    return [f"--{name}={value}"] if draw(st.booleans()) else [f"--{name}", value]


@st.composite
def cli_argv(draw):
    """An argv and, when it passes one flag that is not read, ``(kind, flag)``:
    kind "command" for a flag of another subcommand, "source" for a flag of
    the other curve source."""
    command = draw(st.sampled_from(sorted(COMMAND_FLAGS)))
    solve = draw(st.integers(0, 4)) == 0
    if solve:
        argv, domain = [command, "--alpha", repr(_num(draw, *SOLVE_ALPHA)), "--solve"], (-1.0, 1.0)
        for name, (lo, hi) in SOLVE_INITIAL.items():
            argv += _flag(draw, name, repr(_num(draw, lo, hi)))
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
            argv += _flag(draw, "branch", draw(st.sampled_from(("plus", "minus"))))
    if draw(st.booleans()):
        argv += _flag(draw, "v", repr(_num(draw, -1.2, 1.2)))
    if draw(st.booleans()):
        if domain is None:
            radius = params["R"]
            domain = (params["m"] - 0.9 * radius, params["m"] + 0.9 * radius)
        lo, hi = sorted(_num(draw, *domain) for _ in range(2))
        if lo < hi:
            argv += _flag(draw, "domain", f"{lo!r}:{hi!r}")
    for name in COMMAND_FLAGS[command]:
        if name in ("samples", "format", "panels", "count", "seed") or draw(st.booleans()):
            argv += _flag(draw, name, draw(COMMAND_VALUES[name]))

    floats = ("alpha", "v", *(SOLVE_FLAGS if solve else CLOSED_FLOATS),
              *(name for name in COMMAND_FLAGS[command] if name in COMMAND_FLOATS))
    bad = draw(st.sampled_from((None,) * 6 + ("non-finite", "samples", "count", "domain", "unread")))
    unread = None
    if bad == "non-finite":
        flag, val = draw(st.sampled_from(floats)), draw(st.sampled_from(("nan", "inf", "-inf")))
        argv += _flag(draw, flag, val)
    elif bad == "samples" and "samples" in COMMAND_FLAGS[command]:
        argv += ["--samples", "1"]
    elif bad == "count" and command == "variation":  # only variation takes --count
        argv += ["--count", "0"]
    elif bad == "domain":
        hi = _num(draw, -1.0, 1.0)
        lo = hi + draw(st.sampled_from((0.0, 0.5)))
        argv += _flag(draw, "domain", f"{lo!r}:{hi!r}")
    elif bad == "unread":
        kind = draw(st.sampled_from(("command", "source")))
        if kind == "command":
            flag = draw(st.sampled_from(sorted(set(COMMAND_VALUES) - set(COMMAND_FLAGS[command]))))
            argv += _flag(draw, flag, draw(COMMAND_VALUES[flag]))
        else:
            flag = draw(st.sampled_from(CLOSED_FLAGS if solve else SOLVE_FLAGS))
            argv += _flag(draw, flag, "plus" if flag == "branch" else "0.5")
        unread = (kind, flag)
    return argv, unread


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
def test_cli_flag_properties(example):
    argv, unread = example
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        if unread is not None and unread[0] == "command":
            # A flag the subcommand does not take is an argparse usage error.
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2, argv
            return
        # Every other drawn spelling parses, so an argparse rejection (SystemExit) fails.
        code = main(argv)
    if unread is not None:
        # A flag of the other curve source: one error line that names it.
        assert code == 2, argv
        [line] = err.getvalue().splitlines()
        assert line.startswith("error:") and f"--{unread[1]}" in line, (argv, line)
        return
    assert code in (0, 1, 2, 3), argv
    lines = out.getvalue().splitlines()
    passed = lines and lines[-1].split() == ["result", "PASS"]
    if passed or (argv[0] == "energy" and code == 0):
        assert all(math.isfinite(v) for v in _numbers(out.getvalue())), argv
    for line in err.getvalue().splitlines():
        assert line.startswith(("error:", "warning:")), (argv, line)
    # JSON output, when written, is strict JSON: no NaN or Infinity.
    if argv[0] == "generate" and not {"csv", "--format=csv"} & set(argv) and out.getvalue():
        json.loads(out.getvalue(), parse_constant=_not_json)


def _not_json(constant):
    raise AssertionError(f"not JSON: {constant}")
