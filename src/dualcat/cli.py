"""Command-line interface.

Subcommands: ``generate`` samples a curve with its residual columns,
``verify`` checks residual maxima against a tolerance, ``energy`` prints the
dual energy split, ``variation`` drives seeded constrained variations.
Exit codes: 0 success; 1 a verification gate failed (a value above the
tolerance or not finite); 2 bad usage or input the package rejects; 3 the
solver truncated the requested domain or stopped at its first steps; 141 the
console script's stdout was closed early.  Output is deterministic for fixed
flags.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import sys

import numpy as np

from .closed_forms import DEFAULT_DOMAIN, FAMILIES, CatenaryParams, closed_form
from .curves import GraphCurve, Numeric
from .dual import DirectionSpec
from .errors import DualcatError, ImmediateSingularity, InvalidParams, NumericalFailure
from .quadrature import PANELS
from .solver import STEP, InitialData, solve_curve
from .variational import (
    REPORT_SAMPLES,
    Bump,
    BumpSum,
    energy,
    first_variation,
    make_constrained_variation,
    perturbed_curve,
    residual_report,
)

CSV_COLUMNS = (
    "x", "y", "w", "z", "yp", "zp",
    "kappa_re", "kappa_du", "char_res_re", "char_res_du", "admis_res",
)
# One CSV record; "%.17g" % v == format(v, ".17g") for every Python float.
CSV_ROW = ",".join(["%.17g"] * len(CSV_COLUMNS))

CLOSED_TOL = 1e-8
NUMERIC_TOL = 1e-6
VARIATION_TOL = 1e-5
# One attempt per seed: whether a variation is degenerate depends on the curve,
# so another seed cannot rescue it.  Kept for callers that loop over it.
VARIATION_RETRIES = 1

# Exit code of the console script when stdout's reader went away: 128 + SIGPIPE,
# as a shell reports a process that the signal ended.
EXIT_BROKEN_PIPE = 141

# Smallest accepted value of each integer flag, and the largest of those
# whose arrays grow with them.
INT_MINIMUM = {"samples": 2, "panels": 1, "count": 1, "seed": 0}
INT_MAXIMUM = {"samples": 10**6, "panels": 10**5}

# Flags that set a closed form, and flags that set a solve: each source reads only its own.
CLOSED_FLAGS = ("c", "m", "R", "d1", "d2", "d3", "branch")
INITIAL_FLAGS = ("y0", "yp0", "z0", "zp0", "w0")


def _g17(v: float) -> str:
    return format(float(v), ".17g")


def _parse_domain(text: str) -> tuple[float, float]:
    try:
        lo_s, hi_s = text.split(":")
        lo, hi = float(lo_s), float(hi_s)
    except ValueError as exc:
        raise InvalidParams(f"--domain expects lo:hi, got {text!r}") from exc
    if not lo < hi:
        raise InvalidParams(f"--domain needs lo < hi, got {text!r}")
    return lo, hi


def _validate(args) -> None:
    """Reject non-finite float flags and integer flags outside their bounds, then parse --domain to (lo, hi)."""
    for name, val in vars(args).items():
        if isinstance(val, float) and not math.isfinite(val):
            raise InvalidParams(f"--{name.replace('_', '-')} must be finite, got {val}")
    for name, low in INT_MINIMUM.items():
        if getattr(args, name, low) < low:
            raise InvalidParams(f"--{name} must be at least {low}")
    for name, high in INT_MAXIMUM.items():
        if getattr(args, name, high) > high:
            raise InvalidParams(f"--{name} must be at most {high}")
    if getattr(args, "tol", None) is not None and args.tol < 0.0:
        raise InvalidParams(f"--tol must not be negative, got {args.tol}")
    if args.domain is not None:
        args.domain = _parse_domain(args.domain)


def _gate(values: dict, tol: float, **shown: float) -> int:
    """Print values, shown and tol as rows; PASS and 0 when every value is finite and <= tol, else FAIL and 1."""
    for name, val in {**values, **shown, "tolerance": tol}.items():
        print(f"{name:<22} {_g17(val)}")
    passed = all(math.isfinite(v) and v <= tol for v in values.values())
    print(f"{'result':<22} {'PASS' if passed else 'FAIL'}")
    return 0 if passed else 1


def _truncated(curve: GraphCurve) -> bool:
    """Whether the curve is a solve whose domain fell short of the request."""
    return isinstance(curve.source, Numeric) and curve.source.truncated


def _exit_code(curve: GraphCurve, code: int) -> int:
    """3 with a warning on stderr when the solve truncated its domain, else code."""
    if _truncated(curve):
        a, b = curve.domain
        print(f"warning: solve truncated, achieved domain [{_g17(a)}, {_g17(b)}]", file=sys.stderr)
        return 3
    return code


def _is_float(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def _join_negative_values(argv: list[str]) -> list[str]:
    """Join '--flag -1e-05' into '--flag=-1e-05' so argparse does not read the value as a flag.

    A token joins the '--flag' before it when it starts with '-' and parses as
    a float or, after --domain, as floats separated by ':'.
    """
    out: list[str] = []
    for token in argv:
        flag = out[-1] if out else ""
        if (token.startswith("-") and flag.startswith("--") and "=" not in flag
                and all(map(_is_float, token.split(":") if flag == "--domain" else [token]))):
            out[-1] = f"{flag}={token}"
        else:
            out.append(token)
    return out


def build_parser() -> argparse.ArgumentParser:
    # A curve flag left at None was not given: CatenaryParams, InitialData and solve_curve own its default.
    curve = argparse.ArgumentParser(add_help=False)
    curve.add_argument("--alpha", type=float, required=True, help="potential exponent")
    curve.add_argument("--c", type=float, help="first-integral constant")
    curve.add_argument("--m", type=float, help="apex shift")
    curve.add_argument("--R", type=float, help="radius (exponent -1 family)")
    curve.add_argument("--v", type=float, default=0.0, help="tilt rate of the reference direction")
    for name in ("d1", "d2", "d3"):
        curve.add_argument(f"--{name}", type=float)
    curve.add_argument("--branch", choices=("plus", "minus"))
    curve.add_argument(
        "--domain", default=None,
        help="interval lo:hi (default -1:1; at alpha -1 without --solve, the arc clipped by RIM_CLIP)",
    )
    curve.add_argument("--solve", action="store_true", help="integrate numerically instead of using a closed form")
    curve.add_argument("--step", type=float, help="solver step size")
    for name in INITIAL_FLAGS:
        curve.add_argument(f"--{name}", type=float)
    samples, tol, panels = (argparse.ArgumentParser(add_help=False) for _ in range(3))
    samples.add_argument("--samples", type=int, default=REPORT_SAMPLES)
    tol.add_argument("--tol", type=float, default=None)
    panels.add_argument("--panels", type=int, default=PANELS)

    parser = argparse.ArgumentParser(prog="dualcat", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("generate", parents=[curve, samples], help="sample a curve with residual columns")
    p_gen.add_argument("--format", choices=("csv", "json"), default="json")
    p_gen.set_defaults(func=cmd_generate)

    p_ver = sub.add_parser("verify", parents=[curve, samples, tol], help="check residual maxima against a tolerance")
    p_ver.add_argument(
        "--curve-alpha", type=float, default=None,
        help="exponent used to build the curve when it differs from --alpha",
    )
    p_ver.set_defaults(func=cmd_verify)

    sub.add_parser("energy", parents=[curve, panels], help="print the dual energy split").set_defaults(func=cmd_energy)

    p_var = sub.add_parser("variation", parents=[curve, tol, panels], help="first variation along seeded test functions")
    p_var.add_argument("--seed", type=int, default=0)
    p_var.add_argument("--perturb", type=float, default=0.0, help="bump amplitude added to y before testing")
    p_var.add_argument("--count", type=int, default=20, help="number of seeded variations")
    p_var.set_defaults(func=cmd_variation)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` uses, built on the first call and reused after it.

    Parsing leaves it unchanged: each call fills a fresh namespace from the
    defaults, so one process may call ``main`` any number of times.
    """
    return build_parser()


def _given(args, names: tuple[str, ...]) -> dict:
    """The flags among names that the command line set, by name."""
    return {name: getattr(args, name) for name in names if getattr(args, name) is not None}


def _params(args, alpha: float) -> CatenaryParams:
    """Closed-form parameters at exponent alpha from the flags given."""
    return CatenaryParams(alpha=alpha, v=args.v, **_given(args, CLOSED_FLAGS))


def _initial_data(args) -> tuple[InitialData, tuple[float, float]]:
    """A solve's initial data from the flags given, and its requested domain;
    x0 is 0 when the domain holds it, else the domain's midpoint."""
    lo, hi = args.domain or DEFAULT_DOMAIN
    x0 = 0.0 if lo <= 0.0 <= hi else 0.5 * (lo + hi)
    return InitialData(x0, **_given(args, INITIAL_FLAGS)), (lo, hi)


def _build_curve(args, family_alpha: float) -> GraphCurve:
    """Curve from flags: a solve with --solve, else the closed form."""
    unread = _given(args, CLOSED_FLAGS if args.solve else (*INITIAL_FLAGS, "step"))
    if unread:
        flags = ", ".join(f"--{name}" for name in unread)
        raise InvalidParams(f"--solve does not read {flags}" if args.solve else f"only --solve reads {flags}")

    if args.solve:
        init, span = _initial_data(args)
        return solve_curve(family_alpha, init, span, args.v, **_given(args, ("step",)))

    if family_alpha not in FAMILIES:
        raise InvalidParams(
            f"exponent {family_alpha:g} has no closed form; pass --solve to integrate numerically"
        )
    return closed_form(_params(args, family_alpha), args.domain)


def _summary(curve: GraphCurve, report) -> dict:
    a, b = curve.domain
    return {
        "inferred_c": report.c_used,
        "achieved_domain": [a, b],
        "truncated": _truncated(curve),
        **{f"{name}_max": val for name, val in report.max_abs.items()},
    }


def _null_nonfinite(obj):
    """obj with each non-finite float in it, however nested in lists and
    dicts, replaced by None, which JSON writes as null."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, list):
        return [_null_nonfinite(v) for v in obj]
    if isinstance(obj, dict):
        return {k: _null_nonfinite(v) for k, v in obj.items()}
    return obj


def cmd_generate(args) -> int:
    curve = _build_curve(args, args.alpha)
    report = residual_report(curve, args.alpha, DirectionSpec(args.v), num=args.samples)
    xs, res, fr, n = report.grid, report.residuals, report.frame, args.samples
    # One row per grid point, in CSV_COLUMNS order; the report's frame starts on the grid.
    rows = np.column_stack((
        xs, curve.y.value(xs), curve.w.value(xs), curve.z.value(xs), fr.yp[:n], fr.zp[:n],
        fr.kappa.re[:n], fr.kappa.du[:n], res["characterization_re"], res["characterization_du"], res["admissibility"],
    )).tolist()

    if args.format == "csv":
        print("\n".join([",".join(CSV_COLUMNS)] + [CSV_ROW % tuple(r) for r in rows]))
    else:
        # What the curve source read: a solve its initial data and step, a closed form its parameters.
        if args.solve:
            read = {"alpha": args.alpha, "v": args.v, **dataclasses.asdict(_initial_data(args)[0]),
                    "step": STEP if args.step is None else args.step}
        else:
            read = dataclasses.asdict(_params(args, args.alpha))
        payload = {
            "params": {**read, "solve": args.solve, "samples": args.samples},
            "grid": xs.tolist(),
            "records": [dict(zip(CSV_COLUMNS, r)) for r in rows],
            "summary": _summary(curve, report),
        }
        print(json.dumps(_null_nonfinite(payload), indent=2, allow_nan=False))
    return _exit_code(curve, 0)


def cmd_verify(args) -> int:
    family_alpha = args.curve_alpha if args.curve_alpha is not None else args.alpha
    curve = _build_curve(args, family_alpha)
    report = residual_report(curve, args.alpha, DirectionSpec(args.v), num=args.samples)
    tol = args.tol if args.tol is not None else (NUMERIC_TOL if args.solve else CLOSED_TOL)
    return _exit_code(curve, _gate(report.max_abs, tol, inferred_c=report.c_used))


def cmd_energy(args) -> int:
    curve = _build_curve(args, args.alpha)
    ev = energy(curve, DirectionSpec(args.v), args.alpha, panels=args.panels)
    # Overflow leaves inf or NaN in the energy, which this check rejects.
    if not all(map(math.isfinite, (ev.e0, ev.e1, ev.total.re, ev.total.du))):
        raise NumericalFailure(f"energy overflows: e0 = {ev.e0:g}, e1 = {ev.e1:g}")
    print(f"e0 = {_g17(ev.e0)}")
    print(f"e1 = {_g17(ev.e1)}")
    print(f"total = {_g17(ev.total.re)} + {_g17(ev.total.du)} eps")
    return _exit_code(curve, 0)


def cmd_variation(args) -> int:
    curve = _build_curve(args, args.alpha)
    tested = curve
    if args.perturb != 0.0:
        bump = BumpSum((Bump.central(*curve.domain),), (1.0,))
        tested = perturbed_curve(curve, bump, BumpSum((), ()), args.perturb)

    u = DirectionSpec(args.v)
    tol = args.tol if args.tol is not None else VARIATION_TOL
    # Running maxima of |dE|: np.maximum propagates NaN where the builtin max would skip it.
    worst = np.zeros(2)
    # On a very short domain the bump slopes overflow: a constraint integral
    # that overflows raises, and an inf or NaN dE fails the gate below.
    for i in range(args.count):
        var = make_constrained_variation(tested, args.seed + i, args.panels)
        fv = first_variation(var, u, args.alpha)
        worst = np.maximum(worst, (abs(fv.re), abs(fv.du)))
        print(f"seed {args.seed + i}: dE = {_g17(fv.re)} + {_g17(fv.du)} eps")

    return _exit_code(curve, _gate(dict(zip(("max_abs_re", "max_abs_du"), worst.tolist())), tol))


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    args = _parser().parse_args(_join_negative_values(argv))
    try:
        _validate(args)
        # Overflow reaches the output and the gates as inf or NaN, which they
        # report or reject, so NumPy's warnings would add only noise.
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return args.func(args)
    except ImmediateSingularity as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except DualcatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    """Console-script entry: exit with main's code, or EXIT_BROKEN_PIPE when
    the reader of stdout closed it early (as ``| head`` does)."""
    try:
        code = main(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # Unwritten output stays buffered; devnull takes it at exit, where
        # the closed pipe would raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_BROKEN_PIPE
    raise SystemExit(code)
