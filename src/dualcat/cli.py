"""Command-line interface.

Subcommands: ``generate`` samples a curve with its residual columns,
``verify`` checks residual maxima against a tolerance, ``energy`` prints the
dual energy split, ``variation`` drives seeded constrained variations.
Exit codes: 0 success; 1 a verification gate failed (a value above the
tolerance or not finite); 2 bad usage or input the package rejects; 3 the
solver truncated the requested domain or stopped at its first steps.  Output
is deterministic for fixed flags.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from .closed_forms import CatenaryParams, closed_form
from .curves import GraphCurve
from .dual import DirectionSpec
from .errors import DegenerateVariation, DualcatError, ImmediateSingularity
from .solver import InitialData, SolverConfig, recover_w, solve_dual, solve_real, assemble
from .variational import (
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
VARIATION_RETRIES = 5

# Smallest accepted value of each integer flag.
INT_MINIMUM = {"samples": 2, "panels": 1, "count": 1}


class UsageError(DualcatError):
    pass


def _g17(v: float) -> str:
    return format(float(v), ".17g")


def _parse_domain(text: str) -> tuple[float, float]:
    try:
        lo_s, hi_s = text.split(":")
        lo, hi = float(lo_s), float(hi_s)
    except ValueError as exc:
        raise UsageError(f"--domain expects lo:hi, got {text!r}") from exc
    if not lo < hi:
        raise UsageError(f"--domain needs lo < hi, got {text!r}")
    return lo, hi


def _validate(args) -> None:
    """Reject non-finite float flags and integer flags below their minimum."""
    for name, val in vars(args).items():
        if isinstance(val, float) and not math.isfinite(val):
            raise UsageError(f"--{name.replace('_', '-')} must be finite, got {val}")
    for name, low in INT_MINIMUM.items():
        if getattr(args, name, low) < low:
            raise UsageError(f"--{name} must be at least {low}")


def _status(values, tol: float) -> str:
    """PASS only when every value is finite and at most tol."""
    return "PASS" if all(math.isfinite(v) and v <= tol for v in values) else "FAIL"


def _exit_code(curve: GraphCurve, truncated: bool, code: int) -> int:
    """3 with a warning on stderr when the solve truncated its domain, else code."""
    if truncated:
        a, b = curve.domain
        print(f"warning: solve truncated, achieved domain [{_g17(a)}, {_g17(b)}]", file=sys.stderr)
        return 3
    return code


def _merge_domain(argv: list[str]) -> list[str]:
    """Join '--domain lo:hi' into one token so a negative lo is not read as a flag."""
    out = []
    i = 0
    while i < len(argv):
        if argv[i] == "--domain" and i + 1 < len(argv):
            out.append(f"--domain={argv[i + 1]}")
            i += 2
        else:
            out.append(argv[i])
            i += 1
    return out


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--alpha", type=float, required=True, help="potential exponent")
    common.add_argument("--c", type=float, default=1.0, help="first-integral constant")
    common.add_argument("--m", type=float, default=0.0, help="apex shift")
    common.add_argument("--R", type=float, default=1.0, help="radius (exponent -1 family)")
    common.add_argument("--v", type=float, default=0.0, help="tilt rate of the reference direction")
    common.add_argument("--d1", type=float, default=0.0)
    common.add_argument("--d2", type=float, default=0.0)
    common.add_argument("--d3", type=float, default=0.0)
    common.add_argument("--branch", choices=("plus", "minus"), default="plus")
    common.add_argument("--domain", default=None, help="interval lo:hi (default -1:1)")
    common.add_argument("--samples", type=int, default=201)
    common.add_argument("--format", choices=("csv", "json"), default="json")
    common.add_argument("--tol", type=float, default=None)
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--solve", action="store_true", help="integrate numerically instead of using a closed form")
    common.add_argument("--step", type=float, default=1e-3, help="solver step size")
    common.add_argument("--y0", type=float, default=1.0)
    common.add_argument("--yp0", type=float, default=0.0)
    common.add_argument("--z0", type=float, default=0.0)
    common.add_argument("--zp0", type=float, default=0.0)
    common.add_argument("--w0", type=float, default=0.0)
    common.add_argument("--panels", type=int, default=64)

    parser = argparse.ArgumentParser(prog="dualcat", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("generate", parents=[common], help="sample a curve with residual columns")
    p_gen.set_defaults(func=cmd_generate)

    p_ver = sub.add_parser("verify", parents=[common], help="check residual maxima against a tolerance")
    p_ver.add_argument(
        "--curve-alpha", type=float, default=None,
        help="exponent used to build the curve when it differs from --alpha",
    )
    p_ver.set_defaults(func=cmd_verify)

    p_en = sub.add_parser("energy", parents=[common], help="print the dual energy split")
    p_en.set_defaults(func=cmd_energy)

    p_var = sub.add_parser("variation", parents=[common], help="first variation along seeded test functions")
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


def _build_curve(args, family_alpha: float) -> tuple[GraphCurve, bool]:
    """Curve from flags; returns it with a truncation flag for solver paths."""
    domain = _parse_domain(args.domain) if args.domain is not None else None

    if args.solve:
        lo, hi = domain if domain is not None else (-1.0, 1.0)
        x0 = 0.0 if lo <= 0.0 <= hi else 0.5 * (lo + hi)
        init = InitialData(x0, args.y0, args.yp0, args.z0, args.zp0, args.w0)
        cfg = SolverConfig(step=args.step)
        y_sol = solve_real(family_alpha, init, (lo, hi), cfg)
        z_sol = solve_dual(family_alpha, args.v, y_sol, init, cfg)
        w_sol = recover_w(y_sol, z_sol, init.w0)
        return assemble(y_sol, z_sol, w_sol), y_sol.truncated

    if family_alpha not in (-1.0, 0.0, 1.0):
        raise UsageError(
            f"exponent {family_alpha:g} has no closed form; pass --solve to integrate numerically"
        )
    params = CatenaryParams(
        alpha=family_alpha, c=args.c, m=args.m, R=args.R, v=args.v,
        d1=args.d1, d2=args.d2, d3=args.d3, branch=args.branch,
    )
    if domain is None and family_alpha != -1.0:
        domain = (-1.0, 1.0)
    return closed_form(params, domain), False


def _report(curve: GraphCurve, args):
    a, b = curve.domain
    xs = np.linspace(a, b, args.samples)
    # Overflow leaves inf or NaN in the columns, and np.max carries NaN into
    # the maxima that verify gates, so NumPy's warnings would add only noise.
    with np.errstate(over="ignore", invalid="ignore"):
        return residual_report(curve, args.alpha, DirectionSpec(args.v), grid=xs)


def _summary(curve: GraphCurve, report, truncated: bool) -> dict:
    a, b = curve.domain
    return {
        "inferred_c": report.c_used,
        "achieved_domain": [a, b],
        "truncated": truncated,
        **{f"{name}_max": val for name, val in report.max_abs.items()},
    }


def cmd_generate(args) -> int:
    curve, truncated = _build_curve(args, args.alpha)
    report = _report(curve, args)
    cols = report.columns

    if args.format == "csv":
        rows = np.column_stack([cols[name] for name in CSV_COLUMNS]).tolist()
        print("\n".join([",".join(CSV_COLUMNS)] + [CSV_ROW % tuple(r) for r in rows]))
    else:
        payload = {
            "params": {
                "alpha": args.alpha, "c": args.c, "m": args.m, "R": args.R, "v": args.v,
                "d1": args.d1, "d2": args.d2, "d3": args.d3, "branch": args.branch,
                "solve": args.solve, "step": args.step, "samples": args.samples,
            },
            "grid": [float(x) for x in report.grid],
            "records": [
                {name: float(cols[name][i]) for name in CSV_COLUMNS}
                for i in range(len(report.grid))
            ],
            "summary": _summary(curve, report, truncated),
        }
        print(json.dumps(payload, indent=2))
    return _exit_code(curve, truncated, 0)


def cmd_verify(args) -> int:
    family_alpha = args.curve_alpha if args.curve_alpha is not None else args.alpha
    curve, truncated = _build_curve(args, family_alpha)
    report = _report(curve, args)
    tol = args.tol if args.tol is not None else (NUMERIC_TOL if args.solve else CLOSED_TOL)

    for name, val in report.max_abs.items():
        print(f"{name:<22} {_g17(val)}")
    print(f"{'inferred_c':<22} {_g17(report.c_used)}")
    print(f"{'tolerance':<22} {_g17(tol)}")
    status = _status(report.max_abs.values(), tol)
    print(f"{'result':<22} {status}")
    return _exit_code(curve, truncated, 0 if status == "PASS" else 1)


def cmd_energy(args) -> int:
    curve, truncated = _build_curve(args, args.alpha)
    ev = energy(curve, DirectionSpec(args.v), args.alpha, panels=args.panels)
    print(f"e0 = {_g17(ev.e0)}")
    print(f"e1 = {_g17(ev.e1)}")
    print(f"total = {_g17(ev.total.re)} + {_g17(ev.total.du)} eps")
    return _exit_code(curve, truncated, 0)


def cmd_variation(args) -> int:
    curve, truncated = _build_curve(args, args.alpha)
    if args.perturb != 0.0:
        a, b = curve.domain
        bump = BumpSum((Bump(0.5 * (a + b), 0.3 * (b - a)),), (1.0,))
        curve = perturbed_curve(curve, bump, BumpSum((), ()), args.perturb)

    u = DirectionSpec(args.v)
    tol = args.tol if args.tol is not None else VARIATION_TOL
    abs_re, abs_du = [], []
    # On a very short domain the bump slopes overflow: dE is then inf or NaN,
    # and the gate below fails it.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for i in range(args.count):
            var = None
            for attempt in range(VARIATION_RETRIES):
                try:
                    var = make_constrained_variation(curve, args.seed + i + 7919 * attempt)
                    break
                except DegenerateVariation:
                    continue
            if var is None:
                raise DegenerateVariation(f"no usable variation for seed {args.seed + i}")
            fv = first_variation(curve, var, u, args.alpha)
            abs_re.append(abs(fv.re))
            abs_du.append(abs(fv.du))
            print(f"seed {args.seed + i}: dE = {_g17(fv.re)} + {_g17(fv.du)} eps")

    # np.max propagates NaN where the builtin max would skip it.
    worst_re, worst_du = float(np.max(abs_re)), float(np.max(abs_du))
    print(f"{'max_abs_re':<22} {_g17(worst_re)}")
    print(f"{'max_abs_du':<22} {_g17(worst_du)}")
    print(f"{'tolerance':<22} {_g17(tol)}")
    status = _status((worst_re, worst_du), tol)
    print(f"{'result':<22} {status}")
    return _exit_code(curve, truncated, 0 if status == "PASS" else 1)


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    args = _parser().parse_args(_merge_domain(argv))
    try:
        _validate(args)
        return args.func(args)
    except ImmediateSingularity as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except DualcatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    raise SystemExit(main(sys.argv[1:]))
