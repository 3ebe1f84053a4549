"""Benchmark workloads: seeded inputs, the operations timed on them, and the
checks that every output is right.

A workload is a round of operations that the timed loop repeats whole.
Operations that share a ``key`` get identical inputs, and dualcat's output is
deterministic, so the first output for each key is checked against an
independent reference (``references.py``) and every later output must equal
it.  Every operation in a workload is the same kind of call at about the same
cost, so the median and the tail latency describe one operation.
"""

from __future__ import annotations

import contextlib
import io
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

import dualcat
from dualcat import cli, closed_forms

import references as ref

# Tolerances the outputs are held to: the CLI's verify and variation gates,
# and the bounds of the acceptance criteria named next to each.
VERIFY_TOL = 1e-8
VARIATION_TOL = 1e-5
SOLVE_Y_TOL = 1e-8  # criterion 4
SOLVE_ZW_TOL = 1e-7  # criterion 4
FIRST_INTEGRAL_TOL = 1e-7  # criterion 5
ENERGY_TOL = 1e-9  # criterion 6
ENERGY_SPLIT_TOL = 1e-10  # criterion 6
UNIT_SPEED_TOL = 1e-8  # criterion 8
ARCLEN_X_TOL = 1e-9
FORMULA_RTOL = 1e-11

CSV_HEADER = "x,y,w,z,yp,zp,kappa_re,kappa_du,char_res_re,char_res_du,admis_res"
RESIDUALS = (
    "admissibility", "el_real", "el_dual",
    "first_integral", "characterization_re", "characterization_du",
)

# The closed_cli probe: exponent 1 with c = 1e-300 makes the first-integral
# residual NaN, which a correct verify must not pass.
PROBE_ARGV = ["verify", "--alpha", "1", "--c", "1e-300"]


@dataclass
class Op:
    """One timed call; ``probe`` marks the known-failing closed_cli probe."""

    key: str
    run: Callable[[], object]
    probe: bool = False


@dataclass
class Workload:
    ops: list[Op]
    check: Callable[[str, object], list[str]]


@dataclass(frozen=True)
class Curve:
    """A closed-form curve: family (exponent), parameters and domain."""

    family: int
    params: dict
    domain: tuple[float, float]

    def argv(self) -> list[str]:
        out = ["--alpha", repr(float(self.family))]
        for name, val in self.params.items():
            out += [f"--{name}", val if isinstance(val, str) else repr(val)]
        a, b = self.domain
        return out + [f"--domain={a!r}:{b!r}"]

    def build(self) -> dualcat.GraphCurve:
        p = dualcat.CatenaryParams(alpha=float(self.family), **self.params)
        return closed_forms.closed_form(p, self.domain)


def closed_curve(rng: np.random.Generator, family: int, rim: float = 0.9) -> Curve:
    """Seeded closed-form curve; an arc of radius R spans ``rim*R`` each side of its centre."""
    u = rng.uniform
    if family == 1:
        p = {"c": u(0.7, 1.6), "m": u(-0.3, 0.3)}
        domain = (-1.0, 1.0)
    elif family == 0:
        p = {"c": u(1.1, 2.0), "m": u(2.5, 4.0), "branch": ("plus", "minus")[int(rng.integers(2))]}
        domain = (-1.0, 1.0)
    else:
        p = {"R": u(1.5, 2.5), "m": u(-0.3, 0.3)}
        domain = (p["m"] - rim * p["R"], p["m"] + rim * p["R"])
    p.update(v=u(-1.0, 1.0), d1=u(-1.0, 1.0), d2=u(-1.0, 1.0), d3=u(-1.0, 1.0))
    return Curve(family, p, domain)


def run_cli(argv: list[str]) -> tuple[int, str]:
    """One in-process ``dualcat`` command; returns its exit code and stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(argv)
    return rc, out.getvalue()


def parse_table(text: str) -> dict[str, str]:
    """``name value`` lines of verify and variation output."""
    rows = {}
    for line in text.splitlines():
        parts = line.split()
        if len(parts) == 2:
            rows[parts[0]] = parts[1]
    return rows


def parse_csv(text: str) -> dict[str, np.ndarray]:
    lines = text.strip().splitlines()
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError("unexpected CSV header")
    data = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    return {name: data[:, i] for i, name in enumerate(CSV_HEADER.split(","))}


def _close(got, want, rtol=FORMULA_RTOL) -> bool:
    got, want = np.asarray(got, float), np.asarray(want, float)
    return bool(np.all(np.abs(got - want) <= rtol * (1.0 + np.abs(want))))


# --- closed_cli ------------------------------------------------------------

CLOSED_POOL = 4  # curves per family


def check_verify(rc: int, text: str) -> list[str]:
    rows = parse_table(text)
    bad = []
    for name in RESIDUALS:
        val = float(rows.get(name, "nan"))
        if not (math.isfinite(val) and val <= VERIFY_TOL):
            bad.append(f"verify {name} = {val}")
    if rc != 0 or rows.get("result") != "PASS":
        bad.append(f"verify exit {rc}, result {rows.get('result')}")
    return bad


def check_generate(curve: Curve, rc: int, text: str) -> list[str]:
    if rc != 0:
        return [f"generate exit {rc}"]
    try:
        cols = parse_csv(text)
    except ValueError as exc:
        return [f"generate: {exc}"]
    a, b = curve.domain
    want = ref.closed_curve(curve.family, curve.params, cols["x"])
    bad = []
    if not _close(cols["x"], np.linspace(a, b, 201), 1e-14):
        bad.append("generate x grid")
    for name in ("y", "yp", "z"):
        if not _close(cols[name], want[name]):
            bad.append(f"generate {name} differs from the closed form")
    if not np.all(np.isfinite(np.column_stack(list(cols.values())))):
        bad.append("generate non-finite entry")
    return bad


def check_energy(curve: Curve, rc: int, text: str) -> list[str]:
    vals = {}
    for line in text.splitlines():
        name, _, rest = line.partition(" = ")
        vals[name] = rest
    try:
        e0, e1 = float(vals["e0"]), float(vals["e1"])
        t_re, t_du = (float(s) for s in vals["total"].removesuffix(" eps").split(" + "))
    except (KeyError, ValueError):
        return [f"energy output unreadable: {text!r}"]
    w0, w1 = ref.closed_energy(curve.family, curve.params, *curve.domain)
    bad = []
    if rc != 0:
        bad.append(f"energy exit {rc}")
    if not (abs(e0 - w0) <= ENERGY_TOL * max(1.0, abs(w0)) and abs(e1 - w1) <= ENERGY_TOL * max(1.0, abs(w1))):
        bad.append(f"energy ({e0}, {e1}) against ({w0}, {w1})")
    if not (abs(t_re - e0) <= ENERGY_SPLIT_TOL and abs(t_du - e1) <= ENERGY_SPLIT_TOL):
        bad.append("energy total differs from its split")
    return bad


def build_closed_cli(seed: int) -> Workload:
    rng = np.random.default_rng([seed, 1])
    curves = {}
    ops = []
    for i in range(CLOSED_POOL):
        for family in (1, 0, -1):
            curve = closed_curve(rng, family)
            key = f"a{family}-{i}"
            curves[key] = curve
            argv = curve.argv()

            def op(argv=argv):
                return (
                    run_cli(["verify"] + argv),
                    run_cli(["generate", "--format", "csv"] + argv),
                    run_cli(["energy"] + argv),
                )

            ops.append(Op(key, op))
    ops.append(Op("probe", lambda: run_cli(PROBE_ARGV), probe=True))

    def check(key, out):
        if key == "probe":
            return [] if probe_ok(out) else ["probe passed verify with a non-finite residual"]
        curve = curves[key]
        (rv, tv), (rg, tg), (re, te) = out
        return check_verify(rv, tv) + check_generate(curve, rg, tg) + check_energy(curve, re, te)

    return Workload(ops, check)


def probe_ok(out) -> bool:
    """The probe is right when verify does not pass: exit 1 (FAIL) or 2 (rejected)."""
    rc, text = out
    return rc in (1, 2) and parse_table(text).get("result") != "PASS"


# --- stationarity ----------------------------------------------------------

STATIONARY_GROUPS = 3  # each: one stationary op per family, then one perturbed
PERTURB_RANGE = (0.05, 0.15)
# A perturbed op is kept only when its reference response is this far above
# the variation tolerance, so FAIL is the unambiguous answer.
PERTURB_MIN_RESPONSE = 10.0 * VARIATION_TOL


def program_delta_y(curve: dualcat.GraphCurve, seed: int, amp: float):
    """The delta_y bumps that ``dualcat variation --perturb amp --seed seed`` tests along.

    Bumps are drawn by dualcat itself; the benchmark only evaluates them.
    """
    a, b = curve.domain
    bump = dualcat.BumpSum((dualcat.Bump(0.5 * (a + b), 0.3 * (b - a)),), (1.0,))
    bent = dualcat.perturbed_curve(curve, bump, dualcat.BumpSum((), ()), amp)
    for attempt in range(cli.VARIATION_RETRIES):
        try:
            var = dualcat.make_constrained_variation(bent, seed + 7919 * attempt)
        except dualcat.DegenerateVariation:
            continue
        return [(bb.center, bb.radius, k) for bb, k in zip(var.delta_y.bumps, var.delta_y.coeffs)]
    raise RuntimeError(f"no usable variation for seed {seed}")


def parse_variation(text: str) -> tuple[float, float, dict]:
    first = text.splitlines()[0] if text else ""
    _, _, rest = first.partition(": dE = ")
    re_s, _, du_s = rest.removesuffix(" eps").partition(" + ")
    return float(re_s or "nan"), float(du_s or "nan"), parse_table(text)


def check_stationary(rc: int, text: str) -> list[str]:
    re_v, du_v, rows = parse_variation(text)
    if not (abs(re_v) <= VARIATION_TOL and abs(du_v) <= VARIATION_TOL):
        return [f"stationary curve has dE = {re_v} + {du_v} eps"]
    if rc != 0 or rows.get("result") != "PASS":
        return [f"stationary variation exit {rc}, result {rows.get('result')}"]
    return []


def check_perturbed(want_re: float, rc: int, text: str) -> list[str]:
    re_v, _, rows = parse_variation(text)
    bad = []
    if rc != 1 or rows.get("result") != "FAIL":
        bad.append(f"perturbed variation exit {rc}, result {rows.get('result')}")
    if not abs(re_v - want_re) <= 1e-8 + 1e-5 * abs(want_re):
        bad.append(f"perturbed dE real part {re_v} against central difference {want_re}")
    return bad


def build_stationarity(seed: int) -> Workload:
    rng = np.random.default_rng([seed, 3])
    ops = []
    expected = {}
    for g in range(STATIONARY_GROUPS):
        for family in (1, 0, -1):
            curve = closed_curve(rng, family)
            k = int(rng.integers(0, 1_000_000))
            argv = ["variation", "--count", "1", "--seed", str(k)] + curve.argv()
            ops.append(Op(f"a{family}-{g}", lambda argv=argv: run_cli(argv)))
        family = (1, 0, -1)[g % 3]
        curve = closed_curve(rng, family)
        amp = rng.uniform(*PERTURB_RANGE)
        built = curve.build()
        while True:
            k = int(rng.integers(0, 1_000_000))
            delta_y = program_delta_y(built, k, amp)
            want = ref.perturbed_dE_real(float(family), family, curve.params, curve.domain, amp, delta_y)
            if abs(want) >= PERTURB_MIN_RESPONSE:
                break
        argv = ["variation", "--count", "1", "--seed", str(k), "--perturb", repr(amp)] + curve.argv()
        key = f"p{family}-{g}"
        expected[key] = want
        ops.append(Op(key, lambda argv=argv: run_cli(argv)))

    def check(key, out):
        if key in expected:
            return check_perturbed(expected[key], *out)
        return check_stationary(*out)

    return Workload(ops, check)


# --- arclength -------------------------------------------------------------

ARC_POOL = 8
# The solved curve: exponent in [0.3, 0.8], y0 = 1, |y0'| <= 0.2; no solve
# truncates on this domain.
SOLVE_DOMAIN = (-0.75, 0.75)
STATIONS = 3  # per curve and operation, one in each third of the length
ARC_RIM = 0.7
FD_STEP = 1e-4  # criterion 8's finite-difference step
# Panels for the arc length of the solved curve, whose spline has a knot
# every solver step.
SOLVED_PANELS = 3000


def solved_curve_inputs(rng: np.random.Generator) -> tuple[float, dualcat.InitialData, float]:
    u = rng.uniform
    init = dualcat.InitialData(0.0, 1.0, u(-0.2, 0.2), z0=u(-0.3, 0.3), zp0=u(-0.3, 0.3))
    return u(0.3, 0.8), init, u(-0.5, 0.5)


def check_solved_curve(curve: dualcat.GraphCurve, alpha: float, init, v: float) -> list[str]:
    """The solved curve's y, z and w against DOP853, and its first integral."""
    a, b = curve.domain
    lo, hi = SOLVE_DOMAIN
    if not (abs(a - lo) < 1e-12 and abs(b - hi) < 1e-12):
        return [f"solve truncated to ({a}, {b})"]
    x = np.linspace(a, b, 201)
    state0 = (init.y0, init.yp0, init.z0, init.zp0, init.w0)
    want = ref.reference_solve(alpha, v, init.x0, state0, x)
    got = {name: np.asarray(getattr(curve, name).value(x)) for name in ("y", "z", "w")}
    bad = []
    for name, row, tol in (("y", 0, SOLVE_Y_TOL), ("z", 2, SOLVE_ZW_TOL), ("w", 4, SOLVE_ZW_TOL)):
        err = np.max(np.abs(got[name] - want[row]))
        if not err <= tol:
            bad.append(f"solved {name} differs from DOP853 by {err:.3g}")
    c = math.sqrt(1.0 + init.yp0**2) / init.y0**alpha
    yp = np.asarray(curve.y.deriv(x))
    drift = np.max(np.abs(1.0 + yp**2 - c * c * got["y"] ** (2.0 * alpha)))
    if not drift <= FIRST_INTEGRAL_TOL:
        bad.append(f"solved curve's first integral drifts by {drift:.3g}")
    return bad


def dual_unit_speed_error(curve: dualcat.GraphCurve, s: float) -> float:
    """``| |d gamma/ds| - 1 |`` at s from a central difference of the curve."""
    gp = curve.evaluate(curve.x_at_arclength(s + FD_STEP))
    gm = curve.evaluate(curve.x_at_arclength(s - FD_STEP))
    speed = dualcat.dual_norm((gp - gm).scale(dualcat.DualScalar(0.5 / FD_STEP)))
    return max(abs(speed.re - 1.0), abs(speed.du))


def build_arclength(seed: int) -> Workload:
    rng = np.random.default_rng([seed, 4])
    closed = [closed_curve(rng, family, rim=ARC_RIM) for family in (1, 0, -1)]
    alpha, init, v = solved_curve_inputs(rng)
    solved = dualcat.solve_curve(alpha, init, SOLVE_DOMAIN, v=v)
    curves = [c.build() for c in closed] + [solved]
    totals = [ref.closed_arclength(c.family, c.params, *c.domain) for c in closed]
    totals.append(solved.arc_length(*solved.domain))

    ops = []
    stations = {}
    for i in range(ARC_POOL):
        key = f"x{i}"
        # Stratified stations, kept FD_STEP away from the ends for the speed check.
        frac = (np.arange(STATIONS)[None, :] + rng.uniform(0.02, 0.98, (len(curves), STATIONS))) / STATIONS
        ss = [[float(f * t) for f in row] for row, t in zip(frac, totals)]
        stations[key] = ss

        def op(ss=ss):
            return tuple(
                tuple(curve.x_at_arclength(s) for s in row) for curve, row in zip(curves, ss)
            )

        ops.append(Op(key, op))

    def check(key, out):
        bad = check_solved_curve(solved, alpha, init, v) if key == "x0" else []
        ss = stations[key]
        for spec, xs, row in zip(closed, out, ss):
            want = [ref.closed_arclength_inverse(spec.family, spec.params, spec.domain[0], s) for s in row]
            if not np.all(np.abs(np.subtract(xs, want)) <= ARCLEN_X_TOL):
                bad.append(f"x_at_arclength on family {spec.family}: {xs} against {want}")
        a, _ = solved.domain
        for x, s in zip(out[-1], ss[-1]):
            got = ref.gl_integrate(lambda t: np.hypot(1.0, solved.y.deriv(t)), a, x, panels=SOLVED_PANELS)
            if not abs(got - s) <= ARCLEN_X_TOL:
                bad.append(f"solved curve: arc length to x = {x} is {got}, not {s}")
        worst = max(dual_unit_speed_error(solved, s) for s in ss[-1])
        if not worst <= UNIT_SPEED_TOL:
            bad.append(f"solved curve dual speed off unit by {worst:.3g}")
        return bad

    return Workload(ops, check)


WORKLOADS = {
    "closed_cli": build_closed_cli,
    "stationarity": build_stationarity,
    "arclength": build_arclength,
}
