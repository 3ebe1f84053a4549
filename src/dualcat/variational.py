"""Potential energy, stationarity residuals and constrained variations.

The energy of an admissible curve is the dual-valued integral of
``<u, gamma>**alpha * |gamma'|``.  Its real part depends only on the graph y;
its eps part adds the first-order response of the energy to the deformation
(w, z).  Stationary curves satisfy an Euler-Lagrange equation in each
component, which on an admissible graph is the speed times the curvature
characterization, checked here pointwise; and they make the first variation
vanish for every fixed-endpoint variation that respects admissibility to
first order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate

import numpy as np

from . import quadrature
from .curves import ClosedForm, Coordinate, Frame, GraphCurve, Numeric, recover_w, table_edges
from .dual import DirectionSpec, DualScalar, DualVec2, dual_dot, dual_norm
from .errors import DegenerateVariation, InvalidParams, NumericalFailure, check_integer

# Bump amplitude used for seeded variations; small enough that quadrature
# error on the bump tails stays far below the stationarity tolerances.
VARIATION_AMP = 0.05

# Random bumps drawn for each component of a seeded variation.
RANDOM_BUMPS = 3

# Points of the residual report's grid unless the caller asks for another count.
REPORT_SAMPLES = 201

# An integral counts as zero up to this fraction of the integral of its integrand's
# size: a structural zero sits at 1e-16 of that or less, a real value at 1e-3 or more.
VANISHING = 1e-10


@dataclass(frozen=True)
class EnergyValue:
    """Dual energy with its real/eps split.

    ``total`` integrates ``<gamma,u>**alpha * |gamma'|`` in dual arithmetic.
    ``e0`` is its real part and ``e1`` integrates the eps part of the
    potential, ``alpha*(z + v*x)*y**(alpha-1)``, times the real speed nu; the
    eps part of ``total`` also carries the admissibility defect through the
    dual speed, so on admissible curves ``total = e0 + e1*eps`` up to rounding.
    """

    total: DualScalar
    e0: float
    e1: float


def energy(
    curve: GraphCurve,
    u: DirectionSpec,
    alpha: float,
    panels: int = quadrature.PANELS,
) -> EnergyValue:
    """Dual potential energy of the curve, on panels split at its breakpoints."""
    a, b = curve.domain
    x, wts = quadrature.partitioned_nodes(a, b, curve.breakpoints, panels)
    pot = curve.height(u, x) ** alpha
    speed = dual_norm(curve.velocity(x))
    integrand = pot * speed
    e0 = quadrature.integrate(wts, integrand.re)
    e1 = quadrature.integrate(wts, pot.du * speed.re)
    return EnergyValue(DualScalar(e0, quadrature.integrate(wts, integrand.du)), e0, e1)


def first_integral_residual(y, yp, alpha: float, c: float):
    """Residual ``1 + y'**2 - c**2 * y**(2*alpha)`` of the conserved quantity, from values of y and y'."""
    if not (c > 0.0 and np.isfinite(c)):
        raise InvalidParams(f"c must be positive, got {c}")
    return 1.0 + yp * yp - c * c * y ** (2.0 * alpha)


def infer_c(curve: GraphCurve, alpha: float, x0: float) -> float:
    """Constant ``sqrt((1 + y'**2) / y**(2*alpha))`` read off at one point.

    Raises NumericalFailure when it is not positive and finite, as when
    ``y**(2*alpha)`` leaves the float range.
    """
    y = float(curve.height(DirectionSpec(), x0).re)
    yp = float(curve.y.deriv(x0))
    try:
        c = float(np.sqrt((1.0 + yp * yp) / y ** (2.0 * alpha)))
    except (OverflowError, ZeroDivisionError):
        c = math.nan
    if not (c > 0.0 and math.isfinite(c)):
        raise NumericalFailure(
            f"first-integral constant at x = {x0:g} is not positive and finite (y = {y:g}, y' = {yp:g})"
        )
    return c


@dataclass(frozen=True)
class Bump:
    """Support of one polynomial bump ``(1 - t**2)**3``, ``t = (x - center)/radius``,
    on ``|x - center| < radius``; BumpSum evaluates it.

    Twice continuously differentiable across the support edges, which keeps
    fixed-panel quadrature of bump integrands well behaved.
    """

    center: float
    radius: float

    @classmethod
    def central(cls, a: float, b: float) -> "Bump":
        """The bump centred on [a, b] with radius 0.3 of its width."""
        return cls(0.5 * (a + b), 0.3 * (b - a))


@dataclass(frozen=True)
class BumpSum:
    """Linear combination of bumps, used as a compactly supported test function.

    ``_evaluate`` takes all bumps in one pass over a ``(bumps, points)`` array and
    adds the rows in order from 0.  x may be a float or an array of any shape; a
    float gives an np.float64, rounded as the same x inside an array is.
    """

    bumps: tuple[Bump, ...]
    coeffs: tuple[float, ...]

    def __post_init__(self):
        if len(self.bumps) != len(self.coeffs):
            raise InvalidParams(f"{len(self.bumps)} bumps but {len(self.coeffs)} coefficients")
        for b in self.bumps:
            if not (math.isfinite(b.center) and 0.0 < b.radius < math.inf):
                raise InvalidParams(f"a bump needs a finite centre and a positive finite radius, got {b}")
            # _evaluate squares each radius with Python's power, which raises where the square overflows.
            try:
                b.radius**2
            except OverflowError:
                raise InvalidParams(f"a bump radius must have a finite square, got {b}") from None
        if not all(map(math.isfinite, self.coeffs)):
            raise InvalidParams(f"bump coefficients must be finite, got {self.coeffs}")

    def value(self, x):
        [[out]] = BumpSum._evaluate(x, (self,), "value")
        return out

    def deriv(self, x):
        [[out]] = BumpSum._evaluate(x, (self,), "deriv")
        return out

    def deriv2(self, x):
        [[out]] = BumpSum._evaluate(x, (self,), "deriv2")
        return out

    @staticmethod
    def _evaluate(x, sums: tuple["BumpSum", ...], *kinds: str) -> list[list]:
        """For each kind ("value", "deriv" or "deriv2"), every BumpSum's
        values at x, from one pass over all their bumps."""
        x = np.asarray(x, dtype=float)
        # Python's power squares each radius, as the per-bump formula does: with
        # glibc 2.36, pow(r, 2) and r*r differ in the last bit for about one r in 1,200.
        cols = [(b.center, b.radius, b.radius**2, a) for bs in sums for b, a in zip(bs.bumps, bs.coeffs)]
        center, radius, radius2, coeff = np.array(cols, dtype=float).reshape(-1, 4, 1).transpose(1, 0, 2)
        t = (x.reshape(-1) - center) / radius
        s = np.maximum(0.0, 1.0 - t * t)
        rows = {
            # The power only where s is not 0: 0**3 is 0, and NumPy's power is slow there.
            "value": lambda: np.power(s, 3, out=np.zeros_like(s), where=s != 0.0),
            "deriv": lambda: -6.0 * t * s * s / radius,
            "deriv2": lambda: 6.0 * s * (5.0 * t * t - 1.0) / radius2,
        }
        ends = list(accumulate((len(bs.bumps) for bs in sums), initial=0))
        out = []
        for kind in kinds:
            weighted = coeff * rows[kind]()
            # The builtin sum adds the rows in order at a lone point too, where
            # np.add.reduce would sum a column of eight or more pairwise.
            out.append([sum(weighted[i:j], np.zeros(x.size)).reshape(x.shape)[()] for i, j in zip(ends, ends[1:])])
        return out

    def edges(self) -> tuple[float, ...]:
        """Support endpoints of every bump (the smoothness breakpoints)."""
        out = []
        for b in self.bumps:
            out.extend((b.center - b.radius, b.center + b.radius))
        return tuple(out)


@dataclass(frozen=True)
class VariationField:
    """Pair of test functions (delta_y, delta_z) vanishing at the endpoints of curve.

    ``samples``, taken on first use, is ``_sample`` of the deltas on a rule of ``panels``
    panels: ``(x, wts, yp, zp, (dyv, dzv), (dyp, dzp))``.  The curve and the samples are
    left out of ``==``, ``hash`` and ``repr``; ``dataclasses.replace`` gives a field that
    samples afresh.
    """

    curve: GraphCurve = field(compare=False, repr=False)
    delta_y: BumpSum
    delta_z: BumpSum
    panels: int = quadrature.PANELS

    @cached_property
    def samples(self) -> tuple:
        return _sample(self.curve, (self.delta_y, self.delta_z), self.panels)

    @property
    def constraint(self) -> float:
        """The rule's value of ``integral(y'*delta_z' + z'*delta_y')``, which admissible
        variations keep at zero so the rebuilt w component returns to its endpoint value."""
        _, wts, yp, zp, _, (dyp, dzp) = self.samples
        return quadrature.integrate(wts, yp * dzp + zp * dyp)


def _sample(curve: GraphCurve, sums: tuple[BumpSum, ...], panels: int) -> tuple:
    """The rule split at the curve's breakpoints and every edge of the sums' bumps, then
    y' and z' on its nodes and the sums' values and slopes there from one pass:
    ``(x, wts, yp, zp, values, slopes)``."""
    a, b = curve.domain
    x, wts = quadrature.partitioned_nodes(a, b, curve.breakpoints + tuple(e for bs in sums for e in bs.edges()), panels)
    values, slopes = BumpSum._evaluate(x, sums, "value", "deriv")
    return x, wts, np.asarray(curve.y.deriv(x), float), np.asarray(curve.z.deriv(x), float), values, slopes


def _uniform(u: float, low: float, high: float) -> float:
    """``rng.uniform(low, high)`` from the unit deviate u it draws."""
    return low + (high - low) * u


def _random_bumps(rng: np.random.Generator, a: float, b: float) -> BumpSum:
    span = b - a
    bumps = []
    coeffs = []
    # One draw of the deviates that RANDOM_BUMPS rounds of rng.uniform calls
    # (radius, centre, coefficient) would take, in their order.
    for u_r, u_c, u_k in rng.random((RANDOM_BUMPS, 3)).tolist():
        radius = span * _uniform(u_r, 0.08, 0.20)
        lo = a + radius + 0.02 * span
        hi = b - radius - 0.02 * span
        bumps.append(Bump(_uniform(u_c, lo, hi), radius))
        coeffs.append(_uniform(u_k, -VARIATION_AMP, VARIATION_AMP))
    return BumpSum(tuple(bumps), tuple(coeffs))


def make_constrained_variation(
    curve: GraphCurve, seed: int, panels: int = quadrature.PANELS
) -> VariationField:
    """Seeded random variation satisfying the admissibility constraint.

    RANDOM_BUMPS bumps are drawn for each component; a fixed central bump added to delta_z
    absorbs the constraint integral, which splits at the curve's breakpoints and bump edges.
    An integral counts as zero up to VANISHING times the integral of its integrand's size,
    so whether the fixer's vanishes depends on the curve and not on the seed; where it does
    and the constraint does not, DegenerateVariation is raised.  When either integral
    overflows, as the slopes of a bump on a very short interval can make it, NumericalFailure is raised.
    seed must be an integer of at least 0, and not a bool.
    """
    check_integer("seed", seed, 0)
    a, b = curve.domain
    rng = np.random.default_rng(seed)
    dy = _random_bumps(rng, a, b)
    dz = _random_bumps(rng, a, b)
    fixer = BumpSum((Bump.central(a, b),), (1.0,))
    x, wts, yp, zp, (dyv, dzv, fv), (dyp, dzp, fp) = _sample(curve, (dy, dz, fixer), panels)

    k_raw = quadrature.integrate(wts, yp * dzp + zp * dyp)
    denom = quadrature.integrate(wts, yp * fp)
    if not (math.isfinite(k_raw) and math.isfinite(denom)):
        raise NumericalFailure(f"seed {seed}: constraint integral {k_raw:.3e} or its correction {denom:.3e} is not finite")

    if abs(denom) <= VANISHING * quadrature.integrate(wts, np.abs(yp * fp)):
        if abs(k_raw) > VANISHING * quadrature.integrate(wts, np.abs(yp * dzp) + np.abs(zp * dyp)):
            raise DegenerateVariation(
                f"the fixer integral {denom:.3e} vanishes on this curve, so it cannot absorb the constraint {k_raw:.3e}"
            )
        # Without the fixer the field's rule is another one, which it samples on first use.
        return VariationField(curve, dy, dz, panels)

    coeff = -k_raw / denom
    var = VariationField(curve, dy, BumpSum(dz.bumps + fixer.bumps, dz.coeffs + (coeff,)), panels)
    # The corrected delta_z's values and slopes bit for bit: BumpSum sums in order, fixer last.
    vars(var)["samples"] = (x, wts, yp, zp, (dyv, dzv + coeff * fv), (dyp, dzp + coeff * fp))
    return var


def perturbed_curve(curve: GraphCurve, delta_y: BumpSum, delta_z: BumpSum, scale: float) -> GraphCurve:
    """Deform y and z by ``scale*delta`` and rebuild w from admissibility.

    The deltas are BumpSums, whose edges join the curve's breakpoints.  The rebuilt w has
    ``w' = -y'*z'``, so the result is admissible by construction; its values come from one
    cumulative table of that integrand on the new curve's table edges, anchored at the left
    endpoint to the original w and built when a w value is first asked for.  scale must be finite.
    """
    a, _ = curve.domain
    s = float(scale)
    if not math.isfinite(s):
        raise InvalidParams(f"scale must be finite, got {scale}")

    def moved(base: Coordinate, delta) -> Coordinate:
        return Coordinate(
            lambda x: base.value(x) + s * delta.value(x),
            lambda x: base.deriv(x) + s * delta.deriv(x),
            lambda x: base.deriv2(x) + s * delta.deriv2(x),
        )

    y2, z2 = moved(curve.y, delta_y), moved(curve.z, delta_z)
    breaks = curve.breakpoints + delta_y.edges() + delta_z.edges()
    # The edges are those of the new curve, computed without it: w holding
    # the curve it belongs to would be a reference cycle.
    w = recover_w(y2, z2, lambda: table_edges(curve.domain, y2, breaks), a, lambda: curve.w.value(a))
    return GraphCurve(curve.domain, y2, w, z2, breakpoints=breaks)


def first_variation(var: VariationField, u: DirectionSpec, alpha: float) -> DualScalar:
    """Directional derivative of the energy of var's curve along var, in closed form.

    y and z move by ``s*delta`` and w is rebuilt from admissibility, as in
    ``perturbed_curve``: at s = 0, ``dH = delta_y + eps*delta_z`` and
    ``dgamma' = (0, delta_y') + eps*(-(y'*delta_z' + z'*delta_y'), delta_z')``.
    The chain rule in the dual algebra gives the integrand
    ``alpha*H**(alpha-1)*dH*|gamma'| + H**alpha*<gamma', dgamma'>/|gamma'|``.
    Both dual components vanish, to quadrature accuracy, at stationary
    curves.  The integral is taken on var's samples.
    """
    x, wts, yp, zp, (dyv, dzv), (dyp, dzp) = var.samples
    height = var.curve.height(u, x)
    vel = DualVec2((1.0, yp), (-yp * zp, zp))
    dvel = DualVec2((0.0, dyp), (-(yp * dzp + zp * dyp), dzp))
    speed = dual_norm(vel)
    d_height = DualScalar(dyv, dzv)
    integrand = alpha * height ** (alpha - 1.0) * d_height * speed + height**alpha * dual_dot(vel, dvel) / speed
    return DualScalar(quadrature.integrate(wts, integrand.re), quadrature.integrate(wts, integrand.du))


@dataclass(frozen=True)
class ResidualReport:
    """The pointwise residuals on a sample grid, the first-integral constant they used,
    each residual's largest magnitude, and the frame on every point the maxima read, grid first."""

    grid: np.ndarray
    residuals: dict
    c_used: float
    max_abs: dict
    frame: Frame


def resolve_c(curve: GraphCurve, alpha: float, x0: float) -> float:
    """First-integral constant: the closed form's own when its exponent is
    the requested one, otherwise read off the curve at x0."""
    if isinstance(curve.source, ClosedForm) and curve.source.alpha == alpha:
        return curve.source.c
    return infer_c(curve, alpha, x0)


def residual_report(curve: GraphCurve, alpha: float, u: DirectionSpec, num: int = REPORT_SAMPLES) -> ResidualReport:
    """Evaluate all pointwise residuals on ``num`` evenly spaced points of the domain.

    The Euler-Lagrange residuals are the speed nu times the two parts of the
    characterization, from one frame.  A solve's y'' and z'' are exact at its
    knots, so on a Numeric curve each maximum also takes the two Gauss points
    ``mid +- h/(2*sqrt(3))`` of every knot cell, where the interpolation error
    shows; the residual rows stay on the grid.  Only y, z and w's admissible
    derivatives are read, never w's values.  num must be an integer of at least 2,
    and not a bool, and alpha must be finite.
    """
    check_integer("num", num, 2)
    if not math.isfinite(alpha):
        raise InvalidParams(f"alpha must be finite, got {alpha}")
    a, b = curve.domain
    xs = np.linspace(a, b, num)
    x = xs
    if isinstance(curve.source, Numeric):
        knots = curve.y.grid
        mid, off = 0.5 * (knots[:-1] + knots[1:]), np.diff(knots) / (2.0 * math.sqrt(3.0))
        x = np.concatenate((xs, mid - off, mid + off))
    # A height that is not positive fails here, before any residual divides by it.
    height = curve.height(u, x)
    c_used = resolve_c(curve, alpha, float(xs[len(xs) // 2]))
    fr = curve.frame(x)
    char = fr.characterization(alpha, u, height)
    residuals = {
        "admissibility": curve.admissibility_residual(x),
        "el_real": fr.nu * char.re,
        "el_dual": fr.nu * char.du,
        "first_integral": first_integral_residual(height.re, fr.yp, alpha, c_used),
        "characterization_re": char.re,
        "characterization_du": char.du,
    }
    return ResidualReport(
        xs,
        {name: r[:num] for name, r in residuals.items()},
        c_used,
        {name: float(np.max(np.abs(r))) for name, r in residuals.items()},
        fr,
    )
