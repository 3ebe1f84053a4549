"""Potential energy, stationarity residuals and constrained variations.

The energy of an admissible curve is the dual-valued integral of
``<u, gamma>**alpha * |gamma'|``.  Its real part depends only on the graph y;
its eps part adds the first-order response of the energy to the deformation
(w, z).  Stationary curves satisfy an Euler-Lagrange equation in each
component, checked here pointwise, and make the first variation vanish for
every fixed-endpoint variation that respects admissibility to first order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import quadrature
from .curves import ClosedForm, Coordinate, GraphCurve
from .dual import DirectionSpec, DualScalar, DualVec2, _dedim, dual_dot, dual_norm
from .errors import DegenerateVariation, DomainError, InvalidParams, NumericalFailure

# Bump amplitude used for seeded variations; small enough that quadrature
# error on the bump tails stays far below the stationarity tolerances.
VARIATION_AMP = 0.05

# Thresholds for the solvability of the one-dimensional constraint correction.
FIXER_DENOM_MIN = 1e-10
CONSTRAINT_NEGLIGIBLE = 1e-12

# Absolute tolerance of a perturbed curve's rebuilt w over its whole interval.
W_TOL = 1e-12


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


def _heights(curve: GraphCurve, x) -> np.ndarray:
    """Heights y(x) at points of the curve's interval, required finite and positive."""
    curve._check(x)
    y = np.asarray(curve.y.value(x), dtype=float)
    if np.any(y <= 0.0) or not np.all(np.isfinite(y)):
        raise DomainError("curve height must stay positive and finite at the evaluation points")
    return y


def energy(
    curve: GraphCurve,
    u: DirectionSpec,
    alpha: float,
    panels: int = quadrature.PANELS,
    breakpoints=(),
) -> EnergyValue:
    """Dual potential energy of the curve over its whole interval.

    Extra quadrature breakpoints keep full accuracy when the integrand is
    only piecewise smooth, as for curves deformed by compactly supported
    bumps.
    """
    a, b = curve.domain
    x, wts = quadrature.partitioned_nodes(a, b, breakpoints, panels)
    _heights(curve, x)
    pot = curve.height(u, x) ** alpha
    speed = dual_norm(curve.velocity(x))
    integrand = pot * speed
    e0 = float(np.dot(wts, integrand.re))
    e1 = float(np.dot(wts, pot.du * speed.re))
    return EnergyValue(DualScalar(e0, float(np.dot(wts, integrand.du))), e0, e1)


def el_residual_real(curve: GraphCurve, alpha: float, x):
    """Residual ``y''/(1 + y'**2) - alpha/y`` of the graph equation."""
    y = _heights(curve, x)
    yp = curve.y.deriv(x)
    ypp = curve.y.deriv2(x)
    return ypp / (1.0 + yp * yp) - alpha / y


def el_residual_dual(curve: GraphCurve, alpha: float, u: DirectionSpec, x):
    """Residual ``z'' + alpha*(y'/y)*(z' + v) + alpha*(z + v*x)/y**2``.

    This is the linearization of the graph equation along the deformation,
    and vanishes on the eps part of a stationary admissible curve.
    """
    xs = np.asarray(x, dtype=float)
    y = _heights(curve, xs)
    yp = curve.y.deriv(x)
    zv = curve.z.value(x)
    zp = curve.z.deriv(x)
    zpp = curve.z.deriv2(x)
    return zpp + alpha * (yp / y) * (zp + u.v) + alpha * (zv + u.v * xs) / (y * y)


def first_integral_residual(curve: GraphCurve, alpha: float, c: float, x):
    """Residual ``1 + y'**2 - c**2 * y**(2*alpha)`` of the conserved quantity."""
    if not (c > 0.0 and np.isfinite(c)):
        raise InvalidParams(f"c must be positive, got {c}")
    y = _heights(curve, x)
    yp = curve.y.deriv(x)
    return 1.0 + yp * yp - c * c * y ** (2.0 * alpha)


def infer_c(curve: GraphCurve, alpha: float, x0: float) -> float:
    """Constant ``sqrt((1 + y'**2) / y**(2*alpha))`` read off at one point.

    Raises NumericalFailure when it is not positive and finite, as when
    ``y**(2*alpha)`` leaves the float range.
    """
    y = float(_heights(curve, x0))
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


def multiplier_residual(curve: GraphCurve, alpha: float, c: float, x):
    """Residual ``y''/c - alpha*c*y**(2*alpha - 1)`` of the scaled graph equation."""
    if not (c > 0.0 and np.isfinite(c)):
        raise InvalidParams(f"c must be positive, got {c}")
    y = _heights(curve, x)
    ypp = curve.y.deriv2(x)
    return ypp / c - alpha * c * y ** (2.0 * alpha - 1.0)


@dataclass(frozen=True)
class Bump:
    """Polynomial bump ``(1 - t**2)**3`` on ``|x - center| < radius``.

    Twice continuously differentiable across the support edges, which keeps
    fixed-panel quadrature of bump integrands well behaved.
    """

    center: float
    radius: float

    def _t(self, x):
        return (np.asarray(x, dtype=float) - self.center) / self.radius

    def value(self, x):
        t = self._t(x)
        s = np.maximum(0.0, 1.0 - t * t)
        return s**3

    def deriv(self, x):
        t = self._t(x)
        s = np.maximum(0.0, 1.0 - t * t)
        return -6.0 * t * s * s / self.radius

    def deriv2(self, x):
        t = self._t(x)
        s = np.maximum(0.0, 1.0 - t * t)
        return 6.0 * s * (5.0 * t * t - 1.0) / self.radius**2


@dataclass(frozen=True)
class BumpSum:
    """Linear combination of bumps, used as a compactly supported test function."""

    bumps: tuple[Bump, ...]
    coeffs: tuple[float, ...]

    def value(self, x):
        return sum(a * b.value(x) for a, b in zip(self.coeffs, self.bumps))

    def deriv(self, x):
        return sum(a * b.deriv(x) for a, b in zip(self.coeffs, self.bumps))

    def deriv2(self, x):
        return sum(a * b.deriv2(x) for a, b in zip(self.coeffs, self.bumps))

    def with_bump(self, coeff: float, bump: Bump) -> "BumpSum":
        return BumpSum(self.bumps + (bump,), self.coeffs + (coeff,))

    def edges(self) -> tuple[float, ...]:
        """Support endpoints of every bump (the smoothness breakpoints)."""
        out = []
        for b in self.bumps:
            out.extend((b.center - b.radius, b.center + b.radius))
        return tuple(out)


@dataclass(frozen=True)
class VariationField:
    """Pair of test functions (delta_y, delta_z) vanishing at the endpoints.

    ``constraint`` records the quadrature value of
    ``integral(y'*delta_z' + z'*delta_y')``, which admissible variations keep
    at zero so the rebuilt w component returns to its endpoint value.
    """

    delta_y: BumpSum
    delta_z: BumpSum
    constraint: float


def _random_bumps(rng: np.random.Generator, a: float, b: float, count: int = 3) -> BumpSum:
    span = b - a
    bumps = []
    coeffs = []
    for _ in range(count):
        radius = span * rng.uniform(0.08, 0.20)
        lo = a + radius + 0.02 * span
        hi = b - radius - 0.02 * span
        bumps.append(Bump(rng.uniform(lo, hi), radius))
        coeffs.append(rng.uniform(-VARIATION_AMP, VARIATION_AMP))
    return BumpSum(tuple(bumps), tuple(coeffs))


def make_constrained_variation(
    curve: GraphCurve, seed: int, panels: int = quadrature.PANELS
) -> VariationField:
    """Seeded random variation satisfying the admissibility constraint.

    Three bumps are drawn for each component; a fixed central bump added to
    delta_z absorbs the constraint integral.  When the correction is unsolvable
    (its denominator vanishes while the constraint does not) the seed is
    rejected with DegenerateVariation.
    """
    a, b = curve.domain
    rng = np.random.default_rng(seed)
    dy = _random_bumps(rng, a, b)
    dz = _random_bumps(rng, a, b)
    fixer = Bump(0.5 * (a + b), 0.3 * (b - a))

    breaks = dy.edges() + dz.edges() + (fixer.center - fixer.radius, fixer.center + fixer.radius)
    x, wts = quadrature.partitioned_nodes(a, b, breaks, panels)
    yp = np.asarray(curve.y.deriv(x), float)
    zp = np.asarray(curve.z.deriv(x), float)
    dyp, dzp, fp = dy.deriv(x), dz.deriv(x), fixer.deriv(x)

    k_raw = float(np.dot(wts, yp * dzp + zp * dyp))
    denom = float(np.dot(wts, yp * fp))

    if abs(denom) < FIXER_DENOM_MIN:
        if abs(k_raw) > CONSTRAINT_NEGLIGIBLE:
            raise DegenerateVariation(
                f"seed {seed}: constraint {k_raw:.3e} cannot be corrected, denominator {denom:.3e}"
            )
        corrected = dz
    else:
        coeff = -k_raw / denom
        corrected = dz.with_bump(coeff, fixer)
        # corrected.deriv(x) bit for bit: BumpSum sums in order, fixer last.
        dzp = dzp + coeff * fp

    k_final = float(np.dot(wts, yp * dzp + zp * dyp))
    return VariationField(dy, corrected, k_final)


def perturbed_curve(
    curve: GraphCurve, delta_y, delta_z, scale: float
) -> GraphCurve:
    """Deform y and z by ``scale*delta`` and rebuild w from admissibility.

    The rebuilt w has ``w' = -y'*z'`` for the new coordinates, so the result
    is admissible by construction.  Its values come from one cumulative table
    of that integrand, anchored at the left endpoint to the original w; table
    and anchor are built only when a w value is first asked for.
    """
    a, _ = curve.domain
    s = float(scale)

    y2 = Coordinate(
        lambda x: curve.y.value(x) + s * delta_y.value(x),
        lambda x: curve.y.deriv(x) + s * delta_y.deriv(x),
        lambda x: curve.y.deriv2(x) + s * delta_y.deriv2(x),
    )
    z2 = Coordinate(
        lambda x: curve.z.value(x) + s * delta_z.value(x),
        lambda x: curve.z.deriv(x) + s * delta_z.deriv(x),
        lambda x: curve.z.deriv2(x) + s * delta_z.deriv2(x),
    )

    def w_d1(x):
        return -(y2.deriv(x) * z2.deriv(x))

    def w_d2(x):
        return -(y2.deriv2(x) * z2.deriv(x) + y2.deriv(x) * z2.deriv2(x))

    w0, table = None, None

    def w_val(x):
        nonlocal w0, table
        if table is None:
            w0 = float(curve.w.value(a))
            table = quadrature.CumulativeIntegral(w_d1, curve._table_edges(), W_TOL)
        return _dedim(w0 + table(x))

    return GraphCurve(curve.domain, y2, Coordinate(w_val, w_d1, w_d2), z2, source=None)


def first_variation(
    curve: GraphCurve,
    var: VariationField,
    u: DirectionSpec,
    alpha: float,
    panels: int = quadrature.PANELS,
) -> DualScalar:
    """Directional derivative of the energy along var, in closed form.

    y and z move by ``s*delta`` and w is rebuilt from admissibility, as in
    ``perturbed_curve``: at s = 0, ``dH = delta_y + eps*delta_z`` and
    ``dgamma' = (0, delta_y') + eps*(-(y'*delta_z' + z'*delta_y'), delta_z')``.
    The chain rule in the dual algebra gives the integrand
    ``alpha*H**(alpha-1)*dH*|gamma'| + H**alpha*<gamma', dgamma'>/|gamma'|``.
    Both dual components vanish, to quadrature accuracy, at stationary curves.
    """
    a, b = curve.domain
    dy, dz = var.delta_y, var.delta_z
    x, wts = quadrature.partitioned_nodes(a, b, dy.edges() + dz.edges(), panels)
    _heights(curve, x)
    yp, zp = curve.y.deriv(x), curve.z.deriv(x)
    dyp, dzp = dy.deriv(x), dz.deriv(x)
    height = curve.height(u, x)
    vel = DualVec2((1.0, yp), (-yp * zp, zp))
    dvel = DualVec2((0.0, dyp), (-(yp * dzp + zp * dyp), dzp))
    speed = dual_norm(vel)
    d_height = DualScalar(dy.value(x), dz.value(x))
    integrand = alpha * height ** (alpha - 1.0) * d_height * speed + height**alpha * dual_dot(vel, dvel) / speed
    return DualScalar(float(np.dot(wts, integrand.re)), float(np.dot(wts, integrand.du)))


@dataclass(frozen=True)
class ResidualReport:
    """Residual columns on a sample grid plus their max-abs summary."""

    grid: np.ndarray
    columns: dict = field(default_factory=dict)
    max_abs: dict = field(default_factory=dict)
    c_used: float | None = None


def resolve_c(curve: GraphCurve, alpha: float, x0: float) -> float:
    """First-integral constant: from closed-form parameters when they match
    the requested exponent, otherwise read off the curve at x0."""
    if isinstance(curve.source, ClosedForm) and curve.source.params is not None:
        p = curve.source.params
        if p.alpha == alpha:
            return p.R if alpha == -1.0 else p.c
    return infer_c(curve, alpha, x0)


def residual_report(
    curve: GraphCurve,
    alpha: float,
    u: DirectionSpec,
    c: float | None = None,
    num: int = 201,
    grid: np.ndarray | None = None,
) -> ResidualReport:
    """Evaluate all pointwise residuals on a uniform (or given) grid."""
    a, b = curve.domain
    xs = np.linspace(a, b, num) if grid is None else np.asarray(grid, dtype=float)
    y = _heights(curve, xs)
    c_used = resolve_c(curve, alpha, float(xs[len(xs) // 2])) if c is None else float(c)
    kappa = curve.curvature(xs)
    char = curve.characterization_residual(alpha, u, xs)
    admis = curve.admissibility_residual(xs)

    columns = {
        "x": xs,
        "y": y,
        "w": np.asarray(curve.w.value(xs), float),
        "z": np.asarray(curve.z.value(xs), float),
        "yp": np.asarray(curve.y.deriv(xs), float),
        "zp": np.asarray(curve.z.deriv(xs), float),
        "kappa_re": kappa.re,
        "kappa_du": kappa.du,
        "char_res_re": char.re,
        "char_res_du": char.du,
        "admis_res": admis,
    }
    residuals = {
        "admissibility": admis,
        "el_real": el_residual_real(curve, alpha, xs),
        "el_dual": el_residual_dual(curve, alpha, u, xs),
        "first_integral": first_integral_residual(curve, alpha, c_used, xs),
        "characterization_re": char.re,
        "characterization_du": char.du,
    }
    max_abs = {name: float(np.max(np.abs(r))) for name, r in residuals.items()}
    return ResidualReport(xs, columns, max_abs, c_used)
