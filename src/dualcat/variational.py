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
from dataclasses import dataclass

import numpy as np

from . import quadrature
from .curves import ClosedForm, Coordinate, GraphCurve, recover_w
from .dual import DirectionSpec, DualScalar, DualVec2, dual_dot, dual_norm
from .errors import DegenerateVariation, DomainError, InvalidParams, NumericalFailure

# Bump amplitude used for seeded variations; small enough that quadrature
# error on the bump tails stays far below the stationarity tolerances.
VARIATION_AMP = 0.05

# Random bumps drawn for each component of a seeded variation.
RANDOM_BUMPS = 3

# Thresholds for the solvability of the one-dimensional constraint correction.
FIXER_DENOM_MIN = 1e-10
CONSTRAINT_NEGLIGIBLE = 1e-12


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
) -> EnergyValue:
    """Dual potential energy of the curve, on panels split at its breakpoints."""
    a, b = curve.domain
    x, wts = quadrature.partitioned_nodes(a, b, curve.breakpoints, panels)
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

    @classmethod
    def central(cls, a: float, b: float) -> "Bump":
        """The bump centred on [a, b] with radius 0.3 of its width."""
        return cls(0.5 * (a + b), 0.3 * (b - a))

    def _ts(self, x):
        """Scaled offset ``t`` and ``s = max(0, 1 - t**2)`` at x."""
        t = (np.asarray(x, dtype=float) - self.center) / self.radius
        return t, np.maximum(0.0, 1.0 - t * t)

    def value(self, x):
        _, s = self._ts(x)
        return s**3

    def deriv(self, x):
        t, s = self._ts(x)
        return -6.0 * t * s * s / self.radius

    def deriv2(self, x):
        t, s = self._ts(x)
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


def _random_bumps(rng: np.random.Generator, a: float, b: float) -> BumpSum:
    span = b - a
    bumps = []
    coeffs = []
    for _ in range(RANDOM_BUMPS):
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

    RANDOM_BUMPS bumps are drawn for each component; a fixed central bump added to delta_z
    absorbs the constraint integral, which splits at the curve's breakpoints and bump edges.
    When the correction is unsolvable (its denominator vanishes while the constraint does
    not) the seed is rejected with DegenerateVariation.
    """
    a, b = curve.domain
    rng = np.random.default_rng(seed)
    dy = _random_bumps(rng, a, b)
    dz = _random_bumps(rng, a, b)
    fixer = Bump.central(a, b)

    breaks = curve.breakpoints + dy.edges() + dz.edges() + (fixer.center - fixer.radius, fixer.center + fixer.radius)
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


def perturbed_curve(curve: GraphCurve, delta_y: BumpSum, delta_z: BumpSum, scale: float) -> GraphCurve:
    """Deform y and z by ``scale*delta`` and rebuild w from admissibility.

    The deltas are BumpSums, whose edges join the curve's breakpoints.  The rebuilt w has
    ``w' = -y'*z'``, so the result is admissible by construction; its values come from one
    cumulative table of that integrand on the new curve's table edges, anchored at the left
    endpoint to the original w and built when a w value is first asked for.
    """
    a, _ = curve.domain
    s = float(scale)

    def moved(base: Coordinate, delta) -> Coordinate:
        return Coordinate(
            lambda x: base.value(x) + s * delta.value(x),
            lambda x: base.deriv(x) + s * delta.deriv(x),
            lambda x: base.deriv2(x) + s * delta.deriv2(x),
        )

    y2, z2 = moved(curve.y, delta_y), moved(curve.z, delta_z)
    w = recover_w(y2, z2, lambda: out._table_edges(), a, lambda: curve.w.value(a))
    out = GraphCurve(curve.domain, y2, w, z2, breakpoints=curve.breakpoints + delta_y.edges() + delta_z.edges())
    return out


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
    Both dual components vanish, to quadrature accuracy, at stationary
    curves.  The panels split at the curve's breakpoints and the bump edges.
    """
    a, b = curve.domain
    dy, dz = var.delta_y, var.delta_z
    x, wts = quadrature.partitioned_nodes(a, b, curve.breakpoints + dy.edges() + dz.edges(), panels)
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
    """The pointwise residuals on a sample grid, the first-integral constant
    they used, and each residual's largest magnitude."""

    grid: np.ndarray
    residuals: dict
    c_used: float

    @property
    def max_abs(self) -> dict:
        return {name: float(np.max(np.abs(r))) for name, r in self.residuals.items()}


def resolve_c(curve: GraphCurve, alpha: float, x0: float) -> float:
    """First-integral constant: the closed form's own when its exponent is
    the requested one, otherwise read off the curve at x0."""
    if isinstance(curve.source, ClosedForm) and curve.source.alpha == alpha:
        return curve.source.c
    return infer_c(curve, alpha, x0)


def residual_report(curve: GraphCurve, alpha: float, u: DirectionSpec, num: int = 201) -> ResidualReport:
    """Evaluate all pointwise residuals on ``num`` evenly spaced points of the domain.

    Only y, z and w's admissible derivatives are read, never w's values.
    """
    a, b = curve.domain
    xs = np.linspace(a, b, num)
    # A height that is not positive fails here, before any residual divides by it.
    _heights(curve, xs)
    c_used = resolve_c(curve, alpha, float(xs[len(xs) // 2]))
    char = curve.characterization_residual(alpha, u, xs)
    residuals = {
        "admissibility": curve.admissibility_residual(xs),
        "el_real": el_residual_real(curve, alpha, xs),
        "el_dual": el_residual_dual(curve, alpha, u, xs),
        "first_integral": first_integral_residual(curve, alpha, c_used, xs),
        "characterization_re": char.re,
        "characterization_du": char.du,
    }
    return ResidualReport(xs, residuals, c_used)
