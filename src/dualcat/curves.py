"""Graph curves over the dual plane and their differential geometry.

A curve is parametrized by x as ``(x, y(x)) + eps*(w(x), z(x))``.  The real
part is an ordinary plane graph; the eps part is a first-order deformation.
The curve is admissible when ``w' + y'*z' = 0``, which makes its dual speed
purely real and lets the Frenet frame and curvature split into a Euclidean
part plus an eps correction driven by z.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Callable

import numpy as np

from . import quadrature
from .dual import DirectionSpec, DualScalar, DualVec2, _dedim, dual_dot
from .errors import InvalidParams, NumericalFailure, OutOfDomain
from .spline import HermiteSpline

if TYPE_CHECKING:
    from .closed_forms import CatenaryParams

# Absolute slack when checking that a point lies inside a curve's interval.
DOMAIN_SLACK = 1e-12

# Arc length: tolerance on the table total and on each inversion, and the
# Newton steps an inversion may take.
ARCLEN_TOL = 1e-12
NEWTON_STEPS = 32


def _const(c: float) -> Callable:
    c = float(c)

    def fn(x):
        x = np.asarray(x, dtype=float)
        if x.ndim == 0:
            return c
        return np.full(x.shape, c)

    return fn


class Coordinate:
    """Scalar function of x with analytic first and second derivatives.

    The three callables must accept floats and numpy arrays elementwise.
    """

    __slots__ = ("_f", "_d1", "_d2")

    def __init__(self, f: Callable, d1: Callable, d2: Callable):
        self._f = f
        self._d1 = d1
        self._d2 = d2

    def value(self, x):
        return self._f(x)

    def deriv(self, x):
        return self._d1(x)

    def deriv2(self, x):
        return self._d2(x)

    @staticmethod
    def constant(c: float) -> "Coordinate":
        return Coordinate(_const(c), _const(0.0), _const(0.0))

    @staticmethod
    def linear(slope: float, intercept: float) -> "Coordinate":
        slope = float(slope)
        intercept = float(intercept)
        return Coordinate(lambda x: slope * np.asarray(x, float) + intercept, _const(slope), _const(0.0))


class SampledCoordinate(Coordinate):
    """Coordinate built from grid samples of value, first and second derivative.

    Values interpolate with a cubic Hermite spline on (value, d1); the first
    derivative with a spline on (d1, d2); the second derivative as the exact
    derivative of the latter, so it reproduces the d2 samples at the nodes.
    """

    __slots__ = ("grid",)

    def __init__(self, grid: np.ndarray, vals: np.ndarray, d1: np.ndarray, d2: np.ndarray):
        grid = np.asarray(grid, dtype=float)
        s_d1 = HermiteSpline(grid, d1, d2)
        super().__init__(HermiteSpline(grid, vals, d1), s_d1, s_d1.derivative())
        self.grid = grid


@dataclass(frozen=True)
class ClosedForm:
    """Source tag for curves built from an explicit parametric family."""

    params: "CatenaryParams"


@dataclass(frozen=True, eq=False)
class Numeric:
    """Source tag for curves assembled from an ODE solve; ``truncated`` if a guard cut it short."""

    grid: np.ndarray
    truncated: bool = False


@dataclass(frozen=True)
class Frame:
    """Unit tangent and normal at a point (or a grid), as dual-plane vectors."""

    T: DualVec2
    N: DualVec2
    nu: float  # Euclidean speed sqrt(1 + y'(x)**2)


class GraphCurve:
    """Graph curve ``(x, y(x)) + eps*(w(x), z(x))`` on a closed interval."""

    def __init__(
        self,
        domain: tuple[float, float],
        y: Coordinate,
        w: Coordinate,
        z: Coordinate,
        source: ClosedForm | Numeric | None = None,
    ):
        a, b = float(domain[0]), float(domain[1])
        if not (np.isfinite(a) and np.isfinite(b)) or a >= b:
            raise InvalidParams(f"domain must be a finite interval with a < b, got ({a}, {b})")
        self.domain = (a, b)
        self.y = y
        self.w = w
        self.z = z
        self.source = source

    def _check(self, x) -> None:
        a, b = self.domain
        slack = DOMAIN_SLACK * (1.0 + abs(a) + abs(b))
        arr = np.asarray(x, dtype=float)
        # Written so that NaN, which fails every comparison, is rejected too.
        if not ((arr >= a - slack) & (arr <= b + slack)).all():
            raise OutOfDomain(f"x = {x} outside [{a}, {b}]")

    def evaluate(self, x: float) -> DualVec2:
        """Curve point as a dual-plane vector."""
        self._check(x)
        x = float(x)
        return DualVec2((x, float(self.y.value(x))), (float(self.w.value(x)), float(self.z.value(x))))

    def admissibility_residual(self, x):
        """Defect ``w' + y'*z'``; identically zero on admissible curves."""
        self._check(x)
        return _dedim(self.w.deriv(x) + self.y.deriv(x) * self.z.deriv(x))

    def velocity(self, x) -> DualVec2:
        """Derivative ``gamma' = (1, y') + eps*(w', z')``; x may be an array."""
        self._check(x)
        return DualVec2(
            (1.0, _dedim(self.y.deriv(x))), (_dedim(self.w.deriv(x)), _dedim(self.z.deriv(x)))
        )

    def height(self, u: DirectionSpec, x) -> DualScalar:
        """Dual height ``<gamma, u> = y + eps*(z + v*x)``; x may be an array.

        The real part of u is vertical, so w has coefficient zero and is not
        evaluated: on perturbed curves each w value is its own quadrature.
        """
        self._check(x)
        x = _dedim(np.asarray(x, dtype=float))
        return DualScalar(_dedim(self.y.value(x)), _dedim(self.z.value(x) + u.v * x))

    def frame(self, x) -> Frame:
        """Frenet frame, assuming the curve is admissible at x (a point or an array).

        The tangent is the Euclidean tangent plus ``eps*z'*N``; the normal is
        the Euclidean normal (left-pointing: ``(-y', 1)/nu``) minus
        ``eps*z'*T``.  Both have unit dual norm.
        """
        self._check(x)
        yp = _dedim(self.y.deriv(x))
        zp = _dedim(self.z.deriv(x))
        nu = _dedim(np.hypot(1.0, yp))
        t_re = (1.0 / nu, yp / nu)
        n_re = (-yp / nu, 1.0 / nu)
        T = DualVec2(t_re, (zp * n_re[0], zp * n_re[1]))
        N = DualVec2(n_re, (-zp * t_re[0], -zp * t_re[1]))
        return Frame(T, N, nu)

    def curvature(self, x) -> DualScalar:
        """Signed curvature ``y''/nu**3 + eps*z''/nu`` for an admissible curve."""
        self._check(x)
        yp = _dedim(self.y.deriv(x))
        ypp = _dedim(self.y.deriv2(x))
        zpp = _dedim(self.z.deriv2(x))
        nu = _dedim(np.hypot(1.0, yp))
        # np.power, not the float operator: points and grids round alike.
        return DualScalar(ypp / _dedim(np.power(nu, 3)), zpp / nu)

    def characterization_residual(self, alpha: float, u: DirectionSpec, x) -> DualScalar:
        """Residual of the curvature identity ``kappa = alpha*<N,u>/<gamma,u>``.

        Vanishes exactly on the curves that are stationary for the potential
        energy with exponent alpha and reference direction u.  Raises
        ZeroRealPart when the height ``y(x)`` is zero, or so small (about
        1e-150) that its square underflows.
        """
        kappa = self.curvature(x)
        num = dual_dot(self.frame(x).N, u.vector)
        return kappa - float(alpha) * (num / self.height(u, x))

    def _table_edges(self) -> np.ndarray:
        """Start cells for integral tables over the interval: the spline knots
        of a sampled y inside it, or uniform cells otherwise."""
        a, b = self.domain
        if isinstance(self.y, SampledCoordinate):
            knots = self.y.grid
            return np.concatenate(([a], knots[(knots > a) & (knots < b)], [b]))
        return np.linspace(a, b, quadrature.TABLE_START_CELLS + 1)

    @cached_property
    def _arclength_table(self) -> quadrature.CumulativeIntegral:
        """Cumulative arc length of the real part, built on first use.

        Refinement halves the start cells where the speed needs it, such as
        near the steep ends of a circular arc.
        """
        return quadrature.CumulativeIntegral(
            lambda x: np.hypot(1.0, self.y.deriv(x)), self._table_edges(), ARCLEN_TOL
        )

    def arc_length(self, x0: float, x1: float) -> float:
        """Euclidean arc length of the real part between x0 and x1."""
        self._check(x0)
        self._check(x1)
        table = self._arclength_table
        return float(table(x1) - table(x0))

    def x_at_arclength(self, s: float) -> float:
        """Parameter x at which arc length from the left endpoint reaches s.

        The speed nu is at least 1, so the arc length S(x) is strictly
        increasing and the table cell whose sums bracket s holds the root.
        Linear interpolation in that cell starts Newton steps
        ``x -= (S(x) - s)/nu(x)``, kept inside the cell; an inversion that
        does not converge raises NumericalFailure.
        """
        a, b = self.domain
        table = self._arclength_table
        total = float(table.sums[-1])
        if not -ARCLEN_TOL <= s <= total + ARCLEN_TOL:
            raise OutOfDomain(f"arc length {s} outside [0, {total}]")
        if s <= ARCLEN_TOL:
            return a
        if s >= total - ARCLEN_TOL:
            return b
        k = int(np.searchsorted(table.sums, s, side="right")) - 1
        lo, hi = float(table.edges[k]), float(table.edges[k + 1])
        s_lo, s_hi = float(table.sums[k]), float(table.sums[k + 1])
        x = lo + (hi - lo) * (s - s_lo) / (s_hi - s_lo)
        tol = max(ARCLEN_TOL, quadrature.ROUNDING * total)
        for _ in range(NEWTON_STEPS):
            s_x, nu = table.partial(k, x)
            r = float(s_x) - s
            if abs(r) <= tol:
                return x
            x = min(max(x - r / float(nu), lo), hi)
        raise NumericalFailure(f"arc-length inversion at s = {s} did not converge")
