"""Graph curves over the dual plane and their differential geometry.

A curve is parametrized by x as ``(x, y(x)) + eps*(w(x), z(x))``.  The real
part is an ordinary plane graph; the eps part is a first-order deformation.
The curve is admissible when ``w' + y'*z' = 0``, which makes its dual speed
purely real and lets the Frenet frame and curvature split into a Euclidean
part plus an eps correction driven by z.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
from typing import Callable

import numpy as np

from . import quadrature
from .dual import DirectionSpec, DualScalar, DualVec2, _dedim, dual_dot
from .errors import DomainError, InvalidParams, NumericalFailure, OutOfDomain
from .spline import HermiteSpline

# Absolute slack when checking that a point lies inside a curve's interval.
DOMAIN_SLACK = 1e-12

# Arc length: tolerance on each inversion, and the Newton steps it may take.
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

    The callables ``value``, ``deriv`` and ``deriv2`` accept floats and numpy arrays elementwise.
    """

    __slots__ = ("value", "deriv", "deriv2")

    def __init__(self, f: Callable, d1: Callable, d2: Callable):
        self.value = f
        self.deriv = d1
        self.deriv2 = d2

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


def admissible_w(y: Coordinate, z: Coordinate, value: Callable) -> Coordinate:
    """The w with the given values whose derivatives follow from admissibility:
    ``w' = -(y'*z')`` and ``w'' = -(y''*z' + y'*z'')``."""
    return Coordinate(
        value,
        lambda x: -(y.deriv(x) * z.deriv(x)),
        lambda x: -(y.deriv2(x) * z.deriv(x) + y.deriv(x) * z.deriv2(x)),
    )


def recover_w(y: Coordinate, z: Coordinate, edges: Callable, x0: float, w0: Callable[[], float]) -> Coordinate:
    """The admissible w for y and z with ``w(x0) = w0()``.

    Values are ``(w0() - F(x0)) + F(x)``, with F one cumulative table of w'
    over ``edges()``.  Table and anchor are built, and edges and w0 are
    called, when a value is first asked for.
    """

    # The table's integrand comes from a w of its own, so w's values do not
    # reach back to w: no reference cycle keeps the curve alive.
    slopes = admissible_w(y, z, None)

    @cache
    def anchored() -> tuple[quadrature.CumulativeIntegral, float]:
        table = quadrature.CumulativeIntegral(slopes.deriv, edges())
        return table, float(w0()) - table(x0)

    def value(x):
        table, offset = anchored()
        return _dedim(offset + table(x))

    return Coordinate(value, slopes.deriv, slopes.deriv2)


def table_edges(domain: tuple[float, float], y: Coordinate, breakpoints: tuple[float, ...]) -> np.ndarray:
    """Start cells for integral tables over the interval: the spline knots
    of a sampled y, or uniform cells otherwise, joined by the breakpoints."""
    a, b = domain
    sampled = isinstance(y, SampledCoordinate)
    knots = y.grid if sampled else np.linspace(a, b, quadrature.TABLE_START_CELLS + 1)
    if breakpoints:
        knots = np.array(quadrature.sorted_unique([*knots, *breakpoints]))
    return np.concatenate(([a], knots[(knots > a) & (knots < b)], [b]))


@dataclass(frozen=True)
class ClosedForm:
    """Source tag for curves built from an explicit family: its exponent and
    its first-integral constant c (the radius R for the exponent -1 arc)."""

    alpha: float
    c: float


@dataclass(frozen=True)
class Numeric:
    """Source tag for curves assembled from an ODE solve (whose grid is ``y.grid``);
    ``truncated`` if a guard or a partial last step left the domain short."""

    truncated: bool = False


@dataclass(frozen=True)
class Frame:
    """Unit tangent and normal (dual-plane vectors), curvature and the slopes y', z' at a point or a grid."""

    T: DualVec2
    N: DualVec2
    nu: float  # Euclidean speed sqrt(1 + y'(x)**2)
    kappa: DualScalar
    yp: float
    zp: float

    def characterization(self, alpha: float, u: DirectionSpec, height: DualScalar) -> DualScalar:
        """Residual of the curvature identity ``kappa = alpha*<N,u>/<gamma,u>``,
        given the dual height ``<gamma,u>`` at the frame's points.

        Vanishes exactly on the curves that are stationary for the potential
        energy with exponent alpha and reference direction u; times nu, its
        two parts are the real and dual Euler-Lagrange residuals.  A zero
        height never reaches the division: ``GraphCurve.height`` raises
        DomainError for it.  Raises ZeroRealPart when the height's real part
        is so small (about 1e-150) that its square underflows.
        """
        return self.kappa - float(alpha) * (dual_dot(self.N, u.vector) / height)


class GraphCurve:
    """Graph curve ``(x, y(x)) + eps*(w(x), z(x))`` on a closed interval, where
    y or z may lose smoothness at ``breakpoints``: every integral over it splits there."""

    def __init__(
        self,
        domain: tuple[float, float],
        y: Coordinate,
        w: Coordinate,
        z: Coordinate,
        source: ClosedForm | Numeric | None = None,
        breakpoints: tuple[float, ...] = (),
    ):
        a, b = float(domain[0]), float(domain[1])
        if not (np.isfinite(a) and np.isfinite(b)) or a >= b:
            raise InvalidParams(f"domain must be a finite interval with a < b, got ({a}, {b})")
        self.breakpoints = tuple(map(float, breakpoints))
        if not all(map(np.isfinite, self.breakpoints)):
            raise InvalidParams(f"breakpoints must be finite, got {self.breakpoints}")
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

        Raises DomainError unless y is positive and finite at every point.
        The real part of u is vertical, so w has coefficient zero and is not
        evaluated: on perturbed curves each w value is its own quadrature.
        """
        self._check(x)
        x = _dedim(np.asarray(x, dtype=float))
        y = _dedim(self.y.value(x))
        # NaN fails both comparisons.
        if not np.all((y > 0.0) & (y < np.inf)):
            raise DomainError("curve height must stay positive and finite at the evaluation points")
        return DualScalar(y, _dedim(self.z.value(x) + u.v * x))

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
        # np.power, not the float operator: points and grids round alike.
        kappa = DualScalar(_dedim(self.y.deriv2(x)) / _dedim(np.power(nu, 3)), _dedim(self.z.deriv2(x)) / nu)
        return Frame(T, N, nu, kappa, yp, zp)

    def curvature(self, x) -> DualScalar:
        """Signed curvature ``y''/nu**3 + eps*z''/nu`` for an admissible curve."""
        return self.frame(x).kappa

    def characterization_residual(self, alpha: float, u: DirectionSpec, x) -> DualScalar:
        """``Frame.characterization`` at x, a point or an array of points."""
        return self.frame(x).characterization(alpha, u, self.height(u, x))

    @cached_property
    def _arclength_table(self) -> quadrature.CumulativeIntegral:
        """Cumulative arc length of the real part, built on first use.

        Refinement halves the start cells where the speed needs it, such as
        near the steep ends of a circular arc.
        """
        # The speed holds y, not the curve: a table that reached back to the
        # curve caching it would be a reference cycle.
        y = self.y
        edges = table_edges(self.domain, y, self.breakpoints)
        return quadrature.CumulativeIntegral(lambda x: np.hypot(1.0, y.deriv(x)), edges)

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
        k = int(table.sums.searchsorted(s, side="right")) - 1
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
