"""Gauss-Legendre quadrature: composite rules and cumulative integral tables."""

from __future__ import annotations

from functools import cache, lru_cache
from typing import Callable

import numpy as np

from .errors import InvalidParams, NumericalFailure

GL_ORDER = 5
PANELS = 64

# Cumulative tables: absolute tolerance on the table total, uniform start
# cells when no natural edges are given, and the caps that stop refinement of
# an integrand that never settles.
TABLE_TOL = 1e-12
TABLE_START_CELLS = 64
TABLE_MAX_CELLS = 1 << 17
TABLE_MAX_HALVINGS = 40

# Relative agreement that rounding alone can prevent a cell from reaching.
ROUNDING = 64.0 * np.finfo(float).eps


@cache
def gauss_legendre_rule() -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the GL_ORDER-point rule on [-1, 1], built once.

    The arrays are shared between callers and therefore read-only.
    """
    t, w = np.polynomial.legendre.leggauss(GL_ORDER)
    t.setflags(write=False)
    w.setflags(write=False)
    return t, w


def integrate(wts: np.ndarray, f: np.ndarray) -> float:
    """The rule's sum of ``wts * f``: a product and NumPy's pairwise sum, with
    no BLAS call, so no BLAS kernel or thread count decides its bits.  The sum
    starts from -0.0, so a lone -0.0 stays -0.0."""
    return float(np.add.reduce(wts * f, initial=-0.0))


def sorted_unique(values) -> list[float]:
    """The distinct values in ascending order, as floats: what np.unique gives,
    without the import of numpy.ma that np.unique makes on NumPy 2."""
    return sorted(set(map(float, values)))


def partitioned_nodes(a: float, b: float, breakpoints, panels: int = PANELS) -> tuple[np.ndarray, np.ndarray]:
    """Composite rule whose panel edges include the given breakpoints.

    Piecewise-smooth integrands (bump test functions, say) lose orders of
    accuracy when a panel straddles a smoothness edge; splitting the interval
    at the breakpoints restores full Gauss accuracy on every piece.  Each
    piece gets panels proportional to its width, at least one.  The last rule
    built is kept: a variation's constraint and its first variation ask for
    the same one.  The arrays are therefore shared, and read-only.  panels
    must be an integer of at least 1, and not a bool.
    """
    if not (isinstance(panels, (int, np.integer)) and not isinstance(panels, bool) and panels >= 1):
        raise InvalidParams(f"panels must be an integer of at least 1, got {panels!r}")
    return _partition(a, b, tuple(breakpoints), panels)


@lru_cache(maxsize=1)
def _partition(a: float, b: float, breakpoints: tuple, panels: int) -> tuple[np.ndarray, np.ndarray]:
    span = b - a
    tol = 1e-12 * span
    # Breakpoints closer than tol to an end or to the previous breakpoint are
    # dropped; a and b always stay, however short the interval.
    edges, prev = [a], a
    for p in sorted_unique(p for p in breakpoints if a + tol < p < b - tol):
        if p - prev > tol:
            edges.append(p)
        prev = p
    edges.append(b)
    edges = np.array(edges, dtype=float)
    lo, hi = edges[:-1], edges[1:]
    n = np.maximum(1, np.ceil(panels * (hi - lo) / span).astype(int))
    # Panel k of a piece spans [k*step + lo, (k+1)*step + lo], the last one
    # ending at hi: np.linspace's arithmetic, so bit for bit the same unless
    # the step underflows to zero.
    ends = np.cumsum(n)
    k = np.arange(ends[-1]) - np.repeat(ends - n, n)
    step, start = np.repeat((hi - lo) / n, n), np.repeat(lo, n)
    left = k * step + start
    right = (k + 1) * step + start
    right[ends - 1] = hi
    nodes, half, w = _panel_nodes(left, right)
    x, wts = nodes.ravel(), (half[:, None] * w).ravel()
    x.setflags(write=False)
    wts.setflags(write=False)
    return x, wts


def _panel_nodes(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The rule on each panel [lo[k], hi[k]]: its nodes, one row per panel,
    the panels' half-widths, and the weights on [-1, 1]."""
    t, w = gauss_legendre_rule()
    half = 0.5 * (hi - lo)
    return (0.5 * (lo + hi))[:, None] + half[:, None] * t, half, w


def _segment_integrals(f, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Integral of ``f`` over each segment [lo[k], hi[k]]."""
    nodes, half, w = _panel_nodes(lo, hi)
    vals = np.asarray(f(nodes.ravel()), dtype=float).reshape(nodes.shape)
    return half * (vals @ w)


class CumulativeIntegral:
    """Primitive ``F(x) = integral of f from edges[0] to x``, tabulated once.

    Cells start at ``edges`` and are halved until the rule over a cell agrees
    with the sum over its halves to ``TABLE_TOL * width / (b - a)``, or to rounding
    when the cell's integral is too large for that.  Each accepted cell is
    stored as its two halves, whose sum is the more accurate value, so the
    table total is typically far inside TABLE_TOL.  ``F(x)`` adds one rule over
    [edge, x] to the sum up to x's cell.  A non-finite cell integral, or
    refinement that exceeds its caps, raises NumericalFailure.
    """

    __slots__ = ("f", "edges", "sums", "_unit_nodes", "_unit_weights")

    def __init__(self, f: Callable[[np.ndarray], np.ndarray], edges: np.ndarray):
        edges = np.asarray(edges, dtype=float)
        self.f = f
        span = edges[-1] - edges[0]
        lo, hi = edges[:-1], edges[1:]
        whole = _segment_integrals(f, lo, hi)
        starts, parts = [], []
        for _ in range(TABLE_MAX_HALVINGS):
            mid = 0.5 * (lo + hi)
            lo2, hi2 = np.stack((lo, mid), 1).ravel(), np.stack((mid, hi), 1).ravel()
            halves = _segment_integrals(f, lo2, hi2)
            if not (np.all(np.isfinite(whole)) and np.all(np.isfinite(halves))):
                raise NumericalFailure("integrand is not finite on its interval")
            fine = halves[0::2] + halves[1::2]
            ok = np.abs(whole - fine) <= np.maximum(TABLE_TOL * (hi - lo) / span, ROUNDING * np.abs(fine))
            keep = np.repeat(ok, 2)
            starts.append(lo2[keep])
            parts.append(halves[keep])
            if np.all(ok):
                break
            lo, hi, whole = lo2[~keep], hi2[~keep], halves[~keep]
            if sum(map(len, starts)) + 2 * len(lo) > TABLE_MAX_CELLS:
                raise NumericalFailure(f"integral table exceeds {TABLE_MAX_CELLS} cells")
        else:
            raise NumericalFailure(f"integral table not converged after {TABLE_MAX_HALVINGS} halvings")
        starts = np.concatenate(starts)
        order = np.argsort(starts)
        self.edges = np.append(starts[order], edges[-1])
        self.sums = np.concatenate(([0.0], np.cumsum(np.concatenate(parts)[order])))
        # The rule on [0, 1], with x's own offset appended so partial() gets
        # f(x) from the same call.
        t, w = gauss_legendre_rule()
        self._unit_nodes = np.append(0.5 * (t + 1.0), 1.0)
        self._unit_weights = 0.5 * w[:, None]

    def partial(self, k, x):
        """``(F(x), f(x))`` for x in (or at the edge of) cell k, from one call of f."""
        x = np.asarray(x, dtype=float)
        lo = self.edges[k]
        width = (x - lo)[..., None]
        vals = np.asarray(self.f(lo[..., None] + width * self._unit_nodes), dtype=float)
        return self.sums[k] + (width * (vals[..., :-1] @ self._unit_weights))[..., 0], vals[..., -1]

    def __call__(self, x):
        """``F(x)``; x may be a point or an array, and ``F(b)`` is the table total exactly."""
        k = self.edges[1:].searchsorted(x, side="right")
        value, _ = self.partial(k, x)
        return value
