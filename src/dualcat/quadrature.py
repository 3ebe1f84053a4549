"""Gauss-Legendre quadrature: composite rules and cumulative integral tables."""

from __future__ import annotations

from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import NumericalFailure

GL_ORDER = 5
PANELS = 64

# Cumulative tables: uniform start cells when no natural edges are given, and
# the caps that stop refinement of an integrand that never settles.
TABLE_START_CELLS = 64
TABLE_MAX_CELLS = 1 << 17
TABLE_MAX_HALVINGS = 40

# Relative agreement that rounding alone can prevent a cell from reaching.
ROUNDING = 64.0 * np.finfo(float).eps


@lru_cache(maxsize=None)
def gauss_legendre_rule(order: int = GL_ORDER) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the ``order``-point rule on [-1, 1], built once per order.

    The arrays are shared between callers and therefore read-only.
    """
    t, w = np.polynomial.legendre.leggauss(order)
    t.setflags(write=False)
    w.setflags(write=False)
    return t, w


def gauss_legendre_nodes(
    a: float, b: float, panels: int = PANELS, order: int = GL_ORDER
) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of an ``order``-point rule on ``panels`` uniform panels of [a, b]."""
    t, w = gauss_legendre_rule(order)
    edges = np.linspace(a, b, panels + 1)
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[:-1] + edges[1:])
    nodes = (mid[:, None] + half[:, None] * t[None, :]).ravel()
    weights = (half[:, None] * w[None, :]).ravel()
    return nodes, weights


def integrate(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    panels: int = PANELS,
    order: int = GL_ORDER,
) -> float:
    """Integral of a vectorized integrand over [a, b]."""
    x, w = gauss_legendre_nodes(a, b, panels, order)
    return float(np.dot(w, f(x)))


def partitioned_nodes(
    a: float,
    b: float,
    breakpoints,
    panels: int = PANELS,
    order: int = GL_ORDER,
) -> tuple[np.ndarray, np.ndarray]:
    """Composite rule whose panel edges include the given breakpoints.

    Piecewise-smooth integrands (bump test functions, say) lose orders of
    accuracy when a panel straddles a smoothness edge; splitting the interval
    at the breakpoints restores full Gauss accuracy on every piece.  Each
    piece gets panels proportional to its width, at least one.
    """
    span = b - a
    tol = 1e-12 * max(1.0, span)
    # Breakpoints closer than tol to an end or to the previous edge are
    # dropped; a and b always stay, however short the interval.
    pts = np.unique(np.asarray([p for p in breakpoints if a + tol < p < b - tol], dtype=float))
    edges = np.concatenate(([a], pts[np.diff(pts, prepend=a) > tol], [b]))
    nodes = []
    weights = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        n = max(1, int(np.ceil(panels * (hi - lo) / span)))
        x, w = gauss_legendre_nodes(float(lo), float(hi), n, order)
        nodes.append(x)
        weights.append(w)
    return np.concatenate(nodes), np.concatenate(weights)


def _segment_integrals(f, lo: np.ndarray, hi: np.ndarray, order: int = GL_ORDER) -> np.ndarray:
    """Integral of ``f`` over each segment [lo[k], hi[k]]."""
    t, w = gauss_legendre_rule(order)
    half = 0.5 * (hi - lo)
    mid = 0.5 * (lo + hi)
    nodes = mid[:, None] + half[:, None] * t[None, :]
    vals = np.asarray(f(nodes.ravel()), dtype=float).reshape(nodes.shape)
    return half * (vals @ w)


def cell_integrals(
    f: Callable[[np.ndarray], np.ndarray], edges: np.ndarray, order: int = GL_ORDER
) -> np.ndarray:
    """Integral of ``f`` over each cell [edges[k], edges[k+1]]."""
    edges = np.asarray(edges, dtype=float)
    return _segment_integrals(f, edges[:-1], edges[1:], order)


class CumulativeIntegral:
    """Primitive ``F(x) = integral of f from edges[0] to x``, tabulated once.

    Cells start at ``edges`` and are halved until the rule over a cell agrees
    with the sum over its halves to ``tol * width / (b - a)``, or to rounding
    when the cell's integral is too large for that.  Each accepted cell is
    stored as its two halves, whose sum is the more accurate value, so the
    table total is typically far inside ``tol``.  ``F(x)`` adds one rule over
    [edge, x] to the sum up to x's cell.  A non-finite cell integral, or
    refinement that exceeds its caps, raises NumericalFailure.
    """

    __slots__ = ("f", "edges", "sums", "_unit_nodes", "_unit_weights")

    def __init__(self, f: Callable[[np.ndarray], np.ndarray], edges: np.ndarray, tol: float):
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
            ok = np.abs(whole - fine) <= np.maximum(tol * (hi - lo) / span, ROUNDING * np.abs(fine))
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
        t, w = gauss_legendre_rule(GL_ORDER)
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
        k = np.clip(np.searchsorted(self.edges, x, side="right") - 1, 0, len(self.edges) - 1)
        value, _ = self.partial(k, x)
        return value
