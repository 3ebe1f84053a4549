"""Piecewise cubic Hermite interpolation in NumPy.

The coefficients and the evaluation order are those of
``scipy.interpolate.CubicHermiteSpline`` (a ``PPoly``), so values agree with
it bit for bit; the tests check this against scipy.
"""

from __future__ import annotations

import numpy as np


class HermiteSpline:
    """Cubic through values y with slopes dydx at increasing knots x.

    Each cell holds the polynomial ``sum c[k] * s**(deg - k)`` in the offset
    ``s = x - x[i]`` from its left knot.  A point on the last knot belongs to
    the last cell, and points outside the knots extrapolate from the end cells.
    Sums start from 0.0 as scipy's do, so a constant term -0.0 gives 0.0.
    """

    __slots__ = ("x", "coefs", "_inner")

    def __init__(self, x, y, dydx):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        dydx = np.asarray(dydx, dtype=float)
        dx = np.diff(x)
        slope = np.diff(y) / dx
        t = (dydx[:-1] + dydx[1:] - 2 * slope) / dx
        self._set(x, (t / dx, (slope - dydx[:-1]) / dx - t, dydx[:-1], y[:-1]))

    def _set(self, x: np.ndarray, coefs: tuple) -> None:
        self.x = x
        self.coefs = coefs
        self._inner = x[1:-1]

    def derivative(self) -> "HermiteSpline":
        """The spline's exact derivative, one degree lower."""
        deg = len(self.coefs) - 1
        out = HermiteSpline.__new__(HermiteSpline)
        out._set(self.x, tuple((deg - k) * c for k, c in enumerate(self.coefs[:-1])))
        return out

    def __call__(self, x):
        """Values at x: a float for a scalar, an array of x's shape otherwise."""
        x = np.asarray(x, dtype=float)
        i = self._inner.searchsorted(x, side="right")
        s = x - self.x[i]
        res = 0.0 + self.coefs[-1][i]
        z = s
        for c in self.coefs[-2::-1]:
            res += c[i] * z
            z = z * s
        return float(res) if x.ndim == 0 else res
