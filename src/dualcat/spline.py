"""Piecewise cubic Hermite interpolation in NumPy.

The coefficients and the evaluation order are those of
``scipy.interpolate.CubicHermiteSpline`` (a ``PPoly``), so values agree with
it bit for bit; the tests check this against scipy.
"""

from __future__ import annotations

from bisect import bisect_right

import numpy as np

# Inputs of at most this many points are evaluated one by one on Python floats,
# which is several times faster than the array path for a handful of points.
SMALL = 16


class HermiteSpline:
    """Cubic through values y with slopes dydx at increasing knots x.

    Each cell holds the polynomial ``sum c[k] * s**(deg - k)`` in the offset
    ``s = x - x[i]`` from its left knot.  A point on the last knot belongs to
    the last cell, and points outside the knots extrapolate from the end cells.
    Sums start from 0.0 as scipy's do, so a constant term -0.0 gives 0.0.
    """

    __slots__ = ("x", "coefs", "_inner", "_rows")

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
        self._rows = None

    def derivative(self) -> "HermiteSpline":
        """The spline's exact derivative, one degree lower."""
        deg = len(self.coefs) - 1
        out = HermiteSpline.__new__(HermiteSpline)
        out._set(self.x, tuple((deg - k) * c for k, c in enumerate(self.coefs[:-1])))
        return out

    def __call__(self, x):
        """Values at x: a float for a scalar, an array of x's shape otherwise."""
        if isinstance(x, float):
            return self._points((x,))[0]
        x = np.asarray(x, dtype=float)
        if x.size <= SMALL:
            vals = self._points(x.ravel().tolist())
            return vals[0] if x.ndim == 0 else np.array(vals).reshape(x.shape)
        i = np.searchsorted(self._inner, x, side="right")
        s = x - self.x[i]
        res = 0.0 + self.coefs[-1][i]
        z = s
        for c in self.coefs[-2::-1]:
            res += c[i] * z
            z = z * s
        return res

    def _points(self, xs) -> list[float]:
        """The same arithmetic on Python floats, point by point."""
        if self._rows is None:
            # Built on the first small call: knots as floats, and each cell's
            # coefficients from the constant term up.
            self._rows = (self.x.tolist(), self._inner.tolist(),
                          list(zip(*(c.tolist() for c in reversed(self.coefs)))))
        knots, inner, rows = self._rows
        out = []
        for v in xs:
            i = bisect_right(inner, v)
            s = v - knots[i]
            row = rows[i]
            res = 0.0 + row[0]
            z = s
            for c in row[1:]:
                res = res + c * z
                z = z * s
            out.append(res)
        return out
