"""Component-form stationarity residuals: the references the report is checked against.

The library reads the Euler-Lagrange residuals off the curvature
characterization, as ``nu*(kappa - alpha*<N,u>/<gamma,u>)``.  Here each is
written out in the curve's coordinates from the Euler-Lagrange equations of
the energy, so the tests compare two independent routes to one identity.
"""

from __future__ import annotations

import numpy as np

from dualcat import DirectionSpec, GraphCurve


def el_residual_real(curve: GraphCurve, alpha: float, x):
    """Residual ``y''/(1 + y'**2) - alpha/y`` of the graph equation."""
    y, yp, ypp = curve.y.value(x), curve.y.deriv(x), curve.y.deriv2(x)
    return ypp / (1.0 + yp * yp) - alpha / y


def el_residual_dual(curve: GraphCurve, alpha: float, u: DirectionSpec, x):
    """Residual ``z'' + alpha*(y'/y)*(z' + v) + alpha*(z + v*x)/y**2``.

    This is the linearization of the graph equation along the deformation,
    and vanishes on the eps part of a stationary admissible curve.
    """
    xs = np.asarray(x, dtype=float)
    y, yp = curve.y.value(x), curve.y.deriv(x)
    zv, zp, zpp = curve.z.value(x), curve.z.deriv(x), curve.z.deriv2(x)
    return zpp + alpha * (yp / y) * (zp + u.v) + alpha * (zv + u.v * xs) / (y * y)


def multiplier_residual(curve: GraphCurve, alpha: float, c: float, x):
    """Residual ``y''/c - alpha*c*y**(2*alpha - 1)`` of the graph equation
    scaled by the first integral ``1 + y'**2 = c**2 * y**(2*alpha)``."""
    y, ypp = curve.y.value(x), curve.y.deriv2(x)
    return ypp / c - alpha * c * y ** (2.0 * alpha - 1.0)
