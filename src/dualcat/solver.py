"""Fixed-step integration of the dual catenary system for a general exponent.

The state ``(y, y', z, z')`` solves ``y'' = alpha*(1 + y'**2)/y`` and its eps
part, ``z'' = -alpha*((y'/y)*(z' + v) + (z + v*x)/y**2)``, with one classical
RK4 march from the initial point out to both requested endpoints.  Stage
guards on y and y' stop it before the iterate leaves the upper half plane or
the slope blows up, so the achieved domain may be shorter than requested.  w
is then recovered from the admissibility constraint by per-cell quadrature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .curves import GraphCurve, Numeric, SampledCoordinate
from .errors import ImmediateSingularity, InvalidParams, NumericalFailure
from .quadrature import cell_integrals

# Default RK4 step.
STEP = 1e-3

# A direction that truncates in fewer steps than this aborts the solve.
MIN_STEPS = 10

# Most steps a solve may take across its domain; its time and memory grow in
# proportion to the step count.
MAX_STEPS = 10**6

# Stage guards: a march stops before y falls to Y_MIN or |y'| reaches SLOPE_MAX.
Y_MIN = 1e-6
SLOPE_MAX = 1e8


@dataclass(frozen=True)
class InitialData:
    """Initial point and first-order data for both dual components."""

    x0: float
    y0: float
    yp0: float = 0.0
    z0: float = 0.0
    zp0: float = 0.0
    w0: float = 0.0


class _GuardHit(Exception):
    pass


def _steps(length: float, h: float) -> int:
    n = length / h
    r = round(n)
    if abs(n - r) < 1e-6:
        return int(r)
    return int(np.floor(n))


def _rates(alpha: float, v: float, x, y, p, z, q) -> tuple:
    """Right-hand side of the system for (y, y', z, z'), on floats or arrays."""
    return p, alpha * (1.0 + p * p) / y, q, -(alpha * (p / y) * (q + v) + alpha * (z + v * x) / (y * y))


def _march(alpha: float, v: float, x0: float, start: tuple, h: float, nsteps: int):
    """March (y, y', z, z') one direction from x0; h carries the sign.

    Returns one 4-tuple per node and whether a guard stopped the march.  The
    guards test y and y' only; z and z' run on as Python floats, so an
    overflow ends as inf or NaN without a NumPy warning.
    """

    def rates(x: float, y: float, p: float, z: float, q: float) -> tuple:
        if not (math.isfinite(y) and math.isfinite(p)) or y <= Y_MIN or abs(p) >= SLOPE_MAX:
            raise _GuardHit
        return _rates(alpha, v, x, y, p, z, q)

    half, sixth = 0.5 * h, h / 6.0
    x, (y, p, z, q) = x0, start
    samples = [start]
    try:
        k1y, k1p, k1z, k1q = rates(x, y, p, z, q)
        for i in range(1, nsteps + 1):
            xm, x = x + half, x0 + i * h
            k2y, k2p, k2z, k2q = rates(xm, y + half * k1y, p + half * k1p, z + half * k1z, q + half * k1q)
            k3y, k3p, k3z, k3q = rates(xm, y + half * k2y, p + half * k2p, z + half * k2z, q + half * k2q)
            k4y, k4p, k4z, k4q = rates(x, y + h * k3y, p + h * k3p, z + h * k3z, q + h * k3q)
            y += sixth * (k1y + 2.0 * k2y + 2.0 * k3y + k4y)
            p += sixth * (k1p + 2.0 * k2p + 2.0 * k3p + k4p)
            z += sixth * (k1z + 2.0 * k2z + 2.0 * k3z + k4z)
            q += sixth * (k1q + 2.0 * k2q + 2.0 * k3q + k4q)
            # The guard on the new node is also the next step's first stage.
            k1y, k1p, k1z, k1q = rates(x, y, p, z, q)
            samples.append((y, p, z, q))
    except _GuardHit:
        return samples, True
    return samples, False


def recover_w(y: SampledCoordinate, z: SampledCoordinate, w0: float, anchor: int) -> np.ndarray:
    """w on y's grid from ``w' = -y'*z'`` and ``w(grid[anchor]) = w0``.

    Each cell integral uses Gauss-Legendre quadrature of the spline
    interpolants of y' and z', cumulatively summed from the left endpoint.
    """
    cells = cell_integrals(lambda x: -(y.deriv(x) * z.deriv(x)), y.grid)
    cum = np.concatenate(([0.0], np.cumsum(cells)))
    return (w0 - cum[anchor]) + cum


def solve_curve(
    alpha: float,
    init: InitialData,
    domain: tuple[float, float],
    v: float = 0.0,
    *,
    step: float = STEP,
) -> GraphCurve:
    """March the system both ways from init.x0 and interpolate y, z and w.

    A guard that stops a march shrinks the curve's domain and marks its
    Numeric tag truncated; one that stops it within MIN_STEPS raises
    ImmediateSingularity, and a z or z' that overflows raises NumericalFailure.
    """
    a, b = float(domain[0]), float(domain[1])
    if not (a < b and np.isfinite(a) and np.isfinite(b)):
        raise InvalidParams(f"domain must be a finite interval with a < b, got ({a}, {b})")
    if not (step > 0.0 and np.isfinite(step)):
        raise InvalidParams(f"step must be positive, got {step}")
    if not (b - a) / step <= MAX_STEPS:
        raise InvalidParams(f"step {step:g} needs more than {MAX_STEPS} steps across length {b - a:g}")
    if not (init.y0 > 0.0 and np.isfinite(init.y0)):
        raise InvalidParams(f"y0 must be positive, got {init.y0}")
    for name in ("x0", "yp0", "z0", "zp0", "w0"):
        if not np.isfinite(getattr(init, name)):
            raise InvalidParams(f"{name} must be finite, got {getattr(init, name)}")
    if not (a - 1e-12 <= init.x0 <= b + 1e-12):
        raise InvalidParams(f"x0 = {init.x0} outside the requested domain")

    n_right = _steps(b - init.x0, step)
    n_left = _steps(init.x0 - a, step)
    if n_right + n_left == 0:
        raise InvalidParams("domain shorter than one step")

    start = (float(init.y0), float(init.yp0), float(init.z0), float(init.zp0))
    right, trunc_r = _march(alpha, v, init.x0, start, step, n_right)
    left, trunc_l = _march(alpha, v, init.x0, start, -step, n_left)
    for way, samples, truncated in (("forward", right, trunc_r), ("backward", left, trunc_l)):
        if truncated and len(samples) - 1 < MIN_STEPS:
            raise ImmediateSingularity(f"guard hit after {len(samples) - 1} {way} steps")

    grid = init.x0 + np.arange(1 - len(left), len(right)) * step
    y, yp, z, zp = np.array(left[:0:-1] + right, dtype=float).T.copy()
    # A z large enough to overflow z'' is rejected with the non-finite z.
    with np.errstate(over="ignore", invalid="ignore"):
        _, ypp, _, zpp = _rates(alpha, v, grid, y, yp, z, zp)
    finite = np.isfinite(z) & np.isfinite(zp) & np.isfinite(zpp)
    if not np.all(finite):
        bad = grid[~finite]
        raise NumericalFailure(f"dual solution is not finite from x = {bad[np.argmin(np.abs(bad - init.x0))]:g}")

    y_of = SampledCoordinate(grid, y, yp, ypp)
    z_of = SampledCoordinate(grid, z, zp, zpp)
    # The anchor x0 is the last node of the backward march.
    w = recover_w(y_of, z_of, init.w0, len(left) - 1)
    return GraphCurve(
        (float(grid[0]), float(grid[-1])),
        y_of,
        SampledCoordinate(grid, w, -(yp * zp), -(ypp * zp + yp * zpp)),
        z_of,
        Numeric(grid, trunc_l or trunc_r),
    )
