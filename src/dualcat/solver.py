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
from dataclasses import dataclass, replace

import numpy as np

from .curves import GraphCurve, Numeric, SampledCoordinate
from .errors import GridMismatch, ImmediateSingularity, InvalidParams, NumericalFailure
from .quadrature import cell_integrals
from .spline import HermiteSpline

# A direction that truncates in fewer steps than this aborts the solve.
MIN_STEPS = 10

# Most steps a solve may take across its domain; its time and memory grow in
# proportion to the step count.
MAX_STEPS = 10**6

# Stage guards: a march stops before y falls to Y_MIN or |y'| reaches SLOPE_MAX.
Y_MIN = 1e-6
SLOPE_MAX = 1e8


@dataclass(frozen=True)
class SolverConfig:
    step: float = 1e-3


@dataclass(frozen=True)
class InitialData:
    """Initial point and first-order data for both dual components."""

    x0: float
    y0: float
    yp0: float = 0.0
    z0: float = 0.0
    zp0: float = 0.0
    w0: float = 0.0


@dataclass(frozen=True, eq=False)
class SampledReal:
    """One scalar field sampled on a uniform grid with two derivatives.

    ``anchor`` is the x where initial data was posed; truncation flags say
    whether a guard stopped the march before the requested endpoint.
    """

    grid: np.ndarray
    val: np.ndarray
    d1: np.ndarray
    d2: np.ndarray
    anchor: float
    truncated_left: bool = False
    truncated_right: bool = False

    @property
    def truncated(self) -> bool:
        return self.truncated_left or self.truncated_right

    def anchor_index(self) -> int:
        i = int(np.argmin(np.abs(self.grid - self.anchor)))
        if abs(self.grid[i] - self.anchor) > 1e-9 * (1.0 + abs(self.anchor)):
            raise InvalidParams(f"anchor {self.anchor} not on the grid")
        return i


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


def _solve(
    alpha: float, v: float, init: InitialData, domain: tuple[float, float], config: SolverConfig
) -> tuple[SampledReal, SampledReal]:
    """March the system both ways from the anchor; returns the y and z samples."""
    a, b = float(domain[0]), float(domain[1])
    if not (a < b and np.isfinite(a) and np.isfinite(b)):
        raise InvalidParams(f"domain must be a finite interval with a < b, got ({a}, {b})")
    h = config.step
    if not (h > 0.0 and np.isfinite(h)):
        raise InvalidParams(f"step must be positive, got {h}")
    if not (b - a) / h <= MAX_STEPS:
        raise InvalidParams(f"step {h:g} needs more than {MAX_STEPS} steps across length {b - a:g}")
    if not (init.y0 > 0.0 and np.isfinite(init.y0)):
        raise InvalidParams(f"y0 must be positive, got {init.y0}")
    if not (a - 1e-12 <= init.x0 <= b + 1e-12):
        raise InvalidParams(f"x0 = {init.x0} outside the requested domain")

    n_right = _steps(b - init.x0, h)
    n_left = _steps(init.x0 - a, h)
    if n_right + n_left == 0:
        raise InvalidParams("domain shorter than one step")

    start = (float(init.y0), float(init.yp0), float(init.z0), float(init.zp0))
    right, trunc_r = _march(alpha, v, init.x0, start, h, n_right)
    left, trunc_l = _march(alpha, v, init.x0, start, -h, n_left)
    for way, samples, truncated in (("forward", right, trunc_r), ("backward", left, trunc_l)):
        if truncated and len(samples) - 1 < MIN_STEPS:
            raise ImmediateSingularity(f"guard hit after {len(samples) - 1} {way} steps")

    grid = init.x0 + np.arange(1 - len(left), len(right)) * h
    y, yp, z, zp = np.array(left[:0:-1] + right, dtype=float).T.copy()
    # A z large enough to overflow z'' is rejected with the non-finite z.
    with np.errstate(over="ignore", invalid="ignore"):
        _, ypp, _, zpp = _rates(alpha, v, grid, y, yp, z, zp)
    finite = np.isfinite(z) & np.isfinite(zp) & np.isfinite(zpp)
    if not np.all(finite):
        bad = grid[~finite]
        raise NumericalFailure(f"dual solution is not finite from x = {bad[np.argmin(np.abs(bad - init.x0))]:g}")
    return (
        SampledReal(grid, y, yp, ypp, init.x0, trunc_l, trunc_r),
        SampledReal(grid, z, zp, zpp, init.x0, trunc_l, trunc_r),
    )


def solve_real(
    alpha: float,
    init: InitialData,
    domain: tuple[float, float],
    config: SolverConfig = SolverConfig(),
) -> SampledReal:
    """Integrate the graph equation from (x0, y0, yp0) across the domain.

    The march carries z = z' = 0, so the dual data in init cannot stop it.
    """
    return _solve(alpha, 0.0, replace(init, z0=0.0, zp0=0.0), domain, config)[0]


def solve_dual(
    alpha: float,
    v: float,
    y_solution: SampledReal,
    init: InitialData,
    config: SolverConfig = SolverConfig(),
) -> SampledReal:
    """The z part of the system, re-marched from the anchor over y_solution's grid.

    Raises GridMismatch unless the march reproduces y_solution, that is unless
    both come from the same initial point and step.  A z or z' that overflows
    raises NumericalFailure.
    """
    grid = y_solution.grid
    i0 = y_solution.anchor_index()
    if abs(grid[i0] - init.x0) > 1e-9 * (1.0 + abs(init.x0)):
        raise InvalidParams(f"x0 = {init.x0} is not the anchor of the real solution")
    y_sol, z_sol = _solve(alpha, v, init, (grid[0], grid[-1]), config)
    if not all(np.array_equal(getattr(y_sol, f), getattr(y_solution, f)) for f in ("grid", "val", "d1")):
        raise GridMismatch("the real solution was not marched from these initial data and step")
    return replace(
        z_sol, anchor=y_solution.anchor,
        truncated_left=y_solution.truncated_left, truncated_right=y_solution.truncated_right,
    )


def recover_w(y_solution: SampledReal, z_solution: SampledReal, w0: float) -> SampledReal:
    """Integrate ``w' = -y'*z'`` across the grid, anchored at the initial x.

    Each cell integral uses Gauss-Legendre quadrature of the spline
    interpolants, cumulatively summed from the left endpoint.
    """
    grid = y_solution.grid
    if not np.array_equal(grid, z_solution.grid):
        raise GridMismatch("real and dual solutions live on different grids")
    yp_of = HermiteSpline(grid, y_solution.d1, y_solution.d2)
    zp_of = HermiteSpline(grid, z_solution.d1, z_solution.d2)

    cells = cell_integrals(lambda x: -(yp_of(x) * zp_of(x)), grid)
    cum = np.concatenate(([0.0], np.cumsum(cells)))
    i0 = y_solution.anchor_index()
    wv = (w0 - cum[i0]) + cum
    wp = -(y_solution.d1 * z_solution.d1)
    wpp = -(y_solution.d2 * z_solution.d1 + y_solution.d1 * z_solution.d2)
    return SampledReal(
        grid, wv, wp, wpp, y_solution.anchor,
        y_solution.truncated_left, y_solution.truncated_right,
    )


def assemble(
    y_solution: SampledReal, z_solution: SampledReal, w_solution: SampledReal
) -> GraphCurve:
    """Bundle the three sampled fields into an interpolating curve."""
    grid = y_solution.grid
    if not (np.array_equal(grid, z_solution.grid) and np.array_equal(grid, w_solution.grid)):
        raise GridMismatch("sampled components live on different grids")
    y = SampledCoordinate(grid, y_solution.val, y_solution.d1, y_solution.d2)
    z = SampledCoordinate(grid, z_solution.val, z_solution.d1, z_solution.d2)
    w = SampledCoordinate(grid, w_solution.val, w_solution.d1, w_solution.d2)
    return GraphCurve((float(grid[0]), float(grid[-1])), y, w, z, Numeric(grid, y_solution.truncated))


def solve_curve(
    alpha: float,
    init: InitialData,
    domain: tuple[float, float],
    v: float = 0.0,
    config: SolverConfig = SolverConfig(),
) -> GraphCurve:
    """Full pipeline: one march for y and z, w recovery, assembly."""
    y_sol, z_sol = _solve(alpha, v, init, domain, config)
    return assemble(y_sol, z_sol, recover_w(y_sol, z_sol, init.w0))
