"""Fixed-step integration of the catenary equation for a general exponent.

The real part solves ``y'' = alpha*(1 + y'**2)/y`` with classical RK4 from the
initial point out to both requested endpoints.  Stage guards stop the march
before the iterate leaves the upper half plane or the slope blows up, so the
achieved domain may be shorter than requested.  The eps part then solves the
linearized equation along the stored real solution, and w is recovered from
the admissibility constraint by per-cell quadrature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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


@dataclass(frozen=True)
class SolverConfig:
    step: float = 1e-3
    y_min: float = 1e-6
    slope_max: float = 1e8
    method: str = "RK4"


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


def _validate(cfg: SolverConfig, span: float) -> None:
    """Check the configuration for a solve across an interval of length span."""
    if not (cfg.step > 0.0 and np.isfinite(cfg.step)):
        raise InvalidParams(f"step must be positive, got {cfg.step}")
    if not span / cfg.step <= MAX_STEPS:
        raise InvalidParams(f"step {cfg.step:g} needs more than {MAX_STEPS} steps across length {span:g}")
    if not (cfg.y_min > 0.0 and cfg.slope_max > 0.0):
        raise InvalidParams("y_min and slope_max must be positive")
    if cfg.method != "RK4":
        raise InvalidParams(f"unknown method {cfg.method!r}")


def _steps(length: float, h: float) -> int:
    n = length / h
    r = round(n)
    if abs(n - r) < 1e-6:
        return int(r)
    return int(np.floor(n))


def _march(alpha: float, x0: float, y0: float, p0: float, h: float, nsteps: int, cfg: SolverConfig):
    """March one direction; h carries the sign.  Returns samples and a flag."""

    def rhs(y: float, p: float) -> tuple[float, float]:
        if not (math.isfinite(y) and math.isfinite(p)):
            raise _GuardHit
        if y <= cfg.y_min or abs(p) >= cfg.slope_max:
            raise _GuardHit
        return p, alpha * (1.0 + p * p) / y

    ys = [y0]
    ps = [p0]
    y, p = y0, p0
    truncated = False
    for _ in range(nsteps):
        try:
            k1y, k1p = rhs(y, p)
            k2y, k2p = rhs(y + 0.5 * h * k1y, p + 0.5 * h * k1p)
            k3y, k3p = rhs(y + 0.5 * h * k2y, p + 0.5 * h * k2p)
            k4y, k4p = rhs(y + h * k3y, p + h * k3p)
            y_new = y + (h / 6.0) * (k1y + 2.0 * k2y + 2.0 * k3y + k4y)
            p_new = p + (h / 6.0) * (k1p + 2.0 * k2p + 2.0 * k3p + k4p)
            rhs(y_new, p_new)
        except _GuardHit:
            truncated = True
            break
        y, p = y_new, p_new
        ys.append(y)
        ps.append(p)
    return ys, ps, truncated


def solve_real(
    alpha: float,
    init: InitialData,
    domain: tuple[float, float],
    config: SolverConfig = SolverConfig(),
) -> SampledReal:
    """Integrate the graph equation from (x0, y0, yp0) across the domain."""
    a, b = float(domain[0]), float(domain[1])
    if not (a < b and np.isfinite(a) and np.isfinite(b)):
        raise InvalidParams(f"domain must be a finite interval with a < b, got ({a}, {b})")
    _validate(config, b - a)
    if not (init.y0 > 0.0 and np.isfinite(init.y0)):
        raise InvalidParams(f"y0 must be positive, got {init.y0}")
    if not (a - 1e-12 <= init.x0 <= b + 1e-12):
        raise InvalidParams(f"x0 = {init.x0} outside the requested domain")

    h = config.step
    n_right = _steps(b - init.x0, h)
    n_left = _steps(init.x0 - a, h)

    ys_r, ps_r, trunc_r = _march(alpha, init.x0, init.y0, init.yp0, h, n_right, config)
    ys_l, ps_l, trunc_l = _march(alpha, init.x0, init.y0, init.yp0, -h, n_left, config)

    if trunc_r and len(ys_r) - 1 < MIN_STEPS:
        raise ImmediateSingularity(f"guard hit after {len(ys_r) - 1} forward steps")
    if trunc_l and len(ys_l) - 1 < MIN_STEPS:
        raise ImmediateSingularity(f"guard hit after {len(ys_l) - 1} backward steps")

    kl = len(ys_l) - 1
    ks = np.arange(-kl, len(ys_r))
    grid = init.x0 + ks * h
    val = np.array(ys_l[:0:-1] + ys_r, dtype=float)
    d1 = np.array(ps_l[:0:-1] + ps_r, dtype=float)
    if len(grid) < 2:
        raise InvalidParams("domain shorter than one step")
    d2 = alpha * (1.0 + d1 * d1) / val
    return SampledReal(grid, val, d1, d2, init.x0, trunc_l, trunc_r)


def solve_dual(
    alpha: float,
    v: float,
    y_solution: SampledReal,
    init: InitialData,
    config: SolverConfig = SolverConfig(),
) -> SampledReal:
    """Integrate the linearized equation for z along a stored real solution.

    y and y' at the RK4 nodes and half-steps come from cubic Hermite splines
    of the real solution, evaluated once on the grid and once on each
    direction's half-steps; at the nodes the splines reproduce the stored
    samples.  A z or z' that overflows raises NumericalFailure.
    """
    grid = y_solution.grid
    _validate(config, grid[-1] - grid[0])
    y_of = HermiteSpline(grid, y_solution.val, y_solution.d1)
    yp_of = HermiteSpline(grid, y_solution.d1, y_solution.d2)
    i0 = y_solution.anchor_index()
    if abs(grid[i0] - init.x0) > 1e-9 * (1.0 + abs(init.x0)):
        raise InvalidParams(f"x0 = {init.x0} is not the anchor of the real solution")

    def zpp_at(x: float, y: float, yp: float, z: float, q: float) -> float:
        return -(alpha * (yp / y) * (q + v) + alpha * (z + v * x) / (y * y))

    # Python floats, so an overflowing march runs on to the finiteness check
    # below without NumPy warnings.
    nodes = grid.tolist()
    y_nodes = y_of(grid).tolist()
    yp_nodes = yp_of(grid).tolist()

    def march(indices: np.ndarray) -> tuple[list, list]:
        lo, hi = grid[indices[:-1]], grid[indices[1:]]
        mid = lo + 0.5 * (hi - lo)
        x_mid, y_mid, yp_mid = mid.tolist(), y_of(mid).tolist(), yp_of(mid).tolist()
        zs = [init.z0]
        qs = [init.zp0]
        z, q = init.z0, init.zp0
        for k, (a, b) in enumerate(zip(indices[:-1].tolist(), indices[1:].tolist())):
            x_a, x_b = nodes[a], nodes[b]
            h = x_b - x_a
            xm, ym, ypm = x_mid[k], y_mid[k], yp_mid[k]
            k1z, k1q = q, zpp_at(x_a, y_nodes[a], yp_nodes[a], z, q)
            k2z, k2q = q + 0.5 * h * k1q, zpp_at(xm, ym, ypm, z + 0.5 * h * k1z, q + 0.5 * h * k1q)
            k3z, k3q = q + 0.5 * h * k2q, zpp_at(xm, ym, ypm, z + 0.5 * h * k2z, q + 0.5 * h * k2q)
            k4z, k4q = q + h * k3q, zpp_at(x_b, y_nodes[b], yp_nodes[b], z + h * k3z, q + h * k3q)
            z = z + (h / 6.0) * (k1z + 2.0 * k2z + 2.0 * k3z + k4z)
            q = q + (h / 6.0) * (k1q + 2.0 * k2q + 2.0 * k3q + k4q)
            zs.append(z)
            qs.append(q)
        return zs, qs

    zs_r, qs_r = march(np.arange(i0, len(grid)))
    zs_l, qs_l = march(np.arange(i0, -1, -1))

    zv = np.array(zs_l[:0:-1] + zs_r, dtype=float)
    zp = np.array(qs_l[:0:-1] + qs_r, dtype=float)
    finite = np.isfinite(zv) & np.isfinite(zp)
    if not np.all(finite):
        bad = grid[~finite]
        raise NumericalFailure(f"dual solution is not finite from x = {bad[np.argmin(np.abs(bad - init.x0))]:g}")
    zpp = np.array(list(map(zpp_at, nodes, y_nodes, yp_nodes, zv.tolist(), zp.tolist())), dtype=float)
    return SampledReal(
        grid, zv, zp, zpp, y_solution.anchor, y_solution.truncated_left, y_solution.truncated_right
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
    return GraphCurve((float(grid[0]), float(grid[-1])), y, w, z, Numeric(grid))


def solve_curve(
    alpha: float,
    init: InitialData,
    domain: tuple[float, float],
    v: float = 0.0,
    config: SolverConfig = SolverConfig(),
) -> GraphCurve:
    """Full pipeline: real solve, dual solve, w recovery, assembly."""
    y_sol = solve_real(alpha, init, domain, config)
    z_sol = solve_dual(alpha, v, y_sol, init, config)
    w_sol = recover_w(y_sol, z_sol, init.w0)
    return assemble(y_sol, z_sol, w_sol)
