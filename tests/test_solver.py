"""Numerical integration of the graph equations and curve assembly."""

import dataclasses
import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.interpolate import CubicHermiteSpline

from dualcat import quadrature, solver
from dualcat.spline import HermiteSpline

from dualcat import (
    DirectionSpec,
    ImmediateSingularity,
    InitialData,
    InvalidParams,
    NumericalFailure,
    SampledCoordinate,
    residual_report,
    solve_curve,
)

COSH_INIT = InitialData(x0=0.0, y0=1.0, yp0=0.0)


def nodes(coord, grid):
    """Value, first and second derivative of a solved coordinate at its knots."""
    return coord.value(grid), coord.deriv(grid), coord.deriv2(grid)


def y_nodes(curve):
    """The solve's grid and y on it."""
    grid = curve.source.grid
    return grid, curve.y.value(grid)


def reference_solve_dual(alpha, v, grid, y, yp, ypp, init):
    """The dual march with one scalar scipy spline call per RK4 stage.

    Marches z along the given y node samples; returns z, z' and z'' there.
    """
    y_of = CubicHermiteSpline(grid, y, yp)
    yp_of = CubicHermiteSpline(grid, yp, ypp)

    def zpp_at(x, z, q):
        y, yp = float(y_of(x)), float(yp_of(x))
        return -(alpha * (yp / y) * (q + v) + alpha * (z + v * x) / (y * y))

    def march(indices):
        z, q = init.z0, init.zp0
        zs, qs = [z], [q]
        for a, b in zip(indices[:-1], indices[1:]):
            x_a, x_b = float(grid[a]), float(grid[b])
            h = x_b - x_a
            xm = x_a + 0.5 * h
            k1z, k1q = q, zpp_at(x_a, z, q)
            k2z, k2q = q + 0.5 * h * k1q, zpp_at(xm, z + 0.5 * h * k1z, q + 0.5 * h * k1q)
            k3z, k3q = q + 0.5 * h * k2q, zpp_at(xm, z + 0.5 * h * k2z, q + 0.5 * h * k2q)
            k4z, k4q = q + h * k3q, zpp_at(x_b, z + h * k3z, q + h * k3q)
            z = z + (h / 6.0) * (k1z + 2.0 * k2z + 2.0 * k3z + k4z)
            q = q + (h / 6.0) * (k1q + 2.0 * k2q + 2.0 * k3q + k4q)
            zs.append(z)
            qs.append(q)
        return zs, qs

    i0 = int(np.argmin(np.abs(grid - init.x0)))
    zs_r, qs_r = march(list(range(i0, len(grid))))
    zs_l, qs_l = march(list(range(i0, -1, -1)))
    zv = np.array(zs_l[:0:-1] + zs_r)
    zp = np.array(qs_l[:0:-1] + qs_r)
    zpp = np.array([zpp_at(float(x), float(z), float(q)) for x, z, q in zip(grid, zv, zp)])
    return zv, zp, zpp


# Half-widths of untruncated solves from y(0) = 1 with y'(0) in {0, 1/2}.
IDENTITY_HALF_WIDTHS = {-0.5: 0.75, 0.5: 0.75, 2.0: 0.8, 3.0: 0.4}


def solve_translation(alpha, yp0, step):
    """The curve with y(0) = 1 and y'(0) = yp0, z started on y'/nu, and v = 0."""
    hw = IDENTITY_HALF_WIDTHS[alpha]
    nu0 = math.hypot(1.0, yp0)
    ypp0 = alpha * (1.0 + yp0**2)  # y'' at y = 1
    init = InitialData(0.0, 1.0, yp0, z0=yp0 / nu0, zp0=ypp0 / nu0**3)
    curve = solve_curve(alpha, init, (-hw, hw), step=step)
    assert not curve.source.truncated
    return curve


# Anchors at x0 = 0, 0.1 and -0.2, each with its own v and dual data.
SPLINE_MARCH_CASES = [
    (0.5, 0.3, InitialData(0.0, 1.0, 0.1, z0=0.2, zp0=-0.1, w0=0.1)),
    (-0.5, -0.2, InitialData(0.1, 1.2, -0.1, z0=0.0, zp0=0.3, w0=-0.2)),
    (1.5, 0.4, InitialData(-0.2, 0.9, 0.05, z0=-0.2, zp0=0.2)),
]

# The README alpha 0.5 solve, a w0 off zero, an off-centre anchor, and a
# truncated solve.
W_REBUILD_CASES = [
    (0.5, InitialData(0.0, 1.0, 0.0, z0=0.2, zp0=0.1), (-0.75, 0.75), 0.3),
    (1.0, InitialData(0.0, 1.0, 0.0, z0=1.0, w0=0.4), (-1.0, 1.0), 0.0),
    (1.5, InitialData(0.1, 1.0, 0.0), (-2.0, 2.0), 0.0),
    (3.0, COSH_INIT, (-2.0, 2.0), 0.0),
]


class TestRealSolve:
    def test_reproduces_catenary(self):
        cv = solve_curve(1.0, COSH_INIT, (-1.0, 1.0))
        assert not cv.source.truncated
        grid, y = y_nodes(cv)
        assert np.max(np.abs(y - np.cosh(grid))) <= 1e-8

    def test_line_is_exact(self):
        cv = solve_curve(0.0, InitialData(0.0, 3.0, 1.0), (-1.0, 1.0))
        y, yp, ypp = nodes(cv.y, cv.source.grid)
        # only accumulation roundoff: the right-hand side is identically zero
        assert np.max(np.abs(y - (cv.source.grid + 3.0))) <= 1e-12
        assert np.max(np.abs(yp - 1.0)) == 0.0
        assert np.max(np.abs(ypp)) == 0.0

    def test_circle_interior(self):
        cv = solve_curve(-1.0, InitialData(0.0, 1.0, 0.0), (-0.9, 0.9))
        grid, y = y_nodes(cv)
        keep = np.abs(grid) <= 0.8
        assert np.max(np.abs(y[keep] - np.sqrt(1.0 - grid[keep] ** 2))) <= 1e-6

    def test_fourth_order_convergence(self):
        def sup_err(h):
            grid, y = y_nodes(solve_curve(1.0, COSH_INIT, (-1.0, 1.0), step=h))
            return np.max(np.abs(y - np.cosh(grid)))

        ratio = sup_err(0.04) / sup_err(0.02)
        assert ratio >= 12.0

    def test_off_center_start(self):
        cv = solve_curve(1.0, InitialData(0.5, math.cosh(0.5), math.sinh(0.5)), (-1.0, 1.0))
        # the anchor is a knot, where the spline returns y0 itself
        assert cv.y.value(0.5) == math.cosh(0.5)
        grid, y = y_nodes(cv)
        assert np.max(np.abs(y - np.cosh(grid))) <= 1e-8

    def test_truncates_near_blowup(self):
        cv = solve_curve(3.0, COSH_INIT, (-1.0, 1.0))
        grid = cv.source.grid
        assert cv.source.truncated
        assert grid[0] > -1.0 and grid[-1] < 1.0
        # symmetric data truncate symmetrically
        assert grid[0] == pytest.approx(-float(grid[-1]), abs=2e-3)

    def test_immediate_singularity(self):
        with pytest.raises(ImmediateSingularity):
            solve_curve(-5.0, InitialData(0.0, 2e-6, -1e7), (-1.0, 1.0))

    def test_input_validation(self):
        with pytest.raises(InvalidParams):
            solve_curve(1.0, InitialData(0.0, -1.0, 0.0), (-1.0, 1.0))
        with pytest.raises(InvalidParams):
            solve_curve(1.0, COSH_INIT, (-1.0, 1.0), step=0.0)
        with pytest.raises(InvalidParams):
            solve_curve(1.0, InitialData(5.0, 1.0, 0.0), (-1.0, 1.0))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("field", ["x0", "yp0", "z0", "zp0", "w0"])
    def test_non_finite_initial_data_rejected(self, field, bad):
        init = dataclasses.replace(COSH_INIT, **{field: bad})
        with pytest.raises(InvalidParams, match=f"{field} must be finite"):
            solve_curve(1.0, init, (-1.0, 1.0))

    def test_step_count_capped_before_marching(self, monkeypatch):
        def no_march(*args):
            raise AssertionError("marched")

        monkeypatch.setattr(solver, "_march", no_march)
        with pytest.raises(InvalidParams, match="steps"):
            solve_curve(1.0, COSH_INIT, (-1.0, 1.0), step=2.0 / (solver.MAX_STEPS + 1))


class TestDualSolveAndRecovery:
    def test_deformation_pair(self):
        # alpha = 1 with z(0) = 1, z'(0) = 0 picks out z = sech, w = x - tanh
        init = InitialData(0.0, 1.0, 0.0, z0=1.0, zp0=0.0, w0=0.0)
        cv = solve_curve(1.0, init, (-1.0, 1.0))
        g = cv.source.grid
        assert np.max(np.abs(cv.z.value(g) - 1.0 / np.cosh(g))) <= 1e-7
        assert np.max(np.abs(cv.w.value(g) - (g - np.tanh(g)))) <= 1e-7

    def test_reversed_profile(self):
        # v = 1 with z' = -1 keeps z linear and w tracks v*y exactly
        init = InitialData(0.0, 1.0, 0.0, z0=0.0, zp0=-1.0, w0=1.0)
        cv = solve_curve(1.0, init, (-1.0, 1.0), v=1.0)
        g = cv.source.grid
        assert np.max(np.abs(cv.z.value(g) + g)) <= 1e-10
        assert np.max(np.abs(cv.w.value(g) - np.cosh(g))) <= 1e-8

    def test_line_deformation_exact(self):
        init = InitialData(0.0, 3.0, 1.0, z0=0.5, zp0=2.0, w0=0.0)
        cv = solve_curve(0.0, init, (-1.0, 1.0))
        g = cv.source.grid
        assert np.max(np.abs(cv.z.value(g) - (0.5 + 2.0 * g))) <= 1e-12
        assert np.max(np.abs(cv.w.value(g) + 2.0 * g)) <= 1e-12

    def test_overflowing_dual_solution_raises(self):
        init = InitialData(0.0, 1.0, 0.0, zp0=1.7e308)
        with pytest.raises(NumericalFailure, match="not finite"):
            solve_curve(0.5, init, (-0.75, 0.75))

    @pytest.mark.parametrize("alpha, v, init", SPLINE_MARCH_CASES)
    def test_bit_identical_to_scalar_spline_march(self, alpha, v, init):
        # The name predates the stacked march: z, z' and z'' stay within
        # 1e-12 of the superseded scalar spline march along the same y.
        curve = solve_curve(alpha, init, (-0.75, 0.75), v=v)
        grid = curve.source.grid
        ref = reference_solve_dual(alpha, v, grid, *nodes(curve.y, grid), init)
        for got, want in zip(nodes(curve.z, grid), ref):
            assert np.max(np.abs(got - want)) <= 1e-12

    @pytest.mark.parametrize(
        "alpha, v, init",
        SPLINE_MARCH_CASES[:2] + [(1.5, 0.4, dataclasses.replace(SPLINE_MARCH_CASES[2][2], w0=0.7))],
    )
    def test_w_recovery(self, alpha, v, init):
        # w takes w0 at the anchor, meets w' = -y'*z' at every knot, and
        # between knots is the integral of -y'*z' from the anchor.
        curve = solve_curve(alpha, init, (-0.75, 0.75), v=v)
        assert abs(curve.w.value(init.x0) - init.w0) <= 1e-15
        assert np.max(np.abs(curve.admissibility_residual(curve.source.grid))) == 0.0

        def w_prime(x):
            return -curve.y.deriv(x) * curve.z.deriv(x)

        for x in np.linspace(*curve.domain, 13):
            want = init.w0 + quad(w_prime, init.x0, x, epsabs=1e-14, epsrel=1e-13, limit=200)[0]
            assert abs(curve.w.value(x) - want) <= 1e-12

    @pytest.mark.parametrize("alpha, init, domain, v", W_REBUILD_CASES)
    def test_w_matches_separately_built_splines(self, monkeypatch, alpha, init, domain, v):
        # w from the y and z coordinates' own derivative splines equals w from
        # two fresh splines of (y', y'') and (z', z''), bit for bit.
        samples = []

        class Recording(SampledCoordinate):
            def __init__(self, grid, vals, d1, d2):
                samples.append((vals, d1, d2))
                super().__init__(grid, vals, d1, d2)

        monkeypatch.setattr(solver, "SampledCoordinate", Recording)
        curve = solve_curve(alpha, init, domain, v=v)
        grid = curve.source.grid
        # solve_curve builds y, then z, then w.
        (_, yp, ypp), (_, zp, zpp) = samples[:2]
        yp_of, zp_of = HermiteSpline(grid, yp, ypp), HermiteSpline(grid, zp, zpp)
        cum = np.concatenate(([0.0], np.cumsum(quadrature.cell_integrals(lambda x: -(yp_of(x) * zp_of(x)), grid))))
        anchor = int(np.flatnonzero(grid == init.x0)[0])
        want = SampledCoordinate(grid, (init.w0 - cum[anchor]) + cum, -(yp * zp), -(ypp * zp + yp * zpp))
        for xs in (grid, np.random.default_rng(0).uniform(*curve.domain, 501)):
            for got, ref in zip(nodes(curve.w, xs), nodes(want, xs)):
                assert np.array_equal(got, ref)

    @pytest.mark.parametrize("yp0", [0.0, 0.5])
    @pytest.mark.parametrize("alpha", [-0.5, 0.5, 2.0, 3.0])
    def test_translation_solves_dual_equation(self, alpha, yp0):
        # z1 = y'/nu, the normal part of an x-translation, solves the
        # homogeneous dual equation at every exponent.
        def sup_err(step):
            curve = solve_translation(alpha, yp0, step)
            grid = curve.source.grid
            yp = curve.y.deriv(grid)
            return np.max(np.abs(curve.z.value(grid) - yp / np.hypot(1.0, yp)))

        fine, coarse = sup_err(1e-3), sup_err(2e-3)
        assert fine <= 1e-10
        if coarse > 1e-12:  # above rounding, the error is fourth order
            assert coarse / fine >= 12.0

    @pytest.mark.parametrize("yp0", [0.0, 0.5])
    @pytest.mark.parametrize("alpha", [-0.5, 0.5, 2.0, 3.0])
    def test_abel_identity(self, alpha, yp0):
        # Two homogeneous solutions keep (z_a*z_b' - z_a'*z_b) * y**alpha constant.
        hw = IDENTITY_HALF_WIDTHS[alpha]
        cv_a = solve_curve(alpha, InitialData(0.0, 1.0, yp0, z0=1.0, zp0=0.0), (-hw, hw))
        cv_b = solve_curve(alpha, InitialData(0.0, 1.0, yp0, z0=0.0, zp0=1.0), (-hw, hw))
        assert not cv_a.source.truncated
        grid = cv_a.source.grid
        za, zpa, _ = nodes(cv_a.z, grid)
        zb, zpb, _ = nodes(cv_b.z, grid)
        wronskian = (za * zpb - zpa * zb) * cv_a.y.value(grid) ** alpha
        assert np.max(np.abs(wronskian - 1.0)) <= 1e-9


class TestSolveCurve:
    def test_assembled_curve_passes_residual_checks(self):
        init = InitialData(0.0, 1.0, 0.2, z0=0.3, zp0=-0.4, w0=0.1)
        cv = solve_curve(1.0, init, (-1.0, 1.0), v=0.7)
        rep = residual_report(cv, 1.0, DirectionSpec(0.7), num=101)
        assert max(rep.max_abs.values()) <= 1e-6

    def test_general_exponent(self):
        init = InitialData(0.0, 1.0, 0.0, z0=0.2, zp0=0.1)
        cv = solve_curve(0.5, init, (-0.75, 0.75), v=0.3)
        rep = residual_report(cv, 0.5, DirectionSpec(0.3), num=101)
        assert max(rep.max_abs.values()) <= 1e-6

    def test_truncated_domain_shrinks(self):
        cv = solve_curve(3.0, InitialData(0.0, 1.0, 0.0), (-1.0, 1.0))
        a, b = cv.domain
        assert -1.0 < a < 0.0 < b < 1.0
        assert isinstance(cv.source.grid, np.ndarray)

    def test_coarse_step_grid(self):
        cv = solve_curve(1.0, COSH_INIT, (-1.0, 1.0), step=0.3)
        a, b = cv.domain
        assert a == pytest.approx(-0.9) and b == pytest.approx(0.9)
