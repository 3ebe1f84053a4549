"""Numerical integration of the graph equations and curve assembly."""

import dataclasses
import math

import numpy as np
import pytest
from scipy.interpolate import CubicHermiteSpline

from dualcat import solver

from dualcat import (
    DirectionSpec,
    GridMismatch,
    ImmediateSingularity,
    InitialData,
    InvalidParams,
    NumericalFailure,
    SolverConfig,
    assemble,
    recover_w,
    residual_report,
    solve_curve,
    solve_dual,
    solve_real,
)

COSH_INIT = InitialData(x0=0.0, y0=1.0, yp0=0.0)


def reference_solve_dual(alpha, v, y_sol, init):
    """The dual march with one scalar scipy spline call per RK4 stage."""
    grid = y_sol.grid
    y_of = CubicHermiteSpline(grid, y_sol.val, y_sol.d1)
    yp_of = CubicHermiteSpline(grid, y_sol.d1, y_sol.d2)

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

    i0 = y_sol.anchor_index()
    zs_r, qs_r = march(list(range(i0, len(grid))))
    zs_l, qs_l = march(list(range(i0, -1, -1)))
    zv = np.array(zs_l[:0:-1] + zs_r)
    zp = np.array(qs_l[:0:-1] + qs_r)
    zpp = np.array([zpp_at(float(x), float(z), float(q)) for x, z, q in zip(grid, zv, zp)])
    return dataclasses.replace(y_sol, val=zv, d1=zp, d2=zpp)


# Half-widths of untruncated solves from y(0) = 1 with y'(0) in {0, 1/2}.
IDENTITY_HALF_WIDTHS = {-0.5: 0.75, 0.5: 0.75, 2.0: 0.8, 3.0: 0.4}


def solve_translation(alpha, yp0, step):
    """y from (0, 1, yp0), and z started on y'/nu with v = 0."""
    hw = IDENTITY_HALF_WIDTHS[alpha]
    nu0 = math.hypot(1.0, yp0)
    ypp0 = alpha * (1.0 + yp0**2)  # y'' at y = 1
    init = InitialData(0.0, 1.0, yp0, z0=yp0 / nu0, zp0=ypp0 / nu0**3)
    cfg = SolverConfig(step=step)
    y_sol = solve_real(alpha, init, (-hw, hw), cfg)
    assert not y_sol.truncated
    return y_sol, solve_dual(alpha, 0.0, y_sol, init, cfg)


class TestRealSolve:
    def test_reproduces_catenary(self):
        sol = solve_real(1.0, COSH_INIT, (-1.0, 1.0))
        assert not sol.truncated
        err = np.max(np.abs(sol.val - np.cosh(sol.grid)))
        assert err <= 1e-8

    def test_line_is_exact(self):
        sol = solve_real(0.0, InitialData(0.0, 3.0, 1.0), (-1.0, 1.0))
        # only accumulation roundoff: the right-hand side is identically zero
        assert np.max(np.abs(sol.val - (sol.grid + 3.0))) <= 1e-12
        assert np.max(np.abs(sol.d1 - 1.0)) == 0.0
        assert np.max(np.abs(sol.d2)) == 0.0

    def test_circle_interior(self):
        sol = solve_real(-1.0, InitialData(0.0, 1.0, 0.0), (-0.9, 0.9))
        keep = np.abs(sol.grid) <= 0.8
        err = np.max(np.abs(sol.val[keep] - np.sqrt(1.0 - sol.grid[keep] ** 2)))
        assert err <= 1e-6

    def test_fourth_order_convergence(self):
        def sup_err(h):
            sol = solve_real(1.0, COSH_INIT, (-1.0, 1.0), SolverConfig(step=h))
            return np.max(np.abs(sol.val - np.cosh(sol.grid)))

        ratio = sup_err(0.04) / sup_err(0.02)
        assert ratio >= 12.0

    def test_off_center_start(self):
        sol = solve_real(1.0, InitialData(0.5, math.cosh(0.5), math.sinh(0.5)), (-1.0, 1.0))
        assert sol.anchor == 0.5
        assert np.max(np.abs(sol.val - np.cosh(sol.grid))) <= 1e-8

    def test_truncates_near_blowup(self):
        sol = solve_real(3.0, COSH_INIT, (-1.0, 1.0))
        assert sol.truncated_left and sol.truncated_right
        assert sol.grid[0] > -1.0 and sol.grid[-1] < 1.0
        # symmetric data truncate symmetrically
        assert sol.grid[0] == pytest.approx(-float(sol.grid[-1]), abs=2e-3)

    def test_immediate_singularity(self):
        with pytest.raises(ImmediateSingularity):
            solve_real(-5.0, InitialData(0.0, 2e-6, -1e7), (-1.0, 1.0))

    def test_input_validation(self):
        with pytest.raises(InvalidParams):
            solve_real(1.0, InitialData(0.0, -1.0, 0.0), (-1.0, 1.0))
        with pytest.raises(InvalidParams):
            solve_real(1.0, COSH_INIT, (-1.0, 1.0), SolverConfig(step=0.0))
        with pytest.raises(InvalidParams):
            solve_real(1.0, InitialData(5.0, 1.0, 0.0), (-1.0, 1.0))

    def test_step_count_capped_before_marching(self, monkeypatch):
        def no_march(*args):
            raise AssertionError("marched")

        monkeypatch.setattr(solver, "_march", no_march)
        with pytest.raises(InvalidParams, match="steps"):
            solve_real(1.0, COSH_INIT, (-1.0, 1.0), SolverConfig(step=2.0 / (solver.MAX_STEPS + 1)))


class TestDualSolveAndRecovery:
    def test_deformation_pair(self):
        # alpha = 1 with z(0) = 1, z'(0) = 0 picks out z = sech, w = x - tanh
        init = InitialData(0.0, 1.0, 0.0, z0=1.0, zp0=0.0, w0=0.0)
        y_sol = solve_real(1.0, init, (-1.0, 1.0))
        z_sol = solve_dual(1.0, 0.0, y_sol, init)
        w_sol = recover_w(y_sol, z_sol, init.w0)
        g = y_sol.grid
        assert np.max(np.abs(z_sol.val - 1.0 / np.cosh(g))) <= 1e-7
        assert np.max(np.abs(w_sol.val - (g - np.tanh(g)))) <= 1e-7

    def test_reversed_profile(self):
        # v = 1 with z' = -1 keeps z linear and w tracks v*y exactly
        init = InitialData(0.0, 1.0, 0.0, z0=0.0, zp0=-1.0, w0=1.0)
        y_sol = solve_real(1.0, init, (-1.0, 1.0))
        z_sol = solve_dual(1.0, 1.0, y_sol, init)
        w_sol = recover_w(y_sol, z_sol, init.w0)
        assert np.max(np.abs(z_sol.val + z_sol.grid)) <= 1e-10
        assert np.max(np.abs(w_sol.val - np.cosh(w_sol.grid))) <= 1e-8

    def test_line_deformation_exact(self):
        init = InitialData(0.0, 3.0, 1.0, z0=0.5, zp0=2.0, w0=0.0)
        y_sol = solve_real(0.0, init, (-1.0, 1.0))
        z_sol = solve_dual(0.0, 0.0, y_sol, init)
        w_sol = recover_w(y_sol, z_sol, init.w0)
        g = y_sol.grid
        assert np.max(np.abs(z_sol.val - (0.5 + 2.0 * g))) <= 1e-12
        assert np.max(np.abs(w_sol.val + 2.0 * g)) <= 1e-12

    def test_grid_mismatch_rejected(self):
        y_a = solve_real(1.0, COSH_INIT, (-1.0, 1.0))
        init_b = InitialData(0.0, 1.0, 0.0, zp0=1.0)
        y_b = solve_real(1.0, init_b, (-0.5, 0.5))
        z_b = solve_dual(1.0, 0.0, y_b, init_b)
        with pytest.raises(GridMismatch):
            recover_w(y_a, z_b, 0.0)

    def test_overflowing_dual_solution_raises(self):
        init = InitialData(0.0, 1.0, 0.0, zp0=1.7e308)
        y_sol = solve_real(0.5, init, (-0.75, 0.75))
        with pytest.raises(NumericalFailure, match="not finite"):
            solve_dual(0.5, 0.0, y_sol, init)

    @pytest.mark.parametrize(
        "alpha, v, init",
        [
            (0.5, 0.3, InitialData(0.0, 1.0, 0.1, z0=0.2, zp0=-0.1, w0=0.1)),
            (-0.5, -0.2, InitialData(0.1, 1.2, -0.1, z0=0.0, zp0=0.3, w0=-0.2)),
            (1.5, 0.4, InitialData(-0.2, 0.9, 0.05, z0=-0.2, zp0=0.2)),
        ],
    )
    def test_bit_identical_to_scalar_spline_march(self, alpha, v, init):
        # The name predates the stacked march: z, z' and z'' now stay within
        # 1e-12 of the superseded scalar spline march, and the curve is
        # bit-identical to the manual pipeline built on that z.
        domain = (-0.75, 0.75)
        y_sol = solve_real(alpha, init, domain)
        ref = reference_solve_dual(alpha, v, y_sol, init)
        z_sol = solve_dual(alpha, v, y_sol, init)
        for name in ("val", "d1", "d2"):
            assert np.max(np.abs(getattr(z_sol, name) - getattr(ref, name))) <= 1e-12

        curve = solve_curve(alpha, init, domain, v=v)
        ref_curve = assemble(y_sol, z_sol, recover_w(y_sol, z_sol, init.w0))
        xs = np.concatenate([y_sol.grid, np.random.default_rng(3).uniform(*curve.domain, 1001)])
        for name in ("y", "z", "w"):
            c, r = getattr(curve, name), getattr(ref_curve, name)
            for fn in ("value", "deriv", "deriv2"):
                assert np.array_equal(getattr(c, fn)(xs), getattr(r, fn)(xs))
        total = curve.arc_length(*curve.domain)
        assert total == ref_curve.arc_length(*ref_curve.domain)
        for s in np.linspace(0.0, total, 9):
            assert curve.x_at_arclength(s) == ref_curve.x_at_arclength(s)

    @pytest.mark.parametrize("yp0", [0.0, 0.5])
    @pytest.mark.parametrize("alpha", [-0.5, 0.5, 2.0, 3.0])
    def test_translation_solves_dual_equation(self, alpha, yp0):
        # z1 = y'/nu, the normal part of an x-translation, solves the
        # homogeneous dual equation at every exponent.
        def sup_err(step):
            y_sol, z_sol = solve_translation(alpha, yp0, step)
            return np.max(np.abs(z_sol.val - y_sol.d1 / np.hypot(1.0, y_sol.d1)))

        fine, coarse = sup_err(1e-3), sup_err(2e-3)
        assert fine <= 1e-10
        if coarse > 1e-12:  # above rounding, the error is fourth order
            assert coarse / fine >= 12.0

    @pytest.mark.parametrize("yp0", [0.0, 0.5])
    @pytest.mark.parametrize("alpha", [-0.5, 0.5, 2.0, 3.0])
    def test_abel_identity(self, alpha, yp0):
        # Two homogeneous solutions keep (z_a*z_b' - z_a'*z_b) * y**alpha constant.
        hw = IDENTITY_HALF_WIDTHS[alpha]
        init_a = InitialData(0.0, 1.0, yp0, z0=1.0, zp0=0.0)
        init_b = InitialData(0.0, 1.0, yp0, z0=0.0, zp0=1.0)
        y_sol = solve_real(alpha, init_a, (-hw, hw))
        assert not y_sol.truncated
        z_a = solve_dual(alpha, 0.0, y_sol, init_a)
        z_b = solve_dual(alpha, 0.0, y_sol, init_b)
        wronskian = (z_a.val * z_b.d1 - z_a.d1 * z_b.val) * y_sol.val**alpha
        assert np.max(np.abs(wronskian - 1.0)) <= 1e-9

    def test_dual_rejects_a_different_real_march(self):
        y_sol = solve_real(1.0, COSH_INIT, (-1.0, 1.0))
        with pytest.raises(GridMismatch):
            solve_dual(1.0, 0.0, y_sol, InitialData(0.0, 1.0, 0.1))
        with pytest.raises(GridMismatch):
            solve_dual(1.0, 0.0, y_sol, COSH_INIT, SolverConfig(step=2e-3))

    def test_anchor_must_sit_on_grid(self):
        y_sol = solve_real(1.0, COSH_INIT, (-1.0, 1.0))
        shifted = dataclasses.replace(y_sol, anchor=0.12345)
        with pytest.raises(InvalidParams):
            solve_dual(1.0, 0.0, shifted, COSH_INIT)


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

    def test_matches_manual_pipeline(self):
        init = InitialData(0.0, 1.0, 0.0, z0=1.0)
        cv = solve_curve(1.0, init, (-1.0, 1.0))
        y_sol = solve_real(1.0, init, (-1.0, 1.0))
        z_sol = solve_dual(1.0, 0.0, y_sol, init)
        w_sol = recover_w(y_sol, z_sol, init.w0)
        xs = np.linspace(-0.9, 0.9, 37)
        assert np.max(np.abs(cv.y.value(xs) - np.interp(xs, y_sol.grid, y_sol.val))) < 1e-9
        assert cv.z.value(0.4) == pytest.approx(
            float(np.interp(0.4, z_sol.grid, z_sol.val)), abs=1e-9
        )
        assert cv.w.value(-0.3) == pytest.approx(
            float(np.interp(-0.3, w_sol.grid, w_sol.val)), abs=1e-9
        )

    def test_truncated_domain_shrinks(self):
        cv = solve_curve(3.0, InitialData(0.0, 1.0, 0.0), (-1.0, 1.0))
        a, b = cv.domain
        assert -1.0 < a < 0.0 < b < 1.0
        assert isinstance(cv.source.grid, np.ndarray)

    def test_coarse_step_grid(self):
        cv = solve_curve(1.0, COSH_INIT, (-1.0, 1.0), config=SolverConfig(step=0.3))
        a, b = cv.domain
        assert a == pytest.approx(-0.9) and b == pytest.approx(0.9)
