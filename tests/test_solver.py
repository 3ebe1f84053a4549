"""Numerical integration of the graph equations and curve assembly."""

import dataclasses
import math

import numpy as np
import pytest

from dualcat import solver

from dualcat import (
    DirectionSpec,
    GridMismatch,
    ImmediateSingularity,
    InitialData,
    InvalidParams,
    NumericalFailure,
    SolverConfig,
    recover_w,
    residual_report,
    solve_curve,
    solve_dual,
    solve_real,
)

COSH_INIT = InitialData(x0=0.0, y0=1.0, yp0=0.0)


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
            solve_real(1.0, COSH_INIT, (-1.0, 1.0), SolverConfig(method="Euler"))
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
