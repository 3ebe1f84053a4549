"""Numerical integration of the graph equations and curve assembly."""

import dataclasses
import math
import time

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.interpolate import CubicHermiteSpline

from dualcat import quadrature, solver
from dualcat.closed_forms import _dual_part
from dualcat.spline import HermiteSpline

from dualcat import (
    DirectionSpec,
    ImmediateSingularity,
    InitialData,
    InvalidParams,
    NumericalFailure,
    Numeric,
    SampledCoordinate,
    energy,
    residual_report,
    solve_curve,
)

COSH_INIT = InitialData(x0=0.0, y0=1.0, yp0=0.0)


def nodes(coord, grid):
    """Value, first and second derivative of a solved coordinate at its knots."""
    return coord.value(grid), coord.deriv(grid), coord.deriv2(grid)


def y_nodes(curve):
    """The solve's grid and y on it."""
    grid = curve.y.grid
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


def recorded_samples(monkeypatch):
    """A list that collects the (value, d1, d2) samples of every
    SampledCoordinate the solver builds, in order: y, then z."""
    samples = []

    class Recording(SampledCoordinate):
        def __init__(self, grid, vals, d1, d2):
            samples.append((vals, d1, d2))
            super().__init__(grid, vals, d1, d2)

    monkeypatch.setattr(solver, "SampledCoordinate", Recording)
    return samples


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

# The untruncated W_REBUILD_CASES, and a solve with every initial datum set.
ADMISSIBLE_CASES = W_REBUILD_CASES[:3] + [
    (1.5, InitialData(0.0, 1.0, 0.3, z0=1.0, w0=0.4), (-2.0, 2.0), 0.0),
]


class TestRealSolve:
    def test_reproduces_catenary(self):
        cv = solve_curve(1.0, COSH_INIT, (-1.0, 1.0))
        assert not cv.source.truncated
        grid, y = y_nodes(cv)
        assert np.max(np.abs(y - np.cosh(grid))) <= 1e-8

    def test_line_is_exact(self):
        cv = solve_curve(0.0, InitialData(0.0, 3.0, 1.0), (-1.0, 1.0))
        y, yp, ypp = nodes(cv.y, cv.y.grid)
        # only accumulation roundoff: the right-hand side is identically zero
        assert np.max(np.abs(y - (cv.y.grid + 3.0))) <= 1e-12
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
        grid = cv.y.grid
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

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_alpha_and_v_rejected(self, bad):
        with pytest.raises(InvalidParams, match="alpha must be finite"):
            solve_curve(bad, COSH_INIT, (-1.0, 1.0))
        with pytest.raises(InvalidParams, match="v must be finite"):
            solve_curve(1.0, COSH_INIT, (-1.0, 1.0), bad)

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
        g = cv.y.grid
        assert np.max(np.abs(cv.z.value(g) - 1.0 / np.cosh(g))) <= 1e-7
        assert np.max(np.abs(cv.w.value(g) - (g - np.tanh(g)))) <= 1e-7

    def test_reversed_profile(self):
        # v = 1 with z' = -1 keeps z linear and w tracks v*y exactly
        init = InitialData(0.0, 1.0, 0.0, z0=0.0, zp0=-1.0, w0=1.0)
        cv = solve_curve(1.0, init, (-1.0, 1.0), v=1.0)
        g = cv.y.grid
        assert np.max(np.abs(cv.z.value(g) + g)) <= 1e-10
        assert np.max(np.abs(cv.w.value(g) - np.cosh(g))) <= 1e-8

    def test_line_deformation_exact(self):
        init = InitialData(0.0, 3.0, 1.0, z0=0.5, zp0=2.0, w0=0.0)
        cv = solve_curve(0.0, init, (-1.0, 1.0))
        g = cv.y.grid
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
        grid = curve.y.grid
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
        assert np.max(np.abs(curve.admissibility_residual(curve.y.grid))) == 0.0

        def w_prime(x):
            return -curve.y.deriv(x) * curve.z.deriv(x)

        for x in np.linspace(*curve.domain, 13):
            want = init.w0 + quad(w_prime, init.x0, x, epsabs=1e-14, epsrel=1e-13, limit=200)[0]
            assert abs(curve.w.value(x) - want) <= 1e-12

    @pytest.mark.parametrize("alpha, init, domain, v", W_REBUILD_CASES)
    def test_w_matches_separately_built_splines(self, monkeypatch, alpha, init, domain, v):
        # w from the y and z coordinates' own derivative splines equals w from
        # two fresh splines of (y', y'') and (z', z''), bit for bit: the
        # primitive T of -y'*z' on the solve grid, anchored at x0.
        samples = recorded_samples(monkeypatch)
        curve = solve_curve(alpha, init, domain, v=v)
        grid = curve.y.grid
        assert len(samples) == 2
        (_, yp, ypp), (_, zp, zpp) = samples
        yp_of, zp_of = HermiteSpline(grid, yp, ypp), HermiteSpline(grid, zp, zpp)
        ypp_of, zpp_of = yp_of.derivative(), zp_of.derivative()
        table = quadrature.CumulativeIntegral(lambda x: -(yp_of(x) * zp_of(x)), grid)
        for xs in (grid, np.random.default_rng(0).uniform(*curve.domain, 501)):
            want = (
                (init.w0 - table(init.x0)) + table(xs),
                -(yp_of(xs) * zp_of(xs)),
                -(ypp_of(xs) * zp_of(xs) + yp_of(xs) * zpp_of(xs)),
            )
            for got, ref in zip(nodes(curve.w, xs), want):
                assert np.array_equal(got, ref)

    @pytest.mark.parametrize("alpha, init, domain, v", ADMISSIBLE_CASES)
    def test_w_admissible_between_knots(self, alpha, init, domain, v):
        # w' is -y'*z' itself, so the defect cancels exactly everywhere and
        # the energy's eps part is the potential response alone.
        curve = solve_curve(alpha, init, domain, v=v)
        assert not curve.source.truncated
        xs = np.random.default_rng(1).uniform(*curve.domain, 501)
        assert np.max(np.abs(curve.admissibility_residual(xs))) == 0.0
        ev = energy(curve, DirectionSpec(v), alpha)
        assert ev.total.du == ev.e1

    @pytest.mark.parametrize("alpha, init, domain, v", W_REBUILD_CASES)
    def test_second_derivative_samples_solve_the_system(self, monkeypatch, alpha, init, domain, v):
        # The y'' and z'' samples are the right-hand side of the system on the
        # (y, y', z, z') samples at each node, bit for bit.
        samples = recorded_samples(monkeypatch)
        curve = solve_curve(alpha, init, domain, v=v)
        x = curve.y.grid
        (y, yp, ypp), (z, zp, zpp) = samples[:2]
        assert np.array_equal(ypp, alpha * (1.0 + yp * yp) / y)
        assert np.array_equal(zpp, -(alpha * (yp / y) * (zp + v) + alpha * (z + v * x) / (y * y)))

    @pytest.mark.parametrize("yp0", [0.0, 0.5])
    @pytest.mark.parametrize("alpha", [-0.5, 0.5, 2.0, 3.0])
    def test_translation_solves_dual_equation(self, alpha, yp0):
        # z1 = y'/nu, the normal part of an x-translation, solves the
        # homogeneous dual equation at every exponent.
        def sup_err(step):
            curve = solve_translation(alpha, yp0, step)
            grid = curve.y.grid
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
        grid = cv_a.y.grid
        za, zpa, _ = nodes(cv_a.z, grid)
        zb, zpb, _ = nodes(cv_b.z, grid)
        wronskian = (za * zpb - zpa * zb) * cv_a.y.value(grid) ** alpha
        assert np.max(np.abs(wronskian - 1.0)) <= 1e-9

    @pytest.mark.parametrize("alpha, hw", [(2.0, 0.8), (0.5, 0.75), (-0.7, 0.75), (3.0, 0.4)])
    def test_closed_form_builder_matches_the_march(self, alpha, hw):
        # The closed forms' dual part, z = -v*x + q*sigma - k2*y and
        # w = v*y + q/nu - k2*(x - x0) + k3 with q = k1 + k2*s, holds at every
        # exponent: fed the solve's y, sigma = y'/nu and the arc length s from
        # x0, with k1..k3 fitted to the initial data, it gives the marched z
        # and the tabled w.
        v = 0.25
        init = InitialData(0.1, 1.0, 0.2, z0=0.3, zp0=-0.2, w0=0.15)
        curve = solve_curve(alpha, init, (-hw, hw), v)
        assert not curve.source.truncated

        def basis(x):
            yp = curve.y.deriv(x)
            nu = np.hypot(1.0, yp)
            s = np.array([curve.arc_length(init.x0, float(t)) for t in x])
            return curve.y.value(x), yp / nu, nu, s

        nu0 = math.hypot(1.0, init.yp0)
        k1 = (init.zp0 + v) * init.y0 * nu0 / alpha
        k2 = (k1 * init.yp0 / nu0 - v * init.x0 - init.z0) / init.y0
        k3 = init.w0 - v * init.y0 - k1 / nu0
        z, w_val = _dual_part(alpha, basis, v, k1, k2, k3, init.x0)
        xs = np.linspace(*curve.domain, 201)
        assert np.max(np.abs(z.value(xs) - curve.z.value(xs))) <= 1e-10
        assert np.max(np.abs(w_val(xs) - curve.w.value(xs))) <= 1e-10


def cycloid_y(x, r):
    """Height of the cycloid ``x = r*(theta - sin(theta) - pi)``,
    ``y = r*(1 - cos(theta))`` over x in (-pi*r, pi*r), by Newton steps on theta.

    It is the alpha = -1/2 curve through (0, 2r) with y' = 0 there, since
    ``y*(1 + y'**2) = 2r``.  From theta = pi, the steps approach the root
    monotonically: the equation is convex in theta left of pi, concave right of it.
    """
    x = np.asarray(x, dtype=float)
    theta = np.full(x.shape, math.pi)
    for _ in range(100):
        theta = theta - (r * (theta - np.sin(theta) - math.pi) - x) / (r * (1.0 - np.cos(theta)))
    assert np.max(np.abs(r * (theta - np.sin(theta) - math.pi) - x)) <= 1e-15
    return r * (1.0 - np.cos(theta))


class TestDriftCut:
    def test_cycloid_cut_inside_the_cusps(self):
        # y(0) = 1 with y' = 0 at alpha -1/2 is the cycloid with r = 1/2,
        # whose cusps lie at +-pi/2.
        cv = solve_curve(-0.5, COSH_INIT, (-3.0, 3.0))
        a, b = cv.domain
        assert cv.source.truncated
        assert -math.pi / 2 < a < -1.5 and 1.5 < b < math.pi / 2
        grid, y = y_nodes(cv)
        assert np.max(np.abs(y - cycloid_y(grid, 0.5))) <= 1e-9

    def test_arc_length_of_truncated_solve(self):
        # The table spans the whole kept domain, so it must converge there.
        cv = solve_curve(3.0, COSH_INIT, (-2.0, 2.0))
        t0 = time.perf_counter()
        got = cv.arc_length(-0.5, 0.5)
        x = cv.x_at_arclength(0.5 * cv.arc_length(*cv.domain))
        assert time.perf_counter() - t0 < 1.0
        want = quad(lambda x: math.hypot(1.0, cv.y.deriv(x)), -0.5, 0.5, epsabs=1e-13, epsrel=1e-13, limit=200)[0]
        assert abs(got - want) <= 1e-10
        assert abs(x) <= 1e-10  # the solve is symmetric about x0 = 0

    @pytest.mark.parametrize("alpha, init, domain, v", ADMISSIBLE_CASES)
    def test_untruncated_solve_is_not_cut(self, monkeypatch, alpha, init, domain, v):
        want = solve_curve(alpha, init, domain, v=v)
        # Every node would count as drifted: only a guard lets the cut act.
        monkeypatch.setattr(solver, "DRIFT_TOL", -1.0)
        got = solve_curve(alpha, init, domain, v=v)
        assert got.domain == want.domain and got.source == want.source == Numeric(False)
        grid = want.y.grid
        assert np.array_equal(got.y.grid, grid)
        for coord in ("y", "z", "w"):
            for g, w in zip(nodes(getattr(got, coord), grid), nodes(getattr(want, coord), grid)):
                assert np.array_equal(g, w)

    def test_drift_is_read_relative_to_the_anchor(self):
        # y**(2*alpha) overflows at y = 1e100, but C itself has not moved.
        flat = [(1e100, 0.0, 0.0, 0.0, 0.0, 0.0)] * 20
        assert solver._before_drift(flat, 2.0) == flat
        bent = flat[:12] + [(1e100, 1e-3, 0.0, 0.0, 0.0, 0.0)] * 8
        assert solver._before_drift(bent, 2.0) == flat[:12]

    def test_min_steps_counts_kept_nodes(self, monkeypatch):
        monkeypatch.setattr(solver, "DRIFT_TOL", -1.0)
        with pytest.raises(ImmediateSingularity, match="after 0 forward steps"):
            solve_curve(3.0, COSH_INIT, (-2.0, 2.0))


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
        assert isinstance(cv.y.grid, np.ndarray)

    def test_coarse_step_grid(self):
        cv = solve_curve(1.0, COSH_INIT, (-1.0, 1.0), step=0.3)
        a, b = cv.domain
        assert a == pytest.approx(-0.9) and b == pytest.approx(0.9)
        # Each march stops 0.1 short of its end: the leftover is marked.
        assert cv.source.truncated is True

    @pytest.mark.parametrize("domain, x0, truncated", [
        ((-1.0, 1.0), 0.0, False),  # four steps each way
        ((-1.0, 1.1), 0.0, True),  # 0.1 short on the right only
        ((-1.05, 1.0), 0.0, True),  # 0.05 short on the left only
        ((-0.8, 1.2), 0.2, False),  # whole steps from an off-centre x0
        ((-1.0, 1.0 - 0.25 * 1e-7), 0.0, False),  # within 1e-6 steps of a whole count
    ])
    def test_leftover_domain_marks_truncation(self, domain, x0, truncated):
        init = InitialData(x0, math.cosh(x0), math.sinh(x0))
        cv = solve_curve(1.0, init, domain, step=0.25)
        assert cv.source.truncated is truncated
        assert cv.source == Numeric(truncated)

    def test_domain_stays_inside_the_request(self):
        # Four whole steps of 0.25 end 2.5e-8 past the requested right end.
        domain = (-1.0, 1.0 - 2.5e-8)
        cv = solve_curve(1.0, COSH_INIT, domain, step=0.25)
        assert cv.domain == domain
        assert cv.source == Numeric(False)


# Exponents with no closed form, each with the half-width of a domain on
# which the solve from GENERAL_INIT is not truncated.
GENERAL_HALF_WIDTHS = {-2.0: 0.4, 0.7: 0.6, 1.5: 0.6, 2.0: 0.5, 3.0: 0.4}
GENERAL_INIT = InitialData(0.0, 1.0, 0.2, z0=0.3, zp0=-0.1, w0=0.4)
GENERAL_V = 0.3


def mpmath_reference(alpha, v, init, direction):
    """``x -> (y, z, w)`` from mpmath's Taylor integrator at 18 digits.

    The state is ``(y, y', z, z', w)`` with ``y'' = alpha*(1 + y'**2)/y``,
    the dual equation for ``z''`` and ``w' = -y'*z'``.  ``odefun`` only
    integrates forward, so ``direction = -1`` integrates the mirrored system
    in ``t = x0 - x``.
    """
    import mpmath

    mp = mpmath.mp.clone()
    mp.dps = 18
    a, vv, x0 = mp.mpf(alpha), mp.mpf(v), mp.mpf(init.x0)

    def rates(t, s):
        x = x0 + direction * t
        y, p, z, q, _ = s
        zpp = -(a * (p / y) * (q + vv) + a * (z + vv * x) / (y * y))
        return [direction * r for r in (p, a * (1 + p * p) / y, q, zpp, -p * q)]

    start = [mp.mpf(getattr(init, k)) for k in ("y0", "yp0", "z0", "zp0", "w0")]
    f = mp.odefun(rates, 0, start)

    def at(x):
        y, _, z, _, w = f(direction * (mp.mpf(x) - x0))
        return float(y), float(z), float(w)

    return at


class TestGeneralExponentReference:
    """Solves at exponents with no closed form against an mpmath reference,
    both ways from x0, with criterion 4's bounds."""

    @pytest.mark.parametrize("alpha", sorted(GENERAL_HALF_WIDTHS))
    @pytest.mark.parametrize("direction", (1, -1))
    def test_matches_mpmath(self, alpha, direction):
        hw = GENERAL_HALF_WIDTHS[alpha]
        cv = solve_curve(alpha, GENERAL_INIT, (-hw, hw), v=GENERAL_V)
        assert cv.source == Numeric(False)
        ref = mpmath_reference(alpha, GENERAL_V, GENERAL_INIT, direction)
        xs = direction * hw * np.arange(1, 6) / 5.0
        want = np.array([ref(x) for x in xs])
        assert np.max(np.abs(cv.y.value(xs) - want[:, 0])) <= 1e-8
        assert np.max(np.abs(cv.z.value(xs) - want[:, 1])) <= 1e-7
        assert np.max(np.abs(cv.w.value(xs) - want[:, 2])) <= 1e-7
