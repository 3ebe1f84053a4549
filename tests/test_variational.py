"""Energy, Euler-Lagrange residuals, constrained variations."""

import dataclasses
import gc
import math
import time
import weakref

import numpy as np
import pytest
from scipy.integrate import quad

from dualcat import (
    Bump,
    BumpSum,
    CatenaryParams,
    Coordinate,
    DegenerateVariation,
    DirectionSpec,
    DomainError,
    GraphCurve,
    InitialData,
    InvalidParams,
    NumericalFailure,
    VariationField,
    catenary_alpha0,
    catenary_alpha1,
    catenary_alpha_minus1,
    energy,
    first_integral_residual,
    first_variation,
    infer_c,
    closed_form,
    make_constrained_variation,
    perturbed_curve,
    residual_report,
    solve_curve,
)
from dualcat import quadrature, variational
from dualcat.curves import table_edges
from dualcat.quadrature import partitioned_nodes
from references import el_residual_dual, el_residual_real, multiplier_residual
from test_curves import BUILDERS

VERTICAL = DirectionSpec(0.0)
EMPTY = BumpSum((), ())


def cosh_graph(domain=(-1.0, 1.0)) -> GraphCurve:
    y = Coordinate(np.cosh, np.sinh, np.cosh)
    return GraphCurve(domain, y, Coordinate.constant(0.0), Coordinate.constant(0.0))


def curve_without_w_values() -> GraphCurve:
    """The catenary ``y = cosh x`` with z = 0, whose w raises when a value is
    asked for; its derivatives w' = w'' = 0 are there."""
    def no_w(x):
        raise AssertionError("w.value evaluated")

    y = Coordinate(np.cosh, np.sinh, np.cosh)
    return GraphCurve((-1.0, 1.0), y, Coordinate(no_w, np.zeros_like, np.zeros_like), Coordinate.constant(0.0))


class TestEnergy:
    def test_catenary_energy_against_antiderivative(self):
        # integral of cosh(x)**2 is x/2 + sinh(2x)/4
        cv = catenary_alpha1(CatenaryParams(alpha=1.0), domain=(0.0, 1.0))
        ev = energy(cv, VERTICAL, 1.0)
        assert ev.e0 == pytest.approx(0.5 + math.sinh(2.0) / 4.0, abs=1e-12)
        assert ev.e1 == 0.0
        assert ev.total.re == ev.e0

    def test_geodesic_energy_is_arc_length(self):
        cv = catenary_alpha0(CatenaryParams(alpha=0.0, c=1.5, m=3.0))
        ev = energy(cv, VERTICAL, 0.0)
        assert ev.e0 == pytest.approx(cv.arc_length(-1.0, 1.0), abs=1e-12)

    def test_tilted_catenary_dual_energy(self):
        # v = 1, c = 1 gives z = -x, so z + v*x = 0 and e1 vanishes
        cv = catenary_alpha1(CatenaryParams(alpha=1.0, v=1.0))
        ev = energy(cv, DirectionSpec(1.0), 1.0)
        assert abs(ev.e1) < 1e-15
        assert abs(ev.total.du) < 1e-14

    def test_split_consistency_with_admissibility_defect(self):
        # w = 0 with z = x is not admissible; the defect feeds total.du only
        y = Coordinate(np.cosh, np.sinh, np.cosh)
        cv = GraphCurve((-1.0, 1.0), y, Coordinate.constant(0.0), Coordinate.linear(1.0, 0.0))
        ev = energy(cv, VERTICAL, 1.0)
        x, wts = partitioned_nodes(-1.0, 1.0, (), 64)
        nu = np.hypot(1.0, np.sinh(x))
        defect_term = float(np.dot(wts, np.cosh(x) * np.sinh(x) / nu))
        assert ev.total.re == ev.e0
        assert ev.total.du == pytest.approx(ev.e1 + defect_term, abs=1e-12)

    def test_split_consistency_admissible(self):
        cv = catenary_alpha_minus1(
            CatenaryParams(alpha=-1.0, R=2.0, m=0.1, v=0.9, d1=0.8, d2=-0.5, d3=0.3)
        )
        ev = energy(cv, DirectionSpec(0.9), -1.0)
        assert abs(ev.total.re - ev.e0) <= 1e-12
        assert abs(ev.total.du - ev.e1) <= 1e-12

    def test_panel_refinement_converged(self):
        cv = catenary_alpha1(CatenaryParams(alpha=1.0, c=2.2, v=0.4, d1=0.6))
        coarse = energy(cv, DirectionSpec(0.4), 1.0, panels=32)
        fine = energy(cv, DirectionSpec(0.4), 1.0, panels=64)
        assert coarse.e0 == pytest.approx(fine.e0, abs=1e-12)
        assert coarse.e1 == pytest.approx(fine.e1, abs=1e-12)

    def test_never_reads_w_values(self):
        # <gamma,u> has no w term, so neither the energy nor its first
        # variation may evaluate w (on perturbed curves each value is a quad).
        cv = curve_without_w_values()
        assert energy(cv, VERTICAL, 1.0).e0 == pytest.approx(1.0 + math.sinh(2.0) / 2.0, abs=1e-12)
        fv = first_variation(make_constrained_variation(cv, 0), VERTICAL, 1.0)
        assert abs(fv.re) <= 1e-6 and abs(fv.du) <= 1e-6

    def test_rejects_nonpositive_height(self):
        cv = catenary_alpha0(CatenaryParams(alpha=0.0, c=math.sqrt(2.0), m=0.0), (-2.0, 2.0))
        with pytest.raises(DomainError):
            energy(cv, VERTICAL, 0.0)

    # On an alpha-catenary the energy is a boundary term.  With
    # sigma = y'/nu, the arc length s and the dual part's q = k1 + k2*s:
    # e0 = ([y**(alpha+1)*sigma]_a^b + (b - a)/c)/(1 + alpha), or
    # [atanh((x - m)/R)]_a^b on the arc, and
    # e1 = [q*y**alpha]_a^b - (1 + alpha)*k2*e0.

    def test_catenary_energy_is_a_boundary_term(self):
        p = CatenaryParams(alpha=1.0, c=1.3, m=0.2, v=0.4, d1=0.2, d2=-0.3, d3=0.5)
        cv = catenary_alpha1(p)
        ev = energy(cv, DirectionSpec(p.v), 1.0)
        a, b = cv.domain
        k2 = -p.c * p.d1

        def ends(f):
            return f(p.c * b + p.m) - f(p.c * a + p.m)

        e0 = (ends(lambda t: (math.cosh(t) / p.c) ** 2 * math.tanh(t)) + (b - a) / p.c) / 2.0
        e1 = ends(lambda t: (p.d2 + k2 * math.sinh(t) / p.c) * math.cosh(t) / p.c) - 2.0 * k2 * e0
        assert abs(ev.e0 - e0) <= 1e-14
        assert abs(ev.e1 - e1) <= 1e-14

    def test_arc_energy_is_a_boundary_term(self):
        p = CatenaryParams(alpha=-1.0, v=0.3, d1=0.2, d2=0.5)
        cv = catenary_alpha_minus1(p)
        ev = energy(cv, DirectionSpec(p.v), -1.0, panels=16384)
        a, b = cv.domain

        def ends(f):
            return f((b - p.m) / p.R) - f((a - p.m) / p.R)

        e0 = ends(math.atanh)
        e1 = ends(lambda t: (-p.R * p.d1 - p.d2 * p.R * math.asin(t)) / (p.R * math.sqrt(1.0 - t * t)))
        assert abs(ev.e0 - e0) <= 1e-12
        assert abs(ev.e1 - e1) <= 1e-12

    @pytest.mark.parametrize(
        "alpha, init, domain",
        [
            (0.5, InitialData(0.0, z0=0.2, zp0=0.1), (-0.75, 0.75)),
            (2.0, InitialData(0.0, yp0=0.1, z0=0.2, zp0=0.1), (-0.3, 0.3)),
            (-0.7, InitialData(0.0, yp0=-0.2, z0=0.3, zp0=-0.2, w0=0.4), (-0.5, 0.5)),
            (3.0, InitialData(0.0, z0=1.0, zp0=0.5), (-0.4, 0.4)),
        ],
        ids=["readme", "alpha2", "alpha-0.7", "alpha3"],
    )
    def test_solved_energy_is_a_boundary_term(self, alpha, init, domain):
        # Each domain stops short of steep ends: on [-1, 1] the alpha -0.7
        # solve ends at slope -4.06 and misses e0 by 1.7e-7 (1.4e-9 at 1,024
        # panels), an error of the solve and not of the rule.
        cv = solve_curve(alpha, init, domain, v=0.3)
        assert cv.domain == domain
        c = infer_c(cv, alpha, init.x0)
        ev = energy(cv, DirectionSpec(0.3), alpha)
        a, b = domain

        def term(x):
            yp = cv.y.deriv(x)
            return cv.y.value(x) ** (alpha + 1.0) * yp / math.hypot(1.0, yp)

        e0 = (term(b) - term(a) + (b - a) / c) / (1.0 + alpha)
        assert abs(ev.e0 - e0) <= 1e-11


class TestResiduals:
    def test_el_real_on_catenary(self):
        cv = cosh_graph()
        xs = np.linspace(-1.0, 1.0, 101)
        assert np.max(np.abs(el_residual_real(cv, 1.0, xs))) < 1e-15

    def test_el_real_wrong_exponent(self):
        cv = cosh_graph()
        assert el_residual_real(cv, 2.0, 0.0) == pytest.approx(-1.0, abs=1e-15)

    def test_el_real_on_circle(self):
        cv = catenary_alpha_minus1(CatenaryParams(alpha=-1.0, R=1.0))
        assert abs(el_residual_real(cv, -1.0, 0.5)) < 1e-13

    def test_el_dual_by_direct_substitution(self):
        # y = cosh, z = x, v = 0: residual is tanh(x)*1 + x/cosh(x)**2
        y = Coordinate(np.cosh, np.sinh, np.cosh)
        cv = GraphCurve((-1.0, 1.0), y, Coordinate.constant(0.0), Coordinate.linear(1.0, 0.0))
        assert el_residual_dual(cv, 1.0, VERTICAL, 0.0) == 0.0
        expected = math.tanh(1.0) + 1.0 / math.cosh(1.0) ** 2
        assert el_residual_dual(cv, 1.0, VERTICAL, 1.0) == pytest.approx(expected, rel=1e-14)

    def test_el_dual_on_closed_forms(self):
        xs = np.linspace(-1.0, 1.0, 101)
        cv = catenary_alpha1(CatenaryParams(alpha=1.0, c=1.8, v=1.1, d1=-0.7, d2=0.9))
        assert np.max(np.abs(el_residual_dual(cv, 1.0, DirectionSpec(1.1), xs))) < 1e-12

    def test_first_integral_and_infer_c(self):
        cv = cosh_graph()
        xs = np.linspace(-1.0, 1.0, 101)
        assert np.max(np.abs(first_integral_residual(cv.y.value(xs), cv.y.deriv(xs), 1.0, 1.0))) < 1e-14
        doubled = catenary_alpha1(CatenaryParams(alpha=1.0, c=2.0))
        assert infer_c(doubled, 1.0, 0.0) == pytest.approx(2.0, rel=1e-15)
        # the wrong constant leaves the first integral far from zero
        assert np.max(np.abs(first_integral_residual(doubled.y.value(xs), doubled.y.deriv(xs), 1.0, 1.0))) > 0.1
        with pytest.raises(InvalidParams):
            first_integral_residual(1.0, 0.0, 1.0, 0.0)

    @pytest.mark.parametrize("height", [1e-200, 1e200])  # y**-2 overflows, then underflows
    def test_infer_c_rejects_a_constant_out_of_range(self, height):
        line = catenary_alpha0(CatenaryParams(alpha=0.0, m=height))
        with pytest.raises(NumericalFailure):
            infer_c(line, -1.0, 0.0)

    def test_multiplier_identity(self):
        cv = catenary_alpha1(CatenaryParams(alpha=1.0, c=2.0))
        xs = np.linspace(-1.0, 1.0, 101)
        assert np.max(np.abs(multiplier_residual(cv, 1.0, 2.0, xs))) < 1e-12
        # wrong exponent leaves y''/c uncancelled
        assert multiplier_residual(cosh_graph(), 0.0, 1.0, 0.0) == pytest.approx(1.0)

    def test_gateaux_derivative_matches_residual_pairing(self):
        # d/dh of e0 along delta_y equals -integral((y**a/nu)*el_real*delta_y)
        base = cosh_graph()
        alpha = 2.0  # cosh is not stationary for this exponent
        delta = BumpSum((Bump(-0.3, 0.35), Bump(0.4, 0.25)), (0.06, -0.04))
        xs, wts = partitioned_nodes(-1.0, 1.0, delta.edges(), 64)
        y = np.cosh(xs)
        nu = np.hypot(1.0, np.sinh(xs))
        el = np.asarray(el_residual_real(base, alpha, xs))
        oracle = -float(np.dot(wts, y**alpha / nu * el * delta.value(xs)))

        h = 1e-5
        ep = energy(perturbed_curve(base, delta, EMPTY, +h), VERTICAL, alpha)
        em = energy(perturbed_curve(base, delta, EMPTY, -h), VERTICAL, alpha)
        fd = (ep.e0 - em.e0) / (2.0 * h)
        assert fd == pytest.approx(oracle, abs=1e-8)

        fv = first_variation(VariationField(base, delta, EMPTY), VERTICAL, alpha)
        assert fv.re == pytest.approx(oracle, abs=1e-12)
        assert fv.du == 0.0

    @pytest.mark.parametrize(
        "curve, alpha, v",
        [
            (catenary_alpha1(CatenaryParams(alpha=1.0, c=1.3, v=0.8, d1=0.4, d2=-0.3, d3=0.2)), 1.0, 0.8),
            (catenary_alpha0(CatenaryParams(alpha=0.0, c=1.6, m=3.0, v=-0.5, d1=0.7, d2=0.1)), 0.0, -0.5),
            (catenary_alpha_minus1(CatenaryParams(alpha=-1.0, R=2.0, m=0.2, v=0.6, d1=-0.9, d2=0.5)), -1.0, 0.6),
            (cosh_graph(), 2.0, 0.0),
        ],
    )
    def test_first_variation_along_delta_z_is_the_potential_response(self, curve, alpha, v):
        # With delta_y = 0 the speed term <gamma', dgamma'> = y'*dz' - y'*dz'
        # vanishes, leaving the eps part integral(alpha*y**(alpha-1)*nu*delta_z).
        a, b = curve.domain
        for seed in range(3):
            delta = make_constrained_variation(curve, seed).delta_z
            xs, wts = partitioned_nodes(a, b, delta.edges(), 64)
            y = curve.y.value(xs)
            nu = np.hypot(1.0, curve.y.deriv(xs))
            oracle = float(np.dot(wts, alpha * y ** (alpha - 1.0) * nu * delta.value(xs)))
            fv = first_variation(VariationField(curve, EMPTY, delta), DirectionSpec(v), alpha)
            assert fv.re == 0.0
            assert fv.du == pytest.approx(oracle, abs=1e-12)


class TestVariations:
    def test_field_shape_and_determinism(self):
        cv = catenary_alpha1(CatenaryParams(alpha=1.0))
        v1 = make_constrained_variation(cv, 42)
        v2 = make_constrained_variation(cv, 42)
        assert v1.delta_y.bumps == v2.delta_y.bumps
        assert v1.delta_y.coeffs == v2.delta_y.coeffs
        assert v1.delta_z.bumps == v2.delta_z.bumps
        assert v1.constraint == v2.constraint

    def test_vanishes_at_endpoints(self):
        cv = catenary_alpha_minus1(CatenaryParams(alpha=-1.0, R=2.0), (-1.5, 1.8))
        for seed in range(5):
            var = make_constrained_variation(cv, seed)
            for f in (var.delta_y, var.delta_z):
                assert f.value(-1.5) == 0.0 and f.value(1.8) == 0.0
                assert f.deriv(-1.5) == 0.0 and f.deriv(1.8) == 0.0

    def test_constraint_is_enforced(self):
        for params in (
            CatenaryParams(alpha=1.0, c=1.7, v=0.9, d1=0.4, d2=-0.8),
            CatenaryParams(alpha=0.0, c=1.4, m=2.0, v=0.3, d1=0.6),
        ):
            cv = catenary_alpha1(params) if params.alpha == 1.0 else catenary_alpha0(params)
            for seed in range(5):
                var = make_constrained_variation(cv, seed)
                assert abs(var.constraint) <= 1e-12

    @pytest.mark.parametrize(
        "cv",
        [
            catenary_alpha1(CatenaryParams(alpha=1.0, c=1.7, v=0.9, d1=0.4, d2=-0.8)),
            catenary_alpha_minus1(CatenaryParams(alpha=-1.0, R=2.0, m=0.2, v=0.6, d1=-0.9, d2=0.5)),
            perturbed_curve(
                catenary_alpha1(CatenaryParams(alpha=1.0, d1=0.3)),
                BumpSum((Bump(0.0, 0.6),), (1.0,)), BumpSum((Bump(0.2, 0.5),), (0.4,)), 0.1,
            ),
        ],
        ids=["alpha1", "alpha-1", "perturbed"],
    )
    def test_constraint_is_read_from_the_returned_field(self, cv):
        # The recorded constraint reuses the slopes drawn for the correction;
        # it must equal, to the bit, the rule applied to the returned field's
        # own slopes on the same nodes.
        a, b = cv.domain
        for seed in range(6):
            var = make_constrained_variation(cv, seed)
            dy, dz = var.delta_y, var.delta_z
            assert len(dz.bumps) == len(dy.bumps) + 1  # the fixer joined
            x, wts = partitioned_nodes(a, b, cv.breakpoints + dy.edges() + dz.edges())
            yp, zp = np.asarray(cv.y.deriv(x), float), np.asarray(cv.z.deriv(x), float)
            assert var.constraint == quadrature.integrate(wts, yp * dz.deriv(x) + zp * dy.deriv(x))

    def test_degenerate_seed_rejected(self):
        # y' even and z' = 0 make the fixer integral vanish while the raw
        # constraint does not: no single-bump correction can absorb it.
        y = Coordinate(lambda x: np.sinh(x) + 2.0, np.cosh, np.sinh)
        cv = GraphCurve((-1.0, 1.0), y, Coordinate.constant(0.0), Coordinate.constant(0.0))
        # The fixer integral vanishes for the curve, so every seed raises.
        for seed in range(10):
            with pytest.raises(DegenerateVariation, match="fixer integral"):
                make_constrained_variation(cv, seed)

    @pytest.mark.parametrize("c", [1e5, 1e8])
    def test_steep_line_keeps_the_fixer_out(self, c):
        # At exponent 0 the curve is a line and the fixer integral vanishes
        # structurally, however steep: every seed builds, and the rounding
        # left in either integral never brings the fixer in.
        cv = catenary_alpha0(CatenaryParams(alpha=0.0, c=c, m=2.0 * c))
        for seed in range(20):
            var = make_constrained_variation(cv, seed)
            assert len(var.delta_z.bumps) == variational.RANDOM_BUMPS

    def test_stationary_first_variation_vanishes(self):
        cases = [
            (catenary_alpha1(CatenaryParams(alpha=1.0, c=1.3, v=0.8, d1=0.4, d2=-0.3, d3=0.2)), 1.0, 0.8),
            (catenary_alpha0(CatenaryParams(alpha=0.0, c=1.6, m=3.0, v=-0.5, d1=0.7, d2=0.1)), 0.0, -0.5),
            (catenary_alpha_minus1(CatenaryParams(alpha=-1.0, R=2.0, m=0.2, v=0.6, d1=-0.9, d2=0.5)), -1.0, 0.6),
        ]
        for cv, alpha, v in cases:
            u = DirectionSpec(v)
            for seed in range(8):
                fv = first_variation(make_constrained_variation(cv, seed), u, alpha)
                assert abs(fv.re) <= 1e-6
                assert abs(fv.du) <= 1e-6

    def test_perturbation_breaks_stationarity(self):
        cv = catenary_alpha1(CatenaryParams(alpha=1.0))
        pert = perturbed_curve(cv, BumpSum((Bump(0.0, 0.6),), (1.0,)), EMPTY, 0.1)
        responses = [
            abs(first_variation(make_constrained_variation(pert, seed), VERTICAL, 1.0).re)
            for seed in range(20)
        ]
        assert max(responses) >= 1e-3

    def test_matches_central_difference(self):
        # The closed form against the difference quotient of two dual
        # energies, on a curve that is not stationary.
        base = catenary_alpha1(CatenaryParams(alpha=1.0, v=0.5, d2=0.6))
        cv = perturbed_curve(base, BumpSum((Bump(0.0, 0.6),), (1.0,)), EMPTY, 0.1)
        u = DirectionSpec(0.5)
        for seed in range(5):
            var = make_constrained_variation(cv, seed)
            fv = first_variation(var, u, 1.0)
            for h in (1e-4, 5e-5):
                ep = energy(perturbed_curve(cv, var.delta_y, var.delta_z, +h), u, 1.0)
                em = energy(perturbed_curve(cv, var.delta_y, var.delta_z, -h), u, 1.0)
                fd = (ep.total - em.total) * (0.5 / h)
                assert abs(fv.re - fd.re) <= 1e-9
                assert abs(fv.du - fd.du) <= 1e-9


class TestPerturbedCurve:
    @pytest.mark.parametrize("scale", [math.nan, math.inf, -math.inf])
    def test_rejects_a_scale_that_is_not_finite(self, scale):
        # Without the check a NaN scale reaches y, and energy blames the height.
        cv = catenary_alpha1(CatenaryParams(alpha=1.0))
        with pytest.raises(InvalidParams, match="scale must be finite"):
            perturbed_curve(cv, BumpSum((Bump.central(*cv.domain),), (1.0,)), EMPTY, scale)

    def test_stays_admissible(self):
        cv = catenary_alpha1(CatenaryParams(alpha=1.0, c=1.5, v=0.7, d1=0.5, d2=-0.6))
        var = make_constrained_variation(cv, 3)
        pert = perturbed_curve(cv, var.delta_y, var.delta_z, 0.05)
        xs = np.linspace(-1.0, 1.0, 101)
        assert np.max(np.abs(pert.admissibility_residual(xs))) < 1e-14

    def test_w_is_anchored_and_integrated(self):
        cv = catenary_alpha1(CatenaryParams(alpha=1.0, v=1.0))  # w = cosh x
        var = make_constrained_variation(cv, 11)
        pert = perturbed_curve(cv, var.delta_y, var.delta_z, 0.02)
        assert pert.w.value(-1.0) == pytest.approx(math.cosh(1.0), rel=1e-12)
        # finite difference of the quadrature-backed value matches w'
        h = 1e-6
        got = (pert.w.value(0.3 + h) - pert.w.value(0.3 - h)) / (2 * h)
        assert got == pytest.approx(pert.w.deriv(0.3), abs=1e-8)

    @pytest.mark.parametrize("seed", [0, 5, 11])
    def test_w_bit_identical_to_own_table(self, seed):
        # The w that perturbed_curve once built with its own closure: a
        # table of -y'*z' on the perturbed curve's table edges, plus w(a).
        cv = catenary_alpha1(CatenaryParams(alpha=1.0, c=1.3, v=0.8, d1=0.4, d2=-0.3, d3=0.2))
        var = make_constrained_variation(cv, seed)
        pert = perturbed_curve(cv, var.delta_y, var.delta_z, 0.05)
        a, _ = cv.domain

        def w_d1(x):
            return -(pert.y.deriv(x) * pert.z.deriv(x))

        def w_d2(x):
            return -(pert.y.deriv2(x) * pert.z.deriv(x) + pert.y.deriv(x) * pert.z.deriv2(x))

        table = quadrature.CumulativeIntegral(w_d1, table_edges(pert.domain, pert.y, pert.breakpoints))
        w0 = float(cv.w.value(a))
        xs = np.random.default_rng(seed).uniform(*cv.domain, 501)
        assert np.array_equal(pert.w.value(xs), w0 + table(xs))
        assert np.array_equal(pert.w.deriv(xs), w_d1(xs))
        assert np.array_equal(pert.w.deriv2(xs), w_d2(xs))

    def test_point_evaluates_as_the_grid(self):
        base = catenary_alpha1(CatenaryParams(alpha=1.0, c=1.3, v=0.3, d1=0.4))
        delta = BumpSum(TestBumpSum.BUMPS, TestBumpSum.COEFFS)
        y = perturbed_curve(base, delta, EMPTY, 1.0).y
        grid = np.linspace(-0.9, 0.9, 20001)
        on_grid = y.value(grid)
        assert all(same_bits(y.value(float(x)), want) for x, want in zip(grid, on_grid))

    def test_report_w_column_from_one_table(self):
        base = closed_form(CatenaryParams(alpha=1.0, c=1.3, v=0.8, d1=0.4))
        t0 = time.perf_counter()
        pert = perturbed_curve(base, BumpSum((Bump(0.0, 0.6),), (1.0,)), EMPTY, 0.1)
        rep = residual_report(pert, 1.0, DirectionSpec(0.8))
        w = pert.w.value(rep.grid)
        assert time.perf_counter() - t0 < 0.05
        a, _ = pert.domain
        steps = [quad(pert.w.deriv, lo, hi, epsabs=1e-14, epsrel=1e-14)[0]
                 for lo, hi in zip(rep.grid[:-1], rep.grid[1:])]
        want = base.w.value(a) + np.concatenate(([0.0], np.cumsum(steps)))
        assert np.max(np.abs(w - want)) <= 1e-10


def bumped_catenary() -> tuple[GraphCurve, tuple[float, ...]]:
    """A catenary deformed by bumps in y and z, with those bumps' edges,
    which the reference computations below split at by hand."""
    base = catenary_alpha1(CatenaryParams(alpha=1.0, c=1.3, v=0.3, d1=0.4))
    dy = BumpSum((Bump(-0.27, 0.35), Bump(0.41, 0.25)), (0.06, -0.04))
    dz = BumpSum((Bump(0.13, 0.3),), (0.05,))
    return perturbed_curve(base, dy, dz, 1.0), dy.edges() + dz.edges()


class TestCurveBreakpoints:
    # The references run on 20000 panels, which are accurate to about 1e-14
    # whether or not they split at the bump edges.
    U = DirectionSpec(0.3)

    def test_energy_splits_at_the_bumps(self):
        cv, _ = bumped_catenary()
        got = energy(cv, self.U, 1.0)
        want = energy(cv, self.U, 1.0, panels=20000)
        assert abs(got.e0 - want.e0) <= 1e-13
        assert abs(got.e1 - want.e1) <= 1e-13
        assert abs(got.total.du - want.total.du) <= 1e-13

    def test_energy_takes_them_from_the_curve_only(self):
        cv, edges = bumped_catenary()
        assert cv.breakpoints == edges
        with pytest.raises(TypeError):
            energy(cv, self.U, 1.0, breakpoints=edges)

    @pytest.mark.parametrize("seed", [3, 4, 5])
    def test_first_variation_splits_at_the_bumps(self, seed):
        cv, _ = bumped_catenary()
        var = make_constrained_variation(cv, seed)
        got = first_variation(var, self.U, 1.0)
        want = first_variation(dataclasses.replace(var, panels=20000), self.U, 1.0)
        assert abs(got.re - want.re) <= 1e-12
        assert abs(got.du - want.du) <= 1e-12

    @pytest.mark.parametrize("seed", [3, 4, 5])
    def test_constraint_holds_on_the_split_rule(self, seed):
        cv, edges = bumped_catenary()
        var = make_constrained_variation(cv, seed)
        dy, dz = var.delta_y, var.delta_z
        x, wts = partitioned_nodes(*cv.domain, edges + dy.edges() + dz.edges())
        k = float(np.dot(wts, cv.y.deriv(x) * dz.deriv(x) + cv.z.deriv(x) * dy.deriv(x)))
        assert abs(k) <= 1e-12


def per_bump_sum(bumps, coeffs, x, part):
    """``sum(a * bump(x))`` with each bump evaluated alone: the reference that
    BumpSum's one pass over all bumps must match bit for bit."""

    def one(b):
        t = (np.asarray(x, dtype=float) - b.center) / b.radius
        s = np.maximum(0.0, 1.0 - t * t)
        if part == "value":
            return s**3
        if part == "deriv":
            return -6.0 * t * s * s / b.radius
        return 6.0 * s * (5.0 * t * t - 1.0) / b.radius**2

    return sum(a * one(b) for a, b in zip(coeffs, bumps))


def same_bits(got, want) -> bool:
    """Equal shapes and equal float64 bit patterns, so -0.0 and 0.0 differ."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return got.shape == want.shape and np.array_equal(got.view(np.uint64), want.view(np.uint64))


class TestBumpSum:
    BUMPS = (Bump(-0.27, 0.35), Bump(0.41, 0.25), Bump(0.13, 0.3), Bump(0.0, 0.6))
    COEFFS = (0.06, -0.04, 0.05, -0.0123)
    ENDS = [p for b in BUMPS for p in (b.center - b.radius, b.center, b.center + b.radius)]
    # Inside, on and just beyond every support end, and far outside.
    POINTS = np.concatenate(
        (np.linspace(-1.5, 1.5, 61), ENDS, np.nextafter(ENDS, np.inf), np.nextafter(ENDS, -np.inf))
    )

    @pytest.mark.parametrize("part", ["value", "deriv", "deriv2"])
    @pytest.mark.parametrize("k", [1, 3, 4])
    def test_arrays_match_the_per_bump_sum(self, part, k):
        bs = BumpSum(self.BUMPS[:k], self.COEFFS[:k])
        pts = self.POINTS
        rng = np.random.default_rng(k)
        grid = rng.permutation(np.concatenate((pts, pts[:3])))[: 8 * 6].reshape(8, 6)
        for x in (pts, grid, pts[:1], pts[::-3]):
            got = getattr(bs, part)(x)
            assert isinstance(got, np.ndarray)
            assert same_bits(got, per_bump_sum(bs.bumps, bs.coeffs, x, part))

    @pytest.mark.parametrize("part", ["value", "deriv", "deriv2"])
    def test_points_match_the_per_bump_sum(self, part):
        """A lone point rounds as it does inside a grid: as the per-bump sum over the grid."""
        bs = BumpSum(self.BUMPS, self.COEFFS)
        on_grid = per_bump_sum(bs.bumps, bs.coeffs, self.POINTS, part)
        for p, want in zip(self.POINTS, on_grid):
            for x in (float(p), np.asarray(p)):
                got = getattr(bs, part)(x)
                assert type(got) is np.float64
                assert same_bits(got, want)

    def test_deriv2_squares_each_radius_as_the_per_bump_sum(self):
        # 0.0934193579385649**2, the C library's pow with glibc 2.36, differs
        # from 0.0934193579385649*0.0934193579385649 in the last bit.
        bs = BumpSum((Bump(0.1, 0.0934193579385649),), (1.0,))
        x = np.linspace(0.0, 0.2, 41)
        assert same_bits(bs.deriv2(x), per_bump_sum(bs.bumps, bs.coeffs, x, "deriv2"))

    def test_joint_pass_matches_each_sum(self):
        sums = (BumpSum(self.BUMPS[:2], self.COEFFS[:2]), EMPTY, BumpSum(self.BUMPS[2:], self.COEFFS[2:]))
        kinds = ("value", "deriv", "deriv2")
        for x in (self.POINTS, 0.13, self.POINTS[:96].reshape(-1, 6)):
            got = BumpSum._evaluate(x, sums, *kinds)
            assert len(got) == 3 and all(len(per_sum) == 3 for per_sum in got)
            for kind, per_sum in zip(kinds, got):
                for bs, value in zip(sums, per_sum):
                    assert same_bits(value, getattr(bs, kind)(x))

    def test_empty_sum_is_zero_shaped_like_x(self):
        for x in (0.3, np.asarray(0.3), self.POINTS, self.POINTS[:96].reshape(-1, 6)):
            for part in ("value", "deriv", "deriv2"):
                got = getattr(EMPTY, part)(x)
                assert same_bits(got, np.zeros(np.shape(x)))
                assert per_bump_sum((), (), x, part) == 0

    def test_support_ends_are_flat(self):
        bs = BumpSum(self.BUMPS, self.COEFFS)
        far = np.array([-1.5, 1.5])
        for part in ("value", "deriv", "deriv2"):
            assert same_bits(getattr(bs, part)(far), np.zeros(2))

    @pytest.mark.parametrize(
        "bumps, coeffs",
        [
            ((Bump(0.0, 0.5), Bump(0.2, 0.3)), (1.0,)),  # the second bump would be dropped
            ((Bump(0.0, 0.5),), (1.0, 2.0)),
            ((Bump(math.nan, 0.5),), (1.0,)),
            ((Bump(math.inf, 0.5),), (1.0,)),
            ((Bump(0.0, 0.0),), (1.0,)),  # evaluates to NaN
            ((Bump(0.0, -0.5),), (1.0,)),
            ((Bump(0.0, math.inf),), (1.0,)),
            ((Bump(0.0, math.nan),), (1.0,)),
            ((Bump(0.0, 1e155),), (1.0,)),  # its square overflows
            ((Bump(0.0, 0.5),), (math.nan,)),
            ((Bump(0.0, 0.5),), (-math.inf,)),
        ],
    )
    def test_rejects_bad_input(self, bumps, coeffs):
        with pytest.raises(InvalidParams):
            BumpSum(bumps, coeffs)
        # Appended to a valid sum, as make_constrained_variation appends its fixer.
        with pytest.raises(InvalidParams):
            BumpSum(self.BUMPS + bumps, self.COEFFS + coeffs)


def uniform_call_bumps(rng, a, b):
    """The seeded bumps drawn by one ``rng.uniform`` call per value, the
    reference for the single draw of all their deviates."""
    span = b - a
    bumps, coeffs = [], []
    for _ in range(3):
        radius = span * rng.uniform(0.08, 0.20)
        bumps.append(Bump(rng.uniform(a + radius + 0.02 * span, b - radius - 0.02 * span), radius))
        coeffs.append(rng.uniform(-0.05, 0.05))
    return bumps, coeffs


@pytest.mark.parametrize("chunk", range(4))
def test_seeded_bumps_match_uniform_calls(chunk):
    # On a NumPy whose uniform fused its multiply-add, the seeded variations
    # (and the pinned outputs) would move by rounding; this would fail first.
    domains = np.random.default_rng(chunk).uniform(-5.0, 5.0, (500, 2))
    for seed, (a, w) in enumerate(domains, start=500 * chunk):
        a, b = float(a), float(a + 10.0 ** (w / 2.5))
        got, want = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(2):
            drawn = variational._random_bumps(got, a, b)
            bumps, coeffs = uniform_call_bumps(want, a, b)
            assert drawn.bumps == tuple(bumps) and drawn.coeffs == tuple(coeffs)


def count_calls(monkeypatch, owner, name: str) -> list:
    """Replace owner.name by a spy that records the arguments of each call, and return the record."""
    calls, real = [], getattr(owner, name)
    monkeypatch.setattr(owner, name, lambda *args: calls.append(args) or real(*args))
    return calls


def fresh_first_variation(var, u, alpha):
    """first_variation on a field built from var's curve, deltas and panels, which samples them itself."""
    fv = first_variation(VariationField(var.curve, var.delta_y, var.delta_z, var.panels), u, alpha)
    return fv.re, fv.du


class TestNodeSets:
    @pytest.mark.parametrize(
        "cv, fixer_joins",
        [
            (catenary_alpha1(CatenaryParams(alpha=1.0, c=1.3, v=0.3, d1=0.4)), True),
            (catenary_alpha0(CatenaryParams(alpha=0.0, c=1.5, m=2.0)), False),
        ],
        ids=["alpha1", "alpha0"],
    )
    def test_variation_reuses_the_constraint_nodes(self, monkeypatch, cv, fixer_joins):
        # A field whose fixer joined delta_z holds what the draw sampled; otherwise
        # its rule differs and it samples the curve again on first use.
        for seed in range(3):
            with monkeypatch.context() as patch:
                rules = count_calls(patch, quadrature, "partitioned_nodes")
                slopes = count_calls(patch, cv.y, "deriv"), count_calls(patch, cv.z, "deriv")
                var = make_constrained_variation(cv, seed)
                first_variation(var, VERTICAL, cv.source.alpha)
            assert (len(var.delta_z.bumps) > len(var.delta_y.bumps)) == fixer_joins
            assert len(rules) == (1 if fixer_joins else 2)
            assert [len(c) for c in slopes] == ([1, 1] if fixer_joins else [2, 2])

    @pytest.mark.parametrize("panels", [0, -5, 2.5, True])
    def test_rejects_panel_counts_below_one(self, panels):
        cv = closed_form(CatenaryParams(alpha=1.0))
        var = make_constrained_variation(cv, 0)
        for integrate in (
            lambda: partitioned_nodes(-1.0, 1.0, (), panels),
            lambda: energy(cv, VERTICAL, 1.0, panels=panels),
            lambda: make_constrained_variation(cv, 0, panels=panels),
            lambda: first_variation(dataclasses.replace(var, panels=panels), VERTICAL, 1.0),
            lambda: VariationField(cv, EMPTY, EMPTY, panels).constraint,
        ):
            with pytest.raises(InvalidParams, match="panels"):
                integrate()

    @pytest.mark.parametrize("seed", [-1, 1.5, True, np.int64(-2)])
    def test_rejects_seeds_that_are_not_integers_of_at_least_zero(self, seed):
        # NumPy would raise its own ValueError or TypeError, and take True for seed 1.
        with pytest.raises(InvalidParams, match="seed"):
            make_constrained_variation(closed_form(CatenaryParams(alpha=1.0)), seed)

    def test_overflowing_constraint_raises(self):
        # On an interval 2e-300 wide the bump slopes times the curve's
        # overflow, and the constraint integral with them.
        base = catenary_alpha1(CatenaryParams(alpha=1.0), (-1e-300, 1e-300))
        cv = perturbed_curve(base, BumpSum((Bump.central(*base.domain),), (1.0,)), EMPTY, 0.1)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NumericalFailure, match="not finite"):
            make_constrained_variation(cv, 0)


class TestFieldSamples:
    """A variation samples its curve on first use; a drawn one comes with the samples its
    constraint was corrected on, which are the ones it would take itself."""

    U = DirectionSpec(0.3)

    @pytest.mark.parametrize("panels", [64, 16])
    @pytest.mark.parametrize("name", BUILDERS)
    def test_drawn_samples_give_the_bits_of_fresh_ones(self, name, panels):
        curve = BUILDERS[name]()
        for seed in range(5):
            var = make_constrained_variation(curve, seed, panels)
            assert var.curve is curve and var.panels == panels
            # Only a fixer that joined delta_z leaves the draw's rule the field's.
            drawn = "samples" in vars(var)
            assert drawn == (len(var.delta_z.bumps) > variational.RANDOM_BUMPS)
            assert drawn == (name not in ("alpha0-plus", "alpha0-minus"))
            fv = first_variation(var, self.U, 0.5)
            assert (fv.re, fv.du) == fresh_first_variation(var, self.U, 0.5)

    @pytest.mark.parametrize("name", ["alpha1", "alpha-1", "solve", "perturbed"])
    def test_replaced_fields_sample_afresh(self, monkeypatch, name):
        curve = BUILDERS[name]()
        var = make_constrained_variation(curve, 2)
        assert "samples" in vars(var)
        doubled = BumpSum(var.delta_z.bumps, tuple(2.0 * k for k in var.delta_z.coeffs))
        cases = {
            "another delta_z": dataclasses.replace(var, delta_z=doubled),
            "same parameters, another curve": dataclasses.replace(var, curve=BUILDERS[name]()),
            "other panels": dataclasses.replace(var, panels=16),
        }
        for case, field in cases.items():
            assert field == VariationField(field.curve, field.delta_y, field.delta_z, field.panels), case
            with monkeypatch.context() as patch:
                rules = count_calls(patch, quadrature, "partitioned_nodes")
                fv = [(d.re, d.du) for d in (first_variation(field, self.U, 0.5), first_variation(field, self.U, 0.5))]
            assert len(rules) == 1, case
            assert fv == 2 * [fresh_first_variation(field, self.U, 0.5)], case
        assert cases["same parameters, another curve"].curve is not curve

    def test_eq_hash_and_repr_ignore_the_curve_and_the_samples(self):
        var = make_constrained_variation(BUILDERS["alpha1"](), 0)
        other = VariationField(BUILDERS["alpha-1"](), var.delta_y, var.delta_z)
        assert "samples" in vars(var) and "samples" not in vars(other)
        assert var == other and hash(var) == hash(other) and repr(var) == repr(other)
        assert "curve" not in repr(var) and "samples" not in repr(var)
        assert var != dataclasses.replace(var, panels=16)

    @pytest.mark.parametrize("name", ["alpha1", "alpha0-plus", "perturbed"])
    def test_hand_built_constraint_is_the_rule_on_its_own_samples(self, name):
        curve = BUILDERS[name]()
        dy = BumpSum((Bump(-0.3, 0.2),), (0.04,))
        dz = BumpSum((Bump(0.2, 0.3), Bump(-0.5, 0.15)), (-0.03, 0.02))
        var = VariationField(curve, dy, dz, 16)
        x, wts = partitioned_nodes(*curve.domain, curve.breakpoints + dy.edges() + dz.edges(), 16)
        yp, zp = np.asarray(curve.y.deriv(x), float), np.asarray(curve.z.deriv(x), float)
        assert var.constraint == quadrature.integrate(wts, yp * dz.deriv(x) + zp * dy.deriv(x))


class TestNoReferenceCycles:
    """Curves are freed by reference counting alone, so their tables do not
    wait for the cycle collector."""

    def assert_freed_on_del(self, make, use=lambda curve: curve.w.value(0.1)):
        gc.collect()
        gc.disable()
        try:
            curve = make()
            use(curve)  # builds w's table by default
            ref = weakref.ref(curve)
            del curve
            assert ref() is None
        finally:
            gc.enable()

    def test_solved_curve(self):
        self.assert_freed_on_del(lambda: solve_curve(0.5, InitialData(0.0, 1.0, 0.1, 0.2, 0.1), (-0.5, 0.5)))

    def test_perturbed_curve(self):
        base = catenary_alpha1(CatenaryParams(alpha=1.0, v=0.5, d2=0.6))
        bump = BumpSum((Bump(0.0, 0.6),), (1.0,))
        self.assert_freed_on_del(lambda: perturbed_curve(base, bump, bump, 0.1))

    @pytest.mark.parametrize("make", [
        lambda: catenary_alpha1(CatenaryParams(alpha=1.0, v=0.5, d2=0.6)),
        lambda: solve_curve(0.5, InitialData(0.0, 1.0, 0.1, 0.2, 0.1), (-0.5, 0.5)),
    ], ids=("closed", "solved"))
    def test_curve_after_arc_length(self, make):
        # The arc-length table the curve caches on itself holds y, not the curve.
        self.assert_freed_on_del(make, lambda curve: curve.x_at_arclength(0.5))


class TestReport:
    def test_residuals_and_summary(self):
        cv = catenary_alpha1(CatenaryParams(alpha=1.0, c=2.0, v=0.5, d1=0.3))
        rep = residual_report(cv, 1.0, DirectionSpec(0.5), num=101)
        assert set(rep.residuals) == {
            "admissibility", "el_real", "el_dual",
            "first_integral", "characterization_re", "characterization_du",
        }
        assert len(rep.grid) == 101
        assert rep.c_used == 2.0
        assert max(rep.max_abs.values()) < 1e-12

    @pytest.mark.parametrize("num", [1, 0, -1, 2.5])
    def test_rejects_fewer_than_two_points(self, num):
        with pytest.raises(InvalidParams, match="num >= 2"):
            residual_report(closed_form(CatenaryParams(alpha=1.0)), 1.0, VERTICAL, num=num)

    @pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf])
    def test_non_finite_alpha_rejected(self, alpha):
        # On this catenary y(0) = 1, so the first-integral constant read there
        # is finite for any alpha: without the checks a NaN alpha reaches every sum.
        cv = closed_form(CatenaryParams(alpha=1.0))
        var = make_constrained_variation(cv, 0)
        for evaluate in (
            lambda: energy(cv, VERTICAL, alpha),
            lambda: first_variation(var, VERTICAL, alpha),
            lambda: residual_report(cv, alpha, VERTICAL),
        ):
            with pytest.raises(InvalidParams, match="finite"):
                evaluate()

    def test_never_reads_w_values(self):
        # Every residual reads w only through its derivatives, so building
        # the report must not build a solved or perturbed curve's w table.
        rep = residual_report(curve_without_w_values(), 1.0, VERTICAL, num=101)
        assert rep.c_used == pytest.approx(1.0, abs=1e-15)
        assert max(rep.max_abs.values()) < 1e-12

    def test_pointwise_matches_scalar_ops(self):
        cv = catenary_alpha_minus1(CatenaryParams(alpha=-1.0, R=1.5, v=0.4, d1=0.2, d2=0.7))
        u = DirectionSpec(0.4)
        rep = residual_report(cv, -1.0, u, num=11)
        kappa = cv.curvature(rep.grid)
        for i, x in enumerate(rep.grid):
            k = cv.curvature(float(x))
            r = cv.characterization_residual(-1.0, u, float(x))
            assert kappa.re[i] == k.re
            assert kappa.du[i] == k.du
            assert rep.residuals["characterization_re"][i] == r.re
            assert rep.residuals["characterization_du"][i] == r.du
            assert rep.residuals["admissibility"][i] == cv.admissibility_residual(float(x))

    @pytest.mark.parametrize("curve, alpha, u, names", [
        # cosh is not stationary at exponent 2, and z = x adds a dual defect.
        (GraphCurve((-1.0, 1.0), Coordinate(np.cosh, np.sinh, np.cosh), Coordinate.constant(0.0),
                    Coordinate.linear(1.0, 0.0)), 2.0, DirectionSpec(0.3), ("el_real", "el_dual")),
        # A catenary with the wrong tilt: its graph stays stationary.
        (catenary_alpha1(CatenaryParams(alpha=1.0, v=0.5, d1=0.3, d2=-0.4)), 1.0, DirectionSpec(1.3), ("el_dual",)),
        # The arc checked at exponent 1.
        (catenary_alpha_minus1(CatenaryParams(alpha=-1.0, R=1.5, v=0.4, d2=0.7)), 1.0, DirectionSpec(0.4),
         ("el_real", "el_dual")),
    ], ids=("cosh-alpha2", "wrong-v", "arc-alpha1"))
    def test_el_rows_match_component_references(self, curve, alpha, u, names):
        rep = residual_report(curve, alpha, u, num=101)
        refs = {"el_real": el_residual_real(curve, alpha, rep.grid),
                "el_dual": el_residual_dual(curve, alpha, u, rep.grid)}
        for name in names:
            ref = refs[name]
            assert np.max(np.abs(ref)) > 0.1  # the residual is O(1) here
            assert np.max(np.abs(rep.residuals[name] - ref)) <= 1e-13 * np.max(np.abs(ref))

    @pytest.mark.parametrize("make", [
        lambda: catenary_alpha1(CatenaryParams(alpha=1.0, v=0.5, d1=0.3)),
        lambda: solve_curve(0.5, InitialData(0.0, 1.0, 0.1, 0.2, 0.1), (-0.5, 0.5), 0.3),
    ], ids=("closed", "solved"))
    def test_second_derivatives_read_once(self, make):
        curve = make()
        calls = {"y": 0, "z": 0}

        def spy(name):
            coord = getattr(curve, name)
            d2 = coord.deriv2

            def counted(x):
                calls[name] += 1
                return d2(x)

            coord.deriv2 = counted

        spy("y")
        spy("z")
        residual_report(curve, 0.5, DirectionSpec(0.3))
        assert calls == {"y": 1, "z": 1}

    def test_solve_maxima_include_knot_cell_gauss_points(self):
        u = DirectionSpec(0.3)
        cv = solve_curve(1.0, InitialData(0.0, 1.0, 0.0, 0.2, 0.1), (-1.0, 1.0), 0.3, step=0.05)
        rep = residual_report(cv, 1.0, u, num=41)
        # The rows stay on the grid, where every sample is a knot.
        assert len(rep.grid) == 41 and all(len(r) == 41 for r in rep.residuals.values())
        assert np.max(np.abs(rep.residuals["el_dual"])) < 1e-12
        g = cv.y.grid
        h, mid = np.diff(g), 0.5 * (g[:-1] + g[1:])
        gauss = np.concatenate((mid - h / (2.0 * math.sqrt(3.0)), mid + h / (2.0 * math.sqrt(3.0))))
        want = float(np.max(np.abs(el_residual_dual(cv, 1.0, u, gauss))))
        assert want > 1e-6
        assert rep.max_abs["el_dual"] == pytest.approx(want, abs=1e-13)
        assert rep.max_abs["el_real"] == pytest.approx(float(np.max(np.abs(el_residual_real(cv, 1.0, gauss)))), abs=1e-13)
