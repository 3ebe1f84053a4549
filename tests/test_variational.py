"""Energy, Euler-Lagrange residuals, constrained variations."""

import math
import time

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
    InvalidParams,
    NumericalFailure,
    VariationField,
    catenary_alpha0,
    catenary_alpha1,
    catenary_alpha_minus1,
    el_residual_dual,
    el_residual_real,
    energy,
    first_integral_residual,
    first_variation,
    infer_c,
    closed_form,
    make_constrained_variation,
    multiplier_residual,
    perturbed_curve,
    residual_report,
)
from dualcat.quadrature import partitioned_nodes

VERTICAL = DirectionSpec(0.0)
EMPTY = BumpSum((), ())


def cosh_graph(domain=(-1.0, 1.0)) -> GraphCurve:
    y = Coordinate(np.cosh, np.sinh, np.cosh)
    return GraphCurve(domain, y, Coordinate.constant(0.0), Coordinate.constant(0.0))


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
        def no_w(x):
            raise AssertionError("w.value evaluated")

        y = Coordinate(np.cosh, np.sinh, np.cosh)
        cv = GraphCurve((-1.0, 1.0), y, Coordinate(no_w, np.zeros_like, np.zeros_like), Coordinate.constant(0.0))
        assert energy(cv, VERTICAL, 1.0).e0 == pytest.approx(1.0 + math.sinh(2.0) / 2.0, abs=1e-12)
        fv = first_variation(cv, make_constrained_variation(cv, 0), VERTICAL, 1.0)
        assert abs(fv.re) <= 1e-6 and abs(fv.du) <= 1e-6

    def test_rejects_nonpositive_height(self):
        cv = catenary_alpha0(CatenaryParams(alpha=0.0, c=math.sqrt(2.0), m=0.0), (-2.0, 2.0))
        with pytest.raises(DomainError):
            energy(cv, VERTICAL, 0.0)


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
        assert np.max(np.abs(first_integral_residual(cv, 1.0, 1.0, xs))) < 1e-14
        doubled = catenary_alpha1(CatenaryParams(alpha=1.0, c=2.0))
        assert infer_c(doubled, 1.0, 0.0) == pytest.approx(2.0, rel=1e-15)
        with pytest.raises(InvalidParams):
            first_integral_residual(cv, 1.0, 0.0, 0.0)

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
        ep = energy(perturbed_curve(base, delta, EMPTY, +h), VERTICAL, alpha, breakpoints=delta.edges())
        em = energy(perturbed_curve(base, delta, EMPTY, -h), VERTICAL, alpha, breakpoints=delta.edges())
        fd = (ep.e0 - em.e0) / (2.0 * h)
        assert fd == pytest.approx(oracle, abs=1e-8)

        fv = first_variation(base, VariationField(delta, EMPTY, 0.0), VERTICAL, alpha)
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
            fv = first_variation(curve, VariationField(EMPTY, delta, 0.0), DirectionSpec(v), alpha)
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
            x, wts = partitioned_nodes(a, b, dy.edges() + dz.edges())
            yp, zp = np.asarray(cv.y.deriv(x), float), np.asarray(cv.z.deriv(x), float)
            assert var.constraint == float(np.dot(wts, yp * dz.deriv(x) + zp * dy.deriv(x)))

    def test_degenerate_seed_rejected(self):
        # y' even and z' = 0 make the fixer integral vanish while the raw
        # constraint does not: no single-bump correction can absorb it.
        y = Coordinate(lambda x: np.sinh(x) + 2.0, np.cosh, np.sinh)
        cv = GraphCurve((-1.0, 1.0), y, Coordinate.constant(0.0), Coordinate.constant(0.0))
        with pytest.raises(DegenerateVariation):
            for seed in range(10):
                make_constrained_variation(cv, seed)

    def test_stationary_first_variation_vanishes(self):
        cases = [
            (catenary_alpha1(CatenaryParams(alpha=1.0, c=1.3, v=0.8, d1=0.4, d2=-0.3, d3=0.2)), 1.0, 0.8),
            (catenary_alpha0(CatenaryParams(alpha=0.0, c=1.6, m=3.0, v=-0.5, d1=0.7, d2=0.1)), 0.0, -0.5),
            (catenary_alpha_minus1(CatenaryParams(alpha=-1.0, R=2.0, m=0.2, v=0.6, d1=-0.9, d2=0.5)), -1.0, 0.6),
        ]
        for cv, alpha, v in cases:
            u = DirectionSpec(v)
            for seed in range(8):
                fv = first_variation(cv, make_constrained_variation(cv, seed), u, alpha)
                assert abs(fv.re) <= 1e-6
                assert abs(fv.du) <= 1e-6

    def test_perturbation_breaks_stationarity(self):
        cv = catenary_alpha1(CatenaryParams(alpha=1.0))
        pert = perturbed_curve(cv, BumpSum((Bump(0.0, 0.6),), (1.0,)), EMPTY, 0.1)
        responses = [
            abs(first_variation(pert, make_constrained_variation(pert, seed), VERTICAL, 1.0).re)
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
            fv = first_variation(cv, var, u, 1.0)
            breaks = var.delta_y.edges() + var.delta_z.edges()
            for h in (1e-4, 5e-5):
                ep = energy(perturbed_curve(cv, var.delta_y, var.delta_z, +h), u, 1.0, breakpoints=breaks)
                em = energy(perturbed_curve(cv, var.delta_y, var.delta_z, -h), u, 1.0, breakpoints=breaks)
                fd = (ep.total - em.total) * (0.5 / h)
                assert abs(fv.re - fd.re) <= 1e-9
                assert abs(fv.du - fd.du) <= 1e-9


class TestPerturbedCurve:
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

    def test_report_w_column_from_one_table(self):
        base = closed_form(CatenaryParams(alpha=1.0, c=1.3, v=0.8, d1=0.4))
        t0 = time.perf_counter()
        pert = perturbed_curve(base, Bump(0.0, 0.6), EMPTY, 0.1)
        rep = residual_report(pert, 1.0, DirectionSpec(0.8))
        assert time.perf_counter() - t0 < 0.05
        a, _ = pert.domain
        steps = [quad(pert.w.deriv, lo, hi, epsabs=1e-14, epsrel=1e-14)[0]
                 for lo, hi in zip(rep.grid[:-1], rep.grid[1:])]
        want = base.w.value(a) + np.concatenate(([0.0], np.cumsum(steps)))
        assert np.max(np.abs(rep.columns["w"] - want)) <= 1e-10


class TestReport:
    def test_columns_and_summary(self):
        cv = catenary_alpha1(CatenaryParams(alpha=1.0, c=2.0, v=0.5, d1=0.3))
        rep = residual_report(cv, 1.0, DirectionSpec(0.5), num=101)
        assert set(rep.columns) == {
            "x", "y", "w", "z", "yp", "zp",
            "kappa_re", "kappa_du", "char_res_re", "char_res_du", "admis_res",
        }
        assert len(rep.grid) == 101
        assert rep.c_used == 2.0
        assert max(rep.max_abs.values()) < 1e-12

    def test_pointwise_matches_scalar_ops(self):
        cv = catenary_alpha_minus1(CatenaryParams(alpha=-1.0, R=1.5, v=0.4, d1=0.2, d2=0.7))
        u = DirectionSpec(0.4)
        rep = residual_report(cv, -1.0, u, num=11)
        for i, x in enumerate(rep.grid):
            k = cv.curvature(float(x))
            r = cv.characterization_residual(-1.0, u, float(x))
            assert rep.columns["kappa_re"][i] == k.re
            assert rep.columns["kappa_du"][i] == k.du
            assert rep.columns["char_res_re"][i] == r.re
            assert rep.columns["char_res_du"][i] == r.du
            assert rep.columns["admis_res"][i] == cv.admissibility_residual(float(x))

    def test_explicit_c_override(self):
        cv = catenary_alpha1(CatenaryParams(alpha=1.0, c=2.0))
        rep = residual_report(cv, 1.0, VERTICAL, c=1.0)
        assert rep.c_used == 1.0
        assert rep.max_abs["first_integral"] > 0.1
