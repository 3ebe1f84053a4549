"""Closed-form catenary families: values, derivatives, validation, symmetry."""

import math

import numpy as np
import pytest

from dualcat import (
    CatenaryParams,
    ClosedForm,
    DirectionSpec,
    DomainError,
    InvalidParams,
    catenary_alpha0,
    catenary_alpha1,
    catenary_alpha_minus1,
    closed_form,
    first_integral_residual,
    residual_report,
    reversed_catenary,
)
from dualcat.closed_forms import FAMILIES
from references import el_residual_dual, el_residual_real, multiplier_residual

GRID = np.linspace(-1.0, 1.0, 201)


class TestAlpha1:
    def test_standard_catenary(self):
        cv = catenary_alpha1(CatenaryParams(alpha=1.0))
        assert cv.y.value(0.0) == 1.0
        assert cv.y.value(1.0) == math.cosh(1.0)
        assert cv.w.value(0.7) == 0.0 and cv.z.value(0.7) == 0.0

    def test_tilt_produces_rotation_pair(self):
        # v = 1, c = 1: w = cosh x, z = -x
        cv = catenary_alpha1(CatenaryParams(alpha=1.0, v=1.0))
        for x in (-0.8, 0.0, 0.5):
            assert cv.w.value(x) == pytest.approx(math.cosh(x), rel=1e-15)
            assert cv.z.value(x) == -x

    def test_z_slope_at_apex(self):
        cv = catenary_alpha1(CatenaryParams(alpha=1.0, c=2.0, d2=1.0))
        assert cv.z.value(0.0) == 0.0
        assert cv.z.deriv(0.0) == 2.0

    def test_derivatives_against_finite_differences(self):
        cv = catenary_alpha1(CatenaryParams(alpha=1.0, c=1.4, m=-0.3, v=0.8, d1=1.2, d2=-0.6, d3=0.4))
        h = 1e-5
        for coord in (cv.y, cv.w, cv.z):
            for x in (-0.6, 0.1, 0.9):
                fd1 = (coord.value(x + h) - coord.value(x - h)) / (2 * h)
                fd2 = (coord.value(x + h) - 2 * coord.value(x) + coord.value(x - h)) / h**2
                assert coord.deriv(x) == pytest.approx(fd1, abs=5e-9)
                assert coord.deriv2(x) == pytest.approx(fd2, abs=5e-5)

    def test_invalid_c(self):
        with pytest.raises(InvalidParams):
            catenary_alpha1(CatenaryParams(alpha=1.0, c=0.0))
        with pytest.raises(InvalidParams):
            catenary_alpha1(CatenaryParams(alpha=1.0, c=-2.0))

    @pytest.mark.parametrize(
        "c, m, domain",
        [
            (1000.0, 0.0, (-1.0, 1.0)),  # cosh(1000) overflows
            (1.0, 0.0, (0.0, 800.0)),  # overflow at one end of a long domain
            (1.0, -720.0, (-1.0, 1.0)),  # the shift alone
            (1e-310, 0.0, (-1.0, 1.0)),  # y = cosh/c overflows
            (1e154, 0.0, (0.0, 3.6e-152)),  # y'' = c*cosh(360) overflows, y and c**2 do not
        ],
    )
    def test_overflowing_formula_rejected(self, c, m, domain):
        with pytest.raises(InvalidParams, match="overflows"):
            catenary_alpha1(CatenaryParams(alpha=1.0, c=c, m=m), domain)

    def test_even_symmetry_is_exact(self):
        cv = catenary_alpha1(CatenaryParams(alpha=1.0, c=1.3, d2=0.7))
        for x in (0.2, 0.5, 0.9):
            assert cv.y.value(-x) == cv.y.value(x)
            assert cv.z.value(-x) == -cv.z.value(x)


class TestAlpha0:
    def test_worked_example(self):
        # c = sqrt(2), m = 1, d1 = 1: y = x + 1, z = x, w = -x
        cv = catenary_alpha0(CatenaryParams(alpha=0.0, c=math.sqrt(2.0), m=1.0, d1=1.0))
        for x in (0.0, 0.5, -0.25):
            assert cv.y.value(x) == pytest.approx(x + 1.0, rel=1e-15)
            assert cv.z.value(x) == x
            assert cv.w.value(x) == pytest.approx(-x, abs=1e-15)
        assert np.max(np.abs(cv.admissibility_residual(GRID))) == 0.0

    def test_degenerate_horizontal_line(self):
        cv = catenary_alpha0(CatenaryParams(alpha=0.0, c=1.0, m=2.0))
        assert cv.y.value(0.9) == 2.0
        assert cv.y.deriv(0.9) == 0.0

    def test_branch_sign(self):
        plus = catenary_alpha0(CatenaryParams(alpha=0.0, c=2.0, m=5.0, branch="plus"))
        minus = catenary_alpha0(CatenaryParams(alpha=0.0, c=2.0, m=5.0, branch="minus"))
        assert plus.y.deriv(0.0) == math.sqrt(3.0)
        assert minus.y.deriv(0.0) == -math.sqrt(3.0)

    def test_validation(self):
        with pytest.raises(InvalidParams):
            catenary_alpha0(CatenaryParams(alpha=0.0, c=0.5))
        with pytest.raises(InvalidParams):
            catenary_alpha0(CatenaryParams(alpha=0.0, c=2.0, branch="left"))


class TestAlphaMinus1:
    def test_unit_circle_values(self):
        cv = catenary_alpha_minus1(CatenaryParams(alpha=-1.0, R=1.0))
        assert cv.y.value(0.0) == 1.0
        assert cv.y.value(0.6) == pytest.approx(0.8, rel=1e-15)
        assert cv.curvature(0.0).re == -1.0

    def test_rotation_pair_from_d1(self):
        # d1 = 1, v = 0: z = t, w = -y
        cv = catenary_alpha_minus1(CatenaryParams(alpha=-1.0, R=1.0, d1=1.0))
        for x in (-0.5, 0.0, 0.7):
            assert cv.z.value(x) == x
            assert cv.w.value(x) == pytest.approx(-math.sqrt(1 - x * x), rel=1e-15)

    def test_d2_component_at_center(self):
        cv = catenary_alpha_minus1(CatenaryParams(alpha=-1.0, R=2.0, d2=1.0))
        assert cv.z.value(0.0) == 2.0
        assert cv.z.deriv(0.0) == 0.0

    def test_default_domain_clips_rim(self):
        cv = catenary_alpha_minus1(CatenaryParams(alpha=-1.0, R=2.0, m=0.5))
        a, b = cv.domain
        assert a == pytest.approx(0.5 - 2.0 + 2e-3)
        assert b == pytest.approx(0.5 + 2.0 - 2e-3)

    def test_domain_guards(self):
        p = CatenaryParams(alpha=-1.0, R=1.0)
        with pytest.raises(DomainError):
            catenary_alpha_minus1(p, (-1.0, 0.9))
        with pytest.raises(DomainError):
            catenary_alpha_minus1(p, (-0.5, 1.2))
        with pytest.raises(InvalidParams):
            catenary_alpha_minus1(CatenaryParams(alpha=-1.0, R=0.0))

    def test_derivatives_against_finite_differences(self):
        cv = catenary_alpha_minus1(
            CatenaryParams(alpha=-1.0, R=1.8, m=0.2, v=-0.7, d1=0.9, d2=1.1, d3=-0.3)
        )
        h = 1e-5
        for coord in (cv.y, cv.w, cv.z):
            for x in (-1.2, 0.0, 1.5):
                fd1 = (coord.value(x + h) - coord.value(x - h)) / (2 * h)
                fd2 = (coord.value(x + h) - 2 * coord.value(x) + coord.value(x - h)) / h**2
                assert coord.deriv(x) == pytest.approx(fd1, abs=5e-9)
                assert coord.deriv2(x) == pytest.approx(fd2, abs=5e-4)


class TestDispatchAndResiduals:
    def test_dispatch(self):
        assert closed_form(CatenaryParams(alpha=1.0)).y.value(0.0) == 1.0
        assert closed_form(CatenaryParams(alpha=0.0, m=1.0)).y.value(0.0) == 1.0
        assert closed_form(CatenaryParams(alpha=-1.0)).y.value(0.0) == 1.0
        with pytest.raises(InvalidParams):
            closed_form(CatenaryParams(alpha=2.0))

    def test_source_tag(self):
        # The tag holds the exponent and the first-integral constant: R for the arc.
        assert catenary_alpha1(CatenaryParams(alpha=1.0, c=2.0, d1=0.5)).source == ClosedForm(1.0, 2.0)
        assert catenary_alpha0(CatenaryParams(alpha=0.0, c=1.5, m=3.0)).source == ClosedForm(0.0, 1.5)
        assert catenary_alpha_minus1(CatenaryParams(alpha=-1.0, c=3.0, R=2.0)).source == ClosedForm(-1.0, 2.0)
        # The family constructor decides the tag, whatever exponent the params carry.
        assert catenary_alpha1(CatenaryParams(alpha=7.0)).source == ClosedForm(1.0, 1.0)

    def test_families_pick_their_own_domain(self):
        assert FAMILIES == {1.0: catenary_alpha1, 0.0: catenary_alpha0, -1.0: catenary_alpha_minus1}
        assert closed_form(CatenaryParams(alpha=1.0)).domain == (-1.0, 1.0)
        assert closed_form(CatenaryParams(alpha=0.0, m=3.0)).domain == (-1.0, 1.0)
        assert closed_form(CatenaryParams(alpha=-1.0, R=2.0)).domain == (-1.998, 1.998)

    @pytest.mark.parametrize(
        "params,domain",
        [
            (CatenaryParams(alpha=1.0, c=2.5, m=0.4, v=1.5, d1=-1.2, d2=0.8, d3=2.0), (-1.0, 1.0)),
            (CatenaryParams(alpha=0.0, c=1.8, m=4.0, v=-0.9, d1=1.1, d2=-0.5, d3=0.2), (-1.0, 1.0)),
            (CatenaryParams(alpha=-1.0, R=2.2, m=-0.3, v=0.6, d1=1.4, d2=-1.7, d3=0.9), (-2.0, 1.5)),
        ],
    )
    def test_all_residuals_vanish(self, params, domain):
        cv = closed_form(params, domain)
        rep = residual_report(cv, params.alpha, DirectionSpec(params.v))
        assert max(rep.max_abs.values()) < 1e-12
        c = params.R if params.alpha == -1.0 else params.c
        xs = rep.grid
        assert np.max(np.abs(multiplier_residual(cv, params.alpha, c, xs))) < 1e-12
        assert np.max(np.abs(first_integral_residual(cv.y.value(xs), cv.y.deriv(xs), params.alpha, c))) < 1e-12


class TestReversed:
    def test_components(self):
        base = catenary_alpha1(CatenaryParams(alpha=1.0))
        rev = reversed_catenary(1.0, base.y, 2.0, base.domain)
        for x in (-0.4, 0.0, 0.9):
            assert rev.w.value(x) == pytest.approx(2.0 * math.cosh(x), rel=1e-15)
            assert rev.z.value(x) == -2.0 * x

    @pytest.mark.parametrize("v", [math.nan, math.inf, -math.inf])
    def test_rejects_a_tilt_that_is_not_finite(self, v):
        # Without the check z and w would be NaN everywhere.
        base = catenary_alpha1(CatenaryParams(alpha=1.0))
        with pytest.raises(InvalidParams, match="v must be finite"):
            reversed_catenary(1.0, base.y, v, base.domain, 1.0)

    def test_admissible_and_purely_real_curvature(self):
        base = catenary_alpha_minus1(CatenaryParams(alpha=-1.0, R=1.5))
        rev = reversed_catenary(-1.0, base.y, 0.8, base.domain, c=base.source.c)
        assert rev.source == ClosedForm(-1.0, 1.5)
        xs = np.linspace(*rev.domain, 101)
        assert np.max(np.abs(rev.admissibility_residual(xs))) == 0.0
        for x in xs[::10]:
            assert rev.curvature(float(x)).du == 0.0

    def test_solves_dual_equation_for_any_exponent(self):
        base = catenary_alpha1(CatenaryParams(alpha=1.0))
        u = DirectionSpec(1.3)
        rev = reversed_catenary(1.0, base.y, 1.3, base.domain)
        xs = np.linspace(-1.0, 1.0, 101)
        assert np.max(np.abs(el_residual_dual(rev, 1.0, u, xs))) < 1e-13
        assert np.max(np.abs(el_residual_real(rev, 1.0, xs))) < 1e-13
