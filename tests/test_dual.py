"""Dual-number algebra: exact identities, lifted functions, vectors."""

import math
import operator

import numpy as np
import pytest
from hypothesis import given, strategies as st

from dualcat import (
    DirectionSpec, DomainError, DualScalar, DualVec2, InvalidParams, ZeroRealPart, dual_dot, dual_norm,
)
from lifted import ARCSIN, COSH, EXP, SECH, SINH, SQRT, TANH, compose, lift, pow_alpha

finite = st.floats(min_value=-100.0, max_value=100.0, allow_nan=False)
duals = st.builds(DualScalar, finite, finite)


def ulps_apart(got: float, want: float, scale: float) -> float:
    return abs(got - want) / math.ulp(max(abs(want), scale, 1e-30))


class TestArithmetic:
    def test_product_rule(self):
        assert DualScalar(1, 2) * DualScalar(3, 4) == DualScalar(3, 10)

    def test_nilpotent_square(self):
        eps = DualScalar(0.0, 7.5)
        assert eps * eps == DualScalar(0.0, 0.0)

    def test_add_sub_neg(self):
        a, b = DualScalar(2, -1), DualScalar(0.5, 3)
        assert a + b == DualScalar(2.5, 2)
        assert a - b == DualScalar(1.5, -4)
        assert -a == DualScalar(-2, 1)
        assert a + (-a) == DualScalar(0.0, 0.0)

    def test_float_promotion(self):
        a = DualScalar(2, 3)
        assert 2.0 * a == DualScalar(4, 6)
        assert a + 1 == DualScalar(3, 3)
        assert 1 - a == DualScalar(-1, -3)
        assert a / 2 == DualScalar(1, 1.5)

    def test_division_inverts_multiplication(self):
        num, den = DualScalar(3, 10), DualScalar(3, 4)
        assert num / den == DualScalar(1, 2)

    def test_division_by_real_identity(self):
        a = DualScalar(-1.25, 0.75)
        assert a / DualScalar(1.0, 0.0) == a

    def test_division_formula(self):
        # (1 + 0e)/(2 + 6e) = 1/2 - (6/4)e; check against direct multiplication
        q = DualScalar(1, 0) / DualScalar(2, 6)
        assert q == DualScalar(0.5, -1.5)
        back = q * DualScalar(2, 6)
        assert abs(back.re - 1.0) < 1e-15 and abs(back.du) < 1e-15

    def test_zero_real_part_raises(self):
        with pytest.raises(ZeroRealPart):
            DualScalar(1, 1) / DualScalar(0.0, 5.0)
        with pytest.raises(ZeroRealPart):
            dual_norm(DualVec2((0.0, 0.0), (1.0, 2.0)))


class TestLift:
    def test_cosh_at_origin(self):
        assert lift(COSH, DualScalar(0, 1)) == DualScalar(1.0, 0.0)

    def test_square_matches_self_product(self):
        x = DualScalar(3, 1)
        assert lift(pow_alpha(2.0), x) == x * x == DualScalar(9, 6)

    def test_sqrt_against_central_difference(self):
        x = DualScalar(4.0, 2.0)
        got = lift(SQRT, x)
        h = 1e-6
        fd = (math.sqrt(4.0 + h) - math.sqrt(4.0 - h)) / (2.0 * h)
        assert got.re == 2.0
        assert got.du == pytest.approx(2.0 * fd, abs=1e-9)
        assert got.du == pytest.approx(0.5, abs=1e-12)

    def test_sech_is_reciprocal_cosh(self):
        for t in (-2.0, -0.3, 0.0, 1.7):
            assert SECH.f(t) == 1.0 / math.cosh(t)
            assert SECH.df(t) == pytest.approx(-math.tanh(t) / math.cosh(t), rel=1e-15)

    def test_exp_tanh_derivatives(self):
        x = DualScalar(0.5, 1.0)
        assert lift(EXP, x).du == pytest.approx(math.exp(0.5), rel=1e-15)
        assert lift(TANH, x).du == pytest.approx(1.0 / math.cosh(0.5) ** 2, rel=1e-15)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            lift(SQRT, DualScalar(-1.0, 1.0))
        with pytest.raises(DomainError):
            lift(SQRT, DualScalar(0.0, 1.0))
        with pytest.raises(DomainError):
            lift(ARCSIN, DualScalar(1.5, 0.0))
        with pytest.raises(DomainError):
            lift(ARCSIN, DualScalar(1.0, 0.0))
        with pytest.raises(DomainError):
            lift(pow_alpha(0.5), DualScalar(-2.0, 1.0))
        with pytest.raises(DomainError):
            lift(pow_alpha(-2.0), DualScalar(0.0, 1.0))

    def test_pow_integer_at_negative_base(self):
        got = lift(pow_alpha(3.0), DualScalar(-2.0, 1.0))
        assert got == DualScalar(-8.0, 12.0)

    def test_pow_zero_exponent(self):
        assert lift(pow_alpha(0.0), DualScalar(3.0, 5.0)) == DualScalar(1.0, 0.0)

    def test_compose_matches_nested_lift(self):
        fg = compose(COSH, SINH)
        x = DualScalar(0.7, 1.3)
        nested = lift(COSH, lift(SINH, x))
        direct = lift(fg, x)
        assert direct.re == nested.re
        assert direct.du == pytest.approx(nested.du, rel=1e-14)


class TestVectors:
    def test_dot_with_tilted_vertical(self):
        # <(0,1) + e(v,0), (x,y) + e(w,z)> = y + (z + v*x) e
        u = DirectionSpec(0.5).vector
        g = DualVec2((2.0, 3.0), (4.0, 5.0))
        assert dual_dot(u, g) == DualScalar(3.0, 5.0 + 0.5 * 2.0)

    def test_dot_self(self):
        a = DualVec2((3, 4), (1, 0))
        assert dual_dot(a, a) == DualScalar(25.0, 6.0)

    def test_norm(self):
        assert dual_norm(DualVec2((3, 4), (1, 0))) == DualScalar(5.0, 0.6)
        assert dual_norm(DualVec2((1, 0), (0, 7))) == DualScalar(1.0, 0.0)

    def test_norm_matches_lifted_sqrt_of_dot(self):
        a = DualVec2((1.5, -2.0), (0.3, 0.9))
        via_sqrt = lift(SQRT, dual_dot(a, a))
        direct = dual_norm(a)
        assert direct.re == pytest.approx(via_sqrt.re, rel=1e-15)
        assert direct.du == pytest.approx(via_sqrt.du, rel=1e-14)

    def test_vector_ops(self):
        a = DualVec2((1, 2), (3, 4))
        b = DualVec2((5, 6), (7, 8))
        assert a + b == DualVec2((6, 8), (10, 12))
        assert b - a == DualVec2((4, 4), (4, 4))
        s = DualScalar(2, 1)
        assert a.scale(s) == DualVec2((2, 4), (1 * 1 + 2 * 3, 1 * 2 + 2 * 4))


class TestArrays:
    def test_elementwise_matches_scalars(self):
        rng = np.random.default_rng(3)
        a_re, a_du, b_re, b_du = rng.uniform(-5.0, 5.0, (4, 40))
        b_re += np.copysign(0.5, b_re)  # keep divisors away from zero
        a, b = DualScalar(a_re, a_du), DualScalar(b_re, b_du)
        for op in (operator.add, operator.sub, operator.mul, operator.truediv):
            grid = op(a, b)
            for i in range(40):
                pt = op(DualScalar(float(a_re[i]), float(a_du[i])), DualScalar(float(b_re[i]), float(b_du[i])))
                assert (grid.re[i], grid.du[i]) == (pt.re, pt.du)
        v = DualVec2((a_re, b_re), (a_du, b_du))
        grid = dual_norm(v)
        for i in range(40):
            pt = dual_norm(DualVec2((float(a_re[i]), float(b_re[i])), (float(a_du[i]), float(b_du[i]))))
            assert (grid.re[i], grid.du[i]) == (pt.re, pt.du)

    def test_array_on_the_left(self):
        got = np.array([1.0, 2.0]) * DualScalar(np.array([3.0, 4.0]), 1.0)
        assert isinstance(got, DualScalar)
        assert got.re.tolist() == [3.0, 8.0] and got.du.tolist() == [1.0, 2.0]

    def test_scalar_parts_stay_floats(self):
        assert type((DualScalar(2.0, 1.0) ** 0.5).re) is float
        assert type(dual_norm(DualVec2((3.0, 4.0), (1.0, 0.0))).re) is float

    def test_zero_real_part_anywhere_raises(self):
        with pytest.raises(ZeroRealPart):
            DualScalar(np.ones(3)) / DualScalar(np.array([1.0, 0.0, 2.0]))


class TestPower:
    def test_values(self):
        assert DualScalar(4.0, 1.0) ** 0.5 == DualScalar(2.0, 0.25)
        assert DualScalar(-2.0, 1.0) ** 3 == DualScalar(-8.0, 12.0)
        assert DualScalar(3.0, 5.0) ** 0 == DualScalar(1.0, 0.0)

    @given(st.floats(min_value=0.01, max_value=100.0), finite, st.floats(min_value=-3.0, max_value=3.0))
    def test_matches_lifted_power(self, re, du, p):
        got = DualScalar(re, du) ** p
        want = lift(pow_alpha(p), DualScalar(re, du))
        assert got.re == pytest.approx(want.re, rel=1e-14)
        assert got.du == pytest.approx(want.du, rel=1e-14, abs=1e-300)

    def test_domain(self):
        with pytest.raises(DomainError):
            DualScalar(-1.0, 1.0) ** 0.5
        with pytest.raises(DomainError):
            DualScalar(np.array([1.0, 0.0]), 1.0) ** -1

    @pytest.mark.parametrize("p", [math.nan, math.inf, -math.inf])
    def test_rejects_a_non_finite_exponent(self, p):
        with pytest.raises(InvalidParams, match="finite exponent"):
            DualScalar(2.0, 1.0) ** p


@pytest.mark.parametrize("v", [math.nan, math.inf, -math.inf])
def test_direction_rejects_a_non_finite_tilt(v):
    with pytest.raises(InvalidParams, match="v must be finite"):
        DirectionSpec(v)


class TestRingProperties:
    @given(duals, duals, duals)
    def test_mul_associative(self, a, b, c):
        left = (a * b) * c
        right = a * (b * c)
        scale = (abs(a.re) + abs(a.du)) * (abs(b.re) + abs(b.du)) * (abs(c.re) + abs(c.du))
        assert ulps_apart(left.re, right.re, scale) <= 4
        assert ulps_apart(left.du, right.du, scale) <= 4

    @given(duals, duals, duals)
    def test_mul_distributes(self, a, b, c):
        left = a * (b + c)
        right = a * b + a * c
        scale = (abs(a.re) + abs(a.du)) * (abs(b.re) + abs(b.du) + abs(c.re) + abs(c.du))
        assert ulps_apart(left.re, right.re, scale) <= 4
        assert ulps_apart(left.du, right.du, scale) <= 4

    @given(duals, duals)
    def test_mul_commutative(self, a, b):
        assert a * b == b * a

    @given(finite)
    def test_nilpotency(self, b):
        eps = DualScalar(0.0, b)
        assert eps * eps == DualScalar(0.0, 0.0)

    @given(duals, st.builds(DualScalar, st.floats(min_value=0.01, max_value=100.0), finite),
           st.sampled_from([1.0, -1.0]))
    def test_division_round_trip(self, a, b, sign):
        b = DualScalar(sign * b.re, b.du)
        q = a / b
        back = q * b
        scale = max(1.0, abs(a.re), abs(a.du), abs(q.re * b.du), abs(q.du * b.re))
        assert abs(back.re - a.re) <= 1e-12 * scale
        assert abs(back.du - a.du) <= 1e-12 * scale

    @given(st.floats(min_value=-3.0, max_value=3.0, allow_nan=False), finite)
    def test_chain_rule(self, x0, dx):
        x = DualScalar(x0, dx)
        direct = lift(compose(EXP, SINH), x)
        nested = lift(EXP, lift(SINH, x))
        scale = max(1.0, abs(nested.re), abs(nested.du))
        assert abs(direct.re - nested.re) <= 1e-12 * scale
        assert abs(direct.du - nested.du) <= 1e-12 * scale
