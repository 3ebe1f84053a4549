"""Graph-curve geometry: admissibility, frame, curvature, arc length."""

import math
import time

import numpy as np
import pytest

from dualcat import quadrature
from dualcat.curves import table_edges
from dualcat import (
    CatenaryParams,
    Coordinate,
    DirectionSpec,
    DomainError,
    DualScalar,
    GraphCurve,
    InitialData,
    InvalidParams,
    NumericalFailure,
    OutOfDomain,
    catenary_alpha0,
    catenary_alpha1,
    catenary_alpha_minus1,
    dual_norm,
    make_constrained_variation,
    perturbed_curve,
    reversed_catenary,
    solve_curve,
)

VERTICAL = DirectionSpec(0.0)


def cosh_curve(z_slope: float = 0.0) -> GraphCurve:
    """y = cosh x with w = 0 and z = z_slope*x; admissible only for z_slope = 0."""
    y = Coordinate(np.cosh, np.sinh, np.cosh)
    return GraphCurve((-1.0, 1.0), y, Coordinate.constant(0.0), Coordinate.linear(z_slope, 0.0))


class TestBasics:
    def test_domain_validation(self):
        y = Coordinate.constant(1.0)
        with pytest.raises(InvalidParams):
            GraphCurve((1.0, 1.0), y, y, y)
        with pytest.raises(InvalidParams):
            GraphCurve((2.0, -2.0), y, y, y)
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(InvalidParams):
                GraphCurve((-1.0, 1.0), y, y, y, breakpoints=(0.5, bad))

    def test_evaluate_components(self):
        cv = catenary_alpha1(CatenaryParams(alpha=1.0, v=1.0))
        g = cv.evaluate(0.5)
        assert g.re == (0.5, math.cosh(0.5))
        assert g.du == pytest.approx((math.cosh(0.5), -0.5), abs=1e-15)

    def test_out_of_domain(self):
        cv = cosh_curve()
        with pytest.raises(OutOfDomain):
            cv.evaluate(1.5)
        with pytest.raises(OutOfDomain):
            cv.curvature(-1.0000001)
        with pytest.raises(OutOfDomain):
            cv.arc_length(0.0, 2.0)
        with pytest.raises(OutOfDomain):
            cv.evaluate(math.nan)
        with pytest.raises(OutOfDomain):
            cv.arc_length(math.nan, 0.5)

    def test_admissibility_residual_detects_defect(self):
        # w = 0 paired with z = x gives residual y'*z' = sinh(x)
        cv = cosh_curve(z_slope=1.0)
        assert cv.admissibility_residual(1.0) == pytest.approx(math.sinh(1.0), rel=1e-15)
        assert cv.admissibility_residual(0.0) == 0.0

    def test_admissibility_vectorized(self):
        cv = catenary_alpha1(CatenaryParams(alpha=1.0, c=2.0, v=0.7, d1=0.3, d2=-0.4))
        xs = np.linspace(-1.0, 1.0, 101)
        assert np.max(np.abs(cv.admissibility_residual(xs))) < 1e-13

    def test_height_must_be_positive_and_finite(self):
        zero = Coordinate.constant(0.0)
        line = GraphCurve((-1.0, 1.0), Coordinate.linear(1.0, 0.0), zero, zero)  # y = x
        assert line.height(VERTICAL, 0.5) == DualScalar(0.5, 0.0)
        for x in (0.0, -0.5, np.array([0.5, 0.0])):
            with pytest.raises(DomainError, match="curve height must stay positive and finite"):
                line.height(VERTICAL, x)
        with pytest.raises(DomainError):  # before the characterization divides by it
            line.characterization_residual(1.0, VERTICAL, 0.0)
        for bad in (math.nan, math.inf):
            with pytest.raises(DomainError):
                GraphCurve((-1.0, 1.0), Coordinate.constant(bad), zero, zero).height(VERTICAL, np.array([0.5]))


def _perturbed_catenary() -> GraphCurve:
    cv = catenary_alpha1(CatenaryParams(alpha=1.0, c=1.5, v=0.7, d1=0.5, d2=-0.6))
    var = make_constrained_variation(cv, 3)
    return perturbed_curve(cv, var.delta_y, var.delta_z, 0.05)


# Every way the package builds a curve.
BUILDERS = {
    "alpha1": lambda: catenary_alpha1(CatenaryParams(alpha=1.0, c=1.3, m=0.2, v=0.8, d1=0.4, d2=-0.7, d3=0.3)),
    "alpha0-plus": lambda: catenary_alpha0(CatenaryParams(alpha=0.0, c=1.7, m=2.5, v=0.3, d1=0.6, d2=-0.2, d3=0.1)),
    "alpha0-minus": lambda: catenary_alpha0(
        CatenaryParams(alpha=0.0, c=2.2, m=3.0, d1=-0.4, d2=0.5, branch="minus")
    ),
    "alpha-1": lambda: catenary_alpha_minus1(
        CatenaryParams(alpha=-1.0, R=1.5, m=0.3, v=-0.6, d1=0.2, d2=0.9, d3=-0.4)
    ),
    "reversed": lambda: reversed_catenary(1.0, catenary_alpha1(CatenaryParams(alpha=1.0, c=1.3)).y, 0.45, (-1.0, 1.0)),
    "solve": lambda: solve_curve(0.5, InitialData(0.0, 1.0, 0.0, 0.2, 0.1), (-0.75, 0.75), 0.3),
    "perturbed": _perturbed_catenary,
}


@pytest.mark.parametrize("build", BUILDERS.values(), ids=BUILDERS.keys())
def test_w_derivatives_come_from_admissibility(build):
    curve = build()
    xs = np.linspace(*curve.domain, 101)
    yp, zp = curve.y.deriv(xs), curve.z.deriv(xs)
    assert np.all(curve.admissibility_residual(xs) == 0.0)
    assert np.array_equal(curve.w.deriv(xs), -(yp * zp))
    assert np.array_equal(curve.w.deriv2(xs), -(curve.y.deriv2(xs) * zp + yp * curve.z.deriv2(xs)))


@pytest.mark.parametrize("build", BUILDERS.values(), ids=BUILDERS.keys())
def test_only_perturbed_curves_have_breakpoints(build):
    curve = build()
    assert bool(curve.breakpoints) == (build is _perturbed_catenary)


class TestFrame:
    def test_euclidean_parts_at_apex(self):
        fr = cosh_curve().frame(0.0)
        assert fr.T.re == (1.0, 0.0)
        assert fr.N.re == (0.0, 1.0)
        assert fr.nu == 1.0

    def test_line_frame(self):
        cv = catenary_alpha0(CatenaryParams(alpha=0.0, c=math.sqrt(2.0), m=2.0))
        fr = cv.frame(0.0)
        s = 1.0 / math.sqrt(2.0)
        assert fr.T.re == pytest.approx((s, s), rel=1e-15)
        assert fr.N.re == pytest.approx((-s, s), rel=1e-15)

    def test_dual_parts_carry_z_slope(self):
        cv = catenary_alpha1(CatenaryParams(alpha=1.0, v=1.0))  # z = -x, z' = -1
        fr = cv.frame(0.0)
        assert fr.T.du == (-0.0, -1.0)
        assert fr.N.du == (1.0, 0.0)

    def test_grid_matches_points(self):
        cv = catenary_alpha1(CatenaryParams(alpha=1.0, c=1.7, v=0.8, d1=0.5, d2=-0.2))
        xs = np.linspace(-1.0, 1.0, 7)
        grid = cv.frame(xs)
        for i, x in enumerate(xs):
            pt = cv.frame(float(x))
            assert [c[i] for c in grid.T.re + grid.T.du + grid.N.re + grid.N.du] == list(
                pt.T.re + pt.T.du + pt.N.re + pt.N.du
            )
            assert grid.nu[i] == pt.nu

    def test_unit_norms_and_orthogonality(self):
        cv = catenary_alpha1(CatenaryParams(alpha=1.0, c=1.7, v=0.8, d1=0.5, d2=-0.2))
        for x in np.linspace(-1.0, 1.0, 21):
            fr = cv.frame(float(x))
            nT = dual_norm(fr.T)
            nN = dual_norm(fr.N)
            assert abs(nT.re - 1.0) < 1e-14 and abs(nT.du) < 1e-14
            assert abs(nN.re - 1.0) < 1e-14 and abs(nN.du) < 1e-14


class TestCurvature:
    def test_catenary_apex(self):
        k = catenary_alpha1(CatenaryParams(alpha=1.0)).curvature(0.0)
        assert k.re == 1.0 and k.du == 0.0

    def test_scaled_catenary_apex(self):
        cv = catenary_alpha1(CatenaryParams(alpha=1.0, c=2.0))
        assert cv.curvature(0.0).re == 2.0

    def test_circle_curvature_constant(self):
        cv = catenary_alpha_minus1(CatenaryParams(alpha=-1.0, R=1.0))
        for x in (-0.7, 0.0, 0.4):
            assert cv.curvature(x).re == pytest.approx(-1.0, rel=1e-13)

    def test_finite_difference_cross_check(self):
        cv = catenary_alpha1(CatenaryParams(alpha=1.0, c=1.5, m=0.3, v=0.9, d1=0.4, d2=0.7))
        h = 1e-4
        for x in (-0.5, 0.1, 0.8):
            k = cv.curvature(x)
            ypp = (cv.y.value(x + h) - 2 * cv.y.value(x) + cv.y.value(x - h)) / h**2
            zpp = (cv.z.value(x + h) - 2 * cv.z.value(x) + cv.z.value(x - h)) / h**2
            nu = math.hypot(1.0, float(cv.y.deriv(x)))
            assert k.re == pytest.approx(ypp / nu**3, abs=1e-6)
            assert k.du == pytest.approx(zpp / nu, abs=1e-6)


class TestCharacterization:
    def test_vanishes_on_catenary(self):
        cv = catenary_alpha1(CatenaryParams(alpha=1.0, c=2.0, v=1.2, d1=0.3, d2=-0.8, d3=0.5))
        u = DirectionSpec(1.2)
        for x in np.linspace(-1.0, 1.0, 21):
            r = cv.characterization_residual(1.0, u, float(x))
            assert abs(r.re) < 1e-12 and abs(r.du) < 1e-12

    def test_vanishes_on_circle(self):
        cv = catenary_alpha_minus1(CatenaryParams(alpha=-1.0, R=2.0, m=0.2, v=0.6, d1=0.4, d2=0.9))
        u = DirectionSpec(0.6)
        for x in np.linspace(-1.5, 1.9, 15):
            r = cv.characterization_residual(-1.0, u, float(x))
            assert abs(r.re) < 1e-12 and abs(r.du) < 1e-12

    def test_real_only_when_deformation_absent(self):
        cv = catenary_alpha1(CatenaryParams(alpha=1.0))
        r = cv.characterization_residual(1.0, VERTICAL, 0.5)
        assert r == DualScalar(r.re, 0.0) and abs(r.re) < 1e-14

    def test_mismatched_exponent_residual_at_apex(self):
        cv = catenary_alpha1(CatenaryParams(alpha=1.0))
        r = cv.characterization_residual(-1.0, VERTICAL, 0.0)
        assert r.re == pytest.approx(2.0, abs=1e-12)


class TestArcLength:
    def test_catenary_arc_length(self):
        cv = cosh_curve()
        assert cv.arc_length(0.0, 1.0) == pytest.approx(math.sinh(1.0), abs=1e-12)
        assert cv.arc_length(0.3, 0.3) == 0.0
        assert cv.arc_length(1.0, 0.0) == pytest.approx(-math.sinh(1.0), abs=1e-12)

    def test_line_arc_length(self):
        cv = catenary_alpha0(CatenaryParams(alpha=0.0, c=math.sqrt(2.0), m=2.0), (0.0, 1.0))
        assert cv.arc_length(0.0, 1.0) == pytest.approx(math.sqrt(2.0), rel=1e-13)

    def test_inversion_endpoints(self):
        cv = cosh_curve()
        total = cv.arc_length(-1.0, 1.0)
        assert cv.x_at_arclength(0.0) == -1.0
        assert cv.x_at_arclength(total) == 1.0

    def test_inversion_against_asinh(self):
        cv = cosh_curve()
        # arc length from -1 to x is sinh(x) + sinh(1)
        for s in (0.3, 1.0, math.sinh(1.0), 2.0):
            x = cv.x_at_arclength(s)
            assert x == pytest.approx(math.asinh(s - math.sinh(1.0)), abs=1e-10)
            assert cv.arc_length(-1.0, x) == pytest.approx(s, abs=1e-10)

    def test_inversion_out_of_range(self):
        cv = cosh_curve()
        with pytest.raises(OutOfDomain):
            cv.x_at_arclength(-0.5)
        with pytest.raises(OutOfDomain):
            cv.x_at_arclength(100.0)
        with pytest.raises(OutOfDomain):
            cv.x_at_arclength(math.nan)

    def test_steep_circle_arc(self):
        # Slope about 22 at the ends of m +- 0.999R: uniform cells are not enough.
        R, m = 2.0, 0.2
        cv = catenary_alpha_minus1(CatenaryParams(alpha=-1.0, R=R, m=m))
        a, b = cv.domain
        phi_a = -math.asin(0.999)
        total = cv.arc_length(a, b)
        assert abs(total - 2.0 * R * math.asin(0.999)) <= 1e-12
        for s in np.linspace(0.0, total, 22)[1:-1]:
            x = cv.x_at_arclength(float(s))
            assert abs(x - (m + R * math.sin(s / R + phi_a))) <= 1e-10
        assert cv.x_at_arclength(0.0) == a
        assert cv.x_at_arclength(total) == b


class TestArcLengthTable:
    def test_nan_slope_raises_at_once(self):
        def slope(x):
            x = np.asarray(x, dtype=float)
            return np.where(x > 0.3, np.nan, x)

        cv = GraphCurve((-1.0, 1.0), Coordinate(np.zeros_like, slope, np.zeros_like),
                        Coordinate.constant(0.0), Coordinate.constant(0.0))
        t0 = time.perf_counter()
        with pytest.raises(NumericalFailure):
            cv.arc_length(-1.0, 1.0)
        with pytest.raises(NumericalFailure):
            cv.x_at_arclength(0.5)
        assert time.perf_counter() - t0 < 0.1

    def test_unresolvable_speed_stops_at_cell_cap(self):
        # Oscillations far below any cell width: every cell fails every pass.
        def slope(x):
            return 1e3 * np.sin(1e9 * np.asarray(x, dtype=float))

        cv = GraphCurve((-1.0, 1.0), Coordinate(np.zeros_like, slope, np.zeros_like),
                        Coordinate.constant(0.0), Coordinate.constant(0.0))
        t0 = time.perf_counter()
        with pytest.raises(NumericalFailure, match="cells"):
            cv.arc_length(-1.0, 1.0)
        assert time.perf_counter() - t0 < 5.0

    def test_slope_jump_stops_at_halving_cap(self):
        # A kink in y: the cell holding it misses a tolerance proportional to
        # its width at every depth, while its neighbours settle at once.
        def slope(x):
            return np.where(np.asarray(x, dtype=float) < 0.1234567, 0.0, 1.0)

        cv = GraphCurve((-1.0, 1.0), Coordinate(np.zeros_like, slope, np.zeros_like),
                        Coordinate.constant(0.0), Coordinate.constant(0.0))
        t0 = time.perf_counter()
        with pytest.raises(NumericalFailure, match="halvings"):
            cv.arc_length(-1.0, 1.0)
        assert time.perf_counter() - t0 < 1.0

    def test_slope_jump_at_a_breakpoint_builds(self):
        # The same kink, declared: the cells start there and the rule never
        # straddles it, so the table converges to the exact length.
        def slope(x):
            return np.where(np.asarray(x, dtype=float) < 0.1234567, 0.0, 1.0)

        cv = GraphCurve((-1.0, 1.0), Coordinate(np.zeros_like, slope, np.zeros_like),
                        Coordinate.constant(0.0), Coordinate.constant(0.0), breakpoints=(0.1234567,))
        want = 1.1234567 + math.sqrt(2.0) * 0.8765433
        assert cv.arc_length(-1.0, 1.0) == pytest.approx(want, abs=1e-12)

    def test_table_built_once(self):
        calls = []

        def slope(x):
            calls.append(np.size(x))
            return np.sinh(x)

        cv = GraphCurve((-1.0, 1.0), Coordinate(np.cosh, slope, np.cosh),
                        Coordinate.constant(0.0), Coordinate.constant(0.0))
        total = cv.arc_length(-1.0, 1.0)
        built = len(calls)
        for s in (0.3, 1.0, 2.0):
            cv.x_at_arclength(s)
        # The table is not rebuilt (that takes hundreds of points): each
        # inversion evaluates six points per Newton step in its own cell.
        assert len(calls) > built
        assert sum(calls[built:]) <= 3 * 4 * 6
        assert total == pytest.approx(2.0 * math.sinh(1.0), abs=1e-12)

    @staticmethod
    def steep_table_and_points():
        """A table refined near both ends; its edges, their neighbouring floats,
        two points outside it and 500 random points; and each point's cell by the
        reference lookup ``np.clip(np.searchsorted(edges, x, "right") - 1, 0, n)``."""
        table = quadrature.CumulativeIntegral(lambda x: np.hypot(1.0, np.sinh(12.0 * x)), np.linspace(-1.0, 1.0, 9))
        edges = table.edges
        assert len(edges) > 100
        rng = np.random.default_rng(7)
        xs = np.concatenate((
            edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf),
            [-3.0, 3.0], rng.uniform(-1.2, 1.2, 500),
        ))
        return table, xs, np.clip(np.searchsorted(edges, xs, side="right") - 1, 0, len(edges) - 1)

    def test_call_finds_the_cell_of_the_clipped_searchsorted(self):
        # Every x, inside the table or not, lands in the reference cell, and
        # F(b) is the table total.
        table, xs, k = self.steep_table_and_points()
        assert np.array_equal(table(xs), table.partial(k, xs)[0])
        for x, cell in zip(xs.tolist(), k.tolist()):
            assert table(x) == table.partial(cell, x)[0]
        assert table(1.0) == table.sums[-1]

    def test_primitive_is_the_cell_sum_plus_a_pairwise_rule_sum(self):
        # F(x) = sums[k] + width * (the half-weighted rule on [lo, x], summed by
        # np.add.reduce), rebuilt from leggauss: bit for bit, on arrays and points.
        table, xs, k = self.steep_table_and_points()
        t, w = np.polynomial.legendre.leggauss(quadrature.GL_ORDER)
        lo = table.edges[k]
        width = xs - lo
        vals = table.f(lo[:, None] + width[:, None] * (0.5 * (t + 1.0)))
        want = table.sums[k] + width * np.add.reduce(0.5 * w * vals, axis=-1)
        assert np.array_equal(table.partial(k, xs)[0], want)
        assert np.array_equal(table(xs), want)
        for x, cell, ref in zip(xs.tolist(), k.tolist(), want.tolist()):
            assert table.partial(cell, x)[0] == ref and table(x) == ref

    def test_solved_curve_starts_from_knots(self):
        cv = solve_curve(0.5, InitialData(0.0, 1.0, 0.0), (-0.75, 0.75), step=0.01)
        assert np.all(np.isin(cv.y.grid, cv._arclength_table.edges))

    def test_perturbed_curve_starts_from_breakpoints(self):
        cv = _perturbed_catenary()
        assert len(cv.breakpoints) == 14  # 3 bumps in delta_y, 3 plus the fixer in delta_z
        assert np.all(np.isin(cv.breakpoints, cv._arclength_table.edges))

    @pytest.mark.parametrize("seed", range(4))
    def test_edges_join_knots_and_breakpoints_as_union1d(self, seed):
        # The np.union1d construction the edges were built with before.
        rng = np.random.default_rng(seed)
        solved = solve_curve(0.5, InitialData(0.0, 1.0, 0.0), (-0.75, 0.75), step=0.01)
        for y, (a, b) in ((Coordinate(np.cosh, np.sinh, np.cosh), (-1.0, 1.0)), (solved.y, solved.domain)):
            knots = y.grid if y is solved.y else np.linspace(a, b, quadrature.TABLE_START_CELLS + 1)
            pts = rng.uniform(a - 0.2, b + 0.2, 12)
            breaks = tuple(np.concatenate((pts, pts[:3], knots[5:8], [a, b])))
            union = np.union1d(knots, breaks)
            want = np.concatenate(([a], union[(union > a) & (union < b)], [b]))
            got = table_edges((a, b), y, breaks)
            assert np.array_equal(got, want)
            assert np.array_equal(table_edges((a, b), y, ()), np.concatenate(([a], knots[1:-1], [b])))


# Very short intervals, and breakpoints closer than the merge tolerance to an
# end or to each other.
SHORT_DOMAINS = [
    (0.0, 1.9e-98, ()),
    (0.0, 1e-13, (5e-14,)),
    (-1.0, 1.0, (0.5, 1.0 - 1e-13)),  # a breakpoint next to b
    (-1.0, 1.0, (-1.0 + 1e-13, 0.5, 0.5 + 1e-13)),
    (0.0, 1e-13, (5e-14, 5e-14 + 1e-27, 1e-27)),  # closer than the merge tolerance
]


def per_piece_partition(a, b, breakpoints, panels):
    """The composite rule built one piece at a time with np.linspace: the
    reference that the vectorized ``partitioned_nodes`` must match bit for bit."""
    span = b - a
    tol = 1e-12 * span
    pts = np.unique(np.asarray([p for p in breakpoints if a + tol < p < b - tol], dtype=float))
    edges = np.concatenate(([a], pts[np.diff(pts, prepend=a) > tol], [b]))
    t, w = np.polynomial.legendre.leggauss(quadrature.GL_ORDER)
    nodes, weights = [], []
    for lo, hi in zip(edges[:-1], edges[1:]):
        n = max(1, int(np.ceil(panels * (hi - lo) / span)))
        panel_edges = np.linspace(float(lo), float(hi), n + 1)
        half = 0.5 * np.diff(panel_edges)
        mid = 0.5 * (panel_edges[:-1] + panel_edges[1:])
        nodes.append((mid[:, None] + half[:, None] * t[None, :]).ravel())
        weights.append((half[:, None] * w[None, :]).ravel())
    return np.concatenate(nodes), np.concatenate(weights)


class TestRule:
    def test_cached_rule_is_read_only(self):
        t, w = quadrature.gauss_legendre_rule()
        assert quadrature.gauss_legendre_rule()[0] is t
        for arr in (t, w):
            with pytest.raises(ValueError):
                arr[0] = 0.0

    def test_nodes_match_fresh_build(self):
        t, w = np.polynomial.legendre.leggauss(quadrature.GL_ORDER)
        edges = np.linspace(-0.3, 1.7, 13)
        half = 0.5 * np.diff(edges)
        mid = 0.5 * (edges[:-1] + edges[1:])
        want_x = (mid[:, None] + half[:, None] * t[None, :]).ravel()
        want_w = (half[:, None] * w[None, :]).ravel()
        got_x, got_w = quadrature.partitioned_nodes(-0.3, 1.7, (), 12)
        assert np.array_equal(got_x, want_x) and np.array_equal(got_w, want_w)

    @pytest.mark.parametrize("a, b, breaks", SHORT_DOMAINS)
    def test_partition_always_spans_the_interval(self, a, b, breaks):
        x, w = quadrature.partitioned_nodes(a, b, breaks, 8)
        assert a < x.min() and x.max() < b
        assert w.sum() == pytest.approx(b - a, rel=1e-14, abs=0.0)

    def test_partition_keeps_separated_breakpoints(self):
        x, w = quadrature.partitioned_nodes(-1.0, 1.0, (0.25, -0.5, 2.0), 8)
        pieces = [quadrature.partitioned_nodes(lo, hi, (), n) for lo, hi, n in ((-1.0, -0.5, 2), (-0.5, 0.25, 3), (0.25, 1.0, 3))]
        assert np.array_equal(x, np.concatenate([p[0] for p in pieces]))
        assert np.array_equal(w, np.concatenate([p[1] for p in pieces]))

    @pytest.mark.parametrize("a, b, breaks", SHORT_DOMAINS)
    @pytest.mark.parametrize("panels", [1, 8, 64, 100])
    def test_partition_matches_per_piece_loop_on_short_domains(self, a, b, breaks, panels):
        got = quadrature.partitioned_nodes(a, b, breaks, panels)
        want = per_piece_partition(a, b, breaks, panels)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])

    @pytest.mark.parametrize("seed", range(8))
    def test_partition_matches_per_piece_loop(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(100):
            a = rng.uniform(-3.0, 1.0)
            span = 10.0 ** rng.uniform(-3.0, 1.5)
            b = a + span
            # Breakpoints inside and outside [a, b], at its ends, repeated,
            # and closer to a neighbour or an end than the merge tolerance.
            pts = list(rng.uniform(a - 0.3 * span, b + 0.3 * span, rng.integers(0, 16)))
            if pts:
                pts += [pts[0], pts[-1] + 1e-13 * span * rng.uniform(0.0, 2.0)]
            pts += [a, b, a + 1e-13 * span, b - 1e-13 * span]
            panels = int(rng.integers(1, 101))
            got = quadrature.partitioned_nodes(a, b, pts, panels)
            want = per_piece_partition(a, b, pts, panels)
            assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])

    def test_merge_tolerance_is_relative_to_the_span(self):
        # Bump edges on a domain 1e-12 wide stay panel edges, and points
        # closer than 1e-12 times the span to an end or to each other merge.
        x, _ = quadrature.partitioned_nodes(0.0, 1e-12, (0.3e-12, 0.3e-12 + 1e-26, 0.45e-12, 1e-12 - 1e-26), 4)
        order = quadrature.GL_ORDER
        assert len(x) == 6 * order
        assert [np.count_nonzero(x < p) for p in (0.3e-12, 0.45e-12)] == [2 * order, 3 * order]

    @pytest.mark.parametrize("n", [1, 5, 9_999, 10_000, 10_001, 25_003])
    def test_integrate_matches_fsum(self, n):
        for seed in range(3):
            rng = np.random.default_rng([seed, n])
            wts, f = rng.uniform(0.0, 1.0, n), rng.uniform(0.0, 1.0, n)
            got = quadrature.integrate(wts, f)
            want = math.fsum(wts * f)
            assert abs(got - want) <= 8 * math.ulp(want)

    def test_integrate_keeps_a_negative_zero(self):
        got = quadrature.integrate(np.ones(1), np.array([-0.0]))
        assert got == 0.0 and math.copysign(1.0, got) == -1.0
