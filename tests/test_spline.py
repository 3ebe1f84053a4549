"""The NumPy Hermite spline against scipy's CubicHermiteSpline, bit for bit."""

import numpy as np
import pytest
from scipy.interpolate import CubicHermiteSpline

from dualcat.spline import HermiteSpline


def knots_and_data(n: int, seed: int):
    rng = np.random.default_rng([seed, n])
    x = np.sort(rng.uniform(-1.0, 1.0, n))
    x[0], x[-1] = -1.0, 1.0
    return x, rng.normal(size=n), rng.normal(size=n)


def probe_points(x: np.ndarray, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return np.concatenate([
        x,
        0.5 * (x[:-1] + x[1:]),
        rng.uniform(x[0], x[-1], 10_000),
        [x[0], x[-1], np.nextafter(x[-1], -np.inf)],
        [x[0] - 1e-3, x[0] - 0.1, x[-1] + 1e-3, x[-1] + 0.1],
    ])


def pairs(n: int, seed: int):
    """(scipy, ours) for the spline, its derivative and its second derivative."""
    x, y, dydx = knots_and_data(n, seed)
    ref, new = CubicHermiteSpline(x, y, dydx), HermiteSpline(x, y, dydx)
    out = []
    for _ in range(3):
        out.append((ref, new))
        ref, new = ref.derivative(), new.derivative()
    return x, out


@pytest.mark.parametrize("n", [2, 3, 17, 1001])
def test_matches_scipy_on_arrays(n):
    x, splines = pairs(n, seed=5)
    pts = probe_points(x, seed=n)
    for ref, new in splines:
        assert np.array_equal(new(pts), ref(pts))
        # A few points at a time as well as the whole array at once.
        for k in range(0, len(pts) - 17, 613):
            for size in (1, 6, 16, 17):
                chunk = pts[k:k + size]
                assert np.array_equal(new(chunk), ref(chunk))


@pytest.mark.parametrize("n", [2, 1001])
def test_matches_scipy_on_scalars(n):
    x, splines = pairs(n, seed=6)
    pts = probe_points(x, seed=n)[::97]
    for ref, new in splines:
        for p in pts:
            got = new(float(p))
            assert type(got) is float
            assert got == float(ref(float(p)))
            at_0d = new(np.asarray(p))
            assert type(at_0d) is float and at_0d == got
            assert new(np.float64(p)) == got


def test_shapes_follow_input():
    _, [(_, new), *_] = pairs(11, seed=7)
    assert new(np.zeros((2, 3))).shape == (2, 3)
    assert new(np.zeros((4, 5))).shape == (4, 5)
    assert new(np.zeros(0)).shape == (0,)


def test_reproduces_samples_and_slopes_at_knots():
    x, y, dydx = knots_and_data(9, seed=8)
    s = HermiteSpline(x, y, dydx)
    assert np.array_equal(s(x[:-1]), y[:-1])
    assert np.array_equal(s.derivative()(x[:-1]), dydx[:-1])
    assert s(x[-1]) == pytest.approx(y[-1], rel=1e-13, abs=1e-13)
