"""Hand-coded closed-form derivatives against sympy's symbolic derivatives.

Each coordinate's formula is written here a second time in sympy, which
differentiates it; the coded ``d1``/``d2`` must agree at seeded points.
"""

import mpmath
import numpy as np
import pytest
import sympy as sp

from dualcat import CatenaryParams, closed_form, reversed_catenary

X = sp.Symbol("x", real=True)
RTOL = 1e-12
POINTS = 25


def symbolic_coordinates(p: CatenaryParams) -> dict:
    """y, z and w of the closed-form family of p as sympy expressions in x."""
    c, m, R, v = (sp.Float(t, 30) for t in (p.c, p.m, p.R, p.v))
    d1, d2, d3 = (sp.Float(t, 30) for t in (p.d1, p.d2, p.d3))
    if p.alpha == 1.0:
        t = c * X + m
        return {
            "y": sp.cosh(t) / c,
            "z": -v * X + d1 / sp.cosh(t) + d2 * sp.tanh(t),
            "w": (v / c) * sp.cosh(t) + c * d1 * X - d1 * sp.tanh(t) + d2 / sp.cosh(t) + d3,
        }
    if p.alpha == 0.0:
        k = (1 if p.branch == "plus" else -1) * sp.sqrt(c**2 - 1)
        return {"y": k * X + m, "z": d1 * X + d2, "w": -k * d1 * X + d3}
    t = X - m
    y = sp.sqrt(R**2 - t**2)
    return {
        "y": y,
        "z": -v * X + d1 * t + d2 * (y + t * sp.asin(t / R)),
        "w": (v - d1) * y + d2 * t - d2 * y * sp.asin(t / R) + d3,
    }


def check_coordinate(coord, expr, xs: np.ndarray) -> None:
    """Value, first and second derivative to RTOL relative, from 30-digit evaluation."""
    for order, fn in enumerate((coord.value, coord.deriv, coord.deriv2)):
        exact = sp.lambdify(X, sp.diff(expr, X, order), "mpmath")
        with mpmath.workdps(30):
            want = np.array([float(exact(mpmath.mpf(float(x)))) for x in xs])
        got = np.asarray(fn(xs), dtype=float)
        assert np.all(np.abs(got - want) <= RTOL * np.abs(want)), (order, got, want)


PARAMS = [
    CatenaryParams(alpha=1.0, c=1.3, m=0.2, v=0.8, d1=0.4, d2=-0.7, d3=0.3),
    CatenaryParams(alpha=0.0, c=1.7, m=2.5, v=0.3, d1=0.6, d2=-0.2, d3=0.1),
    CatenaryParams(alpha=0.0, c=2.2, m=3.0, d1=-0.4, d2=0.5, branch="minus"),
    CatenaryParams(alpha=-1.0, R=1.5, m=0.3, v=-0.6, d1=0.2, d2=0.9, d3=-0.4),
]


def sample_points(curve, seed: int) -> np.ndarray:
    return np.random.default_rng(seed).uniform(*curve.domain, POINTS)


@pytest.mark.parametrize("p", PARAMS, ids=lambda p: f"alpha{p.alpha:g}{p.branch}")
def test_closed_form_derivatives(p):
    curve = closed_form(p)
    xs = sample_points(curve, seed=11)
    for name, expr in symbolic_coordinates(p).items():
        check_coordinate(getattr(curve, name), expr, xs)


@pytest.mark.parametrize("p", [PARAMS[0], PARAMS[3]], ids=("alpha1", "alpha-1"))
def test_reversed_catenary_derivatives(p):
    base = closed_form(p)
    v = 0.45
    curve = reversed_catenary(p.alpha, base.y, v, base.domain)
    y = symbolic_coordinates(p)["y"]
    xs = sample_points(curve, seed=12)
    check_coordinate(curve.w, v * y, xs)
    check_coordinate(curve.z, -v * X, xs)
