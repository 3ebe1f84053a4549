"""Hand-coded formulas against sympy.

Each closed-form coordinate is written here a second time in sympy, which
differentiates it; the coded ``d1``/``d2`` must agree at seeded points.  For
generic graphs, sympy proves the characterization theorem that the residual
report relies on, that the solver's right-hand side satisfies it, and that
the closed forms' dual-part builder solves the dual equation admissibly.
"""

import ast
import inspect
import textwrap
import types

import mpmath
import numpy as np
import pytest
import sympy as sp

from dualcat import CatenaryParams, closed_form, closed_forms, reversed_catenary, solver

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


ALPHA, V = sp.symbols("alpha v", real=True)
Y, Z = sp.Function("y")(X), sp.Function("z")(X)


def symbolic_characterization() -> tuple:
    """Real and dual parts of ``kappa - alpha*<N,u>/<gamma,u>`` for generic
    y(x) and z(x), and the speed nu: the frame as ``GraphCurve.frame`` writes
    it, paired with ``u = (0, 1) + eps*(v, 0)`` by ``dual_dot`` and divided by
    the height ``y + eps*(z + v*x)`` as ``DualScalar.__truediv__`` does."""
    yp, zp = Y.diff(X), Z.diff(X)
    nu = sp.sqrt(1 + yp**2)
    t_re = (1 / nu, yp / nu)
    n_re = (-yp / nu, 1 / nu)
    n_du = (-zp * t_re[0], -zp * t_re[1])
    kappa_re, kappa_du = Y.diff(X, 2) / nu**3, Z.diff(X, 2) / nu
    u_re, u_du = (0, 1), (V, 0)
    dot_re = n_re[0] * u_re[0] + n_re[1] * u_re[1]
    dot_du = (n_re[0] * u_du[0] + n_re[1] * u_du[1]) + (n_du[0] * u_re[0] + n_du[1] * u_re[1])
    h_re, h_du = Y, Z + V * X
    q_re, q_du = dot_re / h_re, (dot_du * h_re - dot_re * h_du) / (h_re * h_re)
    return kappa_re - ALPHA * q_re, kappa_du - ALPHA * q_du, nu


def test_euler_lagrange_is_speed_times_characterization():
    char_re, char_du, nu = symbolic_characterization()
    yp, zp = Y.diff(X), Z.diff(X)
    el_real = Y.diff(X, 2) / (1 + yp**2) - ALPHA / Y
    el_dual = Z.diff(X, 2) + ALPHA * (yp / Y) * (zp + V) + ALPHA * (Z + V * X) / Y**2
    assert sp.simplify(nu * char_re - el_real) == 0
    assert sp.simplify(nu * char_du - el_dual) == 0
    # A generic graph is not stationary.
    assert sp.simplify(char_re) != 0 and sp.simplify(char_du) != 0


def solver_rates() -> list:
    """The four rates that ``solver._march``'s ``rates`` returns, read from
    its source, as sympy expressions in x, y, y', z and z'."""
    tree = ast.parse(textwrap.dedent(inspect.getsource(solver._march)))
    rates = next(n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef) and n.name == "rates")
    [ret] = [n for n in ast.walk(rates) if isinstance(n, ast.Return)]
    names = {"x": X, "y": Y, "p": Y.diff(X), "z": Z, "q": Z.diff(X), "alpha": ALPHA, "v": V}
    return [sp.sympify(ast.unparse(e), locals=names, rational=True) for e in ret.value.elts]


def test_solver_rates_zero_the_characterization():
    yp, ypp, zp, zpp = solver_rates()
    assert (yp, zp) == (Y.diff(X), Z.diff(X))
    char_re, char_du, _ = symbolic_characterization()
    on_solutions = {Y.diff(X, 2): ypp, Z.diff(X, 2): zpp}
    assert sp.simplify(char_re.subs(on_solutions)) == 0
    assert sp.simplify(char_du.subs(on_solutions)) == 0


def test_dual_part_builder_solves_the_dual_equation(monkeypatch):
    # The builder runs on sympy objects: y is a generic stationary graph
    # (y'' = alpha*(1 + y'**2)/y), s a generic arc length (s' = nu), and
    # np.asarray, the builder's one NumPy call, passes x through.
    monkeypatch.setattr(closed_forms, "np", types.SimpleNamespace(asarray=lambda x, dtype: x))
    S = sp.Function("s")(X)
    k1, k2, k3, centre = sp.symbols("k1 k2 k3 centre", real=True)
    yp = Y.diff(X)
    nu = sp.sqrt(1 + yp**2)
    z, w_val = closed_forms._dual_part(ALPHA, lambda x: (Y, yp / nu, nu, S), V, k1, k2, k3, centre)
    ypp = ALPHA * (1 + yp**2) / Y
    yppp = ypp.diff(X).subs(Y.diff(X, 2), ypp)

    def on_solutions(expr):
        return expr.subs(Y.diff(X, 3), yppp).subs(Y.diff(X, 2), ypp).subs(S.diff(X), nu)

    zv, zp, zpp = z.value(X), z.deriv(X), z.deriv2(X)
    assert sp.simplify(on_solutions(zv.diff(X)) - zp) == 0
    assert sp.simplify(on_solutions(zp.diff(X)) - zpp) == 0
    el_dual = zpp + ALPHA * (yp / Y) * (zp + V) + ALPHA * (zv + V * X) / Y**2
    assert sp.simplify(el_dual) == 0
    assert sp.simplify(on_solutions(w_val(X).diff(X)) + yp * zp) == 0
