"""Independent references for the benchmark's output checks.

Everything here is written from the formulas, not from dualcat's code: the
closed-form families, their energies and arc-length inverses, a composite
Gauss-Legendre rule of higher order than dualcat's, and an adaptive DOP853
solve of the catenary ODEs.  Only numpy and scipy are used.
"""

from __future__ import annotations

import math

import numpy as np

GL_ORDER = 12
GL_PANELS = 96


def bump(center: float, radius: float, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Value and slope of ``(1 - t**2)**3`` on ``|x - center| < radius``."""
    t = (x - center) / radius
    s = np.maximum(0.0, 1.0 - t * t)
    return s**3, -6.0 * t * s * s / radius


def gl_integrate(f, a: float, b: float, breaks=(), panels: int = GL_PANELS) -> float:
    """Composite Gauss-Legendre integral of a vectorized ``f`` over [a, b].

    Panel edges include every breakpoint inside (a, b), so integrands that are
    only piecewise smooth keep the rule's full order.
    """
    t, w = np.polynomial.legendre.leggauss(GL_ORDER)
    pieces = np.unique(np.concatenate(([a, b], [p for p in breaks if a < p < b])))
    total = 0.0
    for lo, hi in zip(pieces[:-1], pieces[1:]):
        n = max(4, int(math.ceil(panels * (hi - lo) / (b - a))))
        edges = np.linspace(lo, hi, n + 1)
        half = 0.5 * np.diff(edges)
        mid = 0.5 * (edges[:-1] + edges[1:])
        x = (mid[:, None] + half[:, None] * t[None, :]).ravel()
        total += float(np.dot((half[:, None] * w[None, :]).ravel(), f(x)))
    return total


def closed_curve(family: int, p: dict, x: np.ndarray) -> dict:
    """Height, slope and deformation ``z`` of a closed-form curve.

    Families: 1 is ``y = cosh(c*x + m)/c``, 0 the line of slope
    ``+-sqrt(c**2 - 1)``, -1 the half circle of radius R about ``(m, 0)``.
    """
    x = np.asarray(x, dtype=float)
    v, d1, d2 = p["v"], p["d1"], p["d2"]
    if family == 1:
        c, th = p["c"], p["c"] * x + p["m"]
        return {
            "y": np.cosh(th) / c,
            "yp": np.sinh(th),
            "z": -v * x + d1 / np.cosh(th) + d2 * np.tanh(th),
        }
    if family == 0:
        k = math.sqrt(p["c"] ** 2 - 1.0) * (1.0 if p["branch"] == "plus" else -1.0)
        return {"y": k * x + p["m"], "yp": np.full_like(x, k), "z": d1 * x + d2}
    R, t = p["R"], x - p["m"]
    y = np.sqrt(R * R - t * t)
    return {"y": y, "yp": -t / y, "z": -v * x + d1 * t + d2 * (y + t * np.arcsin(t / R))}


def closed_energy(family: int, p: dict, a: float, b: float) -> tuple[float, float]:
    """Energy split ``(e0, e1)`` of a closed-form curve over [a, b].

    ``e0`` integrates ``y**alpha * nu`` and ``e1`` integrates
    ``alpha*(z + v*x)*y**(alpha - 1)*nu``.  Exponent 1 and 0 are exact; for
    -1, ``e0`` is exact and ``e1`` is integrated with :func:`gl_integrate`.
    """
    if family == 1:
        c, m = p["c"], p["m"]
        ta, tb = c * a + m, c * b + m
        e0 = ((b - a) / 2.0 + (math.sinh(2.0 * tb) - math.sinh(2.0 * ta)) / (4.0 * c)) / c
        e1 = p["d1"] * (b - a) + p["d2"] * (math.cosh(tb) - math.cosh(ta)) / c
        return e0, e1
    if family == 0:
        return p["c"] * (b - a), 0.0
    R, m = p["R"], p["m"]
    e0 = math.atanh((b - m) / R) - math.atanh((a - m) / R)

    def e1_integrand(x):
        g = closed_curve(-1, p, x)
        return -(g["z"] + p["v"] * x) * R / g["y"] ** 3

    return e0, gl_integrate(e1_integrand, a, b)


def closed_arclength_inverse(family: int, p: dict, a: float, s: float) -> float:
    """Parameter x where the arc length measured from a reaches s."""
    if family == 1:
        c, m = p["c"], p["m"]
        return (math.asinh(c * s + math.sinh(c * a + m)) - m) / c
    if family == 0:
        return a + s / p["c"]
    R, m = p["R"], p["m"]
    return m + R * math.sin(s / R + math.asin((a - m) / R))


def closed_arclength(family: int, p: dict, a: float, b: float) -> float:
    """Arc length of a closed-form curve between a and b."""
    if family == 1:
        c, m = p["c"], p["m"]
        return (math.sinh(c * b + m) - math.sinh(c * a + m)) / c
    if family == 0:
        return p["c"] * (b - a)
    R, m = p["R"], p["m"]
    return R * (math.asin((b - m) / R) - math.asin((a - m) / R))


def real_energy(alpha: float, y, yp, a: float, b: float, breaks) -> float:
    """Real energy ``integral(y**alpha * sqrt(1 + y'**2))`` of a graph."""
    return gl_integrate(lambda x: y(x) ** alpha * np.hypot(1.0, yp(x)), a, b, breaks)


def perturbed_dE_real(
    alpha: float, family: int, p: dict, domain, amp: float, delta_y, h: float = 1e-4
) -> float:
    """Central difference of the real energy along ``delta_y``.

    The curve is the closed form plus ``amp`` times the bump centred in the
    domain with radius 0.3 of its width (what ``dualcat variation --perturb``
    adds).  ``delta_y`` is a list of ``(center, radius, coeff)`` bumps.
    """
    a, b = domain
    c0, r0 = 0.5 * (a + b), 0.3 * (b - a)
    breaks = [c0 - r0, c0 + r0]
    for c, r, _ in delta_y:
        breaks += [c - r, c + r]

    def parts(x, t):
        g = closed_curve(family, p, x)
        bv, bd = bump(c0, r0, x)
        y, yp = g["y"] + amp * bv, g["yp"] + amp * bd
        for c, r, k in delta_y:
            dv, dd = bump(c, r, x)
            y, yp = y + t * k * dv, yp + t * k * dd
        return y, yp

    def energy_at(t):
        return real_energy(alpha, lambda x: parts(x, t)[0], lambda x: parts(x, t)[1], a, b, breaks)

    return (energy_at(h) - energy_at(-h)) / (2.0 * h)


def catenary_rhs(alpha: float, v: float):
    """Right-hand side for the state ``(y, y', z, z', w)`` of the dual catenary ODEs."""

    def rhs(x, s):
        y, p, z, q, _ = s
        return [
            p,
            alpha * (1.0 + p * p) / y,
            q,
            -(alpha * (p / y) * (q + v) + alpha * (z + v * x) / (y * y)),
            -p * q,
        ]

    return rhs


def reference_solve(alpha: float, v: float, x0: float, state0, xs: np.ndarray) -> np.ndarray:
    """DOP853 solution of the dual catenary ODEs sampled at ``xs``.

    Returns a ``(5, len(xs))`` array of ``y, y', z, z', w``, integrated from
    ``x0`` outwards in both directions at tolerance 1e-13.
    """
    from scipy.integrate import solve_ivp

    xs = np.asarray(xs, dtype=float)
    out = np.empty((5, len(xs)))
    rhs = catenary_rhs(alpha, v)
    for side in (xs >= x0, xs < x0):
        if not np.any(side):
            continue
        idx = np.flatnonzero(side)
        order = idx[np.argsort(np.abs(xs[idx] - x0))]
        end = float(xs[order[-1]])
        sol = solve_ivp(
            rhs, (x0, end), list(state0), method="DOP853",
            rtol=1e-13, atol=1e-13, t_eval=xs[order],
        )
        if not sol.success:
            raise RuntimeError(f"reference solve failed: {sol.message}")
        out[:, order] = sol.y
    return out
