"""Explicit catenary families in the dual plane for exponents -1, 0 and 1.

Each constructor returns an admissible :class:`~dualcat.curves.GraphCurve`
whose real part solves ``y'' / (1 + y'**2) = alpha / y`` and whose eps part
solves the linearized equation for the tilted vertical direction
``(0, 1) + eps*(v, 0)``.  Each family codes y, z and the values of w
analytically; ``curves.admissible_w`` gives w' and w'', so the curves are
exactly admissible and the other residual checks see only rounding noise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .curves import ClosedForm, Coordinate, GraphCurve, admissible_w
from .errors import DomainError, InvalidParams

# Domain of the exponent-1 and exponent-0 families, and of a CLI solve, when none is given.
DEFAULT_DOMAIN = (-1.0, 1.0)

# Fraction of R clipped off each end of the maximal interval when alpha = -1.
RIM_CLIP = 1e-3


def _check_square(name: str, val: float) -> None:
    """Reject a parameter whose square, used by the formulas, overflows."""
    if not np.isfinite(val * val):
        raise InvalidParams(f"{name} = {val:g} is too large: {name}**2 overflows")


@dataclass(frozen=True)
class CatenaryParams:
    """Parameters of the closed-form families.

    c scales the exponent-1 and exponent-0 families (first-integral constant),
    R is the radius of the exponent -1 family, m shifts the apex, v tilts the
    reference direction, d1..d3 span the homogeneous part of the eps
    component, and branch picks the line slope sign when the exponent is 0.
    """

    alpha: float
    c: float = 1.0
    m: float = 0.0
    R: float = 1.0
    v: float = 0.0
    d1: float = 0.0
    d2: float = 0.0
    d3: float = 0.0
    branch: str = "plus"


def catenary_alpha1(p: CatenaryParams, domain: tuple[float, float] | None = None) -> GraphCurve:
    """Curve ``y = cosh(c*x + m)/c`` with the matching eps part, on DEFAULT_DOMAIN if none is given.

    The eps component is ``z = -v*x + d1*sech + d2*tanh`` with w integrated
    from the admissibility constraint in closed form.
    """
    if not (p.c > 0.0 and np.isfinite(p.c)):
        raise InvalidParams(f"c must be positive, got {p.c}")
    _check_square("c", p.c)
    c, m, v, d1, d2, d3 = p.c, p.m, p.v, p.d1, p.d2, p.d3

    def theta(x):
        return c * np.asarray(x, float) + m

    y = Coordinate(
        lambda x: np.cosh(theta(x)) / c,
        lambda x: np.sinh(theta(x)),
        lambda x: c * np.cosh(theta(x)),
    )

    def z_val(x):
        t = theta(x)
        return -v * np.asarray(x, float) + d1 / np.cosh(t) + d2 * np.tanh(t)

    def z_d1(x):
        t = theta(x)
        sech = 1.0 / np.cosh(t)
        return -v + c * sech * (d2 * sech - d1 * np.tanh(t))

    def z_d2(x):
        t = theta(x)
        sech = 1.0 / np.cosh(t)
        th = np.tanh(t)
        return -(c * c) * sech * (d1 * (sech * sech - th * th) + 2.0 * d2 * sech * th)

    def w_val(x):
        x = np.asarray(x, float)
        t = theta(x)
        return (v / c) * np.cosh(t) + c * d1 * x - d1 * np.tanh(t) + d2 / np.cosh(t) + d3

    domain = DEFAULT_DOMAIN if domain is None else domain
    z = Coordinate(z_val, z_d1, z_d2)
    curve = GraphCurve(domain, y, admissible_w(y, z, w_val), z, ClosedForm(1.0, c))
    # cosh peaks at an end of the (validated) domain; y and y'' scale it by
    # 1/c and c.  Rejected here, before any formula overflows.
    with np.errstate(over="ignore"):
        peak = np.cosh(np.max(np.abs(theta(curve.domain)))) * max(c, 1.0 / c)
    if not np.isfinite(peak):
        a, b = curve.domain
        raise InvalidParams(
            f"c = {c:g}, m = {m:g}: y = cosh(c*x + m)/c or y'' = c*cosh(c*x + m) overflows on [{a:g}, {b:g}]"
        )
    return curve


def catenary_alpha0(p: CatenaryParams, domain: tuple[float, float] | None = None) -> GraphCurve:
    """Line ``y = +-sqrt(c**2 - 1)*x + m``, slope sign by branch, on DEFAULT_DOMAIN if none is given."""
    if not (p.c >= 1.0 and np.isfinite(p.c)):
        raise InvalidParams(f"c must be at least 1 for a real slope, got {p.c}")
    _check_square("c", p.c)
    if p.branch not in ("plus", "minus"):
        raise InvalidParams(f"branch must be 'plus' or 'minus', got {p.branch!r}")
    sign = 1.0 if p.branch == "plus" else -1.0
    k = sign * np.sqrt(p.c * p.c - 1.0)
    y = Coordinate.linear(k, p.m)
    z = Coordinate.linear(p.d1, p.d2)
    w = admissible_w(y, z, Coordinate.linear(-k * p.d1, p.d3).value)
    return GraphCurve(DEFAULT_DOMAIN if domain is None else domain, y, w, z, ClosedForm(0.0, p.c))


def catenary_alpha_minus1(p: CatenaryParams, domain: tuple[float, float] | None = None) -> GraphCurve:
    """Upper half circle ``y = sqrt(R**2 - (x-m)**2)`` with the matching eps part.

    The maximal parameter interval is open at ``m - R`` and ``m + R`` where the
    slope blows up; the default domain clips a fraction RIM_CLIP of R off each
    end.  A requested domain must stay strictly inside the open interval.
    """
    if not (p.R > 0.0 and np.isfinite(p.R)):
        raise InvalidParams(f"R must be positive, got {p.R}")
    _check_square("R", p.R)
    R, m, v, d1, d2, d3 = p.R, p.m, p.v, p.d1, p.d2, p.d3
    if domain is None:
        delta = RIM_CLIP * R
        domain = (m - R + delta, m + R - delta)
    if not (m - R < domain[0] and domain[1] < m + R):
        raise DomainError(f"domain {domain} must lie strictly inside ({m - R}, {m + R})")

    def t_of(x):
        return np.asarray(x, float) - m

    def y_val(x):
        t = t_of(x)
        return np.sqrt(R * R - t * t)

    def y_d1(x):
        t = t_of(x)
        return -t / np.sqrt(R * R - t * t)

    def y_d2(x):
        t = t_of(x)
        return -(R * R) / np.sqrt(R * R - t * t) ** 3

    def z_val(x):
        t = t_of(x)
        yv = np.sqrt(R * R - t * t)
        return -v * np.asarray(x, float) + d1 * t + d2 * (yv + t * np.arcsin(t / R))

    def z_d1(x):
        t = t_of(x)
        return -v + d1 + d2 * np.arcsin(t / R)

    def z_d2(x):
        t = t_of(x)
        return d2 / np.sqrt(R * R - t * t)

    def w_val(x):
        t = t_of(x)
        yv = np.sqrt(R * R - t * t)
        return (v - d1) * yv + d2 * t - d2 * yv * np.arcsin(t / R) + d3

    y = Coordinate(y_val, y_d1, y_d2)
    z = Coordinate(z_val, z_d1, z_d2)
    return GraphCurve(domain, y, admissible_w(y, z, w_val), z, ClosedForm(-1.0, R))


# The exponents with a closed form, each with its constructor.
FAMILIES = {1.0: catenary_alpha1, 0.0: catenary_alpha0, -1.0: catenary_alpha_minus1}


def closed_form(p: CatenaryParams, domain: tuple[float, float] | None = None) -> GraphCurve:
    """Dispatch on the exponent through FAMILIES; None picks the family's own domain."""
    if p.alpha not in FAMILIES:
        raise InvalidParams(f"no closed form for exponent {p.alpha}")
    return FAMILIES[p.alpha](p, domain)


def reversed_catenary(
    alpha: float,
    y: Coordinate,
    v: float,
    domain: tuple[float, float],
    c: float | None = None,
) -> GraphCurve:
    """Rotation deformation ``(x, y) + eps*(v*y, -v*x)`` of a stationary graph.

    For any exponent the eps part solves the linearized equation for the
    direction ``(0, 1) + eps*(v, 0)``, and the eps part of the curvature
    vanishes identically because ``z'' = 0``.  Given the first-integral
    constant c of y, the curve is tagged ``ClosedForm(alpha, c)``.
    """
    v = float(v)
    z = Coordinate.linear(-v, 0.0)
    w = admissible_w(y, z, lambda x: v * y.value(x))
    return GraphCurve(domain, y, w, z, None if c is None else ClosedForm(alpha, c))
