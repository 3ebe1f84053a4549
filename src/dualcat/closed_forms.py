"""Explicit catenary families in the dual plane for exponents -1, 0 and 1.

Each constructor returns an admissible :class:`~dualcat.curves.GraphCurve`
whose real part solves ``y'' / (1 + y'**2) = alpha / y`` and whose eps part
solves the linearized equation for the tilted vertical direction
``(0, 1) + eps*(v, 0)``.  Each family codes y; ``_dual_part`` writes z and w's
values for alpha != 0, and ``curves.admissible_w`` gives w' and w'', so the curves
are exactly admissible and the other residual checks see only rounding noise.
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


def _dual_part(alpha: float, basis, v: float, k1: float, k2: float, k3: float, centre: float = 0.0):
    """z (with z' and z'') and w's values for an exponent-alpha catenary, alpha != 0.

    ``basis(x)`` gives y and the family's ``(sigma = y'/nu, nu, s)``, s an arc
    length.  With ``q = k1 + k2*s``, ``z = -v*x + q*sigma - k2*y`` and
    ``w = v*y + q/nu - k2*(x - centre) + k3``, using ``sigma' = alpha/(y*nu)``
    and ``sigma'' = -alpha*(1 + alpha)*sigma/y**2``.
    """

    def z_val(x):
        yv, sigma, _, s = basis(x)
        return -v * np.asarray(x, float) + (k1 + k2 * s) * sigma - k2 * yv

    def z_d1(x):
        yv, _, nu, s = basis(x)
        return -v + alpha * (k1 + k2 * s) / (yv * nu)

    def z_d2(x):
        yv, sigma, _, s = basis(x)
        return alpha * (k2 - (1.0 + alpha) * (k1 + k2 * s) * sigma / yv) / yv

    def w_val(x):
        yv, _, nu, s = basis(x)
        return v * yv + (k1 + k2 * s) / nu - k2 * (np.asarray(x, float) - centre) + k3

    return Coordinate(z_val, z_d1, z_d2), w_val


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

    The basis is ``(tanh, cosh, sinh/c)`` of ``theta = c*x + m``; in z, --d2
    multiplies ``sigma = tanh`` and --d1 multiplies ``sech = -c*(sigma*s - y)``.
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

    def basis(x):
        t = theta(x)
        nu = np.cosh(t)
        return nu / c, np.tanh(t), nu, np.sinh(t) / c

    domain = DEFAULT_DOMAIN if domain is None else domain
    z, w_val = _dual_part(1.0, basis, v, d2, -c * d1, d3)
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
    end.  A requested domain must stay strictly inside the open interval.  The
    basis is ``(-t/R, R/y, R*asin(t/R))`` of ``t = x - m``; in z, --d1 multiplies
    ``t = -R*sigma`` and --d2 multiplies ``-(sigma*s - y)``.  w's d2 term is
    ``d2*(x - m)``, taken from the centre so that a far m cannot overflow it.
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

    def y_val(x):
        t = np.asarray(x, float) - m
        return np.sqrt(R * R - t * t)

    def y_d1(x):
        t = np.asarray(x, float) - m
        return -t / np.sqrt(R * R - t * t)

    def y_d2(x):
        t = np.asarray(x, float) - m
        return -(R * R) / np.sqrt(R * R - t * t) ** 3

    def basis(x):
        t = np.asarray(x, float) - m
        yv = np.sqrt(R * R - t * t)
        return yv, t / -R, R / yv, R * np.arcsin(t / R)

    y = Coordinate(y_val, y_d1, y_d2)
    z, w_val = _dual_part(-1.0, basis, v, -R * d1, -d2, d3, m)
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
    constant c of y, the curve is tagged ``ClosedForm(alpha, c)``.  v must be finite.
    """
    v = float(v)
    if not np.isfinite(v):
        raise InvalidParams(f"v must be finite, got {v}")
    z = Coordinate.linear(-v, 0.0)
    w = admissible_w(y, z, lambda x: v * y.value(x))
    return GraphCurve(domain, y, w, z, None if c is None else ClosedForm(alpha, c))
