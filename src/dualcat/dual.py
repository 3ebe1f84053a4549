"""Dual-number arithmetic.

A dual number is ``a + b*eps`` with ``eps**2 = 0``.  The algebra keeps first
derivative information exactly: multiplying two dual numbers applies the
product rule to the eps parts, and a real power applies the chain rule.
Vectors over the dual numbers carry a plane curve together with its
first-order deformation field.

The parts of ``DualScalar`` and ``DualVec2`` are floats or NumPy arrays of one
shape; on arrays every operation acts elementwise, so one identity evaluates
at a point or on a whole grid.  Float inputs give float results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InvalidParams, ZeroRealPart

# Magnitudes at or below this count as zero: a vector's norm, and the square of
# a divisor's real part (the eps part of a quotient divides by it).
DIV_GUARD = 1e-300


def _dedim(out):
    """Float for a 0-d result, the array otherwise."""
    return float(out) if np.ndim(out) == 0 else out


def _vanishes(mag) -> bool:
    """Whether a norm or squared real part is zero to the guard (anywhere, for arrays)."""
    return bool(np.any(mag <= DIV_GUARD))


@dataclass(frozen=True)
class DualScalar:
    """Dual number ``re + du*eps``; the parts are floats or arrays of one shape."""

    re: float
    du: float = 0.0

    # NumPy arrays on the left of an operator defer to the reflected methods.
    __array_ufunc__ = None

    def __add__(self, other: "DualScalar | float") -> "DualScalar":
        other = _coerce(other)
        return DualScalar(self.re + other.re, self.du + other.du)

    __radd__ = __add__

    def __neg__(self) -> "DualScalar":
        return DualScalar(-self.re, -self.du)

    def __sub__(self, other: "DualScalar | float") -> "DualScalar":
        other = _coerce(other)
        return DualScalar(self.re - other.re, self.du - other.du)

    def __rsub__(self, other: "DualScalar | float") -> "DualScalar":
        return _coerce(other) - self

    def __mul__(self, other: "DualScalar | float") -> "DualScalar":
        other = _coerce(other)
        return DualScalar(self.re * other.re, self.re * other.du + self.du * other.re)

    __rmul__ = __mul__

    def __truediv__(self, other: "DualScalar | float") -> "DualScalar":
        other = _coerce(other)
        sq = other.re * other.re
        if _vanishes(sq):
            smallest = float(np.min(np.abs(other.re)))
            raise ZeroRealPart(f"division by a dual number whose real part is zero (|re| = {smallest:.3g})")
        return DualScalar(self.re / other.re, (self.du * other.re - self.re * other.du) / sq)

    def __rtruediv__(self, other: "DualScalar | float") -> "DualScalar":
        return _coerce(other) / self

    def __pow__(self, p: float) -> "DualScalar":
        """Real power ``re**p + p*du*re**(p-1)*eps``; needs a finite p, and ``re > 0``
        unless p is an integer >= 1.

        np.power, not the float operator, so points and grids round alike.
        """
        p = float(p)
        if not math.isfinite(p):
            raise InvalidParams(f"dual power needs a finite exponent, got {p}")
        if not (p.is_integer() and p >= 1.0) and np.any(self.re <= 0.0):
            raise DomainError(f"dual power {p:g} needs a positive real part")
        return DualScalar(
            _dedim(np.power(self.re, p)), p * self.du * _dedim(np.power(self.re, p - 1.0))
        )

    def __str__(self) -> str:
        return f"{self.re} + {self.du} eps"


def _coerce(value: "DualScalar | float") -> DualScalar:
    if isinstance(value, DualScalar):
        return value
    return DualScalar(value if isinstance(value, np.ndarray) else float(value), 0.0)


@dataclass(frozen=True)
class DualVec2:
    """Plane vector with dual-number coordinates, stored as real and eps parts."""

    re: tuple[float, float]
    du: tuple[float, float] = (0.0, 0.0)

    def __add__(self, other: "DualVec2") -> "DualVec2":
        return DualVec2(
            (self.re[0] + other.re[0], self.re[1] + other.re[1]),
            (self.du[0] + other.du[0], self.du[1] + other.du[1]),
        )

    def __sub__(self, other: "DualVec2") -> "DualVec2":
        return DualVec2(
            (self.re[0] - other.re[0], self.re[1] - other.re[1]),
            (self.du[0] - other.du[0], self.du[1] - other.du[1]),
        )

    def scale(self, s: DualScalar | float) -> "DualVec2":
        s = _coerce(s)
        return DualVec2(
            (s.re * self.re[0], s.re * self.re[1]),
            (s.re * self.du[0] + s.du * self.re[0], s.re * self.du[1] + s.du * self.re[1]),
        )


def dual_dot(u: DualVec2, w: DualVec2) -> DualScalar:
    """Bilinear pairing: real parts dot, eps part by the product rule."""
    re = u.re[0] * w.re[0] + u.re[1] * w.re[1]
    du = (u.re[0] * w.du[0] + u.re[1] * w.du[1]) + (u.du[0] * w.re[0] + u.du[1] * w.re[1])
    return DualScalar(re, du)


def dual_norm(u: DualVec2) -> DualScalar:
    """Norm ``|u_re| + eps*<u_re, u_du>/|u_re|``; needs a nonvanishing real part."""
    r = _dedim(np.hypot(u.re[0], u.re[1]))
    if _vanishes(r):
        raise ZeroRealPart("norm of a vector with zero real part")
    return DualScalar(r, (u.re[0] * u.du[0] + u.re[1] * u.du[1]) / r)


@dataclass(frozen=True)
class DirectionSpec:
    """Reference direction ``(0, 1) + eps*(v, 0)``: vertical with a finite tilt rate v."""

    v: float = 0.0

    def __post_init__(self):
        if not math.isfinite(self.v):
            raise InvalidParams(f"v must be finite, got {self.v}")

    @property
    def vector(self) -> DualVec2:
        return DualVec2((0.0, 1.0), (self.v, 0.0))
