"""Real functions lifted to dual numbers: the chain-rule reference for the tests.

``lift(fn, a + b*eps) = fn(a) + b*fn'(a)*eps`` evaluates a function bundled with
its analytic derivative.  The library differentiates through
``DualScalar.__pow__``, ``__truediv__`` and ``dual_norm`` instead; the tests
check those against this independent route.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from dualcat.dual import DualScalar
from dualcat.errors import DomainError


@dataclass(frozen=True)
class SmoothFn:
    """Real function bundled with its analytic first derivative."""

    name: str
    f: Callable[[float], float]
    df: Callable[[float], float]


def lift(fn: SmoothFn, x: DualScalar) -> DualScalar:
    """Apply ``fn`` to a dual number: ``f(a + b*eps) = f(a) + b*f'(a)*eps``."""
    return DualScalar(fn.f(x.re), x.du * fn.df(x.re))


def compose(outer: SmoothFn, inner: SmoothFn) -> SmoothFn:
    """Composite ``outer(inner(x))`` with the chain-rule derivative."""
    return SmoothFn(
        f"{outer.name}_of_{inner.name}",
        lambda x: outer.f(inner.f(x)),
        lambda x: outer.df(inner.f(x)) * inner.df(x),
    )


def _sqrt(x: float) -> float:
    if x <= 0.0:
        raise DomainError(f"sqrt needs a positive argument, got {x}")
    return math.sqrt(x)


def _sqrt_d(x: float) -> float:
    return 0.5 / _sqrt(x)


def _arcsin(x: float) -> float:
    if abs(x) >= 1.0:
        raise DomainError(f"arcsin needs |x| < 1, got {x}")
    return math.asin(x)


def _arcsin_d(x: float) -> float:
    if abs(x) >= 1.0:
        raise DomainError(f"arcsin needs |x| < 1, got {x}")
    return 1.0 / math.sqrt(1.0 - x * x)


COSH = SmoothFn("cosh", math.cosh, math.sinh)
SINH = SmoothFn("sinh", math.sinh, math.cosh)
TANH = SmoothFn("tanh", math.tanh, lambda x: 1.0 / math.cosh(x) ** 2)
SECH = SmoothFn("sech", lambda x: 1.0 / math.cosh(x), lambda x: -math.tanh(x) / math.cosh(x))
EXP = SmoothFn("exp", math.exp, math.exp)
SQRT = SmoothFn("sqrt", _sqrt, _sqrt_d)
ARCSIN = SmoothFn("arcsin", _arcsin, _arcsin_d)


def pow_alpha(alpha: float) -> SmoothFn:
    """Power function ``x**alpha`` with derivative ``alpha*x**(alpha-1)``.

    Non-integer exponents require a strictly positive argument; negative
    integer exponents reject zero.
    """
    alpha = float(alpha)
    integer = alpha.is_integer()

    def check(x: float) -> None:
        if not integer and x <= 0.0:
            raise DomainError(f"x**{alpha:g} needs x > 0, got {x}")
        if integer and alpha < 0.0 and x == 0.0:
            raise DomainError(f"x**{alpha:g} undefined at 0")

    def f(x: float) -> float:
        check(x)
        return x**alpha

    def df(x: float) -> float:
        check(x)
        if alpha == 0.0:
            return 0.0
        return alpha * x ** (alpha - 1.0)

    return SmoothFn(f"pow[{alpha:g}]", f, df)

