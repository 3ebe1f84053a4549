"""Exception types shared across the package."""


class DualcatError(Exception):
    """Base class for all errors raised by this package."""


class ZeroRealPart(DualcatError):
    """Division by a dual number whose real part vanishes."""


class DomainError(DualcatError):
    """Evaluation outside the mathematical domain of a function or curve family."""


class InvalidParams(DualcatError):
    """Parameter values that violate a constructor's preconditions."""


class OutOfDomain(DualcatError):
    """Evaluation point outside the interval a curve is defined on."""


class ImmediateSingularity(DualcatError):
    """ODE integration hit a guard within the first few steps."""


class DegenerateVariation(DualcatError):
    """A constrained variation could not be built for the requested seed."""


class NumericalFailure(DualcatError):
    """A numerical method met a non-finite value or did not converge."""
