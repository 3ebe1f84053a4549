"""Catenary-type curves over the dual plane.

Dual-number algebra, admissible graph curves with their Frenet geometry,
closed-form catenary families for exponents -1, 0 and 1, the potential energy
with its stationarity residuals, a fixed-step solver for general exponents,
and a command-line interface.
"""

from .closed_forms import (
    CatenaryParams,
    catenary_alpha0,
    catenary_alpha1,
    catenary_alpha_minus1,
    closed_form,
    reversed_catenary,
)
from .curves import (
    ClosedForm,
    Coordinate,
    Frame,
    GraphCurve,
    Numeric,
    SampledCoordinate,
)
from .dual import DirectionSpec, DualScalar, DualVec2, dual_dot, dual_norm
from .errors import (
    DegenerateVariation,
    DomainError,
    DualcatError,
    ImmediateSingularity,
    InvalidParams,
    NumericalFailure,
    OutOfDomain,
    ZeroRealPart,
)
from .solver import InitialData, solve_curve
from .variational import (
    Bump,
    BumpSum,
    EnergyValue,
    ResidualReport,
    VariationField,
    energy,
    first_integral_residual,
    first_variation,
    infer_c,
    make_constrained_variation,
    perturbed_curve,
    residual_report,
    resolve_c,
)

__version__ = "0.1.0"
