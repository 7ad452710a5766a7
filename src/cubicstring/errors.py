"""Domain exception hierarchy.

Everything that signals a *mathematical* failure (invalid input data, a
singular system, an identity that should hold but does not, exhausted
working precision) derives from CubicStringError so callers can map the
whole family to one exit path.  Plain ValueError/OSError stay reserved
for malformed files and programming errors.
"""


class CubicStringError(Exception):
    """Base class for all domain errors raised by this package."""


class NonSquareError(CubicStringError):
    """A square matrix was required."""


class SingularMatrixError(CubicStringError):
    """Exact linear solve hit a singular matrix."""


class NotSquarefreeError(CubicStringError):
    """Sturm isolation requires a squarefree polynomial."""


class PrecisionExhaustedError(CubicStringError):
    """Interval refinement hit its precision cap without certifying a
    sign, or the flow without certifying the rounding of a row."""


class StringValidationError(CubicStringError):
    """A mass-and-gap configuration violates its invariants."""


class EmptyStringError(StringValidationError):
    pass


class NonPositiveMassError(StringValidationError):
    pass


class NonPositiveGapError(StringValidationError):
    pass


class SpectralValidationError(CubicStringError):
    """Spectral data violates its constraints (ordering, signs, mass)."""


class IdentityViolatedError(CubicStringError):
    """An identity that holds for valid input failed exactly."""


class NonPositiveRecoveryError(CubicStringError):
    """Inverse map produced a non-positive mass or gap."""


class OrderingViolatedError(CubicStringError):
    """Peak positions stopped being strictly increasing during evolution."""


class FlowOutOfRangeError(CubicStringError):
    """The flow leaves the range it is computed or printed in: e^(M t)
    overflows, or a mass or position leaves the float range."""
