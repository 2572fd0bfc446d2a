"""Exception taxonomy.

Two families, mirrored by the CLI exit codes: invalid input (exit 2) and
numerical failure (exit 3).  Everything derives from :class:`AbmodesError`.
"""


class AbmodesError(Exception):
    """Base class for all library errors."""


class InvalidInputError(AbmodesError):
    """Bad arguments: domain violations, forbidden configurations (exit 2)."""


class NumericalFailureError(AbmodesError):
    """A computation could not be completed reliably (exit 3)."""


class DomainError(InvalidInputError):
    """Argument outside the supported domain of a special function."""


class PoleError(InvalidInputError):
    """Gamma evaluated at a non-positive integer."""


class IntegerFluxError(InvalidInputError):
    """Integer flux: no fractional part, hence no critical channel."""


class IrregularForbiddenError(InvalidInputError):
    """Irregular Bessel component requested in a non-critical channel."""


class DegenerateError(NumericalFailureError):
    """Degenerate configuration (vanishing regular amplitude or interior node)."""


class ChannelMismatchError(InvalidInputError):
    """Operands belong to different angular channels."""


class EqualMomentaError(InvalidInputError):
    """Momenta coincide where the finite part is singular."""


class ConvergenceError(NumericalFailureError):
    """Quadrature or averaging failed to reach the requested accuracy."""


class InsufficientSamplesError(InvalidInputError):
    """Too few distinct samples for the requested fit."""


class SingularFitError(NumericalFailureError):
    """Least-squares system is singular or a per-pair solve is degenerate."""


class InfiniteParameterError(InvalidInputError):
    """Coefficient ratio requested for an infinite extension parameter."""


class NumericalPoleError(NumericalFailureError):
    """Denominator of the matching ratio vanishes to working precision."""


class ResonantError(NumericalFailureError):
    """Shell parameters sit on the resonance where the limit formula degenerates."""


class DegenerateDenominatorError(NumericalFailureError):
    """g-factor dictionary denominator vanishes (isolated negative-alpha combinations)."""


class ZeroAlphaError(InvalidInputError):
    """Asymptotic g-factor form needs a nonzero extension parameter."""


class NoBracketError(NumericalFailureError):
    """No g in the bracket [g_lo, g_hi] reaches the target matching ratio."""
