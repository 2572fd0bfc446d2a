"""Exception taxonomy, and the check that keeps the library's contract.

Two families, mirrored by the CLI exit codes: invalid input (exit 2) and
numerical failure (exit 3).  Everything derives from :class:`AbmodesError`.
The contract: a public function returns finite doubles or raises an
AbmodesError.  :func:`checked` enforces it once, at each function of
`abmodes.__all__`, the evaluator of `piecewise_solution`,
`specfun.bessel_j_and_prime` and `specfun.bessel_j_and_prime_many`; checks
inside refuse input, or finite but wrong values, or stop work early.  No
other code maps a float overflow to an error, save `modes.DiracKinematics`,
a class that `checked` does not wrap: its E^2 refusal covers a square past
the largest double."""

import dataclasses
import functools
import math


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


def _finite(value):
    # every float of a result: a scalar, a tuple element or a dataclass field
    if not isinstance(value, tuple):
        if not dataclasses.is_dataclass(value):
            return not isinstance(value, float) or math.isfinite(value)
        value = tuple(vars(value).values())
    try:  # numbers only, the common case: one call
        return all(map(math.isfinite, value))
    except (TypeError, OverflowError):  # an enum, None, a dataclass, a huge int
        return all(map(_finite, value))


def checked(fn):
    """fn, raising NumericalFailureError where its result has no finite value:
    a float OverflowError or ZeroDivisionError inside fn, or a float of the
    result that is not finite.  The message names only fn and its arguments,
    the same text whether the kernels raised or returned inf or NaN."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            result = fn(*args, **kwargs)
        except (OverflowError, ZeroDivisionError):
            result = math.nan  # raised below, outside this block: no chained error
        # a float result, the common case, is checked without a call
        if math.isfinite(result) if isinstance(result, float) else _finite(result):
            return result
        shown = [*map(repr, args), *(f"{k}={v!r}" for k, v in kwargs.items())]
        # an argument's repr past 200 characters keeps its head and tail: a
        # 321-digit int is cut, the library's records print whole
        call = ", ".join(a if len(a) <= 200 else f"{a[:98]}...{a[-98:]}" for a in shown)
        raise NumericalFailureError(f"{fn.__name__}({call}) overflows a double")

    return wrapper
