"""Real-argument special functions: Gamma and Bessel J of real order.

Self-contained (no scipy): Gamma uses a Lanczos rational approximation plus
reflection; J_nu switches from the ascending power series (x <= 12) to the
large-argument expansion with optimal truncation (x > 12).  Orders are
capped at |nu| <= MAX_ORDER + 1 internally so that the derivative recurrence
J'_nu = J_{nu-1} - (nu/x) J_nu (`bessel_j_and_prime`) holds for |nu| <= MAX_ORDER.

Accuracy envelope, asserted against mpmath by tests/test_specfun.py: on
(0, 100] the error of J_nu relative to its envelope max(|J_nu|, sqrt(2/(pi x)))
is at most 1e-11 for |nu| <= 2 and 3e-11 for |nu| <= MAX_ORDER + 1, largest
at the series/asymptotic switch x = 12; the plain relative error grows near
the zeros of J_nu (7e-10 at nu = -1.819, x = 11.933, where J = 1.0e-3).
Gamma's relative error is at most 1e-14 on [-5, 10], next to the poles too
(the reflection's sin(pi x) is taken after reducing x to [-1/2, 1/2] about
the nearest integer), and at most 2e-13 for |x| > 140 wherever the value is
a normal double.

All functions are pure and reentrant.
"""

import math
import sys

from ._backend import BACKEND, bessel_kernel, gamma_kernel
from .errors import DomainError, NumericalFailureError, PoleError

__all__ = ["BACKEND", "MAX_ORDER", "gamma", "bessel_j", "bessel_j_and_prime",
           "bessel_j_prime", "power"]

# The kernels overflow in their power t**(x - 0.5), t = x + 6.5, from
# x = 142.3 on, and through the reflection from x = -141.3 down; gamma brings
# a larger |x| inside this bound by the recurrence Gamma(x + 1) = x Gamma(x).
_GAMMA_KERNEL_MAX = 140.0

# Orders the library guarantees; bessel_j itself admits one more unit so the
# derivative recurrence stays inside the cap.
MAX_ORDER = 5.0

# Below this x, x/2 leaves the normal range of doubles: the halving rounds it
# to a coarse grid, or to 0, and the series' (x/2)^nu carries that error
# unreported (24% at nu = -0.95, x = 1.5e-323), as in the origin cell of the
# quadrature.  At nu = 0 the power is 1 and stays exact.
_SUBNORMAL_HALF = 2.0 * sys.float_info.min

# Below this x, (x/2)^nu can overflow under a negative order: the Python
# kernels' power raises OverflowError there, and the C kernels' gives inf,
# which the series turns into NaN.  At |nu| <= MAX_ORDER + 1 and x = 1e-40,
# J_nu and J'_nu stay below 3e241, so above it no value is checked.
_POWER_OVERFLOW_X = 1e-40


def power(base: float, exponent: float, what: str) -> float:
    """base ** exponent; NumericalFailureError naming `what` if it overflows.

    Python's float power raises OverflowError there, and ZeroDivisionError
    for a zero base under a negative exponent (an underflowed base), both
    exceptions outside the library's taxonomy.
    """
    try:
        return base**exponent
    except (OverflowError, ZeroDivisionError):
        raise NumericalFailureError(
            f"{what} overflows: {base!r} ** {exponent!r}"
        ) from None


def gamma(x: float) -> float:
    """Gamma(x) for real x.

    Raises PoleError at the poles (x = 0, -1, -2, ...) and DomainError for
    non-finite input or x large enough to overflow (x > 171.62).
    """
    x = float(x)
    if math.isnan(x) or math.isinf(x):
        raise DomainError(f"gamma: argument must be finite, got {x}")
    if x <= 0.0 and x == math.floor(x):
        raise PoleError(f"gamma: pole at non-positive integer x = {x}")
    if x > 171.62:
        raise DomainError(f"gamma: overflow for x = {x} (max 171.62)")
    if x > _GAMMA_KERNEL_MAX:
        k = math.ceil(x - _GAMMA_KERNEL_MAX)
        g = gamma_kernel(x - k)
        for j in range(k, 0, -1):
            g *= x - j
        return g
    if x < -_GAMMA_KERNEL_MAX:
        k = math.ceil(-_GAMMA_KERNEL_MAX - x)
        g = gamma_kernel(x + k)
        for j in range(k - 1, -1, -1):
            g /= x + j
            if g == 0.0:
                # underflowed; each of the j factors left is negative
                return -g if j & 1 else g
        return g
    return gamma_kernel(x)


def bessel_j(nu: float, x: float) -> float:
    """Bessel function of the first kind J_nu(x), real order nu.

    x must be finite and >= 0; x = 0 is allowed only for nu >= 0
    (J_0(0) = 1, J_nu(0) = 0 for nu > 0).  Orders beyond |nu| = MAX_ORDER + 1
    are rejected.  For nu != 0 and 0 < x/2 below the normal range of doubles
    NumericalFailureError is raised, since (x/2)^nu would carry the rounding
    of the halving.  It is raised too where (x/2)^nu overflows a double
    under a negative order (nu = -5.5 at x = 1e-300), on either kernel set.
    """
    nu = float(nu)
    x = float(x)
    if math.isnan(nu) or math.isinf(nu):
        raise DomainError(f"bessel_j: order must be finite, got {nu}")
    if abs(nu) > MAX_ORDER + 1.0:
        raise DomainError(
            f"bessel_j: |nu| = {abs(nu)} exceeds supported cap {MAX_ORDER + 1.0}"
        )
    if not math.isfinite(x) or x < 0.0:
        raise DomainError(f"bessel_j: argument must be finite and >= 0, got {x}")
    if x == 0.0 and nu < 0.0:
        raise DomainError("bessel_j: x = 0 is singular for negative order")
    if 0.0 < x < _SUBNORMAL_HALF and nu != 0.0:
        raise _subnormal_half("bessel_j", nu, x)
    try:
        j = bessel_kernel(nu, x)
    except OverflowError:
        raise _power_overflow("bessel_j", nu, x) from None
    if x < _POWER_OVERFLOW_X and not math.isfinite(j):
        raise _power_overflow("bessel_j", nu, x)
    return j


def _subnormal_half(what, nu, x):
    return NumericalFailureError(
        f"{what}: x/2 = {x!r}/2 is below the normal range of doubles, where "
        f"(x/2)^nu loses digits (nu = {nu!r})"
    )


def _power_overflow(what, nu, x):
    return NumericalFailureError(
        f"{what}: (x/2)^nu overflows a double at x = {x!r} (nu = {nu!r})"
    )


def bessel_j_and_prime(nu: float, x: float) -> tuple:
    """(J_nu(x), J'_nu(x)) for |nu| <= MAX_ORDER and finite x > 0.

    J'_nu = J_{nu-1} - (nu/x) J_nu, two kernel calls.  Relative to the
    envelope max(|J'_nu|, sqrt(2/(pi x))) J'_nu is within 1e-11 of mpmath
    for x in [1e-3, 100] and within the ulp of x (the phase of the Hankel
    branch) beyond.  NumericalFailureError where x/2 is below the normal
    range of doubles, at every order: nu and nu - 1 are never both 0, and
    bessel_j refuses a nonzero order there; NumericalFailureError too where
    a value overflows a double, as (x/2)^(nu - 1) does at nu = -0.9 and
    x = 1e-300.
    """
    nu = float(nu)
    x = float(x)
    if math.isnan(nu) or abs(nu) > MAX_ORDER:
        raise DomainError(f"bessel_j_and_prime: |nu| must be <= {MAX_ORDER}, got {nu}")
    if not math.isfinite(x) or x <= 0.0:
        raise DomainError(f"bessel_j_and_prime: x must be finite and > 0, got {x}")
    if x < _SUBNORMAL_HALF:
        # name the order whose power loses the digits: J_{-1} at nu = 0
        raise _subnormal_half("bessel_j_and_prime", nu or -1.0, x)
    try:
        j = bessel_kernel(nu, x)
        prime = bessel_kernel(nu - 1.0, x) - nu / x * j
    except OverflowError:
        raise _power_overflow("bessel_j_and_prime", nu - 1.0, x) from None
    if x < _POWER_OVERFLOW_X and not (math.isfinite(j) and math.isfinite(prime)):
        # J' grows like (x/2)^(nu - 1), the larger power
        raise _power_overflow("bessel_j_and_prime", nu - 1.0, x)
    return j, prime


def bessel_j_prime(nu: float, x: float) -> float:
    """dJ_nu/dx, the second element of bessel_j_and_prime(nu, x)."""
    return bessel_j_and_prime(nu, x)[1]
