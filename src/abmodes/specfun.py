"""Real-argument special functions: Gamma and Bessel J of real order.

Self-contained (no scipy): Gamma is Python's math.gamma; J_nu switches from
the ascending power series (x <= 12) to the large-argument expansion with
optimal truncation (x > 12).  Orders are capped at |nu| <= MAX_ORDER + 1
internally so that the derivative recurrence J'_nu = J_{nu-1} - (nu/x) J_nu
(`bessel_j_and_prime`) holds for |nu| <= MAX_ORDER.

Accuracy envelope, asserted against mpmath by tests/test_specfun.py: at
every x > 0 the error of J_nu relative to its envelope
max(|J_nu|, sqrt(2/(pi x))) is at most 1e-11 for |nu| <= 2 and 3e-11 for
|nu| <= MAX_ORDER + 1, largest at the series/asymptotic switch x = 12, and
5e-15 beyond x = 100 (1.3e-15 measured out to x = 1e300); the plain relative
error grows near the zeros of J_nu (7e-10 at nu = -1.819, x = 11.933, where
J = 1.0e-3).  Gamma is exact at the integers 1 to 23, and its relative error
is at most 2e-15 on [-5, 10], next to the poles too, and for |x| > 140
wherever the value is a normal double (worst measured 9.0e-16 and 7.5e-16 on
20,000 points each).

All functions are pure and reentrant.  None of them maps a float overflow
itself: `errors.checked` does, at each entry point.
"""

import math
import sys

from ._backend import BACKEND, bessel_kernel
from .errors import DomainError, NumericalFailureError, PoleError, checked

# both kernel sets' Gamma; a module global, like bessel_kernel, so that a
# tracer or a test can swap it
gamma_kernel = math.gamma

__all__ = ["BACKEND", "MAX_ORDER", "gamma", "bessel_j", "bessel_j_and_prime",
           "bessel_j_and_prime_many", "bessel_j_prime"]

# Orders the library guarantees; bessel_j itself admits one more unit so the
# derivative recurrence stays inside the cap.
MAX_ORDER = 5.0

# Below this x, x/2 leaves the normal range of doubles: the halving rounds it
# to a coarse grid, or to 0, and the series' (x/2)^nu carries that error
# unreported (24% at nu = -0.95, x = 1.5e-323), as in the origin cell of the
# quadrature.  At nu = 0 the power is 1 and stays exact.
_SUBNORMAL_HALF = 2.0 * sys.float_info.min


@checked
def gamma(x: float) -> float:
    """Gamma(x) for real x.

    Raises PoleError at the poles (x = 0, -1, -2, ...) and DomainError for
    non-finite input or x large enough to overflow (x > 171.62).  Gamma
    overflows too for |x| below about 5.6e-309, where it is about 1/x:
    `checked` raises NumericalFailureError there.
    """
    x = float(x)
    if math.isnan(x) or math.isinf(x):
        raise DomainError(f"gamma: argument must be finite, got {x}")
    if x <= 0.0 and x == math.floor(x):
        raise PoleError(f"gamma: pole at non-positive integer x = {x}")
    if x > 171.62:
        raise DomainError(f"gamma: overflow for x = {x} (max 171.62)")
    return gamma_kernel(x)


@checked
def bessel_j(nu: float, x: float) -> float:
    """Bessel function of the first kind J_nu(x), real order nu.

    x must be finite and >= 0; x = 0 is allowed only for nu >= 0
    (J_0(0) = 1, J_nu(0) = 0 for nu > 0).  Orders beyond |nu| = MAX_ORDER + 1
    are rejected.  For nu != 0 and 0 < x/2 below the normal range of doubles
    NumericalFailureError is raised, since (x/2)^nu would carry the rounding
    of the halving, and by `checked` where (x/2)^nu overflows a double
    under a negative order (nu = -5.5 at x = 1e-300).
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
    return bessel_kernel(nu, x)


def _subnormal_half(what, nu, x):
    return NumericalFailureError(
        f"{what}: x/2 = {x!r}/2 is below the normal range of doubles, where "
        f"(x/2)^nu loses digits (nu = {nu!r})"
    )


def _check_j_and_prime(what, nu, lo, hi):
    # the domain of J'_nu = J_{nu-1} - (nu/x) J_nu at arguments in [lo, hi]
    if math.isnan(nu) or abs(nu) > MAX_ORDER:
        raise DomainError(f"{what}: |nu| must be <= {MAX_ORDER}, got {nu}")
    if not (0.0 < lo and hi < math.inf):
        raise DomainError(f"{what}: x must be finite and > 0, got {hi if 0.0 < lo else lo}")
    if lo < _SUBNORMAL_HALF:
        # name the order whose power loses the digits: J_{-1} at nu = 0
        raise _subnormal_half(what, nu or -1.0, lo)


@checked
def bessel_j_and_prime(nu: float, x: float) -> tuple:
    """(J_nu(x), J'_nu(x)) for |nu| <= MAX_ORDER and finite x > 0.

    J'_nu = J_{nu-1} - (nu/x) J_nu, two kernel calls.  Relative to the
    envelope max(|J'_nu|, sqrt(2/(pi x))) J'_nu is within 1e-11 of mpmath
    for x >= 1e-3, and within 5e-15 beyond x = 100.  NumericalFailureError
    where x/2 is below the normal range of doubles, at every order (nu and
    nu - 1 are never both 0), and by `checked` where (x/2)^(nu - 1)
    overflows (nu = -0.9, x = 1e-300).
    """
    nu = float(nu)
    x = float(x)
    _check_j_and_prime("bessel_j_and_prime", nu, x, x)
    j = bessel_kernel(nu, x)
    return j, bessel_kernel(nu - 1.0, x) - nu / x * j


@checked
def bessel_j_and_prime_many(nu: float, xs) -> tuple:
    """((J_nu(x) for x in xs), (J'_nu(x) for x in xs)), two tuples.

    The same doubles as `bessel_j_and_prime` at each x, and the same
    domain, checked on the smallest and the largest x (DomainError for an
    empty xs too); from two kernel calls in all, each of which builds its
    order's expansion once for every x (the kernel's tuple argument).
    """
    nu = float(nu)
    xs = tuple(map(float, xs))
    # min and max pass over a NaN that does not come first: it stands for
    # the lower end, which refuses it
    lo = math.nan if any(map(math.isnan, xs)) else min(xs, default=math.nan)
    _check_j_and_prime("bessel_j_and_prime_many", nu, lo, max(xs, default=math.nan))
    js = bessel_kernel(nu, xs)
    below = bessel_kernel(nu - 1.0, xs)
    return js, tuple([jm - nu / x * j for jm, x, j in zip(below, xs, js)])


@checked
def bessel_j_prime(nu: float, x: float) -> float:
    """dJ_nu/dx, the second element of bessel_j_and_prime(nu, x)."""
    return bessel_j_and_prime(nu, x)[1]
