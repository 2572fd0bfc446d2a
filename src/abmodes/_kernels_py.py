"""Pure-Python numerical kernels (fallback backend).

Hot scalar routines used throughout the library: Gamma for real arguments,
Bessel J of arbitrary real order, and the embedded Gauss-Kronrod G10/K21 pair
on one panel of the product integrand J_nu(p rho) J_mu(p' rho) rho.
`abmodes._kernels_c`, compiled from the hand-written `_kernels_c.c`, is the
twin: it mirrors each function here operation for operation, so an edit here
goes into the C as well, and `tests/test_backends.py` compares the two with
==.  The algorithms:

* Gamma: 9-term Lanczos rational approximation (g = 7) for x >= 0.5 and the
  reflection formula below, with sin(pi x) computed after reducing x to
  [-1/2, 1/2] about the nearest integer.  Relative error at most 1e-14 on
  [-5, 10], next to the poles too.
* J_nu: ascending power series for x <= 12, Hankel large-argument expansion
  with optimal truncation (up to ~40 correction terms) for x > 12; its loop
  squares m = 2k - 1 as m * m, exact like (2k - 1) ** 2 and about 15%
  faster on Hankel panels.  Negative integer orders reduce to
  J_{-m} = (-1)^m J_m.  Where x/2 underflows to 0 under a negative order
  the series returns NaN.  On (0, 100] the error
  relative to max(|J_nu|, sqrt(2/(pi x))) is at most 1e-11 for |nu| <= 2 and
  3e-11 for |nu| <= 6, largest just around the switch at x = 12.
* Product panel: `kronrod21_product_panel` returns the 21-point Kronrod and
  the embedded 10-point Gauss estimates from the same 21 integrand values
  (Piessens et al., QUADPACK, 1983); `_quad` accepts the Kronrod value when
  the two agree.

`tests/test_specfun.py` asserts both bounds against mpmath, and
`tests/test_quad.py` checks the G10/K21 table against Legendre's nodes and
the moments of [-1, 1].

`gauss15_product_panel`, a 15-point Gauss panel of the same integrand, is
used by no code in the package.  It stays, in both twins, only because the
benchmark's kernel micro-rows time it; it goes with the next change to the
benchmark.

Domain policing (x < 0, poles, order caps) is the caller's job; `specfun`
wraps these with validation.
"""

import math

_SQRT_TWO_PI = 2.5066282746310002

# Lanczos g = 7, n = 9 coefficient set (double-precision grade).
_LANCZOS = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)

# Gauss-Legendre nodes/weights on [-1, 1], order 15 (exact to degree 29).
_G15 = (
    (-0.9879925180204854, 0.030753241996118647),
    (-0.937273392400706, 0.07036604748810807),
    (-0.8482065834104272, 0.10715922046717177),
    (-0.7244177313601701, 0.1395706779261539),
    (-0.5709721726085388, 0.16626920581699378),
    (-0.3941513470775634, 0.18616100001556188),
    (-0.20119409399743451, 0.19843148532711125),
    (0.0, 0.2025782419255609),
    (0.20119409399743451, 0.19843148532711125),
    (0.3941513470775634, 0.18616100001556188),
    (0.5709721726085388, 0.16626920581699378),
    (0.7244177313601701, 0.1395706779261539),
    (0.8482065834104272, 0.10715922046717177),
    (0.937273392400706, 0.07036604748810807),
    (0.9879925180204854, 0.030753241996118647),
)

# Gauss-Kronrod pair on [-1, 1]: the K21 weight of the center node, then
# (node x, K21 weight, G10 weight) for the ten symmetric pairs +-x, innermost
# first.  The G10 weight is 0.0 at the Kronrod-only nodes.  K21 is exact to
# degree 31, G10 to degree 19.
_K21_CENTER = 0.1494455540029169
_GK21 = (
    (0.14887433898163122, 0.14773910490133849, 0.29552422471475287),
    (0.2943928627014602, 0.14277593857706009, 0.0),
    (0.4333953941292472, 0.13470921731147334, 0.26926671930999635),
    (0.5627571346686047, 0.12349197626206584, 0.0),
    (0.6794095682990244, 0.10938715880229764, 0.21908636251598204),
    (0.7808177265864169, 0.0931254545836976, 0.0),
    (0.8650633666889845, 0.07503967481091996, 0.1494513491505806),
    (0.9301574913557082, 0.054755896574351995, 0.0),
    (0.9739065285171717, 0.032558162307964725, 0.06667134430868814),
    (0.9956571630258081, 0.011694638867371874, 0.0),
)


def sinpi(x):
    """sin(pi*x) with x reduced exactly to [-1/2, 1/2] about the nearest integer."""
    n = math.floor(x + 0.5)
    s = math.sin(math.pi * (x - n))
    return -s if (int(n) & 1) else s


def gamma(x):
    """Gamma(x) for real non-pole x.  Caller must exclude 0, -1, -2, ..."""
    if x < 0.5:
        # reflection; sinpi keeps relative accuracy near the poles
        return math.pi / (sinpi(x) * gamma(1.0 - x))
    z = x - 1.0
    acc = _LANCZOS[0]
    for i in range(1, 9):
        acc += _LANCZOS[i] / (z + i)
    t = z + 7.5
    return _SQRT_TWO_PI * t ** (z + 0.5) * math.exp(-t) * acc


def _series(nu, x):
    # ascending series; term recurrence t_k = -t_{k-1} (x/2)^2 / (k (nu+k)).
    # nu must not be a negative integer (gamma pole); bessel_j reduces those.
    h = 0.5 * x
    if h == 0.0 and nu < 0.0:
        # x/2 underflowed to 0, where h**nu has no finite value (Python's
        # power raises, C's is inf and the series inf * 0): NaN in both twins
        return math.nan
    t = h**nu / gamma(nu + 1.0)
    s = t
    q = -h * h
    biggest = abs(t)
    for k in range(1, 400):
        t *= q / (k * (nu + k))
        s += t
        a = abs(t)
        if a > biggest:
            biggest = a
        elif a <= 1e-18 * biggest:
            break
    return s


def _asymptotic(nu, x):
    # Hankel expansion J_nu ~ sqrt(2/(pi x)) (P cos chi - Q sin chi).
    # Terms may grow once before decaying (large nu), hence the k > 2 guard;
    # stop at the smallest term (optimal truncation of the divergent tail).
    mu = 4.0 * nu * nu
    p = 1.0
    q = 0.0
    t = 1.0
    prev = 1.0
    for k in range(1, 60):
        # m * m is exact for these small odd integers, and cheaper than ** 2
        m = 2.0 * k - 1.0
        t *= (mu - m * m) / (8.0 * k * x)
        a = abs(t)
        if k > 2 and a >= prev:
            break
        prev = a
        r = k & 3
        if r == 0:
            p += t
        elif r == 1:
            q += t
        elif r == 2:
            p -= t
        else:
            q -= t
        if a <= 1e-18:
            break
    chi = x - (0.5 * nu + 0.25) * math.pi
    return math.sqrt(2.0 / (math.pi * x)) * (math.cos(chi) * p - math.sin(chi) * q)


def bessel_j(nu, x):
    """J_nu(x) for real order and x >= 0 (x = 0 only with nu >= 0)."""
    if nu < 0.0 and nu == math.floor(nu):
        sign = 1.0 if (int(-nu) & 1) == 0 else -1.0
        return sign * bessel_j(-nu, x)
    if x == 0.0:
        return 1.0 if nu == 0.0 else 0.0
    if x <= 12.0:
        return _series(nu, x)
    return _asymptotic(nu, x)


def gauss15_product_panel(nu, mu, p, pp, lo, hi):
    """15-point Gauss estimate of int_lo^hi J_nu(p r) J_mu(pp r) r dr."""
    c = 0.5 * (lo + hi)
    h = 0.5 * (hi - lo)
    s = 0.0
    for z, w in _G15:
        r = c + h * z
        s += w * bessel_j(nu, p * r) * bessel_j(mu, pp * r) * r
    return s * h


def kronrod21_product_panel(nu, mu, p, pp, lo, hi):
    """(Kronrod 21, Gauss 10) estimates of int_lo^hi J_nu(p r) J_mu(pp r) r dr."""
    c = 0.5 * (lo + hi)
    h = 0.5 * (hi - lo)
    k = _K21_CENTER * (bessel_j(nu, p * c) * bessel_j(mu, pp * c) * c)
    g = 0.0
    for x, wk, wg in _GK21:
        r = c - h * x
        f = bessel_j(nu, p * r) * bessel_j(mu, pp * r) * r
        r = c + h * x
        f += bessel_j(nu, p * r) * bessel_j(mu, pp * r) * r
        k += wk * f
        g += wg * f
    return k * h, g * h
