"""Pure-Python numerical kernels (fallback backend).

Hot scalar routines used throughout the library: Bessel J of arbitrary real
order, and two panels of the product integrand J_nu(p rho) J_mu(p' rho) rho:
the embedded Gauss-Kronrod G10/K21 pair, and a Filon-Legendre panel for where
both arguments exceed 12.
`abmodes._kernels_c`, compiled from the hand-written `_kernels_c.c`, is the
twin: it mirrors each function here operation for operation, except
`hankel_product_panel` and `spherical_j`, so an edit here goes into the C as
well, and `tests/test_backends.py` compares the two with ==.  The Hankel
panel runs from here on either kernel set: only the windowed engine calls
it, and no workload times it.  The algorithms:

* Gamma: Python's `math.gamma`, exact at the integers 1 to 23, in both
  twins (the C calls the same function; libm's tgamma returns other
  doubles).  `gamma` is that function.
* J_nu: ascending power series for x <= 12, Hankel large-argument expansion
  with optimal truncation (up to 59 correction terms) for x > 12.  A panel
  builds each order's expansion once, `_expansion`, for all its arguments,
  and `bessel_j` one for its one argument or for its tuple of arguments
  (`overlap`'s Lommel brackets at all of an estimator's window lengths):
  Gamma(nu + 1) of the series, which keeps its term recurrence, order of
  operations and stop rule at every argument, and, for a range of several
  arguments, the table of the series' divisors k (nu + k), k = 1..32, which
  the series divides by instead of forming each product per term (the same
  doubles; a scalar call builds no table, which would cost it more than it
  saves, and the C twin forms them inline); and Hankel's coefficients
  c_k, from which P and Q are Horner sums in 1/x^2.  Each argument has its
  own cut of Hankel's sum, found by bisecting running bounds of the
  coefficients: before the first k > 2 whose term does not shrink, or
  after the first term <= 1e-18.  The cut does not depend on the range the
  coefficients were built for, so a panel, one argument and a tuple give
  the same J_nu(x) at each x.  It is the cut of a term-by-term loop up to
  rounding where a term sits at the boundary, so P and Q may differ from
  such a loop's by about one smallest term (within 6.7e-16 on 3,000 random
  (nu, x), nu in (-1, 6], x > 12).  (A cut fixed per panel would be
  faster, but the truncation errors of P and Q then share a sign and add
  up in the slow (p - p') phase of a Hankel panel.)  Negative integer
  orders reduce to J_{-m} = (-1)^m J_m, once per expansion.  Hankel's phase
  chi = x - (nu/2 + 1/4) pi enters by the angle difference, from cos x,
  sin x and the expansion's cos and sin of (nu/2 + 1/4) pi, since libm
  reduces x exactly where x - (nu/2 + 1/4) pi in doubles loses the phase
  to the ulp of x.  Where x/2 underflows to 0 under a negative order the
  series returns NaN.  At every x > 0 the error relative to
  max(|J_nu|, sqrt(2/(pi x))) is at most 1e-11 for |nu| <= 2 and 3e-11 for
  |nu| <= 6, largest just around the switch at x = 12, and 5e-15 beyond
  x = 100.
* Product panel: `kronrod21_product_panel` returns the 21-point Kronrod and
  the embedded 10-point Gauss estimates from the same 21 integrand values
  (Piessens et al., QUADPACK, 1983); `_quad` accepts the Kronrod value when
  the two agree.
* Hankel panel: `hankel_product_panel`, for p lo and p' lo above 12, where
  J_nu(x) = sqrt(2/(pi x)) (P cos chi - Q sin chi).  The integrand is then
  1/(pi sqrt(p p')) times two phases, (p + p') r and (p - p') r, with
  amplitudes P1 P2 -+ Q1 Q2 and P1 Q2 +- Q1 P2 that are smooth in r (P and
  Q from the same coefficients and cut, `_hankel_pq`, as J_nu).  Each
  amplitude is interpolated at the 16 Gauss-Legendre nodes, expanded in
  Legendre polynomials, and integrated term by term with
  int_{-1}^{1} P_k(t) e^{i kappa t} dt = 2 i^k j_k(kappa), kappa the
  frequency times the half length: exact for amplitudes of degree 15 at
  any number of periods (Filon-type quadrature; Iserles and Norsett, Proc.
  R. Soc. A 461, 2005, 1383).  The coarse estimate drops the last four
  Legendre terms.  The two phases at the panel's centre enter by the angle
  difference, as chi does in J_nu.  The spherical Bessel j_k come from
  `spherical_j`: the forward recurrence for kappa > 16, Miller's backward
  recurrence below, rescaled below overflow and normalized by j_0 or j_1,
  and the leading term kappa^k/(2k+1)!! below 1e-8 (exact at 0); within
  5e-16 of mpmath, relative to |j_k| for kappa < 1 and to max(|j_k|,
  1/kappa) above.

`tests/test_specfun.py` asserts the J bounds against mpmath out to x = 1e300,
and `tests/test_quad.py` checks the G10/K21 and 16-node tables against
Legendre's nodes and the moments of [-1, 1], and `spherical_j` and the
Hankel panel against mpmath.

`gauss15_product_panel`, a 15-point Gauss panel of the same integrand, is
used by no code in the package.  It stays, in both twins, only because the
benchmark's kernel micro-rows time it; it goes with the next change to the
benchmark.

Domain policing (x < 0, poles, order caps) is the caller's job; `specfun`
wraps these with validation.
"""

import math
from bisect import bisect_left
from math import gamma

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
_GK21_EDGE = _GK21[-1][0]

# Gauss-Legendre nodes on [-1, 1], order 16 (exact to degree 31): (node x,
# weight) for the eight symmetric pairs +-x, innermost first.
_GL16 = (
    (0.09501250983763744, 0.1894506104550685),
    (0.2816035507792589, 0.18260341504492358),
    (0.45801677765722737, 0.16915651939500254),
    (0.6178762444026438, 0.14959598881657674),
    (0.755404408355003, 0.12462897125553388),
    (0.8656312023878318, 0.09515851168249279),
    (0.9445750230732326, 0.062253523938647894),
    (0.9894009349916499, 0.027152459411754096),
)
_GL16_EDGE = _GL16[-1][0]

# Miller's backward recurrence for j_k starts at n = 40: at kappa = 16, the
# worst case, the start reaches j_0..j_15 damped below 3e-23 relative
# ((j_40/y_40)(y_k/j_k))
_MILLER_START = 40

# The series' divisors k (nu + k) that an expansion for several arguments
# tabulates, k = 1..32: at x <= 12 the series stops within 31 terms for every
# order in [-6, 6] (within 28 in (-1, 6], 18 at x <= 4.72), so past the table
# `_series` computes them inline only as a guard
_SERIES_KS = range(1, 33)

# J_nu(x) is summed from the ascending series for x <= 12 and from Hankel's
# expansion above; the C twin's HANKEL_FROM is the same switch
_HANKEL_FROM = 12.0

# Hankel's expansion, term k = 1..59: (k, (2k - 1)^2, +-8k, 1/k).  The sign
# of 8k, + for odd k and - for even k, makes the products of the term ratios
# the signed coefficients + + - - of P and Q (exactly, as negation is exact).
_HANKEL_STEPS = tuple(
    (k, float((2 * k - 1) ** 2), 8.0 * k if k & 1 else -8.0 * k, 1.0 / k) for k in range(1, 60)
)


def _expansion(nu, x_lo, x_hi):
    """J_nu's expansion for arguments in [x_lo, x_hi], built once for all of them.

    (sign, nu, g, divisors, hankel): a negative integer order reflected,
    J_{-m} = (-1)^m J_m; Gamma(nu + 1) for the series (when x_lo <= 12),
    and the series' divisors k (nu + k) when the range holds more than one
    argument (for one, the table would cost more than it saves); Hankel's
    coefficients, with the cos and sin of the phase (nu/2 + 1/4) pi, for the
    arguments above 12 (when x_hi > 12).  `_j` evaluates it at one argument.
    """
    sign = 1.0
    if nu < 0.0 and nu == math.floor(nu):
        sign = 1.0 if (int(-nu) & 1) == 0 else -1.0
        nu = -nu
    g = hankel = None
    divisors = ()
    if not x_lo > _HANKEL_FROM:
        g = gamma(nu + 1.0)
        if x_lo < x_hi:
            divisors = [k * (nu + k) for k in _SERIES_KS]
    if not x_hi <= _HANKEL_FROM:
        lo = x_lo if x_lo > _HANKEL_FROM else _HANKEL_FROM
        phase = (0.5 * nu + 0.25) * math.pi
        hankel = _hankel_coefficients(nu, lo, x_hi), math.cos(phase), math.sin(phase)
    return sign, nu, g, divisors, hankel


def _j(expansion, x):
    """J_nu(x) from `_expansion(nu, x_lo, x_hi)`, x in [x_lo, x_hi]."""
    sign, nu, g, divisors, hankel = expansion
    if x == 0.0:
        return sign * (1.0 if nu == 0.0 else 0.0)
    if x <= _HANKEL_FROM:
        return sign * _series(nu, x, g, divisors)
    return sign * _asymptotic(x, hankel)


def _series(nu, x, g, divisors=()):
    # ascending series; term recurrence t_k = -t_{k-1} (x/2)^2 / (k (nu+k)),
    # g = Gamma(nu + 1), the divisors k (nu + k) read from `divisors` for
    # k = 1, 2, ... as far as it goes and computed inline past it (the same
    # doubles either way).  nu must not be a negative integer (gamma pole);
    # _expansion reduces those.
    h = 0.5 * x
    if h == 0.0 and nu < 0.0:
        # x/2 underflowed to 0, where h**nu has no finite value (Python's
        # power raises, C's is inf and the series inf * 0): NaN in both twins
        return math.nan
    t = h**nu / g
    s = t
    q = -h * h
    biggest = abs(t)
    for d in divisors:
        t *= q / d
        s += t
        a = abs(t)
        if a > biggest:
            biggest = a
        elif a <= 1e-18 * biggest:
            return s
    for k in range(len(divisors) + 1, 400):
        t *= q / (k * (nu + k))
        s += t
        a = abs(t)
        if a > biggest:
            biggest = a
        elif a <= 1e-18 * biggest:
            break
    return s


def _hankel_coefficients(nu, x_lo, x_hi):
    # Hankel's P = sum_i c_2i y^i and Q = x^-1 sum_i c_2i+1 y^i, y = x^-2,
    # with c_k = +-a_k, a_k = prod_{j <= k} (4 nu^2 - (2j - 1)^2)/(8j), the
    # signs + + - - by k mod 4: term k is a_k x^-k.  Each argument sums up
    # to its own cut, that of optimal truncation of the divergent tail: it
    # stops before the first k > 2 whose term does not shrink, |a_k/a_k-1|
    # >= x (terms may grow once before decaying, for large nu), or after the
    # first term <= 1e-18, x >= (1e18 |a_k|)^(1/k), both up to rounding at
    # the boundary.  `growth` holds the running maximum of |a_k/a_k-1| from
    # k = 3 on (0 before), `small` minus the running minimum of
    # (1e18 |a_k|)^(1/k), both ascending, so that `_hankel_pq` bisects them
    # for the first k to meet either rule.  The lists end at x_hi's growth
    # cut or at x_lo's 1e-18 cut, past which no argument in [x_lo, x_hi] sums.
    mu = 4.0 * nu * nu
    coef = [1.0]
    growth = []
    small = []
    c = 1.0
    top = 0.0
    least = math.inf
    reach = 2.0
    for k, m2, d, inv_k in _HANKEL_STEPS:
        ratio = (mu - m2) / d
        if k > 2:
            r = abs(ratio)
            if r >= x_hi:
                break
            if r > top:
                top = r
        c *= ratio
        a = abs(c) * 1e18
        # the root only where it may reach x_hi: above reach = 2 x_hi^k it
        # exceeds x_hi by 2^(1/k) >= 1.0118, far more than the rounding, so
        # it cuts no argument in the range and is left out of the minimum.
        # This spares most steps their pow, without which a C bessel_j above
        # 12 costs over twice as much
        reach *= x_hi
        if a <= reach:
            bound = a**inv_k
            if bound < least:
                least = bound
        coef.append(c)
        growth.append(top)
        small.append(-least)
        if least <= x_lo:
            break
    return coef, growth, small


def _hankel_pq(hankel, x):
    # Hankel's P and Q of J_nu ~ sqrt(2/(pi x)) (P cos chi - Q sin chi), by
    # Horner in 1/x^2 over the terms up to x's cut
    coef, growth, small = hankel
    cut = bisect_left(growth, x)
    stop = bisect_left(small, -x) + 1
    if stop < cut:
        cut = stop
    xi = 1.0 / x
    y = xi * xi
    p = 0.0
    for c in reversed(coef[0 : cut + 1 : 2]):
        p = p * y + c
    q = 0.0
    for c in reversed(coef[1 : cut + 1 : 2]):
        q = q * y + c
    return p, q * xi


def _cos_sin_minus(x, cos_phase, sin_phase):
    # (cos, sin) of x - phase by the angle difference: libm reduces x
    # exactly, where x - phase in doubles would lose the phase to the ulp of
    # x (from x = 1e17 on, every order would give the same J_nu(x))
    cos_x = math.cos(x)
    sin_x = math.sin(x)
    return cos_x * cos_phase + sin_x * sin_phase, sin_x * cos_phase - cos_x * sin_phase


def _asymptotic(x, hankel):
    # Hankel expansion J_nu ~ sqrt(2/(pi x)) (P cos chi - Q sin chi),
    # chi = x - (nu/2 + 1/4) pi, from _expansion's (coefficients, cos and
    # sin of the phase (nu/2 + 1/4) pi)
    coefficients, cos_phase, sin_phase = hankel
    p, q = _hankel_pq(coefficients, x)
    cos_chi, sin_chi = _cos_sin_minus(x, cos_phase, sin_phase)
    return math.sqrt(2.0 / (math.pi * x)) * (cos_chi * p - sin_chi * q)


def bessel_j(nu, x):
    """J_nu(x) for real order and x >= 0 (x = 0 only with nu >= 0).

    For a non-empty tuple x, the tuple of J_nu at each of its elements,
    from one expansion for all of them.
    """
    if isinstance(x, tuple):
        expansion = _expansion(nu, min(x), max(x))
        return tuple([_j(expansion, t) for t in x])
    return _j(_expansion(nu, x, x), x)


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
    # each order's expansion once, for the arguments between those of the
    # outermost nodes, where every node's lies (lo > hi too: hence abs)
    edge = abs(h) * _GK21_EDGE
    j_nu = _expansion(nu, p * (c - edge), p * (c + edge))
    j_mu = _expansion(mu, pp * (c - edge), pp * (c + edge))
    k = _K21_CENTER * (_j(j_nu, p * c) * _j(j_mu, pp * c) * c)
    g = 0.0
    for x, wk, wg in _GK21:
        r = c - h * x
        f = _j(j_nu, p * r) * _j(j_mu, pp * r) * r
        r = c + h * x
        f += _j(j_nu, p * r) * _j(j_mu, pp * r) * r
        k += wk * f
        g += wg * f
    return k * h, g * h


def spherical_j(kappa):
    """[j_0(kappa), ..., j_15(kappa)], spherical Bessel functions, kappa >= 0."""
    j = [0.0] * 16
    if kappa < 1e-8:
        # the leading term kappa^k/(2k+1)!!, off by less than kappa^2/6 in
        # relative terms; exact at 0, and Miller's ratios (2k+1)/kappa
        # would overflow below about 1e-306
        t = 1.0
        for k in range(16):
            j[k] = t
            t *= kappa / (2 * k + 3)
        return j
    j0 = math.sin(kappa) / kappa
    j1 = (j0 - math.cos(kappa)) / kappa
    if kappa > 16.0:
        # forward recurrence j_{k+1} = (2k+1)/kappa j_k - j_{k-1}, stable for k < kappa
        j[0] = j0
        j[1] = j1
        for k in range(1, 15):
            j[k + 1] = (2 * k + 1) / kappa * j[k] - j[k - 1]
        return j
    # Miller: the same recurrence run downwards from f_41 = 0, f_40 = 1,
    # rescaled below overflow, then normalized by j_0 or j_1, whichever is
    # larger (j_0 vanishes at multiples of pi; j_1 loses digits for small kappa)
    above = 0.0
    f = 1.0
    for n in range(_MILLER_START, 0, -1):
        above, f = f, (2 * n + 1) / kappa * f - above
        if n <= 16:
            j[n - 1] = f
        if abs(f) > 1e250:
            above *= 1e-250
            f *= 1e-250
            for i in range(n - 1, 16):
                j[i] *= 1e-250
    scale = j0 / j[0] if abs(j0) >= abs(j1) else j1 / j[1]
    for k in range(16):
        j[k] *= scale
    return j


def _filon_weights(kappa):
    # (2k+1) i^k j_k(kappa) P_k(t) sums to e^{i kappa t} truncated, and
    # int_{-1}^{1} P_k(t) e^{i kappa t} dt = 2 i^k j_k(kappa); the returned
    # a_k = (2k+1) Re or Im of i^k j_k, the even k real, the odd k imaginary
    j = spherical_j(kappa)
    a = [0.0] * 16
    for k in range(16):
        a[k] = (2 * k + 1) * j[k] if (k & 2) == 0 else -((2 * k + 1) * j[k])
    return a


def hankel_product_panel(nu, mu, p, pp, lo, hi):
    """(value, coarse) estimates of int_lo^hi J_nu(p r) J_mu(pp r) r dr, p lo, pp lo > 12.

    Filon-Legendre panel on Hankel's expansion: J_nu(p r) J_mu(pp r) r is
    (1/(pi sqrt(p pp))) Re[F_s e^{i chi_s} + F_d e^{i chi_d}], with the
    phases chi_s,d = (p +- pp) r - const and the amplitudes
    F_s = (P1 P2 - Q1 Q2) + i (P1 Q2 + Q1 P2) and
    F_d = (P1 P2 + Q1 Q2) + i (Q1 P2 - P1 Q2) smooth in r.  Each amplitude
    is interpolated at the 16 Gauss-Legendre nodes and multiplied out
    against the exact moments 2 i^k j_k(kappa), kappa = |p +- pp| h, term by
    term; `coarse` drops the last four Legendre terms.
    """
    c = 0.5 * (lo + hi)
    h = 0.5 * (hi - lo)
    off_nu = (0.5 * nu + 0.25) * math.pi
    off_mu = (0.5 * mu + 0.25) * math.pi
    w_sum = p + pp
    w_dif = p - pp
    # e^{i chi_d} runs backwards when pp > p: take the conjugate of the
    # difference term, which flips its phase and the sign of Im F_d
    sign = 1.0
    if w_dif < 0.0:
        w_dif = -w_dif
        sign = -1.0
    a_s = _filon_weights(w_sum * h)
    a_d = _filon_weights(w_dif * h)
    # each order's coefficients once, as in kronrod21_product_panel
    edge = abs(h) * _GL16_EDGE
    hk_nu = _hankel_coefficients(nu, p * (c - edge), p * (c + edge))
    hk_mu = _hankel_coefficients(mu, pp * (c - edge), pp * (c + edge))
    # sums over the node pairs, (coarse, tail) x (real, imaginary) x (s, d)
    cs_re = cs_im = ts_re = ts_im = cd_re = cd_im = td_re = td_im = 0.0
    for x, w in _GL16:
        r = c - h * x
        p1, q1 = _hankel_pq(hk_nu, p * r)
        p2, q2 = _hankel_pq(hk_mu, pp * r)
        s_re = p1 * p2 - q1 * q2
        s_im = p1 * q2 + q1 * p2
        d_re = p1 * p2 + q1 * q2
        d_im = sign * (q1 * p2 - p1 * q2)
        r = c + h * x
        p1, q1 = _hankel_pq(hk_nu, p * r)
        p2, q2 = _hankel_pq(hk_mu, pp * r)
        # even (e) and odd (o) parts of the amplitudes about the center:
        # F(x) + F(-x) and F(x) - F(-x)
        e_s_re = p1 * p2 - q1 * q2
        e_s_im = p1 * q2 + q1 * p2
        e_d_re = p1 * p2 + q1 * q2
        e_d_im = sign * (q1 * p2 - p1 * q2)
        o_s_re = e_s_re - s_re
        o_s_im = e_s_im - s_im
        o_d_re = e_d_re - d_re
        o_d_im = e_d_im - d_im
        e_s_re += s_re
        e_s_im += s_im
        e_d_re += d_re
        e_d_im += d_im
        # P_k(x) by the three-term recurrence, summed against both phases'
        # weights: even k with the even part, odd k with the odd part
        leg_prev = 1.0
        leg = x
        ge_s = a_s[0]
        go_s = a_s[1] * x
        ge_d = a_d[0]
        go_d = a_d[1] * x
        for k in range(1, 15):
            leg_prev, leg = leg, ((2 * k + 1) * x * leg - k * leg_prev) / (k + 1)
            if k == 11:
                # P_12 onwards form the tail
                cge_s, cgo_s, cge_d, cgo_d = ge_s, go_s, ge_d, go_d
                ge_s = go_s = ge_d = go_d = 0.0
            if k & 1:
                ge_s += a_s[k + 1] * leg
                ge_d += a_d[k + 1] * leg
            else:
                go_s += a_s[k + 1] * leg
                go_d += a_d[k + 1] * leg
        cs_re += w * (e_s_re * cge_s - o_s_im * cgo_s)
        cs_im += w * (e_s_im * cge_s + o_s_re * cgo_s)
        cd_re += w * (e_d_re * cge_d - o_d_im * cgo_d)
        cd_im += w * (e_d_im * cge_d + o_d_re * cgo_d)
        ts_re += w * (e_s_re * ge_s - o_s_im * go_s)
        ts_im += w * (e_s_im * ge_s + o_s_re * go_s)
        td_re += w * (e_d_re * ge_d - o_d_im * go_d)
        td_im += w * (e_d_im * ge_d + o_d_re * go_d)
    # chi_s = w_sum c - (off_nu + off_mu), chi_d = w_dif c - sign (off_nu - off_mu)
    phase_s = off_nu + off_mu
    phase_d = sign * (off_nu - off_mu)
    cos_s, sin_s = _cos_sin_minus(w_sum * c, math.cos(phase_s), math.sin(phase_s))
    cos_d, sin_d = _cos_sin_minus(w_dif * c, math.cos(phase_d), math.sin(phase_d))
    scale = h / (math.pi * (math.sqrt(p) * math.sqrt(pp)))
    coarse = scale * ((cos_s * cs_re - sin_s * cs_im) + (cos_d * cd_re - sin_d * cd_im))
    tail = scale * ((cos_s * ts_re - sin_s * ts_im) + (cos_d * td_re - sin_d * td_im))
    return coarse + tail, coarse
