# cython: language_level=3, boundscheck=False, wraparound=False, cdivision=True
"""Compiled numerical kernels: algorithmic twin of `abmodes._kernels_py`.

Both return the same doubles, as `tests/test_backends.py` checks with ==.
Regenerate the tracked `_kernels_c.c` with Cython after any edit here."""

from libc.math cimport cos, exp, fabs, floor, pow, sin, sqrt

cdef double PI = 3.141592653589793
cdef double SQRT_TWO_PI = 2.5066282746310002

cdef double[9] LANCZOS
LANCZOS[0] = 0.99999999999980993
LANCZOS[1] = 676.5203681218851
LANCZOS[2] = -1259.1392167224028
LANCZOS[3] = 771.32342877765313
LANCZOS[4] = -176.61502916214059
LANCZOS[5] = 12.507343278686905
LANCZOS[6] = -0.13857109526572012
LANCZOS[7] = 9.9843695780195716e-6
LANCZOS[8] = 1.5056327351493116e-7

cdef double[15] G15_NODE
cdef double[15] G15_WEIGHT
G15_NODE[0] = -0.9879925180204854;  G15_WEIGHT[0] = 0.030753241996118647
G15_NODE[1] = -0.937273392400706;   G15_WEIGHT[1] = 0.07036604748810807
G15_NODE[2] = -0.8482065834104272;  G15_WEIGHT[2] = 0.10715922046717177
G15_NODE[3] = -0.7244177313601701;  G15_WEIGHT[3] = 0.1395706779261539
G15_NODE[4] = -0.5709721726085388;  G15_WEIGHT[4] = 0.16626920581699378
G15_NODE[5] = -0.3941513470775634;  G15_WEIGHT[5] = 0.18616100001556188
G15_NODE[6] = -0.20119409399743451; G15_WEIGHT[6] = 0.19843148532711125
G15_NODE[7] = 0.0;                  G15_WEIGHT[7] = 0.2025782419255609
G15_NODE[8] = 0.20119409399743451;  G15_WEIGHT[8] = 0.19843148532711125
G15_NODE[9] = 0.3941513470775634;   G15_WEIGHT[9] = 0.18616100001556188
G15_NODE[10] = 0.5709721726085388;  G15_WEIGHT[10] = 0.16626920581699378
G15_NODE[11] = 0.7244177313601701;  G15_WEIGHT[11] = 0.1395706779261539
G15_NODE[12] = 0.8482065834104272;  G15_WEIGHT[12] = 0.10715922046717177
G15_NODE[13] = 0.937273392400706;   G15_WEIGHT[13] = 0.07036604748810807
G15_NODE[14] = 0.9879925180204854;  G15_WEIGHT[14] = 0.030753241996118647


cdef double _sinpi(double x):
    cdef double n = floor(x)
    cdef double s = sin(PI * (x - n))
    if (<long> n) & 1:
        return -s
    return s


cdef double _gamma(double x):
    cdef double z, acc, t
    cdef int i
    if x < 0.5:
        return PI / (_sinpi(x) * _gamma(1.0 - x))
    z = x - 1.0
    acc = LANCZOS[0]
    for i in range(1, 9):
        acc += LANCZOS[i] / (z + i)
    t = z + 7.5
    return SQRT_TWO_PI * pow(t, z + 0.5) * exp(-t) * acc


cdef double _series(double nu, double x):
    cdef double h = 0.5 * x
    cdef double t = pow(h, nu) / _gamma(nu + 1.0)
    cdef double s = t
    cdef double q = -h * h
    cdef double biggest = fabs(t)
    cdef double a
    cdef int k
    for k in range(1, 400):
        t *= q / (k * (nu + k))
        s += t
        a = fabs(t)
        if a > biggest:
            biggest = a
        elif a <= 1e-18 * biggest:
            break
    return s


cdef double _asymptotic(double nu, double x):
    cdef double mu = 4.0 * nu * nu
    cdef double p = 1.0
    cdef double q = 0.0
    cdef double t = 1.0
    cdef double prev = 1.0
    cdef double a, chi
    cdef int k, r
    for k in range(1, 60):
        t *= (mu - (2.0 * k - 1.0) ** 2) / (8.0 * k * x)
        a = fabs(t)
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
    chi = x - (0.5 * nu + 0.25) * PI
    return sqrt(2.0 / (PI * x)) * (cos(chi) * p - sin(chi) * q)


cdef double _bessel_j(double nu, double x):
    cdef double sign
    if nu < 0.0 and nu == floor(nu):
        sign = 1.0 if ((<long> (-nu)) & 1) == 0 else -1.0
        return sign * _bessel_j(-nu, x)
    if x == 0.0:
        return 1.0 if nu == 0.0 else 0.0
    if x <= 12.0:
        return _series(nu, x)
    return _asymptotic(nu, x)


def gamma(double x):
    """Gamma(x) for real non-pole x (caller excludes 0, -1, -2, ...)."""
    return _gamma(x)


def bessel_j(double nu, double x):
    """J_nu(x) for real order and x >= 0 (x = 0 only with nu >= 0)."""
    return _bessel_j(nu, x)


def gauss15_product_panel(double nu, double mu, double p, double pp,
                          double lo, double hi):
    """15-point Gauss estimate of int_lo^hi J_nu(p r) J_mu(pp r) r dr."""
    cdef double c = 0.5 * (lo + hi)
    cdef double h = 0.5 * (hi - lo)
    cdef double s = 0.0
    cdef double r
    cdef int i
    for i in range(15):
        r = c + h * G15_NODE[i]
        s += G15_WEIGHT[i] * _bessel_j(nu, p * r) * _bessel_j(mu, pp * r) * r
    return s * h
