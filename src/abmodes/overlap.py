"""Cross-order Bessel overlap integrals and their numerical verification.

Closed forms (continuum normalization on rho in (0, infinity)):

    int J_nu(p r) J_nu(p' r) r dr  = delta(p-p')/sqrt(p p')             (same order)
    int J_d(p r) J_{-d}(p' r) r dr = cos(pi d) delta(p-p')/sqrt(p p')
                                     + 2 sin(pi d)/(pi (p^2 - p'^2)) (p/p')^d

for 0 < d < 1; in the cross formula the positive order carries the first
momentum p, and the swapped orientation follows by relabeling p <-> p'.

The numerical side treats the delta as what it is at finite window L: a
non-decaying oscillation sin((p-p')L)/... .  `windowed_overlap` integrates
to finite L.  `finite_part_estimate` removes the oscillation exactly with
Lommel's identity (Watson, Theory of Bessel Functions, 5.11): for
nu^2 = mu^2 the Bessel equation gives

    (p^2 - p'^2) int_0^L r J_nu(p r) J_mu(p' r) dr = B(L) - B(0+),
    B(r) = r [p' J_nu(p r) J'_mu(p' r) - p J'_nu(p r) J_mu(p' r)],

and -B(0+)/(p^2 - p'^2) is the finite part (the closed form above for
(d, -d), zero for equal orders).  So the quadrature over [0, L] minus
B(L)/((p - p')(p + p')) is the finite part at any L; the estimate takes L at
1/2, 1 and 3/2 quasi-periods pi/max(p, p'), where the kernels sum the
ascending series, and runs fixed rules on the three windows at every p'/p:
the first summed from the series of J_nu and J_mu, the other two one
G10/K21 panel each (`_quad.cell`), with no tolerance, no panel budget and no
bisection.  It runs at the momenta divided by 2^e, the least power of two
above max(p, p'), which is exact, and multiplies the result by 2^-2e:
FP(p, p') = FP(p 2^-e, p' 2^-e) 2^-2e.  So its cost and relative accuracy do
not depend on the scale of the momenta, and an extreme ratio p'/p costs no
more than an ordinary one.  Against mpmath (tests/test_overlap.py)
it is within 3e-13 of the closed form in relative terms for d in
[0.02, 0.98] and p'/p from 1 + 1e-6 to 10 on both sides.
`fit_delta_coefficient` regresses B(L)/((p - p')(p + p')), the windowed
overlap less that constant, on the oscillation and its 1/L corrections to
recover the delta coefficient itself, with no quadrature: 17 to 49 samples,
spaced so that the fast (p + p') oscillation cannot alias onto the slow
one, within 3e-6 of cos(pi d) for p'/p in [1/3, 3].  B takes J_nu and J'_nu
from `specfun.bessel_j_and_prime_many` (the recurrence J'_nu = J_{nu-1} -
(nu/x) J_nu): each estimator evaluates B at all its lengths in four kernel
calls, one for each order nu, nu - 1, mu and mu - 1, each of which builds
its order's expansion once for every argument.

Mode-level operations assemble the finite (non-delta) part of a channel
overlap in one code path, from closed_form_cross or finite_part_estimate: the
same-order terms contribute none, and the two cross terms cancel exactly when
the coefficients follow the momentum-power law b/a ~ p^{2 nu} -- the
orthogonality mechanism that pins down the extension-parameter conditions.
"""

import math
from dataclasses import dataclass

from ._quad import PanelBudget, cell, hankel_quad, product_quad
from .errors import (
    ChannelMismatchError,
    ConvergenceError,
    DomainError,
    EqualMomentaError,
    InsufficientSamplesError,
    SingularFitError,
    checked,
)
from .flux import EquationKind, critical_channels
from .modes import RadialMode, make_schrodinger_mode
from .specfun import MAX_ORDER, bessel_j_and_prime_many

__all__ = [
    "OverlapResult",
    "closed_form_same",
    "closed_form_cross",
    "windowed_overlap",
    "finite_part_estimate",
    "fit_delta_coefficient",
    "mode_overlap_finite_part",
    "mode_overlap_finite_part_numeric",
    "fit_cancelling_exponent",
    "DEFAULT_TOL",
    "DEFAULT_PANEL_BUDGET",
]

DEFAULT_TOL = 1e-9
DEFAULT_PANEL_BUDGET = 200_000

# fit_delta_coefficient samples two slow periods 2 pi/|p - p'| past a base
# window of 40 of them, at a step of at most 1/_FIT_SAMPLES of that span
# chosen so that the fast oscillation cannot alias: 17 to 49 lengths.  The
# phase p L carries an ulp of L, which costs digits as the relative
# separation shrinks (L ~ 2.5e7/p and error 8e-9 at p'/p = 1 + 1e-5, 1.2e-7
# at 1 + 1e-6); the floor keeps a margin.
_FIT_WINDOW_PERIODS = 40.0
_FIT_SAMPLES = 16
MIN_RELATIVE_SEPARATION = 1e-3

# lengths of the Lommel windows of finite_part_estimate, in quasi-periods
# pi/max(p, p'): one cell each, and every node and bracket argument
# at max(p, p') r <= 3 pi/2, where the kernels sum the ascending series
_LOMMEL_PERIODS = (0.5, 1.0, 1.5)

_EQUAL_TOL = 1e-12

# the kernels (`bessel_j` of both twins) take Hankel's expansion of J_nu(x)
# for x > 12
_HANKEL_FROM = 12.0


@dataclass(frozen=True)
class OverlapResult:
    """Delta coefficient (of delta(p-p')/sqrt(pp')) and finite remainder."""

    delta_coeff: float
    finite_part: float


def _check_momenta(p, p_prime):
    if not (0.0 < p < math.inf and 0.0 < p_prime < math.inf):
        raise DomainError(f"momenta must be positive and finite, got {p}, {p_prime}")


def _check_distinct(p, p_prime):
    if abs(p - p_prime) <= _EQUAL_TOL * max(p, p_prime):
        raise EqualMomentaError(
            f"finite part is singular at equal momenta (p = {p}, p' = {p_prime})"
        )


def _unit_scale(p, p_prime):
    """(e, p 2^-e, p' 2^-e), e the binary exponent of max(p, p').

    The larger scaled momentum lies in [1/2, 1).  Dividing by a power of two
    is exact unless the smaller one falls below the normal range, and the
    finite part scales as FP(p, p') = FP(p 2^-e, p' 2^-e) 2^-2e.
    """
    e = math.frexp(max(p, p_prime))[1]
    return e, math.ldexp(p, -e), math.ldexp(p_prime, -e)


def _scale_back(x, e):
    # x 2^-2e, the finite part at the momenta _unit_scale took e from
    return math.ldexp(x, -2 * e)


def _check_orders(*orders):
    # above -1 for convergence at 0; up to the order cap of specfun.bessel_j,
    # since the quadrature calls the kernels without it
    if not all(-1.0 < nu <= MAX_ORDER + 1.0 for nu in orders):
        raise DomainError(
            f"orders must lie in (-1, {MAX_ORDER + 1.0}], got {', '.join(map(str, orders))}"
        )


def _check_lommel_orders(nu, mu):
    _check_orders(nu, mu)
    if abs(nu) != abs(mu):
        raise DomainError(
            f"Lommel's identity needs nu^2 = mu^2, got orders {nu}, {mu}"
        )
    # the orders the library guarantees, the domain of bessel_j_and_prime_many too
    if abs(nu) > MAX_ORDER:
        raise DomainError(f"Lommel's bracket needs |nu| <= {MAX_ORDER}, got {nu}")


@checked
def closed_form_same(nu: float, p: float, p_prime: float) -> OverlapResult:
    """Same-order overlap: pure delta, unit coefficient, no finite part."""
    _check_momenta(p, p_prime)
    _check_orders(nu)
    return OverlapResult(delta_coeff=1.0, finite_part=0.0)


@checked
def closed_form_cross(delta_order: float, p: float, p_prime: float) -> OverlapResult:
    """Cross-order overlap of J_{+d}(p r) and J_{-d}(p' r), 0 < d < 1.

    delta coefficient cos(pi d); finite part
    2 sin(pi d) / (pi (p^2 - p'^2)) * (p/p')^d, singular on the diagonal.
    The formula is evaluated at the momenta scaled by a power of two
    (`_unit_scale`) and scaled back, so (p - p')(p + p') cannot leave the
    range of doubles; a finite part that overflows a double raises
    NumericalFailureError (`checked`), and one below the normal range
    returns subnormal.
    """
    _check_momenta(p, p_prime)
    if not 0.0 < delta_order < 1.0:
        raise DomainError(
            f"cross-order formula needs 0 < delta < 1, got {delta_order}"
        )
    _check_distinct(p, p_prime)
    e, q, q_prime = _unit_scale(p, p_prime)
    finite = 2.0 * math.sin(math.pi * delta_order) / (math.pi * (q - q_prime) * (q + q_prime))
    return OverlapResult(
        delta_coeff=math.cos(math.pi * delta_order),
        finite_part=_scale_back(finite * (q / q_prime) ** delta_order, e),
    )


@checked
def windowed_overlap(
    nu: float,
    mu: float,
    p: float,
    p_prime: float,
    L: float,
    *,
    tol: float = DEFAULT_TOL,
    panel_budget: int = DEFAULT_PANEL_BUDGET,
) -> float:
    """int_0^L J_nu(p r) J_mu(p' r) r dr by adaptive panels.

    Absolute accuracy `tol` (default 1e-9): every panel meets its share of
    it, or the panels run out and ConvergenceError is raised.  Up to
    r_h = 12/min(p, p') the integrand is split into quasi-periods of
    G10/K21 cells, except the first, which is summed from the ascending
    series of J_nu and J_mu, exact to rounding, whatever the orders (at
    r = 0 the integrand has a branch point unless nu + mu is an integer):
    (-0.9, -0.9, 1, 2, 10) is within 4e-13 of a 40-digit mpmath value in 7
    panels, (-0.6, -0.6, 1, 1.7, 10) within 3e-13 in 6.  Past r_h both Bessel
    functions take Hankel's expansion, and [r_h, L] is integrated on
    Filon-Legendre panels that double in length (`_quad.hankel_quad`), so
    the cost grows with log L: L = 25,000 at p'/p = 1.02 takes 20 panels,
    within 1e-10 of Lommel's closed form.  Each region gets tol/2.  A window
    end whose ulp moves the integral by more than that raises
    ConvergenceError before any panel.  `tol` bounds the quadrature error
    only, not the kernels' own error in J_nu, which the panels integrate
    too: (6, 5.5, 0.01, 0.011, 5000) is 2.6e-9 from a 30-digit mpmath
    value at tol 1e-9.
    """
    _check_orders(nu, mu)
    _check_momenta(p, p_prime)
    if not 0.0 < L < math.inf:
        raise DomainError(f"window length must be positive and finite, got {L}")
    budget = PanelBudget(panel_budget)
    r_h = _HANKEL_FROM / min(p, p_prime)
    if L <= r_h:
        return product_quad(nu, mu, p, p_prime, 0.0, L, tol, budget)
    return product_quad(nu, mu, p, p_prime, 0.0, r_h, 0.5 * tol, budget) + hankel_quad(
        nu, mu, p, p_prime, r_h, L, 0.5 * tol, budget
    )


def _lommel_brackets(nu, mu, p, p_prime, rs):
    # B(r) = r [p' J_nu(p r) J'_mu(p' r) - p J'_nu(p r) J_mu(p' r)] at each
    # r of rs, in four kernel calls: one for each order nu, nu - 1, mu, mu - 1
    j_nu, d_nu = bessel_j_and_prime_many(nu, [p * r for r in rs])
    j_mu, d_mu = bessel_j_and_prime_many(mu, [p_prime * r for r in rs])
    return [
        r * (p_prime * a * b - p * c * d)
        for r, a, b, c, d in zip(rs, j_nu, d_mu, d_nu, j_mu)
    ]


@checked
def finite_part_estimate(nu: float, mu: float, p: float, p_prime: float) -> tuple:
    """Estimate the non-delta part of the infinite overlap; returns (value, est_error).

    Needs nu^2 = mu^2 and |nu| <= MAX_ORDER (DomainError otherwise).  By
    Lommel's identity

        (p^2 - p'^2) int_0^L r J_nu(p r) J_mu(p' r) dr = B(L) - B(0+),
        B(r) = r [p' J_nu(p r) J'_mu(p' r) - p J'_nu(p r) J_mu(p' r)],

    the finite part -B(0+)/(p^2 - p'^2) equals the quadrature over [0, L]
    minus B(L)/((p - p')(p + p')) at every L.  The estimate takes L at 1/2,
    1 and 3/2 quasi-periods pi/max(p, p') in one running sum, one fixed
    rule a window (`_quad.cell`): the first summed from the ascending
    series, the others one G10/K21 panel each, at its K21 value.  It takes
    no tolerance and no panel budget and never bisects, so its cost does
    not depend on p'/p, and it returns the value at 3/2; est_error is the
    half-spread of the three.  The three cells run first, then the three
    brackets in four kernel calls (J_nu and J'_nu from
    `specfun.bessel_j_and_prime_many`), so that a cell that fails is
    reported before a bracket.  Every node and bracket argument stays at
    max(p, p') r <= 3 pi/2, where the kernels sum the ascending series,
    clear of their switch to Hankel's expansion at 12.
    The windows run at the momenta divided by 2^e, e the binary exponent of
    max(p, p'), which is exact, and the value and est_error are multiplied
    by 2^-2e: the scaled problem is the same at every magnitude of the
    momenta.  The two panels' cells lie three and five half-lengths from
    r = 0, and the integrand is analytic there, so K21's error is about
    rho^-42 with the Bernstein parameter rho about 5.8 and 9.9, far below
    rounding; bisecting could not improve it.  B(0+) and the closed form
    are never evaluated, so the estimate checks the closed form
    independently: within 3e-13 of it in relative terms for d in
    [0.02, 0.98] and p'/p from 1 + 1e-6 to 10 on both sides, within 1e-14
    at p'/p = 1.3 and 1/1.3 for p from 1e-150 to 1e5, and within 1e-13 for
    the orders (d, -d), d in {0.3, 0.7, 0.95}, and (-0.7, 0.7) at p'/p from
    1e-48 to 1e-10.
    EqualMomentaError when p and p' agree to 1e-12; NumericalFailureError
    when a panel is not finite or the finite part overflows (`checked`);
    ConvergenceError when the spread, or the summed |K21 - G10| of the two
    panels scaled back by 2^-2e, exceeds 1e-3 * max(1, |value|), with the
    message naming which.
    """
    _check_lommel_orders(nu, mu)
    _check_momenta(p, p_prime)
    _check_distinct(p, p_prime)
    e, p, p_prime = _unit_scale(p, p_prime)
    step = math.pi / max(p, p_prime)
    scale = (p - p_prime) * (p + p_prime)
    ends = [periods * step for periods in _LOMMEL_PERIODS]
    running = disagreement = 0.0
    integrals = []
    for lo, L in zip([0.0] + ends, ends):
        fine, coarse = cell(nu, mu, p, p_prime, lo, L)
        running += fine
        disagreement += abs(fine - coarse)
        integrals.append(running)
    brackets = _lommel_brackets(nu, mu, p, p_prime, ends)
    values = [q - b / scale for q, b in zip(integrals, brackets)]
    value = _scale_back(values[-1], e)
    est_error = _scale_back(0.5 * (max(values) - min(values)), e)
    gate = 1e-3 * max(1.0, abs(value))
    for what, size in (("spread", est_error), ("panel disagreement", _scale_back(disagreement, e))):
        if size > gate:
            raise ConvergenceError(
                f"finite part did not settle: {what} {size:.3e} at value {value:.6e}"
            )
    return value, est_error


def _dot(a, b):
    # a . b summed left to right in plain double additions: sum() of floats
    # is compensated from Python 3.12 on and fsum correctly rounded, so
    # either would make the fit depend on the Python version or move its
    # doubles.  A loop is quicker here than functools.reduce over map.
    s = 0.0
    for x, y in zip(a, b):
        s += x * y
    return s


def _solve_normal_equations(cols, ys):
    """Least squares via normal equations, Gaussian elimination with pivoting.

    cols are the columns of the design matrix A.
    """
    m = len(cols)
    # the upper triangle of A^T A, mirrored below: products commute exactly,
    # so the doubles are those of the full square
    ata = [[0.0] * m for _ in range(m)]
    for i in range(m):
        for j in range(i, m):
            ata[i][j] = ata[j][i] = _dot(cols[i], cols[j])
    atb = [_dot(col, ys) for col in cols]
    aug = [ata[i] + [atb[i]] for i in range(m)]
    for c in range(m):
        piv = max(range(c, m), key=lambda r: abs(aug[r][c]))
        if abs(aug[piv][c]) < 1e-300:
            raise SingularFitError("normal equations are singular")
        aug[c], aug[piv] = aug[piv], aug[c]
        for r in range(c + 1, m):
            f = aug[r][c] / aug[c][c]
            for k in range(c, m + 1):
                aug[r][k] -= f * aug[c][k]
    beta = [0.0] * m
    for r in range(m - 1, -1, -1):
        s = aug[r][m] - _dot(aug[r][r + 1 : m], beta[r + 1 :])
        beta[r] = s / aug[r][r]
    return beta


@checked
def fit_delta_coefficient(nu: float, mu: float, p: float, p_prime: float) -> float:
    """Recover the delta coefficient from the window oscillation.

    Fits A sin((p-p')L)/(pi (p-p') sqrt(pp')) + C, with the matching cosine,
    the (p+p')-frequency pair and all four of them divided by L (their 1/L
    corrections) as nuisance regressors, to samples of B(L)/((p - p')(p + p'))
    over two slow periods past a base window.  By Lommel's identity these
    are windowed_overlap less the finite part, a constant C absorbs: A is
    what a fit of the windowed integral gives, with no quadrature.  The
    sample step advances the fast phase by an odd multiple of pi/2, so the
    fast oscillation cannot alias onto the slow one: 17 to 49 samples of
    the bracket, all from four kernel calls.  Returns A, which approaches
    cos(pi d) for (+d, -d) and 1 for equal orders; for orders d in
    [0.05, 0.95] it is within 3e-8 of cos(pi d) for p'/p in [1.002, 1.4],
    1e-6 in [1.4, 2.2] and 3e-6 in [2.2, 3], and the same at the reciprocal
    ratios (tests/test_overlap.py).  A depends on p'/p only, so the fit runs
    at (1, p'/p): momenta from 1e-300 to 1e150 give the same A.  Same order
    domain as finite_part_estimate; EqualMomentaError when |1 - p'/p| is
    below MIN_RELATIVE_SEPARATION max(1, p'/p), at every scale, DomainError
    when p'/p is not a finite positive double.
    """
    _check_lommel_orders(nu, mu)
    _check_momenta(p, p_prime)
    # A depends on p'/p only: fit and test the separation at (1, p'/p), where
    # no regressor scale overflows and p - p' cannot underflow to 0
    p, p_prime = 1.0, p_prime / p
    if not 0.0 < p_prime < math.inf:
        raise DomainError(f"momentum ratio p'/p = {p_prime} is not a positive finite double")
    if abs(p - p_prime) < MIN_RELATIVE_SEPARATION * max(p, p_prime):
        raise EqualMomentaError(
            f"relative momentum separation below {MIN_RELATIVE_SEPARATION}: "
            f"p'/p = {p_prime}"
        )
    dp = p - p_prime
    sp = p + p_prime
    t_slow = 2.0 * math.pi / abs(dp)
    L0 = _FIT_WINDOW_PERIODS * t_slow
    span = 2.0 * t_slow
    # the fast phase sp L advances by (k + 1/2) pi per step, an odd multiple
    # of pi/2, so that it cannot alias onto the slow one (at most pi/4 per
    # step); k is the largest with step <= span/_FIT_SAMPLES.  No k >= 0
    # fits outside 1/3 <= p'/p <= 3, where the fast phase already advances
    # by less than pi/2 per step of span/_FIT_SAMPLES
    k = math.floor(sp * span / (math.pi * _FIT_SAMPLES) - 0.5)
    step = (k + 0.5) * math.pi / sp if k >= 0 else span / _FIT_SAMPLES
    Ls = [L0 + i * step for i in range(math.floor(span / step) + 1)]
    scale = dp * sp
    ys = [b / scale for b in _lommel_brackets(nu, mu, p, p_prime, Ls)]
    c_slow = 1.0 / (math.pi * dp * math.sqrt(p * p_prime))
    c_fast = 1.0 / (math.pi * sp * math.sqrt(p * p_prime))
    waves = [
        [wave(w * L) * c for L in Ls]
        for w, c in ((dp, c_slow), (sp, c_fast))
        for wave in (math.sin, math.cos)
    ]
    cols = waves + [[1.0] * len(Ls)] + [[v / L for v, L in zip(col, Ls)] for col in waves]
    return _solve_normal_equations(cols, ys)[0]


def _assemble_cross_terms(mode_a: RadialMode, mode_b: RadialMode, finite_part) -> tuple:
    """(value, error) of the overlap's finite part, summed over its two cross
    terms: finite_part(nu, p_first, p_second) gives the (value, error) of the
    term whose +nu order carries p_first, a zero coefficient skips its term,
    and the errors add linearly."""
    if (
        mode_a.kind is not mode_b.kind
        or mode_a.l != mode_b.l
        or mode_a.order_a != mode_b.order_a
    ):
        raise ChannelMismatchError(
            f"modes live in different channels: ({mode_a.kind.value}, l={mode_a.l}, "
            f"order {mode_a.order_a:.6g}) vs ({mode_b.kind.value}, l={mode_b.l}, "
            f"order {mode_b.order_a:.6g})"
        )
    _check_distinct(mode_a.p, mode_b.p)
    nu = mode_a.order
    if not 0.0 < nu < 1.0:
        raise ChannelMismatchError(
            f"finite part is defined for critical channels with order in (0, 1), "
            f"got {nu:.6g}"
        )
    a_pos, a_neg = mode_a.amplitudes
    b_pos, b_neg = mode_b.amplitudes
    value = err = 0.0
    # term 1: +nu carries p_a; term 2: +nu carries p_b
    terms = ((a_pos * b_neg, mode_a.p, mode_b.p), (b_pos * a_neg, mode_b.p, mode_a.p))
    for coeff, p_first, p_second in terms:
        if coeff != 0.0:
            v, e = finite_part(nu, p_first, p_second)
            value += coeff * v
            err += abs(coeff) * e
    return value, err


@checked
def mode_overlap_finite_part(mode_a: RadialMode, mode_b: RadialMode) -> float:
    """Finite (non-delta) part of int R_a(p r) R_b(p' r) r dr, closed-form assembly.

    Only the two cross-order terms contribute; each is a closed_form_cross
    finite part weighted by the mode coefficients.
    """
    # the lambdas here and below look their function up in the module at each
    # call, so that a wrapper replacing the module attribute sees every term
    return _assemble_cross_terms(
        mode_a, mode_b, lambda nu, p, q: (closed_form_cross(nu, p, q).finite_part, 0.0)
    )[0]


@checked
def mode_overlap_finite_part_numeric(mode_a: RadialMode, mode_b: RadialMode) -> tuple:
    """Independent quadrature estimate of the mode overlap finite part.

    The same assembly as mode_overlap_finite_part, with finite_part_estimate
    on each cross term; returns (value, est_error) with errors combined
    linearly.  This is the oracle path; it never touches the closed forms.
    """
    return _assemble_cross_terms(
        mode_a, mode_b, lambda nu, p, q: finite_part_estimate(nu, -nu, p, q)
    )


@checked
def fit_cancelling_exponent(flux, channel: int, momenta) -> float:
    """Exponent of the momentum-power law that orthogonalizes a critical channel.

    For every momentum pair, solves mode_overlap_finite_part = 0 for the
    coefficient ratio beta(p)/beta(p'), then least-squares fits
    log beta against log p.  The slope is 2 delta for channel N and
    2 (1 - delta) for channel N + 1.  DomainError names the first momentum,
    in the order given, that is not positive and finite.
    """
    if channel not in critical_channels(flux, EquationKind.SCHRODINGER):
        raise ChannelMismatchError(
            f"channel {channel} is not critical for flux {flux.phi}"
        )
    momenta = [float(p) for p in momenta]
    # in input order: sorted() has no defined order with a NaN among the
    # momenta, nor has a set of them (a NaN hashes by its identity)
    for p in momenta:
        if not 0.0 < p < math.inf:
            raise DomainError(f"momenta must be positive and finite, got {p}")
    ps = sorted(set(momenta))
    if len(ps) < 3:
        raise InsufficientSamplesError(
            f"exponent fit needs >= 3 distinct momenta, got {len(ps)}"
        )
    # beta(p) relative to the smallest momentum, via the linearity of the
    # finite part in the irregular coefficient
    p_ref = ps[0]
    log_beta = {p_ref: 0.0}
    ref_mode = make_schrodinger_mode(channel, flux, p_ref, 1.0, 1.0)
    for p in ps[1:]:
        f0 = mode_overlap_finite_part(
            make_schrodinger_mode(channel, flux, p, 1.0, 0.0), ref_mode
        )
        f1 = mode_overlap_finite_part(
            make_schrodinger_mode(channel, flux, p, 1.0, 1.0), ref_mode
        )
        slope = f1 - f0
        if slope == 0.0:
            raise SingularFitError(
                f"cannot solve for the coefficient ratio at p = {p}"
            )
        beta = -f0 / slope
        if beta <= 0.0:
            raise SingularFitError(
                f"non-positive coefficient ratio {beta} at p = {p}"
            )
        log_beta[p] = math.log(beta)
    num = 0.0
    den = 0.0
    for i in range(len(ps)):
        for j in range(i + 1, len(ps)):
            dx = math.log(ps[j]) - math.log(ps[i])
            dy = log_beta[ps[j]] - log_beta[ps[i]]
            num += dx * dy
            den += dx * dx
    if den == 0.0:
        raise SingularFitError("momenta are not distinct in log space")
    return num / den
