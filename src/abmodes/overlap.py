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
4, 6 and 8 quasi-periods pi/max(p, p'); for (d, -d) it costs 8 G10/K21
panels, one per quasi-period, at every p'/p.  Against mpmath
(tests/test_overlap.py) it is within 1e-10 of the closed form in relative
terms from p'/p = 1.3 to 1.0001, and within 1e-12 from 1.0005 to 1 + 1e-6.
`fit_delta_coefficient` regresses B(L)/((p - p')(p + p')), the windowed
overlap less that constant, on the oscillation to recover the delta
coefficient itself, with no quadrature.

Mode-level operations assemble the finite (non-delta) part of a channel
overlap from the closed forms: the same-order terms contribute none, and the
two cross terms cancel exactly when the coefficients follow the
momentum-power law b/a ~ p^{2 nu} -- the orthogonality mechanism that pins
down the extension-parameter conditions.
"""

import math
from dataclasses import dataclass

from ._quad import PanelBudget, product_quad
from .errors import (
    ChannelMismatchError,
    ConvergenceError,
    DomainError,
    EqualMomentaError,
    InsufficientSamplesError,
    SingularFitError,
)
from .modes import RadialMode
from .specfun import MAX_ORDER, bessel_j, bessel_j_prime

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

# fit_delta_coefficient samples 129 lengths over two slow periods
# 2 pi/|p - p'| past a base window of 40 of them.  The phase p L carries an
# ulp of L, which costs digits below a relative separation of about 1e-5
# (L ~ 2.5e7/p, error 3e-6 at p'/p = 1 + 1e-5); the floor keeps a margin.
_FIT_WINDOW_PERIODS = 40.0
_FIT_SAMPLES = 128
MIN_RELATIVE_SEPARATION = 1e-3

# lengths of the Lommel windows of finite_part_estimate, in quasi-periods
# pi/max(p, p')
_LOMMEL_PERIODS = (4, 6, 8)

_EQUAL_TOL = 1e-12


@dataclass(frozen=True)
class OverlapResult:
    """Delta coefficient (of delta(p-p')/sqrt(pp')), finite remainder, error bar."""

    delta_coeff: float
    finite_part: float
    est_error: float


def _check_momenta(p, p_prime):
    if not (0.0 < p < math.inf and 0.0 < p_prime < math.inf):
        raise DomainError(f"momenta must be positive and finite, got {p}, {p_prime}")


def _check_distinct(p, p_prime):
    if abs(p - p_prime) <= _EQUAL_TOL * max(p, p_prime):
        raise EqualMomentaError(
            f"finite part is singular at equal momenta (p = {p}, p' = {p_prime})"
        )


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


def closed_form_same(nu: float, p: float, p_prime: float) -> OverlapResult:
    """Same-order overlap: pure delta, unit coefficient, no finite part."""
    _check_momenta(p, p_prime)
    _check_orders(nu)
    return OverlapResult(delta_coeff=1.0, finite_part=0.0, est_error=0.0)


def closed_form_cross(delta_order: float, p: float, p_prime: float) -> OverlapResult:
    """Cross-order overlap of J_{+d}(p r) and J_{-d}(p' r), 0 < d < 1.

    delta coefficient cos(pi d); finite part
    2 sin(pi d) / (pi (p^2 - p'^2)) * (p/p')^d, singular on the diagonal.
    """
    _check_momenta(p, p_prime)
    if not 0.0 < delta_order < 1.0:
        raise DomainError(
            f"cross-order formula needs 0 < delta < 1, got {delta_order}"
        )
    _check_distinct(p, p_prime)
    finite = (
        2.0
        * math.sin(math.pi * delta_order)
        / (math.pi * (p - p_prime) * (p + p_prime))
        * (p / p_prime) ** delta_order
    )
    return OverlapResult(
        delta_coeff=math.cos(math.pi * delta_order), finite_part=finite, est_error=0.0
    )


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
    """int_0^L J_nu(p r) J_mu(p' r) r dr by adaptive Gauss-Kronrod panels.

    Absolute accuracy `tol` (default 1e-9) wherever the G10/K21 error
    estimate settles before a cell shrinks to the length floor 1e-13 L;
    ConvergenceError when the panel budget runs out.  At the floor the cell
    is accepted without meeting its share, so an integrand singular at r = 0
    may miss `tol`: at (nu, mu) = (-0.9, -0.9), p = 1, p' = 2, L = 10 the
    value is off by 8e-5 from mpmath, with no error raised.  Milder
    endpoint singularities bisect and meet it ((-0.6, -0.6, 1, 1.7, 10) is
    within 3e-13 of mpmath in 88 panels).
    """
    _check_orders(nu, mu)
    _check_momenta(p, p_prime)
    if not 0.0 < L < math.inf:
        raise DomainError(f"window length must be positive and finite, got {L}")
    return product_quad(nu, mu, p, p_prime, 0.0, L, tol, PanelBudget(panel_budget))


def _lommel_bracket(nu, mu, p, p_prime, r):
    # B(r) = r [p' J_nu(p r) J'_mu(p' r) - p J'_nu(p r) J_mu(p' r)]
    return r * (
        p_prime * bessel_j(nu, p * r) * bessel_j_prime(mu, p_prime * r)
        - p * bessel_j_prime(nu, p * r) * bessel_j(mu, p_prime * r)
    )


def finite_part_estimate(
    nu: float,
    mu: float,
    p: float,
    p_prime: float,
    *,
    tol: float = DEFAULT_TOL,
    panel_budget: int = DEFAULT_PANEL_BUDGET,
) -> tuple:
    """Estimate the non-delta part of the infinite overlap; returns (value, est_error).

    Needs nu^2 = mu^2 (DomainError otherwise) and |nu| <= MAX_ORDER, the
    cap of bessel_j_prime.  By Lommel's identity

        (p^2 - p'^2) int_0^L r J_nu(p r) J_mu(p' r) dr = B(L) - B(0+),
        B(r) = r [p' J_nu(p r) J'_mu(p' r) - p J'_nu(p r) J_mu(p' r)],

    the finite part -B(0+)/(p^2 - p'^2) equals the quadrature over [0, L]
    minus B(L)/((p - p')(p + p')) at every L.  The estimate takes L at 4, 6
    and 8 quasi-periods pi/max(p, p') in one running sum, so its cost does
    not depend on p'/p (8 G10/K21 panels, one per quasi-period, for the pair
    (d, -d)), and returns the value at 8; est_error is the half-spread of
    the three.  B(0+) and the closed form are never evaluated, so the
    estimate checks the closed form independently: for d = 0.3 it is within
    1e-10 of it in relative terms from p'/p = 1.3 to 1.0001, and within
    1e-12 at p'/p = 1.0005, 1.0001 and 1 + 1e-6.  EqualMomentaError when p and p' agree to 1e-12;
    ConvergenceError when the spread exceeds 1e-3 * max(1, |value|).
    """
    _check_lommel_orders(nu, mu)
    _check_momenta(p, p_prime)
    _check_distinct(p, p_prime)
    step = math.pi / max(p, p_prime)
    scale = (p - p_prime) * (p + p_prime)
    budget = PanelBudget(panel_budget)
    running = 0.0
    prev = 0.0
    values = []
    for periods in _LOMMEL_PERIODS:
        L = periods * step
        running += product_quad(nu, mu, p, p_prime, prev, L, tol, budget)
        prev = L
        values.append(running - _lommel_bracket(nu, mu, p, p_prime, L) / scale)
    value = values[-1]
    est_error = 0.5 * (max(values) - min(values))
    if est_error > 1e-3 * max(1.0, abs(value)):
        raise ConvergenceError(
            f"finite part did not settle: spread {est_error:.3e} at "
            f"value {value:.6e}; tighten tol"
        )
    return value, est_error


def _solve_normal_equations(rows, ys):
    """Least squares via normal equations, Gaussian elimination with pivoting."""
    m = len(rows[0])
    ata = [[0.0] * m for _ in range(m)]
    atb = [0.0] * m
    for row, y in zip(rows, ys):
        for i in range(m):
            atb[i] += row[i] * y
            for j in range(m):
                ata[i][j] += row[i] * row[j]
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
        s = aug[r][m] - sum(aug[r][k] * beta[k] for k in range(r + 1, m))
        beta[r] = s / aug[r][r]
    return beta


def fit_delta_coefficient(nu: float, mu: float, p: float, p_prime: float) -> float:
    """Recover the delta coefficient from the window oscillation.

    Fits A sin((p-p')L)/(pi (p-p') sqrt(pp')) + C, with the matching cosine
    and the (p+p')-frequency pair as nuisance regressors, to samples of
    B(L)/((p - p')(p + p')) over two slow periods past a base window.  By
    Lommel's identity these are windowed_overlap less the finite part, a
    constant C absorbs: A is what a fit of the windowed integral gives, with
    no quadrature.  Returns A, which approaches cos(pi d) for (+d, -d) and
    1 for equal orders.  A depends on p'/p only, so the fit runs at
    (1, p'/p): momenta from 1e-300 to 1e150 give the same A.  Same order
    domain as finite_part_estimate; EqualMomentaError below
    MIN_RELATIVE_SEPARATION, DomainError when p'/p is not a finite
    positive double.
    """
    _check_lommel_orders(nu, mu)
    _check_momenta(p, p_prime)
    if abs(p - p_prime) < MIN_RELATIVE_SEPARATION * max(p, p_prime):
        raise EqualMomentaError(
            f"relative momentum separation below {MIN_RELATIVE_SEPARATION}: "
            f"p = {p}, p' = {p_prime}"
        )
    # A depends on p'/p only: fit at (1, p'/p), where no regressor scale
    # overflows, whatever the magnitude of the momenta
    p, p_prime = 1.0, p_prime / p
    if not 0.0 < p_prime < math.inf:
        raise DomainError(f"momentum ratio p'/p = {p_prime} is not a positive finite double")
    dp = p - p_prime
    sp = p + p_prime
    t_slow = 2.0 * math.pi / abs(dp)
    L0 = _FIT_WINDOW_PERIODS * t_slow
    step = 2.0 * t_slow / _FIT_SAMPLES
    Ls = [L0 + i * step for i in range(_FIT_SAMPLES + 1)]
    scale = dp * sp
    ys = [_lommel_bracket(nu, mu, p, p_prime, L) / scale for L in Ls]
    c_slow = 1.0 / (math.pi * dp * math.sqrt(p * p_prime))
    c_fast = 1.0 / (math.pi * sp * math.sqrt(p * p_prime))
    rows = [
        [
            math.sin(dp * L) * c_slow,
            math.cos(dp * L) * c_slow,
            math.sin(sp * L) * c_fast,
            math.cos(sp * L) * c_fast,
            1.0,
        ]
        for L in Ls
    ]
    return _solve_normal_equations(rows, ys)[0]


def _same_channel(mode_a: RadialMode, mode_b: RadialMode):
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


def _cross_terms(mode_a: RadialMode, mode_b: RadialMode):
    """Coefficients and orientations of the two cross terms of the overlap."""
    nu = mode_a.order
    if not 0.0 < nu < 1.0:
        raise ChannelMismatchError(
            f"finite part is defined for critical channels with order in (0, 1), "
            f"got {nu:.6g}"
        )
    sa = mode_a.irregular_sign
    sb = mode_b.irregular_sign
    # amplitudes of the +nu / -nu orders in each mode
    if mode_a.order_a > 0.0:
        a_pos, a_neg = mode_a.a, sa * mode_a.b
        b_pos, b_neg = mode_b.a, sb * mode_b.b
    else:
        a_pos, a_neg = sa * mode_a.b, mode_a.a
        b_pos, b_neg = sb * mode_b.b, mode_b.a
    # term 1: +nu carries p_a; term 2: +nu carries p_b
    return nu, (a_pos * b_neg, mode_a.p, mode_b.p), (b_pos * a_neg, mode_b.p, mode_a.p)


def mode_overlap_finite_part(mode_a: RadialMode, mode_b: RadialMode) -> float:
    """Finite (non-delta) part of int R_a(p r) R_b(p' r) r dr, closed-form assembly.

    Only the two cross-order terms contribute; each is a closed_form_cross
    finite part weighted by the mode coefficients.
    """
    _same_channel(mode_a, mode_b)
    nu, (ca, pa, pb), (cb, qa, qb) = _cross_terms(mode_a, mode_b)
    total = 0.0
    if ca != 0.0:
        total += ca * closed_form_cross(nu, pa, pb).finite_part
    if cb != 0.0:
        total += cb * closed_form_cross(nu, qa, qb).finite_part
    return total


def mode_overlap_finite_part_numeric(
    mode_a: RadialMode,
    mode_b: RadialMode,
    *,
    tol: float = DEFAULT_TOL,
    panel_budget: int = DEFAULT_PANEL_BUDGET,
) -> tuple:
    """Independent quadrature estimate of the mode overlap finite part.

    Runs finite_part_estimate on each cross term; returns (value, est_error)
    with errors combined linearly.  This is the oracle path; it never touches
    the closed forms.
    """
    _same_channel(mode_a, mode_b)
    nu, (ca, pa, pb), (cb, qa, qb) = _cross_terms(mode_a, mode_b)
    value = 0.0
    err = 0.0
    for coeff, p_first, p_second in ((ca, pa, pb), (cb, qa, qb)):
        if coeff == 0.0:
            continue
        v, e = finite_part_estimate(
            nu,
            -nu,
            p_first,
            p_second,
            tol=tol,
            panel_budget=panel_budget,
        )
        value += coeff * v
        err += abs(coeff) * e
    return value, err


def fit_cancelling_exponent(flux, channel: int, momenta) -> float:
    """Exponent of the momentum-power law that orthogonalizes a critical channel.

    For every momentum pair, solves mode_overlap_finite_part = 0 for the
    coefficient ratio beta(p)/beta(p'), then least-squares fits
    log beta against log p.  The slope is 2 delta for channel N and
    2 (1 - delta) for channel N + 1.
    """
    from .flux import EquationKind, critical_channels
    from .modes import make_schrodinger_mode

    if channel not in critical_channels(flux, EquationKind.SCHRODINGER):
        raise ChannelMismatchError(
            f"channel {channel} is not critical for flux {flux.phi}"
        )
    ps = sorted(set(float(p) for p in momenta))
    if len(ps) < 3:
        raise InsufficientSamplesError(
            f"exponent fit needs >= 3 distinct momenta, got {len(ps)}"
        )
    # beta(p) relative to the smallest momentum, via the linearity of the
    # finite part in the irregular coefficient
    p_ref = ps[0]
    log_beta = {p_ref: 0.0}
    for p in ps[1:]:
        ref_mode = make_schrodinger_mode(channel, flux, p_ref, 1.0, 1.0)
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
