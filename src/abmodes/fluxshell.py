"""Finite-radius flux shell with a contact magnetic-moment coupling.

All flux sits on the cylinder rho = rho0 and the particle carries a moment
mu_z = g e/(2M), so the radial equation gains a delta-shell term
(g phi/rho0) delta(rho - rho0) R.  Interior solution c J_{|l|}(p rho); the
exterior sees the full flux, a J_{|l-phi|} + b J_{-|l-phi|}.  Matching
(continuity plus the derivative jump R'(+) - R'(-) = -g phi R/rho0) fixes

    b/a = - [J'_nu Jl - J_nu (Jl' - (g phi/x) Jl)]
          / [J'_{-nu} Jl - J_{-nu} (Jl' - (g phi/x) Jl)]      (x = p rho0)

whose vanishing-radius limit is

    b/a -> (nu - |l| + g phi)/(nu + |l| - g phi)
           * Gamma(1-nu)/Gamma(1+nu) * (p rho0/2)^{2 nu} .

As rho0 -> 0 the ratio dies for every l unless the denominator crosses
zero: the resonance |l - phi| + |l| - g phi = 0, possible only in the
critical channels.  Inverting the limit against the extension-parameter
conditions gives the g <-> alpha dictionary (`g_from_alpha`); nontrivial
alpha forces g onto the resonance as rho0 -> 0.

Note the sign of the limit and of the dictionary: both are fixed here by
requiring consistency with the matching ratio (itself verified against
direct ODE integration) and with the orthogonality-derived coefficient
conditions; see g_asymptotic for the historical first-order forms, kept
verbatim for the audit.  Units: lengths in 1/M, momenta in M.
"""

import math
from dataclasses import dataclass, replace

from .errors import (
    DegenerateDenominatorError,
    DegenerateError,
    DomainError,
    InfiniteParameterError,
    NoBracketError,
    NumericalPoleError,
    ResonantError,
    ZeroAlphaError,
)
from .flux import FluxParameter, radial_order
from .sae import Channel, ExtensionParameter
from .specfun import bessel_j, bessel_j_prime, gamma, power

__all__ = [
    "FluxShellProblem",
    "piecewise_solution",
    "matching_ratio",
    "limit_ratio",
    "resonance_defect",
    "g_from_alpha",
    "g_asymptotic",
    "solve_g",
]

RESONANCE_TOL = 1e-12
_POLE_REL_TOL = 1e-13


@dataclass(frozen=True)
class FluxShellProblem:
    """Shell configuration: radius rho0 (units 1/M), moment factor g, channel l."""

    rho0: float
    g: float
    l: int
    flux: FluxParameter
    p: float

    def __post_init__(self):
        if not (0.0 < self.rho0 < math.inf and 0.0 < self.p < math.inf):
            raise DomainError(
                f"rho0 and p must be positive and finite, got {self.rho0}, {self.p}"
            )
        if not math.isfinite(self.g):
            raise DomainError(f"g must be finite, got {self.g}")

    @property
    def x(self) -> float:
        """Dimensionless matching point p * rho0."""
        return self.p * self.rho0

    @property
    def nu(self) -> float:
        return radial_order(self.l, self.flux)


def piecewise_solution(prob: FluxShellProblem, a: float, b: float):
    """Evaluator rho -> R(rho) with the interior amplitude fixed by continuity.

    Interior (rho < rho0): c J_{|l|}(p rho); exterior: a J_{+nu} + b J_{-nu}.
    The derivative jump holds when (a, b) satisfy the matching ratio.
    DegenerateError when J_{|l|}(p rho0) = 0 (continuity cannot fix c).
    """
    if a == 0.0 and b == 0.0:
        raise DegenerateError("a = b = 0 gives the zero solution")
    x0 = prob.x
    nu = prob.nu
    order_l = float(abs(prob.l))
    j_interior = bessel_j(order_l, x0)
    exterior_at_shell = a * bessel_j(nu, x0) + b * bessel_j(-nu, x0)
    if abs(j_interior) < 1e-13:
        raise DegenerateError(
            f"interior Bessel node at the shell: J_{abs(prob.l)}({x0:.6g}) ~ 0"
        )
    c = exterior_at_shell / j_interior

    def evaluator(rho: float) -> float:
        if rho <= 0.0:
            raise DomainError(f"rho must be > 0, got {rho}")
        z = prob.p * rho
        if rho < prob.rho0:
            return c * bessel_j(order_l, z)
        return a * bessel_j(nu, z) + b * bessel_j(-nu, z)

    return evaluator


def _matching_terms(prob: FluxShellProblem):
    """Coefficients of b/a = -(n0 + g n1)/(d0 + g d1), and the pole-test scale.

    The scale is the size of the denominator's terms at prob.g.
    """
    x = prob.x
    nu = prob.nu
    order_l = float(abs(prob.l))
    jl = bessel_j(order_l, x)
    jl_prime = bessel_j_prime(order_l, x)
    moment = (prob.flux.phi / x) * jl

    def terms(order):
        # J'_order Jl - J_order (Jl' - g moment), split into its g^0 and g^1 parts
        j_prime, j = bessel_j_prime(order, x), bessel_j(order, x)
        size = abs(j_prime * jl) + abs(j * (jl_prime - prob.g * moment))
        return j_prime * jl - j * jl_prime, moment * j, size

    n0, n1, _ = terms(nu)
    d0, d1, scale = terms(-nu)
    return n0, n1, d0, d1, scale


def matching_ratio(prob: FluxShellProblem) -> float:
    """Exterior coefficient ratio b/a fixed by the shell matching conditions."""
    n0, n1, d0, d1, scale = _matching_terms(prob)
    den = d0 + prob.g * d1
    if abs(den) <= _POLE_REL_TOL * scale:
        raise NumericalPoleError(
            f"matching denominator vanishes at x = {prob.x:.6g} (g = {prob.g})"
        )
    return -(n0 + prob.g * n1) / den


def resonance_defect(l: int, flux: FluxParameter, g: float) -> float:
    """|l - phi| + |l| - g phi; zero on the resonance locus."""
    return radial_order(l, flux) + abs(l) - g * flux.phi


def limit_ratio(prob: FluxShellProblem) -> float:
    """Vanishing-radius limit of the matching ratio (leading series order).

    (nu - |l| + g phi)/(nu + |l| - g phi) * Gamma(1-nu)/Gamma(1+nu)
    * (p rho0 / 2)^{2 nu}.  ResonantError on the resonance (the next series
    order is not implemented; use matching_ratio there).
    """
    defect = resonance_defect(prob.l, prob.flux, prob.g)
    if abs(defect) <= RESONANCE_TOL:
        raise ResonantError(
            f"resonance |l-phi| + |l| - g phi = {defect:.3e}: the limit formula "
            "degenerates; evaluate matching_ratio at finite rho0 instead"
        )
    nu = prob.nu
    numer = nu - abs(prob.l) + prob.g * prob.flux.phi
    return (
        (numer / defect)
        * (gamma(1.0 - nu) / gamma(1.0 + nu))
        * power(0.5 * prob.x, 2.0 * nu, "limit_ratio (p rho0/2)^(2 nu)")
    )


def _check_shell_scale(rho0, M):
    if not (0.0 < rho0 < math.inf and 0.0 < M < math.inf):
        raise DomainError(f"rho0 and M must be positive and finite, got {rho0}, {M}")


def _dictionary_parts(ep: ExtensionParameter, flux: FluxParameter, rho0: float, M: float):
    if ep.is_infinite:
        raise InfiniteParameterError(
            "the g-factor dictionary needs a finite extension parameter"
        )
    _check_shell_scale(rho0, M)
    delta = flux.delta
    n = flux.n
    if ep.channel is Channel.SCHRODINGER_N:
        u = power(0.5 * M * rho0, 2.0 * delta, "(M rho0/2)^(2 delta)")
        shell = gamma(-delta) * u
        ext = ep.alpha * gamma(delta)
        lead_in, lead_out = abs(n) - delta, abs(n) + delta
    elif ep.channel is Channel.SCHRODINGER_N_PLUS_1:
        u = power(0.5 * M * rho0, 2.0 * (1.0 - delta), "(M rho0/2)^(2 (1-delta))")
        shell = gamma(delta - 1.0) * u
        ext = ep.alpha * gamma(1.0 - delta)
        lead_in, lead_out = abs(n + 1) - 1.0 + delta, abs(n + 1) + 1.0 - delta
    else:
        raise InfiniteParameterError(
            "the shell model is nonrelativistic; only the Schrodinger channels map"
        )
    return shell, ext, lead_in, lead_out, n + delta


def g_from_alpha(
    ep: ExtensionParameter, flux: FluxParameter, rho0: float, M: float = 1.0
) -> float:
    """Shell g-factor whose vanishing-radius limit realizes the extension parameter.

    Closed form (channel N; the N+1 channel swaps delta -> 1-delta and the
    leading weights):

        g = [Gamma(-d) u (|N|-d) - a Gamma(d) (|N|+d)]
            / [(N+d) (Gamma(-d) u - a Gamma(d))],      u = (M rho0/2)^{2d}.

    Exact special values: alpha = 0, N = 0 gives g = -1; channel N+1 with
    alpha = 0 and N >= 0 gives g = +1.  DegenerateDenominatorError at the
    isolated negative-alpha combinations where the denominator vanishes, and
    where it underflows to 0 (alpha = 0 at rho0 = 5e-324).
    """
    shell, ext, lead_in, lead_out, nd = _dictionary_parts(ep, flux, rho0, M)
    den = shell - ext
    # nd * den == 0: both parts of den underflowed, where the relative test
    # reads 0 < 0, or their product did
    if abs(den) < 1e-14 * (abs(shell) + abs(ext)) or nd * den == 0.0:
        raise DegenerateDenominatorError(
            f"dictionary denominator vanishes (alpha = {ep.alpha}, rho0 = {rho0})"
        )
    return (shell * lead_in - ext * lead_out) / (nd * den)


def g_asymptotic(
    ep: ExtensionParameter, flux: FluxParameter, rho0: float, M: float = 1.0
) -> float:
    """Historical first-order small-rho0 forms of the g-factor, verbatim.

    Channel N:    1 + (1/a) (N-d)/(N+d) Gamma(-d)/Gamma(d) (M rho0/2)^{2d}
    Channel N+1: -1 - (1/a) (N+2-d)/(N+d) Gamma(d-1)/Gamma(1-d) (M rho0/2)^{2(1-d)}

    Kept exactly as printed for the asymptotic-formula audit: the
    first-order coefficient disagrees with the expansion of g_from_alpha
    (see the acceptance audit fixture); the full formula is the one that
    round-trips through limit_ratio.
    """
    if ep.is_infinite:
        raise InfiniteParameterError(
            "the asymptotic form needs a finite extension parameter"
        )
    if ep.alpha == 0.0:
        raise ZeroAlphaError("the first-order correction carries 1/alpha")
    _check_shell_scale(rho0, M)
    delta = flux.delta
    n = flux.n
    if ep.channel is Channel.SCHRODINGER_N:
        u = power(0.5 * M * rho0, 2.0 * delta, "(M rho0/2)^(2 delta)")
        return 1.0 + (1.0 / ep.alpha) * ((n - delta) / (n + delta)) * (
            gamma(-delta) / gamma(delta)
        ) * u
    if ep.channel is Channel.SCHRODINGER_N_PLUS_1:
        u = power(0.5 * M * rho0, 2.0 * (1.0 - delta), "(M rho0/2)^(2 (1-delta))")
        return -1.0 - (1.0 / ep.alpha) * ((n + 2.0 - delta) / (n + delta)) * (
            gamma(delta - 1.0) / gamma(1.0 - delta)
        ) * u
    raise InfiniteParameterError(
        "the shell model is nonrelativistic; only the Schrodinger channels map"
    )


def solve_g(
    prob_template: FluxShellProblem,
    target_ratio: float,
    g_lo: float = -10.0,
    g_hi: float = 10.0,
) -> float:
    """Invert matching_ratio in g: the g in [g_lo, g_hi] that reaches target_ratio.

    The ratio is a Moebius function of g, b/a = -(n0 + g n1)/(d0 + g d1)
    (one root, one pole), so the inverse is closed form:
    g = -(n0 + T d0)/(n1 + T d1) for the target T.  DomainError when the
    target or a bracket end is not finite, or when g_hi <= g_lo.
    NoBracketError when that g is not finite, lies outside [g_lo, g_hi],
    sits on the pole, or misses the target by more than 1e-10 max(1, |T|)
    when matching_ratio is evaluated there; a target equal to the
    g -> infinity limit -n1/d1 is never reached.
    """
    if not all(map(math.isfinite, (target_ratio, g_lo, g_hi))):
        raise DomainError(
            f"target and bracket must be finite, got {target_ratio}, [{g_lo}, {g_hi}]"
        )
    if g_hi <= g_lo:
        raise DomainError(f"empty bracket [{g_lo}, {g_hi}]")
    n0, n1, d0, d1, _ = _matching_terms(prob_template)
    tol = 1e-10 * max(1.0, abs(target_ratio))
    den = n1 + target_ratio * d1
    g = -(n0 + target_ratio * d0) / den if den != 0.0 else math.inf
    if math.isfinite(g) and g_lo <= g <= g_hi:
        try:
            if abs(matching_ratio(replace(prob_template, g=g)) - target_ratio) <= tol:
                return g
        except NumericalPoleError:
            pass
    raise NoBracketError(
        f"no g in [{g_lo}, {g_hi}] reaches matching_ratio = {target_ratio:.6g} "
        f"within tolerance {tol:.1e}"
    )
