"""Extension-parameter conditions for the critical channels.

Orthogonalizing critical-channel modes at different momenta forces the
coefficient ratios

    b_N/a_N         = alpha_0 (p/M)^{2 delta}          (Schrodinger, l = N)
    b_{N+1}/a_{N+1} = alpha_1 (p/M)^{2 (1-delta)}      (Schrodinger, l = N+1)
    b_N/a_N         = alpha M/(E + s M) (p_perp/M)^{2 delta}   (Dirac, l = N)

with one free real parameter per channel -- the extension parameter.  A
channel's l and critical order nu (delta in channel N, 1 - delta in N + 1)
are `Channel.l(flux)` and `Channel.order(flux)`.  The same freedom expressed
at the origin is the boundary ratio of the (M rho)^{-nu} to (M rho)^{+nu}
amplitudes:

    ratio = 2^{2 nu} Gamma(nu)/Gamma(-nu) * alpha .

Infinite alpha (pure irregular mode) is a first-class variant, not a large
float.  The reference values for minimally coupled particles are alpha = 0
in both Schrodinger channels, and 0 or infinity in the Dirac channel
according to the sign of s*phi (attraction pulls the wavefunction onto the
flux line and keeps the irregular component).
"""

import enum
import math
from dataclasses import dataclass
from typing import Optional

from .errors import ChannelMismatchError, DomainError, InfiniteParameterError, checked
from .flux import EquationKind, FluxParameter
from .modes import DiracKinematics, RadialMode, make_schrodinger_mode
from .specfun import gamma

__all__ = [
    "Channel",
    "ExtensionParameter",
    "schrodinger_ratio",
    "dirac_ratio",
    "boundary_ratio_from_alpha",
    "make_extended_mode",
    "reference_extension_parameters",
]


class Channel(enum.Enum):
    SCHRODINGER_N = "n"
    SCHRODINGER_N_PLUS_1 = "n1"
    DIRAC_N = "dirac"

    def l(self, flux: FluxParameter) -> int:
        """Angular channel at this flux: N + 1 for SCHRODINGER_N_PLUS_1, else N."""
        return flux.n + 1 if self is Channel.SCHRODINGER_N_PLUS_1 else flux.n

    def order(self, flux: FluxParameter) -> float:
        """Bessel order of the channel at this flux: 1 - delta for
        SCHRODINGER_N_PLUS_1, else delta (|l - phi| at l = self.l(flux))."""
        return 1.0 - flux.delta if self is Channel.SCHRODINGER_N_PLUS_1 else flux.delta


@dataclass(frozen=True)
class ExtensionParameter:
    """Per-channel extension parameter: finite real alpha or infinite.

    alpha = None encodes the infinite variant (a = 0, pure irregular mode).
    """

    channel: Channel
    alpha: Optional[float]

    @classmethod
    def finite(cls, channel: Channel, alpha: float) -> "ExtensionParameter":
        """DomainError unless alpha is finite: infinite alpha is its own variant."""
        alpha = float(alpha)
        if not math.isfinite(alpha):
            raise DomainError(f"a finite extension parameter needs a finite alpha, got {alpha}")
        return cls(channel=channel, alpha=alpha)

    @classmethod
    def infinite(cls, channel: Channel) -> "ExtensionParameter":
        return cls(channel=channel, alpha=None)

    @property
    def is_infinite(self) -> bool:
        return self.alpha is None


def _require_finite(ep: ExtensionParameter) -> float:
    if ep.is_infinite:
        raise InfiniteParameterError(
            "coefficient ratio is undefined for the infinite extension "
            "parameter; build the pure irregular mode instead"
        )
    return ep.alpha


@checked
def schrodinger_ratio(
    ep: ExtensionParameter, flux: FluxParameter, p: float, M: float
) -> float:
    """Coefficient ratio b/a in a Schrodinger critical channel at momentum p."""
    if not (0.0 < p < math.inf and 0.0 < M < math.inf):
        raise DomainError(f"p and M must be positive and finite, got p={p}, M={M}")
    alpha = _require_finite(ep)
    if ep.channel is Channel.DIRAC_N:
        raise ChannelMismatchError(
            f"schrodinger_ratio needs a Schrodinger channel, got {ep.channel}"
        )
    return alpha * (p / M) ** (2.0 * ep.channel.order(flux))


@checked
def dirac_ratio(
    ep: ExtensionParameter, flux: FluxParameter, kin: DiracKinematics
) -> float:
    """Coefficient ratio b/a in the Dirac critical channel l = N."""
    if ep.channel is not Channel.DIRAC_N:
        raise ChannelMismatchError(f"dirac_ratio needs the Dirac channel, got {ep.channel}")
    alpha = _require_finite(ep)
    if kin.s == 1:
        u = (kin.p_perp / kin.M) ** (2.0 * flux.delta)
        return alpha * kin.M / (kin.E + kin.M) * u
    # M/(E - M) by E - M = p^2/(E + M), p = hypot(p_perp, p3), since the
    # difference cancels at small momenta (to 0 at p_perp = 1e-10); and
    # (M/p)^2 (p_perp/M)^(2 delta) as the square of (M/p) (p_perp/M)^delta,
    # since (M/p)^2 alone overflows below p = 1e-154 M where the ratio
    # need not.  The equal (M/p)^(2 - 2 delta) (p_perp/p)^(2 delta) would
    # round 2 - 2 delta, which costs 5e-14 at p = 1e-215 M
    half = kin.M / math.hypot(kin.p_perp, kin.p3) * (kin.p_perp / kin.M) ** flux.delta
    return alpha * ((kin.E + kin.M) / kin.M * half * half)


@checked
def boundary_ratio_from_alpha(alpha: float, nu: float) -> float:
    """Map alpha to the small-rho boundary ratio: 2^{2nu} Gamma(nu)/Gamma(-nu) alpha."""
    if not 0.0 < nu < 1.0:
        raise DomainError(f"critical order must lie in (0, 1), got {nu}")
    return 2.0 ** (2.0 * nu) * gamma(nu) / gamma(-nu) * float(alpha)


@checked
def make_extended_mode(
    ep: ExtensionParameter, flux: FluxParameter, p: float, M: float
) -> RadialMode:
    """Critical-channel mode with coefficients fixed by the extension parameter.

    The channel is l = ep.channel.l(flux).  Finite alpha gives (a, b) =
    (1, schrodinger_ratio); the infinite variant gives the pure irregular
    mode (0, 1).  Schrodinger channels only -- the Dirac ratio needs
    kinematics (use make_dirac_mode with dirac_ratio).
    """
    if ep.channel is Channel.DIRAC_N:
        raise ChannelMismatchError(
            "make_extended_mode supports the Schrodinger channels only; "
            "Dirac extensions need kinematics (make_dirac_mode + dirac_ratio)"
        )
    l = ep.channel.l(flux)
    if ep.is_infinite:
        return make_schrodinger_mode(l, flux, p, 0.0, 1.0)
    return make_schrodinger_mode(l, flux, p, 1.0, schrodinger_ratio(ep, flux, p, M))


@checked
def reference_extension_parameters(kind: EquationKind, s: int, flux: FluxParameter):
    """Reference values for minimally coupled particles.

    Schrodinger: both channels regular, (Finite(0), Finite(0)).  Dirac:
    Finite(0) when s*phi < 0 (repulsive moment-field coupling), Infinite
    when s*phi > 0 (attraction; the irregular component survives).
    """
    if kind is EquationKind.SCHRODINGER:
        return (
            ExtensionParameter.finite(Channel.SCHRODINGER_N, 0.0),
            ExtensionParameter.finite(Channel.SCHRODINGER_N_PLUS_1, 0.0),
        )
    if s not in (1, -1):
        raise DomainError(f"spin label must be +1 or -1, got {s}")
    if s * flux.phi > 0.0:
        return ExtensionParameter.infinite(Channel.DIRAC_N)
    return ExtensionParameter.finite(Channel.DIRAC_N, 0.0)
