"""Radial-mode construction and pointwise evaluation.

A mode is a fixed-momentum two-term Bessel combination in one angular
channel.  Schrodinger channels carry R = a J_{+nu}(p rho) + b J_{-nu}(p rho)
with nu = |l - phi|; the two Dirac spinor components carry

    R1 = a J_{l-phi}(p rho)   + b J_{phi-l}(p rho)
    R2 = a J_{l-phi+1}(p rho) - b J_{phi-l-1}(p rho)

with p the radial momentum.  Outside the critical channels the coefficient
multiplying a non-square-integrable order must vanish; construction enforces
this.  Modes are unnormalized value objects; continuum orthonormality is the
business of `overlap`.
"""

import enum
import math
from dataclasses import dataclass, field

from .errors import (
    DegenerateError,
    DomainError,
    IrregularForbiddenError,
    NumericalFailureError,
    checked,
)
from .flux import EquationKind, FluxParameter, critical_channels, radial_order
from .specfun import bessel_j, gamma

__all__ = [
    "ModeKind",
    "RadialMode",
    "DiracKinematics",
    "SmallRhoSignature",
    "make_schrodinger_mode",
    "make_dirac_mode",
    "evaluate",
    "small_rho_signature",
]


class ModeKind(enum.Enum):
    SCHRODINGER_CHANNEL = "schrodinger"
    DIRAC_COMPONENT_1 = "dirac1"
    DIRAC_COMPONENT_2 = "dirac2"


@dataclass(frozen=True)
class RadialMode:
    """Two-term radial Bessel mode at momentum p in channel l.

    order_a is the Bessel order attached to the coefficient a; b carries
    -order_a.  `amplitudes` is the one rule that turns (a, b) into the
    amplitudes of J_{+order} and J_{-order}, with b negated in the second
    Dirac component.
    """

    kind: ModeKind
    l: int
    order_a: float
    a: float
    b: float
    p: float

    def __post_init__(self):
        if self.p <= 0.0 or math.isinf(self.p) or math.isnan(self.p):
            raise DomainError(f"mode momentum must be positive, got {self.p}")
        if not (math.isfinite(self.a) and math.isfinite(self.b)):
            raise DomainError(f"mode coefficients must be finite, got a = {self.a}, b = {self.b}")
        if self.a == 0.0 and self.b == 0.0:
            raise DegenerateError("mode with a = b = 0 is identically zero")

    @property
    def order(self) -> float:
        """Magnitude of the Bessel order pair."""
        return abs(self.order_a)

    @property
    def amplitudes(self) -> tuple:
        """Amplitudes of J_{+order} and J_{-order}: a and b, in the order of
        (order_a, -order_a), with b negated in DIRAC_COMPONENT_2."""
        b = -self.b if self.kind is ModeKind.DIRAC_COMPONENT_2 else self.b
        return (self.a, b) if self.order_a > 0.0 else (b, self.a)


@dataclass(frozen=True)
class DiracKinematics:
    """On-shell Dirac kinematics: E^2 = p_perp^2 + p3^2 + M^2 (E derived), s = +-1."""

    M: float
    p3: float
    p_perp: float
    s: int
    E: float = field(init=False)

    def __post_init__(self):
        if not (0.0 < self.M < math.inf and 0.0 < self.p_perp < math.inf):
            raise DomainError(f"M and p_perp must be positive and finite: {self.M}, {self.p_perp}")
        if not math.isfinite(self.p3):
            raise DomainError(f"axial momentum must be finite, got {self.p3}")
        if self.s not in (1, -1):
            raise DomainError(f"spin label must be +1 or -1, got {self.s}")
        try:
            e2 = self.p_perp**2.0 + self.p3**2.0 + self.M**2.0
        except OverflowError:  # a square past the largest double
            e2 = math.inf
        if e2 == math.inf:
            raise NumericalFailureError(
                f"E^2 = p_perp^2 + p3^2 + M^2 overflows a double: p_perp = {self.p_perp!r}, "
                f"p3 = {self.p3!r}, M = {self.M!r}"
            )
        object.__setattr__(self, "E", math.sqrt(e2))

    @classmethod
    def from_momenta(cls, M: float, p_perp: float, p3: float = 0.0, s: int = 1):
        """Kinematics at momenta (p_perp, p3); NumericalFailureError if E^2 overflows."""
        return cls(M=M, p3=p3, p_perp=p_perp, s=s)


@checked
def make_schrodinger_mode(
    l: int, flux: FluxParameter, p: float, a: float, b: float
) -> RadialMode:
    """Schrodinger-channel mode a J_{+|l-phi|} + b J_{-|l-phi|} at momentum p.

    b != 0 is admitted only in the critical channels l = N, N+1; elsewhere
    the irregular component is not square integrable near the origin and
    IrregularForbiddenError is raised.
    """
    nu = radial_order(l, flux)
    if b != 0.0 and l not in critical_channels(flux, EquationKind.SCHRODINGER):
        raise IrregularForbiddenError(
            f"channel l={l} (order {nu:.6g} > 1) admits no irregular component"
        )
    return RadialMode(
        kind=ModeKind.SCHRODINGER_CHANNEL,
        l=l,
        order_a=nu,
        a=float(a),
        b=float(b),
        p=float(p),
    )


@checked
def make_dirac_mode(
    l: int, flux: FluxParameter, kin: DiracKinematics, a: float, b: float
) -> tuple:
    """Both Dirac spinor components for channel l at radial momentum kin.p_perp.

    Square integrability of the component pair requires a = 0 for l < N and
    b = 0 for l > N (the l = N channel keeps both).  The rule is the
    sign-symmetric extension of the nonnegative-N statement: coefficient a
    feeds orders {l-phi, l-phi+1}, admissible iff min > -1, i.e. l >= N;
    coefficient b feeds {phi-l, phi-l-1}, admissible iff l <= N.
    """
    n = flux.n
    if a != 0.0 and l < n:
        raise IrregularForbiddenError(
            f"Dirac channel l={l} < N={n}: the a-coefficient order {l - flux.phi:.6g} "
            "is not square integrable; a must vanish"
        )
    if b != 0.0 and l > n:
        raise IrregularForbiddenError(
            f"Dirac channel l={l} > N={n}: the b-coefficient order {flux.phi - l - 1:.6g} "
            "is not square integrable; b must vanish"
        )
    comp1 = RadialMode(
        kind=ModeKind.DIRAC_COMPONENT_1,
        l=l,
        order_a=l - flux.phi,
        a=float(a),
        b=float(b),
        p=kin.p_perp,
    )
    comp2 = RadialMode(
        kind=ModeKind.DIRAC_COMPONENT_2,
        l=l,
        order_a=l - flux.phi + 1.0,
        a=float(a),
        b=float(b),
        p=kin.p_perp,
    )
    return comp1, comp2


@checked
def evaluate(mode: RadialMode, rho: float) -> float:
    """Radial function of the mode at rho > 0: the sum of
    c J_{+-order}(p rho) over the mode's `amplitudes`.

    Zero-amplitude terms are skipped, so a pure-regular mode never touches
    the (possibly far-negative) order of its absent partner.
    """
    rho = float(rho)
    if math.isnan(rho) or rho <= 0.0:
        raise DomainError(f"evaluate: rho must be > 0, got {rho}")
    x = mode.p * rho
    c_pos, c_neg = mode.amplitudes
    val = 0.0
    if c_pos != 0.0:
        val += c_pos * bessel_j(mode.order, x)
    if c_neg != 0.0:
        val += c_neg * bessel_j(-mode.order, x)
    return val


@dataclass(frozen=True)
class SmallRhoSignature:
    """Leading small-rho behavior R ~ C (M rho)^nu - C*ratio*(M rho)^{-nu}."""

    nu: float
    boundary_ratio: float


@checked
def small_rho_signature(mode: RadialMode, M: float) -> SmallRhoSignature:
    """Boundary signature (nu, ratio) of a critical-channel mode.

    Writing the small-rho limit as R proportional to
    (M rho)^nu - ratio * (M rho)^{-nu}, the ratio is
    -(C_minus / C_plus) with C_+- the amplitudes of (M rho)^{+-nu}.  Closed
    form: for amplitudes c_pos (order +nu) and c_neg (order -nu),

        ratio = -(c_neg / c_pos) * (p / 2M)^{-2 nu} * Gamma(1+nu) / Gamma(1-nu).

    DegenerateError when the +nu amplitude vanishes (pure irregular mode:
    the ratio is infinite and belongs to the Infinite extension parameter).
    """
    if not 0.0 < M < math.inf:
        raise DomainError(f"mass scale must be positive and finite, got {M}")
    nu = mode.order
    if not 0.0 < nu < 1.0:
        raise DomainError(
            f"small-rho signature needs a critical order in (0, 1), got {nu:.6g}"
        )
    c_pos, c_neg = mode.amplitudes
    if c_pos == 0.0:
        raise DegenerateError(
            "pure irregular mode: boundary ratio is infinite"
        )
    scale = (mode.p / (2.0 * M)) ** (-2.0 * nu)
    return SmallRhoSignature(
        nu=nu,
        boundary_ratio=-(c_neg / c_pos) * scale * gamma(1.0 + nu) / gamma(1.0 - nu),
    )
