"""Flux bookkeeping: decomposition phi = N + delta and channel classification.

Fluxes are dimensionless (units of the flux quantum 2*pi/e).  Only the
fractional part delta carries physics; integer flux is rejected because no
critical channel exists there.
"""

import enum
import math
from dataclasses import dataclass

from .errors import IntegerFluxError

__all__ = ["EquationKind", "FluxParameter", "decompose", "critical_channels", "radial_order"]

# near-integer fluxes are indistinguishable from integer at double precision
INTEGER_FLUX_TOL = 1e-12


class EquationKind(enum.Enum):
    SCHRODINGER = "schrodinger"
    DIRAC = "dirac"


@dataclass(frozen=True)
class FluxParameter:
    """Flux phi split into integer part n and fractional part delta in (0, 1)."""

    phi: float
    n: int
    delta: float

    def __post_init__(self):
        if not 0.0 < self.delta < 1.0:
            raise IntegerFluxError(
                f"fractional part must lie strictly in (0, 1), got {self.delta}"
            )
        # delta is phi - n rounded: n + delta misses phi by an ulp for some
        # phi in (-0.5, 0), where phi + 1 is not a double
        if self.delta != self.phi - self.n:
            raise ValueError("inconsistent decomposition: delta != phi - n")


def decompose(phi: float) -> FluxParameter:
    """Split phi into integer and fractional parts with 0 < delta < 1.

    Raises IntegerFluxError when phi is integer to within 1e-12 (no critical
    channel exists for integer flux).
    """
    phi = float(phi)
    if math.isnan(phi) or math.isinf(phi):
        raise IntegerFluxError(f"flux must be finite, got {phi}")
    if abs(phi - round(phi)) <= INTEGER_FLUX_TOL:
        raise IntegerFluxError(
            f"flux {phi} is integer within {INTEGER_FLUX_TOL}; "
            "only the fractional part produces physical effects"
        )
    n = math.floor(phi)
    return FluxParameter(phi=phi, n=n, delta=phi - n)


def critical_channels(flux: FluxParameter, kind: EquationKind) -> frozenset:
    """Angular channels where the irregular radial component survives.

    {N, N+1} for the Schrodinger equation, {N} for the Dirac equation.
    """
    if kind is EquationKind.DIRAC:
        return frozenset({flux.n})
    return frozenset({flux.n, flux.n + 1})


def radial_order(l: int, flux: FluxParameter) -> float:
    """Bessel order magnitude |l - phi| of the angular channel l."""
    return abs(l - flux.phi)
