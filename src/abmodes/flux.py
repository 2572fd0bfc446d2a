"""Flux bookkeeping: decomposition phi = N + delta and channel classification.

Fluxes are dimensionless (units of the flux quantum 2*pi/e).  Only the
fractional part delta carries physics; integer flux is rejected because no
critical channel exists there.
"""

import enum
import math
from dataclasses import dataclass, field

from .errors import IntegerFluxError, checked

__all__ = ["EquationKind", "FluxParameter", "decompose", "critical_channels", "radial_order"]

# near-integer fluxes are indistinguishable from integer at double precision
INTEGER_FLUX_TOL = 1e-12


class EquationKind(enum.Enum):
    SCHRODINGER = "schrodinger"
    DIRAC = "dirac"


@dataclass(frozen=True)
class FluxParameter:
    """Flux phi split into integer part n = floor(phi) and fractional part delta.

    n and delta are derived from phi.  IntegerFluxError when phi is not
    finite or is integer to within 1e-12 (no critical channel exists for
    integer flux); otherwise 0 < delta < 1.  delta is phi - n rounded, so
    n + delta misses phi by an ulp for some phi in (-0.5, 0), where phi + 1
    is not a double.
    """

    phi: float
    n: int = field(init=False)
    delta: float = field(init=False)

    def __post_init__(self):
        if not math.isfinite(self.phi):
            raise IntegerFluxError(f"flux must be finite, got {self.phi}")
        if abs(self.phi - round(self.phi)) <= INTEGER_FLUX_TOL:
            raise IntegerFluxError(
                f"flux {self.phi} is integer within {INTEGER_FLUX_TOL}; "
                "only the fractional part produces physical effects"
            )
        n = math.floor(self.phi)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "delta", self.phi - n)


@checked
def decompose(phi: float) -> FluxParameter:
    """Split phi into integer and fractional parts with 0 < delta < 1.

    Raises IntegerFluxError when phi is not finite or is integer to within
    1e-12 (see FluxParameter).
    """
    return FluxParameter(float(phi))


@checked
def critical_channels(flux: FluxParameter, kind: EquationKind) -> frozenset:
    """Angular channels where the irregular radial component survives.

    {N, N+1} for the Schrodinger equation, {N} for the Dirac equation.
    """
    if kind is EquationKind.DIRAC:
        return frozenset({flux.n})
    return frozenset({flux.n, flux.n + 1})


@checked
def radial_order(l: int, flux: FluxParameter) -> float:
    """Bessel order magnitude |l - phi| of the angular channel l."""
    return abs(l - flux.phi)
