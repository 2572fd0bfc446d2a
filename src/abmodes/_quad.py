"""Adaptive Gauss quadrature of Bessel-product integrands.

The integrand J_nu(p rho) J_mu(p' rho) rho is pre-split at the quasi-period
boundaries k*pi/max(p, p') and each cell is bisected until the 15-point
Gauss estimate of the whole agrees with the two halves within its share of
the absolute tolerance.  Panel evaluations are counted against a budget;
exhaustion raises ConvergenceError.  Accepted contributions are summed
pairwise in ascending position for deterministic, order-independent results.

An optional scalar weight(rho) multiplies the integrand (used for the
tapered tail windows of the finite-part average); weighted panels run
through the Python node loop, unweighted ones through the backend kernel.
"""

import math

from ._backend import bessel_kernel, product_panel_kernel
from ._kernels_py import _G15
from .errors import ConvergenceError

__all__ = ["PanelBudget", "product_quad"]

# bisection floor: below this fraction of the full range the panel is
# accepted regardless (protects against singular-endpoint stalemates)
_MIN_PANEL_FRACTION = 1e-13


class PanelBudget:
    """Mutable countdown of Gauss-panel evaluations shared across blocks."""

    def __init__(self, panels: int):
        self.initial = int(panels)
        self.left = int(panels)

    def spend(self, n: int = 1):
        self.ensure(n)
        self.left -= n

    def ensure(self, n: float):
        """Raise ConvergenceError unless n more panels are left (n NaN included)."""
        if not self.left >= n:
            raise ConvergenceError(
                f"panel budget {self.initial} exhausted; raise the budget or "
                "relax the tolerance"
            )

    @property
    def used(self) -> int:
        return self.initial - self.left


def _weighted_panel(nu, mu, p, pp, lo, hi, weight):
    c = 0.5 * (lo + hi)
    h = 0.5 * (hi - lo)
    s = 0.0
    for z, w in _G15:
        r = c + h * z
        s += w * bessel_kernel(nu, p * r) * bessel_kernel(mu, pp * r) * r * weight(r)
    return s * h


def _pairwise(vals, lo, hi):
    if hi - lo <= 8:
        return math.fsum(vals[lo:hi])
    mid = (lo + hi) // 2
    return _pairwise(vals, lo, mid) + _pairwise(vals, mid, hi)


def product_quad(
    nu: float,
    mu: float,
    p: float,
    pp: float,
    lo: float,
    hi: float,
    tol: float,
    budget: PanelBudget,
    weight=None,
    extra_breaks=(),
) -> float:
    """Adaptive integral of J_nu(p r) J_mu(pp r) r [* weight(r)] over [lo, hi].

    tol is an absolute target for this range; each cell gets a length-
    proportional share.  extra_breaks force cell boundaries (weight kinks).
    """
    if hi <= lo:
        return 0.0
    step = math.pi / max(p, pp)
    # [lo, hi] holds more than (hi - lo) / step - 1 cells and each costs at
    # least three panels: refuse a range the budget cannot cover before its
    # break points are built
    budget.ensure(3.0 * ((hi - lo) / step - 1.0))
    breaks = {lo, hi}
    k = math.floor(lo / step) + 1
    while k * step < hi:
        if k * step > lo:
            breaks.add(k * step)
        k += 1
    for x in extra_breaks:
        if lo < x < hi:
            breaks.add(float(x))
    breaks = sorted(breaks)
    total = hi - lo
    floor_len = _MIN_PANEL_FRACTION * total

    if weight is None:
        def panel(a, b):
            return product_panel_kernel(nu, mu, p, pp, a, b)
    else:
        def panel(a, b):
            return _weighted_panel(nu, mu, p, pp, a, b, weight)

    pieces = []  # (position, value) of accepted half-panels
    for i in range(len(breaks) - 1):
        budget.spend()
        stack = [(breaks[i], breaks[i + 1], panel(breaks[i], breaks[i + 1]))]
        while stack:
            a, b, whole = stack.pop()
            mid = 0.5 * (a + b)
            budget.spend(2)
            left = panel(a, mid)
            right = panel(mid, b)
            if abs(whole - (left + right)) <= tol * (b - a) / total or (b - a) <= floor_len:
                pieces.append((a, left))
                pieces.append((mid, right))
            else:
                # left-first (LIFO): deterministic descent order
                stack.append((mid, b, right))
                stack.append((a, mid, left))
    pieces.sort(key=lambda t: t[0])
    vals = [v for _, v in pieces]
    return _pairwise(vals, 0, len(vals))
