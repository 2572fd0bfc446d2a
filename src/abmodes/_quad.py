"""Adaptive quadrature of Bessel-product integrands: G10/K21 and Hankel panels.

The integrand J_nu(p rho) J_mu(p' rho) rho is pre-split at the quasi-period
boundaries k*pi/max(p, p').  Each cell is one panel of the embedded
Gauss-Kronrod G10/K21 pair (Piessens et al., QUADPACK, 1983), 21 integrand
values for both estimates.  A cell [a, b] of the range [lo, hi] is accepted
by one rule, |K21 - G10| <= tol (b - a)/(hi - lo), its length-proportional
share of the absolute tolerance, and bisected otherwise.  A cell that never
meets its share bisects until the panel budget runs out; exhaustion raises
ConvergenceError.  A panel whose K21 value is not finite (the kernels give
NaN where p r/2 underflows under a negative order) raises
NumericalFailureError at once, since bisection cannot mend it.

The cell at the origin of an unweighted range is the one exception,
whatever the orders.  There the integrand is r^(nu+mu+1) times a power
series in r^2, with a branch point at r = 0 unless nu + mu is an integer,
which no polynomial rule resolves.  That cell is integrated term by term
from the ascending series of both Bessel functions (Watson, Theory of
Bessel Functions, 3.1): each product term r^(nu+mu+1+2j+2k) has an exact
integral.  The cell is at most a quasi-period long, so p rho and p' rho
stay below pi and both series converge fast.  It spends one panel, like
every cell, and no panel kernel call, and raises NumericalFailureError
where p c/2 or p' c/2 (c its length) falls below the normal range of
doubles under a nonzero order; (p c/2)^0 = 1 is exact.

Where both p rho and p' rho exceed 12, `hankel_quad` takes over: the
kernels' Filon-Legendre panel (`hankel_product_panel`) integrates Hankel's
expansion over any number of periods, so its cells double in length from
the lower end and their number grows with the log of the range.  It
returns a (value, coarse) pair like G10/K21, and the same loop, `_accepted`,
accepts and bisects both kinds of cell by the same rule and spends the same
budget.  `hankel_quad` refuses a range whose upper end the doubles cannot
place: an ulp of hi moves the integral by up to ulp(hi) 2/(pi sqrt(p p')),
and when that exceeds tol, or (p + p') hi overflows, it raises
ConvergenceError before the first panel.

Accepted contributions are summed by math.fsum, correctly rounded, so the
result does not depend on their order.

An optional scalar weight(rho) multiplies the integrand, and extra_breaks
force cell boundaries; weighted panels run the same pair through the Python
node loop, unweighted ones through the backend kernel.  No code in the
package passes either.  They stay only because the benchmark's tracer wraps
`_weighted_panel` (without it its quad.panels would read as unmeasured) and
a benchmark test passes extra_breaks; both go with the next change to the
benchmark.
"""

import math
import sys

from ._backend import bessel_kernel, hankel_panel_kernel, product_panel_kernel
from ._kernels_py import _GK21, _K21_CENTER
from .errors import ConvergenceError, NumericalFailureError
from .specfun import power

__all__ = ["PanelBudget", "hankel_quad", "product_quad"]


class PanelBudget:
    """Mutable countdown of G10/K21 panel evaluations shared across blocks."""

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
                f"panel budget of {self.initial} panels exhausted: cells still "
                "missed their share of the tolerance"
            )

    @property
    def used(self) -> int:
        return self.initial - self.left


def _weighted_panel(nu, mu, p, pp, lo, hi, weight):
    c = 0.5 * (lo + hi)
    h = 0.5 * (hi - lo)

    def f(r):
        return bessel_kernel(nu, p * r) * bessel_kernel(mu, pp * r) * r * weight(r)

    k = _K21_CENTER * f(c)
    g = 0.0
    for x, wk, wg in _GK21:
        pair = f(c - h * x) + f(c + h * x)
        k += wk * pair
        g += wg * pair
    return k * h, g * h


def _series_terms(nu, h):
    # a_j = (-1)^j h^(2j) / (j! Gamma(nu + j + 1)), so that
    # J_nu(2 h t) = (h t)^nu sum_j a_j t^(2j); cut where a term falls below
    # 1e-17 of the largest; past the largest the terms fall faster than
    # geometrically, so what is dropped is about a tenth of an ulp of it
    t = 1.0 / math.gamma(nu + 1.0)
    terms = [t]
    q = -h * h
    biggest = abs(t)
    for j in range(1, 400):
        t *= q / (j * (nu + j))
        a = abs(t)
        if a > biggest:
            biggest = a
        elif a <= 1e-17 * biggest:
            break
        terms.append(t)
    return terms


def _origin_cell(nu, mu, p, pp, c):
    """int_0^c J_nu(p r) J_mu(pp r) r dr from the two ascending series.

    With r = c t, x = p c/2 and y = pp c/2 the integrand is
    c^2 x^nu y^mu sum_jk a_j b_k t^(nu+mu+1+2j+2k), and t^m integrates to
    1/(m + 1) on [0, 1].  Needs nu, mu > -1.  Raises NumericalFailureError
    where x or y falls below the normal range under a nonzero order, since
    the rounding of the product p c there would spoil x^nu (at p = 1e-315,
    p' = 1 and c = 1, by 5e-9 relative), and where the value overflows.
    """
    x = 0.5 * (p * c)
    y = 0.5 * (pp * c)
    if (x < sys.float_info.min and nu) or (y < sys.float_info.min and mu):
        raise NumericalFailureError(
            f"origin cell over [0, {c}]: p c/2 = {x!r} or p' c/2 = {y!r} is below "
            "the normal range of doubles"
        )
    a = _series_terms(nu, x)
    b = _series_terms(mu, y)
    s = nu + mu + 2.0
    total = math.fsum(
        aj * bk / (s + 2 * (j + k)) for j, aj in enumerate(a) for k, bk in enumerate(b)
    )
    # c x^nu = c^(nu+1) (p/2)^nu shrinks with c, since nu > -1; the bare
    # x^nu y^mu would overflow on a short cell with nu + mu near -2
    value = (power(x, nu, "origin cell (p c/2)^nu") * c) * (
        power(y, mu, "origin cell (p' c/2)^mu") * c
    ) * total
    if not math.isfinite(value):
        raise NumericalFailureError(
            f"origin cell of J_{nu}(p r) J_{mu}(p' r) r over [0, {c}] is not finite "
            f"at p = {p}, p' = {pp}"
        )
    return value


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
    # least one panel: refuse a range the budget cannot cover before its
    # break points are built
    budget.ensure((hi - lo) / step - 1.0)
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

    if weight is None:
        def panel(a, b):
            return product_panel_kernel(nu, mu, p, pp, a, b)
    else:
        def panel(a, b):
            return _weighted_panel(nu, mu, p, pp, a, b, weight)

    cells = list(zip(breaks, breaks[1:]))
    origin = []
    if lo == 0.0 and weight is None:
        budget.spend()
        origin.append(_origin_cell(nu, mu, p, pp, breaks[1]))
        cells = cells[1:]
    return math.fsum(origin + _accepted(panel, cells, tol, total, budget, (nu, mu, p, pp)))


def hankel_quad(
    nu: float,
    mu: float,
    p: float,
    pp: float,
    lo: float,
    hi: float,
    tol: float,
    budget: PanelBudget,
) -> float:
    """Integral of J_nu(p r) J_mu(pp r) r over [lo, hi] on Filon-Legendre panels.

    Needs min(p, pp) lo >= 12, where both Bessel functions take Hankel's
    expansion.  The cells double from lo, [lo, 2 lo], [2 lo, 4 lo], ..., up
    to hi, so their number grows with log(hi/lo); each is accepted and
    bisected by product_quad's rule.  Raises ConvergenceError before the
    first panel when the doubles cannot place hi to within tol: an ulp of
    hi moves the integral by up to ulp(hi) 2/(pi sqrt(p pp)), and the phase
    (p + pp) hi must be finite.
    """
    if hi <= lo:
        return 0.0
    envelope = 2.0 / (math.pi * (math.sqrt(p) * math.sqrt(pp)))
    if not math.isfinite((p + pp) * hi) or math.ulp(hi) * envelope > tol:
        raise ConvergenceError(
            f"window end {hi} is not resolved to tol = {tol}: its ulp moves the "
            f"integral of J_{nu}(p r) J_{mu}(p' r) r by up to "
            f"{math.ulp(hi) * envelope:.3e} at p = {p}, p' = {pp}"
        )
    cells = []
    a = lo
    while a < hi:
        b = min(2.0 * a, hi)
        cells.append((a, b))
        a = b

    def panel(a, b):
        return hankel_panel_kernel(nu, mu, p, pp, a, b)

    return math.fsum(_accepted(panel, cells, tol, hi - lo, budget, (nu, mu, p, pp)))


def _accepted(panel, cells, tol, total, budget, orders_and_momenta):
    """Values of the cells, each bisected until its pieces meet their shares.

    panel(a, b) returns a (fine, coarse) pair of estimates; a piece [a, b]
    is accepted, at its fine value, when |fine - coarse| <= tol (b - a)/total.
    One panel is spent per cell and two per bisection.
    """
    pieces = []
    for a, b in cells:
        budget.spend()
        stack = [(a, b, panel(a, b))]
        while stack:
            a, b, (fine, coarse) = stack.pop()
            if not math.isfinite(fine):
                # bisection cannot make a NaN or infinite cell finite
                nu, mu, p, pp = orders_and_momenta
                raise NumericalFailureError(
                    f"panel [{a}, {b}] of J_{nu}(p r) J_{mu}(p' r) r is not finite "
                    f"({fine!r}) at p = {p}, p' = {pp}"
                )
            if abs(fine - coarse) <= tol * (b - a) / total:
                pieces.append(fine)
            else:
                mid = 0.5 * (a + b)
                budget.spend(2)
                stack.append((mid, b, panel(mid, b)))
                stack.append((a, mid, panel(a, mid)))
    return pieces
