"""Quadrature of Bessel-product integrands: G10/K21 and Hankel panels.

`cell` is the rule for one cell [lo, hi] of J_nu(p rho) J_mu(p' rho) rho.
It returns a (fine, coarse) pair: one panel of the embedded Gauss-Kronrod
G10/K21 pair (Piessens et al., QUADPACK, 1983), 21 integrand values for both
estimates, called through the module global product_panel_kernel, and at
lo == 0 the sum of the ascending series for both.  A panel whose K21 value
is not finite (the kernels give NaN where p r/2 underflows under a negative
order) raises NumericalFailureError at once, since bisection cannot mend
it.  `overlap.finite_part_estimate` calls `cell` directly, once per Lommel
window, with no tolerance and no budget.

At the origin the integrand is r^(nu+mu+1) times a power series in r^2,
with a branch point at r = 0 unless nu + mu is an integer, which no
polynomial rule resolves.  So `cell` integrates [0, c] term by term from the
ascending series of both Bessel functions (Watson, Theory of Bessel
Functions, 3.1), whatever the orders: each product term
r^(nu+mu+1+2j+2k) has an exact integral, and fine and coarse are that one
value.  The cell is at most a quasi-period long, so p rho and p' rho stay
below pi and both series converge fast.  It calls no panel kernel, and
raises NumericalFailureError where p c/2 or p' c/2 falls below the normal
range of doubles under a nonzero order; (p c/2)^0 = 1 is exact.

`product_quad` integrates adaptively.  It pre-splits [lo, hi] at the
quasi-period boundaries k*pi/max(p, p'), takes each cell by `cell`, and
accepts a cell [a, b] by one rule, |fine - coarse| <= tol (b - a)/(hi - lo),
its length-proportional share of the absolute tolerance, bisecting it
otherwise.  A series cell is always accepted.  Every cell spends one panel of
a `PanelBudget`, and every bisection two; a cell that never meets its share
bisects until the budget runs out, and exhaustion raises ConvergenceError.

Where both p rho and p' rho exceed 12, `hankel_quad` takes over: the
Python kernels' Filon-Legendre panel (`hankel_product_panel`, which has no C
twin, so it runs in Python under either backend) integrates Hankel's
expansion over any number of periods, so its cells double in length from
the lower end and their number grows with the log of the range.  It
returns a (value, coarse) pair like G10/K21, refused the same way unless the
value is finite, and the same loop, `_adaptive_sum`, accepts and bisects both
kinds of cell by the same rule and spends the same budget.  `hankel_quad`
refuses a range whose upper end the doubles cannot place: an ulp of hi moves
the integral by up to ulp(hi) 2/(pi sqrt(p p')), and when that exceeds tol,
or (p + p') hi overflows, it raises ConvergenceError before the first panel.

Accepted contributions are summed by math.fsum, correctly rounded, so the
result does not depend on their order; fsum's OverflowError on a sum past
the range of doubles is left to the public caller's `errors.checked`.

`product_quad`'s extra_breaks force cell boundaries.  No code in the package
passes them; they stay only because a benchmark test does.
`_weighted_panel`, the G10/K21 pair of a weighted integrand through the
Python node loop, has no caller; it stays only because the benchmark's
tracer wraps it, and without it its quad.panels would read as unmeasured.
Both go with the next change to the benchmark.
"""

import math
import sys

from ._backend import bessel_kernel, hankel_panel_kernel, product_panel_kernel
from ._kernels_py import _GK21, _K21_CENTER
from .errors import ConvergenceError, NumericalFailureError

__all__ = ["PanelBudget", "cell", "hankel_quad", "product_quad"]


class PanelBudget:
    """Mutable countdown of the cells product_quad and hankel_quad evaluate.

    One unit pays for one G10/K21 panel, one series cell at the origin or one
    Hankel panel, whichever the cell takes; a budget is shared across the
    ranges of one integral.  Only `overlap.windowed_overlap` makes one.
    """

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
    # c x^nu = c^(nu+1) (p/2)^nu shrinks with c, since nu > -1: the bare
    # x^nu y^mu would overflow on a short cell with nu + mu near -2, while
    # x^nu alone is finite, x being normal (under nu != 0) and below pi/2
    value = (x**nu * c) * (y**mu * c) * total
    if not math.isfinite(value):
        raise NumericalFailureError(
            f"origin cell of J_{nu}(p r) J_{mu}(p' r) r over [0, {c}] is not finite "
            f"at p = {p}, p' = {pp}"
        )
    return value


def _finite(estimates, a, b, nu, mu, p, pp):
    # the (fine, coarse) pair of the cell [a, b], refused unless fine is finite
    if not math.isfinite(estimates[0]):
        raise NumericalFailureError(
            f"panel [{a}, {b}] of J_{nu}(p r) J_{mu}(p' r) r is not finite "
            f"({estimates[0]!r}) at p = {p}, p' = {pp}"
        )
    return estimates


def cell(nu, mu, p, pp, lo, hi):
    """(fine, coarse) estimates of int_lo^hi J_nu(p r) J_mu(pp r) r dr on one cell.

    At lo == 0 both are the sum of the ascending series (`_origin_cell`);
    elsewhere they are the K21 and G10 values of one panel, evaluated through
    the module global product_panel_kernel.  Raises NumericalFailureError
    when the fine value is not finite.
    """
    if lo == 0.0:
        value = _origin_cell(nu, mu, p, pp, hi)
        return value, value
    return _finite(product_panel_kernel(nu, mu, p, pp, lo, hi), lo, hi, nu, mu, p, pp)


def product_quad(
    nu: float,
    mu: float,
    p: float,
    pp: float,
    lo: float,
    hi: float,
    tol: float,
    budget: PanelBudget,
    extra_breaks=(),
) -> float:
    """Adaptive integral of J_nu(p r) J_mu(pp r) r over [lo, hi].

    tol is an absolute target for this range; each cell gets a length-
    proportional share.  extra_breaks force cell boundaries.
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

    def panel(a, b):
        return cell(nu, mu, p, pp, a, b)

    return _adaptive_sum(panel, zip(breaks, breaks[1:]), tol, hi - lo, budget)


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
        return _finite(hankel_panel_kernel(nu, mu, p, pp, a, b), a, b, nu, mu, p, pp)

    return _adaptive_sum(panel, cells, tol, hi - lo, budget)


def _adaptive_sum(panel, cells, tol, total, budget):
    """Sum of the cells, each bisected until its pieces meet their shares.

    panel(a, b) returns a (fine, coarse) pair of estimates, fine finite; a
    piece [a, b] is accepted, at its fine value, when |fine - coarse| <=
    tol (b - a)/total.  One panel is spent per cell and two per bisection.
    """
    pieces = []
    for a, b in cells:
        budget.spend()
        stack = [(a, b, panel(a, b))]
        while stack:
            a, b, (fine, coarse) = stack.pop()
            if abs(fine - coarse) <= tol * (b - a) / total:
                pieces.append(fine)
            else:
                mid = 0.5 * (a + b)
                budget.spend(2)
                stack.append((mid, b, panel(mid, b)))
                stack.append((a, mid, panel(a, mid)))
    return math.fsum(pieces)
