"""The quadrature's rules: the G10/K21 table, the series origin cell and the
Filon-Legendre Hankel panels.

`product_quad` accepts a cell when the two estimates agree, so a mistyped
node or weight would show only as extra bisections or a loose result; these
tests compare the table with Legendre's nodes and the moments of [-1, 1].
The cell at the origin, summed from the ascending series at every order
pair, is checked against a 40-digit mpmath quadrature, and on cells where
one momentum times the cell length is negligible against a closed form;
where p c/2 leaves the normal range of doubles under a nonzero order it
must fail loudly.
The Hankel panels' 16-node table is compared with Legendre's nodes, their
spherical Bessel moments and one panel with mpmath, and `hankel_quad` must
refuse a window end that the doubles cannot place.
"""

import math

import mpmath
import numpy as np
import pytest

from conftest import mp_origin_integral

from abmodes._kernels_py import _GK21, _GL16, _K21_CENTER, hankel_product_panel, spherical_j
from abmodes import _quad
from abmodes._quad import PanelBudget, hankel_quad, product_quad
from abmodes.errors import ConvergenceError, NumericalFailureError


def test_gauss_nodes_and_weights_are_legendres():
    nodes, weights = np.polynomial.legendre.leggauss(10)
    expected = [(x, w) for x, w in zip(nodes, weights) if x > 0.0]
    ours = [(x, wg) for x, _, wg in _GK21 if wg != 0.0]
    assert len(ours) == len(expected) == 5
    for (x, w), (x_ref, w_ref) in zip(ours, sorted(expected)):
        assert abs(x - x_ref) <= 1e-15 and abs(w - w_ref) <= 1e-15


def _even_moment(k, center, pairs):
    # the rule applied to x^(2k) on [-1, 1]; x^0 at the center node is 1
    return math.fsum([center if k == 0 else 0.0] + [2.0 * w * x ** (2 * k) for x, w in pairs])


# the rounded table misses the moments by at most 5.6e-17; a digit swap in
# the last two digits of a weight costs 7e-16
MOMENT_TOL = 2e-16


@pytest.mark.parametrize("k", range(16))
def test_kronrod_is_exact_to_degree_31(k):
    value = _even_moment(k, _K21_CENTER, [(x, wk) for x, wk, _ in _GK21])
    assert abs(value - 2.0 / (2 * k + 1)) <= MOMENT_TOL


@pytest.mark.parametrize("k", range(10))
def test_gauss_is_exact_to_degree_19(k):
    value = _even_moment(k, 0.0, [(x, wg) for x, _, wg in _GK21])
    assert abs(value - 2.0 / (2 * k + 1)) <= MOMENT_TOL


# orders from -0.95 to 5.5, with nu + mu not an integer (a branch point at
# r = 0) and an integer (an analytic integrand, summed the same way)
ORIGIN_ORDERS = [(-0.95, -0.95), (-0.9, 0.35), (-0.5, -0.7), (0.3, 0.3),
                 (2.5, -0.6), (5.5, 5.5), (5.5, -0.95), (1.3, 4.1),
                 (0.3, -0.3), (-0.5, -0.5), (0.0, 0.0), (5.0, 5.0), (2.5, -0.5)]
# (p, p', cell length in quasi-periods pi/max(p, p')): p'/p on both sides of
# 1, far from it and next to it, with whole cells and ones cut short by hi
ORIGIN_CELLS = [(1.0, 2.0, 1.0), (2.0, 1.0, 0.3), (1.0, 1e-3, 1.0), (0.7, 0.69, 0.3)]


@pytest.mark.parametrize("p, pp, periods", ORIGIN_CELLS)
@pytest.mark.parametrize("nu, mu", ORIGIN_ORDERS)
def test_origin_cell_against_mpmath(nu, mu, p, pp, periods):
    hi = periods * math.pi / max(p, pp)
    budget = PanelBudget(10)
    value = product_quad(nu, mu, p, pp, 0.0, hi, 1e-9, budget)
    assert budget.used == 1
    # the rounding of the series scales with the sum of its terms' magnitudes,
    # which is the same integral of I_nu(p r) I_mu(p' r) r
    ref = mp_origin_integral(nu, mu, p, pp, hi)
    scale = mp_origin_integral(nu, mu, p, pp, hi, mpmath.besseli, dps=15)
    assert abs(value - ref) <= 1e-14 * scale


def _one_sided_reference(nu, mu, p, pp, c):
    """int_0^c J_nu(p r) J_mu(pp r) r dr when pp c or p c is below 1e-150.

    The Bessel function with the smaller momentum, say pp, is then the first
    term of its series to double precision, (pp r/2)^mu / Gamma(mu + 1), and
    int_0^c r^(mu+1) J_nu(p r) dr is c^s (p c/2)^nu / (Gamma(nu + 1) s) times
    1F2(s/2; nu + 1, s/2 + 1; -(p c/2)^2), with s = nu + mu + 2.
    """
    if p < pp:
        nu, mu, p, pp = mu, nu, pp, p
    assert pp * c < 1e-150
    with mpmath.workdps(40):
        nu, mu, p, pp, c = map(mpmath.mpf, (nu, mu, p, pp, c))
        s = nu + mu + 2
        k = (p / 2) ** nu * (pp / 2) ** mu / (mpmath.gamma(nu + 1) * mpmath.gamma(mu + 1))
        return k * c**s / s * mpmath.hyp1f2(s / 2, nu + 1, s / 2 + 1, -((p * c / 2) ** 2))


@pytest.mark.parametrize("hi", [1e-170, 1e-300, 1e-307])
@pytest.mark.parametrize("nu, mu", [(-0.95, -0.95), (-0.99, -0.99), (-0.9, -0.6)])
def test_origin_cell_on_short_cells(nu, mu, hi):
    # x^nu y^mu alone overflows on these cells; the integral is the first
    # term of the double series, K hi^s / s
    budget = PanelBudget(10)
    value = product_quad(nu, mu, 1.0, 2.0, 0.0, hi, 1e-9, budget)
    assert budget.used == 1
    ref = _one_sided_reference(nu, mu, 1.0, 2.0, hi)
    assert abs(value - ref) <= 1e-14 * ref


@pytest.mark.parametrize("p, pp, hi", [(1.0, 1e-300, 1.0), (1e-300, 1.0, 1e-5)])
@pytest.mark.parametrize("nu, mu", [(-0.95, -0.95), (-0.9, 0.35), (0.35, -0.9)])
def test_origin_cell_at_extreme_momentum_ratios(nu, mu, p, pp, hi):
    value = product_quad(nu, mu, p, pp, 0.0, hi, 1e-9, PanelBudget(10))
    ref = _one_sided_reference(nu, mu, p, pp, min(hi, math.pi / max(p, pp)))
    assert abs(value - ref) <= 1e-14 * abs(ref)


# p c/2 or p' c/2 below the normal range (the first three), a value beyond
# the double range (the last, 1e488 and more)
@pytest.mark.parametrize(
    "p, pp, hi", [(5e-324, 1.0, 1.0), (1.0, 1.0, 5e-324), (1e-315, 1.0, 1.0),
                  (5e-324, 5e-324, 1e300)]
)
@pytest.mark.parametrize(
    "nu, mu", [(-0.95, -0.95), (5.5, -0.95), (-0.9, 0.35), (0.3, -0.3), (0.5, 0.5)]
)
def test_origin_cell_out_of_range_is_a_numerical_failure(nu, mu, p, pp, hi):
    # a library error, never a raw ZeroDivisionError or OverflowError from
    # the powers of an underflowed or huge argument, nor lost digits
    with pytest.raises(NumericalFailureError):
        product_quad(nu, mu, p, pp, 0.0, hi, 1e-9, PanelBudget(1000))


def test_non_finite_panel_fails_at_once():
    # the kernels give NaN where p r/2 underflows under a negative order;
    # bisection cannot mend a NaN cell, so the first panel raises instead of
    # spending the budget (about 200,000 panels).  From r = 0 the origin
    # cell refuses the subnormal p c/2 before any panel; from r = 0.5 the
    # first cell is a G10/K21 panel
    for lo in (0.0, 0.5):
        budget = PanelBudget(200_000)
        with pytest.raises(NumericalFailureError):
            product_quad(-0.9, 0.9, 5e-324, 1.0, lo, 1.0, 1e-9, budget)
        assert budget.used == 1


@pytest.mark.parametrize("nu, mu", [(0.3, -0.3), (0.0, 0.0), (-0.5, -0.5), (5.0, 5.0)])
def test_integer_sum_origin_cell_calls_no_panel(monkeypatch, nu, mu):
    # the origin cell comes from the series at every order pair; only the
    # cells past it call the G10/K21 panel kernel
    calls = []
    kernel = _quad.product_panel_kernel

    def counted(*args):
        calls.append(args[4:])
        return kernel(*args)

    monkeypatch.setattr(_quad, "product_panel_kernel", counted)
    budget = PanelBudget(10)
    product_quad(nu, mu, 1.0, 2.0, 0.0, 0.5 * math.pi, 1e-9, budget)
    assert calls == [] and budget.used == 1
    product_quad(nu, mu, 1.0, 2.0, 0.0, math.pi, 1e-9, budget)
    assert calls[0] == (0.5 * math.pi, math.pi)


def test_gauss16_nodes_and_weights_are_legendres():
    nodes, weights = np.polynomial.legendre.leggauss(16)
    expected = sorted((x, w) for x, w in zip(nodes, weights) if x > 0.0)
    assert len(_GL16) == len(expected) == 8
    for (x, w), (x_ref, w_ref) in zip(_GL16, expected):
        assert abs(x - x_ref) <= 1e-15 and abs(w - w_ref) <= 1e-15


@pytest.mark.parametrize("kappa", [0.0, 1e-12, 1e-8, 2e-8, 1e-3, 0.5, 15.9, 16.0, 16.1, 1e4])
def test_spherical_j_against_mpmath(kappa):
    # the leading-term branch (below 1e-8), Miller's backward recurrence (up
    # to 16) and the forward recurrence (beyond); relative to |j_k| where
    # j_k is monotone in k, and to the envelope 1/kappa where it oscillates
    j = spherical_j(kappa)
    if kappa == 0.0:
        assert j == [1.0] + [0.0] * 15
        return
    with mpmath.workdps(40):
        for k in range(16):
            ref = float(mpmath.sqrt(mpmath.pi / (2 * mpmath.mpf(kappa)))
                        * mpmath.besselj(k + 0.5, kappa))
            scale = abs(ref) if kappa < 1.0 else max(abs(ref), 1.0 / kappa)
            assert abs(j[k] - ref) <= 5e-16 * scale, k


@pytest.mark.parametrize(
    "args",
    [(0.3, -0.3, 1.0, 1.02, 12.0, 24.0), (2.5, 1.0, 1.3, 0.7, 12.0 / 0.7, 24.0 / 0.7),
     (-0.9, 6.0, 1.0, 1.5, 12.0, 13.0), (0.3, 0.3, 1.0, 1.0, 12.0, 24.0)],
)
def test_hankel_panel_against_mpmath(args):
    # the panel integrates Hankel's expansion as the kernels truncate it,
    # whose own error near x = 12 is about 1e-12 here
    value, coarse = hankel_product_panel(*args)
    nu, mu, p, pp, lo, hi = args
    with mpmath.workdps(20):
        # pieces of about a period of the fast phase, each smooth enough
        # for Gauss-Legendre
        n = int((hi - lo) * (p + pp) / 6.0) + 2
        ref = mpmath.quad(
            lambda r: mpmath.besselj(nu, p * r) * mpmath.besselj(mu, pp * r) * r,
            [lo + (hi - lo) * i / n for i in range(n + 1)],
            method="gauss-legendre",
        )
    assert abs(value - float(ref)) <= 1e-11
    assert abs(value - coarse) <= 1e-10


def test_hankel_quad_refuses_an_unplaceable_end():
    # ulp(1e10) 2/pi is 1.2e-6, and (p + p') 1e10 overflows at p = 1e300
    budget = PanelBudget(1000)
    with pytest.raises(ConvergenceError):
        hankel_quad(0.3, -0.3, 1.0, 1.02, 12.0, 1e10, 1e-9, budget)
    with pytest.raises(ConvergenceError):
        hankel_quad(0.3, -0.3, 1e300, 1.5e300, 1.2e-299, 1e10, 1e-9, budget)
    assert budget.used == 0
