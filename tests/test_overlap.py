"""Overlap integrals: closed forms, windowed quadrature, finite-part extraction,
cancellation mechanics, and exponent recovery."""

import math
import random

import mpmath
import numpy as np
import pytest

from conftest import mp_lommel_cross, mp_origin_integral

import abmodes.overlap
from abmodes import _quad
from abmodes._quad import PanelBudget
from abmodes.errors import (
    ChannelMismatchError,
    ConvergenceError,
    DomainError,
    EqualMomentaError,
    InsufficientSamplesError,
    NumericalFailureError,
)
from abmodes.flux import decompose
from abmodes.modes import DiracKinematics, make_dirac_mode, make_schrodinger_mode
from abmodes.overlap import (
    closed_form_cross,
    closed_form_same,
    finite_part_estimate,
    fit_cancelling_exponent,
    fit_delta_coefficient,
    mode_overlap_finite_part,
    mode_overlap_finite_part_numeric,
    windowed_overlap,
)
from abmodes.specfun import bessel_j, bessel_j_and_prime


# p'/p from the diagonal to 10, on both sides of it
RATIOS = (1.0 + 1e-6, 1.0001, 1.02, 1.3, 2.2, 3.0, 10.0, 1.0 / 1.3, 0.1)


def mp_finite_part(d, p, pp):
    """The closed-form finite part at 40 digits: the oracle near the diagonal."""
    with mpmath.workdps(40):
        d, p, pp = mpmath.mpf(d), mpmath.mpf(p), mpmath.mpf(pp)
        return float(
            2 * mpmath.sin(mpmath.pi * d) / (mpmath.pi * (p * p - pp * pp)) * (p / pp) ** d
        )


@pytest.fixture
def budgets(monkeypatch):
    """Every PanelBudget the overlap estimators make, with the cells it paid for."""
    made = []

    class CountingBudget(PanelBudget):
        cells = 0

        def __init__(self, panels):
            super().__init__(panels)
            made.append(self)

        def spend(self, n=1):
            self.cells += n == 1  # one single spend per cell, pairs per bisection
            super().spend(n)

    monkeypatch.setattr(abmodes.overlap, "PanelBudget", CountingBudget)
    return made


def mp_windowed(nu, mu, p, pp, L):
    """int_0^L J_nu(p r) J_mu(pp r) r dr by mpmath at 40 digits, split at the
    quasi-periods, the first one with its branch point at 0 taken out."""
    step = math.pi / max(p, pp)
    first = min(step, L)
    with mpmath.workdps(40):
        points = [first] + [k * step for k in range(2, int(L / step) + 1) if k * step < L] + [L]
        rest = mpmath.quad(
            lambda r: mpmath.besselj(nu, p * r) * mpmath.besselj(mu, pp * r) * r, points
        ) if L > first else 0
        return float(mp_origin_integral(nu, mu, p, pp, first) + rest)


class TestClosedForms:
    def test_same_order(self):
        r = closed_form_same(0.5, 1.0, 2.0)
        assert (r.delta_coeff, r.finite_part) == (1.0, 0.0)
        r = closed_form_same(0.3, 1.0, 1.0)
        assert (r.delta_coeff, r.finite_part) == (1.0, 0.0)

    def test_same_order_divergent(self):
        with pytest.raises(DomainError):
            closed_form_same(-1.2, 1.0, 2.0)

    def test_cross_half_order(self):
        r = closed_form_cross(0.5, 2.0, 1.0)
        # 2 sqrt(2) / (3 pi)
        assert r.finite_part == pytest.approx(0.3001054387190354, rel=1e-13)
        assert abs(r.delta_coeff) <= 1e-15

    def test_cross_quarter_order(self):
        r = closed_form_cross(0.25, 1.0, 2.0)
        assert r.delta_coeff == pytest.approx(math.cos(math.pi * 0.25), rel=1e-15)
        assert r.finite_part == pytest.approx(-0.12617879380849007, rel=1e-13)

    def test_cross_equal_momenta(self):
        with pytest.raises(EqualMomentaError):
            closed_form_cross(0.5, 1.0, 1.0)

    @pytest.mark.parametrize("ratio", [1.0001, 1.0 + 1e-6, 1.0 + 1e-8])
    def test_cross_near_diagonal(self, ratio):
        # p - p' is exact here (Sterbenz); p^2 - p'^2 lost up to 5e-9
        cf = closed_form_cross(0.3, 1.0, ratio).finite_part
        ref = mp_finite_part(0.3, 1.0, ratio)
        assert abs(cf - ref) <= 2e-15 * abs(ref)

    def test_cross_scale_identity(self):
        # evaluated at the momenta scaled by a power of two: at p = 2^k the
        # finite part times 4^k is the same double for every k
        scaled = {
            closed_form_cross(0.3, 2.0**k, 1.3 * 2.0**k).finite_part * 4.0**k
            for k in range(-40, 41)
        }
        assert len(scaled) == 1

    def test_cross_extreme_momenta(self):
        # (p - p')(p + p') left the normal range: -inf at p = 1e-160, a raw
        # ZeroDivisionError at 1e-165 and 1e-320, and -0.0 at 1e160
        for p in (1e-160, 1e-165, 1e-320):
            with pytest.raises(NumericalFailureError):
                closed_form_cross(0.3, p, 1.3 * p)
        finite = closed_form_cross(0.3, 1e160, 1.3e160).finite_part
        ref = mp_finite_part(0.3, 1e160, 1.3e160)
        assert ref < -6e-321 and abs(finite - ref) <= 1e-323

    def test_cross_order_domain(self):
        with pytest.raises(DomainError):
            closed_form_cross(1.2, 1.0, 2.0)
        with pytest.raises(DomainError):
            closed_form_cross(0.5, -1.0, 2.0)


class TestWindowedOverlap:
    def test_half_order_window_pi(self):
        # integrand reduces to (sqrt2/pi) sin(r) sin(2r); antiderivative
        # vanishes at L = pi
        assert abs(windowed_overlap(0.5, 0.5, 1.0, 2.0, math.pi)) <= 1e-9

    def test_half_order_window_one(self):
        expected = math.sqrt(2.0) / math.pi * 0.5 * (math.sin(1.0) - math.sin(3.0) / 3.0)
        assert windowed_overlap(0.5, 0.5, 1.0, 2.0, 1.0) == pytest.approx(
            expected, abs=1e-9
        )

    def test_against_fixed_high_order_quadrature(self):
        # independent composite Gauss-Legendre(20) at 10x panel density
        nu, mu, p, pp, L = 0.3, -0.3, 1.3, 0.7, 50.0
        nodes, weights = np.polynomial.legendre.leggauss(20)
        n_panels = int(10.0 * L * max(p, pp) / math.pi) + 1
        edges = np.linspace(0.0, L, n_panels + 1)
        total = 0.0
        for lo, hi in zip(edges[:-1], edges[1:]):
            c, h = 0.5 * (lo + hi), 0.5 * (hi - lo)
            for z, w in zip(nodes, weights):
                r = c + h * z
                total += w * h * bessel_j(nu, p * r) * bessel_j(mu, pp * r) * r
        assert windowed_overlap(nu, mu, p, pp, L) == pytest.approx(total, abs=1e-8)

    @pytest.mark.parametrize(
        "args",
        [(-0.6, -0.6, 1.0, 1.7, 10.0, 6), (-0.5, -0.7, 1.3, 0.4, 12.0, 5),
         (-0.9, -0.9, 1.0, 2.0, 10.0, 7)],
    )
    def test_singular_endpoint_against_mpmath(self, budgets, args):
        # (nu, mu, p, p', L, panels); r^(nu + mu + 1) at r = 0: the origin
        # cell is summed from the series and no cell bisects
        *args, panels = args
        value = windowed_overlap(*args)
        (budget,) = budgets
        assert budget.used == budget.cells == panels
        assert abs(value - mp_windowed(*args)) <= 1e-12

    def test_budget_exhaustion(self):
        # the window needs 19 panels: 8 cells below r_h = 12, 9 doubling
        # Hankel cells and one bisection.  The message states the budget and
        # why it ran out, and names no flag: `overlap --verify` and `cancel
        # --verify` have none to raise it
        with pytest.raises(ConvergenceError) as info:
            windowed_overlap(0.3, -0.3, 1.0, 2.0, 5000.0, panel_budget=10)
        assert str(info.value) == (
            "panel budget of 10 panels exhausted: cells still missed their share "
            "of the tolerance"
        )

    @pytest.mark.parametrize(
        "args, panels",
        [((0.3, 1.0, 1.02, 300.0), 12), ((0.3, 1.0, 1.02, 2000.0), 20),
         ((0.3, 1.0, 1.02, 25000.0), 40), ((0.3, 1.0, 2.0, 5000.0), 20),
         ((0.8, 1.3, 0.7, 2000.0), 30)],
    )
    def test_long_windows_against_lommel(self, budgets, args, panels):
        # (nu, p, p', L): the cross pair (nu, -nu) past r_h = 12/min(p, p')
        # on Hankel panels, whose number grows with log L; before them,
        # L = 25,000 took one G10/K21 cell per quasi-period and ran out of
        # 400,000 panels at the rounding floor
        nu, p, pp, L = args
        value = windowed_overlap(nu, -nu, p, pp, L)
        (budget,) = budgets
        assert budget.used <= panels
        assert abs(value - mp_lommel_cross(nu, p, pp, L)) <= 1e-10

    def test_past_the_rounding_wall(self):
        # one G10/K21 cell per quasi-period ran out of panels here (after
        # 44 s); past r_h = 12 the window continues on Hankel panels
        value = windowed_overlap(0.3, -0.3, 1.0, 1.01, 30.0, tol=1e-12)
        assert abs(value - mp_lommel_cross(0.3, 1.0, 1.01, 30.0)) <= 1e-12

    def test_subnormal_momentum(self):
        # a zero order takes it, since (p r/2)^0 = 1 is exact: int_0^1 J_0(0)
        # J_0(r) r dr = J_1(1); a nonzero order is refused
        value = windowed_overlap(0.0, 0.0, 5e-324, 1.0, 1.0)
        assert abs(value - float(mpmath.besselj(1, 1))) <= 1e-15
        with pytest.raises(NumericalFailureError):
            windowed_overlap(0.3, -0.3, 1e-315, 1.0, 1.0)

    def test_unresolved_window_end(self):
        # an ulp of the window end moves the integral by 7e283, far above
        # tol: refused before the first Hankel panel
        with pytest.raises(ConvergenceError):
            windowed_overlap(0.5, 0.5, 1.0, 2.0, 1e300)

    def test_domain(self):
        for args in (
            (-1.3, 0.3, 1.0, 2.0, 10.0),
            (0.3, 0.3, 1.0, 2.0, 0.0),
            # NaN momenta and windows (once tracebacks or endless bisection),
            # orders outside (-1, MAX_ORDER + 1]
            (1.0, 1e-13, math.nan, 3.0, 2.0),
            (0.3, 0.3, 1.0, 1.0, math.nan),
            (math.inf, 3.0, 0.25, 3.0, 0.01),
            (7.0, 0.3, 1.0, 2.0, 30.0),
        ):
            with pytest.raises(DomainError):
                windowed_overlap(*args)


class TestFinitePartEstimate:
    def test_matches_half_order_closed_form(self):
        value, est = finite_part_estimate(0.5, -0.5, 2.0, 1.0)
        cf = closed_form_cross(0.5, 2.0, 1.0).finite_part
        assert abs(value - cf) <= 3e-4
        assert est <= 3e-4

    def test_same_order_has_no_finite_part(self):
        value, est = finite_part_estimate(0.5, 0.5, 1.0, 2.0)
        assert abs(value) <= 3e-4
        assert est <= 3e-4

    def test_orientation_pairing(self):
        # first order carries the first momentum: (0.3, -0.3, 0.7, 1.3)
        # must match the closed form with J_{+0.3} at momentum 0.7
        value, _ = finite_part_estimate(0.3, -0.3, 0.7, 1.3)
        cf = closed_form_cross(0.3, 0.7, 1.3).finite_part
        assert abs(value - cf) <= 1e-3 * max(1.0, abs(cf))
        # and the swapped orientation relabels the momenta
        value2, _ = finite_part_estimate(-0.3, 0.3, 0.7, 1.3)
        cf2 = closed_form_cross(0.3, 1.3, 0.7).finite_part
        assert abs(value2 - cf2) <= 1e-3 * max(1.0, abs(cf2))

    def test_separation_floor(self):
        # only the delta fit needs the slow period, so only it keeps the floor
        with pytest.raises(EqualMomentaError):
            fit_delta_coefficient(0.3, -0.3, 1.0, 1.0005)
        for ratio in (1.0005, 1.0001, 1.0 + 1e-6):
            value, _ = finite_part_estimate(0.3, -0.3, 1.0, ratio)
            ref = mp_finite_part(0.3, 1.0, ratio)
            assert abs(value - ref) <= 1e-12 * abs(ref), ratio
        with pytest.raises(EqualMomentaError):
            finite_part_estimate(0.3, -0.3, 1.0, 1.0)

    @pytest.mark.parametrize("p", [5e-324, 1e-321, 1e-300, 1.0, 1e300])
    def test_delta_fit_separation_floor_at_every_scale(self, p):
        # tested on p'/p: at subnormal momenta 1e-3 max(p, p') underflows to
        # 0, and equal momenta once passed and divided by p - p' = 0
        with pytest.raises(EqualMomentaError):
            fit_delta_coefficient(0.3, -0.3, p, p)

    @pytest.mark.parametrize("ratio", [1.3, 1.05, 1.02, 1.001, 1.0001])
    def test_cost_flat_near_the_diagonal(self, monkeypatch, budgets, ratio):
        # one cell per window, 3 in all (the first from the series, the
        # others one G10/K21 panel each), at every ratio, whatever the slow
        # period 2 pi/|p - p'|, and no panel budget
        calls = []

        def counted(name, f):
            def wrapper(*args):
                calls.append(name)
                return f(*args)

            monkeypatch.setattr(_quad, name, wrapper)

        counted("_origin_cell", _quad._origin_cell)
        counted("product_panel_kernel", _quad.product_panel_kernel)
        value, _ = finite_part_estimate(0.3, -0.3, 1.0, ratio)
        cf = closed_form_cross(0.3, 1.0, ratio).finite_part
        assert abs(value - cf) <= 1e-13 * abs(cf)
        assert calls == ["_origin_cell", "product_panel_kernel", "product_panel_kernel"]
        assert budgets == []

    def test_cross_orders_against_mpmath(self):
        # 189 cases: orders near 0, 1/2 and 1, ratios from the diagonal to
        # 10 on both sides, small to large momenta; with the windows at 4,
        # 6 and 8 quasi-periods, on the kernels' switch to Hankel's
        # expansion at x = 12, 117 of them missed 3e-13 (worst 4.2e-10)
        worst = 0.0
        for d in (0.02, 0.05, 0.3, 0.5, 0.75, 0.95, 0.98):
            for ratio in RATIOS:
                for p in (0.3, 1.1, 50.0):
                    value, _ = finite_part_estimate(d, -d, p, p * ratio)
                    ref = mp_finite_part(d, p, p * ratio)
                    worst = max(worst, abs(value - ref) / abs(ref))
        assert worst <= 3e-13

    @pytest.mark.parametrize("nu", [-0.9, -0.5, 1.5, 2.3, 3.7, 4.9, 5.0])
    def test_same_orders_vanish(self, nu):
        # the finite part of equal orders is 0; the error scales like the
        # cross finite part, as 1/|p^2 - p'^2|, so the bound is 1e-11 where
        # |p^2 - p'^2| >= 1e-3 and 1e-14/|p^2 - p'^2| closer to the diagonal
        # (4.8e-9 at p = 0.3, p'/p = 1 + 1e-6)
        for ratio in RATIOS:
            for p in (0.3, 1.1, 50.0):
                pp = p * ratio
                value, _ = finite_part_estimate(nu, nu, p, pp)
                assert abs(value) * min(1e-3, abs(p * p - pp * pp)) <= 1e-14, (ratio, p)

    @pytest.mark.parametrize("ratio", RATIOS)
    @pytest.mark.parametrize("nu, mu", [(0.3, -0.3), (-0.9, -0.9), (2.3, 2.3)])
    def test_windows_stay_in_the_series_range(self, monkeypatch, nu, mu, ratio):
        # every cell end and every bracket argument stays at max(p, p') r <=
        # 3 pi/2 at unit scale, below the kernels' Hankel switch at 12
        ends = []
        args = []

        def series(nu, mu, p, pp, c):
            ends.append(c * max(p, pp))
            return origin_cell(nu, mu, p, pp, c)

        def panel(nu, mu, p, pp, lo, hi):
            ends.append(hi * max(p, pp))
            return panel_kernel(nu, mu, p, pp, lo, hi)

        def kernel(order, xs):
            args.extend(xs)
            return bessel_kernel(order, xs)

        origin_cell = _quad._origin_cell
        panel_kernel = _quad.product_panel_kernel
        bessel_kernel = abmodes.specfun.bessel_kernel
        monkeypatch.setattr(_quad, "_origin_cell", series)
        monkeypatch.setattr(_quad, "product_panel_kernel", panel)
        monkeypatch.setattr(abmodes.specfun, "bessel_kernel", kernel)
        finite_part_estimate(nu, mu, 1.1, 1.1 * ratio)
        assert len(ends) == 3 and len(args) == 12
        limit = 1.5 * math.pi * (1.0 + 1e-15)
        assert max(ends) <= limit
        assert max(args) <= limit

    @pytest.mark.parametrize("p, pp", [(1e-3, 1.3e-3), (1.3e-3, 1e-3), (0.013, 0.01)])
    def test_small_momenta(self, p, pp):
        # the windows at 4, 6 and 8 quasi-periods ran for over a minute and
        # then out of panels here, since the absolute tolerance is below the
        # rounding of integrals of size L^2
        value, _ = finite_part_estimate(0.3, -0.3, p, pp)
        ref = mp_finite_part(0.3, p, pp)
        assert abs(value - ref) <= 1e-13 * abs(ref)

    def test_scale_identity(self):
        # the windows run at the momenta divided by 2^e, e the binary
        # exponent of max(p, p'): at p = 2^k the value and est_error times
        # 4^k are the same doubles for every k
        scaled = set()
        for k in range(-40, 41):
            value, est = finite_part_estimate(0.3, -0.3, 2.0**k, 1.3 * 2.0**k)
            scaled.add((value * 4.0**k, est * 4.0**k))
        assert len(scaled) == 1

    @pytest.mark.parametrize("p", [1e-3, 1e-4, 1e-6, 1e5, 1e-150])
    @pytest.mark.parametrize("ratio", [1.3, 1.0 / 1.3])
    def test_any_momentum_scale(self, p, ratio):
        # with an absolute tolerance on the integrals themselves, of size
        # 1/p^2, p = 1e-4, 1e-6 and 1e-150 ran out of 200,000 panels
        value, _ = finite_part_estimate(0.3, -0.3, p, p * ratio)
        ref = mp_finite_part(0.3, p, p * ratio)
        assert abs(value - ref) <= 1e-14 * abs(ref)

    @pytest.mark.parametrize("ratio", [1e-10, 1e-20, 1e-48])
    @pytest.mark.parametrize("nu", [0.7, 0.95, 0.3, -0.7])
    def test_extreme_ratios(self, nu, ratio):
        # the scaling leaves a factor (p/p')^d of the integrand's size; with
        # each window integrated adaptively to an absolute tolerance, orders
        # (0.7, -0.7), (0.95, -0.95) and (0.3, -0.3) ran out of 200,000
        # panels at some of these ratios (about 40 s a call)
        value, _ = finite_part_estimate(nu, -nu, 1.0, ratio)
        with mpmath.workdps(40):
            d, pp = mpmath.mpf(nu), mpmath.mpf(ratio)
            ref = float(2 * mpmath.sin(mpmath.pi * d) / (mpmath.pi * (1 - pp * pp)) / pp**d)
        assert abs(value - ref) <= 1e-13 * abs(ref)

    def test_spread_gate(self):
        # equal orders far from the diagonal: the three Lommel values do not
        # agree, and the estimate refuses at once instead of bisecting
        with pytest.raises(ConvergenceError, match="spread"):
            finite_part_estimate(-0.9, -0.9, 1.0, 1e-16)

    def test_panel_disagreement_gate(self, monkeypatch):
        # a G10 value off its K21 value by more than 1e-3 max(1, |value|),
        # while K21 and so the value and spread are unchanged
        panel_kernel = _quad.product_panel_kernel

        def disagreeing(*args):
            fine, coarse = panel_kernel(*args)
            return fine, coarse + 1.0

        monkeypatch.setattr(_quad, "product_panel_kernel", disagreeing)
        with pytest.raises(ConvergenceError, match="panel disagreement"):
            finite_part_estimate(0.3, -0.3, 1.0, 1.3)

    def test_non_finite_panel_is_a_numerical_failure(self, monkeypatch):
        monkeypatch.setattr(_quad, "product_panel_kernel", lambda *args: (math.nan, 0.0))
        with pytest.raises(NumericalFailureError, match="not finite"):
            finite_part_estimate(0.3, -0.3, 1.0, 1.3)

    def test_overflow_is_a_numerical_failure(self):
        # the finite part near 1e400 is finite at the scaled momenta and
        # overflows when scaled back
        with pytest.raises(NumericalFailureError):
            finite_part_estimate(0.3, -0.3, 1e-200, 1.3e-200)

    def test_needs_equal_squared_orders(self):
        for nu, mu in ((0.3, 0.2), (0.3, -0.4), (0.5, 0.0)):
            with pytest.raises(DomainError):
                finite_part_estimate(nu, mu, 1.0, 2.0)
            with pytest.raises(DomainError):
                fit_delta_coefficient(nu, mu, 1.0, 2.0)

    def test_orders_beyond_the_guaranteed_range(self):
        # the bracket's J_{nu-1} exists up to nu = 6, but the library
        # guarantees |nu| <= MAX_ORDER = 5 only
        for nu in (5.5, 6.0):
            with pytest.raises(DomainError):
                finite_part_estimate(nu, nu, 1.0, 2.0)
            with pytest.raises(DomainError):
                fit_delta_coefficient(nu, nu, 1.0, 2.0)


def test_derivative_recurrence_against_mpmath():
    # the Lommel bracket's J'_nu = J_{nu-1} - (nu/x) J_nu, over the arguments
    # both estimators reach: from 1e-3 (the smaller momentum at the first
    # window of finite_part_estimate, (pi/2) min(p, p')/max(p, p'), when
    # p'/p is far from 1; its windows end at 3 pi/2) to 3e5 (the fit's
    # windows at p'/p = 1.001)
    with mpmath.workdps(40):
        for nu in (-0.95, -0.5, -0.1, 0.0, 0.3, 0.9, 1.0, 2.3, 5.0):
            for x in (1e-3 * 3e8 ** (i / 119) for i in range(120)):
                ref = mpmath.besselj(nu, x, derivative=1)
                envelope = max(abs(ref), mpmath.sqrt(2 / (mpmath.pi * x)))
                _, prime = bessel_j_and_prime(nu, x)
                assert abs(prime - ref) <= 1e-11 * envelope, (nu, x)


# (nu, mu, p, p') -> (repr of fit_delta_coefficient, repr of
# finite_part_estimate), recorded on Python 3.11; the second to fourth fits
# came out differently on Python 3.12 while the fit summed with sum(),
# which is compensated there
PINNED_REPRS = {
    (0.3, -0.3, 1.0, 2.0): ("0.5877853485455204", "(-0.1394464665606454, 2.914335439641036e-16)"),
    (0.5, -0.5, 1.0, 1.02): ("4.9347409146317395e-12", "(-15.602660975745748, 2.220446049250313e-14)"),
    (0.5, -0.5, 1.0, 0.7): ("7.840026566355794e-13", "(1.4919728729444763, 5.551115123125783e-16)"),
    (4.5, 4.5, 1.0, 0.9): ("1.0000000861641931", "(-1.2212453270876722e-15, 6.596286017401809e-16)"),
    (-0.9, -0.9, 1.0, 1.3): ("0.9999999925443069", "(2.220446049250313e-16, 8.326672684688674e-17)"),
    (0.7, -0.7, 1.0, 2.5): ("-0.5877848698616756", "(-0.05165596249531568, 1.6653345369377348e-16)"),
    (2.3, 2.3, 1.0, 0.5): ("1.0000072658395789", "(-1.1102230246251565e-16, 6.938893903907228e-17)"),
    (-0.4, 0.4, 1.0, 1.1): ("0.3090169943876577", "(2.9951889707180337, 1.7763568394002505e-15)"),
}


@pytest.mark.parametrize("args", sorted(PINNED_REPRS))
def test_estimators_give_the_same_doubles_on_every_python(args):
    # the fit's sums run left to right in plain double additions, the
    # same on every Python version, and on both kernel sets
    assert (repr(fit_delta_coefficient(*args)), repr(finite_part_estimate(*args))) == (
        PINNED_REPRS[args]
    )


class TestDeltaCoefficientFit:
    @pytest.mark.parametrize("delta", [0.25, 0.5])
    def test_cross_recovers_cos(self, delta):
        a = fit_delta_coefficient(delta, -delta, 1.0, 2.0)
        assert a == pytest.approx(math.cos(math.pi * delta), abs=1e-2)

    def test_same_order_recovers_unity(self):
        a = fit_delta_coefficient(0.5, 0.5, 1.0, 2.0)
        assert a == pytest.approx(1.0, abs=1e-2)

    @pytest.mark.parametrize("ratio", [1.05, 1.02, 1.01, 1.002])
    def test_near_the_diagonal(self, ratio):
        # the base window is 40 slow periods 2 pi/|p - p'| long, 1.3e4 at 1.02
        a = fit_delta_coefficient(0.3, -0.3, 1.0, ratio)
        assert abs(a - math.cos(0.3 * math.pi)) <= 1e-7

    @pytest.mark.parametrize("ratio", [2.0 / 1.9375, 1.03125, 1.05, 1.002])
    def test_fast_oscillation_does_not_alias(self, ratio):
        # on a uniform grid the fast phase (p + p') L can land on the slow
        # one: 129 samples over the span miss cos(pi d) by 0.56 and 0.44 at
        # the first two ratios, 17 samples (with the 1/L pairs) by 0.16 and
        # 0.67 at the last two, and nothing warns
        a = fit_delta_coefficient(0.3, -0.3, 1.0, ratio)
        assert abs(a - math.cos(0.3 * math.pi)) <= 1e-9

    @pytest.mark.parametrize("delta", [0.05, 0.1, 0.3, 0.9, 0.95])
    @pytest.mark.parametrize(
        "lo, hi, bound", [(1.002, 1.4, 2.5e-8), (1.4, 2.2, 8e-7), (2.2, 3.0, 3e-6)]
    )
    def test_dense_ratio_scan(self, delta, lo, hi, bound):
        # p'/p over [1/3, 3], both sides of the diagonal, at 60 ratios a band
        worst = 0.0
        for ratio in np.geomspace(lo, hi, 60):
            for side in (float(ratio), float(1.0 / ratio)):
                a = fit_delta_coefficient(delta, -delta, 1.0, side)
                worst = max(worst, abs(a - math.cos(math.pi * delta)))
        assert worst <= bound

    def test_kernel_calls(self, monkeypatch):
        # 17 to 49 samples of the bracket, all from four batched kernel
        # calls, one for each order; the most just past p'/p = 1.4, where
        # the fast phase steps by pi/2
        calls = []

        def counting(nu, xs):
            calls.append((nu, len(xs)))
            return kernel(nu, xs)

        kernel = abmodes.specfun.bessel_kernel
        monkeypatch.setattr(abmodes.specfun, "bessel_kernel", counting)
        counts = set()
        for ratio in np.concatenate([np.geomspace(1.002, 10.0, 300), [1.4 + 1e-12, 3.0]]):
            for side in (float(ratio), float(1.0 / ratio)):
                calls.clear()
                fit_delta_coefficient(0.3, -0.3, 1.0, side)
                orders, sizes = zip(*calls)
                assert orders == (0.3, 0.3 - 1.0, -0.3, -0.3 - 1.0)
                assert len(set(sizes)) == 1
                counts.add(sizes[0])
        assert min(counts) == 17 and 48 <= max(counts) <= 49

    def test_any_momentum_scale(self):
        # A depends on p'/p only; the fit must not overflow at either end
        ref = fit_delta_coefficient(0.3, -0.3, 1.0, 2.0)
        for e in range(-300, 151, 10):
            a = fit_delta_coefficient(0.3, -0.3, 10.0**e, 2.0 * 10.0**e)
            assert abs(a - ref) <= 1e-12, e
        with pytest.raises(DomainError):
            fit_delta_coefficient(0.3, -0.3, 1e-200, 1e150)

    def test_needs_no_quadrature(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("product_quad called")

        monkeypatch.setattr("abmodes.overlap.product_quad", refuse)
        a = fit_delta_coefficient(0.3, -0.3, 1.0, 2.0)
        assert a == pytest.approx(math.cos(0.3 * math.pi), abs=1e-2)


class TestModeOverlap:
    def _pair(self, delta, alpha, p, pp, channel_offset=0, m=1.0):
        f = decompose(delta)
        l = f.n + channel_offset
        nu = abs(l - f.phi)
        exponent = 2.0 * nu

        def mode(mom):
            return make_schrodinger_mode(l, f, mom, 1.0, alpha * (mom / m) ** exponent)

        return mode(p), mode(pp)

    def test_cancellation_under_power_law(self):
        a, b = self._pair(0.3, 1.0, 1.3, 0.7)
        assert abs(mode_overlap_finite_part(a, b)) <= 1e-12

    def test_constant_coefficients_do_not_cancel(self):
        f = decompose(0.3)
        a = make_schrodinger_mode(0, f, 1.3, 1.0, 1.0)
        b = make_schrodinger_mode(0, f, 0.7, 1.0, 1.0)
        value = mode_overlap_finite_part(a, b)
        t1 = closed_form_cross(0.3, 1.3, 0.7).finite_part
        t2 = closed_form_cross(0.3, 0.7, 1.3).finite_part
        assert value == pytest.approx(t1 + t2, rel=1e-12)
        assert abs(value) > 1e-2 * max(abs(t1), abs(t2))

    def test_regular_modes_have_no_finite_part(self):
        f = decompose(0.3)
        a = make_schrodinger_mode(0, f, 1.3, 1.0, 0.0)
        b = make_schrodinger_mode(0, f, 0.7, 1.0, 0.0)
        assert mode_overlap_finite_part(a, b) == 0.0

    def test_channel_mismatch(self):
        f = decompose(0.3)
        a = make_schrodinger_mode(0, f, 1.3, 1.0, 0.0)
        b = make_schrodinger_mode(1, f, 0.7, 1.0, 0.0)
        with pytest.raises(ChannelMismatchError):
            mode_overlap_finite_part(a, b)

    def test_equal_momenta(self):
        f = decompose(0.3)
        a = make_schrodinger_mode(0, f, 1.3, 1.0, 0.0)
        b = make_schrodinger_mode(0, f, 1.3, 1.0, 0.1)
        with pytest.raises(EqualMomentaError):
            mode_overlap_finite_part(a, b)

    def test_cross_terms_equal_magnitude_opposite_sign(self):
        # the cancellation mechanism: under the power-law ratio the two cross
        # terms are exact negatives
        rng = random.Random(3)
        for _ in range(20):
            delta = rng.uniform(0.1, 0.9)
            alpha = rng.uniform(0.2, 4.0)
            p = rng.uniform(0.5, 2.0)
            pp = p * rng.uniform(1.3, 2.5)
            f = decompose(delta)
            b_p = alpha * p ** (2.0 * delta)
            b_pp = alpha * pp ** (2.0 * delta)
            t1 = 1.0 * b_pp * closed_form_cross(delta, p, pp).finite_part
            t2 = b_p * 1.0 * closed_form_cross(delta, pp, p).finite_part
            assert t1 == pytest.approx(-t2, rel=1e-12)
            assert abs(t1 + t2) <= 1e-12 * abs(t1)

    def test_numeric_oracle_agrees_with_analytic(self):
        f = decompose(0.3)
        a = make_schrodinger_mode(0, f, 1.3, 1.0, 0.8)
        b = make_schrodinger_mode(0, f, 0.7, 1.0, 0.5)
        analytic = mode_overlap_finite_part(a, b)
        numeric, est = mode_overlap_finite_part_numeric(a, b)
        assert abs(numeric - analytic) <= 1e-3 * max(1.0, abs(analytic))


# (kind, l, phi, (p, a, b) of mode A, (p, a, b) of mode B) -> (repr of
# mode_overlap_finite_part, repr of mode_overlap_finite_part_numeric),
# recorded on Python 3.11: the two share one cross-term assembly, which must
# keep each double.  Both terms in either momentum order, a zero coefficient
# on each side (b = 0 in A or in B), channel N + 1, a negative flux, a pair
# near the diagonal, and the Dirac components, whose amplitudes are swapped
# (order -delta) or carry the irregular sign
MODE_OVERLAP_REPRS = {
    ("schrodinger", 0, 0.3, (1.3, 1.0, 1.0), (0.7, 1.0, 1.0)):
        ("0.160331720187106", "(0.16033172018710828, 1.4988010832439613e-15)"),
    ("schrodinger", 0, 0.3, (0.7, 1.0, 2.0), (1.3, 0.25, 1.0)):
        ("-0.09806090814120683", "(-0.09806090814120505, 1.1657341758564144e-15)"),
    ("schrodinger", 0, 0.3, (1.3, 1.0, 0.0), (0.7, 1.0, 0.5)):
        ("0.25839262832831283", "(0.25839262832831333, 3.3306690738754696e-16)"),
    ("schrodinger", 0, 0.3, (1.3, 2.0, -0.5), (0.7, 1.0, 0.0)):
        ("0.17822676823475983", "(0.1782267682347592, 4.163336342344337e-16)"),
    ("schrodinger", 1, 0.3, (2.0, 1.0, -0.4), (0.5, 0.3, 2.5)):
        ("0.912371004403362", "(0.9123710044033617, 1.0727529975440576e-16)"),
    ("schrodinger", -2, -1.6, (0.001, 1.0, 0.25), (5.0, -1.0, 3.0)):
        ("-0.1850811735719068", "(-0.18508117357190626, 2.5093859282177e-16)"),
    ("schrodinger", 3, 3.85, (1.0, 1.0, 1.0), (1.02, 1.0, 0.9)):
        ("0.944298543155969", "(0.9442985431559956, 1.483257960899209e-14)"),
    ("dirac1", 0, 0.3, (1.3, 1.0, 0.6), (0.7, 0.5, 1.0)):
        ("-0.20141795947253197", "(-0.20141795947253038, 1.0325074129013957e-15)"),
    ("dirac2", 0, 0.3, (1.3, 1.0, 0.6), (0.7, 0.5, 1.0)):
        ("-0.5785044438516092", "(-0.5785044438516075, 1.1296519275560969e-15)"),
}


def _overlap_mode(kind, l, phi, p, a, b):
    f = decompose(phi)
    if kind == "schrodinger":
        return make_schrodinger_mode(l, f, p, a, b)
    pair = make_dirac_mode(l, f, DiracKinematics.from_momenta(1.0, p), a, b)
    return pair[0] if kind == "dirac1" else pair[1]


@pytest.mark.parametrize("case", sorted(MODE_OVERLAP_REPRS))
def test_mode_overlap_doubles(case):
    kind, l, phi, mode_a, mode_b = case
    a, b = _overlap_mode(kind, l, phi, *mode_a), _overlap_mode(kind, l, phi, *mode_b)
    assert (
        repr(mode_overlap_finite_part(a, b)),
        repr(mode_overlap_finite_part_numeric(a, b)),
    ) == MODE_OVERLAP_REPRS[case]


class TestExponentFit:
    def test_channel_n(self):
        f = decompose(0.3)
        slope = fit_cancelling_exponent(f, f.n, [0.5, 1.0, 2.0, 4.0])
        assert slope == pytest.approx(0.6, abs=1e-10)

    def test_channel_n_plus_1(self):
        f = decompose(0.3)
        slope = fit_cancelling_exponent(f, f.n + 1, [0.5, 1.0, 2.0, 4.0])
        assert slope == pytest.approx(1.4, abs=1e-10)

    def test_insufficient_samples(self):
        f = decompose(0.3)
        with pytest.raises(InsufficientSamplesError):
            fit_cancelling_exponent(f, f.n, [1.0, 2.0])
        with pytest.raises(InsufficientSamplesError):
            fit_cancelling_exponent(f, f.n, [1.0, 2.0, 2.0])

    def test_noncritical_channel(self):
        f = decompose(0.3)
        with pytest.raises(ChannelMismatchError):
            fit_cancelling_exponent(f, 5, [0.5, 1.0, 2.0])

    def test_names_the_first_bad_momentum(self):
        # in the order given: a set of momenta with a NaN has no fixed order,
        # since a NaN hashes by its identity, so a fresh NaN could put inf
        # first
        f = decompose(-6.103515625e-05)
        for _ in range(20):
            momenta = [float("nan"), 0.3, 1.2265090042472815, math.inf]
            with pytest.raises(DomainError, match="got nan$"):
                fit_cancelling_exponent(f, f.n + 1, momenta)
