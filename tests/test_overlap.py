"""Overlap integrals: closed forms, windowed quadrature, finite-part extraction,
cancellation mechanics, and exponent recovery."""

import math
import random

import mpmath
import numpy as np
import pytest

import abmodes.overlap
from abmodes._quad import PanelBudget
from abmodes.errors import (
    ChannelMismatchError,
    ConvergenceError,
    DomainError,
    EqualMomentaError,
    InsufficientSamplesError,
)
from abmodes.flux import decompose
from abmodes.modes import make_schrodinger_mode
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
from abmodes.specfun import bessel_j


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
    """int_0^L J_nu(p r) J_mu(pp r) r dr by mpmath, split at the quasi-periods."""
    with mpmath.workdps(30):
        step = math.pi / max(p, pp)
        points = [0.0] + [k * step for k in range(1, int(L / step) + 1) if k * step < L] + [L]
        return float(mpmath.quad(
            lambda r: mpmath.besselj(nu, p * r) * mpmath.besselj(mu, pp * r) * r, points
        ))


class TestClosedForms:
    def test_same_order(self):
        r = closed_form_same(0.5, 1.0, 2.0)
        assert (r.delta_coeff, r.finite_part, r.est_error) == (1.0, 0.0, 0.0)
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
        assert r.est_error == 0.0

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
        "args", [(-0.6, -0.6, 1.0, 1.7, 10.0), (-0.5, -0.7, 1.3, 0.4, 12.0)]
    )
    def test_singular_endpoint_against_mpmath(self, budgets, args):
        # r^(nu + mu + 1) at r = 0: the first cells bisect (88 and 87 panels)
        value = windowed_overlap(*args)
        (budget,) = budgets
        assert budget.used > budget.cells
        assert abs(value - mp_windowed(*args)) <= 1e-12

    def test_budget_exhaustion(self):
        with pytest.raises(ConvergenceError):
            windowed_overlap(0.3, -0.3, 1.0, 2.0, 5000.0, panel_budget=1000)

    def test_domain(self):
        with pytest.raises(DomainError):
            windowed_overlap(-1.3, 0.3, 1.0, 2.0, 10.0)
        with pytest.raises(DomainError):
            windowed_overlap(0.3, 0.3, 1.0, 2.0, 0.0)


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

    @pytest.mark.parametrize("ratio", [1.3, 1.05, 1.02, 1.001, 1.0001])
    def test_cost_flat_near_the_diagonal(self, budgets, ratio):
        # one G10/K21 panel per quasi-period, 8 in all, at every ratio,
        # whatever the slow period 2 pi/|p - p'|
        value, _ = finite_part_estimate(0.3, -0.3, 1.0, ratio, panel_budget=1000)
        cf = closed_form_cross(0.3, 1.0, ratio).finite_part
        assert abs(value - cf) <= 1e-10 * abs(cf)
        (budget,) = budgets
        assert budget.used == budget.cells == 8

    def test_needs_equal_squared_orders(self):
        for nu, mu in ((0.3, 0.2), (0.3, -0.4), (0.5, 0.0)):
            with pytest.raises(DomainError):
                finite_part_estimate(nu, mu, 1.0, 2.0)
            with pytest.raises(DomainError):
                fit_delta_coefficient(nu, mu, 1.0, 2.0)


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
        assert abs(a - math.cos(0.3 * math.pi)) <= 1e-6

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
