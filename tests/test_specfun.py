"""Special-function core: closed forms, identities, independent oracles."""

import math
import random

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abmodes import _kernels_py
from abmodes.errors import DomainError, PoleError
from abmodes.specfun import bessel_j, bessel_j_prime, gamma

SQRT_PI = math.sqrt(math.pi)


def log_grid(lo, hi, n):
    return [lo * (hi / lo) ** (i / (n - 1)) for i in range(n)]


class TestGamma:
    @pytest.mark.parametrize(
        "x,expected",
        [
            (0.5, SQRT_PI),
            (-0.5, -2.0 * SQRT_PI),
            (-1.5, 4.0 * SQRT_PI / 3.0),
            (1.0, 1.0),
            (2.0, 1.0),
            (4.0, 6.0),
            (7.0, 720.0),
        ],
    )
    def test_closed_forms(self, x, expected):
        assert gamma(x) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("x", [0.0, -1.0, -2.0, -7.0])
    def test_poles(self, x):
        with pytest.raises(PoleError):
            gamma(x)

    @pytest.mark.parametrize("x", [float("nan"), float("inf"), 200.0])
    def test_domain(self, x):
        with pytest.raises(DomainError):
            gamma(x)

    @pytest.mark.parametrize("x", [142.3, 142.5, 165.0, 171.6, -141.3, -150.3])
    def test_large_argument_against_mpmath(self, x):
        # beyond |x| = 142 the kernels overflow and gamma recurs into their range
        with mpmath.workdps(30):
            expected = float(mpmath.gamma(x))
        assert gamma(x) == pytest.approx(expected, rel=2e-13)

    def test_against_mpmath(self):
        # the bound in the specfun docstring: relative error at most 1e-14
        # on [-5, 10]; the second half of the grid lies 1e-12 to 1e-2 from a
        # pole, where sin(pi x) without the reduction to [-1/2, 1/2] would be
        # taken next to pi (relative error 1e-4 at x = -1.5e-12)
        rng = random.Random(11)
        xs = [rng.uniform(-5.0, 10.0) for _ in range(1500)]
        xs += [-rng.randrange(6) + rng.choice((-1.0, 1.0)) * 10 ** rng.uniform(-12.0, -2.0)
               for _ in range(500)]
        with mpmath.workdps(30):
            for x in xs:
                if not -5.0 <= x <= 10.0:
                    continue
                expected = float(mpmath.gamma(x))
                assert abs(gamma(x) - expected) <= 1e-14 * abs(expected), x

    def test_underflow_keeps_the_sign(self):
        # |Gamma(-200.5)| is below the smallest double; Gamma is negative there
        assert math.copysign(1.0, gamma(-200.5)) == -1.0 and gamma(-200.5) == 0.0
        assert math.copysign(1.0, gamma(-201.5)) == 1.0 and gamma(-201.5) == 0.0

    def test_reflection_identity_grid(self):
        # gamma(x) gamma(1-x) sin(pi x) / pi = 1 on (0, 1)
        for i in range(1, 100):
            x = i / 100.0
            val = gamma(x) * gamma(1.0 - x) * math.sin(math.pi * x) / math.pi
            assert val == pytest.approx(1.0, rel=1e-10)

    @given(st.floats(min_value=0.01, max_value=0.99))
    @settings(max_examples=200, deadline=None)
    def test_reflection_identity_property(self, x):
        val = gamma(x) * gamma(1.0 - x) * math.sin(math.pi * x) / math.pi
        assert val == pytest.approx(1.0, rel=1e-10)

    @given(st.floats(min_value=0.1, max_value=50.0))
    @settings(max_examples=200, deadline=None)
    def test_recurrence_property(self, x):
        assert gamma(x + 1.0) == pytest.approx(x * gamma(x), rel=1e-12)

    def test_negative_axis_against_recurrence(self):
        # gamma(x) = gamma(x+1)/x walked down from the positive axis
        for x in [-0.3, -1.7, -2.2, -3.9, -4.5]:
            ref = gamma(x + 5.0)
            for k in range(5):
                ref /= x + k
            assert gamma(x) == pytest.approx(ref, rel=1e-11)


class TestBesselJ:
    @pytest.mark.parametrize("x", [0.05, 0.5, math.pi / 2, 3.0, math.pi, 11.0, 12.0, 13.0, 25.0, 80.0])
    def test_half_order_closed_forms(self, x):
        amp = math.sqrt(2.0 / (math.pi * x))
        assert abs(bessel_j(0.5, x) - amp * math.sin(x)) <= 1e-12
        assert abs(bessel_j(-0.5, x) - amp * math.cos(x)) <= 1e-12

    def test_spec_values(self):
        assert bessel_j(0.5, math.pi / 2) == pytest.approx(2.0 / math.pi, abs=1e-12)
        assert bessel_j(-0.5, math.pi) == pytest.approx(-math.sqrt(2.0) / math.pi, abs=1e-12)

    def test_series_oracle_with_remainder_bound(self):
        # 30-term ascending series with an explicit geometric tail bound;
        # stdlib math.gamma keeps the oracle independent of our gamma
        nu, x = 0.3, 0.2
        h = x / 2.0
        term = h**nu / math.gamma(nu + 1.0)
        total = term
        for k in range(1, 30):
            term *= -(h * h) / (k * (nu + k))
            total += term
        ratio = (h * h) / (30.0 * (nu + 30.0))
        tail_bound = abs(term) * ratio / (1.0 - ratio)
        assert abs(bessel_j(nu, x) - total) <= tail_bound + 1e-13

    def test_against_mpmath(self):
        # the bound in the specfun docstring, relative to the envelope
        # max(|J|, sqrt(2/(pi x))): 1e-11 for |nu| <= 2 and 3e-11 up to the
        # order cap; the worst points sit at the series/asymptotic switch x = 12
        rng = random.Random(12)
        points = []
        for i in range(2000):
            nu = rng.uniform(-6.0, 6.0)
            if i % 4 == 0:
                x = 10 ** rng.uniform(-3.0, 2.0)
            elif i % 4 == 1:
                x = rng.uniform(11.0, 13.0)
            else:
                x = rng.uniform(1e-3, 100.0)
            points.append((nu, x))
        with mpmath.workdps(30):
            for nu, x in points:
                expected = float(mpmath.besselj(nu, x))
                scale = max(abs(expected), math.sqrt(2.0 / (math.pi * x)))
                bound = 1e-11 if abs(nu) <= 2.0 else 3e-11
                assert abs(bessel_j(nu, x) - expected) <= bound * scale, (nu, x)

    @pytest.mark.parametrize("m,x", [(1, 0.8), (2, 3.7), (3, 14.0)])
    def test_negative_integer_orders(self, m, x):
        assert bessel_j(float(-m), x) == pytest.approx(
            (-1.0) ** m * bessel_j(float(m), x), rel=1e-12, abs=1e-14
        )

    def test_at_zero(self):
        assert bessel_j(0.0, 0.0) == 1.0
        assert bessel_j(0.7, 0.0) == 0.0
        with pytest.raises(DomainError):
            bessel_j(-0.3, 0.0)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            bessel_j(0.3, -1.0)
        with pytest.raises(DomainError):
            bessel_j(6.5, 1.0)
        with pytest.raises(DomainError):
            bessel_j(float("nan"), 1.0)
        with pytest.raises(DomainError):
            bessel_j(0.3, float("inf"))

    def test_small_x_leading_behavior(self):
        for nu in [0.1, 0.5, 0.9, 2.3]:
            x = 1e-6
            scaled = bessel_j(nu, x) * gamma(1.0 + nu) * (2.0 / x) ** nu
            assert scaled == pytest.approx(1.0, abs=1e-5)

    def test_recurrence_identity(self):
        # J_{nu-1} + J_{nu+1} = (2 nu / x) J_nu, relative to the term scale
        for nu in [0.3, 0.7, 1.3, 2.5, -0.4, -1.6]:
            for x in log_grid(0.2, 60.0, 40):
                lhs = bessel_j(nu - 1.0, x) + bessel_j(nu + 1.0, x)
                rhs = 2.0 * nu / x * bessel_j(nu, x)
                scale = max(abs(bessel_j(nu - 1.0, x)), abs(bessel_j(nu + 1.0, x)), abs(rhs))
                if scale < 1e-3 * math.sqrt(2.0 / (math.pi * max(x, 1.0))):
                    continue  # too close to a joint zero for a relative test
                assert abs(lhs - rhs) <= 1e-9 * scale

    def test_wronskian_identity(self):
        # J_nu J'_{-nu} - J'_nu J_{-nu} = -2 sin(nu pi) / (pi x)
        for nu in [0.1, 0.3, 0.5, 0.7, 0.9]:
            for x in log_grid(0.1, 50.0, 50):
                w = (
                    bessel_j(nu, x) * bessel_j_prime(-nu, x)
                    - bessel_j_prime(nu, x) * bessel_j(-nu, x)
                    + 2.0 * math.sin(nu * math.pi) / (math.pi * x)
                )
                assert abs(w) <= 1e-9 * (2.0 / (math.pi * x))

    def test_series_asymptotic_crossover_agreement(self):
        # both evaluation paths agree across the switch at x = 12
        for nu in [0.1, 0.9, 1.5, 1.9, -0.7, -1.9]:
            for i in range(81):
                x = 10.0 + 4.0 * i / 80.0
                d = abs(_kernels_py._series(nu, x) - _kernels_py._asymptotic(nu, x))
                assert d <= 1e-10
        for nu in [2.5, 3.5, 4.5, 5.05, -4.3]:
            for i in range(61):
                x = 11.0 + 3.0 * i / 60.0
                d = abs(_kernels_py._series(nu, x) - _kernels_py._asymptotic(nu, x))
                assert d <= 1e-10


class TestBesselJPrime:
    def test_spec_value(self):
        assert bessel_j_prime(0.5, math.pi / 2) == pytest.approx(
            -2.0 / math.pi**2, abs=1e-12
        )

    @pytest.mark.parametrize("nu,x", [(0.3, 1.0), (-0.5, math.pi), (1.7, 6.0)])
    def test_finite_difference_oracle(self, nu, x):
        # Richardson-extrapolated central differences of bessel_j
        def central(h):
            return (bessel_j(nu, x + h) - bessel_j(nu, x - h)) / (2.0 * h)

        h = 1e-4
        richardson = (4.0 * central(h / 2.0) - central(h)) / 3.0
        assert bessel_j_prime(nu, x) == pytest.approx(richardson, abs=5e-10)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            bessel_j_prime(0.3, 0.0)
        with pytest.raises(DomainError):
            bessel_j_prime(0.3, -2.0)
        with pytest.raises(DomainError):
            bessel_j_prime(5.5, 1.0)
        with pytest.raises(DomainError):
            bessel_j_prime(0.3, float("inf"))
