"""Special-function core: closed forms, identities, independent oracles."""

import math
import random
import sys

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abmodes import _kernels_py
from abmodes.errors import DomainError, NumericalFailureError, PoleError
from abmodes.specfun import (
    bessel_j,
    bessel_j_and_prime,
    bessel_j_and_prime_many,
    bessel_j_prime,
    gamma,
)

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

    def test_exact_at_the_integers(self):
        # (n - 1)! is a double up to n = 23, and Gamma returns it
        for n in range(1, 24):
            assert gamma(float(n)) == math.factorial(n - 1), n

    @pytest.mark.parametrize("x", [142.3, 142.5, 165.0, 171.6, -141.3, -150.3])
    def test_large_argument_against_mpmath(self, x):
        # the bound in the specfun docstring for |x| > 140
        with mpmath.workdps(30):
            expected = float(mpmath.gamma(x))
        assert gamma(x) == pytest.approx(expected, rel=2e-15)

    def test_against_mpmath(self):
        # the bound in the specfun docstring: relative error at most 2e-15
        # on [-5, 10]; the second half of the grid lies 1e-12 to 1e-2 from a
        # pole
        rng = random.Random(11)
        xs = [rng.uniform(-5.0, 10.0) for _ in range(1500)]
        xs += [-rng.randrange(6) + rng.choice((-1.0, 1.0)) * 10 ** rng.uniform(-12.0, -2.0)
               for _ in range(500)]
        with mpmath.workdps(30):
            for x in xs:
                if not -5.0 <= x <= 10.0:
                    continue
                expected = float(mpmath.gamma(x))
                assert abs(gamma(x) - expected) <= 2e-15 * abs(expected), x

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

    def test_one_term_series_is_exact(self):
        # where the series is its first term, (x/2)^nu / Gamma(nu + 1), an
        # exact Gamma makes J_0 = 1 and J_1 = x/2 exact
        assert bessel_j(0.0, 5e-324) == 1.0
        assert bessel_j(1.0, 2e-10) == 1e-10

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

    def test_large_arguments_against_mpmath(self):
        # the bound in the specfun docstring beyond x = 100, for J_nu and
        # J'_nu alike: 5e-15 of the envelope out to x = 1e300, where Hankel's
        # phase x - (nu/2 + 1/4) pi taken in doubles would lose its second
        # term to the ulp of x (from x = 1e17 on, every order gave the same
        # double, J_2(1e17) = J_{-1.7}(1e17))
        rng = random.Random(15)
        points = [(nu, x) for nu in (2.0, -1.7, 0.3, 5.0)
                  for x in (1e3, 1e6, 1e10, 1e15, 3e16, 1e17, 1e20, 1e100, 1e300)]
        points += [(rng.uniform(-5.0, 5.0), 10 ** rng.uniform(2.0, 300.0)) for _ in range(300)]
        with mpmath.workdps(30):
            for nu, x in points:
                envelope = math.sqrt(2.0 / (math.pi * x))
                j, prime = bessel_j_and_prime(nu, x)
                expected = mpmath.besselj(nu, x)
                assert abs(j - expected) <= 5e-15 * max(abs(expected), envelope), (nu, x)
                expected = mpmath.besselj(nu, x, derivative=1)
                assert abs(prime - expected) <= 5e-15 * max(abs(expected), envelope), (nu, x)

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

    def test_subnormal_half_argument_is_a_numerical_failure(self):
        # below the normal range the halving x/2 rounds coarsely, or to 0,
        # and (x/2)^nu would carry that (24% at nu = -0.95, x = 1.5e-323)
        for nu in (-0.95, -0.3, 0.3, 2.0):
            for x in (5e-324, 1.5e-323, 3e-315, 4.4e-308):
                with pytest.raises(NumericalFailureError):
                    bessel_j(nu, x)
                with pytest.raises(NumericalFailureError):
                    bessel_j_prime(nu, x)
        # J'_0 = -J_1 carries (x/2)^1 too: at x = 1.5e-323 the halving alone
        # puts it 35% off
        for x in (5e-324, 1.5e-323, 3e-315, 4.4e-308):
            with pytest.raises(NumericalFailureError):
                bessel_j_prime(0.0, x)
        # (x/2)^0 = 1 is exact (test_one_term_series_is_exact), and x/2 is
        # normal from x = 2 * min on
        x = 2.0 * sys.float_info.min
        with mpmath.workdps(30):
            ref = mpmath.besselj(-0.95, x)
        assert bessel_j(-0.95, x) == pytest.approx(float(ref), rel=1e-14)

    def test_underflowed_half_argument_gives_nan_in_the_kernel(self):
        # what the compiled twin returns, never a raw ZeroDivisionError
        for nu in (-0.9, -0.5, -1.5):
            assert math.isnan(_kernels_py.bessel_j(nu, 5e-324))

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

    @pytest.mark.parametrize(
        "x_lo, x_hi",
        [
            (12.0, 13.0), (12.0, 400.0), (1e-3, 13.0),  # Hankel's sum, or both
            (1e-3, 12.0), (4.72, 12.0), (11.0, 12.5), (12.0 - 1e-12, 12.0 + 1e-12),
            (0.0, 1.0), (0.0, 4.72), (0.0, 12.0), (0.0, 30.0),
        ],
    )
    def test_panel_expansion_matches_single_calls(self, x_lo, x_hi):
        # an order's expansion, built once for a panel's arguments, gives each
        # argument the double of a single call, which builds no divisor table:
        # the series divides by the table's k (nu + k), and Hankel's sum stops
        # at every argument's own cut, not at one fixed for the range
        rng = random.Random(21)
        orders = [0.0, 0.5, 1.0, 1.5, 2.5, 6.0] + [rng.uniform(-0.999, 6.0) for _ in range(30)]
        orders += [-1.0 + 1e-12, 1e-9, -1e-9, -1.0, -2.0, -3.0, -4.0, -5.0]
        for nu in orders:
            if x_lo == 0.0 and nu < 0.0 and nu != math.floor(nu):
                continue  # J_nu(0) is infinite
            expansion = _kernels_py._expansion(nu, x_lo, x_hi)
            divisors, hankel = expansion[3], expansion[4]
            assert bool(divisors) == (x_lo <= 12.0) and (hankel is None) == (x_hi <= 12.0)
            xs = [x_lo, x_hi] + [rng.uniform(x_lo, x_hi) for _ in range(60)]
            for x in xs:
                assert _kernels_py._expansion(nu, x, x)[3] == ()
                assert _kernels_py._j(expansion, x) == _kernels_py.bessel_j(nu, x), (nu, x)

    def test_divisor_table_covers_the_series(self):
        # at x <= 12 the series stops inside an expansion's divisor table for
        # every order the kernels accept, |nu| <= 6 (negative integers
        # reflected): a NaN past the table's end is never read, so the
        # divisors computed inline run only as a guard
        orders = [i / 100.0 for i in range(-600, 601)]
        orders += [-6.0 + 1e-12, -5.0 - 1e-9, -2.0 + 1e-12, -1.0 + 1e-12, 1e-9, -1e-9]
        xs = [i / 20.0 for i in range(1, 241)]
        for nu in orders:
            _, order, g, divisors, _ = _kernels_py._expansion(nu, 0.0, 12.0)
            probe = divisors + [math.nan]
            for x in xs:
                assert not math.isnan(_kernels_py._series(order, x, g, probe)), (nu, x)

    def test_series_asymptotic_crossover_agreement(self):
        # both evaluation paths agree across the switch at x = 12
        def both(nu, x):
            series = _kernels_py._series(nu, x, math.gamma(nu + 1.0))
            phase = (0.5 * nu + 0.25) * math.pi
            hankel = _kernels_py._hankel_coefficients(nu, x, x), math.cos(phase), math.sin(phase)
            return series, _kernels_py._asymptotic(x, hankel)

        for nu in [0.1, 0.9, 1.5, 1.9, -0.7, -1.9]:
            for i in range(81):
                x = 10.0 + 4.0 * i / 80.0
                series, asymptotic = both(nu, x)
                assert abs(series - asymptotic) <= 1e-10
        for nu in [2.5, 3.5, 4.5, 5.05, -4.3]:
            for i in range(61):
                x = 11.0 + 3.0 * i / 60.0
                series, asymptotic = both(nu, x)
                assert abs(series - asymptotic) <= 1e-10


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

    def test_is_the_second_element_of_the_pair(self):
        # one recurrence, J'_nu = J_{nu-1} - (nu/x) J_nu, behind both names
        rng = random.Random(5)
        for _ in range(500):
            nu, x = rng.uniform(-5.0, 5.0), 1e-3 * 1e5 ** rng.random()
            assert bessel_j_and_prime(nu, x) == (bessel_j(nu, x), bessel_j_prime(nu, x))

    @pytest.mark.parametrize(
        "nu, x",
        [(0.3, 0.0), (0.3, -2.0), (5.5, 1.0), (-5.5, 1.0), (float("nan"), 1.0),
         (0.3, float("inf")), (0.3, float("nan")), (0.0, 5e-324), (0.0, 1.5e-323),
         (-0.5, 3e-315), (1.0, 4.4e-308)],
    )
    def test_pair_refuses_what_bessel_j_prime_refuses(self, nu, x):
        errors = []
        for f in (bessel_j_and_prime, bessel_j_prime):
            with pytest.raises((DomainError, NumericalFailureError)) as info:
                f(nu, x)
            errors.append(type(info.value))
        assert errors[0] is errors[1]

    def test_batch_is_the_pair_at_each_argument(self):
        # one expansion per order for all the arguments gives the doubles of
        # one call per argument; ranges below, across and above x = 12
        rng = random.Random(6)
        for i in range(500):
            nu = rng.choice([rng.uniform(-5.0, 5.0), float(rng.randint(-5, 5))])
            lo = (1e-3, 8.0, 12.5)[i % 3] * 10 ** rng.uniform(0.0, 1.0)
            xs = [lo * 10 ** rng.uniform(0.0, 1.5) for _ in range(rng.randint(1, 12))]
            pairs = [bessel_j_and_prime(nu, x) for x in xs]
            assert bessel_j_and_prime_many(nu, xs) == tuple(zip(*pairs)), (nu, xs)

    @pytest.mark.parametrize(
        "nu, x",
        [(0.3, 0.0), (0.3, -2.0), (5.5, 1.0), (-5.5, 1.0), (float("nan"), 1.0),
         (0.3, float("inf")), (0.3, float("nan")), (0.0, 5e-324), (0.0, 1.5e-323),
         (-0.5, 3e-315), (1.0, 4.4e-308), (-0.9, 1e-300)],
    )
    def test_batch_refuses_what_the_pair_refuses(self, nu, x):
        # the same error and message as the pair at the one argument it
        # refuses, wherever that argument stands among good ones
        with pytest.raises((DomainError, NumericalFailureError)) as info:
            bessel_j_and_prime(nu, x)
        expected = type(info.value), str(info.value).replace(
            "bessel_j_and_prime", "bessel_j_and_prime_many", 1)
        for xs in ([x], [x, 1.0, 2.0], [1.0, x, 2.0], [1.0, 2.0, x]):
            with pytest.raises((DomainError, NumericalFailureError)) as info:
                bessel_j_and_prime_many(nu, xs)
            assert type(info.value) is expected[0], xs
            if expected[0] is DomainError or "overflows" not in expected[1]:
                assert str(info.value) == expected[1], xs

    def test_batch_refuses_no_arguments(self):
        with pytest.raises(DomainError):
            bessel_j_and_prime_many(0.3, [])

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            bessel_j_prime(0.3, 0.0)
        with pytest.raises(DomainError):
            bessel_j_prime(0.3, -2.0)
        with pytest.raises(DomainError):
            bessel_j_prime(5.5, 1.0)
        with pytest.raises(DomainError):
            bessel_j_prime(0.3, float("inf"))
