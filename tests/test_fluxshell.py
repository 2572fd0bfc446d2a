"""Flux-shell model: matching, small-radius limit, resonance, g dictionary."""

import contextlib
import io
import math
import random
from dataclasses import replace
from functools import partial

import mpmath
import pytest

from abmodes import cli, fluxshell, specfun
from abmodes.errors import (
    AbmodesError,
    ChannelMismatchError,
    DegenerateDenominatorError,
    DegenerateError,
    DomainError,
    InfiniteParameterError,
    NoBracketError,
    ResonantError,
    ZeroAlphaError,
)
from abmodes.flux import decompose
from abmodes.fluxshell import (
    FluxShellProblem,
    g_asymptotic,
    g_from_alpha,
    limit_ratio,
    matching_ratio,
    piecewise_solution,
    resonance_defect,
    solve_g,
)
from abmodes.sae import Channel, ExtensionParameter
from abmodes.specfun import bessel_j


def problem(l, phi, g, p, rho0):
    return FluxShellProblem(rho0=rho0, g=g, l=l, flux=decompose(phi), p=p)


def one_sided_derivative(fn, x, h):
    # second-order one-sided stencil, two Richardson levels (kills h^2 and h^3)
    def d(hh):
        return (-3.0 * fn(x) + 4.0 * fn(x + hh) - fn(x + 2.0 * hh)) / (2.0 * hh)

    def d2(hh):
        return (4.0 * d(hh / 2.0) - d(hh)) / 3.0

    return (8.0 * d2(h / 2.0) - d2(h)) / 7.0


class TestPiecewiseSolution:
    def test_continuity(self):
        prob = problem(1, 0.3, 0.5, 1.5, 0.8)
        b = matching_ratio(prob)
        ev = piecewise_solution(prob, 1.0, b)
        eps = 1e-9
        assert ev(prob.rho0 - eps) == pytest.approx(ev(prob.rho0 + eps), abs=1e-7)

    def test_derivative_jump(self):
        rng = random.Random(11)
        for _ in range(20):
            phi = rng.choice([0.3, 0.7, 1.4, -0.6])
            l = rng.randint(-2, 3)
            g = rng.uniform(-1.5, 1.5)
            p = rng.uniform(0.5, 2.5)
            rho0 = rng.uniform(0.2, 1.2)
            prob = problem(l, phi, g, p, rho0)
            try:
                b = matching_ratio(prob)
            except Exception:
                continue
            ev = piecewise_solution(prob, 1.0, b)
            h = 1e-3 / p
            d_out = one_sided_derivative(ev, rho0, h)
            d_in = one_sided_derivative(lambda r: ev(2.0 * rho0 - r), rho0, h)
            jump = d_out + d_in  # inner derivative enters with reversed axis
            expected = -g * prob.flux.phi * ev(rho0) / rho0
            assert jump == pytest.approx(expected, abs=1e-8 * max(1.0, abs(expected)))

    def test_no_shell_no_jump(self):
        # g = 0, b = 0, nearly integer-free flux: interior and exterior match J_0
        prob = problem(0, 1e-6, 0.0, 1.0, 0.5)
        ev = piecewise_solution(prob, 1.0, 0.0)
        for rho in (0.1, 0.49, 0.51, 2.0):
            assert ev(rho) == pytest.approx(bessel_j(0.0, prob.p * rho), abs=1e-4)

    def test_interior_node_degenerate(self):
        # J_0 zero at the shell: continuity cannot fix the interior amplitude
        j0_first_zero = 2.404825557695773
        prob = problem(0, 0.3, 0.0, 1.0, j0_first_zero)
        with pytest.raises(DegenerateError):
            piecewise_solution(prob, 1.0, 0.1)

    @pytest.mark.parametrize(
        "l, phi, g, p, rho0",
        [(2, 0.3, 0.5, 1.0, 1e-7), (1, 0.3, 0.5, 1.0, 1e-13),
         (2, 1.4, -1.2, 2.0, 5e-8), (1, -0.6, 1.1, 0.5, 2e-13)],
    )
    def test_small_shell_is_no_node(self, l, phi, g, p, rho0):
        # J_2(1e-7) = 1.25e-15 and J_1(1e-13) = 5e-14 are small but no node
        # (J_l has no positive zero below 2.40): continuity and the
        # derivative jump hold, on a stencil scaled to the shell
        prob = problem(l, phi, g, p, rho0)
        ev = piecewise_solution(prob, 1.0, matching_ratio(prob))
        eps = 1e-9 * rho0
        assert ev(rho0 - eps) == pytest.approx(ev(rho0 + eps), rel=1e-7)
        h = 1e-3 * rho0
        jump = one_sided_derivative(ev, rho0, h) + one_sided_derivative(
            lambda r: ev(2.0 * rho0 - r), rho0, h
        )
        assert jump == pytest.approx(-g * prob.flux.phi * ev(rho0) / rho0, rel=1e-8)

    def test_underflowed_interior_is_a_node(self):
        # J_5(1e-70) underflows to 0
        prob = problem(5, 4.7, 0.5, 1.0, 1e-70)
        with pytest.raises(DegenerateError):
            piecewise_solution(prob, 1.0, 0.1)

    def test_zero_amplitude_is_skipped(self):
        # b = 0: the exterior is the pure regular J_5.5, and J_{-5.5}(1e-60),
        # which overflows a double, is never formed, as in modes.evaluate
        prob = problem(0, 5.5, 0.0, 1.0, 1e-60)
        ev = piecewise_solution(prob, 1.0, 0.0)
        assert ev(5e-61) == 0.0
        assert ev(2e-60) == 0.0
        assert ev(1.0) == bessel_j(5.5, 1.0) == 7.385311938594807e-05

    def test_zero_solution_rejected(self):
        prob = problem(0, 0.3, 0.0, 1.0, 0.5)
        with pytest.raises(DegenerateError):
            piecewise_solution(prob, 0.0, 0.0)


class TestMatchingRatio:
    def test_agrees_with_limit_at_small_radius(self):
        prob = problem(1, 0.3, 0.0, 1.0, 1e-2)
        assert matching_ratio(prob) == pytest.approx(limit_ratio(prob), rel=1e-2)

    def test_small_radius_power_law(self):
        # l = 0, g = 0: ratio scales like (p rho0 / 2)^{2 delta}
        r1 = matching_ratio(problem(0, 0.3, 0.0, 1.0, 1e-2))
        r2 = matching_ratio(problem(0, 0.3, 0.0, 1.0, 1e-3))
        measured = math.log(r1 / r2) / math.log(10.0)
        assert measured == pytest.approx(0.6, abs=1e-3)

    def test_underflowed_pole(self):
        # no pole at large x: of the denominator only the g term,
        # phi/x J_l J_{-nu} (about 1e-376 at x = 1e250), underflows, while
        # J'_{-nu} J_l and J_{-nu} J'_l (about 1e-250) stay normal.  The
        # NumericalPoleError once raised there came from Hankel's phase lost
        # to the ulp of x, which made both orders' values equal
        for rho0 in (1e15, 1e16, 3e16, 1e17, 1e250):
            ref = mp_matching_ratio(1, 0.3, 0.5, 1.0, rho0)
            assert abs(matching_ratio(problem(1, 0.3, 0.5, 1.0, rho0)) - ref) <= 1e-13 * abs(ref)

    def test_vanishes_as_radius_shrinks(self):
        for l in (-1, 0, 1, 2):
            assert abs(matching_ratio(problem(l, 0.3, 0.0, 1.0, 1e-6))) < 1e-3

    @pytest.mark.parametrize("l, order", [(-5, 5.3), (6, 6.0), (-6, 6.3)])
    def test_orders_past_the_cap_of_j_prime(self, l, order):
        # the matching takes J' of orders |l| and |l - phi|, capped at
        # MAX_ORDER = 5; the refusal names the channel, not an inner call
        prob = problem(l, 0.3, 0.5, 1.0, 0.1)
        for call in (lambda: matching_ratio(prob), lambda: solve_g(prob, 0.0)):
            with pytest.raises(DomainError) as info:
                call()
            message = str(info.value)
            assert "bessel_j" not in message
            assert f"l = {l}, phi = 0.3" in message
            assert f"order {order!r}" in message and "up to 5.0" in message
        limit_ratio(prob)
        if max(abs(l), abs(l - 0.3)) <= 6.0:
            piecewise_solution(prob, 1.0, 0.0)(0.5)

    def test_order_five_still_matches(self):
        assert math.isfinite(matching_ratio(problem(5, 0.3, 0.5, 1.0, 0.1)))
        assert math.isfinite(matching_ratio(problem(-4, 0.3, 0.5, 1.0, 0.1)))


def mp_matching_ratio(l, phi, g, p, rho0):
    """b/a from the matching conditions, with mpmath's J and J' at 40 digits."""
    with mpmath.workdps(40):
        x = mpmath.mpf(p) * mpmath.mpf(rho0)
        nu, order_l = abs(l - mpmath.mpf(phi)), abs(l)
        jl = mpmath.besselj(order_l, x)
        jl_shifted = mpmath.besselj(order_l, x, derivative=1) - g * mpmath.mpf(phi) / x * jl

        def term(order):
            j_prime = mpmath.besselj(order, x, derivative=1)
            return j_prime * jl - mpmath.besselj(order, x) * jl_shifted

        return -term(nu) / term(-nu)


# off the resonance, with nu = |l - phi| below and above 1
@pytest.mark.parametrize(
    "l,phi,g",
    [(0, 0.3, 0.5), (1, 0.3, -1.0), (1, 1.6, 0.7), (-1, 0.4, 2.0), (2, 1.3, 0.2),
     (0, 0.7, -0.5)],
)
def test_shell_ratios_against_mpmath(l, phi, g):
    for rho0 in (1e-4, 1e-3, 0.3):
        ref = mp_matching_ratio(l, phi, g, 1.0, rho0)
        assert abs(matching_ratio(problem(l, phi, g, 1.0, rho0)) - ref) <= 1e-13 * abs(ref)
    # the leading term of the limit, with its Gamma(1-nu)/Gamma(1+nu) sign:
    # the opposite sign would be off by a relative 2
    ref = mp_matching_ratio(l, phi, g, 1.0, 1e-4)
    assert abs(limit_ratio(problem(l, phi, g, 1.0, 1e-4)) - ref) <= 1e-6 * abs(ref)


class TestLimitRatio:
    def test_frozen_value_l0(self):
        # Gamma(1-d)/Gamma(1+d) * (x/2)^{2d} at d = 0.3, x = 1e-2
        prob = problem(0, 0.3, 0.0, 1.0, 1e-2)
        assert limit_ratio(prob) == pytest.approx(0.060208101224289, rel=1e-10)
        # independent substitution through the stdlib gamma
        ref = (
            math.gamma(1.0 - 0.3)
            / math.gamma(1.0 + 0.3)
            * (0.005) ** 0.6
        )
        assert limit_ratio(prob) == pytest.approx(ref, rel=1e-12)

    def test_frozen_prefactor_l1(self):
        prob = problem(1, 0.3, 0.0, 1.0, 1e-2)
        expected = -0.5810053213843478 * (0.005) ** 1.4
        assert limit_ratio(prob) == pytest.approx(expected, rel=1e-10)

    def test_resonant_error(self):
        with pytest.raises(ResonantError):
            limit_ratio(problem(0, 0.3, 1.0, 1.0, 1e-2))
        with pytest.raises(ResonantError):
            limit_ratio(problem(1, 0.5, 3.0, 1.0, 1e-2))


class TestResonanceDefect:
    def test_values(self):
        f3 = decompose(0.3)
        assert resonance_defect(0, f3, 1.0) == pytest.approx(0.0, abs=1e-15)
        f5 = decompose(0.5)
        assert resonance_defect(1, f5, 3.0) == pytest.approx(0.0, abs=1e-15)
        assert resonance_defect(1, f5, 1.0) == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("g", [math.nan, math.inf, -math.inf])
    def test_non_finite_g_rejected(self, g):
        # as FluxShellProblem refuses it; NaN once returned nan
        with pytest.raises(DomainError):
            resonance_defect(0, decompose(0.3), g)


class TestGDictionary:
    def test_special_value_channel_n(self):
        ep = ExtensionParameter.finite(Channel.SCHRODINGER_N, 0.0)
        for delta in (0.2, 0.4, 0.8):
            for rho0 in (1e-3, 1e-1):
                assert g_from_alpha(ep, decompose(delta), rho0) == -1.0

    def test_special_value_channel_n_plus_1(self):
        ep = ExtensionParameter.finite(Channel.SCHRODINGER_N_PLUS_1, 0.0)
        for n in (0, 1, 3):
            for delta in (0.25, 0.6):
                assert g_from_alpha(ep, decompose(n + delta), 1e-2) == 1.0

    def test_generic_value(self):
        ep = ExtensionParameter.finite(Channel.SCHRODINGER_N, 1.0)
        g = g_from_alpha(ep, decompose(1.5), 0.2)
        assert g == pytest.approx(8.0 / 9.0, rel=1e-12)

    def test_round_trip_through_limit_ratio(self):
        # limit_ratio at g_from_alpha reproduces alpha (p/M)^{2 nu}
        p = 1.3
        for delta in (0.3, 0.7):
            for n in (0, 1):
                f = decompose(n + delta)
                for alpha in (0.1, 1.0, 10.0):
                    ep = ExtensionParameter.finite(Channel.SCHRODINGER_N, alpha)
                    g = g_from_alpha(ep, f, 1e-2)
                    prob = FluxShellProblem(rho0=1e-2, g=g, l=n, flux=f, p=p)
                    assert limit_ratio(prob) == pytest.approx(
                        alpha * p ** (2.0 * delta), rel=1e-8
                    )
                    ep1 = ExtensionParameter.finite(Channel.SCHRODINGER_N_PLUS_1, alpha)
                    g1 = g_from_alpha(ep1, f, 1e-2)
                    prob1 = FluxShellProblem(rho0=1e-2, g=g1, l=n + 1, flux=f, p=p)
                    assert limit_ratio(prob1) == pytest.approx(
                        alpha * p ** (2.0 * (1.0 - delta)), rel=1e-8
                    )

    def test_resonance_emergence(self):
        # nonzero alpha drives the defect to zero with the radius
        ep = ExtensionParameter.finite(Channel.SCHRODINGER_N, 1.0)
        for n in (0, 1):
            f = decompose(n + 0.5)
            defects = []
            for rho0 in (1e-1, 1e-2, 1e-3):
                g = g_from_alpha(ep, f, rho0)
                defects.append(abs(resonance_defect(n, f, g)))
            assert defects[0] > defects[1] > defects[2]
            assert defects[2] <= 1e-2

    def test_degenerate_denominator_at_negative_alpha(self):
        # denominator vanishes at alpha = Gamma(-d) u / Gamma(d) < 0
        delta, mrho0 = 0.5, 0.2
        alpha_bad = math.gamma(-delta) * (0.5 * mrho0) ** (2.0 * delta) / math.gamma(delta)
        assert alpha_bad < 0.0
        ep = ExtensionParameter.finite(Channel.SCHRODINGER_N, alpha_bad)
        with pytest.raises(DegenerateDenominatorError):
            g_from_alpha(ep, decompose(delta), mrho0)

    def test_infinite_parameter_rejected(self):
        ep = ExtensionParameter.infinite(Channel.SCHRODINGER_N)
        with pytest.raises(InfiniteParameterError):
            g_from_alpha(ep, decompose(0.3), 0.1)
        with pytest.raises(InfiniteParameterError):
            g_asymptotic(ep, decompose(0.3), 0.1)

    @pytest.mark.parametrize("form", [g_from_alpha, g_asymptotic])
    def test_dirac_channel_is_a_channel_mismatch(self, form):
        # a finite parameter in the wrong channel, refused as schrodinger_ratio
        # and make_extended_mode refuse it; the infinite one stays an
        # InfiniteParameterError
        with pytest.raises(ChannelMismatchError):
            form(ExtensionParameter.finite(Channel.DIRAC_N, 1.0), decompose(0.3), 0.1)
        with pytest.raises(InfiniteParameterError):
            form(ExtensionParameter.infinite(Channel.DIRAC_N), decompose(0.3), 0.1)


class TestGAsymptotic:
    def test_printed_form_channel_n(self):
        ep = ExtensionParameter.finite(Channel.SCHRODINGER_N, 1.0)
        assert g_asymptotic(ep, decompose(1.5), 0.2) == pytest.approx(
            1.0 - 1.0 / 15.0, rel=1e-12
        )

    def test_large_alpha_limits(self):
        f = decompose(1.5)
        big = ExtensionParameter.finite(Channel.SCHRODINGER_N, 1e9)
        assert g_asymptotic(big, f, 0.2) == pytest.approx(1.0, abs=1e-9)
        big1 = ExtensionParameter.finite(Channel.SCHRODINGER_N_PLUS_1, 1e9)
        assert g_asymptotic(big1, f, 0.2) == pytest.approx(-1.0, abs=1e-9)

    def test_zero_alpha_rejected(self):
        ep = ExtensionParameter.finite(Channel.SCHRODINGER_N, 0.0)
        with pytest.raises(ZeroAlphaError):
            g_asymptotic(ep, decompose(0.3), 0.1)


class TestSolveG:
    def test_round_trip(self):
        cases = [
            (1, 0.3, 2.0, 0.5, 0.7),
            # the pole (g = 1.198) lies in the bracket between g_lo and the root
            (0, 0.3, 1.0, 0.5, 2.0),
            # root and pole only 0.2 apart
            (0, 0.3, 1.0, 0.5, 1.0),
        ]
        for l, phi, p, rho0, g in cases:
            prob = problem(l, phi, 0.0, p, rho0)
            target = matching_ratio(problem(l, phi, g, p, rho0))
            assert solve_g(prob, target) == pytest.approx(g, abs=1e-8)

    def test_round_trip_negative_g(self):
        prob = problem(0, 0.3, 0.0, 1.0, 1e-2)
        target = matching_ratio(problem(0, 0.3, -1.3, 1.0, 1e-2))
        assert solve_g(prob, target) == pytest.approx(-1.3, abs=1e-8)

    def test_zero_target_near_numerator_root(self):
        # g = 0 is non-resonant here; the ratio root sits at the numerator zero
        prob = problem(1, 0.3, 0.0, 1.0, 1e-2)
        g = solve_g(prob, 0.0)
        res = matching_ratio(problem(1, 0.3, g, 1.0, 1e-2))
        assert abs(res) <= 1e-10

    def test_no_bracket(self):
        prob = problem(1, 0.3, 0.0, 1.0, 1e-2)
        with pytest.raises(NoBracketError):
            solve_g(prob, 5.0, g_lo=0.0, g_hi=1.0)
        # the ratio's g -> infinity limit -J_nu/J_{-nu} is reached by no finite g
        limit = -bessel_j(0.3, 0.5) / bessel_j(-0.3, 0.5)
        with pytest.raises(NoBracketError):
            solve_g(problem(0, 0.3, 0.0, 1.0, 0.5), limit)

    def test_condition_number(self):
        # p rho0 = 2.4048 sits at the first zero of J_0, where the ratio is
        # flat in g.  The target is the matching ratio at g_true rounded to a
        # double, and that rounding alone moves g by about kappa 2^-52
        prob = problem(0, 0.8218819058363875, 0.0, 2.7008226696467954, 0.8904075239160397)
        target, g_true = 0.9266514189919028, -1.2106347849853307
        kappa = fluxshell._solve_g_condition(prob, target)
        assert 1e10 < kappa < 1e12
        g = solve_g(prob, target, -2.202366242401722, 0.7196060969957625)
        assert 1e-7 < abs(g - g_true) / abs(g_true) <= kappa * 2.0**-52
        # an ordinary shell, against a central difference of the inverse
        prob = problem(1, 0.3, 0.0, 2.0, 0.5)
        target, h = 0.1, 1e-6
        kappa = fluxshell._solve_g_condition(prob, target)
        g = solve_g(prob, target)
        slope = (solve_g(prob, target * (1 + h)) - solve_g(prob, target * (1 - h))) / (2 * h)
        assert kappa < 10.0
        assert kappa == pytest.approx(abs(slope / g), rel=1e-8)
        # at g = 0 the relative error of g has no bound
        target = matching_ratio(problem(1, 0.3, 0.0, 2.0, 0.5))
        assert solve_g(prob, target) == 0.0
        assert fluxshell._solve_g_condition(prob, target) == math.inf

    def test_bad_bracket(self):
        prob = problem(1, 0.3, 0.0, 1.0, 1e-2)
        with pytest.raises(DomainError):
            solve_g(prob, 0.0, g_lo=1.0, g_hi=-1.0)
        for target, g_lo, g_hi in ((math.nan, -1.0, 1.0), (0.0, math.nan, 1.0),
                                   (0.0, -1.0, math.inf), (math.inf, -1.0, 1.0)):
            with pytest.raises(DomainError):
                solve_g(prob, target, g_lo=g_lo, g_hi=g_hi)


class TestShellMemo:
    """A shell's six Bessel values are computed once and reused along g."""

    @staticmethod
    def outcome(call):
        try:
            return repr(call())
        except AbmodesError as exc:
            return type(exc).__name__, str(exc)

    @pytest.fixture
    def kernel_calls(self, monkeypatch):
        """Orders of the Bessel kernel calls made while the test runs."""
        calls = []
        kernel = specfun.bessel_kernel

        def counting(nu, x):
            calls.append(nu)
            return kernel(nu, x)

        monkeypatch.setattr(specfun, "bessel_kernel", counting)
        return calls

    def test_a_shell_costs_six_kernel_calls_once(self, kernel_calls):
        fluxshell._shell_pairs.cache_clear()
        prob = problem(1, 0.3, 0.5, 1.5, 0.8)
        target = matching_ratio(prob)
        # J and J' of |l|, nu and -nu: two kernel calls a pair
        assert len(kernel_calls) == 6
        del kernel_calls[:]
        matching_ratio(replace(prob, g=-1.3))
        assert solve_g(replace(prob, g=0.0), target) == pytest.approx(0.5, abs=1e-12)
        assert kernel_calls == []

    def test_each_cli_run_starts_with_an_empty_memo(self, kernel_calls):
        # a command costs the same whatever ran before it in the process
        argv = ["fluxshell", "--l", "1", "--phi", "0.3", "--g", "0.5", "--p", "1.5", "--rho0", "0.8"]
        counts = []
        for _ in range(2):
            del kernel_calls[:]
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.run(argv) == 0
            counts.append(len(kernel_calls))
        assert counts[0] == counts[1] >= 6

    def test_same_doubles_as_a_fresh_evaluation(self, monkeypatch):
        # shells in scan order, each swept along g and then inverted, with a
        # warm memo and with every call computing its values anew
        rng = random.Random(30)
        calls = []
        for _ in range(60):
            l, phi = rng.randint(-4, 4), rng.uniform(-2.5, 2.5)
            p, rho0 = rng.uniform(0.05, 3.0), 10.0 ** rng.uniform(-4.0, 1.3)
            for g in [rng.uniform(-4.0, 4.0) for _ in range(5)]:
                calls.append(partial(matching_ratio, problem(l, phi, g, p, rho0)))
            calls.append(partial(solve_g, problem(l, phi, 0.0, p, rho0), rng.uniform(-2.0, 2.0)))
        fluxshell._shell_pairs.cache_clear()
        memo = [self.outcome(call) for call in calls]
        assert fluxshell._shell_pairs.cache_info().hits > 0
        monkeypatch.setattr(fluxshell, "_shell_pairs", fluxshell._shell_pairs.__wrapped__)
        assert memo == [self.outcome(call) for call in calls]

    @pytest.mark.parametrize("inner, hits", [(200, 200), (300, 0)])
    def test_scan_past_the_memo_keeps_its_bytes(self, monkeypatch, inner, hits):
        # the inner grid moves the shell: at 300 shells the memo evicts each
        # one before the second g row comes back to it
        argv = ["scan", "fluxshell", "--grid", "g=-0.7:1.9:2", "--grid", f"p=0.1:4:{inner}",
                "--l", "1", "--phi", "0.3", "--rho0", "0.7"]

        def scan():
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                assert cli.run(argv) == 0
            return out.getvalue()

        fluxshell._shell_pairs.cache_clear()
        memo = scan()
        assert fluxshell._shell_pairs.cache_info().hits == hits
        monkeypatch.setattr(fluxshell, "_shell_pairs", fluxshell._shell_pairs.__wrapped__)
        assert memo == scan()
