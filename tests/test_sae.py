"""Extension-parameter conditions, boundary map, extended modes, reference values."""

import json
import math
import random
import sys

import mpmath
import pytest

from conftest import e_plus_sm

from abmodes import cli
from abmodes.errors import (
    ChannelMismatchError,
    DegenerateError,
    DomainError,
    InfiniteParameterError,
    NumericalFailureError,
)
from abmodes.flux import EquationKind, decompose, radial_order
from abmodes.fluxshell import FluxShellProblem, g_asymptotic, g_from_alpha, limit_ratio
from abmodes.modes import DiracKinematics, make_schrodinger_mode
from abmodes.overlap import (
    mode_overlap_finite_part,
    mode_overlap_finite_part_numeric,
)
from abmodes.sae import (
    Channel,
    ExtensionParameter,
    boundary_ratio_from_alpha,
    dirac_ratio,
    make_extended_mode,
    reference_extension_parameters,
    schrodinger_ratio,
)
from abmodes.modes import small_rho_signature


class TestChannel:
    def test_order_is_the_channels_radial_order(self):
        # delta in channel N, 1 - delta in N + 1: |l - phi| at l = channel.l(flux),
        # the same double
        rng = random.Random(24)
        for _ in range(20_000):
            f = decompose(rng.uniform(-5.0, 5.0))
            for channel in (Channel.SCHRODINGER_N, Channel.SCHRODINGER_N_PLUS_1):
                assert channel.order(f) == radial_order(channel.l(f), f), (f.phi, channel)
        assert Channel.DIRAC_N.order(f) == f.delta


class TestSchrodingerRatio:
    def test_zero_alpha(self):
        ep = ExtensionParameter.finite(Channel.SCHRODINGER_N, 0.0)
        assert schrodinger_ratio(ep, decompose(0.3), 2.0, 1.0) == 0.0

    def test_reference_momentum(self):
        ep = ExtensionParameter.finite(Channel.SCHRODINGER_N, 1.0)
        for delta in (0.2, 0.5, 0.8):
            assert schrodinger_ratio(ep, decompose(delta), 1.0, 1.0) == pytest.approx(
                1.0, rel=1e-15
            )

    def test_direct_substitution(self):
        ep = ExtensionParameter.finite(Channel.SCHRODINGER_N, 2.0)
        assert schrodinger_ratio(ep, decompose(0.5), 0.25, 1.0) == pytest.approx(
            0.5, rel=1e-15
        )

    def test_channel_n_plus_1_exponent(self):
        ep = ExtensionParameter.finite(Channel.SCHRODINGER_N_PLUS_1, 1.0)
        f = decompose(0.3)
        assert schrodinger_ratio(ep, f, 2.0, 1.0) == pytest.approx(
            2.0**1.4, rel=1e-14
        )

    def test_infinite_parameter(self):
        ep = ExtensionParameter.infinite(Channel.SCHRODINGER_N)
        with pytest.raises(InfiniteParameterError):
            schrodinger_ratio(ep, decompose(0.3), 1.0, 1.0)

    def test_dirac_channel_rejected(self):
        ep = ExtensionParameter.finite(Channel.DIRAC_N, 1.0)
        with pytest.raises(ChannelMismatchError):
            schrodinger_ratio(ep, decompose(0.3), 1.0, 1.0)

    def test_linear_in_alpha_and_increasing_in_p(self):
        f = decompose(0.3)
        p_grid = [0.5, 1.0, 1.5, 2.0, 3.0]
        for channel in (Channel.SCHRODINGER_N, Channel.SCHRODINGER_N_PLUS_1):
            base = [
                schrodinger_ratio(ExtensionParameter.finite(channel, 1.0), f, p, 1.0)
                for p in p_grid
            ]
            for alpha in (0.5, 2.0, -3.0):
                ep = ExtensionParameter.finite(channel, alpha)
                for p, r0 in zip(p_grid, base):
                    assert schrodinger_ratio(ep, f, p, 1.0) == pytest.approx(
                        alpha * r0, rel=1e-14
                    )
            assert all(b > a for a, b in zip(base, base[1:]))


# two ulps of 1, 4.4e-16
_TWO_ULPS = 2.0 * sys.float_info.epsilon


def _mp_dirac_ratio(kin, delta):
    """M/(E + s M) (p_perp/M)^(2 delta) at alpha = 1, by mpmath at 700 digits."""
    with mpmath.workdps(700):
        m, p_perp, p3, delta = map(mpmath.mpf, (kin.M, kin.p_perp, kin.p3, delta))
        e = mpmath.sqrt(m * m + p_perp * p_perp + p3 * p3)
        return float(m / (e + kin.s * m) * (p_perp / m) ** (2 * delta))


class TestDiracRatio:
    def test_explicit_values(self):
        f = decompose(0.5)
        kin_plus = DiracKinematics.from_momenta(1.0, 1.0, 0.0, 1)
        kin_minus = DiracKinematics.from_momenta(1.0, 1.0, 0.0, -1)
        ep = ExtensionParameter.finite(Channel.DIRAC_N, 1.0)
        assert dirac_ratio(ep, f, kin_plus) == pytest.approx(
            1.0 / (1.0 + math.sqrt(2.0)), rel=1e-14
        )
        assert dirac_ratio(ep, f, kin_minus) == pytest.approx(
            1.0 / (math.sqrt(2.0) - 1.0), rel=1e-14
        )

    def test_vanishes_with_momentum(self):
        f = decompose(0.5)
        ep = ExtensionParameter.finite(Channel.DIRAC_N, 1.0)
        kin = DiracKinematics.from_momenta(1.0, 1e-8, 0.0, 1)
        assert abs(dirac_ratio(ep, f, kin)) < 1e-7

    def test_momentum_dependence_is_pure_power(self):
        f = decompose(0.3)
        alpha = 1.7
        ep = ExtensionParameter.finite(Channel.DIRAC_N, alpha)
        for s in (1, -1):
            for p_perp in [0.01, 0.1, 1.0, 5.0, 10.0]:
                kin = DiracKinematics.from_momenta(1.0, p_perp, 0.0, s)
                recovered = (
                    dirac_ratio(ep, f, kin)
                    * (kin.M / kin.p_perp) ** (2.0 * f.delta)
                    * e_plus_sm(kin)
                    / kin.M
                )
                assert recovered == pytest.approx(alpha, rel=1e-12)

    @pytest.mark.parametrize("p_perp", [1e-10, 1e-5, 1e-3])
    def test_small_momentum_with_s_minus_one(self, p_perp, capsys):
        # E - M cancels at small p_perp (to 0 at 1e-10, to 6 digits at
        # 1e-5); the ratio is finite and follows (p_perp^2 + p3^2)/(E + M)
        ep = ExtensionParameter.finite(Channel.DIRAC_N, 1.0)
        kin = DiracKinematics.from_momenta(1.0, p_perp, 0.0, -1)
        ratio = dirac_ratio(ep, decompose(0.3), kin)
        with mpmath.workdps(50):
            p = mpmath.mpf(p_perp)
            ref = p ** (2 * mpmath.mpf(0.3)) / (mpmath.sqrt(p * p + 1) - 1)
        assert abs(ratio / float(ref) - 1.0) <= 1e-12
        argv = ["sae-ratio", "--eq", "dirac", "--alpha", "1", "--delta", "0.3",
                "--pperp", repr(p_perp), "--s", "-1"]
        assert cli.run(argv) == 0
        assert json.loads(capsys.readouterr().out)["outputs"]["ratio"] == ratio

    def test_tiny_momentum_with_s_minus_one(self):
        # (M/p)^2 = 1e600 overflowed here before (p_perp/M)^(2 delta) brought
        # the ratio back to 2e30
        kin = DiracKinematics.from_momenta(1.0, 1e-300, 0.0, -1)
        flux = decompose(0.95)
        ratio = dirac_ratio(ExtensionParameter.finite(Channel.DIRAC_N, 1.0), flux, kin)
        assert abs(ratio / _mp_dirac_ratio(kin, flux.delta) - 1.0) <= _TWO_ULPS

    def test_against_mpmath_wherever_the_ratio_is_a_double(self):
        ep = ExtensionParameter.finite(Channel.DIRAC_N, 1.0)
        checked = 0
        for delta in (0.05, 0.3, 0.95):
            flux = decompose(delta)
            for exponent in range(-300, 101, 10):
                for p3 in (0.0, 1e-12, 0.8, -3.0):
                    for s in (1, -1):
                        kin = DiracKinematics.from_momenta(1.0, 10.0**exponent, p3, s)
                        ref = _mp_dirac_ratio(kin, flux.delta)
                        if not 2.2250738585072014e-308 <= ref <= 1.7976931348623157e308:
                            continue
                        ratio = dirac_ratio(ep, flux, kin)
                        assert abs(ratio / ref - 1.0) <= _TWO_ULPS, (delta, exponent, p3, s)
                        checked += 1
        assert checked > 800

    def test_schrodinger_channel_rejected(self):
        ep = ExtensionParameter.finite(Channel.SCHRODINGER_N, 1.0)
        with pytest.raises(ChannelMismatchError):
            dirac_ratio(ep, decompose(0.3), DiracKinematics.from_momenta(1.0, 1.0))


class TestBoundaryRatio:
    def test_half_order(self):
        # 2 Gamma(1/2)/Gamma(-1/2) = -1
        for alpha in (1.0, -2.5, 0.3):
            assert boundary_ratio_from_alpha(alpha, 0.5) == pytest.approx(
                -alpha, rel=1e-12
            )

    def test_zero_alpha(self):
        assert boundary_ratio_from_alpha(0.0, 0.3) == 0.0

    def test_generic_order(self):
        assert boundary_ratio_from_alpha(1.0, 0.3) == pytest.approx(
            -1.0479608751150151, rel=1e-12
        )

    def test_order_domain(self):
        with pytest.raises(DomainError):
            boundary_ratio_from_alpha(1.0, 1.3)


class TestExtendedModes:
    def test_zero_alpha_is_regular(self):
        f = decompose(0.3)
        ep = ExtensionParameter.finite(Channel.SCHRODINGER_N, 0.0)
        mode = make_extended_mode(ep, f, 1.0, 1.0)
        assert (mode.a, mode.b) == (1.0, 0.0)

    def test_infinite_is_pure_irregular(self):
        f = decompose(0.3)
        ep = ExtensionParameter.infinite(Channel.SCHRODINGER_N)
        mode = make_extended_mode(ep, f, 1.0, 1.0)
        assert (mode.a, mode.b) == (0.0, 1.0)

    def test_coefficients_from_ratio(self):
        f = decompose(0.3)
        ep = ExtensionParameter.finite(Channel.SCHRODINGER_N, 1.0)
        mode = make_extended_mode(ep, f, 2.0, 1.0)
        assert mode.b == pytest.approx(2.0**0.6, rel=1e-14)

    def test_channel_mismatch(self):
        f = decompose(0.3)
        with pytest.raises(ChannelMismatchError):
            make_extended_mode(ExtensionParameter.finite(Channel.DIRAC_N, 1.0), f, 1.0, 1.0)

    def test_orthogonality_closure_analytic(self):
        # extended modes at distinct momenta have no finite overlap part
        for delta in (0.2, 0.5, 0.8):
            f = decompose(delta)
            for channel, l in (
                (Channel.SCHRODINGER_N, f.n),
                (Channel.SCHRODINGER_N_PLUS_1, f.n + 1),
            ):
                for alpha in (0.0, 0.7, -1.3, 10.0):
                    ep = ExtensionParameter.finite(channel, alpha)
                    m1 = make_extended_mode(ep, f, 0.8, 1.0)
                    m2 = make_extended_mode(ep, f, 1.9, 1.0)
                    assert m1.l == m2.l == l
                    assert abs(mode_overlap_finite_part(m1, m2)) <= 1e-12

    def test_orthogonality_closure_numeric(self):
        f = decompose(0.4)
        ep = ExtensionParameter.finite(Channel.SCHRODINGER_N, 0.9)
        m1 = make_extended_mode(ep, f, 0.8, 1.0)
        m2 = make_extended_mode(ep, f, 1.9, 1.0)
        value, est = mode_overlap_finite_part_numeric(m1, m2)
        assert abs(value) <= 1e-3

    def test_boundary_condition_consistency(self):
        # signature of an extended mode reproduces the boundary-ratio map
        for delta in (0.3, 0.5, 0.7):
            f = decompose(delta)
            for alpha in (0.4, 1.0, -2.0):
                ep = ExtensionParameter.finite(Channel.SCHRODINGER_N, alpha)
                for p in (0.5, 1.0, 2.0):
                    mode = make_extended_mode(ep, f, p, 1.0)
                    sig = small_rho_signature(mode, 1.0)
                    assert sig.boundary_ratio == pytest.approx(
                        boundary_ratio_from_alpha(alpha, f.delta), rel=1e-6
                    )

    def test_pure_irregular_signature_degenerates(self):
        f = decompose(0.3)
        ep = ExtensionParameter.infinite(Channel.SCHRODINGER_N)
        mode = make_extended_mode(ep, f, 1.0, 1.0)
        with pytest.raises(DegenerateError):
            small_rho_signature(mode, 1.0)


class TestReferenceValues:
    def test_schrodinger_both_channels_regular(self):
        pair = reference_extension_parameters(EquationKind.SCHRODINGER, 1, decompose(2.3))
        assert [ep.alpha for ep in pair] == [0.0, 0.0]
        assert pair[0].channel is Channel.SCHRODINGER_N
        assert pair[1].channel is Channel.SCHRODINGER_N_PLUS_1

    def test_dirac_sign_rule(self):
        f = decompose(2.3)
        assert reference_extension_parameters(EquationKind.DIRAC, 1, f).is_infinite
        ep = reference_extension_parameters(EquationKind.DIRAC, -1, f)
        assert ep.alpha == 0.0
        fneg = decompose(-0.7)
        assert reference_extension_parameters(EquationKind.DIRAC, -1, fneg).is_infinite
        assert reference_extension_parameters(EquationKind.DIRAC, 1, fneg).alpha == 0.0

    def test_bad_spin(self):
        with pytest.raises(DomainError):
            reference_extension_parameters(EquationKind.DIRAC, 0, decompose(0.3))


_N = ExtensionParameter.finite(Channel.SCHRODINGER_N, 1.0)
_N1 = ExtensionParameter.finite(Channel.SCHRODINGER_N_PLUS_1, 1.0)


def _checked_text(name):
    # errors.checked names the function and its arguments
    return rf"^{name}\(.*\) overflows a double$"


_E2_TEXT = r"^E\^2 = p_perp\^2 \+ p3\^2 \+ M\^2 overflows a double: "


@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(lambda: schrodinger_ratio(_N, decompose(0.7), 1e300, 1.0),
                     _checked_text("schrodinger_ratio"), id="schrodinger_ratio-n"),
        pytest.param(lambda: schrodinger_ratio(_N1, decompose(0.3), 1e300, 1.0),
                     _checked_text("schrodinger_ratio"), id="schrodinger_ratio-n1"),
        pytest.param(lambda: schrodinger_ratio(
            ExtensionParameter.finite(Channel.SCHRODINGER_N, 1e300), decompose(0.3), 1e100, 1.0
        ), _checked_text("schrodinger_ratio"), id="schrodinger_ratio-alpha"),
        pytest.param(lambda: dirac_ratio(
            ExtensionParameter.finite(Channel.DIRAC_N, 1.0),
            decompose(0.7),
            DiracKinematics.from_momenta(1e-300, 1.0),
        ), _checked_text("dirac_ratio"), id="dirac_ratio"),
        # s = -1: (p_perp/M)^delta stays finite, (M/p)^2 past it does not
        pytest.param(lambda: dirac_ratio(
            ExtensionParameter.finite(Channel.DIRAC_N, 1.0),
            decompose(0.1),
            DiracKinematics.from_momenta(1.0, 1e-200, 0.0, -1),
        ), _checked_text("dirac_ratio"), id="dirac_ratio-s-1"),
        pytest.param(lambda: DiracKinematics.from_momenta(1.0, 1e300), _E2_TEXT,
                     id="from_momenta"),
        pytest.param(lambda: DiracKinematics.from_momenta(1.0, 1.0, 1e300), _E2_TEXT,
                     id="from_momenta-p3"),
        pytest.param(lambda: DiracKinematics.from_momenta(1e300, 1.0), _E2_TEXT,
                     id="from_momenta-M"),
        pytest.param(lambda: small_rho_signature(
            make_schrodinger_mode(0, decompose(0.7), 1e-300, 1.0, 1.0), 1.0
        ), _checked_text("small_rho_signature"), id="small_rho_signature"),
        pytest.param(lambda: g_from_alpha(_N, decompose(0.7), 1e300),
                     _checked_text("g_from_alpha"), id="g_from_alpha-n"),
        pytest.param(lambda: g_from_alpha(_N1, decompose(0.3), 1e300),
                     _checked_text("g_from_alpha"), id="g_from_alpha-n1"),
        pytest.param(lambda: g_asymptotic(_N, decompose(0.7), 1e300),
                     _checked_text("g_asymptotic"), id="g_asymptotic-n"),
        pytest.param(lambda: g_asymptotic(_N1, decompose(0.3), 1e300),
                     _checked_text("g_asymptotic"), id="g_asymptotic-n1"),
        pytest.param(lambda: limit_ratio(
            FluxShellProblem(rho0=1e300, g=0.5, l=1, flux=decompose(0.3), p=1.0)
        ), _checked_text("limit_ratio"), id="limit_ratio"),
    ],
)
def test_overflowing_power_is_a_numerical_failure(call, message):
    # a float power past the largest double raises OverflowError in Python;
    # errors.checked reports it as a NumericalFailureError naming the function
    # and its arguments, and DiracKinematics, which it does not wrap, as E^2
    with pytest.raises(NumericalFailureError, match=message):
        call()
