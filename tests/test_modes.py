"""Mode construction, evaluation, boundary signatures, and the radial ODE check."""

import math
import random

import pytest

from abmodes.errors import (
    DegenerateError,
    DomainError,
    IrregularForbiddenError,
    NumericalFailureError,
)
from abmodes.flux import decompose
from abmodes.modes import (
    DiracKinematics,
    ModeKind,
    evaluate,
    make_dirac_mode,
    make_schrodinger_mode,
    small_rho_signature,
)
from abmodes.specfun import bessel_j


class TestSchrodingerModes:
    def test_irregular_forbidden_outside_critical(self):
        f = decompose(2.3)
        with pytest.raises(IrregularForbiddenError):
            make_schrodinger_mode(0, f, 1.0, 1.0, 0.5)

    def test_critical_channel_keeps_both(self):
        f = decompose(2.3)
        mode = make_schrodinger_mode(2, f, 1.0, 1.0, 0.7)
        assert mode.order == pytest.approx(0.3, abs=1e-15)
        # a multiplies J_{+order} and b J_{-order}
        assert mode.order_a == mode.order
        assert mode.amplitudes == (1.0, 0.7)

    def test_regular_mode_vanishes_at_origin(self):
        f = decompose(2.3)
        mode = make_schrodinger_mode(2, f, 1.0, 1.0, 0.0)
        assert abs(evaluate(mode, 1e-8)) < 1e-2
        assert abs(evaluate(mode, 1e-12)) < abs(evaluate(mode, 1e-8))

    def test_zero_mode_rejected(self):
        f = decompose(2.3)
        with pytest.raises(DegenerateError):
            make_schrodinger_mode(2, f, 1.0, 0.0, 0.0)

    def test_momentum_must_be_positive(self):
        f = decompose(2.3)
        with pytest.raises(DomainError):
            make_schrodinger_mode(2, f, -1.0, 1.0, 0.0)

    @pytest.mark.parametrize("a, b", [(math.nan, 0.5), (1.0, math.inf), (1.0, -math.inf)])
    def test_coefficients_must_be_finite(self, a, b):
        with pytest.raises(DomainError):
            make_schrodinger_mode(2, decompose(2.3), 1.0, a, b)

    def test_evaluate_half_order_closed_forms(self):
        f = decompose(2.5)  # order 0.5 in channel l = 2
        regular = make_schrodinger_mode(2, f, 1.0, 1.0, 0.0)
        assert evaluate(regular, math.pi / 2) == pytest.approx(2.0 / math.pi, abs=1e-12)
        irregular = make_schrodinger_mode(2, f, 1.0, 0.0, 1.0)
        assert evaluate(irregular, math.pi) == pytest.approx(
            -math.sqrt(2.0) / math.pi, abs=1e-12
        )

    def test_evaluate_generic_sum(self):
        f = decompose(2.3)
        mode = make_schrodinger_mode(2, f, 2.0, 1.0, 1.0)
        expected = bessel_j(0.3, 1.4) + bessel_j(-0.3, 1.4)
        assert evaluate(mode, 0.7) == pytest.approx(expected, rel=1e-13)

    def test_evaluate_domain(self):
        f = decompose(2.3)
        mode = make_schrodinger_mode(2, f, 1.0, 1.0, 0.0)
        with pytest.raises(DomainError):
            evaluate(mode, 0.0)
        with pytest.raises(DomainError):
            evaluate(mode, -1.0)


# evaluate(mode, rho) to the double, each within specfun's J bound of
# 30-digit mpmath: the sum over `amplitudes` forms each product alike, and a
# sum of two terms commutes exactly.  Keys: kind, phi, l, a, b, p, rho, with
# p the transverse momentum p_perp of a Dirac component; values: the double,
# whose repr must not move.  A test id names the key only, so re-recording a
# value renames no test.
EVALUATE_REPRS = {
    ('schrodinger', 2.3, 2, 1.0, 0.7, 1.3, 0.77): 1.1833014099121093,
    ('schrodinger', 2.3, 2, 1.0, 0.7, 0.25, 31.0): 0.3640018605979385,
    ('schrodinger', 2.3, 3, 1.0, -0.45, 1.3, 0.77): 0.5233382207435235,
    ('schrodinger', 2.3, 3, 1.0, -0.45, 0.25, 31.0): 0.29280243008792783,
    ('schrodinger', 2.3, 2, 0.0, 1.5, 1.3, 0.77): 0.9496474711218091,
    ('schrodinger', 2.3, 2, 0.0, 1.5, 0.25, 31.0): 0.1784686009369501,
    ('schrodinger', 2.3, 3, -2.0, 0.0, 1.3, 0.77): -1.1651496318951744,
    ('schrodinger', 2.3, 3, -2.0, 0.0, 0.25, 31.0): -0.5278621538449608,
    ('schrodinger', -0.4, -1, 0.8, 1.1, 1.3, 0.77): 0.8242884433309664,
    ('schrodinger', -0.4, -1, 0.8, 1.1, 0.25, 31.0): 0.20307129044711605,
    ('schrodinger', -0.4, 0, 1.0, 0.0, 1.3, 0.77): 0.7093861460842691,
    ('schrodinger', -0.4, 0, 1.0, 0.0, 0.25, 31.0): 0.2861828514778428,
    ('dirac1', 2.3, 2, 1.0, 0.7, 1.3, 0.77): 1.1511911271198918,
    ('dirac2', 2.3, 2, 1.0, 0.7, 1.3, 0.77): 0.49042900118571037,
    ('dirac1', 2.3, 2, 1.0, 0.7, 0.25, 31.0): 0.31548062673711996,
    ('dirac2', 2.3, 2, 1.0, 0.7, 0.25, 31.0): 0.3088420707353986,
    ('dirac1', 2.3, 2, 0.0, -1.2, 1.3, 0.77): -0.8881591080663181,
    ('dirac2', 2.3, 2, 0.0, -1.2, 1.3, 0.77): 0.15796425387750315,
    ('dirac1', 2.3, 2, 0.0, -1.2, 0.25, 31.0): -0.3368598161928341,
    ('dirac2', 2.3, 2, 0.0, -1.2, 0.25, 31.0): -0.07699027510785976,
    ('dirac1', 2.3, 2, 0.6, 0.0, 1.3, 0.77): 0.3798589884487236,
    ('dirac2', 2.3, 2, 0.6, 0.0, 1.3, 0.77): 0.3495448895685523,
    ('dirac1', 2.3, 2, 0.6, 0.0, 0.25, 31.0): 0.07138744037478004,
    ('dirac2', 2.3, 2, 0.6, 0.0, 0.25, 31.0): 0.15835864615348824,
    ('dirac1', 2.3, 1, 0.0, 1.0, 1.3, 0.77): 0.31199903988379113,
    ('dirac2', 2.3, 1, 0.0, 1.0, 1.3, 0.77): -0.7401325900552651,
    ('dirac1', 2.3, 1, 0.0, 1.0, 0.25, 31.0): 0.08589145395717065,
    ('dirac2', 2.3, 1, 0.0, 1.0, 0.25, 31.0): -0.28071651349402843,
    ('dirac1', 2.3, 3, 1.0, 0.0, 1.3, 0.77): 0.5825748159475872,
    ('dirac2', 2.3, 3, 1.0, 0.0, 1.3, 0.77): 0.18169163829304255,
    ('dirac1', 2.3, 3, 1.0, 0.0, 0.25, 31.0): 0.2639310769224804,
    ('dirac2', 2.3, 3, 1.0, 0.0, 0.25, 31.0): -0.07130119533111515,
    ('dirac1', -0.4, -1, 0.9, 2.0, 1.3, 0.77): 1.5201647972713004,
    ('dirac2', -0.4, -1, 0.9, 2.0, 1.3, 0.77): -0.44946109369789466,
    ('dirac1', -0.4, -1, 0.9, 2.0, 0.25, 31.0): 0.5395606874262225,
    ('dirac2', -0.4, -1, 0.9, 2.0, 0.25, 31.0): 0.10648183783476226,
}


@pytest.mark.parametrize(
    "kind, phi, l, a, b, p, rho, value",
    [pytest.param(*key, value, id="-".join(map(str, key)))
     for key, value in EVALUATE_REPRS.items()],
)
def test_evaluate_keeps_its_doubles(kind, phi, l, a, b, p, rho, value):
    flux = decompose(phi)
    if kind == "schrodinger":
        mode = make_schrodinger_mode(l, flux, p, a, b)
    else:
        kin = DiracKinematics.from_momenta(1.0, p)
        mode = make_dirac_mode(l, flux, kin, a, b)[kind == "dirac2"]
    assert repr(evaluate(mode, rho)) == repr(value)


class TestDiracModes:
    def setup_method(self):
        self.kin = DiracKinematics.from_momenta(1.0, 1.0, 0.0, 1)

    def test_orders_above_critical(self):
        f = decompose(0.3)
        c1, c2 = make_dirac_mode(1, f, self.kin, 1.0, 0.0)
        assert c1.order_a == pytest.approx(0.7, abs=1e-15)
        assert c2.order_a == pytest.approx(1.7, abs=1e-15)
        assert c1.kind is ModeKind.DIRAC_COMPONENT_1
        assert c2.kind is ModeKind.DIRAC_COMPONENT_2

    def test_component_order_gap(self):
        f = decompose(0.3)
        for l in (1, 2, 3):
            c1, c2 = make_dirac_mode(l, f, self.kin, 1.0, 0.0)
            assert c2.order_a == pytest.approx(c1.order_a + 1.0, abs=1e-15)

    def test_critical_channel_combination(self):
        f = decompose(0.3)
        c1, c2 = make_dirac_mode(0, f, self.kin, 1.0, 0.4)
        rho = 0.9
        assert evaluate(c1, rho) == pytest.approx(
            bessel_j(-0.3, rho) + 0.4 * bessel_j(0.3, rho), rel=1e-13
        )
        # second component carries the irregular part with a minus sign
        assert evaluate(c2, rho) == pytest.approx(
            bessel_j(0.7, rho) - 0.4 * bessel_j(-0.7, rho), rel=1e-13
        )

    def test_coefficient_rules(self):
        f = decompose(0.3)  # N = 0
        with pytest.raises(IrregularForbiddenError):
            make_dirac_mode(-1, f, self.kin, 1.0, 0.0)  # a must vanish below N
        with pytest.raises(IrregularForbiddenError):
            make_dirac_mode(1, f, self.kin, 1.0, 0.2)  # b must vanish above N
        make_dirac_mode(-1, f, self.kin, 0.0, 1.0)
        make_dirac_mode(1, f, self.kin, 1.0, 0.0)

    def test_coefficient_rules_negative_n(self):
        f = decompose(-0.7)  # N = -1
        with pytest.raises(IrregularForbiddenError):
            make_dirac_mode(0, f, self.kin, 1.0, 0.5)  # l > N: b forbidden
        with pytest.raises(IrregularForbiddenError):
            make_dirac_mode(-2, f, self.kin, 0.5, 1.0)  # l < N: a forbidden
        make_dirac_mode(-1, f, self.kin, 1.0, 0.5)  # critical keeps both


class TestDiracKinematics:
    def test_from_momenta_on_shell(self):
        kin = DiracKinematics.from_momenta(2.0, 1.0, 0.5, -1)
        assert kin.E == pytest.approx(math.sqrt(1.0 + 0.25 + 4.0), rel=1e-15)

    def test_bad_labels(self):
        with pytest.raises(DomainError):
            DiracKinematics.from_momenta(1.0, 1.0, 0.0, 2)
        with pytest.raises(DomainError):
            DiracKinematics.from_momenta(-1.0, 1.0, 0.0, 1)
        with pytest.raises(DomainError):
            DiracKinematics.from_momenta(1.0, 0.0, 0.0, 1)
        for M, p_perp, p3 in ((math.nan, 1.0, 0.0), (math.inf, 1.0, 0.0),
                              (1.0, math.inf, 0.0), (1.0, 1.0, math.nan)):
            with pytest.raises(DomainError):
                DiracKinematics.from_momenta(M, p_perp, p3)

    def test_overflowing_energy_is_a_numerical_failure(self):
        # each square is finite and their sum is not: E would be inf
        with pytest.raises(NumericalFailureError, match="E\\^2"):
            DiracKinematics.from_momenta(1.0, 1.3e154, 1.3e154)
        assert DiracKinematics.from_momenta(1.0, 1.3e154, 0.0).E == 1.3e154


class TestSmallRhoSignature:
    def test_regular_mode_has_zero_ratio(self):
        f = decompose(0.3)
        mode = make_schrodinger_mode(0, f, 1.0, 1.0, 0.0)
        sig = small_rho_signature(mode, 1.0)
        assert sig.nu == pytest.approx(0.3, abs=1e-15)
        assert sig.boundary_ratio == 0.0

    def test_half_order_reference_point(self):
        # b/a from the extension condition at alpha=1, nu=0.5, p=M gives -1
        f = decompose(0.5)
        mode = make_schrodinger_mode(0, f, 1.0, 1.0, 1.0)
        sig = small_rho_signature(mode, 1.0)
        assert sig.boundary_ratio == pytest.approx(-1.0, rel=1e-12)

    def test_pure_irregular_degenerate(self):
        f = decompose(0.3)
        mode = make_schrodinger_mode(0, f, 1.0, 0.0, 1.0)
        with pytest.raises(DegenerateError):
            small_rho_signature(mode, 1.0)

    @pytest.mark.parametrize(
        "delta,p,M,b,r1,tol",
        [
            (0.3, 2.0, 1.0, 0.37, 1e-4, 1e-6),
            (0.5, 1.0, 2.0, 0.9, 1e-7, 1e-6),
            # nu = 0.7: series contamination rho^{2-2nu} meets conditioning
            # loss eps*rho^{-2nu} near rho ~ 1e-8; ~1e-5 is the double-
            # precision floor of the two-point fit there
            (0.7, 0.6, 1.3, -1.2, 1e-8, 5e-5),
        ],
    )
    def test_two_point_power_law_fit(self, delta, p, M, b, r1, tol):
        # fit C+ (M rho)^nu + C- (M rho)^-nu through two small-rho samples
        f = decompose(delta)
        mode = make_schrodinger_mode(0, f, p, 1.0, b)
        sig = small_rho_signature(mode, M)
        nu = sig.nu
        r1 = r1 / p
        r2 = r1 / 10.0
        x1, x2 = M * r1, M * r2
        v1, v2 = evaluate(mode, r1), evaluate(mode, r2)
        det = x1**nu * x2 ** (-nu) - x1 ** (-nu) * x2**nu
        c_plus = (v1 * x2 ** (-nu) - v2 * x1 ** (-nu)) / det
        c_minus = (v2 * x1**nu - v1 * x2**nu) / det
        assert -c_minus / c_plus == pytest.approx(sig.boundary_ratio, rel=tol)

    def test_dirac_component_signature(self):
        # component 1 at l = N carries the regular order in the b slot
        f = decompose(0.3)
        kin = DiracKinematics.from_momenta(1.0, 2.0, 0.0, 1)
        c1, _ = make_dirac_mode(0, f, kin, 0.3, 0.8)
        sig = small_rho_signature(c1, 1.0)
        nu = sig.nu
        assert nu == pytest.approx(0.3, abs=1e-15)
        r1, r2 = 1e-4 / kin.p_perp, 1e-5 / kin.p_perp
        v1, v2 = evaluate(c1, r1), evaluate(c1, r2)
        det = r1**nu * r2 ** (-nu) - r1 ** (-nu) * r2**nu
        c_plus = (v1 * r2 ** (-nu) - v2 * r1 ** (-nu)) / det
        c_minus = (v2 * r1**nu - v1 * r2**nu) / det
        assert -c_minus / c_plus == pytest.approx(sig.boundary_ratio, rel=1e-6)

    def test_noncritical_order_rejected(self):
        f = decompose(2.3)
        mode = make_schrodinger_mode(0, f, 1.0, 1.0, 0.0)  # order 2.3
        with pytest.raises(DomainError):
            small_rho_signature(mode, 1.0)

    @pytest.mark.parametrize("M", [math.nan, math.inf, 0.0, -1.0])
    def test_mass_scale_must_be_positive_and_finite(self, M):
        # NaN once passed M <= 0 and gave boundary_ratio = nan
        mode = make_schrodinger_mode(0, decompose(0.3), 1.0, 1.0, 1.0)
        with pytest.raises(DomainError):
            small_rho_signature(mode, M)


def second_derivative(fn, x, h):
    # 5-point central stencil, 4th order
    return (
        -fn(x + 2 * h) + 16 * fn(x + h) - 30 * fn(x) + 16 * fn(x - h) - fn(x - 2 * h)
    ) / (12.0 * h * h)


def first_derivative(fn, x, h):
    return (fn(x - 2 * h) - 8 * fn(x - h) + 8 * fn(x + h) - fn(x + 2 * h)) / (12.0 * h)


def test_radial_ode_residual():
    # R'' + R'/rho - nu^2 R/rho^2 + p^2 R = 0 for every constructed mode
    rng = random.Random(7)
    f_pool = [decompose(0.3), decompose(2.3), decompose(-0.7)]
    for _ in range(8):
        f = rng.choice(f_pool)
        critical = (f.n, f.n + 1)
        l = rng.choice(critical)
        p = rng.uniform(0.5, 2.5)
        a = rng.uniform(-2.0, 2.0) or 1.0
        b = rng.uniform(-2.0, 2.0)
        mode = make_schrodinger_mode(l, f, p, a, b)
        nu = mode.order
        fn = lambda r: evaluate(mode, r)
        rho_grid = [0.1 + 9.9 * i / 19 for i in range(20)]
        max_r = max(abs(fn(r)) for r in rho_grid)
        for rho in rho_grid:
            # irregular modes have derivatives growing like rho^{-nu-k}:
            # shrink the stencil near the origin
            h = min(1e-2 / p, rho / 300.0)
            resid = (
                second_derivative(fn, rho, h)
                + first_derivative(fn, rho, h) / rho
                - nu * nu * fn(rho) / (rho * rho)
                + p * p * fn(rho)
            )
            assert abs(resid) <= 1e-6 * p * p * max_r
