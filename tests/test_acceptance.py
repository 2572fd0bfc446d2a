"""Acceptance suite: every exit criterion at its stated tolerance.

One pass/fail line per criterion is printed and echoed in the terminal
summary.  Runtime-limited criteria assert their wall-clock budget.
"""

import json
import math
import random
import time

import conftest
from conftest import FIXTURES, e_plus_sm, run_cli

from abmodes.flux import EquationKind, decompose
from abmodes.fluxshell import FluxShellProblem, g_asymptotic, g_from_alpha, limit_ratio, matching_ratio, resonance_defect
from abmodes.modes import DiracKinematics, make_schrodinger_mode
from abmodes.overlap import (
    closed_form_cross,
    finite_part_estimate,
    fit_cancelling_exponent,
    fit_delta_coefficient,
    mode_overlap_finite_part,
    mode_overlap_finite_part_numeric,
)
from abmodes.sae import (
    Channel,
    ExtensionParameter,
    dirac_ratio,
    reference_extension_parameters,
)
from abmodes.specfun import bessel_j, bessel_j_prime, gamma


def _report(num, ok, detail):
    line = f"criterion {num:02d} {'PASS' if ok else 'FAIL'}: {detail}"
    conftest.ACCEPTANCE_RESULTS.append(line)
    print(line)
    assert ok, line


def _log_grid(lo, hi, n):
    return [lo * (hi / lo) ** (i / (n - 1)) for i in range(n)]


def test_criterion_01_special_function_core():
    t0 = time.monotonic()
    worst_w = 0.0
    for nu in (0.1, 0.3, 0.5, 0.7, 0.9):
        for x in _log_grid(0.1, 50.0, 50):
            w = (
                bessel_j(nu, x) * bessel_j_prime(-nu, x)
                - bessel_j_prime(nu, x) * bessel_j(-nu, x)
                + 2.0 * math.sin(nu * math.pi) / (math.pi * x)
            )
            worst_w = max(worst_w, abs(w) / (2.0 / (math.pi * x)))
    worst_h = 0.0
    for x in _log_grid(0.05, 90.0, 60):
        amp = math.sqrt(2.0 / (math.pi * x))
        worst_h = max(worst_h, abs(bessel_j(0.5, x) - amp * math.sin(x)))
        worst_h = max(worst_h, abs(bessel_j(-0.5, x) - amp * math.cos(x)))
    worst_g = 0.0
    for i in range(1, 200):
        x = i / 200.0
        val = gamma(x) * gamma(1.0 - x) * math.sin(math.pi * x) / math.pi
        worst_g = max(worst_g, abs(val - 1.0))
    elapsed = time.monotonic() - t0
    ok = worst_w <= 1e-9 and worst_h <= 1e-12 and worst_g <= 1e-10 and elapsed < 5.0
    _report(
        1,
        ok,
        f"special functions: wronskian {worst_w:.2e} (<=1e-9), half-order "
        f"{worst_h:.2e} (<=1e-12), reflection {worst_g:.2e} (<=1e-10), "
        f"{elapsed:.2f}s (<5s)",
    )


def test_criterion_02_cross_overlap_formula():
    t0 = time.monotonic()
    worst_fp = 0.0
    worst_fit = 0.0
    for delta in (0.25, 0.5, 0.75):
        for (p, pp) in ((1.0, 2.0), (2.0, 3.0), (0.5, 1.7)):
            closed = closed_form_cross(delta, p, pp).finite_part
            value, _ = finite_part_estimate(delta, -delta, p, pp)
            worst_fp = max(worst_fp, abs(value - closed) / max(1.0, abs(closed)))
            a = fit_delta_coefficient(delta, -delta, p, pp)
            worst_fit = max(worst_fit, abs(a - math.cos(math.pi * delta)))
    same = fit_delta_coefficient(0.5, 0.5, 1.0, 2.0)
    worst_fit = max(worst_fit, abs(same - 1.0))
    elapsed = time.monotonic() - t0
    ok = worst_fp <= 1e-3 and worst_fit <= 1e-2 and elapsed < 60.0
    _report(
        2,
        ok,
        f"cross-order integral: finite-part error {worst_fp:.2e} (<=1e-3), "
        f"delta-coefficient error {worst_fit:.2e} (<=1e-2), {elapsed:.1f}s (<60s)",
    )


def test_criterion_03_orthogonalization_cancellation():
    rng = random.Random(42)
    worst_analytic = 0.0
    worst_numeric_rel = 0.0
    worst_violation = math.inf
    for k in range(20):
        delta = rng.uniform(0.1, 0.9)
        alpha = rng.uniform(0.2, 3.0)
        p = rng.uniform(0.6, 1.6)
        pp = p * rng.uniform(1.4, 2.2)
        n_part = rng.choice([-1, 0, 1])
        offset = k % 2  # alternate channels N, N+1
        f = decompose(n_part + delta)
        l = f.n + offset
        nu = abs(l - f.phi)

        def sae_mode(mom):
            return make_schrodinger_mode(l, f, mom, 1.0, alpha * mom ** (2.0 * nu))

        m1, m2 = sae_mode(p), sae_mode(pp)
        worst_analytic = max(worst_analytic, abs(mode_overlap_finite_part(m1, m2)))
        cross_scale = max(
            abs(m2.b * closed_form_cross(nu, p, pp).finite_part),
            abs(m1.b * closed_form_cross(nu, pp, p).finite_part),
        )
        numeric, _ = mode_overlap_finite_part_numeric(m1, m2)
        worst_numeric_rel = max(worst_numeric_rel, abs(numeric) / cross_scale)
        # violating coefficients: constant b independent of momentum
        v1 = make_schrodinger_mode(l, f, p, 1.0, alpha)
        v2 = make_schrodinger_mode(l, f, pp, 1.0, alpha)
        violation_scale = max(
            abs(v2.b * closed_form_cross(nu, p, pp).finite_part),
            abs(v1.b * closed_form_cross(nu, pp, p).finite_part),
        )
        worst_violation = min(
            worst_violation, abs(mode_overlap_finite_part(v1, v2)) / violation_scale
        )
    ok = worst_analytic <= 1e-12 and worst_numeric_rel <= 1e-3 and worst_violation >= 1e-2
    _report(
        3,
        ok,
        f"cancellation: analytic residual {worst_analytic:.2e} (<=1e-12), numeric "
        f"{worst_numeric_rel:.2e} of cross term (<=1e-3), violation floor "
        f"{worst_violation:.2e} (>=1e-2)",
    )


def test_criterion_04_exponent_recovery():
    momenta = [0.5, 1.0, 2.0, 4.0]
    worst = 0.0
    for delta in (0.1, 0.3, 0.5, 0.7, 0.9):
        f = decompose(delta)
        worst = max(worst, abs(fit_cancelling_exponent(f, f.n, momenta) - 2.0 * delta))
        worst = max(
            worst,
            abs(fit_cancelling_exponent(f, f.n + 1, momenta) - 2.0 * (1.0 - delta)),
        )
    _report(4, worst <= 1e-2, f"exponent recovery: worst error {worst:.2e} (<=1e-2)")


def test_criterion_05_flux_shell_limit():
    worst = 0.0
    checked = 0
    for delta in (0.3, 0.7):
        f = decompose(delta)  # N = 0
        for l in (f.n - 1, f.n, f.n + 1, f.n + 2):
            for g in (0.0, 0.5, -0.5):
                if abs(resonance_defect(l, f, g)) < 0.1:
                    continue
                prob = FluxShellProblem(rho0=1e-3, g=g, l=l, flux=f, p=1.0)
                worst = max(worst, abs(matching_ratio(prob) / limit_ratio(prob) - 1.0))
                checked += 1
    ok = worst <= 0.01 and checked >= 20
    _report(
        5,
        ok,
        f"shell limit agreement at p*rho0=1e-3: worst {worst:.2e} (<=1e-2) "
        f"over {checked} non-resonant points",
    )


def test_criterion_06_g_dictionary_exactness():
    p = 1.3
    worst = 0.0
    for delta in (0.3, 0.7):
        for n in (0, 1):
            f = decompose(n + delta)
            for alpha in (0.1, 1.0, 10.0):
                for rho0 in _log_grid(1e-4, 1e-1, 7):
                    ep = ExtensionParameter.finite(Channel.SCHRODINGER_N, alpha)
                    g = g_from_alpha(ep, f, rho0)
                    lr = limit_ratio(
                        FluxShellProblem(rho0=rho0, g=g, l=n, flux=f, p=p)
                    )
                    worst = max(worst, abs(lr / (alpha * p ** (2 * delta)) - 1.0))
                    ep1 = ExtensionParameter.finite(Channel.SCHRODINGER_N_PLUS_1, alpha)
                    g1 = g_from_alpha(ep1, f, rho0)
                    lr1 = limit_ratio(
                        FluxShellProblem(rho0=rho0, g=g1, l=n + 1, flux=f, p=p)
                    )
                    worst = max(
                        worst, abs(lr1 / (alpha * p ** (2 * (1 - delta))) - 1.0)
                    )
    special_ok = True
    for delta in (0.25, 0.4, 0.8):
        for rho0 in (1e-3, 1e-2, 1e-1):
            ep0 = ExtensionParameter.finite(Channel.SCHRODINGER_N, 0.0)
            special_ok &= g_from_alpha(ep0, decompose(delta), rho0) == -1.0
            for n in (0, 1, 2):
                ep1 = ExtensionParameter.finite(Channel.SCHRODINGER_N_PLUS_1, 0.0)
                special_ok &= g_from_alpha(ep1, decompose(n + delta), rho0) == 1.0
    ok = worst <= 1e-6 and special_ok
    _report(
        6,
        ok,
        f"g dictionary: round-trip error {worst:.2e} (<=1e-6), special values "
        f"g_N(alpha=0,N=0)=-1 and g_N+1(alpha=0)=+1 exact: {special_ok}",
    )


def test_criterion_07_resonance_emergence():
    worst = 0.0
    monotone = True
    for n in (0, 1):
        f = decompose(n + 0.5)
        for alpha in (0.5, 1.0, 2.0):
            ep = ExtensionParameter.finite(Channel.SCHRODINGER_N, alpha)
            defects = []
            for rho0 in (1e-1, 1e-2, 1e-3):
                g = g_from_alpha(ep, f, rho0)
                defects.append(abs(resonance_defect(n, f, g)))
            monotone &= defects[0] > defects[1] > defects[2]
            worst = max(worst, defects[-1])
    ok = worst <= 1e-2 and monotone
    _report(
        7,
        ok,
        f"resonance emergence: defect at M*rho0=1e-3 worst {worst:.2e} (<=1e-2), "
        f"monotone decay {monotone}",
    )


def test_criterion_08_asymptotic_formula_audit():
    entries = []
    round_trip_worst = richardson_worst = 0.0
    p = 0.9
    cases = [
        (Channel.SCHRODINGER_N, 0, 0.5, 1.0),
        (Channel.SCHRODINGER_N, 1, 0.5, 1.0),
        (Channel.SCHRODINGER_N, 1, 0.3, 2.0),
        (Channel.SCHRODINGER_N_PLUS_1, 0, 0.5, 1.0),
        (Channel.SCHRODINGER_N_PLUS_1, 1, 0.4, 1.5),
    ]
    for channel, n, delta, alpha in cases:
        f = decompose(n + delta)
        ep = ExtensionParameter.finite(channel, alpha)
        # the lead terms |l| -+ nu as _dictionary_parts writes them
        if channel is Channel.SCHRODINGER_N:
            l, nu, lead_in, lead_out = n, delta, abs(n) - delta, abs(n) + delta
        else:
            l, nu = n + 1, 1.0 - delta
            lead_in, lead_out = abs(n + 1) - 1.0 + delta, abs(n + 1) + 1.0 - delta
        exponent = 2.0 * nu
        lead = lead_out / (n + delta)

        def g_of_u(u):
            return g_from_alpha(ep, f, 2.0 * u ** (1.0 / exponent))

        # dg/du at u = 0 of g_from_alpha's closed form
        coeff_full = math.gamma(-nu) * (lead_out - lead_in) / ((n + delta) * alpha * math.gamma(nu))
        # g_from_alpha's code meets it: Richardson in u
        u = 1e-7
        d1 = (g_of_u(u) - lead) / u
        d2 = (g_of_u(u / 2.0) - lead) / (u / 2.0)
        richardson_worst = max(richardson_worst, abs((2.0 * d2 - d1) / coeff_full - 1.0))
        lead_printed = 1.0 if channel is Channel.SCHRODINGER_N else -1.0
        u_probe = 1e-3
        coeff_printed = (
            g_asymptotic(ep, f, 2.0 * u_probe ** (1.0 / exponent)) - lead_printed
        ) / u_probe
        # the full formula is the one that must round-trip
        for rho0 in (1e-3, 1e-2):
            g = g_from_alpha(ep, f, rho0)
            lr = limit_ratio(FluxShellProblem(rho0=rho0, g=g, l=l, flux=f, p=p))
            round_trip_worst = max(
                round_trip_worst, abs(lr / (alpha * p**exponent) - 1.0)
            )
        entries.append(
            {
                "channel": channel.value,
                "n": n,
                "delta": delta,
                "alpha": alpha,
                "leading_term": lead,
                "coefficient_full_formula": coeff_full,
                "coefficient_printed_asymptotic": coeff_printed,
                "coefficient_ratio": coeff_full / coeff_printed,
            }
        )
    recorded = json.loads((FIXTURES / "g_asymptotic_audit.json").read_text())
    matches_fixture = recorded == {"entries": entries}
    discrepant = sum(
        1
        for e in entries
        if abs(e["coefficient_full_formula"] - e["coefficient_printed_asymptotic"])
        > 0.05 * abs(e["coefficient_full_formula"])
    )
    ok = round_trip_worst <= 1e-6 and richardson_worst <= 1e-7 and matches_fixture
    _report(
        8,
        ok,
        f"asymptotic audit: {discrepant}/{len(entries)} printed first-order "
        f"coefficients disagree with the full formula (recorded in "
        f"fixtures/g_asymptotic_audit.json, matches: {matches_fixture}); "
        f"g_from_alpha's Richardson slope meets it to {richardson_worst:.2e} (<=1e-7); "
        f"round trip still exact to {round_trip_worst:.2e} (<=1e-6)",
    )


def test_criterion_09_dirac_condition_shape():
    worst = 0.0
    for delta in (0.3, 0.6):
        f = decompose(delta)
        for alpha in (0.7, 1.0, 2.5):
            ep = ExtensionParameter.finite(Channel.DIRAC_N, alpha)
            for s in (1, -1):
                for p_perp in _log_grid(0.01, 10.0, 25):
                    kin = DiracKinematics.from_momenta(1.0, p_perp, 0.0, s)
                    rec = (
                        dirac_ratio(ep, f, kin)
                        * (kin.M / kin.p_perp) ** (2.0 * delta)
                        * e_plus_sm(kin)
                        / kin.M
                    )
                    worst = max(worst, abs(rec / alpha - 1.0))
    refs_ok = True
    for phi in (2.3, -0.7, 0.4):
        f = decompose(phi)
        for s in (1, -1):
            ep = reference_extension_parameters(EquationKind.DIRAC, s, f)
            refs_ok &= ep.is_infinite if s * f.phi > 0 else ep.alpha == 0.0
    pair = reference_extension_parameters(EquationKind.SCHRODINGER, 1, decompose(2.3))
    refs_ok &= [e.alpha for e in pair] == [0.0, 0.0]
    ok = worst <= 1e-12 and refs_ok
    _report(
        9,
        ok,
        f"Dirac condition: momentum-shape constancy {worst:.2e} (<=1e-12), "
        f"reference values exact: {refs_ok}",
    )


def test_criterion_10_cli_contract():
    golden = {
        "decompose.json": ["decompose", "--phi", "2.3"],
        "overlap_verify.json": [
            "overlap", "--delta", "0.5", "--p", "2", "--pprime", "1", "--verify",
        ],
        "gfactor.json": [
            "gfactor", "--channel", "n", "--alpha", "0", "--enn", "0",
            "--delta", "0.4", "--rho0", "0.01",
        ],
    }
    golden_ok = True
    for name, args in golden.items():
        code, out, _ = run_cli(args)
        golden_ok &= code == 0 and out == (FIXTURES / name).read_bytes()
    code_a, out_a, _ = run_cli(golden["overlap_verify.json"])
    code_b, out_b, _ = run_cli(golden["overlap_verify.json"])
    determinism_ok = code_a == code_b == 0 and out_a == out_b
    code2, _, err2 = run_cli(["decompose", "--phi", "3.0"])
    invalid_ok = code2 == 2 and json.loads(err2)["error"] == "IntegerFluxError"
    code3, _, err3 = run_cli(
        ["fluxshell", "--l", "0", "--phi", "0.3", "--g", "1", "--p", "1",
         "--rho0", "0.01"]
    )
    numerical_ok = code3 == 3 and json.loads(err3)["error"] == "ResonantError"
    ok = golden_ok and determinism_ok and invalid_ok and numerical_ok
    _report(
        10,
        ok,
        f"CLI: golden files {golden_ok}, determinism {determinism_ok}, "
        f"exit 2 on invalid input {invalid_ok}, exit 3 on numerical failure "
        f"{numerical_ok}",
    )
