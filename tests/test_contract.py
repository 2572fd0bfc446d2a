"""The library's error contract as a property: every public function returns
finite doubles or raises an AbmodesError, whatever floats it is given."""

import dataclasses
import inspect
import math

import pytest
from hypothesis import HealthCheck, event, example, given, settings
from hypothesis import strategies as st

import abmodes
from abmodes import specfun
from abmodes.errors import AbmodesError, NumericalFailureError, checked
from abmodes.flux import EquationKind
from abmodes.sae import Channel, ExtensionParameter
from conftest import FLOATS

_L = st.one_of(st.integers(-3, 3), st.sampled_from([10**6, -(10**6)]))
# None is the infinite extension parameter
_ALPHA = st.one_of(st.none(), FLOATS)
_CHANNEL = st.sampled_from(list(Channel))
_KIND = st.sampled_from(list(EquationKind))
_SPIN = st.sampled_from([1, -1, 0])
# the raw arguments of a Schrodinger mode (l, phi, p, a, b), of a shell
# (rho0, g, l, phi, p) and of Dirac kinematics (M, p_perp, p3, s)
_MODE = (_L, FLOATS, FLOATS, FLOATS, FLOATS)
_SHELL = (FLOATS, FLOATS, _L, FLOATS, FLOATS)
_KIN = (FLOATS, FLOATS, FLOATS, _SPIN)


def _ep(channel, alpha):
    if alpha is None:
        return ExtensionParameter.infinite(channel)
    return ExtensionParameter.finite(channel, alpha)


def _flux(phi):
    return abmodes.decompose(phi)


def _mode(l, phi, p, a, b):
    return abmodes.make_schrodinger_mode(l, _flux(phi), p, a, b)


def _shell(rho0, g, l, phi, p):
    return abmodes.FluxShellProblem(rho0=rho0, g=g, l=l, flux=_flux(phi), p=p)


def _kin(M, p_perp, p3, s):
    return abmodes.DiracKinematics.from_momenta(M, p_perp, p3, s)


def _mode_pair(overlap):
    # two modes of one channel: (p', a', b', l, phi, p, a, b)
    def call(p2, a2, b2, l, phi, p, a, b):
        return overlap(_mode(l, phi, p, a, b), _mode(l, phi, p2, a2, b2))

    return (call, FLOATS, FLOATS, FLOATS, *_MODE)


def _dictionary(form):
    # (channel, alpha, phi, rho0, M)
    def call(channel, alpha, phi, rho0, M):
        return form(_ep(channel, alpha), _flux(phi), rho0, M)

    return (call, _CHANNEL, _ALPHA, FLOATS, FLOATS, FLOATS)


# name -> (call taking raw arguments, one strategy per raw argument); the
# inputs are built inside the call, so that their constructors' refusals
# count too
_CASES = {
    "bessel_j": (abmodes.bessel_j, FLOATS, FLOATS),
    "bessel_j_and_prime": (specfun.bessel_j_and_prime, FLOATS, FLOATS),
    "bessel_j_and_prime_many": (
        specfun.bessel_j_and_prime_many, FLOATS, st.lists(FLOATS, max_size=4)
    ),
    "bessel_j_prime": (abmodes.bessel_j_prime, FLOATS, FLOATS),
    "boundary_ratio_from_alpha": (abmodes.boundary_ratio_from_alpha, FLOATS, FLOATS),
    "closed_form_cross": (abmodes.closed_form_cross, FLOATS, FLOATS, FLOATS),
    "closed_form_same": (abmodes.closed_form_same, FLOATS, FLOATS, FLOATS),
    "critical_channels": (
        lambda phi, kind: abmodes.critical_channels(_flux(phi), kind), FLOATS, _KIND
    ),
    "decompose": (abmodes.decompose, FLOATS),
    "dirac_ratio": (
        lambda channel, alpha, phi, *kin: abmodes.dirac_ratio(
            _ep(channel, alpha), _flux(phi), _kin(*kin)
        ),
        _CHANNEL, _ALPHA, FLOATS, *_KIN,
    ),
    "evaluate": (lambda rho, *mode: abmodes.evaluate(_mode(*mode), rho), FLOATS, *_MODE),
    "finite_part_estimate": (abmodes.finite_part_estimate, FLOATS, FLOATS, FLOATS, FLOATS),
    "fit_cancelling_exponent": (
        lambda phi, l, momenta: abmodes.fit_cancelling_exponent(_flux(phi), l, momenta),
        FLOATS, _L, st.lists(FLOATS, min_size=1, max_size=4),
    ),
    "fit_delta_coefficient": (abmodes.fit_delta_coefficient, FLOATS, FLOATS, FLOATS, FLOATS),
    "g_asymptotic": _dictionary(abmodes.g_asymptotic),
    "g_from_alpha": _dictionary(abmodes.g_from_alpha),
    "gamma": (abmodes.gamma, FLOATS),
    "limit_ratio": (lambda *shell: abmodes.limit_ratio(_shell(*shell)), *_SHELL),
    "make_dirac_mode": (
        lambda l, phi, a, b, *kin: abmodes.make_dirac_mode(l, _flux(phi), _kin(*kin), a, b),
        _L, FLOATS, FLOATS, FLOATS, *_KIN,
    ),
    "make_extended_mode": (
        lambda channel, alpha, phi, p, M: abmodes.make_extended_mode(
            _ep(channel, alpha), _flux(phi), p, M
        ),
        _CHANNEL, _ALPHA, FLOATS, FLOATS, FLOATS,
    ),
    "make_schrodinger_mode": (_mode, *_MODE),
    "matching_ratio": (lambda *shell: abmodes.matching_ratio(_shell(*shell)), *_SHELL),
    "mode_overlap_finite_part": _mode_pair(abmodes.mode_overlap_finite_part),
    "mode_overlap_finite_part_numeric": _mode_pair(abmodes.mode_overlap_finite_part_numeric),
    "piecewise_solution": (
        lambda a, b, rho, *shell: abmodes.piecewise_solution(_shell(*shell), a, b)(rho),
        FLOATS, FLOATS, FLOATS, *_SHELL,
    ),
    "radial_order": (lambda l, phi: abmodes.radial_order(l, _flux(phi)), _L, FLOATS),
    "reference_extension_parameters": (
        lambda kind, s, phi: abmodes.reference_extension_parameters(kind, s, _flux(phi)),
        _KIND, _SPIN, FLOATS,
    ),
    "resonance_defect": (
        lambda l, phi, g: abmodes.resonance_defect(l, _flux(phi), g), _L, FLOATS, FLOATS
    ),
    "schrodinger_ratio": (
        lambda channel, alpha, phi, p, M: abmodes.schrodinger_ratio(
            _ep(channel, alpha), _flux(phi), p, M
        ),
        _CHANNEL, _ALPHA, FLOATS, FLOATS, FLOATS,
    ),
    "small_rho_signature": (
        lambda M, *mode: abmodes.small_rho_signature(_mode(*mode), M), FLOATS, *_MODE
    ),
    "solve_g": (
        lambda target, g_lo, g_hi, *shell: abmodes.solve_g(_shell(*shell), target, g_lo, g_hi),
        FLOATS, FLOATS, FLOATS, *_SHELL,
    ),
    # a small budget, so that no example runs long
    "windowed_overlap": (
        lambda nu, mu, p, pp, L, tol: abmodes.windowed_overlap(
            nu, mu, p, pp, L, tol=tol, panel_budget=1000
        ),
        FLOATS, FLOATS, FLOATS, FLOATS, FLOATS, FLOATS,
    ),
}


def _all_finite(value):
    if isinstance(value, float):
        return math.isfinite(value)
    if isinstance(value, tuple):
        return all(map(_all_finite, value))
    if dataclasses.is_dataclass(value):
        return all(_all_finite(getattr(value, f.name)) for f in dataclasses.fields(value))
    return True


def test_every_public_function_has_a_case():
    public = {name for name in abmodes.__all__ if inspect.isfunction(getattr(abmodes, name))}
    assert set(_CASES) == public | {"bessel_j_and_prime", "bessel_j_and_prime_many"}


_calls = st.sampled_from(sorted(_CASES)).flatmap(
    lambda name: st.tuples(st.just(name), st.tuples(*_CASES[name][1:]))
)


@settings(
    max_examples=1500,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(call=_calls)
# calls that returned inf or NaN, or raised ZeroDivisionError
@example(call=("gamma", (5e-324,)))
@example(call=("gamma", (-5e-324,)))
@example(call=("boundary_ratio_from_alpha", (0.7, 5e-324)))
@example(call=("fit_delta_coefficient",
               (2.5230900935014056, 2.5230900935014056, 0.4346212843208531, 1e-310)))
@example(call=("g_from_alpha",
               (Channel.SCHRODINGER_N, -1.7976931348623157e308, 0.3, 0.5, 1.0)))
@example(call=("g_asymptotic", (Channel.SCHRODINGER_N, 1e-310, 0.3, 1.0, 1.0)))
@example(call=("evaluate", (1e-40, 0, 0.3, 1.0, 1.0, -1e300)))
@example(call=("limit_ratio",
               (1.7976931348623157e308, 0.5, 2, 3.316154357451058, 2.0)))
@example(call=("windowed_overlap", (0.0, 0.0, 2.5e-154, 2.5e-154, 1.44e155, 1.7e308)))
@example(call=("windowed_overlap", (0.0, 0.0, 3e-154, 3e-154, 2.5e155, 1.7e308)))
@example(call=("fit_delta_coefficient", (0.3, -0.3, 5e-324, 5e-324)))
# calls that once ended in a traceback, ran without end or escaped the order
# cap, and one whose p r/2 underflows under a negative order
@example(call=("windowed_overlap", (1.0, 1e-13, math.nan, 3.0, 2.0, 1e-9)))
@example(call=("windowed_overlap", (math.inf, 3.0, 0.25, 3.0, 0.01, 1e-9)))
@example(call=("windowed_overlap", (0.3, 0.3, 1.0, 1.0, math.nan, 1e-9)))
@example(call=("windowed_overlap", (7.0, 0.3, 1.0, 2.0, 30.0, 1e-9)))
@example(call=("windowed_overlap", (-0.9, 0.9, 5e-324, 1.0, 1.0, 1e-9)))
# NaN inputs that passed as valid
@example(call=("small_rho_signature", (math.nan, 0, 0.3, 1.0, 1.0, 1.0)))
@example(call=("resonance_defect", (0, 0.3, math.nan)))
def test_every_call_keeps_the_contract(call):
    name, args = call
    try:
        result = _CASES[name][0](*args)
    except AbmodesError as exc:
        event(f"{name}: {type(exc).__name__}")
        return
    event(f"{name}: returns")
    assert _all_finite(result), (name, args, result)


def test_messages_cut_only_long_arguments():
    # each argument's repr up to 200 characters prints whole, a longer one
    # keeps its first and last 98
    @checked
    def overflows(*args, **kwargs):
        raise OverflowError

    x = -1.2345678901234567e-300
    flux = abmodes.decompose(-4503599627370495.5)
    shell = abmodes.FluxShellProblem(rho0=-x, g=x, l=-(10**6), flux=flux, p=-x)  # 190
    ordinary = (x, [5e-324] * 3, flux, Channel.SCHRODINGER_N_PLUS_1, shell)
    with pytest.raises(NumericalFailureError) as info:
        overflows(*ordinary, tol=1e-9)
    assert str(info.value) == (
        f"overflows({', '.join(map(repr, ordinary))}, tol=1e-09) overflows a double"
    )
    digits = "1234567890" * 30
    with pytest.raises(NumericalFailureError) as info:
        overflows(0.3, int(digits))
    assert str(info.value) == f"overflows(0.3, {digits[:98]}...{digits[-98:]}) overflows a double"
