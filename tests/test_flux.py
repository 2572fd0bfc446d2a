"""Flux decomposition and channel classification."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abmodes.errors import IntegerFluxError
from abmodes.flux import EquationKind, critical_channels, decompose, radial_order


def test_decompose_positive():
    f = decompose(2.3)
    assert f.n == 2
    assert f.delta == pytest.approx(0.3, abs=1e-15)
    assert f.n + f.delta == f.phi


def test_decompose_negative():
    f = decompose(-0.7)
    assert f.n == -1
    assert f.delta == pytest.approx(0.3, abs=1e-15)
    assert f.n + f.delta == f.phi


def test_decompose_rounds_the_fraction():
    # 1 - 1/3 is not a double, so delta is rounded and n + delta misses phi
    # (this once raised ValueError, a traceback from the CLI)
    f = decompose(-1.0 / 3.0)
    assert (f.n, f.delta) == (-1, -1.0 / 3.0 + 1.0)
    assert f.n + f.delta != f.phi


@pytest.mark.parametrize("phi", [3.0, 0.0, -5.0, 2.0 + 1e-13])
def test_integer_flux_rejected(phi):
    with pytest.raises(IntegerFluxError):
        decompose(phi)


@pytest.mark.parametrize("phi", [float("nan"), float("inf")])
def test_nonfinite_flux_rejected(phi):
    with pytest.raises(IntegerFluxError):
        decompose(phi)


def test_critical_channels():
    f = decompose(2.3)
    assert critical_channels(f, EquationKind.SCHRODINGER) == frozenset({2, 3})
    assert critical_channels(f, EquationKind.DIRAC) == frozenset({2})
    fneg = decompose(-0.7)
    assert critical_channels(fneg, EquationKind.SCHRODINGER) == frozenset({-1, 0})


def test_radial_order():
    f = decompose(2.3)
    assert radial_order(2, f) == pytest.approx(0.3, abs=1e-15)
    assert radial_order(3, f) == pytest.approx(0.7, abs=1e-15)
    assert radial_order(0, f) == pytest.approx(2.3, abs=1e-15)


@given(st.integers(-6, 6), st.floats(min_value=1e-6, max_value=1.0 - 1e-6))
@settings(max_examples=300, deadline=None)
def test_decompose_idempotent(n, delta):
    f = decompose(n + delta)
    f2 = decompose(f.n + f.delta)
    assert (f2.n, f2.delta) == (f.n, f.delta)


@given(st.integers(-6, 6), st.floats(min_value=1e-6, max_value=1.0 - 1e-6))
@settings(max_examples=300, deadline=None)
def test_critical_orders_inside_unit_interval(n, delta):
    f = decompose(n + delta)
    orders = {radial_order(l, f) for l in critical_channels(f, EquationKind.SCHRODINGER)}
    for nu in orders:
        assert 0.0 < nu < 1.0
    assert sorted(orders) == pytest.approx(sorted({f.delta, 1.0 - f.delta}), abs=1e-15)


@given(st.integers(-6, 6), st.floats(min_value=1e-6, max_value=1.0 - 1e-6))
@settings(max_examples=100, deadline=None)
def test_dirac_subset_of_schrodinger(n, delta):
    f = decompose(n + delta)
    assert critical_channels(f, EquationKind.DIRAC) <= critical_channels(
        f, EquationKind.SCHRODINGER
    )
