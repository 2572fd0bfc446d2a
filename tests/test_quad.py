"""The Gauss-Kronrod G10/K21 table of the kernels, checked to its rounding.

`product_quad` accepts a cell when the two estimates agree, so a mistyped
node or weight would show only as extra bisections or a loose result; these
tests compare the table with Legendre's nodes and the moments of [-1, 1].
"""

import math

import numpy as np
import pytest

from abmodes._kernels_py import _GK21, _K21_CENTER


def test_gauss_nodes_and_weights_are_legendres():
    nodes, weights = np.polynomial.legendre.leggauss(10)
    expected = [(x, w) for x, w in zip(nodes, weights) if x > 0.0]
    ours = [(x, wg) for x, _, wg in _GK21 if wg != 0.0]
    assert len(ours) == len(expected) == 5
    for (x, w), (x_ref, w_ref) in zip(ours, sorted(expected)):
        assert abs(x - x_ref) <= 1e-15 and abs(w - w_ref) <= 1e-15


def _even_moment(k, center, pairs):
    # the rule applied to x^(2k) on [-1, 1]; x^0 at the center node is 1
    return math.fsum([center if k == 0 else 0.0] + [2.0 * w * x ** (2 * k) for x, w in pairs])


# the rounded table misses the moments by at most 5.6e-17; a digit swap in
# the last two digits of a weight costs 7e-16
MOMENT_TOL = 2e-16


@pytest.mark.parametrize("k", range(16))
def test_kronrod_is_exact_to_degree_31(k):
    value = _even_moment(k, _K21_CENTER, [(x, wk) for x, wk, _ in _GK21])
    assert abs(value - 2.0 / (2 * k + 1)) <= MOMENT_TOL


@pytest.mark.parametrize("k", range(10))
def test_gauss_is_exact_to_degree_19(k):
    value = _even_moment(k, 0.0, [(x, wg) for x, _, wg in _GK21])
    assert abs(value - 2.0 / (2 * k + 1)) <= MOMENT_TOL
