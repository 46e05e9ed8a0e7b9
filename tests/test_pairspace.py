import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st
from hypothesis.extra.numpy import arrays

from branchlab.errors import DimensionMismatchError
from branchlab.fields import CylindricalModeField, l2_distance_sq
from branchlab.pairspace import metric_sq_arrays, metric_sq_symmetric, selection_costs
from branchlab.quadrature import unit_ball

from conftest import C_NULL


def brute_force_metric_sq(a1, a2, b1, b2):
    """G(a, b)^2 for one pair of pairs, by enumerating both pairings."""
    keep = np.sum((a1 - b1) ** 2) + np.sum((a2 - b2) ** 2)
    swap = np.sum((a1 - b2) ** 2) + np.sum((a2 - b1) ** 2)
    return min(keep, swap)


@st.composite
def batches(draw, count, m):
    """count arrays of shape (N, m): the members of N pairs each, batched."""
    N = draw(st.integers(1, 8))
    comp = st.floats(-10, 10, allow_nan=False)
    return [draw(arrays(np.float64, (N, m), elements=comp)) for _ in range(count)]


def test_metric_identical_pairs_zero():
    p = np.array([1.0, 2.0])
    assert metric_sq_arrays(p, p, p, p) == 0.0


def test_metric_symmetric_vs_zero():
    v = np.array([3.0, 4.0])
    zero = np.zeros(2)
    # both pairings give the same value sqrt(2)|v|
    assert np.sqrt(metric_sq_arrays(v, -v, zero, zero)) == pytest.approx(np.sqrt(2) * 5.0,
                                                                          rel=1e-15)
    assert np.sqrt(metric_sq_symmetric(v, zero)) == pytest.approx(np.sqrt(2) * 5.0, rel=1e-15)


def test_metric_frozen_example():
    # computed by enumerating both pairings: min(7, 1) = 1
    a1, a2 = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    b1, b2 = np.array([0.0, 1.0]), np.array([2.0, 0.0])
    assert metric_sq_arrays(a1, a2, b1, b2) == 1.0


def test_metric_dimension_mismatch(spec_fast):
    # the pair metric between fields refuses values of different m
    u = CylindricalModeField.power_sum([(np.array([1.0 + 0j]), 1)], n=2)
    v = CylindricalModeField.power_sum([(C_NULL, 1)], n=2)
    with pytest.raises(DimensionMismatchError):
        l2_distance_sq(u, v, unit_ball(2), spec_fast)


def test_optimal_pairing_trivial_and_swap():
    # the nearest selection between symmetric pairs: keep against itself,
    # negate against its negative, and a tie (against zero) keeps the sign
    v = np.array([1.0, -2.0])
    keep, swap = selection_costs(v, v)
    assert keep == 0.0 < swap
    keep, swap = selection_costs(-v, v)
    assert swap == 0.0 < keep
    keep, swap = selection_costs(v, np.zeros(2))
    assert keep == swap


@settings(max_examples=150, deadline=None)
@given(batches(4, 3))
def test_optimal_pairing_matches_brute_force(pairs):
    a1, a2, b1, b2 = pairs
    vals = metric_sq_arrays(a1, a2, b1, b2)
    for i in range(a1.shape[0]):
        ref = brute_force_metric_sq(a1[i], a2[i], b1[i], b2[i])
        assert np.sqrt(vals[i]) == pytest.approx(np.sqrt(ref), abs=1e-12)
    # between symmetric pairs the optimal pairing is the nearer sign
    keep, swap = selection_costs(a1, b1)
    sym = metric_sq_arrays(a1, -a1, b1, -b1)
    np.testing.assert_array_equal(sym, 2.0 * np.minimum(keep, swap))


@settings(max_examples=150, deadline=None)
@given(batches(6, 2))
def test_metric_axioms(pairs):
    a1, a2, b1, b2, c1, c2 = pairs
    ab = np.sqrt(metric_sq_arrays(a1, a2, b1, b2))
    ba = np.sqrt(metric_sq_arrays(b1, b2, a1, a2))
    bc = np.sqrt(metric_sq_arrays(b1, b2, c1, c2))
    ac = np.sqrt(metric_sq_arrays(a1, a2, c1, c2))
    np.testing.assert_allclose(ab, ba, rtol=0, atol=1e-12)
    assert np.all(ac <= ab + bc + 1e-9)
    # the same on symmetric pairs {+-a1}, {+-b1}, {+-c1}
    ab = np.sqrt(metric_sq_symmetric(a1, b1))
    ba = np.sqrt(metric_sq_symmetric(b1, a1))
    bc = np.sqrt(metric_sq_symmetric(b1, c1))
    ac = np.sqrt(metric_sq_symmetric(a1, c1))
    np.testing.assert_allclose(ab, ba, rtol=0, atol=1e-12)
    assert np.all(ac <= ab + bc + 1e-9)


@settings(max_examples=100, deadline=None)
@given(batches(2, 2))
def test_metric_zero_iff_equal(pairs):
    a1, a2 = pairs
    # the stored order of a pair never matters
    assert np.all(metric_sq_arrays(a1, a2, a2, a1) == 0.0)
    assert np.all(metric_sq_symmetric(a1, -a1) == 0.0)
    assert np.all(metric_sq_arrays(a1, a2, a1 + 1.0, a2) > 0.0)


@settings(max_examples=100, deadline=None)
@given(batches(2, 3))
def test_norm_is_distance_to_zero(pairs):
    a1, a2 = pairs
    zero = np.zeros_like(a1)
    norm_sq = np.sum(a1 ** 2, axis=-1) + np.sum(a2 ** 2, axis=-1)
    np.testing.assert_array_equal(metric_sq_arrays(a1, a2, zero, zero), norm_sq)


def test_pairing_invariance_of_norm_sq():
    a1, a2 = np.array([1.0, 2.0]), np.array([3.0, -1.0])
    zero = np.zeros(2)
    assert metric_sq_arrays(a1, a2, zero, zero) == metric_sq_arrays(a2, a1, zero, zero)


def test_vectorized_metric_matches_scalar():
    rng = np.random.default_rng(3)
    a1, a2, b1, b2 = rng.standard_normal((4, 20, 3))
    vals = metric_sq_arrays(a1, a2, b1, b2)
    for i in range(20):
        ref = brute_force_metric_sq(a1[i], a2[i], b1[i], b2[i])
        assert vals[i] == pytest.approx(ref, rel=1e-12)
    s, t = rng.standard_normal((2, 20, 3))
    vals_s = metric_sq_symmetric(s, t)
    for i in range(20):
        ref = brute_force_metric_sq(s[i], -s[i], t[i], -t[i])
        assert vals_s[i] == pytest.approx(ref, rel=1e-12, abs=1e-14)
