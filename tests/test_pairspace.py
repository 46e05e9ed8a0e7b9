import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st
from hypothesis.extra.numpy import arrays

from branchlab.errors import DimensionMismatchError
from branchlab.fields import CylindricalModeField, l2_distance_sq
from branchlab.pairspace import metric_sq_symmetric, selection_costs
from branchlab.quadrature import unit_ball

from conftest import C_NULL


def brute_force_metric_sq(a1, a2, b1, b2):
    """G({a1, a2}, {b1, b2})^2 for one pair of pairs, by enumerating both pairings."""
    keep = np.sum((a1 - b1) ** 2) + np.sum((a2 - b2) ** 2)
    swap = np.sum((a1 - b2) ** 2) + np.sum((a2 - b1) ** 2)
    return min(keep, swap)


@st.composite
def batches(draw, count, m):
    """count arrays of shape (N, m): the representatives a of N pairs {+-a} each, batched."""
    N = draw(st.integers(1, 8))
    comp = st.floats(-10, 10, allow_nan=False)
    return [draw(arrays(np.float64, (N, m), elements=comp)) for _ in range(count)]


def test_metric_identical_pairs_zero():
    p = np.array([1.0, 2.0])
    assert metric_sq_symmetric(p, p) == 0.0
    assert metric_sq_symmetric(p, -p) == 0.0


def test_metric_symmetric_vs_zero():
    v = np.array([3.0, 4.0])
    zero = np.zeros(2)
    # both pairings give the same value sqrt(2)|v|
    assert np.sqrt(metric_sq_symmetric(v, zero)) == pytest.approx(np.sqrt(2) * 5.0, rel=1e-15)
    assert np.sqrt(brute_force_metric_sq(v, -v, zero, zero)) == pytest.approx(np.sqrt(2) * 5.0,
                                                                               rel=1e-15)


def test_metric_frozen_example():
    # {+-a} against {+-b}, by enumerating both pairings: min(0.5 + 0.5, 2.5 + 2.5) = 1
    a, b = np.array([1.0, 0.0]), np.array([0.5, 0.5])
    assert metric_sq_symmetric(a, b) == 1.0
    assert metric_sq_symmetric(-a, b) == 1.0


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
@given(batches(2, 3))
def test_optimal_pairing_matches_brute_force(pairs):
    a, b = pairs
    vals = metric_sq_symmetric(a, b)
    for i in range(a.shape[0]):
        ref = brute_force_metric_sq(a[i], -a[i], b[i], -b[i])
        assert np.sqrt(vals[i]) == pytest.approx(np.sqrt(ref), abs=1e-12)
    # the optimal pairing is the nearer sign
    keep, swap = selection_costs(a, b)
    np.testing.assert_array_equal(vals, 2.0 * np.minimum(keep, swap))


@settings(max_examples=150, deadline=None)
@given(batches(3, 2))
def test_metric_axioms(pairs):
    a, b, c = pairs
    ab = np.sqrt(metric_sq_symmetric(a, b))
    ba = np.sqrt(metric_sq_symmetric(b, a))
    bc = np.sqrt(metric_sq_symmetric(b, c))
    ac = np.sqrt(metric_sq_symmetric(a, c))
    np.testing.assert_allclose(ab, ba, rtol=0, atol=1e-12)
    assert np.all(ac <= ab + bc + 1e-9)


@settings(max_examples=100, deadline=None)
@given(batches(1, 2))
def test_metric_zero_iff_equal(pairs):
    (a,) = pairs
    # the sign of the stored representative never matters
    assert np.all(metric_sq_symmetric(a, a) == 0.0)
    assert np.all(metric_sq_symmetric(a, -a) == 0.0)
    # {+-a} = {+-b} exactly when b = a or b = -a
    b = a + 1.0
    same = np.all(b == a, axis=-1) | np.all(b == -a, axis=-1)
    np.testing.assert_array_equal(metric_sq_symmetric(a, b) == 0.0, same)


@settings(max_examples=100, deadline=None)
@given(batches(1, 3))
def test_norm_is_distance_to_zero(pairs):
    (a,) = pairs
    norm_sq = 2.0 * np.sum(a ** 2, axis=-1)  # |a|^2 + |-a|^2
    np.testing.assert_array_equal(metric_sq_symmetric(a, np.zeros_like(a)), norm_sq)


def test_pairing_invariance_of_norm_sq():
    a, zero = np.array([1.0, 2.0]), np.zeros(2)
    assert metric_sq_symmetric(a, zero) == metric_sq_symmetric(-a, zero) == 10.0


def test_vectorized_metric_matches_scalar():
    rng = np.random.default_rng(3)
    s, t = rng.standard_normal((2, 20, 3))
    vals_s = metric_sq_symmetric(s, t)
    for i in range(20):
        ref = brute_force_metric_sq(s[i], -s[i], t[i], -t[i])
        assert vals_s[i] == pytest.approx(ref, rel=1e-12, abs=1e-14)
