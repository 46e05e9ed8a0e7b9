import json
import os

import numpy as np
import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st
from hypothesis.extra.numpy import arrays

from branchlab import cli
from branchlab.decay import iterate
from branchlab.errors import DomainError, PairingError
from branchlab.fields import (BranchPolynomialField, CylindricalMode,
                              CylindricalModeField, Field, PolarGrid,
                              RescaledField, SampledField, graded_radii,
                              l2_distance_sq, propagate_signs)
from branchlab.frequency import frequency_profile
from branchlab.minimizer import BoundaryTrace, CoverGridSpec, solve_branched_laplace
from branchlab.pairspace import metric_sq_symmetric
from branchlab.profiles import CylindricalProfile, fit_c, fit_profile
from branchlab.quadrature import Ball, QuadratureSpec, _ring_points, ball_rule, unit_ball

from conftest import C_NULL, PointRecorder, cover_points, power_sum_norm_sq


# -- evaluation -------------------------------------------------------------

def test_eval_half_power_real_axis():
    u = CylindricalModeField.power_sum([(np.array([1.0 + 0j]), 1)], n=2)
    s = u.symmetric_values(np.array([[1.0, 0.0]]))
    assert {s[0, 0], -s[0, 0]} == {1.0, -1.0}


def test_eval_half_power_imag_axis():
    # z = i, z^(1/2) = e^(i pi/4), Re = sqrt(2)/2 (complex arithmetic oracle)
    u = CylindricalModeField.power_sum([(np.array([1.0 + 0j]), 1)], n=2)
    s = u.symmetric_values(np.array([[0.0, 1.0]]))
    assert abs(s[0, 0]) == pytest.approx(0.7071067811865476, abs=1e-15)


def test_branch_polynomial_zero_set():
    # {pm ((x1+ix2)^2 - 1/j^2)^(1/2)} vanishes exactly at (+-1/j, 0)
    j = 3.0
    u = BranchPolynomialField([-1.0 / j ** 2, 0.0, 1.0])
    for sgn in (1.0, -1.0):
        val = u.symmetric_values(np.array([[sgn / j, 0.0]]))
        assert np.linalg.norm(val) < 1e-8
    off = u.symmetric_values(np.array([[0.5, 0.2]]))
    assert np.linalg.norm(off) > 0.1


def test_gradient_linear_field():
    # gradient of Re(c z), c = (1, i): rows (1, 0) and (0, -1)
    u = CylindricalModeField.power_sum([(np.array([1.0, 1.0j]), 2)], n=2)
    g = u.symmetric_gradient(np.array([[0.3, 0.1]]))[0]
    assert np.allclose(g, [[1.0, 0.0], [0.0, -1.0]], atol=1e-13)


def test_gradient_singular_at_branch_point():
    u = CylindricalModeField.power_sum([(C_NULL, 1)], n=2)
    assert not np.all(np.isfinite(u.symmetric_gradient(np.zeros((1, 2)))))


def test_gradient_fd_cross_check():
    rng = np.random.default_rng(5)
    u = CylindricalModeField.power_sum([(C_NULL, 1), (0.3 * C_NULL, 5)], n=2)
    X = rng.uniform(0.2, 0.7, size=(10, 2))
    g = u.symmetric_gradient(X)
    eps = 1e-6
    for axis in range(2):
        dX = np.zeros_like(X)
        dX[:, axis] = eps
        fd = (u.symmetric_values(X + dX) - u.symmetric_values(X - dX)) / (2 * eps)
        assert np.max(np.abs(fd - g[:, :, axis])) < 1e-8


def test_mixed_parity_rejected():
    with pytest.raises(ValueError):
        CylindricalModeField.power_sum([(C_NULL, 1), (C_NULL, 2)], n=2)


@settings(max_examples=40, deadline=None)
@given(st.floats(0.1, 3.0), st.floats(-np.pi, np.pi), st.floats(0.2, 2.0))
def test_homogeneity(r, theta, lam):
    u = CylindricalModeField.power_sum([(C_NULL, 3)], n=2)
    X = np.array([[r * np.cos(theta), r * np.sin(theta)]])
    s1 = u.symmetric_values(lam * X)
    s0 = u.symmetric_values(X)
    # pair-level homogeneity: |s(lam X)| = lam^alpha |s(X)|
    assert np.linalg.norm(s1) == pytest.approx(lam ** 1.5 * np.linalg.norm(s0), rel=1e-10)


@settings(max_examples=40, deadline=None)
@given(st.floats(-0.7, 0.7), st.floats(-0.7, 0.7), st.floats(-0.9, 0.9))
def test_cylindrical_invariance(x1, x2, y):
    u = CylindricalModeField.power_sum([(C_NULL, 1)], n=3)
    a = u.symmetric_values(np.array([[x1, x2, y]]))
    b = u.symmetric_values(np.array([[x1, x2, 0.0]]))
    assert np.allclose(a, b, atol=1e-14)


def _symmetric_gradient_reference(u, X):
    """CylindricalModeField.symmetric_gradient as it was written for every mode,
    with two trigonometric powers per mode.

    a and b are multiplied by r^(beta - 1) before the angular products: a
    subnormal coefficient times cos or sin would otherwise round to an
    absolute 2^-1074 before r^(beta - 1) scales it up; scaled first, the
    products are normal and round relatively.
    """
    r, theta = np.hypot(X[:, 0], X[:, 1]), np.arctan2(X[:, 1], X[:, 0])
    out = np.zeros((X.shape[0], u.m, u.n))
    ct, st_ = np.cos(theta), np.sin(theta)
    with np.errstate(divide="ignore", invalid="ignore"):
        for md in u.modes:
            cf = np.cos(md.freq * theta)
            sf = np.sin(md.freq * theta)
            rad1 = r[:, None] ** (md.beta - 1.0)
            a, b = rad1 * md.a, rad1 * md.b
            ang = cf[:, None] * a + sf[:, None] * b
            dang = md.freq * (-sf[:, None] * a + cf[:, None] * b)
            ds_dr = md.beta * ang
            out[:, :, 0] += ct[:, None] * ds_dr - st_[:, None] * dang
            out[:, :, 1] += st_[:, None] * ds_dr + ct[:, None] * dang
    return out


def _complex_gradient_reference(u, X):
    """The gradient of an all-harmonic power sum Re sum c z^(k/2) as it was
    written before every mode took the Wirtinger form: (Re f', -Im f') with
    f' = sum (k/2) c s^(k-2), s = sqrt(z), k a Python int."""
    terms = [(md.a - 1j * md.b, int(round(2 * md.freq))) for md in u.modes]
    z = np.empty(X.shape[0], dtype=complex)
    z.real, z.imag = X[:, 0], X[:, 1]
    s = np.sqrt(z)
    with np.errstate(divide="ignore", invalid="ignore"):
        fp = sum((0.5 * k * s ** (k - 2))[:, None] * c for c, k in terms)
    out = np.zeros((X.shape[0], u.m, u.n))
    out[:, :, 0], out[:, :, 1] = fp.real, -fp.imag
    return out


_coef = st.floats(-2.0, 2.0, allow_nan=False)


@st.composite
def _mode_fields(draw, dims=(2, 3, 4)):
    """Mode fields of one angular parity."""
    n = draw(st.sampled_from(dims))
    m = draw(st.integers(1, 3))
    half = draw(st.sampled_from([0.0, 0.5]))
    modes = []
    for _ in range(draw(st.integers(1, 3))):
        modes.append(CylindricalMode(draw(st.sampled_from([0.5, 1.0, 1.5, 2.0, 3.5])),
                                     draw(st.integers(0, 4)) + half,
                                     draw(st.lists(_coef, min_size=m, max_size=m)),
                                     draw(st.lists(_coef, min_size=m, max_size=m))))
    return CylindricalModeField(modes, n=n)


def _points(draw, n):
    rows = draw(st.integers(1, 6))
    X = draw(arrays(np.float64, (rows, n), elements=st.floats(-1.0, 1.0)))
    return np.vstack([X, np.zeros((1, n))])  # the origin, where r^(beta - 1) blows up


def _symmetric_values_reference(u, X):
    """CylindricalModeField.symmetric_values as written, one cos/sin pair per mode."""
    r, theta = np.hypot(X[:, 0], X[:, 1]), np.arctan2(X[:, 1], X[:, 0])
    out = np.zeros((X.shape[0], u.m))
    for md in u.modes:
        ang = np.cos(md.freq * theta)[:, None] * md.a + np.sin(md.freq * theta)[:, None] * md.b
        out += (r ** md.beta)[:, None] * ang
    return out


@st.composite
def _power_sum_fields(draw, rescaled=True):
    """{+-Re sum c z^(k/2)} with 1-3 terms of one parity, maybe viewed through a RescaledField."""
    n, m = draw(st.sampled_from([2, 3, 4])), draw(st.integers(1, 3))
    parity = draw(st.integers(0, 1))
    terms = []
    for _ in range(draw(st.integers(1, 3))):
        k = 2 * draw(st.integers(1 - parity, 3)) + parity
        re, im = (np.array(draw(st.lists(_coef, min_size=m, max_size=m))) for _ in range(2))
        terms.append((re + 1j * im, k))
    u = CylindricalModeField.power_sum(terms, n=n)
    if rescaled and draw(st.booleans()):
        Y = np.array([0.0, 0.0] + draw(st.lists(st.floats(-0.5, 0.5), min_size=n - 2,
                                                max_size=n - 2)))
        u = RescaledField(u, Y, draw(st.floats(0.1, 2.0)), draw(st.floats(0.5, 3.0)))
    return u


def _cut_points(draw, n):
    """_points plus points on the negative x1 axis with x2 = +0.0 and x2 = -0.0."""
    X = _points(draw, n)
    cut = np.zeros((2, n))
    cut[:, 0] = -draw(st.floats(0.05, 1.0))
    cut[:, 2:] = draw(st.floats(-1.0, 1.0))
    cut[1, 1] = -0.0
    return np.vstack([X, cut])


def _unwrap(u, X):
    """(mode field, its points, gradient factor) behind a possibly rescaled field."""
    if isinstance(u, RescaledField):
        return u.base, u._map(X), u.rho / u.scale
    return u, X, 1.0


@st.composite
def _mode_sums_and_cut_points(draw, harmonic):
    """A power sum (harmonic) or any mode field, and cut points of its dimension."""
    u = draw(_power_sum_fields() if harmonic else st.one_of(_power_sum_fields(), _mode_fields()))
    return u, _cut_points(draw, u.n)


def _signed_zero_examples(test):
    """Power sums read on both sides of the cut, subnormal coefficients among them."""
    for case in [
        (CylindricalModeField.power_sum([(5e-324 + 0j, 1)], n=2),
         np.array([[-0.5, 0.0], [-0.5, -0.0]])),
        (CylindricalModeField.power_sum([(1j, 7), (2j, 1)], n=2),
         np.array([[-0.65625, 0.0], [-0.65625, -0.0]])),
        (CylindricalModeField.power_sum([(-4.8e-112 - 0.5j, 4), (-4.8e-112 + 0.5j, 4)], n=2),
         np.array([[-0.5, 0.0], [-0.5, -0.0]])),
        (CylindricalModeField.power_sum([(5e-324j, 1)], n=3),
         np.array([[0.0, 0.0, 0.0], [-1.0, 0.0, 0.0], [-1.0, -0.0, 0.0]])),
        (CylindricalModeField.power_sum([(2.2e-311j, 1)], n=2),
         np.array([[2.0 ** -126, 2.0 ** -126], [-0.5, 0.0], [-0.5, -0.0]])),
    ]:
        test = example(case)(test)
    return test


@settings(max_examples=300, deadline=None)
@given(_mode_sums_and_cut_points(harmonic=True))
@_signed_zero_examples
def test_power_sum_gradient_keeps_its_bits(case):
    # the one Wirtinger formula takes a harmonic mode as (k/2) c s^(k-2) alone,
    # so all-harmonic gradients keep every bit, signed zeros included
    u, X = case
    base, Xb, factor = _unwrap(u, X)
    ref = _complex_gradient_reference(base, Xb) * factor
    got = u.symmetric_gradient(X)
    np.testing.assert_array_equal(got, ref)
    assert got.tobytes() == ref.tobytes()


@settings(max_examples=300, deadline=None)
@given(_mode_sums_and_cut_points(harmonic=False))
@_signed_zero_examples
def test_power_sum_gradient_matches_trig_reference(case):
    u, X = case
    base, Xb, factor = _unwrap(u, X)
    ref = _symmetric_gradient_reference(base, Xb) * factor
    got = u.symmetric_gradient(X)
    r = np.hypot(Xb[:, 0], Xb[:, 1])
    # At the axis a mode with both factors p, q nonzero has no direction s/|s|
    # and reads nan, where the reference takes the limit along theta = 0 (or
    # pi); every other point, and every point of an all-harmonic sum, is compared.
    both = any(md.beta != abs(md.freq) for md in base.modes)
    rows = ((r > 0) | (not both))[:, None, None]
    finite = np.isfinite(ref) & rows
    np.testing.assert_array_equal(np.isfinite(got) & rows, finite)
    # A subnormal r = hypot(x1, x2) keeps only a few digits, so there the reference
    # is the inaccurate side (8e-13 relative at r = 3e-313 against a 200-bit
    # evaluation, where sqrt(z) is within 2e-16); compare values at r = 0 or normal r.
    check = finite & ((r == 0) | (r >= np.finfo(float).tiny))[:, None, None]
    # Both sides round to ulps of the largest term, not of the sum, where the terms
    # cancel, so the scale is per point and value component: the term sizes
    # sum |c| (|p| + |q|) r^(beta - 1), c = a - ib, which for a harmonic term is
    # |c| (k/2) r^(k/2 - 1).  It is floored at tiny: where it is subnormal,
    # 1e-14 relative is below one subnormal ulp, and the complex path's correctly
    # rounded +-5e-324 must pass where the trigonometric reference underflows to 0.
    # At r = 0 a term with k = 1 and |c| (k/2) underflowing to 0 sizes as 0 inf =
    # nan; fmax floors that at tiny too, where the finite x3 components are 0.
    with np.errstate(divide="ignore", invalid="ignore"):
        sizes = sum(np.where(c != 0, np.abs(c) * ((abs(md.beta + md.freq)
                                                   + abs(md.beta - md.freq)) / 2)
                             * r[:, None] ** (md.beta - 1), 0.0)
                    for md, c in ((md, md.a - 1j * md.b) for md in base.modes))
    scale = np.broadcast_to(np.fmax(sizes * factor, np.finfo(float).tiny)[:, :, None],
                            got.shape)
    err = np.abs(got[check] - ref[check])
    assert np.all(err <= 1e-14 * scale[check]), np.max(err / scale[check])
    if u.n > 2:
        assert not np.any(got[finite.all(axis=(1, 2)), :, 2:])


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_power_sum_values_stay_trigonometric(data):
    # Values of all-harmonic sums must stay bit-identical, unlike gradients:
    # perfbench/workloads.py::_c_entries fixes a fitted c's sign from its larger
    # component, and for c = (1, i)/sqrt(2) the two tie, so a rounding-level
    # change to values (which fit_c reads) flips the decay.limit.c* fingerprints.
    u = data.draw(_power_sum_fields())
    X = _cut_points(data.draw, u.n)
    base, Xb, _ = _unwrap(u, X)
    ref = _symmetric_values_reference(base, Xb)
    if base is not u:
        ref = ref / u.scale
    np.testing.assert_array_equal(u.symmetric_values(X), ref)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_power_sum_gradient_on_the_cut_matches_values_branch(data):
    # a pair's gradients pair ds with s, so the gradient must take the values' branch
    # on the cut: theta = +pi at x2 = +0.0 and -pi at x2 = -0.0.
    u = data.draw(_power_sum_fields(rescaled=False))
    X = np.zeros((2, u.n))
    X[:, 0] = -data.draw(st.floats(0.1, 0.9))
    X[1, 1] = -0.0
    eps = 1e-6
    Xp, Xm = X.copy(), X.copy()  # X + dX would turn -0.0 into +0.0
    Xp[:, 0] += eps
    Xm[:, 0] -= eps
    fd = (u.symmetric_values(Xp) - u.symmetric_values(Xm)) / (2 * eps)
    assert np.signbit(Xm[:, 1]).tolist() == np.signbit(Xp[:, 1]).tolist() == [False, True]
    np.testing.assert_allclose(u.symmetric_gradient(X)[:, :, 0], fd, rtol=0, atol=1e-6)


@st.composite
def _fields_with_planarity(draw):
    """(field, whether it depends on (x1, x2) alone) for every kind that sets planar."""
    kind = draw(st.sampled_from(["modes", "poly", "poly_qfun"]))
    if kind == "modes":
        u, planar = draw(_mode_fields(dims=(3, 4))), True
    else:
        n = draw(st.sampled_from([3, 4]))
        coeffs = draw(st.lists(_coef, min_size=2, max_size=4))
        qfun = qgrad = None
        if kind == "poly_qfun":
            qfun = lambda y: 0.3 * y[:, 0] ** 2  # noqa: E731
            qgrad = lambda y: np.column_stack([0.6 * y[:, 0], np.zeros((len(y), n - 3))])  # noqa: E731
        u = BranchPolynomialField(coeffs, n=n, qfun=qfun, qgrad=qgrad)
        planar = qfun is None
    if draw(st.booleans()):
        Y = np.array(draw(st.lists(st.floats(-0.5, 0.5), min_size=u.n, max_size=u.n)))
        u = RescaledField(u, Y, draw(st.floats(0.1, 2.0)), draw(st.floats(0.5, 3.0)))
    return u, planar


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_planar_fields_ignore_axis_variables(data):
    u, planar = data.draw(_fields_with_planarity())
    assert u.planar is planar
    X = _points(data.draw, u.n)
    X2 = X.copy()
    X2[:, 2:] = data.draw(arrays(np.float64, (X.shape[0], u.n - 2),
                                 elements=st.floats(-1.0, 1.0)))
    if planar:
        for fn in (u.symmetric_values, u.symmetric_gradient):
            np.testing.assert_array_equal(fn(X), fn(X2))


# -- rescaling ----------------------------------------------------------------

def test_rescale_unit_norm(spec_fast):
    # u(rho X) / scale with scale = rho^(-n/2) ||u||_{L2(B_rho)} has unit norm
    terms = [(C_NULL, 1), (0.2 * C_NULL, 3)]
    u = CylindricalModeField.power_sum(terms, n=2)
    rho = 0.37
    rs = u.rescaled(np.zeros(2), rho, np.sqrt(power_sum_norm_sq(terms, rho)) / rho)
    zero = CylindricalModeField([CylindricalMode(0.5, 0.5, [0.0, 0.0], [0.0, 0.0])], n=2)
    assert l2_distance_sq(rs, zero, unit_ball(2), spec_fast) == pytest.approx(1.0, abs=1e-8)


def test_rescale_homogeneous_reproduces_itself(spec_fast):
    u = CylindricalModeField.power_sum([(C_NULL, 1)], n=2)
    nrm = np.sqrt(power_sum_norm_sq([(C_NULL, 1)]))
    for rho in (0.5, 0.25):
        rs = u.rescaled(np.zeros(2), rho, rho ** 0.5 * nrm)
        d = l2_distance_sq(rs, CylindricalModeField.power_sum([(C_NULL / nrm, 1)], n=2),
                           unit_ball(2), spec_fast)
        assert d < 1e-20


def test_rescalings_converge_to_profile(spec_fast):
    # u = phi + higher term: rho^(-1/2) u(rho X) -> phi at rate rho^2 in L2
    u = CylindricalModeField.power_sum([(C_NULL, 1), (0.3 * C_NULL, 5)], n=2)
    target = CylindricalModeField.power_sum([(C_NULL, 1)], n=2)
    ds = []
    for rho in (0.4, 0.2, 0.1):
        rs = u.rescaled(np.zeros(2), rho, rho ** 0.5)
        ds.append(np.sqrt(l2_distance_sq(rs, target, unit_ball(2), spec_fast)))
    assert ds[1] < 0.3 * ds[0] and ds[2] < 0.3 * ds[1]


def _shift_poly(coeffs, z0):
    """Coefficients of P(z0 + w) in powers of w."""
    deg = len(coeffs) - 1
    out = np.zeros(deg + 1, dtype=complex)
    for k, a in enumerate(coeffs):
        binom = 1.0
        for j in range(k + 1):
            out[j] += a * binom * z0 ** (k - j)
            binom = binom * (k - j) / (j + 1)
    return out


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_branch_polynomial_rescales_through_the_view(data):
    # a branch polynomial rescales as every non-mode field does, through the
    # RescaledField view; its pairs are those of the polynomial whose
    # coefficients are shifted to Y, scaled by rho^j and divided by scale^2
    n, deg, m = data.draw(st.sampled_from([2, 3])), data.draw(st.integers(1, 4)), \
        data.draw(st.integers(1, 3))
    coeffs, c = (np.array(data.draw(st.lists(_coef, min_size=size, max_size=size)))
                 + 1j * np.array(data.draw(st.lists(_coef, min_size=size, max_size=size)))
                 for size in (deg + 1, m))
    u = BranchPolynomialField(coeffs, c=c, n=n)
    Y = np.zeros(n)
    Y[:2] = data.draw(st.lists(st.floats(-0.5, 0.5), min_size=2, max_size=2))
    rho, scale = data.draw(st.floats(0.1, 2.0)), data.draw(st.floats(0.5, 3.0))
    view = u.rescaled(Y, rho, scale)
    assert isinstance(view, RescaledField)
    shifted = _shift_poly(u.coeffs, Y[0] + 1j * Y[1]) * rho ** np.arange(len(coeffs))
    exact = BranchPolynomialField(shifted / scale ** 2, c=c, n=n)
    X = _points(data.draw, n)
    # G^2 = 2 min |Re(c (sqrt(a) -+ sqrt(b)))|^2 <= 2 |c|^2 |a - b|, and both
    # sides evaluate P to rounding of its term sizes at Y + rho X
    size = np.abs(Y[0] + 1j * Y[1]) + rho * np.hypot(X[:, 0], X[:, 1])
    terms = sum(abs(a) * size ** k for k, a in enumerate(coeffs)) / scale ** 2
    err = metric_sq_symmetric(view.symmetric_values(X), exact.symmetric_values(X))
    assert np.all(err <= 1e-13 * 2.0 * np.sum(np.abs(c) ** 2) * terms)


# -- L2 distances -------------------------------------------------------------

def test_l2_distance_self_zero(spec_fast):
    u = CylindricalModeField.power_sum([(C_NULL, 1)], n=2)
    assert l2_distance_sq(u, u, unit_ball(2), spec_fast) == pytest.approx(0.0, abs=1e-20)


def test_l2_distance_closed_form(spec_fast):
    # same-alpha profiles with c . c = 0 never swap pairing off the axis
    c2 = 1.25 * C_NULL
    u = CylindricalModeField.power_sum([(C_NULL, 1)], n=2)
    v = CylindricalModeField.power_sum([(c2, 1)], n=2)
    d = l2_distance_sq(u, v, unit_ball(2), spec_fast)
    exact = power_sum_norm_sq([(C_NULL - c2, 1)])
    assert d == pytest.approx(exact, rel=1e-12)


def test_l2_distance_to_zero_is_norm(spec_fast):
    u = CylindricalModeField.power_sum([(C_NULL, 3)], n=2)
    zero = CylindricalModeField([CylindricalMode(1.5, 1.5, [0.0, 0.0], [0.0, 0.0])], n=2)
    d = l2_distance_sq(u, zero, unit_ball(2), spec_fast)
    assert d == pytest.approx(power_sum_norm_sq([(C_NULL, 3)]), rel=1e-13)


def test_n4_norm_and_distance_collapse_only_planar_integrands():
    # the n = 4 axis angle is collapsed only when every field in the
    # integrand is planar; each result matches the full rule either way.  The
    # distance to the zero field is the norm.
    spec = QuadratureSpec(nr=12, ntheta=24, naxis=6, nsphere=32, npolar=16)
    ball = Ball((0.1, -0.05, 0.2, 0.0), 0.5)
    u = CylindricalModeField.power_sum([(C_NULL, 1)], n=4)
    w = CylindricalModeField.power_sum([(C_NULL, 1), (0.3 * C_NULL, 3)], n=4)
    v = CylindricalProfile(C_NULL, 1, B=[0.3, -0.2, 0.1, 0.25], n=4)
    assert not v.planar  # its branch axis is tilted out of the x3, x4 plane
    zero = CylindricalModeField([CylindricalMode(0.5, 0.5, [0.0, 0.0], [0.0, 0.0])], n=4)
    rule = ball_rule(ball, spec.nr, spec.ntheta, spec.naxis)
    for a, b in ((u, zero), (v, zero), (u, w), (u, v), (v, u)):
        full = rule.integrate_values(
            metric_sq_symmetric(a.symmetric_values(rule.points), b.symmetric_values(rule.points)))
        assert l2_distance_sq(a, b, ball, spec) == pytest.approx(full, rel=1e-13)


def test_quadrature_convergence_order():
    # smooth non-polynomial integrand: error decays superalgebraically
    u = BranchPolynomialField([-0.25, 0.0, 1.0])
    v = CylindricalModeField.power_sum([(np.array([1.0, -1.0j]), 2)], n=2)
    vals = []
    for level in range(3):
        spec = QuadratureSpec(nr=8, ntheta=16).refined(level)
        vals.append(l2_distance_sq(u, v, unit_ball(2), spec))
    errs = [abs(v_ - vals[-1]) for v_ in vals[:-1]]
    assert errs[1] < 0.25 * errs[0]


# -- sampled fields -----------------------------------------------------------

def sample(u, grid):
    """u on a polar grid as one continuous lift: propagate_signs over its values."""
    nodes = grid.nodes()
    svals = grid.on_grid(u.symmetric_values(nodes))
    signs, hol = propagate_signs(svals)
    return SampledField(grid, signs[..., None] * svals, hol=hol)


@pytest.mark.parametrize("n", [2, 3])
def test_sampled_seam_sign_below_the_first_angle(n):
    # with angles (j + 1/2) 2 pi / 64, an angle in [0, thetas[0]) lies across
    # the seam, between the last column and the first, and reads them with
    # the holonomy as an angle past thetas[-1] does: the branch of the pair
    # stays within the interpolation error there
    u = CylindricalModeField.power_sum([(C_NULL, 1)], n=n)
    grid = PolarGrid(np.linspace(0.05, 1.0, 40), (np.arange(64) + 0.5) * (2 * np.pi / 64),
                     None if n == 2 else np.linspace(-0.5, 0.5, 5))
    sf = sample(u, grid)
    assert sf.hol == -1.0
    r = np.linspace(0.1, 1.0, 10)
    for angle in (0.01, 0.03, 2 * np.pi - 0.01):
        X = np.zeros((10, n))
        X[:, 0], X[:, 1] = r * np.cos(angle), r * np.sin(angle)
        s, exact = sf.symmetric_values(X), u.symmetric_values(X)
        err = np.minimum(np.abs(s - exact).max(axis=1), np.abs(s + exact).max(axis=1))
        assert np.max(err) < 1e-3


def _sample_field(u, nr=24, nt=48):
    grid = PolarGrid(graded_radii(nr, 0.9), np.arange(nt) * (2 * np.pi / nt))
    return sample(u, grid)


def test_sampled_roundtrip_exact(tmp_path):
    u = CylindricalModeField.power_sum([(C_NULL, 1)], n=2)
    sf = _sample_field(u)
    path = os.path.join(tmp_path, "field.csv")
    sf.to_csv(path)
    back = SampledField.from_csv(path)
    assert np.array_equal(back.s_lift, sf.s_lift)
    assert np.array_equal(back.grid.rs, sf.grid.rs)
    assert np.array_equal(back.grid.thetas, sf.grid.thetas)
    assert back.hol == sf.hol


def test_sampled_n3_roundtrip_and_interp(tmp_path):
    u = CylindricalModeField.power_sum([(C_NULL, 1)], n=3)
    grid = PolarGrid(graded_radii(20, 0.8), np.arange(40) * (2 * np.pi / 40),
                     np.linspace(-0.5, 0.5, 9))
    sf = sample(u, grid)
    assert sf.hol == -1.0
    path = os.path.join(tmp_path, "field3.csv")
    sf.to_csv(path)
    back = SampledField.from_csv(path)
    assert np.array_equal(back.s_lift, sf.s_lift)
    assert np.array_equal(back.grid.ys, sf.grid.ys)
    X = np.array([[0.3, 0.2, 0.1], [0.4, -0.3, -0.2], [0.5, 0.1, 0.3]])
    si = back.symmetric_values(X)
    se = u.symmetric_values(X)
    per_point = np.minimum(np.max(np.abs(si - se), axis=1),
                           np.max(np.abs(si + se), axis=1))
    assert np.max(per_point) < 2e-3


def _sampled_csv_header(sf, fh, version):
    fh.write(f"# branchlab sampled-field {version}\n")
    fh.write(f"# n={sf.n} m={sf.m} symmetric=1 "
             f"hol={int(sf.hol) if sf.hol is not None else 0}\n")
    fh.write(f"# shape={','.join(str(s) for s in sf.grid.shape)}\n")
    fh.write("# rs=" + ",".join(repr(float(v)) for v in sf.grid.rs) + "\n")
    fh.write("# thetas=" + ",".join(repr(float(v)) for v in sf.grid.thetas) + "\n")
    if sf.grid.ys is not None:
        fh.write("# ys=" + ",".join(repr(float(v)) for v in sf.grid.ys) + "\n")


def _node_rows(sf):
    """s as (N, m) rows in nodes() order."""
    return sf.s_lift.reshape(-1, sf.m)


def _sampled_csv_reference(sf, path):
    """Row-by-row v1 writer: node coordinates, then a1 = 0 + s and a2 = 0 - s."""
    with open(path, "w") as fh:
        _sampled_csv_header(sf, fh, "v1")
        cols = [f"x{i+1}" for i in range(sf.n)]
        cols += [f"a1_{k+1}" for k in range(sf.m)] + [f"a2_{k+1}" for k in range(sf.m)]
        fh.write(",".join(cols) + "\n")
        nodes = sf.grid.nodes()
        s = _node_rows(sf)
        a1, a2 = 0.0 + s, 0.0 - s
        for i in range(nodes.shape[0]):
            row = [repr(float(v)) for v in nodes[i]]
            row += [repr(float(v)) for v in a1[i]] + [repr(float(v)) for v in a2[i]]
            fh.write(",".join(row) + "\n")


def _sampled_csv_v2_reference(sf, path):
    """Row-by-row v2 writer, the reference for SampledField.to_csv: values only."""
    with open(path, "w") as fh:
        _sampled_csv_header(sf, fh, "v2")
        fh.write(",".join(f"s_{k+1}" for k in range(sf.m)) + "\n")
        for values in _node_rows(sf):
            fh.write(",".join(repr(float(v)) for v in values) + "\n")


def _extreme_sampled_field(n):
    """A sampled field with +-0.0, a subnormal and 1e+-300 values."""
    ys = None if n == 2 else np.linspace(-0.5, 0.5, 3)
    grid = PolarGrid(graded_radii(6, 0.9), np.arange(10) * (2 * np.pi / 10), ys)
    rng = np.random.default_rng(5)
    rows = (int(np.prod(grid.shape)), 2)
    lift = grid.on_grid(rng.standard_normal(rows) * 10.0 ** rng.integers(-300, 300, rows))
    lift.flat[:5] = [0.0, -0.0, 1e-320, 1e300, -1e-300]
    return SampledField(grid, lift, hol=-1.0)


@pytest.mark.parametrize("n", [2, 3])
def test_sampled_csv_bytes_match_row_writer(tmp_path, n):
    sf = _extreme_sampled_field(n)
    sf.to_csv(tmp_path / "new.csv")
    _sampled_csv_v2_reference(sf, tmp_path / "ref.csv")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
    # s parses back exactly, so it rewrites the same bytes
    SampledField.from_csv(tmp_path / "ref.csv").to_csv(tmp_path / "back.csv")
    assert (tmp_path / "back.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
    # a v1 file reads as it always has: s = (a1 - a2)/2
    _sampled_csv_reference(sf, tmp_path / "v1.csv")
    back = SampledField.from_csv(tmp_path / "v1.csv")
    a1, a2 = 0.0 + sf.s_lift, 0.0 - sf.s_lift
    assert np.array_equal(back.s_lift, (a1 - a2) / 2.0)
    assert back.hol == sf.hol
    assert np.array_equal(back.grid.rs, sf.grid.rs)
    assert np.array_equal(back.grid.thetas, sf.grid.thetas)
    assert (back.grid.ys is None) == (n == 2)
    if n == 3:
        assert np.array_equal(back.grid.ys, sf.grid.ys)


@pytest.mark.parametrize("n", [2, 3])
def test_sampled_v2_roundtrip_keeps_negative_zero(tmp_path, n):
    sf = _extreme_sampled_field(n)
    assert np.signbit(sf.s_lift.flat[1]) and sf.s_lift.flat[1] == 0.0
    sf.to_csv(tmp_path / "v2.csv")
    back = SampledField.from_csv(tmp_path / "v2.csv")
    assert np.array_equal(np.signbit(back.s_lift), np.signbit(sf.s_lift))
    assert np.array_equal(back.s_lift, sf.s_lift)
    # v1 stored a1 = 0 + s and a2 = 0 - s, so -0.0 came back as +0.0
    _sampled_csv_reference(sf, tmp_path / "v1.csv")
    assert not np.signbit(SampledField.from_csv(tmp_path / "v1.csv").s_lift.flat[1])


def test_minimize_to_decay_hand_off_matches_v1(tmp_path):
    """A decay run on the minimizer's v2 file writes what it writes on the same field as v1."""
    def run(config):
        path = tmp_path / f"{config['output_dir']}.json"
        path.write_text(json.dumps(config))
        assert cli.main(["run", str(path)]) == cli.EXIT_OK
        return tmp_path / config["output_dir"]

    solution = run({
        "schema_version": 1, "kind": "minimize", "seed": 0, "output_dir": "minimize",
        "field": {"type": "power_sum", "n": 2,
                  "terms": [{"k": 1, "c": [[0.7071067811865476, 0.0], [0.0, 0.7071067811865476]]},
                            {"k": 3, "c": [[0.035, 0.0], [0.0, 0.035]]}]},
        "params": {"levels": [[16, 32], [32, 64]]},
    }) / "minimizer_solution.csv"
    assert solution.read_text().startswith("# branchlab sampled-field v2\n")
    _sampled_csv_reference(SampledField.from_csv(solution), tmp_path / "v1.csv")
    outs = [run({"schema_version": 1, "kind": "decay", "seed": 0, "output_dir": name,
                 "field": {"type": "sampled", "path": path},
                 "params": {"j_max": 2, "quadrature": {"nr": 12, "ntheta": 24, "nsphere": 48}}})
            for name, path in (("decay_v2", "minimize/minimizer_solution.csv"),
                               ("decay_v1", "v1.csv"))]
    names = sorted(p.name for p in outs[0].iterdir())
    assert names == sorted(p.name for p in outs[1].iterdir())
    assert "decay_run.json" in names and "manifest.json" in names
    for name in names:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


@pytest.mark.parametrize("rs, ys, radius", [
    ([0.25, 0.5], None, 0.5),
    ([0.5, 1.0], [-0.5, 0.5], 0.5),  # the axis ends first
    ([0.5, 0.8], [-1.0, 1.0], 0.8),  # the radii end first
    ([0.5, 1.0], [-0.2, 0.9], 0.2),
    ([0.5, 1.0], [0.1, 0.9], 0.0),  # the axis range misses the origin
])
def test_sampled_domain_is_the_largest_centred_ball_of_the_grid(rs, ys, radius):
    grid = PolarGrid(rs, [0.0, np.pi], ys)
    s_lift = grid.on_grid(np.zeros((len(grid.nodes()), 1)))
    assert SampledField(grid, s_lift).domain == Ball((0.0,) * grid.n, radius)


def test_cover_solution_csv_keeps_its_domain(tmp_path):
    # a solution read back from its CSV keeps the solve's radius as its
    # domain, and so the finite-difference step of its gradient
    u = CylindricalModeField.power_sum([(C_NULL, 1)], n=2)
    cov = solve_branched_laplace(BoundaryTrace.from_field(u, 0.5),
                                 grid=CoverGridSpec(nr=12, ntheta=24))
    sf = cov.to_two_valued()
    path = os.path.join(tmp_path, "solution.csv")
    sf.to_csv(path)
    back = SampledField.from_csv(path)
    assert sf.domain.radius == back.domain.radius == 0.5
    X = np.random.default_rng(3).uniform(-0.3, 0.3, size=(40, 2))
    assert back.symmetric_gradient(X).tobytes() == sf.symmetric_gradient(X).tobytes()


def test_sampled_reads_stay_on_the_grid():
    # a radius-0.5 solution is read out to 0.5, the gradient step past it at
    # most, and a read further out raises, naming both radii
    u = CylindricalModeField.power_sum([(C_NULL, 1)], n=2)
    sf = solve_branched_laplace(BoundaryTrace.from_field(u, 0.5),
                                grid=CoverGridSpec(nr=12, ntheta=24)).to_two_valued()
    spec = QuadratureSpec(nr=12, ntheta=24, nsphere=48)
    frequency_profile(sf, np.zeros(2), [0.25, 0.5], spec)
    BoundaryTrace.from_field(sf, 0.5)
    past = r"radius (1\.0|0\.99)\d*, past its grid; its domain radius is 0\.5$"
    with pytest.raises(DomainError, match=past):
        frequency_profile(sf, np.zeros(2), [0.25, 0.5, 1.0], spec)
    with pytest.raises(DomainError, match=past):
        BoundaryTrace.from_field(sf, 1.0)
    # at n = 3 the grid is a cylinder: a read past its radius or past ys raises
    grid = PolarGrid([0.5, 1.0], [0.0, np.pi], [-0.5, 0.5])
    sf3 = SampledField(grid, grid.on_grid(np.ones((len(grid.nodes()), 1))))
    assert np.array_equal(sf3.symmetric_values([[0.9, 0.0, 0.5], [0.0, 0.1, -0.5]]),
                          np.ones((2, 1)))
    for X in ([0.0, 1.01, 0.0], [0.1, 0.0, 0.51], [0.0, 0.1, -0.51]):
        with pytest.raises(DomainError):
            sf3.symmetric_values(X)


def test_decay_and_profile_fits_stay_on_the_grid():
    # iterate and fit_profile read the unit ball about their centre: on a
    # radius-0.5 solution they raise past its grid, and on its view at scale
    # 0.5, which reads out to 0.5, they run and find the solved profile
    u = CylindricalModeField.power_sum([(C_NULL, 1)], n=2)
    sf = solve_branched_laplace(BoundaryTrace.from_field(u, 0.5),
                                grid=CoverGridSpec(nr=12, ntheta=24)).to_two_valued()
    spec = QuadratureSpec(nr=12, ntheta=24, nsphere=48)
    half = sf.rescaled(np.zeros(2), 0.5, 0.5 ** 0.5)
    c = fit_profile(half, 1).c
    run = iterate(half, np.zeros(2), 1, j_max=1, spec=spec)
    assert abs(np.vdot(C_NULL, c)) == pytest.approx(1.0, abs=1e-2)
    assert run.outcome == "decay" and len(run.steps) == 2
    past = r"past its grid; its domain radius is 0\.5$"
    with pytest.raises(DomainError, match=past):
        fit_profile(sf, 1)
    with pytest.raises(DomainError, match=past):
        iterate(sf, np.zeros(2), 1, j_max=1, spec=spec)


def test_pairing_propagation_holonomy():
    odd = _sample_field(CylindricalModeField.power_sum([(C_NULL, 1)], n=2))
    assert odd.hol == -1.0
    even = _sample_field(CylindricalModeField.power_sum([(C_NULL, 2)], n=2))
    assert even.hol == 1.0


def test_sampled_interpolation_accuracy():
    u = CylindricalModeField.power_sum([(C_NULL, 3)], n=2)
    sf = _sample_field(u, nr=48, nt=96)
    rng = np.random.default_rng(11)
    X = rng.uniform(-0.4, 0.4, size=(30, 2))
    X = X[np.hypot(X[:, 0], X[:, 1]) > 0.15]
    si = sf.symmetric_values(X)
    se = u.symmetric_values(X)
    err = np.min(
        [np.max(np.abs(si - se), axis=1), np.max(np.abs(si + se), axis=1)], axis=0
    )
    assert np.max(err) < 2e-3


def test_sampled_fd_gradient_richardson():
    # FD gradient error of a sampled alpha = 3/2 field drops ~4x per grid doubling
    u = CylindricalModeField.power_sum([(C_NULL, 3)], n=2)
    probes = np.array([[0.45, 0.1], [0.3, -0.35], [-0.4, 0.2]])
    exact = u.symmetric_gradient(probes)
    errs = []
    for nr, nt in ((32, 64), (64, 128)):
        sf = _sample_field(u, nr=nr, nt=nt)
        g = sf.symmetric_gradient(probes)
        diff = np.minimum(
            np.max(np.abs(g - exact), axis=(1, 2)),
            np.max(np.abs(g + exact), axis=(1, 2)),
        )
        errs.append(np.max(diff))
    assert errs[1] < errs[0] / 2.5


def test_propagate_signs_loop_inconsistency():
    # rings with nonvanishing values but mismatched holonomies (-1 vs +1)
    # cannot carry one consistent lift
    nt = 16
    theta = np.arange(nt) * (2 * np.pi / nt)
    odd_ring = np.stack([np.cos(theta / 2), np.sin(theta / 2)], axis=-1)[None]
    even_ring = np.stack([np.cos(theta), -np.sin(theta)], axis=-1)[None]
    svals = np.concatenate([odd_ring, even_ring], axis=0)[None]
    with pytest.raises(PairingError):
        propagate_signs(svals)


def _propagate_signs_reference(svals):
    """Node-by-node continuation, the reference for the vectorized sweep."""
    nr, nt, m = svals.shape
    signs = np.ones((nr, nt))
    hols = np.zeros(nr)
    prev_ring = None
    for ri in range(nr - 1, -1, -1):
        if prev_ring is not None:
            d_keep = np.sum((svals[ri, 0] - prev_ring[0]) ** 2)
            d_swap = np.sum((svals[ri, 0] + prev_ring[0]) ** 2)
            signs[ri, 0] = 1.0 if d_keep <= d_swap else -1.0
        lift_prev2 = None
        lift_prev = signs[ri, 0] * svals[ri, 0]
        for j in range(1, nt):
            pred = lift_prev if lift_prev2 is None else 2.0 * lift_prev - lift_prev2
            d_keep = np.sum((svals[ri, j] - pred) ** 2)
            d_swap = np.sum((svals[ri, j] + pred) ** 2)
            signs[ri, j] = 1.0 if d_keep <= d_swap else -1.0
            lift_prev2 = lift_prev
            lift_prev = signs[ri, j] * svals[ri, j]
        pred = 2.0 * lift_prev - lift_prev2 if lift_prev2 is not None else lift_prev
        first = signs[ri, 0] * svals[ri, 0]
        d_keep = np.sum((first - pred) ** 2)
        d_swap = np.sum((first + pred) ** 2)
        hols[ri] = 1.0 if d_keep <= d_swap else -1.0
        prev_ring = signs[ri][:, None] * svals[ri]
    if not (np.all(hols == 1.0) or np.all(hols == -1.0)):
        bad = int(np.argmax(hols != hols[-1]))
        raise PairingError(f"inconsistent pairing holonomy at annulus {bad}", loop=bad)
    return signs, float(hols[-1])


def _outcome(fn, svals):
    try:
        signs, hol = fn(svals)
    except PairingError as exc:
        return "error", str(exc), exc.loop
    return "ok", signs, hol


# exact ties and signed zeros come from the small pool; a smooth half-angle
# pattern keeps holonomies consistent so that full sweeps succeed too
_POOL = st.sampled_from([-2.0, -1.0, -0.5, -0.0, 0.0, 0.5, 1.0, 2.0])


@st.composite
def _value_stacks(draw):
    nr, nt, ny = draw(st.integers(1, 4)), draw(st.integers(1, 9)), draw(st.integers(1, 3))
    m = draw(st.integers(1, 3))
    elems = _POOL | st.floats(-4.0, 4.0, allow_nan=False)
    vals = draw(arrays(float, (ny, nr, nt, m), elements=elems))
    if draw(st.booleans()):
        theta = np.arange(nt) * (2.0 * np.pi / nt)
        k = draw(st.integers(1, 3))
        amp = draw(arrays(float, (ny, nr, 1, 1), elements=st.floats(0.5, 2.0)))
        ring = np.stack([np.cos(k * theta / 2), np.sin(k * theta / 2)], axis=-1)
        vals = amp * ring + 0.05 * vals[..., :1]
    return vals


def _check_against_reference(vals):
    # one slab: signs (with their sign bit), holonomy and errors agree
    for slab in vals:
        got = _outcome(propagate_signs, slab[None])
        ref = _outcome(_propagate_signs_reference, slab)
        assert got[0] == ref[0]
        if ref[0] == "error":
            assert got[1:] == ref[1:]
        else:
            assert np.array_equal(got[1], ref[1][None])
            assert np.array_equal(np.signbit(got[1]), np.signbit(ref[1][None]))
            assert type(got[2]) is float and got[2] == ref[2]
    # the stack is the per-slab loop (up to its first error), then one
    # holonomy for all slabs, then each slab aligned to the aligned slab below
    # it by whole-slab sums, a tie keeping the sign
    got = _outcome(propagate_signs, vals)
    signs, hols = [], []
    for slab in vals:
        ref = _outcome(_propagate_signs_reference, slab)
        if ref[0] == "error":
            assert got == ref
            return
        signs.append(ref[1])
        hols.append(ref[2])
    if hols.count(hols[0]) != len(hols):
        iy = next(i for i, h in enumerate(hols) if h != hols[0])
        assert got == ("error", f"holonomy changes along the axis at slab {iy}", iy)
        return
    for iy in range(1, vals.shape[0]):
        slab = signs[iy][:, :, None] * vals[iy]
        prev = signs[iy - 1][:, :, None] * vals[iy - 1]
        if np.sum((slab + prev) ** 2) < np.sum((slab - prev) ** 2):
            signs[iy] = -signs[iy]
    assert got[0] == "ok"
    assert np.array_equal(got[1], np.stack(signs))
    assert type(got[2]) is float and got[2] == hols[0]


@settings(max_examples=300, deadline=None)
@given(_value_stacks())
@example(np.zeros((2, 3, 5, 2)))
@example(np.array([[[[1.0, -0.0]], [[-1.0, 0.0]]]]))
@example((np.arange(24.0).reshape(1, 6, 2, 2) - 11.5).transpose(2, 0, 1, 3))
@example(np.einsum("r,y,tk->yrtk", [1.0, 0.5], [1.0, -1.0, -2.0],  # slabs 1, 2 flipped
                   np.stack([np.cos(np.arange(6) * np.pi / 6),
                             np.sin(np.arange(6) * np.pi / 6)], axis=-1)))
def test_propagate_signs_matches_reference(vals):
    _check_against_reference(vals)


class _SlabFlipped(Field):
    """The pair of `base`, with its representative negated for y > 0."""

    def __init__(self, base):
        self.base, self.n, self.m = base, base.n, base.m

    def symmetric_values(self, X):
        return self.base.symmetric_values(X) * np.where(X[:, 2] > 0, -1.0, 1.0)[:, None]


def test_sample_n3_matches_per_slab_reference():
    # the stacked call plus slab alignment reproduce the per-slab loop, and
    # the alignment undoes a representative that flips along the axis
    base = CylindricalModeField.power_sum([(C_NULL, 1), (0.3 * C_NULL, 3)], n=3)
    u = _SlabFlipped(base)
    grid = PolarGrid(graded_radii(12, 0.8), np.arange(24) * (2 * np.pi / 24),
                     np.linspace(-0.5, 0.5, 5))
    svals = u.symmetric_values(grid.nodes()).reshape(5, 12, 24, 2)
    ref = np.zeros_like(svals)
    prev = None
    for iy in range(5):
        signs, hol = _propagate_signs_reference(svals[iy])
        slab = signs[:, :, None] * svals[iy]
        if prev is not None and np.sum((slab + prev) ** 2) < np.sum((slab - prev) ** 2):
            slab = -slab
        ref[iy] = prev = slab
    sf = sample(u, grid)
    assert np.array_equal(sf.s_lift, ref)
    assert np.array_equal(sf.s_lift, sample(base, grid).s_lift)
    assert sf.hol == hol == -1.0


class _PointSigns(Field):
    """The pair of `base`, with its representative negated at random points."""

    def __init__(self, base):
        self.base, self.n, self.m = base, base.n, base.m

    def symmetric_values(self, X):
        flips = np.random.default_rng(7).choice([-1.0, 1.0], size=X.shape[0])
        return self.base.symmetric_values(X) * flips[:, None]


def test_fit_c_n3_is_one_lift_over_slabs():
    # every representative of one pair fits one c, up to a global sign; slabs
    # lifted apart would cancel in the normal equations of _SlabFlipped
    base = CylindricalModeField.power_sum([(np.array([1.0, 0.3j]), 1)], n=3)
    c0 = fit_c(base, 1)
    assert np.allclose(c0, [1.0, 0.3j], atol=1e-10)
    p0 = fit_profile(base, 1)
    for u in (_SlabFlipped(base), _PointSigns(base)):
        c = fit_c(u, 1)
        assert min(np.max(np.abs(c - c0)), np.max(np.abs(c + c0))) <= 1e-12
        p = fit_profile(u, 1)
        assert min(np.max(np.abs(p.c - p0.c)), np.max(np.abs(p.c + p0.c))) <= 1e-12
        assert np.allclose(p.B, p0.B, rtol=0, atol=1e-12)


@pytest.mark.parametrize("ys", [None, np.linspace(-0.5, 0.5, 4)])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_polar_grid_layout_matches_former_reorders(ys, m):
    grid = PolarGrid(graded_radii(5, 0.8), np.arange(7) * (2 * np.pi / 7), ys)
    rows = np.random.default_rng(m).standard_normal((grid.nodes().shape[0], m))
    arr = grid.on_grid(rows)
    # the former (nr, nt[, ny], m) array, by the former hand-written reorder,
    # is the new (slab, nr, nt, m) array with its slab axis moved after nt
    if ys is None:
        former = rows.reshape(grid.shape + (m,))
        assert np.array_equal(arr[0], former)
    else:
        former = np.moveaxis(rows.reshape((grid.shape[2],) + grid.shape[:2] + (m,)), 0, 2)
        assert np.array_equal(np.moveaxis(arr, 0, 2), former)
    assert arr.shape == (1 if ys is None else len(ys),) + grid.shape[:2] + (m,)
    # the rows come back in nodes() order by a reshape, as the CSV writes them
    assert np.array_equal(arr.reshape(-1, m), rows)
    assert np.array_equal(grid.on_grid(arr.reshape(-1, m)), arr)
    # on the grid, index (slab, i, j) holds the node (r_i, theta_j[, y_slab])
    pts = grid.on_grid(grid.nodes())
    R, T = np.meshgrid(grid.rs, grid.thetas, indexing="ij")
    if ys is not None:
        assert np.array_equal(pts[..., 2], np.broadcast_to(ys[:, None, None], pts.shape[:3]))
    assert np.array_equal(pts[..., 0], np.broadcast_to(R * np.cos(T), pts.shape[:3]))
    assert np.array_equal(pts[..., 1], np.broadcast_to(R * np.sin(T), pts.shape[:3]))


@pytest.mark.parametrize("n", [2, 3])
def test_polar_grid_data_is_in_node_order(n):
    # per-node data is (slab, nr, nt, m) in nodes() order at every n, the
    # plane one slab: on_grid(rows)[s, i, j] is the row of the node built
    # from (rs[i], thetas[j]) on slab s
    ys = None if n == 2 else np.linspace(-0.5, 0.5, 3)
    grid = PolarGrid(graded_radii(4, 0.8), np.arange(5) * (2 * np.pi / 5), ys)
    nodes = grid.nodes()
    rows = np.random.default_rng(n).standard_normal((nodes.shape[0], 2))
    arr = grid.on_grid(rows)
    slabs = np.zeros((1, 0)) if ys is None else ys[:, None]
    assert arr.shape == (len(slabs), 4, 5, 2)
    for s, y in enumerate(slabs):
        for i, r in enumerate(grid.rs):
            for j, theta in enumerate(grid.thetas):
                dist = np.linalg.norm(nodes - _ring_points(r, theta, y), axis=1)
                row = int(np.argmin(dist))
                assert dist[row] <= 1e-15
                assert np.array_equal(arr[s, i, j], rows[row])


def _interp_lift_reference(sf, X):
    """The former SampledField._interp_lift body, with its separate n = 3 gather,
    on the former (nr, nt[, ny], m) array."""
    r = np.hypot(X[:, 0], X[:, 1])
    theta = np.mod(np.arctan2(X[:, 1], X[:, 0]), 2.0 * np.pi)
    ir, tr = sf._locate(r, sf.grid.rs)
    th = sf.grid.thetas
    dth = th[1] - th[0]
    jt = np.floor((theta - th[0]) / dth).astype(int)
    tt = (theta - th[0]) / dth - jt
    jt0, jt1 = np.mod(jt, th.shape[0]), np.mod(jt + 1, th.shape[0])
    sgn = np.where((jt + 1) >= th.shape[0], (sf.hol if sf.hol is not None else 1.0), 1.0)

    def gather(arr, *iy):
        v00 = arr[(ir, jt0) + iy]
        v01 = arr[(ir, jt1) + iy] * sgn[:, None]
        v10 = arr[(ir + 1, jt0) + iy]
        v11 = arr[(ir + 1, jt1) + iy] * sgn[:, None]
        return ((1 - tr)[:, None] * ((1 - tt)[:, None] * v00 + tt[:, None] * v01)
                + tr[:, None] * ((1 - tt)[:, None] * v10 + tt[:, None] * v11))

    if sf.n == 2:
        return gather(sf.s_lift[0])
    former = np.moveaxis(sf.s_lift, 0, 2)
    iy, ty = sf._locate(X[:, 2], sf.grid.ys)
    return (1 - ty)[:, None] * gather(former, iy) + ty[:, None] * gather(former, iy + 1)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("even_k", [False, True])  # seam sign hol = -1, then +1
@pytest.mark.parametrize("c", [C_NULL, np.array([1.0, 0.0]) + 0j])  # the second: signed zeros
def test_sampled_interpolation_matches_former_gathers(n, even_k, c):
    k = 2 if even_k else 1
    u = CylindricalModeField.power_sum([(c, k), (0.1 * c, k + 2)], n=n)
    grid = PolarGrid(graded_radii(10, 0.9), np.arange(24) * (2 * np.pi / 24),
                     None if n == 2 else np.linspace(-0.4, 0.4, 5))
    sf = sample(u, grid)
    assert sf.hol == (1.0 if even_k else -1.0)
    X = np.random.default_rng(5).uniform(-0.6, 0.6, size=(300, n))
    X[:, 2:] = np.clip(X[:, 2:], -0.4, 0.4)  # a read past ys raises
    X[:8, 1], X[8:16, 1] = 0.0, -0.0  # on the seam, from both sides
    X[16:24, :2] = 0.0  # at the center, where a zero sample keeps its sign
    assert sf._interp_lift(X).tobytes() == _interp_lift_reference(sf, X).tobytes()


# -- curve points of the lifts -----------------------------------------------


def _former_curve_points(r, theta, n):
    """The parent's fields._curve_points."""
    X = np.stack([r * np.cos(theta), r * np.sin(theta)], axis=-1)
    return np.concatenate([X, np.zeros(X.shape[:-1] + (n - 2,))], axis=-1)


class _RecordedPolynomial(BranchPolynomialField):
    """A branch polynomial that keeps the points its lift reads."""

    def symmetric_values(self, X):
        self.points = np.array(X, copy=True)
        return super().symmetric_values(X)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([2, 3, 4]).flatmap(lambda n: st.tuples(st.just(n), cover_points(n))))
def test_lift_curve_points_keep_the_former_bits(case):
    # the base lift and the branch polynomial's lift read the curve at y = 0
    # through the one point builder, at the former points bit for bit
    n, (r, theta, _) = case
    want = _former_curve_points(r, theta, n).tobytes()
    recorder = PointRecorder(n)
    recorder.lift(r, theta)
    assert recorder.points[0].tobytes() == want
    poly = _RecordedPolynomial([-0.01, 0.0, 1.0], c=C_NULL, n=n)
    poly.lift(r, theta)
    assert poly.points.tobytes() == want
