import numpy as np
import pytest

from branchlab.quadrature import (Ball, QuadratureSpec, _leggauss, ball_rule, disk_rule,
                                  gauss_legendre_01, loglog_slope, sphere_rule,
                                  unit_ball)


def test_disk_polynomial_exactness():
    rule = disk_rule(np.zeros(2), 1.0, nr=16, ntheta=32)
    assert rule.integrate(lambda X: np.ones(X.shape[0])) == pytest.approx(np.pi, rel=1e-13)
    assert rule.integrate(lambda X: X[:, 0] ** 2) == pytest.approx(np.pi / 4, rel=1e-13)
    assert rule.integrate(lambda X: X[:, 0] * X[:, 1]) == pytest.approx(0.0, abs=1e-14)


def test_disk_half_integer_powers():
    # integrands r^(2a) with a = k/2 become polynomials under the grading
    rule = disk_rule(np.zeros(2), 1.0, nr=24, ntheta=16)
    for k in (1, 3, 5):
        a = k / 2.0
        val = rule.integrate(lambda X, a=a: (X[:, 0] ** 2 + X[:, 1] ** 2) ** a)
        assert val == pytest.approx(2 * np.pi / (2 * a + 2), rel=1e-13)


def test_ball_volumes():
    for n, vol in ((2, np.pi), (3, 4 * np.pi / 3), (4, np.pi ** 2 / 2)):
        rule = ball_rule(unit_ball(n), nr=20, ntheta=24, naxis=20)
        assert rule.integrate(lambda X: np.ones(X.shape[0])) == pytest.approx(vol, rel=1e-9)


def test_sphere_areas():
    for n, area in ((2, 2 * np.pi), (3, 4 * np.pi), (4, 2 * np.pi ** 2)):
        rule = sphere_rule(unit_ball(n), nang=64, npolar=64)
        assert rule.integrate(lambda X: np.ones(X.shape[0])) == pytest.approx(area, rel=1e-10)


def test_translated_ball():
    ball = Ball((0.5, -0.25), 0.4)
    rule = ball_rule(ball, nr=16, ntheta=32)
    assert rule.integrate(lambda X: np.ones(X.shape[0])) == pytest.approx(np.pi * 0.16, rel=1e-12)
    # centroid
    cx = rule.integrate(lambda X: X[:, 0]) / (np.pi * 0.16)
    assert cx == pytest.approx(0.5, abs=1e-12)


def test_ball3_axis_singular_integrand():
    # r^(-1) in the plane radius: the dominant accuracy risk for alpha = 1/2
    rule = ball_rule(unit_ball(3), nr=32, ntheta=8, naxis=32)
    val = rule.integrate(lambda X: 1.0 / np.hypot(X[:, 0], X[:, 1]))
    # int_{B_1} 1/r dV = 2 pi int int dr dy over half disk = pi^2
    assert val == pytest.approx(np.pi ** 2, rel=1e-8)


def test_spec_refinement_and_contains():
    spec = QuadratureSpec(nr=8, ntheta=16)
    fine = spec.refined(2)
    assert fine.nr == 32 and fine.ntheta == 64
    assert unit_ball(2).contains_ball(Ball((0.2, 0.0), 0.5))
    assert not unit_ball(2).contains_ball(Ball((0.8, 0.0), 0.5))


def test_loglog_slope():
    x = np.array([1.0, 0.5, 0.25, 0.125])
    y = 3.0 * x ** 2
    assert loglog_slope(x, y) == pytest.approx(2.0, abs=1e-12)


def test_gauss_legendre_cached_per_order():
    x, w = np.polynomial.legendre.leggauss(7)
    s, ws = gauss_legendre_01(7)
    assert np.array_equal(s, (x + 1.0) / 2.0) and np.array_equal(ws, w / 2.0)
    # callers get their own arrays; the shared cache cannot be written
    s[0] = 5.0
    assert np.array_equal(gauss_legendre_01(7)[0], (x + 1.0) / 2.0)
    with pytest.raises(ValueError):
        _leggauss(7)[0][0] = 5.0
