import numpy as np
import pytest

from branchlab.quadrature import (BLOCK_NODES, Ball, QuadratureSpec, Rule, _leggauss,
                                  ball_blocks, ball_rule, disk_rule, gauss_legendre_01,
                                  loglog_slope, sphere_blocks, sphere_rule, unit_ball)


def test_disk_polynomial_exactness():
    rule = disk_rule(np.zeros(2), 1.0, nr=16, ntheta=32)
    X = rule.points
    assert rule.integrate_values(np.ones(rule.size)) == pytest.approx(np.pi, rel=1e-13)
    assert rule.integrate_values(X[:, 0] ** 2) == pytest.approx(np.pi / 4, rel=1e-13)
    assert rule.integrate_values(X[:, 0] * X[:, 1]) == pytest.approx(0.0, abs=1e-14)


def test_disk_half_integer_powers():
    # integrands r^(2a) with a = k/2 become polynomials under the grading
    rule = disk_rule(np.zeros(2), 1.0, nr=24, ntheta=16)
    X = rule.points
    for k in (1, 3, 5):
        a = k / 2.0
        val = rule.integrate_values((X[:, 0] ** 2 + X[:, 1] ** 2) ** a)
        assert val == pytest.approx(2 * np.pi / (2 * a + 2), rel=1e-13)


def test_ball_volumes():
    for n, vol in ((2, np.pi), (3, 4 * np.pi / 3), (4, np.pi ** 2 / 2)):
        rule = ball_rule(unit_ball(n), nr=20, ntheta=24, naxis=20)
        assert rule.integrate_values(np.ones(rule.size)) == pytest.approx(vol, rel=1e-9)


def test_sphere_areas():
    for n, area in ((2, 2 * np.pi), (3, 4 * np.pi), (4, 2 * np.pi ** 2)):
        rule = sphere_rule(unit_ball(n), nang=64, npolar=64)
        assert rule.integrate_values(np.ones(rule.size)) == pytest.approx(area, rel=1e-10)


def test_translated_ball():
    ball = Ball((0.5, -0.25), 0.4)
    rule = ball_rule(ball, nr=16, ntheta=32)
    assert rule.integrate_values(np.ones(rule.size)) == pytest.approx(np.pi * 0.16, rel=1e-12)
    # centroid
    cx = rule.integrate_values(rule.points[:, 0]) / (np.pi * 0.16)
    assert cx == pytest.approx(0.5, abs=1e-12)


def test_ball3_axis_singular_integrand():
    # r^(-1) in the plane radius: the dominant accuracy risk for alpha = 1/2
    rule = ball_rule(unit_ball(3), nr=32, ntheta=8, naxis=32)
    val = rule.integrate_values(1.0 / np.hypot(rule.points[:, 0], rule.points[:, 1]))
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


# -- blocked rules -----------------------------------------------------------
# The rule builders as they were before they were split into slab blocks: one
# meshgrid per slab (per slab and angle at n = 4).  The blocked builders must
# give the same nodes and weights, bit for bit.


def _ball_rule_reference(ball, nr, ntheta, naxis):
    n = ball.n
    c = ball.center_array
    rho = ball.radius
    if n == 2:
        return disk_rule(c, rho, nr=nr, ntheta=ntheta)
    s, ws = gauss_legendre_01(nr)
    r01 = s ** 2.0
    wr01 = ws * 2.0 * s
    theta = (np.arange(ntheta) + 0.5) * (2.0 * np.pi / ntheta)
    wt = 2.0 * np.pi / ntheta
    cs, ct = np.cos(theta), np.sin(theta)
    pts, wts = [], []
    if n == 3:
        psi, wpsi = np.polynomial.legendre.leggauss(int(naxis))
        psi = psi * (np.pi / 2.0)
        wpsi = wpsi * (np.pi / 2.0)
        y = rho * np.sin(psi)
        wy = rho * np.cos(psi) * wpsi
        for yl, wl in zip(y, wy):
            rho_l = np.sqrt(max(rho * rho - yl * yl, 0.0))
            if rho_l <= 0.0:
                continue
            r = rho_l * r01
            wr = rho_l * wr01
            R, CS = np.meshgrid(r, cs, indexing="ij")
            _, SN = np.meshgrid(r, ct, indexing="ij")
            WR = np.repeat(wr[:, None], ntheta, axis=1)
            p = np.stack([c[0] + R * CS, c[1] + R * SN, np.full_like(R, c[2] + yl)], axis=-1)
            pts.append(p.reshape(-1, 3))
            wts.append((WR * R * wt * wl).reshape(-1))
        return pts, wts
    sy, wsy = gauss_legendre_01(int(naxis))
    ry = rho * sy
    wry = rho * wsy
    nphi = max(8, naxis)
    phi = (np.arange(nphi) + 0.5) * (2.0 * np.pi / nphi)
    wphi = 2.0 * np.pi / nphi
    for rl, wl in zip(ry, wry):
        rho_l = np.sqrt(max(rho * rho - rl * rl, 0.0))
        if rho_l <= 0.0:
            continue
        r = rho_l * r01
        wr = rho_l * wr01
        slab_p, slab_w = [], []
        for ph in phi:
            R, CS = np.meshgrid(r, cs, indexing="ij")
            _, SN = np.meshgrid(r, ct, indexing="ij")
            WR = np.repeat(wr[:, None], ntheta, axis=1)
            p = np.stack([c[0] + R * CS, c[1] + R * SN,
                          np.full_like(R, c[2] + rl * np.cos(ph)),
                          np.full_like(R, c[3] + rl * np.sin(ph))], axis=-1)
            slab_p.append(p.reshape(-1, 4))
            slab_w.append((WR * R * wt * rl * wl * wphi).reshape(-1))
        pts.append(np.concatenate(slab_p))
        wts.append(np.concatenate(slab_w))
    return pts, wts


def _sphere_rule_reference(ball, nang, npolar):
    n = ball.n
    c = ball.center_array
    rho = ball.radius
    if n == 2:
        theta = (np.arange(nang) + 0.5) * (2.0 * np.pi / nang)
        pts = np.stack([c[0] + rho * np.cos(theta), c[1] + rho * np.sin(theta)], axis=-1)
        return [pts], [np.full(nang, rho * 2.0 * np.pi / nang)]
    t, wt_polar = np.polynomial.legendre.leggauss(int(npolar))
    theta = (np.arange(nang) + 0.5) * (2.0 * np.pi / nang)
    wth = 2.0 * np.pi / nang
    if n == 3:
        sint = np.sqrt(np.maximum(1.0 - t * t, 0.0))
        S, T = np.meshgrid(sint, theta, indexing="ij")
        C, _ = np.meshgrid(t, theta, indexing="ij")
        W, _ = np.meshgrid(wt_polar, theta, indexing="ij")
        pts = np.stack([c[0] + rho * S * np.cos(T), c[1] + rho * S * np.sin(T),
                        c[2] + rho * C], axis=-1)
        w = rho * rho * W * wth
    else:
        sinp = np.sqrt((1.0 - t) / 2.0)
        cosp = np.sqrt((1.0 + t) / 2.0)
        nchi = max(16, nang // 4)
        chi = (np.arange(nchi) + 0.5) * (2.0 * np.pi / nchi)
        wch = 2.0 * np.pi / nchi
        P_s, T, H = np.meshgrid(sinp, theta, chi, indexing="ij")
        P_c, _, _ = np.meshgrid(cosp, theta, chi, indexing="ij")
        W, _, _ = np.meshgrid(wt_polar, theta, chi, indexing="ij")
        pts = np.stack([c[0] + rho * P_s * np.cos(T), c[1] + rho * P_s * np.sin(T),
                        c[2] + rho * P_c * np.cos(H), c[3] + rho * P_c * np.sin(H)], axis=-1)
        w = rho ** 3 * 0.25 * W * wth * wch
    # one entry per polar row
    return ([p.reshape(-1, n) for p in pts], [row.reshape(-1) for row in w])


BALLS = [unit_ball(2), Ball((0.5, -0.25), 0.37), unit_ball(3), Ball((0.1, -0.3, 0.2), 0.35),
         unit_ball(4), Ball((0.2, 0.1, -0.4, 0.3), 0.6)]
BALL_SPECS = [QuadratureSpec(nr=6, ntheta=8, naxis=5, nsphere=12, npolar=7),
              QuadratureSpec(nr=20, ntheta=40, naxis=9, nsphere=64, npolar=16),
              QuadratureSpec(nr=64, ntheta=128, naxis=24, nsphere=320, npolar=24)]


def _whole(parts):
    return parts if isinstance(parts, Rule) else Rule(*map(np.concatenate, parts))


@pytest.mark.parametrize("ball", BALLS, ids=lambda b: f"n{b.n}-{b.center}")
@pytest.mark.parametrize("spec", BALL_SPECS, ids=["tiny", "small", "wide"])
def test_blocked_rules_match_reference(ball, spec):
    refs = [(_whole(_ball_rule_reference(ball, spec.nr, spec.ntheta, spec.naxis)),
             spec.ball(ball), list(ball_blocks(ball, spec.nr, spec.ntheta, spec.naxis))),
            (_whole(_sphere_rule_reference(ball, spec.nsphere, spec.npolar)),
             spec.sphere(ball), list(sphere_blocks(ball, spec.nsphere, spec.npolar)))]
    for ref, rule, blocks in refs:
        assert np.array_equal(rule.points, ref.points)
        assert np.array_equal(rule.weights, ref.weights)
        assert np.array_equal(np.concatenate([b.points for b in blocks]), ref.points)
        assert np.array_equal(np.concatenate([b.weights for b in blocks]), ref.weights)


@pytest.mark.parametrize("ball", BALLS, ids=lambda b: f"n{b.n}-{b.center}")
@pytest.mark.parametrize("spec", BALL_SPECS, ids=["tiny", "small", "wide"])
def test_blocks_are_whole_slabs_within_budget(ball, spec):
    cases = [(_ball_rule_reference(ball, spec.nr, spec.ntheta, spec.naxis),
              ball_blocks(ball, spec.nr, spec.ntheta, spec.naxis)),
             (_sphere_rule_reference(ball, spec.nsphere, spec.npolar),
              sphere_blocks(ball, spec.nsphere, spec.npolar))]
    for ref, blocks in cases:
        sizes = [len(w) for w in ref[1]] if not isinstance(ref, Rule) else [ref.size]
        edges = set(np.cumsum([0] + sizes).tolist())
        start = 0
        for block in blocks:
            stop = start + block.size
            # a block starts and ends on slab boundaries
            assert start in edges and stop in edges
            assert block.size <= BLOCK_NODES or stop - start in sizes
            start = stop
        assert start == sum(sizes)


def test_default_n4_rules_are_blocked():
    spec = QuadratureSpec()
    ball = unit_ball(4)
    blocks = [b.size for b in ball_blocks(ball)]
    assert len(blocks) == 24 and sum(blocks) == 2_654_208
    rows = [b.size for b in sphere_blocks(ball, spec.nsphere, spec.npolar)]
    assert len(rows) == 16 and set(rows) == {BLOCK_NODES}
    # every rule of the default n = 3 spec is a single block
    assert len(list(ball_blocks(unit_ball(3)))) == 1
    assert len(list(sphere_blocks(unit_ball(3)))) == 1


@pytest.mark.parametrize("ball", BALLS[2:], ids=lambda b: f"n{b.n}-{b.center}")
def test_blocked_integrals_match_whole_rule(ball):
    # large enough that every rule here spans several blocks
    spec = QuadratureSpec(nr=64, ntheta=128, naxis=24, nsphere=320,
                          npolar=512 if ball.n == 3 else 48)
    c = ball.center_array

    def f(X):
        d = X - c
        return np.exp(d[:, 0]) * (1.0 + d[:, -1] ** 2) + np.hypot(d[:, 0], d[:, 1]) ** 0.5

    for blocks, rule, integral in (
            (ball_blocks(ball, spec.nr, spec.ntheta, spec.naxis), spec.ball(ball),
             spec.integrate_ball(ball, f)),
            (sphere_blocks(ball, spec.nsphere, spec.npolar), spec.sphere(ball),
             spec.integrate_sphere(ball, f))):
        assert len(list(blocks)) > 1
        assert integral == pytest.approx(rule.integrate_values(f(rule.points)), rel=1e-13)


@pytest.mark.parametrize("ball", BALLS[4:], ids=lambda b: f"n{b.n}-{b.center}")
@pytest.mark.parametrize("spec", BALL_SPECS[1:], ids=["small", "wide"])
def test_planar_rules_exact_for_planar_integrands(ball, spec):
    # one axis angle integrates a function of (x1, x2) alone exactly, so the
    # collapsed rules agree with the full rules up to rounding
    c = ball.center_array

    def f(X):
        return np.exp(X[:, 0]) * (1.0 + X[:, 1] ** 2) + np.hypot(X[:, 0] - c[0],
                                                                X[:, 1] - c[1]) ** 0.5

    for integral, rule in ((spec.integrate_ball(ball, f, planar=True), spec.ball(ball)),
                           (spec.integrate_sphere(ball, f, planar=True), spec.sphere(ball))):
        assert integral == pytest.approx(rule.integrate_values(f(rule.points)), rel=1e-14)


@pytest.mark.parametrize("ball", BALLS[4:], ids=lambda b: f"n{b.n}-{b.center}")
@pytest.mark.parametrize("spec", BALL_SPECS, ids=["tiny", "small", "wide"])
def test_planar_blocks_are_whole_slabs_within_budget(ball, spec):
    cases = [(ball_rule(ball, spec.nr, spec.ntheta, spec.naxis, planar=True),
              list(ball_blocks(ball, spec.nr, spec.ntheta, spec.naxis, planar=True)),
              spec.nr * spec.ntheta),
             (sphere_rule(ball, spec.nsphere, spec.npolar, planar=True),
              list(sphere_blocks(ball, spec.nsphere, spec.npolar, planar=True)),
              spec.nsphere)]
    for whole, blocks, per_slab in cases:
        assert np.array_equal(np.concatenate([b.points for b in blocks]), whole.points)
        assert np.array_equal(np.concatenate([b.weights for b in blocks]), whole.weights)
        for block in blocks:
            assert block.size % per_slab == 0
            assert block.size <= BLOCK_NODES or block.size == per_slab


def test_default_n4_planar_rules_are_one_block():
    ball = unit_ball(4)
    assert [b.size for b in ball_blocks(ball, planar=True)] == [110_592]
    assert [b.size for b in sphere_blocks(ball, planar=True)] == [32_768]
    # the whole rules of a spec never collapse
    assert QuadratureSpec().ball(ball).size == 2_654_208


@pytest.mark.parametrize("ball", BALLS[:4], ids=lambda b: f"n{b.n}-{b.center}")
@pytest.mark.parametrize("spec", BALL_SPECS, ids=["tiny", "small", "wide"])
def test_planar_ignored_below_n4(ball, spec):
    for full, planar in (
            ((ball_rule(ball, spec.nr, spec.ntheta, spec.naxis),),
             (ball_rule(ball, spec.nr, spec.ntheta, spec.naxis, planar=True),)),
            ((sphere_rule(ball, spec.nsphere, spec.npolar),),
             (sphere_rule(ball, spec.nsphere, spec.npolar, planar=True),)),
            (ball_blocks(ball, spec.nr, spec.ntheta, spec.naxis),
             ball_blocks(ball, spec.nr, spec.ntheta, spec.naxis, planar=True)),
            (sphere_blocks(ball, spec.nsphere, spec.npolar),
             sphere_blocks(ball, spec.nsphere, spec.npolar, planar=True))):
        full, planar = list(full), list(planar)
        assert len(full) == len(planar)
        for a, b in zip(full, planar):
            assert np.array_equal(a.points, b.points)
            assert np.array_equal(a.weights, b.weights)
