import numpy as np
import pytest

from branchlab.fields import PolarGrid
from branchlab.quadrature import (BLOCK_NODES, GRADING, Ball, QuadratureSpec, Rule, _axis_nodes,
                                  _ball_rings, _leggauss, _midpoints, _sphere_rings,
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
# The rule builders as they were before they were split into blocks: one
# meshgrid per disk (per axis slab at n = 3, per axis slab and angle at n = 4)
# and one per circle of a sphere (per polar row, and per row and axis angle
# at n = 4, theta innermost).  Each returns one entry per disk or circle, and
# the blocked builders must give the same nodes and weights, bit for bit.


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
        for ph in phi:
            R, CS = np.meshgrid(r, cs, indexing="ij")
            _, SN = np.meshgrid(r, ct, indexing="ij")
            WR = np.repeat(wr[:, None], ntheta, axis=1)
            p = np.stack([c[0] + R * CS, c[1] + R * SN,
                          np.full_like(R, c[2] + rl * np.cos(ph)),
                          np.full_like(R, c[3] + rl * np.sin(ph))], axis=-1)
            pts.append(p.reshape(-1, 4))
            wts.append((WR * R * wt * rl * wl * wphi).reshape(-1))
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
        P_s, H, T = np.meshgrid(sinp, chi, theta, indexing="ij")
        P_c, _, _ = np.meshgrid(cosp, chi, theta, indexing="ij")
        W, _, _ = np.meshgrid(wt_polar, chi, theta, indexing="ij")
        pts = np.stack([c[0] + rho * P_s * np.cos(T), c[1] + rho * P_s * np.sin(T),
                        c[2] + rho * P_c * np.cos(H), c[3] + rho * P_c * np.sin(H)], axis=-1)
        w = rho ** 3 * 0.25 * W * wth * wch
    # one entry per circle
    return list(pts.reshape(-1, nang, n)), list(w.reshape(-1, nang))


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
             ball_rule(ball, spec.nr, spec.ntheta, spec.naxis), list(ball_blocks(ball, spec.nr, spec.ntheta, spec.naxis))),
            (_whole(_sphere_rule_reference(ball, spec.nsphere, spec.npolar)),
             sphere_rule(ball, spec.nsphere, spec.npolar),
             list(sphere_blocks(ball, spec.nsphere, spec.npolar)))]
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
            # a block starts and ends on disk (circle) boundaries
            assert start in edges and stop in edges
            assert block.size <= BLOCK_NODES or stop - start in sizes
            start = stop
        assert start == sum(sizes)


def _block_count(count, per_disk):
    """Blocks of whole disks (circles) of per_disk nodes within BLOCK_NODES, a larger one alone."""
    per_block = max(1, BLOCK_NODES // per_disk)
    return -(-count // per_block)


def test_default_n4_rules_are_blocked():
    # default spec: a disk is 48 x 96 nodes and a circle 256.  The n = 4 ball
    # has 24 axis radii x 24 axis angles of disks and the sphere 128 polar
    # rows x 64 axis angles of circles; at n = 3 there are 24 disks and 128
    # circles.  No block exceeds BLOCK_NODES.
    for ball, disks, circles in ((unit_ball(4), 24 * 24, 128 * 64), (unit_ball(3), 24, 128)):
        blocks = [b.size for b in ball_blocks(ball)]
        assert len(blocks) == _block_count(disks, 4_608) and sum(blocks) == disks * 4_608
        rows = [b.size for b in sphere_blocks(ball)]
        assert len(rows) == _block_count(circles, 256) and sum(rows) == circles * 256
        assert max(blocks + rows) <= BLOCK_NODES


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
            (ball_blocks(ball, spec.nr, spec.ntheta, spec.naxis), ball_rule(ball, spec.nr, spec.ntheta, spec.naxis),
             spec.integrate_ball(ball, f)),
            (sphere_blocks(ball, spec.nsphere, spec.npolar),
             sphere_rule(ball, spec.nsphere, spec.npolar), spec.integrate_sphere(ball, f))):
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

    for integral, rule in ((spec.integrate_ball(ball, f, planar=True), ball_rule(ball, spec.nr, spec.ntheta, spec.naxis)),
                           (spec.integrate_sphere(ball, f, planar=True),
                            sphere_rule(ball, spec.nsphere, spec.npolar))):
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


def test_default_planar_rules_are_blocked():
    # the collapsed n = 4 rules keep 24 slabs of 48 x 96 and 128 rows of 256
    # nodes; the folded n = 3 rules keep half of each
    for ball, slabs, rows in ((unit_ball(4), 24, 128), (unit_ball(3), 12, 64)):
        blocks = [b.size for b in ball_blocks(ball, planar=True)]
        assert len(blocks) == _block_count(slabs, 4_608) and sum(blocks) == slabs * 4_608
        blocks = [b.size for b in sphere_blocks(ball, planar=True)]
        assert len(blocks) == _block_count(rows, 256) and sum(blocks) == rows * 256
    # a whole rule at a spec's counts never collapses
    spec = QuadratureSpec()
    assert ball_rule(unit_ball(4), spec.nr, spec.ntheta, spec.naxis).size == 2_654_208


@pytest.mark.parametrize("ball", BALLS[:4], ids=lambda b: f"n{b.n}-{b.center}")
@pytest.mark.parametrize("spec", BALL_SPECS, ids=["tiny", "small", "wide"])
def test_planar_ignored_below_n4(ball, spec):
    # planar leaves the n = 2 rules as they are; the n = 3 rules fold onto
    # their psi <= 0 (t <= 0) half: the full rule's nodes there, bit for bit,
    # with weights doubled off the mirror plane x3 = c3, where the middle slab
    # or row of an odd count keeps its weight.  The specs hold odd and even
    # naxis and npolar.
    cases = ((ball_rule(ball, spec.nr, spec.ntheta, spec.naxis),
              ball_rule(ball, spec.nr, spec.ntheta, spec.naxis, planar=True),
              ball_blocks(ball, spec.nr, spec.ntheta, spec.naxis, planar=True), spec.naxis),
             (sphere_rule(ball, spec.nsphere, spec.npolar),
              sphere_rule(ball, spec.nsphere, spec.npolar, planar=True),
              sphere_blocks(ball, spec.nsphere, spec.npolar, planar=True), spec.npolar))
    for full, planar, blocks, count in cases:
        blocks = list(blocks)
        assert np.array_equal(np.concatenate([b.points for b in blocks]), planar.points)
        assert np.array_equal(np.concatenate([b.weights for b in blocks]), planar.weights)
        if ball.n == 2:
            keep, fold = slice(None), 1.0
        else:
            x3, c3 = full.points[:, 2], ball.center[2]
            keep = x3 <= c3
            fold = np.where(x3[keep] < c3, 2.0, 1.0)
            assert np.any(fold == 1.0) == (count % 2 == 1)
        assert np.array_equal(planar.points, full.points[keep])
        assert np.array_equal(planar.weights, full.weights[keep] * fold)


# -- the one point builder ---------------------------------------------------
# The parent's ring tables and ring points, before _ring_points took (r, theta,
# y): the n = 4 axis offsets were stacked from (y cos phi, y sin phi) in
# _ball_rings and _sphere_rings, and _ring_points took (radii, offsets,
# theta).  Every rule, table and grid node keeps its bits, signed zeros of
# the centre and of the axis values included.


def _former_ring_points(radii, offsets, theta):
    shape = np.broadcast_shapes(np.shape(radii), offsets.shape[:-1])
    pts = np.empty(shape + theta.shape + (2 + offsets.shape[-1],))
    a = np.broadcast_to(radii, shape)[..., None]
    pts[..., 0] = a * np.cos(theta)
    pts[..., 1] = a * np.sin(theta)
    pts[..., 2:] = offsets[..., None, :]
    return pts.reshape(-1, pts.shape[-1])


def _former_ball_rings(ball, nr, ntheta, naxis, disks=slice(None), planar=False,
                       period=2.0 * np.pi):
    n, rho = ball.n, ball.radius
    s, ws = gauss_legendre_01(nr)
    theta, wt = _midpoints(ntheta, period)
    if n == 2:
        y, offsets = np.zeros(1), np.zeros((1, 0))
    elif n == 3:
        psi, wpsi = _axis_nodes(n, planar, naxis)
        psi, wpsi = psi[disks] * (np.pi / 2.0), wpsi[disks] * (np.pi / 2.0)
        y = rho * np.sin(psi)
        wy = rho * np.cos(psi) * wpsi
        offsets = y[:, None]
    else:
        sy, wsy = gauss_legendre_01(naxis)
        phi, wphi = _midpoints(1 if planar else max(8, naxis))
        slab, pair = np.divmod(np.arange(sy.shape[0] * phi.shape[0])[disks], phi.shape[0])
        y, wy, phi = rho * sy[slab], rho * wsy[slab], phi[pair]
        offsets = np.stack([y * np.cos(phi), y * np.sin(phi)], axis=-1)
    rho_l = np.sqrt(np.maximum(rho * rho - y * y, 0.0))[:, None]
    r = rho_l * s ** GRADING
    w = rho_l * (ws * GRADING * s ** (GRADING - 1.0)) * r * wt
    if n == 3:
        w = w * wy[:, None]
    elif n == 4:
        w = w * y[:, None] * wy[:, None] * wphi
    return r, offsets, w, theta


def _former_sphere_rings(ball, nang, npolar, circles=slice(None), planar=False):
    n, rho = ball.n, ball.radius
    theta, wth = _midpoints(nang)
    if n == 2:
        return np.full(1, rho), np.zeros((1, 0)), np.full(1, rho * 2.0 * np.pi / nang), theta
    t, wpolar = _axis_nodes(n, planar, npolar)
    if n == 3:
        t, wpolar = t[circles], wpolar[circles]
        return (rho * np.sqrt(np.maximum(1.0 - t * t, 0.0)), (rho * t)[:, None],
                rho * rho * wpolar * wth, theta)
    chi, wch = _midpoints(1 if planar else max(16, nang // 4))
    row, pair = np.divmod(np.arange(t.shape[0] * chi.shape[0])[circles], chi.shape[0])
    t, wpolar, chi = t[row], wpolar[row], chi[pair]
    y = rho * np.sqrt((1.0 + t) / 2.0)
    return (rho * np.sqrt((1.0 - t) / 2.0), np.stack([y * np.cos(chi), y * np.sin(chi)], axis=-1),
            rho ** 3 * 0.25 * wpolar * wth * wch, theta)


def _former_rule(ball, radii, offsets, weights, theta):
    pts = _former_ring_points(radii, offsets, theta)
    pts += ball.center_array
    return pts, np.repeat(weights.ravel(), theta.shape[0])


def _bytes(*arrays):
    return [np.ascontiguousarray(a).tobytes() for a in arrays]


SIGNED_ZERO_BALLS = [Ball((-0.0, 0.0), 0.7), Ball((0.0, -0.0, -0.0), 1.0),
                     Ball((-0.0, 0.25, 0.0, -0.0), 0.6), Ball((0.2, 0.1, -0.4, 0.3), 0.6)]


@pytest.mark.parametrize("ball", SIGNED_ZERO_BALLS, ids=lambda b: f"n{b.n}-{b.center}")
@pytest.mark.parametrize("planar", [False, True])
@pytest.mark.parametrize("runs", [slice(None), slice(1, 4)])
def test_ring_rules_keep_the_former_point_bits(ball, planar, runs):
    # odd axis counts put a node on the axis plane: y = 0 at n = 3
    nr, ntheta, naxis, nang, npolar = 5, 8, 5, 12, 7
    tables = [(_ball_rings(ball, nr, ntheta, naxis, runs, planar),
               _former_ball_rings(ball, nr, ntheta, naxis, runs, planar),
               ball_rule(ball, nr, ntheta, naxis, disks=runs, planar=planar), True),
              (_sphere_rings(ball, nang, npolar, runs, planar),
               _former_sphere_rings(ball, nang, npolar, runs, planar),
               sphere_rule(ball, nang, npolar, circles=runs, planar=planar), False)]
    for table, former, rule, disks in tables:
        assert _bytes(*table) == _bytes(*former)
        r, offsets, w, theta = former
        pts, wts = _former_rule(ball, r, offsets[:, None] if disks else offsets, w, theta)
        assert _bytes(rule.points, rule.weights) == _bytes(pts, wts)
    cover = _ball_rings(ball, nr, ntheta, naxis, runs, planar, period=4.0 * np.pi)
    assert _bytes(*cover) == _bytes(*_former_ball_rings(ball, nr, ntheta, naxis, runs, planar,
                                                        period=4.0 * np.pi))


@pytest.mark.parametrize("ys", [None, [-0.5, -0.0, 0.0, 0.25]])
def test_polar_grid_nodes_keep_the_former_point_bits(ys):
    # angles at the seam, signed, and just below 4 pi on the cover
    thetas = [-0.0, 0.0, 0.5, np.pi, 2.0 * np.pi, np.nextafter(4.0 * np.pi, 0.0)]
    grid = PolarGrid([0.0, 0.3, 1.0], thetas, ys)
    offsets = np.zeros(0) if ys is None else grid.ys[:, None, None]
    assert _bytes(grid.nodes()) == _bytes(_former_ring_points(grid.rs, offsets, grid.thetas))
    assert grid.nodes().shape == (np.prod(grid.shape), grid.n)
