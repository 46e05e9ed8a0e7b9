import json
import tracemalloc

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import example, given, settings

from branchlab import cli
from branchlab import spectral as smod
from branchlab.fields import CylindricalModeField
from branchlab.pairspace import selection_costs
from branchlab.profiles import CylindricalProfile, excess, fit_profile
from branchlab.quadrature import (BLOCK_NODES, QuadratureSpec, _leggauss, gauss_legendre_01,
                                  unit_ball)
from branchlab.spectral import (FOUR_PI, CoverFunction, _cover_blocks,
                                remainder_decay_check, half_case_boundary_term,
                                l_span, project_L, profile_plane_gradient_lift,
                                radial_deviation_integral)

from conftest import C_NULL, cover_points, profile_pairs


def _mode(alpha, vec, kind="cos"):
    def fn(r, theta, y=None):
        ang = np.cos(alpha * np.asarray(theta)) if kind == "cos" else np.sin(alpha * np.asarray(theta))
        return (np.asarray(r) ** alpha * ang)[..., None] * vec

    return CoverFunction(fn, n=2, m=len(vec))


def test_l_span_dimension():
    r, th = np.array([0.2, 0.5, 0.9]), np.array([0.1, 2.0, 7.0])
    for n, m in ((2, 1), (2, 3), (3, 2), (4, 3)):
        y = np.full((3, n - 2), 0.3)
        span = l_span(C_NULL[:m] if m <= 2 else np.ones(m) + 0j, 0.5, r, th, y)
        assert span.shape == (3, 2 * m + 2 * (n - 2), m)


def test_project_member_and_orthogonal():
    alpha = 0.5
    w_in = _mode(alpha, np.array([1.0, -0.5]))
    proj = project_L(w_in, 1.0, C_NULL, alpha)
    assert proj.norm_sq_remainder <= 1e-10 * max(proj.norm_sq_w, 1.0)
    w_perp = _mode(alpha + 2, np.array([1.0, 0.0]))
    proj2 = project_L(w_perp, 1.0, C_NULL, alpha)
    assert np.max(np.abs(proj2.coefficients)) < 1e-12


def test_projection_pythagoras_and_contraction():
    alpha = 0.5
    mix = CoverFunction(
        lambda r, th, y=None: _mode(alpha, np.array([1.0, 0.0]))(r, th, y)
        + 0.4 * _mode(alpha + 2, np.array([0.0, 1.0]))(r, th, y),
        n=2, m=2)
    proj = project_L(mix, 1.0, C_NULL, alpha)
    assert proj.pythagoras_residual < 1e-10
    assert proj.norm_sq_remainder <= proj.norm_sq_w
    # idempotence: projecting the projection returns itself
    psi = CoverFunction(lambda r, th, y=None: proj.coefficients @ l_span(C_NULL, alpha, r, th, y),
                        n=2, m=2)
    again = project_L(psi, 1.0, C_NULL, alpha)
    assert again.norm_sq_remainder <= 1e-12 * max(proj.norm_sq_psi, 1.0)


def test_projection_singular_gram_rejected():
    # zero profile coefficient degenerates the tilt modes of L in n = 3
    from branchlab.errors import FitError

    w = CoverFunction(lambda r, th, y: (np.asarray(r) * 0.0)[..., None] * np.zeros(2),
                      n=3, m=2)
    with pytest.raises(FitError):
        project_L(w, 1.0, np.zeros(2, dtype=complex), 0.5)


def test_projection_n3_tilt_member():
    alpha = 0.5

    def fn(r, theta, y):
        d1, d2 = profile_plane_gradient_lift(C_NULL, alpha, np.asarray(r), np.asarray(theta))
        return 0.7 * d1 * np.asarray(y)[..., 0][..., None] - 0.2 * d2 * np.asarray(y)[..., 0][..., None]

    w = CoverFunction(fn, n=3, m=2)
    proj = project_L(w, 1.0, C_NULL, alpha)
    assert proj.norm_sq_remainder <= 1e-10 * max(proj.norm_sq_w, 1e-30)


def test_half_case_boundary_term_zero_cases():
    alpha = 0.5
    # y-independent mode: exactly zero
    def fn_pure(r, theta, y):
        return (np.asarray(r) ** 0.5 * np.cos(0.5 * np.asarray(theta)))[..., None] * np.array([1.0, 0.0])

    w = CoverFunction(fn_pure, n=3, m=2)
    limit, unc, info = half_case_boundary_term(w, 0, c0=C_NULL, alpha=alpha)
    assert np.max(np.abs(limit)) < 1e-10


def test_half_case_boundary_term_needs_an_axis():
    w = CoverFunction(lambda r, th, y: np.zeros(np.shape(r) + (2,)), n=2, m=2)
    with pytest.raises(ValueError, match="n >= 3"):
        half_case_boundary_term(w, 0, c0=C_NULL, alpha=0.5)


def test_half_case_adversarial_detected():
    alpha = 0.5

    def fn_bad(r, theta, y):
        d1, _ = profile_plane_gradient_lift(C_NULL, alpha, np.asarray(r), np.asarray(theta))
        return np.asarray(r)[..., None] * d1 * np.asarray(y)[..., 0][..., None]

    w = CoverFunction(fn_bad, n=3, m=2)
    limit, unc, info = half_case_boundary_term(w, 0, c0=C_NULL, alpha=alpha)
    assert np.max(np.abs(limit)) > 10 * max(unc, 1e-12)


def test_decay_check_family():
    alpha = 0.5
    mix = CoverFunction(
        lambda r, th, y=None: _mode(alpha, np.array([1.0, 0.0]))(r, th, y)
        + 0.3 * _mode(alpha + 2, np.array([1.0, 0.0]))(r, th, y),
        n=2, m=2)
    rep = remainder_decay_check(mix, theta=0.125, scales=(0.5, 0.25, 0.125),
                          c0=C_NULL, alpha=alpha)
    assert rep.hypotheses_ok
    contr = rep.contractions
    assert all(c < 1.0 for c in contr)
    assert max(contr) / min(contr) < 1.5  # roughly constant per scale
    # pure (alpha+2)-mode perturbation: normalized remainder ~ rho^4
    assert rep.exponent_estimate == pytest.approx(4.0, abs=0.1)
    # w in L: left side vanishes at all scales
    member = _mode(alpha, np.array([0.3, 0.7]))
    rep0 = remainder_decay_check(member, theta=0.125, scales=(0.25,), c0=C_NULL, alpha=alpha)
    assert rep0.lhs <= 1e-12


def test_classification_consistency():
    # manufactured homogeneous degree-alpha harmonic cover functions built
    # from the allowed modes have zero remainder, for k = 1..4
    for k in range(1, 5):
        alpha = k / 2.0
        w = CoverFunction(
            lambda r, th, y=None, a=alpha: (
                np.asarray(r) ** a
                * (0.6 * np.cos(a * np.asarray(th)) - 0.8 * np.sin(a * np.asarray(th)))
            )[..., None] * np.array([1.0, 0.4]),
            n=2, m=2)
        proj = project_L(w, 1.0, C_NULL, alpha)
        assert proj.norm_sq_remainder <= 1e-10 * max(proj.norm_sq_w, 1e-30)


def _cover_ball_rule_reference(rho, n, nr=32, ntheta=128, ny=16):
    """The former per-slab cover rule as one whole rule, the reference for the cover blocks."""
    s, ws = gauss_legendre_01(nr)
    theta = (np.arange(ntheta) + 0.5) * (FOUR_PI / ntheta)
    dth = FOUR_PI / ntheta
    if n == 2:
        r = rho * s ** 2.0
        wr = rho * 2.0 * s * ws
        R, T = np.meshgrid(r, theta, indexing="ij")
        W = (wr * r)[:, None] * dth * np.ones_like(T)
        return R.ravel(), T.ravel(), None, W.ravel()
    psi, wpsi = _leggauss(int(ny))
    psi = psi * (np.pi / 2.0)
    wpsi = wpsi * (np.pi / 2.0)
    ys = rho * np.sin(psi)
    wys = rho * np.cos(psi) * wpsi
    rs_list, th_list, y_list, w_list = [], [], [], []
    for yl, wl in zip(ys, wys):
        rho_l = np.sqrt(max(rho * rho - yl * yl, 0.0))
        if rho_l <= 0:
            continue
        r = rho_l * s ** 2.0
        wr = rho_l * 2.0 * s * ws
        R, T = np.meshgrid(r, theta, indexing="ij")
        W = (wr * r)[:, None] * dth * wl * np.ones_like(T)
        rs_list.append(R.ravel())
        th_list.append(T.ravel())
        y_list.append(np.full(R.size, yl))
        w_list.append(W.ravel())
    return (np.concatenate(rs_list), np.concatenate(th_list),
            np.concatenate(y_list)[:, None], np.concatenate(w_list))


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("rho", [1.0, 0.5, 0.125, 1.0 / 32, 0.3, 0.7, 1.0 / 3])
@pytest.mark.parametrize("counts", [{}, {"nr": 7, "ntheta": 12, "ny": 5}])
def test_cover_ball_rule_matches_former_slab_loop(monkeypatch, n, rho, counts):
    for name, count in counts.items():
        monkeypatch.setattr(smod, f"COVER_{name.upper()}", count)
    blocks = list(_cover_blocks(rho, n))
    r, th, y, w = (np.concatenate([b[i] for b in blocks]) for i in range(4))
    r0, th0, y0, w0 = _cover_ball_rule_reference(rho, n, **counts)
    # the blocks are runs of whole disks within BLOCK_NODES: the one disk at
    # n = 2, and 8 blocks of two 4,096-node disks at n = 3 by default
    disk = smod.COVER_NR * smod.COVER_NTHETA
    sizes = [b[0].shape[0] for b in blocks]
    assert all(size % disk == 0 and size <= max(BLOCK_NODES, disk) for size in sizes)
    if n == 2:
        assert sizes == [disk]
    if not counts:
        assert sizes == ([4096] if n == 2 else [8192] * 8)
    assert np.array_equal(r, r0) and np.array_equal(th, th0)
    # y is (N, n - 2) at every n; the former rule had none on the plane
    assert y.shape == (r.shape[0], n - 2)
    assert (n == 2 and y0 is None) or np.array_equal(y, y0)
    assert np.max(np.abs(w - w0) / w0) <= 1e-14
    if n == 2 and np.log2(rho) == round(np.log2(rho)):
        # at power-of-two radii the ball's weight formula rounds the same way
        assert np.array_equal(w, w0)


def _project_L_reference(w, rho, c0, alpha):
    """The former project_L: one closure per element of L and a K^2 Gram loop.

    Returns the coefficients, psi, the remainder and the three norms.
    """
    c0 = np.atleast_1d(np.asarray(c0, dtype=complex))
    n, m = w.n, w.m
    elems = []
    for k in range(m):
        ek = np.zeros(m)
        ek[k] = 1.0

        def cosmode(r, theta, y=None, ek=ek):
            return (np.asarray(r, float) ** alpha * np.cos(alpha * np.asarray(theta, float)))[..., None] * ek

        def sinmode(r, theta, y=None, ek=ek):
            return (np.asarray(r, float) ** alpha * np.sin(alpha * np.asarray(theta, float)))[..., None] * ek

        elems += [cosmode, sinmode]
    for i in (0, 1):
        for j in range(n - 2):

            def tilt(r, theta, y, i=i, j=j):
                d1, d2 = profile_plane_gradient_lift(c0, alpha, r, theta)
                yj = np.asarray(y, float)[..., j]
                return (d1 if i == 0 else d2) * yj[..., None]

            elems.append(tilt)
    r, th, y, wt = _cover_ball_rule_reference(rho, n)

    def ev(f):
        return np.asarray(f(r, th, y), dtype=float).reshape(r.shape[0], -1)

    Ev = [ev(e) for e in elems]
    Wv = ev(w)
    K = len(elems)
    G = np.zeros((K, K))
    rhs = np.zeros(K)
    for a in range(K):
        for b in range(a, K):
            G[a, b] = G[b, a] = float(np.sum(wt * np.sum(Ev[a] * Ev[b], axis=1)))
        rhs[a] = float(np.sum(wt * np.sum(Ev[a] * Wv, axis=1)))
    coef = np.linalg.solve(G, rhs)

    def psi(r_, th_, y_=None):
        out = None
        for ck, ek in zip(coef, elems):
            term = ck * np.asarray(ek(r_, th_, y_), dtype=float)
            out = term if out is None else out + term
        return out

    def rem(r_, th_, y_=None):
        return np.asarray(w(r_, th_, y_), dtype=float) - np.asarray(psi(r_, th_, y_), dtype=float)

    Pv = sum(coef[a] * Ev[a] for a in range(K))
    norms = [float(np.sum(wt * np.sum(v * v, axis=1))) for v in (Wv, Pv, Wv - Pv)]
    return coef, psi, rem, norms


def _rel_err(a, b):
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b)))) / max(float(np.max(np.abs(b))), 1e-300)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("alpha", [0.5, 1.5])
def test_project_L_matches_former_loop(n, m, alpha):
    rng = np.random.default_rng(100 * n + 10 * m + int(2 * alpha))
    c0 = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    v = rng.standard_normal((3, m))

    def fn(r, th, y=None):
        r, th = np.asarray(r, float), np.asarray(th, float)
        out = ((r ** alpha * np.cos(alpha * th))[..., None] * v[0]
               + (r ** (alpha + 2) * np.sin((alpha + 2) * th))[..., None] * v[1])
        if n == 3:
            out = out + (np.asarray(y, float)[..., 0] * r * np.cos(th))[..., None] * v[2]
        return out

    w = CoverFunction(fn, n=n, m=m)
    proj = project_L(w, 0.5, c0, alpha)
    coef, psi, rem, norms = _project_L_reference(w, 0.5, c0, alpha)
    assert _rel_err(proj.coefficients, coef) <= 1e-12
    for got, want in zip((proj.norm_sq_w, proj.norm_sq_psi, proj.norm_sq_remainder), norms):
        assert abs(got - want) <= 1e-12 * abs(want)
    r, th = rng.uniform(0.05, 0.5, 50), rng.uniform(0.0, FOUR_PI, 50)
    y = rng.uniform(-0.3, 0.3, (50, n - 2))
    psi_got = proj.coefficients @ l_span(c0, alpha, r, th, y)
    assert _rel_err(psi_got, psi(r, th, y)) <= 1e-12
    assert _rel_err(np.asarray(w(r, th, y)) - psi_got, rem(r, th, y)) <= 1e-12
    assert proj.pythagoras_residual <= 1e-10


def test_decay_check_memory_is_block_sized():
    # the n = 3 cover ball has 65,536 nodes; projected and integrated block
    # by block, the check holds one 8,192-node block's span and the (N, m)
    # values of w at a time.  The blow-up is that of the profile-pipeline
    # n = 3 field at its quadrature spec
    u = CylindricalModeField.power_sum([(C_NULL, 1), (0.01 * C_NULL, 5)], n=3)
    spec = QuadratureSpec(nr=24, ntheta=48, naxis=12, nsphere=128)
    prof = fit_profile(u, 1, spec=spec)
    w = CoverFunction.blowup(u, prof, float(np.sqrt(excess(u, prof, unit_ball(3), spec))))
    tracemalloc.start()
    try:
        remainder_decay_check(w, c0=prof.c, alpha=0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 2 ** 20


def _count_calls(monkeypatch, name, rho_at):
    """Replace spectral.<name> by a wrapper that records the radius of each call."""
    calls = []
    fn = getattr(smod, name)

    def counted(*args, **kwargs):
        calls.append(args[rho_at])
        return fn(*args, **kwargs)

    monkeypatch.setattr(smod, name, counted)
    return calls


def test_decay_check_projects_each_radius_once(monkeypatch):
    projections = _count_calls(monkeypatch, "project_L", 1)
    integrals = _count_calls(monkeypatch, "radial_deviation_integral", 2)
    rep = remainder_decay_check(_mode(0.5, np.array([1.0, 0.0])), c0=C_NULL, alpha=0.5)
    # default scales (0.25, 0.125, 0.0625) and theta = 0.125, itself a scale:
    # projections at the scales, theta and 1; integrals at the scales and
    # their quarters, 0.25 / 4 being the scale 0.0625
    assert sorted(projections) == [0.0625, 0.125, 0.25, 1.0]
    assert sorted(integrals) == [0.015625, 0.03125, 0.0625, 0.125, 0.25]
    assert rep.unit_projection.rho == 1.0
    assert rep.rhs_norm == rep.unit_projection.norm_sq_remainder


def test_stage_spectral_makes_no_projection_of_its_own(tmp_path, monkeypatch):
    projections = _count_calls(monkeypatch, "project_L", 1)
    cfg = {"schema_version": 1, "kind": "spectral",
           "field": {"type": "power_sum", "n": 2,
                     "terms": [{"k": 1, "c": [[0.7071067811865476, 0.0], [0.0, 0.7071067811865476]]},
                               {"k": 3, "c": [[0.01, 0.0], [0.0, 0.01]]}]},
           "params": {"k": 1, "theta": 0.125, "scales": [0.5, 0.25, 0.125]},
           "output_dir": str(tmp_path / "out"), "seed": 0}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    assert cli.main(["run", str(path)]) == cli.EXIT_OK
    assert sorted(projections) == [0.125, 0.25, 0.5, 1.0]
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert [c["name"] for c in summary["checks"]] == ["pythagoras", "contractions_below_one"]
    assert all(c["status"] == "pass" for c in summary["checks"])


def _former_blowup(u, prof, scale):
    """The parent's CoverFunction.blowup body, the profile's former frame lift inlined."""

    def fn(r, theta, y=None):
        r = np.asarray(r, dtype=float)
        theta = np.asarray(theta, dtype=float)
        cols = [r * np.cos(theta), r * np.sin(theta)]
        if prof.n > 2:
            yarr = np.asarray(y, dtype=float).reshape(r.shape + (prof.n - 2,))
            for j in range(prof.n - 2):
                cols.append(yarr[..., j])
        pts_frame = np.stack(cols, axis=-1)
        pts = prof.from_frame(pts_frame.reshape(-1, prof.n))
        s = u.symmetric_values(pts).reshape(r.shape + (u.m,))
        w = r ** prof.alpha * np.exp(1j * prof.alpha * theta)
        phi = np.real(np.asarray(w)[..., None] * prof.c)
        d_keep, d_swap = selection_costs(s, phi)
        sel = np.where(d_keep <= d_swap, 1.0, -1.0)
        return (sel[..., None] * s - phi) / scale

    return fn


@st.composite
def _blowups(draw):
    u, prof = draw(profile_pairs())
    return u, prof, draw(st.floats(0.1, 3.0)), draw(cover_points(u.n))


@settings(max_examples=200, deadline=None)
@given(_blowups())
@example((CylindricalModeField.power_sum([(C_NULL, 1)], n=3),
          CylindricalProfile(C_NULL, 1, B=[0.2, -0.1],
                             center=(-0.0, 0.1, 0.0), n=3), 0.5,
          (np.array([0.0, 0.5, 0.5, 1.0]), np.array([-0.0, 0.0, 2.0 * np.pi,
                                                      np.nextafter(FOUR_PI, 0.0)]),
           np.array([[-0.0], [0.0], [-0.0], [0.3]]))))
def test_blowup_keeps_the_former_bits(case):
    # the blow-up pairs u through CylindricalProfile.paired; its values keep
    # the former body's bits at every cover point, tilted and off-centre
    u, prof, scale, (r, theta, y) = case
    got = CoverFunction.blowup(u, prof, scale)(r, theta, y)
    want = _former_blowup(u, prof, scale)(r, theta, y)
    assert got.shape == want.shape == r.shape + (u.m,)
    assert got.tobytes() == want.tobytes()


def _former_radial_deviation_integral(w, alpha, rho):
    """The parent's radial_deviation_integral, with no axis values on the plane."""
    lp, lm = 1.0 + smod.RADIAL_FD_EPS, 1.0 - smod.RADIAL_FD_EPS
    parts = []
    for r, th, y, wt in _cover_blocks(rho, w.n):
        y = None if w.n == 2 else y
        R = r if y is None else np.sqrt(r ** 2 + np.sum(y ** 2, axis=1))
        wp = smod._eval_cover(w, r * lp, th, None if y is None else y * lp) / (lp * R[:, None]) ** alpha
        wm = smod._eval_cover(w, r * lm, th, None if y is None else y * lm) / (lm * R[:, None]) ** alpha
        dR = (wp - wm) / (2.0 * smod.RADIAL_FD_EPS * R[:, None])
        parts.append(np.sum(wt * R ** (2 - w.n) * np.sum(dR * dR, axis=1)))
    return float(np.sum(parts))


@pytest.mark.parametrize("n", [2, 3])
def test_radial_deviation_keeps_the_former_bits(n):
    # on the plane R = sqrt(r^2 + |y|^2) with y (N, 0) is r bit for bit
    def fn(r, th, y):
        out = (r ** 0.5 * np.cos(0.5 * th) + 0.3 * r ** 2.5 * np.sin(2.5 * th))[:, None]
        return out if n == 2 else out * (1.0 + y)

    w = CoverFunction(fn, n=n, m=1)
    for rho in (1.0, 0.3, 0.0625):
        assert radial_deviation_integral(w, 0.5, rho) == _former_radial_deviation_integral(w, 0.5, rho)
