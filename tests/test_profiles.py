import json
import tracemalloc

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import event, example, given, settings

from branchlab import cli
from branchlab.errors import FitError, PairingError
from branchlab.fields import BranchPolynomialField, CylindricalModeField, Field, PolarGrid
from branchlab.minimizer import BoundaryTrace
from branchlab.pairspace import selection_costs
from branchlab.profiles import (ROTATION_BOUND, CylindricalProfile, _rotation,
                                corollary_checks, cover_grid, excess, fit_c,
                                fit_profile, fit_rotation, graphical_decompose,
                                lift_against_profile, profile_plane_gradient_lift)
from branchlab.quadrature import gauss_legendre_01, unit_ball

from conftest import C_NULL, cover_points, power_sum_norm_sq, profile_pairs


def c_dist(c1, c2):
    """Coefficients of one pair agree up to a global sign."""
    return min(np.linalg.norm(c1 - c2), np.linalg.norm(c1 + c2))


@pytest.mark.parametrize("n", [3, 4, 5])
def test_rotation_matches_expm(n):
    # the closed form against scipy's expm of A = [[0, B], [-B^T, 0]] over
    # random B with |B| from 1e-6 to about 10; Q is orthogonal
    from scipy.linalg import expm

    rng = np.random.default_rng(n)
    for scale in np.geomspace(1e-6, 10.0, 200):
        params = rng.standard_normal(2 * (n - 2))
        B = (scale * params / np.linalg.norm(params)).reshape(2, n - 2)
        A = np.block([[np.zeros((2, 2)), B], [-B.T, np.zeros((n - 2, n - 2))]])
        Q = _rotation(B)
        assert np.max(np.abs(Q - expm(A))) <= 1e-12
        assert np.max(np.abs(Q.T @ Q - np.eye(n))) <= 1e-14


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_rotation_is_the_identity_at_zero(n):
    # exact, so that a profile with B = 0 keeps its frame bit for bit
    assert np.array_equal(_rotation(np.zeros((2, n - 2))), np.eye(n))
    assert np.array_equal(CylindricalProfile(C_NULL, 1, n=n).Q, np.eye(n))


def test_profile_evaluation_matches_power_sum():
    rng = np.random.default_rng(0)
    X = rng.uniform(-0.7, 0.7, size=(50, 2))
    for k in (1, 2, 5):
        c = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        prof = CylindricalProfile(c, k, n=2)
        ref = CylindricalModeField.power_sum([(c, k)], n=2)
        from branchlab.pairspace import metric_sq_symmetric

        g2 = metric_sq_symmetric(prof.symmetric_values(X), ref.symmetric_values(X))
        assert np.max(g2) < 1e-24


def test_gauge_invariance():
    # c -> c e^(i alpha theta0) with the plane frame rotated by theta0 gives
    # the identical unordered-pair field
    rng = np.random.default_rng(4)
    from branchlab.pairspace import metric_sq_symmetric

    for k in (1, 2, 3):
        alpha = k / 2.0
        theta0 = 0.77
        c = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        p1 = CylindricalProfile(c, k, n=2)
        p2 = CylindricalProfile(c * np.exp(1j * alpha * theta0), k, n=2)
        R = np.array([[np.cos(theta0), -np.sin(theta0)],
                      [np.sin(theta0), np.cos(theta0)]])
        X = rng.uniform(-0.8, 0.8, size=(40, 2))
        g2 = metric_sq_symmetric(p1.symmetric_values(X @ R.T), p2.symmetric_values(X))
        assert np.max(g2) < 1e-24


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
def test_fit_c_exact(k):
    rng = np.random.default_rng(k)
    c0 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    u = CylindricalModeField.power_sum([(c0, k)], n=2)
    c = fit_c(u, k)
    assert c_dist(c, c0) < 1e-11


def test_fit_c_perturbation_orthogonality():
    # degree alpha+1 perturbations are angularly orthogonal to the fit basis
    u = CylindricalModeField.power_sum([(C_NULL, 1), (0.05 * C_NULL, 3)], n=2)
    c = fit_c(u, 1)
    assert c_dist(c, C_NULL) < 1e-12


def test_fit_c_noise(spec_fast):
    rng = np.random.default_rng(7)

    class NoisyField(CylindricalModeField):
        def symmetric_values(self, X):
            base = super().symmetric_values(X)
            gen = np.random.default_rng(
                int(abs(X[0, 0]) * 1e6) % 2 ** 31)
            return base + 1e-3 * gen.standard_normal(base.shape)

    u = NoisyField.power_sum([(C_NULL, 1)], n=2)
    errs = []
    for _ in range(3):
        errs.append(c_dist(fit_c(u, 1), C_NULL))
    assert max(errs) < 5e-3  # noise-scaled bound


def test_fit_c_ill_conditioned_rejected():
    u = CylindricalModeField.power_sum([(C_NULL, 64)], n=2)
    # at alpha = 32 every cos(alpha theta) on the 128 cover angles
    # (j + 1/2) pi / 32 is a zero, so cos cannot be told from sin
    with pytest.raises(FitError):
        fit_c(u, 64)


def test_fit_rotation_roundtrip(spec_fast):
    u = CylindricalProfile(C_NULL, 1, B=[0.04, -0.03], n=3)
    base = CylindricalProfile(C_NULL, 1, n=3)
    B = fit_rotation(u, base)
    assert B.shape == (2, 1)
    assert np.max(np.abs(B - u.B)) < 1e-6


def test_fit_rotation_trivial_cases():
    u2 = CylindricalProfile(C_NULL, 1, n=2)
    assert fit_rotation(u2, u2).shape == (2, 0)
    u3 = CylindricalProfile(C_NULL, 1, n=3)
    assert np.max(np.abs(fit_rotation(u3, u3))) < 1e-8


def test_fit_rotation_keeps_the_generator_bound():
    # a tilt with |A|_F = sqrt(2) |B|_F = 0.71 lies past the bound: the fit
    # ends on the bound, not past it
    u = CylindricalProfile(C_NULL, 1, B=[0.4, -0.3], n=3)
    B = fit_rotation(u, CylindricalProfile(C_NULL, 1, n=3))
    assert np.sqrt(2.0) * np.linalg.norm(B) <= ROTATION_BOUND * (1.0 + 1e-12)
    assert np.sqrt(2.0) * np.linalg.norm(B) == pytest.approx(ROTATION_BOUND, rel=1e-9)


def test_excess_trivial_and_closed_form(spec_fast):
    prof = CylindricalProfile(C_NULL, 1, n=2)
    assert excess(prof, prof, unit_ball(2), spec_fast) == pytest.approx(0.0, abs=1e-22)
    c2 = 0.8 * C_NULL
    prof2 = CylindricalProfile(c2, 1, n=2)
    val = excess(prof, prof2, unit_ball(2), spec_fast)
    assert val == pytest.approx(power_sum_norm_sq([(C_NULL - c2, 1)]), rel=1e-12)


def test_excess_decreases_after_fit(spec_fast):
    u = CylindricalModeField.power_sum([(C_NULL, 1), (0.1 * C_NULL, 3)], n=2)
    guess = CylindricalProfile(1.4 * C_NULL, 1, n=2)
    fitted = fit_profile(u, 1)
    e_guess = excess(u, guess, unit_ball(2), spec_fast)
    e_fit = excess(u, fitted, unit_ball(2), spec_fast)
    assert e_fit < e_guess


def test_lift_holonomy_by_parity():
    # odd k: single branched sheet (the u-lift needs the full 4 pi cover);
    # even k: two disjoint sheets
    grid, _ = cover_grid(0.1, 0.9, nr=12, ntheta=64, n=2)
    for k, expected in ((1, -1.0), (3, -1.0), (2, 1.0), (4, 1.0)):
        u = CylindricalModeField.power_sum([(C_NULL, k)], n=2)
        prof = CylindricalProfile(C_NULL, k, n=2)
        _, _, signs = lift_against_profile(u, prof, grid)  # (1, nr, nt): the plane one slab
        nt = grid.thetas.shape[0]
        half = nt // 2
        # sign relation between the two sheets of the cover
        rel = signs[:, :, :half] * signs[:, :, half:]
        assert np.all(rel == expected)


def test_graphical_decompose_exact_profile():
    prof = CylindricalProfile(C_NULL, 1, n=2)
    gr = graphical_decompose(prof, prof)
    assert gr.tube_condition_met
    assert gr.sup_v < 1e-12
    assert gr.sup_dv < 1e-10
    assert gr.integral_in < 1e-20


def test_graphical_decompose_perturbation_pointwise(spec_fast):
    # v-hat matches the perturbation lift to first order
    t = 1e-3
    u = CylindricalModeField.power_sum([(C_NULL, 1), (t * C_NULL, 5)], n=2)
    prof = CylindricalProfile(C_NULL, 1, n=2)
    gr = graphical_decompose(u, prof)
    R, T = np.meshgrid(gr.grid.rs, gr.grid.thetas, indexing="ij")
    pert = np.real((t * C_NULL)[None, None, :] * (R ** 2.5 * np.exp(1j * 2.5 * T))[:, :, None])
    mask = gr.grid.rs > 0.1
    err = np.abs(gr.v_hat - pert)[mask]
    assert np.max(err) < 10 * t ** 2 + 1e-12
    assert gr.sup_v <= gr.beta and gr.sup_dv <= gr.beta
    assert gr.integral_in < 10.0 * gr.excess_sq


def test_graphical_decompose_displaced_branch_excluded():
    # a displaced branch point trips the local excess criterion
    u = BranchPolynomialField([-0.05, 1.0], c=C_NULL * np.sqrt(2) * np.array([1, 1]))
    prof = CylindricalProfile(C_NULL, 1, n=2)
    gr = graphical_decompose(u, prof, tau=0.08)
    assert not bool(np.all(gr.admissible))


def test_rotational_symmetry_of_region(spec_fast):
    # ring-level admissibility is rotationally symmetric by construction
    u = CylindricalModeField.power_sum([(C_NULL, 1), (0.05 * C_NULL, 3)], n=2)
    prof = CylindricalProfile(C_NULL, 1, n=2)
    gr = graphical_decompose(u, prof)
    assert gr.admissible.ndim == 1  # one flag per ring in n = 2


def test_corollary_checks_exact_profile_zero(spec_fast):
    prof = CylindricalProfile(C_NULL, 1, n=2)
    rows = corollary_checks(prof, prof, spec=spec_fast)
    for row in rows:
        assert row.lhs == pytest.approx(0.0, abs=1e-18)


def test_corollary_ratio_stability(spec_fast):
    prof = CylindricalProfile(C_NULL, 1, n=2)
    ratios = {}
    for t in (0.1, 0.01, 0.001):
        u = CylindricalModeField.power_sum([(C_NULL, 1), (t * C_NULL, 5)], n=2)
        for row in corollary_checks(u, prof, spec=spec_fast):
            ratios.setdefault(row.name, []).append(row.ratio)
    for name, vals in ratios.items():
        vals = [v for v in vals if np.isfinite(v) and v > 0]
        if len(vals) >= 2:
            assert max(vals) / min(vals) < 3.0, name


def test_corollary_displaced_branch(spec_fast):
    # |xi|^2 <= ratio * excess, consistent with the shifted-center estimate
    xi = 0.06
    u = BranchPolynomialField([-xi, 1.0], c=np.array([1.0, -1.0j]) / np.sqrt(2))
    prof = CylindricalProfile(np.array([1.0, -1.0j]) / np.sqrt(2), 1, n=2)
    rows = corollary_checks(u, prof, Z=np.array([xi, 0.0]), spec=spec_fast)
    by_name = {r.name: r for r in rows}
    shifted = by_name["shifted_center_excess"]
    assert xi ** 2 <= shifted.ratio * shifted.rhs
    # recentring at the true branch point beats the uncentered excess
    assert shifted.lhs < 2.0 * shifted.rhs


def test_profile_json_roundtrip():
    # the decay artifacts record profiles by to_json_dict; the record rebuilds them
    prof = CylindricalProfile(C_NULL, 3, B=[0.02, 0.01],
                              center=np.array([0.1, 0.0, -0.2]), n=3)
    d = json.loads(json.dumps(prof.to_json_dict()))
    back = CylindricalProfile(np.asarray(d["c_re"]) + 1j * np.asarray(d["c_im"]), d["k"],
                              B=d["A_entries"],
                              center=np.asarray(d["center"]), n=d["n"])
    assert back.k == prof.k
    assert np.allclose(back.c, prof.c)
    assert np.allclose(back.B, prof.B)
    assert np.allclose(back.center, prof.center)


def test_corollary_csv(tmp_path):
    def c(scale):
        return [[scale * C_NULL[0].real, scale * C_NULL[0].imag],
                [scale * C_NULL[1].real, scale * C_NULL[1].imag]]

    t_values = [0.1, 0.01]
    cfg = {"schema_version": 1, "kind": "corollaries", "seed": 0, "output_dir": "out",
           "field": {"type": "power_sum", "n": 2,
                     "terms": [{"k": 1, "c": c(1.0)}, {"k": 5, "c": c(0.01)}]},
           "params": {"k": 1, "t_values": t_values,
                      "quadrature": {"nr": 16, "ntheta": 32, "nsphere": 64}}}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    assert cli.main(["run", str(path)]) == cli.EXIT_OK
    lines = (tmp_path / "out" / "corollary_report.csv").read_text().splitlines()
    assert lines[0] == "name,lhs,rhs,ratio,params"
    assert len(lines) == 4 * len(t_values) + 1  # four rows per t at n = 2, no axis_energy


def _base_points_reference(grid, n):
    """The former CoverGrid.base_points body, the reference for PolarGrid.nodes."""
    R, T = np.meshgrid(grid.rs, grid.thetas, indexing="ij")
    x1, x2 = R * np.cos(T), R * np.sin(T)
    if n == 2:
        return np.stack([x1, x2], axis=-1).reshape(-1, 2), (grid.rs.shape[0], grid.thetas.shape[0])
    pts = [np.stack([x1, x2, np.full_like(x1, y)], axis=-1).reshape(-1, 3) for y in grid.ys]
    return np.concatenate(pts), (grid.rs.shape[0], grid.thetas.shape[0], grid.ys.shape[0])


@pytest.mark.parametrize("n", [2, 3])
def test_cover_grid_base_points_bit_identical(n):
    grid, _ = cover_grid(0.05, 0.9, nr=7, ntheta=40, n=n, ny=5)
    pts, shape = grid.nodes(), grid.shape
    ref_pts, ref_shape = _base_points_reference(grid, n)
    assert shape == ref_shape
    assert pts.tobytes() == ref_pts.tobytes()


@pytest.mark.parametrize("n", [2, 3])
def test_cover_grid_weights_bit_identical(n):
    grid, w = cover_grid(0.05, 0.9, nr=7, ntheta=40, n=n, ny=5)
    assert w.shape == (1 if n == 2 else 5,) + grid.shape[:2]
    wr, wtheta, wy = _former_weight_factors(0.05, 0.9, 7, 40, 5, np.sqrt(max(1.0 - 0.9 ** 2, 0.04)))
    # the former fit_c weights, slab by slab: wrt * wl, wl = 1 on the plane
    T = np.meshgrid(grid.rs, grid.thetas, indexing="ij")[1]
    wrt = wr[:, None] * grid.rs[:, None] * wtheta * np.ones_like(T)
    for l, wl in enumerate([1.0] if n == 2 else wy):
        assert w[l].tobytes() == (wrt * wl).tobytes()
    # the former graphical_decompose weights, (nr, nt[, ny])
    if n == 2:
        wts = wr[:, None] * grid.rs[:, None] * wtheta * np.ones(grid.shape)
    else:
        wts = (wr[:, None, None] * grid.rs[:, None, None] * wtheta
               * wy[None, None, :]) * np.ones(grid.shape)
    assert np.moveaxis(w, 0, 2).tobytes() == wts.tobytes()


def _former_weight_factors(tau, rmax, nr, ntheta, ny, ymax):
    """The radial, angular and axis weights of the former CoverGrid (wr, wtheta, wy)."""
    wy = None if ymax is None else 2.0 * ymax * gauss_legendre_01(ny)[1]
    return (rmax - tau) * gauss_legendre_01(nr)[1], 4.0 * np.pi / ntheta, wy


def _graphical_decompose_reference(u, prof, tau=0.08, gamma=0.75, beta=0.5, nr=40,
                                   ntheta=128, ny=10, spec=None, threshold_factor=0.0625):
    """The former graphical_decompose body, with its separate n = 2 and n = 3 paths."""
    n = u.n
    alpha = prof.alpha
    ymax = None if n == 2 else np.sqrt(max(gamma ** 2 * 0.3, 0.01))
    grid, _ = cover_grid(1e-6, gamma, nr=nr, ntheta=ntheta, n=n, ny=ny, ymax=ymax)
    wr, wtheta, wy = _former_weight_factors(1e-6, gamma, nr, ntheta, ny, ymax)
    # the (slab, nr, nt, m) lift of lift_against_profile in the former
    # (nr, nt[, ny], m) layout, the lift of the profile (nr, nt[, 1], m)
    u_lift, phi, _ = lift_against_profile(u, prof, grid)
    shape = grid.shape
    u_lift = np.moveaxis(u_lift, 0, 2).reshape(shape + (u.m,))
    phi = phi.reshape(shape[:2] + (1,) * (n - 2) + (u.m,))
    v_hat = u_lift - np.broadcast_to(phi, u_lift.shape)
    pair_resid = 2.0 * np.sum(v_hat ** 2, axis=-1)
    local = np.mean(pair_resid, axis=1)
    phi_scale = np.mean(2.0 * np.sum(np.asarray(phi) ** 2, axis=-1), axis=1)
    admissible = local <= threshold_factor * np.maximum(phi_scale, 1e-300)
    filled = np.zeros_like(admissible, dtype=bool)
    if n == 2:
        for i in range(grid.rs.shape[0] - 1, -1, -1):
            if not admissible[i]:
                break
            filled[i] = True
    else:
        frontier = [(grid.rs.shape[0] - 1, l) for l in range(shape[2])
                    if admissible[grid.rs.shape[0] - 1, l]]
        for node in frontier:
            filled[node] = True
        while frontier:
            i, l = frontier.pop()
            for di, dl in ((-1, 0), (1, 0), (0, -1), (0, 1)):
                ii, ll = i + di, l + dl
                if (0 <= ii < shape[0] and 0 <= ll < shape[2] and admissible[ii, ll]
                        and not filled[ii, ll]):
                    filled[ii, ll] = True
                    frontier.append((ii, ll))
    req = grid.rs > tau
    tube_ok = bool(np.all(filled[req])) if n == 2 else bool(np.all(filled[req, :]))
    dr = np.gradient(v_hat, grid.rs, axis=0)
    dt = np.gradient(v_hat, grid.thetas, axis=1)
    R = grid.rs.reshape((-1,) + (1,) * (v_hat.ndim - 1))
    dv1, dv2 = dr, dt / R
    Rm, Tm = np.meshgrid(grid.rs, grid.thetas, indexing="ij")
    p1, p2 = profile_plane_gradient_lift(prof.c, prof.alpha, Rm, Tm)
    ct, st = np.cos(Tm), np.sin(Tm)
    if n == 3:
        ct, st = ct[:, :, None], st[:, :, None]
        p1, p2 = p1[:, :, None, :], p2[:, :, None, :]
    dvx = ct[..., None] * dv1 - st[..., None] * dv2
    dvy = st[..., None] * dv1 + ct[..., None] * dv2
    dv_hat = np.stack([dvx, dvy], axis=-1)
    if n == 2:
        node_mask = np.repeat(filled[:, None], shape[1], axis=1)
        ring_r = grid.rs[:, None]
        wts = wr[:, None] * grid.rs[:, None] * wtheta * np.ones(shape)
    else:
        node_mask = np.repeat(filled[:, None, :], shape[1], axis=1)
        ring_r = grid.rs[:, None, None]
        wts = (wr[:, None, None] * grid.rs[:, None, None] * wtheta
               * wy[None, None, :]) * np.ones(shape)
    vmag = np.linalg.norm(v_hat, axis=-1)
    dvmag = np.linalg.norm(dv_hat.reshape(dv_hat.shape[:-2] + (-1,)), axis=-1)
    inner = np.zeros_like(node_mask)
    inner[1:-1] = node_mask[1:-1]
    sup_v = float(np.max(np.where(node_mask, vmag / ring_r ** alpha, 0.0), initial=0.0))
    sup_dv = float(np.max(np.where(inner, dvmag * ring_r ** (1 - alpha), 0.0), initial=0.0))
    pair_v_sq = 2.0 * np.sum(v_hat ** 2, axis=-1)
    pair_dv_sq = 2.0 * np.sum(dv_hat ** 2, axis=(-2, -1))
    integral_in = float(np.sum(np.where(node_mask, wts * (pair_v_sq + ring_r ** 2 * pair_dv_sq),
                                        0.0)) / 2.0)
    su2 = 2.0 * np.sum(u_lift ** 2, axis=-1)
    du1 = dv_hat[..., 0] + np.broadcast_to(p1, dvx.shape)
    du2 = dv_hat[..., 1] + np.broadcast_to(p2, dvy.shape)
    du_sq = 2.0 * (np.sum(du1 ** 2, axis=-1) + np.sum(du2 ** 2, axis=-1))
    integral_out = float(np.sum(np.where(~node_mask, wts * (su2 + ring_r ** 2 * du_sq), 0.0)) / 2.0)
    return filled, v_hat, dv_hat, sup_v, sup_dv, tube_ok, integral_in, integral_out


class _AxisWeighted(Field):
    """{+-(s + x3 p)}: s plus a perturbation p of s's parity weighted by x3.

    Its deviation from s grows with r along the end slabs, which neither a
    tilted profile nor a branch polynomial's shift q(y) gives: theirs falls
    like 1/r.
    """

    def __init__(self, s, p):
        self.s, self.p, self.n, self.m = s, p, s.n, s.m

    def symmetric_values(self, X):
        return self.s.symmetric_values(X) + X[:, 2:3] * self.p.symmetric_values(X)


@pytest.mark.parametrize("n, case", [(2, "exact"), (2, "perturbed"), (2, "displaced"),
                                     (3, "exact"), (3, "perturbed"), (3, "displaced"),
                                     (3, "axis-dependent"), (3, "filled-along-y")])
def test_graphical_decompose_matches_former_paths(n, case, spec_fast):
    prof = CylindricalProfile(C_NULL, 1, n=n)
    if case == "exact":
        u = prof
    elif case == "perturbed":
        u = CylindricalModeField.power_sum([(C_NULL, 1), (0.2 * C_NULL, 5)], n=n)
    elif case == "displaced":  # the inner rings are not admissible
        u = BranchPolynomialField([-0.05, 1.0], c=C_NULL, n=n)
    elif case == "axis-dependent":  # the branch set bends away along y
        u = BranchPolynomialField([0.0, 1.0], c=C_NULL, n=3, qfun=lambda y: 3.0 * y[:, 0] ** 2,
                                  qgrad=lambda y: 6.0 * y)
    else:  # outer rings of the end slabs fail; their inner rings fill from the middle slabs
        u = _AxisWeighted(CylindricalModeField.power_sum([(C_NULL, 1)], n=3),
                          CylindricalModeField.power_sum([(-3.0 * C_NULL, 5)], n=3))
    counts = {"nr": 16, "ntheta": 32, "ny": 6}
    gr = graphical_decompose(u, prof, spec=spec_fast, **counts)
    filled, v_hat, dv_hat, sup_v, sup_dv, tube_ok, i_in, i_out = \
        _graphical_decompose_reference(u, prof, **counts)
    assert gr.admissible.shape == gr.shape[:1] + gr.shape[2:]
    assert np.array_equal(gr.admissible, filled)
    assert gr.v_hat.tobytes() == v_hat.tobytes() and gr.v_hat.shape == v_hat.shape
    assert gr.dv_hat.tobytes() == dv_hat.tobytes() and gr.dv_hat.shape == dv_hat.shape
    assert (gr.sup_v, gr.sup_dv, gr.tube_condition_met) == (sup_v, sup_dv, tube_ok)
    assert (gr.integral_in, gr.integral_out) == (i_in, i_out)
    if case != "exact" and case != "perturbed":
        assert np.any(gr.admissible) and not np.all(gr.admissible)
    if case == "filled-along-y":
        assert gr.admissible[0, 0] and not gr.admissible[-1, 0]


# -- the profile frame -------------------------------------------------------


def test_profile_takes_the_base_lift():
    # a profile's lift is every field's lift: along a curve about the origin,
    # not in the profile's frame.  Off the origin the two differ (by 0.1155
    # on the unit circle for centre (0.3, 0)); the frame lift is paired's phi
    assert type(CylindricalProfile(C_NULL, 1)).lift is Field.lift
    off = CylindricalProfile(C_NULL, 1, center=(0.3, 0))
    trace = BoundaryTrace.from_field(off, 1.0)
    base = Field.lift(off, np.full(trace.thetas.shape, 1.0), trace.thetas)
    assert trace.values.tobytes() == base.tobytes()
    frame = np.real(np.exp(0.5j * trace.thetas)[:, None] * C_NULL)
    assert np.max(np.abs(trace.values - frame)) > 0.1
    centred = BoundaryTrace.from_field(CylindricalProfile(C_NULL, 1), 1.0)
    assert np.max(np.abs(centred.values - frame)) <= 1e-15
    assert centred.parity() == -1


def _former_on_grid(grid, rows):
    """The former PolarGrid.on_grid: (N, m) rows as an (nr, nt[, ny], m) array."""
    m = rows.shape[-1]
    if grid.ys is None:
        return rows.reshape(grid.shape + (m,))
    return np.moveaxis(rows.reshape((grid.shape[2],) + grid.shape[:2] + (m,)), 0, 2)


def _former_lift_against_profile(u, prof, grid):
    """The former lift_against_profile, the profile's former frame lift inlined."""
    s_rep = _former_on_grid(grid, u.symmetric_values(prof.from_frame(grid.nodes())))
    R, T = np.meshgrid(grid.rs, grid.thetas, indexing="ij")
    phi = np.real(np.asarray(R ** prof.alpha * np.exp(1j * prof.alpha * T))[..., None] * prof.c)
    if grid.n == 3:
        phi = phi[:, :, None, :]
    d_keep, d_swap = selection_costs(s_rep, phi)
    signs = np.where(d_keep <= d_swap, 1.0, -1.0)
    u_lift = signs[..., None] * s_rep
    flips = signs * np.roll(signs, -1, axis=1)
    mag_phi = np.sum(np.broadcast_to(phi, s_rep.shape) ** 2, axis=-1)
    resid = np.minimum(d_keep, d_swap)
    solid = mag_phi > 4.0 * resid
    hol = np.where(np.all(~solid, axis=1), 1.0,
                   np.prod(np.where(solid, flips, 1.0), axis=1))
    if np.any(hol < 0):
        if signs.ndim == 2:
            bad = int(np.argmax(hol < 0))
        else:
            bad = tuple(int(v) for v in np.argwhere(hol < 0)[0])
        raise PairingError(f"pairing holonomy violation around annulus {bad}", loop=bad)
    return u_lift, phi, signs, grid.shape


def _outcome(fn, *args):
    """fn's result and None, or None and the loop its PairingError names."""
    try:
        return fn(*args), None
    except PairingError as exc:
        return None, exc.loop


@st.composite
def _profile_grids(draw):
    """A power sum, a tilted off-centre profile and a cover grid with angles
    at the seams and signed-zero axis values."""
    u, prof = draw(profile_pairs())
    _, thetas, ys = draw(cover_points(3))
    rs = np.sort(np.array(draw(st.lists(st.floats(0.01, 1.2), min_size=1, max_size=4))))
    return u, prof, PolarGrid(rs, thetas, None if u.n == 2 else ys[:, 0])


@settings(max_examples=200, deadline=None)
@given(_profile_grids())
@example((CylindricalModeField.power_sum([(C_NULL, 1), (0.2 * C_NULL, 5)], n=3),
          CylindricalProfile(C_NULL, 1, B=[0.2, -0.1],
                             center=(0.05, -0.0, 0.0), n=3),
          cover_grid(0.05, 0.95, nr=6, ntheta=16, n=3, ny=3)[0]))
@example((CylindricalModeField.power_sum([(C_NULL, 1)], n=2), CylindricalProfile(C_NULL, 2, n=2),
          cover_grid(0.1, 0.9, nr=4, ntheta=16, n=2)[0]))
def test_lift_against_profile_keeps_the_former_bits(case):
    # the (slab, nr, nt, m) arrays hold the former (nr, nt[, ny], m) values
    # bit for bit, the slab axis moved, and a holonomy violation names the
    # same loop
    u, prof, grid = case
    (got, loop), (want, former_loop) = (_outcome(fn, u, prof, grid)
                                        for fn in (lift_against_profile, _former_lift_against_profile))
    event("holonomy violation" if former_loop is not None else "paired")
    assert loop == former_loop and (got is None) == (want is None)
    if want is None:
        return
    u_lift, phi, signs = got
    shape = grid.shape
    assert u_lift.shape == (1 if u.n == 2 else shape[2],) + shape[:2] + (u.m,)
    assert phi.shape == shape[:2] + (u.m,) and signs.shape == u_lift.shape[:3]
    assert np.moveaxis(u_lift, 0, 2).tobytes() == want[0].tobytes()
    assert phi.tobytes() == want[1].tobytes()
    assert np.moveaxis(signs, 0, 2).tobytes() == want[2].tobytes()


def test_fit_c_holds_no_frame_points_while_reading_u():
    # fit_c at n = 3 reads u at the 36,864 nodes of the default cover grid;
    # the frame points are built inside the symmetric_values call, so no
    # second (36,864, 3) array lives while u is evaluated
    u = CylindricalModeField.power_sum([(C_NULL, 1), (0.01 * C_NULL, 5)], n=3)
    tracemalloc.start()
    try:
        fit_c(u, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4.6 * 2 ** 20
