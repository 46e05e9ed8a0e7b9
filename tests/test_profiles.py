import json

import numpy as np
import pytest

from branchlab.errors import FitError
from branchlab.fields import BranchPolynomialField, CylindricalModeField
from branchlab.profiles import (CylindricalProfile, corollary_checks,
                                cover_grid, excess, fit_c, fit_profile,
                                fit_rotation, graphical_decompose,
                                is_admissible_skew, lift_against_profile,
                                skew_from_params, skew_params,
                                write_corollary_csv)
from branchlab.quadrature import unit_ball

from conftest import C_NULL, power_sum_norm_sq


def c_dist(c1, c2):
    """Coefficients of one pair agree up to a global sign."""
    return min(np.linalg.norm(c1 - c2), np.linalg.norm(c1 + c2))


def test_skew_space_structure():
    A = skew_from_params([0.1, -0.2], 3)
    assert is_admissible_skew(A)
    assert np.allclose(skew_params(A), [0.1, -0.2])
    bad = np.zeros((3, 3))
    bad[0, 1], bad[1, 0] = 1.0, -1.0  # rotation within the (x1,x2)-plane
    assert not is_admissible_skew(bad)
    with pytest.raises(ValueError):
        CylindricalProfile(C_NULL, 1, A=bad, n=3)


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
    c, resid = fit_c(u, k)
    assert c_dist(c, c0) < 1e-11
    assert resid < 1e-11


def test_fit_c_perturbation_orthogonality():
    # degree alpha+1 perturbations are angularly orthogonal to the fit basis
    u = CylindricalModeField.power_sum([(C_NULL, 1), (0.05 * C_NULL, 3)], n=2)
    c, _ = fit_c(u, 1)
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
        c, resid = fit_c(u, 1)
        errs.append(c_dist(c, C_NULL))
        assert resid > 0
    assert max(errs) < 5e-3  # noise-scaled bound


def test_fit_c_ill_conditioned_rejected():
    u = CylindricalModeField.power_sum([(C_NULL, 2)], n=2)
    # two angular samples cannot separate cos from sin at alpha = 1
    with pytest.raises(FitError):
        fit_c(u, 2, ntheta=2)


def test_fit_rotation_roundtrip(spec_fast):
    A0 = skew_from_params([0.04, -0.03], 3)
    u = CylindricalProfile(C_NULL, 1, A=A0, n=3)
    base = CylindricalProfile(C_NULL, 1, n=3)
    A, ok = fit_rotation(u, base)
    assert ok
    assert np.max(np.abs(A - A0)) < 1e-6


def test_fit_rotation_trivial_cases():
    u2 = CylindricalProfile(C_NULL, 1, n=2)
    A, ok = fit_rotation(u2, u2)
    assert ok and np.array_equal(A, np.zeros((2, 2)))
    u3 = CylindricalProfile(C_NULL, 1, n=3)
    A3, ok3 = fit_rotation(u3, u3)
    assert ok3 and np.max(np.abs(A3)) < 1e-8


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
    grid = cover_grid(0.1, 0.9, nr=12, ntheta=64, n=2)
    for k, expected in ((1, -1.0), (3, -1.0), (2, 1.0), (4, 1.0)):
        u = CylindricalModeField.power_sum([(C_NULL, k)], n=2)
        prof = CylindricalProfile(C_NULL, k, n=2)
        _, _, signs, _ = lift_against_profile(u, prof, grid)
        nt = grid.thetas.shape[0]
        half = nt // 2
        # sign relation between the two sheets of the cover
        rel = signs[:, :half] * signs[:, half:]
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
    assert gr.bound_ok
    assert gr.ratio_in < 10.0


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


def test_profile_json_roundtrip(tmp_path):
    prof = CylindricalProfile(C_NULL, 3, A=skew_from_params([0.02, 0.01], 3),
                              center=np.array([0.1, 0.0, -0.2]), n=3)
    path = tmp_path / "profile.json"
    prof.save(path)
    back = CylindricalProfile.load(path)
    assert back.k == prof.k
    assert np.allclose(back.c, prof.c)
    assert np.allclose(back.A, prof.A)
    assert np.allclose(back.center, prof.center)


def test_corollary_csv(tmp_path, spec_fast):
    prof = CylindricalProfile(C_NULL, 1, n=2)
    u = CylindricalModeField.power_sum([(C_NULL, 1), (0.01 * C_NULL, 5)], n=2)
    rows = corollary_checks(u, prof, spec=spec_fast)
    path = tmp_path / "corollaries.csv"
    write_corollary_csv(rows, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "name,lhs,rhs,ratio,params"
    assert len(lines) == len(rows) + 1


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
    grid = cover_grid(0.05, 0.9, nr=7, ntheta=40, n=n, ny=5)
    pts, shape = grid.base_points(n)
    ref_pts, ref_shape = _base_points_reference(grid, n)
    assert shape == ref_shape
    assert pts.tobytes() == ref_pts.tobytes()
