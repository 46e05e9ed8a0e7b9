import dataclasses

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings
from scipy.sparse import coo_matrix, diags
from scipy.sparse.linalg import cg, spsolve

from branchlab.errors import BoundaryLiftError, SolverError
from branchlab.fields import BranchPolynomialField, CylindricalModeField
from branchlab.frequency import stationarity_residuals
from branchlab.minimizer import (BoundaryTrace, BranchConfiguration, CoverField,
                                 CoverGridSpec, _assemble, _cover_edges,
                                 _deflect_cuts, solve_separable, cover_frequency,
                                 energy, l2_error_vs_field, local_growth_exponent,
                                 optimize_branch_points, solve_branched_laplace)
from branchlab.quadrature import QuadratureSpec

from conftest import C_NULL

GRID = CoverGridSpec(nr=48, ntheta=96)
GRID_COARSE = CoverGridSpec(nr=24, ntheta=48)


@pytest.fixture(scope="module")
def half_trace(phi_half_module=None):
    u = CylindricalModeField.power_sum([(C_NULL, 1)], n=2)
    return u, BoundaryTrace.from_field(u, 1.0)


def test_parity_detection(half_trace):
    u, btr = half_trace
    assert btr.parity() == -1
    even = CylindricalModeField.power_sum([(C_NULL, 2)], n=2)
    assert BoundaryTrace.from_field(even, 1.0).parity() == 1


def test_parity_rejects_unliftable():
    thetas = np.arange(64) * (4 * np.pi / 64)
    vals = np.cos(0.37 * thetas)[:, None]  # neither periodic nor anti-periodic
    with pytest.raises(BoundaryLiftError):
        BoundaryTrace(thetas, vals, 1.0).parity()


def test_solve_convergence_and_energy(half_trace):
    # exact energy int_{B_1} |D phi|^2 = 2 pi alpha |c|^2 = pi
    u, btr = half_trace
    errs = []
    for nr, M in ((24, 48), (48, 96), (96, 192)):
        cov = solve_branched_laplace(btr, grid=CoverGridSpec(nr=nr, ntheta=M))
        errs.append(np.sqrt(l2_error_vs_field(cov, u)))
        assert cov.solve_residual < 1e-9
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert all(o >= 1.0 for o in orders)
    cov = solve_branched_laplace(btr, grid=GRID)
    assert energy(cov) == pytest.approx(np.pi, rel=2e-3)


def test_anti_periodicity_and_roundtrip(half_trace):
    u, btr = half_trace
    cov = solve_branched_laplace(btr, grid=GRID_COARSE)
    assert cov.anti_periodicity_defect() < 1e-12
    sf = cov.to_two_valued()
    assert sf.hol == -1
    # round trip cover -> base -> values preserves the pair
    rng = np.random.default_rng(0)
    r = rng.uniform(0.2, 0.8, 20)
    th = rng.uniform(0, 2 * np.pi, 20)
    X = np.stack([r * np.cos(th), r * np.sin(th)], axis=-1)
    sv = sf.symmetric_values(X)
    cv = cov.value_at(r, th)
    err = np.minimum(np.max(np.abs(sv - cv), axis=1), np.max(np.abs(sv + cv), axis=1))
    assert np.max(err) < 1e-10


def test_even_data_decouples():
    # {pm Re(c z)}: zero anti-symmetric defect, matches the harmonic extension
    u = CylindricalModeField.power_sum([(C_NULL, 2)], n=2)
    btr = BoundaryTrace.from_field(u, 1.0)
    cov = solve_branched_laplace(btr, grid=GRID_COARSE)
    assert cov.wrap_sign == 1
    err_coarse = np.sqrt(l2_error_vs_field(cov, u))
    assert err_coarse < 2e-3
    cov2 = solve_branched_laplace(btr, grid=GRID)
    assert np.sqrt(l2_error_vs_field(cov2, u)) < 0.5 * err_coarse
    assert np.linalg.norm(cov.center_value) < 1e-6


def test_zero_boundary_zero_field():
    thetas = np.arange(128) * (4 * np.pi / 128)
    btr = BoundaryTrace(thetas, np.zeros((128, 1)), 1.0)
    cov = solve_branched_laplace(btr, grid=GRID_COARSE)
    assert np.max(np.abs(cov.values)) == 0.0
    assert energy(cov) == 0.0


def test_solution_beats_competitors(half_trace):
    u, btr = half_trace
    cov = solve_branched_laplace(btr, grid=GRID_COARSE)
    e_min = energy(cov)
    rng = np.random.default_rng(1)
    for _ in range(3):
        competitor = cov.values.copy()
        bump = 0.3 * rng.standard_normal(competitor[:-1].shape)
        competitor[:-1] += bump
        alt = type(cov)(cov.rs, cov.thetas, competitor, cov.wrap_sign, cov.center,
                        cov.center_value, config=cov.config, boundary=cov.boundary,
                        cuts=cov.cuts, center_mode=cov.center_mode)
        assert energy(alt) > e_min


def test_maximum_principle_sanity(half_trace):
    u, btr = half_trace
    cov = solve_branched_laplace(btr, grid=GRID_COARSE)
    assert np.max(np.abs(cov.values)) <= np.max(np.abs(cov.values[-1])) * (1 + 1e-6)


def test_energy_nonincreasing_under_refinement(half_trace):
    u, btr = half_trace
    es = []
    for nr, M in ((24, 48), (48, 96), (96, 192)):
        cov = solve_branched_laplace(btr, grid=CoverGridSpec(nr=nr, ntheta=M))
        es.append(energy(cov))
    assert es[0] >= es[1] >= es[2]


def test_cover_frequency(half_trace):
    u, btr = half_trace
    cov = solve_branched_laplace(btr, grid=GRID)
    prof = cover_frequency(cov, [0.25, 0.5])
    assert np.all(np.abs(prof.N - 0.5) < 0.02)


def test_stationarity_transfer(half_trace):
    # the solved field passes the variational identities at grid-order level,
    # while the same data with c . c != 0 carries the O(1) squeeze residue
    u, btr = half_trace
    cov = solve_branched_laplace(btr, grid=GRID)
    rep = stationarity_residuals(cov.to_two_valued(),
                                 spec=QuadratureSpec(nr=24, ntheta=48, nsphere=96),
                                 radial_radii=(0.5,))
    assert rep.squeeze < 0.1
    bad = CylindricalModeField.power_sum([(np.array([1.0 + 0j]), 1)], n=2)
    btr_bad = BoundaryTrace.from_field(bad, 1.0)
    cov_bad = solve_branched_laplace(btr_bad, grid=GRID)
    rep_bad = stationarity_residuals(cov_bad.to_two_valued(),
                                     spec=QuadratureSpec(nr=24, ntheta=48, nsphere=96),
                                     radial_radii=(0.5,))
    # Micallef-White consistency: the admissible coefficient has no residue
    assert rep_bad.squeeze > 1.0


def test_boundary_csv_roundtrip(tmp_path, half_trace):
    u, btr = half_trace
    path = tmp_path / "boundary.csv"
    btr.to_csv(path)
    back = BoundaryTrace.from_csv(path, 1.0)
    assert back.parity() == -1
    g1 = btr.sample_half(32)
    g2 = back.sample_half(32)
    assert np.max(np.abs(g1 - g2)) < 1e-12


def _continuation_reference(s):
    """Sample-by-sample predictor continuation, the reference for from_field."""
    vals = np.empty_like(s)
    vals[0] = s[0]
    prev2 = None
    for j in range(1, s.shape[0]):
        pred = vals[j - 1] if prev2 is None else 2 * vals[j - 1] - prev2
        d_keep = np.sum((s[j] - pred) ** 2)
        d_swap = np.sum((s[j] + pred) ** 2)
        vals[j] = s[j] if d_keep <= d_swap else -s[j]
        prev2 = vals[j - 1]
    return vals


@pytest.mark.parametrize("coeffs", [[-0.09, 0.0, 1.0], [-0.2, 1.0], [0.0, 0.0, 1.0]])
def test_from_field_continuation_matches_reference(coeffs):
    # branch polynomial fields have no exact lift, so from_field continues
    u = BranchPolynomialField(coeffs)
    nsamples = 512
    btr = BoundaryTrace.from_field(u, 1.0, nsamples=nsamples)
    th = np.arange(nsamples) * (4.0 * np.pi / nsamples)
    ref = _continuation_reference(u.symmetric_values(np.stack([np.cos(th), np.sin(th)], -1)))
    assert np.array_equal(btr.values, ref)
    assert np.array_equal(np.signbit(btr.values), np.signbit(ref))


def test_boundary_csv_bytes_match_row_writer(tmp_path, half_trace):
    values = half_trace[1].values.copy()
    values[:3] = [[0.0, -0.0], [1e-320, -1e300], [np.pi, -1.0 / 3.0]]
    btr = BoundaryTrace(half_trace[1].thetas, values, 1.0)
    btr.to_csv(tmp_path / "new.csv")
    with open(tmp_path / "ref.csv", "w") as fh:
        fh.write("theta," + ",".join(f"v{k+1}" for k in range(btr.m)) + "\n")
        for j in range(btr.thetas.shape[0]):
            row = [repr(float(btr.thetas[j]))] + [repr(float(v)) for v in btr.values[j]]
            fh.write(",".join(row) + "\n")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
    back = BoundaryTrace.from_csv(tmp_path / "new.csv", 1.0)
    assert np.array_equal(back.thetas, btr.thetas)
    assert np.array_equal(back.values, btr.values)
    assert np.array_equal(np.signbit(back.values), np.signbit(btr.values))


def test_two_point_solve_and_search():
    t = 0.3
    u = BranchPolynomialField([-t * t, 0.0, 1.0])
    btr = BoundaryTrace.from_field(u, 1.0)
    assert btr.parity() == 1
    cfg = BranchConfiguration([np.array([t, 0.0]), np.array([-t, 0.0])])
    errs = []
    for nr, M in ((48, 96), (96, 192)):
        cov = solve_branched_laplace(btr, cfg, grid=CoverGridSpec(nr=nr, ntheta=M))
        errs.append(np.sqrt(l2_error_vs_field(cov, u)))
    assert errs[1] < 0.6 * errs[0]
    # pattern search initialized near (+-t, 0) stays near, within a few cells
    res = optimize_branch_points(
        btr, BranchConfiguration([np.array([0.33, 0.03]), np.array([-0.27, -0.03])]),
        budget=25, grid=CoverGridSpec(nr=48, ntheta=96), step=0.04)
    resolution = 2 * np.sqrt(t) / 48  # local radial cell size
    for p, target in zip(res.config.points, ([t, 0.0], [-t, 0.0])):
        assert np.linalg.norm(np.sort(p) - np.sort(np.asarray(target))) < 4 * resolution \
            or np.linalg.norm(p - np.asarray(target)) < 4 * resolution
    assert all(res.trace[i + 1] <= res.trace[i] + 1e-14 for i in range(len(res.trace) - 1))
    assert not res.degenerate
    for p in res.config.points:
        assert local_growth_exponent(res.cover, p) < 0.75


def test_branch_config_validation():
    with pytest.raises(ValueError):
        BranchConfiguration([np.zeros(2), np.zeros(2)])
    with pytest.raises(ValueError):
        BranchConfiguration([np.zeros(2), np.ones(2), 2 * np.ones(2)])


def test_degenerate_zero_data_flag():
    thetas = np.arange(256) * (4 * np.pi / 256)
    btr = BoundaryTrace(thetas, np.zeros((256, 1)), 1.0)
    res = optimize_branch_points(btr, BranchConfiguration([np.array([0.3, 0.1])]),
                                 budget=4, grid=GRID_COARSE)
    assert res.degenerate
    assert res.energy == pytest.approx(0.0, abs=1e-20)


def test_branched_beats_decoupled_for_coinciding_values():
    # m = 1 data {+-R cos(theta)}: a branched competitor undercuts the
    # decoupled pair (energy 2 pi) by reconnecting the sheets through the
    # coinciding boundary values
    sv = CylindricalModeField.power_sum([(np.array([1.0 + 0j]), 2)], n=2)
    btr = BoundaryTrace.from_field(sv, 1.0)
    cov0 = solve_branched_laplace(btr, grid=GRID)  # decoupled route
    cfg = BranchConfiguration([np.array([0.0, 0.25])])
    cov1 = solve_branched_laplace(btr, cfg, grid=GRID)
    assert energy(cov0) == pytest.approx(2 * np.pi, rel=1e-3)
    assert energy(cov1) < energy(cov0) - 0.1


def test_search_invariant_under_data_scaling():
    # scaling the data by a power of two scales every energy exactly, so the
    # accept margin must be relative for the search to take the same moves
    runs = []
    for amp in (0.25, 1.0, 4.0):
        fld = BranchPolynomialField([-0.2, 1.0], c=amp * np.array([1.0, -1.0j]))
        res = optimize_branch_points(BoundaryTrace.from_field(fld, 1.0),
                                     BranchConfiguration([np.array([0.25, 0.05])]),
                                     budget=16, grid=GRID_COARSE)
        runs.append((amp, res))
    amp0, ref = runs[0]
    for amp, res in runs[1:]:
        assert len(res.trace) == len(ref.trace)
        np.testing.assert_allclose(np.asarray(res.trace) / amp ** 2,
                                   np.asarray(ref.trace) / amp0 ** 2, rtol=1e-12)
        for p, q in zip(res.config.points, ref.config.points):
            assert np.array_equal(p, q)


@pytest.mark.parametrize("scale", [0.25, 1.0, 4.0, 1e4])
def test_search_ignores_rounding_level_gains(monkeypatch, scale):
    # an energy that falls by about one ulp per step is flat up to rounding:
    # no trial is an improvement, whatever the energy scale
    from branchlab import minimizer as mmod

    monkeypatch.setattr(mmod, "solve_branched_laplace", lambda boundary, cfg, grid: cfg)
    monkeypatch.setattr(mmod, "energy", lambda cfg: scale * (
        1.0 + 2e-15 * sum(float(np.sum(p)) for p in cfg.points)))
    btr = BoundaryTrace(np.arange(64) * (4 * np.pi / 64), np.zeros((64, 1)), 1.0)
    res = optimize_branch_points(btr, BranchConfiguration([np.array([0.3, 0.1])]),
                                 budget=20, grid=GRID_COARSE)
    assert len(res.trace) == 1


# ---------------------------------------------------------------------------
# Cover assembly against an edge-by-edge reference


def _reference_edges(rs, M, wrap_sign, center_mode, cuts):
    """Edge list (a, b, g, sigma), one edge at a time, scalar cut tests."""
    NR = rs.shape[0]
    dth = 2.0 * np.pi / M
    thetas = np.arange(M) * dth
    x, y = rs[:, None] * np.cos(thetas), rs[:, None] * np.sin(thetas)

    def node(i, j):
        return -1 - j if i == NR - 1 else i * M + j

    def pt(i, j):
        return (float(x[i, j]), float(y[i, j]))

    def orient(a, b, c):
        v = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
        return 0 if abs(v) < 1e-14 else (1 if v > 0 else -1)

    def sign(p, q):
        s = 1.0
        for c1, c2 in cuts:
            o1, o2, o3, o4 = orient(p, q, c1), orient(p, q, c2), orient(c1, c2, p), orient(c1, c2, q)
            if o1 != o2 and o3 != o4 and 0 not in (o1, o2, o3, o4):
                s = -s
        return s

    edges = []
    g_c = dth * (rs[0] / 2.0) / rs[0]
    for j in range(M):
        if center_mode == "unknown":
            edges.append(((NR - 1) * M, node(0, j), g_c, sign((0.0, 0.0), pt(0, j))))
        else:
            edges.append((node(0, j), -1 - M, g_c, 0.0))
    for i in range(NR - 1):
        g = dth * (0.5 * (rs[i] + rs[i + 1])) / (rs[i + 1] - rs[i])
        for j in range(M):
            edges.append((node(i, j), node(i + 1, j), g, sign(pt(i, j), pt(i + 1, j))))
    for i in range(NR):
        lower = rs[0] / 2.0 if i == 0 else 0.5 * (rs[i - 1] + rs[i])
        upper = rs[-1] if i == NR - 1 else 0.5 * (rs[i] + rs[i + 1])
        g = (upper - lower) / (rs[i] * dth)
        for j in range(M):
            jn = (j + 1) % M
            s = (float(wrap_sign) if jn == 0 else 1.0) * sign(pt(i, j), pt(i, jn))
            edges.append((node(i, j), node(i, jn), g, s))
    return edges


def _reference_assembly(rs, M, wrap_sign, center_mode, cuts, bvals):
    n = (rs.shape[0] - 1) * M + (1 if center_mode == "unknown" else 0)
    dirichlet = np.zeros((M + 1, bvals.shape[1]))
    dirichlet[:M] = bvals
    rows, cols, vals = [], [], []
    rhs = np.zeros((n, bvals.shape[1]))
    for a, b, g, s in _reference_edges(rs, M, wrap_sign, center_mode, cuts):
        if a >= 0 and b >= 0:
            rows += [a, b, a, b]
            cols += [a, b, b, a]
            vals += [g, g, -g * s, -g * s]
        elif a >= 0 or b >= 0:
            u, slot = (a, b) if a >= 0 else (b, a)
            rows.append(u)
            cols.append(u)
            vals.append(g)
            rhs[u] += g * s * dirichlet[-1 - slot]
    A = coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()
    return A, rhs


def _reference_energy(cf):
    NR, M, m = cf.values.shape
    total = 0.0
    for a, b, g, s in _reference_edges(cf.rs, M, cf.wrap_sign, cf.center_mode, cf.cuts):
        def val(k):
            if k >= 0:
                return cf.center_value if k == (NR - 1) * M else cf.values[k // M, k % M]
            return cf.values[-1, -1 - k] if k > -1 - M else np.zeros(m)

        diff = s * val(b) - val(a)
        total += g * float(np.sum(diff * diff))
    return 2.0 * total


def _grid_point(rs, M, i, j):
    th = j * (2.0 * np.pi / M)
    return np.array([rs[i] * np.cos(th), rs[i] * np.sin(th)])


@st.composite
def cut_configurations(draw):
    """Grid plus deflected cuts of a random one- or two-point configuration.

    Points are drawn anywhere in the disk, exactly on grid nodes, or within
    0.02 of the center; one-point cuts end at a random boundary anchor.
    """
    nr = draw(st.sampled_from([8, 12, 16]))
    M = 2 * nr
    rs = CoverGridSpec(nr=nr, ntheta=M).radii(1.0)
    polar = st.builds(lambda r, t: np.array([r * np.cos(t), r * np.sin(t)]),
                      st.floats(0.0, 0.85), st.floats(0.0, 2.0 * np.pi))
    node = st.builds(lambda i, j: _grid_point(rs, M, i, j),
                     st.integers(0, nr - 3), st.integers(0, M - 1))
    near_center = st.builds(lambda r, t: np.array([r * np.cos(t), r * np.sin(t)]),
                            st.floats(0.0, 0.02), st.floats(0.0, 2.0 * np.pi))
    point = st.one_of(polar, node, near_center)
    points = draw(st.lists(point, min_size=1, max_size=2))
    if len(points) == 2 and np.allclose(points[0], points[1]):
        points = points[:1]
    cfg = BranchConfiguration(points)
    t = draw(st.floats(0.0, 2.0 * np.pi))
    anchor = 1.5 * np.array([np.cos(t), np.sin(t)])
    return rs, M, _deflect_cuts(cfg.cuts(1.0, boundary_anchor=anchor), rs)


def _check_against_reference(rs, M, wrap_sign, center_mode, cuts, seed):
    rng = np.random.default_rng(seed)
    bvals = rng.standard_normal((M, 2))
    A, rhs = _assemble(rs, M, wrap_sign, center_mode, cuts, bvals)
    A_ref, rhs_ref = _reference_assembly(rs, M, wrap_sign, center_mode, cuts, bvals)
    assert np.array_equal(A.indptr, A_ref.indptr)
    assert np.array_equal(A.indices, A_ref.indices)
    assert np.array_equal(A.data, A_ref.data)
    assert np.array_equal(rhs, rhs_ref)
    cf = CoverField(rs, np.arange(M) * (2.0 * np.pi / M),
                    rng.standard_normal((rs.shape[0], M, 2)), wrap_sign, np.zeros(2),
                    rng.standard_normal(2), cuts=cuts, center_mode=center_mode)
    assert energy(cf) == pytest.approx(_reference_energy(cf), rel=1e-12)


@settings(max_examples=60, deadline=None)
@given(cut_configurations(), st.integers(0, 2 ** 16))
def test_assembly_matches_reference(case, seed):
    rs, M, cuts = case
    _check_against_reference(rs, M, 1, "unknown", cuts, seed)


@pytest.mark.parametrize("wrap_sign,center_mode", [(-1, "zero"), (1, "unknown")])
def test_centered_assembly_matches_reference(wrap_sign, center_mode):
    rs = GRID_COARSE.radii(1.0)
    _check_against_reference(rs, GRID_COARSE.ntheta, wrap_sign, center_mode, (), 0)


def _inside_convex(poly, pts):
    """(cells, points) mask: point strictly inside each counter-clockwise polygon."""
    inside = np.ones(poly.shape[:1] + pts.shape[:1], dtype=bool)
    for k in range(poly.shape[1]):
        v0, v1 = poly[:, k, None, :], poly[:, (k + 1) % poly.shape[1], None, :]
        cross = ((v1[..., 0] - v0[..., 0]) * (pts[None, :, 1] - v0[..., 1])
                 - (v1[..., 1] - v0[..., 1]) * (pts[None, :, 0] - v0[..., 0]))
        inside &= cross > 0
    return inside


@settings(max_examples=60, deadline=None)
@given(cut_configurations())
def test_crossing_parity_of_grid_loops(case):
    # around every grid cell and center triangle, the edge signs multiply to
    # -1 exactly when the loop holds an odd number of cut endpoints; the
    # inner vertex of a deflected cut is an endpoint of two segments and
    # cancels
    rs, M, cuts = case
    NR = rs.shape[0]
    sigma = _cover_edges(rs, M, 1, "unknown", cuts)[3]
    spoke = sigma[:M]
    radial = sigma[M:NR * M].reshape(NR - 1, M)
    angular = sigma[NR * M:].reshape(NR, M)
    jn = (np.arange(M) + 1) % M
    thetas = np.arange(M) * (2.0 * np.pi / M)
    xy = np.stack([rs[:, None] * np.cos(thetas), rs[:, None] * np.sin(thetas)], axis=-1)
    cells = np.stack([xy[:-1], xy[1:], xy[1:, jn], xy[:-1, jn]], axis=2).reshape(-1, 4, 2)
    triangles = np.stack([np.zeros((M, 2)), xy[0], xy[0, jn]], axis=1)
    ends = np.array([p for seg in cuts for p in seg]).reshape(-1, 2)
    cell_sign = (angular[:-1] * radial[:, jn] * angular[1:] * radial).ravel()
    tri_sign = spoke * spoke[jn] * angular[0]
    for poly, signs in ((cells, cell_sign), (triangles, tri_sign)):
        odd = _inside_convex(poly, ends).sum(axis=1) % 2 == 1
        assert np.array_equal(signs == -1.0, odd)


# ---------------------------------------------------------------------------
# Direct centred solve against sparse LU and the Jacobi-CG loop


def _cg_reference(A, rhs):
    """Jacobi-preconditioned CG column by column at rtol 1e-10 (the old solver)."""
    precond = diags(1.0 / np.maximum(A.diagonal(), 1e-300))
    sol = np.zeros(rhs.shape)
    for k in range(rhs.shape[1]):
        sol[:, k], info = cg(A, rhs[:, k], rtol=1e-10, atol=0.0, M=precond)
        assert info == 0
    return sol


def _periodic_trace():
    # periodic over 2pi, nonzero mean: the center unknown carries weight
    th = np.arange(512) * (4.0 * np.pi / 512)
    return BoundaryTrace(th, 1.0 + 0.3 * np.cos(th) + 0.2 * np.sin(2.0 * th), 1.0)


@pytest.mark.parametrize("nr", [1, 2, 3, 17])
@pytest.mark.parametrize("wrap_sign,center_mode", [(-1, "zero"), (1, "unknown")])
def test_separable_solve_matches_spsolve(wrap_sign, center_mode, nr):
    rng = np.random.default_rng(nr)
    for M in (1, 2, 3, 5, 64):
        rs = CoverGridSpec(nr=nr, ntheta=M).radii(1.0)
        for m in (1, 2, 3):
            A, rhs = _assemble(rs, M, wrap_sign, center_mode, (), rng.standard_normal((M, m)))
            x = solve_separable(rs, M, wrap_sign, center_mode, rhs)
            assert x.shape == rhs.shape
            if A.shape[0] == 0:
                continue
            ref = spsolve(A.tocsc(), rhs).reshape(rhs.shape)
            assert np.linalg.norm(x - ref) <= 1e-12 * np.linalg.norm(ref)


@pytest.mark.parametrize("c, k, M, expected", [
    (C_NULL, 1, 1, 3.4599025397735828),             # sqrt(z), anti-periodic
    (np.array([1.0 + 0j]), 2, 2, 8.829664396649912),  # r cos(theta), periodic
])
def test_single_ring_grids(c, k, M, expected):
    # nr = 1 leaves no unknown ring; the energies are the Jacobi-CG ones
    btr = BoundaryTrace.from_field(CylindricalModeField.power_sum([(c, k)], n=2), 1.0)
    cov = solve_branched_laplace(btr, grid=CoverGridSpec(nr=1, ntheta=M))
    assert energy(cov) == pytest.approx(expected, rel=1e-14)


@pytest.mark.parametrize("grid", [GRID, CoverGridSpec(nr=128, ntheta=256)],
                         ids=["48x96", "128x256"])
def test_separable_energy_matches_cg(grid):
    u = CylindricalModeField.power_sum([(C_NULL, 1), (0.05 * C_NULL, 3)], n=2)
    for btr in (BoundaryTrace.from_field(u, 1.0), _periodic_trace()):
        cov = solve_branched_laplace(btr, grid=grid)
        assert cov.solve_residual < 1e-13
        A, rhs = _assemble(cov.rs, grid.ntheta, cov.wrap_sign, cov.center_mode, (),
                           cov.values[-1])
        sol = _cg_reference(A, rhs)
        n_ring_unknowns = (cov.rs.shape[0] - 1) * grid.ntheta
        values = cov.values.copy()
        values[:-1] = sol[:n_ring_unknowns].reshape(values[:-1].shape)
        center = sol[-1] if cov.center_mode == "unknown" else cov.center_value
        ref = dataclasses.replace(cov, values=values, center_value=center)
        assert energy(cov) == pytest.approx(energy(ref), rel=1e-8)
        assert energy(cov) <= energy(ref) * (1 + 1e-14)


def test_separable_residual_check_raises(monkeypatch, half_trace):
    from branchlab import minimizer as mmod

    solve = mmod.solve_separable
    monkeypatch.setattr(mmod, "solve_separable",
                        lambda *args: solve(*args) * (1.0 + 1e-6))
    with pytest.raises(SolverError) as info:
        solve_branched_laplace(half_trace[1], grid=GRID_COARSE)
    assert 1e-10 < info.value.residual < 1e-3
