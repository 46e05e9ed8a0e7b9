import dataclasses
import types

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import example, given, settings
from scipy.sparse import coo_matrix, diags
from scipy.sparse.linalg import cg, spsolve

from branchlab.errors import BoundaryLiftError, SolverError
from branchlab import fields
from branchlab.fields import BranchPolynomialField, CylindricalModeField, Field, RescaledField
from branchlab.frequency import stationarity_residuals
from branchlab.minimizer import (REFINE_RTOL, SOLVE_RTOL, BoundaryTrace, BranchConfiguration,
                                 CoverField, CoverGridSpec, _anchor_for_single_point,
                                 _batch_columns, _checked_solve,
                                 _cover_edges, _crossing_signs, _cut_flips, _deflect_cuts,
                                 _dirichlet_slots, _edge_residual,
                                 _edge_segments, _green_block, _radial_sweep,
                                 _ring_weights,
                                 cg as cg_numpy, solve_cut, solve_separable, cover_frequency,
                                 energy, l2_error_vs_field, local_growth_exponent,
                                 optimize_branch_points, solve_branched_laplace)
from branchlab.quadrature import QuadratureSpec

from conftest import C_NULL, PointRecorder

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


def test_cut_layouts_that_miss_the_branching_raise(half_trace):
    # two cuts on anti-periodic data leave a sign jump of |c| sqrt(2) = 1.41
    # on a smooth boundary edge, four times the tolerance at 128 angles
    _, btr = half_trace
    two = BranchConfiguration([np.array([0.3, 0.0]), np.array([-0.3, 0.0])])
    with pytest.raises(BoundaryLiftError, match="lift jump"):
        solve_branched_laplace(btr, two, CoverGridSpec(nr=16, ntheta=128))
    # |Re(c z)| with c = (1, i)/sqrt(2) is 1/sqrt(2) on the whole circle:
    # no zero for a single cut to end at
    whole = BoundaryTrace.from_field(CylindricalModeField.power_sum([(C_NULL, 2)], n=2), 1.0)
    with pytest.raises(BoundaryLiftError, match="periodic boundary data has no zero"):
        solve_branched_laplace(whole, BranchConfiguration([np.array([0.3, 0.0])]),
                               CoverGridSpec(nr=16, ntheta=32))


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
    sf = cov.to_two_valued()
    assert sf.hol == -1
    # round trip cover -> base -> values: the reader returns the solution at
    # the cover grid's nodes
    X = sf.grid.nodes()
    assert np.allclose(sf.symmetric_values(X), cov.values.reshape(-1, cov.m),
                       rtol=0.0, atol=1e-12)
    # off the nodes (local_growth_exponent reads |v|^2 there): bilinear in
    # (r, theta), the wrap sign on the column past the seam, clamped to ring 0
    # inside rs[0]
    v, rs, th = cov.values, cov.rs, cov.thetas
    dth, last = th[1] - th[0], th.shape[0] - 1

    def read(r, theta):
        return sf.symmetric_values(np.array([[r * np.cos(theta), r * np.sin(theta)]]))[0]

    cases = [
        (0.75 * rs[5] + 0.25 * rs[6], th[7] + 0.625 * dth,
         0.75 * (0.375 * v[5, 7] + 0.625 * v[5, 8])
         + 0.25 * (0.375 * v[6, 7] + 0.625 * v[6, 8])),
        (0.5 * rs[3] + 0.5 * rs[4], th[last] + 0.25 * dth,
         0.5 * (0.75 * v[3, last] - 0.25 * v[3, 0])
         + 0.5 * (0.75 * v[4, last] - 0.25 * v[4, 0])),
        (0.5 * rs[0], th[3] + 0.5 * dth, 0.5 * v[0, 3] + 0.5 * v[0, 4]),
    ]
    for r, theta, want in cases:
        assert np.allclose(read(r, theta), want, rtol=0.0, atol=1e-12)


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
        assert energy(dataclasses.replace(cov, values=competitor)) > e_min


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


def _radial_interp_reference(cf, r, j):
    """The former scalar CoverField._radial_interp: one radius, one angle column."""
    rs = cf.rs
    if r <= rs[0]:
        t = r / rs[0]
        return (1 - t) * cf.center_value + t * cf.values[0, j]
    i = int(np.searchsorted(rs, r)) - 1
    i = min(max(i, 0), rs.shape[0] - 2)
    t = (r - rs[i]) / (rs[i + 1] - rs[i])
    return (1 - t) * cf.values[i, j] + t * cf.values[i + 1, j]


def _cover_frequency_reference(cf, radii):
    """The former per-angle loop of cover_frequency, as (D, H)."""
    M = cf.thetas.shape[0]
    dth = 2.0 * np.pi / M
    radii = np.asarray(radii, dtype=float)
    D, H = np.zeros_like(radii), np.zeros_like(radii)
    for idx, rho in enumerate(radii):
        vals = np.stack([_radial_interp_reference(cf, rho, j) for j in range(M)])
        ders = np.stack([cf._radial_derivative(rho)[j] for j in range(M)])
        H[idx] = (1.0 / rho) * 2.0 * float(np.sum(vals * vals)) * dth * rho
        D[idx] = 2.0 * float(np.sum(vals * ders)) * dth * rho
    return D, H


@pytest.mark.parametrize("wrap_sign", [-1, 1])
@pytest.mark.parametrize("m", [1, 2])
def test_cover_field_interpolation_matches_per_angle_loop(wrap_sign, m):
    rng = np.random.default_rng(5 + m)
    rs = np.sort(rng.uniform(0.05, 1.0, 12))
    M = 16
    cf = CoverField(rs, np.arange(M) * (2.0 * np.pi / M), rng.standard_normal((12, M, m)),
                    wrap_sign, rng.standard_normal(m))
    # radii inside the first ring, on rings and between them
    radii = np.concatenate([rng.uniform(0.01, 1.0, 6), rs[[0, 5, -1]], [rs[0] / 2]])
    prof = cover_frequency(cf, radii)
    D, H = _cover_frequency_reference(cf, radii)
    assert np.array_equal(prof.D, D) and np.array_equal(prof.H, H)


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


def _circle_trace_reference(fld, nsamples):
    th = np.arange(nsamples) * (4.0 * np.pi / nsamples)
    return _continuation_reference(fld.symmetric_values(np.stack([np.cos(th), np.sin(th)], -1)))


def _assert_same_bits(values, ref):
    assert np.array_equal(values, ref)
    assert np.array_equal(np.signbit(values), np.signbit(ref))


BRANCH_COEFFS = [[-0.09, 0.0, 1.0], [-0.2, 1.0], [0.0, 0.0, 1.0]]


@pytest.mark.parametrize("coeffs", BRANCH_COEFFS)
def test_from_field_continuation_matches_reference(coeffs):
    # a rescaled view has the base lift, so from_field continues
    u = RescaledField(BranchPolynomialField(coeffs), np.zeros(2), 1.0, 1.0)
    assert type(u).lift is Field.lift
    btr = BoundaryTrace.from_field(u, 1.0)
    _assert_same_bits(btr.values, _circle_trace_reference(u, 4096))


@st.composite
def branch_polynomials(draw):
    """Coefficients of a monic polynomial of degree 1-4, roots in [-0.8, 0.8]^2."""
    coord = st.floats(-0.8, 0.8)
    roots = draw(st.lists(st.builds(complex, coord, coord), min_size=1, max_size=4))
    return np.polynomial.polynomial.polyfromroots(roots)


@pytest.mark.parametrize("coeffs", BRANCH_COEFFS)
def test_branch_polynomial_lift_is_the_continuation(coeffs):
    # the exact lift only picks signs, so the trace keeps every bit of the
    # continuation's, signs of zeros included
    u = BranchPolynomialField(coeffs)
    for nsamples in (512, 4096):
        th = np.arange(nsamples) * (4.0 * np.pi / nsamples)
        _assert_same_bits(u.lift(np.full(nsamples, 1.0), th), _circle_trace_reference(u, nsamples))


@settings(max_examples=40, deadline=None)
@given(branch_polynomials())
def test_branch_polynomial_lift_matches_continuation(coeffs):
    u = BranchPolynomialField(coeffs)
    _assert_same_bits(BoundaryTrace.from_field(u, 1.0).values, _circle_trace_reference(u, 4096))


def test_branch_polynomial_lift_falls_back_near_a_boundary_root(monkeypatch):
    # a root 3e-6 outside the circle, at a sample spacing of 3e-3: arg P
    # steps by nearly pi there, and the unwrapped branch disagrees with the
    # continuation on one sheet, so the lift hands over to the continuation
    calls = []
    propagate = fields.propagate_signs

    def counted(svals):
        calls.append(svals.shape)
        return propagate(svals)

    monkeypatch.setattr(fields, "propagate_signs", counted)
    u = BranchPolynomialField(np.polynomial.polynomial.polyfromroots(
        [(1.0 + 3e-6) * np.exp(0.7j), -0.3j]))
    th = np.arange(4096) * (4.0 * np.pi / 4096)
    p = np.polynomial.polynomial.polyval(np.exp(1j * th), u.coeffs)
    branch = np.sqrt(np.abs(p)) * np.exp(0.5j * np.unwrap(np.angle(p)))
    unwrapped_signs = np.where(np.real(np.conj(np.sqrt(p)) * branch) >= 0.0, 1.0, -1.0)
    btr = BoundaryTrace.from_field(u, 1.0)
    assert calls == [(1, 1, 4096, 2)]
    ref = _circle_trace_reference(u, 4096)
    _assert_same_bits(btr.values, ref)
    assert np.count_nonzero(unwrapped_signs[:, None] * u.symmetric_values(
        np.stack([np.cos(th), np.sin(th)], -1)) != ref) > 0
    calls.clear()
    BoundaryTrace.from_field(BranchPolynomialField([-0.2, 1.0]), 1.0)
    assert not calls


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


def _reference_edges(rs, M, wrap_sign, cuts):
    """Edge list (a, b, g, sigma), one edge at a time, scalar cut tests; the
    center is an unknown for wrap sign +1 and pinned to zero for -1."""
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
        if wrap_sign == 1:
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


def _reference_assembly(rs, M, wrap_sign, cuts, bvals):
    n = (rs.shape[0] - 1) * M + (1 if wrap_sign == 1 else 0)
    dirichlet = np.zeros((M + 1, bvals.shape[1]))
    dirichlet[:M] = bvals
    rows, cols, vals = [], [], []
    rhs = np.zeros((n, bvals.shape[1]))
    for a, b, g, s in _reference_edges(rs, M, wrap_sign, cuts):
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


def _reference_energy(cf, cuts):
    NR, M, m = cf.values.shape
    total = 0.0
    for a, b, g, s in _reference_edges(cf.rs, M, cf.wrap_sign, cuts):
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
    return rs, M, _deflect_cuts(cfg.cuts(anchor), rs)


def _check_against_reference(rs, M, wrap_sign, cuts, seed):
    rng = np.random.default_rng(seed)
    bvals = rng.standard_normal((M, 2))
    A_ref, rhs_ref = _reference_assembly(rs, M, wrap_sign, cuts, bvals)
    n = A_ref.shape[0]
    flipped = _cut_flips(rs, M, cuts)
    edges = _cover_edges(rs, M, wrap_sign, flipped)
    # the flipped edges carry the signs of a full crossing test, sign of zero too
    sigma = _cover_edges(rs, M, wrap_sign)[3]
    sigma = sigma * _crossing_signs(*_edge_segments(rs, M), cuts)
    assert np.array_equal(edges[3], sigma) and np.array_equal(np.signbit(edges[3]),
                                                              np.signbit(sigma))
    # the right-hand side is the edge sum at x = 0, bit for bit and sign of zero
    rhs = _edge_residual(edges, np.zeros((n, 2)), _dirichlet_slots(bvals))
    assert np.array_equal(rhs, rhs_ref)
    assert np.array_equal(np.signbit(rhs), np.signbit(rhs_ref))
    x = rng.standard_normal((n, 2))
    res = -_edge_residual(edges, x, _dirichlet_slots(bvals))
    ref = A_ref @ x - rhs_ref
    assert np.linalg.norm(res - ref) <= 1e-13 * np.linalg.norm(ref)
    cf = CoverField(rs, np.arange(M) * (2.0 * np.pi / M),
                    rng.standard_normal((rs.shape[0], M, 2)), wrap_sign,
                    rng.standard_normal(2), flipped=flipped)
    assert energy(cf) == pytest.approx(_reference_energy(cf, cuts), rel=1e-12)


@settings(max_examples=60, deadline=None)
@given(cut_configurations(), st.integers(0, 2 ** 16))
def test_assembly_matches_reference(case, seed):
    rs, M, cuts = case
    _check_against_reference(rs, M, 1, cuts, seed)


# the wrap sign sets the center: pinned to zero for -1, an unknown for +1
WRAP_SIGNS = pytest.mark.parametrize("wrap_sign", [-1, 1], ids=["-1-zero", "1-unknown"])


@WRAP_SIGNS
def test_centered_assembly_matches_reference(wrap_sign):
    rs = GRID_COARSE.radii(1.0)
    _check_against_reference(rs, GRID_COARSE.ntheta, wrap_sign, (), 0)


def _example_cuts(points, anchor, nr=12):
    rs = CoverGridSpec(nr=nr, ntheta=2 * nr).radii(1.0)
    cuts = _deflect_cuts(BranchConfiguration([np.array(p) for p in points]).cuts(anchor), rs)
    return rs, 2 * nr, cuts


@settings(max_examples=60, deadline=None)
@given(cut_configurations())
@example(_example_cuts([(0.3, 0.1)], np.array([1.2, 0.9])))
@example(_example_cuts([(0.4, 0.0), (-0.2, 0.35)], None))
def test_boundary_cut_edges_are_the_solves_flips(case):
    # the boundary values read their cut crossings from the solve's flipped
    # edges; a crossing test on the boundary circle itself is the reference
    rs, M, cuts = case
    R = rs[-1]
    assert R == 1.0  # graded_radii ends exactly at the radius
    flipped = _cut_flips(rs, M, cuts)
    n_edges = _cover_edges(rs, M, 1, flipped)[0].shape[0]
    thetas = np.arange(M) * (2.0 * np.pi / M)
    pts = np.stack([R * np.cos(thetas), R * np.sin(thetas)], axis=-1)
    ref = np.flatnonzero(_crossing_signs(pts, np.roll(pts, -1, axis=0), cuts) < 0)
    assert np.array_equal(flipped[flipped >= n_edges - M] - (n_edges - M), ref)


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
    sigma = _cover_edges(rs, M, 1, _cut_flips(rs, M, cuts))[3]
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
@WRAP_SIGNS
def test_separable_solve_matches_spsolve(wrap_sign, nr):
    rng = np.random.default_rng(nr)
    for M in (1, 2, 3, 5, 64):
        rs = CoverGridSpec(nr=nr, ntheta=M).radii(1.0)
        for m in (1, 2, 3):
            A, rhs = _reference_assembly(rs, M, wrap_sign, (), rng.standard_normal((M, m)))
            # a cut solve's right-hand sides also load the center row
            for b in (rhs, rng.standard_normal(rhs.shape)):
                x = solve_separable(rs, M, wrap_sign)(b)
                assert x.shape == b.shape
                if A.shape[0] == 0:
                    continue
                ref = spsolve(A.tocsc(), b).reshape(b.shape)
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
        n_ring_unknowns = (cov.rs.shape[0] - 1) * grid.ntheta
        sol = _cg_reference(*_reference_assembly(cov.rs, grid.ntheta, cov.wrap_sign, (),
                                                 cov.values[-1]))
        values = cov.values.copy()
        values[:-1] = sol[:n_ring_unknowns].reshape(values[:-1].shape)
        center = sol[-1] if cov.wrap_sign == 1 else cov.center_value
        ref = dataclasses.replace(cov, values=values, center_value=center)
        assert energy(cov) == pytest.approx(energy(ref), rel=1e-8)
        assert energy(cov) <= energy(ref) * (1 + 1e-14)


def _patch_solver(monkeypatch, name, scale=lambda call: 1.0):
    """Replace the factory minimizer.<name> by one whose solve(f) returns its
    result times scale(call), call = 1, 2, ... counting the calls; returns
    the list of the right-hand sides solved."""
    from branchlab import minimizer as mmod

    factory = getattr(mmod, name)
    calls = []

    def patched(*args):
        solve = factory(*args)

        def scaled(f):
            calls.append(f)
            return solve(f) * scale(len(calls))

        return scaled

    monkeypatch.setattr(mmod, name, patched)
    return calls


@pytest.mark.parametrize("case", ["centred", "two-point", "lopsided"])
def test_separable_residual_check_raises(monkeypatch, half_trace, case):
    # a direct solve, centred or cut, whose residual is above SOLVE_RTOL
    # raises SolverError (exit 3 in the CLI) with its relative residual.
    # The fault scales every solve by s, so the refinement step leaves the
    # relative residual (1 - s)^2 = 1e-8.  Each column is held to its own
    # right-hand side: that residual in a column 1e-8 the size of the other
    # is 1e-16 of the total, and raises with that column's residual
    btr = half_trace[1]
    v = btr.values[:, :1]
    lopsided = BoundaryTrace(btr.thetas, np.concatenate([v, 1e-8 * v], axis=1), btr.radius)
    name, btr, cfg, scale = {
        "centred": ("solve_separable", btr, None, 1.0 + 1e-4),
        "two-point": ("solve_cut", *_two_point_trace(), 1.0 + 1e-4),
        "lopsided": ("solve_separable", lopsided, None, np.array([1.0, 1.0 + 1e-4])),
    }[case]
    calls = _patch_solver(monkeypatch, name, lambda call: scale)
    with pytest.raises(SolverError) as info:
        solve_branched_laplace(btr, cfg, grid=GRID_COARSE)
    assert 1e-10 < info.value.residual < 1e-3
    assert len(calls) == 2


@pytest.mark.parametrize("case", ["anti-periodic", "periodic", "two-point"])
def test_refinement_only_on_demand(monkeypatch, half_trace, case):
    # an unperturbed solve calls its factored solve once; a first solve off
    # by 1e-6 is repaired by the one refinement step; with REFINE_RTOL at 0
    # every solve refines, within the tolerances of the unrefined one
    from branchlab import minimizer as mmod

    name, btr, cfg = {"anti-periodic": ("solve_separable", half_trace[1], None),
                      "periodic": ("solve_separable", _periodic_trace(), None),
                      "two-point": ("solve_cut", *_two_point_trace())}[case]
    with monkeypatch.context() as patch:
        calls = _patch_solver(patch, name)
        cov = solve_branched_laplace(btr, cfg, grid=GRID_COARSE)
    assert len(calls) == 1 and cov.solve_residual < 1e-13
    with monkeypatch.context() as patch:
        calls = _patch_solver(patch, name, lambda call: 1.0 + 1e-6 if call == 1 else 1.0)
        repaired = solve_branched_laplace(btr, cfg, grid=GRID_COARSE)
    assert len(calls) == 2 and repaired.solve_residual < 1e-10
    assert np.linalg.norm(repaired.values - cov.values) <= 1e-9 * np.linalg.norm(cov.values)
    with monkeypatch.context() as patch:
        patch.setattr(mmod, "REFINE_RTOL", 0.0)
        calls = _patch_solver(patch, name)
        refined = solve_branched_laplace(btr, cfg, grid=GRID_COARSE)
    assert len(calls) == 2 and refined.solve_residual < 1e-13
    assert np.linalg.norm(refined.values - cov.values) <= 1e-12 * np.linalg.norm(cov.values)
    assert energy(refined) == pytest.approx(energy(cov), rel=1e-12)


@pytest.mark.parametrize("case", ["anti-periodic", "periodic", "two-point"])
def test_solves_build_no_sparse_matrix(monkeypatch, half_trace, case):
    # the edge list is the only operator: the right-hand side and the
    # residual check are edge sums, so neither a centred nor a cut solve
    # constructs a scipy sparse matrix; a centred solve gives the values of
    # the reference assembly's rhs, bit for bit
    from scipy.sparse._base import _spbase

    def no_matrix(*args, **kwargs):
        raise AssertionError("the solve built a sparse matrix")

    btr, cfg = {"anti-periodic": (half_trace[1], None), "periodic": (_periodic_trace(), None),
                "two-point": _two_point_trace()}[case]
    grid = CoverGridSpec(nr=32, ntheta=64)
    with monkeypatch.context() as patch:
        patch.setattr(_spbase, "__init__", no_matrix)
        with pytest.raises(AssertionError, match="sparse matrix"):
            coo_matrix(np.eye(2))
        cov = solve_branched_laplace(btr, cfg, grid=grid)
    assert cov.solve_residual < 1e-13
    if cfg is not None:
        assert len(cov.flipped)
        return
    _, rhs = _reference_assembly(cov.rs, grid.ntheta, cov.wrap_sign, (), cov.values[-1])
    sol = solve_separable(cov.rs, grid.ntheta, cov.wrap_sign)(rhs)
    n_ring_unknowns = (cov.rs.shape[0] - 1) * grid.ntheta
    assert np.array_equal(cov.values[:-1].reshape(n_ring_unknowns, -1), sol[:n_ring_unknowns])
    if cov.wrap_sign == 1:
        assert np.array_equal(cov.center_value, sol[-1])


def _separable_column_loop(rs, M, wrap_sign, rhs):
    """The separable solve one column at a time, each with its own sweep."""
    g_c, g_r, g_a = _ring_weights(rs, M)
    nring = rs.shape[0] - 1
    h = 0.5 if wrap_sign == -1 else 0.0
    twist = np.exp(-2j * np.pi * h * np.arange(M) / M)
    lam = 2.0 * (1.0 - np.cos(2.0 * np.pi * (np.arange(M) + h) / M))
    diag = (np.concatenate([[g_c], g_r[:-1]]) + g_r)[:, None] + g_a[:nring, None] * lam
    if wrap_sign == 1 and nring:
        diag[0, 0] -= g_c
    off = -g_r[:-1]
    sol = np.empty(rhs.shape)
    for k in range(rhs.shape[1]):
        f = twist * rhs[: nring * M, k].reshape(nring, M)
        if wrap_sign == 1 and nring:
            f[0] += rhs[-1, k] / M
        f = np.fft.fft(f, axis=1)
        ratio = np.empty_like(diag)
        piv = diag[0] if nring else None
        if nring:
            f[0] /= piv
        for i in range(1, nring):
            ratio[i - 1] = off[i - 1] / piv
            piv = diag[i] - off[i - 1] * ratio[i - 1]
            f[i] -= off[i - 1] * f[i - 1]
            f[i] /= piv
        for i in range(nring - 2, -1, -1):
            f[i] -= ratio[i] * f[i + 1]
        sol[: nring * M, k] = (np.fft.ifft(f, axis=1) * np.conj(twist)).real.ravel()
    if wrap_sign == 1:
        for k in range(rhs.shape[1]):
            # this column's ring-0 sum on its own, in row order
            ring0 = 0.0
            for v in sol[: M * min(nring, 1), k]:
                ring0 += v
            sol[-1, k] = (rhs[-1, k] + g_c * ring0) / (M * g_c)
    return sol


@pytest.mark.parametrize("nr", [1, 2, 3, 17, 48])
@WRAP_SIGNS
def test_batched_separable_solve_is_the_column_loop(monkeypatch, wrap_sign, nr):
    # batching the columns changes no bit: at the node budget (whole batches
    # and a partial one where a batch holds several columns) and at a budget
    # of two columns a batch
    from branchlab import minimizer as mmod

    rng = np.random.default_rng(nr)
    for M in (1, 2, 3, 5, 64):
        rs = CoverGridSpec(nr=nr, ntheta=M).radii(1.0)
        nodes = (nr - 1) * M
        n = nodes + (wrap_sign == 1)
        for budget in (mmod.SOLVE_BLOCK_NODES, 2 * max(nodes, 1)):
            monkeypatch.setattr(mmod, "SOLVE_BLOCK_NODES", budget)
            batch = _batch_columns(nr - 1, M)
            ncol = 2 * batch + 1 if batch <= 64 else 3
            rhs = rng.standard_normal((n, ncol))
            x = solve_separable(rs, M, wrap_sign)(rhs)
            assert np.array_equal(x, _separable_column_loop(rs, M, wrap_sign, rhs))
            # a lone column solves as it does inside a batch
            one = solve_separable(rs, M, wrap_sign)(rhs[:, :1])
            assert np.array_equal(one, x[:, :1])


def _two_point_trace():
    t = 0.3
    u = BranchPolynomialField([-t * t, 0.0, 1.0], c=np.array([1.0, -1.0j]))
    return BoundaryTrace.from_field(u, 1.0), BranchConfiguration(
        [np.array([t, 0.0]), np.array([-t, 0.0])])


def test_two_point_solve_memory_peak():
    # the Green's block is built in chunks of source rings within the node
    # budget, and the residual check is an edge sum with no sparse matrix
    import tracemalloc

    btr, cfg = _two_point_trace()
    grid = CoverGridSpec(nr=96, ntheta=192)
    solve_branched_laplace(btr, cfg, grid=grid)
    tracemalloc.start()
    try:
        solve_branched_laplace(btr, cfg, grid=grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 7.5 * 2 ** 20


def test_singular_capacitance_system_raises_solver_error(monkeypatch):
    # the CLI maps SolverError to exit 3; a bare LinAlgError would exit 1
    from branchlab import minimizer as mmod

    btr, cfg = _two_point_trace()

    def singular(*args, **kwargs):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(mmod.np.linalg, "solve", singular)
    with pytest.raises(SolverError, match=r"rank k = \d+"):
        solve_branched_laplace(btr, cfg, grid=GRID_COARSE)


@st.composite
def cut_solve_cases(draw, nrs=st.integers(2, 17)):
    """Small grid, m, and the deflected cuts of a one- or two-point configuration.

    Points sit anywhere in the disk, on a grid ray, on a ring, or within 0.02
    of the center; a second point is free or the first one mirrored through
    the origin (up to 0.02), so its cut passes near the center.
    """
    nr = draw(nrs)
    M = draw(st.integers(1, 64))
    rs = CoverGridSpec(nr=nr, ntheta=M).radii(1.0)
    angle = st.floats(0.0, 2.0 * np.pi)

    def at(r, t):
        return np.array([r * np.cos(t), r * np.sin(t)])

    point = st.one_of(
        st.builds(at, st.floats(0.0, 0.85), angle),
        st.builds(lambda r, j: at(r, j * (2.0 * np.pi / M)),
                  st.floats(0.0, 0.85), st.integers(0, M - 1)),
        st.builds(lambda i, t: at(rs[i], t), st.integers(0, max(nr - 2, 0)), angle),
        st.builds(at, st.floats(0.0, 0.02), angle))
    p = draw(point)
    second = draw(st.one_of(st.none(), point,
                            st.builds(lambda d: -p + d, st.builds(at, st.floats(0.0, 0.02),
                                                                  angle))))
    points = [p] if second is None or np.allclose(p, second) else [p, second]
    anchor = 1.5 * at(1.0, draw(angle))
    cuts = _deflect_cuts(BranchConfiguration(points).cuts(anchor), rs)
    return rs, M, draw(st.sampled_from([1, 2, 3])), cuts


@settings(max_examples=60, deadline=None)
@given(cut_solve_cases(), st.integers(0, 2 ** 16))
def test_capacitance_solve_matches_spsolve(case, seed):
    # the checked cut solve is sparse LU's solution, and its edge-sum
    # residual is at rounding level, whether it refines on demand (at
    # REFINE_RTOL) or always (at 0)
    from branchlab import minimizer as mmod

    rs, M, m, cuts = case
    bvals = np.random.default_rng(seed).standard_normal((M, m))
    A_ref, rhs = _reference_assembly(rs, M, 1, cuts, bvals)
    edges = _cover_edges(rs, M, 1, _cut_flips(rs, M, cuts))
    ref = spsolve(A_ref.tocsc(), rhs).reshape(rhs.shape)
    for refine_rtol in (REFINE_RTOL, 0.0):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(mmod, "REFINE_RTOL", refine_rtol)
            x, _ = _checked_solve(solve_cut(rs, M, edges), edges, rhs, _dirichlet_slots(bvals))
        assert np.linalg.norm(x - ref) <= 1e-12 * np.linalg.norm(ref)
        residual = _edge_residual(edges, x, _dirichlet_slots(bvals))
        assert np.linalg.norm(residual) <= 1e-13 * np.linalg.norm(rhs)


def _masked_edge_residual(edges, x, dirichlet):
    """The edge sum with the Dirichlet ends masked out of each bincount."""
    a, b, g, sigma = edges
    v = np.concatenate([x, dirichlet])
    ka, kb = a >= 0, b >= 0
    ra, rb, ga, gb = a[ka], b[kb], g[ka], (-g * sigma)[kb]
    out = np.empty(x.shape)
    for k in range(x.shape[1]):
        diff = sigma * v[b, k] - v[a, k]
        out[:, k] = np.bincount(ra, weights=ga * diff[ka], minlength=x.shape[0])
        out[:, k] += np.bincount(rb, weights=gb * diff[kb], minlength=x.shape[0])
    return out


@settings(max_examples=60, deadline=None)
@given(cut_solve_cases(), st.sampled_from([-1, 1]), st.booleans(), st.integers(0, 2 ** 16))
def test_edge_residual_is_the_masked_sum(case, wrap_sign, zero, seed):
    # dropping the Dirichlet ends into an extra bin and building the weights
    # in place give the masked edge sum bit for bit, sign of zero too
    rs, M, m, cuts = case
    rng = np.random.default_rng(seed)
    edges = _cover_edges(rs, M, wrap_sign, _cut_flips(rs, M, cuts))
    n = (rs.shape[0] - 1) * M + (wrap_sign == 1)
    x = np.zeros((n, m)) if zero else rng.standard_normal((n, m))
    dirichlet = _dirichlet_slots(rng.standard_normal((M, m)))
    out = _edge_residual(edges, x, dirichlet)
    ref = _masked_edge_residual(edges, x, dirichlet)
    assert np.array_equal(out, ref) and np.array_equal(np.signbit(out), np.signbit(ref))


@settings(max_examples=60, deadline=None)
@given(cut_solve_cases(), st.integers(0, 2 ** 16))
def test_cg_follows_scipy_cg(case, seed):
    # the lab's CG against scipy's on the reference matrix and its Jacobi
    # preconditioner from x0 = 0: the same info, the same number of steps,
    # the same x to 1e-12 relative; b = 0 gives x = 0 at once
    rs, M, m, cuts = case
    A, rhs = _reference_assembly(rs, M, 1, cuts,
                                 np.random.default_rng(seed).standard_normal((M, m)))
    n = A.shape[0]
    inv_diag = 1.0 / np.maximum(A.diagonal(), 1e-300)
    for k in range(m):
        steps, ref_steps = [], []
        x, info = cg_numpy(lambda v: A @ v, rhs[:, k], np.zeros(n), inv_diag,
                           callback=lambda xk: steps.append(1))
        ref, ref_info = cg(A, rhs[:, k], x0=np.zeros(n), rtol=SOLVE_RTOL, atol=0.0,
                           M=diags(inv_diag), callback=lambda xk: ref_steps.append(1))
        assert info == ref_info == 0
        assert len(steps) == len(ref_steps) >= 1
        assert np.linalg.norm(x - ref) <= 1e-12 * np.linalg.norm(ref)
    x, info = cg_numpy(lambda v: A @ v, np.zeros(n), np.ones(n), inv_diag)
    assert info == 0 and np.array_equal(x, np.zeros(n))


def _green_block_by_solves(solve0, rs, M, idx):
    """G = P A0^-1 P^T for the unknowns idx by one separable solve per
    source ring, the reference for _green_block.

    Column (i', j') of A0^-1 is the Green's function g_i' of the delta at
    (i', 0), turned by j': G[(i, j), (i', j')] = g_i'(i, j - j'), and the
    center row reads g_i' at the center.  The center, fixed by rotation, has
    its own Green's function as source 'ring' nring at j = 0.
    """
    nring = rs.shape[0] - 1
    n = nring * M + 1
    ring, col = np.divmod(idx, M)
    rows = ring[:, None] * M + (col[:, None] - col[None, :]) % M
    rows[ring == nring] = n - 1
    sources, source = np.unique(ring, return_inverse=True)
    step = _batch_columns(nring, M)
    G = np.empty((idx.shape[0], idx.shape[0]))
    for s0 in range(0, sources.shape[0], step):
        batch = sources[s0:s0 + step]
        delta = np.zeros((n, batch.shape[0]))
        delta[batch * M, np.arange(batch.shape[0])] = 1.0
        green = solve0(delta)
        cols = np.flatnonzero((source >= s0) & (source < s0 + step))
        G[:, cols] = green[rows[:, cols], source[cols] - s0]
    return G


@settings(max_examples=60, deadline=None)
@given(cut_solve_cases(nrs=st.sampled_from([1, 2, 3, 17, 48, 128])), st.booleans())
def test_green_block_matches_per_ring_solves(case, with_center):
    # the closed form against one separable solve per source ring, on the
    # unknowns a cut configuration touches, with and without the center
    rs, M, _, cuts = case
    a, b, _, sigma = _cover_edges(rs, M, 1, _cut_flips(rs, M, cuts))
    cut = (sigma < 0) & (a >= 0) & (b >= 0)
    center = (rs.shape[0] - 1) * M
    idx = np.union1d(np.concatenate([a[cut], b[cut]]), [center] if with_center else [])
    idx = idx[(idx != center) | with_center].astype(np.intp)
    sweep = _radial_sweep(rs, M, 1)
    G = _green_block(rs, M, sweep, idx)
    ref = _green_block_by_solves(solve_separable(rs, M, 1, sweep), rs, M, idx)
    assert G.shape == ref.shape == (idx.shape[0],) * 2
    if idx.shape[0]:
        assert np.max(np.abs(G - ref)) <= 1e-13 * np.max(np.abs(ref))


# -- points from the one point builder ---------------------------------------
# The parent's expressions at each polar point of the solver: every site now
# calls quadrature._ring_points and keeps the bits, signed zeros included.


def _former_edge_segments(rs, M):
    jn = (np.arange(M) + 1) % M
    thetas = np.arange(M) * (2.0 * np.pi / M)
    xy = np.stack([rs[:, None] * np.cos(thetas), rs[:, None] * np.sin(thetas)], axis=-1)
    p = np.concatenate([np.zeros((M, 2)), xy[:-1].reshape(-1, 2), xy.reshape(-1, 2)])
    q = np.concatenate([xy[0], xy[1:].reshape(-1, 2), xy[:, jn].reshape(-1, 2)])
    return p, q


def _former_circle_point(th, radius):
    return np.array([np.cos(th), np.sin(th)]) * radius


@pytest.mark.parametrize("nr, M", [(1, 1), (3, 5), (17, 64)])
def test_edge_segments_keep_the_former_bits(nr, M):
    rs = CoverGridSpec(nr=nr, ntheta=M).radii(1.0)
    assert ([a.tobytes() for a in _edge_segments(rs, M)]
            == [a.tobytes() for a in _former_edge_segments(rs, M)])


def test_cut_nudge_keeps_the_former_bits():
    # a cut far from the centre is not bent; its inner end points move by
    # the former generic nudge 0.23 rs[0] (cos 1.234, sin 1.234)
    rs = GRID_COARSE.radii(1.0)
    a, b = np.array([0.5, -0.0]), np.array([0.7, 0.4])
    nudge = 0.23 * float(rs[0]) * np.array([np.cos(1.234), np.sin(1.234)])
    (got,) = _deflect_cuts(((a, b),), rs)
    assert [p.tobytes() for p in got] == [(a + nudge).tobytes(), (b + nudge).tobytes()]


@pytest.mark.parametrize("point", [[0.3, -0.0], [-0.2, 0.1], [-0.4, -0.0]])
def test_single_point_anchors_keep_the_former_bits(point):
    # anti-periodic data anchors radially; periodic data at its smallest |g|
    point, R = np.array(point), 0.9
    th = np.arctan2(point[1], point[0]) + 0.0137
    got = _anchor_for_single_point(None, point, R, -1)
    assert got.tobytes() == _former_circle_point(th, 1.5 * R).tobytes()
    thetas = np.arange(512) * (4.0 * np.pi / 512)
    trace = BoundaryTrace(thetas, np.cos(thetas + point[0]), 1.0)
    jstar = int(np.argmin(np.linalg.norm(trace.sample_half(2048), axis=1)))
    th = jstar * (2.0 * np.pi / 2048) + 0.0137
    got = _anchor_for_single_point(trace, point, R, 1)
    assert got.tobytes() == _former_circle_point(th, 1.5 * R).tobytes()


@pytest.mark.parametrize("Z", [[0.2, -0.0], [-0.0, 0.0], [-0.3, 0.25]])
def test_growth_circles_keep_the_former_bits(Z):
    # the two circles of 128 points about Z at which the growth exponent
    # reads the solution, recorded from a stand-in for the solved field
    recorder, Z = PointRecorder(2), np.array(Z)
    cov = types.SimpleNamespace(rs=GRID_COARSE.radii(1.0), to_two_valued=lambda: recorder)
    local_growth_exponent(cov, Z)
    R, rz = float(cov.rs[-1]), float(np.linalg.norm(Z))
    cell = 2.0 * np.sqrt(max(rz, 0.05) * R) / cov.rs.shape[0]
    rho1 = max(3.0 * cell, 0.04 * R)
    rho2 = min(2.0 * rho1, 0.45 * (R - rz) + rho1)
    th = (np.arange(128) + 0.5) * (2.0 * np.pi / 128)
    want = [Z[None, :] + rho * np.stack([np.cos(th), np.sin(th)], axis=-1) for rho in (rho1, rho2)]
    assert [p.tobytes() for p in recorder.points] == [w.tobytes() for w in want]
