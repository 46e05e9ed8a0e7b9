import numpy as np
import pytest

from branchlab.fields import BranchPolynomialField, CylindricalModeField
from branchlab.decay import (DecayRun, detect_branch_set, decay_step, gap_probe,
                             iterate, rescale_raw, tangent_expansion,
                             fit_harmonic_average)
from branchlab.frequency import frequency_profile
from branchlab.fields import Polynomial
from branchlab.profiles import CylindricalProfile, profile_distance_sq
from branchlab.quadrature import QuadratureSpec, unit_ball

from conftest import C_NULL

SPEC = QuadratureSpec(nr=32, ntheta=80, nsphere=192)
SPEC3 = QuadratureSpec(nr=16, ntheta=48, naxis=8, nsphere=96)


def c_dist(c1, c2):
    return min(np.linalg.norm(c1 - c2), np.linalg.norm(c1 + c2))


# -- detection ---------------------------------------------------------------

@pytest.mark.parametrize("t", [0.1, 0.3])
def test_detect_branch_pair(t):
    u = BranchPolynomialField([-t * t, 0.0, 1.0])
    rep = detect_branch_set(u, extent=0.8, npts=161)
    assert len(rep.candidates) == 2
    locs = sorted(c.location[0] for c in rep.candidates)
    assert abs(locs[0] + t) <= rep.grid_spacing
    assert abs(locs[1] - t) <= rep.grid_spacing
    for c in rep.candidates:
        assert 0.48 <= c.frequency.value <= 0.52
        assert c.holonomy == -1.0
        assert abs(c.location[1]) <= rep.grid_spacing
    # isolated: the two candidates are far apart relative to the grid
    assert abs(locs[1] - locs[0]) > 10 * rep.grid_spacing


def test_detect_even_pair_negative_branch_evidence():
    # {pm Re(z^2)}: h(0) = 0, Dh(0) = 0: a coincidence-set candidate whose
    # local two-sheet decomposition succeeds (holonomy +1)
    u = CylindricalModeField.power_sum([(np.array([1.0 + 0j]), 4)], n=2)
    rep = detect_branch_set(u, extent=0.8, npts=81, minimizing=False)
    near_zero = [c for c in rep.candidates if np.linalg.norm(c.location) < 0.05]
    assert near_zero
    cand = near_zero[0]
    assert cand.in_coincidence_set
    assert cand.holonomy == 1.0


def test_detect_zero_symmetric_part():
    u = CylindricalModeField.power_sum([(np.array([0.0 + 0j]), 1)], n=2)
    rep = detect_branch_set(u, extent=0.8, npts=41)
    assert rep.candidates == []


# -- gap probe ----------------------------------------------------------------

def test_gap_probe_axis_occupied():
    phi3 = CylindricalModeField.power_sum([(C_NULL, 1)], n=3)
    rep = detect_branch_set(phi3, extent=0.7, npts=21, spec=SPEC3)
    assert gap_probe(rep, 0.0625, 0.5, 3) is None


def test_gap_probe_capped_branch_set():
    def q(y):
        return 0.01 + 4.0 * np.maximum(np.abs(y[..., 0]) - 0.25, 0.0) ** 2

    def qg(y):
        g = 8.0 * np.maximum(np.abs(y[..., 0]) - 0.25, 0.0) * np.sign(y[..., 0])
        return g[..., None]

    cap = BranchPolynomialField([0.0, 0.0, 1.0], n=3, qfun=q, qgrad=qg)
    rep = detect_branch_set(cap, extent=0.7, npts=21, spec=SPEC3, minimizing=False)
    witness = gap_probe(rep, 0.0625, 0.5, 3)
    assert witness is not None
    assert abs(witness[0]) > 0.3


def test_gap_probe_empty_candidates():
    rep = detect_branch_set(
        CylindricalModeField.power_sum([(np.array([0.0 + 0j]), 1)], n=2),
        extent=0.8, npts=21)
    witness = gap_probe(rep, 0.1, 0.5, 2)
    assert witness is not None  # any ball is free; first grid point returned


# -- decay steps and iteration -------------------------------------------------

def test_decay_step_ratios_by_degree():
    phi = CylindricalProfile(C_NULL, 1, n=2)
    theta = 0.125
    # exact profile: ratio 0
    _, ratio0, e0 = decay_step(CylindricalModeField.power_sum([(C_NULL, 1)], n=2),
                               phi, theta, spec=SPEC)
    assert e0 < 1e-24
    # degree alpha+1 perturbation: ratio = theta^2, independent of t
    for t in (0.05, 0.005):
        u = CylindricalModeField.power_sum([(C_NULL, 1), (t * C_NULL, 3)], n=2)
        _, ratio, _ = decay_step(u, phi, theta, spec=SPEC)
        assert ratio == pytest.approx(theta ** 2, rel=1e-6)
    # degree alpha+2 perturbation: ratio = theta^4
    u4 = CylindricalModeField.power_sum([(C_NULL, 1), (0.05 * C_NULL, 5)], n=2)
    _, ratio4, _ = decay_step(u4, phi, theta, spec=SPEC)
    assert ratio4 == pytest.approx(theta ** 4, rel=1e-6)


def test_iterate_decay_run():
    u = CylindricalModeField.power_sum([(C_NULL, 1), (0.02 * C_NULL, 3)], n=2)
    run = iterate(u, np.zeros(2), 1, theta=0.125, j_max=3, spec=SPEC)
    assert run.outcome == "decay"
    ratios = [s.ratio for s in run.steps[1:]]
    assert all(abs(r - 0.125 ** 2) < 0.2 * 0.125 ** 2 for r in ratios)
    assert c_dist(run.limit_profile.c, C_NULL) < 1e-4
    assert run.exponent_estimate == pytest.approx(2.0, abs=0.1)
    # contraction stronger than the 1/4 threshold of the iteration scheme
    assert all(r <= 0.25 for r in ratios)
    # profile drift decays geometrically (Cauchy property)
    drifts = [d for d in run.drift if d > 0]
    for a, b in zip(drifts, drifts[1:]):
        assert b <= 0.25 * a + 1e-24


def test_tangent_uniqueness_across_theta():
    u = CylindricalModeField.power_sum([(C_NULL, 1), (0.02 * C_NULL, 3)], n=2)
    run1 = iterate(u, np.zeros(2), 1, theta=0.125, j_max=3, spec=SPEC)
    run2 = iterate(u, np.zeros(2), 1, theta=0.0625, j_max=3, spec=SPEC)
    d = profile_distance_sq(run1.limit_profile, run2.limit_profile,
                            unit_ball(2), SPEC)
    assert d < 1e-10


def test_iterate_gap_outcome():
    def q(y):
        return 0.0025 + 4.0 * np.maximum(np.abs(y[..., 0]) - 0.2, 0.0) ** 2

    def qg(y):
        g = 8.0 * np.maximum(np.abs(y[..., 0]) - 0.2, 0.0) * np.sign(y[..., 0])
        return g[..., None]

    cap = BranchPolynomialField([0.0, 0.0, 1.0], n=3, qfun=q, qgrad=qg)
    run = iterate(cap, np.zeros(3), 1, theta=0.125, j_max=2, spec=SPEC3,
                  probe_gaps=True, delta0=0.05)
    assert run.outcome in ("gap", "decay")
    if run.outcome == "gap":
        assert run.steps[-1].gap_witness is not None


def test_iterate_truncation_flag():
    u = CylindricalModeField.power_sum([(C_NULL, 1), (0.01 * C_NULL, 3)], n=2)
    run = iterate(u, np.zeros(2), 1, theta=0.125, j_max=6, spec=SPEC,
                  min_scale=0.01, probe_gaps=False)
    assert run.outcome == "truncated"


def test_rescale_raw_symbolic():
    u = CylindricalModeField.power_sum([(C_NULL, 1), (0.1 * C_NULL, 3)], n=2)
    v = rescale_raw(u, np.zeros(2), 0.125, 0.5)
    assert isinstance(v, CylindricalModeField)
    terms = v.power_terms()
    assert abs(terms[0][0][0] - C_NULL[0]) < 1e-15
    assert abs(terms[1][0][0] - 0.1 * 0.125 * C_NULL[0]) < 1e-16


# -- tangent expansion ----------------------------------------------------------

def test_tangent_expansion_rates():
    u = CylindricalModeField.power_sum([(C_NULL, 1), (0.02 * C_NULL, 3)], n=2)
    run = iterate(u, np.zeros(2), 1, theta=0.125, j_max=3, spec=SPEC)
    tr = tangent_expansion(u, np.zeros(2), run, sigmas=0.5 ** np.arange(6), spec=SPEC)
    assert tr.is_branch_point
    assert tr.l2_slope == pytest.approx(run.k + 2, abs=0.1)
    assert tr.sup_slope >= run.k - 0.1
    assert tr.gamma_l2 == pytest.approx(2.0, abs=0.1)


def test_tangent_expansion_exact_profile_zero_error():
    u = CylindricalModeField.power_sum([(C_NULL, 1)], n=2)
    run = iterate(u, np.zeros(2), 1, theta=0.125, j_max=2, spec=SPEC)
    tr = tangent_expansion(u, np.zeros(2), run, sigmas=0.5 ** np.arange(4), spec=SPEC)
    assert np.max(tr.l2_table) < 1e-22
    assert np.max(tr.sup_table) < 1e-22


def test_tangent_with_harmonic_average():
    avg = Polynomial([(1, 0), (2, 0), (0, 2)],
                     [np.array([0.3, 0.0]), np.array([0.2, 0.0]), np.array([-0.2, 0.0])], 2)
    u = CylindricalModeField.power_sum([(C_NULL, 1), (0.02 * C_NULL, 3)], n=2,
                                       average=avg)
    h = fit_harmonic_average(u, np.zeros(2))
    X = np.random.default_rng(0).uniform(-0.5, 0.5, (20, 2))
    assert np.max(np.abs(h.value(X) - avg.value(X))) < 1e-8
    run = iterate(u, np.zeros(2), 1, theta=0.125, j_max=2, spec=SPEC)
    tr = tangent_expansion(u, np.zeros(2), run, sigmas=0.5 ** np.arange(5), spec=SPEC)
    assert tr.l2_slope == pytest.approx(run.k + 2, abs=0.15)


def test_not_a_branch_point_result():
    u = CylindricalModeField.power_sum([(C_NULL, 1)], n=2)
    run = iterate(u, np.zeros(2), 1, theta=0.125, j_max=1, spec=SPEC)
    fake = DecayRun(run.center, run.theta, run.k, run.steps, run.outcome,
                    CylindricalProfile(np.zeros(2) + 0j, 1, n=2),
                    run.exponent_estimate, run.drift)
    tr = tangent_expansion(u, np.zeros(2), fake, spec=SPEC)
    assert not tr.is_branch_point


# -- frequency pinching -----------------------------------------------------------

def _pinch_profile(u, X1, spec):
    """N_{u,X1} over the radii that a domain of radius 2 admits about X1 (R = 2)."""
    radii = np.geomspace(0.05, 1.0 - float(np.linalg.norm(X1)), 12)
    return frequency_profile(u, X1, radii, spec)


def test_frequency_pinch_homogeneous_center():
    u = CylindricalModeField.power_sum([(C_NULL, 1)], n=2)
    over = _pinch_profile(u, np.zeros(2), SPEC).N - 0.5
    assert abs(np.max(over)) < 1e-10 and abs(np.min(over)) < 1e-10


def test_frequency_pinch_translated_center():
    u = CylindricalModeField.power_sum([(C_NULL, 1)], n=3)
    prof = _pinch_profile(u, np.array([0.0, 0.0, 0.3]), SPEC3)
    # N_{u,X1}(rho) <= alpha with -> alpha as rho grows, monotonically
    assert np.max(prof.N - 0.5) < 1e-6
    assert np.all(np.diff(prof.N) >= -1e-8)
    assert prof.N[-1] > prof.N[0] - 1e-9


def test_frequency_pinch_perturbed_sweep():
    # pinched within eps^2 = 0.04 above alpha, and never below it
    u = CylindricalModeField.power_sum([(C_NULL, 1), (0.01 * C_NULL, 3)], n=2)
    over = _pinch_profile(u, np.zeros(2), SPEC).N - 0.5
    assert np.max(over) < 0.2 ** 2 and np.min(over) > -1e-8


def test_minimal_degree_regime_both_branch_points():
    # k = 1 class: the expansion holds at every detected branch point with
    # k = 1, and the sup-table slope clears k + gamma/(2n)
    t = 0.3
    u = BranchPolynomialField([-t * t, 0.0, 1.0])
    rep = detect_branch_set(u, extent=0.8, npts=81)
    assert len(rep.candidates) == 2
    for cand in rep.candidates:
        v = rescale_raw(u, cand.location, 0.2, 0.5)
        run = iterate(v, np.zeros(2), 1, theta=0.125, j_max=2, spec=SPEC,
                      probe_gaps=False)
        assert run.outcome == "decay"
        assert np.linalg.norm(run.limit_profile.c) > 0.1
        tr = tangent_expansion(v, np.zeros(2), run,
                               sigmas=0.5 ** np.arange(1, 6), spec=SPEC)
        assert tr.is_branch_point and tr.k == 1
        gamma = max(tr.gamma_l2, 0.0)
        assert tr.sup_slope >= 1 + gamma / (2 * u.n) - 0.1


def test_iterate_on_minimizer_output():
    # end-to-end: branched-cover solve of a perturbed-profile trace, then
    # the decay iteration on the sampled solution; at a 512x512-equivalent
    # cover grid the run completes >= 3 steps before hitting the grid floor
    from branchlab.minimizer import BoundaryTrace, CoverGridSpec, solve_branched_laplace

    u_exact = CylindricalModeField.power_sum([(C_NULL, 1), (0.05 * C_NULL, 3)], n=2)
    btr = BoundaryTrace.from_field(u_exact, 1.0)
    cov = solve_branched_laplace(btr, grid=CoverGridSpec(nr=256, ntheta=512))
    sf = cov.to_two_valued()
    nr = cov.rs.shape[0]
    floor = (8.0 / (0.78 * nr)) ** 2  # >= 8 graded rings inside the view
    spec = QuadratureSpec(nr=24, ntheta=48, nsphere=96)
    run = iterate(sf, np.zeros(2), 1, theta=0.125, j_max=5, spec=spec,
                  probe_gaps=False, min_scale=floor)
    completed = [s for s in run.steps[1:] if s.outcome == "decay"]
    assert len(completed) >= 3
    assert run.outcome == "truncated"
    # early ratios track theta^2; the deepest scale sits on the solver's
    # discretization floor and is excluded
    for s in completed[:2]:
        assert abs(s.ratio - 0.125 ** 2) < 0.5 * 0.125 ** 2
    c2 = completed[1].profile.c
    assert c_dist(c2, C_NULL) < 2e-2


def test_iterate_eps0_gate():
    u = CylindricalModeField.power_sum([(C_NULL, 1), (2.0 * C_NULL, 3)], n=2)
    run = iterate(u, np.zeros(2), 1, theta=0.125, j_max=2, spec=SPEC, eps0=0.05)
    assert run.outcome == "excess-too-large"


def test_decay_run_json(tmp_path):
    u = CylindricalModeField.power_sum([(C_NULL, 1), (0.05 * C_NULL, 3)], n=2)
    run = iterate(u, np.zeros(2), 1, theta=0.125, j_max=2, spec=SPEC)
    d = run.to_json_dict()
    assert d["outcome"] == "decay"
    assert len(d["steps"]) == 3
    import json

    text = json.dumps(d, sort_keys=True)
    assert "limit_profile" in text


class _FailingField:
    """u, except that symmetric_values raises TypeError ('error') or gives
    zeros ('zero') while mode is set."""

    def __init__(self, u):
        self.u = u
        self.mode = None

    def __getattr__(self, name):
        return getattr(self.u, name)

    def symmetric_values(self, X):
        if self.mode == "error":
            raise TypeError("a fault in the field")
        s = self.u.symmetric_values(X)
        return 0.0 * s if self.mode == "zero" else s


@pytest.mark.parametrize("mode", ["error", "zero"])
def test_detect_frequency_failure(monkeypatch, mode):
    # the frequency estimate of a candidate becomes NaN on a degenerate
    # height only; any other error of the field propagates
    from branchlab import decay

    fld = _FailingField(CylindricalModeField.power_sum([(C_NULL, 1)], n=2))
    frequency_at_point = decay.frequency_at_point

    def failing(u, *args, **kwargs):
        u.mode = mode
        try:
            return frequency_at_point(u, *args, **kwargs)
        finally:
            u.mode = None

    monkeypatch.setattr(decay, "frequency_at_point", failing)
    if mode == "error":
        with pytest.raises(TypeError, match="a fault in the field"):
            detect_branch_set(fld, extent=0.8, npts=21)
        return
    rep = detect_branch_set(fld, extent=0.8, npts=21)
    assert rep.candidates
    assert all(np.isnan(c.frequency.value) and c.frequency.uncertainty == np.inf
               for c in rep.candidates)
