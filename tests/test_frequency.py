import json
import tracemalloc

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from branchlab import cli, quadrature
from branchlab.errors import DegenerateHeightError
from branchlab.fields import (BranchPolynomialField, CylindricalMode, CylindricalModeField,
                              RescaledField, non_stationary_control)
from branchlab.frequency import (axis_energy_integral, check_monotonicity, energy_integral,
                                 frequency_at_point, frequency_derivative_identity,
                                 frequency_profile, deficit_monotonicity_residual,
                                 height_integral, radial_frequency_deviation,
                                 stationarity_residuals)
from branchlab.fields import l2_distance_sq
from branchlab.profiles import CylindricalProfile, corollary_checks
from branchlab.quadrature import (Ball, QuadratureSpec, ball_blocks, ball_rule, sphere_blocks,
                                  sphere_rule, unit_ball)

from conftest import C_NULL, power_sum_DH


def test_frequency_constant_for_model_profiles(spec_fast):
    # analytic oracle: D = alpha H for homogeneous stationary fields, and
    # the closed-form polar integrals confirm both sides for k = 1..4
    rng = np.random.default_rng(1)
    radii = np.array([0.25, 0.5, 1.0])
    for k in range(1, 5):
        c = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        u = CylindricalModeField.power_sum([(c, k)], n=2)
        prof = frequency_profile(u, np.zeros(2), radii, spec_fast)
        assert np.max(np.abs(prof.N - k / 2)) < 1e-10
        for i, rho in enumerate(radii):
            D_exact, H_exact = power_sum_DH([(c, k)], rho)
            assert prof.D[i] == pytest.approx(D_exact, rel=1e-11)
            assert prof.H[i] == pytest.approx(H_exact, rel=1e-11)


def test_frequency_zero_for_nonzero_constant_pair(spec_fast):
    # the constant symmetric pair {+-(1.5, -0.5)}: D = 0 < H
    u = CylindricalModeField([CylindricalMode(0.0, 0.0, [1.5, -0.5], [0.0, 0.0])], n=2)
    prof = frequency_profile(u, np.zeros(2), np.array([0.3, 0.6]), spec_fast)
    assert np.max(np.abs(prof.N)) < 1e-12


def test_height_doubling_equality(spec_fast):
    # (sigma/rho)^(2 alpha) equality case for homogeneous fields
    for k in (1, 2, 3):
        u = CylindricalModeField.power_sum([(C_NULL, k)], n=2)
        prof = frequency_profile(u, np.zeros(2), np.array([0.25, 0.5, 1.0]), spec_fast)
        for sigma_i, rho_i in ((0, 2), (1, 2), (0, 1)):
            ratio = prof.H[sigma_i] / prof.H[rho_i]
            expected = (prof.radii[sigma_i] / prof.radii[rho_i]) ** k
            assert ratio == pytest.approx(expected, rel=1e-10)


def test_degenerate_height_error(spec_fast):
    zero = CylindricalModeField([CylindricalMode(0.5, 0.5, [0.0], [0.0])], n=2)
    with pytest.raises(DegenerateHeightError):
        frequency_profile(zero, np.zeros(2), np.array([0.5]), spec_fast)


def test_monotonicity_perturbed_field_closed_form(spec_fast):
    d = 0.3 * C_NULL
    u = CylindricalModeField.power_sum([(C_NULL, 1), (d, 5)], n=2)
    radii = np.linspace(0.05, 0.9, 18)
    prof = frequency_profile(u, np.zeros(2), radii, spec_fast)
    rep = check_monotonicity(prof, slack=1e-8)
    assert rep.ok
    # closed-form oracle N(rho) = (a1 |c|^2 + a2 |d|^2 rho^(2(a2-a1)))/(...)
    csq, dsq = 1.0, float(np.sum(np.abs(d) ** 2))
    Nex = (0.5 * csq + 2.5 * dsq * radii ** 4) / (csq + dsq * radii ** 4)
    assert np.max(np.abs(prof.N - Nex)) < 1e-10
    # strictly increasing on the mid range
    mid = (radii > 0.2) & (radii < 0.8)
    assert np.all(np.diff(prof.N[mid]) > 0)


def test_monotonicity_negative_control(spec_fast):
    u = non_stationary_control()
    prof = frequency_profile(u, np.zeros(2), np.linspace(0.05, 0.9, 18), spec_fast)
    rep = check_monotonicity(prof, slack=1e-8)
    assert not rep.ok
    assert len(rep.violations) > 5


def test_check_monotonicity_needs_three_radii(spec_fast):
    u = CylindricalModeField.power_sum([(C_NULL, 1)], n=2)
    prof = frequency_profile(u, np.zeros(2), np.array([0.3, 0.6]), spec_fast)
    with pytest.raises(ValueError):
        check_monotonicity(prof)


def test_stationarity_identities_classical(spec_fast):
    # the classical harmonic pair {+-(x1 + 0.5 x2)} = {+-Re((1 - 0.5i) z)}, an
    # even-k power sum: all residuals at quadrature noise
    u = CylindricalModeField.power_sum([(np.array([1.0 - 0.5j]), 2)], n=2)
    # the identity residual floor is the bump-function quadrature error,
    # which shrinks superalgebraically with the node count
    rep = stationarity_residuals(u, spec=spec_fast)
    assert rep.squash < 3e-4
    assert rep.squeeze < 3e-4
    assert np.max(rep.radial) < 1e-10
    fine = stationarity_residuals(u, spec=QuadratureSpec(nr=96, ntheta=192, nsphere=256))
    assert fine.squash < 1e-7 and fine.squeeze < 1e-7


def test_stationarity_refinement_order(phi_half):
    residuals = []
    for level in range(3):
        spec = QuadratureSpec(nr=6, ntheta=16, nsphere=64).refined(level)
        rep = stationarity_residuals(phi_half, spec=spec)
        residuals.append(max(rep.squash, np.max(rep.radial)))
    # measured order >= 2 under refinement
    order = np.log2(residuals[0] / residuals[-1]) / 2.0
    assert order >= 2.0


def test_stationarity_rejects_escaping_test_function(spec_fast, phi_half):
    from branchlab.frequency import BumpTestFunction

    tf = BumpTestFunction(np.array([0.8, 0.0]), 0.5)  # support leaves B_1
    with pytest.raises(ValueError):
        stationarity_residuals(phi_half, test_functions=[tf], spec=spec_fast)


def test_stationarity_negative_controls(spec_fast):
    # squeeze detects the branch-point residue of c . c != 0 with k = 1
    bad = CylindricalModeField.power_sum([(np.array([1.0 + 0j]), 1)], n=2)
    rep = stationarity_residuals(bad, spec=spec_fast)
    assert rep.squeeze > 0.5
    # the angular control violates squash and squeeze, stably under refinement
    ctrl = non_stationary_control()
    r1 = stationarity_residuals(ctrl, spec=spec_fast)
    r2 = stationarity_residuals(ctrl, spec=QuadratureSpec(nr=64, ntheta=128, nsphere=256))
    assert r1.squeeze > 0.1 and r2.squeeze > 0.1
    assert abs(r1.squeeze - r2.squeeze) < 0.05 * r2.squeeze


def test_deficit_monotonicity_identity(spec_fine):
    # u = {pm Re(c z^a + d z^(a+1))}: lhs and rhs agree; closed-form oracle
    # rhs = 4 pi sum_j (a_j - a)^2 |c_j|^2 rho^(2(a_j - a) - 1)
    for k, ratio_dc in ((1, 0.1), (2, 0.01)):
        alpha = k / 2.0
        d = ratio_dc * C_NULL
        u = CylindricalModeField.power_sum([(C_NULL, k), (d, k + 2)], n=2)
        rows = deficit_monotonicity_residual(u, np.zeros(2), alpha,
                                         np.linspace(0.3, 0.7, 21), spec_fine)
        for row in rows:
            oracle = 4 * np.pi * float(np.sum(np.abs(d) ** 2)) * row.rho
            assert row.rhs == pytest.approx(oracle, rel=1e-10)
            assert abs(row.residual) < 1e-8
            assert row.rhs > 0


def test_deficit_monotonicity_homogeneous_vanishes(phi_half, spec_fast):
    rows = deficit_monotonicity_residual(phi_half, np.zeros(2), 0.5,
                                     np.linspace(0.3, 0.7, 11), spec_fast)
    for row in rows:
        assert abs(row.lhs) < 1e-10 and abs(row.rhs) < 1e-12


def test_deficit_monotonicity_wrong_alpha_symbolic(spec_fine):
    # homogeneous degree beta field checked at alpha != beta:
    # F(rho) = rho^(-2a)(D - a H) = 2 pi (b - a)|c|^2 rho^(2b - 2a)
    # lhs = F'(rho) = 4 pi (b - a)^2 |c|^2 rho^(2b - 2a - 1) = rhs
    k, alpha = 3, 0.5
    beta = k / 2.0
    u = CylindricalModeField.power_sum([(C_NULL, k)], n=2)
    rows = deficit_monotonicity_residual(u, np.zeros(2), alpha,
                                     np.linspace(0.4, 0.6, 11), spec_fine)
    for row in rows:
        sym = 4 * np.pi * (beta - alpha) ** 2 * row.rho ** (2 * beta - 2 * alpha - 1)
        assert row.lhs == pytest.approx(sym, rel=1e-8)
        assert row.rhs == pytest.approx(sym, rel=1e-10)


def test_frequency_at_point_exact(phi_half, spec_fast):
    est = frequency_at_point(phi_half, np.zeros(2), spec=spec_fast)
    assert est.value == pytest.approx(0.5, abs=1e-8)
    assert not est.low_confidence


def test_frequency_at_point_regular_point(spec_fast):
    # |u(Y)| > 0 forces N -> 0
    u = CylindricalModeField.power_sum([(C_NULL, 1)], n=2)
    est = frequency_at_point(u, np.array([0.5, 0.0]), rho_max=0.2, spec=spec_fast)
    assert est.value < 0.05


def test_frequency_at_translated_branch_point(spec_fast):
    # {pm (z^2 - t^2)^(1/2)} at (t, 0): local expansion ~ rotated c (z-t)^(1/2)
    t = 0.3
    u = BranchPolynomialField([-t * t, 0.0, 1.0])
    est = frequency_at_point(u, np.array([t, 0.0]), rho_max=0.12, spec=spec_fast)
    assert est.value == pytest.approx(0.5, abs=5e-3)


def test_upper_semicontinuity_proxy(spec_fast):
    # u_j -> u in L2 with Y_j -> 0: limsup N_{u_j}(Y_j) <= N_u(0) + tol
    u = CylindricalModeField.power_sum([(C_NULL, 1)], n=2)
    n_u = frequency_at_point(u, np.zeros(2), spec=spec_fast).value
    vals = []
    for t, yoff in ((0.2, 0.1), (0.05, 0.02), (0.0125, 0.005)):
        uj = CylindricalModeField.power_sum([(C_NULL, 1), (t * C_NULL, 3)], n=2)
        vals.append(frequency_at_point(uj, np.array([0.0, yoff]),
                                       rho_max=0.2, spec=spec_fast).value)
    assert vals[-1] <= n_u + 0.02


def test_symmetric_minimizer_frequency_bound(spec_fast):
    # detected singular points of symmetric test fields report N >= 1/2 - tol
    for coeffs, roots in (([-0.04, 0.0, 1.0], [(0.2, 0.0), (-0.2, 0.0)]),
                          ([0.0, 1.0], [(0.0, 0.0)])):
        u = BranchPolynomialField(coeffs)
        for Z in roots:
            est = frequency_at_point(u, np.array(Z), rho_max=0.1, spec=spec_fast)
            assert est.value >= 0.5 - 0.02
    # harmonic C^{1,mu} analogue: k >= 3 profile reports N >= 3/2 - tol
    u3 = CylindricalModeField.power_sum([(C_NULL, 3)], n=2)
    est = frequency_at_point(u3, np.zeros(2), spec=spec_fast)
    assert est.value >= 1.5 - 1e-6


def test_a_priori_ratio_bounds(spec_fast):
    # a priori estimate analogues: LHS/excess stays bounded as the
    # perturbation shrinks (empirical constant tracking, n = 3)
    phi = CylindricalModeField.power_sum([(C_NULL, 1)], n=3)
    gamma_ball = Ball((0.0, 0.0, 0.0), 0.5)
    ratios_a = []
    ratios_b = []
    for t in (0.1, 0.01):
        u = CylindricalModeField.power_sum([(C_NULL, 1), (t * C_NULL, 5)], n=3)
        exc = l2_distance_sq(u, phi, unit_ball(3), spec_fast)
        lhs_a = radial_frequency_deviation(u, np.zeros(3), 0.5, gamma_ball, spec_fast)
        lhs_b = axis_energy_integral(u, gamma_ball, spec_fast)
        ratios_a.append(lhs_a / exc)
        ratios_b.append(lhs_b / exc)
    assert max(ratios_a) / min(ratios_a) < 1.5
    assert all(r < 10.0 for r in ratios_a)
    # y-independent family: axis energy vanishes identically
    assert all(r < 1e-10 for r in ratios_b)


def test_frequency_derivative_identity(spec_fine):
    # two independent routes to N': finite differences of quadrature N
    # values against the sphere-integral formula, whose Cauchy-Schwarz
    # bracket is nonnegative
    from branchlab.frequency import frequency_derivative_identity

    u = CylindricalModeField.power_sum([(C_NULL, 1), (0.3 * C_NULL, 5)], n=2)
    rows = frequency_derivative_identity(u, np.zeros(2),
                                         np.linspace(0.3, 0.7, 21), spec_fine)
    q = float(np.sum(np.abs(0.3 * C_NULL) ** 2))
    for row in rows:
        assert row.cauchy_schwarz_gap >= -1e-14
        assert row.rhs >= 0
        # sphere-integral route against the closed-form derivative of
        # N(rho) = (1/2 + 5/2 q rho^4) / (1 + q rho^4)
        rho = row.rho
        n_prime = (10 * q * rho ** 3 * (1 + q * rho ** 4)
                   - (0.5 + 2.5 * q * rho ** 4) * 4 * q * rho ** 3) / (1 + q * rho ** 4) ** 2
        assert row.rhs == pytest.approx(n_prime, rel=1e-6)
        # finite-difference route agrees at its own truncation order
        assert row.lhs == pytest.approx(row.rhs, rel=2e-2, abs=1e-8)
    # homogeneous: both routes give zero
    hom = CylindricalModeField.power_sum([(C_NULL, 1)], n=2)
    rows0 = frequency_derivative_identity(hom, np.zeros(2),
                                          np.linspace(0.3, 0.7, 11), spec_fine)
    for row in rows0:
        assert abs(row.lhs) < 1e-9 and abs(row.rhs) < 1e-12


def test_frequency_profile_csv(tmp_path):
    cfg = {"schema_version": 1, "kind": "frequency", "seed": 0, "output_dir": "out",
           "field": {"type": "power_sum", "n": 2,
                     "terms": [{"k": 1, "c": [[C_NULL[0].real, C_NULL[0].imag],
                                              [C_NULL[1].real, C_NULL[1].imag]]}]},
           "params": {"radii": [0.3, 0.5, 0.7],
                      "quadrature": {"nr": 16, "ntheta": 32, "nsphere": 64}}}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    assert cli.main(["run", str(path)]) == cli.EXIT_OK
    text = (tmp_path / "out" / "frequency_profile.csv").read_text().splitlines()
    assert text[0] == "rho,D,H,N,dN_drho"
    assert len(text) == 4


def test_frequency_n4_model_profile_blocked():
    # a disk is 24 x 48 nodes and a circle 128.  An axis-invariant (planar)
    # model profile runs on collapsed rules, with 12 disks and 48 circles; a
    # profile whose branch axis is tilted out of the x3, x4 plane keeps the
    # full rules, with 12 x 12 disks and 48 x 32 circles.  Both are cut into
    # blocks of whole disks (circles) within BLOCK_NODES, and D and H are
    # summed block by block
    spec = QuadratureSpec(nr=24, ntheta=48, naxis=12, nsphere=128, npolar=48)
    ball = unit_ball(4)
    radii = np.array([0.25, 0.5, 1.0])
    tilted = CylindricalProfile(C_NULL, 1, B=[0.3, -0.2, 0.1, 0.25], n=4)
    for u, disks, circles in ((CylindricalModeField.power_sum([(C_NULL, 1)], n=4), 12, 48),
                              (tilted, 12 * 12, 48 * 32)):
        assert u.planar == (disks == 12)
        for blocks, count, size in (
                (ball_blocks(ball, spec.nr, spec.ntheta, spec.naxis, planar=u.planar), disks, 1152),
                (sphere_blocks(ball, spec.nsphere, spec.npolar, planar=u.planar), circles, 128)):
            per_block = max(1, quadrature.BLOCK_NODES // size)
            sizes = [b.size for b in blocks]
            assert len(sizes) == -(-count // per_block) and sum(sizes) == count * size
        prof = frequency_profile(u, np.zeros(4), radii, spec)
        if u.planar:
            # N stays 1/2 up to the quadrature error of this small spec
            assert np.max(np.abs(prof.N - 0.5)) < 2e-4
            assert np.ptp(prof.N) < 1e-12
        again = frequency_profile(u, np.zeros(4), radii, spec)
        for a, b in ((prof.D, again.D), (prof.H, again.H), (prof.N, again.N)):
            assert np.array_equal(a, b)
        # the sums agree with one reduction over the whole, uncollapsed rule
        rule = ball_rule(ball, spec.nr, spec.ntheta, spec.naxis)
        ds = u.symmetric_gradient(rule.points)
        assert prof.D[2] == pytest.approx(
            rule.integrate_values(2.0 * np.sum(ds * ds, axis=(1, 2))), rel=1e-13)
        srule = sphere_rule(ball, spec.nsphere, spec.npolar)
        s = u.symmetric_values(srule.points)
        assert prof.H[2] == pytest.approx(
            srule.integrate_values(2.0 * np.sum(s * s, axis=1)), rel=1e-13)


def _unfolded(u):
    """u read through an identity view flagged non-planar, so that its
    integrals run on the full rules, which planar integrals fold."""
    v = RescaledField(u, np.zeros(u.n), 1.0, 1.0)
    v.planar = False
    return v


_coefs = st.floats(-2.0, 2.0)


@st.composite
def _planar_n3_fields(draw):
    """Power sums of one angular parity and planar branch polynomials at n = 3,
    some of them rescaled about an off-origin centre."""
    pair = st.tuples(_coefs, _coefs, _coefs, _coefs).map(
        lambda a: np.array([complex(a[0], a[1]), complex(a[2], a[3])]))
    if draw(st.booleans()):
        parity = draw(st.integers(0, 1))
        ks = draw(st.lists(st.integers(parity or 2, 5).filter(lambda k: k % 2 == parity),
                           min_size=1, max_size=3))
        u = CylindricalModeField.power_sum([(draw(pair), k) for k in ks], n=3)
    else:
        # P = 0 has no gradient
        coeffs = draw(st.lists(st.builds(complex, _coefs, _coefs), min_size=2, max_size=4)
                      .filter(any))
        u = BranchPolynomialField(coeffs, n=3)
    if draw(st.booleans()):
        Y = draw(st.tuples(*[st.floats(-0.5, 0.5)] * 3))
        u = RescaledField(u, Y, draw(st.floats(0.25, 1.5)), draw(st.floats(0.5, 2.0)))
    assert u.planar
    return u


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_folded_n3_integrals_match_the_full_rules(data):
    # planar n = 3 integrals run on rules folded onto the mirror half x3 <= c3;
    # a planar integrand is the same at mirrored nodes, so only summation order moves
    u, v = data.draw(_planar_n3_fields()), data.draw(_planar_n3_fields())
    ball = Ball(data.draw(st.tuples(*[st.floats(-0.5, 0.5)] * 3)), data.draw(st.floats(0.2, 1.0)))
    spec = QuadratureSpec(nr=8, ntheta=16, naxis=data.draw(st.integers(3, 9)), nsphere=24,
                          npolar=data.draw(st.integers(3, 10)))
    for folded, full in (
            (energy_integral(u, ball, spec), energy_integral(_unfolded(u), ball, spec)),
            (height_integral(u, ball, spec), height_integral(_unfolded(u), ball, spec)),
            (l2_distance_sq(u, v, ball, spec), l2_distance_sq(_unfolded(u), v, ball, spec))):
        assert folded == pytest.approx(full, rel=1e-14)


@pytest.mark.parametrize("n", [3, 4])
def test_frequency_profile_memory_is_block_sized(n):
    # at the default spec the planar ball rules of a radius have 55,296
    # (n = 3) and 110,592 (n = 4) nodes; reduced in blocks of at most
    # BLOCK_NODES, a profile holds the temporaries of one block at a time
    u = CylindricalModeField.power_sum([(C_NULL, 1)], n=n)
    tracemalloc.start()
    try:
        frequency_profile(u, np.zeros(n), np.array([0.5, 1.0]), QuadratureSpec())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 2 ** 20


def test_tilted_n4_memory_is_block_sized():
    # a profile tilted out of the x3, x4 plane runs on the full n = 4 rules,
    # whose blocks are runs of whole disks and circles within BLOCK_NODES
    # (one disk of 4,608 nodes at the default spec), so its energy and its
    # frequency profile hold the temporaries of one block at a time
    u = CylindricalProfile(C_NULL, 1, B=[0.3, -0.2, 0.1, 0.25], n=4)
    assert not u.planar
    for run in (lambda: energy_integral(u, unit_ball(4), QuadratureSpec()),
                lambda: frequency_profile(u, np.zeros(4), np.array([1.0]), QuadratureSpec())):
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 2 ** 20


def _n4_sums(monkeypatch, budget):
    """The four formerly whole-rule integral sites on an n = 4 field, with blocks of at most
    budget nodes: each site's values and the largest rule it built."""
    monkeypatch.setattr(quadrature, "BLOCK_NODES", budget)
    sizes = []
    for name in ("ball_rule", "sphere_rule"):
        def build(*args, build=getattr(quadrature, name), **kw):
            rule = build(*args, **kw)
            sizes.append(rule.size)
            return rule
        monkeypatch.setattr(quadrature, name, build)
    spec = QuadratureSpec(nr=8, ntheta=16, naxis=4, nsphere=32, npolar=8)
    u = CylindricalModeField.power_sum([(C_NULL, 1), (0.1 * C_NULL, 3)], n=4)
    tilted = CylindricalProfile(C_NULL, 1, B=[0.03, -0.02, 0.01, 0.02], n=4)
    rhos = np.linspace(0.3, 0.7, 5)

    def stationarity():
        rep = stationarity_residuals(u, spec=spec)
        return [rep.squash, rep.squeeze, *rep.radial]

    sites = {
        "corollaries": lambda: [r.lhs for r in corollary_checks(u, tilted, spec=spec)],
        "stationarity": stationarity,
        "deficit": lambda: [r.rhs for r in deficit_monotonicity_residual(
            u, np.zeros(4), 0.5, rhos, spec)],
        "derivative": lambda: [r.rhs for r in frequency_derivative_identity(
            u, np.zeros(4), rhos, spec)],
        # the scale of the stationarity integrands, whose residuals cancel
        "energy": lambda: [energy_integral(u, unit_ball(4), spec)],
    }
    out = {}
    for name, site in sites.items():
        sizes.clear()
        out[name] = site(), max(sizes)
    monkeypatch.undo()
    return out


def test_n4_integrals_are_summed_block_by_block(monkeypatch):
    # every n = 4 integral of the section-6 checks, the variational identities
    # and the N' identity is reduced block by block: no rule over a small budget
    # is built (a whole rule here has 4,096 nodes, a slab or row at most 1,024)
    blocked = _n4_sums(monkeypatch, 2048)
    for name, (_, largest) in blocked.items():
        assert largest <= 2048, name
    # with one block per rule each sum is the whole rule's; they differ by block order only
    whole = _n4_sums(monkeypatch, 2 ** 40)
    assert whole["corollaries"][1] == 4096
    for name in ("corollaries", "deficit", "derivative"):
        assert blocked[name][0] == pytest.approx(whole[name][0], rel=1e-13), name
    assert blocked["stationarity"][0] == pytest.approx(
        whole["stationarity"][0], rel=0, abs=1e-13 * whole["energy"][0][0])
