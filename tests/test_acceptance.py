"""Acceptance suite: one quantitative criterion per test, printed pass/fail.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
Tolerances are pinned here and match the experiment configuration shipped
with the package; nothing is calibrated at runtime.
"""

import json
import time

import numpy as np
import pytest

from branchlab import cli
from branchlab.decay import detect_branch_set, iterate, tangent_expansion
from branchlab.fields import (CylindricalModeField, BranchPolynomialField,
                              non_stationary_control,
                              random_stationary_power_sum)
from branchlab.frequency import (check_monotonicity, frequency_profile,
                                 deficit_monotonicity_residual,
                                 stationarity_residuals)
from branchlab.minimizer import (BoundaryTrace, CoverGridSpec, cover_frequency,
                                 l2_error_vs_field, solve_branched_laplace)
from branchlab.profiles import (CylindricalProfile, corollary_checks,
                                profile_distance_sq)
from branchlab.quadrature import QuadratureSpec, unit_ball
from branchlab.spectral import (CoverFunction, remainder_decay_check,
                                half_case_boundary_term, project_L)

from conftest import C_NULL, power_sum_norm_sq

SPEC = QuadratureSpec(nr=48, ntheta=96, nsphere=256)
SPEC_FINE = QuadratureSpec(nr=64, ntheta=128, nsphere=512)


def record(num, name, ok, detail=""):
    line = f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'}  {name}  {detail}"
    print(line, flush=True)
    assert ok, line


def test_criterion_01_model_frequency():
    rng = np.random.default_rng(2026)
    worst = 0.0
    slowest = 0.0
    for k in range(1, 7):
        c = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        u = CylindricalModeField.power_sum([(c, k)], n=2)
        t0 = time.time()
        prof = frequency_profile(u, np.zeros(2), np.array([0.25, 0.5, 1.0]), SPEC)
        elapsed = time.time() - t0
        slowest = max(slowest, elapsed)
        worst = max(worst, float(np.max(np.abs(prof.N - k / 2) / (k / 2))))
    record(1, "N = k/2 for model profiles, k = 1..6",
           worst <= 1e-6 and slowest < 10.0,
           f"max rel err {worst:.2e}, slowest case {slowest:.2f}s")


def test_criterion_02_doubling_equality():
    worst = 0.0
    for k in range(1, 5):
        u = CylindricalModeField.power_sum([(C_NULL, k)], n=2)
        prof = frequency_profile(u, np.zeros(2), np.array([0.25, 0.5, 1.0]), SPEC)
        for si, ri in ((1, 2), (0, 2)):  # sigma/rho = 1/2 and 1/4
            ratio = prof.H[si] / prof.H[ri]
            expected = (prof.radii[si] / prof.radii[ri]) ** k
            worst = max(worst, abs(ratio / expected - 1.0))
    record(2, "H doubling equality, exponent 2*alpha", worst <= 1e-8,
           f"max rel deviation {worst:.2e}")


def test_criterion_03_stationarity_identities():
    phi = CylindricalModeField.power_sum([(C_NULL, 1)], n=2)
    names = ("squash", "squeeze", "radial")
    series = {nm: [] for nm in names}
    for level in range(3):
        spec = QuadratureSpec(nr=6, ntheta=16, nsphere=64).refined(level)
        rep = stationarity_residuals(phi, spec=spec)
        series["squash"].append(rep.squash)
        series["squeeze"].append(rep.squeeze)
        series["radial"].append(float(np.max(rep.radial)))
    ok = True
    details = []
    for nm in names:
        vals = series[nm]
        if vals[-1] < 1e-10:
            details.append(f"{nm} at floor {vals[-1]:.1e}")
            continue
        order = np.log2(vals[0] / vals[-1]) / 2.0
        details.append(f"{nm} order {order:.2f}")
        ok = ok and order >= 2.0
    ctrl = non_stationary_control()
    r_ctrl = [stationarity_residuals(ctrl, spec=QuadratureSpec(nr=24, ntheta=48, nsphere=96).refined(lv)).squeeze
              for lv in range(2)]
    ok = ok and all(v > 0.1 for v in r_ctrl)
    record(3, "stationarity identities: order >= 2, control fails", ok,
           "; ".join(details) + f"; control squeeze {r_ctrl[-1]:.2f}")


def test_criterion_04_new_monotonicity():
    worst = 0.0
    for k in (1, 2):
        alpha = k / 2.0
        for ratio_dc in (1e-1, 1e-2):
            terms = [(C_NULL, k), (ratio_dc * C_NULL, k + 2)]
            nrm = np.sqrt(power_sum_norm_sq(terms))
            terms = [(c / nrm, kk) for c, kk in terms]  # unit L2 on B_1
            u = CylindricalModeField.power_sum(terms, n=2)
            rows = deficit_monotonicity_residual(u, np.zeros(2), alpha,
                                             np.linspace(0.3, 0.7, 21), SPEC_FINE)
            worst = max(worst, max(abs(r.residual) for r in rows))
            assert all(r.rhs > 0 for r in rows)
    hom = CylindricalModeField.power_sum([(C_NULL, 1)], n=2)
    rows0 = deficit_monotonicity_residual(hom, np.zeros(2), 0.5,
                                      np.linspace(0.3, 0.7, 11), SPEC)
    both0 = max(max(abs(r.lhs), abs(r.rhs)) for r in rows0)
    record(4, "new monotonicity: sides agree (1e-6), homogeneous vanishes",
           worst <= 1e-6 and both0 <= 1e-10,
           f"max residual {worst:.2e}, homogeneous sides {both0:.1e}")


def test_criterion_05_monotonicity_randomized():
    rng = np.random.default_rng(2026)
    radii = np.linspace(0.05, 0.9, 18)
    violations = 0
    for _ in range(20):
        u = random_stationary_power_sum(rng, n=2)
        prof = frequency_profile(u, np.zeros(2), radii, SPEC)
        rep = check_monotonicity(prof, slack=1e-8)
        violations += len(rep.violations)
    ctrl = non_stationary_control()
    rep_ctrl = check_monotonicity(
        frequency_profile(ctrl, np.zeros(2), radii, SPEC), slack=1e-8)
    record(5, "N monotone for 20 random stationary fields, control violates",
           violations == 0 and len(rep_ctrl.violations) > 0,
           f"violations {violations}, control {len(rep_ctrl.violations)}")


def test_criterion_06_branch_detection():
    ok = True
    details = []
    for t in (0.1, 0.3):
        u = BranchPolynomialField([-t * t, 0.0, 1.0])
        rep = detect_branch_set(u, extent=0.8, npts=161)
        h = rep.grid_spacing
        if len(rep.candidates) != 2:
            ok = False
            details.append(f"t={t}: {len(rep.candidates)} candidates")
            continue
        locs = sorted(rep.candidates, key=lambda c: c.location[0])
        err_minus = np.linalg.norm(locs[0].location - np.array([-t, 0.0]))
        err_plus = np.linalg.norm(locs[1].location - np.array([t, 0.0]))
        freqs = [c.frequency.value for c in rep.candidates]
        ok = ok and err_minus <= h and err_plus <= h
        ok = ok and all(0.48 <= f <= 0.52 for f in freqs)
        sep = np.linalg.norm(locs[1].location - locs[0].location)
        ok = ok and sep > 10 * h
        details.append(f"t={t}: errs ({err_minus:.1e},{err_plus:.1e}), N {freqs}")
    record(6, "branch detection within one cell, N in [0.48,0.52], isolated",
           ok, "; ".join(details))


def test_criterion_07_minimizer_recovery():
    u = CylindricalModeField.power_sum([(C_NULL, 1)], n=2)
    btr = BoundaryTrace.from_field(u, 1.0)
    errs = []
    t0 = time.time()
    finest_time = 0.0
    for nr, M in ((32, 64), (64, 128), (128, 256)):
        t1 = time.time()
        cov = solve_branched_laplace(btr, grid=CoverGridSpec(nr=nr, ntheta=M))
        finest_time = time.time() - t1
        errs.append(float(np.sqrt(l2_error_vs_field(cov, u))))
    orders = [float(np.log2(errs[i] / errs[i + 1])) for i in range(2)]
    prof = cover_frequency(cov, [0.25, 0.5])
    freq_ok = bool(np.all((prof.N >= 0.48) & (prof.N <= 0.52)))
    record(7, "minimizer recovery: order >= 1, frequency in [0.48,0.52], < 60 s",
           all(o >= 1.0 for o in orders) and freq_ok and finest_time < 60.0,
           f"orders {[round(o, 2) for o in orders]}, N {np.round(prof.N, 4).tolist()}, "
           f"finest solve {finest_time:.1f}s")


@pytest.fixture(scope="module")
def decay_family_run():
    u = CylindricalModeField.power_sum([(C_NULL, 1), (0.02 * C_NULL, 3)], n=2)
    run = iterate(u, np.zeros(2), 1, theta=0.125, j_max=3, spec=SPEC)
    return u, run


def test_criterion_08_decay_rates(decay_family_run):
    u, run = decay_family_run
    theta = 0.125
    ratios = [s.ratio for s in run.steps[1:]]
    ratio_ok = len(ratios) >= 3 and all(abs(r - theta ** 2) <= 0.2 * theta ** 2 for r in ratios)
    c_err = min(np.linalg.norm(run.limit_profile.c - C_NULL),
                np.linalg.norm(run.limit_profile.c + C_NULL))
    run2 = iterate(u, np.zeros(2), 1, theta=0.0625, j_max=3, spec=SPEC)
    d_unique = profile_distance_sq(run.limit_profile, run2.limit_profile,
                                   unit_ball(2), SPEC)
    record(8, "decay ratios = theta^2 (20%), c within 1e-4, tangent unique",
           ratio_ok and c_err <= 1e-4 and d_unique <= 1e-8,
           f"ratios {[round(r, 6) for r in ratios]}, c err {c_err:.1e}, "
           f"uniqueness gap {d_unique:.1e}")


def test_criterion_09_error_field_exponents(decay_family_run):
    u, run = decay_family_run
    tr = tangent_expansion(u, np.zeros(2), run, sigmas=0.5 ** np.arange(6), spec=SPEC)
    l2_ok = abs(tr.l2_slope - (run.k + 2)) <= 0.1
    sup_ok = tr.sup_slope >= run.k - 1e-6
    record(9, "error-field slopes: L2 = k+2 (0.1), sup >= k",
           l2_ok and sup_ok,
           f"L2 slope {tr.l2_slope:.3f}, sup slope {tr.sup_slope:.3f}")


def test_criterion_10_spectral():
    alpha = 0.5
    # Pythagoras and exactness on members of L
    def mode(a, vec, kind="cos"):
        def fn(r, th, y=None):
            ang = np.cos(a * np.asarray(th)) if kind == "cos" else np.sin(a * np.asarray(th))
            return (np.asarray(r) ** a * ang)[..., None] * vec
        return CoverFunction(fn, n=2, m=2)

    member = mode(alpha, np.array([0.4, -0.8]))
    proj_m = project_L(member, 1.0, C_NULL, alpha)
    exact_ok = proj_m.norm_sq_remainder <= 1e-10 * max(proj_m.norm_sq_w, 1e-30)
    mix = CoverFunction(lambda r, th, y=None: mode(alpha, np.array([1.0, 0.0]))(r, th, y)
                        + 0.3 * mode(alpha + 2, np.array([0.0, 1.0]))(r, th, y), n=2, m=2)
    proj = project_L(mix, 1.0, C_NULL, alpha)
    pyth_ok = proj.pythagoras_residual <= 1e-10
    rep = remainder_decay_check(mix, theta=0.125, scales=(0.5, 0.25, 0.125),
                          c0=C_NULL, alpha=alpha)
    contr_ok = all(c < 1.0 for c in rep.contractions)
    # small-radius boundary-term limit on an alpha = 1/2 pipeline blow-up, n = 3
    from branchlab.profiles import fit_profile, excess as excess_fn

    spec3 = QuadratureSpec(nr=24, ntheta=48, naxis=12, nsphere=128)
    u3 = CylindricalModeField.power_sum([(C_NULL, 1), (0.01 * C_NULL, 5)], n=3)
    prof3 = fit_profile(u3, 1)
    e2 = excess_fn(u3, prof3, unit_ball(3), spec3)
    w3 = CoverFunction.blowup(u3, prof3, float(np.sqrt(e2)))
    limit, unc, _ = half_case_boundary_term(w3, 0, c0=prof3.c, alpha=alpha)
    limit_ok = float(np.max(np.abs(limit))) <= max(10 * unc, 1e-6)
    record(10, "spectral: pythagoras 1e-10, L exact, contractions < 1, boundary term -> 0",
           exact_ok and pyth_ok and contr_ok and limit_ok,
           f"pythagoras {proj.pythagoras_residual:.1e}, contractions "
           f"{[round(c, 4) for c in rep.contractions]}, limit {np.max(np.abs(limit)):.1e}")


def test_criterion_11_corollary_ratio_stability():
    prof = CylindricalProfile(C_NULL, 1, n=2)
    ratios = {}
    for t in (1e-1, 1e-2, 1e-3):
        u = CylindricalModeField.power_sum([(C_NULL, 1), (t * C_NULL, 5)], n=2)
        for row in corollary_checks(u, prof, spec=SPEC):
            ratios.setdefault(row.name, []).append(row.ratio)
    worst = 1.0
    ok = True
    for name, vals in ratios.items():
        vals = [v for v in vals if np.isfinite(v) and v > 0]
        if len(vals) >= 2:
            spread = max(vals) / min(vals)
            worst = max(worst, spread)
            ok = ok and spread < 3.0
    record(11, "corollary LHS/RHS ratios stable within factor 3 across t",
           ok, f"worst spread {worst:.3f}")


def test_criterion_12_determinism(tmp_path):
    cfg = {
        "schema_version": 1,
        "kind": "decay",
        "field": {"type": "power_sum", "n": 2,
                  "terms": [{"k": 1, "c": [[0.7071067811865476, 0.0],
                                           [0.0, 0.7071067811865476]]},
                            {"k": 3, "c": [[0.0141, 0.0], [0.0, 0.0141]]}]},
        "params": {"k": 1, "theta": 0.125, "j_max": 2,
                   "quadrature": {"nr": 20, "ntheta": 40, "nsphere": 80}},
        "output_dir": "det_a",
        "seed": 7,
    }
    pa = tmp_path / "a.json"
    pa.write_text(json.dumps(cfg))
    assert cli.main(["run", str(pa)]) == cli.EXIT_OK
    cfg["output_dir"] = "det_b"
    pb = tmp_path / "b.json"
    pb.write_text(json.dumps(cfg))
    assert cli.main(["run", str(pb)]) == cli.EXIT_OK
    import os

    names = [f for f in os.listdir(tmp_path / "det_a")
             if f.endswith((".csv", ".json"))]
    identical = all(
        (tmp_path / "det_a" / f).read_bytes() == (tmp_path / "det_b" / f).read_bytes()
        for f in names
    )
    record(12, "identical (config, seed) gives byte-identical CSV/JSON",
           identical and len(names) >= 3, f"{len(names)} files compared")
