"""Excess-decay iteration, branch detection and tangent extraction.

The iteration rescales a field about a candidate branch point by powers of
theta, refits a cylindrical profile at each scale, and either contracts the
normalized excess geometrically (decay) or finds an axis ball free of
high-frequency points (gap).  Pure-decay runs yield the unique tangent
profile together with fitted decay exponents for the error field.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateHeightError, FitError
from .fields import propagate_signs
from .frequency import FrequencyEstimate, frequency_at_point
from .profiles import CylindricalProfile, excess, fit_profile, profile_distance_sq
from .quadrature import Ball, QuadratureSpec, _midpoints, _ring_points, loglog_slope, unit_ball
from .pairspace import metric_sq_symmetric


# ---------------------------------------------------------------------------
# Branch detection


@dataclass
class SingularCandidate:
    location: np.ndarray
    frequency: FrequencyEstimate
    holonomy: float
    in_coincidence_set: bool


@dataclass
class SingularReport:
    candidates: list
    grid_spacing: float

    def high_frequency(self, alpha):
        """Candidates whose frequency is within three estimator sigmas of alpha, or above."""
        out = []
        for c in self.candidates:
            if c.frequency.value >= alpha - 3.0 * max(c.frequency.uncertainty, 1e-12):
                out.append(c)
        return out


def _lattice(extent, npts, n):
    axes = [np.linspace(-extent, extent, npts) for _ in range(n)]
    grids = np.meshgrid(*axes, indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=-1), axes


def _polish_minimum(u, X0, h):
    """Refine a |s| minimum by shrinking 3^n lattice scans.

    Moves must decrease the value strictly, so flat directions (a branch
    curve along the axis) do not drag the point away from its seed.
    """
    X = X0.copy()
    cur = float(np.linalg.norm(u.symmetric_values(X[None, :])[0]))
    step = h
    for _ in range(8):
        offsets, _ = _lattice(step, 3, X.shape[0])
        pts = X[None, :] + offsets
        vals = np.linalg.norm(u.symmetric_values(pts), axis=1)
        best = int(np.argmin(vals))
        if vals[best] < cur * (1.0 - 1e-12):
            X = pts[best]
            cur = float(vals[best])
        step /= 2.0
    return X


def _loop_holonomy(u, Z, radius):
    pts = _ring_points(radius, _midpoints(64)[0], Z[2:])
    pts[:, :2] += Z[:2]
    svals = u.symmetric_values(pts)[None, None]
    _, hol = propagate_signs(svals)
    return hol


def detect_branch_set(u, extent=0.8, npts=81, spec=None, minimizing=True):
    """Scan for symmetric-part zeros, refine, and classify candidates.

    Candidates with frequency below 1/2 (minus estimator noise) are dropped
    in the minimizing class.  The branch evidence is the pairing holonomy of
    a small loop around the candidate: -1 means no local two-sheet split.
    """
    spec = spec or QuadratureSpec(nr=24, ntheta=64, naxis=12, nsphere=128)
    n = u.n
    pts, axes = _lattice(extent, npts, n)
    h = axes[0][1] - axes[0][0]
    svals = np.linalg.norm(u.symmetric_values(pts), axis=1).reshape([npts] * n)
    smax = float(np.max(svals))
    if smax <= 1e-14:
        return SingularReport([], h)
    tau_s = smax * (4.0 * h / extent) ** 0.5
    # seeds: lattice local minima of |s| below the resolution-scaled gate
    # (a saddle between two nearby zeros is not a local minimum, so close
    # pairs stay separate)
    is_min = np.ones(svals.shape, dtype=bool)
    for axis in range(n):
        up = np.roll(svals, -1, axis=axis)
        dn = np.roll(svals, 1, axis=axis)
        sl_lo = [slice(None)] * n
        sl_hi = [slice(None)] * n
        sl_lo[axis] = 0
        sl_hi[axis] = -1
        up[tuple(sl_hi)] = np.inf
        dn[tuple(sl_lo)] = np.inf
        is_min &= (svals <= up) & (svals <= dn)
    seeds = [tuple(i) for i in np.argwhere(is_min & (svals <= tau_s))]
    polished = []
    for seed in seeds:
        X0 = np.array([axes[axis][seed[axis]] for axis in range(n)])
        Z = _polish_minimum(u, X0, h)
        if float(np.linalg.norm(Z)) <= extent * 1.2:
            polished.append(Z)
    polished.sort(key=lambda z: tuple(z))
    kept = []
    for Z in polished:
        dup = False
        for W in kept:
            close_plane = np.linalg.norm(Z[:2] - W[:2]) < 1.5 * h
            close_axis = n == 2 or abs(Z[2] - W[2]) < 0.5 * h
            if close_plane and close_axis:
                dup = True
                break
        if not dup:
            kept.append(Z)
    candidates = []
    tau_ds = tau_s / max(extent, 1e-30)
    rmax = min(0.25, 4 * h + 0.05)
    # frequency estimation is the expensive part; sample at most a dozen
    # locations and let the rest inherit the nearest estimate
    ref_ids = sorted({int(round(q)) for q in np.linspace(0, len(kept) - 1, min(12, len(kept)))}) if kept else []
    ests = {}
    for gi in ref_ids:
        try:
            ests[gi] = frequency_at_point(u, kept[gi], rho_max=rmax, nradii=5, spec=spec)
        except DegenerateHeightError:
            ests[gi] = FrequencyEstimate(float("nan"), float("inf"),
                                         np.zeros(0), np.zeros(0), True)
    for gi, Z in enumerate(kept):
        est = ests[min(ests, key=lambda rid: abs(rid - gi))]
        s_norm = float(np.linalg.norm(u.symmetric_values(Z[None, :])[0]))
        dg = u.symmetric_gradient(Z[None, :] + 0.0)[0]
        ds_norm = float(np.linalg.norm(dg)) if np.all(np.isfinite(dg)) else float("inf")
        hol = _loop_holonomy(u, Z, max(2 * h, 0.02))
        cand = SingularCandidate(
            location=Z,
            frequency=est,
            holonomy=float(hol),
            in_coincidence_set=bool(
                s_norm <= tau_s
                and (not np.isfinite(ds_norm) or ds_norm <= tau_ds or hol < 0)
            ),
        )
        if minimizing and np.isfinite(est.value) and est.value < 0.5 - 3 * max(est.uncertainty, 1e-12) - 0.02:
            continue
        candidates.append(cand)
    return SingularReport(candidates, h)


def gap_probe(report, delta0, alpha, n):
    """Witness y0 with B_delta0(0, y0) free of high-frequency candidates."""
    cands = report.high_frequency(alpha)
    for y in np.linspace(-0.5, 0.5, 21) if n > 2 else [0.0]:
        ctr = np.zeros(n)
        ctr[2:3] = y  # the centre (0, 0, y, 0, ...); the origin at n = 2
        if all(np.linalg.norm(c.location - ctr) > delta0 for c in cands):
            return ctr[2:]
    return None


# ---------------------------------------------------------------------------
# Decay iteration


def decay_step(u, phi_prev, theta, spec=None):
    """One excess-decay step at scale ratio theta about the origin.

    Returns (phi_tilde, ratio, excess_theta_sq) where ratio is the
    normalized excess theta^(-n-2a) E(theta)^2 / E(1)^2.
    """
    spec = spec or QuadratureSpec()
    n = u.n
    alpha = phi_prev.alpha
    e1 = excess(u, phi_prev, unit_ball(n), spec)
    u_theta = u.rescaled(np.zeros(n), theta, theta ** alpha)
    phi_tilde = fit_profile(u_theta, phi_prev.k)
    e_theta = excess(u_theta, phi_tilde, unit_ball(n), spec)
    ratio = e_theta / e1 if e1 > 0 else 0.0
    return phi_tilde, float(ratio), float(e_theta)


@dataclass
class DecayStep:
    j: int
    profile: CylindricalProfile
    excess_sq: float
    ratio: float
    outcome: str               # "decay" | "gap" | "truncated" | "fit-failure"
    gap_witness: np.ndarray = None


@dataclass
class DecayRun:
    center: np.ndarray
    theta: float
    k: int
    steps: list
    outcome: str
    limit_profile: CylindricalProfile
    exponent_estimate: float   # fitted 2*mu
    drift: list                # per-step profile drift excesses

    def to_json_dict(self):
        return {
            "center": [float(v) for v in self.center],
            "theta": self.theta,
            "k": self.k,
            "outcome": self.outcome,
            "exponent_estimate": self.exponent_estimate,
            "steps": [
                {
                    "j": s.j,
                    "scale": self.theta ** s.j,
                    "excess_sq": s.excess_sq,
                    "ratio": s.ratio,
                    "outcome": s.outcome,
                    "profile": s.profile.to_json_dict() if s.profile else None,
                }
                for s in self.steps
            ],
            "drift": [float(v) for v in self.drift],
            "limit_profile": self.limit_profile.to_json_dict() if self.limit_profile else None,
        }


def iterate(u, Z, k, theta=0.125, j_max=4, delta0=None, spec=None,
            probe_gaps=True, min_scale=0.0, eps0=None):
    """Run the per-scale gap-probe / decay-step loop about Z.

    Stops on a gap witness, a fit failure, exhaustion of j_max, or when the
    scale falls below min_scale (truncation).  When eps0 is given, a
    starting excess above eps0^2 aborts immediately (the smallness gate of
    the iteration scheme).  The limit profile and the log-log exponent of
    the per-step excess come from the recorded steps.
    """
    spec = spec or QuadratureSpec()
    n = u.n
    Z = np.asarray(Z, dtype=float)
    alpha = k / 2.0
    delta0 = delta0 if delta0 is not None else theta / 2.0
    u0 = u.rescaled(Z, 1.0, 1.0) if np.any(Z != 0) else u
    phi = fit_profile(u0, k)
    e0 = excess(u0, phi, unit_ball(n), spec)
    if eps0 is not None and e0 > eps0 ** 2:
        return DecayRun(Z, float(theta), int(k),
                        [DecayStep(0, phi, float(e0), 1.0, "excess-too-large")],
                        "excess-too-large", phi, float("nan"), [])
    steps = [DecayStep(0, phi, float(e0), 1.0, "decay")]
    drift = []
    outcome = "decay"
    probe_spec = QuadratureSpec(nr=16, ntheta=48, naxis=8, nsphere=96)
    for j in range(1, j_max + 1):
        scale = theta ** j
        if scale < min_scale:
            outcome = "truncated"
            break
        rho = theta ** (j - 1)
        uj = u.rescaled(Z, rho, rho ** alpha)
        if probe_gaps:
            report = detect_branch_set(uj, extent=0.7,
                                       npts=41 if n == 2 else 21,
                                       spec=probe_spec)
            witness = gap_probe(report, delta0, alpha, n)
            if witness is not None:
                steps.append(DecayStep(j, None, float("nan"), float("nan"),
                                       "gap", gap_witness=witness))
                outcome = "gap"
                break
        try:
            phi_new, ratio, e_new = decay_step(uj, phi, theta, spec=spec)
        except FitError:
            steps.append(DecayStep(j, None, float("nan"), float("nan"), "fit-failure"))
            outcome = "fit-failure"
            break
        drift.append(profile_distance_sq(phi_new, phi, unit_ball(n), spec))
        phi = phi_new
        steps.append(DecayStep(j, phi, e_new, ratio, "decay"))
    scales = np.array([theta ** s.j for s in steps if np.isfinite(s.excess_sq)])
    exc_sq = np.array([s.excess_sq for s in steps if np.isfinite(s.excess_sq)])
    # normalized excess E_j^2 = theta^(-(n+2a) j) * int_{B_theta^j} G^2 is
    # what the step records carry; its log-log slope against the scale
    # estimates 2*mu
    if scales.shape[0] >= 3 and np.all(exc_sq > 1e-300):
        slope = _middle_slope(scales, exc_sq)
    else:
        slope = float("nan")
    return DecayRun(Z, float(theta), int(k), steps, outcome, phi, float(slope),
                    [float(v) for v in drift])


def _middle_slope(x, y):
    """loglog_slope of y against x over the middle two-thirds of the scales."""
    lo = max(0, x.shape[0] // 6)
    hi = max(x.shape[0] - max(1, x.shape[0] // 6), lo + 2)
    return loglog_slope(x[lo:hi], y[lo:hi])


# ---------------------------------------------------------------------------
# Tangent expansion


@dataclass
class TangentResult:
    k: int
    c: np.ndarray
    gamma_l2: float
    gamma_sup: float
    sigmas: np.ndarray
    l2_table: np.ndarray
    sup_table: np.ndarray
    is_branch_point: bool = True

    @property
    def l2_slope(self):
        return self.k + self.gamma_l2

    @property
    def sup_slope(self):
        return self.k + self.gamma_sup


def tangent_expansion(u, Z, run, sigmas=None, spec=None):
    """Error-field decay tables against the limit profile of a decay run.

    Tabulates sigma^(-n) int_{B_sigma} |eps|^2 and sup_{B_sigma} |eps|^2
    over a geometric sigma grid and fits the decay exponents by log-log
    regression over the middle two-thirds of scales.
    """
    spec = spec or QuadratureSpec()
    Z = np.asarray(Z, dtype=float)
    prof = run.limit_profile
    n = u.n
    if prof is None or float(np.linalg.norm(prof.c)) < 1e-10:
        return TangentResult(run.k, prof.c if prof is not None else np.zeros(u.m),
                             float("nan"), float("nan"),
                             np.zeros(0), np.zeros(0), np.zeros(0),
                             is_branch_point=False)
    if sigmas is None:
        sigmas = run.theta ** np.arange(0, max(3, len(run.steps)))
    sigmas = np.asarray(sigmas, dtype=float)
    shifted = CylindricalProfile(prof.c, prof.k, B=prof.B, center=Z, n=n)
    l2 = np.zeros_like(sigmas)
    sup = np.zeros_like(sigmas)
    block_sups = []

    def eps_sq(X):
        # |eps|^2 per selection = G^2 / 2; the sup over a ball is its blocks' largest
        e2 = metric_sq_symmetric(u.symmetric_values(X), shifted.symmetric_values(X)) / 2.0
        block_sups.append(np.max(e2))
        return e2

    for i, s in enumerate(sigmas):
        block_sups.clear()
        l2[i] = s ** (-n) * spec.integrate_ball(Ball(tuple(Z), float(s)), eps_sq)
        sup[i] = float(np.max(block_sups))
    l2_slope = _middle_slope(sigmas, np.maximum(l2, 1e-300))
    sup_slope = _middle_slope(sigmas, np.maximum(sup, 1e-300))
    gamma_l2 = l2_slope - run.k
    gamma_sup = sup_slope - run.k
    return TangentResult(
        k=run.k, c=prof.c, gamma_l2=float(gamma_l2), gamma_sup=float(gamma_sup),
        sigmas=sigmas, l2_table=l2, sup_table=sup,
    )
