"""Linear theory on the branched cover: projections onto L, decay.

Functions on the graph of a cylindrical profile are parameterized by cover
coordinates (r, theta, y) with theta in [0, 4pi).  The distinguished span L
collects the degree-alpha kernel modes (the c-modes r^alpha cos/sin and the
axis-tilt modes D_i phi . y_j), and the decay check runs the contraction of
radial-derivative integrals across scales.

L is one array: `l_span` gives its K basis functions at all nodes at once,
shape (N, K, m), and `project_L` builds the Gram matrix, the right-hand side
and the projection each with one contraction.  `remainder_decay_check`
projects each distinct radius once and integrates each distinct radius once.
"""

from dataclasses import dataclass

import numpy as np

from .errors import FitError
from .pairspace import selection_costs
from .profiles import profile_plane_gradient_lift
from .quadrature import Ball, _polar_slabs

FOUR_PI = 4.0 * np.pi
BETA2 = 10.0  # the beta_2 of the radial-derivative hypothesis (remainder_decay_check)
RADIAL_FD_EPS = 1e-4  # step of the central difference in the scaling parameter


class CoverFunction:
    """Vector-valued function of (r, theta, y) on the cover, vectorized."""

    def __init__(self, fn, n=2, m=1):
        self.fn = fn
        self.n = int(n)
        self.m = int(m)

    def __call__(self, r, theta, y=None):
        return self.fn(r, theta, y)

    @classmethod
    def blowup(cls, u, prof, scale):
        """(lift of u against prof - prof lift)/scale as a cover function."""

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
            phi = prof.lift(r, theta)
            d_keep, d_swap = selection_costs(s, phi)
            sel = np.where(d_keep <= d_swap, 1.0, -1.0)
            return (sel[..., None] * s - phi) / scale

        return cls(fn, n=u.n, m=u.m)


# ---------------------------------------------------------------------------
# The span L and its projection


def l_span(c0, alpha, r, theta, y=None):
    """Basis of L at the nodes, shape r.shape + (K, m), K = 2m + 2(n-2).

    Per component k the c-modes r^alpha (cos, sin)(alpha theta) e_k, then the
    axis-tilt modes D_i phi0 . y_j for i = 1, 2 and j = 1..n-2 (n = 2 when y
    is None).  The array is filled in place, with no temporary copy of the
    modes: at n = 3 the default cover rule has 65,536 nodes.
    """
    c0 = np.atleast_1d(np.asarray(c0, dtype=complex))
    r = np.asarray(r, dtype=float)
    theta = np.asarray(theta, dtype=float)
    m = c0.shape[0]
    ny = 0 if y is None else np.shape(y)[-1]
    span = np.zeros(r.shape + (2 * m + 2 * ny, m))
    ra = r ** alpha
    k = np.arange(m)
    span[..., 2 * k, k] = (ra * np.cos(alpha * theta))[..., None]
    span[..., 2 * k + 1, k] = (ra * np.sin(alpha * theta))[..., None]
    if ny:
        y = np.asarray(y, dtype=float)
        for i, d in enumerate(profile_plane_gradient_lift(c0, alpha, r, theta)):
            span[..., 2 * m + i * ny:2 * m + (i + 1) * ny, :] = d[..., None, :] * y[..., :, None]
    return span


def cover_ball_rule(rho, n, nr=32, ntheta=128, ny=16):
    """Quadrature nodes (r, theta, y) and weights for B_rho x [0, 4pi) cover.

    These are the slabs of the ball rule, with theta over the double cover.
    """
    r, theta, axis, w = _polar_slabs(Ball((0.0,) * n, rho), nr, ntheta, ny, period=FOUR_PI)
    shape = axis.shape[:2] + (nr, ntheta)  # (slab, 1, r, theta)
    R, W = (np.broadcast_to(a[:, None, :, None], shape).ravel() for a in (r, w))
    Y = None if n == 2 else np.broadcast_to(axis[:, :, None, None, :],
                                            shape + (n - 2,)).reshape(-1, n - 2)
    return R, np.broadcast_to(theta, shape).ravel(), Y, W


def _eval_cover(f, r, theta, y):
    out = f(r, theta, y)
    return np.asarray(out, dtype=float).reshape(r.shape[0], -1)


@dataclass
class SpectralProjection:
    rho: float
    coefficients: np.ndarray
    psi: CoverFunction
    remainder: CoverFunction
    norm_sq_w: float
    norm_sq_psi: float
    norm_sq_remainder: float

    @property
    def pythagoras_residual(self):
        return abs(self.norm_sq_w - self.norm_sq_psi - self.norm_sq_remainder) / max(
            self.norm_sq_w, 1e-300
        )


def project_L(w, rho, c0, alpha):
    """Least-squares projection of w onto L over graph phi0 restricted to B_rho.

    Returns the projection psi_rho and remainder w_rho = w - psi_rho; the
    remainder is L2-orthogonal to every element of L on B_rho.
    """
    r, th, y, wt = cover_ball_rule(rho, w.n)
    E = l_span(c0, alpha, r, th, y)
    Wv = _eval_cover(w, r, th, y)
    N, K, m = E.shape
    # G_ab = sum_p wt_p E_pa . E_pb: one product over (node, component)
    # pairs, then the trace over equal components
    X = E.reshape(N, K * m)
    G = np.trace((X.T @ (wt[:, None] * X)).reshape(K, m, K, m), axis1=1, axis2=3)
    rhs = np.einsum("pak,pk->a", E, wt[:, None] * Wv)
    condition = np.linalg.cond(G)
    if not np.isfinite(condition) or condition > 1e12:
        raise FitError(f"Gram matrix of L is singular (cond={condition:.2e})")
    coef = np.linalg.solve(G, rhs)
    Pv = coef @ E
    psi = CoverFunction(lambda r_, th_, y_=None: coef @ l_span(c0, alpha, r_, th_, y_),
                        w.n, w.m)
    rem = CoverFunction(lambda r_, th_, y_=None: np.asarray(w(r_, th_, y_), dtype=float)
                        - psi(r_, th_, y_), w.n, w.m)
    nw = float(np.sum(wt * np.sum(Wv * Wv, axis=1)))
    npsi = float(np.sum(wt * np.sum(Pv * Pv, axis=1)))
    nrem = float(np.sum(wt * np.sum((Wv - Pv) * (Wv - Pv), axis=1)))
    return SpectralProjection(rho, coef, psi, rem, nw, npsi, nrem)


def radial_deviation_integral(w, alpha, rho):
    """int over the cover ball of R^(2-n) |d/dR (w/R^alpha)|^2.

    The radial derivative acts along rays of (x, y)-space; it is computed by
    central differences of the scaling parameter.
    """
    n = w.n
    r, th, y, wt = cover_ball_rule(rho, n)
    R = r if y is None else np.sqrt(r ** 2 + np.sum(y ** 2, axis=1))
    lp, lm = 1.0 + RADIAL_FD_EPS, 1.0 - RADIAL_FD_EPS
    wp = _eval_cover(w, r * lp, th, None if y is None else y * lp) / (lp * R[:, None]) ** alpha
    wm = _eval_cover(w, r * lm, th, None if y is None else y * lm) / (lm * R[:, None]) ** alpha
    dR = (wp - wm) / (2.0 * RADIAL_FD_EPS * R[:, None])
    vals = np.sum(dR * dR, axis=1)
    return float(np.sum(wt * R ** (2 - n) * vals))


def half_case_boundary_term(w, p=0, *, c0, alpha=0.5):
    """Small-r limit of d^2/dr dy_p of r * int w . D_i phi0 dtheta, i = 1, 2.

    The mixed derivative is a central difference with steps 1e-3 r and 1e-3
    at r = 0.08, 0.04, 0.02, 0.01, the theta integral a 256-node midpoint
    rule on the cover.  Returns ((limit_1, limit_2), uncertainty, table); the
    limits vanish for blow-ups of minimizers in the half-degree case.
    """
    if w.n < 3:
        raise ValueError("the boundary term involves an axis variable (n >= 3)")
    theta = (np.arange(256) + 0.5) * (FOUR_PI / 256)
    dth = FOUR_PI / 256

    def F(r, ypt):
        rr = np.full(256, r)
        yy = np.broadcast_to(ypt, (256, w.n - 2))
        vals = np.asarray(w(rr, theta, yy), dtype=float)
        d1, d2 = profile_plane_gradient_lift(c0, alpha, rr, theta)
        f1 = r * float(np.sum(vals * d1) * dth)
        f2 = r * float(np.sum(vals * d2) * dth)
        return np.array([f1, f2])

    rows = []
    for r in (0.08, 0.04, 0.02, 0.01):
        hr = 1e-3 * r
        hy = 1e-3
        ep = np.zeros(w.n - 2)
        ep[p] = hy
        mixed = (F(r + hr, ep) - F(r + hr, -ep) - F(r - hr, ep) + F(r - hr, -ep)) / (4 * hr * hy)
        rows.append((float(r), mixed))
    vals = np.stack([row[1] for row in rows])
    limit = vals[-1]
    unc = float(np.max(np.abs(vals[-1] - vals[-2])))
    low_confidence = unc > 10 * max(np.max(np.abs(limit)), 1e-14)
    return limit, unc, {"radii": [row[0] for row in rows],
                        "values": vals.tolist(),
                        "low_confidence": low_confidence}


@dataclass
class DecayScaleRow:
    rho: float
    remainder_norm_sq: float
    normalized_remainder: float
    radial_integral_quarter: float
    radial_integral_full: float
    contraction: float


@dataclass
class DecayReport:
    rows: list
    theta: float
    lhs: float
    rhs_norm: float
    exponent_estimate: float
    hypotheses_ok: bool
    unit_projection: SpectralProjection   # the projection on B_1, source of rhs_norm

    @property
    def contractions(self):
        return [row.contraction for row in self.rows if np.isfinite(row.contraction)]


def remainder_decay_check(w, theta=0.125, scales=(0.25, 0.125, 0.0625), *, c0, alpha=0.5):
    """Per-scale decay data for the cover function w.

    For each scale rho: the L-remainder norm, the radial-derivative integral
    over B_{rho/4} against the BETA2-shaped bound, and the one-step
    contraction of radial-derivative integrals.  The headline comparison is
    theta^(-n-2a) int_{B_theta} |w_theta|^2 against int_{B_1} |w_1|^2, with
    the decay exponent fitted from the per-scale normalized remainders.
    Each distinct radius is projected, and integrated, once.
    """
    n = w.n
    proj = {rho: project_L(w, rho, c0, alpha) for rho in dict.fromkeys((*scales, theta, 1.0))}
    radial = {rho: radial_deviation_integral(w, alpha, rho)
              for rho in dict.fromkeys((*scales, *(s / 4.0 for s in scales)))}
    rows = []
    hyp_ok = True
    for rho in scales:
        rem_sq = proj[rho].norm_sq_remainder
        i_quarter = radial[rho / 4.0]
        i_full = radial[rho]
        bound = BETA2 * rho ** (-n - 2 * alpha) * rem_sq
        hyp_ok = hyp_ok and i_quarter <= bound + 1e-14
        contraction = i_quarter / i_full if i_full > 0 else float("nan")
        rows.append(DecayScaleRow(
            rho=float(rho),
            remainder_norm_sq=float(rem_sq),
            normalized_remainder=float(rho ** (-n - 2 * alpha) * rem_sq),
            radial_integral_quarter=float(i_quarter),
            radial_integral_full=float(i_full),
            contraction=float(contraction),
        ))
    lhs = theta ** (-n - 2 * alpha) * proj[theta].norm_sq_remainder
    rhs = proj[1.0].norm_sq_remainder
    xs = np.array([row.rho for row in rows])
    ys = np.array([max(row.normalized_remainder, 1e-300) for row in rows])
    if xs.shape[0] >= 2 and np.all(ys > 1e-250):
        slope = np.polyfit(np.log(xs), np.log(ys), 1)[0]
    else:
        slope = float("inf")
    return DecayReport(rows=rows, theta=float(theta), lhs=float(lhs),
                       rhs_norm=float(rhs), exponent_estimate=float(slope),
                       hypotheses_ok=bool(hyp_ok), unit_projection=proj[1.0])
