"""Cylindrical profiles {+-Re(c ((e^A (X-Z))_1 + i (e^A (X-Z))_2)^(k/2))}.

The rotation parameter A lives in the skew space with zero diagonal blocks
(entries vanish when both indices are <= 2 or both are >= 3), so e^A tilts
the branch axis without rotating within the (x1,x2)-plane or within the
axis plane.  Such an A is [[0, B], [-B^T, 0]], and with B = U diag(s) V^T
e^A = I + [[U (cos s - 1) U^T, U sin s V^T], [-V sin s U^T, V (cos s - 1) V^T]]
in closed form (_rotation).  Fitting is linear least squares in c on the
branched cover and Gauss-Newton in the 2(n-2) free entries of A.
"""

from dataclasses import dataclass

import numpy as np

from .errors import FitError, PairingError
from .fields import Field, PolarGrid, _as_points, l2_distance_sq, propagate_signs
from .pairspace import metric_sq_symmetric, selection_costs
from .quadrature import Ball, QuadratureSpec, gauss_legendre_01, unit_ball
from .frequency import axis_energy_integral, radial_frequency_deviation

ROTATION_BOUND = 0.35  # fit_rotation keeps the skew generator within |A| <= this
# The gamma, sigma and delta of the section-6 estimates in corollary_checks
GAMMA = 0.5   # radius of the ball of the R-weighted excess and a priori integrals
SIGMA = 0.5   # power the weighted excesses gain over the plain excess
DELTA = 0.05  # the tube weight is max(|x|, DELTA)


def skew_from_params(params, n):
    """Assemble A in the admissible skew space from its 2(n-2) free entries."""
    params = np.asarray(params, dtype=float).reshape(2, n - 2) if n > 2 else np.zeros((2, 0))
    A = np.zeros((n, n))
    if n > 2:
        A[0:2, 2:] = params
        A[2:, 0:2] = -params.T
    return A


def skew_params(A):
    n = A.shape[0]
    return A[0:2, 2:].reshape(-1) if n > 2 else np.zeros(0)


def is_admissible_skew(A):
    n = A.shape[0]
    if not np.allclose(A, -A.T, rtol=0.0, atol=1e-12):
        return False
    if np.max(np.abs(A[0:2, 0:2])) > 1e-12:
        return False
    if n > 2 and np.max(np.abs(A[2:, 2:])) > 1e-12:
        return False
    return True


def _rotation(A):
    """e^A of an admissible A = [[0, B], [-B^T, 0]] in closed form.

    With B = U diag(s) V^T (thin SVD), A^2 = -diag(B B^T, B^T B) and
    e^A = I + [[U (cos s - 1) U^T, U sin s V^T], [-V sin s U^T, V (cos s - 1) V^T]]
    (Gallier & Xu 2002).  Each block is added to the identity, so at A = 0,
    and for every A at n = 2, Q is np.eye(n) bit for bit.
    """
    U, s, Vt = np.linalg.svd(A[0:2, 2:], full_matrices=False)
    cos1, S = np.cos(s) - 1.0, (U * np.sin(s)) @ Vt
    Q = np.eye(A.shape[0])
    Q[0:2, 0:2] += (U * cos1) @ U.T
    Q[0:2, 2:] += S
    Q[2:, 0:2] -= S.T
    Q[2:, 2:] += (Vt.T * cos1) @ Vt
    return Q


class CylindricalProfile(Field):
    """Rotated, centered model profile; usable anywhere a field is."""

    def __init__(self, c, k, A=None, center=None, n=2):
        self.c = np.atleast_1d(np.asarray(c, dtype=complex))
        self.k = int(k)
        if self.k < 1:
            raise ValueError("k must be a positive integer")
        self.n = int(n)
        self.m = self.c.shape[0]
        self.A = np.zeros((self.n, self.n)) if A is None else np.asarray(A, dtype=float)
        if self.A.shape != (self.n, self.n) or not is_admissible_skew(self.A):
            raise ValueError("A must lie in the admissible skew space")
        self.center = np.zeros(self.n) if center is None else np.asarray(center, dtype=float)
        self.Q = _rotation(self.A)
        self.domain = None  # defined on all of R^n

    @property
    def alpha(self):
        return self.k / 2.0

    def to_frame(self, X):
        """Coordinates X' = e^A (X - Z) in which the profile is axis-aligned."""
        return (X - self.center[None, :]) @ self.Q.T

    def from_frame(self, Xp):
        return Xp @ self.Q + self.center[None, :]

    def symmetric_values(self, X):
        X = _as_points(X, self.n)
        Xp = self.to_frame(X)
        z = Xp[:, 0] + 1j * Xp[:, 1]
        w = z ** self.alpha
        return np.real(w[:, None] * self.c[None, :])

    def symmetric_gradient(self, X):
        X = _as_points(X, self.n)
        Xp = self.to_frame(X)
        z = Xp[:, 0] + 1j * Xp[:, 1]
        with np.errstate(divide="ignore", invalid="ignore"):
            dw = self.alpha * z ** (self.alpha - 1.0)
        g = np.zeros((X.shape[0], self.m, self.n))
        g[:, :, 0] = np.real(dw[:, None] * self.c[None, :])
        g[:, :, 1] = np.real(1j * dw[:, None] * self.c[None, :])
        # chain rule: d/dX = Q^T d/dX'
        return np.einsum("pki,ij->pkj", g, self.Q)

    def lift(self, r, theta, y=None):
        """Continuous lift Re(c r^alpha e^(i alpha theta)) on the cover frame."""
        w = r ** self.alpha * np.exp(1j * self.alpha * theta)
        return np.real(np.asarray(w)[..., None] * self.c)

    def to_json_dict(self):
        return {
            "m": self.m,
            "n": self.n,
            "k": self.k,
            "c_re": [float(v) for v in self.c.real],
            "c_im": [float(v) for v in self.c.imag],
            "A_entries": [float(v) for v in skew_params(self.A)],
            "center": [float(v) for v in self.center],
        }


def profile_plane_gradient_lift(c, alpha, r, theta):
    """(d/dx'_1, d/dx'_2) of the lift Re(c r^alpha e^(i alpha theta)), in frame coordinates."""
    w = alpha * np.asarray(r, dtype=float) ** (alpha - 1.0) * np.exp(
        1j * (alpha - 1.0) * np.asarray(theta, dtype=float)
    )
    d1 = np.real(w[..., None] * c)
    d2 = np.real(1j * w[..., None] * c)
    return d1, d2


def profile_distance_sq(p1, p2, ball=None, spec=None):
    """Excess between two profiles (sign-free comparison metric)."""
    ball = ball or unit_ball(p1.n)
    return l2_distance_sq(p1, p2, ball, spec)


def excess(u, prof, ball=None, spec=None):
    """int over the ball of G(u, profile)^2."""
    ball = ball or unit_ball(u.n)
    return l2_distance_sq(u, prof, ball, spec)


class CoverGrid(PolarGrid):
    """Annular grid on the double cover, theta in [0, 4 pi), in profile frame
    coordinates, with radial weights wr and axis weights wy (n = 3)."""

    def __init__(self, rs, wr, thetas, ys=None, wy=None):
        super().__init__(rs, thetas, ys)
        self.wr = wr
        self.wy = wy

    @property
    def wtheta(self):
        return 4.0 * np.pi / self.thetas.shape[0]

    def weights(self):
        """Quadrature weight of each node, shape (nr, nt[, ny])."""
        w = np.outer(self.wr * self.rs * self.wtheta, np.ones(self.thetas.shape[0]))
        return w if self.ys is None else w[:, :, None] * self.wy


def cover_grid(tau, rmax, nr=24, ntheta=128, n=2, ny=12, ymax=None):
    s, ws = gauss_legendre_01(nr)
    rs = tau + (rmax - tau) * s
    wr = (rmax - tau) * ws
    thetas = (np.arange(ntheta) + 0.5) * (4.0 * np.pi / ntheta)
    if n == 2:
        return CoverGrid(rs, wr, thetas)
    ymax = ymax if ymax is not None else np.sqrt(max(1.0 - rmax ** 2, 0.04))
    ty, wty = gauss_legendre_01(ny)
    return CoverGrid(rs, wr, thetas, ymax * (2.0 * ty - 1.0), 2.0 * ymax * wty)


def lift_against_profile(u, prof, grid):
    """Nearest-selection lift of u's symmetric part against the profile lift.

    Returns (u_lift, phi_lift, signs, shape); raises PairingError when the
    induced sign field has holonomy inconsistent with the parity of k around
    some annular loop of the cover.
    """
    s_rep = grid.on_grid(u.symmetric_values(prof.from_frame(grid.nodes())))
    R, T = np.meshgrid(grid.rs, grid.thetas, indexing="ij")
    phi = prof.lift(R, T)  # (nr, nt, m)
    if grid.n == 3:
        phi = phi[:, :, None, :]
    d_keep, d_swap = selection_costs(s_rep, phi)
    signs = np.where(d_keep <= d_swap, 1.0, -1.0)
    u_lift = signs[..., None] * s_rep
    # holonomy of the sign field around each theta loop must be +1 on the
    # cover (the lift of a genuine two-valued branch is 4pi-periodic)
    flips = signs * np.roll(signs, -1, axis=1)
    # ignore flips where the profile is tiny relative to the residual
    # (ambiguous pairing); they do not witness holonomy
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


def fit_c(u, k, A=None, ntheta=128):
    """Least-squares fit of c against the degree-alpha modes on the cover.

    The basis is r^alpha cos(alpha theta), r^alpha sin(alpha theta) per value
    component; the pairing of u against the current profile frame (centered
    at the origin) is taken on the cover grid for 0.05 <= r <= 0.95, outside
    the tube about the axis.  The u-lift is one propagate_signs lift over
    all axis slabs, so every representative of the pair u fits the same c up
    to a global sign.  Returns (c, weighted residual).
    """
    n, m = u.n, u.m
    probe = CylindricalProfile(np.ones(m) + 0j, k, A=A, n=n)
    grid = cover_grid(0.05, 0.95, ntheta=ntheta, n=n)
    alpha = k / 2.0
    # one lane per axis slab; the plane (n = 2) is one slab
    lanes = grid.shape[:2] + (-1,)
    sv = grid.on_grid(u.symmetric_values(probe.from_frame(grid.nodes()))).reshape(lanes + (m,))
    wts = grid.weights().reshape(lanes)
    R, T = np.meshgrid(grid.rs, grid.thetas, indexing="ij")
    b1 = R ** alpha * np.cos(alpha * T)
    b2 = R ** alpha * np.sin(alpha * T)
    # one u-lift over all slabs, propagated along theta on the cover
    signs, hol = propagate_signs(sv)
    if hol < 0:
        raise PairingError("u-lift is not 4pi-periodic on the cover")
    G = np.zeros((2, 2))
    rhs = np.zeros((2, m))
    lifted = []
    for l in range(sv.shape[2]):
        # a global sign flip of the lift negates c; both describe one pair
        lift, w = signs[:, :, l, None] * sv[:, :, l], wts[:, :, l]
        lifted.append((lift, w))
        G[0, 0] += np.sum(w * b1 * b1)
        G[0, 1] += np.sum(w * b1 * b2)
        G[1, 1] += np.sum(w * b2 * b2)
        rhs[0] += np.einsum("rt,rtk->k", w * b1, lift)
        rhs[1] += np.einsum("rt,rtk->k", w * b2, lift)
    G[1, 0] = G[0, 1]
    condition = np.linalg.cond(G)
    if not np.isfinite(condition) or condition > 1e12:
        raise FitError(f"normal equations ill-conditioned (cond={condition:.2e})")
    coef = np.linalg.solve(G, rhs)  # rows: [cos part; sin part] per component
    c = coef[0] - 1j * coef[1]
    resid_sq = 0.0
    for (lift, w) in lifted:
        fitv = b1[..., None] * coef[0][None, None, :] + b2[..., None] * coef[1][None, None, :]
        resid_sq += np.sum(w[..., None] * (lift - fitv) ** 2)
    return c, float(np.sqrt(max(resid_sq, 0.0)))


def fit_rotation(u, prof, spec=None):
    """Gauss-Newton over the free skew entries minimizing the excess.

    The fit takes at most 12 steps, each backtracking by at most 20 halvings,
    and stops early once the gradient norm or the objective is below 1e-12.
    Returns (A, converged flag).  For n = 2 the admissible space is trivial
    and zero is returned immediately.
    """
    n = prof.n
    if n == 2:
        return np.zeros((2, 2)), True
    spec = spec or QuadratureSpec(nr=20, ntheta=48, naxis=12)
    rule = spec.ball(unit_ball(n))
    su = u.symmetric_values(rule.points)
    sqw = np.sqrt(rule.weights)

    def residuals(params):
        p = CylindricalProfile(prof.c, prof.k, A=skew_from_params(params, n),
                               center=prof.center, n=n)
        g2 = metric_sq_symmetric(su, p.symmetric_values(rule.points))
        return sqw * np.sqrt(np.maximum(g2, 0.0))

    params = skew_params(prof.A).copy()
    r = residuals(params)
    obj = float(r @ r)
    dim = params.shape[0]
    converged = False
    for _ in range(12):
        J = np.zeros((r.shape[0], dim))
        eps = 1e-6
        for d in range(dim):
            e = np.zeros(dim)
            e[d] = eps
            J[:, d] = (residuals(params + e) - residuals(params - e)) / (2 * eps)
        g = J.T @ r
        if np.linalg.norm(g) < 1e-12:
            converged = True
            break
        H = J.T @ J + 1e-14 * np.eye(dim)
        step = -np.linalg.solve(H, g)
        ok = False
        t = 1.0
        for _ in range(20):
            trial = params + t * step
            A_trial = skew_from_params(trial, n)
            nrm = np.linalg.norm(A_trial)
            if nrm > ROTATION_BOUND:
                trial = trial * (ROTATION_BOUND / nrm)
            r_trial = residuals(trial)
            obj_trial = float(r_trial @ r_trial)
            if obj_trial < obj:
                params, r, obj = trial, r_trial, obj_trial
                ok = True
                break
            t *= 0.5
        if not ok:
            break
        if obj < 1e-12:
            converged = True
            break
    else:
        converged = True
    return skew_from_params(params, n), converged


def fit_profile(u, k, spec=None):
    """Fit c (linear) and the axis tilt A (Gauss-Newton) for a known k.

    The profile is centered at the origin.  At n > 2 the fit alternates two
    rounds of c, then A.  Degenerate c = 0 fits are rejected: a zero profile
    has no frequency and does not belong to the admissible profile family.
    """
    n = u.n
    A = np.zeros((n, n))
    for _ in range(2):
        c, _resid = fit_c(u, k, A=A)
        if not float(np.linalg.norm(c)) > 0.0:
            raise FitError("degenerate fit: c = 0 is not an admissible profile")
        prof = CylindricalProfile(c, k, A=A, n=n)
        if n <= 2:
            return prof
        A, _ok = fit_rotation(u, prof, spec=spec)
    return CylindricalProfile(c, k, A=A, n=n)


@dataclass
class GraphRepresentation:
    """Single-valued graph data of u over a profile outside the branch tube."""

    grid: CoverGrid
    shape: tuple
    admissible: np.ndarray       # per (ring[, y]) admissibility mask
    v_hat: np.ndarray            # lifted graph values on the cover grid
    dv_hat: np.ndarray           # plane gradient of the lift (finite differences)
    beta: float
    sup_v: float                 # sup r^-alpha |v_hat|
    sup_dv: float                # sup r^(1-alpha) |Dv_hat|
    tube_condition_met: bool
    integral_in: float           # int_U (|v|^2 + r^2 |Dv|^2), pair-summed
    integral_out: float          # int_{B_gamma \ U} (|u|^2 + r^2 |Du|^2)
    excess_sq: float


def graphical_decompose(u, prof, tau=0.08, gamma=0.75, beta=0.5,
                        nr=40, ntheta=128, ny=10, spec=None,
                        threshold_factor=0.0625):
    """Region U and graph function v over the profile, by ring flood fill.

    A ring (fixed radius, fixed axis slab) is admissible when its mean local
    excess stays below threshold_factor times the squared profile scale at
    that radius; U is grown ring-connected from the outer boundary, which is
    the grid analogue of the paper-style covering construction, and is
    rotationally symmetric in the plane variables by construction.
    """
    spec = spec or QuadratureSpec()
    n, m = u.n, u.m
    alpha = prof.alpha
    grid = cover_grid(1e-6, gamma, nr=nr, ntheta=ntheta, n=n, ny=ny,
                      ymax=None if n == 2 else np.sqrt(max(gamma ** 2 * 0.3, 0.01)))
    u_lift, phi, _, shape = lift_against_profile(u, prof, grid)
    # one lane per axis slab; the plane (n = 2) is one slab
    u_lift, phi = u_lift.reshape(shape[:2] + (-1, m)), phi.reshape(shape[:2] + (1, m))
    v_hat = u_lift - np.broadcast_to(phi, u_lift.shape)
    # per-(ring, slab) mean local excess against the profile scale
    pair_v_sq = 2.0 * np.sum(v_hat ** 2, axis=-1)
    local = np.mean(pair_v_sq, axis=1)
    phi_scale = np.mean(2.0 * np.sum(phi ** 2, axis=-1), axis=1)
    admissible = local <= threshold_factor * np.maximum(phi_scale, 1e-300)
    # flood fill from the outermost ring inward (and along y)
    nring, nlane = admissible.shape
    filled = np.zeros_like(admissible)
    frontier = [(nring - 1, l) for l in range(nlane) if admissible[-1, l]]
    for node in frontier:
        filled[node] = True
    while frontier:
        i, l = frontier.pop()
        for ii, ll in ((i - 1, l), (i + 1, l), (i, l - 1), (i, l + 1)):
            if 0 <= ii < nring and 0 <= ll < nlane and admissible[ii, ll] and not filled[ii, ll]:
                filled[ii, ll] = True
                frontier.append((ii, ll))
    # required region: rings with r > tau must be covered
    tube_ok = bool(np.all(filled[grid.rs > tau]))
    # plane gradient of v by finite differences of the lifted difference
    # (differencing v directly keeps the exact-profile case exactly zero)
    dv1 = np.gradient(v_hat, grid.rs, axis=0)
    dv2 = np.gradient(v_hat, grid.thetas, axis=1) / grid.rs[:, None, None, None]
    Rm, Tm = np.meshgrid(grid.rs, grid.thetas, indexing="ij")
    p1, p2 = (p[:, :, None, :] for p in profile_plane_gradient_lift(prof.c, prof.alpha, Rm, Tm))
    ct, st = np.cos(Tm)[:, :, None, None], np.sin(Tm)[:, :, None, None]
    dvx = ct * dv1 - st * dv2
    dvy = st * dv1 + ct * dv2
    dv_hat = np.stack([dvx, dvy], axis=-1)
    # expand ring mask to node mask
    node_mask = np.repeat(filled[:, None, :], shape[1], axis=1)
    ring_r = grid.rs[:, None, None]
    wts = grid.weights().reshape(node_mask.shape)
    vmag = np.linalg.norm(v_hat, axis=-1)
    dvmag = np.linalg.norm(dv_hat.reshape(dv_hat.shape[:-2] + (-1,)), axis=-1)
    # interior rings only for the derivative sup (one-sided FD ends are noisy)
    inner = np.zeros_like(node_mask)
    inner[1:-1] = node_mask[1:-1]
    sup_v = float(np.max(np.where(node_mask, vmag / ring_r ** alpha, 0.0), initial=0.0))
    sup_dv = float(np.max(np.where(inner, dvmag * ring_r ** (1 - alpha), 0.0), initial=0.0))
    pair_dv_sq = 2.0 * np.sum(dv_hat ** 2, axis=(-2, -1))
    integral_in = float(np.sum(np.where(node_mask, wts * (pair_v_sq + ring_r ** 2 * pair_dv_sq), 0.0)) / 2.0)
    # excluded-region integral of |u|^2 + r^2 |Du|^2 over the same grid
    su2 = 2.0 * np.sum(u_lift ** 2, axis=-1)
    du1 = dv_hat[..., 0] + np.broadcast_to(p1, dvx.shape)
    du2 = dv_hat[..., 1] + np.broadcast_to(p2, dvy.shape)
    du_sq = 2.0 * (np.sum(du1 ** 2, axis=-1) + np.sum(du2 ** 2, axis=-1))
    integral_out = float(np.sum(np.where(~node_mask, wts * (su2 + ring_r ** 2 * du_sq), 0.0)) / 2.0)
    exc = excess(u, prof, unit_ball(n), spec)
    return GraphRepresentation(
        grid=grid, shape=shape, admissible=filled.reshape(shape[:1] + shape[2:]),
        v_hat=v_hat.reshape(shape + (m,)), dv_hat=dv_hat.reshape(shape + (m, 2)),
        beta=beta, sup_v=sup_v, sup_dv=sup_dv,
        tube_condition_met=tube_ok, integral_in=integral_in,
        integral_out=integral_out, excess_sq=float(exc),
    )


@dataclass
class CorollaryRow:
    name: str
    lhs: float
    rhs: float
    params: dict

    @property
    def ratio(self):
        return self.lhs / self.rhs if self.rhs > 0 else float("inf")


def corollary_checks(u, prof, Z=None, spec=None):
    """Left/right sides and ratios of the key section-6 integral estimates.

    Rows: weighted-excess (R^(SIGMA-n-2alpha) weight), shifted-center excess
    with dist^2 term, the max(|x|, DELTA)-weighted excess, and the two
    a priori integrals (radial frequency deviation and axis energy).
    """
    spec = spec or QuadratureSpec()
    n = u.n
    alpha = prof.alpha
    Z = np.zeros(n) if Z is None else np.asarray(Z, dtype=float)
    rhs = excess(u, prof, unit_ball(n), spec)
    rows = []

    ball_g = Ball((0.0,) * n, GAMMA)
    rule = spec.ball(ball_g)
    X = rule.points
    g2 = metric_sq_symmetric(u.symmetric_values(X), prof.symmetric_values(X))
    R = np.linalg.norm(X, axis=1)
    lhs_63 = rule.integrate_values(R ** (-n + SIGMA - 2 * alpha) * g2)
    rows.append(CorollaryRow("weighted_excess_R", float(lhs_63), float(rhs),
                             {"gamma": GAMMA, "sigma": SIGMA}))

    shifted = CylindricalProfile(prof.c, prof.k, A=prof.A, center=prof.center + Z, n=n)
    dist_sq = float(np.sum(Z[:2] ** 2))
    lhs_64 = dist_sq + excess(u, shifted, unit_ball(n), spec)
    rows.append(CorollaryRow("shifted_center_excess", float(lhs_64), float(rhs),
                             {"Z": [float(v) for v in Z], "dist_sq": dist_sq}))

    ball_h = Ball((0.0,) * n, 0.5)
    rule_h = spec.ball(ball_h)
    Xh = rule_h.points
    g2h = metric_sq_symmetric(u.symmetric_values(Xh), prof.symmetric_values(Xh))
    r_delta = np.maximum(np.hypot(Xh[:, 0], Xh[:, 1]), DELTA)
    lhs_66 = rule_h.integrate_values(g2h / r_delta ** (1 - SIGMA))
    rows.append(CorollaryRow("tube_weighted_excess", float(lhs_66), float(rhs),
                             {"delta": DELTA, "sigma": SIGMA}))

    lhs_62a = radial_frequency_deviation(u, np.zeros(n), alpha, ball_g, spec)
    rows.append(CorollaryRow("radial_deviation", float(lhs_62a), float(rhs),
                             {"gamma": GAMMA}))
    if n > 2:
        lhs_62b = axis_energy_integral(u, ball_g, spec)
        rows.append(CorollaryRow("axis_energy", float(lhs_62b), float(rhs),
                                 {"gamma": GAMMA}))
    return rows
