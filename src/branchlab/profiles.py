"""Cylindrical profiles {+-Re(c ((e^A (X-Z))_1 + i (e^A (X-Z))_2)^(k/2))}.

The tilt is A = [[0, B], [-B^T, 0]] with B a free 2 x (n-2) block, so e^A
tilts the branch axis without rotating within the (x1,x2)-plane or within
the axis plane; a profile stores B, and with B = U diag(s) V^T
e^A = I + [[U (cos s - 1) U^T, U sin s V^T], [-V sin s U^T, V (cos s - 1) V^T]]
in closed form (_rotation).  A profile reads u at the cover points
(r, theta in [0, 4pi), y) of its frame (frame_values: fit_c's least squares
in c) and signs them nearest its frame lift Re(c r^alpha e^(i alpha theta))
(paired: lift_against_profile and the spectral blow-up); its lift is the
base Field.lift.  c is linear given B, and B is fitted by Gauss-Newton on
fit_c's residual (variable projection; 0 for a planar u), at n <= 3.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, FitError, PairingError
from .fields import Field, PolarGrid, _as_points, l2_distance_sq, propagate_signs
from .pairspace import metric_sq_symmetric, selection_costs
from .quadrature import Ball, QuadratureSpec, _ring_points, gauss_legendre_01, unit_ball
from .frequency import axis_energy_integral, radial_frequency_deviation

ROTATION_BOUND = 0.35  # fit_rotation keeps |A|_F = sqrt(2) |B|_F <= this
# The largest k fit_c resolves: its 128 cover angles over [0, 4pi) recover a
# pure mode Re(c z^(k/2)) to rounding for k <= 32, and not above
K_MAX = 32
# The gamma, sigma and delta of the section-6 estimates in corollary_checks
GAMMA = 0.5   # radius of the ball of the R-weighted excess and a priori integrals
SIGMA = 0.5   # power the weighted excesses gain over the plain excess
DELTA = 0.05  # the tube weight is max(|x|, DELTA)


def _rotation(B):
    """e^A of A = [[0, B], [-B^T, 0]], B of shape (2, n-2), in closed form.

    With B = U diag(s) V^T (thin SVD), A^2 = -diag(B B^T, B^T B) and
    e^A = I + [[U (cos s - 1) U^T, U sin s V^T], [-V sin s U^T, V (cos s - 1) V^T]]
    (Gallier & Xu 2002).  Each block is added to the identity, so at B = 0,
    and for every B at n = 2, Q is np.eye(n) bit for bit.
    """
    U, s, Vt = np.linalg.svd(B, full_matrices=False)
    cos1, S = np.cos(s) - 1.0, (U * np.sin(s)) @ Vt
    Q = np.eye(2 + B.shape[1])
    Q[0:2, 0:2] += (U * cos1) @ U.T
    Q[0:2, 2:] += S
    Q[2:, 0:2] -= S.T
    Q[2:, 2:] += (Vt.T * cos1) @ Vt
    return Q


class CylindricalProfile(Field):
    """Rotated, centered model profile; usable anywhere a field is."""

    def __init__(self, c, k, B=None, center=None, n=2):
        self.c = np.atleast_1d(np.asarray(c, dtype=complex))
        self.k = int(k)
        if self.k < 1:
            raise ValueError("k must be a positive integer")
        self.n = int(n)
        self.m = self.c.shape[0]
        B = np.zeros(2 * (self.n - 2)) if B is None else B
        self.B = np.asarray(B, dtype=float).reshape(2, self.n - 2)
        self.center = np.zeros(self.n) if center is None else np.asarray(center, dtype=float)
        self.Q = _rotation(self.B)

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

    def frame_values(self, u, r, theta, y):
        """u's values at the cover points (r, theta, y) of this frame, shape broadcast(r,
        theta, y[..., 0]) + (m,); the points live only inside the symmetric_values call."""
        shape = np.broadcast_shapes(np.shape(r), np.shape(theta), np.shape(y)[:-1])
        return u.symmetric_values(
            self.from_frame(_ring_points(r, theta, y).reshape(-1, self.n))).reshape(shape + (u.m,))

    def paired(self, u, r, theta, y):
        """(signed values, phi, signs): u's frame_values, each signed nearest the
        frame lift phi = Re(c r^alpha e^(i alpha theta)), a tie keeping the sign."""
        s = self.frame_values(u, r, theta, y)
        phi = np.real((r ** self.alpha * np.exp(1j * self.alpha * theta))[..., None] * self.c)
        keep, swap = selection_costs(s, phi)
        signs = np.where(keep <= swap, 1.0, -1.0)
        return signs[..., None] * s, phi, signs

    def to_json_dict(self):
        return {
            "m": self.m,
            "n": self.n,
            "k": self.k,
            "c_re": [float(v) for v in self.c.real],
            "c_im": [float(v) for v in self.c.imag],
            "A_entries": [float(v) for v in self.B.reshape(-1)],
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


def cover_grid(tau, rmax, nr=24, ntheta=128, n=2, ny=12, ymax=None):
    """Annular grid on the double cover, theta in [0, 4 pi), in profile frame
    coordinates, and the quadrature weight of each node, shape (slab, nr, nt)."""
    if n > 3:
        raise DimensionMismatchError(f"the cover fits run at n <= 3 only, got n = {n}")
    s, ws = gauss_legendre_01(nr)
    rs = tau + (rmax - tau) * s
    thetas = (np.arange(ntheta) + 0.5) * (4.0 * np.pi / ntheta)
    w = np.outer((rmax - tau) * ws * rs * (4.0 * np.pi / ntheta), np.ones(ntheta))
    if n == 2:
        return PolarGrid(rs, thetas), w[None]
    ymax = ymax if ymax is not None else np.sqrt(max(1.0 - rmax ** 2, 0.04))
    ty, wty = gauss_legendre_01(ny)
    return PolarGrid(rs, thetas, ymax * (2.0 * ty - 1.0)), (2.0 * ymax * wty)[:, None, None] * w


def lift_against_profile(u, prof, grid):
    """Nearest-selection lift of u's symmetric part against the profile lift.

    Returns (u_lift, phi_lift, signs) in the grid's layout: (slab, nr, nt, m),
    (nr, nt, m), which broadcasts over the slabs, and (slab, nr, nt); raises
    PairingError when the induced sign field has holonomy inconsistent with
    the parity of k around some annular loop.
    """
    u_lift, phi, signs = prof.paired(u, *grid.coordinates())
    # holonomy of the sign field around each theta loop must be +1 on the
    # cover (the lift of a genuine two-valued branch is 4pi-periodic)
    flips = signs * np.roll(signs, -1, axis=2)
    # ignore flips where the profile is tiny relative to the residual
    # (ambiguous pairing); they do not witness holonomy
    mag_phi = np.sum(np.broadcast_to(phi, u_lift.shape) ** 2, axis=-1)
    resid = np.sum((u_lift - phi) ** 2, axis=-1)  # the nearer selection cost
    solid = mag_phi > 4.0 * resid
    hol = np.where(np.all(~solid, axis=2), 1.0,
                   np.prod(np.where(solid, flips, 1.0), axis=2))
    if np.any(hol < 0):
        bad = tuple(int(v) for v in np.argwhere(hol.T < 0)[0])
        bad = bad[0] if grid.n == 2 else bad  # an annulus, or (annulus, slab)
        raise PairingError(f"pairing holonomy violation around annulus {bad}", loop=bad)
    return u_lift, phi, signs


def _cover_fit(u, k, B=None):
    """fit_c's least squares at the tilt B: c, and the residual sqrt(w) (lift -
    fitted mode) on the cover grid (slab, nr, nt, m) that fit_rotation minimizes."""
    if k > K_MAX:
        raise FitError(f"k = {k} is past K_MAX = {K_MAX}, the largest k the cover angles resolve")
    n, m = u.n, u.m
    probe = CylindricalProfile(np.ones(m) + 0j, k, B=B, n=n)
    grid, wts = cover_grid(0.05, 0.95, n=n)
    alpha = k / 2.0
    rs, thetas, ys = grid.coordinates()
    sv = np.empty(wts.shape + (m,))
    for l, y in enumerate(ys):  # one slab's frame points at a time
        sv[l] = probe.frame_values(u, rs, thetas, y)
    R, T = np.meshgrid(grid.rs, grid.thetas, indexing="ij")
    b1 = R ** alpha * np.cos(alpha * T)
    b2 = R ** alpha * np.sin(alpha * T)
    # one u-lift over all slabs, propagated along theta on the cover
    signs, hol = propagate_signs(sv)
    if hol < 0:
        raise PairingError("u-lift is not 4pi-periodic on the cover")
    sv *= signs[..., None]  # a global sign flip of the lift negates c; both describe one pair
    G = np.zeros((2, 2))
    rhs = np.zeros((2, m))
    for lift, w in zip(sv, wts):
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
    sv -= b1[..., None] * coef[0] + b2[..., None] * coef[1]  # the lift's residual, in place
    sv *= np.sqrt(wts)[..., None]
    return coef[0] - 1j * coef[1], sv


def fit_c(u, k, B=None):
    """Least-squares fit of c against the degree-alpha modes on the cover.

    The basis is r^alpha cos(alpha theta), r^alpha sin(alpha theta) per value
    component; the pairing of u against the profile frame of the tilt B
    (centered at the origin) is taken on the cover grid for 0.05 <= r <= 0.95,
    outside the tube about the axis, 128 angles over [0, 4pi) (so k <= K_MAX),
    with u read one axis slab at a time.  The u-lift is one propagate_signs
    lift over all axis slabs, so every representative of the pair u fits the
    same c up to a global sign.  Returns c; raises FitError for k > K_MAX.
    """
    return _cover_fit(u, k, B)[0]


def fit_rotation(u, k):
    """Gauss-Newton over the 2(n-2) entries of B, from B = 0, on fit_c's residual.

    Variable projection (Golub & Pereyra 1973): c is fit_c(u, k, B) at every
    B, and J is by central differences (eps 1e-6).  At most 12 steps, each
    backtracking by at most 20 halvings and clamped to sqrt(2) |B|_F <=
    ROTATION_BOUND; the fit stops once the step is below 1e-12, its model
    decrease -g.step below 1e-12 of the objective, or no halving improves.
    Returns B, shape (2, n-2).
    """
    params, eps = np.zeros(2 * (u.n - 2)), 1e-6
    r = _cover_fit(u, k, params)[1]
    obj = np.vdot(r, r)

    def normal_equations():  # J^T J and J^T r; the columns of J are freed on return
        J = [(_cover_fit(u, k, params + e)[1] - _cover_fit(u, k, params - e)[1]) / (2 * eps)
             for e in eps * np.eye(params.size)]
        return (np.array([[np.vdot(a, b) for b in J] for a in J]),
                np.array([np.vdot(col, r) for col in J]))

    for _ in range(12):
        H, g = normal_equations()
        step = -np.linalg.solve(H + 1e-14 * np.eye(params.size), g)
        if np.linalg.norm(step) < 1e-12 or -g @ step < 1e-12 * obj:
            break
        for t in 0.5 ** np.arange(20):
            trial = params + t * step
            nrm = np.sqrt(2.0) * np.linalg.norm(trial)  # |A|_F
            if nrm > ROTATION_BOUND:
                trial = trial * (ROTATION_BOUND / nrm)
            r_trial = _cover_fit(u, k, trial)[1]
            obj_trial = np.vdot(r_trial, r_trial)
            if obj_trial < obj:
                params, r, obj = trial, r_trial, obj_trial
                break
        else:
            break
    return params.reshape(2, -1)


def fit_profile(u, k):
    """The profile centered at the origin for a known k: B is fit_rotation's,
    0 at n = 2 and for a planar u (y -> -y fixes u and maps B to -B, so its
    fit is even in B), and c is fit_c at that B.  Degenerate c = 0 fits are
    rejected: a zero profile has no frequency and is no admissible profile.
    """
    B = None if u.planar or u.n <= 2 else fit_rotation(u, k)
    c = fit_c(u, k, B=B)
    if not float(np.linalg.norm(c)) > 0.0:
        raise FitError("degenerate fit: c = 0 is not an admissible profile")
    return CylindricalProfile(c, k, B=B, n=u.n)


@dataclass
class GraphRepresentation:
    """Single-valued graph data of u over a profile outside the branch tube."""

    grid: PolarGrid
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
    n, m = u.n, u.m
    alpha = prof.alpha
    grid, wts = cover_grid(1e-6, gamma, nr=nr, ntheta=ntheta, n=n, ny=ny,
                           ymax=None if n == 2 else np.sqrt(max(gamma ** 2 * 0.3, 0.01)))
    u_lift, phi, _ = lift_against_profile(u, prof, grid)
    # lanes (nr, nt, lane, m), one per axis slab, the plane one slab
    u_lift, phi, wts = np.moveaxis(u_lift, 0, 2), phi[:, :, None], np.moveaxis(wts, 0, 2)
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
    node_mask = np.repeat(filled[:, None, :], u_lift.shape[1], axis=1)
    ring_r = grid.rs[:, None, None]
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
        grid=grid, shape=grid.shape, admissible=filled.reshape(grid.shape[:1] + grid.shape[2:]),
        v_hat=v_hat.reshape(grid.shape + (m,)), dv_hat=dv_hat.reshape(grid.shape + (m, 2)),
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

    def excess_density(X):
        return metric_sq_symmetric(u.symmetric_values(X), prof.symmetric_values(X))

    def weighted_R(X):
        return np.linalg.norm(X, axis=1) ** (-n + SIGMA - 2 * alpha) * excess_density(X)

    def weighted_tube(X):
        return excess_density(X) / np.maximum(np.hypot(X[:, 0], X[:, 1]), DELTA) ** (1 - SIGMA)

    ball_g = Ball((0.0,) * n, GAMMA)
    lhs_63 = spec.integrate_ball(ball_g, weighted_R)
    rows.append(CorollaryRow("weighted_excess_R", float(lhs_63), float(rhs),
                             {"gamma": GAMMA, "sigma": SIGMA}))

    shifted = CylindricalProfile(prof.c, prof.k, B=prof.B, center=prof.center + Z, n=n)
    dist_sq = float(np.sum(Z[:2] ** 2))
    lhs_64 = dist_sq + excess(u, shifted, unit_ball(n), spec)
    rows.append(CorollaryRow("shifted_center_excess", float(lhs_64), float(rhs),
                             {"Z": [float(v) for v in Z], "dist_sq": dist_sq}))

    lhs_66 = spec.integrate_ball(Ball((0.0,) * n, 0.5), weighted_tube)
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
