"""Cylindrical profiles {+-Re(c ((e^A (X-Z))_1 + i (e^A (X-Z))_2)^(k/2))}.

The rotation parameter A lives in the skew space with zero diagonal blocks
(entries vanish when both indices are <= 2 or both are >= 3), so e^A tilts
the branch axis without rotating within the (x1,x2)-plane or within the
axis plane.  Fitting is linear least squares in c on the branched cover and
Gauss-Newton in the 2(n-2) free entries of A.
"""

import json
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import expm

from .errors import FitError, PairingError
from .fields import Field, PolarGrid, _as_points, l2_distance_sq, propagate_signs
from .pairspace import metric_sq_symmetric
from .quadrature import Ball, QuadratureSpec, gauss_legendre_01, unit_ball
from .frequency import axis_energy_integral, radial_frequency_deviation


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


def is_admissible_skew(A, tol=1e-12):
    n = A.shape[0]
    if not np.allclose(A, -A.T, atol=tol):
        return False
    if np.max(np.abs(A[0:2, 0:2])) > tol:
        return False
    if n > 2 and np.max(np.abs(A[2:, 2:])) > tol:
        return False
    return True


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
        self.Q = expm(self.A)
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
        X, _ = _as_points(X, self.n)
        Xp = self.to_frame(X)
        z = Xp[:, 0] + 1j * Xp[:, 1]
        w = z ** self.alpha
        return np.real(w[:, None] * self.c[None, :])

    def symmetric_gradient(self, X):
        X, _ = _as_points(X, self.n)
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

    def lift_gradient_plane(self, r, theta):
        """(d/dx'_1, d/dx'_2) of the lift, in frame coordinates."""
        w = self.alpha * r ** (self.alpha - 1.0) * np.exp(1j * (self.alpha - 1.0) * theta)
        d1 = np.real(np.asarray(w)[..., None] * self.c)
        d2 = np.real(1j * np.asarray(w)[..., None] * self.c)
        return d1, d2

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

    def save(self, path):
        with open(path, "w") as fh:
            json.dump(self.to_json_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    @classmethod
    def from_json_dict(cls, d):
        c = np.asarray(d["c_re"], dtype=float) + 1j * np.asarray(d["c_im"], dtype=float)
        n = int(d["n"])
        A = skew_from_params(np.asarray(d.get("A_entries", []), dtype=float), n)
        return cls(c, int(d["k"]), A=A, center=np.asarray(d["center"], dtype=float), n=n)

    @classmethod
    def load(cls, path):
        with open(path) as fh:
            return cls.from_json_dict(json.load(fh))


def profile_distance_sq(p1, p2, ball=None, spec=None):
    """Excess between two profiles (sign-free comparison metric)."""
    ball = ball or unit_ball(p1.n)
    return l2_distance_sq(p1, p2, ball, spec)


def excess(u, prof, ball=None, spec=None):
    """int over the ball of G(u, profile)^2."""
    ball = ball or unit_ball(u.n)
    return l2_distance_sq(u, prof, ball, spec)


@dataclass
class CoverGrid:
    """Annular grid on the double cover, in profile frame coordinates."""

    rs: np.ndarray          # (nr,)
    wr: np.ndarray          # radial weights
    thetas: np.ndarray      # (nt,) on [0, 4 pi)
    ys: np.ndarray          # (ny,) axis nodes (empty for n=2)
    wy: np.ndarray

    @property
    def wtheta(self):
        return 4.0 * np.pi / self.thetas.shape[0]

    def base_points(self, n):
        """Frame points (axis slabs outermost for n = 3) and the grid shape."""
        grid = PolarGrid(self.rs, self.thetas, self.ys if n > 2 else None)
        return grid.nodes(), grid.shape


def cover_grid(tau, rmax, nr=24, ntheta=128, n=2, ny=12, ymax=None):
    s, ws = gauss_legendre_01(nr)
    rs = tau + (rmax - tau) * s
    wr = (rmax - tau) * ws
    thetas = (np.arange(ntheta) + 0.5) * (4.0 * np.pi / ntheta)
    if n == 2:
        ys = np.zeros(0)
        wy = np.ones(1)
    else:
        ymax = ymax if ymax is not None else np.sqrt(max(1.0 - rmax ** 2, 0.04))
        ty, wty = gauss_legendre_01(ny)
        ys = ymax * (2.0 * ty - 1.0)
        wy = 2.0 * ymax * wty
    return CoverGrid(rs, wr, thetas, ys, wy)


def lift_against_profile(u, prof, grid):
    """Nearest-selection lift of u's symmetric part against the profile lift.

    Returns (u_lift, phi_lift, signs, weights, shape); raises PairingError
    when the induced sign field has holonomy inconsistent with the parity of
    k around some annular loop of the cover.
    """
    n = prof.n
    pts_frame, shape = grid.base_points(n)
    pts = prof.from_frame(pts_frame)
    s_rep = u.symmetric_values(pts)
    R, T = np.meshgrid(grid.rs, grid.thetas, indexing="ij")
    phi_l = prof.lift(R, T)  # (nr, nt, m)
    if n == 2:
        s_rep = s_rep.reshape(shape + (prof.m,))
        phi = phi_l
    else:
        s_rep = np.moveaxis(s_rep.reshape((shape[2],) + shape[:2] + (prof.m,)), 0, 2)
        phi = phi_l[:, :, None, :]
    d_keep = np.sum((s_rep - phi) ** 2, axis=-1)
    d_swap = np.sum((s_rep + phi) ** 2, axis=-1)
    signs = np.where(d_keep <= d_swap, 1.0, -1.0)
    u_lift = signs[..., None] * s_rep
    # holonomy of the sign field around each theta loop must be +1 on the
    # cover (the lift of a genuine two-valued branch is 4pi-periodic)
    nt = grid.thetas.shape[0]
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
    return u_lift, phi, signs, shape


def fit_c(u, k, A=None, center=None, tau=0.05, rmax=0.95, nr=24, ntheta=128,
          ny=12, cond_max=1e12):
    """Least-squares fit of c against the degree-alpha modes on the cover.

    The basis is r^alpha cos(alpha theta), r^alpha sin(alpha theta) per value
    component; the pairing of u against the current profile frame is taken
    outside the tube r <= tau.  Returns (c, weighted residual).
    """
    n, m = u.n, u.m
    probe = CylindricalProfile(np.ones(m) + 0j, k, A=A, center=center, n=n)
    grid = cover_grid(tau, rmax, nr=nr, ntheta=ntheta, n=n, ny=ny)
    alpha = k / 2.0
    pts_frame, shape = grid.base_points(n)
    pts = probe.from_frame(pts_frame)
    s_rep = u.symmetric_values(pts)
    if n == 2:
        sv = s_rep.reshape(shape + (m,))
    else:
        sv = np.moveaxis(s_rep.reshape((shape[2],) + shape[:2] + (m,)), 0, 2)
    # resolve the u-lift by propagation along theta on the cover, ring by ring
    R, T = np.meshgrid(grid.rs, grid.thetas, indexing="ij")
    b1 = R ** alpha * np.cos(alpha * T)
    b2 = R ** alpha * np.sin(alpha * T)
    wrt = grid.wr[:, None] * grid.rs[:, None] * grid.wtheta * np.ones_like(T)
    signs, hol = propagate_signs(sv)
    if np.any(np.asarray(hol) < 0):
        raise PairingError("u-lift is not 4pi-periodic on the cover")
    if n == 2:
        slabs = [(signs, sv)]
        wy = [1.0]
    else:
        slabs = [(signs[:, :, l], sv[:, :, l]) for l in range(sv.shape[2])]
        wy = list(grid.wy)
    G = np.zeros((2, 2))
    rhs = np.zeros((2, m))
    total_w = 0.0
    lifted = []
    for (sg, slab), wl in zip(slabs, wy):
        lift = sg[:, :, None] * slab
        # a global sign flip of the lift negates c; both describe one pair
        lifted.append((lift, wl))
        w = wrt * wl
        G[0, 0] += np.sum(w * b1 * b1)
        G[0, 1] += np.sum(w * b1 * b2)
        G[1, 1] += np.sum(w * b2 * b2)
        rhs[0] += np.einsum("rt,rtk->k", w * b1, lift)
        rhs[1] += np.einsum("rt,rtk->k", w * b2, lift)
        total_w += np.sum(w)
    G[1, 0] = G[0, 1]
    condition = np.linalg.cond(G)
    if not np.isfinite(condition) or condition > cond_max:
        raise FitError(f"normal equations ill-conditioned (cond={condition:.2e})")
    coef = np.linalg.solve(G, rhs)  # rows: [cos part; sin part] per component
    c = coef[0] - 1j * coef[1]
    resid_sq = 0.0
    for (lift, wl) in lifted:
        fitv = b1[..., None] * coef[0][None, None, :] + b2[..., None] * coef[1][None, None, :]
        resid_sq += np.sum((wrt * wl)[..., None] * (lift - fitv) ** 2)
    return c, float(np.sqrt(max(resid_sq, 0.0)))


def fit_rotation(u, prof, bound=0.35, max_steps=12, backtracks=20, spec=None,
                 tol=1e-12):
    """Gauss-Newton over the free skew entries minimizing the excess.

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
    for _ in range(max_steps):
        J = np.zeros((r.shape[0], dim))
        eps = 1e-6
        for d in range(dim):
            e = np.zeros(dim)
            e[d] = eps
            J[:, d] = (residuals(params + e) - residuals(params - e)) / (2 * eps)
        g = J.T @ r
        if np.linalg.norm(g) < tol:
            converged = True
            break
        H = J.T @ J + 1e-14 * np.eye(dim)
        step = -np.linalg.solve(H, g)
        ok = False
        t = 1.0
        for _ in range(backtracks):
            trial = params + t * step
            A_trial = skew_from_params(trial, n)
            nrm = np.linalg.norm(A_trial)
            if nrm > bound:
                trial = trial * (bound / nrm)
            r_trial = residuals(trial)
            obj_trial = float(r_trial @ r_trial)
            if obj_trial < obj:
                params, r, obj = trial, r_trial, obj_trial
                ok = True
                break
            t *= 0.5
        if not ok:
            break
        if obj < tol:
            converged = True
            break
    else:
        converged = True
    return skew_from_params(params, n), converged


def fit_profile(u, k, center=None, tau=0.05, with_rotation=True, spec=None,
                rounds=2):
    """Fit c (linear) and the axis tilt A (Gauss-Newton) for a known k.

    Degenerate c = 0 fits are rejected: a zero profile has no frequency and
    does not belong to the admissible profile family.
    """
    n = u.n
    center = np.zeros(n) if center is None else np.asarray(center, dtype=float)
    A = np.zeros((n, n))
    c = None
    for _ in range(max(1, rounds if (with_rotation and n > 2) else 1)):
        c, _resid = fit_c(u, k, A=A, center=center, tau=tau)
        if not float(np.linalg.norm(c)) > 0.0:
            raise FitError("degenerate fit: c = 0 is not an admissible profile")
        prof = CylindricalProfile(c, k, A=A, center=center, n=n)
        if not (with_rotation and n > 2):
            return prof
        A, _ok = fit_rotation(u, prof, spec=spec)
    return CylindricalProfile(c, k, A=A, center=center, n=n)


@dataclass
class GraphRepresentation:
    """Single-valued graph data of u over a profile outside the branch tube."""

    grid: CoverGrid
    shape: tuple
    admissible: np.ndarray       # per (ring[, y]) admissibility mask
    v_hat: np.ndarray            # lifted graph values on the cover grid
    dv_hat: np.ndarray           # plane gradient of the lift (finite differences)
    tau: float
    beta: float
    sup_v: float                 # sup r^-alpha |v_hat|
    sup_dv: float                # sup r^(1-alpha) |Dv_hat|
    tube_condition_met: bool
    integral_in: float           # int_U (|v|^2 + r^2 |Dv|^2), pair-summed
    integral_out: float          # int_{B_gamma \ U} (|u|^2 + r^2 |Du|^2)
    excess_sq: float

    @property
    def bound_ok(self):
        return self.sup_v <= self.beta and self.sup_dv <= self.beta

    @property
    def ratio_in(self):
        return self.integral_in / self.excess_sq if self.excess_sq > 0 else 0.0


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
    u_lift, phi, signs, shape = lift_against_profile(u, prof, grid)
    v_hat = u_lift - np.broadcast_to(phi, u_lift.shape)
    # per-(ring, y) mean local excess against the profile scale
    pair_resid = 2.0 * np.sum(v_hat ** 2, axis=-1)
    local = np.mean(pair_resid, axis=1)  # (nr,) or (nr, ny)
    phi_scale = np.mean(2.0 * np.sum(np.asarray(phi) ** 2, axis=-1), axis=1)
    if n == 3 and phi_scale.ndim == 1:
        phi_scale = phi_scale[:, None]
    admissible = local <= threshold_factor * np.maximum(phi_scale, 1e-300)
    # flood fill from the outermost ring inward (and along y)
    filled = np.zeros_like(admissible, dtype=bool)
    if n == 2:
        for i in range(grid.rs.shape[0] - 1, -1, -1):
            if not admissible[i]:
                break
            filled[i] = True
    else:
        frontier = [(grid.rs.shape[0] - 1, l) for l in range(shape[2])
                    if admissible[grid.rs.shape[0] - 1, l]]
        for node in frontier:
            filled[node] = True
        while frontier:
            i, l = frontier.pop()
            for di, dl in ((-1, 0), (1, 0), (0, -1), (0, 1)):
                ii, ll = i + di, l + dl
                if 0 <= ii < shape[0] and 0 <= ll < shape[2] and admissible[ii, ll] and not filled[ii, ll]:
                    filled[ii, ll] = True
                    frontier.append((ii, ll))
    # required region: rings with r > tau must be covered
    req = grid.rs > tau
    if n == 2:
        tube_ok = bool(np.all(filled[req]))
    else:
        tube_ok = bool(np.all(filled[req, :]))
    # plane gradient of v by finite differences of the lifted difference
    # (differencing v directly keeps the exact-profile case exactly zero)
    dr = np.gradient(v_hat, grid.rs, axis=0)
    dt = np.gradient(v_hat, grid.thetas, axis=1)
    R = grid.rs.reshape((-1,) + (1,) * (v_hat.ndim - 1))
    dv1 = dr
    dv2 = dt / R
    Rm, Tm = np.meshgrid(grid.rs, grid.thetas, indexing="ij")
    p1, p2 = prof.lift_gradient_plane(Rm, Tm)
    ct, st = np.cos(Tm), np.sin(Tm)
    if n == 3:
        ct, st = ct[:, :, None], st[:, :, None]
        p1, p2 = p1[:, :, None, :], p2[:, :, None, :]
    dvx = ct[..., None] * dv1 - st[..., None] * dv2
    dvy = st[..., None] * dv1 + ct[..., None] * dv2
    dv_hat = np.stack([dvx, dvy], axis=-1)
    # expand ring mask to node mask
    if n == 2:
        node_mask = np.repeat(filled[:, None], shape[1], axis=1)
        ring_r = grid.rs[:, None]
        wts = grid.wr[:, None] * grid.rs[:, None] * grid.wtheta * np.ones(shape)
    else:
        node_mask = np.repeat(filled[:, None, :], shape[1], axis=1)
        ring_r = grid.rs[:, None, None]
        wts = (grid.wr[:, None, None] * grid.rs[:, None, None] * grid.wtheta
               * grid.wy[None, None, :]) * np.ones(shape)
    vmag = np.linalg.norm(v_hat, axis=-1)
    dvmag = np.linalg.norm(dv_hat.reshape(dv_hat.shape[:-2] + (-1,)), axis=-1)
    # interior rings only for the derivative sup (one-sided FD ends are noisy)
    inner = np.zeros_like(node_mask)
    if n == 2:
        inner[1:-1, :] = node_mask[1:-1, :]
    else:
        inner[1:-1, :, :] = node_mask[1:-1, :, :]
    sup_v = float(np.max(np.where(node_mask, vmag / ring_r ** alpha, 0.0), initial=0.0))
    sup_dv = float(np.max(np.where(inner, dvmag * ring_r ** (1 - alpha), 0.0), initial=0.0))
    pair_v_sq = 2.0 * np.sum(v_hat ** 2, axis=-1)
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
        grid=grid, shape=shape, admissible=filled, v_hat=v_hat, dv_hat=dv_hat,
        tau=tau, beta=beta, sup_v=sup_v, sup_dv=sup_dv,
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


def corollary_checks(u, prof, Z=None, gamma=0.5, sigma=0.5, delta=0.05,
                     spec=None):
    """Left/right sides and ratios of the key section-6 integral estimates.

    Rows: weighted-excess (R^(sigma-n-2alpha) weight), shifted-center excess
    with dist^2 term, the max(|x|, delta)-weighted excess, and the two
    a priori integrals (radial frequency deviation and axis energy).
    """
    spec = spec or QuadratureSpec()
    n = u.n
    alpha = prof.alpha
    Z = np.zeros(n) if Z is None else np.asarray(Z, dtype=float)
    rhs = excess(u, prof, unit_ball(n), spec)
    rows = []

    ball_g = Ball((0.0,) * n, gamma)
    rule = spec.ball(ball_g)
    X = rule.points
    g2 = metric_sq_symmetric(u.symmetric_values(X), prof.symmetric_values(X))
    R = np.linalg.norm(X, axis=1)
    lhs_63 = rule.integrate_values(R ** (-n + sigma - 2 * alpha) * g2)
    rows.append(CorollaryRow("weighted_excess_R", float(lhs_63), float(rhs),
                             {"gamma": gamma, "sigma": sigma}))

    shifted = CylindricalProfile(prof.c, prof.k, A=prof.A, center=prof.center + Z, n=n)
    dist_sq = float(np.sum(Z[:2] ** 2))
    lhs_64 = dist_sq + excess(u, shifted, unit_ball(n), spec)
    rows.append(CorollaryRow("shifted_center_excess", float(lhs_64), float(rhs),
                             {"Z": [float(v) for v in Z], "dist_sq": dist_sq}))

    ball_h = Ball((0.0,) * n, 0.5)
    rule_h = spec.ball(ball_h)
    Xh = rule_h.points
    g2h = metric_sq_symmetric(u.symmetric_values(Xh), prof.symmetric_values(Xh))
    r_delta = np.maximum(np.hypot(Xh[:, 0], Xh[:, 1]), delta)
    lhs_66 = rule_h.integrate_values(g2h / r_delta ** (1 - sigma))
    rows.append(CorollaryRow("tube_weighted_excess", float(lhs_66), float(rhs),
                             {"delta": delta, "sigma": sigma}))

    lhs_62a = radial_frequency_deviation(u, np.zeros(n), alpha, ball_g, spec)
    rows.append(CorollaryRow("radial_deviation", float(lhs_62a), float(rhs),
                             {"gamma": gamma}))
    if n > 2:
        lhs_62b = axis_energy_integral(u, ball_g, spec)
        rows.append(CorollaryRow("axis_energy", float(lhs_62b), float(rhs),
                                 {"gamma": gamma}))
    return rows


def write_corollary_csv(rows, path):
    with open(path, "w") as fh:
        fh.write("name,lhs,rhs,ratio,params\n")
        for row in rows:
            params = json.dumps(row.params, sort_keys=True).replace(",", ";")
            fh.write(f"{row.name},{row.lhs!r},{row.rhs!r},{row.ratio!r},{params}\n")
