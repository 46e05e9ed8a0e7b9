"""Discrete Dirichlet minimization on the branched double cover of a disk.

The two-valued problem {+-s} becomes single-valued on the cover theta in
[0, 4pi); anti-periodicity v(r, theta + 2pi) = -v(r, theta) is built into
the unknown layout by giving the theta-wraparound edge a -1 coupling, so the
stored rectangle [0, 2pi) x [0, R] carries the whole solution.  The discrete
energy is the quadratic form of conservative finite-difference fluxes on the
polar grid (radial grading r_i ~ (i/N)^2 to resolve the r^(alpha-1) gradient
near the branch point), and the minimizer solves its normal equations.

A branch point at the center keeps the operator separable, so it solves
directly: Fourier modes in theta, then one tridiagonal radial solve per mode.
Off-center and two-point branch configurations are handled by cut-based
sign bookkeeping (edges crossing the cut arcs couple with a -1 sign) and
solve by Jacobi-preconditioned CG.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import coo_matrix, diags
from scipy.sparse.linalg import cg

from .errors import BoundaryLiftError, SolverError
from .fields import PolarGrid, SampledField, graded_radii, propagate_signs
from .frequency import FrequencyProfile
from .quadrature import Ball

CG_RTOL = 1e-10
SEPARABLE_RTOL = 1e-10


# ---------------------------------------------------------------------------
# Boundary data


class BoundaryTrace:
    """Lifted boundary values on theta in [0, 4pi) at radius R."""

    def __init__(self, thetas, values, radius):
        self.thetas = np.asarray(thetas, dtype=float)
        self.values = np.atleast_2d(np.asarray(values, dtype=float))
        if self.values.shape[0] != self.thetas.shape[0]:
            self.values = self.values.T
        self.radius = float(radius)
        self.m = self.values.shape[1]

    @classmethod
    def from_field(cls, fld, radius, nsamples=4096):
        thetas = np.arange(nsamples) * (4.0 * np.pi / nsamples)
        if hasattr(fld, "lift"):
            vals = fld.lift(np.full(nsamples, radius), thetas)
        elif hasattr(fld, "lift_values"):
            vals = fld.lift_values(np.full(nsamples, radius), thetas)
        else:
            # continuation with a first-order predictor: transversal zero
            # crossings of the lift would defeat value-based matching
            pts = np.stack([radius * np.cos(thetas), radius * np.sin(thetas)], axis=-1)
            s = fld.symmetric_values(pts)
            signs, _ = propagate_signs(s[None])
            vals = signs[0][:, None] * s
        return cls(thetas, vals, radius)

    @classmethod
    def from_csv(cls, path, radius):
        with open(path) as fh:
            rows = [line for line in map(str.strip, fh)
                    if line and not line.startswith("#") and not line[0].isalpha()]
        data = np.loadtxt(rows, delimiter=",", ndmin=2)
        order = np.argsort(data[:, 0])
        return cls(data[order, 0], data[order, 1:], radius)

    def parity(self, tol=1e-8):
        """+1 if g(theta + 2pi) = g(theta), -1 if = -g(theta); else error."""
        half = self.thetas < 2.0 * np.pi
        g0 = self._interp(self.thetas[half])
        g1 = self._interp(self.thetas[half] + 2.0 * np.pi)
        scale = max(float(np.max(np.abs(self.values))), 1e-300)
        if np.max(np.abs(g1 + g0)) <= tol * scale:
            return -1
        if np.max(np.abs(g1 - g0)) <= tol * scale:
            return 1
        raise BoundaryLiftError(
            "boundary data is neither periodic nor anti-periodic over 2pi "
            f"(defects {np.max(np.abs(g1 - g0)):.2e} / {np.max(np.abs(g1 + g0)):.2e})"
        )

    def _interp(self, th):
        th = np.mod(th, 4.0 * np.pi)
        out = np.empty((th.shape[0], self.m))
        for k in range(self.m):
            out[:, k] = np.interp(
                th, self.thetas, self.values[:, k],
                period=4.0 * np.pi,
            )
        return out

    def sample_half(self, M):
        """Values at theta_j = 2 pi j / M, j = 0..M-1 (first sheet)."""
        th = np.arange(M) * (2.0 * np.pi / M)
        return self._interp(th)

    def to_csv(self, path):
        with open(path, "w") as fh:
            fh.write("theta," + ",".join(f"v{k+1}" for k in range(self.m)) + "\n")
            row = ",".join(["%r"] * (1 + self.m)) + "\n"
            table = np.column_stack([self.thetas, self.values]).tolist()
            fh.writelines(row % tuple(values) for values in table)


@dataclass
class BranchConfiguration:
    """Prescribed branch points (and implied cut arcs) inside the disk."""

    points: list

    def __post_init__(self):
        self.points = [np.asarray(p, dtype=float) for p in self.points]
        if len(self.points) > 2:
            raise ValueError("at most two branch points at desk scale")
        for i in range(len(self.points)):
            for j in range(i + 1, len(self.points)):
                if np.allclose(self.points[i], self.points[j]):
                    raise ValueError("branch points must be pairwise distinct")

    def is_centered_single(self, tol=1e-12):
        return len(self.points) == 1 and float(np.linalg.norm(self.points[0])) <= tol

    def cuts(self, radius, boundary_anchor=None):
        """Cut segments: point-to-point for two points, point-to-boundary else."""
        if len(self.points) == 2:
            return [(self.points[0], self.points[1])]
        if self.is_centered_single():
            return []
        p = self.points[0]
        if boundary_anchor is None:
            direction = p / max(np.linalg.norm(p), 1e-30)
            anchor = direction * (1.5 * radius)
        else:
            anchor = np.asarray(boundary_anchor, dtype=float)
        return [(p, anchor)]


# ---------------------------------------------------------------------------
# Grid, edges and assembly


@dataclass
class CoverGridSpec:
    nr: int = 96
    ntheta: int = 192
    grading: float = 2.0

    def radii(self, R):
        return graded_radii(self.nr, R, grading=self.grading)

    def refined(self, level):
        f = 2 ** int(level)
        return CoverGridSpec(self.nr * f, self.ntheta * f, self.grading)


def _deflect_cuts(cuts, rs):
    """Bend cut segments that pass near the grid center around it.

    A cut through the center node makes the crossing parity of the center
    spokes ill defined; replacing the offending segment by a two-leg
    polyline with a small generic offset keeps the homotopy class (same
    crossing parity for every loop) while clearing the node.
    """
    clearance = float(rs[min(2, len(rs) - 1)])
    R_out = float(rs[-1])
    nudge = 0.23 * float(rs[0]) * np.array([np.cos(1.234), np.sin(1.234)])
    out = []
    for (a, b) in cuts:
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        # endpoints inside the disk may sit exactly on grid lines; a sub-cell
        # generic shift keeps every crossing test non-degenerate
        if np.linalg.norm(a) < R_out:
            a = a + nudge
        if np.linalg.norm(b) < R_out:
            b = b + nudge
        d = b - a
        L = float(np.linalg.norm(d))
        if L < 1e-30:
            continue
        t = float(np.clip(-(a @ d) / (L * L), 0.0, 1.0))
        closest = a + t * d
        if np.linalg.norm(closest) >= clearance or t in (0.0, 1.0):
            out.append((a, b))
            continue
        perp = np.array([-d[1], d[0]]) / L
        # generic offset: off the symmetry axes and the grid spokes
        C = closest + perp * (1.7 * clearance) + (d / L) * (0.0131 * L)
        out.append((a, C))
        out.append((C, b))
    return tuple(out)


def _crossing_signs(p, q, cuts):
    """(-1)^(number of cuts crossed) for each segment p[k] q[k], as floats.

    A cut counts when the open segments properly intersect: all four
    orientations are nonzero (|orient| >= 1e-14) and the endpoints of each
    segment lie on opposite sides of the other.
    """

    def orient(a, b, c):
        v = ((b[..., 0] - a[..., 0]) * (c[..., 1] - a[..., 1])
             - (b[..., 1] - a[..., 1]) * (c[..., 0] - a[..., 0]))
        return np.where(np.abs(v) < 1e-14, 0.0, np.sign(v))

    signs = np.ones(p.shape[0])
    for (c1, c2) in cuts:
        cross = ((orient(p, q, c1) * orient(p, q, c2) == -1.0)
                 & (orient(c1, c2, p) * orient(c1, c2, q) == -1.0))
        signs[cross] = -signs[cross]
    return signs


def _ring_weights(rs, M):
    """Edge weights of the polar cover grid, which depend only on the ring.

    g_c weighs each center spoke (center -> ring 0), g_r[i] each radial edge
    ring i -> ring i+1, and g_a[i] each angular edge within ring i, weighted
    by the ring's radial band.
    """
    dth = 2.0 * np.pi / M
    g_c = dth * (rs[0] / 2.0) / rs[0]
    r_mid = 0.5 * (rs[:-1] + rs[1:])
    g_r = dth * r_mid / (rs[1:] - rs[:-1])
    lower = np.concatenate([[rs[0] / 2.0], r_mid])
    upper = np.concatenate([r_mid, [rs[-1]]])
    g_a = (upper - lower) / (rs * dth)
    return g_c, g_r, g_a


def _cover_edges(rs, M, wrap_sign, center_mode, cut_segments=()):
    """Edges (a, b, g, sigma) of the polar cover grid, as arrays.

    Edge k carries the energy term g[k] (sigma[k] v[b[k]] - v[a[k]])^2.
    Rings 0..NR-2 are unknown (node (i, j) has id i * M + j) and ring NR-1
    is Dirichlet, encoded by negative ids: boundary node j -> -1 - j.
    center_mode: 'zero' pins v(0) = 0 (branch point at the center) through
    the Dirichlet slot -1 - M, 'unknown' makes the center value one extra
    unknown (regular point).  Order: center spokes, radial edges, angular
    edges, each ring by ring.
    """
    NR = rs.shape[0]
    n_ring_unknowns = (NR - 1) * M
    ids = np.arange(NR * M).reshape(NR, M)
    ids[-1] = -1 - np.arange(M)
    jn = (np.arange(M) + 1) % M
    g_c, g_r, g_a = _ring_weights(rs, M)

    if center_mode == "unknown":
        a_c, b_c, s_c = np.full(M, n_ring_unknowns), ids[0], np.ones(M)
    else:
        # (v_{0j} - 0)^2: sigma 0 couples to the pinned value 0
        a_c, b_c, s_c = ids[0], np.full(M, -1 - M), np.zeros(M)
    s_a = np.where(jn == 0, float(wrap_sign), 1.0)

    a = np.concatenate([a_c, ids[:-1].ravel(), ids.ravel()])
    b = np.concatenate([b_c, ids[1:].ravel(), ids[:, jn].ravel()])
    g = np.concatenate([np.full(M, g_c), np.repeat(g_r, M), np.repeat(g_a, M)])
    sigma = np.concatenate([s_c, np.ones((NR - 1) * M), np.tile(s_a, NR)])
    if cut_segments:
        thetas = np.arange(M) * (2.0 * np.pi / M)
        xy = np.stack([rs[:, None] * np.cos(thetas), rs[:, None] * np.sin(thetas)], axis=-1)
        p = np.concatenate([np.zeros((M, 2)), xy[:-1].reshape(-1, 2), xy.reshape(-1, 2)])
        q = np.concatenate([xy[0], xy[1:].reshape(-1, 2), xy[:, jn].reshape(-1, 2)])
        sigma *= _crossing_signs(p, q, cut_segments)
    return a, b, g, sigma


def _assemble(rs, M, wrap_sign, center_mode, cut_segments, bvals):
    """Sparse operator A and right-hand side of the cover problem.

    An edge between two unknowns adds the 2x2 block g [[1, -sigma],
    [-sigma, 1]]; an edge with one Dirichlet end adds g to the diagonal and
    g sigma d to the right-hand side, d the Dirichlet value.  The COO entries
    are laid out edge by edge, so duplicate sums come out in edge order.
    """
    a, b, g, sigma = _cover_edges(rs, M, wrap_sign, center_mode, cut_segments)
    n = (rs.shape[0] - 1) * M + (1 if center_mode == "unknown" else 0)
    a_unk, b_unk = a >= 0, b >= 0
    both = a_unk & b_unk
    diag = np.where(a_unk, a, b)
    gs = -g * sigma
    rows = np.stack([diag, b, a, b], axis=1)
    cols = np.stack([diag, b, b, a], axis=1)
    vals = np.stack([g, g, gs, gs], axis=1)
    keep = np.stack([a_unk | b_unk, both, both, both], axis=1)
    A = coo_matrix((vals[keep], (rows[keep], cols[keep])), shape=(n, n)).tocsr()
    dirichlet = _dirichlet_slots(bvals)
    one = a_unk ^ b_unk
    slot = np.where(a_unk, b, a)[one]
    rhs = np.zeros((n, bvals.shape[1]))
    np.add.at(rhs, diag[one], (g * sigma)[one, None] * dirichlet[slot])
    return A, rhs


def _dirichlet_slots(bvals):
    """Dirichlet values indexed by their negative ids: row -1 - j is node j.

    Slot -1 - M holds the pinned zero for the center in 'zero' mode.
    """
    return np.concatenate([np.zeros((1, bvals.shape[1])), bvals[::-1]])


@dataclass
class CoverField:
    """Single-valued data on the branched cover, stored on one sheet."""

    rs: np.ndarray            # ring radii, rs[-1] = outer radius
    thetas: np.ndarray        # M angles on [0, 2pi)
    values: np.ndarray        # (NR, M, m) including the boundary ring
    wrap_sign: int            # theta-wraparound coupling (-1 = anti-periodic)
    center: np.ndarray        # branch center (grid center)
    center_value: np.ndarray  # value at r = 0
    config: BranchConfiguration = None
    boundary: BoundaryTrace = None
    cuts: tuple = ()
    center_mode: str = "zero"
    solve_residual: float = 0.0

    @property
    def m(self):
        return self.values.shape[2]

    def anti_periodicity_defect(self, nprobe=64):
        """Max |v(r, theta + 2pi) + v(r, theta)| over probe points."""
        rng = np.random.default_rng(7)
        r = self.rs[0] + (self.rs[-1] - self.rs[0]) * rng.random(nprobe)
        th = 2.0 * np.pi * rng.random(nprobe)
        return float(np.max(np.abs(self.value_at(r, th + 2.0 * np.pi) + self.value_at(r, th))))

    def value_at(self, r, theta):
        """Interpolated lift at (r, theta) with theta in [0, 4pi)."""
        r = np.atleast_1d(np.asarray(r, dtype=float))
        theta = np.atleast_1d(np.asarray(theta, dtype=float))
        sheet = np.floor_divide(theta, 2.0 * np.pi).astype(int) % 2
        sign = np.where(sheet == 1, -1.0, 1.0)
        th = np.mod(theta, 2.0 * np.pi)
        M = self.thetas.shape[0]
        dth = 2.0 * np.pi / M
        j0 = np.floor(th / dth).astype(int) % M
        tt = th / dth - np.floor(th / dth)
        j1 = (j0 + 1) % M
        wrap = (j0 + 1) >= M
        tw = np.where(wrap, float(self.wrap_sign), 1.0)
        out = np.empty((r.shape[0], self.m))
        for p in range(r.shape[0]):
            col0 = self._radial_interp(r[p], j0[p])
            col1 = self._radial_interp(r[p], j1[p]) * tw[p]
            out[p] = sign[p] * ((1 - tt[p]) * col0 + tt[p] * col1)
        return out

    def _radial_interp(self, r, j):
        rs = self.rs
        if r <= rs[0]:
            t = r / rs[0]
            return (1 - t) * self.center_value + t * self.values[0, j]
        i = int(np.searchsorted(rs, r)) - 1
        i = min(max(i, 0), rs.shape[0] - 2)
        t = (r - rs[i]) / (rs[i + 1] - rs[i])
        return (1 - t) * self.values[i, j] + t * self.values[i + 1, j]

    def _radial_derivative(self, r, j):
        """d/dr of the quadratic through the three rings around r."""
        rs = self.rs
        i = int(np.searchsorted(rs, r)) - 1
        i = min(max(i, 1), rs.shape[0] - 2)
        r0, r1, r2 = rs[i - 1], rs[i], rs[i + 1]
        v0, v1, v2 = self.values[i - 1, j], self.values[i, j], self.values[i + 1, j]
        # derivative of the Lagrange quadratic at r
        d0 = (2 * r - r1 - r2) / ((r0 - r1) * (r0 - r2))
        d1 = (2 * r - r0 - r2) / ((r1 - r0) * (r1 - r2))
        d2 = (2 * r - r0 - r1) / ((r2 - r0) * (r2 - r1))
        return d0 * v0 + d1 * v1 + d2 * v2

    def to_two_valued(self):
        grid = PolarGrid(self.rs, self.thetas)
        return SampledField(grid, self.values.copy(), symmetric=True,
                            hol=self.wrap_sign,
                            domain=Ball((0.0, 0.0), float(self.rs[-1])))


def energy(cf):
    """Discrete two-valued Dirichlet energy (both selections on the base)."""
    a, b, g, sigma = _cover_edges(cf.rs, cf.thetas.shape[0], cf.wrap_sign,
                                  cf.center_mode, cf.cuts)
    parts = [cf.values[:-1].reshape(-1, cf.m)]
    if cf.center_mode == "unknown":
        parts.append(cf.center_value[None, :])
    # negative ids count from the end, into the Dirichlet slots
    v = np.concatenate(parts + [_dirichlet_slots(cf.values[-1])])
    diff = sigma[:, None] * v[b] - v[a]
    return 2.0 * float(np.sum(g * np.sum(diff * diff, axis=1)))


def _boundary_values_with_cuts(btr, M, cuts, R):
    """Dirichlet values at the boundary angles, with sign flips at cut crossings.

    The lifted values must be continuous along the circle away from the cut
    crossings (a flip is legal at a zero of the data); a large jump anywhere
    else means the cut layout cannot carry the data and is rejected.
    """
    g = btr.sample_half(M)
    thetas = np.arange(M) * (2.0 * np.pi / M)
    pts = np.stack([R * np.cos(thetas), R * np.sin(thetas)], axis=-1)
    cut_edge = _crossing_signs(pts, np.roll(pts, -1, axis=0), cuts) < 0
    # one flip per cut edge passed on the way from node 0 to node j
    flips = np.concatenate([[0], np.cumsum(cut_edge[:-1])])
    sigma = np.where(flips % 2 == 1, -1.0, 1.0)
    scale = max(float(np.max(np.abs(g))), 1e-300)

    def jump_check(b):
        jumps = np.linalg.norm(np.roll(b, -1, axis=0) - b, axis=1)
        smooth = ~cut_edge
        typical = np.median(jumps[smooth]) if np.any(smooth) else 0.0
        tol = max(20.0 * typical, 1e-8 * scale)
        return float(np.max(jumps[smooth], initial=0.0)), tol

    b = sigma[:, None] * g
    worst, tol = jump_check(b)
    if worst > tol:
        # closure repair: the loop may need one extra flip where the data
        # vanishes (a sheet change across the nodal set, not across a cut)
        mags = np.maximum(np.linalg.norm(g, axis=1),
                          np.linalg.norm(np.roll(g, -1, axis=0), axis=1))
        mags[cut_edge] = np.inf
        j0 = int(np.argmin(mags))
        # a zero is only resolved to the angular spacing; scale the gate with M
        if mags[j0] <= max(0.08, 4.0 * np.pi / M) * scale:
            sigma[j0 + 1:] = -sigma[j0 + 1:]
            b = sigma[:, None] * g
            worst, tol = jump_check(b)
    if worst > tol:
        raise BoundaryLiftError(
            f"lift jump {worst:.3e} at a non-cut boundary edge (tolerance {tol:.3e}); "
            "the cut layout does not match the data's branching"
        )
    return b


def _anchor_for_single_point(boundary, point, R, parity):
    """Boundary end of the cut for a one-point configuration.

    Anti-periodic data accepts any anchor (take the radial one); periodic
    data needs the flip to sit at a boundary zero of the lift.
    """
    if parity == -1:
        direction = point / max(np.linalg.norm(point), 1e-30)
        th = np.arctan2(direction[1], direction[0]) + 0.0137
        return np.array([np.cos(th), np.sin(th)]) * (1.5 * R)
    g = boundary.sample_half(2048)
    mags = np.linalg.norm(g, axis=1)
    scale = max(float(np.max(mags)), 1e-300)
    if float(np.min(mags)) > 0.05 * scale:
        raise BoundaryLiftError(
            "periodic boundary data has no zero to anchor a single cut at "
            f"(min |g| = {float(np.min(mags)):.3e} vs scale {scale:.3e})"
        )
    jstar = int(np.argmin(mags))
    th = jstar * (2.0 * np.pi / 2048) + 0.0137
    return np.array([np.cos(th), np.sin(th)]) * (1.5 * R)


def _thomas(off, diag, f):
    """Solve the symmetric tridiagonal systems T_k x[:, k] = f[:, k] in place.

    diag is (n, K), column k the diagonal of T_k; off (n - 1,) couples row
    i to row i + 1 in every T_k; f is (n, K) and is overwritten by x.
    """
    n = diag.shape[0]
    if n == 0:
        return f
    ratio = np.empty_like(diag)
    piv = diag[0]
    f[0] /= piv
    for i in range(1, n):
        ratio[i - 1] = off[i - 1] / piv
        piv = diag[i] - off[i - 1] * ratio[i - 1]
        f[i] -= off[i - 1] * f[i - 1]
        f[i] /= piv
    for i in range(n - 2, -1, -1):
        f[i] -= ratio[i] * f[i + 1]
    return f


def solve_separable(rs, M, wrap_sign, center_mode, rhs):
    """Direct solve of the centred cover system, in _assemble's unknown layout.

    Every ring carries the same angular operator, so Fourier modes in theta
    diagonalize it: mode k of ring i has the angular eigenvalue
    2 (1 - cos(2 pi (k + h) / M)) g_a[i], with h = 1/2 after the twist
    e^{-i pi j / M} that makes anti-periodic data periodic, else h = 0.  Each
    mode leaves one tridiagonal radial system over the unknown rings.  The
    'unknown' center couples only to mode 0 of ring 0, through its row
    M g_c v_c - g_c sum_j v_0j = f_c, and is eliminated from it; f_c is 0
    unless ring 0 is the boundary.  Columns solve one at a time, which keeps
    the complex work arrays small.
    """
    g_c, g_r, g_a = _ring_weights(rs, M)
    nring = rs.shape[0] - 1
    h = 0.5 if wrap_sign == -1 else 0.0
    twist = np.exp(-2j * np.pi * h * np.arange(M) / M)
    lam = 2.0 * (1.0 - np.cos(2.0 * np.pi * (np.arange(M) + h) / M))
    inner = np.concatenate([[g_c], g_r[:-1]])  # weight towards the center
    diag = (inner + g_r)[:, None] + g_a[:nring, None] * lam
    if center_mode == "unknown" and nring:
        diag[0, 0] -= g_c
    sol = np.empty(rhs.shape)
    for k in range(rhs.shape[1]):
        f = np.fft.fft(twist * rhs[: nring * M, k].reshape(nring, M), axis=1)
        u = np.fft.ifft(_thomas(-g_r[:-1], diag, f), axis=1)
        u *= np.conj(twist)
        sol[: nring * M, k] = u.real.ravel()
    if center_mode == "unknown":
        ring0 = sol[: M * min(nring, 1)]  # empty when ring 0 is the boundary
        sol[-1] = (rhs[-1] + g_c * ring0.sum(axis=0)) / (M * g_c)
    return sol


def _solve_cg(A, rhs):
    """Jacobi-preconditioned CG, column by column, to relative residual CG_RTOL."""
    sol = np.zeros(rhs.shape)
    precond = diags(1.0 / np.maximum(A.diagonal(), 1e-300))
    for k in range(rhs.shape[1]):
        x, info = cg(A, rhs[:, k], rtol=CG_RTOL, atol=0.0, M=precond)
        if info != 0:
            res = float(np.linalg.norm(A @ x - rhs[:, k])
                        / max(np.linalg.norm(rhs[:, k]), 1e-300))
            raise SolverError(f"CG did not converge (info={info})", residual=res)
        sol[:, k] = x
    return sol


def solve_branched_laplace(boundary, config=None, grid=CoverGridSpec()):
    """Discrete energy minimizer on the cover with the prescribed branch set.

    boundary is a BoundaryTrace (lifted values on [0, 4pi)); config defaults
    to a single branch point at the disk center.  Centred configurations
    solve directly (solve_separable): anti-periodic data on the twisted
    polar grid, periodic data as the decoupled single-valued harmonic
    extension.  A relative residual above SEPARABLE_RTOL raises SolverError.
    Configurations with cuts solve by Jacobi-CG (_solve_cg).
    """
    config = config or BranchConfiguration([np.zeros(2)])
    R = boundary.radius
    parity = boundary.parity()
    rs = grid.radii(R)
    M = grid.ntheta
    m = boundary.m
    if config.is_centered_single():
        wrap = -1 if parity == -1 else 1
        cuts = ()
        center_mode = "zero" if parity == -1 else "unknown"
        bvals = boundary.sample_half(M)
    else:
        anchor = None
        if len(config.points) == 1:
            anchor = _anchor_for_single_point(boundary, config.points[0], R, parity)
        cuts = _deflect_cuts(config.cuts(R, boundary_anchor=anchor), rs)
        wrap = 1
        center_mode = "unknown"
        bvals = _boundary_values_with_cuts(boundary, M, cuts, R)
    A, rhs = _assemble(rs, M, wrap, center_mode, cuts, bvals)
    sol = _solve_cg(A, rhs) if cuts else solve_separable(rs, M, wrap, center_mode, rhs)
    res_total = float(np.linalg.norm(A @ sol - rhs) / max(np.linalg.norm(rhs), 1e-300))
    if not cuts and not res_total <= SEPARABLE_RTOL:
        raise SolverError(f"direct solve residual {res_total:.3e} above {SEPARABLE_RTOL:.0e}",
                          residual=res_total)
    NR = rs.shape[0]
    values = np.zeros((NR, M, m))
    values[:-1] = sol[: (NR - 1) * M].reshape(NR - 1, M, m)
    values[-1] = bvals
    center_value = sol[-1] if center_mode == "unknown" else np.zeros(m)
    return CoverField(rs, np.arange(M) * (2.0 * np.pi / M), values, wrap, np.zeros(2),
                      center_value, config=config, boundary=boundary,
                      cuts=cuts, center_mode=center_mode,
                      solve_residual=res_total)


def cover_frequency(cf, radii):
    """Frequency profile of the cover solution about the grid center.

    H comes from the ring integral of |u|^2 = 2 v^2; D from the boundary
    flux identity int_{B_rho} |Du|^2 = int_{bdry} u D_R u, both on quadratic
    ring interpolants.
    """
    M = cf.thetas.shape[0]
    dth = 2.0 * np.pi / M
    radii = np.asarray(radii, dtype=float)
    D = np.zeros_like(radii)
    H = np.zeros_like(radii)
    for idx, rho in enumerate(radii):
        vals = np.stack([cf._radial_interp(rho, j) for j in range(M)])
        ders = np.stack([cf._radial_derivative(rho, j) for j in range(M)])
        # base-ring integrals carry the pair factor 2; n = 2 scalings
        H[idx] = (1.0 / rho) * 2.0 * float(np.sum(vals * vals)) * dth * rho
        D[idx] = 2.0 * float(np.sum(vals * ders)) * dth * rho
    return FrequencyProfile(np.zeros(2), radii, D, H, D / np.maximum(H, 1e-300))


def l2_error_vs_field(cf, fld):
    """Grid-weighted L2 pair distance between the cover data and a field."""
    NR, M, m = cf.values.shape
    rs, thetas = cf.rs, cf.thetas
    pts = PolarGrid(rs, thetas).nodes()
    s_exact = fld.symmetric_values(pts).reshape(NR, M, m)
    d_keep = np.sum((cf.values - s_exact) ** 2, axis=-1)
    d_swap = np.sum((cf.values + s_exact) ** 2, axis=-1)
    g2 = 2.0 * np.minimum(d_keep, d_swap)
    lower = np.empty(NR)
    upper = np.empty(NR)
    lower[0] = rs[0] / 2.0
    lower[1:] = 0.5 * (rs[:-1] + rs[1:])
    upper[:-1] = lower[1:]
    upper[-1] = rs[-1]
    w = ((upper - lower) * rs)[:, None] * (2.0 * np.pi / M)
    return float(np.sum(w * g2))


@dataclass
class BranchSearchResult:
    config: BranchConfiguration
    cover: CoverField
    energy: float
    trace: list
    degenerate: bool


def optimize_branch_points(boundary, initial, budget=40, step=None,
                           grid=CoverGridSpec(nr=48, ntheta=96), min_step=None):
    """Pattern search over branch-point coordinates minimizing solved energy.

    Moves one coordinate of one point at a time (best-improvement over the
    2 * 2 * npoints candidate moves); the step halves when no move improves.
    The energy trace is nonincreasing by construction.  A configuration is
    flagged degenerate when the solution stays bounded away from zero near
    every branch point (no genuine branching in the data).
    """
    R = boundary.radius
    pts = [np.asarray(p, dtype=float).copy() for p in initial.points]
    step = step if step is not None else 0.1 * R
    min_step = min_step if min_step is not None else R / (4.0 * grid.nr)

    def solve_for(points):
        cfg = BranchConfiguration([p.copy() for p in points])
        cov = solve_branched_laplace(boundary, cfg, grid=grid)
        return cfg, cov, energy(cov)

    cfg, cov, e = solve_for(pts)
    trace = [e]
    evals = 1
    while evals < budget and step > min_step:
        best = None
        for ip in range(len(pts)):
            for axis in range(2):
                for sgn in (+1.0, -1.0):
                    cand = [p.copy() for p in pts]
                    cand[ip][axis] += sgn * step
                    if np.linalg.norm(cand[ip]) >= 0.9 * R:
                        continue
                    if len(cand) == 2 and np.linalg.norm(cand[0] - cand[1]) < 1e-9:
                        continue
                    try:
                        trial = solve_for(cand)
                    except BoundaryLiftError:
                        continue
                    evals += 1
                    # relative margin: summation noise scales with the energy
                    if trial[2] < e - 1e-12 * abs(e) and (best is None or trial[2] < best[2]):
                        best = trial + (cand,)
                    if evals >= budget:
                        break
                if evals >= budget:
                    break
            if evals >= budget:
                break
        if best is None:
            step *= 0.5
        else:
            cfg, cov, e, pts = best[0], best[1], best[2], best[3]
            trace.append(e)
    # degeneracy probe: data with (near) zero symmetric part solves to zero
    # for every branch placement; otherwise genuine sqrt branching shows
    # local growth exponent 1/2 at each point, spurious placements ~1
    data_scale = float(np.max(np.abs(boundary.values)))
    if data_scale < 1e-12 or float(np.max(np.abs(cov.values))) < 1e-10 * max(data_scale, 1.0):
        degenerate = True
    else:
        degenerate = all(local_growth_exponent(cov, p) > 0.75 for p in cfg.points)
    return BranchSearchResult(cfg, cov, e, trace, degenerate)


def local_growth_exponent(cov, Z, nsamp=128):
    """Growth exponent of |v| on two circles around Z (1/2 = branching)."""
    R = float(cov.rs[-1])
    rz = float(np.linalg.norm(Z))
    cell = 2.0 * np.sqrt(max(rz, 0.05) * R) / cov.rs.shape[0]
    rho1 = max(3.0 * cell, 0.04 * R)
    rho2 = min(2.0 * rho1, 0.45 * (R - rz) + rho1)
    th = (np.arange(nsamp) + 0.5) * (2.0 * np.pi / nsamp)
    means = []
    for rho in (rho1, rho2):
        pts = Z[None, :] + rho * np.stack([np.cos(th), np.sin(th)], axis=-1)
        rr = np.linalg.norm(pts, axis=1)
        tt = np.mod(np.arctan2(pts[:, 1], pts[:, 0]), 2.0 * np.pi)
        vals = cov.value_at(rr, tt)
        means.append(float(np.mean(np.sum(vals * vals, axis=1))))
    if means[0] <= 0 or means[1] <= 0:
        return float("inf")
    return float(np.log(means[1] / means[0]) / (2.0 * np.log(rho2 / rho1)))
