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
sign bookkeeping (edges crossing the cut arcs couple with a -1 sign).  Their
operator is the cut-free separable one plus a low-rank change on the flipped
edges, so they too solve directly, by the capacitance-matrix method on the
separable solver (solve_cut).  Both solvers factor the operator once and
return its solve(f); every configuration runs one checked body
(_checked_solve), which refines once only when some column's edge-sum
residual exceeds REFINE_RTOL and raises unless each is within SOLVE_RTOL of
its right-hand side.  solve_cut's Green's functions come in closed form
from the inverse of each Fourier mode's tridiagonal radial system
(_green_block).  The edge list of _cover_edges is the one description of
the operator: energy(), the right-hand side and the residual are sums over
it, no sparse matrix is built, and the module needs numpy alone."""

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import BoundaryLiftError, SolverError
from .fields import PolarGrid, SampledField, graded_radii
from .frequency import FrequencyProfile
from .pairspace import metric_sq_symmetric
from .quadrature import SOLVE_BLOCK_NODES, _midpoints, _ring_points

SOLVE_RTOL = 1e-10
REFINE_RTOL = 1e-13


# ---------------------------------------------------------------------------
# Boundary data


class BoundaryTrace:
    """Lifted boundary values on theta in [0, 4pi) at radius R."""

    def __init__(self, thetas, values, radius):
        self.thetas = np.asarray(thetas, dtype=float)
        self.values = np.asarray(values, dtype=float).reshape(self.thetas.shape[0], -1)
        self.radius = float(radius)
        self.m = self.values.shape[1]
        self._parity = None

    @classmethod
    def from_field(cls, fld, radius):
        """fld's lift at 4096 angles of [0, 4pi) on the circle of this radius."""
        thetas = np.arange(4096) * (4.0 * np.pi / 4096)
        return cls(thetas, fld.lift(np.full(4096, radius), thetas), radius)

    def parity(self):
        """+1 if g(theta + 2pi) = g(theta), -1 if = -g(theta), to 1e-8 of the
        data's scale; else error.  Read from the trace on the first call and
        kept, since every solve on the trace asks for it; a trace that is
        neither raises at every call."""
        if self._parity is None:
            half = self.thetas < 2.0 * np.pi
            g0 = self._interp(self.thetas[half])
            g1 = self._interp(self.thetas[half] + 2.0 * np.pi)
            scale = max(float(np.max(np.abs(self.values))), 1e-300)
            if np.max(np.abs(g1 + g0)) <= 1e-8 * scale:
                self._parity = -1
            elif np.max(np.abs(g1 - g0)) <= 1e-8 * scale:
                self._parity = 1
            else:
                raise BoundaryLiftError(
                    "boundary data is neither periodic nor anti-periodic over 2pi "
                    f"(defects {np.max(np.abs(g1 - g0)):.2e} / {np.max(np.abs(g1 + g0)):.2e})"
                )
        return self._parity

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

    def is_centered_single(self):
        return len(self.points) == 1 and float(np.linalg.norm(self.points[0])) <= 1e-12

    def cuts(self, anchor):
        """Cut segments: point-to-point for two points, else from the point
        to the boundary anchor (unused for two points)."""
        if len(self.points) == 2:
            return [(self.points[0], self.points[1])]
        if self.is_centered_single():
            return []
        return [(self.points[0], np.asarray(anchor, dtype=float))]


# ---------------------------------------------------------------------------
# Grid, edges and assembly


@dataclass
class CoverGridSpec:
    nr: int = 96
    ntheta: int = 192

    def radii(self, R):
        return graded_radii(self.nr, R)


def _deflect_cuts(cuts, rs):
    """Bend cut segments that pass near the grid center around it.

    A cut through the center node makes the crossing parity of the center
    spokes ill defined; replacing the offending segment by a two-leg
    polyline with a small generic offset keeps the homotopy class (same
    crossing parity for every loop) while clearing the node.
    """
    clearance = float(rs[min(2, len(rs) - 1)])
    R_out = float(rs[-1])
    nudge = _ring_points(0.23 * float(rs[0]), 1.234, np.zeros(0))
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


def _ring_bands(rs):
    """Radial band (lower, upper) of each ring: between the midpoints to its
    neighbours, from rs[0] / 2 for ring 0 and up to rs[-1] for the last."""
    r_mid = 0.5 * (rs[:-1] + rs[1:])
    return np.concatenate([[rs[0] / 2.0], r_mid]), np.concatenate([r_mid, [rs[-1]]])


def _ring_weights(rs, M):
    """Edge weights of the polar cover grid, which depend only on the ring.

    g_c weighs each center spoke (center -> ring 0), g_r[i] each radial edge
    ring i -> ring i+1, and g_a[i] each angular edge within ring i, weighted
    by the ring's radial band.
    """
    dth = 2.0 * np.pi / M
    g_c = dth * (rs[0] / 2.0) / rs[0]
    lower, upper = _ring_bands(rs)
    g_r = dth * lower[1:] / (rs[1:] - rs[:-1])
    g_a = (upper - lower) / (rs * dth)
    return g_c, g_r, g_a


def _edge_segments(rs, M):
    """End points (p, q) of every edge of the polar cover grid, in
    _cover_edges' order; a center spoke starts at the origin."""
    jn = (np.arange(M) + 1) % M
    thetas = np.arange(M) * (2.0 * np.pi / M)
    xy = _ring_points(rs[:, None], thetas, np.zeros(0))
    p = np.concatenate([np.zeros((M, 2)), xy[:-1].reshape(-1, 2), xy.reshape(-1, 2)])
    q = np.concatenate([xy[0], xy[1:].reshape(-1, 2), xy[:, jn].reshape(-1, 2)])
    return p, q


def _cut_flips(rs, M, cuts):
    """Indices, in _cover_edges' order, of the edges that cross the cuts an
    odd number of times: the edges whose coupling the cuts flip."""
    return np.flatnonzero(_crossing_signs(*_edge_segments(rs, M), cuts) < 0)


def _cover_edges(rs, M, wrap_sign, flipped=()):
    """Edges (a, b, g, sigma) of the polar cover grid, as arrays.

    Edge k carries the energy term g[k] (sigma[k] v[b[k]] - v[a[k]])^2.
    Rings 0..NR-2 are unknown (node (i, j) has id i * M + j) and ring NR-1
    is Dirichlet, encoded by negative ids: boundary node j -> -1 - j.
    The wrap sign sets the center: anti-periodic data (wrap_sign -1, a
    branch point at the center) pin v(0) = 0 through the Dirichlet slot
    -1 - M; periodic data (+1) make the center value one extra unknown, the
    last.  Order: center spokes, radial edges, angular edges, each ring by
    ring.  flipped (from _cut_flips) lists the edges whose sign the cuts
    flip.
    """
    NR = rs.shape[0]
    n_ring_unknowns = (NR - 1) * M
    ids = np.arange(NR * M).reshape(NR, M)
    ids[-1] = -1 - np.arange(M)
    jn = (np.arange(M) + 1) % M
    g_c, g_r, g_a = _ring_weights(rs, M)

    if wrap_sign == 1:
        a_c, b_c, s_c = np.full(M, n_ring_unknowns), ids[0], np.ones(M)
    else:
        # (v_{0j} - 0)^2: sigma 0 couples to the pinned value 0
        a_c, b_c, s_c = ids[0], np.full(M, -1 - M), np.zeros(M)
    s_a = np.where(jn == 0, float(wrap_sign), 1.0)

    a = np.concatenate([a_c, ids[:-1].ravel(), ids.ravel()])
    b = np.concatenate([b_c, ids[1:].ravel(), ids[:, jn].ravel()])
    g = np.concatenate([np.full(M, g_c), np.repeat(g_r, M), np.repeat(g_a, M)])
    sigma = np.concatenate([s_c, np.ones((NR - 1) * M), np.tile(s_a, NR)])
    sigma[np.asarray(flipped, dtype=np.intp)] *= -1.0
    return a, b, g, sigma


def _edge_residual(edges, x, dirichlet):
    """rhs - A x of the cover problem for unknowns x, as an edge sum.

    v = [x; Dirichlet slots] is energy()'s layout.  With d = sigma v[b] - v[a],
    edge k adds g d to row a and -g sigma d to row b (sigma is then +-1),
    one np.bincount per end in edge order; a Dirichlet end adds to an extra
    bin, which is dropped.  At x = 0 every b-end term is +-0: the right-hand
    side, untouched entries +0.0.
    """
    a, b, g, sigma = edges
    n = x.shape[0]
    v = np.concatenate([x, dirichlet])
    ra, rb = np.where(a >= 0, a, n), np.where(b >= 0, b, n)
    out = np.empty(x.shape)
    for k in range(x.shape[1]):
        w = v[b, k]
        w *= sigma
        w -= v[a, k]
        w *= g
        out[:, k] = np.bincount(ra, weights=w, minlength=n + 1)[:n]
        w *= sigma
        np.negative(w, out=w)
        out[:, k] += np.bincount(rb, weights=w, minlength=n + 1)[:n]
    return out


def _dirichlet_slots(bvals):
    """Dirichlet values indexed by their negative ids: row -1 - j is node j.

    Slot -1 - M holds the pinned zero of an anti-periodic solve's center.
    """
    return np.concatenate([np.zeros((1, bvals.shape[1])), bvals[::-1]])


@dataclass
class CoverField:
    """Single-valued data on the branched cover of a disk about the origin,
    stored on one sheet; to_two_valued() reads it between the grid nodes."""

    rs: np.ndarray            # ring radii, rs[-1] = outer radius
    thetas: np.ndarray        # M angles on [0, 2pi)
    values: np.ndarray        # (NR, M, m) including the boundary ring
    wrap_sign: int            # theta-wraparound coupling (-1 = anti-periodic)
    center_value: np.ndarray  # value at r = 0
    flipped: tuple = ()       # edges whose sign the cuts flip (_cut_flips)
    solve_residual: float = 0.0

    @property
    def m(self):
        return self.values.shape[2]

    def _radial_interp(self, r):
        """Every angle column at one radius r: linear in r, toward
        center_value inside rs[0]."""
        rs = self.rs
        if r <= rs[0]:
            t = r / rs[0]
            return (1 - t) * self.center_value + t * self.values[0]
        i = min(int(np.searchsorted(rs, r)) - 1, rs.shape[0] - 2)
        t = (r - rs[i]) / (rs[i + 1] - rs[i])
        return (1 - t) * self.values[i] + t * self.values[i + 1]

    def _radial_derivative(self, r):
        """d/dr of the quadratic through the three rings around r, per angle."""
        rs = self.rs
        i = int(np.searchsorted(rs, r)) - 1
        i = min(max(i, 1), rs.shape[0] - 2)
        r0, r1, r2 = rs[i - 1], rs[i], rs[i + 1]
        v0, v1, v2 = self.values[i - 1], self.values[i], self.values[i + 1]
        # derivative of the Lagrange quadratic at r
        d0 = (2 * r - r1 - r2) / ((r0 - r1) * (r0 - r2))
        d1 = (2 * r - r0 - r2) / ((r1 - r0) * (r1 - r2))
        d2 = (2 * r - r0 - r1) / ((r2 - r0) * (r2 - r1))
        return d0 * v0 + d1 * v1 + d2 * v2

    def to_two_valued(self):
        grid = PolarGrid(self.rs, self.thetas)
        return SampledField(grid, self.values[None].copy(), hol=self.wrap_sign)


def energy(cf):
    """Discrete two-valued Dirichlet energy (both selections on the base)."""
    a, b, g, sigma = _cover_edges(cf.rs, cf.thetas.shape[0], cf.wrap_sign, cf.flipped)
    parts = [cf.values[:-1].reshape(-1, cf.m)]
    if cf.wrap_sign == 1:
        parts.append(cf.center_value[None, :])
    # negative ids count from the end, into the Dirichlet slots
    v = np.concatenate(parts + [_dirichlet_slots(cf.values[-1])])
    diff = sigma[:, None] * v[b] - v[a]
    return 2.0 * float(np.sum(g * np.sum(diff * diff, axis=1)))


def _boundary_values_with_cuts(btr, M, flipped, n_edges):
    """Dirichlet values at the boundary angles, with sign flips at cut crossings.

    The crossings are the solve's own: the angular edges of the boundary
    ring are the last M of the n_edges edges in _cover_edges' order, so the
    flipped indices at or above n_edges - M mark them.  The lifted values
    must be continuous along the circle away from the cut crossings (a flip
    is legal at a zero of the data); a large jump anywhere else means the
    cut layout cannot carry the data and is rejected.
    """
    g = btr.sample_half(M)
    cut_edge = np.zeros(M, dtype=bool)
    cut_edge[flipped[flipped >= n_edges - M] - (n_edges - M)] = True
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
        return _ring_points(1.5 * R, th, np.zeros(0))
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
    return _ring_points(1.5 * R, th, np.zeros(0))


def _batch_columns(nring, M):
    """Columns of nring x M nodes per batch: SOLVE_BLOCK_NODES over the
    nodes of one column, at least one.  A separable solve batches its
    right-hand sides by it, _green_block its source rings."""
    return max(1, SOLVE_BLOCK_NODES // max(nring * M, 1))


def _radial_sweep(rs, M, wrap_sign):
    """The forward sweep of every Fourier mode's symmetric tridiagonal
    radial system: (piv, ratio), shape (nring, M, 1).

    Mode k's diagonal is the radial weights plus the angular eigenvalue
    2 (1 - cos(2 pi (k + h) / M)) g_a[i] (see solve_separable), less the
    eliminated center unknown's g_c at mode 0 of ring 0 when wrap_sign is
    +1; -g_r[i] couples ring i to ring i + 1.  The sweep turns the diagonal
    into its pivots in place, piv[i] = diag[i] - g_r[i-1]^2 / piv[i-1], and
    ratio[i] is -g_r[i] / piv[i]; no second (nring, M) array is held.
    """
    g_c, g_r, g_a = _ring_weights(rs, M)
    nring = rs.shape[0] - 1
    h = 0.5 if wrap_sign == -1 else 0.0
    lam = 2.0 * (1.0 - np.cos(2.0 * np.pi * (np.arange(M) + h) / M))
    inner = np.concatenate([[g_c], g_r[:-1]])  # weight towards the center
    diag = (inner + g_r)[:, None] + g_a[:nring, None] * lam
    if wrap_sign == 1 and nring:
        diag[0, 0] -= g_c
    off = -g_r[:-1]
    piv = diag[:, :, None]
    ratio = np.empty_like(piv)
    for i in range(1, nring):
        ratio[i - 1] = off[i - 1] / piv[i - 1]
        piv[i] -= off[i - 1] * ratio[i - 1]
    return piv, ratio


def solve_separable(rs, M, wrap_sign, sweep=None):
    """Direct solver of the centred cover system, in _cover_edges' unknown
    layout: factors it once and returns solve(rhs), which does not refine.

    Every ring carries the same angular operator, so Fourier modes in theta
    diagonalize it: mode k of ring i has the angular eigenvalue
    2 (1 - cos(2 pi (k + h) / M)) g_a[i], with h = 1/2 after the twist
    e^{-i pi j / M} that makes anti-periodic data periodic, else h = 0.  Each
    mode leaves one tridiagonal radial system over the unknown rings; its
    forward sweep (_radial_sweep, or sweep) serves every column.  An
    anti-periodic solve (wrap_sign -1) pins the center to 0.  A periodic one
    makes it an unknown, which couples only to mode 0 of ring 0, through its
    row M g_c v_c - g_c sum_j v_0j = f_c, and is eliminated from it: f_c / M
    joins every ring-0 row (f_c is +0.0 in a centred right-hand side, so this
    changes none of its bits).  solve(rhs) runs batches of _batch_columns
    columns, one FFT over (rings, M, batch) and one radial sweep each,
    within SOLVE_BLOCK_NODES nodes unless one column is larger; the result
    is bit for bit that of solving one column at a time.
    """
    g_c, g_r, _ = _ring_weights(rs, M)
    nring = rs.shape[0] - 1
    h = 0.5 if wrap_sign == -1 else 0.0
    twist = np.exp(-2j * np.pi * h * np.arange(M) / M)[:, None]
    off = -g_r[:-1]
    piv, ratio = sweep if sweep is not None else _radial_sweep(rs, M, wrap_sign)
    step = _batch_columns(nring, M)

    def solve(rhs):
        sol = np.empty(rhs.shape)
        ncol = rhs.shape[1]
        for k0 in range(0, ncol, step):
            cols = slice(k0, min(k0 + step, ncol))
            K = cols.stop - k0
            f = twist * rhs[: nring * M, cols].reshape(nring, M, K)
            if wrap_sign == 1 and nring:
                f[0] += rhs[-1, cols] / M  # the eliminated center row's f_c
            f = np.fft.fft(f, axis=1)
            if nring:
                f[0] /= piv[0]
            for i in range(1, nring):
                f[i] -= off[i - 1] * f[i - 1]
                f[i] /= piv[i]
            for i in range(nring - 2, -1, -1):
                f[i] -= ratio[i] * f[i + 1]
            u = np.fft.ifft(f, axis=1)
            u *= np.conj(twist)
            sol[: nring * M, cols] = u.real.reshape(nring * M, K)
        if wrap_sign == 1:
            # ring 0's sum in row order for any column count (a lone column's
            # sum would go pairwise); none when ring 0 is the boundary
            ring0 = np.cumsum(sol[:M], axis=0)[-1] if nring else 0.0
            sol[-1] = (rhs[-1] + g_c * ring0) / (M * g_c)
        return sol

    return solve


def _green_block(rs, M, sweep, idx):
    """G = P A0^-1 P^T for the unknowns idx, read from the inverses of A0's
    tridiagonal radial systems with no solve; A0 is the cut-free operator
    (wrap +1, the center unknown) and sweep its _radial_sweep.

    A0 commutes with rotation by 2 pi / M, so column (i', j') of A0^-1 is
    the Green's function g_i' of the delta at (i', 0), turned by j':
    G[(i, j), (i', j')] = g_i'(i, j - j').  The delta is e_i' in every
    Fourier mode, so g_i'(i, .) is the inverse FFT over the modes k of
    (T_k^-1)_{i i'}, T_k mode k's radial system; T_k = T_{M-k}, so g_i' is
    real and modes 0..M/2 give it (irfft).  With d the forward pivots and e
    the backward ones, (T^-1)_jj = 1 / (d_j + e_j - T_jj), T_jj taken back
    from d_j = T_jj - g_r[j-1]^2 / d_{j-1}, and, for i < j,
    (T^-1)_ij = (T^-1)_jj prod_{l=i}^{j-1} g_r[l] / d_l, T^-1 symmetric
    (Meurant 1992).  Each product is the exponential of a difference of
    cumulative log sums, so distant entries underflow to 0 and never
    overflow.  The center couples to mode 0 of ring 0 alone: its row and
    column are column 0 of T_0^-1 over M, and its own entry is
    (1 + g_c (T_0^-1)_00) / (M g_c).  Source rings go in chunks of at most
    SOLVE_BLOCK_NODES (touched rings x chunk x M) nodes, at least one ring.
    """
    g_c, g_r, _ = _ring_weights(rs, M)
    nring = rs.shape[0] - 1
    nk = M // 2 + 1
    d = sweep[0][:, :nk, 0]
    a_less_d = np.zeros_like(d)
    a_less_d[1:] = g_r[:-1, None] ** 2 / d[:-1]
    e = d + a_less_d
    for i in range(nring - 2, -1, -1):
        e[i] -= g_r[i] ** 2 / e[i + 1]
    inv_diag = 1.0 / (e - a_less_d)
    log_prod = np.zeros((nring, nk))
    np.cumsum(np.log(g_r[:-1, None] / d[:-1]), axis=0, out=log_prod[1:])
    col0 = inv_diag[:, 0] * np.exp(log_prod[:, 0])  # column 0 of T_0^-1

    ring, col = np.divmod(idx, M)  # the center, id nring * M, is (nring, 0)
    rings, pos = np.unique(ring, return_inverse=True)
    sources = rings[rings < nring]  # rings[-1] is nring when the center is touched
    step = _batch_columns(rings.shape[0], M)
    G = np.empty((idx.shape[0], idx.shape[0]))
    for s0 in range(0, sources.shape[0], step):
        batch = sources[s0:s0 + step]
        hi = np.maximum(sources[:, None], batch)
        lo = np.minimum(sources[:, None], batch)
        green = np.empty((rings.shape[0], batch.shape[0], M))
        green[:sources.shape[0]] = np.fft.irfft(
            inv_diag[hi] * np.exp(log_prod[hi] - log_prod[lo]), n=M, axis=-1)
        green[sources.shape[0]:] = col0[batch, None] / M  # the center's row
        cols = np.flatnonzero((pos >= s0) & (pos < s0 + batch.shape[0]))
        G[:, cols] = green[pos[:, None], pos[cols] - s0, (col[:, None] - col[cols]) % M]
    on_ring = ring < nring
    if not np.all(on_ring):
        center = np.flatnonzero(~on_ring)
        G[np.ix_(on_ring, center)] = col0[ring[on_ring], None] / M
        G[np.ix_(center, center)] = (1.0 + g_c * (col0[0] if nring else 0.0)) / (M * g_c)
    return G


def solve_cut(rs, M, edges):
    """Direct solver of a cut configuration by the capacitance-matrix method:
    builds the capacitance matrix once and returns solve(f).

    The operator is A = A0 + dA: A0 the cut-free one (wrap +1, the center
    unknown) that solve_separable solves, and dA = P^T dA_k P the change on
    the flipped edges between two unknowns, +2g at (a, b) and (b, a), over
    the k unknowns idx they touch.  With G = P A0^-1 P^T, read in closed
    form from the inverses of A0's tridiagonal radial systems with no
    per-ring solve (_green_block):
    y0 = A0^-1 f, (I + G dA_k) z = y0[idx], x = A0^-1 (f - P^T dA_k z)
    (Buzbee, Dorr, George & Golub 1971; Proskurowski & Widlund 1976).
    The rounding error of G, times dA_k, can leave a residual above that of
    a sparse LU solve, which _checked_solve refines.  A singular capacitance
    system makes solve raise SolverError.
    """
    a, b, g, sigma = edges
    cut = (sigma < 0) & (a >= 0) & (b >= 0)
    idx, local = np.unique(np.concatenate([a[cut], b[cut]]), return_inverse=True)
    k = idx.shape[0]
    sweep = _radial_sweep(rs, M, 1)
    solve0 = solve_separable(rs, M, 1, sweep)
    if k == 0:
        return solve0
    la, lb = np.split(local, 2)
    w = 2.0 * g[cut]
    dA = np.zeros((k, k))
    np.add.at(dA, (la, lb), w)
    np.add.at(dA, (lb, la), w)
    C = np.eye(k) + _green_block(rs, M, sweep, idx) @ dA

    def solve(f):
        try:
            z = np.linalg.solve(C, solve0(f)[idx])
        except np.linalg.LinAlgError as exc:
            raise SolverError(f"capacitance system of rank k = {k} is singular ({exc})") from exc
        f = f.copy()
        f[idx] -= dA @ z
        return solve0(f)

    return solve


def _checked_solve(solve, edges, rhs, dirichlet):
    """x = solve(rhs), refined once to x + solve(r) only when some column's
    edge-sum residual r_k exceeds REFINE_RTOL |rhs_k|, and the relative
    residual of all columns.  A column still above SOLVE_RTOL |rhs_k| raises
    SolverError with its relative residual."""
    norms = np.maximum(np.linalg.norm(rhs, axis=0), 1e-300)
    x = solve(rhs)
    r = _edge_residual(edges, x, dirichlet)
    if np.max(np.linalg.norm(r, axis=0) / norms) > REFINE_RTOL:
        x = x + solve(r)
        r = _edge_residual(edges, x, dirichlet)
    worst = float(np.max(np.linalg.norm(r, axis=0) / norms))
    if not worst <= SOLVE_RTOL:
        raise SolverError(f"direct solve residual {worst:.3e} above {SOLVE_RTOL:.0e}",
                          residual=worst)
    return x, float(np.linalg.norm(r) / max(np.linalg.norm(rhs), 1e-300))


def cg(matvec, b, x0, inv_diag, callback=None):
    """Jacobi-preconditioned conjugate gradients (Hestenes & Stiefel 1952)
    for A x = b from x0, with A v = matvec(v) symmetric positive definite
    and inv_diag the inverse of its diagonal.

    Returns (x, info) on the protocol of scipy.sparse.linalg.cg with rtol
    SOLVE_RTOL and atol 0: info = 0 once |b - A x| < SOLVE_RTOL |b| (x = 0
    for b = 0), else the 10 n steps taken.  callback(x) follows each step.
    No solve in the lab calls it: every configuration solves directly.  It
    stays while the benchmark tracer (perfbench/spans.py) wraps it by name.
    """
    b = np.ascontiguousarray(b, dtype=float)
    bnorm = np.linalg.norm(b)
    if bnorm == 0:
        return np.zeros_like(b), 0
    tol = SOLVE_RTOL * bnorm
    x = np.array(x0, dtype=float)
    r = b - matvec(x) if x.any() else b.copy()
    steps = 10 * b.shape[0]
    for step in range(steps):
        if np.linalg.norm(r) < tol:
            return x, 0
        z = inv_diag * r
        rho = np.dot(r, z)
        if step:
            p *= rho / rho_prev
            p += z
        else:
            p = z.copy()
        q = matvec(p)
        alpha = rho / np.dot(p, q)
        x += alpha * p
        r -= alpha * q
        rho_prev = rho
        if callback:
            callback(x)
    return x, steps


def solve_branched_laplace(boundary, config=None, grid=CoverGridSpec()):
    """Discrete energy minimizer on the cover with the prescribed branch set.

    boundary is a BoundaryTrace (lifted values on [0, 4pi)); config defaults
    to a single branch point at the disk center.  The trace's parity is read
    first, so data that are neither periodic nor anti-periodic raise
    BoundaryLiftError for every configuration.  A centred configuration
    solves directly on the polar grid of the parity's wrap sign
    (solve_separable): anti-periodic data with the center pinned to 0,
    periodic data as the decoupled single-valued harmonic extension.  A
    configuration with cuts solves on the periodic grid with its flipped
    edges (solve_cut).  The right-hand side and the residual are edge sums
    (_edge_residual), refined once only when needed (_checked_solve); a
    column whose residual exceeds SOLVE_RTOL times its right-hand side
    raises SolverError with that column's relative residual.
    solve_residual is the relative residual of all columns.
    """
    config = config or BranchConfiguration([np.zeros(2)])
    R = boundary.radius
    parity = boundary.parity()
    rs = grid.radii(R)
    M = grid.ntheta
    m = boundary.m
    centred = config.is_centered_single()
    flipped = ()
    if not centred:
        anchor = None
        if len(config.points) == 1:
            anchor = _anchor_for_single_point(boundary, config.points[0], R, parity)
        flipped = _cut_flips(rs, M, _deflect_cuts(config.cuts(anchor), rs))
    wrap = parity if centred else 1
    edges = _cover_edges(rs, M, wrap, flipped)
    bvals = (boundary.sample_half(M) if centred
             else _boundary_values_with_cuts(boundary, M, flipped, edges[0].shape[0]))
    NR = rs.shape[0]
    dirichlet = _dirichlet_slots(bvals)
    rhs = _edge_residual(edges, np.zeros(((NR - 1) * M + (wrap == 1), m)), dirichlet)
    solve = solve_separable(rs, M, wrap) if centred else solve_cut(rs, M, edges)
    sol, res_total = _checked_solve(solve, edges, rhs, dirichlet)
    values = np.zeros((NR, M, m))
    values[:-1] = sol[: (NR - 1) * M].reshape(NR - 1, M, m)
    values[-1] = bvals
    center_value = sol[-1] if wrap == 1 else np.zeros(m)
    return CoverField(rs, np.arange(M) * (2.0 * np.pi / M), values, wrap, center_value,
                      flipped=flipped, solve_residual=res_total)


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
        vals = cf._radial_interp(rho)
        ders = cf._radial_derivative(rho)
        # base-ring integrals carry the pair factor 2; n = 2 scalings
        H[idx] = (1.0 / rho) * 2.0 * float(np.sum(vals * vals)) * dth * rho
        D[idx] = 2.0 * float(np.sum(vals * ders)) * dth * rho
    return FrequencyProfile(np.zeros(2), radii, D, H, D / np.maximum(H, 1e-300))


def l2_error_vs_field(cf, fld):
    """Grid-weighted L2 pair distance between the cover data and a field."""
    grid = PolarGrid(cf.rs, cf.thetas)
    s_exact = grid.on_grid(fld.symmetric_values(grid.nodes()))[0]
    g2 = metric_sq_symmetric(cf.values, s_exact)
    lower, upper = _ring_bands(cf.rs)
    w = ((upper - lower) * cf.rs)[:, None] * (2.0 * np.pi / cf.thetas.shape[0])
    return float(np.sum(w * g2))


@dataclass
class BranchSearchResult:
    config: BranchConfiguration
    cover: CoverField
    energy: float
    trace: list
    degenerate: bool


def optimize_branch_points(boundary, initial, budget=40, step=None,
                           grid=CoverGridSpec(nr=48, ntheta=96)):
    """Pattern search over branch-point coordinates minimizing solved energy.

    Moves one coordinate of one point at a time (best-improvement over the
    2 * 2 * npoints candidate moves); the step halves when no move improves,
    and the search stops once the step is at most R / (4 nr) or the budget of
    solves is spent.
    The energy trace is nonincreasing by construction.  A configuration is
    flagged degenerate when the solution stays bounded away from zero near
    every branch point (no genuine branching in the data).
    """
    R = boundary.radius
    pts = [np.asarray(p, dtype=float).copy() for p in initial.points]
    step = step if step is not None else 0.1 * R
    min_step = R / (4.0 * grid.nr)

    def solve_for(points):
        cfg = BranchConfiguration([p.copy() for p in points])
        cov = solve_branched_laplace(boundary, cfg, grid=grid)
        return cfg, cov, energy(cov)

    cfg, cov, e = solve_for(pts)
    trace = [e]
    evals = 1
    while evals < budget and step > min_step:
        best = None
        for ip, axis, sgn in itertools.product(range(len(pts)), range(2), (+1.0, -1.0)):
            if evals >= budget:
                break
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


def local_growth_exponent(cov, Z):
    """Growth exponent of |v| on two circles of 128 points around Z (1/2 = branching)."""
    R = float(cov.rs[-1])
    rz = float(np.linalg.norm(Z))
    cell = 2.0 * np.sqrt(max(rz, 0.05) * R) / cov.rs.shape[0]
    rho1 = max(3.0 * cell, 0.04 * R)
    rho2 = min(2.0 * rho1, 0.45 * (R - rz) + rho1)
    th = _midpoints(128)[0]
    sf = cov.to_two_valued()
    means = []
    for rho in (rho1, rho2):
        pts = Z[None, :] + _ring_points(rho, th, np.zeros(0))
        vals = sf.symmetric_values(pts)  # |v|^2 does not depend on the sheet
        means.append(float(np.mean(np.sum(vals * vals, axis=1))))
    if means[0] <= 0 or means[1] <= 0:
        return float("inf")
    return float(np.log(means[1] / means[0]) / (2.0 * np.log(rho2 / rho1)))
