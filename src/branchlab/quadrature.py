"""Quadrature rules on balls, disks and spheres in R^n, n in {2, 3, 4}.

The rules are tensor products: graded Gauss-Legendre in the radial
(x1,x2)-plane variable (nodes pulled toward r = 0, where the model fields
carry r^(2*alpha-2) gradient singularities), a uniform midpoint rule in each
angle (trapezoid-equivalent for periodic integrands, spectrally accurate and
exact for trigonometric polynomials of moderate degree), and Gauss-Legendre
with a sine substitution along the axis variables.

With the grading exponent GRADING = 2, every integrand that is a finite sum of
half-integer powers r^(k/2) times trigonometric factors becomes a polynomial
in the radial quadrature variable, so the model-field integrals of the lab
are computed to machine accuracy at modest node counts.

Summation uses numpy's pairwise reduction, which is deterministic for a
fixed node layout.  Large rules are also split into a fixed sequence of node
blocks (whole axis slabs of a ball, whole polar rows of a sphere), so an
integral can be reduced block by block with memory bounded by the block
size; the block sums are added in block order, so results stay reproducible.
"""

import functools
from dataclasses import dataclass

import numpy as np

# Node budget of one block; a single slab or row larger than this is a block.
BLOCK_NODES = 2 ** 17
# Node budget of one batch of right-hand sides in the separable cover solve
# (unknown ring nodes times columns); a column larger than this is a batch.
# Its complex work arrays take 16 bytes a node, so it is kept below
# BLOCK_NODES: the cover solver's peak memory is small.
SOLVE_BLOCK_NODES = 2 ** 15
# Radial grading exponent: radial nodes r = s^GRADING for Gauss-Legendre s in
# [0, 1], on the quadrature rules and on the cover solver's grid alike.
GRADING = 2.0


@functools.lru_cache(maxsize=64)
def _leggauss(n):
    """Gauss-Legendre nodes and weights on [-1, 1], computed once per order.

    The arrays are shared by every caller, so they are read-only.
    """
    x, w = np.polynomial.legendre.leggauss(n)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def gauss_legendre_01(n):
    """Gauss-Legendre nodes and weights on [0, 1]."""
    x, w = _leggauss(int(n))
    return (x + 1.0) / 2.0, w / 2.0


@dataclass(frozen=True)
class Ball:
    """Open ball B_radius(center) in R^n."""

    center: tuple
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", tuple(float(c) for c in self.center))
        object.__setattr__(self, "radius", float(self.radius))

    @property
    def n(self):
        return len(self.center)

    @property
    def center_array(self):
        return np.asarray(self.center, dtype=float)

    def contains_ball(self, other):
        """Whether other lies inside this ball, up to a slack of 1e-12."""
        d = float(np.linalg.norm(self.center_array - other.center_array))
        return d + other.radius <= self.radius + 1e-12


def unit_ball(n):
    return Ball((0.0,) * n, 1.0)


@dataclass(frozen=True)
class Rule:
    """Nodes (N, n) and weights (N,) of a quadrature rule."""

    points: np.ndarray
    weights: np.ndarray

    @property
    def size(self):
        return self.weights.shape[0]

    def integrate_values(self, vals):
        vals = np.asarray(vals, dtype=float)
        if vals.ndim == 1:
            return float(np.sum(self.weights * vals))
        return np.sum(self.weights[:, None] * vals.reshape(vals.shape[0], -1), axis=0)


def _polar_nodes(nr, ntheta, period=2.0 * np.pi):
    s, ws = gauss_legendre_01(nr)
    r01 = s ** GRADING
    wr01 = ws * GRADING * s ** (GRADING - 1.0)
    theta = (np.arange(ntheta) + 0.5) * (period / ntheta)
    wt = period / ntheta
    return r01, wr01, theta, wt


def disk_rule(center, radius, nr=48, ntheta=96):
    """Rule for the disk of given radius about center (a 2-vector)."""
    return ball_rule(Ball(tuple(center), radius), nr=nr, ntheta=ntheta)


def _axis_angles(n, planar, full):
    """Nodes of the n = 4 axis angle (phi of a ball slab, chi of a sphere row).

    One midpoint node of weight 2 pi is exact for a planar integrand, one of
    (x1, x2) alone; below n = 4 the rules have no such angle.
    """
    return full if n == 4 and not planar else 1


def _polar_slabs(ball, nr, ntheta, naxis, slabs=slice(None), planar=False,
                 period=2.0 * np.pi):
    """Disks graded by GRADING, stacked along a ball's axis variables; a disk is one slab.

    Returns the disk radii (slab, nr), the angles (ntheta,) over [0, period),
    the axis offsets of the slabs from the center (slab, phi, n - 2) and the
    weight of each node of a ring (slab, nr).  slabs and planar are as for
    ball_rule; period 4 pi gives the same slabs on the double cover.
    """
    n, rho = ball.n, ball.radius
    r01, wr01, theta, wt = _polar_nodes(nr, ntheta, period)
    if n == 2:
        y, wy, axis = np.zeros(1), np.ones(1), np.zeros((1, 1, 0))
    elif n == 3:
        # y = rho sin(psi) removes the sqrt endpoint behavior of the slab radius
        psi, wpsi = _leggauss(int(naxis))
        psi = psi[slabs] * (np.pi / 2.0)
        wpsi = wpsi[slabs] * (np.pi / 2.0)
        y = rho * np.sin(psi)
        wy = rho * np.cos(psi) * wpsi
        axis = y[:, None, None]
    else:
        # polar coordinates (rl, phi) in the (y1, y2)-plane as well
        sy, wsy = gauss_legendre_01(int(naxis))
        y = rho * sy[slabs]
        wy = rho * wsy[slabs]
        nphi = _axis_angles(n, planar, max(8, naxis))
        phi = (np.arange(nphi) + 0.5) * (2.0 * np.pi / nphi)
        axis = np.stack([y[:, None] * np.cos(phi), y[:, None] * np.sin(phi)], axis=-1)
    rho_l = np.sqrt(np.maximum(rho * rho - y * y, 0.0))
    keep = rho_l > 0.0
    rho_l, y, wy, axis = rho_l[keep], y[keep], wy[keep], axis[keep]
    r = rho_l[:, None] * r01
    w = rho_l[:, None] * wr01 * r * wt
    if n == 4:
        w = w * y[:, None] * wy[:, None] * (2.0 * np.pi / nphi)
    else:
        w = w * wy[:, None]
    return r, theta, axis, w


def ball_rule(ball, nr=48, ntheta=96, naxis=24, slabs=slice(None), planar=False):
    """Rule for a ball in R^n; axis variables handled by slabs of disks graded by GRADING.

    slabs selects a run of the axis slabs (all by default; ignored for the
    disk, which is one slab); the nodes of each slab come out in the same
    order whichever run they are built in.  planar=True collapses the n = 4
    axis angle, for integrands of (x1, x2) alone.
    """
    n = ball.n
    c = ball.center_array
    if n not in (2, 3, 4):
        raise ValueError(f"ball_rule supports n in (2, 3, 4), got n={n}")
    r, theta, axis, wslab = _polar_slabs(ball, nr, ntheta, naxis, slabs, planar)
    # nodes ordered (slab, phi, r, theta)
    shape = axis.shape[:2] + (nr, ntheta)
    pts = np.empty(shape + (n,))
    R = r[:, None, :, None]
    pts[..., 0] = c[0] + R * np.cos(theta)
    pts[..., 1] = c[1] + R * np.sin(theta)
    pts[..., 2:] = c[2:] + axis[:, :, None, None, :]
    w = np.broadcast_to(wslab[:, None, :, None], shape)
    return Rule(pts.reshape(-1, n), w.reshape(-1))


def sphere_rule(ball, nang=256, npolar=128, rows=slice(None), planar=False):
    """Rule for the boundary sphere of a ball in R^n.

    rows selects a run of the polar rows (a circle is one row) and planar
    collapses the n = 4 axis angle, as slabs and planar do for ball_rule.
    """
    n = ball.n
    c = ball.center_array
    rho = ball.radius
    theta = (np.arange(nang) + 0.5) * (2.0 * np.pi / nang)
    wth = 2.0 * np.pi / nang
    if n == 2:
        pts = np.stack(
            [c[0] + rho * np.cos(theta), c[1] + rho * np.sin(theta)], axis=-1
        )
        w = np.full(nang, rho * 2.0 * np.pi / nang)
        return Rule(pts, w)
    if n not in (3, 4):
        raise ValueError(f"sphere_rule supports n in (2, 3, 4), got n={n}")
    t, wpolar = _leggauss(int(npolar))
    t, wpolar = t[rows], wpolar[rows]
    if n == 3:
        # Gauss-Legendre in t = cos(polar angle): the area element becomes dt
        sint = np.sqrt(np.maximum(1.0 - t * t, 0.0))[:, None]
        pts = np.empty((t.shape[0], nang, 3))
        pts[..., 0] = c[0] + rho * sint * np.cos(theta)
        pts[..., 1] = c[1] + rho * sint * np.sin(theta)
        pts[..., 2] = (c[2] + rho * t)[:, None]
        w = np.broadcast_to((rho * rho * wpolar * wth)[:, None], pts.shape[:2])
        return Rule(pts.reshape(-1, 3), w.reshape(-1))
    # measure sin(psi) cos(psi) dpsi = -dtau/4 under tau = cos(2 psi)
    sinp = np.sqrt((1.0 - t) / 2.0)[:, None, None]
    cosp = np.sqrt((1.0 + t) / 2.0)[:, None, None]
    nchi = _axis_angles(n, planar, max(16, nang // 4))
    chi = (np.arange(nchi) + 0.5) * (2.0 * np.pi / nchi)
    wch = 2.0 * np.pi / nchi
    pts = np.empty((t.shape[0], nang, nchi, 4))
    pts[..., 0] = c[0] + rho * sinp * np.cos(theta)[:, None]
    pts[..., 1] = c[1] + rho * sinp * np.sin(theta)[:, None]
    pts[..., 2] = c[2] + rho * cosp * np.cos(chi)
    pts[..., 3] = c[3] + rho * cosp * np.sin(chi)
    w = np.broadcast_to((rho ** 3 * 0.25 * wpolar * wth * wch)[:, None, None], pts.shape[:3])
    return Rule(pts.reshape(-1, 4), w.reshape(-1))


def _blocks(count, per_slab):
    """Runs of whole slabs of at most BLOCK_NODES nodes; one slab if it is larger."""
    step = max(1, BLOCK_NODES // per_slab)
    return [slice(i, i + step) for i in range(0, count, step)]


def ball_blocks(ball, nr=48, ntheta=96, naxis=24, planar=False):
    """The ball rule as a fixed sequence of node blocks; a disk is one slab."""
    count = 1 if ball.n == 2 else int(naxis)
    per_slab = nr * ntheta * _axis_angles(ball.n, planar, max(8, naxis))
    for slabs in _blocks(count, per_slab):
        yield ball_rule(ball, nr, ntheta, naxis, slabs=slabs, planar=planar)


def sphere_blocks(ball, nang=256, npolar=128, planar=False):
    """The sphere rule as a fixed sequence of node blocks; a circle is one row."""
    count = 1 if ball.n == 2 else int(npolar)
    per_row = nang * _axis_angles(ball.n, planar, max(16, nang // 4))
    for rows in _blocks(count, per_row):
        yield sphere_rule(ball, nang, npolar, rows=rows, planar=planar)


def _sum_blocks(blocks, integrand):
    """Sum of the block integrals of integrand(points) -> (N,), in block order."""
    total = None
    for rule in blocks:
        part = rule.integrate_values(integrand(rule.points))
        total = part if total is None else total + part
    return total


@dataclass(frozen=True)
class QuadratureSpec:
    """Node counts for the rules used by an experiment; level doubles them."""

    nr: int = 48
    ntheta: int = 96
    naxis: int = 24
    nsphere: int = 256
    npolar: int = 128

    def refined(self, level):
        f = 2 ** int(level)
        return QuadratureSpec(
            nr=self.nr * f,
            ntheta=self.ntheta * f,
            naxis=self.naxis * f,
            nsphere=self.nsphere * f,
            npolar=self.npolar * f,
        )

    def ball(self, ball):
        return ball_rule(ball, nr=self.nr, ntheta=self.ntheta, naxis=self.naxis)

    def sphere(self, ball):
        return sphere_rule(ball, nang=self.nsphere, npolar=self.npolar)

    def integrate_ball(self, ball, integrand, planar=False):
        """Integral of integrand(points) -> (N,) over the ball, block by block."""
        return _sum_blocks(ball_blocks(ball, self.nr, self.ntheta, self.naxis, planar),
                           integrand)

    def integrate_sphere(self, ball, integrand, planar=False):
        """Integral of integrand(points) -> (N,) over the boundary sphere, block by block."""
        return _sum_blocks(sphere_blocks(ball, self.nsphere, self.npolar, planar), integrand)


def loglog_slope(x, y):
    """Least-squares slope of log y against log x."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    mask = (x > 0) & (y > 0)
    if int(np.sum(mask)) < 2:
        return float("nan")
    lx, ly = np.log(x[mask]), np.log(y[mask])
    A = np.stack([lx, np.ones_like(lx)], axis=1)
    sol, *_ = np.linalg.lstsq(A, ly, rcond=None)
    return float(sol[0])
