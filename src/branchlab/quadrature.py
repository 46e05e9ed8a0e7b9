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

Every node set is a table of rings in the (x1, x2)-plane about axis
points, from _ball_rings and _sphere_rings: a ring of radius a at axis
offset y carries the nodes c + (a cos theta, a sin theta, y), theta
innermost.  A ball is a stack of disks, each nr rings (the ball itself at
n = 2, one psi node at n = 3, one (axis radius, phi) pair at n = 4); a
sphere is a stack of circles (one t node at n = 3, one (t, chi) pair at
n = 4).  _ring_points(r, theta, y), y (..., n - 2) at every n, builds every
polar point of the lab: rule nodes, grids, curves, loops and cover frames.

For an integrand of (x1, x2) alone (planar=True) the n = 4 rules collapse
their axis angle to one node, and the n = 3 rules fold onto their mirror
half: numpy's Gauss-Legendre nodes are exactly antisymmetric, so the disk at
-psi (the circle at -t) repeats the (x1, x2) nodes and weights of the one at
psi, and only the non-positive half is kept, with doubled weights.

Summation uses numpy's pairwise reduction, which is deterministic for a
fixed node layout.  Rules are split into a fixed sequence of node blocks,
each a run of whole disks of a ball or whole circles of a sphere within a
cache-sized budget; every integral is reduced block by block
(QuadratureSpec.integrate_ball/_sphere), in block order, with memory bounded
by the block size, as are spectral's cover integrals.  fit_rotation is the
only whole-rule builder: its least-squares node set is a whole ball_rule.
"""

import functools
from dataclasses import dataclass

import numpy as np

# Node budget of one block, one default disk (48 x 96 nodes) rounded up, so
# that an integrand's temporaries stay cache-sized; a single disk or circle
# larger than this, at a refined spec, is a block.
BLOCK_NODES = 2 ** 13
# Node budget of one batch of right-hand sides in the separable cover solve
# (unknown ring nodes times columns); a column larger than this is a batch.
# Its complex work arrays take 16 bytes a node, half a MiB a batch: the cover
# solver's peak memory is small.
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
        """The integral of vals (N,), or of each row of vals (k, N) to the bits of the row alone."""
        vals = np.asarray(vals, dtype=float)
        if vals.ndim == 1:
            return float(np.sum(self.weights * vals))
        return np.sum(self.weights * vals, axis=-1)


def _midpoints(count, period=2.0 * np.pi):
    """count midpoint nodes over [0, period) and their common weight."""
    return (np.arange(count) + 0.5) * (period / count), period / count


def disk_rule(center, radius, nr=48, ntheta=96):
    """Rule for the disk of given radius about center (a 2-vector)."""
    return ball_rule(Ball(tuple(center), radius), nr=nr, ntheta=ntheta)


def _axis_nodes(n, planar, count):
    """Gauss-Legendre nodes and weights on [-1, 1] of a ball's axis angle psi
    at n = 3, and of a sphere's polar variable t at n = 3 and 4.

    Planar at n = 3, the rule folds onto its non-positive half: the nodes
    are exactly antisymmetric and the weights symmetric, so the disk at -psi
    (the circle at -t) has the (x1, x2) nodes and weights of the one at psi
    and its weight doubles; the middle node 0 of an odd count keeps its
    weight.  Planar at n = 4, the rules collapse their axis angle (phi, chi)
    to one midpoint node of weight 2 pi instead, exact for an integrand of
    (x1, x2) alone.
    """
    x, w = _leggauss(int(count))
    if n != 3 or not planar:
        return x, w
    x = x[:(x.shape[0] + 1) // 2]
    return x, w[:x.shape[0]] * np.where(x < 0.0, 2.0, 1.0)


def _ball_rings(ball, nr, ntheta, naxis, disks=slice(None), planar=False,
                period=2.0 * np.pi):
    """The ring table of a ball: disks graded by GRADING, stacked along the axis variables.

    A disk is the whole ball at n = 2, one psi node at n = 3 and one (axis
    radius, phi) pair at n = 4, phi innermost; disks selects a run of them
    (ignored at n = 2).  Returns the ring radii (disk, nr), the axis offsets
    of the disks from the center (disk, n - 2), the weight of each node of a
    ring (disk, nr) and the angles (ntheta,) over [0, period); period 4 pi
    gives the same rings on the double cover.
    """
    n, rho = ball.n, ball.radius
    s, ws = gauss_legendre_01(nr)
    theta, wt = _midpoints(ntheta, period)
    if n == 2:
        y, offsets = np.zeros(1), np.zeros((1, 0))
    elif n == 3:
        # y = rho sin(psi) removes the sqrt endpoint behavior of the disk radius
        psi, wpsi = _axis_nodes(n, planar, naxis)
        psi, wpsi = psi[disks] * (np.pi / 2.0), wpsi[disks] * (np.pi / 2.0)
        y = rho * np.sin(psi)
        wy = rho * np.cos(psi) * wpsi
        offsets = y[:, None]
    else:
        # polar coordinates (y, phi) in the (x3, x4)-plane as well
        sy, wsy = gauss_legendre_01(naxis)
        phi, wphi = _midpoints(1 if planar else max(8, naxis))
        slab, pair = np.divmod(np.arange(sy.shape[0] * phi.shape[0])[disks], phi.shape[0])
        y, wy, phi = rho * sy[slab], rho * wsy[slab], phi[pair]
        offsets = _ring_points(y, phi, np.zeros(0))
    rho_l = np.sqrt(np.maximum(rho * rho - y * y, 0.0))[:, None]
    r = rho_l * s ** GRADING
    w = rho_l * (ws * GRADING * s ** (GRADING - 1.0)) * r * wt
    if n == 3:
        w = w * wy[:, None]
    elif n == 4:
        w = w * y[:, None] * wy[:, None] * wphi
    return r, offsets, w, theta


def _sphere_rings(ball, nang, npolar, circles=slice(None), planar=False):
    """The ring table of a sphere: its circles about the axis variables.

    A circle is the whole sphere at n = 2, one t node at n = 3 and one
    (t, chi) pair at n = 4, chi innermost; circles selects a run of them
    (ignored at n = 2).  Returns the circle radii (circle,), their axis
    offsets from the center (circle, n - 2), the weight of each node of a
    circle (circle,) and the angles (nang,).
    """
    n, rho = ball.n, ball.radius
    theta, wth = _midpoints(nang)
    if n == 2:
        return np.full(1, rho), np.zeros((1, 0)), np.full(1, rho * 2.0 * np.pi / nang), theta
    t, wpolar = _axis_nodes(n, planar, npolar)
    if n == 3:
        # Gauss-Legendre in t = cos(polar angle): the area element becomes dt
        t, wpolar = t[circles], wpolar[circles]
        return (rho * np.sqrt(np.maximum(1.0 - t * t, 0.0)), (rho * t)[:, None],
                rho * rho * wpolar * wth, theta)
    # measure sin(psi) cos(psi) dpsi = -dtau/4 under tau = cos(2 psi)
    chi, wch = _midpoints(1 if planar else max(16, nang // 4))
    row, pair = np.divmod(np.arange(t.shape[0] * chi.shape[0])[circles], chi.shape[0])
    t, wpolar, chi = t[row], wpolar[row], chi[pair]
    y = rho * np.sqrt((1.0 + t) / 2.0)
    return (rho * np.sqrt((1.0 - t) / 2.0), _ring_points(y, chi, np.zeros(0)),
            rho ** 3 * 0.25 * wpolar * wth * wch, theta)


def _ring_points(r, theta, y):
    """The points (r cos theta, r sin theta, y) for r, theta and y (..., n - 2)
    broadcast against each other: the one builder of polar and cover points."""
    shape = np.broadcast_shapes(np.shape(r), np.shape(theta), np.shape(y)[:-1])
    pts = np.empty(shape + (2 + np.shape(y)[-1],))
    pts[..., 0] = r * np.cos(theta)
    pts[..., 1] = r * np.sin(theta)
    pts[..., 2:] = y
    return pts


def _ring_rule(ball, radii, offsets, weights, theta):
    """The rule of a ring table about the ball's center; a node weighs what its ring does."""
    if ball.n not in (2, 3, 4):
        raise ValueError(f"the ball and sphere rules support n in (2, 3, 4), got n={ball.n}")
    pts = _ring_points(radii[..., None], theta, offsets[..., None, :]).reshape(-1, ball.n)
    pts += ball.center_array
    return Rule(pts, np.repeat(weights.ravel(), theta.shape[0]))


def ball_rule(ball, nr=48, ntheta=96, naxis=24, disks=slice(None), planar=False):
    """Rule for a ball in R^n: rings of disks graded by GRADING, stacked along the axis variables.

    disks selects a run of the disks (all by default; ignored for the
    disk, which is one); the nodes of each disk come out in the same order
    whichever run they are built in.  planar=True, for integrands of
    (x1, x2) alone, collapses the n = 4 axis angle and folds the n = 3 disks
    onto psi <= 0 (disks then selects among the folded disks).
    """
    r, offsets, w, theta = _ball_rings(ball, nr, ntheta, naxis, disks, planar)
    return _ring_rule(ball, r, offsets[:, None], w, theta)


def sphere_rule(ball, nang=256, npolar=128, circles=slice(None), planar=False):
    """Rule for the boundary sphere of a ball in R^n.

    circles selects a run of the circles and planar collapses the n = 4
    axis angle and folds the n = 3 circles onto t <= 0, as disks and planar
    do for ball_rule.
    """
    return _ring_rule(ball, *_sphere_rings(ball, nang, npolar, circles, planar))


def _blocks(count, per_run):
    """Runs of whole disks or circles of per_run nodes, each within BLOCK_NODES
    nodes, or one alone if it is larger."""
    step = max(1, BLOCK_NODES // per_run)
    return [slice(i, i + step) for i in range(0, count, step)]


def ball_blocks(ball, nr=48, ntheta=96, naxis=24, planar=False):
    """The ball rule as a fixed sequence of node blocks, each a run of whole disks."""
    count = _ball_rings(ball, nr, ntheta, naxis, planar=planar)[0].shape[0]
    for disks in _blocks(count, nr * ntheta):
        yield ball_rule(ball, nr, ntheta, naxis, disks=disks, planar=planar)


def sphere_blocks(ball, nang=256, npolar=128, planar=False):
    """The sphere rule as a fixed sequence of node blocks, each a run of whole circles."""
    count = _sphere_rings(ball, nang, npolar, planar=planar)[0].shape[0]
    for circles in _blocks(count, nang):
        yield sphere_rule(ball, nang, npolar, circles=circles, planar=planar)


def _sum_blocks(blocks, integrand):
    """Sum of the block integrals of integrand(points) -> (N,) or (k, N), in block order."""
    parts = [rule.integrate_values(integrand(rule.points)) for rule in blocks]
    return sum(parts[1:], parts[0])


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

    def integrate_ball(self, ball, integrand, planar=False):
        """Integral of integrand(points) -> (N,) or (k, N) over the ball, block by block."""
        return _sum_blocks(ball_blocks(ball, self.nr, self.ntheta, self.naxis, planar),
                           integrand)

    def integrate_sphere(self, ball, integrand, planar=False):
        """Integral of integrand(points) -> (N,) or (k, N) over the sphere, block by block."""
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
