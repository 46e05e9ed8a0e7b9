"""Quadrature rules on balls, disks and spheres in R^n, n in {2, 3, 4}.

The rules are tensor products: graded Gauss-Legendre in the radial
(x1,x2)-plane variable (nodes pulled toward r = 0, where the model fields
carry r^(2*alpha-2) gradient singularities), a uniform midpoint rule in each
angle (trapezoid-equivalent for periodic integrands, spectrally accurate and
exact for trigonometric polynomials of moderate degree), and Gauss-Legendre
with a sine substitution along the axis variables.

With the default grading exponent 2, every integrand that is a finite sum of
half-integer powers r^(k/2) times trigonometric factors becomes a polynomial
in the radial quadrature variable, so the model-field integrals of the lab
are computed to machine accuracy at modest node counts.

Summation uses numpy's pairwise reduction, which is deterministic for a
fixed node layout.
"""

import functools
from dataclasses import dataclass

import numpy as np


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

    def contains_ball(self, other, slack=1e-12):
        d = float(np.linalg.norm(self.center_array - other.center_array))
        return d + other.radius <= self.radius + slack


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

    def integrate(self, f):
        """Integrate a vectorized scalar integrand f(points) -> (N,)."""
        vals = np.asarray(f(self.points), dtype=float)
        return float(np.sum(self.weights * vals))

    def integrate_values(self, vals):
        vals = np.asarray(vals, dtype=float)
        if vals.ndim == 1:
            return float(np.sum(self.weights * vals))
        return np.sum(self.weights[:, None] * vals.reshape(vals.shape[0], -1), axis=0)


def _polar_nodes(nr, ntheta, grading):
    s, ws = gauss_legendre_01(nr)
    r01 = s ** grading
    wr01 = ws * grading * s ** (grading - 1.0)
    theta = (np.arange(ntheta) + 0.5) * (2.0 * np.pi / ntheta)
    wt = 2.0 * np.pi / ntheta
    return r01, wr01, theta, wt


def disk_rule(center, radius, nr=48, ntheta=96, grading=2.0):
    """Rule for the disk of given radius about center (a 2-vector)."""
    r01, wr01, theta, wt = _polar_nodes(nr, ntheta, grading)
    r = radius * r01
    wr = radius * wr01
    R, T = np.meshgrid(r, theta, indexing="ij")
    WR = np.repeat(wr[:, None], ntheta, axis=1)
    pts = np.stack(
        [center[0] + R * np.cos(T), center[1] + R * np.sin(T)], axis=-1
    ).reshape(-1, 2)
    w = (WR * R * wt).reshape(-1)
    return Rule(pts, w)


def ball_rule(ball, nr=48, ntheta=96, naxis=24, grading=2.0):
    """Rule for a ball in R^n; axis variables handled by slabs of graded disks."""
    n = ball.n
    c = ball.center_array
    rho = ball.radius
    if n == 2:
        return disk_rule(c, rho, nr=nr, ntheta=ntheta, grading=grading)
    r01, wr01, theta, wt = _polar_nodes(nr, ntheta, grading)
    cs, ct = np.cos(theta), np.sin(theta)
    if n == 3:
        # y = rho sin(psi) removes the sqrt endpoint behavior of the slab radius
        psi, wpsi = _leggauss(int(naxis))
        psi = psi * (np.pi / 2.0)
        wpsi = wpsi * (np.pi / 2.0)
        y = rho * np.sin(psi)
        wy = rho * np.cos(psi) * wpsi
        pts = []
        wts = []
        for yl, wl in zip(y, wy):
            rho_l = np.sqrt(max(rho * rho - yl * yl, 0.0))
            if rho_l <= 0.0:
                continue
            r = rho_l * r01
            wr = rho_l * wr01
            R, CS = np.meshgrid(r, cs, indexing="ij")
            _, SN = np.meshgrid(r, ct, indexing="ij")
            WR = np.repeat(wr[:, None], ntheta, axis=1)
            p = np.stack(
                [c[0] + R * CS, c[1] + R * SN, np.full_like(R, c[2] + yl)], axis=-1
            )
            pts.append(p.reshape(-1, 3))
            wts.append((WR * R * wt * wl).reshape(-1))
        return Rule(np.concatenate(pts), np.concatenate(wts))
    if n == 4:
        # polar coordinates in the (y1, y2)-plane as well
        sy, wsy = gauss_legendre_01(int(naxis))
        ry = rho * sy
        wry = rho * wsy
        nphi = max(8, naxis)
        phi = (np.arange(nphi) + 0.5) * (2.0 * np.pi / nphi)
        wphi = 2.0 * np.pi / nphi
        pts = []
        wts = []
        for rl, wl in zip(ry, wry):
            rho_l = np.sqrt(max(rho * rho - rl * rl, 0.0))
            if rho_l <= 0.0:
                continue
            r = rho_l * r01
            wr = rho_l * wr01
            for ph in phi:
                R, CS = np.meshgrid(r, cs, indexing="ij")
                _, SN = np.meshgrid(r, ct, indexing="ij")
                WR = np.repeat(wr[:, None], ntheta, axis=1)
                p = np.stack(
                    [
                        c[0] + R * CS,
                        c[1] + R * SN,
                        np.full_like(R, c[2] + rl * np.cos(ph)),
                        np.full_like(R, c[3] + rl * np.sin(ph)),
                    ],
                    axis=-1,
                )
                pts.append(p.reshape(-1, 4))
                wts.append((WR * R * wt * rl * wl * wphi).reshape(-1))
        return Rule(np.concatenate(pts), np.concatenate(wts))
    raise ValueError(f"ball_rule supports n in (2, 3, 4), got n={n}")


def sphere_rule(ball, nang=256, npolar=128):
    """Rule for the boundary sphere of a ball in R^n."""
    n = ball.n
    c = ball.center_array
    rho = ball.radius
    if n == 2:
        theta = (np.arange(nang) + 0.5) * (2.0 * np.pi / nang)
        pts = np.stack(
            [c[0] + rho * np.cos(theta), c[1] + rho * np.sin(theta)], axis=-1
        )
        w = np.full(nang, rho * 2.0 * np.pi / nang)
        return Rule(pts, w)
    if n == 3:
        # Gauss-Legendre in t = cos(polar angle): the area element becomes dt
        t, wt_polar = _leggauss(int(npolar))
        sint = np.sqrt(np.maximum(1.0 - t * t, 0.0))
        theta = (np.arange(nang) + 0.5) * (2.0 * np.pi / nang)
        wth = 2.0 * np.pi / nang
        S, T = np.meshgrid(sint, theta, indexing="ij")
        C, _ = np.meshgrid(t, theta, indexing="ij")
        W, _ = np.meshgrid(wt_polar, theta, indexing="ij")
        pts = np.stack(
            [
                c[0] + rho * S * np.cos(T),
                c[1] + rho * S * np.sin(T),
                c[2] + rho * C,
            ],
            axis=-1,
        ).reshape(-1, 3)
        w = (rho * rho * W * wth).reshape(-1)
        return Rule(pts, w)
    if n == 4:
        # measure sin(psi) cos(psi) dpsi = -dtau/4 under tau = cos(2 psi)
        tau, wtau = _leggauss(int(npolar))
        sinp = np.sqrt((1.0 - tau) / 2.0)
        cosp = np.sqrt((1.0 + tau) / 2.0)
        theta = (np.arange(nang) + 0.5) * (2.0 * np.pi / nang)
        wth = 2.0 * np.pi / nang
        nchi = max(16, nang // 4)
        chi = (np.arange(nchi) + 0.5) * (2.0 * np.pi / nchi)
        wch = 2.0 * np.pi / nchi
        P_s, T, H = np.meshgrid(sinp, theta, chi, indexing="ij")
        P_c, _, _ = np.meshgrid(cosp, theta, chi, indexing="ij")
        W, _, _ = np.meshgrid(wtau, theta, chi, indexing="ij")
        pts = np.stack(
            [
                c[0] + rho * P_s * np.cos(T),
                c[1] + rho * P_s * np.sin(T),
                c[2] + rho * P_c * np.cos(H),
                c[3] + rho * P_c * np.sin(H),
            ],
            axis=-1,
        ).reshape(-1, 4)
        w = (rho ** 3 * 0.25 * W * wth * wch).reshape(-1)
        return Rule(pts, w)
    raise ValueError(f"sphere_rule supports n in (2, 3, 4), got n={n}")


@dataclass(frozen=True)
class QuadratureSpec:
    """Node counts for the rules used by an experiment; level doubles them."""

    nr: int = 48
    ntheta: int = 96
    naxis: int = 24
    nsphere: int = 256
    npolar: int = 128
    grading: float = 2.0

    def refined(self, level):
        f = 2 ** int(level)
        return QuadratureSpec(
            nr=self.nr * f,
            ntheta=self.ntheta * f,
            naxis=self.naxis * f,
            nsphere=self.nsphere * f,
            npolar=self.npolar * f,
            grading=self.grading,
        )

    def ball(self, ball):
        return ball_rule(
            ball, nr=self.nr, ntheta=self.ntheta, naxis=self.naxis, grading=self.grading
        )

    def sphere(self, ball):
        return sphere_rule(ball, nang=self.nsphere, npolar=self.npolar)


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
