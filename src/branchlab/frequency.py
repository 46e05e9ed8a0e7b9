"""Frequency function machinery: D, H, N, monotonicity, variational identities.

D_{u,Y}(rho) = rho^(2-n) int_{B_rho(Y)} |Du|^2
H_{u,Y}(rho) = rho^(1-n) int_{bdry B_rho(Y)} |u|^2
N = D / H

For a symmetric pair u = {+-s} the pairing-invariant integrands reduce to
|u|^2 = 2|s|^2 and |Du|^2 = 2|Ds|^2, so one branch representative of s
suffices.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateHeightError
from .quadrature import Ball, QuadratureSpec, unit_ball

H_FLOOR_REL = 1e-14


def _pair_sq(s):
    """|u|^2 of u = {+-s}, summed over the two selections, pointwise."""
    return 2.0 * np.sum(s * s, axis=-1)


def _grad_sq(u, X, axes=slice(None)):
    """|Du|^2 summed over the two selections, over the gradient components axes."""
    ds = u.symmetric_gradient(X)[:, :, axes]
    return 2.0 * np.sum(ds * ds, axis=(1, 2))


def energy_integral(u, ball, spec):
    """int_{ball} |Du|^2."""
    return spec.integrate_ball(ball, lambda X: _grad_sq(u, X), planar=u.planar)


def height_integral(u, ball, spec):
    """int over the boundary sphere of |u|^2."""
    return spec.integrate_sphere(ball, lambda X: _pair_sq(u.symmetric_values(X)),
                                 planar=u.planar)


@dataclass
class FrequencyProfile:
    center: np.ndarray
    radii: np.ndarray
    D: np.ndarray
    H: np.ndarray
    N: np.ndarray

    def slopes(self):
        """dN/drho by central differences (one-sided at the ends)."""
        return np.gradient(self.N, self.radii)

    def rows(self):
        dN = self.slopes()
        return [
            (float(self.radii[i]), float(self.D[i]), float(self.H[i]),
             float(self.N[i]), float(dN[i]))
            for i in range(self.radii.shape[0])
        ]


def frequency_profile(u, Y, radii, spec=None):
    """Quadrature profile of (D, H, N) at the given radii about Y."""
    spec = spec or QuadratureSpec()
    Y = np.asarray(Y, dtype=float)
    radii = np.asarray(radii, dtype=float)
    n = u.n
    rho_max = float(np.max(radii))
    norm_scale = height_integral(u, Ball(tuple(Y), rho_max), spec)
    floor = H_FLOOR_REL * max(norm_scale, 1e-300)
    D = np.zeros_like(radii)
    H = np.zeros_like(radii)
    for i, rho in enumerate(radii):
        ball = Ball(tuple(Y), float(rho))
        D[i] = rho ** (2 - n) * energy_integral(u, ball, spec)
        h = norm_scale if float(rho) == rho_max else height_integral(u, ball, spec)
        H[i] = rho ** (1 - n) * h
        if H[i] <= floor * rho ** (1 - n):
            raise DegenerateHeightError(float(rho), float(H[i]), floor)
    return FrequencyProfile(Y, radii, D, H, D / H)


@dataclass
class MonotonicityReport:
    radii: np.ndarray
    slopes: np.ndarray
    violations: list

    @property
    def ok(self):
        return not self.violations


def check_monotonicity(profile, slack=1e-8):
    """Finite-difference slopes of N; radii with slope < -slack are violations."""
    if profile.radii.shape[0] < 3:
        raise ValueError("need at least 3 radii")
    slopes = profile.slopes()
    violations = [
        (float(profile.radii[i]), float(slopes[i]))
        for i in range(slopes.shape[0])
        if slopes[i] < -slack
    ]
    return MonotonicityReport(profile.radii, slopes, violations)


@dataclass
class FrequencyEstimate:
    value: float
    uncertainty: float
    radii: np.ndarray
    N: np.ndarray
    low_confidence: bool


def frequency_at_point(u, Y, rho_max=0.3, nradii=6, spec=None):
    """Extrapolate N_{u,Y}(rho) to rho -> 0.

    Radii shrink geometrically by 0.7; an Aitken step on the last three values
    removes the leading power correction.  The spread between the raw value at the
    smallest radius and the extrapolants is reported as the uncertainty, and
    a non-monotone tail (N rising by more than 1e-6 toward rho -> 0) sets the
    low-confidence flag.
    """
    spec = spec or QuadratureSpec()
    radii = rho_max * 0.7 ** np.arange(nradii)
    prof = frequency_profile(u, Y, radii[::-1], spec)
    N = prof.N[::-1]  # N at decreasing radii

    def aitken(v0, v1, v2):
        denom = (v2 - v1) - (v1 - v0)
        if abs(denom) < 1e-13 * max(1.0, abs(v2)):
            return v2
        return v2 - (v2 - v1) ** 2 / denom

    est = aitken(N[-3], N[-2], N[-1])
    prev = aitken(N[-4], N[-3], N[-2]) if nradii >= 4 else est
    # quadrature bias keeps the uncertainty away from zero even when the
    # sampled values are constant; the floor covers desk-scale node counts
    unc = abs(est - N[-1]) + abs(est - prev) + 1e-6 * max(1.0, abs(est))
    increasing_tail = np.all(np.diff(N) <= 1e-6)
    return FrequencyEstimate(float(est), float(unc), radii, N, not bool(increasing_tail))


class BumpTestFunction:
    """Smooth bump exp(1 - 1/(1 - |X-c|^2/r^2)) supported in B_r(c)."""

    def __init__(self, center, radius):
        self.center = np.asarray(center, dtype=float)
        self.radius = float(radius)

    def support_ball(self):
        return Ball(tuple(self.center), self.radius)

    def _t(self, X):
        d = X - self.center[None, :]
        return np.sum(d * d, axis=1) / self.radius ** 2, d

    def value(self, X):
        t, _ = self._t(X)
        out = np.zeros(X.shape[0])
        inside = t < 1.0 - 1e-9
        out[inside] = np.exp(1.0 - 1.0 / (1.0 - t[inside]))
        return out

    def gradient(self, X):
        t, d = self._t(X)
        out = np.zeros_like(X)
        inside = t < 1.0 - 1e-9
        g = -1.0 / (1.0 - t[inside]) ** 2
        out[inside] = (
            np.exp(1.0 - 1.0 / (1.0 - t[inside])) * g * 2.0 / self.radius ** 2
        )[:, None] * d[inside]
        return out


@dataclass
class StationarityReport:
    squash: float
    squeeze: float
    radial: np.ndarray


def default_test_functions(n):
    center = np.zeros(n)
    off = np.zeros(n)
    off[0] = 0.25
    return [BumpTestFunction(center, 0.85), BumpTestFunction(off, 0.85 / 2)]


def _radial(u, X, Y, R):
    """u's representative s at X and its derivative along the rays from Y, where
    R = |X - Y| (N,), or one number on a sphere about Y: (s, D_R s)."""
    R = np.reshape(R, (-1, 1))
    dr_s = np.einsum("pki,pi->pk", u.symmetric_gradient(X), (X - Y[None, :]) / R)
    return u.symmetric_values(X), dr_s


def stationarity_residuals(u, test_functions=None, radial_radii=(0.3, 0.6, 0.9),
                           spec=None):
    """Residuals of the squash, squeeze and radial variational identities.

    squash:  int |Du|^2 zeta + int u . Du . grad(zeta) = 0
    squeeze: int (|Du|^2 delta_ij / 2 - D_i u D_j u) D_i zeta^j = 0, for
             vector fields zeta^j = e_j * bump, all j
    radial:  int_{B_rho} |Du|^2 - int_{bdry} u . D_R u = 0 per radius
    """
    spec = spec or QuadratureSpec()
    domain = u.domain if u.domain is not None else unit_ball(u.n)
    n = u.n

    def integrands(X, tf):
        """Row 0 the squash integrand, row 1 + j the squeeze integrand of zeta^j."""
        zeta = tf.value(X)
        dzeta = tf.gradient(X)
        s = u.symmetric_values(X)
        ds = u.symmetric_gradient(X)
        du_sq = 2.0 * np.sum(ds * ds, axis=(1, 2))
        # sum over selections of u^k D_i u^k = 2 s . D_i s
        u_du = 2.0 * np.einsum("pk,pki->pi", s, ds)
        # stress tensor T_ij = |Du|^2 delta_ij / 2 - sum_sel D_i u . D_j u
        T = -2.0 * np.einsum("pki,pkj->pij", ds, ds)
        T[:, np.arange(n), np.arange(n)] += 0.5 * du_sq[:, None]
        # zeta^l = delta_{lj} * bump: residual = int T_ij D_i zeta
        return np.stack([du_sq * zeta + np.sum(u_du * dzeta, axis=1)]
                        + [np.sum(T[:, :, j] * dzeta, axis=1) for j in range(n)])

    vals = []
    for tf in test_functions or default_test_functions(n):
        sup = tf.support_ball()
        if not domain.contains_ball(sup):
            raise ValueError("test function support leaves the domain")
        # integrate on an origin-centered ball covering the support so the
        # radial grading sits on the axis singularity of the model fields
        cover = Ball((0.0,) * n, float(np.linalg.norm(sup.center_array) + sup.radius))
        vals.append(spec.integrate_ball(cover, lambda X: integrands(X, tf)))
    vals = np.array(vals)
    radial = []
    Y = np.zeros(n)
    for rho in map(float, radial_radii):
        ball = Ball(tuple(Y), rho)
        u_dr_u = spec.integrate_sphere(
            ball, lambda X: 2.0 * np.sum(np.multiply(*_radial(u, X, Y, rho)), axis=1))
        radial.append(energy_integral(u, ball, spec) - u_dr_u)
    return StationarityReport(
        squash=float(np.max(np.abs(vals[:, 0]))),
        squeeze=float(np.max(np.abs(vals[:, 1:]))),
        radial=np.abs(np.asarray(radial)),
    )


def radial_frequency_deviation(u, Y, alpha, ball, spec=None):
    """int_{ball} R^(2-n) |d/dR (u/R^alpha)|^2 about Y (solid integral)."""
    spec = spec or QuadratureSpec()
    Y = np.asarray(Y, dtype=float)
    n = u.n

    def integrand(X):
        R = np.linalg.norm(X - Y[None, :], axis=1)
        return R ** (2 - n) * _radial_deviation_sq(u, X, Y, R, alpha)

    return spec.integrate_ball(ball, integrand)


def _radial_deviation_sq(u, X, Y, R, alpha):
    """|d/dR (u / R^alpha)|^2 summed over the two selections, pointwise; R as for _radial."""
    s, dr_s = _radial(u, X, Y, R)
    R = np.reshape(R, (-1, 1))
    return _pair_sq((dr_s - alpha * s / R) / R ** alpha)


def axis_energy_integral(u, ball, spec=None):
    """int_{ball} |D_y u|^2 (gradient components along the axis variables)."""
    spec = spec or QuadratureSpec()
    return spec.integrate_ball(ball, lambda X: _grad_sq(u, X, slice(2, None)), planar=u.planar)


@dataclass
class DerivativeIdentityRow:
    rho: float
    lhs: float            # N'(rho) from central differences
    rhs: float            # the sphere-integral expression
    cauchy_schwarz_gap: float


def frequency_derivative_identity(u, Y, rho_grid, spec=None):
    """Cross-check of the sphere-integral formula for N'.

    N'(rho) = 2 rho^(1-2n) / H^2 * [ (int |u|^2)(int R^2 |D_R u|^2)
                                     - (int R u . D_R u)^2 ]
    with all three integrals over the boundary sphere.  The bracket is the
    Cauchy-Schwarz gap and must be nonnegative.  The left side comes from
    finite differences of the quadrature N values, giving a second
    independent route to monotonicity.
    """
    spec = spec or QuadratureSpec()
    Y = np.asarray(Y, dtype=float)
    rho_grid = np.asarray(rho_grid, dtype=float)
    n = u.n
    prof = frequency_profile(u, Y, rho_grid, spec)
    rows = []
    for i in range(1, rho_grid.shape[0] - 1):
        rho = float(rho_grid[i])
        lhs = (prof.N[i + 1] - prof.N[i - 1]) / (rho_grid[i + 1] - rho_grid[i - 1])

        def abc(X):
            svals, dr_s = _radial(u, X, Y, rho)
            return np.stack([_pair_sq(svals), rho ** 2 * _pair_sq(dr_s),
                             rho * (2.0 * np.sum(svals * dr_s, axis=1))])

        A, B, C = spec.integrate_sphere(Ball(tuple(Y), rho), abc)
        gap = A * B - C * C
        rhs = 2.0 * gap / (rho ** (2 * n - 1) * prof.H[i] ** 2)
        rows.append(DerivativeIdentityRow(rho, float(lhs), float(rhs), float(gap)))
    return rows


@dataclass
class DeficitMonotonicityRow:
    rho: float
    lhs: float
    rhs: float

    @property
    def residual(self):
        return self.lhs - self.rhs


def deficit_monotonicity_residual(u, Y, alpha, rho_grid, spec=None):
    """Both sides of d/drho [rho^(-2a) (D - a H)] = 2 rho^(2-n) * boundary term.

    The left side uses fourth-order central differences of the quadrature
    values on the (uniform) rho grid; the right side integrates the radial
    derivative of u/R^alpha over the sphere directly.  Rows cover the
    interior grid points where the five-point stencil fits.
    """
    spec = spec or QuadratureSpec()
    Y = np.asarray(Y, dtype=float)
    rho_grid = np.asarray(rho_grid, dtype=float)
    hsteps = np.diff(rho_grid)
    if rho_grid.shape[0] < 5 or np.max(np.abs(hsteps - hsteps[0])) > 1e-12 * hsteps[0]:
        raise ValueError("need a uniform rho grid with at least 5 points")
    h = hsteps[0]
    n = u.n
    prof = frequency_profile(u, Y, rho_grid, spec)
    F = rho_grid ** (-2 * alpha) * (prof.D - alpha * prof.H)
    rows = []
    for i in range(2, rho_grid.shape[0] - 2):
        lhs = (-F[i + 2] + 8 * F[i + 1] - 8 * F[i - 1] + F[i - 2]) / (12 * h)
        rho = float(rho_grid[i])
        rhs = 2.0 * rho ** (2 - n) * spec.integrate_sphere(
            Ball(tuple(Y), rho), lambda X: _radial_deviation_sq(u, X, Y, rho, alpha))
        rows.append(DeficitMonotonicityRow(rho, float(lhs), float(rhs)))
    return rows
