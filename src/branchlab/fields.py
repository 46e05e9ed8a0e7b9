"""Two-valued fields on balls: analytic model families and sampled data.

Analytic fields expose vectorized evaluation of one branch representative of
the symmetric part together with the matching gradient; all quadrature
integrands used by the lab (|u|^2, |Du|^2, pair metrics) are invariant under
the branch choice, so a per-point representative is exact for integration.
Lift-sensitive operations (profile fits, graphical decomposition) work in
explicit cover coordinates instead.
"""

import itertools
import numpy as np

from .errors import DimensionMismatchError, PairingError
from .pairspace import metric_sq_arrays, metric_sq_symmetric, selection_costs
from .quadrature import GRADING, QuadratureSpec, unit_ball


def _as_points(X, n):
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X[None, :]
    if X.shape[1] != n:
        raise DimensionMismatchError(f"points have dimension {X.shape[1]}, field has n={n}")
    return X


class Field:
    """Base class; subclasses fill in symmetric/average values and gradients."""

    n = None
    m = None
    domain = None
    average = None  # optional single-valued part h, with value(X) and gradient(X)
    planar = False  # True when values and gradients depend on (x1, x2) alone

    def average_values(self, X):
        X = _as_points(X, self.n)
        if self.average is None:
            return np.zeros((X.shape[0], self.m))
        return self.average.value(X)

    def average_gradient(self, X):
        X = _as_points(X, self.n)
        if self.average is None:
            return np.zeros((X.shape[0], self.m, self.n))
        return self.average.gradient(X)

    @property
    def is_symmetric(self):
        return self.average is None

    def symmetric_values(self, X):
        raise NotImplementedError

    def symmetric_gradient(self, X):
        raise NotImplementedError

    def pair_values(self, X):
        h = self.average_values(X)
        s = self.symmetric_values(X)
        return h + s, h - s


def _xy_split(X, n):
    x1, x2 = X[:, 0], X[:, 1]
    r = np.hypot(x1, x2)
    theta = np.arctan2(x2, x1)
    y = X[:, 2:] if n > 2 else None
    return r, theta, y


class CylindricalMode:
    """One mode r^beta (a cos(f theta) + b sin(f theta)) (y0 + ylin . y)."""

    __slots__ = ("beta", "freq", "a", "b", "y0", "ylin")

    def __init__(self, beta, freq, a, b, y0=1.0, ylin=None):
        self.beta = float(beta)
        self.freq = float(freq)
        self.a = np.atleast_1d(np.asarray(a, dtype=float))
        self.b = np.atleast_1d(np.asarray(b, dtype=float))
        self.y0 = float(y0)
        self.ylin = None if ylin is None else np.asarray(ylin, dtype=float)
        if self.a.shape != self.b.shape:
            raise DimensionMismatchError("mode coefficient shapes differ")


class CylindricalModeField(Field):
    """Finite sum of half-integer cylindrical modes, values {+-s(X)}.

    The pair {+-s} is well defined on the base space only when all angular
    frequencies 2*freq share one parity (all odd half-integers or all
    integers); the constructor enforces this.
    """

    def __init__(self, modes, n=2, average=None):
        self.modes = list(modes)
        if not self.modes:
            raise ValueError("need at least one mode")
        self.n = int(n)
        self.m = self.modes[0].a.shape[0]
        parities = set()
        for md in self.modes:
            if md.a.shape[0] != self.m:
                raise DimensionMismatchError("modes have inconsistent m")
            two_f = 2.0 * md.freq
            if abs(two_f - round(two_f)) > 1e-12:
                raise ValueError(f"angular frequency {md.freq} is not half-integer")
            parities.add(int(round(two_f)) % 2)
            if md.ylin is not None and md.ylin.shape[0] != self.n - 2:
                raise DimensionMismatchError("ylin length must be n-2")
        if len(parities) > 1:
            raise ValueError("mixed angular parities give an ill-defined unordered pair")
        self.parity = parities.pop()
        self.average = average
        self.planar = average is None and all(md.ylin is None for md in self.modes)
        self.domain = unit_ball(self.n)

    @classmethod
    def power_sum(cls, terms, n=2, average=None):
        """Harmonic field {+-Re(sum_j c_j z^(k_j/2))}; terms = [(c, k), ...]."""
        modes = []
        for c, k in terms:
            c = np.atleast_1d(np.asarray(c, dtype=complex))
            modes.append(CylindricalMode(k / 2.0, k / 2.0, c.real, -c.imag))
        return cls(modes, n=n, average=average)

    def power_terms(self):
        """Back out (c, k) pairs for harmonic modes; None if a mode is not one."""
        out = []
        for md in self.modes:
            if md.beta != md.freq or md.ylin is not None or md.y0 != 1.0:
                return None
            out.append((md.a - 1j * md.b, int(round(2 * md.freq))))
        return out

    def _yfactor(self, md, y):
        """y0 + ylin . y over the points' axis coordinates y, or y0 alone."""
        if y is None or y.shape[-1] == 0 or md.ylin is None:
            return md.y0
        return md.y0 + y @ md.ylin

    def symmetric_values(self, X):
        X = _as_points(X, self.n)
        return self.lift(*_xy_split(X, self.n))

    def symmetric_gradient(self, X):
        X = _as_points(X, self.n)
        N = X.shape[0]
        out = np.zeros((N, self.m, self.n))
        terms = self.power_terms()
        if terms is not None:
            # Re f with f = sum c z^(k/2) has gradient (Re f', -Im f'), f' = sum (k/2) c s^(k-2).
            # s = sqrt(z) takes the arctan2 branch, signed zeros of x2 included, which
            # z = x1 + 1j*x2 would lose.  Values stay trigonometric, so the c that
            # fit_c reads off them do not move by rounding.
            z = np.empty(N, dtype=complex)
            z.real, z.imag = X[:, 0], X[:, 1]
            s = np.sqrt(z)
            with np.errstate(divide="ignore", invalid="ignore"):
                fp = sum((0.5 * k * s ** (k - 2))[:, None] * c for c, k in terms)
            out[:, :, 0], out[:, :, 1] = fp.real, -fp.imag
            return out
        r, theta, y = _xy_split(X, self.n)
        ct, st = np.cos(theta), np.sin(theta)
        with np.errstate(divide="ignore", invalid="ignore"):
            for md in self.modes:
                cf = np.cos(md.freq * theta)
                sf = np.sin(md.freq * theta)
                ang = cf[:, None] * md.a + sf[:, None] * md.b
                dang = md.freq * (-sf[:, None] * md.a + cf[:, None] * md.b)
                yf = self._yfactor(md, y)
                yf = yf[:, None] if np.ndim(yf) == 1 else yf
                rad1 = r[:, None] ** (md.beta - 1.0)
                ds_dr = md.beta * rad1 * ang * yf
                ds_dt_over_r = rad1 * dang * yf
                out[:, :, 0] += ct[:, None] * ds_dr - st[:, None] * ds_dt_over_r
                out[:, :, 1] += st[:, None] * ds_dr + ct[:, None] * ds_dt_over_r
                if self.n > 2 and md.ylin is not None:
                    rad = (r ** md.beta)[:, None]
                    out[:, :, 2:] += rad[:, :, None] * ang[:, :, None] * md.ylin[None, None, :]
        return out

    def lift(self, r, theta, y=None):
        """Exact continuous lift of the symmetric part on the 4pi cover.

        theta runs over [0, 4pi); y holds the axis coordinates, shape
        r.shape + (n - 2,), or None for y = 0.  At theta = arctan2(x2, x1)
        this is the representative symmetric_values gives.
        """
        r = np.asarray(r, dtype=float)
        theta = np.asarray(theta, dtype=float)
        y = None if y is None else np.asarray(y, dtype=float)
        out = np.zeros(r.shape + (self.m,))
        for md in self.modes:
            ang = np.cos(md.freq * theta)[..., None] * md.a + np.sin(md.freq * theta)[..., None] * md.b
            yf = self._yfactor(md, y)
            out += (r ** md.beta)[..., None] * ang * (yf[..., None] if np.ndim(yf) else yf)
        return out

    def rescaled_exact(self, Y, rho, scale):
        """Exact reparameterization s(Y + rho X)/scale for Y on the axis."""
        Y = np.asarray(Y, dtype=float)
        if np.hypot(Y[0], Y[1]) > 0:
            return None
        if self.average is not None:
            return None
        modes = []
        for md in self.modes:
            fac = rho ** md.beta / scale
            if md.ylin is None:
                y0, ylin = md.y0, None
            else:
                y0 = md.y0 + float(md.ylin @ Y[2:])
                ylin = md.ylin * rho
            modes.append(CylindricalMode(md.beta, md.freq, md.a * fac, md.b * fac, y0, ylin))
        return CylindricalModeField(modes, n=self.n)


class BranchPolynomialField(Field):
    """Values {+- Re(c (P(z) - q(y))^(1/2))}, z = x1 + i x2.

    With the default c the value is the complex square root itself read as a
    vector in R^2, so the symmetric part vanishes exactly on the zero set of
    P - q.  Any fixed branch of the square root is taken per point; only the
    unordered pair is exposed, so branch cuts never leak.
    """

    def __init__(self, coeffs, c=None, n=2, qfun=None, qgrad=None, average=None):
        self.coeffs = np.asarray(coeffs, dtype=complex)  # ascending powers of z
        if c is None:
            c = np.array([1.0, -1.0j])
        self.c = np.atleast_1d(np.asarray(c, dtype=complex))
        self.m = self.c.shape[0]
        self.n = int(n)
        self.qfun = qfun
        self.qgrad = qgrad
        if qfun is not None and self.n < 3:
            raise DimensionMismatchError("y-dependent shift needs n >= 3")
        self.average = average
        self.planar = qfun is None and average is None
        self.domain = unit_ball(self.n)

    def _P(self, z, y):
        p = np.polynomial.polynomial.polyval(z, self.coeffs)
        if self.qfun is not None:
            p = p - self.qfun(y)
        return p

    def _dP(self, z):
        dcoef = np.polynomial.polynomial.polyder(self.coeffs)
        return np.polynomial.polynomial.polyval(z, dcoef)

    def _w(self, X):
        z = X[:, 0] + 1j * X[:, 1]
        y = X[:, 2:] if self.n > 2 else None
        return np.sqrt(self._P(z, y)), z, y

    def symmetric_values(self, X):
        X = _as_points(X, self.n)
        w, _, _ = self._w(X)
        return np.real(w[:, None] * self.c[None, :])

    def symmetric_gradient(self, X):
        X = _as_points(X, self.n)
        w, z, y = self._w(X)
        with np.errstate(divide="ignore", invalid="ignore"):
            dwdz = self._dP(z) / (2.0 * w)
        N = X.shape[0]
        out = np.zeros((N, self.m, self.n))
        out[:, :, 0] = np.real(dwdz[:, None] * self.c[None, :])
        out[:, :, 1] = np.real(1j * dwdz[:, None] * self.c[None, :])
        if self.qfun is not None:
            qg = np.asarray(self.qgrad(y))  # (N, n-2)
            with np.errstate(divide="ignore", invalid="ignore"):
                dwdy = -qg / (2.0 * w[:, None])
            out[:, :, 2:] = np.real(dwdy[:, None, :] * self.c[None, :, None])
        return out

    def lift(self, r, theta, y=None):
        """Continuous lift of the symmetric part along the sampled curve
        (r[k], theta[k]), continued from the representative at k = 0.

        y holds the axis coordinates, shape r.shape + (n - 2,), or None for
        y = 0.  The continuous branch of (P - q)^(1/2) along the curve is
        |P - q|^(1/2) e^(i unwrap(arg(P - q)) / 2): numpy's principal root
        times (-1)^t, t the number of 2 pi turns unwrap added, so the lift is
        symmetric_values with those signs.  A step of log(P - q) between
        samples, arg and modulus together, above pi/4 means a zero within
        about a sample spacing of the curve, where neither the unwrap nor
        the continuation can be trusted to resolve the branch; there (and at
        an exact zero) the signs are propagate_signs' continuation of the
        values, as for a field without a lift.
        """
        r = np.asarray(r, dtype=float)
        theta = np.asarray(theta, dtype=float)
        X = np.stack([r * np.cos(theta), r * np.sin(theta)], axis=-1)
        if self.n > 2:
            X = np.concatenate([X, np.zeros(r.shape + (self.n - 2,)) if y is None else y],
                               axis=-1)
        s = self.symmetric_values(X)
        p = self._P(X[:, 0] + 1j * X[:, 1], X[:, 2:] if self.n > 2 else None)
        arg = np.angle(p)
        unwrapped = np.unwrap(arg)
        with np.errstate(divide="ignore", invalid="ignore"):
            log_steps = np.hypot(np.diff(np.log(np.abs(p))), np.diff(unwrapped))
        if np.all(log_steps <= np.pi / 4):
            turns = np.rint((unwrapped - arg) / (2.0 * np.pi))
            signs = np.where(turns % 2 == 0, 1.0, -1.0)
        else:
            signs = propagate_signs(s[None])[0][0]
        return signs[:, None] * s

    def rescaled_exact(self, Y, rho, scale):
        if self.qfun is not None or self.average is not None:
            return None
        Y = np.asarray(Y, dtype=float)
        if self.n > 2 and np.any(Y[2:] != 0.0):
            return None
        z0 = Y[0] + 1j * Y[1]
        shifted = _shift_poly(self.coeffs, z0)
        deg = len(shifted) - 1
        scaled = shifted * (rho ** np.arange(deg + 1))
        return BranchPolynomialField(scaled / (scale * scale), c=self.c, n=self.n)


def _shift_poly(coeffs, z0):
    """Coefficients of P(z0 + w) in powers of w."""
    deg = len(coeffs) - 1
    out = np.zeros(deg + 1, dtype=complex)
    for k, a in enumerate(coeffs):
        binom = 1.0
        for j in range(k + 1):
            out[j] += a * binom * z0 ** (k - j)
            binom = binom * (k - j) / (j + 1)
    return out


class Polynomial:
    """Vector-valued polynomial, stored as monomial exponents and coefficients."""

    def __init__(self, exponents, coeffs, n):
        self.exponents = [tuple(int(e) for e in ex) for ex in exponents]
        self.coeffs = [np.atleast_1d(np.asarray(c, dtype=float)) for c in coeffs]
        self.n = int(n)
        self.m = self.coeffs[0].shape[0] if self.coeffs else 1

    def value(self, X):
        X = np.asarray(X, dtype=float)
        out = np.zeros((X.shape[0], self.m))
        for ex, c in zip(self.exponents, self.coeffs):
            mono = np.ones(X.shape[0])
            for axis, e in enumerate(ex):
                if e:
                    mono = mono * X[:, axis] ** e
            out += mono[:, None] * c
        return out

    def gradient(self, X):
        X = np.asarray(X, dtype=float)
        out = np.zeros((X.shape[0], self.m, self.n))
        for ex, c in zip(self.exponents, self.coeffs):
            for axis, e in enumerate(ex):
                if not e:
                    continue
                mono = np.full(X.shape[0], float(e))
                for ax2, e2 in enumerate(ex):
                    p = e2 - 1 if ax2 == axis else e2
                    if p:
                        mono = mono * X[:, ax2] ** p
                out[:, :, axis] += mono[:, None] * c
        return out


def monomial_exponents(n, degree):
    out = []
    for total in range(degree + 1):
        for ex in itertools.combinations_with_replacement(range(n), total):
            e = [0] * n
            for axis in ex:
                e[axis] += 1
            out.append(tuple(e))
    return out


def harmonic_polynomial_basis(n, degree):
    """Basis of harmonic polynomials of degree <= degree on R^n.

    Computed as the nullspace of the Laplacian acting on monomial
    coefficients; returns a list of scalar Polynomial objects.
    """
    exps = monomial_exponents(n, degree)
    index = {e: i for i, e in enumerate(exps)}
    # Laplacian as a matrix on monomial coefficients: L[target_exp, source_exp]
    L = np.zeros((len(exps), len(exps)))
    for e in exps:
        j = index[e]
        for axis in range(n):
            k = e[axis]
            if k >= 2:
                tgt = list(e)
                tgt[axis] -= 2
                L[index[tuple(tgt)], j] += k * (k - 1)
    _, s, vt = np.linalg.svd(L)
    tol = max(L.shape) * np.finfo(float).eps * (s[0] if s.size else 1.0)
    null = vt[np.sum(s > tol):].T if s.size else np.eye(len(exps))
    basis = []
    for col in range(null.shape[1]):
        vec = null[:, col]
        keep = np.abs(vec) > 1e-13
        basis.append(
            Polynomial(
                [exps[i] for i in range(len(exps)) if keep[i]],
                [np.array([vec[i]]) for i in range(len(exps)) if keep[i]],
                n,
            )
        )
    return basis


class RescaledField(Field):
    """View u_{Y,rho}(X) = u(Y + rho X) / scale on the unit ball."""

    def __init__(self, base, Y, rho, scale):
        self.base = base
        self.Y = np.asarray(Y, dtype=float)
        self.rho = float(rho)
        self.scale = float(scale)
        self.n = base.n
        self.m = base.m
        self.planar = base.planar
        self.domain = unit_ball(self.n)

    def _map(self, X):
        return self.Y[None, :] + self.rho * X

    def symmetric_values(self, X):
        X = _as_points(X, self.n)
        return self.base.symmetric_values(self._map(X)) / self.scale

    def symmetric_gradient(self, X):
        X = _as_points(X, self.n)
        return self.base.symmetric_gradient(self._map(X)) * (self.rho / self.scale)

    def average_values(self, X):
        X = _as_points(X, self.n)
        return self.base.average_values(self._map(X)) / self.scale

    def average_gradient(self, X):
        X = _as_points(X, self.n)
        return self.base.average_gradient(self._map(X)) * (self.rho / self.scale)

    @property
    def is_symmetric(self):
        return self.base.is_symmetric


def _rescaled(field, Y, rho, scale):
    """u(Y + rho X) / scale: the field's exact reparameterization when it has
    one, else a RescaledField view."""
    if hasattr(field, "rescaled_exact"):
        ex = field.rescaled_exact(Y, rho, scale)
        if ex is not None:
            return ex
    return RescaledField(field, Y, rho, scale)


def l2_distance_sq(u, v, ball, spec=None):
    """Quadrature of the squared L2 pair distance between u and v on a ball."""
    if u.m != v.m or u.n != v.n:
        raise DimensionMismatchError("fields have mismatched dimensions")
    spec = spec or QuadratureSpec()

    def integrand(X):
        if u.is_symmetric and v.is_symmetric:
            return metric_sq_symmetric(u.symmetric_values(X), v.symmetric_values(X))
        return metric_sq_arrays(*u.pair_values(X), *v.pair_values(X))

    return spec.integrate_ball(ball, integrand, planar=u.planar and v.planar)


# ---------------------------------------------------------------------------
# Sampled fields on structured polar grids


def graded_radii(nr, radius):
    s = (np.arange(1, nr + 1)) / float(nr)
    return radius * s ** GRADING


class PolarGrid:
    """Polar grid in the (x1,x2)-plane times an optional axis line (n=3).

    Per-node data comes in two layouts: rows in nodes() order, axis slabs
    outermost, and arrays of shape (nr, nt[, ny], m); on_grid and node_rows
    convert between them.
    """

    def __init__(self, rs, thetas, ys=None):
        self.rs = np.asarray(rs, dtype=float)
        self.thetas = np.asarray(thetas, dtype=float)
        self.ys = None if ys is None else np.asarray(ys, dtype=float)

    @property
    def n(self):
        return 2 if self.ys is None else 3

    @property
    def shape(self):
        base = (self.rs.shape[0], self.thetas.shape[0])
        return base if self.ys is None else base + (self.ys.shape[0],)

    def nodes(self):
        R, T = np.meshgrid(self.rs, self.thetas, indexing="ij")
        x1, x2 = R * np.cos(T), R * np.sin(T)
        if self.ys is None:
            return np.stack([x1, x2], axis=-1).reshape(-1, 2)
        pts = []
        for y in self.ys:
            pts.append(np.stack([x1, x2, np.full_like(x1, y)], axis=-1).reshape(-1, 3))
        return np.concatenate(pts)

    def on_grid(self, rows):
        """(N, m) rows in nodes() order as an (nr, nt[, ny], m) array."""
        m = rows.shape[-1]
        if self.ys is None:
            return rows.reshape(self.shape + (m,))
        return np.moveaxis(rows.reshape((self.shape[2],) + self.shape[:2] + (m,)), 0, 2)

    def node_rows(self, arr):
        """An (nr, nt[, ny], m) array as (N, m) rows in nodes() order."""
        m = arr.shape[-1]
        return (arr if self.ys is None else np.moveaxis(arr, 2, 0)).reshape(-1, m)


SAMPLED_CSV_V1 = "# branchlab sampled-field v1"
SAMPLED_CSV_V2 = "# branchlab sampled-field v2"


class SampledField(Field):
    """Two-valued samples on a polar grid, with a propagated local lift.

    The lift stores one branch s_lift of the symmetric part chosen
    continuously along the grid by propagate_signs, seeded on the outermost
    annulus; hol records the pairing holonomy of each annular loop (-1 on
    genuinely branched data with odd k).  The field is symmetric exactly
    when it has no average part.

    to_csv writes the v2 layout: a version line, a header with n, m,
    symmetric, hol, shape and the rs/thetas[/ys] lists, a line of column
    names, then one row per node in PolarGrid.nodes() order.  The node
    coordinates are in the header only.  A symmetric field's row is its m
    lift values s; any other field's row is h + s, then h - s.  Values are
    float reprs, so a symmetric field reads back bit for bit, -0.0 included.
    from_csv also reads v1, whose rows carry the node coordinates first and
    always hold h + s, h - s (h = 0 for a symmetric field).
    """

    def __init__(self, grid, s_lift, average=None, hol=None, domain=None):
        self.grid = grid
        self.n = grid.n
        self.s_lift = np.asarray(s_lift, dtype=float)  # shape (*grid.shape, m)
        self.m = self.s_lift.shape[-1]
        self.avg = None if average is None else np.asarray(average, dtype=float)
        self.hol = hol
        self.domain = domain if domain is not None else unit_ball(self.n)

    @property
    def is_symmetric(self):
        return self.avg is None

    # -- interpolation ------------------------------------------------------

    def _locate(self, vals, grid_vals):
        idx = np.searchsorted(grid_vals, vals) - 1
        idx = np.clip(idx, 0, grid_vals.shape[0] - 2)
        t = (vals - grid_vals[idx]) / (grid_vals[idx + 1] - grid_vals[idx])
        return idx, np.clip(t, 0.0, 1.0)

    def _interp_lift(self, X):
        X = _as_points(X, self.n)
        r = np.hypot(X[:, 0], X[:, 1])
        theta = np.mod(np.arctan2(X[:, 1], X[:, 0]), 2.0 * np.pi)
        ir, tr = self._locate(r, self.grid.rs)
        th = self.grid.thetas
        dth = th[1] - th[0]
        jt = np.floor((theta - th[0]) / dth).astype(int)
        tt = (theta - th[0]) / dth - jt
        jt0 = np.mod(jt, th.shape[0])
        jt1 = np.mod(jt + 1, th.shape[0])
        wrap = (jt + 1) >= th.shape[0]
        sgn = np.where(wrap, (self.hol if self.hol is not None else 1.0), 1.0)
        if self.n == 2:
            slabs = [((), 1.0)]  # the plane is one slab, of weight 1
        else:
            iy, ty = self._locate(X[:, 2], self.grid.ys)
            slabs = [((iy,), (1 - ty)[:, None]), ((iy + 1,), ty[:, None])]

        def gather(arr):
            # arr shape (nr, nt[, ny], m) -> bilinear in (r, theta) with seam
            # sign on each axis slab, linear across the slabs
            parts = []
            for iy, wy in slabs:
                v00 = arr[(ir, jt0) + iy]
                v01 = arr[(ir, jt1) + iy] * sgn[:, None]
                v10 = arr[(ir + 1, jt0) + iy]
                v11 = arr[(ir + 1, jt1) + iy] * sgn[:, None]
                parts.append(wy * (
                    (1 - tr)[:, None] * ((1 - tt)[:, None] * v00 + tt[:, None] * v01)
                    + tr[:, None] * ((1 - tt)[:, None] * v10 + tt[:, None] * v11)))
            return sum(parts[1:], parts[0])

        return gather(self.s_lift), (gather(self.avg) if self.avg is not None else None)

    def symmetric_values(self, X):
        s, _ = self._interp_lift(X)
        return s

    def average_values(self, X):
        X = _as_points(X, self.n)
        if self.avg is None:
            return np.zeros((X.shape[0], self.m))
        _, h = self._interp_lift(X)
        return h

    def symmetric_gradient(self, X):
        X = _as_points(X, self.n)
        eps = 1e-5 * self.domain.radius
        out = np.zeros((X.shape[0], self.m, self.n))
        for axis in range(self.n):
            dX = np.zeros_like(X)
            dX[:, axis] = eps
            sp, _ = self._interp_lift(X + dX)
            sm, _ = self._interp_lift(X - dX)
            out[:, :, axis] = (sp - sm) / (2 * eps)
        return out

    # -- serialization ------------------------------------------------------

    def to_csv(self, path):
        s = self.grid.node_rows(self.s_lift)
        if self.is_symmetric:
            cols, table = [f"s_{k+1}" for k in range(self.m)], s
        else:
            h = self.grid.node_rows(self.avg)
            cols = [f"a1_{k+1}" for k in range(self.m)] + [f"a2_{k+1}" for k in range(self.m)]
            table = np.concatenate([h + s, h - s], axis=1)
        with open(path, "w") as fh:
            fh.write(SAMPLED_CSV_V2 + "\n")
            fh.write(
                f"# n={self.n} m={self.m} symmetric={int(self.is_symmetric)} "
                f"hol={int(self.hol) if self.hol is not None else 0}\n"
            )
            fh.write(f"# shape={','.join(str(k) for k in self.grid.shape)}\n")
            fh.write("# rs=" + ",".join(repr(float(v)) for v in self.grid.rs) + "\n")
            fh.write("# thetas=" + ",".join(repr(float(v)) for v in self.grid.thetas) + "\n")
            if self.grid.ys is not None:
                fh.write("# ys=" + ",".join(repr(float(v)) for v in self.grid.ys) + "\n")
            fh.write(",".join(cols) + "\n")
            row = ",".join(["%r"] * len(cols)) + "\n"
            fh.writelines(row % tuple(values) for values in table.tolist())

    @classmethod
    def from_csv(cls, path):
        """Read a v2 file, or a v1 file as written before v2 existed."""
        meta = {}
        with open(path) as fh:
            version = fh.readline().strip()
            if version not in (SAMPLED_CSV_V1, SAMPLED_CSV_V2):
                raise ValueError(f"unknown sampled-field version line {version!r}")
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                if not line.startswith("#"):
                    break  # the column names; the data block follows
                body = line[1:].strip()
                if body.startswith(("rs=", "thetas=", "ys=", "shape=")):
                    k, v = body.split("=", 1)
                    meta[k] = v
                else:
                    for part in body.split():
                        if "=" in part:
                            k, v = part.split("=", 1)
                            meta[k] = v
            data = np.loadtxt(fh, delimiter=",", ndmin=2)
        n = int(meta["n"])
        m = int(meta["m"])
        hol = int(meta.get("hol", "0"))
        shape = tuple(int(s) for s in meta["shape"].split(","))
        rs = np.array([float(v) for v in meta["rs"].split(",")])
        thetas = np.array([float(v) for v in meta["thetas"].split(",")])
        ys = np.array([float(v) for v in meta["ys"].split(",")]) if "ys" in meta else None
        symmetric = bool(int(meta.get("symmetric", "1")))
        grid = PolarGrid(rs, thetas, ys)
        if (n, shape) != (grid.n, grid.shape):
            raise ValueError(f"n={n} shape={meta['shape']} disagree with the rs/thetas/ys lists")
        _check_sampled_grid(grid, data, hol)
        first = n if version == SAMPLED_CSV_V1 else 0  # v1 rows start with the node
        s_only = symmetric and version == SAMPLED_CSV_V2  # v2 stores a symmetric s as is
        expect = (int(np.prod(shape)), first + (m if s_only else 2 * m))
        if data.shape != expect:
            raise ValueError(f"the data block is {data.shape[0]}x{data.shape[1]}, "
                             f"not {expect[0]}x{expect[1]}")
        if s_only:
            s, avg = data, None
        else:
            a1, a2 = data[:, first:first + m], data[:, first + m:]
            s = (a1 - a2) / 2.0
            avg = None if symmetric else grid.on_grid((a1 + a2) / 2.0)
        return cls(grid, grid.on_grid(s), average=avg, hol=hol or None)


def _check_sampled_grid(grid, data, hol):
    """ValueError unless a read sampled field can be interpolated: at least
    two radii and angles, positive strictly increasing radii, angles spaced
    by 2pi / nt to 1e-9 relative (the only spacing _interp_lift reads
    right), strictly increasing axis values, finite numbers throughout, and
    a holonomy in {-1, 0, 1}."""
    rs, thetas, ys = grid.rs, grid.thetas, grid.ys
    lists = (rs, thetas) if ys is None else (rs, thetas, ys)
    if min(v.shape[0] for v in lists) < 2:
        raise ValueError(f"the grid shape {grid.shape} needs at least two nodes on each axis")
    if not all(np.all(np.isfinite(v)) for v in lists + (data,)):
        raise ValueError("the grid lists or the data block hold a non-finite number")
    if not (rs[0] > 0 and np.all(np.diff(rs) > 0)):
        raise ValueError("rs must be positive and strictly increasing")
    step = 2.0 * np.pi / thetas.shape[0]
    if not np.all(np.abs(np.diff(thetas) - step) <= 1e-9 * step):
        raise ValueError(f"thetas must be spaced by 2pi/{thetas.shape[0]}")
    if ys is not None and not np.all(np.diff(ys) > 0):
        raise ValueError("ys must be strictly increasing")
    if hol not in (-1, 0, 1):
        raise ValueError(f"hol={hol} is not -1, 0 or 1")


def propagate_signs(svals):
    """Continuous lift of a polar value array, swept ring by ring.

    svals has shape (nr, nt, m), or (nr, nt, ny, m) for a stack of ny axis
    slabs.  Returns (signs, holonomy): signs (nr, nt), or (nr, nt, ny), make
    sign * svals one locally continuous lift, and holonomy is the float sign
    picked up around a theta loop.  Column 0 is continued from ring to ring,
    sweeping inward from the outermost annulus; each ring is then continued
    along theta.  A slab whose rings disagree on the holonomy raises a
    PairingError, the first such slab for a stack.

    A stack is one lift: a slab whose holonomy differs from slab 0's raises a
    PairingError naming it, and each slab is aligned to the aligned slab
    below it by whole-slab sums, a tie keeping the sign.

    Matching uses a first-order continuation predictor rather than the bare
    previous value: value curves that swing quickly through a near-zero dip
    would otherwise be mis-paired at coarse angular sampling.  Every (ring,
    slab) pair is one lane; the theta sweep advances all lanes at once.
    """
    x = svals if svals.ndim == 4 else svals[:, :, None]
    nr, nt, ny = x.shape[:3]

    def nearer(v, pred):
        keep, swap = selection_costs(v, pred)
        return np.where(keep <= swap, 1.0, -1.0)

    signs = np.ones(x.shape[:-1])
    prev = None
    for ri in range(nr - 1, -1, -1):
        if prev is not None:
            signs[ri, 0] = nearer(x[ri, 0], prev)
        prev = signs[ri, 0][:, None] * x[ri, 0]
    first = signs[:, 0, :, None] * x[:, 0]
    lift_prev, lift_prev2 = first, None
    for j in range(1, nt):
        pred = lift_prev if lift_prev2 is None else 2.0 * lift_prev - lift_prev2
        signs[:, j] = nearer(x[:, j], pred)
        lift_prev2, lift_prev = lift_prev, signs[:, j, :, None] * x[:, j]
    # holonomy: continue the predictor across the wraparound
    pred = lift_prev if lift_prev2 is None else 2.0 * lift_prev - lift_prev2
    hols = nearer(first, pred)  # (nr, ny)
    mixed = np.any(hols != hols[-1], axis=0)
    if np.any(mixed):
        col = hols[:, int(np.argmax(mixed))]
        bad = int(np.argmax(col != col[-1]))
        raise PairingError(f"inconsistent pairing holonomy at annulus {bad}", loop=bad)
    if np.any(hols[-1] != hols[-1, 0]):
        iy = int(np.argmax(hols[-1] != hols[-1, 0]))
        raise PairingError(f"holonomy changes along the axis at slab {iy}", loop=iy)
    for iy in range(1, ny):
        below = signs[:, :, iy - 1, None] * x[:, :, iy - 1]
        keep, swap = selection_costs((signs[:, :, iy, None] * x[:, :, iy]).ravel(), below.ravel())
        if swap < keep:
            signs[:, :, iy] = -signs[:, :, iy]
    return (signs if svals.ndim == 4 else signs[:, :, 0]), float(hols[-1, 0])


def non_stationary_control(m=1):
    """Homogeneity/frequency-mismatched field whose N(rho) strictly decreases."""
    a1 = np.zeros(m); a1[0] = 1.0
    modes = [
        CylindricalMode(0.5, 2.5, a1, np.zeros(m)),
        CylindricalMode(1.5, 0.5, a1, np.zeros(m)),
    ]
    return CylindricalModeField(modes, n=2)


def random_stationary_power_sum(rng, n=2):
    """Random harmonic power sum of one to three terms, m = 2, satisfying the
    stationarity identities.

    Any term with k = 1 gets a coefficient with c . c = 0 (the residue-free
    condition at the branch point); terms with k >= 2 carry free coefficients.
    Exponent parities are kept consistent so the pair is well defined.
    """
    parity = int(rng.integers(0, 2))
    ks = sorted(rng.choice(np.arange(1 if parity else 2, 10, 2), size=rng.integers(1, 4), replace=False).tolist())
    terms = []
    for idx, k in enumerate(ks):
        scale = 0.2 ** idx
        if k == 1:
            # c = a + i b with |a| = |b|, a.b = 0  =>  c.c = 0
            a = rng.standard_normal(2)
            b = rng.standard_normal(2)
            b = b - (a @ b) / (a @ a) * a
            b = b * (np.linalg.norm(a) / np.linalg.norm(b))
            c = (a + 1j * b) * (scale / np.linalg.norm(a))
        else:
            c = (rng.standard_normal(2) + 1j * rng.standard_normal(2)) * scale
        terms.append((c, int(k)))
    return CylindricalModeField.power_sum(terms, n=n)
