"""Two-valued fields on balls: analytic model families and sampled data.

Every field is a symmetric pair {+-s}.  A two-valued harmonic or
Dir-minimizing u = {h +- s} has a single-valued harmonic part
h = (u1 + u2)/2, so its branch set is the branch set of {+-s}; the lab
studies s alone.

Fields expose vectorized evaluation of one branch representative of s
together with the matching gradient; all quadrature integrands used by the
lab (|u|^2, |Du|^2, pair metrics) are invariant under the branch choice, so a
per-point representative is exact for integration.  Lift-sensitive
operations (profile fits, graphical decomposition) work in explicit cover
coordinates instead.

The Field protocol has no optional parts: every field has lift (the base
class continues the values along the curve; analytic fields give the
exact lift) and rescaled (a RescaledField view; a mode field about its
axis reparameterizes exactly).

An analytic field's domain is None, read as the unit ball; a sampled
field's is the largest origin-centred ball its grid covers.
"""

import numpy as np

from .errors import DimensionMismatchError, DomainError, PairingError
from .pairspace import metric_sq_symmetric, selection_costs
from .quadrature import GRADING, Ball, QuadratureSpec, _ring_points

FD_STEP = 1e-5  # a sampled field's gradient step, relative to its outer grid radius


def _as_points(X, n):
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X[None, :]
    if X.shape[1] != n:
        raise DimensionMismatchError(f"points have dimension {X.shape[1]}, field has n={n}")
    return X


class Field:
    """Base class of a symmetric pair {+-s}; subclasses fill in the values and
    gradient of one representative s, and may give lift and rescaled exactly."""

    n = None
    m = None
    domain = None  # the unit ball
    planar = False  # True when values and gradients depend on (x1, x2) alone

    def symmetric_values(self, X):
        raise NotImplementedError

    def symmetric_gradient(self, X):
        raise NotImplementedError

    def lift(self, r, theta):
        """Continuous lift of s along the sampled curve (r[k], theta[k]) at
        y = 0, continued from its value at k = 0: propagate_signs'
        continuation of symmetric_values, whose first-order predictor
        carries the lift through transversal zero crossings."""
        return _continued(self.symmetric_values(_ring_points(r, theta, np.zeros(self.n - 2))))

    def rescaled(self, Y, rho, scale):
        """u(Y + rho X) / scale, as a RescaledField view."""
        return RescaledField(self, Y, rho, scale)


def _continued(s):
    """The values s along a curve, signed as one continuous lift from s[0]."""
    signs, _ = propagate_signs(s[None, None])
    return signs[0, 0][:, None] * s


class CylindricalMode:
    """One mode r^beta (a cos(f theta) + b sin(f theta)), constant along the axis."""

    __slots__ = ("beta", "freq", "a", "b")

    def __init__(self, beta, freq, a, b):
        self.beta = float(beta)
        self.freq = float(freq)
        self.a = np.atleast_1d(np.asarray(a, dtype=float))
        self.b = np.atleast_1d(np.asarray(b, dtype=float))
        if self.a.shape != self.b.shape:
            raise DimensionMismatchError("mode coefficient shapes differ")


class CylindricalModeField(Field):
    """Finite sum of half-integer cylindrical modes, values {+-s(X)}.

    The pair {+-s} is well defined on the base space only when all angular
    frequencies 2*freq share one parity (all odd half-integers or all
    integers); the constructor enforces this.
    """

    planar = True

    def __init__(self, modes, n=2):
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
        if len(parities) > 1:
            raise ValueError("mixed angular parities give an ill-defined unordered pair")

    @classmethod
    def power_sum(cls, terms, n=2):
        """Harmonic field {+-Re(sum_j c_j z^(k_j/2))}; terms = [(c, k), ...]."""
        modes = []
        for c, k in terms:
            c = np.atleast_1d(np.asarray(c, dtype=complex))
            modes.append(CylindricalMode(k / 2.0, k / 2.0, c.real, -c.imag))
        return cls(modes, n=n)

    def symmetric_values(self, X):
        X = _as_points(X, self.n)
        return self.lift(np.hypot(X[:, 0], X[:, 1]), np.arctan2(X[:, 1], X[:, 0]))

    def symmetric_gradient(self, X):
        """d1 - i d2 of each mode Re(c z^p zbar^q), c = a - ib, p, q = (beta +- freq)/2,
        is c p s^(2p-2) sbar^(2q) + conj(c) q s^(2q-2) sbar^(2p), s = sqrt(z) on
        the arctan2 branch, signed zeros of x2 included (x1 + 1j*x2 loses them).
        A term with factor 0 is left out: a harmonic mode is (k/2) c s^(k-2), k =
        2 freq.  A term with both powers is r^(beta-1) (s/|s|)^(+-k-2), so no
        power over- or underflows alone; it is nan on the axis.  Values stay
        trigonometric, so the c that fit_c reads off them do not move by rounding.
        """
        X = _as_points(X, self.n)
        N = X.shape[0]
        z = np.empty(N, dtype=complex)
        z.real, z.imag = X[:, 0], X[:, 1]
        s = np.sqrt(z)
        terms = []
        with np.errstate(divide="ignore", invalid="ignore"):
            for md in self.modes:
                c, k = md.a - 1j * md.b, int(round(2 * md.freq))
                p, q = (md.beta + md.freq) / 2, (md.beta - md.freq) / 2
                for coef, e, e_bar, j in ((c, p, q, k - 2), (np.conj(c), q, p, -k - 2)):
                    if e != 0:
                        power = s ** j if e_bar == 0 else (
                            np.hypot(X[:, 0], X[:, 1]) ** (md.beta - 1) * (s / np.abs(s)) ** j)
                        terms.append((e * power)[:, None] * coef)
            grad = sum(terms)
        out = np.zeros((N, self.m, self.n))
        out[:, :, 0], out[:, :, 1] = grad.real, -grad.imag
        return out

    def lift(self, r, theta):
        """Exact continuous lift of the symmetric part on the 4pi cover.

        theta runs over [0, 4pi).  At theta = arctan2(x2, x1) this is the
        representative symmetric_values gives, at every axis coordinate.
        """
        r = np.asarray(r, dtype=float)
        theta = np.asarray(theta, dtype=float)
        out = np.zeros(r.shape + (self.m,))
        for md in self.modes:
            ang = np.cos(md.freq * theta)[..., None] * md.a + np.sin(md.freq * theta)[..., None] * md.b
            out += (r ** md.beta)[..., None] * ang
        return out

    def rescaled(self, Y, rho, scale):
        """u(Y + rho X) / scale: for Y on the axis, the exact reparameterization,
        each mode scaled by rho^beta / scale; else the RescaledField view."""
        Y = np.asarray(Y, dtype=float)
        if np.hypot(Y[0], Y[1]) > 0:
            return super().rescaled(Y, rho, scale)
        modes = []
        for md in self.modes:
            fac = rho ** md.beta / scale
            modes.append(CylindricalMode(md.beta, md.freq, md.a * fac, md.b * fac))
        return CylindricalModeField(modes, n=self.n)


class BranchPolynomialField(Field):
    """Values {+- Re(c (P(z) - q(y))^(1/2))}, z = x1 + i x2.

    With the default c the value is the complex square root itself read as a
    vector in R^2, so the symmetric part vanishes exactly on the zero set of
    P - q.  Any fixed branch of the square root is taken per point; only the
    unordered pair is exposed, so branch cuts never leak.
    """

    def __init__(self, coeffs, c=None, n=2, qfun=None, qgrad=None):
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
        self.planar = qfun is None

    def _P(self, z, y):
        p = np.polynomial.polynomial.polyval(z, self.coeffs)
        if self.qfun is not None:
            p = p - self.qfun(y)
        return p

    def _dP(self, z):
        dcoef = np.polynomial.polynomial.polyder(self.coeffs)
        return np.polynomial.polynomial.polyval(z, dcoef)

    def _w(self, X):
        z, y = X[:, 0] + 1j * X[:, 1], X[:, 2:]
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

    def lift(self, r, theta):
        """Continuous lift of the symmetric part along the sampled curve
        (r[k], theta[k]) at y = 0, continued from its value at k = 0.

        The continuous branch of (P - q)^(1/2) along the curve is
        |P - q|^(1/2) e^(i unwrap(arg(P - q)) / 2): numpy's principal root
        times (-1)^t, t the number of 2 pi turns unwrap added, so the lift is
        symmetric_values with those signs.  A step of log(P - q) between
        samples, arg and modulus together, above pi/4 means a zero within
        about a sample spacing of the curve, where neither the unwrap nor
        the continuation can be trusted to resolve the branch; there (and at
        an exact zero) the signs are the continuation of Field.lift.
        """
        X = _ring_points(r, theta, np.zeros(self.n - 2))
        s = self.symmetric_values(X)
        p = self._P(X[:, 0] + 1j * X[:, 1], X[:, 2:])
        arg = np.angle(p)
        unwrapped = np.unwrap(arg)
        with np.errstate(divide="ignore", invalid="ignore"):
            log_steps = np.hypot(np.diff(np.log(np.abs(p))), np.diff(unwrapped))
        if not np.all(log_steps <= np.pi / 4):
            return _continued(s)
        turns = np.rint((unwrapped - arg) / (2.0 * np.pi))
        return np.where(turns % 2 == 0, 1.0, -1.0)[:, None] * s


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

    def _map(self, X):
        return self.Y[None, :] + self.rho * X

    def symmetric_values(self, X):
        X = _as_points(X, self.n)
        return self.base.symmetric_values(self._map(X)) / self.scale

    def symmetric_gradient(self, X):
        X = _as_points(X, self.n)
        return self.base.symmetric_gradient(self._map(X)) * (self.rho / self.scale)


def l2_distance_sq(u, v, ball, spec=None):
    """Quadrature of the squared L2 pair distance between u and v on a ball."""
    if u.m != v.m or u.n != v.n:
        raise DimensionMismatchError("fields have mismatched dimensions")
    spec = spec or QuadratureSpec()

    def integrand(X):
        return metric_sq_symmetric(u.symmetric_values(X), v.symmetric_values(X))

    return spec.integrate_ball(ball, integrand, planar=u.planar and v.planar)


# ---------------------------------------------------------------------------
# Sampled fields on structured polar grids


def graded_radii(nr, radius):
    s = (np.arange(1, nr + 1)) / float(nr)
    return radius * s ** GRADING


class PolarGrid:
    """Polar grid in the (x1,x2)-plane times an optional axis line (n=3).

    Per-node data has one layout, (slab, nr, nt, m) in nodes() order, the
    plane one slab; on_grid reshapes (N, m) rows to it.  shape is the file
    order (nr, nt[, ny]) of the sampled-field CSV header.
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

    def coordinates(self):
        """(r, theta, y) that broadcast to the nodes as (slab, nr, nt): y is
        (ny, 1, 1, 1), or (1, 1, 1, 0) for the plane, which is one slab."""
        y = np.zeros((1, 1, 1, 0)) if self.ys is None else self.ys[:, None, None, None]
        return self.rs[:, None], self.thetas, y

    def nodes(self):
        """The (N, n) nodes: a ring of each radius on each axis slab, theta innermost."""
        return _ring_points(*self.coordinates()).reshape(-1, self.n)

    def on_grid(self, rows):
        """(N, m) rows in nodes() order as a (slab, nr, nt, m) array."""
        return rows.reshape((-1,) + self.shape[:2] + rows.shape[-1:])


SAMPLED_CSV_V1 = "# branchlab sampled-field v1"
SAMPLED_CSV_V2 = "# branchlab sampled-field v2"


class SampledField(Field):
    """Samples of a symmetric pair {+-s} on a polar grid, stored as one lift.

    The caller supplies the lift s_lift, one branch of s at every grid node
    as a (slab, nr, nt, m) array in nodes() order (PolarGrid.on_grid),
    continuous along theta on each ring and axis slab.  hol is one seam sign:
    the sign a read that interpolates across the theta seam puts on the
    values at thetas[0] (-1 on genuinely branched data with odd k; None
    reads as +1).  The domain is the largest origin-centred ball the grid
    covers: radius rs[-1] at n = 2, and max(0, min(rs[-1], -ys[0], ys[-1]))
    at n = 3.  Gradients are central differences of step FD_STEP rs[-1].  A read past
    the grid (a radius past rs[-1], or an axis value past ys) by more than
    (1e-12 + FD_STEP) rs[-1], rounding plus that step, raises DomainError.

    to_csv writes the v2 layout: a version line, a header with n, m,
    symmetric=1, hol, shape and the rs/thetas[/ys] lists, a line of column
    names, then one row per node in PolarGrid.nodes() order: its m lift
    values s.  The node coordinates are in the header only.  Values are
    float reprs, so a field reads back bit for bit, -0.0 included.  from_csv
    also reads v1, whose rows carry the node coordinates first and then two
    values a1, a2; s is (a1 - a2)/2.  A file with symmetric=0 is refused.
    """

    def __init__(self, grid, s_lift, hol=None):
        self.grid = grid
        self.n = grid.n
        self.s_lift = np.asarray(s_lift, dtype=float)  # (slab, nr, nt, m)
        self.m = self.s_lift.shape[-1]
        self.hol = hol
        R = grid.rs[-1] if grid.ys is None else max(0.0, min(grid.rs[-1], -grid.ys[0], grid.ys[-1]))
        self.domain = Ball((0.0,) * self.n, R)

    # -- interpolation ------------------------------------------------------

    def _locate(self, vals, grid_vals):
        idx = np.searchsorted(grid_vals, vals) - 1
        idx = np.clip(idx, 0, grid_vals.shape[0] - 2)
        t = (vals - grid_vals[idx]) / (grid_vals[idx + 1] - grid_vals[idx])
        return idx, np.clip(t, 0.0, 1.0)

    def _interp_lift(self, X):
        """The lift interpolated at X: bilinear in (r, theta) with the seam
        sign on each axis slab, linear across the slabs; every read comes
        here, so the grid guard is here."""
        X = _as_points(X, self.n)
        r = np.hypot(X[:, 0], X[:, 1])
        ys = () if self.n == 2 else (self.grid.ys[0] - X[:, 2], X[:, 2] - self.grid.ys[-1])
        past = np.max([r - self.grid.rs[-1], *ys], axis=0)  # how far each point lies past the grid
        if np.max(past, initial=0.0) > (1e-12 + FD_STEP) * self.grid.rs[-1]:
            x = X[np.argmax(past)]
            raise DomainError(f"sampled field read at radius {float(np.linalg.norm(x))!r}, "
                              f"past its grid; its domain radius is {self.domain.radius!r}")
        ir, tr = self._locate(r, self.grid.rs)
        th = self.grid.thetas
        # the angle past thetas[0], so that one below it lies across the seam
        theta = np.mod(np.arctan2(X[:, 1], X[:, 0]) - th[0], 2.0 * np.pi)
        dth = th[1] - th[0]
        jt = np.floor(theta / dth).astype(int)
        tt = theta / dth - jt
        jt0 = np.mod(jt, th.shape[0])
        jt1 = np.mod(jt + 1, th.shape[0])
        wrap = (jt + 1) >= th.shape[0]
        sgn = np.where(wrap, (self.hol if self.hol is not None else 1.0), 1.0)
        if self.n == 2:
            slabs = [(0, 1.0)]  # the plane is one slab, of weight 1
        else:
            iy, ty = self._locate(X[:, 2], self.grid.ys)
            slabs = [(iy, (1 - ty)[:, None]), (iy + 1, ty[:, None])]

        arr = self.s_lift
        parts = []
        for iy, wy in slabs:
            v00 = arr[iy, ir, jt0]
            v01 = arr[iy, ir, jt1] * sgn[:, None]
            v10 = arr[iy, ir + 1, jt0]
            v11 = arr[iy, ir + 1, jt1] * sgn[:, None]
            parts.append(wy * (
                (1 - tr)[:, None] * ((1 - tt)[:, None] * v00 + tt[:, None] * v01)
                + tr[:, None] * ((1 - tt)[:, None] * v10 + tt[:, None] * v11)))
        return sum(parts[1:], parts[0])

    def symmetric_values(self, X):
        return self._interp_lift(X)

    def symmetric_gradient(self, X):
        X = _as_points(X, self.n)
        eps = FD_STEP * self.grid.rs[-1]
        out = np.zeros((X.shape[0], self.m, self.n))
        for axis in range(self.n):
            dX = np.zeros_like(X)
            dX[:, axis] = eps
            sp = self._interp_lift(X + dX)
            sm = self._interp_lift(X - dX)
            out[:, :, axis] = (sp - sm) / (2 * eps)
        return out

    # -- serialization ------------------------------------------------------

    def to_csv(self, path):
        cols = [f"s_{k+1}" for k in range(self.m)]
        with open(path, "w") as fh:
            fh.write(SAMPLED_CSV_V2 + "\n")
            fh.write(
                f"# n={self.n} m={self.m} symmetric=1 "
                f"hol={int(self.hol) if self.hol is not None else 0}\n"
            )
            fh.write(f"# shape={','.join(str(k) for k in self.grid.shape)}\n")
            fh.write("# rs=" + ",".join(repr(float(v)) for v in self.grid.rs) + "\n")
            fh.write("# thetas=" + ",".join(repr(float(v)) for v in self.grid.thetas) + "\n")
            if self.grid.ys is not None:
                fh.write("# ys=" + ",".join(repr(float(v)) for v in self.grid.ys) + "\n")
            fh.write(",".join(cols) + "\n")
            row = ",".join(["%r"] * len(cols)) + "\n"
            fh.writelines(row % tuple(values)
                          for values in self.s_lift.reshape(-1, self.m).tolist())

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
        if meta.get("symmetric", "1") != "1":
            raise ValueError(f"symmetric={meta['symmetric']}: a pair with an average part; "
                             "only symmetric pairs {+-s} are read")
        grid = PolarGrid(rs, thetas, ys)
        if (n, shape) != (grid.n, grid.shape):
            raise ValueError(f"n={n} shape={meta['shape']} disagree with the rs/thetas/ys lists")
        _check_sampled_grid(grid, data, hol)
        v1 = version == SAMPLED_CSV_V1  # v1 rows hold the node, then a1 and a2
        expect = (int(np.prod(shape)), n + 2 * m if v1 else m)
        if data.shape != expect:
            raise ValueError(f"the data block is {data.shape[0]}x{data.shape[1]}, "
                             f"not {expect[0]}x{expect[1]}")
        s = (data[:, n:n + m] - data[:, n + m:]) / 2.0 if v1 else data
        return cls(grid, grid.on_grid(s), hol=hol or None)


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

    svals has shape (ny, nr, nt, m): ny axis slabs, the PolarGrid layout, a
    lone ring or curve being (1, 1, nt, m).  Returns (signs, holonomy):
    signs (ny, nr, nt) make sign * svals one locally continuous lift, and
    holonomy is the float sign picked up around a theta loop.  Column 0 is
    continued from ring to ring, sweeping inward from the outermost annulus;
    each ring is then continued along theta.  A slab whose rings disagree on
    the holonomy raises a PairingError naming the annulus, the first such
    slab's.

    The slabs are one lift: a slab whose holonomy differs from slab 0's
    raises a PairingError naming it, and each slab is aligned to the aligned
    slab below it by whole-slab sums, a tie keeping the sign.

    Matching uses a first-order continuation predictor rather than the bare
    previous value: value curves that swing quickly through a near-zero dip
    would otherwise be mis-paired at coarse angular sampling.  Every (slab,
    ring) pair is one lane; the theta sweep advances all lanes at once.
    """
    ny, nr, nt = svals.shape[:3]

    def nearer(v, pred):
        keep, swap = selection_costs(v, pred)
        return np.where(keep <= swap, 1.0, -1.0)

    signs = np.ones(svals.shape[:-1])
    prev = None
    for ri in range(nr - 1, -1, -1):
        if prev is not None:
            signs[:, ri, 0] = nearer(svals[:, ri, 0], prev)
        prev = signs[:, ri, 0, None] * svals[:, ri, 0]
    first = signs[:, :, 0, None] * svals[:, :, 0]
    lift_prev, lift_prev2 = first, None
    for j in range(1, nt):
        pred = lift_prev if lift_prev2 is None else 2.0 * lift_prev - lift_prev2
        signs[:, :, j] = nearer(svals[:, :, j], pred)
        lift_prev2, lift_prev = lift_prev, signs[:, :, j, None] * svals[:, :, j]
    # holonomy: continue the predictor across the wraparound
    pred = lift_prev if lift_prev2 is None else 2.0 * lift_prev - lift_prev2
    hols = nearer(first, pred)  # (ny, nr)
    mixed = np.any(hols != hols[:, -1:], axis=1)
    if np.any(mixed):
        row = hols[int(np.argmax(mixed))]
        bad = int(np.argmax(row != row[-1]))
        raise PairingError(f"inconsistent pairing holonomy at annulus {bad}", loop=bad)
    if np.any(hols[:, -1] != hols[0, -1]):
        iy = int(np.argmax(hols[:, -1] != hols[0, -1]))
        raise PairingError(f"holonomy changes along the axis at slab {iy}", loop=iy)
    for iy in range(1, ny):
        below = signs[iy - 1, ..., None] * svals[iy - 1]
        keep, swap = selection_costs((signs[iy, ..., None] * svals[iy]).ravel(), below.ravel())
        if swap < keep:
            signs[iy] = -signs[iy]
    return signs, float(hols[0, -1])


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
