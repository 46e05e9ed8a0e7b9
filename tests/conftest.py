import hypothesis.strategies as st
import numpy as np
import pytest

from branchlab.fields import CylindricalModeField, Field
from branchlab.profiles import CylindricalProfile
from branchlab.quadrature import QuadratureSpec

# c with c . c = 0: the admissible coefficient for odd-k minimizing profiles
C_NULL = np.array([1.0, 1.0j]) / np.sqrt(2.0)

# cover angles at the seams: both zeros, 2 pi, and the last float below 4 pi
SEAM_ANGLES = (0.0, -0.0, 2.0 * np.pi, np.nextafter(4.0 * np.pi, 0.0))
_COEF = st.floats(-2.0, 2.0, allow_nan=False)


def _values(draw, count, lo, hi, special):
    """count floats in [lo, hi], each maybe one of special."""
    return draw(st.lists(st.one_of(st.sampled_from(special), st.floats(lo, hi)),
                         min_size=count, max_size=count))


@st.composite
def profile_pairs(draw, dims=(2, 3)):
    """A power sum u and a tilted, off-centre profile of its dimension and m."""
    n, m = draw(st.sampled_from(dims)), draw(st.integers(1, 2))

    def coef():
        re, im = (np.array(draw(st.lists(_COEF, min_size=m, max_size=m))) for _ in range(2))
        return re + 1j * im

    parity = draw(st.integers(0, 1))
    terms = [(coef(), 2 * draw(st.integers(1 - parity, 2)) + parity)
             for _ in range(draw(st.integers(1, 2)))]
    B = draw(st.lists(st.floats(-0.3, 0.3), min_size=2 * (n - 2), max_size=2 * (n - 2)))
    prof = CylindricalProfile(coef(), draw(st.integers(1, 4)), B=B,
                              center=_values(draw, n, -0.3, 0.3, (0.0, -0.0)), n=n)
    return CylindricalModeField.power_sum(terms, n=n), prof


@st.composite
def cover_points(draw, n):
    """(r, theta, y) of N cover points: theta on [0, 4 pi) or at a seam, and y
    (N, n - 2) with signed zeros."""
    N = draw(st.integers(1, 8))
    r = np.array(_values(draw, N, 0.0, 1.5, (0.0,)))
    theta = np.array(_values(draw, N, 0.0, np.nextafter(4.0 * np.pi, 0.0), SEAM_ANGLES))
    y = np.array(_values(draw, N * (n - 2), -1.0, 1.0, (0.0, -0.0))).reshape(N, n - 2)
    return r, theta, y


@pytest.fixture(scope="session")
def spec_fast():
    return QuadratureSpec(nr=32, ntheta=64, naxis=16, nsphere=128, npolar=64)


@pytest.fixture(scope="session")
def spec_fine():
    return QuadratureSpec(nr=64, ntheta=128, naxis=24, nsphere=384, npolar=128)


@pytest.fixture(scope="session")
def phi_half():
    """Model profile {+-Re(c z^(1/2))} with c . c = 0, n = 2."""
    return CylindricalModeField.power_sum([(C_NULL, 1)], n=2)


def power_sum_norm_sq(terms, rho=1.0):
    """Closed form of int_{B_rho} |u|^2 for {+-Re(sum c_j z^(k_j/2))} in n = 2.

    Distinct half-integer angular modes are L2-orthogonal on circles, so
    int_{B_rho} |u|^2 = 2 int |s|^2 = 2 pi sum_j |c_j|^2 rho^(k_j+2)/(k_j/2+1).
    """
    total = 0.0
    for c, k in terms:
        c = np.atleast_1d(np.asarray(c, dtype=complex))
        a = k / 2.0
        total += 2.0 * np.pi * float(np.sum(np.abs(c) ** 2)) * rho ** (2 * a + 2) / (2 * a + 2)
    return total


def power_sum_DH(terms, rho=1.0):
    """Closed forms D(rho), H(rho) for power sums in n = 2 (same orthogonality)."""
    D = 0.0
    H = 0.0
    for c, k in terms:
        c = np.atleast_1d(np.asarray(c, dtype=complex))
        a = k / 2.0
        csq = float(np.sum(np.abs(c) ** 2))
        D += 2.0 * np.pi * a * csq * rho ** (2 * a)
        H += 2.0 * np.pi * csq * rho ** (2 * a)
    return D, H


class PointRecorder(Field):
    """A field that keeps a copy of every point set it is read at; its one
    value component is 1 + x1."""

    def __init__(self, n):
        self.n, self.m, self.points = n, 1, []

    def symmetric_values(self, X):
        self.points.append(np.array(X, copy=True))
        return 1.0 + X[:, :1]
