"""Unordered pairs of m-vectors, their metric, and the average/symmetric split.

A point of the pair space is a set {a1, a2} of two vectors in R^m, not
necessarily distinct.  Pairs are stored ordered internally; every public
operation quotients by the swap, so the stored order never leaks.
"""

import numpy as np

from .errors import DimensionMismatchError

IDENTITY = "identity"
SWAP = "swap"


class UnorderedPair:
    """Two m-vectors up to swap."""

    __slots__ = ("a1", "a2")

    def __init__(self, a1, a2):
        a1 = np.atleast_1d(np.asarray(a1, dtype=float))
        a2 = np.atleast_1d(np.asarray(a2, dtype=float))
        if a1.shape != a2.shape or a1.ndim != 1:
            raise DimensionMismatchError(
                f"pair members must be equal-length vectors, got {a1.shape} and {a2.shape}"
            )
        a1.setflags(write=False)
        a2.setflags(write=False)
        object.__setattr__(self, "a1", a1)
        object.__setattr__(self, "a2", a2)

    @property
    def m(self):
        return self.a1.shape[0]

    def __repr__(self):
        return f"UnorderedPair({self.a1.tolist()}, {self.a2.tolist()})"

    def __eq__(self, other):
        if not isinstance(other, UnorderedPair) or other.m != self.m:
            return NotImplemented
        same = np.array_equal(self.a1, other.a1) and np.array_equal(self.a2, other.a2)
        swapped = np.array_equal(self.a1, other.a2) and np.array_equal(self.a2, other.a1)
        return same or swapped

    def __hash__(self):
        k1, k2 = sorted((self.a1.tobytes(), self.a2.tobytes()))
        return hash((k1, k2))

    @property
    def norm(self):
        """|a| = G(a, {0,0}) = sqrt(|a1|^2 + |a2|^2), pairing-invariant."""
        return float(np.sqrt(np.dot(self.a1, self.a1) + np.dot(self.a2, self.a2)))

    def is_symmetric(self):
        """Whether a2 = -a1 exactly."""
        return float(np.max(np.abs(self.a1 + self.a2), initial=0.0)) <= 0.0

    def swapped(self):
        return UnorderedPair(self.a2, self.a1)


def zero_pair(m):
    z = np.zeros(m)
    return UnorderedPair(z, z)


def _check_same_m(a, b):
    if a.m != b.m:
        raise DimensionMismatchError(f"pairs have m={a.m} and m={b.m}")


def pairing_costs(a, b):
    """Squared costs of the identity and swap pairings of a against b."""
    _check_same_m(a, b)
    d11 = a.a1 - b.a1
    d22 = a.a2 - b.a2
    d12 = a.a1 - b.a2
    d21 = a.a2 - b.a1
    keep = float(np.dot(d11, d11) + np.dot(d22, d22))
    swap = float(np.dot(d12, d12) + np.dot(d21, d21))
    return keep, swap


def metric_g(a, b):
    """The pair metric: min over the two pairings of the l2 distance."""
    keep, swap = pairing_costs(a, b)
    return float(np.sqrt(min(keep, swap)))


def optimal_pairing(a, b):
    """Pairing achieving the minimum in metric_g; ties resolve to identity."""
    keep, swap = pairing_costs(a, b)
    return IDENTITY if keep <= swap else SWAP


def decompose(a):
    """Split a into (average vector, symmetric pair {+(a1-a2)/2, -(a1-a2)/2})."""
    avg = (a.a1 + a.a2) / 2.0
    s = (a.a1 - a.a2) / 2.0
    return avg, UnorderedPair(s, -s)


def recompose(average, symmetric):
    """Inverse of decompose: {average + s1, average + s2}."""
    average = np.asarray(average, dtype=float)
    if average.shape != symmetric.a1.shape:
        raise DimensionMismatchError(
            f"average has shape {average.shape}, symmetric part m={symmetric.m}"
        )
    return UnorderedPair(average + symmetric.a1, average + symmetric.a2)


# Vectorized kernels used by quadrature.  Arrays carry points along the
# leading axes and the m components along the last axis.

def metric_sq_arrays(a1, a2, b1, b2):
    """G(a,b)^2 for batched pairs; min over the two pairings, pointwise."""
    keep = np.sum((a1 - b1) ** 2, axis=-1) + np.sum((a2 - b2) ** 2, axis=-1)
    swap = np.sum((a1 - b2) ** 2, axis=-1) + np.sum((a2 - b1) ** 2, axis=-1)
    return np.minimum(keep, swap)


def selection_costs(su, sv):
    """(|su - sv|^2, |su + sv|^2): the costs of keeping and of negating su against sv.

    This is the lab's one nearest-selection rule; callers keep su where
    keep <= swap, so a tie keeps the sign.
    """
    return np.sum((su - sv) ** 2, axis=-1), np.sum((su + sv) ** 2, axis=-1)


def metric_sq_symmetric(su, sv):
    """G^2 between symmetric pairs {+-su} and {+-sv}: 2 min(|su-sv|^2, |su+sv|^2)."""
    return 2.0 * np.minimum(*selection_costs(su, sv))
