"""The pair metric on symmetric pairs of m-vectors, as array kernels.

A point of the pair space is a set {a, -a} of two vectors in R^m; its
metric takes the minimum over the two pairings, so the sign of the stored
representative never matters.  Arrays carry points along the leading axes
and the m components along the last axis.
"""

import numpy as np


def selection_costs(su, sv):
    """(|su - sv|^2, |su + sv|^2): the costs of keeping and of negating su against sv.

    This is the lab's one nearest-selection rule; callers keep su where
    keep <= swap, so a tie keeps the sign.
    """
    return np.sum((su - sv) ** 2, axis=-1), np.sum((su + sv) ** 2, axis=-1)


def metric_sq_symmetric(su, sv):
    """G^2 between symmetric pairs {+-su} and {+-sv}: 2 min(|su-sv|^2, |su+sv|^2)."""
    return 2.0 * np.minimum(*selection_costs(su, sv))
