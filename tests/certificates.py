"""Test helpers that rebuild certificates from the forms in which they are given or written."""

import numpy as np

from entmaj.xfer import (BirkhoffDecomposition, OrthogonalMatrix, TransferChain,
                         chain_to_orthogonal)


def decomposition_of_stack(weights, perms) -> BirkhoffDecomposition:
    """The BirkhoffDecomposition of a (terms, d) permutation stack: its first row, and a
    [term, row, col] change wherever a row maps elsewhere than in the term before.  The
    rows are compared entry by entry, so a stack that is ragged, flat or not of integers
    reaches the type's own checks."""
    first, *rest = perms
    changes, prev = [], np.ravel(first)
    for term, perm in enumerate(rest, 1):
        perm = np.ravel(perm)
        changes += [[term, row, col] for row, col in enumerate(perm.tolist())
                    if row >= prev.size or col != prev[row]]
        prev = perm
    return BirkhoffDecomposition(weights=weights, first=first, changes=changes)


def chain_of_json(obj) -> TransferChain:
    """The TransferChain of a written transfer chain {"d", "steps"}."""
    steps = obj["steps"]
    return TransferChain(obj["d"], [s["i"] for s in steps], [s["j"] for s in steps],
                         [s["t"] for s in steps])


def orthogonal_of_rotations(obj) -> OrthogonalMatrix:
    """U = G_m ... G_1 of a written transfer chain {"d", "steps"}, read as plane rotations."""
    return chain_to_orthogonal(chain_of_json(obj))
