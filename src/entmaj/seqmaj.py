"""Probability vectors, the majorization preorder, and Shannon entropy.

A vector ``a`` is majorized by ``b`` (``a`` is "more mixed") when every
descending prefix sum of ``a`` is bounded by the corresponding prefix sum of
``b`` and the totals agree.  Entropies are in bits (log base 2), with the
convention 0*log(0) = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DimensionMismatch, InvalidValue, require

# Entries in [-CLAMP_TOL, 0) are rounded up to zero on construction; xfer allows
# doubly stochastic entries and transfer weights outside [0, 1] by as much.
CLAMP_TOL = 1e-12
# |sum - 1| allowed for every unit sum: normalized vectors, the clamped spectra of
# states, rows and columns of doubly stochastic matrices.
NORMALIZED_TOL = 1e-9
# Positive values below this underflow x*log(x) and are treated as zero.
LOG_FLOOR = 1e-300
MAJORIZATION_TOL = 1e-9  # default absolute tolerance of the prefix-sum comparisons


@dataclass(frozen=True, eq=False)
class ProbVector:
    """Finite sequence of non-negative reals, optionally summing to 1."""

    entries: np.ndarray
    normalized: bool = False

    def __post_init__(self):
        arr = np.array(self.entries, dtype=float)
        if arr.ndim != 1 or arr.size < 1:
            raise InvalidValue("entries must be a non-empty 1-d sequence")
        _require_probabilities(arr, self.normalized)
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)

    @property
    def d(self) -> int:
        return self.entries.size

    def total(self) -> float:
        return float(self.entries.sum())


@dataclass(frozen=True)
class PrefixViolation:
    """Smallest prefix length k whose sums violate the majorization order."""

    k: int
    lhs: float
    rhs: float


@dataclass(frozen=True)
class MajorizationVerdict:
    sums_equal: bool
    first_violation: Optional[PrefixViolation] = None

    @property
    def holds(self) -> bool:
        return self.sums_equal and self.first_violation is None


def _require_probabilities(arr: np.ndarray, normalized: bool):
    """Prove the vector arr finite with no entry below -CLAMP_TOL, and set its negative
    entries to zero in place; if normalized, it must sum to 1."""
    lo, hi = arr.min(), arr.max()  # both NaN when any entry is
    if not -np.inf < lo <= hi < np.inf:
        raise InvalidValue("entries must be finite")
    if lo < -CLAMP_TOL:
        raise InvalidValue(f"negative entry {float(lo)} below -{CLAMP_TOL}")
    if lo < 0:
        arr[arr < 0] = 0.0
    if normalized:
        total = arr.sum()
        require(abs(total - 1.0), NORMALIZED_TOL, InvalidValue,
                "normalized vector sums to {}, not 1", total)


def _prob_vector(p) -> ProbVector:
    """p itself if it is a ProbVector, else p taken in once through ProbVector's checks."""
    return p if isinstance(p, ProbVector) else ProbVector(p)


def sorted_padded(p, d: int) -> np.ndarray:
    """The entries of p in non-increasing order, ties in their original order, then zeros
    up to length d >= len(p), as a new writable array."""
    arr = _prob_vector(p).entries
    if d < arr.size:
        raise DimensionMismatch(f"cannot pad {arr.size} entries to length {d}")
    out = np.zeros(d)
    out[:arr.size] = -np.sort(-arr, kind="stable")
    return out


def is_majorized(a, b, tol: float = MAJORIZATION_TOL) -> MajorizationVerdict:
    """Decide whether a is majorized by b, zero-padding to a common length.

    Prefix comparisons use the absolute tolerance `tol`; a total-sum mismatch
    beyond `tol` is a false verdict with sums_equal=False, not an error.  Two
    normalized vectors each proved their total is 1 at construction, so their totals,
    the last prefix, are not compared again.  A raw vector must pass ProbVector's
    checks, and prefix sums that overflow raise InvalidValue.
    """
    a, b = _prob_vector(a), _prob_vector(b)
    d = max(a.d, b.d)
    with np.errstate(over="ignore"):  # entries near the float maximum overflow the sums
        pa = np.cumsum(sorted_padded(a, d))
        pb = np.cumsum(sorted_padded(b, d))
    if not (np.isfinite(pa[-1]) and np.isfinite(pb[-1])):  # an overflow stays to the end
        raise InvalidValue(f"prefix sums {pa[-1]}, {pb[-1]} are not finite")
    n = d - (a.normalized and b.normalized)  # the prefixes still to compare
    sums_equal = n < d or bool(abs(pa[-1] - pb[-1]) <= tol)
    bad = np.nonzero(pa[:n] > pb[:n] + tol)[0]
    if bad.size:
        k = int(bad[0])
        violation = PrefixViolation(k=k + 1, lhs=float(pa[k]), rhs=float(pb[k]))
        return MajorizationVerdict(sums_equal, violation)
    return MajorizationVerdict(sums_equal)


def convex_weights(weights, count: int) -> np.ndarray:
    """One positive weight per term, for `count` >= 1 terms, forming a normalized ProbVector."""
    if not 1 <= count == np.size(weights):
        raise InvalidValue(f"need at least one term and one weight per term, "
                           f"got {np.size(weights)} weights for {count} terms")
    w = ProbVector(weights, normalized=True).entries
    if not w.min() > 0:
        raise InvalidValue(f"weights must be positive, got {w.min()}")
    return w


def shannon_entropy(p) -> float:
    """H(p) = -sum p_i log2(p_i) in bits, with 0*log(0) = 0; a raw p must pass ProbVector's
    checks."""
    arr = _prob_vector(p).entries
    pos = arr[arr > LOG_FLOOR]
    if pos.size == 0:
        return 0.0
    return float(_bits(pos))


def _row_entropies(arr: np.ndarray) -> np.ndarray:
    """H of each row of a 2-d array, in bits, for rows that each pass the checks of
    ProbVector(row, normalized=True), such as the spectra of `densop.spectra`; the
    entropies must be finite."""
    return _bits(np.where(arr > LOG_FLOOR, arr, 1.0))  # an entry of 1 adds 0 bits


def _bits(pos: np.ndarray) -> np.ndarray:
    """-sum p log2(p) along the last axis, for entries above LOG_FLOOR; must be finite.
    Subtracted from 0.0, so that a point mass, whose terms are all +0.0, has +0.0 bits."""
    with np.errstate(over="ignore"):  # entries near the float maximum overflow x*log(x)
        bits = 0.0 - np.add.reduce(pos * np.log2(pos), axis=-1)  # np.sum, minus its wrapper
    if not (np.isfinite(bits).all() if bits.ndim else math.isfinite(bits)):
        raise InvalidValue(f"entropy sum {bits} is not finite")
    return bits


def random_majorized_pair(d: int, rng: np.random.Generator) -> tuple[ProbVector, ProbVector]:
    """Sample (a, b) with a majorized by b, b flat on the simplex.

    a is a convex mixture of four coordinate permutations of b, with flat
    weights, so the relation holds by construction.  Deterministic for a fixed
    generator state.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    b = rng.dirichlet(np.ones(d))
    a = np.zeros(d)
    for w in rng.dirichlet(np.ones(4)):
        a += w * b[rng.permutation(d)]
    return ProbVector(a, normalized=True), ProbVector(b, normalized=True)
