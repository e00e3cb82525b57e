"""Probability vectors, the majorization preorder, and Shannon entropy.

A vector ``a`` is majorized by ``b`` (``a`` is "more mixed") when every
descending prefix sum of ``a`` is bounded by the corresponding prefix sum of
``b`` and the totals agree.  Entropies are in bits (log base 2), with the
convention 0*log(0) = 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import InvalidValue, require

# Entries in [-CLAMP_TOL, 0) are rounded up to zero on construction.
CLAMP_TOL = 1e-12
# |sum - 1| allowed for vectors flagged as normalized.
NORMALIZED_TOL = 1e-9
# Positive values below this underflow x*log(x) and are treated as zero.
LOG_FLOOR = 1e-300
MAJORIZATION_TOL = 1e-9  # default absolute tolerance of the prefix-sum comparisons


@dataclass(frozen=True)
class ProbVector:
    """Finite sequence of non-negative reals, optionally summing to 1."""

    entries: np.ndarray
    normalized: bool = False

    def __post_init__(self):
        arr = np.array(self.entries, dtype=float)
        if arr.ndim != 1 or arr.size < 1:
            raise InvalidValue("entries must be a non-empty 1-d sequence")
        if not np.all(np.isfinite(arr)):
            raise InvalidValue("entries must be finite")
        if np.any(arr < -CLAMP_TOL):
            worst = float(arr.min())
            raise InvalidValue(f"negative entry {worst} below -{CLAMP_TOL}")
        arr[(arr < 0)] = 0.0
        if self.normalized:
            total = arr.sum()
            require(abs(total - 1.0), NORMALIZED_TOL, InvalidValue,
                    "normalized vector sums to {}, not 1", total)
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
    holds: bool
    sums_equal: bool
    first_violation: Optional[PrefixViolation] = None

    def __post_init__(self):
        if self.holds and (self.first_violation is not None or not self.sums_equal):
            raise ValueError("holds requires sums_equal and no violation")


def _as_array(p) -> np.ndarray:
    if isinstance(p, ProbVector):
        return p.entries
    return np.asarray(p, dtype=float)


def sort_desc(p: ProbVector) -> ProbVector:
    """Non-increasing rearrangement; ties keep their original order."""
    arr = _as_array(p)
    order = np.argsort(-arr, kind="stable")
    return ProbVector(arr[order], normalized=getattr(p, "normalized", False))


def is_majorized(a, b, tol: float = MAJORIZATION_TOL) -> MajorizationVerdict:
    """Decide whether a is majorized by b, zero-padding to a common length.

    Prefix comparisons use the absolute tolerance `tol`; a total-sum mismatch
    beyond `tol` is a false verdict with sums_equal=False, not an error.
    """
    av = _as_array(a)
    bv = _as_array(b)
    d = max(av.size, bv.size)
    av = np.pad(-np.sort(-av), (0, d - av.size))
    bv = np.pad(-np.sort(-bv), (0, d - bv.size))
    pa = np.cumsum(av)
    pb = np.cumsum(bv)
    sums_equal = bool(abs(pa[-1] - pb[-1]) <= tol)
    bad = np.nonzero(pa > pb + tol)[0]
    if bad.size:
        k = int(bad[0])
        violation = PrefixViolation(k=k + 1, lhs=float(pa[k]), rhs=float(pb[k]))
        return MajorizationVerdict(holds=False, sums_equal=sums_equal,
                                   first_violation=violation)
    return MajorizationVerdict(holds=sums_equal, sums_equal=sums_equal)


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
    """H(p) = -sum p_i log2(p_i) in bits, with 0*log(0) = 0."""
    arr = _as_array(p)
    if isinstance(p, ProbVector) and p.normalized and np.any(arr > 1.0 + NORMALIZED_TOL):
        raise ValueError(f"normalized vector has entry {arr.max()} > 1")
    pos = arr[arr > LOG_FLOOR]
    if pos.size == 0:
        return 0.0
    with np.errstate(over="ignore"):  # entries near the float maximum overflow x*log(x)
        bits = -np.sum(pos * np.log2(pos))
    if not np.isfinite(bits):
        raise InvalidValue(f"entropy sum {bits} is not finite")
    return float(bits)


def tail_group(c: ProbVector, n: int) -> ProbVector:
    """Replace the tail after position n by its sum: (c_1..c_n, sum_{i>n} c_i).

    Grouping can only lose entropy, so H(tail_group(c, n)) <= H(c).
    """
    arr = _as_array(c)
    if not 1 <= n <= arr.size:
        raise ValueError(f"n={n} out of range 1..{arr.size}")
    grouped = np.append(arr[:n], arr[n:].sum())
    return ProbVector(grouped, normalized=getattr(c, "normalized", False))


def random_majorized_pair(d: int, rng: np.random.Generator,
                          num_perms: int = 4) -> tuple[ProbVector, ProbVector]:
    """Sample (a, b) with a majorized by b, b flat on the simplex.

    a is a convex mixture of coordinate permutations of b, so the relation
    holds by construction.  Deterministic for a fixed generator state.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    b = rng.dirichlet(np.ones(d))
    weights = rng.dirichlet(np.ones(num_perms))
    a = np.zeros(d)
    for w in weights:
        a += w * b[rng.permutation(d)]
    return ProbVector(a, normalized=True), ProbVector(b, normalized=True)
