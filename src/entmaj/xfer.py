"""Constructive certificates that one vector is majorized by another.

Four interoperating witnesses: chains of elementary two-coordinate transfers,
the doubly stochastic matrix a chain multiplies out to, its decomposition into
a convex mixture of permutations, and the real orthogonal matrix a chain
multiplies out to, one plane rotation per step, whose squared entries carry the
sorted source spectrum onto the sorted target.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .densop import UNITARY_TOL, _square, isometry_defect
from .errors import (InvalidValue, MajorizationFailed, MatchingFailed, NotDoublyStochastic,
                     NotOrthogonal, require)
from .seqmaj import (CLAMP_TOL, MAJORIZATION_TOL, NORMALIZED_TOL, _prob_vector,
                     convex_weights, is_majorized, sorted_padded)

# Two values closer than this are considered already transferred.
MATCH_TOL = 1e-12
SUPPORT_TOL = 1e-9  # default tol of birkhoff_decompose
# Most cells BirkhoffDecomposition.matrix() builds at once, unless one row has more terms:
# 2**13 cells make 64 KiB temporaries, below glibc's default 128 KiB mmap threshold, so
# each block reuses heap memory instead of mapping and faulting in fresh pages.
_MATRIX_BLOCK = 1 << 13


@dataclass(frozen=True, eq=False)
class TransferChain:
    """Step k mixes coordinates i = i[k] and j = j[k] of a d-vector with t = t[k]: (v_i, v_j)
    -> (t v_i + (1-t) v_j, (1-t) v_i + t v_j).  i, j and t are read-only arrays of one
    length, each step checked once, here; t is clamped to [0, 1]."""

    d: int
    i: np.ndarray
    j: np.ndarray
    t: np.ndarray

    def __post_init__(self):
        i, j, t = _ints(self.i, "i", 1), _ints(self.j, "j", 1), np.array(self.t, dtype=float)
        if t.ndim != 1 or not len(i) == len(j) == len(t):
            raise InvalidValue(f"i, j and t must have one length, not shapes {i.shape}, "
                               f"{j.shape} and {t.shape}")
        bad = ((i == j) | (np.minimum(i, j) < 0) | (np.maximum(i, j) >= self.d)
               | ~((t >= -CLAMP_TOL) & (t <= 1.0 + CLAMP_TOL)))  # NaN fails both
        if bad.any():
            k = bad.argmax()
            raise InvalidValue(f"step {k}: (i, j, t) = ({i[k]}, {j[k]}, {t[k]}) needs two "
                               f"distinct indices in 0..{self.d - 1} and t in [0, 1]")
        for name, value in zip("ijt", (i, j, np.clip(t, 0.0, 1.0))):
            value.setflags(write=False)
            object.__setattr__(self, name, value)


@dataclass(frozen=True, eq=False)
class DoublyStochasticMatrix:
    """Non-negative square matrix with unit row and column sums."""

    entries: np.ndarray

    def __post_init__(self):
        arr = _square(self.entries, float)
        lo, hi = arr.min(), arr.max()
        if lo < -CLAMP_TOL or hi > 1.0 + CLAMP_TOL:
            raise NotDoublyStochastic(f"entry outside [0,1]: {lo}..{hi}")
        worst = max(np.abs(arr.sum(axis=1) - 1).max(), np.abs(arr.sum(axis=0) - 1).max())
        require(worst, NORMALIZED_TOL, NotDoublyStochastic,
                "row/column sum deviates from 1 by {}", worst)
        object.__setattr__(self, "entries", arr)

    @property
    def d(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True, eq=False)
class OrthogonalMatrix:
    """Real square matrix U with max |U^T U - I| within UNITARY_TOL.

    The defect is measured once, at construction, and stored.
    """

    entries: np.ndarray
    orthogonality_defect: float = field(init=False)

    def __post_init__(self):
        arr = _square(self.entries, float)
        defect = isometry_defect(arr)
        require(defect, UNITARY_TOL, NotOrthogonal, "U^T U deviates from identity by {}", defect)
        object.__setattr__(self, "entries", arr)
        object.__setattr__(self, "orthogonality_defect", defect)

    @property
    def d(self) -> int:
        return self.entries.shape[0]


def _ints(values, name: str, ndim: int) -> np.ndarray:
    """values as a read-only int array of `ndim` (1 or 2) dimensions; an empty value,
    whatever its dtype, reads as shape (0,) or (0, 3)."""
    try:
        arr = np.array(values)
    except ValueError as exc:  # ragged rows
        raise InvalidValue(f"{name} must be a rectangular array") from exc
    if not arr.size:
        arr = np.empty((0, 3)[:ndim], dtype=int)
    elif arr.dtype.kind not in "iu":  # no truncated floats, no booleans
        raise InvalidValue(f"{name} must hold integers, not {arr.dtype}")
    if arr.ndim != ndim:
        raise InvalidValue(f"{name} must have {ndim} dimension(s), not shape {arr.shape}")
    arr = arr.astype(int, copy=False)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class BirkhoffDecomposition:
    """Convex mixture of permutations, stored as it is built: the weights t_0..t_{k-1},
    the first permutation, and the net changes of each later one.

    `first` maps row indices to column indices for t_0.  `changes` is a read-only (C, 3)
    int array of [term, row, col]: the permutation of `term` maps row to col where that
    of term - 1 does not, and copies it on every row it does not name.  1 <= term < k,
    the (term, row) pairs strictly increase, and every later term changes a row.  The
    type checks this once, in O((d + C) log(d + C)), on the run table `_runs()` that
    `matrix()` and `permutations` also read: no change keeps the column of the run
    before it, each term's changed rows take exactly the multiset of columns they leave,
    and there are at most (d-1)^2+1 terms.  `permutations`, the read-only (terms, d)
    stack, is built from the runs when first read.
    """

    weights: np.ndarray
    first: np.ndarray
    changes: np.ndarray

    def __post_init__(self):
        w = convex_weights(self.weights, np.size(self.weights))
        first, changes = _ints(self.first, "first", 1), _ints(self.changes, "changes", 2)
        k, d = len(w), len(first)
        if not d or (np.sort(first) != np.arange(d)).any():
            raise InvalidValue("term 0 is not a permutation of 0..d-1")
        bound = (d - 1) ** 2 + 1
        if k > bound:
            raise InvalidValue(f"{k} terms exceed the bound {bound} for d={d}")
        if changes.shape[1] != 3:
            raise InvalidValue(f"changes must be [term, row, col] triples, not shape "
                               f"{changes.shape}")
        term, row, col = changes.T
        bad = (term < 1) | (term >= k) | (np.minimum(row, col) < 0) | (np.maximum(row, col) >= d)
        if bad.any():
            t, r, c = changes[bad.argmax()]
            raise InvalidValue(f"term {t}: change [{t}, {r}, {c}] out of range for {k} terms "
                               f"at d={d}")
        key = term * d + row
        unordered = np.flatnonzero(key[1:] <= key[:-1])
        if unordered.size:
            t, r = changes[unordered[0] + 1, :2]
            raise InvalidValue(f"term {t}: row {r} repeated or out of (term, row) order")
        idle = np.flatnonzero(np.bincount(term, minlength=k)[1:] == 0)
        if idle.size:
            raise InvalidValue(f"term {idle[0] + 1} has no change")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "first", first)
        object.__setattr__(self, "changes", changes)
        start, cols = self._runs()[:2]
        t = start[1:] % k
        run = t > 0  # a change's run follows the run it replaces in its row
        t, before, after = t[run], cols[:-1][run], cols[1:][run]
        same = np.flatnonzero(before == after)
        if same.size:
            r = start[1:][run][same] // k
            i = np.argmin(t[same] * d + r)  # the first in (term, row) order
            raise InvalidValue(f"term {t[same[i]]}: row {r[i]} already maps to column "
                               f"{after[same[i]]}")
        del start, cols  # freed before the sorts
        left = np.sort(t * d + before)
        wrong = np.flatnonzero(left != np.sort(t * d + after))
        if wrong.size:
            raise InvalidValue(f"term {left[wrong[0]] // d} is not a permutation of 0..d-1")

    @property
    def d(self) -> int:
        return len(self.first)

    def _runs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Each row's columns in term order, as runs: the ascending starts row * k + term
        (`first` at row * k), the column of each run, and its length in terms."""
        d, k = self.d, len(self.weights)
        term, row, col = self.changes.T
        start = np.concatenate((np.arange(d) * k, row * k + term))
        order = np.argsort(start)
        start = start[order]
        return start, np.concatenate((self.first, col))[order], np.diff(start, append=d * k)

    @cached_property
    def permutations(self) -> np.ndarray:
        """The read-only (terms, d) int stack, row t mapping row indices to column indices
        for weight t_t.

        It is the transpose of a C-ordered (d, terms) array, in which each row holds its
        column in `first` and then each of its changes, repeated up to its next change."""
        _, col, length = self._runs()
        by_row = np.repeat(col, length).reshape(self.d, len(self.weights))
        by_row.setflags(write=False)
        return by_row.T

    def matrix(self) -> np.ndarray:
        """Assemble sum_i t_i P(pi_i), adding the terms in order.

        The cells are built from the runs a block of whole rows at a time, at most
        _MATRIX_BLOCK of them a block or else one row, and never as the (terms, d)
        stack.  A cell belongs to one row and `bincount` adds in input order, so each
        cell sums its weights in term order."""
        d, k = self.d, len(self.weights)
        start, col, length = self._runs()
        rows = min(max(1, _MATRIX_BLOCK // k), d)
        cell = start // k % rows * d + col  # numbered within its block
        ends = np.searchsorted(start, np.arange(rows, d + rows, rows) * k).tolist()
        weights = np.tile(self.weights, rows)
        out = np.empty((d, d))
        lo = 0
        for r0, hi in zip(range(0, d, rows), ends):
            n = min(rows, d - r0)
            out[r0:r0 + n] = np.bincount(np.repeat(cell[lo:hi], length[lo:hi]),
                                         weights=weights[:n * k], minlength=n * d).reshape(n, d)
            lo = hi
        return out


def find_transfer_chain(a, b, tol: float = MAJORIZATION_TOL) -> TransferChain:
    """Build at most d-1 elementary transfers carrying b's sorted vector to a's.

    At each step the mass surplus at the deepest still-mismatched coordinate
    is moved to the first coordinate after it that is short of its target,
    fixing at least one coordinate exactly.  The coordinates above and below
    their targets by more than MATCH_TOL are kept as two ascending index lists
    that only shrink: a step moves no coordinate past its target, so it costs
    one bisection, pops j once it is matched and deletes k once it is.  A
    surplus with no deficit after it is at most tol plus the difference of the
    totals, which the majorization test allowed, and is left in place.
    """
    a, b = _prob_vector(a), _prob_vector(b)
    verdict = is_majorized(a, b, tol)
    if not verdict.holds:
        raise MajorizationFailed("a is not majorized by b", verdict=verdict)
    d = max(a.d, b.d)
    av = sorted_padded(a, d).tolist()
    cur = sorted_padded(b, d).tolist()
    over = [i for i in range(d) if cur[i] - av[i] > MATCH_TOL]
    under = [i for i in range(d) if av[i] - cur[i] > MATCH_TOL]

    step_i, step_j, step_t = [], [], []
    while over:  # each step matches j or k exactly, so <= d-1 transfers
        j = over[-1]
        pos = bisect_right(under, j)
        if pos == len(under):
            # no deficit after j: its surplus is within the majorization tolerance
            over.pop()
            continue
        k = under[pos]
        delta = min(cur[j] - av[j], av[k] - cur[k])
        step_i.append(j)
        step_j.append(k)
        step_t.append(1.0 - delta / (cur[j] - cur[k]))
        # assign exactly-hit targets to avoid accumulating rounding residue
        cur[j] = av[j] if delta == cur[j] - av[j] else cur[j] - delta
        cur[k] = av[k] if delta == av[k] - cur[k] else cur[k] + delta
        if cur[j] - av[j] <= MATCH_TOL:
            over.pop()
        if av[k] - cur[k] <= MATCH_TOL:
            del under[pos]
    return TransferChain(d, step_i, step_j, step_t)


def _multiply_out(chain: TransferChain, coeffs) -> np.ndarray:
    """The product of one 2 x 2 block per step, last step leftmost.

    coeffs holds four per-step arrays (a, b, c, e): step k maps rows i and j of the
    running product to a_k row_i + b_k row_j and c_k row_i + e_k row_j.  Both rows are
    updated through views, the new row i built before row j is overwritten.
    """
    q = np.eye(chain.d)
    for i, j, a, b, c, e in zip(chain.i.tolist(), chain.j.tolist(), *coeffs):
        ri, rj = q[i], q[j]
        new_i = a * ri + b * rj
        rj *= e
        rj += c * ri
        ri[:] = new_i
    return q


def chain_to_doubly_stochastic(chain: TransferChain) -> DoublyStochasticMatrix:
    """Multiply out the chain's elementary matrices, last step leftmost."""
    t = chain.t
    return DoublyStochasticMatrix(_multiply_out(chain, (t, 1.0 - t, 1.0 - t, t)))


def chain_to_orthogonal(chain: TransferChain) -> OrthogonalMatrix:
    """Multiply out one plane rotation per step, last step leftmost, cos^2(theta) = t.

    Each step's coordinate pair is off-diagonal-free at the time it is
    rotated, so the diagonal of U diag(b_sorted) U^T evolves exactly like the
    transfer chain.
    """
    c, s = np.sqrt(chain.t), np.sqrt(1.0 - chain.t)
    return OrthogonalMatrix(_multiply_out(chain, (c, -s, s, c)))


def schur_horn_orthogonal(a, b, tol: float = MAJORIZATION_TOL) -> OrthogonalMatrix:
    """Real orthogonal U with diag(U diag(b_sorted) U^T) = a_sorted: the transfer
    chain from b to a, multiplied out by `chain_to_orthogonal`."""
    return chain_to_orthogonal(find_transfer_chain(a, b, tol))


def _augment(cols, members, perm, inv, open_cols, residual, cur, moved, root) -> bool:
    """Match the free row `root` along one BFS augmenting path; False when none exists.

    cols[r] lists row r's support columns in ascending order and members[r] holds them
    as a set.  perm maps rows to columns and inv columns to rows, -1 where unmatched,
    and open_cols is the set of unmatched columns; all three are updated in place.
    Each BFS level goes to the lowest free column it reaches, through the first
    frontier row that reaches it: it is found by intersecting the frontier rows' sets
    with open_cols, and only a level that reaches none is scanned, each column going
    to the first frontier row that reaches it and the next frontier being the mates
    of the level's columns in ascending order.  Each row the path moves writes its
    carried entry cur[r] back to `residual`, reads its new entry into cur[r] and is
    appended to the row list `moved`.
    """
    via = {}  # via[c]: the frontier row that reached column c
    frontier = [root]
    while frontier:
        best = -1
        for r in frontier:
            hit = members[r] & open_cols
            if hit:
                c = min(hit)
                if best < 0 or c < best:
                    best = c
                    via[c] = r
        if best >= 0:
            open_cols.discard(best)
            c = best
            while c >= 0:  # flip the path back to root, whose perm is -1
                r = via[c]
                nxt = perm[r]
                if nxt >= 0:
                    residual[r, nxt] = cur[r]
                cur[r] = residual[r, c]
                perm[r] = c
                inv[c] = r
                moved.append(r)
                c = nxt
            return True
        level = []
        for r in frontier:
            for c in cols[r]:
                if c not in via:
                    via[c] = r
                    level.append(c)
        level.sort()
        frontier = [inv[c] for c in level]
    return False


def _swap(cols, members, perm, inv, moved, residual, cur, r) -> bool:
    """Re-match row r, whose matched entry has just left the support, by one swap.

    Row r, the only row left free, takes the lowest column c2 of its list whose
    mate m has r's old column c in its support (`members[m]`), and m takes c:
    the path that `_augment` from r finds first, since c is the only free
    column.  m's old entry is written back to `residual` and both rows' entries
    are read into `cur`, and r and m are appended to `moved`.  Returns False,
    changing nothing, when no such column exists.
    """
    c = perm[r]
    for c2 in cols[r]:
        m = inv[c2]
        if c in members[m]:
            break
    else:
        return False
    residual[m, c2] = cur[m]
    cur[r], cur[m] = residual[r, c2], residual[m, c]
    perm[r], perm[m] = c2, c
    inv[c2], inv[c] = r, m
    moved.append(r)
    moved.append(m)
    return True


def birkhoff_decompose(q, tol: float = SUPPORT_TOL) -> BirkhoffDecomposition:
    """Greedy decomposition into a convex mixture of permutation matrices.

    Repeatedly finds a perfect matching on the support graph of the
    residual and subtracts the minimal matched entry.  Each round zeroes at
    least one entry, so the loop is finite.  Rounds after the first run
    while the residual's row mass exceeds min(tol / 100, NORMALIZED_TOL):
    stopping at the first residual below tol could leave nearly tol per row
    undecomposed, and a mass above NORMALIZED_TOL would leave weights that do
    not sum to 1.

    The matching is warm-started: a round drops from the support only the
    matched entries that fell to the floor and unmatches their rows.  When
    a single row is freed it is first repaired by one swap with the mate of
    one of its columns (`_swap`); otherwise, and when no swap exists, each
    freed row is re-matched by one BFS augmenting path (Hopcroft and Karp,
    SIAM J. Comput. 2, 1973), which by Berge's theorem reaches a perfect
    matching whenever the support has one.  The swap is the path the BFS
    would pick first, so both give the same terms.  The matched entries are
    carried as one vector across rounds; a row writes its entry back to
    `residual` and reads its new one only when a swap or an augmenting path
    moves it, and every matched entry is written back only when a round
    finds no perfect matching.

    The support is kept as one ascending column list per row, with a set per
    row for membership, so a swap or a BFS level costs Python work in the
    degree of the rows it scans, not numpy calls over d columns; a BFS level
    that reaches a free column finds it by set intersections with the free
    columns and is not scanned.  Each round runs three numpy calls over all d
    rows: the argmin that gives its weight, the subtraction, and one more
    argmin with the row that gave the weight hidden, which tells whether that
    row alone fell to the floor; only when it did not are all d rows compared
    with the floor.  The permutations are written as they are taken: `moved`
    lists the rows a swap or a path moved since the last term, and each term
    walks it in ascending order, writing a row's new column once, and only
    where it differs from the row's column in the term before.  Moves after
    the last term are never written.

    The support graph keeps entries down to the floor tol / (100 d).  Rows
    and columns of the residual carry equal mass m, and each row hides at
    most d * floor = tol / 100 below the floor, so a set X of rows reaches
    |N(X)| >= |X| (1 - tol / (100 m)) columns.  While some entry is >= tol,
    m >= tol and |N(X)| >= 0.99 |X|, which is Hall's condition |N(X)| >= |X|
    for every X when d < 100; beyond that MatchingFailed guards the round.
    A floor at tol itself would let borderline entries strand whole rows.
    Once every entry is below tol, m may fall near tol / 100 and the bound
    no longer holds; a round that then finds no perfect matching ends the
    decomposition if at most NORMALIZED_TOL of row mass is left, since the
    weights already sum to 1 within NORMALIZED_TOL.

    Raises MatchingFailed, naming the undecomposed row mass and tol, when
    any other round finds no perfect matching on the support above the
    floor: either an entry >= tol is stranded (numerical breakdown), or the
    entries below the floor hold more than NORMALIZED_TOL of row mass, which
    a tol above 100 NORMALIZED_TOL allows.  Raises InvalidValue, naming tol
    and the largest entry, when tol exceeds every entry, so that no round
    can start.  Also raises the errors of DoublyStochasticMatrix for bad
    input, and ValueError unless 0 < tol < inf.
    """
    if not 0 < tol < np.inf:
        raise ValueError(f"tol={tol} must be finite and > 0")
    if not isinstance(q, DoublyStochasticMatrix):
        q = DoublyStochasticMatrix(q)
    residual = q.entries.copy()
    residual[residual < 0] = 0.0
    top = float(residual.max())
    if tol > top:
        raise InvalidValue(f"tol={tol} exceeds the largest entry {top}: no term can be taken")
    d = residual.shape[0]
    floor = tol / (100.0 * d)
    stop = min(d * floor, NORMALIZED_TOL)
    cols = [np.flatnonzero(row).tolist() for row in residual > floor]
    members = [set(c) for c in cols]
    perm = [-1] * d
    inv = [-1] * d
    open_cols = set(range(d))  # the columns with inv -1
    cur = np.zeros(d)  # residual[r, perm[r]] where matched; residual is stale there
    argmin, item = cur.argmin, cur.item  # C methods; ndarray.min() goes through a wrapper
    mass = residual.sum(axis=1).max()  # every round takes w from every row

    weights = []
    changes = []  # term, row, col, ...: where each term's permutation differs from the last
    moved = []  # the rows that took a column since the last term
    free = range(d)
    going = True
    while going:
        if free and not all(_augment(cols, members, perm, inv, open_cols, residual, cur,
                                     moved, r) for r in free):
            for r, c in enumerate(perm):  # the test below reads the matched entries too
                if c >= 0:
                    residual[r, c] = cur[r]
            if mass <= NORMALIZED_TOL and all(
                    (residual[r, c] < tol).all() for r, c in enumerate(cols)):
                break  # off the support every entry is at most the floor
            raise MatchingFailed(
                f"no perfect matching on the support above {floor} after "
                f"{len(weights)} terms; row mass {mass:.3g} undecomposed at tol={tol}")
        j = int(argmin())
        w = item(j)
        if weights:
            term = len(weights)
            moved.sort()
            for r in moved:  # a row that moved twice is written once, and not if it moved back
                c = perm[r]
                if c != last[r]:
                    last[r] = c
                    changes.append(term)
                    changes.append(r)
                    changes.append(c)
        else:
            first, last = perm.copy(), perm.copy()
        moved.clear()
        weights.append(w)
        cur -= w
        mass -= w
        going = mass > stop
        # Row j is now exactly 0.0.  Hidden under inf, one argmin tells whether it is the
        # only row at the floor, and only when it is not are all d rows compared with the
        # floor.  The inf is never read: `_swap` and `_augment` overwrite cur of every row
        # they match, an unmatched root writes nothing back, and the write-back before
        # MatchingFailed reads matched rows only.
        cur[j] = np.inf
        if item(argmin()) > floor:  # row j alone is freed: a swap repairs it, or a path
            c = perm[j]
            cols[j].remove(c)
            members[j].discard(c)
            if _swap(cols, members, perm, inv, moved, residual, cur, j):
                free = ()
                continue
            free = [j]
        else:
            cur[j] = 0.0
            free = (cur <= floor).nonzero()[0].tolist()
            for r in free:
                cols[r].remove(perm[r])
                members[r].discard(perm[r])
        # a new set: one drained from d members keeps its table, and iterating it costs that
        open_cols = {perm[r] for r in free}
        for r in free:
            inv[perm[r]] = -1
            perm[r] = -1
    weights, changes = np.array(weights), np.array(changes, dtype=int).reshape(-1, 3)
    del cols, members, residual, cur  # freed before the type checks copy the changes
    return BirkhoffDecomposition(weights=weights, first=first, changes=changes)
