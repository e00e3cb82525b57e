import collections
import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from certificates import decomposition_of_stack
from entmaj import xfer
from entmaj.densop import random_density
from entmaj.errors import (DimensionMismatch, InvalidValue, MajorizationFailed, MatchingFailed,
                           NotDoublyStochastic, NotOrthogonal)
from entmaj.qchan import mixed_unitary_uhlmann
from entmaj.seqmaj import (NORMALIZED_TOL, ProbVector, is_majorized, random_majorized_pair,
                           sorted_padded)
from entmaj.xfer import (
    MATCH_TOL,
    SUPPORT_TOL,
    BirkhoffDecomposition,
    DoublyStochasticMatrix,
    OrthogonalMatrix,
    TransferChain,
    birkhoff_decompose,
    chain_to_doubly_stochastic,
    chain_to_orthogonal,
    find_transfer_chain,
    schur_horn_orthogonal,
)


def steps_of(chain) -> list:
    """The chain's steps as (i, j, t) tuples of Python numbers."""
    return list(zip(chain.i.tolist(), chain.j.tolist(), chain.t.tolist()))


def apply_t_transform(i, j, t, v) -> ProbVector:
    """Apply one elementary transfer; the total is preserved."""
    p = v if isinstance(v, ProbVector) else ProbVector(v)
    arr = np.array(p.entries)
    if i >= arr.size or j >= arr.size:
        raise InvalidValue(f"indices ({i},{j}) out of range for d={arr.size}")
    vi, vj = arr[i], arr[j]
    arr[i] = t * vi + (1.0 - t) * vj
    arr[j] = (1.0 - t) * vi + t * vj
    return ProbVector(arr, normalized=p.normalized)


def replay(chain, b):
    """The chain applied to sorted b one step at a time: the oracle of its matrices."""
    cur = ProbVector(sorted_padded(b, chain.d))
    for i, j, t in steps_of(chain):
        cur = apply_t_transform(i, j, t, cur)
    return cur.entries


class TestApplyTTransform:
    def test_identity(self):
        out = apply_t_transform(0, 1, 1.0, ProbVector([0.7, 0.3]))
        np.testing.assert_allclose(out.entries, [0.7, 0.3])

    def test_swap(self):
        out = apply_t_transform(0, 1, 0.0, ProbVector([0.7, 0.3]))
        np.testing.assert_allclose(out.entries, [0.3, 0.7])

    def test_even_mix(self):
        out = apply_t_transform(0, 1, 0.5, ProbVector([0.75, 0.25]))
        np.testing.assert_allclose(out.entries, [0.5, 0.5])

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            apply_t_transform(0, 5, 0.5, ProbVector([0.5, 0.5]))


class TestFindTransferChain:
    def test_two_coordinate_example(self):
        chain = find_transfer_chain(ProbVector([0.5, 0.5]), ProbVector([0.75, 0.25]))
        [(i, j, t)] = steps_of(chain)
        assert (i, j) == (0, 1)
        assert t == pytest.approx(0.5, abs=1e-12)

    def test_equal_inputs_give_empty_chain(self):
        chain = find_transfer_chain(ProbVector([0.4, 0.6]), ProbVector([0.6, 0.4]))
        assert steps_of(chain) == []

    def test_transfer_into_zero(self):
        chain = find_transfer_chain(ProbVector([0.5, 0.25, 0.25]),
                                    ProbVector([0.5, 0.5, 0.0]))
        [(i, j, t)] = steps_of(chain)
        assert (i, j) == (1, 2)
        assert t == pytest.approx(0.5, abs=1e-12)

    def test_rejects_non_majorized(self):
        with pytest.raises(MajorizationFailed) as err:
            find_transfer_chain(ProbVector([0.6, 0.4]), ProbVector([0.5, 0.5]))
        assert err.value.verdict.first_violation.k == 1

    def test_surplus_with_no_deficit_after_it_is_left_in_place(self):
        # b's last coordinate is 9e-10 over its target, within tol, with nothing after it:
        # the transfer still open before it is made
        a = ProbVector([0.5, 0.4, 0.1], normalized=True)
        b = ProbVector([0.6, 0.3, 0.1000000009], normalized=True)
        chain = find_transfer_chain(a, b)
        [(i, j, t)] = steps_of(chain)
        assert (i, j) == (0, 1)
        assert t == pytest.approx(2 / 3, abs=1e-12)
        assert np.abs(replay(chain, b) - sorted_padded(a, 3)).max() <= 1e-9
        assert chain_steps(find_transfer_chain, a, b) == chain_steps(numpy_scan_chain, a, b)

    @given(st.integers(min_value=0, max_value=2**32 - 1),
           st.integers(min_value=1, max_value=12))
    @settings(max_examples=60, deadline=None)
    def test_replay_reaches_target(self, seed, d):
        rng = np.random.default_rng(seed)
        a, b = random_majorized_pair(d, rng)
        chain = find_transfer_chain(a, b)
        assert chain.t.size <= max(d - 1, 0)
        target = sorted_padded(a, a.d)
        assert np.abs(replay(chain, b) - target).max() <= 1e-9


def numpy_scan_chain(a, b):
    """Reference transfer chain at the default tol: each step scans all d coordinates
    with numpy for those above and below their targets by more than MATCH_TOL, moves
    the surplus of the last one above to the first one below after it, and assigns
    exactly-hit targets; a surplus with no deficit after it is left in place.  Raises
    MajorizationFailed as find_transfer_chain does."""
    a, b = (v if isinstance(v, ProbVector) else ProbVector(v) for v in (a, b))
    verdict = is_majorized(a, b)
    if not verdict.holds:
        raise MajorizationFailed("a is not majorized by b", verdict=verdict)
    d = max(a.d, b.d)
    av, cur = sorted_padded(a, d), sorted_padded(b, d)
    step_i, step_j, step_t = [], [], []
    left = np.zeros(d, dtype=bool)  # the surpluses left in place
    for _ in range(2 * d):  # each pass leaves one surplus in place or matches a coordinate
        over = np.nonzero((cur - av > MATCH_TOL) & ~left)[0]
        if over.size == 0:
            break
        j = int(over[-1])
        under = np.nonzero(av - cur > MATCH_TOL)[0]
        under = under[under > j]
        if under.size == 0:
            left[j] = True
            continue
        k = int(under[0])
        delta = min(cur[j] - av[j], av[k] - cur[k])
        step_i.append(j)
        step_j.append(k)
        step_t.append(1.0 - delta / (cur[j] - cur[k]))
        cur[j] = av[j] if delta == cur[j] - av[j] else cur[j] - delta
        cur[k] = av[k] if delta == av[k] - cur[k] else cur[k] + delta
    return TransferChain(d, step_i, step_j, step_t)


def chain_steps(build, a, b):
    """The steps `build` takes from b to a, each as (i, j, t in hex) so that t is compared
    bit for bit, or the verdict of the MajorizationFailed it raises."""
    try:
        chain = build(a, b)
    except MajorizationFailed as exc:
        return exc.verdict
    return [(i, j, t.hex()) for i, j, t in steps_of(chain)]


@st.composite
def _transfer_inputs(draw):
    """A raw pair (a, b) of entries from small integer levels, so that ties and zeros are
    common: a mixes b by up to six transfers, or is drawn alone; each entry of a is then
    nudged by a few 1e-13, within MATCH_TOL, and each vector gets up to three more zeros,
    so their lengths may differ.  One pair in four is returned as (b, a), and most of
    those are refused."""
    n = draw(st.integers(1, 8))
    b = np.array(draw(st.lists(st.integers(0, 4), min_size=n, max_size=n)), dtype=float)
    if draw(st.integers(0, 3)):
        a = b.copy()
        index = st.integers(0, n - 1)
        for i, j, t in draw(st.lists(st.tuples(index, index, st.sampled_from(
                [1 / 3, 0.5, 0.9, 0.0])), min_size=1, max_size=6)):
            a[i], a[j] = t * a[i] + (1 - t) * a[j], (1 - t) * a[i] + t * a[j]
    else:
        a = np.array(draw(st.lists(st.integers(0, 4), min_size=n, max_size=n)), dtype=float)
    a += np.array(draw(st.lists(st.integers(-9, 9), min_size=n, max_size=n))) * 1e-13
    a = np.append(a, np.zeros(draw(st.integers(0, 3))))
    b = np.append(b, np.zeros(draw(st.integers(0, 3))))
    return (b, a) if draw(st.integers(0, 3)) == 0 else (a, b)


class TestTransferChainMatchesTheNumpyScan:
    """The chain kept on two sorted index lists takes the numpy scan's steps bit for bit,
    and refuses the same pairs with the same verdicts."""

    @pytest.mark.parametrize("d", [*range(1, 65), 128, 256, 512, 1024])
    def test_seeded_pairs(self, d):
        for seed in range(3):
            a, b = random_majorized_pair(d, np.random.default_rng([d, seed]))
            steps = chain_steps(find_transfer_chain, a, b)
            assert steps == chain_steps(numpy_scan_chain, a, b)
            assert len(steps) <= max(d - 1, 0)

    @given(_transfer_inputs())
    @settings(max_examples=400, deadline=None)
    def test_ties_zeros_padding_and_residues(self, pair):
        a, b = pair
        assert chain_steps(find_transfer_chain, a, b) == chain_steps(numpy_scan_chain, a, b)

    def test_refusals_keep_their_verdict(self):
        a, b = ProbVector([0.5, 0.25, 0.25]), ProbVector([0.4, 0.4, 0.2])
        verdict = chain_steps(find_transfer_chain, a, b)
        assert verdict == chain_steps(numpy_scan_chain, a, b) == is_majorized(a, b)
        assert not verdict.holds and verdict.first_violation.k == 1


class TestChainToDoublyStochastic:
    def test_single_even_step(self):
        chain = find_transfer_chain(ProbVector([0.5, 0.5]), ProbVector([0.75, 0.25]))
        q = chain_to_doubly_stochastic(chain)
        np.testing.assert_allclose(q.entries, [[0.5, 0.5], [0.5, 0.5]], atol=1e-12)

    def test_empty_chain_is_identity(self):
        q = chain_to_doubly_stochastic(TransferChain(3, [], [], []))
        np.testing.assert_array_equal(q.entries, np.eye(3))

    def test_maps_source_to_target(self):
        a = ProbVector([0.5, 0.25, 0.25])
        b = ProbVector([0.5, 0.5, 0.0])
        q = chain_to_doubly_stochastic(find_transfer_chain(a, b))
        np.testing.assert_allclose(q.entries @ sorted_padded(b, b.d),
                                   sorted_padded(a, a.d), atol=1e-12)

    def test_round_trip_random(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            d = int(rng.integers(2, 65))
            a, b = random_majorized_pair(d, rng)
            q = chain_to_doubly_stochastic(find_transfer_chain(a, b))
            err = np.abs(q.entries @ sorted_padded(b, b.d) - sorted_padded(a, a.d)).max()
            assert err <= 1e-9

    def test_image_is_majorized_by_argument(self):
        rng = np.random.default_rng(13)
        for _ in range(25):
            d = int(rng.integers(2, 17))
            a, b = random_majorized_pair(d, rng)
            q = chain_to_doubly_stochastic(find_transfer_chain(a, b))
            v = rng.dirichlet(np.ones(d))
            assert is_majorized(q.entries @ v, v, 1e-9).holds


def fancy_index_walk(chain, block):
    """The chain's matrix as one gather, 2 x 2 product and scatter per step, block(t)
    giving the step's 2 x 2 matrix: the walk that both chain matrices must reproduce."""
    q = np.eye(chain.d)
    for i, j, t in steps_of(chain):
        q[[i, j], :] = block(t) @ q[[i, j], :]
    return q


def _rotation(t):
    c, sn = np.sqrt(t), np.sqrt(1.0 - t)
    return np.array([[c, -sn], [sn, c]])


class TestChainWalk:
    @pytest.mark.parametrize("d", [1, 2, 8, 128])
    def test_both_matrices_equal_the_fancy_index_walk(self, d):
        rng = np.random.default_rng(500 + d)
        chains = [find_transfer_chain(*random_majorized_pair(d, rng)) for _ in range(5)]
        chains.append(TransferChain(d, [], [], []))
        for chain in chains:
            ds = fancy_index_walk(chain, lambda t: np.array([[t, 1.0 - t], [1.0 - t, t]]))
            np.testing.assert_array_equal(chain_to_doubly_stochastic(chain).entries, ds)
            np.testing.assert_array_equal(chain_to_orthogonal(chain).entries,
                                          fancy_index_walk(chain, _rotation))


def zero_diagonal(d):
    """(J - I) / (d - 1): flat off the diagonal, zero on it."""
    return (np.ones((d, d)) - np.eye(d)) / (d - 1)


def scrambled_cycle(d):
    """The permutation matrix of one d-cycle through a seeded order of the rows."""
    order = np.random.default_rng(7).permutation(d)
    q = np.zeros((d, d))
    q[order, np.roll(order, 1)] = 1.0
    return q


def cyclic_mixture(d, k, scrambled):
    """(I + C + ... + C^(k-1)) / k for the cyclic shift C; scrambled relabels rows and columns."""
    q = sum(np.roll(np.eye(d), j, axis=1) for j in range(k)) / k
    if scrambled:
        rng = np.random.default_rng(5)
        q = q[rng.permutation(d)][:, rng.permutation(d)]
    return q


def sinkhorn(d, seed):
    """A dense doubly stochastic matrix: seeded positive entries, rows and columns scaled
    alternately until every row sums to 1 within 1e-14."""
    q = np.random.default_rng(seed).random((d, d)) + 0.01
    while True:
        q /= q.sum(axis=1, keepdims=True)
        q /= q.sum(axis=0, keepdims=True)
        if np.abs(q.sum(axis=1) - 1).max() < 1e-14:
            return q


def traced_peak(call):
    """call() and the peak of the memory it allocated, in bytes, under tracemalloc."""
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def dense_256():
    """sinkhorn(256, 256), its decomposition and the tracemalloc peak of that one call,
    which is traced once for every test that reads either."""
    q = sinkhorn(256, 256)
    return (q, *traced_peak(lambda: birkhoff_decompose(q)))


class TestBirkhoffDecompose:
    def test_even_two_by_two(self):
        dec = birkhoff_decompose(np.array([[0.5, 0.5], [0.5, 0.5]]))
        assert sorted(w for w in dec.weights) == [0.5, 0.5]
        perms = {tuple(p) for p in dec.permutations}
        assert perms == {(0, 1), (1, 0)}

    def test_identity(self):
        dec = birkhoff_decompose(np.eye(3))
        assert len(dec.weights) == 1
        assert dec.weights[0] == pytest.approx(1.0)
        assert tuple(dec.permutations[0]) == (0, 1, 2)

    def test_permutation_matrix(self):
        p = np.eye(4)[[2, 0, 3, 1]]
        dec = birkhoff_decompose(p)
        assert len(dec.weights) == 1
        assert tuple(dec.permutations[0]) == (2, 0, 3, 1)

    def test_rejects_non_doubly_stochastic(self):
        with pytest.raises(NotDoublyStochastic):
            birkhoff_decompose(np.array([[0.9, 0.0], [0.1, 1.0]]))

    def test_reconstruction_random_chains(self):
        rng = np.random.default_rng(17)
        for _ in range(40):
            d = int(rng.integers(2, 33))
            a, b = random_majorized_pair(d, rng)
            q = chain_to_doubly_stochastic(find_transfer_chain(a, b))
            dec = birkhoff_decompose(q, tol=1e-9)
            assert len(dec.weights) <= (d - 1) ** 2 + 1
            assert np.abs(dec.matrix() - q.entries).max() <= 1e-8
            assert dec.weights.sum() == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("scrambled", [False, True])
    @pytest.mark.parametrize("k", [2, 3])
    def test_cyclic_mixture_splits_into_k_terms(self, k, scrambled):
        # relabelling rows and columns makes the repairs follow long augmenting paths
        q = cyclic_mixture(50, k, scrambled)
        dec = birkhoff_decompose(q)
        assert len(dec.weights) == k
        assert np.array_equal(dec.matrix(), q)

    @pytest.mark.parametrize("d", [64, 128, 256])
    def test_large_chain_matrices(self, d):
        a, b = random_majorized_pair(d, np.random.default_rng(d))
        q = chain_to_doubly_stochastic(find_transfer_chain(a, b))
        dec = birkhoff_decompose(q, tol=SUPPORT_TOL)
        assert np.abs(dec.matrix() - q.entries).max() <= 10 * SUPPORT_TOL
        assert len(dec.weights) <= (d - 1) ** 2 + 1
        assert abs(dec.weights.sum() - 1.0) <= NORMALIZED_TOL

    def test_residual_above_tol_without_a_perfect_matching_fails(self):
        # column 0 sums to 1 + 5e-10, inside NORMALIZED_TOL; after the identity term the
        # residual 5e-10 sits in column 0 of both rows, where no permutation reaches it
        with pytest.raises(MatchingFailed, match="no perfect matching"):
            birkhoff_decompose([[1.0, 0.0], [5e-10, 1.0 - 5e-10]], tol=1e-12)

    def test_mass_left_below_the_floor_is_a_matching_failure(self):
        # at tol 0.1 the floor is 0.1 / 3200, and the entries below it hold far more than
        # NORMALIZED_TOL of row mass: weights summing to 0.9992 would fail the type
        a, b = random_majorized_pair(32, np.random.default_rng(1))
        q = chain_to_doubly_stochastic(find_transfer_chain(a, b))
        with pytest.raises(MatchingFailed, match=r"row mass \S+ undecomposed at tol=0\.1$"):
            birkhoff_decompose(q, tol=0.1)

    def test_large_tol_still_decomposes_the_whole_mass(self):
        # stopping once the row mass fell to tol / 100 left 0.0016 of it undecomposed here
        a, b = random_majorized_pair(4, np.random.default_rng(1))
        q = chain_to_doubly_stochastic(find_transfer_chain(a, b))
        dec = birkhoff_decompose(q, tol=0.5)
        assert abs(dec.weights.sum() - 1.0) <= NORMALIZED_TOL
        assert np.abs(dec.matrix() - q.entries).max() <= NORMALIZED_TOL

    @pytest.mark.parametrize("d,seed", [(47, 1776192179), (73, 393115801)])
    def test_no_matching_below_tol_ends_the_decomposition(self, d, seed):
        # a late round of these chain matrices finds no perfect matching with about 1e-11
        # of row mass left, every entry of it below tol
        a, b = random_majorized_pair(d, np.random.default_rng(seed))
        q = chain_to_doubly_stochastic(find_transfer_chain(a, b))
        dec = birkhoff_decompose(q)
        assert 1e-12 < 1.0 - dec.weights.sum() <= NORMALIZED_TOL
        assert np.abs(dec.matrix() - q.entries).max() <= 10 * SUPPORT_TOL

    def test_terms_ended_by_a_round_with_no_matching_are_pinned(self, monkeypatch):
        # the BFS-only reference loop cannot follow a round with no perfect matching, so
        # these terms are pinned to the digests of those taken when every BFS round wrote
        # back and gathered all d matched entries
        outcomes = []
        augment = xfer._augment

        def recorded_augment(*args):
            outcomes.append(augment(*args))
            return outcomes[-1]

        monkeypatch.setattr(xfer, "_augment", recorded_augment)
        a, b = random_majorized_pair(40, np.random.default_rng([40, 3]))
        dec = birkhoff_decompose(chain_to_doubly_stochastic(find_transfer_chain(a, b)),
                                 tol=SUPPORT_TOL)
        assert outcomes.count(False) == 1 and outcomes[-1] is False
        assert len(dec.weights) == 579 and len(dec.changes) == 1293
        assert (hashlib.sha256(dec.weights.astype("<f8").tobytes()).hexdigest()
                == "0449e242131c3b47f02fd7eedb60c4ad26a3c7b714aa378524707f4a022a0643")
        assert (hashlib.sha256(dec.first.astype("<i8").tobytes()
                               + dec.changes.astype("<i8").tobytes()).hexdigest()
                == "89a6289d13587ef14bd48a911ccc687c1b506fd96c8c962ce2b789553b068fe0")

    def test_term_bound_enforced_by_type(self):
        with pytest.raises(ValueError, match="3 terms exceed the bound 2 for d=2"):
            decomposition_of_stack(np.full(3, 1 / 3), tuple(np.array([0, 1]) for _ in range(3)))

    @pytest.mark.parametrize("perms", [([0, 1], [0, 1, 2]), ([0, 1], [1, 1]), ([0, 2], [1, 0]),
                                       [0, 1], [[[0, 1]], [[1, 0]]], [[], []],
                                       ([0.0, 1.9], [1.0, 0.0]), ([True, False], [False, True])],
                             ids=["ragged", "repeat", "out-of-range", "flat", "3-d", "empty",
                                  "float", "bool"])
    def test_rows_must_form_a_stack_of_permutations(self, perms):
        with pytest.raises(InvalidValue):
            decomposition_of_stack([0.5, 0.5], perms)

    def test_the_first_term_that_is_no_permutation_is_named(self):
        with pytest.raises(InvalidValue, match="term 1 is not a permutation"):
            decomposition_of_stack([0.5, 0.25, 0.25], ([0, 1, 2], [0, 0, 2], [1, 1, 0]))

    def test_permutations_are_one_read_only_stack(self):
        dec = decomposition_of_stack([0.25, 0.75], ([1, 0, 2], [0, 1, 2]))
        assert dec.permutations.shape == (2, 3)
        assert not dec.permutations.flags.writeable
        assert dec.d == 3
        np.testing.assert_array_equal(dec.matrix(), [[0.75, 0.25, 0], [0.25, 0.75, 0], [0, 0, 1]])

    def test_matrix_adds_the_terms_in_order(self):
        a, b = random_majorized_pair(32, np.random.default_rng(32))
        dec = birkhoff_decompose(chain_to_doubly_stochastic(find_transfer_chain(a, b)))
        expected = np.zeros((32, 32))
        for w, p in zip(dec.weights, dec.permutations):
            expected[np.arange(32), p] += w
        assert np.array_equal(dec.matrix(), expected)

    @pytest.mark.parametrize("block", [lambda k: 1, lambda k: 300, lambda k: 5 * k + 4,
                                       lambda k: 7 * k + 6, lambda k: 1 << 20],
                             ids=["1", "300", "5k+4", "7k+6", "2^20"])
    def test_matrix_by_blocks_of_rows_adds_the_terms_in_order(self, monkeypatch, block):
        # the 468 terms at d = 32 in blocks of 1 row (1 and 300 cells), of 5 and 7 rows,
        # which leave a last block of 2 and 4 rows, and in one block
        a, b = random_majorized_pair(32, np.random.default_rng(32))
        dec = birkhoff_decompose(chain_to_doubly_stochastic(find_transfer_chain(a, b)))
        expected = np.zeros((32, 32))
        for w, p in zip(dec.weights, dec.permutations):
            expected[np.arange(32), p] += w
        monkeypatch.setattr(xfer, "_MATRIX_BLOCK", block(len(dec.weights)))
        assert np.array_equal(dec.matrix(), expected)

    def test_matrix_memory_follows_the_matrix(self, dense_256):
        # 65026 terms, the bound (d - 1)^2 + 1: their (terms, d) stack of cells and weights
        # alone would take 254 MiB, and the 256 x 256 matrix takes 0.5 MiB
        q, dec, _ = dense_256
        assert len(dec.weights) == 255 ** 2 + 1
        m, peak = traced_peak(dec.matrix)
        assert peak < 8 * 2 ** 20
        assert np.abs(m - q).max() <= 10 * SUPPORT_TOL

    def test_matrix_memory_on_a_chain_matrix(self):
        # 2017 terms: blocks of 4 rows, whose cells and weights take 64 KiB each
        a, b = random_majorized_pair(128, np.random.default_rng(1128))
        q = chain_to_doubly_stochastic(find_transfer_chain(a, b))
        dec = birkhoff_decompose(q)
        m, peak = traced_peak(dec.matrix)
        assert peak < 2 ** 20
        assert np.abs(m - q.entries).max() <= 10 * SUPPORT_TOL

    def test_decompose_memory_follows_the_matrix(self, dense_256):
        # the support lists and sets are freed before the change list is checked
        assert dense_256[2] < 20 * 2 ** 20


class TestBirkhoffChangeList:
    """The type holds the weights, the first permutation and the net [term, row, col]
    changes, and refuses a malformed change list naming the term."""

    FIRST = [0, 1, 2]
    WEIGHTS = [0.5, 0.25, 0.25]

    def build(self, changes, first=FIRST):
        return BirkhoffDecomposition(weights=self.WEIGHTS, first=first, changes=changes)

    def test_a_valid_list_is_stored_read_only(self):
        dec = self.build([[1, 0, 1], [1, 1, 0], [2, 1, 2], [2, 2, 0]])
        assert dec.d == 3
        assert dec.changes.shape == (4, 3)
        assert not dec.first.flags.writeable and not dec.changes.flags.writeable
        assert "permutations" not in vars(dec)
        assert dec.permutations.tolist() == [[0, 1, 2], [1, 0, 2], [1, 2, 0]]
        assert dec.permutations is dec.permutations

    def test_the_stack_cannot_be_replaced(self):
        dec = self.build([[1, 0, 1], [1, 1, 0], [2, 1, 2], [2, 2, 0]])
        with pytest.raises(AttributeError):
            dec.permutations = np.zeros((3, 3), dtype=int)

    def test_one_term_needs_no_change(self):
        for changes in ([], np.empty((0, 3), dtype=int)):
            dec = BirkhoffDecomposition(weights=[1.0], first=[2, 0, 1], changes=changes)
            assert dec.changes.shape == (0, 3)
            assert dec.permutations.tolist() == [[2, 0, 1]]

    @pytest.mark.parametrize("changes,message", [
        ([[1, 0, 1], [2, 1, 2], [2, 2, 1]], "term 1 is not a permutation"),
        ([[1, 0, 1], [1, 1, 0], [2, 0, 2]], "term 2 is not a permutation"),
        ([[1, 1, 0], [1, 0, 1], [2, 1, 2], [2, 2, 0]], r"term 1: row 0 repeated or out of"),
        ([[2, 0, 2], [2, 2, 0], [1, 0, 1], [1, 1, 0]], r"term 1: row 0 repeated or out of"),
        ([[1, 0, 1], [1, 0, 1], [1, 1, 0], [2, 1, 2], [2, 2, 0]], r"term 1: row 0 repeated"),
        ([[1, 0, 1], [1, 1, 0]], "term 2 has no change"),
        ([[2, 0, 1], [2, 1, 0]], "term 1 has no change"),
        ([[1, 0, 1], [1, 1, 0], [3, 1, 2], [3, 2, 1]], r"term 3: change \[3, 1, 2\] out of range"),
        ([[0, 0, 1], [0, 1, 0], [2, 1, 2], [2, 2, 1]], r"term 0: change \[0, 0, 1\] out of range"),
        ([[1, 0, 1], [1, 3, 0], [2, 1, 2], [2, 2, 1]], r"term 1: change \[1, 3, 0\] out of range"),
        ([[1, 0, -1], [1, 1, 0], [2, 1, 2], [2, 2, 1]], r"term 1: change \[1, 0, -1\] out of"),
        ([[1, 0, 1], [1, 1, 0], [1, 2, 2], [2, 1, 2], [2, 2, 0]],
         "term 1: row 2 already maps to column 2"),
        # row-major order would name (term 2, row 0) first
        ([[1, 0, 1], [1, 1, 0], [1, 2, 2], [2, 0, 1], [2, 1, 2], [2, 2, 0]],
         "term 1: row 2 already maps to column 2"),
    ], ids=["no-permutation", "no-permutation-later", "unordered-rows", "unordered-terms",
            "repeated-row", "idle-last-term", "idle-first-term", "term-too-large", "term-zero",
            "row-out-of-range", "negative-col", "no-op-change", "two-no-op-changes"])
    def test_malformed_change_lists_name_the_term(self, changes, message):
        with pytest.raises(InvalidValue, match=message):
            self.build(changes)

    @pytest.mark.parametrize("first,changes,message", [
        ([0, 0, 2], [[1, 0, 1], [1, 1, 0], [2, 1, 2], [2, 2, 1]], "term 0 is not a permutation"),
        ([], [], "term 0 is not a permutation"),
        ([0, 1, 2], [[1, 0], [1, 1]], r"changes must be \[term, row, col\] triples"),
        ([0, 1, 2], [1, 0, 1], "changes must have 2 dimension"),
        ([0, 1, 2], [[1.0, 0.0, 1.0], [1.0, 1.0, 0.0]], "changes must hold integers"),
        ([[0, 1, 2]], [], "first must have 1 dimension"),
        ([0, 1, 2], [[1, 0, 1], [1, 1]], "changes must be a rectangular array"),
    ], ids=["first-repeats", "first-empty", "pairs", "flat", "float", "first-2-d", "ragged"])
    def test_malformed_arrays_are_refused(self, first, changes, message):
        with pytest.raises(InvalidValue, match=message):
            self.build(changes, first)

    def test_decomposer_stores_only_rows_that_move(self):
        # J / 3 splits into three permutations that differ in every row
        dec = birkhoff_decompose(np.full((3, 3), 1 / 3))
        perms = dec.permutations
        assert len(dec.changes) == int((perms[1:] != perms[:-1]).sum())
        assert all(perms[t - 1, r] != c for t, r, c in dec.changes)


def _bfs_augment(support, perm, inv, root):
    """Reference augmenting path: breadth first from root, lowest columns first."""
    seen = np.zeros(inv.size, dtype=bool)
    via = np.empty(inv.size, dtype=int)
    frontier = np.array([root])
    while frontier.size:
        hit = support[frontier] & ~seen
        cols = np.flatnonzero(hit.any(axis=0))
        seen[cols] = True
        via[cols] = frontier[hit[:, cols].argmax(axis=0)]
        free = cols[inv[cols] < 0]
        if free.size:
            c = free[0]
            while c >= 0:
                r = via[c]
                perm[r], inv[c], c = c, r, perm[r]
            return True
        frontier = inv[cols]
    return False


def bfs_only_birkhoff(q, tol):
    """Reference Birkhoff loop: every freed row re-matched by `_bfs_augment`, and the
    matched entries gathered from and scattered to the full residual every round.
    Valid for tol <= 100 NORMALIZED_TOL, where birkhoff_decompose stops at tol / 100."""
    residual = np.array(q, dtype=float)
    residual[residual < 0] = 0.0
    d = residual.shape[0]
    rows = np.arange(d)
    floor = tol / (100.0 * d)
    support = residual > floor
    perm = np.full(d, -1)
    inv = np.full(d, -1)
    mass = residual.sum(axis=1).max()
    weights, perms = [], []
    going = residual.max() >= tol
    while going:
        assert all(_bfs_augment(support, perm, inv, r) for r in np.flatnonzero(perm < 0))
        w = float(residual[rows, perm].min())
        weights.append(w)
        perms.append(perm.copy())
        residual[rows, perm] -= w
        mass -= w
        gone = np.flatnonzero(residual[rows, perm] <= floor)
        support[gone, perm[gone]] = False
        inv[perm[gone]] = -1
        perm[gone] = -1
        going = mass > d * floor
    return np.array(weights), np.array(perms)


@pytest.fixture
def repairs(monkeypatch):
    """Count birkhoff_decompose's BFS repairs and its swap repairs, by outcome."""
    counts = collections.Counter()
    augment, swap = xfer._augment, xfer._swap

    def counted_augment(*args):
        counts["bfs"] += 1
        return augment(*args)

    def counted_swap(*args):
        ok = swap(*args)
        counts["swap" if ok else "swap_failed"] += 1
        return ok

    monkeypatch.setattr(xfer, "_augment", counted_augment)
    monkeypatch.setattr(xfer, "_swap", counted_swap)
    return counts


class TestBirkhoffMatchesTheBfsOnlyLoop:
    """The swap repair and the carried matched entries change no weight and no permutation."""

    def assert_same_terms(self, q, tol):
        dec = birkhoff_decompose(q, tol=tol)
        weights, perms = bfs_only_birkhoff(q, tol)
        assert np.array_equal(dec.weights, weights)
        # the stored change list is the oracle's stack diffed, and the stack is built lazily
        oracle = decomposition_of_stack(weights, perms)
        assert np.array_equal(dec.first, oracle.first)
        assert np.array_equal(dec.changes, oracle.changes)
        assert "permutations" not in vars(dec)
        assert np.array_equal(dec.permutations, perms)
        return dec

    @pytest.mark.parametrize("tol", [SUPPORT_TOL, 1e-10])
    @pytest.mark.parametrize("d", [1, 2, 8, 32, 64, 128, 256])
    def test_chain_matrices(self, repairs, d, tol):
        a, b = random_majorized_pair(d, np.random.default_rng(1000 + d))
        dec = self.assert_same_terms(chain_to_doubly_stochastic(find_transfer_chain(a, b)).entries,
                                   tol)
        assert repairs["bfs"] >= d
        if d >= 32:  # every repair runs: swaps, swaps that find no path, and BFS after round one
            assert repairs["swap"] > 0 and repairs["swap_failed"] > 0 and repairs["bfs"] > d
            assert repairs["swap"] + repairs["swap_failed"] < len(dec.weights) - 1

    @pytest.mark.parametrize("d,seed", [(75, 43), (92, 157)])
    def test_rows_that_take_back_their_column_between_two_terms(self, d, seed):
        # in these chain matrices a row leaves its column and takes it back between two
        # terms, so the change list must not name it
        a, b = random_majorized_pair(d, np.random.default_rng(seed))
        self.assert_same_terms(chain_to_doubly_stochastic(find_transfer_chain(a, b)).entries,
                               SUPPORT_TOL)

    @pytest.mark.parametrize("tol", [SUPPORT_TOL, 1e-10])
    @pytest.mark.parametrize("q", [np.full((d, d), 1 / d) for d in (2, 5, 16, 40)]
                             + [cyclic_mixture(50, k, s) for k in (2, 3, 5) for s in (False, True)],
                             ids=[f"flat-{d}" for d in (2, 5, 16, 40)]
                             + [f"cyclic-{k}{'-scrambled' * s}" for k in (2, 3, 5)
                                for s in (False, True)])
    def test_ties_free_several_rows_per_round(self, repairs, q, tol):
        self.assert_same_terms(q, tol)
        assert repairs["bfs"] > len(q)
        assert repairs["swap"] == 0

    @pytest.mark.parametrize("tol", [SUPPORT_TOL, 1e-10])
    @pytest.mark.parametrize("q", [zero_diagonal(d) for d in (2, 3, 8)] + [scrambled_cycle(40)],
                             ids=["zero-diagonal-2", "zero-diagonal-3", "zero-diagonal-8",
                                  "scrambled-permutation-40"])
    def test_no_row_holds_its_diagonal(self, q, tol):
        assert not np.diag(q).any()
        self.assert_same_terms(q, tol)

    @pytest.mark.parametrize("tol", [SUPPORT_TOL, 1e-10])
    def test_a_row_within_the_floor_of_the_minimum_is_freed_with_it(self, repairs, tol):
        # the first term, the identity, takes 0.3 from rows 0, 1 and 2, which hold 0.3,
        # 0.3 + tol / 1000 and 0.4; row 1 is then within the floor tol / 300, so only the
        # full floor test frees it with row 0, and both are re-matched by BFS, not by a swap
        delta = tol / 1000
        perms = [[0, 1, 2], [0, 2, 1], [2, 1, 0], [1, 0, 2], [1, 2, 0], [2, 0, 1]]
        weights = [0.1, 0.2, 0.2 + delta, 0.3, 0.1, 0.1 - delta]
        q = sum(w * np.eye(3)[p] for w, p in zip(weights, perms))
        assert 0 < q[1, 1] - q[0, 0] < tol / 300 and q[2, 2] == 0.4
        dec = self.assert_same_terms(q, tol)
        # freeing row 0 alone would leave row 1 matched, and the next term would weigh delta
        assert dec.weights.min() > 0.09
        assert np.array_equal(dec.permutations[:2], [[0, 1, 2], [1, 0, 2]])
        assert repairs == {"bfs": 8, "swap": 1}

    @pytest.mark.parametrize("d,tol,bfs,swap,swap_failed", [
        (32, SUPPORT_TOL, 87, 360, 36), (64, SUPPORT_TOL, 164, 524, 55),
        (128, SUPPORT_TOL, 412, 1768, 219), (256, SUPPORT_TOL, 897, 3109, 509),
        (128, 1e-10, 509, 1819, 300)])
    def test_repair_work_is_pinned(self, repairs, d, tol, bfs, swap, swap_failed):
        # the swap and BFS repairs the dense-support loop made on these matrices
        a, b = random_majorized_pair(d, np.random.default_rng(1000 + d))
        birkhoff_decompose(chain_to_doubly_stochastic(find_transfer_chain(a, b)), tol=tol)
        assert repairs == {"bfs": bfs, "swap": swap, "swap_failed": swap_failed}


class TestCaratheodoryReduce:
    """Carathéodory's bound on the Uhlmann mixture, met without a reduction pass:
    at most d unitaries of equal positive weight, carrying rho2 onto rho1."""

    def reduce_pair(self, a, b, rng):
        """rho1 and rho2 with spectra a and b in Haar-random bases, and their mixture."""
        d = len(b)
        rho1 = random_density(d, rng, spec=np.asarray(a, dtype=float))
        rho2 = random_density(d, rng, spec=np.asarray(b, dtype=float))
        return rho1, rho2, mixed_unitary_uhlmann(rho1, rho2)

    def assert_reduced(self, rho1, rho2, mix, a):
        n = len(mix.unitaries)
        assert 1 <= n <= rho1.d
        assert np.all(mix.weights == 1.0 / n)
        assert abs(mix.weights.sum() - 1.0) <= NORMALIZED_TOL
        out = sum(t * u @ rho2.matrix @ u.conj().T for t, u in zip(mix.weights, mix.unitaries))
        point = np.linalg.eigvalsh(out)[::-1]
        assert np.abs(point - sorted_padded(a, rho1.d)).max() <= 1e-12
        assert np.abs(out - rho1.matrix).max() <= 1e-12

    def test_random_pairs_keep_at_most_d_terms(self):
        rng = np.random.default_rng(20)
        for d in range(1, 41):
            a, b = random_majorized_pair(d, rng)
            self.assert_reduced(*self.reduce_pair(a.entries, b.entries, rng), a.entries)

    def test_equal_vectors_give_one_term(self):
        rng = np.random.default_rng(21)
        b = rng.dirichlet(np.ones(7))
        rho1, rho2, mix = self.reduce_pair(b, b, rng)
        assert len(mix.unitaries) == 1 and mix.weights[0] == 1.0
        self.assert_reduced(rho1, rho2, mix, b)

    def test_many_terms_of_the_flat_vector_give_one_term(self):
        # Birkhoff splits J / 5 into several permutations; the pinching needs one unitary
        assert len(birkhoff_decompose(np.full((5, 5), 0.2)).permutations) > 1
        flat = np.full(5, 0.2)
        rho1, rho2, mix = self.reduce_pair(flat, flat, np.random.default_rng(23))
        assert len(mix.unitaries) == 1 and mix.weights[0] == 1.0
        self.assert_reduced(rho1, rho2, mix, flat)

    def test_pure_to_flat_needs_exactly_d_terms(self):
        rng = np.random.default_rng(24)
        for d in (2, 5, 12):
            a, b = np.full(d, 1.0 / d), np.eye(d)[0]
            rho1, rho2, mix = self.reduce_pair(a, b, rng)
            assert len(mix.unitaries) == d
            self.assert_reduced(rho1, rho2, mix, a)

    @pytest.mark.parametrize("a,b", [
        ([0.25, 0.25, 0.25, 0.25], [0.4, 0.4, 0.1, 0.1]),
        ([0.3, 0.3, 0.2, 0.1, 0.1], [0.5, 0.25, 0.25, 0.0, 0.0]),
        ([0.2, 0.2, 0.2, 0.2, 0.1, 0.1], [0.3, 0.3, 0.3, 0.05, 0.05, 0.0]),
    ])
    def test_ties_on_both_sides(self, a, b):
        self.assert_reduced(*self.reduce_pair(a, b, np.random.default_rng(25)), a)

    def test_many_tied_points(self):
        # b takes a few values, so both spectra carry long runs of ties
        rng = np.random.default_rng(22)
        for _ in range(30):
            d = int(rng.integers(20, 49))
            b = rng.integers(0, 4, size=d) + (np.arange(d) == 0)
            b = b / b.sum()
            a = sum(w * b[rng.permutation(d)] for w in rng.dirichlet(np.ones(3)))
            self.assert_reduced(*self.reduce_pair(a, b, rng), a)

    def test_dimension_one(self):
        chain = find_transfer_chain(ProbVector([1.0]), ProbVector([1.0]))
        assert chain.d == 1 and steps_of(chain) == []
        np.testing.assert_array_equal(chain_to_orthogonal(chain).entries, [[1.0]])
        np.testing.assert_array_equal(chain_to_doubly_stochastic(chain).entries, [[1.0]])
        decomp = birkhoff_decompose(np.eye(1))
        assert len(decomp.permutations) == 1
        assert decomp.weights[0] == pytest.approx(1.0, abs=1e-12)
        assert tuple(decomp.permutations[0]) == (0,)

    def test_rejects_b_of_another_length(self):
        rng = np.random.default_rng(26)
        with pytest.raises(DimensionMismatch):
            mixed_unitary_uhlmann(random_density(3, rng), random_density(4, rng))


class TestSchurHorn:
    def test_pure_to_even_rotation(self):
        u = schur_horn_orthogonal(ProbVector([0.5, 0.5]), ProbVector([1.0, 0.0]))
        s = np.sqrt(0.5)
        np.testing.assert_allclose(u.entries, [[s, -s], [s, s]], atol=1e-12)
        diag = np.diag(u.entries @ np.diag([1.0, 0.0]) @ u.entries.T)
        np.testing.assert_allclose(diag, [0.5, 0.5], atol=1e-12)

    def test_equal_inputs_identity(self):
        u = schur_horn_orthogonal(ProbVector([0.6, 0.4]), ProbVector([0.6, 0.4]))
        np.testing.assert_array_equal(u.entries, np.eye(2))

    def test_rejects_non_majorized(self):
        with pytest.raises(MajorizationFailed):
            schur_horn_orthogonal(ProbVector([0.9, 0.1]), ProbVector([0.6, 0.4]))

    def test_diagonal_matches_at_d6(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            a, b = random_majorized_pair(6, rng)
            u = schur_horn_orthogonal(a, b)
            diag = np.diag(u.entries @ np.diag(sorted_padded(b, b.d)) @ u.entries.T)
            assert np.abs(diag - sorted_padded(a, a.d)).max() <= 1e-9

    def test_chain_to_orthogonal_keeps_the_chain_blocks_apart(self):
        chain = find_transfer_chain(ProbVector([0.35, 0.35, 0.15, 0.15]),
                                    ProbVector([0.4, 0.3, 0.2, 0.1]))
        assert [(i, j) for i, j, _ in steps_of(chain)] == [(2, 3), (0, 1)]
        u = chain_to_orthogonal(chain).entries
        assert not u[:2, 2:].any() and not u[2:, :2].any()
        empty = chain_to_orthogonal(TransferChain(3, [], [], []))
        np.testing.assert_array_equal(empty.entries, np.eye(3))

    def test_orthostochastic_consistency(self):
        rng = np.random.default_rng(29)
        for _ in range(20):
            d = int(rng.integers(2, 17))
            a, b = random_majorized_pair(d, rng)
            q = DoublyStochasticMatrix(schur_horn_orthogonal(a, b).entries ** 2)
            err = np.abs(q.entries @ sorted_padded(b, b.d) - sorted_padded(a, a.d)).max()
            assert err <= 1e-8


class TestOrthostochastic:
    def test_rejects_non_orthogonal(self):
        with pytest.raises(NotOrthogonal):
            OrthogonalMatrix(np.array([[1.0, 0.1], [0.0, 1.0]]))

    def test_image_majorized(self):
        rng = np.random.default_rng(37)
        for _ in range(20):
            u = OrthogonalMatrix(np.linalg.qr(rng.standard_normal((6, 6)))[0])
            q = DoublyStochasticMatrix(u.entries ** 2)
            v = rng.dirichlet(np.ones(6))
            assert is_majorized(q.entries @ v, v, 1e-9).holds


class TestDoublyStochasticType:
    def test_validates_sums(self):
        with pytest.raises(NotDoublyStochastic):
            DoublyStochasticMatrix(np.array([[0.6, 0.5], [0.4, 0.5]]))

    def test_validates_range(self):
        with pytest.raises(NotDoublyStochastic):
            DoublyStochasticMatrix(np.array([[1.5, -0.5], [-0.5, 1.5]]))
