import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entmaj.errors import DimensionMismatch, InvalidValue
from entmaj.seqmaj import (
    ProbVector,
    _row_entropies,
    is_majorized,
    random_majorized_pair,
    shannon_entropy,
    sorted_padded,
)


def entropy_oracle(values, digits=50):
    """Independent high-precision evaluation of -sum p*log2(p)."""
    import mpmath

    with mpmath.workdps(digits):
        acc = mpmath.mpf(0)
        for x in values:
            if x > 0:
                # mpf(float) is an exact binary conversion
                acc -= mpmath.mpf(float(x)) * mpmath.log(mpmath.mpf(float(x)), 2)
        return float(acc)


class TestProbVector:
    def test_clamps_tiny_negatives(self):
        p = ProbVector(np.array([1.0, -1e-13]))
        assert p.entries[1] == 0.0

    def test_rejects_real_negatives(self):
        with pytest.raises(ValueError):
            ProbVector(np.array([1.0, -1e-6]))

    def test_rejects_bad_normalization(self):
        with pytest.raises(ValueError):
            ProbVector(np.array([0.5, 0.4]), normalized=True)

    def test_entries_read_only(self):
        p = ProbVector(np.array([0.5, 0.5]))
        with pytest.raises(ValueError):
            p.entries[0] = 0.9


class TestSortedPadded:
    def test_basic(self):
        assert list(sorted_padded(ProbVector([0.2, 0.5, 0.3]), 3)) == [0.5, 0.3, 0.2]

    def test_tie(self):
        assert list(sorted_padded(ProbVector([0.25, 0.25, 0.5]), 3)) == [0.5, 0.25, 0.25]

    def test_singleton(self):
        assert list(sorted_padded(ProbVector([1.0]), 1)) == [1.0]

    def test_pads_with_zeros_into_a_new_array(self):
        p = ProbVector([0.25, 0.75])
        out = sorted_padded(p, 4)
        assert out.tolist() == [0.75, 0.25, 0.0, 0.0]
        out[0] = 0.0  # writable, and not a view of the read-only entries
        assert p.entries.tolist() == [0.25, 0.75]

    def test_length_below_the_vector_is_a_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch, match="3 entries to length 2"):
            sorted_padded([0.2, 0.5, 0.3], 2)

    @pytest.mark.parametrize("d", [1, 2, 7, 64])
    def test_bit_equal_to_stable_argsort_then_pad(self, d):
        rng = np.random.default_rng(d)
        for _ in range(500):
            arr = rng.integers(0, 4, size=d) * rng.random()  # ties, zeros among them
            pad = int(rng.integers(0, 3))
            want = np.pad(arr[np.argsort(-arr, kind="stable")], (0, pad))
            got = sorted_padded(arr, d + pad)
            assert got.tobytes() == want.tobytes()
        signed_zeros = np.array([0.0, -0.0, 0.5, -0.0])
        want = signed_zeros[np.argsort(-signed_zeros, kind="stable")]
        assert sorted_padded(signed_zeros, 4).tobytes() == want.tobytes()


class TestIsMajorized:
    def test_holds(self):
        assert is_majorized([0.5, 0.5], [0.75, 0.25]).holds

    def test_reflexive(self):
        v = [0.3, 0.3, 0.4]
        assert is_majorized(v, v).holds

    def test_prefix_violation(self):
        verdict = is_majorized([0.6, 0.4], [0.5, 0.5])
        assert not verdict.holds
        assert verdict.sums_equal
        fv = verdict.first_violation
        assert (fv.k, fv.lhs, fv.rhs) == (1, 0.6, 0.5)

    def test_sum_mismatch_is_false_not_error(self):
        verdict = is_majorized([0.2, 0.2], [0.5, 0.5])
        assert not verdict.holds
        assert not verdict.sums_equal
        assert verdict.first_violation is None

    def test_normalized_totals_are_not_compared_again(self):
        # each total is within NORMALIZED_TOL of 1, yet they differ by 1.8e-9 > tol
        low = ProbVector([0.5, 0.5 - 0.9e-9], normalized=True)
        high = ProbVector([0.5 + 0.9e-9, 0.5], normalized=True)
        assert is_majorized(low, high).holds
        assert is_majorized(high, low).holds
        assert not is_majorized(low.entries, high.entries).sums_equal

    def test_zero_padding(self):
        assert is_majorized([0.5, 0.5], [0.5, 0.5, 0.0]).holds
        assert is_majorized([0.5, 0.5, 0.0], [0.5, 0.5]).holds


class TestShannonEntropy:
    def test_point_mass(self):
        assert shannon_entropy(ProbVector([1.0, 0.0, 0.0])) == 0.0

    @pytest.mark.parametrize("p", [[1.0], [1.0, 0.0], [0.0, 1.0, 0.0]])
    def test_point_mass_is_positive_zero(self, p):
        assert math.copysign(1.0, shannon_entropy(ProbVector(p))) == 1.0

    def test_uniform_pair(self):
        assert shannon_entropy(ProbVector([0.5, 0.5])) == 1.0

    def test_against_high_precision_oracle(self):
        p = [0.75, 0.25]
        expected = entropy_oracle(p)
        assert expected == pytest.approx(0.8112781244591328, abs=1e-15)
        assert shannon_entropy(ProbVector(p)) == pytest.approx(expected, abs=1e-12)

    def test_oracle_on_random_vectors(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            p = rng.dirichlet(np.ones(6))
            assert shannon_entropy(ProbVector(p)) == pytest.approx(
                entropy_oracle(p), abs=1e-12)

    def test_subnormalized_nonnegative(self):
        assert shannon_entropy(ProbVector([0.25, 0.25])) >= 0.0


class TestRowEntropies:
    def test_each_row_as_shannon_entropy(self):
        rows = np.random.default_rng(43).dirichlet(np.ones(9), size=5)
        rows[1, :4] = 0.0
        rows[1] /= rows[1].sum()
        rows[2] = np.eye(9)[3]
        got = _row_entropies(rows)
        for row, bits in zip(rows, got):
            assert bits == pytest.approx(shannon_entropy(ProbVector(row, normalized=True)),
                                         abs=1e-15)
        assert got[2] == 0.0

    def test_tiny_negative_entries_add_nothing(self):
        assert _row_entropies(np.array([[0.5, 0.5 + 1e-13, -1e-13]]))[0] == pytest.approx(1.0)

    def test_rejects_an_entropy_that_is_not_finite(self):
        with pytest.raises(InvalidValue, match="not finite"):
            _row_entropies(np.array([[0.5, 0.5], [1e308, 1e308]]))


class TestRandomMajorizedPair:
    def test_dimension_one(self):
        a, b = random_majorized_pair(1, np.random.default_rng(0))
        np.testing.assert_allclose(a.entries, [1.0])
        np.testing.assert_allclose(b.entries, [1.0])

    def test_construction_guarantee(self):
        rng = np.random.default_rng(123)
        for _ in range(50):
            a, b = random_majorized_pair(8, rng)
            assert is_majorized(a, b, 1e-9).holds

    def test_determinism(self):
        a1, b1 = random_majorized_pair(4, np.random.default_rng(99))
        a2, b2 = random_majorized_pair(4, np.random.default_rng(99))
        np.testing.assert_array_equal(a1.entries, a2.entries)
        np.testing.assert_array_equal(b1.entries, b2.entries)

    @pytest.mark.parametrize("d", [1, 3, 8])
    def test_bit_equal_to_the_dirichlet_draw(self, d):
        for seed in range(500):
            rng = np.random.default_rng(seed)
            b = rng.dirichlet(np.ones(d))
            a = np.zeros(d)
            for w in rng.dirichlet(np.ones(4)):
                a += w * b[rng.permutation(d)]
            ours, ref = random_majorized_pair(d, np.random.default_rng(seed)), (a, b)
            for got, want in zip(ours, ref):
                np.testing.assert_array_equal(got.entries, want)


class TestMajorizationEntropyLink:
    def test_schur_concavity_sample(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            d = int(rng.integers(2, 17))
            a, b = random_majorized_pair(d, rng)
            assert shannon_entropy(a) >= shannon_entropy(b) - 1e-9

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_interpolation_stays_between(self, seed):
        rng = np.random.default_rng(seed)
        a, b = random_majorized_pair(6, rng)
        av = sorted_padded(a, a.d)
        bv = sorted_padded(b, b.d)
        for t in (0.0, 0.25, 0.5, 0.75, 1.0):
            c = t * av + (1 - t) * bv
            assert is_majorized(av, c, 1e-9).holds
            assert is_majorized(c, bv, 1e-9).holds

    def test_transitivity_on_random_triples(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            c, _ = random_majorized_pair(6, rng)
            b_arr = np.zeros(6)
            for w in rng.dirichlet(np.ones(3)):
                b_arr += w * c.entries[rng.permutation(6)]
            a_arr = np.zeros(6)
            for w in rng.dirichlet(np.ones(3)):
                a_arr += w * b_arr[rng.permutation(6)]
            assert is_majorized(b_arr, c, 1e-9).holds
            assert is_majorized(a_arr, b_arr, 1e-9).holds
            assert is_majorized(a_arr, c, 1e-9).holds
