"""The validation layer: one NaN-safe check per invariant, one exception path."""

import dataclasses

import numpy as np
import pytest

from certificates import decomposition_of_stack
from entmaj.densop import DensityMatrix, eig_hermitian, random_density, trace_distance
from entmaj.errors import (DimensionMismatch, DomainError, InvalidValue, NotHermitian,
                           NotTracePreserving, require)
from entmaj.qchan import (KrausChannel, compose_channels, depolarizing_channel, entropy_probe,
                          fixed_point_commutant_check, mixed_unitary_channel,
                          random_bistochastic_channel, random_isometric_conjugation_channel,
                          random_isometry)
from entmaj.seqmaj import (CLAMP_TOL, ProbVector, convex_weights, is_majorized,
                           random_majorized_pair, shannon_entropy, sorted_padded)
from entmaj.serial import to_json_value
from entmaj.xfer import (
    DoublyStochasticMatrix,
    OrthogonalMatrix,
    TransferChain,
    birkhoff_decompose,
    find_transfer_chain,
)

NON_FINITE = [np.nan, np.inf, -np.inf]


def _with(x, bad):
    """x (a float array) with its first entry replaced by `bad`."""
    out = np.array(x)
    out.flat[0] = bad
    return out


# Each builder makes a valid value from an array, and each array is valid as
# given; the test replaces one entry with a non-finite number.
BUILDERS = {
    "ProbVector": (lambda x: ProbVector(x, normalized=True), np.array([0.5, 0.5])),
    "DensityMatrix": (DensityMatrix, np.eye(2, dtype=complex) / 2),
    "DoublyStochasticMatrix": (DoublyStochasticMatrix, np.full((2, 2), 0.5)),
    "OrthogonalMatrix": (OrthogonalMatrix, np.eye(2)),
    "BirkhoffDecomposition": (
        lambda w: decomposition_of_stack(w, ([0, 1], [1, 0])),
        np.array([0.5, 0.5])),
    "KrausChannel": (KrausChannel, np.eye(2, dtype=complex)[None]),
    "mixed_unitary_channel": (lambda w: mixed_unitary_channel(w, [np.eye(2), np.eye(2)]),
                              np.array([0.5, 0.5])),
    "random_density spec": (lambda s: random_density(2, np.random.default_rng(0), spec=s),
                            np.array([0.75, 0.25])),
    "TransferChain": (lambda t: TransferChain(2, [0], [1], t), np.array([0.5])),
}


class TestRequire:
    def test_passes_at_the_tolerance(self):
        require(1e-9, 1e-9, InvalidValue, "unused")

    @pytest.mark.parametrize("defect", [2e-9, np.nan, np.inf])
    def test_raises_above_the_tolerance_and_on_nan(self, defect):
        with pytest.raises(InvalidValue, match="too far"):
            require(defect, 1e-9, InvalidValue, "too far")

    def test_invalid_value_is_both_domain_and_value_error(self):
        assert issubclass(InvalidValue, DomainError)
        assert issubclass(InvalidValue, ValueError)


class TestNonFiniteRejected:
    @pytest.mark.parametrize("name", sorted(BUILDERS))
    def test_valid_input_is_accepted(self, name):
        build, good = BUILDERS[name]
        build(good)

    @pytest.mark.parametrize("bad", NON_FINITE)
    @pytest.mark.parametrize("name", sorted(BUILDERS))
    def test_one_non_finite_entry_is_rejected(self, name, bad):
        build, good = BUILDERS[name]
        with pytest.raises(DomainError):
            build(_with(good, bad))

    @pytest.mark.parametrize("name", sorted(BUILDERS))
    def test_all_nan_is_rejected(self, name):
        build, good = BUILDERS[name]
        with pytest.raises(DomainError):
            build(np.full_like(good, np.nan))

    def test_eig_hermitian_rejects_nan(self):
        with pytest.raises(DomainError):
            eig_hermitian(_with(np.eye(2, dtype=complex), np.nan))


class TestOneCheckPerInvariant:
    def test_empty_matrices_rejected(self):
        for build in (DensityMatrix, DoublyStochasticMatrix, OrthogonalMatrix):
            for bad in (np.zeros((0, 0)), np.zeros((2, 3)), np.zeros(2)):
                with pytest.raises(InvalidValue,
                                   match="^expected a non-empty square matrix of finite numbers$"):
                    build(bad)

    def test_square_matrices_are_stored_read_only(self):
        for m in (DensityMatrix(np.eye(2) / 2).matrix, DoublyStochasticMatrix(np.eye(2)).entries,
                  OrthogonalMatrix(np.eye(2)).entries):
            assert not m.flags.writeable

    def test_birkhoff_decompose_uses_the_type_check(self):
        # a raw matrix gets DoublyStochasticMatrix's check, which does not widen with tol
        with pytest.raises(DomainError):
            birkhoff_decompose(np.array([[1.0 + 1e-6, 0.0], [0.0, 1.0]]), tol=1e-3)

    @pytest.mark.parametrize("tol", [0.0, -1.0, np.nan, np.inf])
    def test_birkhoff_decompose_rejects_tol_outside_open_half_line(self, tol):
        with pytest.raises(ValueError, match="tol"):
            birkhoff_decompose(np.full((2, 2), 0.5), tol=tol)

    def test_tol_above_every_entry_leaves_no_terms(self):
        with pytest.raises(InvalidValue, match=r"^tol=0\.6 exceeds the largest entry 0\.5"):
            birkhoff_decompose(np.full((2, 2), 0.5), tol=0.6)
        assert len(birkhoff_decompose(np.full((2, 2), 0.5), tol=0.5).weights) == 2

    @pytest.mark.parametrize("weights,count", [([0.5, 0.5], 3), ([], 0), ([1.0, 0.0], 2),
                                               ([0.6, 0.6], 2), ([[0.5, 0.5]], 2)])
    def test_convex_weights_rejects(self, weights, count):
        with pytest.raises(InvalidValue):
            convex_weights(weights, count)

    def test_convex_weights_accepts_and_is_read_only(self):
        w = convex_weights([0.25, 0.75], 2)
        assert w.tolist() == [0.25, 0.75]
        assert not w.flags.writeable

    def test_probe_of_unflagged_channel_is_refused_by_apply(self):
        phi = KrausChannel(2 * np.eye(2, dtype=complex)[None])
        with pytest.raises(NotTracePreserving):
            entropy_probe(phi, 1, np.random.default_rng(0))

    def test_density_matrix_accepted_where_a_hermitian_matrix_is(self):
        rho = DensityMatrix(np.diag([0.75, 0.25]).astype(complex))
        np.testing.assert_allclose(eig_hermitian(rho)[0], [0.75, 0.25])

    def test_trace_distance_checks_raw_matrices(self):
        with pytest.raises(NotHermitian):
            trace_distance(np.array([[1.0, 1.0], [0.0, 0.0]]), np.eye(2) / 2)


# Each function takes a raw vector in through ProbVector's checks.
RAW_VECTOR_TAKERS = {
    "is_majorized a": lambda v: is_majorized(v, [0.5, 0.5]),
    "is_majorized b": lambda v: is_majorized([0.5, 0.5], v),
    "shannon_entropy": shannon_entropy,
    "sorted_padded": lambda v: sorted_padded(v, 3),
    "find_transfer_chain a": lambda v: find_transfer_chain(v, [1.0, 0.0]),
    "find_transfer_chain b": lambda v: find_transfer_chain([0.5, 0.5], v),
}


class TestRawVectorsTakenInOnce:
    @pytest.mark.parametrize("bad", [*NON_FINITE, -2 * CLAMP_TOL],
                             ids=["nan", "inf", "-inf", "below-clamp"])
    @pytest.mark.parametrize("name", sorted(RAW_VECTOR_TAKERS))
    def test_bad_entry_is_refused(self, name, bad):
        with pytest.raises(InvalidValue):
            RAW_VECTOR_TAKERS[name]([bad, 0.5])

    @pytest.mark.parametrize("name", sorted(RAW_VECTOR_TAKERS))
    def test_entry_within_clamp_is_rounded_up(self, name):
        RAW_VECTOR_TAKERS[name]([-CLAMP_TOL / 2, 0.5, 0.5])


STEP = r"needs two distinct indices in 0\.\.1 and t in \[0, 1\]"


class TestTransferChainSteps:
    @pytest.mark.parametrize("i,j,t,message", [
        ([0, 1], [1], [0.5, 0.5],
         r"i, j and t must have one length, not shapes \(2,\), \(1,\) and \(2,\)"),
        ([1, 0], [0, 0], [0.5, 0.5], rf"step 1: \(i, j, t\) = \(0, 0, 0\.5\) {STEP}"),
        ([0, -1], [1, 0], [0.5, 0.5], rf"step 1: \(i, j, t\) = \(-1, 0, 0\.5\) {STEP}"),
        ([0], [2], [0.5], rf"step 0: \(i, j, t\) = \(0, 2, 0\.5\) {STEP}"),
        ([0.0], [1], [0.5], "i must hold integers, not float64"),
        ([0], [True], [0.5], "j must hold integers, not bool"),
        ([0], [1], [np.nan], rf"step 0: \(i, j, t\) = \(0, 1, nan\) {STEP}"),
        ([0], [1], [np.inf], rf"step 0: \(i, j, t\) = \(0, 1, inf\) {STEP}"),
        ([0], [1], [-np.inf], rf"step 0: \(i, j, t\) = \(0, 1, -inf\) {STEP}"),
        ([0], [1], [-1e-11], rf"step 0: \(i, j, t\) = \(0, 1, -1e-11\) {STEP}"),
        ([0], [1], [1 + 1e-11], rf"step 0: \(i, j, t\) = \(0, 1, 1\.00000000001\) {STEP}"),
    ], ids=["unequal-lengths", "one-index", "negative-index", "index-past-d", "float-index",
            "bool-index", "t-nan", "t-inf", "t-minus-inf", "t-below-0", "t-above-1"])
    def test_is_refused(self, i, j, t, message):
        with pytest.raises(InvalidValue, match=f"^{message}$"):
            TransferChain(2, i, j, t)

    def test_t_within_clamp_reads_as_its_bound(self):
        chain = TransferChain(2, [0, 1], [1, 0], [1 + 1e-13, -1e-13])
        assert chain.t.tolist() == [1.0, 0.0]
        assert [f.name for f in dataclasses.fields(chain)] == ["d", "i", "j", "t"]
        assert not any(a.flags.writeable for a in (chain.i, chain.j, chain.t))


def _tall():
    """The channel of the 3 x 2 isometry onto the first two basis vectors."""
    return KrausChannel(np.eye(3, 2, dtype=complex)[None])


class TestArgumentsRefused:
    @pytest.mark.parametrize("call,error,message", [
        (lambda: random_density(0, np.random.default_rng(0)), ValueError, "d must be >= 1"),
        (lambda: random_majorized_pair(0, np.random.default_rng(0)), ValueError,
         "d must be >= 1"),
        (lambda: fixed_point_commutant_check(_tall(), np.eye(2)), DimensionMismatch,
         "fixed points need a square channel"),
        (lambda: compose_channels(KrausChannel(np.eye(2, dtype=complex)[None]), _tall()),
         DimensionMismatch, "inner output 3 != outer input 2"),
        (lambda: depolarizing_channel(2, 0.0), ValueError, r"p must be in \(0, 1\]"),
        (lambda: random_isometry(3, 2, np.random.default_rng(0)), DimensionMismatch,
         "an isometry needs d_out >= d_in"),
        (lambda: random_bistochastic_channel(2, np.random.default_rng(0), kind="swap"),
         ValueError, "unknown channel kind 'swap'"),
        (lambda: to_json_value(object()), TypeError, "no JSON schema for object"),
        (lambda: random_isometric_conjugation_channel(2, 3, np.random.default_rng(0), num_terms=0),
         InvalidValue, "need at least one operator"),
    ], ids=["random-density-d0", "majorized-pair-d0", "fixed-point-of-rectangular",
            "composition-mismatch", "depolarizing-p0", "isometry-d-out-below-d-in",
            "unknown-channel-kind", "no-json-schema", "isometric-conjugation-no-terms"])
    def test_is_refused(self, call, error, message):
        with pytest.raises(error, match=f"^{message}$"):
            call()
