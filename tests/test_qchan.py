import collections
import re
import tracemalloc

import numpy as np
import pytest

from entmaj.densop import (
    DensityMatrix,
    eig_hermitian,
    haar_unitary,
    pure_state,
    random_density,
    spectrum,
    trace_distance,
    von_neumann_entropy,
)
from entmaj.errors import (DimensionMismatch, InvalidValue, MajorizationFailed,
                           NotTracePreserving, NotUnitary)
from entmaj import qchan, xfer
from entmaj.qchan import (
    COMPLETENESS_TOL,
    FIXED_POINT_TOL,
    PROBE_BLOCK,
    PROBE_CHUNK_ENTRIES,
    KrausChannel,
    apply_channel,
    choi_matrix,
    choi_of_linear_map,
    compose_channels,
    depolarizing_channel,
    detect_isometry,
    entropy_probe,
    fixed_point_commutant_check,
    mixed_unitary_channel,
    mixed_unitary_uhlmann,
    pinch_convergence_experiment,
    pinching_channel,
    probe_state,
    random_bistochastic_channel,
    random_isometric_conjugation_channel,
    random_isometry,
    uhlmann_channel,
    uhlmann_frame,
)
from entmaj.seqmaj import is_majorized, random_majorized_pair, sorted_padded
from entmaj.serial import channel_to_json


def kraus_sum(phi: KrausChannel, x: np.ndarray) -> np.ndarray:
    """sum_i A_i X A_i^*, one operator at a time."""
    return sum(a @ x @ a.conj().T for a in phi.kraus)


def phase_averaging_channel(n: int, d: int) -> KrausChannel:
    """Uniform mixture of conjugations by powers of a diagonal phase unitary: the channel
    whose distance to the pinching pinch_convergence_experiment computes from masks.

    The unitary carries the first n coordinates through the n-th roots of
    unity and fixes the rest; averaging its first n powers kills every
    off-diagonal entry that touches the first n-1 coordinates and converges
    to the full pinching as n grows.
    """
    if not 1 <= n <= d:
        raise ValueError(f"n={n} out of range 1..{d}")
    omega = np.exp(2j * np.pi / n)
    diag = np.concatenate([omega ** np.arange(1, n + 1), np.ones(d - n)])
    powers = diag[None, :] ** np.arange(1, n + 1)[:, None]
    return KrausChannel(powers[:, :, None] * np.eye(d) / np.sqrt(n))


def dephasing_channel():
    z = np.diag([1.0, -1.0]).astype(complex)
    return KrausChannel((np.eye(2, dtype=complex) / np.sqrt(2), z / np.sqrt(2)))


def phase_matched_max_error(recovered, truth):
    overlap = np.trace(recovered.conj().T @ truth)
    phase = overlap / abs(overlap)
    return float(np.abs(recovered * phase - truth).max())


def mixture_output(mix, rho):
    out = np.zeros_like(rho.matrix)
    for w, u in zip(mix.weights, mix.unitaries):
        out += w * (u @ rho.matrix @ u.conj().T)
    return DensityMatrix((out + out.conj().T) / 2)


class TestApply:
    def test_identity_channel(self):
        rho = random_density(3, np.random.default_rng(0))
        out = apply_channel(KrausChannel(np.eye(3, dtype=complex)[None]), rho)
        assert np.abs(out.matrix - rho.matrix).max() <= 1e-12

    def test_dephasing_kills_off_diagonals(self):
        rho = pure_state(np.array([1.0, 1.0]) / np.sqrt(2))
        out = apply_channel(dephasing_channel(), rho)
        np.testing.assert_allclose(out.matrix, np.diag([0.5, 0.5]), atol=1e-12)

    def test_pinching_in_eigenbasis_is_identity(self):
        rng = np.random.default_rng(1)
        rho = random_density(4, rng)
        basis = eig_hermitian(rho)[1]
        out = apply_channel(pinching_channel(basis), rho)
        assert np.abs(out.matrix - rho.matrix).max() <= 1e-9

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            apply_channel(KrausChannel(np.eye(3, dtype=complex)[None]),
                          DensityMatrix(np.eye(2, dtype=complex) / 2))

    def test_not_trace_preserving_rejected(self):
        half = KrausChannel((np.eye(2, dtype=complex) / np.sqrt(2),))
        with pytest.raises(NotTracePreserving):
            apply_channel(half, DensityMatrix(np.eye(2, dtype=complex) / 2))


class TestStructureChecks:
    def test_identity(self):
        phi = KrausChannel(np.eye(3, dtype=complex)[None])
        assert phi.trace_preserving and phi.unital
        assert phi.completeness_defect <= 1e-12
        assert np.linalg.eigvalsh(choi_matrix(phi)).min() >= -1e-12

    def test_dephasing(self):
        phi = dephasing_channel()
        assert phi.trace_preserving and phi.unital
        assert np.linalg.eigvalsh(choi_matrix(phi)).min() >= -1e-12

    def test_transpose_map_not_cp(self):
        # encoded as a plain linear map; its Choi matrix is the swap operator
        d = 3
        c = choi_of_linear_map(lambda x: x.T, d, d)
        vals = np.linalg.eigvalsh(c)
        assert vals.min() == pytest.approx(-1.0 / d, abs=1e-9)
        assert vals.max() == pytest.approx(1.0 / d, abs=1e-9)

    def test_choi_matches_linear_map_route(self):
        rng = np.random.default_rng(5)
        phi = random_bistochastic_channel(3, rng)
        direct = choi_matrix(phi)
        generic = choi_of_linear_map(lambda x: kraus_sum(phi, x), 3, 3)
        assert np.abs(direct - generic).max() <= 1e-10


class TestPinching:
    def test_standard_basis_example(self):
        rho = DensityMatrix(np.array([[0.5, 0.4], [0.4, 0.5]], dtype=complex))
        out = apply_channel(pinching_channel(np.eye(2)), rho)
        np.testing.assert_allclose(out.matrix, np.diag([0.5, 0.5]), atol=1e-12)

    def test_entropy_never_decreases(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            rho = random_density(5, rng)
            phi = pinching_channel(haar_unitary(5, rng))
            assert von_neumann_entropy(apply_channel(phi, rho)) >= \
                von_neumann_entropy(rho) - 1e-9

    def test_idempotent(self):
        rng = np.random.default_rng(7)
        rho = random_density(4, rng)
        phi = pinching_channel(haar_unitary(4, rng))
        once = apply_channel(phi, rho)
        twice = apply_channel(phi, once)
        assert np.abs(twice.matrix - once.matrix).max() <= 1e-10

    def test_rejects_non_unitary_basis(self):
        with pytest.raises(NotUnitary):
            pinching_channel(np.array([[1.0, 1.0], [0.0, 1.0]]))


class TestPhaseAveraging:
    def test_n_equals_one_is_identity(self):
        rng = np.random.default_rng(8)
        rho = random_density(3, rng)
        out = apply_channel(phase_averaging_channel(1, 3), rho)
        assert np.abs(out.matrix - rho.matrix).max() <= 1e-12

    def test_two_level_dephasing(self):
        c = 0.3 + 0.2j
        rho = DensityMatrix(np.array([[0.5, c], [np.conj(c), 0.5]]))
        out = apply_channel(phase_averaging_channel(2, 2), rho)
        np.testing.assert_allclose(out.matrix, np.diag([0.5, 0.5]), atol=1e-12)

    def test_full_power_pinches_everything(self):
        rng = np.random.default_rng(9)
        d = 5
        rho = random_density(d, rng)
        out = apply_channel(phase_averaging_channel(d, d), rho)
        off = out.matrix - np.diag(np.diag(out.matrix))
        assert np.abs(off).max() <= 1e-9

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            phase_averaging_channel(5, 4)


class TestPinchConvergence:
    def test_distance_below_bound_and_final_row(self):
        rng = np.random.default_rng(10)
        rho = random_density(8, rng)
        rows = pinch_convergence_experiment(rho, haar_unitary(8, rng))
        assert [r.n for r in rows] == list(range(1, 9))
        for r in rows:
            assert r.trace_distance <= r.bound + 1e-8
        assert rows[-1].trace_distance <= 1e-8

    def test_diagonal_state_has_zero_distance(self):
        rho = DensityMatrix(np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex))
        rows = pinch_convergence_experiment(rho, np.eye(4))
        assert all(r.trace_distance <= 1e-10 for r in rows)

    def test_bound_column_non_increasing(self):
        rng = np.random.default_rng(11)
        rho = random_density(12, rng)
        rows = pinch_convergence_experiment(rho, haar_unitary(12, rng))
        bounds = [r.bound for r in rows]
        assert all(b2 <= b1 + 1e-12 for b1, b2 in zip(bounds, bounds[1:]))

    def test_distances_match_the_phase_averaging_channel(self):
        rng = np.random.default_rng(12)
        for d in range(2, 13):
            rho, basis = random_density(d, rng), haar_unitary(d, rng)
            rows = pinch_convergence_experiment(rho, basis)
            rot = DensityMatrix(basis.conj().T @ rho.matrix @ basis)
            pinched = DensityMatrix(np.diag(np.diag(rot.matrix)))
            for r in rows:
                avg = apply_channel(phase_averaging_channel(r.n, d), rot)
                assert abs(r.trace_distance - trace_distance(avg, pinched)) <= 1e-12

    def test_basis_of_another_dimension_is_a_dimension_mismatch(self):
        rho = random_density(3, np.random.default_rng(14))
        with pytest.raises(DimensionMismatch, match="basis dimension 2 != state dimension 3"):
            pinch_convergence_experiment(rho, np.eye(2))

    @pytest.mark.parametrize("entries", [1, 2 * 49, 3 * 49])
    def test_chunked_rows_equal_one_stack(self, monkeypatch, entries):
        rng = np.random.default_rng(13)
        rho, basis = random_density(7, rng), haar_unitary(7, rng)
        whole = pinch_convergence_experiment(rho, basis)
        monkeypatch.setattr(qchan, "PROBE_CHUNK_ENTRIES", entries)
        assert pinch_convergence_experiment(rho, basis) == whole


class TestUhlmannChannel:
    def test_pure_to_maximally_mixed(self):
        rho2 = DensityMatrix(np.diag([1.0, 0.0]).astype(complex))
        rho1 = DensityMatrix(np.eye(2, dtype=complex) / 2)
        psi = uhlmann_channel(rho1, rho2)
        out = apply_channel(psi, rho2)
        assert trace_distance(out, rho1) <= 1e-9

    def test_identity_pair(self):
        rng = np.random.default_rng(12)
        rho = random_density(4, rng)
        psi = uhlmann_channel(rho, rho)
        assert trace_distance(apply_channel(psi, rho), rho) <= 1e-8

    def test_random_pairs_d16(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            a, b = random_majorized_pair(16, rng)
            rho2 = random_density(16, rng, spec=b)
            rho1 = random_density(16, rng, spec=a)
            psi = uhlmann_channel(rho1, rho2)
            assert trace_distance(apply_channel(psi, rho2), rho1) <= 1e-7
            assert psi.trace_preserving and psi.unital

    def test_rejects_non_majorized(self):
        rng = np.random.default_rng(14)
        rho1 = pure_state(np.array([1.0, 0.0]))
        rho2 = random_density(2, rng, spec=[0.6, 0.4])
        for construct in (uhlmann_channel, mixed_unitary_uhlmann):
            with pytest.raises(MajorizationFailed, match=r"spectrum\(rho1\)") as info:
                construct(rho1, rho2)
            assert not info.value.verdict.holds


class TestMixedUnitaryUhlmann:
    def test_pure_to_maximally_mixed(self):
        rho2 = DensityMatrix(np.diag([1.0, 0.0]).astype(complex))
        rho1 = DensityMatrix(np.eye(2, dtype=complex) / 2)
        mix = mixed_unitary_uhlmann(rho1, rho2)
        np.testing.assert_allclose(sorted(mix.weights), [0.5, 0.5], atol=1e-12)
        assert trace_distance(mixture_output(mix, rho2), rho1) <= 1e-9

    def test_identity_pair_single_term(self):
        rng = np.random.default_rng(15)
        rho = random_density(3, rng)
        mix = mixed_unitary_uhlmann(rho, rho)
        assert len(mix.unitaries) == 1
        assert mix.weights[0] == pytest.approx(1.0, abs=1e-12)
        assert trace_distance(mixture_output(mix, rho), rho) <= 1e-8

    def test_pure_to_maximally_mixed_needs_exactly_d_unitaries(self):
        rng = np.random.default_rng(18)
        for d in (2, 3, 6, 9):
            rho2 = pure_state(haar_unitary(d, rng)[:, 0])
            rho1 = DensityMatrix(np.eye(d, dtype=complex) / d)
            mix = mixed_unitary_uhlmann(rho1, rho2)
            assert len(mix.unitaries) == d
            np.testing.assert_allclose(mix.weights, 1.0 / d, atol=1e-12)
            assert trace_distance(mixture_output(mix, rho2), rho1) <= 1e-9

    def test_dimension_one_is_one_unitary_of_weight_one(self):
        rho = DensityMatrix(np.ones((1, 1), dtype=complex))
        mix = mixed_unitary_uhlmann(rho, rho)
        assert len(mix.unitaries) == 1
        assert mix.weights[0] == 1.0
        assert trace_distance(mixture_output(mix, rho), rho) <= 1e-12

    def test_two_blocks_need_only_the_larger_block_size(self):
        # the chain pairs coordinates (2, 3) and then (0, 1): two blocks of two
        rng = np.random.default_rng(21)
        rho1 = random_density(4, rng, spec=[0.35, 0.35, 0.15, 0.15])
        rho2 = random_density(4, rng, spec=[0.4, 0.3, 0.2, 0.1])
        mix = mixed_unitary_uhlmann(rho1, rho2)
        assert len(mix.unitaries) == 2
        assert list(mix.weights) == [0.5, 0.5]
        assert trace_distance(mixture_output(mix, rho2), rho1) <= 1e-12

    def test_reaches_the_source_spectra_at_d64(self):
        rng = np.random.default_rng(64)
        for _ in range(10):
            a, b = random_majorized_pair(64, rng)
            rho2 = random_density(64, rng, spec=b)
            mix = mixed_unitary_uhlmann(random_density(64, rng, spec=a), rho2)
            out = sum(t * u @ rho2.matrix @ u.conj().T
                      for t, u in zip(mix.weights, mix.unitaries))
            point = np.linalg.eigvalsh(out)[::-1]
            assert np.abs(point - sorted_padded(a, a.d)).max() <= 1e-12

    def test_random_pairs_majorization_both_ways(self):
        rng = np.random.default_rng(16)
        for _ in range(8):
            d = int(rng.integers(2, 13))
            a, b = random_majorized_pair(d, rng)
            rho2 = random_density(d, rng, spec=b)
            rho1 = random_density(d, rng, spec=a)
            mix = mixed_unitary_uhlmann(rho1, rho2)
            out = mixture_output(mix, rho2)
            assert trace_distance(out, rho1) <= 1e-7
            assert len(mix.unitaries) <= d
            # sufficiency: the mixture output is spectrally flatter than rho2
            assert is_majorized(spectrum(out), spectrum(rho2), 1e-8).holds
            chan = mixed_unitary_channel(mix.weights, mix.unitaries)
            assert chan.trace_preserving and chan.unital


class TestBistochasticMajorization:
    def test_outputs_majorized_and_entropy_grows(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            d = int(rng.integers(2, 9))
            phi = random_bistochastic_channel(d, rng)
            rho = random_density(d, rng)
            out = apply_channel(phi, rho)
            assert is_majorized(spectrum(out), spectrum(rho), 1e-8).holds
            assert von_neumann_entropy(out) >= von_neumann_entropy(rho) - 1e-9

    def test_spectral_equality_when_entropy_preserved(self):
        # bistochastic + full rank + equal entropy forces an unchanged spectrum
        rng = np.random.default_rng(18)
        for _ in range(10):
            d = int(rng.integers(2, 7))
            rho = random_density(d, rng)
            u = haar_unitary(d, rng)
            phi = mixed_unitary_channel([1.0], [u])
            out = apply_channel(phi, rho)
            assert abs(von_neumann_entropy(out) - von_neumann_entropy(rho)) <= 1e-9
            assert np.abs(spectrum(out).entries - spectrum(rho).entries).max() <= 1e-6
        # pinching in the eigenbasis also preserves the spectrum exactly
        rho = random_density(5, np.random.default_rng(19))
        phi = pinching_channel(eig_hermitian(rho)[1])
        out = apply_channel(phi, rho)
        assert abs(von_neumann_entropy(out) - von_neumann_entropy(rho)) <= 1e-9
        assert np.abs(spectrum(out).entries - spectrum(rho).entries).max() <= 1e-6


class TestKrausNonUniqueness:
    def test_unitary_remixing_preserves_action(self):
        rng = np.random.default_rng(20)
        phi = random_bistochastic_channel(4, rng)
        w = haar_unitary(phi.num_kraus, rng)
        remixed_ops = tuple(
            sum(w[i, j] * phi.kraus[j] for j in range(phi.num_kraus))
            for i in range(phi.num_kraus))
        psi = KrausChannel(remixed_ops)
        for _ in range(5):
            rho = random_density(4, rng)
            a = apply_channel(phi, rho)
            b = apply_channel(psi, rho)
            assert np.abs(a.matrix - b.matrix).max() <= 1e-8


class TestDetectIsometry:
    def test_single_unitary(self):
        rng = np.random.default_rng(21)
        u = haar_unitary(4, rng)
        rep = detect_isometry(KrausChannel((u,)))
        assert rep.is_isometric_conjugation
        assert phase_matched_max_error(rep.isometry, u) <= 1e-9

    def test_dephasing_rejected_with_witness(self):
        rep = detect_isometry(dephasing_channel())
        assert not rep.is_isometric_conjugation
        pair, dev = rep.failure_witness
        assert pair == (0, 1)
        assert dev == pytest.approx(0.5, abs=1e-12)

    def test_redundant_phase_terms_recovered(self):
        rng = np.random.default_rng(22)
        chan, truth = random_isometric_conjugation_channel(3, 5, rng, num_terms=2)
        rep = detect_isometry(chan)
        assert rep.is_isometric_conjugation
        assert phase_matched_max_error(rep.isometry, truth) <= 1e-6

    def test_recovered_isometry_reproduces_action(self):
        rng = np.random.default_rng(23)
        chan, _ = random_isometric_conjugation_channel(4, 6, rng, num_terms=3)
        rep = detect_isometry(chan)
        v = rep.isometry
        assert np.abs(v.conj().T @ v - np.eye(4)).max() <= 1e-8
        for i in range(4):
            for j in range(4):
                e = np.zeros((4, 4), dtype=complex)
                e[i, j] = 1.0
                assert np.abs(kraus_sum(chan, e) - v @ e @ v.conj().T).max() <= 1e-7

    def test_depolarizing_rejected(self):
        rep = detect_isometry(depolarizing_channel(3, 0.5))
        assert not rep.is_isometric_conjugation

    def test_random_mixtures_rejected(self):
        rng = np.random.default_rng(24)
        for _ in range(5):
            phi = random_bistochastic_channel(4, rng, kind="mixed_unitary")
            assert not detect_isometry(phi).is_isometric_conjugation

    def test_zero_kraus_operator_keeps_verdict_and_isometry(self):
        chan, _ = random_isometric_conjugation_channel(3, 4, np.random.default_rng(28),
                                                       num_terms=2)
        padded = KrausChannel(np.concatenate([chan.kraus, np.zeros((1, 4, 3))]))
        rep, rep0 = detect_isometry(padded), detect_isometry(chan)
        assert rep.is_isometric_conjugation and rep0.is_isometric_conjugation
        assert np.abs(rep.isometry - rep0.isometry).max() <= 1e-12

    def test_one_dimensional_input_split_is_rejected(self):
        e = np.eye(2, dtype=complex)
        chan = KrausChannel((e[:, :1] / np.sqrt(2), e[:, 1:] / np.sqrt(2)))
        rep = detect_isometry(chan)
        assert not rep.is_isometric_conjugation
        pair, gap = rep.failure_witness
        assert pair == (0, 1)
        assert gap == pytest.approx(0.5, abs=1e-12)

    def test_one_dimensional_input_phases_of_one_vector_are_accepted(self):
        w = np.array([[1.0], [2.0j], [-2.0]]) / 3.0
        c = np.array([0.6, 0.8j * np.exp(0.3j)])
        chan = KrausChannel(c[:, None, None] * w)
        rep = detect_isometry(chan)
        assert rep.is_isometric_conjugation
        assert phase_matched_max_error(rep.isometry, w) <= 1e-12

    def test_negative_witness_is_the_largest_defect_pair_and_the_gap(self):
        rng = np.random.default_rng(29)
        for phi in (depolarizing_channel(3, 0.5), dephasing_channel(),
                    random_bistochastic_channel(3, rng, kind="mixed_unitary")):
            (i, j), gap = detect_isometry(phi).failure_witness
            flat = phi.kraus.reshape(phi.num_kraus, -1)
            g = flat.conj() @ flat.T / phi.d_in
            defect = np.outer(g.diagonal().real, g.diagonal().real) - np.abs(g) ** 2
            assert i < j
            assert defect[i, j] > 0
            assert defect[i, j] == defect[np.triu_indices(phi.num_kraus, 1)].max()
            assert gap == pytest.approx(np.linalg.eigvalsh(g)[:-1].sum(), abs=1e-12)

    def test_gap_within_tol_but_no_isometry_has_a_diagonal_witness(self):
        # amplitude damping at c = 0.6: Gram gap 0.32, isometry defect of V 8/17
        ops = np.array([np.diag([1.0, 0.6]), [[0.0, 0.8], [0.0, 0.0]]], dtype=complex)
        rep = detect_isometry(KrausChannel(ops), tol=0.4)
        assert not rep.is_isometric_conjugation and rep.gram is None
        pair, dev = rep.failure_witness
        assert pair == (0, 0)
        assert dev == pytest.approx(8 / 17, abs=1e-12)

    def test_gram_only_on_positive_verdicts(self):
        assert detect_isometry(depolarizing_channel(3, 0.5)).gram is None
        chan, _ = random_isometric_conjugation_channel(3, 5, np.random.default_rng(30),
                                                       num_terms=3)
        gram = detect_isometry(chan).gram
        assert gram.shape == (3, 3)
        assert np.abs(gram - gram.conj().T).max() <= 1e-15


class TestEntropyProbe:
    def test_isometric_channel_preserves_entropy(self):
        rng = np.random.default_rng(25)
        chan, _ = random_isometric_conjugation_channel(4, 4, rng, num_terms=2)
        result = entropy_probe(chan, 200, np.random.default_rng(0))
        assert result.max_deviation <= 1e-7

    def test_dephasing_shows_large_deviation(self):
        result = entropy_probe(dephasing_channel(), 1000, np.random.default_rng(1))
        assert result.max_deviation >= 0.5

    def test_probe_is_existential_not_universal(self):
        # a state diagonal in the pinching basis is untouched even though
        # the channel moves entropy on other states
        basis = np.eye(3)
        phi = pinching_channel(basis)
        rho = DensityMatrix(np.diag([0.5, 0.3, 0.2]).astype(complex))
        out = apply_channel(phi, rho)
        assert abs(von_neumann_entropy(out) - von_neumann_entropy(rho)) <= 1e-12

    def test_deterministic_given_seed(self):
        r1 = entropy_probe(dephasing_channel(), 50, np.random.default_rng(5))
        r2 = entropy_probe(dephasing_channel(), 50, np.random.default_rng(5))
        assert r1 == r2

    def test_detector_positive_implies_purity_preserved(self):
        rng = np.random.default_rng(26)
        chan, _ = random_isometric_conjugation_channel(3, 6, rng, num_terms=2)
        assert detect_isometry(chan).is_isometric_conjugation
        for _ in range(10):
            v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            v /= np.linalg.norm(v)
            out = apply_channel(chan, pure_state(v))
            purity = np.trace(out.matrix @ out.matrix).real
            assert purity >= 1 - 1e-7

    def test_detector_positive_preserves_orthogonality(self):
        rng = np.random.default_rng(27)
        chan, _ = random_isometric_conjugation_channel(4, 7, rng, num_terms=3)
        assert detect_isometry(chan).is_isometric_conjugation
        for _ in range(10):
            g = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
            q, _ = np.linalg.qr(g)
            ox = apply_channel(chan, pure_state(q[:, 0]))
            oy = apply_channel(chan, pure_state(q[:, 1]))
            assert abs(np.trace(ox.matrix @ oy.matrix)) <= 1e-8


class TestFixedPointCommutant:
    def test_pinching_diagonal_fixed(self):
        rng = np.random.default_rng(28)
        basis = haar_unitary(4, rng)
        phi = pinching_channel(basis)
        b = (basis * np.array([0.4, 0.3, 0.2, 0.1])) @ basis.conj().T
        rep = fixed_point_commutant_check(phi, b, tol=1e-9)
        assert rep.is_fixed
        assert rep.max_commutator_norm <= 1e-8

    def test_pinching_off_diagonal_not_fixed(self):
        phi = pinching_channel(np.eye(3))
        b = np.array([[0.5, 0.2, 0], [0.2, 0.3, 0], [0, 0, 0.2]], dtype=complex)
        rep = fixed_point_commutant_check(phi, b, tol=1e-9)
        assert not rep.is_fixed

    def test_commuting_diagonal_mixture(self):
        rng = np.random.default_rng(29)
        diag_us = [np.diag(np.exp(2j * np.pi * rng.random(5))) for _ in range(3)]
        phi = mixed_unitary_channel(rng.dirichlet(np.ones(3)), diag_us)
        b = np.diag(rng.random(5)).astype(complex)
        rep = fixed_point_commutant_check(phi, b, tol=1e-9)
        assert rep.is_fixed
        assert rep.max_commutator_norm <= 1e-8

    @pytest.mark.parametrize("shape", [(2, 3), (3,), (4, 4), (3, 3, 1)])
    def test_matrix_of_another_shape_is_refused(self, shape):
        with pytest.raises(DimensionMismatch,
                           match=re.escape(f"matrix shape {shape} != (3, 3)")):
            fixed_point_commutant_check(pinching_channel(np.eye(3)), np.zeros(shape))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_matrix_is_refused(self, bad):
        b = np.diag([0.5, 0.3, 0.2]).astype(complex)
        b[0, 1] = bad
        with pytest.raises(InvalidValue, match="finite"):
            fixed_point_commutant_check(pinching_channel(np.eye(3)), b)

    def test_subunitality_is_checked_before_the_shape(self):
        with pytest.raises(InvalidValue, match="dual map is not subunital"):
            fixed_point_commutant_check(KrausChannel((1.1 * np.eye(3, dtype=complex),)),
                                        np.zeros((2, 3)))

    @pytest.mark.parametrize("off,fixed", [(0.5 * FIXED_POINT_TOL, True),
                                           (2 * FIXED_POINT_TOL, False)])
    def test_default_tolerance_is_fixed_point_tol(self, off, fixed):
        # pinching moves B by exactly its off-diagonal entry
        b = np.diag([0.5, 0.3, 0.2]).astype(complex)
        b[0, 1] = b[1, 0] = off
        rep = fixed_point_commutant_check(pinching_channel(np.eye(3)), b)
        assert (rep.is_fixed, rep.defect) == (fixed, off)


class TestCompose:
    def test_composition_matches_sequential_application(self):
        rng = np.random.default_rng(30)
        phi = random_bistochastic_channel(3, rng, kind="mixed_unitary")
        psi = pinching_channel(haar_unitary(3, rng))
        comp = compose_channels(psi, phi)
        rho = random_density(3, rng)
        a = apply_channel(psi, apply_channel(phi, rho))
        b = apply_channel(comp, rho)
        assert np.abs(a.matrix - b.matrix).max() <= 1e-10


class TestKrausChannelType:
    def test_dimensions_are_read_from_the_stack(self):
        v = random_isometry(2, 4, np.random.default_rng(31))
        phi = KrausChannel((v, v))
        assert (phi.num_kraus, phi.d_out, phi.d_in) == (2, 4, 2)

    def test_a_matrix_is_not_a_stack(self):
        with pytest.raises(DimensionMismatch):
            KrausChannel(np.eye(2, dtype=complex))

    @pytest.mark.parametrize("ops,trace_preserving,unital", [
        ((np.eye(2) * np.sqrt(1 + 5e-9),), True, True),
        ((np.eye(2) * np.sqrt(1 + 2e-8),), False, False),
        ((np.eye(2) * 0.5,), False, False),
        ((random_isometry(2, 3, np.random.default_rng(32)),), True, False),
        ((np.eye(3)[:2] / np.sqrt(2), np.eye(3)[1:] / np.sqrt(2)), False, True),
    ], ids=["within-tol", "beyond-tol", "half", "tall-isometry", "wide-split"])
    def test_flags_follow_the_stored_defects(self, ops, trace_preserving, unital):
        phi = KrausChannel(ops)
        assert phi.trace_preserving is trace_preserving
        assert phi.unital is unital
        assert phi.trace_preserving is (phi.completeness_defect <= COMPLETENESS_TOL)
        assert phi.unital is (phi.unitality_defect <= COMPLETENESS_TOL)


def _uhlmann(rng):
    a, b = random_majorized_pair(4, rng)
    return uhlmann_channel(random_density(4, rng, spec=a), random_density(4, rng, spec=b))


CONSTRUCTIONS = {
    "identity": lambda rng: KrausChannel(np.eye(3, dtype=complex)[None]),
    "mixed-unitary": lambda rng: mixed_unitary_channel(
        [0.3, 0.7], [haar_unitary(3, rng) for _ in range(2)]),
    "pinching": lambda rng: pinching_channel(haar_unitary(4, rng)),
    "phase-averaging": lambda rng: phase_averaging_channel(3, 5),
    "uhlmann": _uhlmann,
    "composition": lambda rng: compose_channels(pinching_channel(haar_unitary(3, rng)),
                                                depolarizing_channel(3, 0.4)),
    "depolarizing": lambda rng: depolarizing_channel(4, 0.5),
    "isometric-square": lambda rng: random_isometric_conjugation_channel(3, 3, rng, 2)[0],
    "isometric-tall": lambda rng: random_isometric_conjugation_channel(2, 5, rng, 3)[0],
}


@pytest.mark.parametrize("name", CONSTRUCTIONS)
def test_constructions_are_trace_preserving_and_unital_unless_tall(name):
    phi = CONSTRUCTIONS[name](np.random.default_rng(33))
    unital = name != "isometric-tall"
    assert phi.trace_preserving
    assert phi.unital is unital
    assert channel_to_json(phi)["flags"] == {"trace_preserving": True, "unital": unital}


def loop_reference(phi):
    """Per-operator sums, the form the stacked computations must reproduce."""
    ops = list(phi.kraus)
    return {
        "choi": sum(np.outer(a.T.reshape(-1), a.T.reshape(-1).conj()) for a in ops) / phi.d_in,
        "completeness": np.abs(sum(a.conj().T @ a for a in ops) - np.eye(phi.d_in)).max(),
        "unitality": np.abs(sum(a @ a.conj().T for a in ops) - np.eye(phi.d_out)).max(),
    }


def _gaussian_stack(rng, n, rows, cols):
    return rng.standard_normal((n, rows, cols)) + 1j * rng.standard_normal((n, rows, cols))


class TestKrausStack:
    # stacked GEMMs sum in another order than the loops: allow a few ulps per term
    TOL = 1e-12

    @pytest.mark.parametrize("d_in,d_out,terms", [(3, 3, 1), (2, 5, 3), (4, 6, 2)])
    def test_matches_per_operator_loops(self, d_in, d_out, terms):
        rng = np.random.default_rng(44 + d_out)
        g = _gaussian_stack(rng, terms, d_out, d_in)
        phi = KrausChannel(g)
        ref = loop_reference(phi)
        x = rng.standard_normal((d_in, d_in)) + 1j * rng.standard_normal((d_in, d_in))
        scale = np.abs(g).max() ** 2 * terms * max(d_in, d_out)
        stacked = qchan._sandwich(phi.kraus, x)
        assert np.abs(stacked - kraus_sum(phi, x)).max() <= self.TOL * scale * 10
        assert np.abs(choi_matrix(phi) - ref["choi"]).max() <= self.TOL * scale
        assert abs(phi.completeness_defect - ref["completeness"]) <= self.TOL * scale
        assert abs(phi.unitality_defect - ref["unitality"]) <= self.TOL * scale

    @pytest.mark.parametrize("make", [
        *[lambda d=d: depolarizing_channel(d, 0.6) for d in range(2, 9)],
        lambda: KrausChannel(_gaussian_stack(np.random.default_rng(47), 6, 3, 2)),
        lambda: KrausChannel(_gaussian_stack(np.random.default_rng(48), 8, 2, 3)),
        lambda: compose_channels(depolarizing_channel(3, 0.5),
                                 pinching_channel(haar_unitary(3, np.random.default_rng(49)))),
    ], ids=[*[f"depolarizing-d{d}" for d in range(2, 9)], "tall-k6", "wide-k8", "composition"])
    def test_stacked_states_on_a_redundant_list_match_per_operator_loops(self, make):
        phi = make()
        assert qchan._via_superoperator(phi.kraus)
        x = _gaussian_stack(np.random.default_rng(50), 5, phi.d_in, phi.d_in)
        scale = np.abs(phi.kraus).max() ** 2 * phi.num_kraus * max(phi.d_in, phi.d_out)
        stacked = qchan._sandwich(phi.kraus, x)
        assert stacked.shape == (5, phi.d_out, phi.d_out)
        for xi, out in zip(x, stacked):
            assert np.abs(out - kraus_sum(phi, xi)).max() <= self.TOL * scale * 10

    def test_stack_is_read_only_and_ordered(self):
        rng = np.random.default_rng(45)
        us = [haar_unitary(3, rng) for _ in range(2)]
        phi = mixed_unitary_channel([0.25, 0.75], us)
        assert phi.kraus.shape == (2, 3, 3)
        assert not phi.kraus.flags.writeable
        np.testing.assert_allclose(phi.kraus[1], np.sqrt(0.75) * us[1])

    def test_composition_order_is_outer_major(self):
        rng = np.random.default_rng(46)
        outer = random_bistochastic_channel(3, rng, kind="mixed_unitary")
        inner = pinching_channel(haar_unitary(3, rng))
        comp = compose_channels(outer, inner)
        expected = [a @ b for a in outer.kraus for b in inner.kraus]
        np.testing.assert_allclose(comp.kraus, expected, atol=1e-14)

    def test_defects_are_stored_at_construction(self):
        half = KrausChannel((np.eye(2, dtype=complex) / np.sqrt(2),))
        assert half.completeness_defect == pytest.approx(0.5)
        assert half.unitality_defect == pytest.approx(0.5)
        assert not half.trace_preserving

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entries_rejected(self, bad):
        a = np.eye(2, dtype=complex)
        a[0, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            KrausChannel((a,))

    def test_ragged_family_rejected(self):
        with pytest.raises(DimensionMismatch):
            KrausChannel((np.eye(2), np.eye(3)))

    @pytest.mark.parametrize("unitaries", [np.eye(2), [np.eye(3)[:, :2]], [np.eye(2), np.eye(3)]],
                             ids=["matrix", "isometry", "ragged"])
    def test_mixed_unitary_needs_a_square_stack(self, unitaries):
        with pytest.raises(InvalidValue):
            mixed_unitary_channel(np.full(len(unitaries), 1 / len(unitaries)), unitaries)


def _seeded_pairs():
    """(id, rho1, rho2): seeded pairs at several d, and a pair whose chain has two blocks."""
    for d in (1, 2, 5, 16, 32):
        rng = np.random.default_rng(100 + d)
        a, b = random_majorized_pair(d, rng)
        rho2 = random_density(d, rng, spec=b)
        yield f"d{d}", random_density(d, rng, spec=a), rho2
    rng = np.random.default_rng(21)
    rho1 = random_density(4, rng, spec=[0.35, 0.35, 0.15, 0.15])
    yield "two-blocks", rho1, random_density(4, rng, spec=[0.4, 0.3, 0.2, 0.1])


PAIRS = list(_seeded_pairs())


class TestFactoredFrame:
    """MixedUnitaryTransfer.apply against the Kraus channels built from the same frame."""

    @pytest.mark.parametrize("pair", PAIRS, ids=[p[0] for p in PAIRS])
    def test_mixture_output_matches_its_channel(self, pair):
        _, rho1, rho2 = pair
        mix = mixed_unitary_uhlmann(rho1, rho2)
        out = mix.apply(rho2)
        chan = mixed_unitary_channel(mix.weights, mix.unitaries)
        assert trace_distance(out, apply_channel(chan, rho2)) <= 1e-12
        assert trace_distance(out, rho1) <= 1e-12

    @pytest.mark.parametrize("pair", PAIRS, ids=[p[0] for p in PAIRS])
    def test_rank_one_output_matches_uhlmann_channel(self, pair):
        _, rho1, rho2 = pair
        out = uhlmann_frame(rho1, rho2).apply(rho2, rank_one=True)
        assert trace_distance(out, apply_channel(uhlmann_channel(rho1, rho2), rho2)) <= 1e-12
        assert trace_distance(out, rho1) <= 1e-12

    def test_two_blocks_share_positions(self):
        # the mask [pos_i = pos_j] also keeps entries of equal position in different blocks
        _, rho1, rho2 = PAIRS[-1]
        mix = mixed_unitary_uhlmann(rho1, rho2)
        assert sorted(mix.pos.tolist()) == [0, 0, 1, 1]
        assert mix.num_terms == 2 == len(mix.unitaries)

    def test_uhlmann_channel_is_the_frame_written_as_kraus_operators(self):
        _, rho1, rho2 = PAIRS[2]
        frame = uhlmann_frame(rho1, rho2)
        kraus = uhlmann_channel(rho1, rho2).kraus
        for i, a in enumerate(kraus):
            np.testing.assert_array_equal(a, np.outer(frame.f[:, i], frame.e[:, i].conj()))

    def test_unitaries_and_weights_are_built_once_and_read_only(self):
        _, rho1, rho2 = PAIRS[2]
        mix = mixed_unitary_uhlmann(rho1, rho2)
        assert "unitaries" not in vars(mix) and "weights" not in vars(mix)
        assert mix.unitaries is mix.unitaries and mix.weights is mix.weights
        n = mix.num_terms
        for k, u in enumerate(mix.unitaries):
            d_k = np.exp(2j * np.pi / n * (k * mix.pos % n))
            np.testing.assert_allclose(u, mix.f @ np.diag(d_k) @ mix.e.conj().T, atol=1e-14)
        for attr in ("f", "e", "pos", "weights", "unitaries"):
            with pytest.raises(AttributeError):
                setattr(mix, attr, None)
        for arr in (mix.f, mix.e, mix.pos, mix.weights):
            assert not arr.flags.writeable

    def test_apply_checks_the_dimension(self):
        _, rho1, rho2 = PAIRS[2]
        with pytest.raises(DimensionMismatch):
            uhlmann_frame(rho1, rho2).apply(random_density(4, np.random.default_rng(0)))


class TestSpectralPreamble:
    def test_uhlmann_constructions_decompose_each_state_once(self, monkeypatch):
        rng = np.random.default_rng(47)
        a, b = random_majorized_pair(5, rng)
        rho1 = random_density(5, rng, spec=a)
        rho2 = random_density(5, rng, spec=b)
        calls = collections.Counter()
        eigh, eigvalsh = np.linalg.eigh, np.linalg.eigvalsh
        chain = xfer.find_transfer_chain
        monkeypatch.setattr(np.linalg, "eigh", lambda m: calls.update(["eigh"]) or eigh(m))
        monkeypatch.setattr(np.linalg, "eigvalsh",
                            lambda m: calls.update(["eigvalsh"]) or eigvalsh(m))

        def counted_chain(*args):
            calls["chain"] += 1
            return chain(*args)

        # both names, so a second chain built through schur_horn_orthogonal is counted too
        monkeypatch.setattr(xfer, "find_transfer_chain", counted_chain)
        monkeypatch.setattr(qchan, "find_transfer_chain", counted_chain)
        for construct in (uhlmann_frame, uhlmann_channel, mixed_unitary_uhlmann):
            calls.clear()
            construct(rho1, rho2)
            assert calls == {"chain": 1}


def test_entropy_probe_needs_a_trial():
    with pytest.raises(ValueError):
        entropy_probe(dephasing_channel(), 0, np.random.default_rng(0))


def per_trial_probe(phi, trials, rng):
    """The probe one validated state at a time, each replayed by probe_state from the base
    seed the generator draws: (max deviation, worst trial, deviations)."""
    base_seed = int(rng.integers(0, 2**63 - 1))
    devs = []
    for trial in range(trials):
        rho = probe_state(phi.d_in, base_seed, trial)
        devs.append(abs(von_neumann_entropy(apply_channel(phi, rho)) - von_neumann_entropy(rho)))
    worst = int(np.argmax(devs))
    return devs[worst], worst, devs


class TestBatchedProbeMatchesPerTrial:
    """entropy_probe against the per-trial oracle on the same states."""

    @pytest.mark.parametrize("make", [
        dephasing_channel,
        *[lambda d=d: depolarizing_channel(d, 0.6) for d in range(2, 9)],
        lambda: pinching_channel(haar_unitary(4, np.random.default_rng(61))),
    ], ids=["dephasing", *[f"depolarizing-d{d}" for d in range(2, 9)], "pinching-d4"])
    def test_same_worst_trial_where_the_deviation_is_signal(self, make):
        phi = make()
        result = entropy_probe(phi, 200, np.random.default_rng(62))
        dev, trial, _ = per_trial_probe(phi, 200, np.random.default_rng(62))
        assert result.worst_trial == trial
        assert abs(result.max_deviation - dev) <= 1e-14
        assert result.trials == 200

    @pytest.mark.parametrize("d_in,d_out,terms", [(2, 2, 1), (4, 9, 3), (3, 7, 1), (8, 12, 5)])
    def test_isometric_positives_agree_within_rounding(self, d_in, d_out, terms):
        phi, _ = random_isometric_conjugation_channel(d_in, d_out, np.random.default_rng(63),
                                                      terms)
        result = entropy_probe(phi, 100, np.random.default_rng(64))
        dev, _, _ = per_trial_probe(phi, 100, np.random.default_rng(64))
        assert result.max_deviation <= 1e-13
        assert abs(result.max_deviation - dev) <= 1e-14

    def test_one_dimensional_input(self):
        identity = KrausChannel(np.eye(1, dtype=complex)[None])
        result = entropy_probe(identity, 7, np.random.default_rng(66))
        dev, _, _ = per_trial_probe(identity, 7, np.random.default_rng(66))
        assert dev == 0.0  # each state alone: one eigh of the same matrix on both sides
        # the probe takes the input entropy from the drawn spectrum [1.0], the output's from
        # the eigh of V V^*, whose one entry |v|^2 is 1 to rounding
        assert abs(result.max_deviation - dev) <= 1e-14
        assert result.worst_trial is None  # no deviation above the noise floor
        phi, _ = random_isometric_conjugation_channel(1, 3, np.random.default_rng(65), 2)
        result = entropy_probe(phi, 7, np.random.default_rng(66))
        dev, _, _ = per_trial_probe(phi, 7, np.random.default_rng(66))
        assert result.max_deviation <= 1e-13
        assert abs(result.max_deviation - dev) <= 1e-14

    def test_single_trial(self):
        result = entropy_probe(dephasing_channel(), 1, np.random.default_rng(67))
        dev, trial, _ = per_trial_probe(dephasing_channel(), 1, np.random.default_rng(67))
        assert (result.worst_trial, result.trials) == (trial, 1) == (0, 1)
        assert abs(result.max_deviation - dev) <= 1e-14

    @staticmethod
    def _one_past_a_chunk(monkeypatch, phi, chunk):
        calls = []
        spectra = qchan.spectra
        monkeypatch.setattr(qchan, "spectra", lambda x: calls.append(len(x)) or spectra(x))
        result = entropy_probe(phi, chunk + 1, np.random.default_rng(68))
        assert calls == [chunk, 1]  # the outputs of two chunks
        dev, trial, _ = per_trial_probe(phi, chunk + 1, np.random.default_rng(68))
        assert result.worst_trial == trial
        assert abs(result.max_deviation - dev) <= 1e-14

    def test_trials_one_past_a_chunk_boundary(self, monkeypatch):
        rng = np.random.default_rng(67)
        phi = mixed_unitary_channel(np.full(8, 1 / 8), [haar_unitary(8, rng) for _ in range(8)])
        assert not qchan._via_superoperator(phi.kraus)  # k = 8 < d_out d_in = 64
        self._one_past_a_chunk(monkeypatch, phi, PROBE_CHUNK_ENTRIES // phi.kraus.size)

    def test_trials_one_past_a_superoperator_chunk_boundary(self, monkeypatch):
        phi = depolarizing_channel(8, 0.9)  # k = 64 = d_out d_in
        assert qchan._via_superoperator(phi.kraus)
        monkeypatch.setattr(qchan, "PROBE_CHUNK_ENTRIES", 4 * phi.d_out**2)
        self._one_past_a_chunk(monkeypatch, phi, 4)

    def test_chunks_bound_a_wide_output_stack(self, monkeypatch):
        phi, _ = random_isometric_conjugation_channel(2, 40, np.random.default_rng(73), 1)
        assert phi.kraus.size < phi.d_out**2  # the output stack is the larger one
        sizes = []
        spectra = qchan.spectra
        monkeypatch.setattr(qchan, "spectra", lambda x: sizes.append(x.size) or spectra(x))
        result = entropy_probe(phi, 25, np.random.default_rng(74))
        assert len(sizes) > 2 and max(sizes) <= PROBE_CHUNK_ENTRIES
        dev, _, _ = per_trial_probe(phi, 25, np.random.default_rng(74))
        assert abs(result.max_deviation - dev) <= 1e-14

    def test_worst_trial_replays_the_worst_state(self):
        phi = pinching_channel(haar_unitary(3, np.random.default_rng(69)))
        result = entropy_probe(phi, 50, np.random.default_rng(70))
        rho = probe_state(phi.d_in, result.base_seed, result.worst_trial)
        replay = abs(von_neumann_entropy(apply_channel(phi, rho)) - von_neumann_entropy(rho))
        assert abs(replay - result.max_deviation) <= 1e-14

    @pytest.mark.parametrize("make,trials,shape", [
        (lambda: random_isometric_conjugation_channel(3, 7, np.random.default_rng(71), 1)[0],
         40, (40, 7, 7)),
        (lambda: depolarizing_channel(8, 0.6), 25, (25, 8, 8)),  # 7 chunks on the Kraus route
    ], ids=["isometric-d7", "depolarizing-d8"])
    def test_eigensolver_runs_once_per_chunk(self, monkeypatch, make, trials, shape):
        phi = make()
        calls = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda m: calls.append(m.shape) or eigh(m))
        monkeypatch.setattr(np.linalg, "eigvalsh", None)  # the probe needs no second solver
        entropy_probe(phi, trials, np.random.default_rng(72))
        assert calls == [shape]  # the outputs; each input is proved by its draws

    def test_superoperator_route_memory(self):
        """The peak of each sandwich of a 256-trial probe stays within the Kraus stack (its
        conjugate), S and the chunk's outputs; the Kraus route would have made a
        (256, 64, 8, 8) temporary of 16 MiB."""
        phi = depolarizing_channel(8, 0.6)
        peaks = []
        sandwich = qchan._sandwich

        def traced(stack, x):
            start = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            out = sandwich(stack, x)
            peaks.append(tracemalloc.get_traced_memory()[1] - start)
            return out

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(qchan, "_sandwich", traced)
            tracemalloc.start()
            try:
                entropy_probe(phi, PROBE_BLOCK, np.random.default_rng(75))
            finally:
                tracemalloc.stop()
        s_bytes = phi.d_out**2 * phi.d_in**2 * 16
        assert s_bytes <= phi.kraus.nbytes
        assert len(peaks) == 1
        assert peaks[0] <= phi.kraus.nbytes + s_bytes + PROBE_BLOCK * phi.d_out**2 * 16


class TestProbeReplayContract:
    """Trial i of a probe is drawn from default_rng([base_seed, i // PROBE_BLOCK]): the
    block's PROBE_BLOCK flat simplex spectra, then one Gaussian pair per trial."""

    TRIALS = 2 * PROBE_BLOCK + 3

    def test_probe_state_replays_each_input_bit_for_bit(self, monkeypatch):
        inputs = []  # the input stacks, read off the Kraus sandwich
        sandwich = qchan._sandwich
        monkeypatch.setattr(qchan, "_sandwich", lambda k, x: inputs.append(x) or sandwich(k, x))
        result = entropy_probe(depolarizing_channel(3, 0.6), self.TRIALS,
                               np.random.default_rng(80))
        inputs = np.concatenate(inputs)
        assert len(inputs) == self.TRIALS
        for trial in (0, PROBE_BLOCK - 1, PROBE_BLOCK, self.TRIALS - 1):
            np.testing.assert_array_equal(probe_state(3, result.base_seed, trial).matrix,
                                          inputs[trial])

    def test_the_stream_is_the_documented_one(self):
        d, base_seed = 3, 12345
        for trial in (0, 7, PROBE_BLOCK + 1):
            rng = np.random.default_rng([base_seed, trial // PROBE_BLOCK])
            x = rng.standard_exponential((PROBE_BLOCK, d))[trial % PROBE_BLOCK]
            vals = np.sort(x / x.sum())[::-1]
            re, im = rng.standard_normal((trial % PROBE_BLOCK + 1, 2, d, d))[-1]
            q, r = np.linalg.qr((re + 1j * im) / np.sqrt(2))
            v = q * (np.diag(r) / np.abs(np.diag(r)))
            rho = probe_state(d, base_seed, trial)
            np.testing.assert_allclose(rho.matrix, (v * vals) @ v.conj().T, atol=1e-15)
            np.testing.assert_allclose(rho.spectrum.entries, vals, atol=1e-15)

    @pytest.mark.parametrize("chunk", [1, 4, PROBE_BLOCK])
    @pytest.mark.parametrize("make,per_trial", [
        (lambda: pinching_channel(haar_unitary(3, np.random.default_rng(81))),
         lambda phi: phi.kraus.size),
        (lambda: depolarizing_channel(3, 0.6), lambda phi: phi.d_out**2),
        (lambda: depolarizing_channel(8, 0.6), lambda phi: phi.d_out**2),
    ], ids=["pinching-d3", "depolarizing-d3", "depolarizing-d8"])
    def test_deviations_do_not_depend_on_the_chunk(self, monkeypatch, make, per_trial, chunk):
        phi = make()
        whole = qchan._probe_deviations(phi, self.TRIALS, 82)
        monkeypatch.setattr(qchan, "PROBE_CHUNK_ENTRIES", chunk * per_trial(phi))
        sizes = []
        spectra = qchan.spectra
        monkeypatch.setattr(qchan, "spectra", lambda x: sizes.append(len(x)) or spectra(x))
        np.testing.assert_array_equal(qchan._probe_deviations(phi, self.TRIALS, 82), whole)
        assert max(sizes) == chunk

    @pytest.mark.parametrize("d,trial", [(0, 0), (3, -1)])
    def test_probe_state_needs_a_dimension_and_a_trial(self, d, trial):
        with pytest.raises(ValueError, match="need d >= 1 and trial >= 0"):
            probe_state(d, 1, trial)

    def test_one_generator_per_block(self, monkeypatch):
        rng = np.random.default_rng(83)
        built = []
        default_rng = np.random.default_rng
        monkeypatch.setattr(np.random, "default_rng", lambda s: built.append(s) or default_rng(s))
        result = entropy_probe(dephasing_channel(), self.TRIALS, rng)
        assert len(built) <= -(-self.TRIALS // PROBE_BLOCK)
        assert built == [[result.base_seed, block] for block in range(3)]

    def test_a_noise_level_deviation_names_no_trial(self):
        phi, _ = random_isometric_conjugation_channel(3, 5, np.random.default_rng(84), 2)
        result = entropy_probe(phi, 30, np.random.default_rng(85))
        assert 0.0 < result.max_deviation <= qchan.PROBE_NOISE_FLOOR
        assert result.worst_trial is None


class TestRandomChannelsKeepTheDirichletStream:
    """The random channels draw their weights with rng.dirichlet(np.ones(k)), the draws
    they were built with, so `gen channel` and the detector corpus keep their bytes."""

    @pytest.mark.parametrize("seed", range(5))
    def test_isometric_conjugation(self, seed):
        phi, v = random_isometric_conjugation_channel(2, 3, np.random.default_rng(seed), 4)
        rng = np.random.default_rng(seed)
        np.testing.assert_array_equal(v, random_isometry(2, 3, rng))
        w = rng.dirichlet(np.ones(4))
        phases = np.exp(2j * np.pi * rng.random(4))
        np.testing.assert_array_equal(phi.kraus, (np.sqrt(w) * phases)[:, None, None] * v)

    @pytest.mark.parametrize("seed", range(5))
    def test_mixed_unitary_and_composition(self, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(2, 5))
        w = rng.dirichlet(np.ones(m))
        expected = mixed_unitary_channel(w, [haar_unitary(3, rng) for _ in range(m)])
        ours = random_bistochastic_channel(3, np.random.default_rng(seed), kind="mixed_unitary")
        np.testing.assert_array_equal(ours.kraus, expected.kraus)
        rng = np.random.default_rng(seed)
        w = rng.dirichlet(np.ones(2))
        mixed = mixed_unitary_channel(w, [haar_unitary(3, rng) for _ in range(2)])
        expected = compose_channels(pinching_channel(haar_unitary(3, rng)), mixed)
        ours = random_bistochastic_channel(3, np.random.default_rng(seed), kind="composition")
        np.testing.assert_array_equal(ours.kraus, expected.kraus)

    @pytest.mark.parametrize("seed", range(5))
    def test_corpus_mixed_unitary_negative(self, seed):
        _, negatives = qchan.detector_corpus(np.random.default_rng(seed), 0, 3)
        rng = np.random.default_rng(seed)
        haar_unitary(int(rng.integers(2, 9)), rng)  # the pinching's basis
        rng.integers(2, 9), rng.uniform(0.2, 1.0)  # the depolarizing channel's d and p
        d, m = int(rng.integers(2, 9)), int(rng.integers(2, 4))
        w = rng.dirichlet(np.ones(m)) * 0.8 + 0.2 / m
        expected = mixed_unitary_channel(w, [haar_unitary(d, rng) for _ in range(m)])
        np.testing.assert_array_equal(negatives[2].kraus, expected.kraus)
