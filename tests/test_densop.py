import collections
import math

import numpy as np
import pytest

from entmaj import densop
from entmaj.densop import (
    DensityMatrix,
    _haar,
    _haar_states,
    _with_spectra,
    eig_hermitian,
    haar_unitary,
    isometry_defect,
    pure_state,
    random_density,
    spectra,
    spectrum,
    state_majorized,
    trace_distance,
    von_neumann_entropy,
)
from entmaj.errors import DimensionMismatch, InvalidValue, NotHermitian
from entmaj.qchan import uhlmann_frame
from entmaj.seqmaj import NORMALIZED_TOL, ProbVector, _row_entropies, shannon_entropy


def two_level_entropy(lam):
    h = 0.0
    for x in (lam, 1 - lam):
        if x > 0:
            h -= x * np.log2(x)
    return h


class TestDensityMatrixType:
    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitian):
            DensityMatrix(np.array([[0.5, 0.3], [0.0, 0.5]]))

    def test_rejects_bad_trace(self):
        with pytest.raises(ValueError):
            DensityMatrix(np.eye(2))

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(ValueError):
            DensityMatrix(np.diag([1.2, -0.2]).astype(complex))

    def test_matrix_is_the_hermitian_part_it_decomposes(self):
        rng = np.random.default_rng(5)
        rho = random_density(5, rng).matrix
        m = rho + 3e-11 * (rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5)))
        assert 1e-11 < np.abs(m - m.conj().T).max() < densop.HERMITIAN_TOL
        state = DensityMatrix(m)
        np.testing.assert_array_equal(state.matrix, (m + m.conj().T) / 2)
        np.testing.assert_array_equal(state.matrix, state.matrix.conj().T)
        recon = (state.eigenvectors * state.spectrum.entries) @ state.eigenvectors.conj().T
        np.testing.assert_allclose(recon, state.matrix, atol=1e-14)


def _at_bound_state(seed):
    """A seeded state at d 2..8 whose eigenvalues, before rounding, sum to 1 + NORMALIZED_TOL."""
    rng = np.random.default_rng(seed)
    d = int(rng.integers(2, 9))
    u = haar_unitary(d, rng)
    m = (u * (rng.dirichlet(np.ones(d)) * (1 + NORMALIZED_TOL))) @ u.conj().T
    return (m + m.conj().T) / 2


class TestOneUnitSumCheck:
    """A state DensityMatrix accepts is never refused later by its spectrum's checks."""

    def test_edge_state_is_refused_at_construction(self):
        # trace 1 + 0.95e-9 is within 1e-9, but the clamped spectrum sums to 1 + 1.9e-9
        edge = np.diag([0.5 + 1.9e-9, 0.5, -0.95e-9]).astype(complex)
        with pytest.raises(InvalidValue, match="spectrum sums to"):
            DensityMatrix(edge)
        with pytest.raises(InvalidValue, match="spectrum sums to"):
            spectra(edge[None])

    @pytest.mark.parametrize("diag", [[2.0, 0.0], [1.0 + 1e-6, 0.0], [5.0, 0.0, 0.0]])
    def test_eigenvalue_above_one_is_refused(self, diag):
        # clamped to [0, 1] these spectra sum to 1; clamped at zero only, they do not
        m = np.diag(diag).astype(complex)
        with pytest.raises(InvalidValue, match="spectrum sums to"):
            DensityMatrix(m)
        with pytest.raises(InvalidValue, match="spectrum sums to"):
            spectra(m[None])

    def test_hermitian_within_tolerance_is_checked_on_its_hermitian_part(self):
        # the lower triangle of the block has eigenvalues 0.3e-9 twice (sum 1 + 0.9e-9);
        # its Hermitian part, which `spectrum` decomposes, has 0.795e-9 and -0.195e-9
        m = np.zeros((4, 4), dtype=complex)
        m[0, 0] = m[1, 1] = 0.5 + 0.15e-9
        m[2:, 2:] = [[0.3e-9, 0.99e-9], [0.0, 0.3e-9]]
        with pytest.raises(InvalidValue, match="spectrum sums to 1.0000000010"):
            DensityMatrix(m)

    def test_no_state_at_the_bound_is_accepted_then_refused(self):
        accepted = 0
        for s in range(2000):
            try:
                rho = DensityMatrix(_at_bound_state(s))
            except InvalidValue:
                continue
            accepted += 1
            spectrum(rho)
            von_neumann_entropy(rho)
            uhlmann_frame(DensityMatrix(np.eye(rho.d) / rho.d), rho)
        assert 0 < accepted < 2000

    def test_every_accepted_state_passes_its_spectrum_checks(self):
        rng = np.random.default_rng(17)
        accepted = 0
        for _ in range(2000):
            u = haar_unitary(3, rng)
            m = (u * (np.array([0.5, 0.5, 0.0]) + rng.uniform(-2e-9, 2e-9, 3))) @ u.conj().T
            try:
                rho = DensityMatrix((m + m.conj().T) / 2)
            except InvalidValue:
                continue
            accepted += 1
            von_neumann_entropy(rho)
            ProbVector(spectra(rho.matrix[None])[0], normalized=True)
        assert 0 < accepted < 2000


class TestEigHermitian:
    def test_diagonal_input(self):
        vals, vecs = eig_hermitian(np.diag([0.7, 0.3]).astype(complex))
        np.testing.assert_allclose(vals, [0.7, 0.3])
        np.testing.assert_allclose(np.abs(vecs), np.eye(2), atol=1e-12)

    def test_rank_one_projector(self):
        vals, _ = eig_hermitian(np.full((2, 2), 0.5, dtype=complex))
        np.testing.assert_allclose(vals, [1.0, 0.0], atol=1e-12)

    def test_reconstruction_random(self):
        rng = np.random.default_rng(0)
        z = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
        h = (z + z.conj().T) / 2
        lam, v = eig_hermitian(h)
        assert np.abs((v * lam) @ v.conj().T - h).max() <= 1e-8
        assert np.all(np.diff(lam) <= 1e-12)

    def test_deterministic(self):
        rng = np.random.default_rng(1)
        z = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        h = (z + z.conj().T) / 2
        d1 = eig_hermitian(h)
        d2 = eig_hermitian(h)
        np.testing.assert_array_equal(d1[0], d2[0])
        np.testing.assert_array_equal(d1[1], d2[1])

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitian):
            eig_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestSpectrum:
    def test_pure_state(self):
        rho = pure_state(np.array([1.0, 0.0, 0.0]))
        np.testing.assert_allclose(spectrum(rho).entries, [1.0, 0.0, 0.0], atol=1e-12)

    def test_maximally_mixed(self):
        rho = DensityMatrix(np.eye(4, dtype=complex) / 4)
        np.testing.assert_allclose(spectrum(rho).entries, np.full(4, 0.25), atol=1e-12)

    def test_diagonal(self):
        rho = DensityMatrix(np.diag([0.25, 0.75]).astype(complex))
        np.testing.assert_allclose(spectrum(rho).entries, [0.75, 0.25], atol=1e-12)


    def test_is_the_clamped_eig_hermitian_spectrum_bit_for_bit(self):
        rho = random_density(6, np.random.default_rng(41))
        vals, vecs = eig_hermitian(rho.matrix)
        np.testing.assert_array_equal(spectrum(rho).entries, np.clip(vals, 0.0, 1.0))
        np.testing.assert_array_equal(rho.eigenvectors, vecs)


class TestOneDecompositionPerState:
    """A state is decomposed by one `eigh` at construction; what reads it solves nothing."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = collections.Counter()
        for name in ("eigh", "eigvalsh"):
            solver = getattr(np.linalg, name)
            monkeypatch.setattr(np.linalg, name,
                                lambda m, name=name, solver=solver: calls.update([name]) or solver(m))
        return calls

    def test_construction_is_one_eigh(self, calls):
        DensityMatrix(np.diag([0.75, 0.25]).astype(complex))
        assert calls == {"eigh": 1}

    def test_readers_of_a_state_make_no_solver_call(self, calls):
        rng = np.random.default_rng(45)
        rho1, rho2 = random_density(4, rng), random_density(4, rng)
        calls.clear()
        spectrum(rho1)
        von_neumann_entropy(rho1)
        state_majorized(rho1, rho2)
        assert calls == {}


class TestIsometryDefect:
    def test_isometry_and_scaled_matrix(self):
        v = haar_unitary(5, np.random.default_rng(42))[:, :3]
        assert isometry_defect(v) <= 1e-12
        assert isometry_defect(2 * v) == pytest.approx(3.0)

    def test_stack_gives_one_defect_per_matrix(self):
        rng = np.random.default_rng(43)
        stack = np.array([haar_unitary(4, rng), 0.5 * haar_unitary(4, rng)])
        dev = isometry_defect(stack)
        assert dev.shape == (2,)
        assert dev[0] <= 1e-12
        assert dev[1] == pytest.approx(0.75)

    def test_nan_entry_gives_nan(self):
        m = np.eye(2)
        m[0, 1] = np.nan
        assert not isometry_defect(m) <= 1.0


class TestVonNeumannEntropy:
    def test_pure_state_zero(self):
        rng = np.random.default_rng(2)
        v = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        v /= np.linalg.norm(v)
        assert abs(von_neumann_entropy(pure_state(v))) <= 1e-9

    @pytest.mark.parametrize("d", [1, 2, 5])
    def test_diagonal_pure_state_is_positive_zero(self, d):
        rho = DensityMatrix(np.diag(np.eye(d)[0]).astype(complex))
        assert math.copysign(1.0, von_neumann_entropy(rho)) == 1.0

    @pytest.mark.parametrize("n", [2, 3, 16])
    def test_maximally_mixed_is_log_n(self, n):
        rho = DensityMatrix(np.eye(n, dtype=complex) / n)
        assert von_neumann_entropy(rho) == pytest.approx(np.log2(n), abs=1e-9)

    def test_diagonal_example(self):
        rho = DensityMatrix(np.diag([0.75, 0.25]).astype(complex))
        assert von_neumann_entropy(rho) == pytest.approx(0.8112781244591328, abs=1e-12)

    def test_equals_shannon_of_spectrum(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            rho = random_density(6, rng)
            assert von_neumann_entropy(rho) == pytest.approx(
                shannon_entropy(spectrum(rho)), abs=1e-9)

    def test_entropy_range(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            d = int(rng.integers(2, 9))
            s = von_neumann_entropy(random_density(d, rng))
            assert -1e-12 <= s <= np.log2(d) + 1e-9


class TestStateMajorized:
    def test_maximally_mixed_is_bottom(self):
        rng = np.random.default_rng(5)
        rho2 = random_density(4, rng)
        rho1 = DensityMatrix(np.eye(4, dtype=complex) / 4)
        assert state_majorized(rho1, rho2).holds

    def test_pure_tops_mixed(self):
        rng = np.random.default_rng(6)
        mixed = random_density(3, rng, spec=[0.5, 0.3, 0.2])
        pure = pure_state(np.array([0.0, 1.0, 0.0]))
        assert not state_majorized(pure, mixed).holds
        assert state_majorized(mixed, pure).holds


class TestTraceDistance:
    def test_self_distance_zero(self):
        rng = np.random.default_rng(7)
        rho = random_density(4, rng)
        assert trace_distance(rho, rho) == 0.0

    def test_orthogonal_pure_states(self):
        r1 = pure_state(np.array([1.0, 0.0]))
        r2 = pure_state(np.array([0.0, 1.0]))
        assert trace_distance(r1, r2) == pytest.approx(2.0, abs=1e-12)

    def test_pure_vs_mixed_diagonal(self):
        r1 = DensityMatrix(np.diag([1.0, 0.0]).astype(complex))
        r2 = DensityMatrix(np.diag([0.5, 0.5]).astype(complex))
        assert trace_distance(r1, r2) == pytest.approx(1.0, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            trace_distance(DensityMatrix(np.eye(2, dtype=complex) / 2),
                           DensityMatrix(np.eye(3, dtype=complex) / 3))

    def test_metric_on_sampled_triples(self):
        rng = np.random.default_rng(8)
        for _ in range(15):
            r1, r2, r3 = (random_density(4, rng) for _ in range(3))
            d12 = trace_distance(r1, r2)
            d21 = trace_distance(r2, r1)
            assert d12 >= 0
            assert d12 == pytest.approx(d21, abs=1e-12)
            assert d12 <= trace_distance(r1, r3) + trace_distance(r3, r2) + 1e-9


class TestPureState:
    def test_standard_basis(self):
        rho = pure_state(np.array([1.0, 0.0, 0.0]))
        np.testing.assert_allclose(rho.matrix, np.diag([1.0, 0.0, 0.0]), atol=1e-12)

    def test_plus_state(self):
        rho = pure_state(np.array([1.0, 1.0]) / np.sqrt(2))
        np.testing.assert_allclose(rho.matrix, np.full((2, 2), 0.5), atol=1e-12)

    def test_idempotent(self):
        rng = np.random.default_rng(13)
        v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        v /= np.linalg.norm(v)
        rho = pure_state(v)
        assert np.abs(rho.matrix @ rho.matrix - rho.matrix).max() <= 1e-9

    @pytest.mark.parametrize("x,message", [
        ([1.0, 1.0], "spectrum sums to 2.0"), ([0.0, 0.0], "spectrum sums to 0.0"),
        ([1e200, 0.0], "finite"), ([1e200 + 1e200j, 0.0], "finite"), ([np.nan, 0.0], "finite"),
        ([np.inf, 0.0], "finite"), ([], "non-empty")])
    def test_rejects_non_unit(self, x, message):
        # the state's own checks, without a numpy warning on an outer product that overflows
        # or multiplies inf by 0
        with pytest.raises(InvalidValue, match=message):
            pure_state(np.array(x))


class TestRandomDensity:
    def test_requested_spectrum(self):
        rng = np.random.default_rng(14)
        rho = random_density(5, rng, spec=[0.4, 0.3, 0.2, 0.1])
        np.testing.assert_allclose(spectrum(rho).entries,
                                   [0.4, 0.3, 0.2, 0.1, 0.0], atol=1e-8)

    def test_flat_spectrum_is_maximally_mixed(self):
        rng = np.random.default_rng(15)
        rho = random_density(4, rng, spec=np.full(4, 0.25))
        np.testing.assert_allclose(rho.matrix, np.eye(4) / 4, atol=1e-12)

    def test_determinism(self):
        r1 = random_density(4, np.random.default_rng(77))
        r2 = random_density(4, np.random.default_rng(77))
        np.testing.assert_array_equal(r1.matrix, r2.matrix)

    def test_rejects_invalid_spectrum(self):
        rng = np.random.default_rng(16)
        with pytest.raises(ValueError):
            random_density(3, rng, spec=[0.9, 0.3])
        with pytest.raises(ValueError):
            random_density(2, rng, spec=[0.5, 0.3, 0.2])


class TestPureMixtureOverlap:
    """Entropy of an even two-state mixture determines orthogonality."""

    @pytest.mark.parametrize("alpha", [k / 10 for k in range(10)])
    def test_eigenvalues_solve_quadratic(self, alpha):
        x = np.array([1.0, 0.0])
        y = np.array([alpha, np.sqrt(1 - alpha**2)])
        mix = DensityMatrix((np.outer(x, x) + np.outer(y, y)).astype(complex) / 2)
        lam = spectrum(mix).entries
        np.testing.assert_allclose(lam, [(1 + alpha) / 2, (1 - alpha) / 2], atol=1e-9)
        s = von_neumann_entropy(mix)
        assert s == pytest.approx(two_level_entropy((1 + alpha) / 2), abs=1e-9)
        if alpha <= 1e-5:
            assert abs(s - 1.0) <= 1e-9
        else:
            assert abs(s - 1.0) > 1e-9


def _single_state_error(m):
    """The exception DensityMatrix raises for one matrix alone."""
    try:
        DensityMatrix(m)
    except Exception as exc:  # noqa: BLE001 - the type is what is compared
        return type(exc)
    return None


class TestStackedStateCheck:
    """spectra checks every state of a stack as DensityMatrix checks one."""

    def stack(self):
        """The states random_density draws from seeds 80-83, built as one stack."""
        vals, gauss = [], []
        for s in [80, 81, 82, 83]:
            rng = np.random.default_rng(s)
            vals.append(rng.dirichlet(np.ones(3)))
            gauss.append(rng.standard_normal((2, 3, 3)))  # haar_unitary's two blocks
        gauss = np.array(gauss)
        return _with_spectra(np.array(vals), _haar(gauss[:, 0], gauss[:, 1]))

    def test_valid_stack_matches_per_state_spectra(self):
        rows = spectra(self.stack())
        for s, row in zip([80, 81, 82, 83], rows):
            expected = spectrum(random_density(3, np.random.default_rng(s))).entries
            np.testing.assert_allclose(row, expected, atol=1e-15)
        assert np.all(np.diff(rows, axis=1) <= 0)

    def test_stack_holds_random_density_states(self):
        for s, m in zip([80, 81, 82, 83], self.stack()):
            np.testing.assert_array_equal(m, random_density(3, np.random.default_rng(s)).matrix)

    def test_spectra_are_clamped_as_spectrum_clamps(self):
        states = self.stack()
        states[3] = np.diag([0.5 + 1e-10, 0.5, -1e-10])  # above EIG_FLOOR, below -CLAMP_TOL
        rows = spectra(states)
        np.testing.assert_array_equal(rows[3], spectrum(DensityMatrix(states[3])).entries)
        assert rows.min() == 0.0
        assert _row_entropies(rows)[3] == pytest.approx(1.0)

    @pytest.mark.parametrize("fault", [
        np.diag([0.6, 0.3, 0.2]),  # trace 1.1
        np.diag([0.6, 0.400001, -1e-6]),  # an eigenvalue of -1e-6
        np.array([[0.5, 0.1, 0.0], [0.0, 0.3, 0.0], [0.0, 0.0, 0.2]]),  # not Hermitian
        np.diag([np.nan, 0.5, 0.5]),  # a NaN entry
    ], ids=["trace", "negative-eigenvalue", "non-hermitian", "nan"])
    def test_one_faulty_state_is_refused_as_it_is_alone(self, fault):
        expected = _single_state_error(fault.astype(complex))
        assert expected in (InvalidValue, NotHermitian)
        states = self.stack()
        states[2] = fault
        with pytest.raises(Exception) as err:
            spectra(states)
        assert type(err.value) is expected

    def test_non_hermitian_state_is_named(self):
        states = self.stack()
        states[1, 0, 2] += 1e-3
        with pytest.raises(NotHermitian, match="of state 1"):
            spectra(states)

    def test_failed_reconstruction_is_refused(self, monkeypatch):
        eigh = np.linalg.eigh

        def skewed(m):
            vals, vecs = eigh(m)
            return vals, vecs * 1.001

        monkeypatch.setattr(np.linalg, "eigh", skewed)
        with pytest.raises(InvalidValue, match="failed to reconstruct"):
            spectra(self.stack())
        with pytest.raises(InvalidValue, match="failed to reconstruct"):
            DensityMatrix(self.stack()[0])
        with pytest.raises(InvalidValue, match="failed to reconstruct"):
            eig_hermitian(self.stack()[0])

    @pytest.mark.parametrize("bad", [np.zeros((3, 3)), np.zeros((2, 3, 4)), np.zeros((0, 3, 3))],
                             ids=["one-matrix", "not-square", "empty"])
    def test_refuses_what_is_not_a_stack_of_square_matrices(self, bad):
        with pytest.raises(InvalidValue):
            spectra(bad)


class TestHaarStates:
    """_haar_states proves each state by its spectrum and its Haar factor, with the checks
    and exceptions that `spectra` uses, and needs no eigensolver."""

    def draw(self, n=5, d=4):
        rng = np.random.default_rng(90)
        x = rng.standard_exponential((n, d))
        return x / x.sum(axis=1, keepdims=True), rng.standard_normal((n, 2, d, d))

    def test_states_have_the_drawn_spectra(self, monkeypatch):
        vals, gauss = self.draw()
        monkeypatch.setattr(np.linalg, "eigh", None)
        states, lam = _haar_states(vals, gauss)
        monkeypatch.undo()
        np.testing.assert_array_equal(lam, vals)
        np.testing.assert_array_equal(states, _with_spectra(vals, _haar(gauss[:, 0], gauss[:, 1])))
        np.testing.assert_allclose(spectra(states), -np.sort(-vals), atol=1e-15)

    @pytest.mark.parametrize("row,message", [
        ([0.6, 0.3, 0.1, 0.1], "spectrum sums to 1.0999"),
        ([0.6, 0.399999, 1e-6, -1e-6], "negative eigenvalue"),
        ([np.nan, 0.5, 0.5, 0.0], "spectrum sums to nan"),
    ], ids=["trace", "negative", "nan"])
    def test_a_bad_spectrum_is_refused(self, row, message):
        vals, gauss = self.draw()
        vals[3] = row
        with pytest.raises(InvalidValue, match=message):
            _haar_states(vals, gauss)

    def test_a_factor_that_is_not_unitary_is_refused(self, monkeypatch):
        vals, gauss = self.draw()
        monkeypatch.setattr(densop, "_haar", lambda re, im: (re + 1j * im) / 2.0)
        with pytest.raises(InvalidValue, match="Haar factor deviates from unitary"):
            _haar_states(vals, gauss)


MAX = np.finfo(float).max


class TestNearMaximumEntries:
    """Finite entries near the float maximum overflow inside the checks; the overflow is
    refused as a value, without a numpy RuntimeWarning (which this suite turns into an
    error)."""

    @pytest.mark.parametrize("m", [np.array([[MAX]]), np.full((2, 2), 1.7e308),
                                   np.full((3, 1, 1), MAX), np.full((2, 2), 1.7e308 + 1.7e308j)],
                             ids=["one-entry", "real", "stack", "complex"])
    def test_isometry_defect_is_not_below_any_tolerance(self, m):
        defect = np.asarray(isometry_defect(m))
        assert not (defect <= 1.0).any()

    @pytest.mark.parametrize("m,error,message", [
        (np.full((2, 2), 1.7e308), InvalidValue, "spectrum sums to nan, not 1"),
        (np.diag([MAX, 0.0]), InvalidValue, "spectrum sums to nan, not 1"),
        (np.diag([1e300, 1e300]), InvalidValue, r"spectrum sums to 1\.9+8e\+300, not 1"),
        (np.full((2, 2), 1.7e308 + 1.7e308j), NotHermitian, "deviates by inf"),
    ], ids=["real", "one-entry", "large", "non-hermitian"])
    def test_state_is_refused(self, m, error, message):
        with pytest.raises(error, match=message):
            DensityMatrix(m)
        with pytest.raises(error, match=message):
            spectra(np.stack([np.eye(2) / 2, m]))


class TestFlatSpectrumDraw:
    """The flat-simplex draw of states is Generator.dirichlet(ones(d))."""

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 7, 8, 9, 12, 16, 33, 64])
    def test_bit_equal_to_dirichlet_and_same_next_draw(self, d):
        """The recorded `gen` outputs were drawn as d standard exponentials scaled by 1 over
        their sequential sum; dirichlet(ones(d)) must stay that draw, bit for bit and with the
        same next draw, or every seeded state, pair and channel moves."""
        ones = np.ones(d)
        for seed in range(500):
            ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
            x = ours.standard_exponential(d)
            np.testing.assert_array_equal(x * (1 / np.cumsum(x)[-1]), theirs.dirichlet(ones))
            assert ours.standard_normal() == theirs.standard_normal()

    @pytest.mark.parametrize("d", [1, 4, 9])
    def test_random_density_keeps_the_dirichlet_stream(self, d):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            vals = np.sort(rng.dirichlet(np.ones(d)))[::-1]
            u = haar_unitary(d, rng)
            expected = (u * vals) @ u.conj().T
            expected = (expected + expected.conj().T) / 2.0
            ours = np.random.default_rng(seed)
            np.testing.assert_array_equal(random_density(d, ours).matrix, expected)
            assert ours.standard_normal() == rng.standard_normal()
