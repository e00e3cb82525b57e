"""Quantum channels in Kraus form.

Covers the Kraus stack with its completeness and unitality defects, the
constructive channels used to realize majorization between states (pinching,
rank-one transfer, mixed-unitary transfer), the distance of phase averaging to
the pinching, and the detector that decides whether a channel is conjugation by
an isometry, which is exactly the entropy-preserving case.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np

from .densop import (
    UNITARY_TOL,
    DensityMatrix,
    _haar_states,
    _hermitian,
    _square,
    haar_unitary,
    isometry_defect,
    spectra,
)
from .errors import (
    DimensionMismatch,
    InvalidValue,
    MajorizationFailed,
    NotTracePreserving,
    NotUnitary,
    require,
)
from .seqmaj import CLAMP_TOL, MAJORIZATION_TOL, _row_entropies, convex_weights
from .xfer import _ints, chain_to_orthogonal, find_transfer_chain

COMPLETENESS_TOL = 1e-8  # channel completeness and unitality; unitarity of mixed-unitary terms
ISOMETRY_TOL = 1e-7  # default tolerance of the isometric-conjugation detector
FIXED_POINT_TOL = 1e-9  # default tolerance of fixed_point_commutant_check
# most complex entries in one chunk of an entropy_probe stack
PROBE_CHUNK_ENTRIES = 2**14
PROBE_BLOCK = 256  # entropy_probe trials drawn from one generator, default_rng([base_seed, block])
PROBE_NOISE_FLOOR = 1e-12  # a largest entropy deviation at or below this names no worst trial


@dataclass(frozen=True, eq=False)
class KrausChannel:
    """Kraus operators A_i held as one read-only, non-empty, finite (k, d_out, d_in) stack.

    Both defects, max |sum_i A_i^* A_i - I| and max |sum_i A_i A_i^* - I|, are computed
    once at construction and stored.  The channel is trace preserving (unital) when the
    first (second) is within COMPLETENESS_TOL; operations that need it trace preserving
    raise NotTracePreserving.
    """

    kraus: np.ndarray
    completeness_defect: float = field(init=False)
    unitality_defect: float = field(init=False)

    def __post_init__(self):
        try:
            stack = np.array(self.kraus, dtype=complex)
        except ValueError as exc:  # ragged: the operators differ in shape
            raise DimensionMismatch(str(exc)) from exc
        if not stack.size:
            raise InvalidValue("need at least one operator")
        if stack.ndim != 3:
            raise DimensionMismatch(f"operators stack to shape {stack.shape}, not (k, rows, cols)")
        if not np.isfinite(stack).all():
            raise InvalidValue("Kraus entries must be finite")
        stack.setflags(write=False)
        object.__setattr__(self, "kraus", stack)
        object.__setattr__(self, "completeness_defect", self.completeness_defect_of(stack))
        object.__setattr__(self, "unitality_defect", self.unitality_defect_of(stack))

    @staticmethod
    def completeness_defect_of(kraus: np.ndarray) -> float:
        """max |sum_i A_i^* A_i - I|: the stack read as one tall (k d_out, d_in) matrix."""
        return isometry_defect(kraus.reshape(-1, kraus.shape[2]))

    @staticmethod
    def unitality_defect_of(kraus: np.ndarray) -> float:
        """max |sum_i A_i A_i^* - I|: the stack read as one wide (d_out, k d_in) matrix."""
        wide = kraus.transpose(1, 0, 2).reshape(kraus.shape[1], -1)
        return isometry_defect(wide.conj().T)

    @property
    def num_kraus(self) -> int:
        return self.kraus.shape[0]

    @property
    def d_out(self) -> int:
        return self.kraus.shape[1]

    @property
    def d_in(self) -> int:
        return self.kraus.shape[2]

    @property
    def trace_preserving(self) -> bool:
        return self.completeness_defect <= COMPLETENESS_TOL

    @property
    def unital(self) -> bool:
        return self.unitality_defect <= COMPLETENESS_TOL


@dataclass(frozen=True, eq=False)
class IsometryReport:
    """Outcome of the isometric-conjugation test.

    On success `isometry` holds the recovered V (global phase fixed by making its first
    nonzero column entry real positive), `gram` the k x k Kraus Gram matrix
    tr(A_i^* A_j) / d_in and `isometry_defect` max |V^* V - I|, measured here, once; the
    arrays are refused unless finite and stored as read-only complex copies.  On failure
    all three are None and `failure_witness` is ((i, j), gap): i < j is the Kraus pair
    with the largest defect G_ii G_jj - |G_ij|^2 and gap the sum of all but the largest
    eigenvalue of G.  When the gap passes but V misses being an isometry, it is
    ((t, t), isometry defect of V) with t the heaviest entry of the top eigenvector.  The
    verdict is `isometry_defect <= tol`, false without V; `tol` is the detector's.
    """

    isometry: Optional[np.ndarray] = None
    gram: Optional[np.ndarray] = None
    failure_witness: Optional[tuple[tuple[int, int], float]] = None
    tol: float = ISOMETRY_TOL
    isometry_defect: Optional[float] = field(init=False)

    def __post_init__(self):
        for name in ("isometry", "gram"):
            if getattr(self, name) is not None:
                m = np.array(getattr(self, name), dtype=complex)
                if not np.isfinite(m).all():
                    raise InvalidValue(f"{name} entries must be finite")
                m.setflags(write=False)
                object.__setattr__(self, name, m)
        v = self.isometry
        object.__setattr__(self, "isometry_defect", None if v is None else isometry_defect(v))

    @property
    def is_isometric_conjugation(self) -> bool:
        return self.isometry_defect is not None and self.isometry_defect <= self.tol


@dataclass(frozen=True, eq=False)
class MixedUnitaryTransfer:
    """The Uhlmann frame of a state pair (see uhlmann_frame), read as the uniform mixture
    of the n = max(pos) + 1 unitaries U_k = F D^k E^*, D = diag(omega^pos) and
    omega = exp(2 pi i / n).

    F and E are unitary within `f_defect` and `e_defect`, measured here, once, and stored,
    not refused; pos numbers each coordinate by its position in its block, in 0..d-1, d the
    dimension that F, E and pos share.  `weights` and `unitaries` are built on first use
    and cached; `apply` needs neither.
    """

    f: np.ndarray
    e: np.ndarray
    pos: np.ndarray
    f_defect: float = field(init=False)
    e_defect: float = field(init=False)

    def __post_init__(self):
        for name in ("f", "e"):
            m = _square(getattr(self, name), complex)
            object.__setattr__(self, name, m)
            object.__setattr__(self, f"{name}_defect", isometry_defect(m))
        object.__setattr__(self, "pos", _ints(self.pos, "pos", 1))
        d = self.f.shape[0]
        if self.e.shape != self.f.shape or self.pos.shape != (d,):
            raise DimensionMismatch(f"f {self.f.shape}, e {self.e.shape} and pos "
                                    f"{self.pos.shape} differ in dimension")
        if not 0 <= self.pos.min() <= self.pos.max() < d:
            raise InvalidValue(f"pos must lie in 0..{d - 1}")

    @property
    def num_terms(self) -> int:
        return int(self.pos.max()) + 1

    @cached_property
    def weights(self) -> np.ndarray:
        w = np.full(self.num_terms, 1.0 / self.num_terms)
        w.setflags(write=False)
        return w

    @cached_property
    def unitaries(self) -> tuple[np.ndarray, ...]:
        n = self.num_terms
        phases = np.exp(2j * np.pi / n * (np.arange(n)[:, None] * self.pos % n))  # D^k per row
        e_star = self.e.conj().T
        us = tuple((self.f * p) @ e_star for p in phases)  # one d x d temporary at a time
        for u in us:
            u.setflags(write=False)
        return us

    def apply(self, rho: DensityMatrix, rank_one: bool = False) -> DensityMatrix:
        """F (M o mask) F^* with M = E^* rho E, as a validated state, in O(d^3).

        With mask_ij = [pos_i = pos_j] this is the mixture's output: averaging
        D^k M D^-k over k < n keeps exactly the entries of equal pos.  With rank_one
        the mask is I, and this is the output of uhlmann_channel's |f_i><e_i|.
        """
        d = self.f.shape[0]
        if rho.d != d:
            raise DimensionMismatch(f"state dimension {rho.d} != frame dimension {d}")
        m = self.e.conj().T @ rho.matrix @ self.e
        mask = np.eye(d, dtype=bool) if rank_one else self.pos[:, None] == self.pos
        return DensityMatrix(self.f @ (m * mask) @ self.f.conj().T)


@dataclass(frozen=True)
class PinchRow:
    n: int
    trace_distance: float
    bound: float


@dataclass(frozen=True)
class EntropyProbeResult:
    """`worst_trial` is the first trial of largest deviation, replayed by
    probe_state(d_in, base_seed, worst_trial), or None when that deviation is at or below
    PROBE_NOISE_FLOOR, where it is rounding noise."""

    max_deviation: float
    base_seed: int
    worst_trial: Optional[int]
    trials: int


@dataclass(frozen=True)
class FixedPointReport:
    """`defect` is max |phi(B) - B| and `max_commutator_norm` the largest entry of a
    commutator of B with a Kraus operator or its adjoint.  B is fixed when
    `defect <= tol`; `tol` is the check's."""

    defect: float
    max_commutator_norm: float
    tol: float = FIXED_POINT_TOL

    @property
    def is_fixed(self) -> bool:
        return self.defect <= self.tol


def _require_trace_preserving(phi: KrausChannel):
    require(phi.completeness_defect, COMPLETENESS_TOL, NotTracePreserving,
            "sum A*A deviates from I by {}", phi.completeness_defect)


def _via_superoperator(stack: np.ndarray) -> bool:
    """Whether _sandwich applies a stack of states through S = sum_i A_i (x) conj(A_i):
    a list of k >= d_out d_in operators, at least the Choi rank's bound, holds at least
    the (d_out d_in)^2 entries of S."""
    k, rows, cols = stack.shape
    return k >= rows * cols


def _sandwich(stack: np.ndarray, x: np.ndarray) -> np.ndarray:
    """sum_i A_i X A_i^* for one X or each X of an (n, cols, cols) stack.

    Kraus route: batched A_i X, then one GEMM per X with the A_i laid side by side; its
    per-X temporary is the (k, rows, cols) product.  A stack of states on a redundant
    list (_via_superoperator) instead builds S = sum_i A_i (x) conj(A_i), a
    (rows^2, cols^2) matrix no larger than the Kraus stack, with one GEMM, and applies it
    to each X as its own (1, cols^2) row, so the per-X temporary is the output and each
    X's bits do not depend on how many share the call (numpy's single-GEMM form takes a
    vector path for one row).  One X keeps the Kraus route: building S costs
    k (rows cols)^2 against the sandwich's k rows cols (rows + cols).  A stack of one X
    still builds S, a few microseconds at rows = cols = 8, not worth a second condition.
    """
    k, rows, cols = stack.shape
    if x.ndim == 3 and _via_superoperator(stack):
        m = stack.reshape(k, -1)
        s = (m.T @ m.conj()).reshape(rows, cols, rows, cols).transpose(0, 2, 1, 3)
        s = s.reshape(rows * rows, cols * cols)
        return (x.reshape(len(x), 1, -1) @ s.T).reshape(len(x), rows, rows)
    left = stack @ x[..., None, :, :]  # (..., k, rows, cols)
    left = np.swapaxes(left, -3, -2).reshape(*x.shape[:-2], rows, k * cols)
    wide = stack.transpose(1, 0, 2).reshape(rows, k * cols)
    return left @ wide.conj().T


def apply_channel(phi: KrausChannel, rho: DensityMatrix) -> DensityMatrix:
    """Evaluate sum_i A_i rho A_i^* as a validated state."""
    if rho.d != phi.d_in:
        raise DimensionMismatch(f"state dimension {rho.d} != channel input {phi.d_in}")
    _require_trace_preserving(phi)
    return DensityMatrix(_sandwich(phi.kraus, rho.matrix))


def choi_of_linear_map(fn, d_in: int, d_out: int) -> np.ndarray:
    """Choi matrix sum_ij e_ij (x) fn(e_ij), trace-normalized by d_in.

    Accepts any linear map given as a callable on d_in x d_in matrices, so
    non-Kraus maps (e.g. the transpose) can be probed for complete
    positivity: the map is completely positive exactly when this matrix is
    positive semidefinite.
    """
    units = np.eye(d_in * d_in, dtype=complex).reshape(d_in, d_in, d_in, d_in)  # [i, j] = e_ij
    blocks = np.array([[fn(e) for e in row] for row in units], dtype=complex)
    return blocks.transpose(0, 2, 1, 3).reshape(d_in * d_out, d_in * d_out) / d_in


def choi_matrix(phi: KrausChannel) -> np.ndarray:
    """Choi matrix of a Kraus channel (trace-normalized by d_in)."""
    # row i of cols is A_i with its columns stacked: sum_j e_j (x) A_i e_j
    cols = phi.kraus.transpose(0, 2, 1).reshape(phi.num_kraus, -1)
    return (cols.T @ cols.conj()) / phi.d_in


def mixed_unitary_channel(weights, unitaries) -> KrausChannel:
    """Bistochastic channel sum_i t_i U_i X U_i^* from weights and unitaries."""
    w = convex_weights(weights, len(unitaries))
    us = _square(unitaries, complex, ndim=3)
    require(isometry_defect(us).max(), COMPLETENESS_TOL, NotUnitary,
            "matrix is not unitary within {}", COMPLETENESS_TOL)
    return KrausChannel(np.sqrt(w)[:, None, None] * us)


def _unitary_basis(basis) -> np.ndarray:
    b = _square(basis, complex)
    if not isometry_defect(b) <= UNITARY_TOL:
        raise NotUnitary(f"basis must be unitary within {UNITARY_TOL}")
    return b


def pinching_channel(basis) -> KrausChannel:
    """Channel that zeroes all off-diagonal entries in the given orthonormal basis.

    Kraus operators are the rank-one projections onto the basis columns;
    the channel is bistochastic and idempotent.
    """
    b = _unitary_basis(basis)
    projections = b.T[:, :, None] * b.T.conj()[:, None, :]  # |b_i><b_i| per column
    return KrausChannel(projections)


def pinch_convergence_experiment(rho2: DensityMatrix, basis) -> list[PinchRow]:
    """Distance of phase averaging to full pinching, with its corner-mass bound.

    For each n the row holds the trace distance between the n-power average
    and the pinching of rho2 in `basis`, and the bound twice the trace of
    rho2 compressed to coordinates n..d of that basis.  The distance never
    exceeds the bound, and the n = d row is exactly pinched.
    """
    b = _unitary_basis(basis)
    d = rho2.d
    if b.shape[0] != d:
        raise DimensionMismatch(f"basis dimension {b.shape[0]} != state dimension {d}")
    rot = _hermitian(b.conj().T @ rho2.matrix @ b)  # rho2 expressed in the pinching basis
    tail = np.diag(rot).real
    off = rot * ~np.eye(d, dtype=bool)  # n-power average - pinching = off[n-1:, n-1:], zero-padded
    dists = [float(np.abs(np.linalg.eigvalsh(off[m:, m:])).sum()) for m in range(d)]
    return [PinchRow(n=n, trace_distance=dists[n - 1],
                     bound=2.0 * float(tail[n - 1:].sum())) for n in range(1, d + 1)]


def uhlmann_frame(rho1: DensityMatrix, rho2: DensityMatrix,
                  tol: float = MAJORIZATION_TOL) -> MixedUnitaryTransfer:
    """F, E and pos behind both Uhlmann constructions, read from the decompositions the
    states keep; rho1 must be majorized by rho2, or MajorizationFailed carries the verdict.

    F is the eigenbasis of rho1 and E = Y U^T, with Y the eigenbasis of rho2 and
    U the chain's Schur-Horn rotation, so E^* rho2 E = U diag(b) U^T has rho1's
    spectrum a on its diagonal.  U only mixes coordinates that the chain's steps
    connect (a block), so that matrix is block-diagonal in the chain's blocks, and
    pos numbers each coordinate by its position in its block.
    """
    if rho1.d != rho2.d:
        raise DimensionMismatch(f"dimensions {rho1.d} vs {rho2.d}")
    try:
        chain = find_transfer_chain(rho1.spectrum, rho2.spectrum, tol)
    except MajorizationFailed as exc:
        raise MajorizationFailed("spectrum(rho1) is not majorized by spectrum(rho2)",
                                 verdict=exc.verdict) from None
    e = rho2.eigenvectors @ chain_to_orthogonal(chain).entries.T
    block = np.arange(chain.d)
    for i, j in zip(chain.i.tolist(), chain.j.tolist()):
        block[block == block[j]] = block[i]
    pos = np.tril(block[:, None] == block[None, :], -1).sum(axis=1)
    return MixedUnitaryTransfer(f=rho1.eigenvectors, e=e, pos=pos)


def uhlmann_channel(rho1: DensityMatrix, rho2: DensityMatrix,
                    tol: float = MAJORIZATION_TOL) -> KrausChannel:
    """Bistochastic channel carrying rho2 onto rho1 when rho1 is spectrally flatter.

    Rank-one construction: rotate the eigenbasis of rho2 by the orthogonal
    matrix that realizes the spectral transfer, so the rotated basis E sees
    rho1's eigenvalues on the diagonal, then relabel those directions onto
    the eigenbasis F of rho1.  The Kraus operators |f_i><e_i| pinch and
    relabel in one step, and the channel is exactly bistochastic.
    `uhlmann_frame(...).apply(rho, rank_one=True)` is its output without the stack.
    """
    frame = uhlmann_frame(rho1, rho2, tol)
    ops = frame.f.T[:, :, None] * frame.e.T.conj()[:, None, :]  # |f_i><e_i| per column
    return KrausChannel(ops)


def mixed_unitary_uhlmann(rho1: DensityMatrix, rho2: DensityMatrix,
                          tol: float = MAJORIZATION_TOL) -> MixedUnitaryTransfer:
    """Uniform mixture of n <= d unitaries with (1/n) sum_k U_k rho2 U_k^* = rho1.

    The pinching in the frame E of `uhlmann_channel`, followed by its
    relabelling onto F, written with unitaries.  E^* rho2 E is block-diagonal in
    the transfer chain's blocks (coordinates its steps connect), so a phase
    that takes distinct values within each block pinches it: numbering each
    coordinate by its position pos in its block, with n the largest block, the
    average of D^k (.) D^-k over k < n, D = diag(omega^pos) and
    omega = exp(2 pi i / n), keeps the diagonal alone.  U_k = F D^k E^*.
    The result is the frame itself, so no unitary is built until one is asked for.
    """
    return uhlmann_frame(rho1, rho2, tol)


def detect_isometry(phi: KrausChannel, tol: float = ISOMETRY_TOL) -> IsometryReport:
    """Decide whether the channel is X -> V X V^* for an isometry V.

    The channel is an isometric conjugation exactly when every Kraus operator
    is a multiple of one operator, that is when the Gram matrix
    G_ij = tr(A_i^* A_j) / d_in has rank one (Choi 1975; Nielsen and Chuang,
    Thm 8.2).  The test is one product and one `eigh`: the sum of all but the
    largest eigenvalue must be at most `tol`.  Zero operators add zero rows and
    columns, and an operator of weight w raises that sum by at most w.  With
    (lam, u) the top eigenpair, V = sum_i u_i A_i / sqrt(lam), and its
    isometry defect must be at most `tol` as well.
    """
    _require_trace_preserving(phi)
    flat = phi.kraus.reshape(phi.num_kraus, -1)
    gram = (flat.conj() @ flat.T) / phi.d_in
    evals, evecs = np.linalg.eigh(gram)
    gap = float(evals[:-1].sum())
    if not gap <= tol:
        # some 2x2 principal minor of a PSD matrix of rank >= 2 is positive
        diag = gram.diagonal().real
        defect = np.triu(np.outer(diag, diag) - np.abs(gram) ** 2, 1)
        i, j = np.unravel_index(np.argmax(defect), defect.shape)
        return IsometryReport(failure_witness=((int(i), int(j)), gap))
    u = evecs[:, -1]
    v = (u @ flat).reshape(phi.d_out, phi.d_in) / np.sqrt(evals[-1])
    # fix the global phase: first nonzero column entry becomes real positive
    col = v.T.reshape(-1)
    lead = col[np.abs(col) > CLAMP_TOL][0]
    report = IsometryReport(isometry=v * (lead.conjugate() / abs(lead)), gram=gram, tol=tol)
    if report.is_isometric_conjugation:
        return report
    t = int(np.argmax(np.abs(u)))
    return IsometryReport(failure_witness=((t, t), report.isometry_defect))


def _probe_block(d: int, base_seed: int, block: int):
    """The generator of one block of PROBE_BLOCK probe trials at d_in = d, after it drew the
    block's spectra, and those spectra as a (PROBE_BLOCK, d) array of flat simplex rows.

    Every row is drawn whatever the number of trials, so each trial's draws do not
    depend on it.
    """
    rng = np.random.default_rng([base_seed, block])
    return rng, rng.dirichlet(np.ones(d), PROBE_BLOCK)


def probe_state(d: int, base_seed: int, trial: int) -> DensityMatrix:
    """Input state number `trial` of an entropy_probe at d_in = d that drew `base_seed`,
    bit for bit; it redraws the spectra of the trial's block and the Gaussian pairs of at
    most PROBE_BLOCK states."""
    if d < 1 or trial < 0:
        raise ValueError(f"need d >= 1 and trial >= 0, not d={d}, trial={trial}")
    block, offset = divmod(trial, PROBE_BLOCK)
    rng, vals = _probe_block(d, base_seed, block)
    for _ in range(offset):  # the pairs of the block's earlier trials, one at a time
        rng.standard_normal((2, d, d))
    states, _ = _haar_states(vals[offset:offset + 1], rng.standard_normal((1, 2, d, d)))
    return DensityMatrix(states[0])


def _probe_deviations(phi: KrausChannel, trials: int, base_seed: int) -> np.ndarray:
    """|S(phi(rho)) - S(rho)| for the first `trials` probe states drawn from `base_seed`.

    A chunk holds as many trials as fit PROBE_CHUNK_ENTRIES by the per-trial temporary of
    the route _sandwich takes: d_out^2 through the superoperator, max(k d_out d_in,
    d_out^2) through the Kraus sandwich.
    """
    d = phi.d_in
    per_trial = phi.d_out**2
    if not _via_superoperator(phi.kraus):
        per_trial = max(phi.kraus.size, per_trial)
    chunk = min(PROBE_BLOCK, max(1, PROBE_CHUNK_ENTRIES // per_trial))
    devs = np.empty(trials)
    for first in range(0, trials, PROBE_BLOCK):
        rng, vals = _probe_block(d, base_seed, first // PROBE_BLOCK)
        for lo in range(0, min(PROBE_BLOCK, trials - first), chunk):
            hi = min(lo + chunk, PROBE_BLOCK, trials - first)
            rho, lam = _haar_states(vals[lo:hi], rng.standard_normal((hi - lo, 2, d, d)))
            after = _row_entropies(spectra(_sandwich(phi.kraus, rho)))
            devs[first + lo:first + hi] = np.abs(after - _row_entropies(lam))
    return devs


def entropy_probe(phi: KrausChannel, trials: int,
                  rng: np.random.Generator) -> EntropyProbeResult:
    """Largest entropy change observed on random full-rank states.

    The generator draws one base seed.  Trial i is drawn from the generator
    default_rng([base_seed, i // PROBE_BLOCK]) of its block, which first draws the
    flat simplex spectra of all PROBE_BLOCK trials of the block, then one Gaussian pair
    per trial, in trial order, for its Haar eigenbasis.  So the result is reproducible
    and independent of how the trials are chunked, and probe_state(phi.d_in, base_seed,
    worst_trial) replays the worst state.  Rectangular channels are fine: the input
    state lives at d = d_in and the output entropy is taken at d_out.

    The trials run in chunks of at most PROBE_BLOCK, small enough that the route's
    temporary holds at most PROBE_CHUNK_ENTRIES complex entries, unless one trial alone is
    larger: on a list of k >= d_out d_in operators that is the (chunk, d_out, d_out)
    output stack, applied through the channel's superoperator, and otherwise also the
    (chunk, k, d_out, d_in) Kraus sandwich (see _sandwich).  A chunk is one stack of
    states, one _sandwich and one `eigh` of the outputs.  Every
    output state passes the checks of DensityMatrix and its spectrum's ProbVector; every
    input state is proved by its drawn spectrum and Haar factor (densop._haar_states),
    and its entropy is that of its drawn spectrum.
    """
    if trials < 1:
        raise ValueError(f"trials={trials} must be >= 1")
    _require_trace_preserving(phi)
    base_seed = int(rng.integers(0, 2**63 - 1))
    devs = _probe_deviations(phi, trials, base_seed)
    worst = int(np.argmax(devs))  # the first maximum, in trial order
    return EntropyProbeResult(max_deviation=float(devs[worst]), base_seed=base_seed,
                              worst_trial=worst if devs[worst] > PROBE_NOISE_FLOOR else None,
                              trials=trials)


def fixed_point_commutant_check(phi: KrausChannel, b,
                                tol: float = FIXED_POINT_TOL) -> FixedPointReport:
    """Check whether B is fixed by the channel and commutes with its Kraus family.

    Requires the dual map to be subunital (sum A_i^* A_i <= I within tol) and B
    finite, of shape (d_in, d_in); for a fixed point the commutators with every A_i and A_i^* should vanish.
    """
    if phi.d_in != phi.d_out:
        raise DimensionMismatch("fixed points need a square channel")
    x = np.asarray(b, dtype=complex)
    tall = phi.kraus.reshape(-1, phi.d_in)
    excess = float(np.linalg.eigvalsh(tall.conj().T @ tall).max()) - 1.0
    require(excess, tol, InvalidValue,
            "dual map is not subunital: largest eigenvalue 1+{}", excess)
    if x.shape != (phi.d_in, phi.d_in):
        raise DimensionMismatch(f"matrix shape {x.shape} != ({phi.d_in}, {phi.d_in})")
    x = _square(x, complex)
    defect = float(np.abs(_sandwich(phi.kraus, x) - x).max())
    both = np.concatenate([phi.kraus, phi.kraus.conj().transpose(0, 2, 1)])
    comm = float(np.abs(both @ x - x @ both).max())
    return FixedPointReport(defect=defect, max_commutator_norm=comm, tol=tol)


def compose_channels(outer: KrausChannel, inner: KrausChannel) -> KrausChannel:
    """Composition outer(inner(.)) with the product Kraus family."""
    if inner.d_out != outer.d_in:
        raise DimensionMismatch(
            f"inner output {inner.d_out} != outer input {outer.d_in}")
    ops = outer.kraus[:, None] @ inner.kraus[None, :]  # outer index varies slowest
    return KrausChannel(ops.reshape(-1, outer.d_out, inner.d_in))


def depolarizing_channel(d: int, p: float) -> KrausChannel:
    """Mixture of the identity with the uniform average over shift/clock unitaries.

    For p = 1 every state goes to I/d; any 0 < p <= 1 gives a bistochastic
    channel whose Kraus operators are not proportional to one isometry.
    """
    if not 0 < p <= 1:
        raise ValueError("p must be in (0, 1]")
    omega = np.exp(2j * np.pi / d)
    shift = np.roll(np.eye(d, dtype=complex), 1, axis=0)
    clock = np.diag(omega ** np.arange(d))
    weights = np.full(d * d, p / d**2)
    weights[0] += 1.0 - p
    unitaries = [np.linalg.matrix_power(shift, a) @ np.linalg.matrix_power(clock, bb)
                 for a in range(d) for bb in range(d)]
    return mixed_unitary_channel(weights, unitaries)


def random_isometry(d_in: int, d_out: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random isometry: the first d_in columns of a random unitary."""
    if d_out < d_in:
        raise DimensionMismatch("an isometry needs d_out >= d_in")
    return haar_unitary(d_out, rng)[:, :d_in]


def random_isometric_conjugation_channel(d_in: int, d_out: int,
                                         rng: np.random.Generator,
                                         num_terms: int = 1) -> tuple[KrausChannel, np.ndarray]:
    """Channel X -> V X V^* written with redundant phase-multiple Kraus terms.

    Returns the channel and the ground-truth isometry V.
    """
    v = random_isometry(d_in, d_out, rng)
    weights = rng.dirichlet(np.ones(num_terms))
    phases = np.exp(2j * np.pi * rng.random(num_terms))
    ops = (np.sqrt(weights) * phases)[:, None, None] * v
    return KrausChannel(ops), v


def detector_corpus(rng: np.random.Generator, n_pos: int, n_neg: int):
    """n_pos (channel, V) pairs of isometric conjugations and n_neg channels that are not
    (pinchings, depolarizing mixtures, mixed unitaries with well-separated weights)."""
    positives = []
    for _ in range(n_pos):
        d_in = int(rng.integers(2, 9))
        d_out = int(rng.integers(d_in, 13))
        terms = int(rng.integers(1, 6))
        positives.append(random_isometric_conjugation_channel(d_in, d_out, rng, terms))
    negatives = []
    for k in range(n_neg):
        d = int(rng.integers(2, 9))
        if k % 3 == 0:
            negatives.append(pinching_channel(haar_unitary(d, rng)))
        elif k % 3 == 1:
            negatives.append(depolarizing_channel(d, p=float(rng.uniform(0.2, 1.0))))
        else:
            m = int(rng.integers(2, 4))
            w = rng.dirichlet(np.ones(m)) * 0.8 + 0.2 / m
            negatives.append(mixed_unitary_channel(w, [haar_unitary(d, rng) for _ in range(m)]))
    return positives, negatives


def random_bistochastic_channel(d: int, rng: np.random.Generator,
                                kind: Optional[str] = None) -> KrausChannel:
    """Random bistochastic channel: mixed unitary, pinching, or a composition."""
    if kind is None:
        kind = ["mixed_unitary", "pinching", "composition"][int(rng.integers(3))]
    if kind == "mixed_unitary":
        m = int(rng.integers(2, 5))
        weights = rng.dirichlet(np.ones(m))
        return mixed_unitary_channel(weights, [haar_unitary(d, rng) for _ in range(m)])
    if kind == "pinching":
        return pinching_channel(haar_unitary(d, rng))
    if kind == "composition":
        weights = rng.dirichlet(np.ones(2))
        mixed = mixed_unitary_channel(weights, [haar_unitary(d, rng) for _ in range(2)])
        return compose_channels(pinching_channel(haar_unitary(d, rng)), mixed)
    raise ValueError(f"unknown channel kind {kind!r}")
