"""Density matrices: spectra, von Neumann entropy, spectral majorization, trace distance.

All operators are finite complex matrices.  Spectral statements are
basis-independent; eigenvectors inside a degenerate cluster are whatever
orthonormal basis the solver returns.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, InvalidValue, NotHermitian, require
from .seqmaj import (MAJORIZATION_TOL, NORMALIZED_TOL, MajorizationVerdict, ProbVector,
                     is_majorized, shannon_entropy)

HERMITIAN_TOL = 1e-9
EIG_FLOOR = -1e-9
RECONSTRUCTION_TOL = 1e-8
# isometry_defect of a unitary pinching basis, an orthogonal matrix and a probe's Haar factor
UNITARY_TOL = 1e-9


def _square(m, dtype, ndim: int = 2) -> np.ndarray:
    """m as a read-only `dtype` array, proved non-empty, square and finite, or with ndim=3
    a stack of such matrices."""
    try:
        arr = np.array(m, dtype=dtype)
    except ValueError as exc:  # ragged: the rows or matrices differ in shape
        raise InvalidValue(str(exc)) from exc
    if (arr.ndim != ndim or arr.shape[-1] != arr.shape[-2] or not np.isfinite(arr).all()
            or not arr.size):
        raise InvalidValue("expected a non-empty square matrix of finite numbers")
    arr.setflags(write=False)
    return arr


def _hermitian(m, ndim: int = 2) -> np.ndarray:
    """The Hermitian part (m + m^*)/2 of m, or with ndim=3 of each matrix of the stack m,
    as a read-only complex array; m is proved non-empty, square, finite and Hermitian
    within HERMITIAN_TOL.  A DensityMatrix was proved so when it was built, and its matrix
    is returned as it is."""
    if isinstance(m, DensityMatrix):
        return m.matrix
    arr = _square(m, complex, ndim)
    dag = _dagger(arr)
    with np.errstate(over="ignore", invalid="ignore"):  # entries near the float maximum
        dev = np.abs(arr - dag)
        sym = (arr + dag) / 2.0
    at = np.unravel_index(np.argmax(dev), dev.shape)
    require(dev[at], HERMITIAN_TOL, NotHermitian,
            "worst entry pair ({0}, {1})/({1}, {0}){2} deviates by {3}",
            at[-2], at[-1], "" if ndim == 2 else f" of state {at[0]}", dev[at])
    sym.setflags(write=False)
    return sym


def _dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix, or of each matrix of a stack."""
    return np.swapaxes(m, -1, -2).conj()


def _require_states(vals: np.ndarray) -> np.ndarray:
    """The spectrum clamped to [0, 1], for the descending eigenvalues `vals` of one
    Hermitian matrix or the rows of a stack's: no eigenvalue is below EIG_FLOOR, and the
    eigenvalues clamped at zero sum to 1 within NORMALIZED_TOL.  Clamping to [0, 1] only
    moves a sum above 1 toward 1, and ProbVector sums each row of the result in the same
    order over the same contiguous layout, so it accepts what passes here."""
    total = vals.clip(0.0, None).sum(axis=-1)
    if total.ndim:  # one sum per state: check the one farthest from 1
        total = total[np.abs(total - 1.0).argmax()]
    require(abs(total - 1.0), NORMALIZED_TOL, InvalidValue, "spectrum sums to {}, not 1", total)
    lo = vals.min()
    require(-lo, -EIG_FLOOR, InvalidValue, "negative eigenvalue {}", lo)
    return vals.clip(0.0, 1.0)


def _eigh(arr: np.ndarray, states: bool = False):
    """(eigenvalues descending, matching eigenvector columns) of one Hermitian matrix or of
    each matrix of a stack, as read-only contiguous arrays; the decomposition must
    reconstruct it within RECONSTRUCTION_TOL.

    With `states` the descending eigenvalues pass _require_states before the
    reconstruction is checked, and come back clamped to [0, 1].  Both checks still
    decide, so the same matrices pass; one that fails both, such as diag(1e300, 1e300),
    is refused for its spectrum, whose size is what spoils the reconstruction.
    """
    vals, vecs = np.linalg.eigh(arr)
    desc = vals[..., ::-1].copy()
    if states:
        desc = _require_states(desc)
    recon = (vecs * vals[..., None, :]) @ _dagger(vecs)
    err = np.abs(recon - arr).max()
    require(err, RECONSTRUCTION_TOL, InvalidValue,
            "eigendecomposition failed to reconstruct input: largest error {}", err)
    vecs = vecs[..., ::-1].copy()
    desc.setflags(write=False)
    vecs.setflags(write=False)
    return desc, vecs


def spectra(states) -> np.ndarray:
    """Spectra of an (n, d, d) stack of states as rows, descending and clamped to [0, 1].

    One `eigh` serves the whole stack.  Each state passes the checks that
    DensityMatrix makes on it alone, with the same tolerances and exception types, in
    the same order: finite and Hermitian, eigenvalues clamped at zero summing to 1, no
    eigenvalue below EIG_FLOOR, and a decomposition that reconstructs it.
    """
    return _eigh(_hermitian(states, ndim=3), states=True)[0]


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian positive semidefinite complex matrix of unit trace.  `matrix` is the
    Hermitian part of the input, proved on its one decomposition, which the state keeps as
    `spectrum` (clamped to [0, 1]) and `eigenvectors`: no eigenvalue below EIG_FLOOR, and
    the eigenvalues clamped at zero sum to 1 within NORMALIZED_TOL."""

    matrix: np.ndarray
    spectrum: ProbVector = field(init=False)
    eigenvectors: np.ndarray = field(init=False)

    def __post_init__(self):
        arr = _hermitian(self.matrix)
        vals, vecs = _eigh(arr, states=True)
        object.__setattr__(self, "matrix", arr)
        object.__setattr__(self, "spectrum", ProbVector(vals, normalized=True))
        object.__setattr__(self, "eigenvectors", vecs)

    @property
    def d(self) -> int:
        return self.matrix.shape[0]


def eig_hermitian(h) -> tuple[np.ndarray, np.ndarray]:
    """(eigenvalues descending, matching unitary eigenvector columns) of a Hermitian matrix,
    indefinite ones such as state differences included."""
    return _eigh(_hermitian(h))


def spectrum(rho) -> ProbVector:
    """The spectrum a state kept at construction; a raw matrix is read as DensityMatrix(rho)."""
    return (rho if isinstance(rho, DensityMatrix) else DensityMatrix(rho)).spectrum


def isometry_defect(m):
    """Largest entry of |m^* m - I|, zero exactly when m has orthonormal columns.

    A (k, r, c) stack gives k defects.  NaN entries give NaN: test `not defect <= tol`.
    """
    m = np.asarray(m)
    with np.errstate(over="ignore", invalid="ignore"):  # entries near the float maximum
        gram = np.swapaxes(m, -1, -2).conj() @ m
        dev = np.abs(gram - np.eye(m.shape[-1])).max(axis=(-2, -1))
    return float(dev) if dev.ndim == 0 else dev


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """S(rho) in bits; equals the Shannon entropy of the spectrum."""
    return shannon_entropy(spectrum(rho))


def state_majorized(rho1: DensityMatrix, rho2: DensityMatrix,
                    tol: float = MAJORIZATION_TOL) -> MajorizationVerdict:
    """Spectral majorization of states; dimensions may differ (zero-padded)."""
    return is_majorized(spectrum(rho1), spectrum(rho2), tol)


def trace_distance(rho1: DensityMatrix, rho2: DensityMatrix) -> float:
    """Trace norm of the difference: sum of absolute eigenvalues."""
    a = _hermitian(rho1)
    b = _hermitian(rho2)
    if a.shape != b.shape:
        raise DimensionMismatch(f"shapes {a.shape} vs {b.shape}")
    return float(np.abs(np.linalg.eigvalsh(a - b)).sum())


def pure_state(x) -> DensityMatrix:
    """Rank-one projection onto a unit vector: the state's own trace check bounds
    |‖x‖² − 1| by NORMALIZED_TOL."""
    v = np.asarray(x, dtype=complex).ravel()
    with np.errstate(over="ignore", invalid="ignore"):  # inf or nan: refused as not finite
        outer = np.outer(v, v.conj())
    return DensityMatrix(outer)


def _haar(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """Haar unitaries from the QR of (re + i im) / sqrt(2), one per trailing (d, d) block,
    each column's phase fixed so that R has a positive diagonal (Mezzadri, Notices AMS
    54, 2007)."""
    q, r = np.linalg.qr((re + 1j * im) / np.sqrt(2))
    phases = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (phases / np.abs(phases))[..., None, :]


def haar_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary from the QR of a complex Gaussian matrix."""
    return _haar(rng.standard_normal((d, d)), rng.standard_normal((d, d)))


def _with_spectra(vals: np.ndarray, v: np.ndarray) -> np.ndarray:
    """v diag(vals sorted descending) v^*, symmetrized; one matrix or a stack."""
    vals = -np.sort(-vals, axis=-1)
    rho = (v * vals[..., None, :]) @ _dagger(v)
    # C order at any stack size, so that qchan._sandwich reshapes a stack without a copy
    return np.add(rho, _dagger(rho), order="C") / 2.0


def random_density(d: int, rng: np.random.Generator,
                   spec=None) -> DensityMatrix:
    """Random state with the requested spectrum (default: flat simplex sample).

    The eigenbasis is Haar random, so the output is deterministic for a fixed
    generator state and full-rank exactly when all requested eigenvalues are
    positive.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    if spec is None:
        vals = rng.dirichlet(np.ones(d))
    else:
        vals = ProbVector(spec.entries if isinstance(spec, ProbVector) else spec,
                          normalized=True).entries
        if vals.size > d:
            raise InvalidValue(f"spectrum has {vals.size} > d = {d} entries")
        vals = np.pad(vals, (0, d - vals.size))
    return DensityMatrix(_with_spectra(vals, haar_unitary(d, rng)))


def _haar_states(vals: np.ndarray, gauss: np.ndarray):
    """(states, spectra): V diag(lam) V^* for each row lam of the (n, d) array `vals`, as an
    (n, d, d) stack, V the Haar unitary of the matching Gaussian pair of the (n, 2, d, d)
    stack `gauss`, and the rows lam clamped to [0, 1].

    Proved without an eigensolver: the rows pass _require_states, the checks that
    `spectra` makes on eigenvalues, and each V is unitary within UNITARY_TOL, so each
    state's spectrum is its row to rounding.
    """
    lam = _require_states(vals)
    v = _haar(gauss[:, 0], gauss[:, 1])
    defect = isometry_defect(v).max()
    require(defect, UNITARY_TOL, InvalidValue, "Haar factor deviates from unitary by {}", defect)
    return _with_spectra(lam, v), lam
