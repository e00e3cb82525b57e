"""Majorization, entropy, and entropy-preserving quantum channels at finite dimension."""

__version__ = "0.1.0"

from .seqmaj import (
    MajorizationVerdict,
    PrefixViolation,
    ProbVector,
    is_majorized,
    random_majorized_pair,
    shannon_entropy,
    sorted_padded,
)
from .xfer import (
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
from .densop import (
    DensityMatrix,
    eig_hermitian,
    haar_unitary,
    pure_state,
    random_density,
    spectrum,
    state_majorized,
    trace_distance,
    von_neumann_entropy,
)
from .qchan import (
    EntropyProbeResult,
    FixedPointReport,
    IsometryReport,
    KrausChannel,
    MixedUnitaryTransfer,
    PinchRow,
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
from .errors import (
    DimensionMismatch,
    DomainError,
    MajorizationFailed,
    MatchingFailed,
    NotDoublyStochastic,
    NotHermitian,
    NotOrthogonal,
    NotTracePreserving,
    NotUnitary,
    SchemaError,
)
