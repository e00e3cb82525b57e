"""The frozen value types: what they store, and how they compare and hash.

A type that holds numpy arrays compares by identity and hashes as an object, and every
array it stores is read-only, also when it is built directly; the Uhlmann frame and the
isometry report store the defects of the arrays they hold.  A type that holds only scalars compares by value.
"""

import dataclasses
from functools import cached_property

import numpy as np
import pytest

from entmaj.densop import DensityMatrix, isometry_defect
from entmaj.qchan import (EntropyProbeResult, FixedPointReport, IsometryReport, KrausChannel,
                          MixedUnitaryTransfer, PinchRow, detect_isometry,
                          mixed_unitary_uhlmann)
from entmaj.seqmaj import MajorizationVerdict, PrefixViolation, ProbVector, is_majorized
from entmaj.xfer import (BirkhoffDecomposition, DoublyStochasticMatrix, OrthogonalMatrix,
                         TransferChain, birkhoff_decompose)

# Each builder makes a fresh value from the same numbers on every call.
ARRAY_TYPES = {
    ProbVector: lambda: ProbVector([0.75, 0.25], normalized=True),
    TransferChain: lambda: TransferChain(3, [0, 1], [1, 2], [0.5, 0.25]),
    DoublyStochasticMatrix: lambda: DoublyStochasticMatrix(np.full((2, 2), 0.5)),
    OrthogonalMatrix: lambda: OrthogonalMatrix(np.eye(2)),
    BirkhoffDecomposition: lambda: birkhoff_decompose(np.full((3, 3), 1 / 3)),
    DensityMatrix: lambda: DensityMatrix(np.diag([0.75, 0.25])),
    KrausChannel: lambda: KrausChannel(np.eye(2, dtype=complex)[None]),
    IsometryReport: lambda: detect_isometry(KrausChannel(np.eye(3, 2, dtype=complex)[None])),
    MixedUnitaryTransfer: lambda: mixed_unitary_uhlmann(DensityMatrix(np.eye(3) / 3),
                                                        DensityMatrix(np.diag([0.5, 0.3, 0.2]))),
}

# Values built directly, not by the library's constructors: each still stores read-only
# arrays and measures its own defects.
BUILT_DIRECTLY = {
    MixedUnitaryTransfer: lambda: MixedUnitaryTransfer(f=np.eye(2), e=2 * np.eye(2),
                                                       pos=np.zeros(2, int)),
    IsometryReport: lambda: IsometryReport(isometry=np.ones((2, 2))),
}

SCALAR_TYPES = {
    PrefixViolation: lambda: PrefixViolation(k=1, lhs=0.75, rhs=0.5),
    MajorizationVerdict: lambda: is_majorized([0.75, 0.25], [0.5, 0.5]),
    PinchRow: lambda: PinchRow(n=2, trace_distance=0.25, bound=0.5),
    EntropyProbeResult: lambda: EntropyProbeResult(max_deviation=0.5, base_seed=7,
                                                   worst_trial=3, trials=25),
    FixedPointReport: lambda: FixedPointReport(is_fixed=True, defect=0.0,
                                               max_commutator_norm=0.0),
}


def _stored_arrays(value) -> list:
    """Every ndarray `value` stores, its cached properties read first: its fields, the
    arrays of a tuple field, and those of a typed value it holds."""
    for name, attr in vars(type(value)).items():
        if isinstance(attr, cached_property):
            getattr(value, name)
    arrays = []
    for field in vars(value).values():
        if dataclasses.is_dataclass(field):
            arrays += _stored_arrays(field)
        else:
            items = field if isinstance(field, tuple) else (field,)
            arrays += [a for a in items if isinstance(a, np.ndarray)]
    return arrays


@pytest.mark.parametrize("cls,build", [
    *[pytest.param(cls, build, id=cls.__name__) for cls, build in ARRAY_TYPES.items()],
    *[pytest.param(cls, build, id=f"{cls.__name__}-built-directly")
      for cls, build in BUILT_DIRECTLY.items()],
])
def test_array_type_stores_read_only_arrays_and_compares_by_identity(cls, build):
    x, y = build(), build()
    assert type(x) is cls
    arrays = _stored_arrays(x)
    assert arrays and not any(a.flags.writeable for a in arrays)
    assert x == x and not x != x
    assert (x == y) is False and x != y  # equal values, built apart
    assert hash(x) == hash(x) and len({x, x}) == 1 and len({x, y}) == 2


@pytest.mark.parametrize("build", [
    ARRAY_TYPES[MixedUnitaryTransfer], ARRAY_TYPES[IsometryReport],
    lambda: detect_isometry(KrausChannel(np.array([np.eye(2), np.diag([1, -1])]) / 2**0.5)),
    *BUILT_DIRECTLY.values(),
], ids=["frame", "report", "negative-report", "frame-built-directly", "report-built-directly"])
def test_stored_defects_are_those_of_the_stored_arrays(build):
    x = build()
    if isinstance(x, MixedUnitaryTransfer):
        assert x.f_defect == isometry_defect(x.f) and x.e_defect == isometry_defect(x.e)
    elif x.isometry is None:
        assert x.isometry_defect is None and not x.is_isometric_conjugation
    else:
        assert x.isometry_defect == isometry_defect(x.isometry)


def test_a_value_built_directly_measures_its_defects_and_refuses_none():
    frame = BUILT_DIRECTLY[MixedUnitaryTransfer]()
    assert (frame.f_defect, frame.e_defect) == (0.0, 3.0)  # |(2I)^* 2I - I| = 3
    report = BUILT_DIRECTLY[IsometryReport]()
    assert report.isometry_defect == 2.0  # |J^* J - I| = |2J - I|, J the all-ones matrix


@pytest.mark.parametrize("cls", SCALAR_TYPES, ids=lambda cls: cls.__name__)
def test_scalar_type_compares_and_hashes_by_value(cls):
    x, y = SCALAR_TYPES[cls](), SCALAR_TYPES[cls]()
    assert type(x) is cls
    assert x is not y and x == y and hash(x) == hash(y) and len({x, y}) == 1
