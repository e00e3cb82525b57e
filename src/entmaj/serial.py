"""JSON wire formats for every value the CLI reads or writes.

Schemas:
  probability vector   {"entries": [x1, ...], "normalized": bool}
  real square matrix   {"d": n, "rows": [[...], ...]}                (row-major)
  complex matrix       {"d_rows": r, "d_cols": c, "rows": [[[re, im], ...], ...]}
  density matrix       complex matrix plus "kind": "density"        (validated on load)
  Kraus channel        {"d_in": n, "d_out": m, "kraus": [<complex matrix>, ...],
                        "flags": {"trace_preserving": b, "unital": b}}
  transfer chain       {"d": n, "steps": [{"i": i, "j": j, "t": t}, ...]}
  Birkhoff mixture     {"terms": [{"weight": t, "perm": [...]}, ...]}
                       (perm maps row index -> column index)

All reals round-trip exactly through the default IEEE-754 decimal repr.
"""

from __future__ import annotations

import json
from typing import Any

import numpy as np

from .errors import NotHermitian, SchemaError
from .qchan import IsometryReport, KrausChannel, MixedUnitaryTransfer
from .densop import DensityMatrix
from .seqmaj import ProbVector
from .xfer import (
    BirkhoffDecomposition,
    DoublyStochasticMatrix,
    OrthogonalMatrix,
    TransferChain,
    TTransform,
)


def _expect(obj, key, kind, where):
    if not isinstance(obj, dict) or key not in obj:
        raise SchemaError("missing required field", field=f"{where}.{key}")
    val = obj[key]
    if kind is float:
        if not isinstance(val, (int, float)) or isinstance(val, bool):
            raise SchemaError("expected a number", field=f"{where}.{key}")
        return float(val)
    if not isinstance(val, kind):
        raise SchemaError(f"expected {kind.__name__}", field=f"{where}.{key}")
    return val


def prob_vector_to_json(p: ProbVector) -> dict:
    return {"entries": [float(x) for x in p.entries], "normalized": bool(p.normalized)}


def prob_vector_from_json(obj, where: str = "prob_vector") -> ProbVector:
    entries = _expect(obj, "entries", list, where)
    if not entries:
        raise SchemaError("must be non-empty", field=f"{where}.entries")
    for k, x in enumerate(entries):
        if not isinstance(x, (int, float)) or isinstance(x, bool):
            raise SchemaError("expected a number", field=f"{where}.entries[{k}]")
    normalized = bool(obj.get("normalized", False))
    try:
        return ProbVector(np.array(entries, dtype=float), normalized=normalized)
    except ValueError as exc:
        raise SchemaError(str(exc), field=f"{where}.entries") from exc


def real_matrix_to_json(m) -> dict:
    arr = m.entries if hasattr(m, "entries") else np.asarray(m, dtype=float)
    return {"d": int(arr.shape[0]), "rows": [[float(x) for x in row] for row in arr]}


def real_matrix_from_json(obj, where: str = "matrix") -> np.ndarray:
    d = _expect(obj, "d", int, where)
    rows = _expect(obj, "rows", list, where)
    if len(rows) != d:
        raise SchemaError(f"expected {d} rows, got {len(rows)}", field=f"{where}.rows")
    out = np.zeros((d, d))
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != d:
            raise SchemaError(f"expected {d} numbers", field=f"{where}.rows[{i}]")
        for j, x in enumerate(row):
            if not isinstance(x, (int, float)) or isinstance(x, bool):
                raise SchemaError("expected a number", field=f"{where}.rows[{i}][{j}]")
            out[i, j] = float(x)
    return out


def complex_matrix_to_json(arr: np.ndarray, kind: str | None = None) -> dict:
    arr = np.asarray(arr, dtype=complex)
    obj: dict[str, Any] = {
        "d_rows": int(arr.shape[0]),
        "d_cols": int(arr.shape[1]),
        "rows": [[[float(x.real), float(x.imag)] for x in row] for row in arr],
    }
    if kind is not None:
        obj["kind"] = kind
    return obj


def complex_matrix_from_json(obj, where: str = "matrix") -> np.ndarray:
    r = _expect(obj, "d_rows", int, where)
    c = _expect(obj, "d_cols", int, where)
    rows = _expect(obj, "rows", list, where)
    if len(rows) != r:
        raise SchemaError(f"expected {r} rows, got {len(rows)}", field=f"{where}.rows")
    out = np.zeros((r, c), dtype=complex)
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != c:
            raise SchemaError(f"expected {c} entries", field=f"{where}.rows[{i}]")
        for j, pair in enumerate(row):
            if (not isinstance(pair, list) or len(pair) != 2
                    or any(isinstance(x, bool) or not isinstance(x, (int, float))
                           for x in pair)):
                raise SchemaError("expected an [re, im] pair",
                                  field=f"{where}.rows[{i}][{j}]")
            out[i, j] = complex(pair[0], pair[1])
    return out


def density_to_json(rho: DensityMatrix) -> dict:
    return complex_matrix_to_json(rho.matrix, kind="density")


def density_from_json(obj, where: str = "density") -> DensityMatrix:
    arr = complex_matrix_from_json(obj, where)
    try:
        return DensityMatrix(arr)
    except (NotHermitian, ValueError) as exc:
        raise SchemaError(str(exc), field=where) from exc


def channel_to_json(phi: KrausChannel) -> dict:
    return {
        "d_in": phi.d_in,
        "d_out": phi.d_out,
        "kraus": [complex_matrix_to_json(a) for a in phi.kraus],
        "flags": {"trace_preserving": phi.trace_preserving, "unital": phi.unital},
    }


def channel_from_json(obj, where: str = "channel") -> KrausChannel:
    d_in = _expect(obj, "d_in", int, where)
    d_out = _expect(obj, "d_out", int, where)
    kraus_list = _expect(obj, "kraus", list, where)
    flags = obj.get("flags", {})
    ops = [complex_matrix_from_json(k, where=f"{where}.kraus[{i}]")
           for i, k in enumerate(kraus_list)]
    try:
        return KrausChannel(
            d_in=d_in, d_out=d_out, kraus=tuple(ops),
            trace_preserving=bool(flags.get("trace_preserving", True)),
            unital=bool(flags.get("unital", False)))
    except Exception as exc:
        raise SchemaError(str(exc), field=where) from exc


def chain_to_json(chain: TransferChain) -> dict:
    return {"d": chain.d,
            "steps": [{"i": s.i, "j": s.j, "t": float(s.t)} for s in chain.steps]}


def chain_from_json(obj, where: str = "chain") -> TransferChain:
    d = _expect(obj, "d", int, where)
    steps = _expect(obj, "steps", list, where)
    out = []
    for k, s in enumerate(steps):
        out.append(TTransform(i=_expect(s, "i", int, f"{where}.steps[{k}]"),
                              j=_expect(s, "j", int, f"{where}.steps[{k}]"),
                              t=_expect(s, "t", float, f"{where}.steps[{k}]")))
    try:
        return TransferChain(d=d, steps=tuple(out))
    except ValueError as exc:
        raise SchemaError(str(exc), field=f"{where}.steps") from exc


def birkhoff_to_json(decomp: BirkhoffDecomposition) -> dict:
    return {"terms": [{"weight": float(w), "perm": [int(x) for x in p]}
                      for w, p in zip(decomp.weights, decomp.permutations)]}


def birkhoff_from_json(obj, where: str = "birkhoff") -> BirkhoffDecomposition:
    terms = _expect(obj, "terms", list, where)
    weights = []
    perms = []
    for k, term in enumerate(terms):
        weights.append(_expect(term, "weight", float, f"{where}.terms[{k}]"))
        perm = _expect(term, "perm", list, f"{where}.terms[{k}]")
        perms.append(np.array(perm, dtype=int))
    try:
        return BirkhoffDecomposition(weights=np.array(weights), permutations=tuple(perms))
    except ValueError as exc:
        raise SchemaError(str(exc), field=f"{where}.terms") from exc


def mixed_unitary_to_json(mix: MixedUnitaryTransfer) -> dict:
    return {"terms": [{"weight": float(w), "unitary": complex_matrix_to_json(u)}
                      for w, u in zip(mix.weights, mix.unitaries)]}


def isometry_report_to_json(report: IsometryReport) -> dict:
    obj: dict[str, Any] = {"is_isometric_conjugation": report.is_isometric_conjugation}
    obj["isometry"] = (None if report.isometry is None
                       else complex_matrix_to_json(report.isometry))
    obj["gram"] = None if report.gram is None else complex_matrix_to_json(report.gram)
    if report.failure_witness is None:
        obj["failure_witness"] = None
    else:
        (i, j), dev = report.failure_witness
        obj["failure_witness"] = {"pair": [int(i), int(j)], "deviation": float(dev)}
    return obj


def to_json_value(value) -> dict:
    """Serialize any supported value to its schema."""
    if isinstance(value, ProbVector):
        return prob_vector_to_json(value)
    if isinstance(value, DensityMatrix):
        return density_to_json(value)
    if isinstance(value, (DoublyStochasticMatrix, OrthogonalMatrix)):
        return real_matrix_to_json(value)
    if isinstance(value, KrausChannel):
        return channel_to_json(value)
    if isinstance(value, TransferChain):
        return chain_to_json(value)
    if isinstance(value, BirkhoffDecomposition):
        return birkhoff_to_json(value)
    if isinstance(value, MixedUnitaryTransfer):
        return mixed_unitary_to_json(value)
    if isinstance(value, IsometryReport):
        return isometry_report_to_json(value)
    if isinstance(value, np.ndarray):
        if np.iscomplexobj(value):
            return complex_matrix_to_json(value)
        return real_matrix_to_json(value)
    raise TypeError(f"no JSON schema for {type(value).__name__}")


def from_json_value(obj, where: str = "$"):
    """Detect the schema of a parsed JSON object and build the typed value."""
    if not isinstance(obj, dict):
        raise SchemaError("expected a JSON object", field=where)
    if "entries" in obj:
        return prob_vector_from_json(obj, where)
    if obj.get("kind") == "density":
        return density_from_json(obj, where)
    if "kraus" in obj:
        return channel_from_json(obj, where)
    if "steps" in obj:
        return chain_from_json(obj, where)
    if "terms" in obj:
        terms = obj["terms"]
        if terms and isinstance(terms[0], dict) and "perm" in terms[0]:
            return birkhoff_from_json(obj, where)
        raise SchemaError("unsupported terms schema", field=f"{where}.terms")
    if "d_rows" in obj:
        return complex_matrix_from_json(obj, where)
    if "rows" in obj and "d" in obj:
        return real_matrix_from_json(obj, where)
    raise SchemaError("unrecognized schema", field=where)


def read_json(path):
    """Parse a JSON file into plain Python values; malformed text is a SchemaError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"malformed JSON at line {exc.lineno} column {exc.colno}: "
                          f"{exc.msg}", field=str(path)) from exc


def load_json(path):
    """Load a typed value from a JSON file; schema errors name the field."""
    return from_json_value(read_json(path), where=str(path))


def save_json(value, path):
    """Write a typed value (or a plain report dict) as deterministic JSON."""
    obj = value if isinstance(value, dict) else to_json_value(value)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def dumps_report(obj: dict) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"
