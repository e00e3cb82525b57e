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
Every number read must be finite, and every dimension an integer >= 1.
"""

from __future__ import annotations

import json
import sys
from typing import Any

import numpy as np

from .errors import DomainError, SchemaError
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


def _number(x, where: str, *index) -> float:
    """A JSON number (not a bool) as a finite float; `where` and `index` name it on error."""
    if (type(x) is float or type(x) is int) and abs(x) <= sys.float_info.max:
        return float(x)
    raise SchemaError("expected a finite number",
                      field=where + "".join(f"[{k}]" for k in index))


def _expect(obj, key, kind, where):
    if not isinstance(obj, dict) or key not in obj:
        raise SchemaError("missing required field", field=f"{where}.{key}")
    val = obj[key]
    if kind is float:
        return _number(val, f"{where}.{key}")
    if not isinstance(val, kind) or (kind is int and isinstance(val, bool)):
        raise SchemaError(f"expected {kind.__name__}", field=f"{where}.{key}")
    return val


def _complex(pair, where: str, i, j) -> complex:
    if not isinstance(pair, list) or len(pair) != 2:
        raise SchemaError("expected an [re, im] pair", field=f"{where}[{i}][{j}]")
    return complex(_number(pair[0], where, i, j), _number(pair[1], where, i, j))


def _dimension(obj, key, where) -> int:
    d = _expect(obj, key, int, where)
    if d < 1:
        raise SchemaError(f"dimension {d} is not >= 1", field=f"{where}.{key}")
    return d


def _matrix(obj, where: str, row_key: str, col_key: str, entry) -> np.ndarray:
    """obj["rows"] as an array, each entry read by `entry`; built after every check."""
    r = _dimension(obj, row_key, where)
    c = _dimension(obj, col_key, where)
    rows = _expect(obj, "rows", list, where)
    field = f"{where}.rows"
    if len(rows) != r:
        raise SchemaError(f"expected {r} rows, got {len(rows)}", field=field)
    out = []
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != c:
            raise SchemaError(f"expected {c} entries", field=f"{field}[{i}]")
        out.append([entry(x, field, i, j) for j, x in enumerate(row)])
    return np.array(out)


def _construct(where: str, cls, *args, **kwargs):
    """cls(*args, **kwargs); a value the type rejects is a SchemaError naming `where`."""
    try:
        return cls(*args, **kwargs)
    except (DomainError, ValueError) as exc:
        raise SchemaError(str(exc), field=where) from exc


def prob_vector_to_json(p: ProbVector) -> dict:
    return {"entries": [float(x) for x in p.entries], "normalized": bool(p.normalized)}


def prob_vector_from_json(obj, where: str = "prob_vector") -> ProbVector:
    entries = _expect(obj, "entries", list, where)
    field = f"{where}.entries"
    values = np.array([_number(x, field, k) for k, x in enumerate(entries)])
    return _construct(field, ProbVector, values, normalized=bool(obj.get("normalized", False)))


def real_matrix_to_json(m) -> dict:
    arr = m.entries if hasattr(m, "entries") else np.asarray(m, dtype=float)
    return {"d": int(arr.shape[0]), "rows": [[float(x) for x in row] for row in arr]}


def real_matrix_from_json(obj, where: str = "matrix") -> np.ndarray:
    return _matrix(obj, where, "d", "d", _number)


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
    return _matrix(obj, where, "d_rows", "d_cols", _complex)


def density_to_json(rho: DensityMatrix) -> dict:
    return complex_matrix_to_json(rho.matrix, kind="density")


def density_from_json(obj, where: str = "density") -> DensityMatrix:
    arr = complex_matrix_from_json(obj, where)
    return _construct(where, DensityMatrix, arr)


def channel_to_json(phi: KrausChannel) -> dict:
    return {
        "d_in": phi.d_in,
        "d_out": phi.d_out,
        "kraus": [complex_matrix_to_json(a) for a in phi.kraus],
        "flags": {"trace_preserving": phi.trace_preserving, "unital": phi.unital},
    }


def channel_from_json(obj, where: str = "channel") -> KrausChannel:
    d_in = _dimension(obj, "d_in", where)
    d_out = _dimension(obj, "d_out", where)
    kraus_list = _expect(obj, "kraus", list, where)
    flags = _expect(obj, "flags", dict, where) if "flags" in obj else {}
    ops = [complex_matrix_from_json(k, where=f"{where}.kraus[{i}]")
           for i, k in enumerate(kraus_list)]
    return _construct(where, KrausChannel, d_in=d_in, d_out=d_out, kraus=tuple(ops),
                      trace_preserving=bool(flags.get("trace_preserving", True)),
                      unital=bool(flags.get("unital", False)))


def chain_to_json(chain: TransferChain) -> dict:
    return {"d": chain.d,
            "steps": [{"i": s.i, "j": s.j, "t": float(s.t)} for s in chain.steps]}


def chain_from_json(obj, where: str = "chain") -> TransferChain:
    d = _dimension(obj, "d", where)
    steps = _expect(obj, "steps", list, where)
    out = []
    for k, s in enumerate(steps):
        field = f"{where}.steps[{k}]"
        out.append(_construct(field, TTransform, i=_expect(s, "i", int, field),
                              j=_expect(s, "j", int, field), t=_expect(s, "t", float, field)))
    return _construct(f"{where}.steps", TransferChain, d=d, steps=tuple(out))


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
        if not all(type(x) is int and 0 <= x < len(perm) for x in perm):
            raise SchemaError("expected indices 0..d-1", field=f"{where}.terms[{k}].perm")
        perms.append(perm)
    return _construct(f"{where}.terms", BirkhoffDecomposition, weights=weights,
                      permutations=tuple(perms))


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
        if isinstance(terms, list) and terms and isinstance(terms[0], dict) and "perm" in terms[0]:
            return birkhoff_from_json(obj, where)
        raise SchemaError("unsupported terms schema", field=f"{where}.terms")
    if "d_rows" in obj:
        return complex_matrix_from_json(obj, where)
    if "rows" in obj and "d" in obj:
        return real_matrix_from_json(obj, where)
    raise SchemaError("unrecognized schema", field=where)


def _non_finite(token):
    raise ValueError(f"{token} is not a JSON number")


def read_json(path):
    """Parse a JSON file into plain Python values; malformed text is a SchemaError,
    and so are the NaN and Infinity tokens that the json module accepts."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh, parse_constant=_non_finite)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"malformed JSON at line {exc.lineno} column {exc.colno}: "
                          f"{exc.msg}", field=str(path)) from exc
    except (ValueError, RecursionError) as exc:  # NaN, Infinity, not UTF-8, or too deep
        raise SchemaError(f"malformed JSON: {exc}", field=str(path)) from exc


def load_json(path):
    """Load a typed value from a JSON file; schema errors name the field."""
    return from_json_value(read_json(path), where=str(path))


def save_json(value, path):
    """Write a typed value (or a plain report dict) as deterministic JSON."""
    obj = value if isinstance(value, dict) else to_json_value(value)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_report(obj))


def dumps_report(obj: dict) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"
