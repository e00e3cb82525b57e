"""Wire formats for every value the CLI reads or writes: JSON, and CSV for the pinch table.

Schemas:
  probability vector   {"entries": [x1, ...], "normalized": bool}
  real square matrix   {"d": n, "rows": [[...], ...]}                (row-major)
  complex matrix       {"d_rows": r, "d_cols": c, "rows": [[[re, im], ...], ...]}
  density matrix       complex matrix plus "kind": "density"        (validated on load;
                                                                     "kind" optional)
  Kraus channel        {"d_in": n, "d_out": m, "kraus": [<complex matrix>, ...],
                        "flags": {"trace_preserving": b, "unital": b}}
  vector bundle        {"a": <probability vector>, "b": <probability vector>}
                       (read by majorize, transfer, schur-horn; written by gen pair)
  state bundle         {"rho1": <density matrix>, "rho2": <density matrix>}
                       (read by uhlmann, mixed-unitary; written by gen state-pair)
  transfer chain       {"d": n, "steps": [{"i": i, "j": j, "t": t}, ...]}   (written only)
  Schur-Horn rotations {"rotations": <transfer chain>}                      (written only)
                       (U = G_m ... G_1: step k maps rows i and j to c r_i - s r_j and
                       s r_i + c r_j, with c = sqrt(t) and s = sqrt(1 - t))
  Birkhoff mixture     {"weights": [t0, ...], "first": [...],
                        "changes": {"term": [...], "row": [...], "col": [...]}} (written only)
                       (each permutation maps row index -> column index; change i says
                       that term[i]'s maps row[i] to col[i], and each term copies
                       term-1's on the rows it does not change; 1 <= term < k, in
                       strictly increasing (term, row) order)
  majorization verdict {"holds": b, "sums_equal": b,
                        "first_violation": null | {"k": k, "lhs": x, "rhs": y}} (written only)
  Uhlmann frame        {"f": <complex matrix>, "e": <complex matrix>}    (written only)
  mixed-unitary frame  Uhlmann frame plus "pos": [p1, ...], "weight": 1/n (written only)
                       (U_k = F diag(omega^(k pos)) E^*, omega = exp(2 pi i / n), k < n)
  pinch table          CSV "n,trace_distance,bound", then one row per n  (written only)

Each reader reads the one schema its caller names, stated in one `_fields` call per
object (`bundle_from_json` too); none guesses a schema from the keys it finds, and
`vector_or_state_from_json` is the only one that takes two.  `_fields` checks the
required fields in order, then refuses a key outside the schema, so that a misspelled
field is not ignored, then the optional ones; a state's numbers are read before its
"kind".  A key given twice in one object is refused, so no value is read over another.

Every report and every `save_json` file is one line of JSON with sorted keys
and the json module's default separators (pipe it through `python -m json.tool`
to indent it).  Arrays are written through one `ndarray.tolist()` each (a Kraus
stack through one for all its operators), and every real is written as its
shortest IEEE-754 decimal repr, so it reads back bit for bit.  Every number read
must be finite, and every dimension an integer >= 1.  Each matrix, vector and
Kraus list is read in flat passes: each nesting level is checked and flattened,
and one np.array call reads the flat leaves; a value that fails a check is read
again entry by entry, so the error names the first bad field.
"""

from __future__ import annotations

import json
import sys
from itertools import chain

import numpy as np

from .errors import DomainError, SchemaError
from .qchan import IsometryReport, KrausChannel, MixedUnitaryTransfer, PinchRow
from .densop import DensityMatrix
from .seqmaj import MajorizationVerdict, ProbVector
from .xfer import (
    BirkhoffDecomposition,
    DoublyStochasticMatrix,
    OrthogonalMatrix,
    TransferChain,
)


def _number(x, where: str, *index) -> float:
    """A JSON number (not a bool) as a finite float; `where` and `index` name it on error."""
    if (type(x) is float or type(x) is int) and abs(x) <= sys.float_info.max:
        return float(x)
    raise SchemaError("expected a finite number",
                      field=where + "".join(f"[{k}]" for k in index))


def _numbers_at_once(values: list, shape: tuple) -> np.ndarray | None:
    """values as a float array of `shape`, non-empty, read by one np.array call on its
    flat leaves; None unless each level, checked and flattened in turn, holds only lists
    of its declared length, and every leaf is a JSON number (a float or an int, not a
    bool) below the float maximum in magnitude.  A leaf at the maximum itself is left to
    `_number`, which tells a double apart from a larger integer that rounds to it."""
    level = [values]
    for n in shape:
        if set(map(type, level)) != {list} or set(map(len, level)) != {n}:
            return None  # ragged, or not lists
        level = list(chain.from_iterable(level))
    if not level or not set(map(type, level)) <= {float, int}:
        return None
    try:
        arr = np.array(level, dtype=float)
    except OverflowError:  # an int too large for a double
        return None
    return arr.reshape(shape) if np.abs(arr).max() < sys.float_info.max else None


def _fields(obj, where: str, **schema) -> list:
    """obj's values of the schema's fields, in its order.  Each entry is a type, or (type,
    default) for an optional field; an int is a dimension >= 1, and a bool is no int.  The
    required fields are checked in order (a non-dict lacks them), then a key outside the
    schema is refused (the first in sorted order), then the optional fields obj holds."""
    def check(key, kind):
        value = obj[key]
        if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
            raise SchemaError(f"expected {kind.__name__}", field=f"{where}.{key}")
        if kind is int and value < 1:
            raise SchemaError(f"dimension {value} is not >= 1", field=f"{where}.{key}")

    for key, kind in schema.items():
        if type(kind) is not tuple:
            if not isinstance(obj, dict) or key not in obj:
                raise SchemaError("missing required field", field=f"{where}.{key}")
            check(key, kind)
    extra = obj.keys() - schema.keys()
    if extra:
        raise SchemaError(f"unknown field (known: {', '.join(sorted(schema))})",
                          field=f"{where}.{min(extra, key=str)}")
    for key, kind in schema.items():
        if type(kind) is tuple and key in obj:
            check(key, kind[0])
    return [obj[key] if key in obj else schema[key][1] for key in schema]


def _pair(pair, where: str, i, j) -> list[float]:
    if not isinstance(pair, list) or len(pair) != 2:
        raise SchemaError("expected an [re, im] pair", field=f"{where}[{i}][{j}]")
    return [_number(pair[0], where, i, j), _number(pair[1], where, i, j)]


def _rows_each(rows: list, field: str, r: int, c: int, entry) -> np.ndarray:
    """rows read entry by entry with `entry`, so the first bad row or entry is named."""
    if len(rows) != r:
        raise SchemaError(f"expected {r} rows, got {len(rows)}", field=field)
    out = []
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != c:
            raise SchemaError(f"expected {c} entries", field=f"{field}[{i}]")
        out.append([entry(x, field, i, j) for j, x in enumerate(row)])
    return np.array(out)


def _numbers(values: list, shape: tuple, field: str) -> np.ndarray:
    """values as a float array of `shape`, (n,), (r, c) or (r, c, 2) of [re, im] pairs:
    read at once, and entry by entry only to name the first bad field."""
    arr = _numbers_at_once(values, shape)
    if arr is not None:
        return arr
    if len(shape) == 1:
        return np.array([_number(x, field, k) for k, x in enumerate(values)])
    return _rows_each(values, field, *shape[:2], _pair if len(shape) == 3 else _number)


def _construct(where: str, cls, *args, **kwargs):
    """cls(*args, **kwargs); a value the type rejects is a SchemaError naming `where`."""
    try:
        return cls(*args, **kwargs)
    except (DomainError, ValueError) as exc:
        raise SchemaError(str(exc), field=where) from exc


def prob_vector_to_json(p: ProbVector) -> dict:
    return {"entries": p.entries.tolist(), "normalized": bool(p.normalized)}


def prob_vector_from_json(obj, where: str = "prob_vector") -> ProbVector:
    entries, normalized = _fields(obj, where, entries=list, normalized=(bool, False))
    field = f"{where}.entries"
    values = _numbers(entries, (len(entries),), field)
    return _construct(field, ProbVector, values, normalized=normalized)


def real_matrix_to_json(m) -> dict:
    """Raises ValueError unless the matrix is square and non-empty, as the schema needs."""
    arr = m.entries if hasattr(m, "entries") else np.asarray(m, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or not arr.size:
        raise ValueError(f"a real matrix must be square and non-empty, not {arr.shape}")
    return {"d": arr.shape[0], "rows": arr.tolist()}


def real_matrix_from_json(obj, where: str = "matrix") -> np.ndarray:
    d, rows = _fields(obj, where, d=int, rows=list)
    return _numbers(rows, (d, d), f"{where}.rows")


def _pairs(arr: np.ndarray) -> list:
    """A complex array as nested lists of [re, im] pairs, by one tolist()."""
    return np.stack((arr.real, arr.imag), axis=-1).tolist()


def complex_matrix_to_json(arr: np.ndarray) -> dict:
    """Raises ValueError unless the array is 2-D and non-empty, as the schema needs."""
    arr = np.asarray(arr, dtype=complex)
    if arr.ndim != 2 or not arr.size:
        raise ValueError(f"a complex matrix must be 2-D and non-empty, not {arr.shape}")
    return {"d_rows": arr.shape[0], "d_cols": arr.shape[1], "rows": _pairs(arr)}


def complex_matrix_from_json(obj, where: str = "matrix") -> np.ndarray:
    r, c, rows = _fields(obj, where, d_rows=int, d_cols=int, rows=list)
    return _numbers(rows, (r, c, 2), f"{where}.rows").view(complex)[..., 0]


def density_to_json(rho: DensityMatrix) -> dict:
    return {**complex_matrix_to_json(rho.matrix), "kind": "density"}


def density_from_json(obj, where: str = "density") -> DensityMatrix:
    """The state of a complex matrix whose "kind", if given, is "density"."""
    r, c, rows, kind = _fields(obj, where, d_rows=int, d_cols=int, rows=list,
                               kind=(object, "density"))
    arr = _numbers(rows, (r, c, 2), f"{where}.rows").view(complex)[..., 0]
    if kind != "density":
        raise SchemaError('expected "density"', field=f"{where}.kind")
    return _construct(where, DensityMatrix, arr)


def vector_or_state_from_json(obj, where: str = "value") -> ProbVector | DensityMatrix:
    """A probability vector if `obj` has a vector field, "entries" or "normalized";
    otherwise a state, "kind" optional."""
    if isinstance(obj, dict) and ("entries" in obj or "normalized" in obj):
        return prob_vector_from_json(obj, where)
    return density_from_json(obj, where)


def bundle_from_json(obj, where: str, from_json, *keys) -> tuple:
    """The values of the fields `keys` of a bundle, which holds no other, each read by
    `from_json`."""
    values = _fields(obj, where, **dict.fromkeys(keys, object))
    return tuple(from_json(value, f"{where}.{key}") for key, value in zip(keys, values))


def channel_to_json(phi: KrausChannel) -> dict:
    return {
        "d_in": phi.d_in,
        "d_out": phi.d_out,
        "kraus": [{"d_rows": phi.d_out, "d_cols": phi.d_in, "rows": rows}
                  for rows in _pairs(phi.kraus)],
        "flags": {"trace_preserving": phi.trace_preserving, "unital": phi.unital},
    }


def _kraus_from_json(kraus_list: list, where: str):
    """The operators of a Kraus list: one (k, r, c) complex stack read in one flat pass
    when every operator is a complex matrix declaring the same shape and holding no other
    key, else each operator read alone, so that an error names the same field."""
    try:  # a dict with 3 keys, d_rows, d_cols and rows among them, holds no other
        shapes = {(type(a["d_rows"]), a["d_rows"], type(a["d_cols"]), a["d_cols"], len(a))
                  for a in kraus_list}
        rows = [a["rows"] for a in kraus_list]
    except (TypeError, KeyError):  # an operator that is not a dict with these keys
        shapes = set()
    if len(shapes) == 1:
        (r_type, r, c_type, c, n_keys), = shapes
        if r_type is int and c_type is int and n_keys == 3:
            arr = _numbers_at_once(rows, (len(rows), r, c, 2))
            if arr is not None:
                return arr.view(complex)[..., 0]
    return tuple(complex_matrix_from_json(a, f"{where}[{i}]") for i, a in enumerate(kraus_list))


def channel_from_json(obj, where: str = "channel") -> KrausChannel:
    """The channel of the operators, which must match the declared d_in and d_out and meet
    the claimed "flags", each a bool: trace_preserving (true unless given) and unital
    (false unless given)."""
    d_in, d_out, kraus_list, flags = _fields(obj, where, d_in=int, d_out=int, kraus=list,
                                             flags=(dict, {}))
    claims_tp, claims_unital = _fields(flags, f"{where}.flags", trace_preserving=(bool, True),
                                       unital=(bool, False))
    phi = _construct(where, KrausChannel, _kraus_from_json(kraus_list, f"{where}.kraus"))
    for key, declared, actual in (("d_in", d_in, phi.d_in), ("d_out", d_out, phi.d_out)):
        if declared != actual:
            raise SchemaError(f"{declared} != {actual} of the Kraus operators",
                              field=f"{where}.{key}")
    if claims_tp and not phi.trace_preserving:
        raise SchemaError(f"sum A*A deviates from I by {phi.completeness_defect}", field=where)
    if claims_unital and not phi.unital:
        raise SchemaError(f"flagged unital but sum AA* deviates from I by "
                          f"{phi.unitality_defect}", field=where)
    return phi


def chain_to_json(chain: TransferChain) -> dict:
    return {"d": chain.d, "steps": [{"i": i, "j": j, "t": t} for i, j, t in
                                    zip(chain.i.tolist(), chain.j.tolist(), chain.t.tolist())]}


def birkhoff_to_json(decomp: BirkhoffDecomposition) -> dict:
    """The weights, the first permutation and the change list as three int columns, in
    the order the type stores them."""
    term, row, col = decomp.changes.T.tolist()
    return {"weights": decomp.weights.tolist(), "first": decomp.first.tolist(),
            "changes": {"term": term, "row": row, "col": col}}


def verdict_to_json(verdict: MajorizationVerdict) -> dict:
    fv = verdict.first_violation
    return {"holds": verdict.holds, "sums_equal": verdict.sums_equal,
            "first_violation": None if fv is None else {"k": fv.k, "lhs": fv.lhs, "rhs": fv.rhs}}


def frame_to_json(frame: MixedUnitaryTransfer) -> dict:
    return {"f": complex_matrix_to_json(frame.f), "e": complex_matrix_to_json(frame.e)}


def mixed_unitary_to_json(mix: MixedUnitaryTransfer) -> dict:
    return {**frame_to_json(mix), "pos": mix.pos.tolist(), "weight": 1.0 / mix.num_terms}


def isometry_report_to_json(report: IsometryReport) -> dict:
    fw = report.failure_witness
    return {"is_isometric_conjugation": report.is_isometric_conjugation,
            **{key: None if m is None else complex_matrix_to_json(m)
               for key, m in (("isometry", report.isometry), ("gram", report.gram))},
            "failure_witness": None if fw is None else {"pair": [int(i) for i in fw[0]],
                                                        "deviation": float(fw[1])}}


def pinch_table_to_csv(rows: list[PinchRow]) -> str:
    """The pinch table: a header line, then one `n,trace_distance,bound` line per row,
    each real as its repr."""
    return "n,trace_distance,bound\n" + "".join(
        f"{r.n},{r.trace_distance!r},{r.bound!r}\n" for r in rows)


def to_json_value(value) -> dict:
    """The schema of a value that `save_json` writes."""
    if isinstance(value, ProbVector):
        return prob_vector_to_json(value)
    if isinstance(value, DensityMatrix):
        return density_to_json(value)
    if isinstance(value, (DoublyStochasticMatrix, OrthogonalMatrix)):
        return real_matrix_to_json(value)
    if isinstance(value, KrausChannel):
        return channel_to_json(value)
    if isinstance(value, BirkhoffDecomposition):
        return birkhoff_to_json(value)
    if isinstance(value, np.ndarray):
        if np.iscomplexobj(value):
            return complex_matrix_to_json(value)
        return real_matrix_to_json(value)
    raise TypeError(f"no JSON schema for {type(value).__name__}")


def _non_finite(token):
    raise ValueError(f"{token} is not a JSON number")


def _object(pairs: list) -> dict:
    """A JSON object's pairs as a dict; a key given twice, which the json module reads
    last-wins, is a SchemaError naming it as a JSON string, so on one line."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        keys = [k for k, _ in pairs]
        key = next(k for n, k in enumerate(keys) if k in keys[:n])
        raise SchemaError(f"duplicate key {json.dumps(key)}")
    return obj


def read_json(path):
    """Parse a JSON file into plain Python values; malformed text is a SchemaError,
    and so are a duplicated key and the NaN and Infinity tokens that the json module
    accepts."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh, object_pairs_hook=_object, parse_constant=_non_finite)
    except SchemaError as exc:  # a duplicated key
        raise SchemaError(str(exc), field=str(path)) from None
    except json.JSONDecodeError as exc:
        raise SchemaError(f"malformed JSON at line {exc.lineno} column {exc.colno}: "
                          f"{exc.msg}", field=str(path)) from exc
    except (ValueError, RecursionError) as exc:  # NaN, Infinity, not UTF-8, or too deep
        raise SchemaError(f"malformed JSON: {exc}", field=str(path)) from exc


def save_json(value, path):
    """Write a typed value as one line of deterministic JSON."""
    text = dumps_report(to_json_value(value))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def dumps_report(obj: dict) -> str:
    """One line of sorted-key JSON; without indent the json module's C encoder writes it.

    NaN and infinities raise ValueError, since `read_json` refuses them.  The cycle check
    is off because every report is a fresh tree that its writers build, which holds no
    cycle, and the check costs the encoder a marker per list and dict."""
    return json.dumps(obj, sort_keys=True, allow_nan=False, check_circular=False) + "\n"
