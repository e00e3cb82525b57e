import gzip
import json
import pathlib
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from certificates import chain_of_json, decomposition_of_stack, orthogonal_of_rotations
from entmaj import cli, serial
from entmaj.cli import main
from entmaj.densop import DensityMatrix, isometry_defect, random_density
from entmaj.errors import InvalidValue, SchemaError
from entmaj.qchan import (KrausChannel, random_bistochastic_channel,
                          random_isometric_conjugation_channel)
from entmaj.seqmaj import ProbVector, random_majorized_pair
from entmaj.serial import (
    birkhoff_to_json,
    chain_to_json,
    channel_from_json,
    channel_to_json,
    complex_matrix_from_json,
    complex_matrix_to_json,
    density_from_json,
    dumps_report,
    prob_vector_from_json,
    prob_vector_to_json,
    read_json,
    real_matrix_from_json,
    real_matrix_to_json,
    save_json,
    vector_or_state_from_json,
)
from entmaj.xfer import (birkhoff_decompose, chain_to_doubly_stochastic, chain_to_orthogonal,
                         find_transfer_chain, schur_horn_orthogonal)


class TestRoundTrips:
    def test_prob_vector(self):
        p = ProbVector([0.1, 0.2, 0.7], normalized=True)
        back = prob_vector_from_json(prob_vector_to_json(p))
        np.testing.assert_array_equal(back.entries, p.entries)
        assert back.normalized

    def test_density_matrix(self, tmp_path):
        rho = random_density(4, np.random.default_rng(0))
        path = tmp_path / "rho.json"
        save_json(rho, path)
        back = density_from_json(read_json(path))
        assert isinstance(back, DensityMatrix)
        np.testing.assert_array_equal(back.matrix, rho.matrix)

    def test_complex_matrix(self):
        rng = np.random.default_rng(1)
        m = rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))
        back = complex_matrix_from_json(complex_matrix_to_json(m))
        np.testing.assert_array_equal(back, m)

    def test_real_matrix(self):
        rng = np.random.default_rng(2)
        m = rng.standard_normal((4, 4))
        back = real_matrix_from_json(real_matrix_to_json(m))
        np.testing.assert_array_equal(back, m)

    def test_channel(self):
        phi = random_bistochastic_channel(3, np.random.default_rng(3))
        back = channel_from_json(channel_to_json(phi))
        assert back.d_in == phi.d_in and back.d_out == phi.d_out
        for a, b in zip(back.kraus, phi.kraus):
            np.testing.assert_array_equal(a, b)
        assert back.trace_preserving and back.unital

    def test_rectangular_channel(self):
        chan, _ = random_isometric_conjugation_channel(2, 5, np.random.default_rng(4))
        back = channel_from_json(channel_to_json(chan))
        assert (back.d_in, back.d_out) == (2, 5)

    def test_chain(self):
        a, b = random_majorized_pair(6, np.random.default_rng(5))
        chain = find_transfer_chain(a, b)
        obj = chain_to_json(chain)
        assert obj["d"] == chain.d == 6
        assert obj["steps"] == [{"i": i, "j": j, "t": t} for i, j, t in
                                zip(chain.i.tolist(), chain.j.tolist(), chain.t.tolist())]
        assert all(type(s["t"]) is float for s in obj["steps"])

    @pytest.mark.parametrize("seed", [0, 7, 11])
    @pytest.mark.parametrize("d", [1, 4, 20, 64])  # the grid of scripts/report_digest.py
    def test_written_chain_rebuilds_both_matrices_bit_for_bit(self, d, seed):
        chain = find_transfer_chain(*random_majorized_pair(d, np.random.default_rng(seed)))
        back = chain_of_json(json.loads(dumps_report(chain_to_json(chain))))
        for matrix in (chain_to_orthogonal, chain_to_doubly_stochastic):
            assert matrix(back).entries.tobytes() == matrix(chain).entries.tobytes()

    def test_birkhoff(self):
        a, b = random_majorized_pair(5, np.random.default_rng(6))
        q = chain_to_doubly_stochastic(find_transfer_chain(a, b))
        dec = birkhoff_decompose(q)
        obj = birkhoff_to_json(dec)
        np.testing.assert_array_equal(obj["weights"], dec.weights)
        assert _replay(obj["first"], obj["changes"], len(dec.weights)) == dec.permutations.tolist()


class TestSchemaErrors:
    def test_malformed_json_reports_location(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"entries": [0.5,')
        with pytest.raises(SchemaError) as err:
            read_json(path)
        assert "line" in str(err.value)

    def test_missing_field_named(self):
        with pytest.raises(SchemaError) as err:
            prob_vector_from_json({"values": [1.0]})
        assert "entries" in str(err.value)

    def test_bad_entry_indexed(self):
        with pytest.raises(SchemaError) as err:
            prob_vector_from_json({"entries": [0.5, "x"]})
        assert "entries[1]" in str(err.value)

    @pytest.mark.parametrize("value", ["false", "yes", 0, 1, None, []],
                             ids=["false-string", "yes-string", "zero", "one", "null", "list"])
    def test_normalized_must_be_a_bool(self, value):
        with pytest.raises(SchemaError, match="expected bool") as err:
            prob_vector_from_json({"entries": [0.3, 0.3], "normalized": value}, "pv")
        assert err.value.field == "pv.normalized"

    def test_missing_normalized_reads_as_false(self):
        assert not prob_vector_from_json({"entries": [0.3, 0.3]}).normalized

    def test_non_hermitian_density_names_worst_pair(self):
        obj = {**complex_matrix_to_json(np.array([[0.5, 0.3], [0.0, 0.5]], dtype=complex)),
               "kind": "density"}
        with pytest.raises(SchemaError) as err:
            density_from_json(obj)
        assert "(0, 1)" in str(err.value)

    def test_wrong_row_count(self):
        with pytest.raises(SchemaError) as err:
            real_matrix_from_json({"d": 3, "rows": [[1.0, 0.0, 0.0]]})
        assert "rows" in str(err.value)

    def test_bad_complex_pair(self):
        with pytest.raises(SchemaError) as err:
            complex_matrix_from_json({"d_rows": 1, "d_cols": 1, "rows": [[[1.0]]]})
        assert "rows[0][0]" in str(err.value)


class TestVectorOrState:
    """The one reader that takes two schemas: "entries" picks the vector, and anything
    else is read as a state, with "kind" optional."""

    def test_entries_give_a_vector(self):
        value = vector_or_state_from_json({"entries": [0.25, 0.75], "normalized": True})
        assert isinstance(value, ProbVector)
        np.testing.assert_array_equal(value.entries, [0.25, 0.75])

    def test_complex_matrix_without_kind_gives_a_state(self):
        rho = random_density(3, np.random.default_rng(10))
        obj = complex_matrix_to_json(rho.matrix)
        assert "kind" not in obj
        value = vector_or_state_from_json(obj)
        assert isinstance(value, DensityMatrix)
        np.testing.assert_array_equal(value.matrix, rho.matrix)

    def test_a_matrix_that_is_no_state_is_refused_as_a_state(self):
        with pytest.raises(SchemaError, match="d_rows"):
            vector_or_state_from_json({"d": 2, "rows": [[0.5, 0.5], [0.5, 0.5]]})


class TestChannelClaims:
    """channel_from_json checks the declared dimensions and the flags it is given."""

    @pytest.mark.parametrize("key", ["d_in", "d_out"])
    def test_declared_dimension_must_match_the_operators(self, key):
        chan, _ = random_isometric_conjugation_channel(2, 3, np.random.default_rng(7))
        obj = channel_to_json(chan)
        obj[key] = 4
        with pytest.raises(SchemaError) as err:
            channel_from_json(obj)
        assert err.value.field == f"channel.{key}"

    def test_unflagged_channel_must_be_trace_preserving(self):
        obj = channel_to_json(KrausChannel((np.eye(2, dtype=complex) / np.sqrt(2),)))
        del obj["flags"]
        with pytest.raises(SchemaError, match=r"sum A\*A deviates from I by 0.5") as err:
            channel_from_json(obj)
        assert err.value.field == "channel"

    def test_unflagged_channel_need_not_be_unital(self):
        chan, _ = random_isometric_conjugation_channel(2, 3, np.random.default_rng(8))
        obj = channel_to_json(chan)
        del obj["flags"]
        assert not channel_from_json(obj).unital

    def test_claimed_unital_must_hold(self):
        chan, _ = random_isometric_conjugation_channel(2, 3, np.random.default_rng(8))
        obj = channel_to_json(chan)
        obj["flags"]["unital"] = True
        with pytest.raises(SchemaError, match="flagged unital but sum AA. deviates") as err:
            channel_from_json(obj)
        assert err.value.field == "channel"

    @pytest.mark.parametrize("value", ["false", [], 0, None], ids=["string", "list", "zero", "null"])
    @pytest.mark.parametrize("key", ["trace_preserving", "unital"])
    def test_flag_must_be_a_bool(self, key, value):
        obj = channel_to_json(random_bistochastic_channel(3, np.random.default_rng(9)))
        obj["flags"][key] = value
        with pytest.raises(SchemaError, match="expected bool") as err:
            channel_from_json(obj)
        assert err.value.field == f"channel.flags.{key}"

    def test_flags_are_written_as_measured(self):
        half = KrausChannel((np.eye(2, dtype=complex) / np.sqrt(2),))
        obj = channel_to_json(half)
        assert obj["flags"] == {"trace_preserving": False, "unital": False}
        assert not channel_from_json(obj).trace_preserving
        # an unclaimed flag does not hide what the operators measure
        obj = channel_to_json(random_bistochastic_channel(3, np.random.default_rng(9)))
        obj["flags"] = {"unital": False}
        assert channel_from_json(obj).unital


class TestUnknownKeysRefused:
    """Each reader refuses a key outside its schema and names it, so that a misspelled
    field is an error and not a check skipped."""

    CHANNEL = channel_to_json(random_bistochastic_channel(3, np.random.default_rng(9)))
    READERS = {  # the reader, a value it reads, and the object of that value to add a key to
        "vector": (prob_vector_from_json, prob_vector_to_json(ProbVector([0.5, 0.5])), ()),
        "real matrix": (real_matrix_from_json, real_matrix_to_json(np.eye(2)), ()),
        "complex matrix": (complex_matrix_from_json, complex_matrix_to_json(np.eye(2)), ()),
        "state": (density_from_json,
                  serial.density_to_json(DensityMatrix(np.eye(2, dtype=complex) / 2)), ()),
        "channel": (channel_from_json, CHANNEL, ()),
        "flags": (channel_from_json, CHANNEL, ("flags",)),
        "kraus operator": (channel_from_json, CHANNEL, ("kraus", 1)),
    }

    @pytest.mark.parametrize("name", sorted(READERS))
    def test_an_unknown_key_is_named(self, name):
        read, obj, path = self.READERS[name]
        read(obj, "x")
        with pytest.raises(SchemaError, match=r"unknown field \(known: ") as err:
            read(_replaced(obj, (*path, "normalised"), True), "x")
        where = "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in path)
        assert err.value.field == f"x{where}.normalised"

    def test_only_a_state_takes_kind_and_only_as_density(self):
        rho = serial.density_to_json(DensityMatrix(np.eye(2, dtype=complex) / 2))
        with pytest.raises(SchemaError, match="unknown field") as err:
            complex_matrix_from_json(rho, "x")
        assert err.value.field == "x.kind"
        for kind in ("state", None, 1):
            with pytest.raises(SchemaError, match='^x.kind: expected "density"$'):
                density_from_json({**rho, "kind": kind}, "x")


class TestWriter:
    def test_save_json_writes_the_sorted_one_line_report_form(self, tmp_path):
        phi = random_bistochastic_channel(2, np.random.default_rng(5))
        path = tmp_path / "chan.json"
        save_json(phi, path)
        expected = json.dumps(channel_to_json(phi), sort_keys=True) + "\n"
        assert path.read_bytes() == expected.encode("utf-8")

    @pytest.mark.parametrize("shape", [(3, 2), (3,), (2, 2, 2), (0, 0)])
    def test_real_writer_refuses_what_its_schema_cannot_hold(self, shape, tmp_path):
        arr = np.ones(shape)
        with pytest.raises(ValueError):
            real_matrix_to_json(arr)
        with pytest.raises(ValueError):
            save_json(arr, tmp_path / "m.json")

    @pytest.mark.parametrize("shape", [(3,), (2, 2, 2), (0, 3)])
    def test_complex_writer_refuses_what_its_schema_cannot_hold(self, shape, tmp_path):
        arr = np.ones(shape, dtype=complex)
        with pytest.raises(ValueError):
            complex_matrix_to_json(arr)
        with pytest.raises(ValueError):
            save_json(arr, tmp_path / "m.json")

    def test_non_finite_entries_are_refused_and_leave_no_file(self, tmp_path):
        path = tmp_path / "nan.json"
        with pytest.raises(ValueError):
            save_json(np.array([[np.nan, 1.0], [1.0, np.inf]]), path)
        assert not path.exists()
        with pytest.raises(ValueError):
            dumps_report({"defect": float("inf")})


class TestScalarFidelity:
    def test_doubles_round_trip_exactly(self, tmp_path):
        rng = np.random.default_rng(7)
        values = rng.standard_normal(32) / 3.0
        p = ProbVector(np.abs(values))
        path = tmp_path / "pv.json"
        save_json(p, path)
        raw = json.loads(path.read_text())
        np.testing.assert_array_equal(np.array(raw["entries"]), p.entries)


def _reprs(nested) -> list[str]:
    """The repr of every number in a nested list, in row-major order."""
    if isinstance(nested, list):
        return [r for x in nested for r in _reprs(x)]
    return [repr(nested)]


class TestValueFidelity:
    """Every number written reads back with the repr of the double the library holds."""

    SPECIAL = [-0.0, 5e-324, 1.7976931348623157e308]

    def _read_back(self, value, tmp_path):
        path = tmp_path / "value.json"
        save_json(value, path)
        return json.loads(path.read_text())

    def test_complex_matrix(self, tmp_path):
        rng = np.random.default_rng(11)
        parts = np.concatenate([self.SPECIAL, -np.array(self.SPECIAL), rng.standard_normal(18)])
        m = parts.view(complex).reshape(3, 4)  # consecutive parts are (re, im)
        raw = self._read_back(m, tmp_path)
        assert _reprs(raw["rows"]) == [repr(float(x)) for x in parts]
        assert raw["rows"][0][0] == [-0.0, 5e-324] and repr(raw["rows"][0][0][0]) == "-0.0"

    def test_real_matrix(self, tmp_path):
        rng = np.random.default_rng(12)
        m = np.concatenate([self.SPECIAL, rng.standard_normal(13) * 1e-3]).reshape(4, 4)
        raw = self._read_back(m, tmp_path)
        assert _reprs(raw["rows"]) == [repr(float(x)) for x in m.ravel()]

    def test_prob_vector(self, tmp_path):
        rng = np.random.default_rng(13)
        p = ProbVector(np.concatenate([self.SPECIAL, rng.random(9)]))
        raw = self._read_back(p, tmp_path)
        assert _reprs(raw["entries"]) == [repr(float(x)) for x in p.entries]
        assert repr(raw["entries"][0]) == "-0.0"

    def test_birkhoff_mixture(self, tmp_path):
        # weights are positive and sum to one, so 5e-324 is the only special value they take
        rng = np.random.default_rng(14)
        w = rng.random(4)
        weights = np.append(w / w.sum(), 5e-324)
        perms = np.array([rng.permutation(5) for _ in range(5)])
        dec = decomposition_of_stack(weights, perms)
        raw = self._read_back(dec, tmp_path)
        assert _reprs(raw["weights"]) == [repr(float(x)) for x in dec.weights]
        assert raw["weights"][-1] == 5e-324
        assert raw["first"] == [int(x) for x in perms[0]]
        assert raw["changes"] == _columns([[t, r, int(perms[t, r])] for t in range(1, 5)
                                           for r in range(5) if perms[t, r] != perms[t - 1, r]])
        assert all(type(x) is int for x in raw["first"] + sum(raw["changes"].values(), []))


def _chain_decomposition(d, seed):
    a, b = random_majorized_pair(d, np.random.default_rng(seed))
    return birkhoff_decompose(chain_to_doubly_stochastic(find_transfer_chain(a, b)))


def _cyclic_mixture(d, k):
    """(I + C + ... + C^(k-1)) / k for the cyclic shift C: k tied terms of weight 1/k."""
    return sum(np.roll(np.eye(d), j, axis=1) for j in range(k)) / k


def _columns(triples):
    """The written form of a list of [term, row, col] changes: three int columns."""
    return {key: [change[k] for change in triples] for k, key in enumerate(("term", "row", "col"))}


def _triples(changes):
    """The [term, row, col] changes of their written columns."""
    return [list(change) for change in zip(changes["term"], changes["row"], changes["col"])]


def _replay(first, changes, k):
    """The permutations of a written change list, rebuilt term by term."""
    by_term = {}
    for term, row, col in _triples(changes):
        by_term.setdefault(term, []).append((row, col))
    perms = [list(first)]
    for t in range(1, k):
        perm = list(perms[-1])
        for row, col in by_term.get(t, ()):
            perm[row] = col
        perms.append(perm)
    return perms


class TestBirkhoffWire:
    """A Birkhoff report holds the weights, the first permutation and, for each later
    term, the rows whose column differs from the term before."""

    def assert_round_trip(self, dec):
        obj = json.loads(dumps_report(birkhoff_to_json(dec)))
        assert np.array(obj["weights"]).tobytes() == dec.weights.tobytes()
        assert _replay(obj["first"], obj["changes"], len(dec.weights)) == dec.permutations.tolist()
        return obj

    @pytest.mark.parametrize("d", [1, 2, 32, 128, 256])
    def test_chain_matrices_round_trip(self, d):
        obj = self.assert_round_trip(_chain_decomposition(d, 2000 + d))
        assert sorted(obj) == ["changes", "first", "weights"]

    @pytest.mark.parametrize("q", [np.full((d, d), 1 / d) for d in (2, 5, 16, 40)]
                             + [_cyclic_mixture(50, k) for k in (2, 3, 5)],
                             ids=[f"flat-{d}" for d in (2, 5, 16, 40)]
                             + [f"cyclic-{k}" for k in (2, 3, 5)])
    def test_tied_mixtures_round_trip(self, q):
        self.assert_round_trip(birkhoff_decompose(q))

    @pytest.mark.parametrize("d", [1, 4])
    def test_one_term_identity_has_no_changes(self, d):
        obj = self.assert_round_trip(birkhoff_decompose(np.eye(d)))
        assert obj == {"weights": [1.0], "first": list(range(d)),
                       "changes": {"term": [], "row": [], "col": []}}

    def test_changes_are_exactly_the_rows_that_differ(self):
        dec = _chain_decomposition(32, 7)
        obj = birkhoff_to_json(dec)
        perms = dec.permutations.tolist()
        assert obj["changes"] == _columns([[t, r, perms[t][r]] for t in range(1, len(perms))
                                           for r in range(32) if perms[t][r] != perms[t - 1][r]])
        assert _replay(obj["first"], obj["changes"], len(perms)) == perms

    def test_report_is_a_quarter_of_the_full_stack_at_d128(self, tmp_path):
        dec = _chain_decomposition(128, 128)
        matrix = tmp_path / "q.json"
        save_json(dec.matrix(), matrix)
        out = tmp_path / "report.json"
        assert main(["birkhoff", "--in", str(matrix), "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        perms = _replay(report["first"], report["changes"], len(report["weights"]))
        full = {key: value for key, value in report.items()
                if key not in ("weights", "first", "changes")}
        full["terms"] = [{"weight": w, "perm": p} for w, p in zip(report["weights"], perms)]
        assert 4 * len(dumps_report(report)) <= len(dumps_report(full))

    def test_hand_mixture_is_written_as_its_changes(self):
        dec = decomposition_of_stack([0.5, 0.25, 0.25], ([0, 1, 2], [1, 0, 2], [1, 2, 0]))
        assert self.assert_round_trip(dec) == {
            "weights": [0.5, 0.25, 0.25], "first": [0, 1, 2],
            "changes": {"term": [1, 1, 2, 2], "row": [0, 1, 1, 2], "col": [1, 0, 2, 0]}}

    def test_a_repeated_term_is_refused(self):
        # birkhoff_decompose never repeats a permutation, and a term with no change has no
        # wire form
        with pytest.raises(InvalidValue, match="term 1 has no change"):
            decomposition_of_stack([0.5, 0.25, 0.25], ([1, 0, 2], [1, 0, 2], [0, 1, 2]))


def _pair_file(tmp_path, d, seed):
    """A seeded majorized pair (a, b) and the path of its bundle."""
    a, b = random_majorized_pair(d, np.random.default_rng(seed))
    path = tmp_path / "pair.json"
    path.write_text(dumps_report({"a": prob_vector_to_json(a), "b": prob_vector_to_json(b)}))
    return a, b, path


def _report(sub, path, tmp_path) -> dict:
    out = tmp_path / f"{sub}.json"
    assert main([sub, "--in", str(path), "--out", str(out)]) == 0
    return json.loads(out.read_text())


class TestSchurHornWire:
    """A schur-horn report holds the transfer chain, read as plane rotations that rebuild
    the orthogonal matrix bit for bit."""

    @pytest.mark.parametrize("d", [1, 2, 32, 128, 256])
    def test_rotations_rebuild_the_matrix_bit_for_bit(self, tmp_path, d):
        a, b, path = _pair_file(tmp_path, d, 3000 + d)
        report = _report("schur-horn", path, tmp_path)
        assert sorted(report) == ["rotations", "subcommand", "tolerances", "verified", "version"]
        u = orthogonal_of_rotations(report["rotations"]).entries
        assert u.tobytes() == schur_horn_orthogonal(a, b).entries.tobytes()
        assert report["verified"]["orthogonality_defect"] == isometry_defect(u)

    @pytest.mark.parametrize("d", [1, 2, 32, 128])
    def test_rotations_are_the_transfer_chain(self, tmp_path, d):
        _, _, path = _pair_file(tmp_path, d, 4000 + d)
        rotations = _report("schur-horn", path, tmp_path)["rotations"]
        assert rotations == _report("transfer", path, tmp_path)["chain"]

    def test_report_is_a_twentieth_of_the_dense_matrix_at_d128(self, tmp_path):
        _, _, path = _pair_file(tmp_path, 128, 128)
        report = _report("schur-horn", path, tmp_path)
        dense = {key: value for key, value in report.items() if key != "rotations"}
        dense.update(real_matrix_to_json(orthogonal_of_rotations(report["rotations"])))
        assert 20 * len(dumps_report(report)) <= len(dumps_report(dense))


@st.composite
def _mixtures(draw):
    """A BirkhoffDecomposition of up to the term bound of random permutations of 0..d-1,
    each differing from the one before and possibly equal to an earlier one."""
    d = draw(st.integers(1, 5))
    k = draw(st.integers(1, (d - 1) ** 2 + 1))
    drawn = draw(st.lists(st.permutations(range(d)), min_size=k, max_size=k))
    perms = [p for t, p in enumerate(drawn) if t == 0 or p != drawn[t - 1]]
    weights = draw(st.lists(st.integers(1, 8), min_size=len(perms), max_size=len(perms)))
    return decomposition_of_stack(np.array(weights) / sum(weights), perms)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(dec=_mixtures())
def test_any_mixture_is_written_as_the_rows_that_change(dec):
    obj = birkhoff_to_json(dec)
    assert obj["weights"] == dec.weights.tolist()
    perms = dec.permutations.tolist()
    changes = _triples(obj["changes"])
    keys = [(term, row) for term, row, _ in changes]
    assert keys == sorted(set(keys))
    assert all(perms[term - 1][row] != col for term, row, col in changes)
    assert sorted(obj["changes"]) == ["col", "row", "term"]
    assert {type(x) for column in obj["changes"].values() for x in column} <= {int}
    assert _replay(obj["first"], obj["changes"], len(perms)) == perms


BAD_LEAVES = ["true", '"1"', "null", "1e400"]


def _replaced(obj, path, new):
    """A copy of obj with the value at `path` replaced by `new`."""
    obj = json.loads(json.dumps(obj))
    parent = obj
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = new
    return obj


def _leaf_text(obj, path, literal) -> str:
    """obj as JSON text, with the value at `path` replaced by the JSON text `literal`."""
    return json.dumps(_replaced(obj, path, "LEAF")).replace('"LEAF"', literal)


def _with_leaf(obj, path, literal):
    """obj with the value at `path` replaced by the JSON text `literal`, read by json."""
    return json.loads(_leaf_text(obj, path, literal))


class TestOneCallReadersNameTheSameField:
    """A leaf that np.array would read as a number, or could not read, is still refused by
    the per-entry path, which names it as before the one-call readers."""

    REAL = real_matrix_to_json(np.full((3, 3), 1 / 3))
    COMPLEX = complex_matrix_to_json(np.eye(3) / 3)
    CHANNEL = channel_to_json(random_bistochastic_channel(3, np.random.default_rng(9)))
    VECTOR = prob_vector_to_json(ProbVector([0.25, 0.25, 0.5], normalized=True))

    @staticmethod
    def assert_refused(read, obj, field, message="expected a finite number"):
        with pytest.raises(SchemaError) as err:
            read(obj)
        assert str(err.value) == f"{field}: {message}"

    @pytest.mark.parametrize("literal", BAD_LEAVES)
    def test_real_matrix(self, literal):
        self.assert_refused(real_matrix_from_json, _with_leaf(self.REAL, ("rows", 1, 2), literal),
                            "matrix.rows[1][2]")

    @pytest.mark.parametrize("part", [0, 1])
    @pytest.mark.parametrize("literal", BAD_LEAVES)
    def test_complex_matrix(self, literal, part):
        obj = _with_leaf(self.COMPLEX, ("rows", 1, 2, part), literal)
        self.assert_refused(complex_matrix_from_json, obj, "matrix.rows[1][2]")

    @pytest.mark.parametrize("literal", BAD_LEAVES)
    def test_kraus_list(self, literal):
        obj = _with_leaf(self.CHANNEL, ("kraus", 1, "rows", 0, 2, 1), literal)
        self.assert_refused(channel_from_json, obj, "channel.kraus[1].rows[0][2]")

    @pytest.mark.parametrize("literal", BAD_LEAVES)
    def test_prob_vector(self, literal):
        obj = _with_leaf(self.VECTOR, ("entries", 2), literal)
        self.assert_refused(prob_vector_from_json, obj, "prob_vector.entries[2]")

    def test_ragged_rows(self):
        obj = json.loads(json.dumps(self.REAL))
        obj["rows"][1].append(0.0)
        self.assert_refused(real_matrix_from_json, obj, "matrix.rows[1]", "expected 3 entries")
        obj = json.loads(json.dumps(self.COMPLEX))
        del obj["rows"][2][0]
        self.assert_refused(complex_matrix_from_json, obj, "matrix.rows[2]", "expected 3 entries")
        obj = json.loads(json.dumps(self.CHANNEL))
        obj["kraus"][1]["rows"][2].append([0.0, 0.0])
        self.assert_refused(channel_from_json, obj, "channel.kraus[1].rows[2]",
                            "expected 3 entries")
        self.assert_refused(prob_vector_from_json, {"entries": [0.5, [0.5]]},
                            "prob_vector.entries[1]")

    def test_kraus_operators_of_other_shapes_are_read_one_by_one(self):
        obj = json.loads(json.dumps(self.CHANNEL))
        obj["kraus"][1]["d_rows"] = True
        self.assert_refused(channel_from_json, obj, "channel.kraus[1].d_rows", "expected int")


def _fixture_inputs() -> dict:
    """The determinism fixture's inputs by name, such as "gen channel --d 4 --seed 7"."""
    with gzip.open(pathlib.Path(__file__).parent / "fixtures" / "determinism.json.gz") as fh:
        return json.load(fh)["inputs"]


def _fixture_values():
    """Every vector, real matrix, complex matrix and Kraus list among the determinism
    fixture's inputs, as (schema, value)."""
    inputs = _fixture_inputs()
    found = []

    def walk(value):
        if isinstance(value, dict):
            if "entries" in value:
                found.append(("vector", value))
            elif "d" in value and "rows" in value:
                found.append(("real", value))
            elif "d_rows" in value:
                found.append(("complex", value))
            elif "kraus" in value:
                found.append(("kraus", value))
            for item in value.values():
                walk(item)
        elif isinstance(value, list):
            for item in value:
                walk(item)

    walk(inputs)
    return found


# The flat reader's shapes per schema: a vector, a real matrix, a complex matrix of
# [re, im] pairs and a stack of two such matrices, as each reader calls it.
FLAT_SHAPES = {"vector": (5,), "real": (3, 3), "complex": (2, 3, 2), "kraus": (2, 2, 3, 2)}
MAX = sys.float_info.max
REFUSED_LEAVES = [True, False, "1", None, {}, [], [0.5], 2**1024, -2**1024, 10**400, MAX, -MAX]
ROUNDED_LEAVES = [2**53 + 1, 2**63, -2**63 - 1, 10**308]


def _nested(shape, leaf=0.25):
    return [leaf] * shape[0] if len(shape) == 1 else [_nested(shape[1:], leaf)
                                                       for _ in range(shape[0])]


def _leaf_paths(shape):
    """The first, a middle and the last leaf of a value of `shape`."""
    return [tuple(0 for _ in shape), tuple(n // 2 for n in shape), tuple(n - 1 for n in shape)]


def _read_each(schema, values, shape):
    """The per-entry path's array of `values`, or None where that path refuses them."""
    try:
        if schema == "vector":
            return np.array([serial._number(x, "entries", k) for k, x in enumerate(values)])
        if schema == "kraus":
            if len(values) != shape[0] or not all(isinstance(op, list) for op in values):
                return None
            return np.array([serial._rows_each(op, "rows", *shape[1:3], serial._pair)
                             for op in values])
        entry = serial._number if schema == "real" else serial._pair
        return serial._rows_each(values, "rows", *shape[:2], entry)
    except SchemaError:
        return None


@pytest.mark.parametrize("schema", ["vector", "real", "complex", "kraus"])
def test_one_call_reads_every_fixture_input_as_the_per_entry_path(schema):
    values = [value for kind, value in _fixture_values() if kind == schema]
    assert values
    for value in values:
        if schema == "vector":
            rows = value["entries"]
            shape = (len(rows),)
        elif schema == "kraus":
            rows = [op["rows"] for op in value["kraus"]]
            shape = (len(rows), value["d_out"], value["d_in"], 2)
        else:
            rows = value["rows"]
            shape = (value["d"],) * 2 if schema == "real" else (value["d_rows"],
                                                                value["d_cols"], 2)
        at_once, each = serial._numbers_at_once(rows, shape), _read_each(schema, rows, shape)
        assert at_once is not None and each is not None
        assert at_once.dtype == each.dtype and at_once.shape == each.shape
        assert at_once.tobytes() == each.tobytes()


class TestFlatReaderRefusals:
    """`_numbers_at_once` returns None on every malformed value, so the per-entry path
    reads it again and names the first bad field; what it accepts, the per-entry path
    reads to the same bits."""

    @pytest.mark.parametrize("schema", FLAT_SHAPES)
    @pytest.mark.parametrize("leaf", REFUSED_LEAVES, ids=repr)
    def test_a_bad_leaf_is_refused(self, schema, leaf):
        shape = FLAT_SHAPES[schema]
        for path in _leaf_paths(shape):
            assert serial._numbers_at_once(_replaced(_nested(shape), path, leaf), shape) is None

    @pytest.mark.parametrize("schema", FLAT_SHAPES)
    def test_a_ragged_level_is_refused(self, schema):
        shape = FLAT_SHAPES[schema]
        for depth in range(len(shape)):
            level = _nested(shape[depth:])  # the first list at this depth
            for ragged in [level + level[:1], level[1:]] + [0.25] * (depth > 0):
                value = _replaced(_nested(shape), (0,) * depth, ragged) if depth else ragged
                assert serial._numbers_at_once(value, shape) is None
                if schema != "vector":  # a vector's reader takes its length as its shape
                    assert _read_each(schema, value, shape) is None

    @pytest.mark.parametrize("schema", FLAT_SHAPES)
    @pytest.mark.parametrize("leaf", ROUNDED_LEAVES, ids=repr)
    def test_a_large_integer_reads_as_its_double(self, schema, leaf):
        shape = FLAT_SHAPES[schema]
        for path in _leaf_paths(shape):
            value = _replaced(_nested(shape), path, leaf)
            arr = serial._numbers_at_once(value, shape)
            assert arr.shape == shape and arr[path] == float(leaf)
            assert arr.tobytes() == _read_each(schema, value, shape).tobytes()

    def test_the_empty_vector_is_refused(self):
        assert serial._numbers_at_once([], (0,)) is None
        with pytest.raises(SchemaError, match="non-empty"):
            prob_vector_from_json({"entries": []})

    @pytest.mark.parametrize("kind,sub,path,field", [
        ("channel", "detect-isometry", ("kraus", 1, "rows", 0, 2, 1), ".kraus[1].rows[0][2]"),
        ("state", "entropy", ("rows", 2, 1, 0), ".rows[2][1]"),
        ("pair", "majorize", ("b", "entries", 2), ".b.entries[2]"),
    ])
    @pytest.mark.parametrize("literal", ["true", '"1"', "null", "{}", "1e400", str(2**1024)])
    def test_the_cli_names_the_bad_field(self, tmp_path, capsys, kind, sub, path, field,
                                         literal):
        src = tmp_path / "gen.json"
        assert main(["gen", kind, "--d", "3", "--seed", "4", "--out", str(src)]) == 0
        bad = tmp_path / "bad.json"
        bad.write_text(_leaf_text(read_json(src), path, literal))
        capsys.readouterr()
        assert main([sub, "--in", str(bad)]) == 2
        assert capsys.readouterr().err == f"error: {bad}{field}: expected a finite number\n"

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_what_it_reads_the_per_entry_path_reads_to_the_same_bits(self, data):
        schema = data.draw(st.sampled_from(list(FLAT_SHAPES)))
        shape = FLAT_SHAPES[schema]
        value = _nested(shape)
        leaves = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                           st.integers(-2**1100, 2**1100), st.sampled_from(REFUSED_LEAVES))
        for _ in range(data.draw(st.integers(0, 3))):
            path = data.draw(st.sampled_from(_leaf_paths(shape)))
            value = _replaced(value, path, data.draw(leaves))
        arr, each = serial._numbers_at_once(value, shape), _read_each(schema, value, shape)
        if each is None:
            assert arr is None
        elif arr is not None:
            assert arr.tobytes() == each.tobytes()


GEN_CHANNELS = {name: value for name, value in _fixture_inputs().items()
                if name.startswith("gen channel")}


class TestWritersKeepTheirBytes:
    """The one-tolist channel writer and the report writer without its cycle check write
    the bytes of the per-operator writer and of the cycle-checked encoder."""

    @pytest.mark.parametrize("name", GEN_CHANNELS)
    def test_channel_is_written_as_its_operators_one_by_one(self, name):
        phi = channel_from_json(GEN_CHANNELS[name])
        per_operator = {"d_in": phi.d_in, "d_out": phi.d_out,
                        "kraus": [complex_matrix_to_json(a) for a in phi.kraus],
                        "flags": {"trace_preserving": phi.trace_preserving,
                                  "unital": phi.unital}}
        text = dumps_report(channel_to_json(phi))
        assert text == json.dumps(per_operator, sort_keys=True) + "\n"
        assert text == json.dumps(GEN_CHANNELS[name], sort_keys=True) + "\n"

    def test_every_report_is_the_cycle_checked_encoders_text(self, tmp_path, capsys,
                                                               monkeypatch):
        written = []

        def checked(obj):
            text = dumps_report(obj)
            assert text == json.dumps(obj, sort_keys=True, allow_nan=False) + "\n"
            written.append(text)
            return text

        monkeypatch.setattr(cli, "dumps_report", checked)
        monkeypatch.setattr(serial, "dumps_report", checked)
        runs = {"state": ["entropy"], "pair": ["majorize", "transfer", "schur-horn"],
                "state-pair": ["uhlmann", "mixed-unitary"],
                "channel": ["detect-isometry", "probe-entropy"]}
        for kind, subs in runs.items():
            path = str(tmp_path / f"{kind}.json")
            assert main(["gen", kind, "--d", "3", "--seed", "2", "--out", path]) == 0
            for sub in subs:
                assert main([sub, "--in", path]) == 0
        pair = read_json(tmp_path / "pair.json")
        swapped = tmp_path / "swapped.json"
        swapped.write_text(json.dumps({"a": pair["b"], "b": pair["a"]}))
        assert main(["transfer", "--in", str(swapped)]) == 1  # the error report
        a, b = (prob_vector_from_json(pair[k]) for k in "ab")
        matrix = chain_to_doubly_stochastic(find_transfer_chain(a, b))
        save_json(matrix, tmp_path / "matrix.json")
        assert main(["birkhoff", "--in", str(tmp_path / "matrix.json")]) == 0
        capsys.readouterr()
        assert len(written) == 4 + 8 + 1 + 2

    def test_a_shared_subtree_is_written_each_time(self):
        row = [0.5, -0.0]
        assert dumps_report({"b": row, "a": [row, row]}) == \
            '{"a": [[0.5, -0.0], [0.5, -0.0]], "b": [0.5, -0.0]}\n'
