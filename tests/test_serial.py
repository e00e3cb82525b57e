import json

import numpy as np
import pytest

from entmaj.densop import DensityMatrix, random_density
from entmaj.errors import SchemaError
from entmaj.qchan import random_bistochastic_channel, random_isometric_conjugation_channel
from entmaj.seqmaj import ProbVector, random_majorized_pair
from entmaj.serial import (
    birkhoff_from_json,
    birkhoff_to_json,
    chain_from_json,
    chain_to_json,
    channel_from_json,
    channel_to_json,
    complex_matrix_from_json,
    complex_matrix_to_json,
    density_from_json,
    from_json_value,
    load_json,
    prob_vector_from_json,
    prob_vector_to_json,
    real_matrix_from_json,
    real_matrix_to_json,
    save_json,
)
from entmaj.xfer import birkhoff_decompose, chain_to_doubly_stochastic, find_transfer_chain


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
        back = load_json(path)
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
        back = chain_from_json(chain_to_json(chain))
        assert back == chain

    def test_birkhoff(self):
        a, b = random_majorized_pair(5, np.random.default_rng(6))
        q = chain_to_doubly_stochastic(find_transfer_chain(a, b))
        dec = birkhoff_decompose(q)
        back = birkhoff_from_json(birkhoff_to_json(dec))
        np.testing.assert_array_equal(back.weights, dec.weights)
        for p, q_ in zip(back.permutations, dec.permutations):
            np.testing.assert_array_equal(p, q_)


class TestSchemaErrors:
    def test_malformed_json_reports_location(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"entries": [0.5,')
        with pytest.raises(SchemaError) as err:
            load_json(path)
        assert "line" in str(err.value)

    def test_missing_field_named(self):
        with pytest.raises(SchemaError) as err:
            prob_vector_from_json({"values": [1.0]})
        assert "entries" in str(err.value)

    def test_bad_entry_indexed(self):
        with pytest.raises(SchemaError) as err:
            prob_vector_from_json({"entries": [0.5, "x"]})
        assert "entries[1]" in str(err.value)

    def test_non_hermitian_density_names_worst_pair(self):
        obj = complex_matrix_to_json(np.array([[0.5, 0.3], [0.0, 0.5]], dtype=complex),
                                     kind="density")
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

    def test_unrecognized_schema(self):
        with pytest.raises(SchemaError):
            from_json_value({"mystery": 1})


class TestWriter:
    def test_save_json_writes_the_sorted_indented_report_form(self, tmp_path):
        phi = random_bistochastic_channel(2, np.random.default_rng(5))
        path = tmp_path / "chan.json"
        save_json(phi, path)
        expected = json.dumps(channel_to_json(phi), indent=2, sort_keys=True) + "\n"
        assert path.read_bytes() == expected.encode("utf-8")


class TestScalarFidelity:
    def test_doubles_round_trip_exactly(self, tmp_path):
        rng = np.random.default_rng(7)
        values = rng.standard_normal(32) / 3.0
        p = ProbVector(np.abs(values))
        path = tmp_path / "pv.json"
        save_json(p, path)
        raw = json.loads(path.read_text())
        np.testing.assert_array_equal(np.array(raw["entries"]), p.entries)
