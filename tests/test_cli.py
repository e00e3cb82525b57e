import contextlib
import io
import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entmaj.cli import main
from entmaj.densop import DensityMatrix, random_density
from entmaj.serial import (complex_matrix_to_json, density_to_json, load_json,
                           real_matrix_to_json, save_json)
from entmaj.qchan import KrausChannel, random_isometric_conjugation_channel


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def write_json(path, obj):
    path.write_text(json.dumps(obj))


def _refuse_constant(token):
    raise ValueError(f"{token} is not standard JSON")


class TestEntropy:
    def test_uniform_pair(self, tmp_path, capsys):
        p = tmp_path / "pv.json"
        write_json(p, {"entries": [0.5, 0.5]})
        rc, out, _ = run(capsys, "entropy", "--in", str(p))
        assert rc == 0
        report = json.loads(out)
        assert report["shannon_bits"] == 1.0
        assert report["version"]
        assert "tolerances" in report and "verified" in report

    def test_density_input(self, tmp_path, capsys):
        p = tmp_path / "rho.json"
        save_json(DensityMatrix(np.diag([0.75, 0.25]).astype(complex)), p)
        rc, out, _ = run(capsys, "entropy", "--in", str(p))
        assert rc == 0
        assert json.loads(out)["shannon_bits"] == pytest.approx(0.8112781244591328)


class TestMajorize:
    def test_violation_report_and_require(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        write_json(a, {"entries": [0.6, 0.4]})
        write_json(b, {"entries": [0.5, 0.5]})
        rc, out, _ = run(capsys, "majorize", "--in", str(a), "--in", str(b))
        assert rc == 0
        report = json.loads(out)
        assert report["holds"] is False
        assert report["first_violation"] == {"k": 1, "lhs": 0.6, "rhs": 0.5}
        rc, _, _ = run(capsys, "majorize", "--in", str(a), "--in", str(b), "--require")
        assert rc == 1

    def test_holds(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        write_json(a, {"entries": [0.5, 0.5]})
        write_json(b, {"entries": [0.75, 0.25]})
        rc, out, _ = run(capsys, "majorize", "--in", str(a), "--in", str(b), "--require")
        assert rc == 0
        assert json.loads(out)["holds"] is True


class TestTransferAndFriends:
    def test_transfer_report(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        write_json(a, {"entries": [0.5, 0.25, 0.25]})
        write_json(b, {"entries": [0.5, 0.5, 0.0]})
        rc, out, _ = run(capsys, "transfer", "--in", str(a), "--in", str(b))
        assert rc == 0
        report = json.loads(out)
        assert report["chain"]["steps"] == [{"i": 1, "j": 2, "t": 0.5}]
        assert report["verified"]["ok_replay"] is True

    def test_transfer_rejects_non_majorized(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        write_json(a, {"entries": [0.6, 0.4]})
        write_json(b, {"entries": [0.5, 0.5]})
        rc, out, _ = run(capsys, "transfer", "--in", str(a), "--in", str(b))
        assert rc == 1
        report = json.loads(out)
        assert report["error"] == "MajorizationFailed"
        assert report["verdict"]["first_violation"]["k"] == 1

    def test_birkhoff_roundtrip(self, tmp_path, capsys):
        q = tmp_path / "q.json"
        write_json(q, {"d": 2, "rows": [[0.5, 0.5], [0.5, 0.5]]})
        rc, out, _ = run(capsys, "birkhoff", "--in", str(q))
        assert rc == 0
        report = json.loads(out)
        assert report["verified"]["ok_reconstruction"] is True
        assert len(report["terms"]) == 2

    def test_schur_horn(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        write_json(a, {"entries": [0.5, 0.5]})
        write_json(b, {"entries": [1.0, 0.0]})
        rc, out, _ = run(capsys, "schur-horn", "--in", str(a), "--in", str(b))
        assert rc == 0
        report = json.loads(out)
        assert report["verified"]["ok_diagonal"] is True
        s = np.sqrt(0.5)
        np.testing.assert_allclose(report["rows"], [[s, -s], [s, s]], atol=1e-12)


class TestStatePipelines:
    def test_uhlmann_end_to_end(self, tmp_path, capsys):
        r1 = tmp_path / "rho1.json"
        r2 = tmp_path / "rho2.json"
        write_json(r1, density_to_json(DensityMatrix(np.eye(2, dtype=complex) / 2)))
        write_json(r2, density_to_json(DensityMatrix(np.diag([1.0, 0.0]).astype(complex))))
        rc, out, _ = run(capsys, "uhlmann", "--in", str(r1), "--in", str(r2))
        assert rc == 0
        report = json.loads(out)
        assert report["verified"]["trace_distance"] <= 1e-7
        assert report["verified"]["ok_trace_distance"] is True

    def test_gen_then_mixed_unitary(self, tmp_path, capsys):
        bundle = tmp_path / "pair.json"
        rc, _, _ = run(capsys, "gen", "state-pair", "--d", "4", "--seed", "5",
                       "--out", str(bundle))
        assert rc == 0
        rc, out, _ = run(capsys, "mixed-unitary", "--in", str(bundle))
        assert rc == 0
        report = json.loads(out)
        assert report["verified"]["ok_trace_distance"] is True
        assert report["verified"]["ok_term_bound"] is True

    def test_pinch_converge_csv(self, tmp_path, capsys):
        rho = tmp_path / "rho.json"
        out_path = tmp_path / "table.csv"
        save_json(random_density(4, np.random.default_rng(3)), rho)
        rc, _, _ = run(capsys, "pinch-converge", "--in", str(rho),
                       "--out", str(out_path))
        assert rc == 0
        lines = out_path.read_text().splitlines()
        assert lines[0].startswith("#")
        assert lines[1] == "n,trace_distance,bound"
        rows = [line.split(",") for line in lines[2:]]
        assert [r[0] for r in rows] == ["1", "2", "3", "4"]
        assert float(rows[-1][1]) <= 1e-8

    def test_pinch_converge_basis_is_a_complex_matrix(self, tmp_path, capsys):
        rho = tmp_path / "rho.json"
        basis = tmp_path / "basis.json"
        save_json(random_density(2, np.random.default_rng(3)), rho)
        hadamard = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2)
        write_json(basis, complex_matrix_to_json(hadamard))
        rc, out, _ = run(capsys, "pinch-converge", "--in", str(rho), "--in", str(basis))
        assert rc == 0
        assert "ok_final=True" in out.splitlines()[0]
        write_json(basis, real_matrix_to_json(hadamard))
        rc, _, err = run(capsys, "pinch-converge", "--in", str(rho), "--in", str(basis))
        assert rc == 2
        assert err.startswith("error:")


class TestDetectorCli:
    def test_positive_and_expectation(self, tmp_path, capsys):
        chan, _ = random_isometric_conjugation_channel(
            2, 3, np.random.default_rng(4), num_terms=2)
        p = tmp_path / "chan.json"
        save_json(chan, p)
        rc, out, _ = run(capsys, "detect-isometry", "--in", str(p),
                         "--expect-isometry")
        assert rc == 0
        assert json.loads(out)["is_isometric_conjugation"] is True

    def test_negative_with_expectation_exits_one(self, tmp_path, capsys):
        z = np.diag([1.0, -1.0]).astype(complex)
        chan = KrausChannel(2, 2, (np.eye(2, dtype=complex) / np.sqrt(2), z / np.sqrt(2)),
                            trace_preserving=True, unital=True)
        p = tmp_path / "chan.json"
        save_json(chan, p)
        rc, out, _ = run(capsys, "detect-isometry", "--in", str(p))
        assert rc == 0
        report = json.loads(out)
        assert report["is_isometric_conjugation"] is False
        assert report["failure_witness"]["pair"] == [0, 1]
        rc, _, _ = run(capsys, "detect-isometry", "--in", str(p), "--expect-isometry")
        assert rc == 1

    def test_probe_entropy(self, tmp_path, capsys):
        z = np.diag([1.0, -1.0]).astype(complex)
        chan = KrausChannel(2, 2, (np.eye(2, dtype=complex) / np.sqrt(2), z / np.sqrt(2)),
                            trace_preserving=True, unital=True)
        p = tmp_path / "chan.json"
        save_json(chan, p)
        rc, out, _ = run(capsys, "probe-entropy", "--in", str(p), "--trials", "200",
                         "--seed", "9")
        assert rc == 0
        report = json.loads(out)
        assert report["max_abs_entropy_deviation"] >= 1e-3
        assert "worst_seed" in report


class TestGenAndErrors:
    def test_gen_deterministic_bytes(self, tmp_path, capsys):
        p1 = tmp_path / "s1.json"
        p2 = tmp_path / "s2.json"
        run(capsys, "gen", "state", "--d", "5", "--seed", "42", "--out", str(p1))
        run(capsys, "gen", "state", "--d", "5", "--seed", "42", "--out", str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_gen_outputs_are_loadable(self, tmp_path, capsys):
        p = tmp_path / "chan.json"
        run(capsys, "gen", "channel", "--d", "3", "--seed", "1", "--out", str(p))
        chan = load_json(p)
        assert isinstance(chan, KrausChannel)

    def test_malformed_input_exit_two(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        rc, _, err = run(capsys, "entropy", "--in", str(p))
        assert rc == 2
        assert "line" in err

    def test_missing_file_exit_two(self, capsys):
        rc, _, err = run(capsys, "entropy", "--in", "/nonexistent/x.json")
        assert rc == 2
        assert err

    def test_schema_violation_exit_two(self, tmp_path, capsys):
        p = tmp_path / "notherm.json"
        write_json(p, {"kind": "density", "d_rows": 2, "d_cols": 2,
                       "rows": [[[0.5, 0.0], [0.3, 0.0]],
                                [[0.0, 0.0], [0.5, 0.0]]]})
        rc, _, err = run(capsys, "entropy", "--in", str(p))
        assert rc == 2
        assert "(0, 1)" in err

    def test_unknown_subcommand_exit_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2


class TestInputRejection:
    def assert_clean_exit_two(self, rc, err):
        assert rc == 2
        assert err.startswith("error:")
        assert "Traceback" not in err

    def test_nan_channel_exit_two(self, tmp_path, capsys):
        p = tmp_path / "nan.json"
        nan_row = [[float("nan"), 0.0], [0.0, 0.0]]
        p.write_text(json.dumps({"d_in": 2, "d_out": 2,
                                 "kraus": [{"d_rows": 2, "d_cols": 2,
                                            "rows": [nan_row, nan_row]}],
                                 "flags": {"trace_preserving": True, "unital": False}}))
        for argv in (("detect-isometry", "--in", str(p)),
                     ("probe-entropy", "--in", str(p), "--trials", "3")):
            rc, _, err = run(capsys, *argv)
            self.assert_clean_exit_two(rc, err)

    @pytest.mark.parametrize("sub,kind", [("majorize", "pair"), ("uhlmann", "state-pair")])
    def test_truncated_bundle_exit_two(self, tmp_path, capsys, sub, kind):
        bundle = tmp_path / "bundle.json"
        run(capsys, "gen", kind, "--d", "3", "--out", str(bundle))
        bundle.write_text(bundle.read_text()[:40])
        rc, _, err = run(capsys, sub, "--in", str(bundle))
        self.assert_clean_exit_two(rc, err)

    @pytest.mark.parametrize("argv", [("probe-entropy", "--in", "c.json", "--trials", "0"),
                                      ("gen", "state", "--d", "0"),
                                      ("gen", "state", "--d", "-3")])
    def test_flag_below_one_exit_two(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2
        assert ">= 1" in capsys.readouterr().err


class TestDeclaredFlags:
    """Each subcommand parses only the flags its runner reads."""

    @pytest.mark.parametrize("argv", [
        ("entropy", "--in", "pv.json", "--tol", "0.5"),
        ("gen", "state", "--in", "x.json"),
        ("probe-entropy", "--in", "c.json", "--d", "3"),
        ("probe-entropy", "--in", "c.json", "--tol", "1e-3"),
        ("majorize", "--in", "pair.json", "--expect-isometry"),
        ("detect-isometry", "--in", "c.json", "--require"),
    ], ids=["entropy-tol", "gen-in", "probe-d", "probe-tol", "majorize-expect-isometry",
            "detect-require"])
    def test_undeclared_flag_exit_two(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_only_probe_entropy_reports_its_seed(self, tmp_path, capsys):
        chan = tmp_path / "chan.json"
        pair = tmp_path / "pair.json"
        run(capsys, "gen", "channel", "--d", "2", "--out", str(chan))
        run(capsys, "gen", "pair", "--d", "3", "--out", str(pair))
        _, out, _ = run(capsys, "probe-entropy", "--in", str(chan), "--trials", "3",
                        "--seed", "11")
        assert json.loads(out)["seed"] == 11
        _, out, _ = run(capsys, "majorize", "--in", str(pair))
        assert "seed" not in json.loads(out)


class TestExitCodeContract:
    """Every rejection exits 1 with a domain report or 2 with one `error:` line."""

    def assert_error_line(self, rc, out, err, code=2):
        assert rc == code
        assert out == ""
        assert err.startswith("error:") and len(err.splitlines()) == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("sub,text", [
        ("entropy", '{"kind": "density", "d_rows": 2, "d_cols": 2, "rows": '
                    '[[[NaN, 0], [0, 0]], [[0, 0], [0.5, 0]]]}'),
        ("birkhoff", '{"d": 2, "rows": [[NaN, 0.5], [0.5, 0.5]]}'),
        ("birkhoff", '{"d": 2, "rows": [[Infinity, 0.5], [0.5, -Infinity]]}'),
        ("entropy", '{"entries": [1e400, 0.5]}'),
        ("pinch-converge", '{"d_rows": 0, "d_cols": -5, "rows": []}'),
        ("birkhoff", '{"d": 0, "rows": []}'),
        ("detect-isometry", '{"d_in": 1, "d_out": 0, "kraus": []}'),
        ("entropy", "[" * 100_000 + "]" * 100_000),
    ], ids=["nan-density", "nan-matrix", "infinity-matrix", "1e400", "zero-and-negative-dims",
            "zero-dim", "empty-channel", "deep-nesting"])
    def test_non_finite_or_empty_input_exit_two(self, tmp_path, capsys, sub, text):
        p = tmp_path / "in.json"
        p.write_text(text)
        self.assert_error_line(*run(capsys, sub, "--in", str(p)))

    @pytest.mark.parametrize("tol", ["-1", "0", "nan", "inf", "-inf"])
    def test_tol_outside_open_half_line_exit_two(self, tmp_path, capsys, tol):
        p = tmp_path / "q.json"
        write_json(p, {"d": 2, "rows": [[0.5, 0.5], [0.5, 0.5]]})
        with pytest.raises(SystemExit) as exc:
            main(["birkhoff", "--in", str(p), f"--tol={tol}"])
        assert exc.value.code == 2
        assert "error: argument --tol" in capsys.readouterr().err

    def test_valid_tol_that_leaves_no_terms_is_a_domain_report(self, tmp_path, capsys):
        p = tmp_path / "q.json"
        write_json(p, {"d": 2, "rows": [[0.5, 0.5], [0.5, 0.5]]})
        rc, out, err = run(capsys, "birkhoff", "--in", str(p), "--tol", "0.6")
        assert rc == 1
        assert err == ""
        assert json.loads(out)["error"] == "InvalidValue"

    def test_complex_matrix_to_birkhoff_exit_two(self, tmp_path, capsys):
        p = tmp_path / "complex.json"
        p.write_text('{"d_rows":2,"d_cols":2,"rows":[[[0.5,0],[0.5,0]],[[0.5,0],[0.5,0.1]]]}')
        self.assert_error_line(*run(capsys, "birkhoff", "--in", str(p)))

    @pytest.mark.parametrize("entries", [[1e308, 1e308], [1e308]], ids=["sum-inf", "sum-finite"])
    def test_overflowing_entropy_is_a_domain_report(self, tmp_path, capsys, entries):
        p = tmp_path / "pv.json"
        write_json(p, {"entries": entries})
        rc, out, err = run(capsys, "entropy", "--in", str(p))
        assert rc == 1
        assert err == ""
        assert json.loads(out, parse_constant=_refuse_constant)["error"] == "InvalidValue"

    def test_default_tolerances_reported(self, tmp_path, capsys):
        p = tmp_path / "q.json"
        write_json(p, {"d": 2, "rows": [[0.5, 0.5], [0.5, 0.5]]})
        _, out, _ = run(capsys, "birkhoff", "--in", str(p))
        assert json.loads(out)["tolerances"] == {"support_threshold": 1e-9}
        chan, _ = random_isometric_conjugation_channel(2, 2, np.random.default_rng(1))
        save_json(chan, p)
        _, out, _ = run(capsys, "detect-isometry", "--in", str(p))
        assert json.loads(out)["tolerances"] == {"scalar_max_entry": 1e-7}


READERS = ("entropy", "majorize", "transfer", "birkhoff", "schur-horn", "uhlmann",
           "mixed-unitary", "pinch-converge", "detect-isometry", "probe-entropy")
KEYS = ("entries", "normalized", "d", "rows", "d_rows", "d_cols", "kind", "d_in", "d_out",
        "kraus", "flags", "trace_preserving", "unital", "steps", "i", "j", "t", "terms",
        "weight", "perm", "a", "b", "rho1", "rho2")
# json.dumps writes 1e300 as "1e+300"; the test swaps that text for 1e400, a
# literal that Python's json module reads as inf.
BIG = 1e300


def _json_documents():
    """Schema-shaped values with arbitrary leaves, arbitrary trees, and bundles."""
    number = st.one_of(st.floats(allow_nan=True, allow_infinity=True), st.just(BIG),
                       st.integers(-2, 3), st.sampled_from([0.0, 0.25, 0.5, 1.0, 10**400]))
    leaf = st.one_of(st.none(), st.booleans(), number, st.text(max_size=3),
                     st.just("density"))
    dim = st.integers(-1, 3)

    def grid(entry):
        return st.lists(st.lists(entry, min_size=1, max_size=3), min_size=1, max_size=3)

    vector = st.fixed_dictionaries({"entries": st.lists(number, min_size=1, max_size=4)},
                                   optional={"normalized": st.booleans()})
    real = st.fixed_dictionaries({"d": dim, "rows": grid(number)})
    complex_ = st.fixed_dictionaries({"d_rows": dim, "d_cols": dim,
                                      "rows": grid(st.lists(number, min_size=2, max_size=2))})
    density = complex_.map(lambda m: {**m, "kind": "density"})
    channel = st.fixed_dictionaries(
        {"d_in": dim, "d_out": dim, "kraus": st.lists(complex_, max_size=2)},
        optional={"flags": st.one_of(leaf, st.fixed_dictionaries(
            {}, optional={"trace_preserving": leaf, "unital": leaf}))})
    chain = st.fixed_dictionaries({"d": dim, "steps": st.lists(st.fixed_dictionaries(
        {"i": number, "j": number, "t": number}), max_size=2)})
    birkhoff = st.fixed_dictionaries({"terms": st.lists(st.fixed_dictionaries(
        {"weight": number, "perm": st.lists(number, max_size=3)}), max_size=2)})
    trees = st.recursive(leaf, lambda kids: st.one_of(
        st.lists(kids, max_size=3), st.dictionaries(st.sampled_from(KEYS), kids, max_size=4)),
        max_leaves=12)
    bundle = st.one_of(st.fixed_dictionaries({"a": vector, "b": vector}),
                       st.fixed_dictionaries({"rho1": density, "rho2": density}))
    return st.one_of(vector, real, complex_, density, channel, chain, birkhoff, trees, bundle)


# --d and --trials stay <= 8 so that no input asks for a large allocation.
FLAGS = st.lists(st.one_of(
    st.tuples(st.just("--tol"), st.sampled_from(["1e-9", "0.6", "1e300", "0", "-1", "nan"])),
    st.tuples(st.just("--d"), st.sampled_from(["-1", "0", "1", "2", "8"])),
    st.tuples(st.just("--trials"), st.sampled_from(["0", "1", "8"]))), max_size=2)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(sub=st.sampled_from(READERS), docs=st.lists(_json_documents(), min_size=1, max_size=2),
       flags=FLAGS)
def test_any_json_input_keeps_the_exit_code_contract(sub, docs, flags):
    with tempfile.TemporaryDirectory() as workdir:
        argv = [sub]
        for k, doc in enumerate(docs):
            path = os.path.join(workdir, f"in{k}.json")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(json.dumps(doc).replace("1e+300", "1e400"))
            argv += ["--in", path]
        for flag in flags:
            argv += flag
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = main(argv)  # an uncaught exception fails the test with its traceback
            except SystemExit as exc:  # argparse rejects a flag value
                rc = exc.code
    assert rc in (0, 1, 2), (argv, rc)
    assert "Traceback" not in err.getvalue()
    if rc == 2:
        assert "error:" in err.getvalue(), argv
    elif sub != "pinch-converge":  # every other subcommand writes a JSON report
        json.loads(out.getvalue(), parse_constant=_refuse_constant)
