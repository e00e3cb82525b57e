import json

import numpy as np
import pytest

from entmaj.cli import main
from entmaj.densop import DensityMatrix, random_density
from entmaj.serial import density_to_json, load_json, save_json
from entmaj.qchan import KrausChannel, random_isometric_conjugation_channel


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def write_json(path, obj):
    path.write_text(json.dumps(obj))


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
