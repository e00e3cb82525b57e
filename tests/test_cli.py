import argparse
import collections
import contextlib
import dataclasses
import io
import json
import math
import os
import pathlib
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import entmaj
from certificates import orthogonal_of_rotations
from entmaj import cli, densop
from entmaj.cli import main
from entmaj.densop import DensityMatrix, haar_unitary, random_density
from entmaj.serial import (channel_from_json, channel_to_json, complex_matrix_to_json,
                           density_to_json, prob_vector_from_json, read_json,
                           real_matrix_to_json, save_json)
from entmaj.qchan import PROBE_NOISE_FLOOR, KrausChannel, random_isometric_conjugation_channel
from entmaj.seqmaj import NORMALIZED_TOL
from entmaj.xfer import chain_to_doubly_stochastic, find_transfer_chain


def _complex_entries(obj) -> int:
    """Number of [re, im] entries held by the complex matrices anywhere in a report."""
    if isinstance(obj, dict):
        own = obj["d_rows"] * obj["d_cols"] if "d_rows" in obj else 0
        return own + sum(_complex_entries(v) for k, v in obj.items() if k != "rows")
    if isinstance(obj, list):
        return sum(_complex_entries(v) for v in obj)
    return 0


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

    def test_point_mass_writes_positive_zero(self, tmp_path, capsys):
        vector, state = tmp_path / "pv.json", tmp_path / "rho.json"
        write_json(vector, {"entries": [1.0, 0.0], "normalized": True})
        run(capsys, "gen", "state", "--d", "1", "--seed", "0", "--out", str(state))
        for p in (vector, state):
            rc, out, _ = run(capsys, "entropy", "--in", str(p))
            assert rc == 0
            assert '"shannon_bits": 0.0' in out
            assert math.copysign(1.0, json.loads(out)["shannon_bits"]) == 1.0


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

    def test_sum_mismatch_error_verdict_has_a_null_violation(self, tmp_path, capsys):
        pair = tmp_path / "pair.json"
        write_json(pair, {"a": {"entries": [0.3, 0.3]}, "b": {"entries": [0.5, 0.5]}})
        for sub in ("transfer", "schur-horn"):
            rc, out, _ = run(capsys, sub, "--in", str(pair))
            assert rc == 1
            report = json.loads(out)
            assert report["error"] == "MajorizationFailed"
            assert report["verdict"] == {"holds": False, "sums_equal": False,
                                         "first_violation": None}

    @pytest.mark.parametrize("sub", ["majorize", "transfer", "schur-horn", "uhlmann",
                                     "mixed-unitary"])
    def test_every_certificate_holds_where_majorize_does(self, tmp_path, capsys, sub):
        # b's last coordinate is 9e-10 over its target, within --tol, with nothing after it
        a, b = [0.5, 0.4, 0.1], [0.6, 0.3, 0.1000000009]
        p = tmp_path / "edge.json"
        if sub in ("uhlmann", "mixed-unitary"):
            write_json(p, {key: density_to_json(DensityMatrix(np.diag(v).astype(complex)))
                           for key, v in (("rho1", a), ("rho2", b))})
        else:
            write_json(p, {key: {"entries": v, "normalized": True}
                           for key, v in (("a", a), ("b", b))})
        rc, out, err = run(capsys, sub, "--in", str(p), *(["--require"] * (sub == "majorize")))
        assert (rc, err) == (0, "")
        assert all(v for k, v in json.loads(out)["verified"].items() if k.startswith("ok_"))

    def test_birkhoff_roundtrip(self, tmp_path, capsys):
        q = tmp_path / "q.json"
        write_json(q, {"d": 2, "rows": [[0.5, 0.5], [0.5, 0.5]]})
        rc, out, _ = run(capsys, "birkhoff", "--in", str(q))
        assert rc == 0
        report = json.loads(out)
        assert report["verified"]["ok_reconstruction"] is True
        assert report["weights"] == [0.5, 0.5]
        assert report["first"] == [0, 1]
        assert report["changes"] == {"term": [1, 1], "row": [0, 1], "col": [1, 0]}

    def test_birkhoff_in_a_fresh_interpreter_imports_no_scipy(self, tmp_path):
        # importing scipy.sparse would add about 0.2 s to every fresh `entmaj` process
        q = tmp_path / "q.json"
        write_json(q, {"d": 2, "rows": [[0.5, 0.5], [0.5, 0.5]]})
        argv = ["birkhoff", "--in", str(q), "--out", str(tmp_path / "report.json")]
        code = ("import sys, entmaj.cli\n"
                f"rc = entmaj.cli.main({argv!r})\n"
                "print(rc, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        src = pathlib.Path(entmaj.__file__).resolve().parent.parent
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=str(src)), timeout=120)
        assert proc.stdout.strip() == "0 []", proc.stderr

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
        u = orthogonal_of_rotations(report["rotations"]).entries
        np.testing.assert_allclose(u, [[s, -s], [s, s]], atol=1e-12)


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

    def test_mixed_unitary_writes_at_most_d_unitaries(self, tmp_path, capsys):
        bundle = tmp_path / "pair.json"
        run(capsys, "gen", "state-pair", "--d", "20", "--seed", "20", "--out", str(bundle))
        rc, out, _ = run(capsys, "mixed-unitary", "--in", str(bundle))
        assert rc == 0
        verified = json.loads(out)["verified"]
        assert verified["term_count"] <= 20
        assert verified["caratheodory_bound"] == 20
        assert verified["ok_caratheodory_bound"] is True
        assert verified["ok_term_bound"] is True
        assert verified["ok_trace_distance"] is True
        assert max(json.loads(out)["pos"]) + 1 == verified["term_count"]

    @pytest.mark.parametrize("sub,extra", [("uhlmann", set()), ("mixed-unitary", {"pos", "weight"})])
    def test_report_holds_the_frame_alone(self, tmp_path, capsys, sub, extra):
        d = 20
        bundle = tmp_path / "pair.json"
        run(capsys, "gen", "state-pair", "--d", str(d), "--seed", "20", "--out", str(bundle))
        rc, out, _ = run(capsys, sub, "--in", str(bundle))
        assert rc == 0
        report = json.loads(out)
        assert set(report) == {"subcommand", "version", "tolerances", "verified", "f", "e"} | extra
        assert _complex_entries(report) == 2 * d**2
        assert np.array(report["f"]["rows"]).shape == np.array(report["e"]["rows"]).shape == (d, d, 2)
        assert all(v for k, v in report["verified"].items() if k.startswith("ok_"))

    @pytest.mark.parametrize("factor", ["e", "f"])
    @pytest.mark.parametrize("sub,construct,flag", [
        ("uhlmann", "uhlmann_frame", {"e": "ok_completeness", "f": "ok_unitality"}),
        ("mixed-unitary", "mixed_unitary_uhlmann", {"e": "ok_unitary", "f": "ok_unitary"})])
    def test_frame_defect_over_its_guard_exits_one(self, tmp_path, capsys, monkeypatch,
                                                   sub, construct, flag, factor):
        # columns scaled by 1 +- 2e-8: a defect of 4e-8 > 1e-8, while the output of the
        # maximally mixed target keeps its trace within 1e-15 and lies 4e-8 < 1e-7 from it
        r1, r2 = tmp_path / "rho1.json", tmp_path / "rho2.json"
        write_json(r1, density_to_json(DensityMatrix(np.eye(2, dtype=complex) / 2)))
        write_json(r2, density_to_json(DensityMatrix(np.diag([1.0, 0.0]).astype(complex))))
        exact = getattr(cli, construct)
        skew = np.array([1 + 2e-8, 1 - 2e-8])

        def perturbed(*args):
            frame = exact(*args)
            return dataclasses.replace(frame, **{factor: getattr(frame, factor) * skew})

        monkeypatch.setattr(cli, construct, perturbed)
        rc, out, _ = run(capsys, sub, "--in", str(r1), "--in", str(r2))
        verified = json.loads(out)["verified"]
        assert rc == 1
        assert verified["ok_trace_distance"] is True
        assert [k for k, v in verified.items() if k.startswith("ok_") and not v] == [flag[factor]]

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

    def test_pinch_converge_basis_of_another_dimension(self, tmp_path, capsys):
        rho = tmp_path / "rho.json"
        basis = tmp_path / "basis.json"
        save_json(random_density(3, np.random.default_rng(3)), rho)
        write_json(basis, complex_matrix_to_json(np.eye(2)))
        rc, out, _ = run(capsys, "pinch-converge", "--in", str(rho), "--in", str(basis))
        assert rc == 1
        report = json.loads(out)
        assert report["error"] == "DimensionMismatch"
        assert report["message"] == "basis dimension 2 != state dimension 3"

    def test_pinch_converge_basis_that_is_not_square(self, tmp_path, capsys):
        rho = tmp_path / "rho.json"
        basis = tmp_path / "basis.json"
        save_json(random_density(3, np.random.default_rng(3)), rho)
        write_json(basis, complex_matrix_to_json(np.eye(2, 3)))
        rc, out, _ = run(capsys, "pinch-converge", "--in", str(rho), "--in", str(basis))
        assert rc == 1
        report = json.loads(out)
        assert report["error"] == "InvalidValue"
        assert report["message"] == "expected a non-empty square matrix of finite numbers"


class TestSolverCalls:
    """Each state a subcommand reads is decomposed once, by one `eigh` as it is built."""

    @pytest.mark.parametrize("sub,kind,expected", [
        ("entropy", "state", {"eigh": 1}),
        ("uhlmann", "state-pair", {"eigh": 3, "eigvalsh": 1}),
        ("mixed-unitary", "state-pair", {"eigh": 3, "eigvalsh": 1}),
    ])
    def test_solver_calls_per_subcommand(self, tmp_path, capsys, monkeypatch, sub, kind, expected):
        p = tmp_path / "in.json"
        run(capsys, "gen", kind, "--d", "5", "--seed", "3", "--out", str(p))
        calls = collections.Counter()
        for name in ("eigh", "eigvalsh"):
            solver = getattr(np.linalg, name)
            monkeypatch.setattr(np.linalg, name,
                                lambda m, name=name, solver=solver: calls.update([name]) or solver(m))
        rc, _, _ = run(capsys, sub, "--in", str(p))
        assert rc == 0
        assert calls == expected


class TestDefectCalls:
    """Each unitarity or isometry defect a subcommand reports is measured once, by the value
    that owns it, and read from it."""

    @pytest.mark.parametrize("sub,kind,expected", [
        ("detect-isometry", "isometric", 3),  # completeness and unitality at load, then V
        ("uhlmann", "state-pair", 3),  # the Schur-Horn rotation U, then F and E
        ("mixed-unitary", "state-pair", 3),
    ])
    def test_isometry_defect_calls_per_subcommand(self, tmp_path, capsys, monkeypatch,
                                                  sub, kind, expected):
        p = tmp_path / "in.json"
        if kind == "isometric":
            chan, _ = random_isometric_conjugation_channel(3, 4, np.random.default_rng(5), 2)
            save_json(chan, p)
        else:
            run(capsys, "gen", kind, "--d", "5", "--seed", "3", "--out", str(p))
        calls = collections.Counter()
        measure = densop.isometry_defect

        def counted(m):
            calls["isometry_defect"] += 1
            return measure(m)

        # every name an entmaj module holds the function by
        for module in [m for name, m in sys.modules.items() if name.split(".")[0] == "entmaj"]:
            for attr, value in list(vars(module).items()):
                if value is measure:
                    monkeypatch.setattr(module, attr, counted)
        rc, out, _ = run(capsys, sub, "--in", str(p))
        assert rc == 0 and "error" not in json.loads(out)
        assert calls == {"isometry_defect": expected}


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
        chan = KrausChannel((np.eye(2, dtype=complex) / np.sqrt(2), z / np.sqrt(2)))
        p = tmp_path / "chan.json"
        save_json(chan, p)
        rc, out, _ = run(capsys, "detect-isometry", "--in", str(p))
        assert rc == 0
        report = json.loads(out)
        assert report["is_isometric_conjugation"] is False
        assert report["failure_witness"]["pair"] == [0, 1]
        rc, _, _ = run(capsys, "detect-isometry", "--in", str(p), "--expect-isometry")
        assert rc == 1

    def test_loose_tolerance_gives_a_verdict_not_an_error(self, tmp_path, capsys):
        # both dephasing operators weigh 0.5 < tol; the Gram gap is 0.5 <= 0.6
        z = np.diag([1.0, -1.0]).astype(complex)
        chan = KrausChannel((np.eye(2, dtype=complex) / np.sqrt(2), z / np.sqrt(2)))
        p = tmp_path / "chan.json"
        save_json(chan, p)
        rc, out, _ = run(capsys, "detect-isometry", "--in", str(p), "--tol", "0.6")
        assert rc == 0
        report = json.loads(out)
        assert "error" not in report
        assert report["tolerances"] == {"gram_rank_gap": 0.6}
        assert report["is_isometric_conjugation"] is True

    def test_probe_entropy(self, tmp_path, capsys):
        z = np.diag([1.0, -1.0]).astype(complex)
        chan = KrausChannel((np.eye(2, dtype=complex) / np.sqrt(2), z / np.sqrt(2)))
        p = tmp_path / "chan.json"
        save_json(chan, p)
        rc, out, _ = run(capsys, "probe-entropy", "--in", str(p), "--trials", "200",
                         "--seed", "9")
        assert rc == 0
        report = json.loads(out)
        assert report["max_abs_entropy_deviation"] >= 1e-3
        assert report["max_abs_entropy_deviation"] > PROBE_NOISE_FLOOR
        assert 0 <= report["worst_trial"] < 200
        assert isinstance(report["base_seed"], int)

    @pytest.mark.parametrize("seed", ["0", "7"])
    def test_probe_of_a_one_dimensional_channel_names_no_trial(self, tmp_path, capsys, seed):
        p = tmp_path / "chan.json"
        run(capsys, "gen", "channel", "--d", "1", "--seed", seed, "--out", str(p))
        rc, out, _ = run(capsys, "probe-entropy", "--in", str(p), "--trials", "4", "--seed", "3")
        report = json.loads(out)
        assert rc == 0 and report["max_abs_entropy_deviation"] <= PROBE_NOISE_FLOOR
        assert report["worst_trial"] is None


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
        chan = channel_from_json(read_json(p))
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

    def test_channel_flagged_not_trace_preserving_exits_one(self, tmp_path, capsys):
        p = tmp_path / "half.json"
        save_json(KrausChannel((np.eye(2, dtype=complex) / np.sqrt(2),)), p)
        assert json.loads(p.read_text())["flags"]["trace_preserving"] is False
        for argv in (("detect-isometry", "--in", str(p)),
                     ("probe-entropy", "--in", str(p), "--trials", "3")):
            rc, out, err = run(capsys, *argv)
            assert rc == 1 and err == ""
            assert json.loads(out)["error"] == "NotTracePreserving"
        unflagged = json.loads(p.read_text())
        del unflagged["flags"]
        write_json(p, unflagged)
        for argv in (("detect-isometry", "--in", str(p)),
                     ("probe-entropy", "--in", str(p), "--trials", "3")):
            rc, _, err = run(capsys, *argv)
            self.assert_clean_exit_two(rc, err)

    @pytest.mark.parametrize("value", ["false", [], 0, None], ids=["string", "list", "zero", "null"])
    def test_non_bool_flag_exits_two(self, tmp_path, capsys, value):
        p = tmp_path / "half.json"
        write_json(p, {"d_in": 2, "d_out": 2, "kraus": [complex_matrix_to_json(np.eye(2) / 2**0.5)],
                       "flags": {"trace_preserving": value}})
        for argv in (("detect-isometry", "--in", str(p)),
                     ("probe-entropy", "--in", str(p), "--trials", "3")):
            rc, _, err = run(capsys, *argv)
            self.assert_clean_exit_two(rc, err)
            assert f"{p}.flags.trace_preserving: expected bool" in err

    def test_misspelled_normalized_exits_two(self, tmp_path, capsys):
        p = tmp_path / "pair.json"
        for key, message in (("normalised", "b.normalised: unknown field"),
                             ("normalized", "b.entries: normalized vector sums to 1.01, not 1")):
            write_json(p, {"a": {"entries": [0.6, 0.4]}, "b": {"entries": [0.7, 0.31], key: True}})
            rc, _, err = run(capsys, "majorize", "--in", str(p))
            self.assert_clean_exit_two(rc, err)
            assert f"error: {p}.{message}" in err

    def test_misspelled_unital_exits_two(self, tmp_path, capsys):
        p = tmp_path / "channel.json"
        chan, _ = random_isometric_conjugation_channel(2, 3, np.random.default_rng(1))
        obj = channel_to_json(chan)
        for flag, field, message in (
                ("unitall", ".flags.unitall", "unknown field"),
                ("unital", "", "flagged unital but sum AA* deviates from I by 0.59")):
            obj["flags"] = {"trace_preserving": True, flag: True}
            write_json(p, obj)
            rc, _, err = run(capsys, "detect-isometry", "--in", str(p))
            self.assert_clean_exit_two(rc, err)
            assert f"error: {p}{field}: {message}" in err

    @pytest.mark.parametrize("sub,kind", [("majorize", "pair"), ("uhlmann", "state-pair")])
    def test_an_unknown_bundle_key_exits_two(self, tmp_path, capsys, sub, kind):
        bundle = tmp_path / "bundle.json"
        run(capsys, "gen", kind, "--d", "3", "--out", str(bundle))
        write_json(bundle, {**json.loads(bundle.read_text()), "c": 1})
        rc, _, err = run(capsys, sub, "--in", str(bundle))
        self.assert_clean_exit_two(rc, err)
        assert f"error: {bundle}.c: unknown field" in err

    @pytest.mark.parametrize("text,key", [
        ('{"a": {"entries": [0.5, 0.5]}, "a": {"entries": [1, 0]}, "b": {"entries": [1, 0]}}',
         "a"),
        ('{"a": {"entries": [0.5, 0.5], "entries": [1, 0]}, "b": {"entries": [1, 0]}}',
         "entries"),
    ], ids=["bundle", "vector"])
    def test_a_duplicated_key_exits_two(self, tmp_path, capsys, text, key):
        # read last-wins, either file would be the pair ([1, 0], [1, 0]) and exit 0
        bundle = tmp_path / "pair.json"
        bundle.write_text(text)
        rc, _, err = run(capsys, "majorize", "--in", str(bundle), "--require")
        self.assert_clean_exit_two(rc, err)
        assert f'error: {bundle}: duplicate key "{key}"' in err

    def test_a_key_holding_a_newline_is_named_on_one_line(self, tmp_path, capsys):
        p = tmp_path / "nl.json"
        p.write_text('{"a": {"entries": [0.5, 0.5]}, "b": {"entries": [1, 0]}, "x\\ny": 1}')
        rc, _, err = run(capsys, "majorize", "--in", str(p))
        self.assert_clean_exit_two(rc, err)
        assert err.splitlines() == [f"error: {p}.x\\ny: unknown field (known: a, b)"]

    def test_a_file_name_holding_a_newline_is_named_on_one_line(self, tmp_path, capsys):
        p = tmp_path / "mal\nformed.json"
        p.write_text('{"a": ')
        rc, _, err = run(capsys, "majorize", "--in", str(p))
        self.assert_clean_exit_two(rc, err)
        assert len(err.splitlines()) == 1
        assert err.startswith(f"error: {tmp_path}{os.sep}mal\\nformed.json: malformed JSON")

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

    @pytest.mark.parametrize("flag,limit", [("--d", cli.MAX_D), ("--trials", cli.MAX_TRIALS)])
    def test_the_argparse_type_takes_values_up_to_the_limit(self, flag, limit):
        parse = cli.FLAGS[flag]["type"]
        assert parse(str(limit)) == limit
        for text in (str(limit + 1), "1" + "0" * 40):
            with pytest.raises(argparse.ArgumentTypeError, match=f"is not >= 1 and <= {limit}$"):
                parse(text)

    # each value is refused while the arguments are parsed, before anything is allocated
    @pytest.mark.parametrize("argv,message", [
        (("gen", "state-pair", "--d", str(cli.MAX_D + 1)),
         f"argument --d: {cli.MAX_D + 1} is not >= 1 and <= {cli.MAX_D}"),
        (("probe-entropy", "--in", "c.json", "--trials", str(cli.MAX_TRIALS + 1)),
         f"argument --trials: {cli.MAX_TRIALS + 1} is not >= 1 and <= {cli.MAX_TRIALS}"),
        (("gen", "state", "--d", "1000000"), "argument --d: 1000000 is not >= 1 and <= "),
    ], ids=["d", "trials", "d-million"])
    def test_flag_above_its_limit_exit_two(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"error: {message}" in err and "Traceback" not in err

    def test_channel_above_its_limit_exit_two(self, capsys, monkeypatch):
        def refuse(*args):
            raise AssertionError("generated a channel")

        monkeypatch.setattr(cli, "random_bistochastic_channel", refuse)
        rc, out, err = run(capsys, "gen", "channel", "--d", str(cli.MAX_CHANNEL_D + 1))
        assert (rc, out) == (2, "")
        assert err == (f"error: --d {cli.MAX_CHANNEL_D + 1} exceeds {cli.MAX_CHANNEL_D} "
                       f"for gen channel\n")


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


class TestSeedFlag:
    """--seed takes any integer >= 0, however large, as default_rng does."""

    @pytest.mark.parametrize("sub", ["probe-entropy", "gen"])
    @pytest.mark.parametrize("seed", ["-1", "-5"])
    def test_negative_seed_exit_two(self, tmp_path, capsys, sub, seed):
        chan = tmp_path / "chan.json"
        save_json(random_isometric_conjugation_channel(2, 3, np.random.default_rng(3))[0], chan)
        argv = (["probe-entropy", "--in", str(chan), "--trials", "2"] if sub == "probe-entropy"
                else ["gen", "state", "--d", "3"])
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--seed", seed])
        err = capsys.readouterr().err
        assert exc.value.code == 2
        assert f"error: argument --seed: {seed} is not >= 0" in err
        assert "Traceback" not in err

    def test_huge_seed_works(self, tmp_path, capsys):
        huge = "123456789012345678901234567890"
        chan = tmp_path / "chan.json"
        rc, _, _ = run(capsys, "gen", "channel", "--d", "2", "--seed", huge, "--out", str(chan))
        assert rc == 0
        rc, out, _ = run(capsys, "probe-entropy", "--in", str(chan), "--trials", "2",
                         "--seed", huge)
        assert rc == 0
        assert json.loads(out)["seed"] == int(huge)


class TestParserBuiltOnce:
    """main reuses one parser; no parse leaves state behind for the next."""

    def test_one_parser_per_process(self):
        from entmaj.cli import _parser
        assert _parser() is _parser()

    def test_successive_calls_see_only_their_own_files(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        write_json(a, {"entries": [0.6, 0.4]})
        write_json(b, {"entries": [0.5, 0.5]})
        rc, out, _ = run(capsys, "majorize", "--in", str(a), "--in", str(b))
        assert rc == 0 and json.loads(out)["holds"] is False
        rc, out, _ = run(capsys, "majorize", "--in", str(b), "--in", str(a))
        assert rc == 0 and json.loads(out)["holds"] is True
        rc, out, _ = run(capsys, "entropy", "--in", str(b))
        assert rc == 0 and json.loads(out)["shannon_bits"] == 1.0

    def test_rejected_call_leaves_no_trace(self, tmp_path, capsys):
        b = tmp_path / "b.json"
        write_json(b, {"entries": [0.5, 0.5]})
        with pytest.raises(SystemExit) as exc:
            main(["entropy", "--in", str(b), "--in", str(b), "--tol", "1"])
        assert exc.value.code == 2
        capsys.readouterr()
        rc, out, _ = run(capsys, "entropy", "--in", str(b))
        assert rc == 0 and json.loads(out)["shannon_bits"] == 1.0


@pytest.fixture
def inputs(tmp_path, capsys):
    """A file of each kind that a subcommand reads, `gen`'s at d = 4 and seed 3 among them."""
    files = {}
    for kind in ("state", "pair", "state-pair", "channel"):
        files[kind] = str(tmp_path / f"{kind}.json")
        run(capsys, "gen", kind, "--d", "4", "--seed", "3", "--out", files[kind])
    bundle = json.loads(pathlib.Path(files["pair"]).read_text())
    a, b = (prob_vector_from_json(bundle[key]) for key in ("a", "b"))
    files["matrix"] = str(tmp_path / "matrix.json")
    save_json(chain_to_doubly_stochastic(find_transfer_chain(a, b)), files["matrix"])
    unmajorized = tmp_path / "unmajorized.json"
    write_json(unmajorized, {"a": {"entries": [0.6, 0.4]}, "b": {"entries": [0.5, 0.5]}})
    files["unmajorized"] = str(unmajorized)
    files["isometry"] = str(tmp_path / "isometry.json")
    save_json(random_isometric_conjugation_channel(2, 3, np.random.default_rng(4))[0],
              files["isometry"])
    files["dephasing"] = str(tmp_path / "dephasing.json")
    z = np.diag([1.0, -1.0]).astype(complex)
    save_json(KrausChannel((np.eye(2, dtype=complex) / np.sqrt(2), z / np.sqrt(2))),
              files["dephasing"])
    return files


class TestExitCodeContract:
    """Every rejection exits 1 with a domain report or 2 with one `error:` line."""

    def assert_error_line(self, rc, out, err, code=2):
        assert rc == code
        assert out == ""
        assert err.startswith("error:") and len(err.splitlines()) == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("sub,text,message", [
        ("entropy", '{"kind": "density", "d_rows": 2, "d_cols": 2, "rows": '
                    '[[[NaN, 0], [0, 0]], [[0, 0], [0.5, 0]]]}', ""),
        ("birkhoff", '{"d": 2, "rows": [[NaN, 0.5], [0.5, 0.5]]}', ""),
        ("birkhoff", '{"d": 2, "rows": [[Infinity, 0.5], [0.5, -Infinity]]}', ""),
        ("entropy", '{"entries": [1e400, 0.5]}', ""),
        ("pinch-converge", '{"d_rows": 0, "d_cols": -5, "rows": []}', ""),
        ("birkhoff", '{"d": 0, "rows": []}', ""),
        ("detect-isometry", '{"d_in": 1, "d_out": 0, "kraus": []}', ""),
        ("detect-isometry", '{"d_in": 1, "d_out": 1, "kraus": []}',
         "in.json: need at least one operator\n"),
        ("probe-entropy", '{"d_in": 1, "d_out": 1, "kraus": [[1]]}',
         "in.json.kraus[0].d_rows: missing required field\n"),
        ("entropy", "[" * 100_000 + "]" * 100_000, ""),
    ], ids=["nan-density", "nan-matrix", "infinity-matrix", "1e400", "zero-and-negative-dims",
            "zero-dim", "empty-channel", "no-operator", "operator-not-an-object",
            "deep-nesting"])
    def test_non_finite_or_empty_input_exit_two(self, tmp_path, capsys, sub, text, message):
        p = tmp_path / "in.json"
        p.write_text(text)
        rc, out, err = run(capsys, sub, "--in", str(p))
        self.assert_error_line(rc, out, err)
        assert err.endswith(message)

    @pytest.mark.parametrize("sub,kind,message", [
        ("majorize", "pair", "expected a bundle or 2 --in files, got 3"),
        ("uhlmann", "state-pair", "expected a bundle or 2 --in files, got 3"),
        ("pinch-converge", "state", "expected --in state [--in basis]"),
    ])
    def test_three_input_files_exit_two(self, inputs, capsys, sub, kind, message):
        rc, out, err = run(capsys, sub, *["--in", inputs[kind]] * 3)
        self.assert_error_line(rc, out, err)
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("sub", ["entropy", "uhlmann", "pinch-converge"])
    def test_state_whose_clamped_spectrum_misses_one_exit_two(self, tmp_path, capsys, sub):
        # trace 1 + 0.95e-9 is within 1e-9, but the clamped spectrum sums to 1 + 1.9e-9
        edge = {**complex_matrix_to_json(np.diag([0.5 + 1.9e-9, 0.5, -0.95e-9])),
                "kind": "density"}
        p = tmp_path / "edge.json"
        write_json(p, {"rho1": edge, "rho2": edge} if sub == "uhlmann" else edge)
        rc, out, err = run(capsys, sub, "--in", str(p))
        self.assert_error_line(rc, out, err)
        assert "spectrum sums to 1.0000000019" in err

    @pytest.mark.parametrize("seed", [1, 24])
    def test_state_at_the_bound_is_refused_by_every_reader_or_none(self, tmp_path, capsys, seed):
        # eigenvalues summing to 1 + NORMALIZED_TOL before rounding: seed 1's state is
        # accepted, and seed 24's once passed a check on eigvalsh's eigenvalues and then
        # failed the one on eigh's
        rng = np.random.default_rng(seed)
        d = int(rng.integers(2, 9))
        u = haar_unitary(d, rng)
        m = (u * (rng.dirichlet(np.ones(d)) * (1 + NORMALIZED_TOL))) @ u.conj().T
        rho = {**complex_matrix_to_json((m + m.conj().T) / 2), "kind": "density"}
        mixed = {**complex_matrix_to_json(np.eye(d) / d), "kind": "density"}
        state, pair = tmp_path / "rho.json", tmp_path / "pair.json"
        write_json(state, rho)
        write_json(pair, {"rho1": mixed, "rho2": rho})
        codes = set()
        for sub, path in [("entropy", state), ("uhlmann", pair), ("mixed-unitary", pair),
                          ("pinch-converge", state)]:
            rc, out, err = run(capsys, sub, "--in", str(path))
            if rc == 2:
                self.assert_error_line(rc, out, err)
            codes.add(rc)
        assert codes in ({0}, {2})

    @pytest.mark.parametrize("sub", ["entropy", "uhlmann", "pinch-converge"])
    def test_state_with_an_eigenvalue_above_one_exit_two(self, tmp_path, capsys, sub):
        # clamped to [0, 1] the spectrum [2, 0] sums to 1; its trace is 2
        bad = {**complex_matrix_to_json(np.diag([2.0, 0.0])), "kind": "density"}
        p = tmp_path / "bad.json"
        write_json(p, {"rho1": bad, "rho2": bad} if sub == "uhlmann" else bad)
        rc, out, err = run(capsys, sub, "--in", str(p))
        self.assert_error_line(rc, out, err)
        assert "spectrum sums to 2.0" in err

    @pytest.mark.parametrize("sub,kind,field", [("majorize", "pair", "a.entries[1]"),
                                                 ("uhlmann", "state-pair", "rho2.rows[0][1]")],
                             ids=["vector-bundle", "state-bundle"])
    def test_bad_entry_of_a_bundle_names_the_file(self, tmp_path, capsys, sub, kind, field):
        bundle = tmp_path / "bundle.json"
        run(capsys, "gen", kind, "--d", "2", "--out", str(bundle))
        obj = json.loads(bundle.read_text())
        if kind == "pair":
            obj["a"]["entries"][1] = "x"
        else:
            obj["rho2"]["rows"][0][1] = ["x", 0.0]
        write_json(bundle, obj)
        rc, out, err = run(capsys, sub, "--in", str(bundle))
        self.assert_error_line(rc, out, err)
        assert err == f"error: {bundle}.{field}: expected a finite number\n"

    def test_normalized_flag_that_is_no_bool_exit_two(self, tmp_path, capsys):
        p = tmp_path / "pv.json"
        write_json(p, {"entries": [0.3, 0.3], "normalized": "false"})
        rc, out, err = run(capsys, "entropy", "--in", str(p))
        self.assert_error_line(rc, out, err)
        assert err.rstrip() == f"error: {p}.normalized: expected bool"

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

    def test_tol_above_the_largest_entry_is_named(self, tmp_path, capsys):
        pair, q = tmp_path / "pair.json", tmp_path / "q.json"
        assert run(capsys, "gen", "pair", "--d", "8", "--seed", "0", "--out", str(pair))[0] == 0
        bundle = json.loads(pair.read_text())
        chain_matrix = chain_to_doubly_stochastic(find_transfer_chain(
            prob_vector_from_json(bundle["a"]), prob_vector_from_json(bundle["b"])))
        save_json(chain_matrix, q)
        rc, out, err = run(capsys, "birkhoff", "--in", str(q), "--tol", "2")
        assert rc == 1
        assert err == ""
        report = json.loads(out)
        assert report["error"] == "InvalidValue"
        assert report["message"].startswith(
            f"tol=2.0 exceeds the largest entry {chain_matrix.entries.max()}")

    def test_matching_failure_is_a_domain_report(self, tmp_path, capsys):
        p = tmp_path / "q.json"
        write_json(p, {"d": 2, "rows": [[1.0, 0.0], [5e-10, 1.0 - 5e-10]]})
        rc, out, err = run(capsys, "birkhoff", "--in", str(p), "--tol", "1e-12")
        assert rc == 1
        assert err == ""
        assert json.loads(out)["error"] == "MatchingFailed"

    def test_mass_left_below_the_floor_is_a_matching_failure(self, tmp_path, capsys):
        # the entries below the floor tol / (100 d) hold far more than the weights' sum
        # tolerance: the report names that row mass instead of a weight sum of 0.999
        pair, q = tmp_path / "pair.json", tmp_path / "q.json"
        assert run(capsys, "gen", "pair", "--d", "32", "--seed", "1", "--out", str(pair))[0] == 0
        bundle = json.loads(pair.read_text())
        save_json(chain_to_doubly_stochastic(find_transfer_chain(
            prob_vector_from_json(bundle["a"]), prob_vector_from_json(bundle["b"]))), q)
        rc, out, err = run(capsys, "birkhoff", "--in", str(q), "--tol", "0.1")
        assert rc == 1
        assert err == ""
        report = json.loads(out)
        assert report["error"] == "MatchingFailed"
        assert "undecomposed at tol=0.1" in report["message"]

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

    @pytest.mark.parametrize("sub", ["majorize", "transfer"])
    def test_overflowing_prefix_sums_are_a_domain_report(self, tmp_path, capsys, sub):
        p = tmp_path / "pair.json"
        write_json(p, {"a": {"entries": [1e308, 1e308]}, "b": {"entries": [1e308, 1e308]}})
        rc, out, err = run(capsys, sub, "--in", str(p))
        assert rc == 1
        assert err == ""
        assert json.loads(out, parse_constant=_refuse_constant)["error"] == "InvalidValue"

    BIG_KRAUS = {"d_in": 1, "d_out": 1, "flags": {"trace_preserving": False},
                 "kraus": [complex_matrix_to_json(np.array([[sys.float_info.max]]))]}
    NEAR_MAX = {
        "kraus": BIG_KRAUS,
        "kraus-unflagged": {key: value for key, value in BIG_KRAUS.items() if key != "flags"},
        "state": {**complex_matrix_to_json(np.full((2, 2), 1.7e308)), "kind": "density"},
        "skew": {**complex_matrix_to_json(np.full((2, 2), 1.7e308 + 1.7e308j)),
                 "kind": "density"},
        "large": {**complex_matrix_to_json(np.diag([1e300, 1e300])), "kind": "density"},
        "mixed": {**complex_matrix_to_json(np.eye(2) / 2), "kind": "density"},
        "basis": complex_matrix_to_json(np.diag([1.7e308, 1.7e308])),
    }

    @pytest.mark.parametrize("sub,files,rc,error", [
        ("detect-isometry", ["kraus"], 1, "NotTracePreserving"),
        ("probe-entropy", ["kraus"], 1, "NotTracePreserving"),
        ("detect-isometry", ["kraus-unflagged"], 2, None),
        ("probe-entropy", ["kraus-unflagged"], 2, None),
        ("entropy", ["state"], 2, None),
        ("entropy", ["skew"], 2, None),
        ("entropy", ["large"], 2, None),
        ("uhlmann", ["state", "mixed"], 2, None),
        ("uhlmann", ["mixed", "skew"], 2, None),
        ("mixed-unitary", ["mixed", "state"], 2, None),
        ("mixed-unitary", ["skew", "mixed"], 2, None),
        ("pinch-converge", ["state"], 2, None),
        ("pinch-converge", ["skew"], 2, None),
        ("pinch-converge", ["mixed", "basis"], 1, "NotUnitary"),
    ], ids=["detect", "probe", "detect-unflagged", "probe-unflagged", "entropy",
            "entropy-non-hermitian", "entropy-large", "uhlmann", "uhlmann-non-hermitian",
            "mixed-unitary", "mixed-unitary-non-hermitian", "pinch-state",
            "pinch-non-hermitian", "pinch-basis"])
    def test_near_maximum_entries_warn_nothing(self, tmp_path, capsys, sub, files, rc, error):
        argv = [sub]
        for name in files:
            write_json(tmp_path / f"{name}.json", self.NEAR_MAX[name])
            argv += ["--in", str(tmp_path / f"{name}.json")]
        code, out, err = run(capsys, *argv)
        if error is None:
            self.assert_error_line(code, out, err, code=rc)
        else:
            assert (code, err) == (rc, "")
            assert json.loads(out)["error"] == error

    def fresh_cli(self, tmp_path, sub, name):
        """`python -m entmaj.cli sub --in <NEAR_MAX[name]>`, with no warning filter."""
        p = tmp_path / f"{name}.json"
        write_json(p, self.NEAR_MAX[name])
        src = pathlib.Path(entmaj.__file__).resolve().parent.parent
        return subprocess.run([sys.executable, "-m", "entmaj.cli", sub, "--in", str(p)],
                              capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=str(src)), timeout=120)

    def test_near_maximum_channel_in_a_fresh_interpreter_warns_nothing(self, tmp_path):
        proc = self.fresh_cli(tmp_path, "detect-isometry", "kraus")
        assert (proc.returncode, proc.stderr) == (1, "")
        assert json.loads(proc.stdout)["error"] == "NotTracePreserving"

    def test_near_maximum_state_in_a_fresh_interpreter_is_one_error_line(self, tmp_path):
        proc = self.fresh_cli(tmp_path, "entropy", "state")
        self.assert_error_line(proc.returncode, proc.stdout, proc.stderr)
        assert "spectrum sums to nan" in proc.stderr

    @pytest.mark.parametrize("message", ["", "Unable to allocate 7.28 TiB"],
                             ids=["bare", "with-message"])
    def test_allocation_failure_exit_two(self, tmp_path, capsys, monkeypatch, message):
        def refuse(*args):
            raise MemoryError(message)

        monkeypatch.setattr(cli, "entropy_probe", refuse)  # never allocates for real
        p = tmp_path / "chan.json"
        save_json(KrausChannel(np.eye(2, dtype=complex)[None]), p)
        rc, out, err = run(capsys, "probe-entropy", "--in", str(p),
                           "--trials", str(cli.MAX_TRIALS))
        self.assert_error_line(rc, out, err)
        assert err.rstrip() == f"error: out of memory{': ' + message if message else ''}"

    # subcommand, input, the tolerances key of --tol and its default, the fixed bounds
    TOL_CASES = [
        ("majorize", "pair", "majorization_abs", 1e-9, {}),
        ("transfer", "pair", "majorization_abs", 1e-9, {}),
        ("schur-horn", "pair", "majorization_abs", 1e-9, {}),
        ("birkhoff", "matrix", "support_threshold", 1e-9, {}),
        ("uhlmann", "state-pair", "majorization_abs", 1e-9,
         {"trace_distance_max": 1e-7, "completeness_max": 1e-8}),
        ("mixed-unitary", "state-pair", "majorization_abs", 1e-9,
         {"trace_distance_max": 1e-7, "unitary_max": 1e-8}),
        ("detect-isometry", "isometry", "gram_rank_gap", 1e-7, {}),
    ]
    VERDICTS = {"majorize": "holds", "detect-isometry": "is_isometric_conjugation"}

    @pytest.mark.parametrize("sub,kind,extra,tolerances,code", [
        *[pytest.param(sub, kind, extra, {key: tol, **bounds}, 0, id=f"{sub}-{name}")
          for sub, kind, key, default, bounds in TOL_CASES
          for name, extra, tol in [("default", (), default), ("tol", ("--tol", "2e-6"), 2e-6)]],
        pytest.param("entropy", "state", (), {}, 0, id="entropy"),
        pytest.param("probe-entropy", "channel", ("--trials", "3"), {}, 0, id="probe-entropy"),
        pytest.param("majorize", "unmajorized", ("--require",), {"majorization_abs": 1e-9}, 1,
                     id="majorize-require-negative"),
        pytest.param("detect-isometry", "dephasing", ("--expect-isometry",),
                     {"gram_rank_gap": 1e-7}, 1, id="detect-isometry-expect-negative"),
    ])
    def test_default_tolerances_reported(self, inputs, capsys, sub, kind, extra, tolerances,
                                         code):
        """The tolerances block is --tol under its subcommand's key plus the fixed bounds;
        a negative verdict under --require / --expect-isometry exits 1 after writing the
        same report as without the flag, every ok_ check passed."""
        rc, out, err = run(capsys, sub, "--in", inputs[kind], *extra)
        assert (rc, err) == (code, "")
        report = json.loads(out)
        assert report["subcommand"] == sub
        assert report["tolerances"] == tolerances
        assert all(v for k, v in report["verified"].items() if k.startswith("ok_"))
        if sub in self.VERDICTS:
            assert report[self.VERDICTS[sub]] is (code == 0)
        if code:
            flagless = [a for a in extra if a not in ("--require", "--expect-isometry")]
            assert run(capsys, sub, "--in", inputs[kind], *flagless) == (0, out, "")


class TestOneLineReports:
    """Every JSON report, error reports and `gen` output included, is one line of
    sorted-key JSON with the json module's default separators."""

    @pytest.mark.parametrize("sub,kind,extra", [
        ("entropy", "state", ()), ("majorize", "pair", ()), ("transfer", "pair", ()),
        ("birkhoff", "matrix", ()), ("schur-horn", "pair", ()), ("uhlmann", "state-pair", ()),
        ("mixed-unitary", "state-pair", ()), ("detect-isometry", "channel", ()),
        ("probe-entropy", "channel", ("--trials", "5")), ("transfer", "unmajorized", ())])
    def test_report_is_one_line(self, inputs, capsys, sub, kind, extra):
        rc, out, err = run(capsys, sub, "--in", inputs[kind], *extra)
        assert rc == (1 if kind == "unmajorized" else 0)
        assert err == ""
        assert out == json.dumps(json.loads(out), sort_keys=True) + "\n"
        assert out.count("\n") == 1

    @pytest.mark.parametrize("kind", ["state", "pair", "state-pair", "channel"])
    def test_gen_output_is_one_line(self, capsys, kind):
        rc, out, _ = run(capsys, "gen", kind, "--d", "4", "--seed", "3")
        assert rc == 0
        assert out == json.dumps(json.loads(out), sort_keys=True) + "\n"
        assert out.count("\n") == 1


READERS = ("entropy", "majorize", "transfer", "birkhoff", "schur-horn", "uhlmann",
           "mixed-unitary", "pinch-converge", "detect-isometry", "probe-entropy")
KEYS = ("entries", "normalized", "d", "rows", "d_rows", "d_cols", "kind", "d_in", "d_out",
        "kraus", "flags", "trace_preserving", "unital", "steps", "i", "j", "t", "weights",
        "first", "changes", "term", "row", "col", "a", "b", "rho1", "rho2", "x\ny")
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
    birkhoff = st.fixed_dictionaries({"weights": st.lists(number, max_size=3),
                                      "first": st.lists(number, max_size=3),
                                      "changes": st.fixed_dictionaries(
                                          {key: st.lists(number, max_size=3)
                                           for key in ("term", "row", "col")})})
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
                returned = True
            except SystemExit as exc:  # argparse rejects a flag value
                rc, returned = exc.code, False
    assert rc in (0, 1, 2), (argv, rc)
    assert "Traceback" not in err.getvalue()
    if returned:  # main writes to stderr only its one `error:` line, on exit 2
        lines = err.getvalue().splitlines()
        if rc == 2:
            assert len(lines) == 1 and lines[0].startswith("error: "), argv
        else:
            assert err.getvalue() == "", argv
    if rc == 2:
        assert "error:" in err.getvalue(), argv
    elif sub != "pinch-converge":  # every other subcommand writes a JSON report
        json.loads(out.getvalue(), parse_constant=_refuse_constant)
