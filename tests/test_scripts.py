"""Smoke test: each experiment script's main() runs with its smallest arguments."""

import importlib.util
import pathlib

SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"


def _main(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.main


def test_every_script_is_covered():
    assert {p.stem for p in SCRIPTS.glob("*.py")} == {
        "detector_corpus", "pinch_convergence", "entropy_gap_sweep", "mixed_unitary_scaling",
        "report_digest"}


def test_detector_corpus(capsys):
    _main("detector_corpus")(["--positives", "2", "--negatives", "2", "--trials", "5"])
    assert "4/4 classified correctly" in capsys.readouterr().out


def test_pinch_convergence(tmp_path, capsys):
    _main("pinch_convergence")(["--d", "3", "--states", "2", "--outdir", str(tmp_path)])
    assert sorted(p.name for p in tmp_path.iterdir()) == ["state_000.csv", "state_001.csv"]
    assert (tmp_path / "state_000.csv").read_text().splitlines()[0] == "n,trace_distance,bound"
    assert "worst slack over 2 states at d=3" in capsys.readouterr().out


def test_entropy_gap_sweep(capsys):
    _main("entropy_gap_sweep")(["--step", "0.05", "--samples", "2"])
    out = capsys.readouterr().out
    assert "overall minimum entropy gap" in out
    gap = float(out.split("overall minimum entropy gap: ")[1].split()[0])
    assert gap > 0



def test_mixed_unitary_scaling(capsys):
    _main("mixed_unitary_scaling")(["--d", "3"])
    header, row = capsys.readouterr().out.splitlines()
    assert header == "d,seconds,terms,trace_distance"
    d, _, terms, error = row.split(",")
    assert d == "3" and 1 <= int(terms) <= 3 and float(error) <= 1e-7


def test_report_digest_prints_the_same_lines_twice(capsys):
    runs = []
    for _ in range(2):
        _main("report_digest")(["--d", "2", "--seeds", "3"])
        runs.append(capsys.readouterr().out.splitlines())
    assert runs[0] == runs[1]
    # 4 gen outputs, 20 reports, the chain matrix and the isometric channel
    assert len(runs[0]) == 26
    assert runs[0][0].startswith("gen state --d 2 --seed 3 0 ")
    assert "save_json chain-matrix-2-3.json 0 " in "\n".join(runs[0])
    swapped = [line.split()[:-1] for line in runs[0] if "swapped" in line]
    assert swapped == [  # each refused with exit code 1
        ["majorize", "--in", "pair-swapped-2-3.json", "--require", "1"],
        ["transfer", "--in", "pair-swapped-2-3.json", "1"],
        ["schur-horn", "--in", "pair-swapped-2-3.json", "1"],
        ["uhlmann", "--in", "state-pair-swapped-2-3.json", "1"],
        ["mixed-unitary", "--in", "state-pair-swapped-2-3.json", "1"]]
    positive = [line.split()[:-1] for line in runs[0] if "isometric" in line]
    assert positive == [  # a positive detection above d = 1, each exit code 0
        ["save_json", "isometric-2-3.json", "0"],
        ["detect-isometry", "--in", "isometric-2-3.json", "0"],
        ["detect-isometry", "--in", "isometric-2-3.json", "--expect-isometry", "0"],
        ["probe-entropy", "--in", "isometric-2-3.json", "--trials", "25", "--seed", "3", "0"]]
    assert all(len(line.split()[-1]) == 64 for line in runs[0])
