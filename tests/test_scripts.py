"""Smoke test: each experiment script's main() runs with its smallest arguments."""

import importlib.util
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"


def _main(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.main


def test_every_script_is_covered():
    assert {p.stem for p in SCRIPTS.glob("*.py")} == {
        "detector_corpus", "entropy_gap_sweep", "report_digest"}


def test_readme_lists_every_script():
    """README's "Experiment scripts" section names exactly the files in scripts/."""
    scripts = {p.stem for p in SCRIPTS.glob("*.py")}
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Experiment scripts\n", 1)[1].split("\n## ", 1)[0]
    assert set(re.findall(r"scripts/(\w+)\.py", section)) == scripts


def test_detector_corpus(capsys):
    _main("detector_corpus")(["--positives", "2", "--negatives", "2", "--trials", "5"])
    assert "4/4 classified correctly" in capsys.readouterr().out


def test_entropy_gap_sweep(capsys):
    _main("entropy_gap_sweep")(["--step", "0.05", "--samples", "2"])
    out = capsys.readouterr().out
    assert "overall minimum entropy gap" in out
    gap = float(out.split("overall minimum entropy gap: ")[1].split()[0])
    assert gap > 0


def test_report_digest_prints_the_same_lines_twice(capsys):
    runs = []
    for _ in range(2):
        _main("report_digest")(["--d", "2", "--seeds", "3"])
        runs.append(capsys.readouterr().out.splitlines())
    assert runs[0] == runs[1]
    # 4 gen outputs, 21 reports, the chain matrix, the basis, the isometric channel and
    # 328 mutants
    assert len(runs[0]) == 356
    assert runs[0][0].startswith("gen state --d 2 --seed 3 0 ")
    assert "save_json chain-matrix-2-3.json 0 " in "\n".join(runs[0])
    swapped = [line.split()[:-1] for line in runs[0] if "swapped" in line]
    assert swapped == [  # each refused with exit code 1
        ["majorize", "--in", "pair-swapped-2-3.json", "--require", "1"],
        ["transfer", "--in", "pair-swapped-2-3.json", "1"],
        ["schur-horn", "--in", "pair-swapped-2-3.json", "1"],
        ["uhlmann", "--in", "state-pair-swapped-2-3.json", "1"],
        ["mixed-unitary", "--in", "state-pair-swapped-2-3.json", "1"]]
    based = [line.split()[:-1] for line in runs[0] if "basis" in line]
    assert based == [  # the state read in a Haar basis, each exit code 0
        ["save_json", "basis-2-3.json", "0"],
        ["pinch-converge", "--in", "state-2-3.json", "--in", "basis-2-3.json", "0"]]
    positive = [line.split()[:-1] for line in runs[0] if "isometric" in line]
    assert positive == [  # a positive detection above d = 1, each exit code 0
        ["save_json", "isometric-2-3.json", "0"],
        ["detect-isometry", "--in", "isometric-2-3.json", "0"],
        ["detect-isometry", "--in", "isometric-2-3.json", "--expect-isometry", "0"],
        ["probe-entropy", "--in", "isometric-2-3.json", "--trials", "25", "--seed", "3", "0"]]
    mutants = {line.split()[2]: line.split()[-2] for line in runs[0] if "-mutant-" in line}
    assert len(mutants) == 328
    # each mutant exits 2, but one that leaves out an optional field or claims true
    accepted = ["state-mutant-kind-del", "state-pair-mutant-rho1.kind-del",
                "state-pair-mutant-rho2.kind-del", "channel-mutant-flags-del",
                *(f"{name}-{fault}" for fault in ("del", "true") for name in (
                    "pair-mutant-a.normalized", "pair-mutant-b.normalized",
                    "channel-mutant-flags.trace_preserving", "channel-mutant-flags.unital"))]
    assert {name: code for name, code in mutants.items() if code != "2"} == {
        f"{name}.json": "0" for name in accepted}
    assert all(len(line.split()[-1]) == 64 for line in runs[0])
