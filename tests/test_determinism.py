"""Seeded determinism: every `gen` output and every subcommand's report match a fixture.

The fixture holds the outputs of `gen {pair,state,state-pair,channel} --d {1,4,20}
--seed {0,7}` and the reports of each subcommand on them.  `birkhoff` reads the
squared entries of the orthogonal matrix that the `schur-horn` rotations of each pair
rebuild, its orthostochastic certificate.  Every report is run on the fixture's own
inputs, so each comparison sees only the arithmetic of its own subcommand.

Values that make no BLAS or LAPACK call are compared exactly: `gen pair`, the
`majorize` reports, and every integer, such as the probe's `base_seed` and
`worst_trial`.  Every other real is compared within 1e-12, because QR, `eigh` and
matrix products may differ in their last bits across BLAS builds.  A probe whose
largest deviation is rounding noise, as for every channel at d = 1, names no worst
trial, so no report depends on which trial's noise is largest.

A change that moves a seeded stream on purpose rebuilds the fixture, and says so:

    PYTHONPATH=src python tests/test_determinism.py
"""

import gzip
import json
import pathlib
import tempfile

import pytest

from certificates import orthogonal_of_rotations
from entmaj.cli import main

FIXTURE = pathlib.Path(__file__).resolve().parent / "fixtures" / "determinism.json.gz"
GEN = [f"gen {kind} --d {d} --seed {seed}" for kind in ("pair", "state", "state-pair", "channel")
       for d in (1, 4, 20) for seed in (0, 7)]
REPORTS = {  # the subcommands run on each kind of gen output, beside its --in
    "pair": (["majorize"], ["transfer"], ["schur-horn"]),
    "state": (["entropy"], ["pinch-converge"]),
    "state-pair": (["uhlmann"], ["mixed-unitary"]),
    "channel": (["detect-isometry"], ["probe-entropy", "--trials", "4", "--seed", "3"]),
}
EXACT = ("gen pair", "majorize")
ABS_TOL = 1e-12


def _run(argv, inputs, workdir):
    """(exit code, output) of the CLI on argv, each --in naming one of `inputs`; the output
    is the parsed JSON report, or the text of a pinch-converge table."""
    workdir = pathlib.Path(workdir)
    args = list(argv)
    for k, arg in enumerate(argv[:-1]):
        if arg == "--in":
            path = workdir / f"in{k}.json"
            path.write_text(json.dumps(inputs[argv[k + 1]]))
            args[k + 1] = str(path)
    out = workdir / "out"
    rc = main([*args, "--out", str(out)])
    text = out.read_text()
    return rc, text if argv[0] == "pinch-converge" else json.loads(text)


def _cases():
    """The argv of every report, in fixture order."""
    for name in GEN:
        kind = name.split()[1]
        for sub in REPORTS[kind]:
            yield [sub[0], "--in", name, *sub[1:]]
        if kind == "pair":
            yield ["birkhoff", "--in", f"squared schur-horn of {name}"]


def build():
    """The fixture, computed by this checkout."""
    inputs, reports = {}, []
    with tempfile.TemporaryDirectory() as workdir:
        for name in GEN:
            inputs[name] = _run(name.split(), {}, workdir)[1]
        for argv in _cases():
            rc, output = _run(argv, inputs, workdir)
            reports.append({"argv": argv, "exit": rc, "output": output})
            if argv[0] == "schur-horn":
                u = orthogonal_of_rotations(output["rotations"]).entries
                inputs[f"squared schur-horn of {argv[2]}"] = {"d": u.shape[0],
                                                              "rows": (u ** 2).tolist()}
    return {"inputs": inputs, "reports": reports}


def _load():
    return json.loads(gzip.decompress(FIXTURE.read_bytes()))


def assert_same(got, want, exact, where="output"):
    """got equals want in structure, keys, types and every non-real; reals agree exactly if
    `exact`, else within ABS_TOL."""
    assert type(got) is type(want), where
    if isinstance(want, dict):
        assert sorted(got) == sorted(want), where
        for key in want:
            assert_same(got[key], want[key], exact, f"{where}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), where
        for k, (g, w) in enumerate(zip(got, want)):
            assert_same(g, w, exact, f"{where}[{k}]")
    elif isinstance(want, float) and not exact:
        assert abs(got - want) <= ABS_TOL, (where, got, want)
    else:
        assert got == want, (where, got, want)


def _table(text):
    """A pinch-converge table as its header and its rows of numbers."""
    header, columns, *rows = text.splitlines()
    return [header, columns, *([int(n), float(dist), float(bound)]
                               for n, dist, bound in (row.split(",") for row in rows))]


FIXTURE_DATA = _load() if FIXTURE.exists() else {"inputs": {}, "reports": []}


@pytest.mark.parametrize("name", GEN)
def test_gen_output_matches_fixture(tmp_path, name):
    rc, output = _run(name.split(), {}, tmp_path)
    assert rc == 0
    assert_same(output, FIXTURE_DATA["inputs"][name], name.startswith(EXACT))


@pytest.mark.parametrize("case", FIXTURE_DATA["reports"], ids=lambda c: " ".join(c["argv"]))
def test_report_matches_fixture(tmp_path, case):
    rc, output = _run(case["argv"], FIXTURE_DATA["inputs"], tmp_path)
    assert rc == case["exit"]
    want = case["output"]
    if case["argv"][0] == "pinch-converge":
        output, want = _table(output), _table(want)
    assert_same(output, want, case["argv"][0] in EXACT)


def test_fixture_covers_every_subcommand():
    subcommands = {case["argv"][0] for case in FIXTURE_DATA["reports"]}
    assert subcommands == {"entropy", "majorize", "transfer", "birkhoff", "schur-horn", "uhlmann",
                           "mixed-unitary", "pinch-converge", "detect-isometry", "probe-entropy"}
    assert set(GEN) <= set(FIXTURE_DATA["inputs"])


if __name__ == "__main__":
    FIXTURE.parent.mkdir(exist_ok=True)
    text = json.dumps(build(), sort_keys=True) + "\n"
    FIXTURE.write_bytes(gzip.compress(text.encode(), compresslevel=9, mtime=0))
