#!/usr/bin/env python3
"""Print one `argv exit-code sha256` line per `gen` output and per subcommand report.

Every `gen` kind is drawn at each --d and --seed, and each output is read by every
subcommand that takes it, verdict flags included; `birkhoff` reads the pair's chain
matrix, and `pinch-converge` also reads each state beside the basis
`haar_unitary(d, default_rng(seed))`, both written by `save_json`.  Each pair and state pair is also read
with its two values swapped, by the subcommands that require the first majorized by the
second, so their refusals are covered too.  At each --d and --seed an isometric
conjugation from d to d + 1 with three Kraus terms, written by `save_json`, is read by
the channel readers, so positive detections above d = 1 are covered as well.  At the
first --d and --seed, each `gen` output is also mutated in a fixed grid and read by the
first subcommand that takes it, so that every refusal is covered: each field of each
object deleted, or replaced by true, "x", 0, null or [], an unknown key "zz" in each
object, the top level a list or a number, and two faults at once (a field deleted or
made "x" beside a "zz", and a state's bad entry beside a bad "kind").  The hash covers
stdout then stderr, the temporary directory cut from both, so a `diff` of the output at
two commits names every report, file, error or exit code that changed:

    PYTHONPATH=src python scripts/report_digest.py > digest.txt
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import tempfile
from functools import reduce
from operator import getitem

from numpy.random import default_rng

from entmaj import cli
from entmaj.densop import haar_unitary
from entmaj.qchan import random_isometric_conjugation_channel
from entmaj.serial import dumps_report, prob_vector_from_json, read_json, save_json
from entmaj.xfer import chain_to_doubly_stochastic, find_transfer_chain

READERS = {  # the runs on each gen kind's output, "{0}" standing for its file
    "state": ["entropy --in {0}", "pinch-converge --in {0}"],
    "pair": ["majorize --in {0}", "majorize --in {0} --require", "transfer --in {0}",
             "schur-horn --in {0}"],
    "state-pair": ["uhlmann --in {0}", "mixed-unitary --in {0}"],
    "channel": ["detect-isometry --in {0}", "detect-isometry --in {0} --expect-isometry",
                "probe-entropy --in {0} --trials 25 --seed {1}"],
}
SWAPPED_READERS = {  # the runs on each bundle with its two values swapped
    "pair": ["majorize --in {0} --require", "transfer --in {0}", "schur-horn --in {0}"],
    "state-pair": ["uhlmann --in {0}", "mixed-unitary --in {0}"],
}
JUNK = {"true": True, "x": "x", "0": 0, "null": None, "list": []}  # each of another type
DELETE = object()


def digest(argv: list[str], code: int, data: bytes, tmp: str):
    print(" ".join(argv).replace(tmp + os.sep, ""), code, hashlib.sha256(data).hexdigest())


def save(value, path: str, tmp: str):
    """Write `value` with `save_json` and print the digest line of the file."""
    save_json(value, path)
    with open(path, "rb") as fh:
        digest(["save_json", path], 0, fh.read(), tmp)


def run(argv: list[str], tmp: str) -> bytes:
    """Print the digest line of `cli.main(argv)`; return its stdout."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    digest(argv, code, (out.getvalue() + err.getvalue()).replace(tmp + os.sep, "").encode(),
           tmp)
    return out.getvalue().encode()


def objects(value, path=()):
    """The path of every JSON object within `value`, each before those it holds."""
    if isinstance(value, dict):
        yield path
    for key, item in (value.items() if isinstance(value, dict) else
                      enumerate(value) if isinstance(value, list) else ()):
        yield from objects(item, (*path, key))


def edited(text: str, *changes):
    """The JSON `text` read afresh with each (path, value) of `changes` set, DELETE
    deleting the key."""
    value = json.loads(text)
    for (*parents, key), new in changes:
        node = reduce(getitem, parents, value)
        if new is DELETE:
            del node[key]
        else:
            node[key] = new
    return value


def mutants(text: str):
    """(label, value) for each fault of the grid on the JSON `text`."""
    yield "top-list", []
    yield "top-number", 0
    for path in objects(json.loads(text)):
        node = reduce(getitem, path, json.loads(text))
        at = "".join(f"{key}." for key in path)
        yield f"{at}zz", edited(text, ((*path, "zz"), 1))
        for key in node:
            field = (*path, key)
            yield f"{at}{key}-del", edited(text, (field, DELETE))
            for name, junk in JUNK.items():
                yield f"{at}{key}-{name}", edited(text, (field, junk))
            yield f"{at}{key}-del+zz", edited(text, (field, DELETE), ((*path, "zz"), 1))
            yield f"{at}{key}-x+zz", edited(text, (field, "x"), ((*path, "zz"), 1))
        if "kind" in node:
            yield f"{at}rows-x+kind-x", edited(text, ((*path, "rows", 0, 0, 0), "x"),
                                               ((*path, "kind"), "x"))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--d", type=int, nargs="+", default=[1, 4, 20, 64])
    ap.add_argument("--seeds", type=int, nargs="+", default=[0, 7, 11])
    args = ap.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        for kind, d, seed in ((k, d, s) for k in READERS for d in args.d for s in args.seeds):
            path = os.path.join(tmp, f"{kind}-{d}-{seed}.json")
            with open(path, "wb") as fh:
                fh.write(run(["gen", kind, "--d", str(d), "--seed", str(seed)], tmp))
            for cmd in READERS[kind]:
                run(cmd.format(path, seed).split(), tmp)
            if (d, seed) == (args.d[0], args.seeds[0]):
                with open(path, encoding="utf-8") as fh:
                    text = fh.read()
                for label, value in mutants(text):
                    mutant = os.path.join(tmp, f"{kind}-mutant-{label}.json")
                    with open(mutant, "w", encoding="utf-8") as fh:
                        fh.write(dumps_report(value))
                    run(READERS[kind][0].format(mutant, seed).split(), tmp)
            if kind in SWAPPED_READERS:
                (first, x), (second, y) = read_json(path).items()
                swapped = os.path.join(tmp, f"{kind}-swapped-{d}-{seed}.json")
                with open(swapped, "w", encoding="utf-8") as fh:
                    fh.write(dumps_report({first: y, second: x}))
                for cmd in SWAPPED_READERS[kind]:
                    run(cmd.format(swapped).split(), tmp)
            if kind == "pair":
                a, b = (prob_vector_from_json(read_json(path)[k]) for k in "ab")
                matrix = os.path.join(tmp, f"chain-matrix-{d}-{seed}.json")
                save(chain_to_doubly_stochastic(find_transfer_chain(a, b)), matrix, tmp)
                run(["birkhoff", "--in", matrix], tmp)
            if kind == "state":
                basis = os.path.join(tmp, f"basis-{d}-{seed}.json")
                save(haar_unitary(d, default_rng(seed)), basis, tmp)
                run(["pinch-converge", "--in", path, "--in", basis], tmp)
        for d, seed in ((d, s) for d in args.d for s in args.seeds):
            phi, _ = random_isometric_conjugation_channel(d, d + 1, default_rng(seed), 3)
            path = os.path.join(tmp, f"isometric-{d}-{seed}.json")
            save(phi, path, tmp)
            for cmd in READERS["channel"]:
                run(cmd.format(path, seed).split(), tmp)


if __name__ == "__main__":
    main()
