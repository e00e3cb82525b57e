#!/usr/bin/env python3
"""Print one `argv exit-code sha256` line per `gen` output and per subcommand report.

Every `gen` kind is drawn at each --d and --seed, and each output is read by every
subcommand that takes it, verdict flags included; `birkhoff` reads the pair's chain
matrix, written by `save_json`.  Each pair and state pair is also read with its two
values swapped, by the subcommands that require the first majorized by the second, so
their refusals are covered too.  At each --d and --seed an isometric conjugation from d
to d + 1 with three Kraus terms, written by `save_json`, is read by the channel readers,
so positive detections above d = 1 are covered as well.  The hash covers stdout then
stderr, so a `diff` of the output at two commits names every report, file, error or exit
code that changed:

    PYTHONPATH=src python scripts/report_digest.py > digest.txt
"""

import argparse
import contextlib
import hashlib
import io
import os
import tempfile

from numpy.random import default_rng

from entmaj import cli
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
    digest(argv, code, (out.getvalue() + err.getvalue()).encode(), tmp)
    return out.getvalue().encode()


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
        for d, seed in ((d, s) for d in args.d for s in args.seeds):
            phi, _ = random_isometric_conjugation_channel(d, d + 1, default_rng(seed), 3)
            path = os.path.join(tmp, f"isometric-{d}-{seed}.json")
            save(phi, path, tmp)
            for cmd in READERS["channel"]:
                run(cmd.format(path, seed).split(), tmp)


if __name__ == "__main__":
    main()
