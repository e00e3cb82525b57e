"""The benchmark's workloads: seeded inputs, the CLI calls of one op, and output checks.

Each workload turns a seed into a fixed list of ops (one "pass").  An op is a
short sequence of `entmaj` subcommands on one generated input; every call's
exit code, stderr and report are checked against what the input guarantees.

Sizes are stratified rather than drawn independently: each pass covers its
size ranges the same way on every seed (channel dimensions and term counts
cycle through their ranges from seeded offsets, vector sizes take one seeded
offset on a log-uniform grid, state sizes are spread evenly), while the seed
draws the matrices.  The sizes still follow the stated distributions, and
the work of a pass barely moves between seeds.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from entmaj import cli
from entmaj.qchan import depolarizing_channel, random_isometric_conjugation_channel
from entmaj.serial import prob_vector_from_json, save_json
from entmaj.xfer import chain_to_doubly_stochastic, find_transfer_chain

# Criterion 7's thresholds on the largest entropy deviation of a probe.
POSITIVE_MAX_DEVIATION = 1e-6
NEGATIVE_MIN_DEVIATION = 1e-3
PROBE_TRIALS = 25


@dataclass(frozen=True)
class Call:
    """One CLI invocation and what its output must show."""

    argv: tuple[str, ...]
    expect_rc: int = 0
    expect: dict = field(default_factory=dict)


@dataclass
class Op:
    """One benchmark operation: its input files, size and (for channels) truth."""

    files: dict[str, str]
    d: int
    truth: Optional[bool] = None
    probe_seed: int = 0


@dataclass(frozen=True)
class Workload:
    name: str
    pass_ops: int
    generate: Callable[[np.random.Generator, str, int], list[Op]]
    calls: Callable[[Op], list[Call]]


def run_cli(argv) -> tuple[int, str, str]:
    """Run `entmaj.cli.main` in-process; return (exit code, stdout, stderr).

    `cli.main` is looked up on each call so a tracer's wrapper is used.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(list(argv))
        except SystemExit as exc:  # argparse rejects its arguments this way
            err.write(f"error: SystemExit({exc.code}) escaped main\n")
            rc = exc.code if isinstance(exc.code, int) else 2
    return rc, out.getvalue(), err.getvalue()


def _gen(kind: str, d: int, seed: int, path: str):
    rc, _out, err = run_cli(("gen", kind, "--d", str(d), "--seed", str(seed), "--out", path))
    if rc != 0:
        raise RuntimeError(f"gen {kind} --d {d} --seed {seed} failed: {err.strip()}")


def _seed(rng) -> int:
    return int(rng.integers(2**31))


def check_call(call: Call, rc, out: str, err: str) -> Optional[str]:
    """Return why a call's output is wrong, or None when it is right."""
    sub = call.argv[0]
    if rc != call.expect_rc:
        return f"{sub}: exit code {rc}, expected {call.expect_rc}"
    if "Traceback" in err or any(line.startswith("error:") for line in err.splitlines()):
        return f"{sub}: stderr reports {err.strip()[:200]!r}"
    if sub == "pinch-converge":
        header = out.splitlines()[0] if out else ""
        if "ok_bound=True" not in header or "ok_final=True" not in header:
            return f"pinch-converge: header {header!r}"
        return None
    try:
        report = json.loads(out)
    except json.JSONDecodeError as exc:
        return f"{sub}: report is not JSON ({exc})"
    if not isinstance(report, dict) or not isinstance(report.get("verified", {}), dict):
        return f"{sub}: report is not a JSON object with a verified block"
    bad = [k for k, v in report.get("verified", {}).items() if k.startswith("ok_") and not v]
    if bad:
        return f"{sub}: verified {bad} false"
    for key, want in call.expect.items():
        if key in ("max_deviation_at_most", "max_deviation_at_least"):
            got = report.get("max_abs_entropy_deviation")
            if not isinstance(got, (int, float)) or not (
                    got <= want if key == "max_deviation_at_most" else got >= want):
                return f"{sub}: entropy deviation {got!r} breaks {key} {want}"
        elif report.get(key) != want:
            return f"{sub}: {key} is {report.get(key)!r}, expected {want!r}"
    return None


# --- channel-verify -------------------------------------------------------

def _cycle(k: int, offset: int, lo: int, hi: int) -> int:
    """The k-th value of lo..hi visited in order from a seeded offset."""
    return lo + (k + offset) % (hi - lo + 1)


def generate_channels(rng, workdir: str, n: int) -> list[Op]:
    """Half isometric conjugations, a quarter `gen channel`, a quarter depolarizing."""
    offsets = [int(x) for x in rng.integers(0, 35, size=4)]
    ops = []
    n_pos = n // 2
    for k in range(n):
        path = os.path.join(workdir, f"channel_{k}.json")
        if k < n_pos:
            d_in = _cycle(k, offsets[0], 2, 8)
            d_out = int(rng.integers(d_in, 13))
            terms = _cycle(k, offsets[1], 1, 5)
            chan, _ = random_isometric_conjugation_channel(d_in, d_out, rng, num_terms=terms)
            save_json(chan, path)
            truth = True
        elif (k - n_pos) % 2 == 0:
            d_in = _cycle(k, offsets[2], 2, 8)
            _gen("channel", d_in, _seed(rng), path)
            truth = False
        else:
            d_in = _cycle(k, offsets[3], 2, 8)
            save_json(depolarizing_channel(d_in, float(rng.uniform(0.2, 1.0))), path)
            truth = False
        ops.append(Op(files={"channel": path}, d=d_in, truth=truth, probe_seed=_seed(rng)))
    return [ops[i] for i in rng.permutation(n)]


def channel_calls(op: Op) -> list[Call]:
    path = op.files["channel"]
    bound = ({"max_deviation_at_most": POSITIVE_MAX_DEVIATION} if op.truth
             else {"max_deviation_at_least": NEGATIVE_MIN_DEVIATION})
    return [
        Call(("detect-isometry", "--in", path, "--expect-isometry"),
             expect_rc=0 if op.truth else 1,
             expect={"is_isometric_conjugation": op.truth}),
        Call(("probe-entropy", "--in", path, "--trials", str(PROBE_TRIALS),
              "--seed", str(op.probe_seed)),
             expect={"trials": PROBE_TRIALS, **bound}),
    ]


# --- vector-certify -------------------------------------------------------

def _log_uniform_strata(rng, n: int, lo: int, hi: int) -> list[int]:
    """n sizes log-uniform on [lo, hi], one per stratum, from one seeded offset."""
    u = float(rng.random())
    return [int(round(lo * (hi / lo) ** ((k + u) / n))) for k in range(n)]


def generate_pairs(rng, workdir: str, n: int) -> list[Op]:
    """`gen pair` bundles at d log-uniform in 32..128, plus each pair's chain matrix."""
    ops = []
    for k, d in enumerate(_log_uniform_strata(rng, n, 32, 128)):
        pair = os.path.join(workdir, f"pair_{k}.json")
        matrix = os.path.join(workdir, f"chain_matrix_{k}.json")
        _gen("pair", d, _seed(rng), pair)
        with open(pair, encoding="utf-8") as fh:
            bundle = json.load(fh)
        chain = find_transfer_chain(prob_vector_from_json(bundle["a"]),
                                    prob_vector_from_json(bundle["b"]))
        save_json(chain_to_doubly_stochastic(chain), matrix)
        ops.append(Op(files={"pair": pair, "matrix": matrix}, d=d))
    return [ops[i] for i in rng.permutation(n)]


def pair_calls(op: Op) -> list[Call]:
    pair = op.files["pair"]
    return [
        Call(("majorize", "--in", pair, "--require"), expect={"holds": True}),
        Call(("transfer", "--in", pair)),
        Call(("schur-horn", "--in", pair)),
        Call(("birkhoff", "--in", op.files["matrix"])),
    ]


# --- state-transfer -------------------------------------------------------

def generate_state_pairs(rng, workdir: str, n: int) -> list[Op]:
    """`gen state-pair` bundles with d uniform in 6..20, and their states split out."""
    ops = []
    for k in range(n):
        d = 6 + 15 * k // n  # stratified: each d gets n/15 ops, rounded
        bundle_path = os.path.join(workdir, f"state_pair_{k}.json")
        _gen("state-pair", d, _seed(rng), bundle_path)
        with open(bundle_path, encoding="utf-8") as fh:
            bundle = json.load(fh)
        files = {"bundle": bundle_path}
        for role in ("rho1", "rho2"):
            files[role] = os.path.join(workdir, f"{role}_{k}.json")
            with open(files[role], "w", encoding="utf-8") as fh:
                json.dump(bundle[role], fh)
        ops.append(Op(files=files, d=d))
    return [ops[i] for i in rng.permutation(n)]


def state_calls(op: Op) -> list[Call]:
    bundle = op.files["bundle"]
    return [
        Call(("uhlmann", "--in", bundle)),
        Call(("mixed-unitary", "--in", bundle)),
        Call(("entropy", "--in", op.files["rho1"])),
        Call(("pinch-converge", "--in", op.files["rho2"])),
    ]


# Pass sizes: at least the 100 distinct ops a run's percentiles need.  Op
# costs grow steeply with d, so percentiles are only steady across seeds when
# many inputs sit near each of them.  channel-verify repeats its pass about
# five times in a 15 s run; the other two have time for one pass.
WORKLOADS = {w.name: w for w in (
    Workload("channel-verify", 112, generate_channels, channel_calls),
    Workload("vector-certify", 100, generate_pairs, pair_calls),
    Workload("state-transfer", 100, generate_state_pairs, state_calls),
)}
