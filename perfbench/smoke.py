#!/usr/bin/env python3
"""Smoke check of the benchmark itself, with tiny op counts.

    python3 perfbench/smoke.py

Checks that every metric BENCHMARK.json declares is emitted, that a traced
run's counts repeat exactly for one seed, that a deliberately wrong expected
verdict shows up as a failed op (so the gate can fail), and that the
benchmark refuses to run without the program's sources.  Takes about a
minute; exits 0 when every check holds.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys

import run

TINY_OPS = 4
SEED = 3


def _declared():
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    return ({m["name"]: m["unit"] for m in bench["end_to_end"]},
            {m["name"]: m["unit"] for m in bench["per_layer"]})


def _units(line):
    return {name: m["unit"] for name, m in line["metrics"].items()}


def check_metric_names(workloads, end_to_end, per_layer):
    for name, workload in workloads.items():
        workdir = run.WORK / f"smoke-{name}"
        report, attempted, failures, _ = run.end_to_end(workload, SEED, 0, workdir)
        line = run.result_line(report, attempted, failures)
        assert line["correct"], (name, failures)
        assert _units(line) == end_to_end, (name, sorted(_units(line)))
        assert "fail_frac" in report, name
        counts = []
        for _ in range(2):
            report, attempted, failures, _ = run.traced(workload, SEED, 0, workdir)
            line = run.result_line(report, attempted, failures)
            assert line["correct"], (name, failures)
            assert _units(line) == per_layer, (name, sorted(_units(line)))
            counts.append({m: v["value"] for m, v in line["metrics"].items()
                           if v["unit"] in ("count", "bytes", "ratio")})
        assert counts[0] == counts[1], (name, counts)
        shutil.rmtree(workdir, ignore_errors=True)
        print(f"ok {name}: metric names and traced counts")


def check_wrong_verdict_fails(workload):
    workdir = run.WORK / "smoke-wrong-verdict"
    ops, _, _ = run.set_up(workload, SEED, workdir)
    ops[0].truth = not ops[0].truth
    runs, failures, _ = run.measure(workload, ops, 0, run.Reference())
    shutil.rmtree(workdir, ignore_errors=True)
    fail_frac = len(failures) / sum(len(r) for r in runs)
    assert fail_frac > 0, failures
    print(f"ok wrong expected verdict: fail_frac {fail_frac:.3f} ({failures[0]})")


def check_refuses_without_sources():
    bare = run.WORK / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "channel-verify",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0 and '"correct"' not in proc.stdout, proc
    print(f"ok without sources: exit {proc.returncode}, no result line")


def main() -> int:
    error = run.prepare()
    if error is not None:
        print(f"error: {error}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS
    assert all(w.pass_ops >= run.MIN_OPS for w in WORKLOADS.values())
    end_to_end, per_layer = _declared()
    tiny = {n: dataclasses.replace(w, pass_ops=TINY_OPS) for n, w in WORKLOADS.items()}
    check_metric_names(tiny, end_to_end, per_layer)
    check_wrong_verdict_fails(tiny["channel-verify"])
    check_refuses_without_sources()
    print("smoke: all checks passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
