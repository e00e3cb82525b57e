#!/usr/bin/env python3
"""Benchmark of the entmaj command line as its users drive it.

    python3 perfbench/run.py --workload channel-verify --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15

One client calls `entmaj.cli.main` in-process, in a closed loop, on inputs
generated from `--seed` by the set-up.  The workload's fixed list of at least
MIN_OPS distinct ops (a pass) is repeated until `--seconds` have passed.  Every
run of every op is checked; a wrong output counts as a failed op.

A shared machine changes speed by tens of percent within seconds, so times
are scaled to a fixed reference speed: a reference block that never touches
entmaj (argparse, JSON parsing and small numpy eigensolves) is timed between ops,
and each op's latency is multiplied by REF_S over the reference's time around
it.  An op's latency is the median of its scaled runs.

`--trace 0` reports the end-to-end metrics.  `--trace 1` repeats passes for
`--seconds`, running each op untraced and traced back to back, and reports
per-layer metrics per pass, including the tracing overhead (traced minus
untraced pass time); its spans are written to `.perfbench_out/`.
`--workload all` runs each workload in a fresh process and prints one table.

Human-readable lines start with `#`; the last line of stdout is one JSON
object with the keys `correct`, `attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"
MIN_OPS = 100
SETUPS = 5
# Reference speed: the reference block's time (s) that scaled times assume,
# about its time on a 2.1 GHz Xeon vCPU in a fast phase.
REF_S = 0.002
# Reference blocks timed around each set-up, to scale its time.
SETUP_REFS = 5
# One BLAS thread: well under nproc, and the steadiest on a shared machine.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

FUNCTION_CALLS = ("cli.main", "serial.load_json", "seqmaj.is_majorized",
                  "seqmaj.shannon_entropy", "xfer.birkhoff_decompose",
                  "densop.eig_hermitian", "qchan.apply_channel")
FUNCTION_SELF_MS = FUNCTION_CALLS + (
    "serial.dumps_report", "xfer.find_transfer_chain", "xfer.schur_horn_orthogonal",
    "densop.DensityMatrix", "densop.random_density", "densop.trace_distance",
    "qchan.entropy_probe", "qchan.KrausChannel", "qchan.uhlmann_channel",
    "qchan.mixed_unitary_uhlmann", "qchan.pinch_convergence_experiment",
    "qchan.detect_isometry")
COUNTERS = {"serial.bytes_in": "bytes", "serial.bytes_out": "bytes",
            "xfer.birkhoff_terms": "count", "qchan.apply_channel.kraus_terms": "count",
            "qchan.probe_trials": "count", "qchan.mixed_unitary_terms": "count",
            "densop.linalg_eig_calls": "count"}


def machine_block() -> dict:
    import numpy
    import scipy
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_affinity": len(os.sched_getaffinity(0)),
            "cpu_model": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__, "blas": _blas_info()}


def _blas_info() -> dict:
    """BLAS name and version from numpy's build, threads from the loaded OpenBLAS."""
    import ctypes
    import glob
    import numpy
    info = {"env": {k: os.environ.get(k) for k in BLAS_ENV}, "threads": None}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info.update(name=blas.get("name"), version=blas.get("version"))
    except (TypeError, KeyError):
        pass
    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)  # already loaded by numpy; this only looks it up
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                fn = getattr(lib, symbol)
                fn.argtypes = []
                fn.restype = ctypes.c_int
                info.update(library=os.path.basename(path), threads=fn())
                return info
    return info


class Reference:
    """A fixed block of work outside entmaj, timed to read the machine's speed.

    It does in equal shares the three kinds of work a CLI call does besides
    entmaj's own Python: parse arguments with argparse, parse a small JSON
    matrix and solve small Hermitian eigenproblems.
    """

    def __init__(self):
        import numpy as np
        rng = np.random.default_rng(0)
        a = rng.standard_normal((12, 12))
        self._h = a + a.T
        self._eigh = np.linalg.eigh
        self._json = json.dumps([[[float(x), float(y)] for x, y in zip(row, row[::-1])]
                                 for row in rng.standard_normal((8, 8))])
        self._parser = argparse.ArgumentParser(prog="reference")
        sub = self._parser.add_subparsers(dest="command")
        for k in range(20):
            cmd = sub.add_parser(f"cmd{k}")
            cmd.add_argument("--in", dest="path")
            cmd.add_argument("--trials", type=int)
            cmd.add_argument("--seed", type=int)
        self._argv = ["cmd7", "--in", "x.json", "--trials", "25", "--seed", "3"]

    def time(self) -> float:
        start = time.perf_counter()
        for _ in range(16):
            self._parser.parse_args(self._argv)
        for _ in range(9):
            json.loads(self._json)
        for _ in range(30):
            self._eigh(self._h)
        return time.perf_counter() - start


def scale(latencies, refs):
    """Scale each latency to reference speed.

    refs[i] and refs[i + 1] are the reference times just before and after op
    i; the median of those and one more on each side reads its speed.
    """
    return [lat * REF_S / statistics.median(refs[max(0, i - 1):i + 3])
            for i, lat in enumerate(latencies)]


def run_pass(workload, ops, tracer=None, first_id=0, reference=None):
    """Run every op once; return per-op latencies (s), failure reasons and
    the reference times before each op and after the last (empty without
    a reference)."""
    from workloads import check_call, run_cli
    latencies, failures, refs = [], [], []
    for op_id, op in enumerate(ops, first_id):
        if reference is not None:
            refs.append(reference.time())
        latency, reason = 0.0, None
        with tracer.op(op_id) if tracer is not None else nullcontext():
            for call in workload.calls(op):
                start = time.perf_counter()
                try:
                    rc, out, err = run_cli(call.argv)
                except Exception as exc:  # the op fails; the run goes on
                    latency += time.perf_counter() - start
                    where = traceback.extract_tb(exc.__traceback__)[-1]
                    reason = reason or (f"{call.argv[0]}: {type(exc).__name__}: {exc} "
                                        f"at {where.filename}:{where.lineno}")
                    continue
                latency += time.perf_counter() - start
                reason = reason or check_call(call, rc, out, err)
        latencies.append(latency)
        if reason is not None:
            failures.append(reason)
    if reference is not None:
        refs.append(reference.time())
    return latencies, failures, refs


def _import_fresh():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    subprocess.run([sys.executable, "-c", "import entmaj.cli"], env=env, cwd=ROOT,
                   check=True, timeout=120)


def set_up(workload, seed, workdir, reference=None):
    """Import in a fresh interpreter, generate the inputs, warm up each subcommand.

    Returns the ops, the set-up time in seconds (scaled to reference speed
    by reference blocks timed before and after, when a reference is given)
    and the warm-up's failures.
    """
    import numpy as np
    refs = [reference.time() for _ in range(SETUP_REFS)] if reference is not None else []
    start = time.perf_counter()
    _import_fresh()
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    ops = workload.generate(np.random.default_rng(seed), str(workdir), workload.pass_ops)
    _, failures, _ = run_pass(workload, [min(ops, key=lambda op: op.d)])
    elapsed = time.perf_counter() - start
    if reference is not None:
        refs += [reference.time() for _ in range(SETUP_REFS)]
        elapsed *= REF_S / statistics.median(refs)
    return ops, elapsed, failures


def measure(workload, ops, seconds, reference):
    """Repeat passes for `seconds` (at least one).

    Returns each op's latencies scaled to reference speed, one per pass, the
    failure reasons and every reference time.
    """
    runs, failures, all_refs = [[] for _ in ops], [], []
    start = time.perf_counter()
    while not runs[0] or time.perf_counter() - start < seconds:
        gc.collect()
        lat, fails, refs = run_pass(workload, ops, reference=reference)
        for op_runs, x in zip(runs, scale(lat, refs)):
            op_runs.append(x)
        failures += fails
        all_refs += refs
    return runs, failures, all_refs


def end_to_end(workload, seed, seconds, workdir):
    reference = Reference()
    setups = [set_up(workload, seed, workdir, reference) for _ in range(SETUPS)]
    ops = setups[-1][0]
    warm_failures = [f for s in setups for f in s[2]]
    runs, failures, refs = measure(workload, ops, seconds, reference)
    failures = warm_failures + failures
    passes = len(runs[0])
    attempted = len(ops) * passes + len(setups)
    ms = [statistics.median(op_runs) * 1000.0 for op_runs in runs]
    note = f"n={len(ms)} ops, median of {passes} scaled runs each"
    report = {
        "wall_s": (sum(ms) / 1000.0, "s", f"sum over {note}"),
        "op_ms_p50": (statistics.median(ms), "ms", note),
        "op_ms_p90": (statistics.quantiles(ms, n=10, method="inclusive")[8], "ms", note),
        "setup_s": (statistics.median(s[1] for s in setups), "s",
                    f"median of {len(setups)} scaled set-ups"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        "MiB", "this process"),
    }
    report["fail_frac"] = (len(failures) / attempted, "ratio",
                           f"{len(failures)}/{attempted} ops, warm-ups included")
    q = statistics.quantiles(refs, n=4)
    extra = {"reference_ms": f"median {statistics.median(refs) * 1e3:.3f}, quartiles "
                             f"{q[0] * 1e3:.3f}-{q[2] * 1e3:.3f} over {len(refs)} blocks; "
                             f"times are scaled to {REF_S * 1e3:g}"}
    return report, attempted, failures, extra


def layer_metrics(agg, counts) -> dict:
    """Per-layer metrics of one traced pass: name -> (value, unit)."""
    def calls(name):
        return agg.get(name, {}).get("calls", 0)

    def self_ms(name):
        return agg.get(name, {}).get("self_ns", 0) / 1e6

    out = {f"{fn}.calls": (calls(fn), "count") for fn in FUNCTION_CALLS}
    out.update({f"{fn}.self_ms": (self_ms(fn), "ms") for fn in FUNCTION_SELF_MS})
    out.update({name: (counts.get(name, 0), unit) for name, unit in COUNTERS.items()})
    channels = calls("qchan.KrausChannel")
    checks = calls("qchan.KrausChannel.completeness_defect_of")
    trials = counts.get("qchan.probe_trials", 0)
    probe_ns = agg.get("qchan.entropy_probe", {}).get("incl_ns", 0)
    out.update({
        "densop.DensityMatrix.constructions": (calls("densop.DensityMatrix"), "count"),
        "qchan.KrausChannel.constructions": (channels, "count"),
        "qchan.completeness_checks": (checks, "count"),
        "qchan.completeness_checks_per_channel": (checks / channels if channels else 0.0,
                                                  "ratio"),
        "qchan.probe_us_per_trial": (probe_ns / 1e3 / trials if trials else 0.0, "us"),
        "serial.to_json.self_ms": (sum(self_ms(n) for n in agg if n.startswith("serial.")
                                       and n.endswith(("_to_json", ".to_json_value"))),
                                   "ms"),
    })
    from tracer import LAYERS
    for layer in LAYERS:
        out[f"layer.{layer}.self_ms"] = (sum((self_ms(n) for n in agg
                                              if n.startswith(layer + ".")), 0.0), "ms")
    return out


def traced(workload, seed, seconds, workdir):
    from tracer import Tracer, aggregate, write_spans
    spans_path = OUT / f"spans-{workload.name}-seed{seed}.csv"
    ops, _, failures = set_up(workload, seed, workdir)
    attempted = 1
    tracer = Tracer()
    per_pass, walls, spans = [], [], []
    start = time.perf_counter()
    while not per_pass or time.perf_counter() - start < seconds:
        gc.collect()
        wall = [0.0, 0.0]
        # Each op runs untraced and traced back to back, so both see the same
        # machine speed; the order alternates so warm caches favour neither.
        for op_id, op in enumerate(ops):
            for with_trace in ((False, True) if op_id % 2 else (True, False)):
                with tracer.installed() if with_trace else nullcontext():
                    lat, fails, _ = run_pass(workload, [op],
                                             tracer if with_trace else None, op_id)
                wall[with_trace] += lat[0]
                failures += fails
        spans, counts = tracer.take()
        per_pass.append(layer_metrics(aggregate(spans), counts))
        per_pass[-1]["trace.spans"] = (len(spans), "count")
        walls.append(wall)
        attempted += 2 * len(ops)
    OUT.mkdir(exist_ok=True)
    write_spans(spans, spans_path)

    report = {}
    unstable = []
    for name, (value, unit) in per_pass[0].items():
        if unit in ("ms", "us"):
            value = statistics.median(p[name][0] for p in per_pass)
        elif any(p[name][0] != value for p in per_pass):
            unstable.append(name)
        report[name] = (value, unit, f"per pass of {len(ops)} ops, {len(per_pass)} passes")
    untraced_wall = statistics.median(w[0] for w in walls)
    traced_wall = statistics.median(w[1] for w in walls)
    note = f"median of {len(walls)} passes"
    report["trace.untraced_wall_s"] = (untraced_wall, "s", note)
    report["trace.wall_s"] = (traced_wall, "s", note)
    report["trace.overhead_s"] = (traced_wall - untraced_wall, "s", note)
    failures += [f"count {name} differs between passes of one seed" for name in unstable]
    return report, attempted, failures, {"spans_file": str(spans_path.relative_to(ROOT))}


def run_one(name, seed, seconds, trace) -> int:
    from workloads import WORKLOADS
    if name not in WORKLOADS:
        print(f"error: unknown workload {name!r}; choose from {sorted(WORKLOADS)} or all",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[name]
    workdir = WORK / f"{name}-seed{seed}-pid{os.getpid()}"
    print(f"# perfbench workload={name} seed={seed} seconds={seconds} trace={trace}")
    print(f"# machine {json.dumps(machine_block(), sort_keys=True)}")
    try:
        if trace:
            report, attempted, failures, extra = traced(workload, seed, seconds, workdir)
        else:
            report, attempted, failures, extra = end_to_end(workload, seed, seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for key, value in extra.items():
        print(f"# {key}: {value}")
    for metric, (value, unit, note) in report.items():
        print(f"# {metric:<42} {value:>14.6g} {unit:<6} ({note})")
    for reason in failures[:20]:
        print(f"# FAILED {reason}")
    print(json.dumps(result_line(report, attempted, failures)))
    return 0


def result_line(report, attempted, failures) -> dict:
    """The final JSON object.  fail_frac is carried by `failed` / `attempted`."""
    metrics = {m: {"value": v, "unit": u} for m, (v, u, _n) in report.items()
               if m != "fail_frac"}
    return {"correct": not failures, "attempted": attempted, "failed": len(failures),
            "metrics": metrics}


def run_all(seed, seconds, trace) -> int:
    """Each workload in a fresh process (so peak RSS is its own), then one table."""
    from workloads import WORKLOADS
    results, ok = {}, True
    for name in WORKLOADS:
        proc = subprocess.run([sys.executable, __file__, "--workload", name,
                               "--seed", str(seed), "--seconds", str(seconds),
                               "--trace", str(trace)],
                              stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"# {name}: exited with {proc.returncode}")
            ok = False
            continue
        results[name] = json.loads(lines[-1])
        ok = ok and results[name]["correct"]
    names = sorted({m for r in results.values() for m in r["metrics"]})
    print(f"# {'metric':<44} {'unit':<6} " + " ".join(f"{n:>15}" for n in results))
    for metric in names:
        unit = next(r["metrics"][metric]["unit"] for r in results.values()
                    if metric in r["metrics"])
        cells = [f"{r['metrics'][metric]['value']:15.6g}" if metric in r["metrics"]
                 else f"{'-':>15}" for r in results.values()]
        print(f"# {metric:<44} {unit:<6} " + " ".join(cells))
    cells = [f"{r['failed'] / r['attempted']:15.6g}" for r in results.values()]
    print(f"# {'fail_frac':<44} {'ratio':<6} " + " ".join(cells))
    print(json.dumps(results))
    return 0 if ok else 1


def prepare():
    """Pin BLAS threads and import entmaj from this checkout; return an error or None."""
    if not (SRC / "entmaj" / "__init__.py").is_file():
        return f"no entmaj sources under {SRC}"
    os.environ.update(BLAS_ENV)
    sys.path.insert(0, str(SRC))
    import entmaj
    if not Path(entmaj.__file__).resolve().is_relative_to(SRC.resolve()):
        return f"entmaj imported from {entmaj.__file__}, not {SRC}"
    return None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    error = prepare()
    if error is not None:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    return run_one(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    raise SystemExit(main())
