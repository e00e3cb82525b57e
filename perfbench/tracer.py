"""In-memory span tracer that wraps the public functions of entmaj's layers.

The program itself records nothing; this tracer patches it from the outside
while it is installed and restores every name when it is uninstalled.

A span is ``[name, parent, op, start_ns, end_ns]``; ``parent`` is the index
of the enclosing span in the same list (-1 for a root) and ``op`` the id of
the benchmark operation that caused it.  A span's self time is its duration
minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
from collections import Counter
from contextlib import contextmanager
from time import perf_counter_ns

LAYERS = ("cli", "serial", "seqmaj", "xfer", "densop", "qchan")
OP_SPAN = "op"


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _count_kraus_terms(counts, args, kwargs, result):
    counts["qchan.apply_channel.kraus_terms"] += len(getattr(_arg(args, kwargs, 0, "phi"),
                                                             "kraus", ()))


def _count_probe_trials(counts, args, kwargs, result):
    counts["qchan.probe_trials"] += int(_arg(args, kwargs, 1, "trials"))


def _count_mixed_unitary_terms(counts, args, kwargs, result):
    counts["qchan.mixed_unitary_terms"] += len(getattr(result, "unitaries", ()))


def _count_birkhoff_terms(counts, args, kwargs, result):
    counts["xfer.birkhoff_terms"] += len(getattr(result, "permutations", ()))


def _count_bytes_out(counts, args, kwargs, result):
    counts["serial.bytes_out"] += len(result)


def _count_bytes_in(counts, args, kwargs, result):
    argv = list(_arg(args, kwargs, 0, "argv"))
    for flag, value in zip(argv, argv[1:]):
        if flag == "--in":
            counts["serial.bytes_in"] += os.path.getsize(value)


# Counters derived from a wrapped call's arguments or result.  They read
# attributes defensively so a change to a value type cannot fail the call.
HOOKS = {
    "qchan.apply_channel": _count_kraus_terms,
    "qchan.entropy_probe": _count_probe_trials,
    "qchan.mixed_unitary_uhlmann": _count_mixed_unitary_terms,
    "xfer.birkhoff_decompose": _count_birkhoff_terms,
    "serial.dumps_report": _count_bytes_out,
    "cli.main": _count_bytes_in,
}

# numpy's Hermitian eigensolvers are counted, not spanned, so their time stays
# in the self time of the entmaj function that called them.
EIGEN_SOLVERS = ("eigh", "eigvalsh")


class Tracer:
    """Records spans and counters while installed; `take` hands them over."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack = [-1]
        self._op = -1
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans = self.spans
            span = [name, self._stack[-1], self._op, 0, 0]
            self._stack.append(len(spans))
            spans.append(span)
            span[3] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = perf_counter_ns()
                self._stack.pop()
            if hook is not None:
                hook(self.counts, args, kwargs, result)
            return result

        return traced

    def _count(self, name, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        """Wrap every public function, method and `__post_init__` of the layers.

        Functions are rebound under every name an entmaj module holds them by,
        so `from .qchan import apply_channel` in another module is traced too.
        """
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"entmaj.{layer}")
            for attr, obj in vars(module).items():
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj) and not attr.startswith("_"):
                    wrappers[obj] = self._wrap(f"{layer}.{attr}", obj)
                elif inspect.isclass(obj):
                    self._install_class(layer, obj)
        for name, module in list(sys.modules.items()):
            if name != "entmaj" and not name.startswith("entmaj."):
                continue
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patch(module, attr, wrappers[obj])
        import numpy.linalg
        for solver in EIGEN_SOLVERS:
            self._patch(numpy.linalg, solver,
                        self._count("densop.linalg_eig_calls", getattr(numpy.linalg, solver)))

    def _install_class(self, layer, cls):
        for attr, member in list(vars(cls).items()):
            if attr == "__post_init__":
                name = f"{layer}.{cls.__name__}"
            elif attr.startswith("_"):
                continue
            else:
                name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(member, staticmethod):
                self._patch(cls, attr, staticmethod(self._wrap(name, member.__func__)))
            elif inspect.isfunction(member):
                self._patch(cls, attr, self._wrap(name, member))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    @contextmanager
    def op(self, op_id: int):
        """Root span of one benchmark operation; spans inside carry its id."""
        self._op = op_id
        span = [OP_SPAN, -1, op_id, 0, 0]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[3] = perf_counter_ns()
        try:
            yield
        finally:
            span[4] = perf_counter_ns()
            self._stack.pop()
            self._op = -1

    def take(self):
        """Return (spans, counts) recorded so far and start empty."""
        spans, counts = self.spans, self.counts
        self.spans, self.counts = [], Counter()
        return spans, counts


def self_times(spans) -> list[int]:
    """Self time of each span in ns: its duration minus its direct children's."""
    children = [0] * len(spans)
    for name, parent, _op, start, end in spans:
        if parent >= 0:
            children[parent] += end - start
    return [end - start - children[i] for i, (_n, _p, _o, start, end) in enumerate(spans)]


def aggregate(spans) -> dict[str, dict[str, int]]:
    """Per span name: number of calls, total self ns and total inclusive ns."""
    out: dict[str, dict[str, int]] = {}
    for span, own in zip(spans, self_times(spans)):
        entry = out.setdefault(span[0], {"calls": 0, "self_ns": 0, "incl_ns": 0})
        entry["calls"] += 1
        entry["self_ns"] += own
        entry["incl_ns"] += span[4] - span[3]
    return out


def write_spans(spans, path):
    """Write spans as CSV: index, parent, op, name, start_ns, end_ns."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("index,parent,op,name,start_ns,end_ns\n")
        for i, (name, parent, op, start, end) in enumerate(spans):
            fh.write(f"{i},{parent},{op},{name},{start},{end}\n")
