"""Command-line surface.

One subcommand per construction; JSON in, JSON out (CSV for the pinch
convergence table).  Exit codes: 0 success, 1 domain failure (violated
precondition, a value failing its type's check, failed verification, or a negative
verdict under --require / --expect-isometry), 2 I/O, schema or flag errors, or an
allocation that fails.
"""

from __future__ import annotations

import argparse
import sys
from functools import cache, partial

import numpy as np

from . import __version__
from .densop import UNITARY_TOL, random_density, trace_distance, von_neumann_entropy
from .errors import DomainError, SchemaError
from .qchan import (
    COMPLETENESS_TOL,
    ISOMETRY_TOL,
    detect_isometry,
    entropy_probe,
    mixed_unitary_uhlmann,
    pinch_convergence_experiment,
    random_bistochastic_channel,
    uhlmann_frame,
)
from .seqmaj import (MAJORIZATION_TOL, ProbVector, is_majorized, random_majorized_pair,
                     shannon_entropy, sorted_padded)
from .serial import (
    birkhoff_to_json,
    bundle_from_json,
    chain_to_json,
    channel_from_json,
    channel_to_json,
    complex_matrix_from_json,
    density_from_json,
    density_to_json,
    dumps_report,
    frame_to_json,
    isometry_report_to_json,
    mixed_unitary_to_json,
    pinch_table_to_csv,
    prob_vector_from_json,
    prob_vector_to_json,
    read_json,
    real_matrix_from_json,
    vector_or_state_from_json,
    verdict_to_json,
)
from .xfer import (
    SUPPORT_TOL,
    DoublyStochasticMatrix,
    birkhoff_decompose,
    chain_to_doubly_stochastic,
    chain_to_orthogonal,
    find_transfer_chain,
)

# Thresholds of the reports' verified blocks.
REPLAY_TOL = 1e-9
TRACE_DISTANCE_TOL = 1e-7
PINCH_SLACK = 1e-8

# Largest flag values, each chosen from its measured cost (README, "Validation and
# tolerances"): `gen state-pair` at d = MAX_D and `gen channel` at d = MAX_CHANNEL_D each
# stay below 1 GiB, and `probe-entropy` holds 8 bytes per trial.
MAX_D = 1024
MAX_CHANNEL_D = 64
MAX_TRIALS = 10**6


def _above(cast, low=0, high=np.inf):
    """An argparse type: a finite value > low and <= high read by `cast`, so an int is
    >= low + 1."""
    def parse(text: str):
        value = cast(text)
        if not low < value < np.inf or value > high:  # the first is false for NaN too
            bound = f">= {low + 1}" if cast is int else f"finite and > {low}"
            raise argparse.ArgumentTypeError(
                f"{value} is not {bound}{f' and <= {high}' if high < np.inf else ''}")
        return value
    parse.__name__ = cast.__name__  # argparse names the type in its messages
    return parse


# The flags beyond --in, --out and --tol, each declared only where it is read.
FLAGS = {
    "--seed": {"type": _above(int, low=-1), "default": 0},  # any size, as default_rng takes
    "--d": {"type": _above(int, high=MAX_D), "default": 4},
    "--trials": {"type": _above(int, high=MAX_TRIALS), "default": 1000},
    "--require": {"action": "store_true", "help": "exit 1 on a negative verdict"},
    "--expect-isometry": {"action": "store_true", "dest": "require",
                          "help": "exit 1 on a negative detection"},
}


@cache  # built once per process; each parse copies --in's default list before appending
def _parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="entmaj")
    top.add_argument("--version", action="version", version=__version__)
    sub = top.add_subparsers(dest="subcommand", required=True)

    def add(name, run, help_, load=None, tol=None, flags=()):
        """--out, plus --in if `load` reads files, --tol if `tol` = (the report's
        tolerances key for it, its default) is set, and `flags`."""
        p = sub.add_parser(name, help=help_)
        p.set_defaults(run=run, load=load, tol_key=None, require=False)
        if load is not None:
            p.add_argument("--in", dest="inputs", action="append", default=[],
                           metavar="PATH", help="input file (repeatable, ordered)")
        p.add_argument("--out", default=None, metavar="PATH")
        if tol is not None:
            p.set_defaults(tol_key=tol[0])
            p.add_argument("--tol", type=_above(float), default=tol[1])
        for flag in flags:
            p.add_argument(flag, **FLAGS[flag])
        return p

    vectors = partial(_load_pair, keys=("a", "b"), from_json=prob_vector_from_json)
    states = partial(_load_pair, keys=("rho1", "rho2"), from_json=density_from_json)
    channel = partial(_load_one, from_json=channel_from_json)
    maj = ("majorization_abs", MAJORIZATION_TOL)
    add("entropy", _run_entropy, "Shannon/von Neumann entropy of a vector or state",
        partial(_load_one, from_json=vector_or_state_from_json))
    add("majorize", _run_majorize, "decide whether the first vector is majorized by the second",
        vectors, maj, ("--require",))
    add("transfer", _run_transfer, "elementary transfer chain certifying majorization",
        vectors, maj)
    add("birkhoff", _run_birkhoff, "split a doubly stochastic matrix into permutations",
        partial(_load_one, from_json=real_matrix_from_json), ("support_threshold", SUPPORT_TOL))
    add("schur-horn", _run_schur_horn,
        "plane rotations of an orthogonal matrix carrying one spectrum onto a diagonal",
        vectors, maj)
    add("uhlmann", _run_uhlmann, "bistochastic channel carrying the second state onto the first",
        states, maj)
    add("mixed-unitary", _run_mixed_unitary,
        "unitary mixture carrying the second state onto the first", states, maj)
    add("pinch-converge", _run_pinch_converge, "phase-averaging convergence table (CSV)",
        _load_state_and_basis)
    add("detect-isometry", _run_detect_isometry, "test a channel for isometric conjugation",
        channel, ("gram_rank_gap", ISOMETRY_TOL), ("--expect-isometry",))
    add("probe-entropy", _run_probe_entropy, "max entropy deviation over random states",
        channel, flags=("--seed", "--trials"))
    add("gen", _run_gen, "generate seeded random inputs", flags=("--seed", "--d")).add_argument(
        "kind", choices=("state", "pair", "state-pair", "channel"))
    return top


def _emit(text: str, out_path):
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _load_one(paths, from_json):
    """The value of the one --in file, read by `from_json`."""
    if len(paths) != 1:
        raise SchemaError(f"expected 1 --in file, got {len(paths)}")
    return from_json(read_json(paths[0]), str(paths[0]))


def _load_pair(paths, keys, from_json):
    """Two values from two files, or from one bundle holding both named fields."""
    if len(paths) == 1:
        return bundle_from_json(read_json(paths[0]), str(paths[0]), from_json, *keys)
    if len(paths) != 2:
        raise SchemaError(f"expected a bundle or 2 --in files, got {len(paths)}")
    return tuple(from_json(read_json(p), str(p)) for p in paths)


def _load_state_and_basis(paths):
    """The state of the first --in file and the pinching basis of an optional second."""
    if len(paths) not in (1, 2):
        raise SchemaError("expected --in state [--in basis]")
    rho2 = _load_one(paths[:1], density_from_json)
    basis = _load_one(paths[1:], complex_matrix_from_json) if paths[1:] else np.eye(rho2.d)
    return rho2, basis


def _report(args, **fields) -> None:
    """Write one JSON report: the subcommand and version, then `fields`."""
    _emit(dumps_report({"subcommand": args.subcommand, "version": __version__, **fields}),
          args.out)


def _finish(args, body, verified, bounds=(), holds=True) -> int:
    """Write the report of a run, its tolerances being --tol under the key its subcommand
    declares plus the fixed `bounds`; exit 1 if one of its `verified` ok_ checks failed,
    or if its verdict does not hold under --require / --expect-isometry."""
    tolerances = {} if args.tol_key is None else {args.tol_key: args.tol}
    tolerances.update(bounds)
    _report(args, tolerances=tolerances, **body, verified=verified)
    ok = all(v for k, v in verified.items() if k.startswith("ok_"))
    return 0 if ok and (holds or not args.require) else 1


def _run_entropy(args) -> int:
    value = args.load(args.inputs)
    if isinstance(value, ProbVector):
        bits = shannon_entropy(value)
        kind = "prob_vector"
        total = value.total()
    else:
        bits = von_neumann_entropy(value)
        kind = "density"
        total = float(value.matrix.trace().real)
    return _finish(args, {"shannon_bits": bits, "input_kind": kind},
                   {"input_total": total, "ok_nonnegative": bits >= 0.0})


def _run_majorize(args) -> int:
    a, b = args.load(args.inputs)
    verdict = is_majorized(a, b, args.tol)
    return _finish(args, verdict_to_json(verdict), {"prefix_pairs_checked": max(a.d, b.d)},
                   holds=verdict.holds)


def _run_transfer(args) -> int:
    a, b = args.load(args.inputs)
    chain = find_transfer_chain(a, b, args.tol)
    source, target = sorted_padded(b, chain.d), sorted_padded(a, chain.d)
    err = float(np.abs(chain_to_doubly_stochastic(chain).entries @ source - target).max())
    return _finish(args, {"chain": chain_to_json(chain)},
                   {"replay_max_abs_error": err, "ok_replay": err <= REPLAY_TOL,
                    "steps": chain.t.size, "step_bound": chain.d - 1,
                    "ok_step_bound": chain.t.size <= chain.d - 1},
                   {"replay_max": REPLAY_TOL})


def _run_birkhoff(args) -> int:
    q = DoublyStochasticMatrix(args.load(args.inputs))
    decomp = birkhoff_decompose(q, args.tol)
    m = decomp.matrix()
    m -= q.entries
    err = float(np.abs(m, out=m).max())
    bound = (q.d - 1) ** 2 + 1
    return _finish(args, birkhoff_to_json(decomp),
                   {"reconstruction_max_error": err, "ok_reconstruction": err <= 10 * args.tol,
                    "term_count": len(decomp.weights), "term_bound": bound,
                    "ok_term_bound": len(decomp.weights) <= bound,
                    "weight_sum": float(decomp.weights.sum())},
                   {"reconstruction_max": 10 * args.tol})


def _run_schur_horn(args) -> int:
    a, b = args.load(args.inputs)
    chain = find_transfer_chain(a, b, args.tol)
    u = chain_to_orthogonal(chain)
    diag = (u.entries ** 2) @ sorted_padded(b, u.d)  # the diagonal of U diag(b) U^T
    err = float(np.abs(diag - sorted_padded(a, u.d)).max())
    defect = u.orthogonality_defect
    return _finish(args, {"rotations": chain_to_json(chain)},
                   {"diagonal_max_error": err, "ok_diagonal": err <= REPLAY_TOL,
                    "orthogonality_defect": defect, "ok_orthogonal": defect <= UNITARY_TOL},
                   {"diagonal_max": REPLAY_TOL, "orthogonal_max": UNITARY_TOL})


def _run_uhlmann(args) -> int:
    rho1, rho2 = args.load(args.inputs)
    frame = uhlmann_frame(rho1, rho2, args.tol)
    td = trace_distance(frame.apply(rho2, rank_one=True), rho1)
    # for |f_i><e_i|: sum A*A = E E^* and sum AA* = F F^*, each the identity for unitary E, F
    completeness, unitality = frame.e_defect, frame.f_defect
    return _finish(args, frame_to_json(frame), {
        "trace_distance": td, "ok_trace_distance": td <= TRACE_DISTANCE_TOL,
        "completeness_defect": completeness, "ok_completeness": completeness <= COMPLETENESS_TOL,
        "unitality_defect": unitality, "ok_unitality": unitality <= COMPLETENESS_TOL,
    }, {"trace_distance_max": TRACE_DISTANCE_TOL, "completeness_max": COMPLETENESS_TOL})


def _run_mixed_unitary(args) -> int:
    rho1, rho2 = args.load(args.inputs)
    mix = mixed_unitary_uhlmann(rho1, rho2, args.tol)
    td = trace_distance(mix.apply(rho2), rho1)
    count, bound = mix.num_terms, (rho1.d - 1) ** 2 + 1
    unitary = max(mix.f_defect, mix.e_defect)  # the factors of each U_k
    return _finish(args, mixed_unitary_to_json(mix), {
        "trace_distance": td, "ok_trace_distance": td <= TRACE_DISTANCE_TOL,
        "term_count": count, "term_bound": bound, "ok_term_bound": count <= bound,
        "caratheodory_bound": rho1.d, "ok_caratheodory_bound": count <= rho1.d,
        "weight_sum": float(mix.weights.sum()),
        "unitary_defect": unitary, "ok_unitary": unitary <= COMPLETENESS_TOL,
    }, {"trace_distance_max": TRACE_DISTANCE_TOL, "unitary_max": COMPLETENESS_TOL})


def _run_pinch_converge(args) -> int:
    rho2, basis = args.load(args.inputs)
    rows = pinch_convergence_experiment(rho2, basis)
    ok = all(r.trace_distance <= r.bound + PINCH_SLACK for r in rows)
    final_ok = rows[-1].trace_distance <= PINCH_SLACK
    _emit(f"# entmaj {__version__} pinch-converge d={rho2.d} bound_slack={PINCH_SLACK} "
          f"ok_bound={ok} ok_final={final_ok}\n" + pinch_table_to_csv(rows), args.out)
    return 0 if ok and final_ok else 1


def _run_detect_isometry(args) -> int:
    rep = detect_isometry(args.load(args.inputs), args.tol)
    return _finish(args, isometry_report_to_json(rep), {"isometry_defect": rep.isometry_defect},
                   holds=rep.is_isometric_conjugation)


def _run_probe_entropy(args) -> int:
    phi = args.load(args.inputs)
    result = entropy_probe(phi, args.trials, np.random.default_rng(args.seed))
    return _finish(args, {"seed": args.seed, "max_abs_entropy_deviation": result.max_deviation,
                          "base_seed": result.base_seed, "worst_trial": result.worst_trial,
                          "trials": result.trials},
                   {"ok_trials": result.trials == args.trials})


def _run_gen(args) -> int:
    if args.kind == "channel" and args.d > MAX_CHANNEL_D:  # d^3 Kraus entries
        raise SchemaError(f"--d {args.d} exceeds {MAX_CHANNEL_D} for gen channel")
    rng = np.random.default_rng(args.seed)
    if args.kind == "state":
        obj = density_to_json(random_density(args.d, rng))
    elif args.kind == "pair":
        a, b = random_majorized_pair(args.d, rng)
        obj = {"a": prob_vector_to_json(a), "b": prob_vector_to_json(b)}
    elif args.kind == "state-pair":
        a, b = random_majorized_pair(args.d, rng)
        rho2 = random_density(args.d, rng, spec=b)
        rho1 = random_density(args.d, rng, spec=a)
        obj = {"rho1": density_to_json(rho1), "rho2": density_to_json(rho2)}
    else:
        obj = channel_to_json(random_bistochastic_channel(args.d, rng))
    _emit(dumps_report(obj), args.out)
    return 0


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.run(args)
    except (SchemaError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # e.g. a --d or --trials too large to allocate
        print(f"error: out of memory{f': {exc}' if str(exc) else ''}", file=sys.stderr)
        return 2
    except DomainError as exc:
        verdict = getattr(exc, "verdict", None)
        extra = {} if verdict is None else {"verdict": verdict_to_json(verdict)}
        _report(args, error=type(exc).__name__, message=str(exc), **extra)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
