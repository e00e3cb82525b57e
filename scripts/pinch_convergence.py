#!/usr/bin/env python3
"""Convergence of phase averaging to pinching on random states.

Writes one CSV per state (n, trace_distance, bound) and prints a short
summary of the worst bound slack observed.
"""

import argparse
import pathlib

import numpy as np

from entmaj.densop import haar_unitary, random_density
from entmaj.qchan import pinch_convergence_experiment
from entmaj.serial import pinch_table_to_csv


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--d", type=int, default=32)
    ap.add_argument("--states", type=int, default=10)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--outdir", type=pathlib.Path, default=pathlib.Path("pinch_tables"))
    args = ap.parse_args(argv)

    rng = np.random.default_rng(args.seed)
    args.outdir.mkdir(parents=True, exist_ok=True)
    worst_slack = -np.inf
    for k in range(args.states):
        rho = random_density(args.d, rng)
        basis = haar_unitary(args.d, rng)
        rows = pinch_convergence_experiment(rho, basis)
        path = args.outdir / f"state_{k:03d}.csv"
        path.write_text(pinch_table_to_csv(rows), encoding="utf-8")
        slack = max(r.trace_distance - r.bound for r in rows)
        worst_slack = max(worst_slack, slack)
        print(f"state {k:3d}: final distance {rows[-1].trace_distance:.2e}, "
              f"max (distance - bound) {slack:.2e}")
    print(f"\nworst slack over {args.states} states at d={args.d}: {worst_slack:.3e} "
          f"(negative means the bound always held)")


if __name__ == "__main__":
    main()
