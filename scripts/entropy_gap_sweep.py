#!/usr/bin/env python3
"""Brute-force sweep behind the strict-monotonicity thresholds.

Over pairs with a majorized by b, all entries >= floor, and sup-norm gap
>= gap, the entropy difference H(a) - H(b) is bounded away from zero.  This
sweep measures the smallest difference over a dense 2-d grid plus random
refinements at higher dimension, which is what justifies asserting a strict
inequality in double precision.
"""

import argparse

import numpy as np

from entmaj.seqmaj import ProbVector, random_majorized_pair, shannon_entropy


def grid_minimum_2d(floor, gap, step):
    worst = (np.inf, None)
    for b1 in np.arange(0.5 + step, 1.0 - floor + 1e-12, step):
        for a1 in np.arange(0.5, b1 - gap + 1e-12, step):
            diff = (shannon_entropy(ProbVector([a1, 1 - a1]))
                    - shannon_entropy(ProbVector([b1, 1 - b1])))
            if diff < worst[0]:
                worst = (diff, (a1, b1))
    return worst


def random_minimum(d, floor, gap, samples, rng):
    worst = (np.inf, None)
    tries = 0
    found = 0
    while found < samples and tries < samples * 200:
        tries += 1
        # the floor map is affine and the mixture weights sum to 1, so a stays majorized by b
        a, b = ((1 - d * floor * 1.2) * v.entries + floor * 1.2
                for v in random_majorized_pair(d, rng))
        if np.abs(np.sort(a) - np.sort(b)).max() < gap:
            continue
        found += 1
        diff = shannon_entropy(ProbVector(a)) - shannon_entropy(ProbVector(b))
        if diff < worst[0]:
            worst = (diff, (a, b))
    return worst, found


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--floor", type=float, default=0.01)
    ap.add_argument("--gap", type=float, default=0.01)
    ap.add_argument("--step", type=float, default=0.002)
    ap.add_argument("--samples", type=int, default=3000)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)

    diff, at = grid_minimum_2d(args.floor, args.gap, args.step)
    print(f"d=2 grid (step {args.step}): min H(a)-H(b) = {diff:.6e} at a1={at[0]:.3f}, "
          f"b1={at[1]:.3f}")
    rng = np.random.default_rng(args.seed)
    overall = diff
    for d in range(3, 9):
        (diff, _), found = random_minimum(d, args.floor, args.gap, args.samples, rng)
        overall = min(overall, diff)
        print(f"d={d} random ({found} admissible pairs): min gap = {diff:.6e}")
    print(f"\noverall minimum entropy gap: {overall:.6e} "
          f"(double-precision noise is ~1e-15; strict assertion is safe)")


if __name__ == "__main__":
    main()
