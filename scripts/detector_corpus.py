#!/usr/bin/env python3
"""Classify a synthesized corpus of channels with the isometry detector.

Positives are isometric conjugations hidden behind redundant phase-multiple
Kraus terms; negatives are pinchings, depolarizing mixtures, and random
mixed-unitary channels.  For each channel the script also probes the largest
entropy deviation over random states, illustrating that entropy preservation
and isometric conjugation coincide.
"""

import argparse

import numpy as np

from entmaj.qchan import ISOMETRY_TOL, detect_isometry, detector_corpus, entropy_probe


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--positives", type=int, default=50)
    ap.add_argument("--negatives", type=int, default=50)
    ap.add_argument("--trials", type=int, default=300)
    ap.add_argument("--tol", type=float, default=ISOMETRY_TOL)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)

    rng = np.random.default_rng(args.seed)
    positives, negatives = detector_corpus(rng, args.positives, args.negatives)
    corpus = [(chan, True) for chan, _ in positives] + [(chan, False) for chan in negatives]
    errors = 0
    print(f"{'truth':>8} {'verdict':>8} {'d_in':>4} {'d_out':>5} {'#K':>3} "
          f"{'max |dS|':>10}")
    for chan, truth in corpus:
        rep = detect_isometry(chan, tol=args.tol)
        probe = entropy_probe(chan, args.trials, np.random.default_rng(int(rng.integers(2**32))))
        ok = rep.is_isometric_conjugation == truth
        errors += not ok
        tag = "" if ok else "   <-- MISCLASSIFIED"
        print(f"{str(truth):>8} {str(rep.is_isometric_conjugation):>8} "
              f"{chan.d_in:>4} {chan.d_out:>5} {chan.num_kraus:>3} "
              f"{probe.max_deviation:>10.2e}{tag}")
    total = len(corpus)
    print(f"\n{total - errors}/{total} classified correctly at tol={args.tol}")


if __name__ == "__main__":
    main()
