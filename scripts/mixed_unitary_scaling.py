#!/usr/bin/env python3
"""Time the mixed-unitary Uhlmann transfer as the dimension grows.

For each d, draws a state pair the way `entmaj gen state-pair` does, builds
the unitary mixture carrying rho2 onto rho1, and prints the construction
time, the number of unitaries (at most d) and the trace distance between the
mixture's output and rho1.  The output is computed from the mixture's frame
(`MixedUnitaryTransfer.apply`), so no unitary and no d^3 Kraus stack is built.
"""

import argparse
import time

import numpy as np

from entmaj.densop import random_density, trace_distance
from entmaj.qchan import mixed_unitary_uhlmann
from entmaj.seqmaj import random_majorized_pair


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--d", type=int, nargs="+", default=[8, 64, 256])
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)

    rng = np.random.default_rng(args.seed)
    print("d,seconds,terms,trace_distance")
    for d in args.d:
        a, b = random_majorized_pair(d, rng)
        rho2 = random_density(d, rng, spec=b)
        rho1 = random_density(d, rng, spec=a)
        start = time.perf_counter()
        mix = mixed_unitary_uhlmann(rho1, rho2)
        seconds = time.perf_counter() - start
        error = trace_distance(mix.apply(rho2), rho1)
        print(f"{d},{seconds:.3f},{mix.num_terms},{error:.2e}", flush=True)


if __name__ == "__main__":
    main()
