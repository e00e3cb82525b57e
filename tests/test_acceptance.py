"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
All tolerances are fixed here, not configurable.
"""

import time

import numpy as np
import pytest

from entmaj.densop import (
    DensityMatrix,
    pure_state,
    random_density,
    spectrum,
    trace_distance,
    von_neumann_entropy,
)
from entmaj.qchan import (
    apply_channel,
    detect_isometry,
    detector_corpus,
    entropy_probe,
    fixed_point_commutant_check,
    haar_unitary,
    mixed_unitary_channel,
    mixed_unitary_uhlmann,
    pinch_convergence_experiment,
    pinching_channel,
    random_bistochastic_channel,
    uhlmann_channel,
)
from entmaj.seqmaj import (ProbVector, is_majorized, random_majorized_pair, shannon_entropy,
                           sorted_padded)
from entmaj.xfer import (
    birkhoff_decompose,
    chain_to_doubly_stochastic,
    find_transfer_chain,
    schur_horn_orthogonal,
)


def report(number, name, failures, extra=""):
    status = "PASS" if failures == 0 else f"FAIL ({failures} violations)"
    print(f"ACCEPTANCE {number} {name}: {status} {extra}".rstrip())
    assert failures == 0


def floored_majorized_pair(d, rng, floor=0.012, gap=0.01):
    """Pair with a majorized by b, all entries above `floor`, sup gap >= `gap`."""
    while True:
        b = 0.85 * rng.dirichlet(np.ones(d)) + 0.15 / d
        a = np.zeros(d)
        for w in rng.dirichlet(np.ones(4)):
            a += w * b[rng.permutation(d)]
        if np.abs(np.sort(a) - np.sort(b)).max() >= gap:
            return ProbVector(a, normalized=True), ProbVector(b, normalized=True)


def test_criterion_1_schur_concavity():
    start = time.monotonic()
    failures = 0
    for d in (2, 8, 64):
        rng = np.random.default_rng(1000 + d)
        for _ in range(10_000):
            a, b = random_majorized_pair(d, rng)
            if shannon_entropy(a) < shannon_entropy(b) - 1e-9:
                failures += 1
    elapsed = time.monotonic() - start
    report(1, "Schur concavity (3x10^4 pairs, d in {2,8,64})", failures,
           f"[{elapsed:.1f}s]")
    assert elapsed < 5.0


def test_criterion_2_strictness():
    # grid oracle first: the smallest entropy gap over a brute-force sweep of
    # admissible pairs is far above double-precision noise, so asserting a
    # strict inequality on random pairs is meaningful
    min_gap = np.inf
    for b1 in np.arange(0.51, 0.995, 0.005):
        for a1 in np.arange(0.5, b1 - 0.01 + 1e-12, 0.005):
            ha = shannon_entropy(ProbVector([a1, 1 - a1]))
            hb = shannon_entropy(ProbVector([b1, 1 - b1]))
            min_gap = min(min_gap, ha - hb)
    rng = np.random.default_rng(2222)
    for _ in range(2000):  # random refinement of the grid at d <= 8
        d = int(rng.integers(2, 9))
        a, b = floored_majorized_pair(d, rng)
        min_gap = min(min_gap, shannon_entropy(a) - shannon_entropy(b))
    assert min_gap > 1e-6, f"threshold inadmissible: grid oracle found gap {min_gap}"

    failures = 0
    rng = np.random.default_rng(2000)
    for _ in range(1000):
        d = int(rng.integers(2, 9))
        a, b = floored_majorized_pair(d, rng)
        if not shannon_entropy(a) > shannon_entropy(b):
            failures += 1
    report(2, "strict monotonicity on separated positive pairs", failures,
           f"[oracle min gap {min_gap:.2e}]")


def test_criterion_3_transfer_round_trip():
    rng = np.random.default_rng(3000)
    failures = 0
    for _ in range(1000):
        d = int(rng.integers(2, 65))
        a, b = random_majorized_pair(d, rng)
        asort = sorted_padded(a, a.d)
        bsort = sorted_padded(b, b.d)
        chain = find_transfer_chain(a, b)
        q = chain_to_doubly_stochastic(chain)
        if np.abs(q.entries @ bsort - asort).max() > 1e-9:
            failures += 1
        u = schur_horn_orthogonal(a, b)
        diag = np.einsum("ij,j,ij->i", u.entries, bsort, u.entries)
        if np.abs(diag - asort).max() > 1e-8:
            failures += 1
        if d <= 32:
            dec = birkhoff_decompose(q, tol=1e-9)
            if np.abs(dec.matrix() - q.entries).max() > 1e-8:
                failures += 1
            if len(dec.weights) > (d - 1) ** 2 + 1:
                failures += 1
    report(3, "transfer/Birkhoff/orthogonal round trips (10^3 pairs)", failures)


def test_criterion_4_majorization_channel_equivalence():
    start = time.monotonic()
    failures = 0
    rng = np.random.default_rng(4000)
    for _ in range(1000):  # bistochastic outputs are always majorized
        d = int(rng.integers(2, 17))
        phi = random_bistochastic_channel(d, rng)
        rho = random_density(d, rng)
        out = apply_channel(phi, rho)
        if not is_majorized(spectrum(out), spectrum(rho), 1e-8).holds:
            failures += 1
    rng = np.random.default_rng(4001)
    for _ in range(1000):  # and majorization is realized by both constructions
        d = int(rng.integers(2, 17))
        a, b = random_majorized_pair(d, rng)
        rho2 = random_density(d, rng, spec=b)
        rho1 = random_density(d, rng, spec=a)
        psi = uhlmann_channel(rho1, rho2)
        if trace_distance(apply_channel(psi, rho2), rho1) > 1e-7:
            failures += 1
        mix = mixed_unitary_uhlmann(rho1, rho2)
        acc = np.zeros_like(rho2.matrix)
        for w, u in zip(mix.weights, mix.unitaries):
            acc += w * (u @ rho2.matrix @ u.conj().T)
        out = DensityMatrix((acc + acc.conj().T) / 2)
        if trace_distance(out, rho1) > 1e-7:
            failures += 1
    elapsed = time.monotonic() - start
    report(4, "bistochastic <-> majorization equivalence (2x10^3 runs)", failures,
           f"[{elapsed:.1f}s]")
    assert elapsed < 60.0


def test_criterion_5_pinch_convergence_bound():
    rng = np.random.default_rng(5000)
    failures = 0
    for _ in range(100):
        rho2 = random_density(32, rng)
        basis = haar_unitary(32, rng)
        rows = pinch_convergence_experiment(rho2, basis)
        for r in rows:
            if r.trace_distance > r.bound + 1e-8:
                failures += 1
        if rows[-1].trace_distance > 1e-8:
            failures += 1
    report(5, "phase-averaging distance below corner-mass bound (100 states, d=32)",
           failures)


def _detector_corpus():
    return detector_corpus(np.random.default_rng(6000), 60, 60)


def test_criterion_6_detector_classification():
    positives, negatives = _detector_corpus()
    failures = 0
    for chan, truth in positives:
        rep = detect_isometry(chan, tol=1e-7)
        if not rep.is_isometric_conjugation:
            failures += 1
            continue
        overlap = np.trace(rep.isometry.conj().T @ truth)
        phase = overlap / abs(overlap)
        if np.abs(rep.isometry * phase - truth).max() > 1e-6:
            failures += 1
    for chan in negatives:
        if detect_isometry(chan, tol=1e-7).is_isometric_conjugation:
            failures += 1
    report(6, "detector soundness/completeness (60 positives, 60 negatives)",
           failures)


def test_criterion_7_entropy_isometry_link():
    positives, negatives = _detector_corpus()
    failures = 0
    rng = np.random.default_rng(7000)
    for chan, _ in positives:
        probe = entropy_probe(chan, 1000, np.random.default_rng(int(rng.integers(2**32))))
        if probe.max_deviation > 1e-6:
            failures += 1
    for chan in negatives:
        probe = entropy_probe(chan, 1000, np.random.default_rng(int(rng.integers(2**32))))
        if probe.max_deviation < 1e-3:
            failures += 1
    report(7, "entropy preserved iff isometric (10^3 trials per channel)", failures)


def test_criterion_8_entropy_boundary_values():
    failures = 0
    rng = np.random.default_rng(8000)
    for _ in range(10):
        d = int(rng.integers(2, 17))
        v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        v /= np.linalg.norm(v)
        if abs(von_neumann_entropy(pure_state(v))) > 1e-9:
            failures += 1
    for n in (2, 3, 16):
        rho = DensityMatrix(np.eye(n, dtype=complex) / n)
        if abs(von_neumann_entropy(rho) - np.log2(n)) > 1e-9:
            failures += 1
    for alpha in [k / 10 for k in range(10)]:
        x = np.array([1.0, 0.0])
        y = np.array([alpha, np.sqrt(1 - alpha**2)])
        mix = DensityMatrix((np.outer(x, x) + np.outer(y, y)).astype(complex) / 2)
        lam = spectrum(mix).entries
        if np.abs(lam - [(1 + alpha) / 2, (1 - alpha) / 2]).max() > 1e-9:
            failures += 1
        is_unit_entropy = abs(von_neumann_entropy(mix) - 1.0) <= 1e-9
        if is_unit_entropy != (alpha <= 1e-5):
            failures += 1
    report(8, "entropy boundary values and mixture-orthogonality criterion", failures)


def test_criterion_9_fixed_point_commutant():
    rng = np.random.default_rng(9000)
    failures = 0
    for k in range(100):
        d = int(rng.integers(2, 9))
        if k % 2 == 0:
            basis = haar_unitary(d, rng)
            phi = pinching_channel(basis)
            b = (basis * rng.random(d)) @ basis.conj().T
        else:
            m = int(rng.integers(2, 4))
            us = [np.diag(np.exp(2j * np.pi * rng.random(d))) for _ in range(m)]
            phi = mixed_unitary_channel(rng.dirichlet(np.ones(m)), us)
            b = np.diag(rng.random(d)).astype(complex)
        rep = fixed_point_commutant_check(phi, b, tol=1e-9)
        if not rep.is_fixed or rep.max_commutator_norm > 1e-6:
            failures += 1
    report(9, "fixed points commute with the Kraus family (100 pairs)", failures)
