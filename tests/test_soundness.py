"""Engine-level soundness and invariance checks beyond the acceptance gate.

The n=3 layer is exhaustive over raw patterns; n=4 runs a large random
sample with certificate verification plus an independent oracle cross-check
on a fixed subsample of the instability proofs.
"""

import dataclasses
import random
from collections import defaultdict

from sparsestab import (
    SparsityPattern,
    canonical_form,
    classify,
    oracle_search,
    verify_certificate,
)
from sparsestab.numerics import determinant, random_pattern_matrix
from sparsestab.paper import p_sigma
from sparsestab.patterns import key_to_pattern, all_permutations
from sparsestab.verdict import PROVED_STABLE, PROVED_UNSTABLE, EngineConfig

FAST = EngineConfig(oracle_restarts=8, oracle_steps=120)


def random_pattern(n, rng, density=0.4):
    return SparsityPattern(
        n,
        frozenset(
            (i, j)
            for i in range(1, n + 1)
            for j in range(1, n + 1)
            if rng.random() < density
        ),
    )


def test_verdict_tag_constant_on_every_n3_orbit():
    # classifying all 512 raw patterns and grouping by canonical key is the
    # exhaustive form of symmetry invariance at n=3
    tags_by_canon = defaultdict(set)
    for key in range(1 << 9):
        p = key_to_pattern(3, key)
        tags_by_canon[canonical_form(p).canonical.bitkey()].add(classify(p, FAST).tag)
    assert all(len(tags) == 1 for tags in tags_by_canon.values())


def test_instability_reasons_come_only_from_the_two_theorems(atlas3):
    for rec in atlas3:
        if rec.verdict.tag == PROVED_UNSTABLE:
            assert rec.verdict.reason in ("NoSink", "SccWithoutSink", "NoHamiltonianK")


def test_random_n4_certificates_all_verify():
    rng = random.Random(127)
    unstable_sample = []
    for _ in range(2000):
        p = random_pattern(4, rng, density=rng.uniform(0.15, 0.8))
        v = classify(p, FAST)
        if v.tag == PROVED_STABLE:
            assert verify_certificate(v, p)
        elif v.tag == PROVED_UNSTABLE:
            assert verify_certificate(v, p)
            if len(unstable_sample) < 40:
                unstable_sample.append(p)
    # independent oracle with a 10x budget must not beat any instability proof
    tenfold = dataclasses.replace(FAST, oracle_restarts=10 * FAST.oracle_restarts)
    for p in unstable_sample:
        assert not oracle_search(p, tenfold, seed=777).found


def test_unstable_patterns_kill_the_full_minor_product():
    # instability proof => for every member and permutation, some leading
    # principal minor of the conjugation vanishes -- the determinant
    # included.  (The n-1 product alone can survive: a pattern whose
    # members are all singular, e.g. a full 2x2 block padded with zeros,
    # is unstable yet has nonzero det_1 * det_2 generically.)
    rng = random.Random(131)
    checked = 0
    escaped_short_product = 0
    for key in range(0, 1 << 9, 7):
        p = key_to_pattern(3, key)
        if classify(p, FAST).tag != PROVED_UNSTABLE:
            continue
        A = random_pattern_matrix(p, rng)
        for s in all_permutations(3):
            short = p_sigma(A, s)
            assert short * determinant(A) == 0
            if short != 0:
                escaped_short_product += 1
        checked += 1
    assert checked > 20
    # the padded-block phenomenon really occurs in the sample
    assert escaped_short_product > 0

