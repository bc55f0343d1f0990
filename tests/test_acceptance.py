"""Acceptance suite: one test per criterion, one printed line per verdict.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here, nothing is deferred.
"""

import dataclasses
import functools
import itertools
import random
import time

import numpy as np

from sparsestab import (
    Permutation,
    SparsityPattern,
    apply_permutation,
    char_poly,
    check_necessary,
    check_scc_sink,
    classify,
    corollary_stabilize,
    determinant,
    find_nested_chain,
    hamiltonian_k_exists,
    has_principal_matching,
    jacobi_residual,
    leading_principal_minors,
    nonsingular_assignment,
    oracle_search,
    spectral_abscissa,
    transpose_pattern,
    validate_structure_theorem,
    verify_certificate,
)
from sparsestab.paper import composition_suite, scaling_suite, transpose_suite
from sparsestab.numerics import (
    HURWITZ_TOLERANCE,
    exact_rows,
    is_hurwitz,
    ordering_conjugation,
    random_pattern_matrix,
)
from sparsestab.patterns import key_to_pattern
from sparsestab.verdict import PROVED_STABLE, PROVED_UNSTABLE, EngineConfig

from conftest import FIG2_LEFT, FIG2_RIGHT, FIG3, SIGMA_ALPHA, SIGMA_BETA

HURWITZ_TOL = 1e-9


def criterion(num, label):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                detail = fn(*args, **kwargs)
            except BaseException:
                print(f"[criterion {num}] FAIL — {label}")
                raise
            print(f"[criterion {num}] PASS — {label}" + (f" ({detail})" if detail else ""))

        return run

    return wrap


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


@criterion(1, "paper examples reproduce exactly")
def test_criterion_1_paper_examples():
    timings = []

    def timed_classify(p):
        start = time.perf_counter()
        v = classify(p)
        timings.append(time.perf_counter() - start)
        assert timings[-1] < 1.0
        return v

    v = timed_classify(FIG2_LEFT)
    assert (v.tag, v.reason, v.k) == (PROVED_UNSTABLE, "NoHamiltonianK", 2)

    v = timed_classify(FIG2_RIGHT)
    assert (v.tag, v.reason) == (PROVED_STABLE, "ChainFound")
    assert v.certificate.ordering == (1, 2, 3)
    assert spectral_abscissa(v.certificate.stabilized_matrix()) < -HURWITZ_TOL
    assert verify_certificate(v.certificate)

    v = timed_classify(SIGMA_ALPHA)
    assert (v.tag, v.reason) == (PROVED_STABLE, "ChainFound")
    assert v.certificate.ordering == (1, 2, 3, 4, 5)

    v = timed_classify(SIGMA_BETA)
    assert (v.tag, v.reason, v.k) == (PROVED_UNSTABLE, "NoHamiltonianK", 4)

    v = timed_classify(FIG3)
    assert (v.tag, v.reason) == (PROVED_UNSTABLE, "SccWithoutSink")
    assert v.violating == frozenset({1, 2, 3, 4})
    return f"max runtime {max(timings):.3f}s"


@criterion(2, "nonzero-minor relabeling stabilizes [[0,-1],[2,-1]]")
def test_criterion_2_corollary_regression():
    A = np.array([[0.0, -1.0], [2.0, -1.0]])
    exact = exact_rows(A)
    assert leading_principal_minors(exact)[0] == 0
    swap = Permutation((2, 1))
    conj = ordering_conjugation(exact, swap.inverse().mapping)
    assert leading_principal_minors(conj) == [-1, 2]
    out = corollary_stabilize(A)
    assert out is not None
    sigma, D = out
    assert sigma == swap
    abscissa = spectral_abscissa(np.diag(D) @ A)
    assert HURWITZ_TOLERANCE == HURWITZ_TOL  # the library's guard band is the pinned one
    assert is_hurwitz(abscissa) and abscissa < -HURWITZ_TOL
    return f"abscissa {abscissa:.3g}"


@criterion(3, "exact identity suites report zero failures")
def test_criterion_3_identity_suites():
    total = 0
    # (a) transpose invariance and (b) conjugation composition:
    # exhaustive over permutations (pairs) at n=3, 200 random pairs at n=5
    for suite, n, trials in (
        (transpose_suite, 3, 10),
        (transpose_suite, 5, 200),
        (composition_suite, 3, 36),
        (composition_suite, 5, 200),
        (scaling_suite, 3, 10),
        (scaling_suite, 5, 200),
    ):
        result = suite(n, trials, seed=97)
        assert result.failures == 0, f"{result.name} at n={n}: {result.failures}"
        total += result.trials
    # (d) Jacobi residual identically zero on 100 random invertible 4x4
    rng = random.Random(101)
    done = 0
    while done < 100:
        B = [[rng.randint(-50, 50) for _ in range(4)] for _ in range(4)]
        if determinant(B) == 0:
            continue
        done += 1
        total += 1
        subset = frozenset(v for v in range(1, 5) if rng.random() < 0.5)
        assert jacobi_residual(B, subset) == 0
    return f"{total} exact checks"


@criterion(4, "characteristic coefficient vanishes iff no cycle cover of that size")
def test_criterion_4_coefficient_equivalence():
    rng = random.Random(103)

    def check_pattern(p):
        witness_exists = [hamiltonian_k_exists(p, k) is not None for k in range(1, p.n + 1)]
        coeffs = char_poly(random_pattern_matrix(p, rng))
        for k in range(1, p.n + 1):
            if not witness_exists[k - 1]:
                # identically zero coefficient: no resample needed
                assert coeffs[k - 1] == 0
            elif coeffs[k - 1] == 0:
                # a Monte-Carlo zero hit gets one resample before counting
                resampled = char_poly(random_pattern_matrix(p, rng))
                assert resampled[k - 1] != 0

    count = 0
    for key in range(1 << 9):
        check_pattern(key_to_pattern(3, key))
        count += 1
    for n in (4, 5):
        for _ in range(300):
            check_pattern(random_pattern(n, rng, density=rng.uniform(0.2, 0.7)))
            count += 1
    return f"{count} patterns, zero discrepancies"


@criterion(5, "matching oracle agrees with permutation brute force")
def test_criterion_5_matching_equivalence():
    def brute(p, subset):
        verts = sorted(subset)
        return any(
            all((v, img) in p.free for v, img in zip(verts, perm))
            for perm in itertools.permutations(verts)
        )

    checks = 0
    # every (pattern, subset) pair at n <= 4 reduces to its induced k x k
    # grid; exhausting those grids covers all of them
    for k in (1, 2, 3, 4):
        cells = [(i, j) for i in range(1, k + 1) for j in range(1, k + 1)]
        full = frozenset(range(1, k + 1))
        for picks in range(1 << (k * k)):
            p = SparsityPattern(
                k, frozenset(c for b, c in enumerate(cells) if picks >> b & 1)
            )
            assert has_principal_matching(p, full) == brute(p, full)
            checks += 1
    # the restriction path: proper subsets inside larger patterns
    rng = random.Random(107)
    for _ in range(200):
        p = random_pattern(4, rng)
        subset = frozenset(rng.sample(range(1, 5), rng.randint(1, 3)))
        assert has_principal_matching(p, subset) == brute(p, subset)
        checks += 1
    # 500 random (pattern, subset) pairs at n=5
    for _ in range(500):
        p = random_pattern(5, rng)
        subset = frozenset(rng.sample(range(1, 6), rng.randint(1, 5)))
        assert has_principal_matching(p, subset) == brute(p, subset)
        checks += 1
    return f"{checks} subsets, zero discrepancies"


@criterion(6, "dominant-entry assignment is nonsingular on every valid support")
def test_criterion_6_nonsingular_assignment():
    checks = 0
    perms3 = [Permutation(t) for t in itertools.permutations((1, 2, 3))]
    for key in range(1 << 9):
        p = key_to_pattern(3, key)
        for sigma in perms3:
            if all((i, sigma(i)) in p.free for i in range(1, 4)):
                assert determinant(nonsingular_assignment(p, sigma)) != 0
                checks += 1
    rng = random.Random(109)
    for _ in range(200):
        n = rng.choice((4, 5, 6))
        order = list(range(1, n + 1))
        rng.shuffle(order)
        sigma = Permutation(tuple(order))
        free = {(i, sigma(i)) for i in range(1, n + 1)}
        free.update(
            (i, j)
            for i in range(1, n + 1)
            for j in range(1, n + 1)
            if rng.random() < 0.5
        )
        p = SparsityPattern(n, frozenset(free))
        assert determinant(nonsingular_assignment(p, sigma)) != 0
        checks += 1
    return f"{checks} supports, zero failures"


@criterion(7, "structure checks pass on the complete n=2,3,4 atlases")
def test_criterion_7_structure_theorem(atlas2, atlas3, atlas4_timed):
    atlas4, build_seconds = atlas4_timed
    assert build_seconds < 1800, f"n=4 atlas took {build_seconds:.0f}s"
    reports = []
    for records, n in ((atlas2, 2), (atlas3, 3), (atlas4, 4)):
        report = validate_structure_theorem(records, n)
        assert report.all_passed, report.summary()
        reports.append(report)
    stable_raw_n2 = reports[0].stable_raw_count
    assert stable_raw_n2 == 6
    return (
        f"n=4 build {build_seconds:.0f}s, n=2 stable raw count {stable_raw_n2}, "
        f"unknowns {[r.unknown_count for r in reports]}"
    )


@criterion(8, "no instability proof coexists with a verified Hurwitz matrix (n=3)")
def test_criterion_8_soundness_audit(atlas3, audit_config):
    verified = 0
    audited = 0
    tenfold = dataclasses.replace(audit_config, oracle_restarts=10 * audit_config.oracle_restarts)
    for rec in atlas3:
        p = rec.pattern
        verdict = classify(p, audit_config)
        assert verdict.tag == rec.verdict.tag
        if verdict.tag == PROVED_STABLE:
            assert verify_certificate(verdict, p)
            verified += 1
        elif verdict.tag == PROVED_UNSTABLE:
            result = oracle_search(p, tenfold, seed=12345)
            assert not result.found, f"oracle beat an instability proof on key {rec.key}"
            audited += 1
    assert verified + audited == len(atlas3)
    return f"{verified} certificates verified, {audited} instability proofs oracle-audited"


@criterion(9, "n=5 verdicts are symmetry-invariant and monotone under edge addition")
def test_criterion_9_large_n_properties():
    rng = random.Random(113)
    cfg = EngineConfig(oracle_restarts=6, oracle_steps=80)
    pairs = 0
    while pairs < 500:
        p = random_pattern(5, rng, density=rng.uniform(0.2, 0.6))
        missing = [
            (i, j)
            for i in range(1, 6)
            for j in range(1, 6)
            if (i, j) not in p.free
        ]
        if not missing:
            continue
        q = SparsityPattern(5, p.free | {rng.choice(missing)})
        pairs += 1

        # graph-check monotonicity under the added edge
        if not check_scc_sink(p):
            assert not check_scc_sink(q)
        kp, kq = check_necessary(p), check_necessary(q)
        if kp is None:
            assert kq is None
        else:
            assert kq is None or kq >= kp
        if find_nested_chain(p) is not None:
            assert find_nested_chain(q) is not None

        vp = classify(p, cfg)
        vq = classify(q, cfg)
        # sound direction of verdict monotonicity
        if vp.tag == PROVED_STABLE:
            assert vq.tag != PROVED_UNSTABLE
        if vq.tag == PROVED_UNSTABLE:
            assert vp.tag != PROVED_STABLE

        # symmetry invariance of the verdict tag
        order = list(range(1, 6))
        rng.shuffle(order)
        relabeled = apply_permutation(p, Permutation(tuple(order)))
        assert classify(relabeled, cfg).tag == vp.tag
        assert classify(transpose_pattern(p), cfg).tag == vp.tag
    return f"{pairs} pattern pairs"
