"""Randomized exact-arithmetic identity suites.

Each suite checks an algebraic identity of the minor products over random
integer matrices -- failures indicate implementation bugs, never rounding,
because every comparison is exact.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .numerics import (
    determinant,
    jacobi_residual,
    ordering_conjugation,
    p_sigma,
    random_pattern_matrix,
)
from .patterns import Permutation, SparsityPattern, all_permutations


@dataclass(frozen=True)
class SuiteResult:
    name: str
    trials: int
    failures: int

    @property
    def ok(self) -> bool:
        return self.failures == 0


def _random_matrix(n: int, rng: random.Random, bound: int = 1000) -> list[list[int]]:
    return random_pattern_matrix(SparsityPattern.full(n), rng, bound)


def _random_permutation(n: int, rng: random.Random) -> Permutation:
    order = list(range(1, n + 1))
    rng.shuffle(order)
    return Permutation(tuple(order))


def _sigma_pairs(n: int, trials: int, rng: random.Random):
    """All (tau, sigma) pairs when that is small, else random pairs."""
    perms = list(all_permutations(n))
    if len(perms) ** 2 <= trials:
        for tau in perms:
            for sigma in perms:
                yield tau, sigma
    else:
        for _ in range(trials):
            yield _random_permutation(n, rng), _random_permutation(n, rng)


def transpose_suite(n: int, trials: int, seed: int = 0) -> SuiteResult:
    """p_sigma(A^T) == p_sigma(A) for every permutation."""
    rng = random.Random(seed)
    perms = list(all_permutations(n)) if n <= 4 else None
    failures = 0
    count = 0
    for _ in range(trials):
        A = _random_matrix(n, rng)
        At = [list(col) for col in zip(*A)]
        for sigma in perms if perms is not None else [_random_permutation(n, rng)]:
            count += 1
            if p_sigma(A, sigma) != p_sigma(At, sigma):
                failures += 1
    return SuiteResult("transpose", count, failures)


def composition_suite(n: int, trials: int, seed: int = 0) -> SuiteResult:
    """p_tau(P_sigma A P_sigma^{-1}) == p_{tau . sigma}(A)."""
    rng = random.Random(seed)
    failures = 0
    count = 0
    A = _random_matrix(n, rng)
    for tau, sigma in _sigma_pairs(n, trials, rng):
        count += 1
        lhs = p_sigma(ordering_conjugation(A, sigma.inverse().mapping), tau)
        rhs = p_sigma(A, tau.compose(sigma))
        if lhs != rhs:
            failures += 1
        if count % 16 == 0:
            A = _random_matrix(n, rng)
    return SuiteResult("composition", count, failures)


def scaling_suite(n: int, trials: int, seed: int = 0) -> SuiteResult:
    """p_sigma(D A) == p_sigma(D) p_sigma(A) for diagonal D; in particular
    the zero sets coincide."""
    rng = random.Random(seed)
    failures = 0
    count = 0
    perms = list(all_permutations(n)) if n <= 4 else None
    for _ in range(trials):
        A = _random_matrix(n, rng)
        diag = [rng.choice([-1, 1]) * rng.randint(1, 9) for _ in range(n)]
        D = [[diag[i] if i == j else 0 for j in range(n)] for i in range(n)]
        DA = [[d * x for x in row] for d, row in zip(diag, A)]
        for sigma in perms if perms is not None else [_random_permutation(n, rng)]:
            count += 1
            lhs = p_sigma(DA, sigma)
            rhs = p_sigma(D, sigma) * p_sigma(A, sigma)
            if lhs != rhs or (lhs == 0) != (p_sigma(A, sigma) == 0):
                failures += 1
    return SuiteResult("diagonal-scaling", count, failures)


def jacobi_suite(n: int, trials: int, seed: int = 0) -> SuiteResult:
    """jacobi_residual == 0 on random invertible matrices, random subsets."""
    rng = random.Random(seed)
    failures = 0
    count = 0
    while count < trials:
        B = _random_matrix(n, rng, bound=9)
        if determinant(B) == 0:
            continue
        subset = frozenset(v for v in range(1, n + 1) if rng.random() < 0.5)
        count += 1
        if jacobi_residual(B, subset) != 0:
            failures += 1
    return SuiteResult("jacobi", count, failures)


def run_identity_suites(n: int, trials: int, seed: int = 0) -> list[SuiteResult]:
    return [
        transpose_suite(n, trials, seed),
        composition_suite(n, trials, seed + 1),
        scaling_suite(n, trials, seed + 2),
        jacobi_suite(n, trials, seed + 3),
    ]
