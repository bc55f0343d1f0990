"""What only reproduces the paper, apart from the decision engine.

A principal minor of a pattern matrix is a polynomial in the free entries
with one monomial per cycle cover of its vertex set, so the paper's
conditions are graph facts, which the engine decides on the graph.  This
module keeps their matrix side: the minor products p_sigma and the exact
test of their common zero set, the identity suites over them (exact, so a
failure is a bug, never rounding), the principal-minor formula for the
characteristic polynomial, the Cayley-Hamilton inverse and the Jacobi
identity, the dominant-entry nonsingular assignment, and the diagonal
stabilizers of a given matrix.  No engine module imports it.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from operator import mul

import numpy as np

from .errors import CapabilityError, SingularMatrixError, StabilizationError, SynthesisError
from .graphs import find_nested_chain
from .numerics import (
    _integer_rows,
    _leading_minors,
    _square,
    char_poly,
    determinant,
    exact_rows,
    is_hurwitz,
    leading_principal_minors,
    ordering_conjugation,
    random_pattern_matrix,
    spectral_abscissa,
)
from .patterns import Permutation, SparsityPattern, all_permutations
from .witness import _stabilize, _stabilize_ordered

PERMUTATION_SCAN_CAP = 8


def p_sigma(A, sigma: Permutation) -> Fraction:
    """Product of leading principal minors 1..n-1 of P A P^{-1}, P the
    permutation matrix of sigma: entry (a, b) of A lands at
    (sigma(a), sigma(b)).

    The product deliberately stops at n-1; the full determinant is a
    separate quantity (see leading_principal_minors).  Short-circuits to 0
    on the first vanishing factor.
    """
    n = _square(A)
    if sigma.n != n:
        raise ValueError("size mismatch")
    out = Fraction(1)
    minors = _leading_minors(ordering_conjugation(A, sigma.inverse().mapping))
    for d in itertools.islice(minors, max(n - 1, 0)):
        if d == 0:
            return Fraction(0)
        out *= d
    return out


def variety_escape(p: SparsityPattern) -> Permutation | None:
    """A permutation sigma whose minor product p_sigma is not identically
    zero on the pattern's matrix space, or None exactly when the space lies
    in the common zero set of every p_sigma.

    A principal minor is not identically zero iff its vertex set has a
    cycle cover, since no two covers' monomials cancel.  p_sigma multiplies
    the minors on the prefixes 1..n-1 of the ordering sigma^{-1}, so it is
    not identically zero iff those prefixes have cycle covers: the ordering
    is a nested chain of p less its last vertex v, followed by v.  For
    n = 1 the product is empty, so the space is never in the zero set.
    Raises CapabilityError where find_nested_chain does.
    """
    if p.n == 1:
        return Permutation((1,))
    for v in range(1, p.n + 1):
        rest = [u for u in range(1, p.n + 1) if u != v]
        index = {u: k for k, u in enumerate(rest, 1)}
        less_v = frozenset((index[i], index[j]) for i, j in p.free if v not in (i, j))
        chain = find_nested_chain(SparsityPattern(p.n - 1, less_v))
        if chain is not None:
            return Permutation(tuple(rest[k - 1] for k in chain.ordering) + (v,)).inverse()
    return None


def char_poly_via_minors(A) -> tuple[Fraction, ...]:
    """Independent coefficient formula: p_k = (-1)^k sum of k-by-k principal
    minors.  Exponential in n; kept as the cross-check oracle."""
    n = _square(A)
    coeffs = []
    for k in range(1, n + 1):
        total = Fraction(0)
        for idx in itertools.combinations(range(1, n + 1), k):
            total += determinant(ordering_conjugation(A, idx))
        coeffs.append((-1) ** k * total)
    return tuple(coeffs)


def inverse(A) -> list[list[Fraction]]:
    """Exact inverse by Cayley-Hamilton: A^{-1} = L M^{-1} for the integer
    M = L*A, whose char_poly coefficients are q_k = L^k p_k, and
    M^{-1} = -(M^{n-1} + q_1 M^{n-2} + ... + q_{n-1} I) / q_n by Horner's
    rule.  Raises SingularMatrixError on q_n = 0, CapabilityError as char_poly."""
    coeffs = char_poly(A)
    L, m = _integer_rows(A)
    q = [int(c * L**k) for k, c in enumerate(coeffs, 1)]
    if q and q[-1] == 0:
        raise SingularMatrixError("matrix is singular")
    B = [[int(i == j) for j in range(len(m))] for i in range(len(m))]
    for c in q[:-1]:
        cols = list(zip(*B))
        B = [
            [sum(map(mul, row, col)) + (c if i == j else 0) for j, col in enumerate(cols)]
            for i, row in enumerate(m)
        ]
    return [[Fraction(-L * x, q[-1]) for x in row] for row in B]


def jacobi_residual(B, index_set) -> Fraction:
    """det((B^{-1})_I) - det(B_{I^c}) / det(B), exactly.

    Zero for every invertible B and index subset I; it exists to be
    property-tested.
    """
    n = _square(B)
    idx = sorted(frozenset(index_set))
    det_B = determinant(B)
    if det_B == 0:
        raise SingularMatrixError("matrix is singular")
    comp = [i for i in range(1, n + 1) if i not in idx]
    lhs = determinant(ordering_conjugation(inverse(B), idx)) if idx else Fraction(1)
    rhs = determinant(ordering_conjugation(B, comp)) / det_B
    return lhs - rhs


def nonsingular_assignment(p: SparsityPattern, support: Permutation) -> list[list[int]]:
    """The deterministic nonsingular matrix on a full cycle cover.

    Entries on the support permutation get n!, every other free entry gets
    1.  The dominant permutation product (n!)^n outweighs the at most
    (n! - 1) other products of size at most (n!)^{n-1}, so the determinant
    is provably nonzero; it is still computed and checked exactly.
    """
    if support.n != p.n:
        raise ValueError("size mismatch")
    missing = [(i, support(i)) for i in range(1, p.n + 1) if (i, support(i)) not in p.free]
    if missing:
        raise ValueError(f"support entries not free: {missing}")
    A = [[0] * p.n for _ in range(p.n)]
    for i, j in p.free:
        A[i - 1][j - 1] = 1
    big = math.factorial(p.n)
    for i in range(1, p.n + 1):
        A[i - 1][support(i) - 1] = big
    if determinant(A) == 0:
        raise SynthesisError("dominant-assignment determinant vanished (bug)")
    return A


def diagonal_stabilize(A) -> np.ndarray:
    """Find a diagonal D with D @ A Hurwitz, given nonzero leading minors,
    by witness synthesis's sequential construction (Fisher & Fuller 1958).

    Raises ValueError on a vanishing minor and StabilizationError when a stabilizer entry, or its
    product with an entry of A, would leave float range.
    """
    M = np.asarray(A, dtype=float)
    minors = leading_principal_minors(exact_rows(M))
    if bad := [k + 1 for k, m in enumerate(minors) if m == 0]:
        raise ValueError(f"leading principal minors {bad} vanish; stabilizer needs all nonzero")
    return _stabilize(M, minors)


def corollary_stabilize(A):
    """Scan relabelings for all-nonzero leading minors, then stabilize.

    Returns (sigma, D) where D @ A is Hurwitz, or None when no relabeling
    produces nonzero minors.  None proves nothing: the minor condition is
    sufficient, not necessary, so A may still be diagonally stabilizable.
    """
    M = np.asarray(A, dtype=float)
    n = M.shape[0]
    if n > PERMUTATION_SCAN_CAP:
        raise CapabilityError(f"permutation scan capped at n={PERMUTATION_SCAN_CAP}")
    rows = exact_rows(M)
    for sigma in all_permutations(n):
        # P A P^{-1}, P the permutation matrix of sigma
        ordering = sigma.inverse().mapping
        minors = leading_principal_minors(ordering_conjugation(rows, ordering))
        if any(m == 0 for m in minors):
            continue
        d = _stabilize_ordered(M, ordering, minors)
        if not is_hurwitz(spectral_abscissa(np.diag(d) @ M)):
            raise StabilizationError("transported stabilizer failed verification (bug)")
        return sigma, d
    return None


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


def _sigmas(n: int, rng: random.Random):
    """Every permutation when n <= 4, else one random permutation."""
    return all_permutations(n) if n <= 4 else [_random_permutation(n, rng)]


def _sigma_pairs(n: int, trials: int, rng: random.Random):
    """All (tau, sigma) pairs when that is small, else random pairs."""
    perms = list(all_permutations(n))
    if len(perms) ** 2 <= trials:
        return itertools.product(perms, perms)
    return ((_random_permutation(n, rng), _random_permutation(n, rng)) for _ in range(trials))


def transpose_suite(n: int, trials: int, seed: int = 0) -> SuiteResult:
    """p_sigma(A^T) == p_sigma(A) for every permutation."""
    rng = random.Random(seed)
    count = failures = 0
    for _ in range(trials):
        A = _random_matrix(n, rng)
        At = [list(col) for col in zip(*A)]
        for sigma in _sigmas(n, rng):
            count += 1
            failures += p_sigma(A, sigma) != p_sigma(At, sigma)
    return SuiteResult("transpose", count, failures)


def composition_suite(n: int, trials: int, seed: int = 0) -> SuiteResult:
    """p_tau(P_sigma A P_sigma^{-1}) == p_{tau . sigma}(A)."""
    rng = random.Random(seed)
    count = failures = 0
    A = _random_matrix(n, rng)
    for tau, sigma in _sigma_pairs(n, trials, rng):
        count += 1
        lhs = p_sigma(ordering_conjugation(A, sigma.inverse().mapping), tau)
        failures += lhs != p_sigma(A, tau.compose(sigma))
        if count % 16 == 0:
            A = _random_matrix(n, rng)
    return SuiteResult("composition", count, failures)


def scaling_suite(n: int, trials: int, seed: int = 0) -> SuiteResult:
    """p_sigma(D A) == p_sigma(D) p_sigma(A) for diagonal D; in particular
    the zero sets coincide."""
    rng = random.Random(seed)
    count = failures = 0
    for _ in range(trials):
        A = _random_matrix(n, rng)
        diag = [rng.choice([-1, 1]) * rng.randint(1, 9) for _ in range(n)]
        D = [[diag[i] if i == j else 0 for j in range(n)] for i in range(n)]
        DA = [[d * x for x in row] for d, row in zip(diag, A)]
        for sigma in _sigmas(n, rng):
            count += 1
            lhs, rhs = p_sigma(DA, sigma), p_sigma(A, sigma)
            failures += lhs != p_sigma(D, sigma) * rhs or (lhs == 0) != (rhs == 0)
    return SuiteResult("diagonal-scaling", count, failures)


def jacobi_suite(n: int, trials: int, seed: int = 0) -> SuiteResult:
    """jacobi_residual == 0 on random invertible matrices, random subsets."""
    rng = random.Random(seed)
    count = failures = 0
    while count < trials:
        B = _random_matrix(n, rng, bound=9)
        if determinant(B) == 0:
            continue
        subset = frozenset(v for v in range(1, n + 1) if rng.random() < 0.5)
        count += 1
        failures += jacobi_residual(B, subset) != 0
    return SuiteResult("jacobi", count, failures)


def run_identity_suites(n: int, trials: int, seed: int = 0) -> list[SuiteResult]:
    return [
        transpose_suite(n, trials, seed),
        composition_suite(n, trials, seed + 1),
        scaling_suite(n, trials, seed + 2),
        jacobi_suite(n, trials, seed + 3),
    ]
