"""Exact and floating-point matrix computations.

Everything algebraic runs over arbitrary-precision integers, with
rationals (fractions.Fraction) only where an input has denominators:
leading principal minors, characteristic polynomial coefficients, the
per-permutation minor products, and the Jacobi residual.  An exact matrix
is a list of square rows of int and Fraction entries, and exact_rows is
the one conversion from floats.  Every determinant and minor comes from
one fraction-free integer elimination on the matrix with its denominators
cleared.
Floating point appears in exactly one place, the kernel _abscissae behind
the spectral abscissa (of one matrix, or of each matrix in the oracle's
stacks), because Hurwitz verification is numeric by nature.  It calls
LAPACK geev through numpy's eigvals gufunc, without the np.linalg.eigvals
wrapper and its per-call checks, so its input must be finite.  Each caller
relies on one guarantee:

- spectral_abscissa checks shape and finiteness, for outside callers and
  for the re-checks of an oracle matrix;
- the oracle (verdict.oracle_search) starts its entries in [-1, 1] and
  moves them by a bounded step;
- the stabilizer (witness._stabilize) takes a matrix that exact_rows
  accepted, so finite, and checks that its own entries and their products
  with the matrix stay in float range;
- the synthesis check (synthesize_stable_witness) multiplies that
  stabilizer into the witness, the same product reordered;
- the verifier (verdict.certificate_failures) checks both decoded arrays
  and then their product.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from numpy.linalg._umath_linalg import eigvals as _geev  # np.linalg.eigvals without its wrapper

from .errors import CapabilityError, NumericalError, SingularMatrixError
from .patterns import Permutation, SparsityPattern, all_permutations

CHARPOLY_N_CAP = 64
VARIETY_N_CAP = 8  # the membership scan walks all n! permutations

HURWITZ_TOLERANCE = 1e-9  # guard band of the float Hurwitz test against rounding
SAMPLE_BOUND = 1000  # random integer entries drawn from {-B..B} minus {0}


def _square(rows) -> int:
    """The order n of square rows; raises ValueError on any other shape.

    The input check of every public exact routine.
    """
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("matrix must be square")
    return n


def exact_rows(array) -> list[list[int | Fraction]]:
    """Rows of a float matrix converted exactly (no rounding): an integral
    entry becomes an int, any other a Fraction.  Raises ValueError on an
    infinite or NaN entry, which only the conversion itself detects."""
    rows = np.asarray(array, dtype=float).tolist()
    try:
        return [[int(x) if x.is_integer() else Fraction(x) for x in row] for row in rows]
    except (OverflowError, ValueError):  # Fraction(inf), Fraction(nan)
        raise ValueError("matrix entries must be finite") from None


def _check_exact(rows) -> bool:
    """Raises TypeError unless every entry is an int or a Fraction of ints;
    returns whether every entry is exactly an int.

    The entry check of every exact routine: a numpy integer, alone or as a
    Fraction's numerator, would wrap in the arithmetic, and a float is not
    exact.
    """
    kinds = set(map(type, itertools.chain.from_iterable(rows)))
    if any(issubclass(kind, Fraction) for kind in kinds):
        kinds |= {
            type(part)
            for x in itertools.chain.from_iterable(rows)
            if isinstance(x, Fraction)
            for part in (x.numerator, x.denominator)
        }
    names = sorted(kind.__name__ for kind in kinds if not issubclass(kind, (int, Fraction)))
    if names:
        raise TypeError(
            f"exact routines take int entries or Fractions of ints, not {names}; "
            "convert a float matrix with exact_rows"
        )
    return kinds <= {int}


def _integer_rows(rows) -> tuple[int, list[list[int]]]:
    """(L, fresh rows of L*A as ints), L the lcm of the denominators of A's
    int or Fraction entries (1 if empty); raises TypeError on any other
    entry."""
    if _check_exact(rows):
        return 1, [list(row) for row in rows]
    L = math.lcm(*(x.denominator for row in rows for x in row))
    return L, [[x.numerator * (L // x.denominator) for x in row] for row in rows]


def determinant(A) -> Fraction:
    """Exact determinant: det(L*A) / L^n.

    L clears every denominator of A, and det(L*A) comes from fraction-free
    Bareiss elimination over the integers (Bareiss 1968), the one
    elimination behind every exact minor here.  The 0-by-0 determinant
    is 1.
    """
    n = _square(A)
    if n == 0:
        return Fraction(1)
    L, m = _integer_rows(A)
    return Fraction(_det_bareiss(m), L**n)


def _det_bareiss(m: list[list[int]]) -> int:
    n = len(m)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for r in range(k + 1, n):
                if m[r][k] != 0:
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def inverse(A) -> list[list[Fraction]]:
    """Exact inverse via Gauss-Jordan over the rationals; raises on
    singular input."""
    n = _square(A)
    _check_exact(A)
    m = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(A)]
    for k in range(n):
        pivot = None
        for r in range(k, n):
            if m[r][k] != 0:
                pivot = r
                break
        if pivot is None:
            raise SingularMatrixError("matrix is singular")
        m[k], m[pivot] = m[pivot], m[k]
        inv = 1 / m[k][k]
        m[k] = [x * inv for x in m[k]]
        for r in range(n):
            if r != k and m[r][k] != 0:
                f = m[r][k]
                m[r] = [a - f * b for a, b in zip(m[r], m[k])]
    return [row[n:] for row in m]


def _leading_minors(rows):
    """Yield det of the top-left k-by-k block for k = 1..n, exactly.

    Without row swaps, pivot k of Bareiss elimination on L*A is the k-th
    leading minor of L*A, which is L^k times that of A.  After a zero pivot
    the elimination cannot go on, so each later minor is the determinant of
    its own leading block.
    """
    n = _square(rows)
    L, m = _integer_rows(rows)
    prev = scale = 1
    for k in range(n):
        pivot = m[k][k]
        scale *= L
        yield pivot if L == 1 else Fraction(pivot, scale)
        if pivot == 0:
            _, m = _integer_rows(rows)
            for size in range(k + 2, n + 1):
                scale *= L
                det = _det_bareiss([row[:size] for row in m[:size]])
                yield det if L == 1 else Fraction(det, scale)
            return
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * pivot - m[i][k] * m[k][j]) // prev
        prev = pivot


def leading_principal_minors(A) -> list[int | Fraction]:
    """det of the top-left k-by-k block for k = 1..n, all exact, of square
    rows of ints and Fractions (ints if every entry is)."""
    return list(_leading_minors(A))


def ordering_conjugation(rows, ordering) -> list[list]:
    """The rows and columns of square rows at the 1-based indices
    ``ordering``, in that order: entry (a, b) of the result is
    rows[ordering[a]][ordering[b]].

    For a permutation of 1..n, the leading principal minors of the result
    are the principal minors of the input on the prefixes of the ordering;
    for an increasing subset, the result is the principal submatrix.
    """
    n = _square(rows)
    idx = [v - 1 for v in ordering]
    if any(not 0 <= v < n for v in idx):
        raise ValueError(f"ordering {tuple(ordering)} is not within 1..{n}")
    return [[rows[a][b] for b in idx] for a in idx]


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


def char_poly(A) -> tuple[Fraction, ...]:
    """Coefficients (p_1..p_n) of det(sI - A) = s^n + p_1 s^{n-1} + ... + p_n,
    via the trace recurrence.

    Faddeev-LeVerrier: M_1 = A, c_k = -tr(M_k)/k, M_{k+1} = A (M_k + c_k I);
    divisions by k are exact over the rationals.
    """
    n = _square(A)
    if n > CHARPOLY_N_CAP:
        raise CapabilityError(f"char_poly capped at n={CHARPOLY_N_CAP}")
    _check_exact(A)
    coeffs = []
    M = A
    for k in range(1, n + 1):
        c = -Fraction(sum(M[i][i] for i in range(n))) / k
        coeffs.append(c)
        if k < n:
            shifted = [[x + c if i == j else x for j, x in enumerate(row)] for i, row in enumerate(M)]
            cols = list(zip(*shifted))
            M = [[sum(a * b for a, b in zip(row, col)) for col in cols] for row in A]
    return tuple(coeffs)


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


def is_hurwitz(abscissa: float) -> bool:
    """abscissa < -HURWITZ_TOLERANCE, a guard band against rounding."""
    return abscissa < -HURWITZ_TOLERANCE


def _abscissae(stack: np.ndarray) -> list[float]:
    """The largest real part of the eigenvalues of each matrix in a stack
    (k, n, n) of float64, by one LAPACK geev call per matrix; raises
    NumericalError when one does not converge.

    The one eigenvalue entry point.  Precondition: every entry is finite.
    The gufunc does not check it, and LAPACK may misbehave on inf or NaN;
    the module docstring lists each caller's guarantee.  The oracle's
    entries start in [-1, 1] and move by at most 0.35 per counted
    evaluation, so they stay within 1 + 0.35 * oracle_steps.  geev fills
    the eigenvalues of a matrix it fails on with NaN, which the max carries
    into that abscissa.  It stays private so that it is not traced as a
    layer: the oracle calls it once per coordinate visit.
    """
    out = _geev(stack, signature="d->D").real.max(axis=-1).tolist()
    if any(map(math.isnan, out)):
        raise NumericalError("eigenvalue computation failed: LAPACK geev did not converge")
    return out


def spectral_abscissa(A) -> float:
    """The largest real part of the dense nonsymmetric eigenvalues (LAPACK geev)."""
    M = np.asarray(A, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError("matrix must be square")
    if not np.all(np.isfinite(M)):
        raise ValueError("matrix entries must be finite")
    return _abscissae(M[np.newaxis])[0]


def random_pattern_matrix(
    p: SparsityPattern, rng: random.Random, bound: int = SAMPLE_BOUND
) -> list[list[int]]:
    """Integer rows supported on the pattern, entries in {-B..B} minus {0},
    drawn in sorted free order."""
    rows = [[0] * p.n for _ in range(p.n)]
    for i, j in p.sorted_free():
        v = rng.randint(1, 2 * bound)
        rows[i - 1][j - 1] = v - bound - 1 if v <= bound else v - bound
    return rows


@dataclass(frozen=True)
class VarietySample:
    """Outcome of the randomized common-zero-set membership test.

    generic_member means every sampled matrix annihilated every minor
    product (probabilistic evidence of membership); otherwise the witness
    permutation and matrix re-verify p_sigma != 0 exactly.
    """

    generic_member: bool
    trials: int
    witness_sigma: Permutation | None = None
    witness_matrix: list[list[int]] | None = None
    witness_value: Fraction | None = None


def variety_membership_sample(
    p: SparsityPattern, trials: int, seed: int, bound: int = SAMPLE_BOUND
) -> VarietySample:
    """Sample matrices on the pattern and scan permutations for a nonzero
    minor product.

    A nonzero hit proves the matrix space is not contained in the common
    zero set of the minor products; paired with a nonsingular sample
    (the product stops at n-1, so the determinant is a separate check) it
    exhibits a diagonally stabilizable member.
    """
    if trials < 1:
        raise ValueError("trials must be positive")
    if p.n > VARIETY_N_CAP:
        raise CapabilityError(f"permutation scan capped at n={VARIETY_N_CAP}")
    rng = random.Random(seed)
    for _ in range(trials):
        A = random_pattern_matrix(p, rng, bound)
        for sigma in all_permutations(p.n):
            val = p_sigma(A, sigma)
            if val != 0:
                return VarietySample(
                    generic_member=False,
                    trials=trials,
                    witness_sigma=sigma,
                    witness_matrix=A,
                    witness_value=val,
                )
    return VarietySample(generic_member=True, trials=trials)


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
