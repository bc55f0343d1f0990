"""Exact and floating-point matrix computations.

Everything algebraic runs over arbitrary-precision integers, with
rationals (fractions.Fraction) only where an input has denominators:
leading principal minors, characteristic polynomial coefficients, the
per-permutation minor products, and the Jacobi residual.  Every
determinant and minor comes from one fraction-free integer elimination on
the matrix with its denominators cleared.
Floating point appears in exactly one place, the eigenvalue computation
behind the spectral abscissa, because Hurwitz verification is numeric by
nature.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import CapabilityError, NumericalError, SingularMatrixError
from .patterns import Permutation, SparsityPattern, all_permutations

CHARPOLY_N_CAP = 64
VARIETY_N_CAP = 8  # the membership scan walks all n! permutations

HURWITZ_TOLERANCE = 1e-9  # guard band of the float Hurwitz test against rounding
SAMPLE_BOUND = 1000  # random integer entries drawn from {-B..B} minus {0}


class ExactMatrix:
    """An n-by-n matrix of exact rationals.

    Rows are stored as tuples of Fractions; instances are immutable and
    safe to share.
    """

    __slots__ = ("n", "rows")

    def __init__(self, rows):
        rows = tuple(tuple(Fraction(x) for x in row) for row in rows)
        n = len(rows)
        if any(len(row) != n for row in rows):
            raise ValueError("matrix must be square")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "rows", rows)

    def __setattr__(self, *a):
        raise AttributeError("ExactMatrix is immutable")

    @classmethod
    def identity(cls, n: int) -> "ExactMatrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def from_pattern(cls, pattern: SparsityPattern, values) -> "ExactMatrix":
        """Build from a (i, j) -> value mapping on 1-based free positions."""
        rows = [[Fraction(0)] * pattern.n for _ in range(pattern.n)]
        for (i, j), v in values.items():
            if (i, j) not in pattern.free:
                raise ValueError(f"({i}, {j}) is not a free entry")
            rows[i - 1][j - 1] = Fraction(v)
        return cls(rows)

    @classmethod
    def from_floats(cls, array) -> "ExactMatrix":
        """Exact rationalization of a float matrix (no rounding)."""
        return cls(
            [[Fraction(float(x)) for x in row] for row in np.asarray(array, dtype=float)]
        )

    def entry(self, i: int, j: int) -> Fraction:
        """1-based accessor."""
        return self.rows[i - 1][j - 1]

    def trace(self) -> Fraction:
        return sum((self.rows[i][i] for i in range(self.n)), Fraction(0))

    def transpose(self) -> "ExactMatrix":
        return ExactMatrix(list(zip(*self.rows)))

    def matmul(self, other: "ExactMatrix") -> "ExactMatrix":
        if other.n != self.n:
            raise ValueError("size mismatch")
        n = self.n
        cols = list(zip(*other.rows))
        return ExactMatrix(
            [[sum(a * b for a, b in zip(row, col)) for col in cols] for row in self.rows]
        )

    def principal_submatrix(self, index_set) -> "ExactMatrix":
        """Rows and columns restricted to a 1-based index subset."""
        idx = sorted(index_set)
        if any(not 1 <= i <= self.n for i in idx):
            raise ValueError(f"index set {idx} out of range")
        return ExactMatrix([[self.rows[a - 1][b - 1] for b in idx] for a in idx])

    def to_floats(self) -> np.ndarray:
        return np.array([[float(x) for x in row] for row in self.rows], dtype=float)

    def support(self) -> frozenset[tuple[int, int]]:
        return frozenset(
            (i + 1, j + 1)
            for i in range(self.n)
            for j in range(self.n)
            if self.rows[i][j] != 0
        )

    def __eq__(self, other):
        return isinstance(other, ExactMatrix) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        return f"ExactMatrix({[[str(x) for x in row] for row in self.rows]})"


def _integer_rows(rows) -> tuple[int, list[list[int]]]:
    """(L, rows of L*A as ints), L the lcm of the denominators of A's int or
    Fraction entries (1 if empty)."""
    L = math.lcm(*(x.denominator for row in rows for x in row))
    if L == 1:
        return 1, [[x.numerator for x in row] for row in rows]
    return L, [[x.numerator * (L // x.denominator) for x in row] for row in rows]


def determinant(A: ExactMatrix) -> Fraction:
    """Exact determinant: det(L*A) / L^n.

    L clears every denominator of A, and det(L*A) comes from fraction-free
    Bareiss elimination over the integers (Bareiss 1968), the one
    elimination behind every exact minor here.  The 0-by-0 determinant
    is 1.
    """
    if A.n == 0:
        return Fraction(1)
    L, m = _integer_rows(A.rows)
    return Fraction(_det_bareiss(m), L**A.n)


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


def inverse(A: ExactMatrix) -> ExactMatrix:
    """Exact inverse via Gauss-Jordan; raises on singular input."""
    n = A.n
    m = [list(row) + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(A.rows)]
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
    return ExactMatrix([row[n:] for row in m])


def _leading_minors(rows):
    """Yield det of the top-left k-by-k block for k = 1..n, exactly.

    Without row swaps, pivot k of Bareiss elimination on L*A is the k-th
    leading minor of L*A, which is L^k times that of A.  After a zero pivot
    the elimination cannot go on, so each later minor is the determinant of
    its own leading block.
    """
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("matrix must be square")
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
    """det of the top-left k-by-k block for k = 1..n, all exact, of an
    ExactMatrix or square rows of ints and Fractions (ints if every entry is)."""
    return list(_leading_minors(A.rows if isinstance(A, ExactMatrix) else A))


def conjugate_by_permutation(A: ExactMatrix, sigma: Permutation) -> ExactMatrix:
    """P A P^{-1} for the permutation matrix P of sigma.

    Entry (a, b) of the input lands at (sigma(a), sigma(b)).
    """
    if sigma.n != A.n:
        raise ValueError("size mismatch")
    inv = sigma.inverse()
    return ExactMatrix(
        [[A.rows[inv(a) - 1][inv(b) - 1] for b in range(1, A.n + 1)] for a in range(1, A.n + 1)]
    )


def p_sigma(A: ExactMatrix, sigma: Permutation) -> Fraction:
    """Product of leading principal minors 1..n-1 of the conjugated matrix.

    The product deliberately stops at n-1; the full determinant is a
    separate quantity (see leading_principal_minors).  Short-circuits to 0
    on the first vanishing factor.
    """
    out = Fraction(1)
    minors = _leading_minors(conjugate_by_permutation(A, sigma).rows)
    for d in itertools.islice(minors, max(A.n - 1, 0)):
        if d == 0:
            return Fraction(0)
        out *= d
    return out


@dataclass(frozen=True)
class CharPoly:
    """Coefficients [p_1..p_n] of s^n + p_1 s^{n-1} + ... + p_n."""

    coefficients: tuple[Fraction, ...]


def char_poly(A: ExactMatrix) -> CharPoly:
    """Exact characteristic polynomial via the trace recurrence.

    Faddeev-LeVerrier: M_1 = A, c_k = -tr(A M_k)/k applied iteratively;
    divisions by k are exact over the rationals.
    """
    n = A.n
    if n > CHARPOLY_N_CAP:
        raise CapabilityError(f"char_poly capped at n={CHARPOLY_N_CAP}")
    coeffs = []
    M = A
    for k in range(1, n + 1):
        c = -M.trace() / k
        coeffs.append(c)
        if k < n:
            M = A.matmul(
                ExactMatrix(
                    [
                        [M.rows[i][j] + (c if i == j else 0) for j in range(n)]
                        for i in range(n)
                    ]
                )
            )
    return CharPoly(tuple(coeffs))


def char_poly_via_minors(A: ExactMatrix) -> CharPoly:
    """Independent coefficient formula: p_k = (-1)^k sum of k-by-k principal
    minors.  Exponential in n; kept as the cross-check oracle."""
    n = A.n
    coeffs = []
    for k in range(1, n + 1):
        total = Fraction(0)
        for idx in itertools.combinations(range(1, n + 1), k):
            total += determinant(A.principal_submatrix(idx))
        coeffs.append((-1) ** k * total)
    return CharPoly(tuple(coeffs))


def is_hurwitz(abscissa: float) -> bool:
    """abscissa < -HURWITZ_TOLERANCE, a guard band against rounding."""
    return abscissa < -HURWITZ_TOLERANCE


def spectral_abscissa(A) -> float:
    """The largest real part of the dense nonsymmetric eigenvalues (LAPACK geev)."""
    M = np.asarray(A, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError("matrix must be square")
    if not np.all(np.isfinite(M)):
        raise ValueError("matrix entries must be finite")
    try:
        eig = np.linalg.eigvals(M)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigenvalue computation failed: {exc}") from exc
    return float(np.max(eig.real))


def _random_pattern_rows(p: SparsityPattern, rng, bound=SAMPLE_BOUND) -> list[list[int]]:
    """random_pattern_matrix's entries as int rows, drawn in sorted free order."""
    rows = [[0] * p.n for _ in range(p.n)]
    for i, j in p.sorted_free():
        v = rng.randint(1, 2 * bound)
        rows[i - 1][j - 1] = v - bound - 1 if v <= bound else v - bound
    return rows


def random_pattern_matrix(
    p: SparsityPattern, rng: random.Random, bound: int = SAMPLE_BOUND
) -> ExactMatrix:
    """Integer matrix supported on the pattern, entries in {-B..B} minus {0}."""
    return ExactMatrix(_random_pattern_rows(p, rng, bound))


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
    witness_matrix: ExactMatrix | None = None
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


def jacobi_residual(B: ExactMatrix, index_set) -> Fraction:
    """det((B^{-1})_I) - det(B_{I^c}) / det(B), exactly.

    Zero for every invertible B and index subset I; it exists to be
    property-tested.
    """
    idx = frozenset(index_set)
    det_B = determinant(B)
    if det_B == 0:
        raise SingularMatrixError("matrix is singular")
    comp = [i for i in range(1, B.n + 1) if i not in idx]
    lhs = determinant(inverse(B).principal_submatrix(idx)) if idx else Fraction(1)
    rhs = determinant(B.principal_submatrix(comp)) / det_B
    return lhs - rhs
