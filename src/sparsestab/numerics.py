"""Exact and floating-point matrix computations.

Everything algebraic runs over arbitrary-precision integers, with
rationals (fractions.Fraction) only where an input has denominators:
leading principal minors, determinants and characteristic polynomial
coefficients.  An exact matrix is a list of square rows of int and
Fraction entries, and exact_rows is the one conversion from floats.
Each exact routine clears the denominators and divides only at the end: the
minors come from one fraction-free elimination and the characteristic
polynomial from one division-free recurrence, both over the integers.
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
from fractions import Fraction
from operator import mul

import numpy as np
from numpy.linalg._umath_linalg import eigvals as _geev  # np.linalg.eigvals without its wrapper

from .errors import CapabilityError, NumericalError
from .patterns import SparsityPattern

CHARPOLY_N_CAP = 64

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


def char_poly(A) -> tuple[Fraction, ...]:
    """Coefficients (p_1..p_n) of det(sI - A) = s^n + p_1 s^{n-1} + ... + p_n,
    by Berkowitz's division-free recurrence (Berkowitz 1984).

    It runs over the integers on M = L*A, L the common denominator, whose
    coefficient k is L^k p_k.  With M_r the leading r-block and the next
    block split as [[M_r, S], [R, a]], the coefficient vector of the next
    block (highest degree first) is the lower triangular Toeplitz matrix
    with first column 1, -a, -R S, -R M_r S, ..., -R M_r^{r-1} S times
    that of M_r.
    """
    n = _square(A)
    if n > CHARPOLY_N_CAP:
        raise CapabilityError(f"char_poly capped at n={CHARPOLY_N_CAP}")
    L, m = _integer_rows(A)
    coeffs = [1]  # of det(sI - M_r), highest degree first
    for r in range(n):
        col = [m[i][r] for i in range(r)]  # S; zip cuts each row to M_r's r columns
        t = [1, -m[r][r]]  # the Toeplitz matrix's first column
        for _ in range(r):
            t.append(-sum(map(mul, m[r], col)))
            col = [sum(map(mul, m[i], col)) for i in range(r)]
        coeffs = [sum(t[i - j] * coeffs[j] for j in range(min(i, r) + 1)) for i in range(r + 2)]
    return tuple(Fraction(c, L**k) for k, c in enumerate(coeffs[1:], 1))


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
