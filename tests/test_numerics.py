import random
from fractions import Fraction

import numpy as np
import pytest

from sparsestab import (
    CapabilityError,
    NumericalError,
    Permutation,
    SingularMatrixError,
    SparsityPattern,
    all_permutations,
    chain_generic_matrix,
    char_poly,
    char_poly_via_minors,
    determinant,
    find_nested_chain,
    inverse,
    jacobi_residual,
    leading_principal_minors,
    nonsingular_assignment,
    p_sigma,
    spectral_abscissa,
    variety_membership_sample,
)
import sparsestab.numerics as numerics
from sparsestab.numerics import (
    _abscissae,
    exact_rows,
    is_hurwitz,
    ordering_conjugation,
    random_pattern_matrix,
)

from conftest import FIG2_LEFT, FIG2_RIGHT, failed_geev

A_COUNTER = [[0, -1], [2, -1]]  # stable but det_1 = 0


def random_exact(n, rng, bound=50):
    return [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(n)]


def identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def matmul(A, B):
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*B)] for row in A]


def transpose(A):
    return [list(col) for col in zip(*A)]


def conjugate(A, sigma):
    """P A P^{-1}: entry (a, b) of A lands at (sigma(a), sigma(b))."""
    return ordering_conjugation(A, sigma.inverse().mapping)


def random_perm(n, rng):
    order = list(range(1, n + 1))
    rng.shuffle(order)
    return Permutation(tuple(order))


class TestExactMatrix:
    """Exact matrices: square rows of int and Fraction entries."""

    def test_from_floats_is_exact(self):
        A = exact_rows(np.array([[0.5, -1.25], [3.0, 0.1]]))
        assert A[0] == [Fraction(1, 2), Fraction(-5, 4)]
        assert type(A[1][0]) is int and A[1][0] == 3
        # 0.1 is not a dyadic rational; rationalization must keep the float bits
        assert type(A[1][1]) is Fraction and float(A[1][1]) == 0.1
        rng = random.Random(23)
        M = np.array([[rng.uniform(-5, 5) for _ in range(4)] for _ in range(4)])
        M[0, :] = [0.0, -2.0, 3.0, 1e300]
        A = exact_rows(M)
        assert all(type(x) in (int, Fraction) for row in A for x in row)
        assert [[float(x) for x in row] for row in A] == M.tolist()

    def test_determinant_bareiss_matches_gauss(self):
        rng = random.Random(2)
        for _ in range(20):
            n = rng.randint(1, 5)
            A = random_exact(n, rng)
            # divide by 3 so the elimination clears a denominator, then compare scaled
            B = [[Fraction(x, 3) for x in row] for row in A]
            assert determinant(B) * Fraction(3) ** n == determinant(A)

    def test_inverse_round_trip(self):
        rng = random.Random(3)
        done = 0
        while done < 15:
            A = random_exact(4, rng)
            if determinant(A) == 0:
                continue
            done += 1
            assert matmul(A, inverse(A)) == identity(4)

    def test_inverse_singular_raises(self):
        with pytest.raises(SingularMatrixError):
            inverse([[1, 1], [1, 1]])


class TestLeadingMinors:
    def test_counterexample_matrix(self):
        assert leading_principal_minors(A_COUNTER) == [0, 2]

    def test_identity(self):
        assert leading_principal_minors(identity(4)) == [1, 1, 1, 1]

    def test_diagonal_products(self):
        assert leading_principal_minors([[2, 0], [0, 4]]) == [2, 8]

    def test_counterexample_int_rows(self):
        minors = leading_principal_minors([[0, -1], [2, -1]])
        assert minors == [0, 2] and all(type(m) is int for m in minors)

    @pytest.mark.parametrize("n", range(1, 13))
    def test_int_rows_match_exact_matrix(self, n):
        # entries in {-2..2} give zero pivots often; wide ones almost never
        rng = random.Random(n)
        zero_pivots = 0
        for bound in [2] * 20 + [1000] * 5:
            rows = [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(n)]
            minors = leading_principal_minors(rows)
            assert all(type(m) is int for m in minors)
            assert minors == leading_principal_minors([[Fraction(x) for x in row] for row in rows])
            assert minors == [
                determinant([row[:k] for row in rows[:k]]) for k in range(1, n + 1)
            ]
            zero_pivots += 0 in minors[:-1]
        assert n == 1 or zero_pivots > 0

    def test_fraction_rows_match_exact_matrix(self):
        rng = random.Random(7)
        for _ in range(20):
            rows = [
                [Fraction(rng.randint(-3, 3), rng.choice([1, 1, 2, 3, 8])) for _ in range(5)]
                for _ in range(5)
            ]
            rows[0][0] = rng.randint(-1, 1)  # an int among the Fractions
            assert leading_principal_minors(rows) == reference_minors(rows)

    def test_non_square_rows_rejected(self):
        with pytest.raises(ValueError):
            leading_principal_minors([[1, 2, 3], [4, 5, 6]])


class TestPSigma:
    def test_identity_matrix_any_sigma(self):
        I3 = identity(3)
        for sigma in all_permutations(3):
            assert p_sigma(I3, sigma) == 1

    def test_counterexample_identity_sigma(self):
        assert p_sigma(A_COUNTER, Permutation((1, 2))) == 0

    def test_counterexample_swap_sigma(self):
        swap = Permutation((2, 1))
        assert conjugate(A_COUNTER, swap) == [[-1, 2], [-1, 0]]
        assert p_sigma(A_COUNTER, swap) == -1

    def test_transpose_invariance(self):
        rng = random.Random(5)
        for _ in range(10):
            A = random_exact(4, rng)
            for sigma in all_permutations(4):
                assert p_sigma(A, sigma) == p_sigma(transpose(A), sigma)

    def test_conjugation_composition(self):
        rng = random.Random(7)
        A = random_exact(3, rng)
        for sigma in all_permutations(3):
            for tau in all_permutations(3):
                lhs = p_sigma(conjugate(A, sigma), tau)
                assert lhs == p_sigma(A, tau.compose(sigma))

    def test_diagonal_scaling_preserves_zero_set(self):
        rng = random.Random(9)
        for _ in range(10):
            A = random_exact(3, rng)
            diag = [rng.choice([-3, -1, 2, 5]) for _ in range(3)]
            D = [[diag[i] if i == j else 0 for j in range(3)] for i in range(3)]
            DA = matmul(D, A)
            for sigma in all_permutations(3):
                factor = Fraction(1)
                for m in leading_principal_minors(conjugate(D, sigma))[:2]:
                    factor *= m
                assert p_sigma(DA, sigma) == factor * p_sigma(A, sigma)


def reference_det(rows):
    """Rational Gaussian elimination, first nonzero pivot in each column."""
    m = [[Fraction(x) for x in row] for row in rows]
    n = len(m)
    det = Fraction(1)
    for k in range(n):
        pivot = next((r for r in range(k, n) if m[r][k] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != k:
            m[k], m[pivot] = m[pivot], m[k]
            det = -det
        det *= m[k][k]
        for r in range(k + 1, n):
            f = m[r][k] / m[k][k]
            m[r] = [a - f * b for a, b in zip(m[r], m[k])]
    return det


def reference_minors(rows):
    """One reference determinant per leading block."""
    return [reference_det([row[:k] for row in rows[:k]]) for k in range(1, len(rows) + 1)]


def reference_p_sigma(rows, sigma):
    """Leading minors 1..n-1 of the conjugation B[sigma(a)][sigma(b)] = A[a][b]."""
    n = len(rows)
    conj = [[None] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            conj[sigma(a + 1) - 1][sigma(b + 1) - 1] = rows[a][b]
    out = Fraction(1)
    for m in reference_minors(conj)[: n - 1]:
        out *= m
    return out


def _integer_rows(n, rng):
    return [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]


def _dyadic_rows(n, rng):
    """Float entries rationalized exactly, 0.1 among them."""
    rows = np.array([[rng.uniform(-4, 4) for _ in range(n)] for _ in range(n)])
    for _ in range(n):
        rows[rng.randrange(n), rng.randrange(n)] = 0.1
    return exact_rows(rows.reshape(n, n))


def _thirds_sevenths_rows(n, rng):
    return [[Fraction(rng.randint(-20, 20), rng.choice((1, 3, 7))) for _ in range(n)] for _ in range(n)]


def _zero_minor_at(rows, k):
    """Copy of rows whose k-th leading minor vanishes: row k repeats row 1
    on the first k columns (entry (1, 1) is zeroed when k = 1)."""
    rows = [list(row) for row in rows]
    if k == 1:
        rows[0][0] = 0
    else:
        rows[k - 1][:k] = rows[0][:k]
    return rows


def _reference_cases():
    """(label, rows) for n = 0..9 in every family the exact layer meets."""
    rng = random.Random(20131)
    for n in range(10):
        for family in (_integer_rows, _dyadic_rows, _thirds_sevenths_rows):
            for trial in range(2):
                rows = family(n, rng)
                yield f"{family.__name__}-n{n}-{trial}", rows
                for k in range(1, n + 1):
                    yield f"{family.__name__}-n{n}-{trial}-zero{k}", _zero_minor_at(rows, k)
                if n >= 2:
                    singular = [list(row) for row in rows]
                    singular[-1] = [a + b for a, b in zip(rows[0], rows[1])]
                    yield f"{family.__name__}-n{n}-{trial}-singular", singular
                if n >= 1:
                    zero_row = [list(row) for row in rows]
                    zero_row[rng.randrange(n)] = [0] * n
                    yield f"{family.__name__}-n{n}-{trial}-zero-row", zero_row


REFERENCE_CASES = list(_reference_cases())


class TestMatchesReference:
    """The one fraction-free elimination against rational Gaussian
    elimination run once per leading block."""

    def test_cases_reach_every_path(self):
        reached = {"denominators": 0, "nonzero_after_zero": 0}
        for _, rows in REFERENCE_CASES:
            if any(Fraction(x).denominator > 1 for row in rows for x in row):
                reached["denominators"] += 1
            minors = reference_minors(rows)
            first_zero = next((k for k, m in enumerate(minors) if m == 0), None)
            if first_zero is not None and any(m != 0 for m in minors[first_zero:]):
                reached["nonzero_after_zero"] += 1
        assert reached["denominators"] >= 200
        assert reached["nonzero_after_zero"] >= 100

    def test_leading_minors_and_determinant(self):
        for label, rows in REFERENCE_CASES:
            assert leading_principal_minors(rows) == reference_minors(rows), label
            assert determinant(rows) == reference_det(rows), label

    def test_p_sigma(self):
        rng = random.Random(7)
        for label, rows in REFERENCE_CASES:
            n = len(rows)
            for sigma in (Permutation(tuple(range(1, n + 1))), random_perm(n, rng)):
                assert p_sigma(rows, sigma) == reference_p_sigma(rows, sigma), (label, sigma)


class TestCharPoly:
    def test_counterexample(self):
        assert char_poly(A_COUNTER) == (Fraction(1), Fraction(2))

    def test_identity_2(self):
        assert char_poly(identity(2)) == (Fraction(-2), Fraction(1))

    def test_zero_diagonal_pattern_kills_trace(self):
        rng = random.Random(11)
        p = SparsityPattern(4, frozenset((i, j) for i in range(1, 5) for j in range(1, 5) if i != j))
        A = random_pattern_matrix(p, rng)
        assert char_poly(A)[0] == 0

    def test_head_and_tail_coefficients(self):
        rng = random.Random(13)
        for _ in range(10):
            n = rng.randint(1, 5)
            A = random_exact(n, rng)
            coeffs = char_poly(A)
            assert coeffs[0] == -sum(A[i][i] for i in range(n))
            assert coeffs[-1] == (-1) ** n * determinant(A)

    def test_matches_principal_minor_sums(self):
        rng = random.Random(17)
        for trial in range(100):
            n = trial % 6 + 1
            A = random_exact(n, rng, bound=20)
            assert char_poly(A) == char_poly_via_minors(A)

    def test_capability_cap(self):
        with pytest.raises(CapabilityError):
            char_poly(identity(65))


class TestSpectralAbscissa:
    def test_negative_diagonal(self):
        abscissa = spectral_abscissa(np.diag([-1.0, -2.0]))
        assert abscissa == pytest.approx(-1.0) and is_hurwitz(abscissa)

    def test_counterexample_half(self):
        abscissa = spectral_abscissa(np.array([[0.0, -1.0], [2.0, -1.0]]))
        assert abscissa == pytest.approx(-0.5) and is_hurwitz(abscissa)

    def test_symmetric_flip(self):
        abscissa = spectral_abscissa(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert abscissa == pytest.approx(1.0) and not is_hurwitz(abscissa)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            spectral_abscissa(np.zeros((2, 3)))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            spectral_abscissa(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    def test_non_convergence_is_a_numerical_error(self, monkeypatch):
        monkeypatch.setattr(numerics, "_geev", failed_geev)
        with pytest.raises(NumericalError, match="did not converge"):
            spectral_abscissa(np.eye(2))
        with pytest.raises(NumericalError, match="did not converge"):
            _abscissae(np.zeros((2, 3, 3)))


def _stack_cases(n):
    """(2, n, n) stacks: random pairs, pairs with all-real spectra
    (symmetric, triangular), pairs that differ in one entry as the oracle's
    step pair does, the zero matrix and a Jordan block."""
    rng = np.random.default_rng(n)
    cases = [rng.uniform(-1.0, 1.0, (2, n, n)) for _ in range(20)]
    for _ in range(10):
        S = rng.uniform(-1.0, 1.0, (n, n))
        cases.append(np.stack((S + S.T, np.triu(S))))
    for _ in range(20):
        M = np.where(rng.random((n, n)) < 0.5, rng.uniform(-1.0, 1.0, (n, n)), 0.0)
        r, k = rng.integers(n, size=2)
        step = 0.35 * 0.5 ** int(rng.integers(0, 20))
        pair = np.stack((M, M))
        plus = M[r, k] + step
        pair[0, r, k], pair[1, r, k] = plus, plus - step - step
        cases.append(pair)
    jordan = np.eye(n, k=1) - 0.5 * np.eye(n)
    cases.append(np.stack((np.zeros((n, n)), jordan)))
    return cases


class TestStackedEigenvalues:
    """The oracle evaluates a step pair as one (2, n, n) stack; its descent
    matches the one-matrix-per-call descent only if LAPACK returns the same
    bits for a matrix in a stack as for the matrix alone."""

    @pytest.mark.parametrize("n", range(1, 9))
    def test_stack_equals_single_calls(self, n):
        for pair in _stack_cases(n):
            # a stack comes back complex when either matrix has a complex
            # eigenvalue, a lone matrix with real eigenvalues as floats
            stacked = np.linalg.eigvals(pair).astype(complex)
            for i in range(2):
                alone = np.linalg.eigvals(pair[i]).astype(complex)
                assert stacked[i].tobytes() == alone.tobytes()
            assert _abscissae(pair) == [spectral_abscissa(M) for M in pair]


class TestAbscissaKernel:
    """_abscissae calls LAPACK geev through numpy's gufunc, without the
    np.linalg.eigvals wrapper; it must return the wrapper's bits."""

    @pytest.mark.filterwarnings("error::RuntimeWarning")  # no errstate guards the kernel
    @pytest.mark.parametrize("n", range(1, 13))
    def test_equals_the_numpy_wrapper(self, n):
        for pair in _stack_cases(n):
            for stack in (pair, pair[:1], pair[1:]):
                want = np.linalg.eigvals(stack).real.max(axis=-1)
                got = _abscissae(stack)
                assert all(type(a) is float for a in got)
                assert np.array(got).tobytes() == want.tobytes()


class TestVarietySampling:
    def test_full_two_by_two_escapes(self):
        out = variety_membership_sample(SparsityPattern.full(2), 1, seed=4)
        assert not out.generic_member
        # the witness must re-verify
        assert p_sigma(out.witness_matrix, out.witness_sigma) == out.witness_value != 0

    def test_unstable_pattern_stays_inside(self):
        out = variety_membership_sample(FIG2_LEFT, 50, seed=0)
        assert out.generic_member

    def test_zero_pattern_trivially_inside(self):
        out = variety_membership_sample(SparsityPattern.empty(3), 3, seed=0)
        assert out.generic_member

    def test_zero_trials_rejected(self):
        with pytest.raises(ValueError):
            variety_membership_sample(SparsityPattern.full(2), 0, seed=0)

    def test_capability_cap(self):
        with pytest.raises(CapabilityError):
            variety_membership_sample(SparsityPattern.full(9), 1, seed=0)


class TestJacobi:
    def test_diagonal_example(self):
        assert jacobi_residual([[2, 0], [0, 4]], {1}) == 0

    def test_identity_all_subsets(self):
        import itertools

        I4 = identity(4)
        for r in range(5):
            for idx in itertools.combinations(range(1, 5), r):
                assert jacobi_residual(I4, idx) == 0

    def test_singular_rejected(self):
        with pytest.raises(SingularMatrixError):
            jacobi_residual([[1, 2], [2, 4]], {1})

    def test_random_invertible(self):
        rng = random.Random(19)
        done = 0
        while done < 30:
            B = random_exact(4, rng, bound=9)
            if determinant(B) == 0:
                continue
            done += 1
            subset = frozenset(v for v in range(1, 5) if rng.random() < 0.5)
            assert jacobi_residual(B, subset) == 0

    def test_inverse_inherits_vanishing_complement(self):
        # force det_k = 0 by duplicating a row inside the leading block,
        # keep the whole matrix invertible, then the complementary minor of
        # the inverse must vanish exactly
        rng = random.Random(21)
        done = 0
        while done < 20:
            n, k = 4, rng.randint(1, 3)
            A = [[Fraction(rng.randint(-9, 9)) for _ in range(n)] for _ in range(n)]
            if k == 1:
                A[0][0] = Fraction(0)
            else:
                for j in range(k):
                    A[k - 1][j] = A[0][j]
            if determinant(A) == 0:
                continue
            assert determinant(ordering_conjugation(A, range(1, k + 1))) == 0
            done += 1
            comp = range(k + 1, n + 1)
            assert determinant(ordering_conjugation(inverse(A), comp)) == 0


def _scalars(x):
    """Every scalar of a nested list or tuple result."""
    if isinstance(x, (list, tuple)):
        for e in x:
            yield from _scalars(e)
    else:
        yield x


EXACT_ROUTINES = {
    "determinant": determinant,
    "inverse": inverse,
    "leading_principal_minors": leading_principal_minors,
    "ordering_conjugation": lambda A: ordering_conjugation(A, (3, 1, 2)),
    "p_sigma": lambda A: p_sigma(A, Permutation((2, 3, 1))),
    "char_poly": char_poly,
    "char_poly_via_minors": char_poly_via_minors,
    "jacobi_residual": lambda A: jacobi_residual(A, {1, 3}),
}

EXACT_INPUTS = {
    "int": [[2, -1, 3], [1, 4, -2], [5, 0, 7]],  # det 13, minors 2, 9, 13
    "fraction": [[Fraction(2, 3), Fraction(-1, 2), 3], [1, Fraction(4, 7), -2], [5, 0, Fraction(7, 5)]],
}


class TestExactnessContract:
    """Every public exact routine keeps int and Fraction input exact: an
    int / int division anywhere would let a float through."""

    @pytest.mark.parametrize("entries", sorted(EXACT_INPUTS))
    @pytest.mark.parametrize("name", sorted(EXACT_ROUTINES))
    def test_no_float(self, name, entries):
        values = list(_scalars(EXACT_ROUTINES[name](EXACT_INPUTS[entries])))
        assert values and all(type(v) in (int, Fraction) for v in values), values

    @pytest.mark.parametrize("rows", [[[1, 2, 3], [4, 5, 6]], [[1, 2, 3], [4, 5, 6], [7, 8]]])
    @pytest.mark.parametrize("name", sorted(EXACT_ROUTINES))
    def test_non_square_rejected(self, name, rows):
        with pytest.raises(ValueError):
            EXACT_ROUTINES[name](rows)

    # the wrap-around case: numpy int64 Bareiss gave a second minor of
    # -3535985420588157524 and a determinant of 36230
    BIG = [[3**30, 1, 2], [5, 3**30, 7], [1, 2, 3**30]]

    @pytest.mark.parametrize(
        "rows",
        [
            np.array(BIG),
            np.array(BIG, dtype=float),
            [[1.0, 2.0], [3.0, 4.0]],
            [[1, 2], [3, 4.5]],
            [[Fraction(1, 2), np.int64(2)], [3, 4]],
            # a numpy numerator wraps as a numpy int does: det gave 36230
            [[Fraction(np.int64(x)) for x in row] for row in BIG],
        ],
    )
    @pytest.mark.parametrize(
        "routine", [determinant, leading_principal_minors, inverse, char_poly]
    )
    def test_non_exact_entries_rejected(self, routine, rows):
        with pytest.raises(TypeError, match="exact_rows"):
            routine(rows)

    def test_big_int_rows_exact(self):
        """The same entries as int rows (numpy's tolist) stay exact."""
        rows = np.array(self.BIG).tolist()
        minors = leading_principal_minors(rows)
        assert minors[1] == 3**60 - 5 == 42391158275216203514294433196
        assert minors[2] == determinant(rows) == -char_poly(rows)[2]

    def test_pattern_routines_return_int_rows(self):
        full = SparsityPattern.full(3)
        sample = variety_membership_sample(full, 1, seed=0)
        for rows in (
            random_pattern_matrix(full, random.Random(0)),
            chain_generic_matrix(FIG2_RIGHT, find_nested_chain(FIG2_RIGHT), seed=0),
            nonsingular_assignment(full, Permutation.identity(3)),
            sample.witness_matrix,
        ):
            assert len(rows) == 3 and all(type(x) is int for row in rows for x in row)
        assert type(sample.witness_value) in (int, Fraction)
