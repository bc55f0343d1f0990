import hashlib
import itertools
import json
import math
import random

import numpy as np
import pytest

from sparsestab import (
    StabilizationError,
    check_scc_sink,
    classify,
    verify_certificate,
    Permutation,
    SparsityPattern,
    chain_generic_matrix,
    corollary_stabilize,
    determinant,
    diagonal_stabilize,
    find_nested_chain,
    leading_principal_minors,
    nonsingular_assignment,
    spectral_abscissa,
    synthesize_stable_witness,
)
from sparsestab.jsonio import verdict_to_dict
from sparsestab.patterns import key_to_pattern
from sparsestab.verdict import CHAIN_FOUND, PROVED_STABLE
from sparsestab.numerics import exact_rows, is_hurwitz, ordering_conjugation

from conftest import FIG2_RIGHT, SIGMA_ALPHA


def all_patterns(n):
    cells = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
    for picks in itertools.product((False, True), repeat=n * n):
        yield SparsityPattern(n, frozenset(c for c, keep in zip(cells, picks) if keep))


class TestNonsingularAssignment:
    def test_one_by_one(self):
        p = SparsityPattern.from_pairs(1, [(1, 1)])
        A = nonsingular_assignment(p, Permutation((1,)))
        assert A == [[1]]
        assert determinant(A) == 1

    def test_full_three_identity_support(self):
        A = nonsingular_assignment(SparsityPattern.full(3), Permutation.identity(3))
        assert all(A[i][i] == 6 for i in range(3))
        assert A[0][1] == 1
        assert determinant(A) == 200  # 6^3 + 1 + 1 - 6 - 6 - 6

    def test_fig2_right_cycle_support(self):
        A = nonsingular_assignment(FIG2_RIGHT, Permutation((2, 3, 1)))
        assert A[0][1] == A[1][2] == A[2][0] == 6
        assert A[0][0] == A[1][0] == 1
        assert determinant(A) == 216

    def test_support_outside_free_rejected(self):
        with pytest.raises(ValueError):
            nonsingular_assignment(SparsityPattern.diagonal(2), Permutation((2, 1)))

    def test_exhaustive_three_by_three(self):
        checked = 0
        perms = [Permutation(t) for t in itertools.permutations((1, 2, 3))]
        for p in all_patterns(3):
            for sigma in perms:
                if all((i, sigma(i)) in p.free for i in range(1, 4)):
                    assert determinant(nonsingular_assignment(p, sigma)) != 0
                    checked += 1
        # 6 permutations, each with 2^6 supersets of its support cells
        assert checked == 384

    def test_randomized_larger_sizes(self):
        rng = random.Random(47)
        for n in (4, 5, 6):
            for _ in range(20):
                order = list(range(1, n + 1))
                rng.shuffle(order)
                sigma = Permutation(tuple(order))
                free = {(i, sigma(i)) for i in range(1, n + 1)}
                for i in range(1, n + 1):
                    for j in range(1, n + 1):
                        if rng.random() < 0.5:
                            free.add((i, j))
                p = SparsityPattern(n, frozenset(free))
                det = determinant(nonsingular_assignment(p, sigma))
                assert det != 0
                # values reach (n!)^n, far beyond 64-bit range at n=6
                if n == 6:
                    assert abs(det) > 2**63 or math.factorial(n) ** n < 2**63


class TestChainGenericMatrix:
    def test_diagonal_pattern(self):
        p = SparsityPattern.diagonal(3)
        chain = find_nested_chain(p)
        A = chain_generic_matrix(p, chain, seed=1)
        assert all(m != 0 for m in leading_principal_minors(A))

    def test_fig2_right_minors_nonzero(self):
        chain = find_nested_chain(FIG2_RIGHT)
        A = chain_generic_matrix(FIG2_RIGHT, chain, seed=2)
        ordered = ordering_conjugation(A, chain.ordering)
        assert all(m != 0 for m in leading_principal_minors(ordered))
        support = {(i + 1, j + 1) for i, row in enumerate(A) for j, x in enumerate(row) if x != 0}
        assert support <= FIG2_RIGHT.free

    def test_sigma_alpha_five_minors(self):
        chain = find_nested_chain(SIGMA_ALPHA)
        A = chain_generic_matrix(SIGMA_ALPHA, chain, seed=3)
        minors = leading_principal_minors(ordering_conjugation(A, chain.ordering))
        assert len(minors) == 5 and all(m != 0 for m in minors)

    def test_fig2_right_entries_pinned(self):
        # a change to the sampler's rng stream changes every certificate
        A = chain_generic_matrix(FIG2_RIGHT, find_nested_chain(FIG2_RIGHT), seed=2)
        assert A == [[958, 768, 0], [942, 0, 739], [-885, 0, 0]]

    def test_bogus_chain_rejected(self):
        chain = find_nested_chain(FIG2_RIGHT)
        with pytest.raises(ValueError):
            chain_generic_matrix(SIGMA_ALPHA, chain, seed=0)


class TestOrderingConjugation:
    def test_prefix_minors_are_reordered_principal_minors(self):
        rng = random.Random(53)
        A = [[rng.randint(-9, 9) for _ in range(4)] for _ in range(4)]
        ordering = (3, 1, 4, 2)
        B = ordering_conjugation(A, ordering)
        for a in range(1, 5):
            for b in range(1, 5):
                assert B[a - 1][b - 1] == A[ordering[a - 1] - 1][ordering[b - 1] - 1]
        for k in range(1, 5):
            assert leading_principal_minors(B)[k - 1] == determinant(
                ordering_conjugation(A, sorted(ordering[:k]))
            )

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            ordering_conjugation([[1, 2], [3, 4]], (0, 1))
        with pytest.raises(ValueError):
            ordering_conjugation([[1, 2], [3, 4]], (1, 3))


class TestDiagonalStabilize:
    def test_diagonal_matrix(self):
        D = diagonal_stabilize(np.diag([1.0, -2.0]))
        assert is_hurwitz(spectral_abscissa(np.diag(D) @ np.diag([1.0, -2.0])))
        assert D[0] < 0 < D[1]

    def test_dense_two_by_two(self):
        A = np.array([[1.0, 2.0], [3.0, 4.0]])  # minors 1, -2
        D = diagonal_stabilize(A)
        assert is_hurwitz(spectral_abscissa(np.diag(D) @ A))

    def test_conjugated_counterexample(self):
        A = np.array([[-1.0, 2.0], [-1.0, 0.0]])  # minors -1, 2
        D = diagonal_stabilize(A)
        assert is_hurwitz(spectral_abscissa(np.diag(D) @ A))

    def test_zero_minor_rejected(self):
        with pytest.raises(ValueError):
            diagonal_stabilize(np.array([[0.0, -1.0], [2.0, -1.0]]))

    @pytest.mark.parametrize(
        "A",
        [
            [[1e-310]],  # a finite input whose stabilizer entry 0.5 / 1e-310 is not
            [[5e-324]],
            [[3e-309]],  # d_1 = -0.5 / 3e-309 is finite; rescaled to abscissa -1, it is not
            [[1e-300, 1e300], [1e300, 0.0]],  # the second minor ratio -1e900
            [[1e-300, 1e300], [1e-300, 1.0]],  # d_1 * A_12 = 5e299 * 1e300
        ],
    )
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_entries_beyond_float_range_raise(self, A):
        with pytest.raises(StabilizationError):
            diagonal_stabilize(A)

    def test_far_apart_scales_stabilize(self):
        # max |d| * max |A| overflows, but no entry of diag(D) @ A does
        A = np.array([[1e-300, 0.0], [0.0, 1e300]])
        D = diagonal_stabilize(A)
        assert np.isfinite(D).all()
        assert is_hurwitz(spectral_abscissa(np.diag(D) @ A))

    def test_random_nonzero_minor_inputs(self):
        rng = random.Random(59)
        done = 0
        while done < 25:
            n = rng.randint(1, 5)
            A = np.array([[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)], dtype=float)
            if any(m == 0 for m in leading_principal_minors(exact_rows(A))):
                continue
            done += 1
            D = diagonal_stabilize(A)
            assert is_hurwitz(spectral_abscissa(np.diag(D) @ A))

    def test_left_right_transfer(self):
        # if D A is Hurwitz then A D is Hurwitz too (similar matrices)
        A = np.array([[1.0, 2.0], [3.0, 4.0]])
        D = diagonal_stabilize(A)
        assert is_hurwitz(spectral_abscissa(A @ np.diag(D)))

    def test_stabilizer_equivariance(self):
        A = np.array([[1.0, 2.0], [3.0, 4.0]])
        D = diagonal_stabilize(A)
        P = np.array(Permutation((2, 1)).matrix_rows(), dtype=float)
        conj_A = P @ A @ P.T
        conj_D = P @ np.diag(D) @ P.T
        assert is_hurwitz(spectral_abscissa(conj_D @ conj_A))


class TestCorollaryStabilize:
    def test_counterexample_matrix(self):
        A = np.array([[0.0, -1.0], [2.0, -1.0]])
        sigma, D = corollary_stabilize(A)
        assert sigma.mapping == (2, 1)
        abscissa = spectral_abscissa(np.diag(D) @ A)
        assert is_hurwitz(abscissa) and abscissa < -1e-9

    def test_identity_matrix(self):
        sigma, D = corollary_stabilize(np.eye(2))
        assert sigma == Permutation.identity(2)
        assert is_hurwitz(spectral_abscissa(np.diag(D) @ np.eye(2)))

    def test_zero_matrix_unrecognized(self):
        assert corollary_stabilize(np.zeros((2, 2))) is None


def _stabilizer_outputs(A):
    """diagonal_stabilize's and corollary_stabilize's results on A, floats
    in hex: None where the first rejects A (a zero leading minor) or the
    second finds no relabeling."""
    try:
        d = [x.hex() for x in diagonal_stabilize(A).tolist()]
    except ValueError:
        d = None
    out = corollary_stabilize(A)
    c = None if out is None else [list(out[0].mapping), [x.hex() for x in out[1].tolist()]]
    return d, c


class TestStabilizersPinned:
    """Both stabilizers' floats, bit for bit: a change to the exact minors,
    the float conversion or the reorder and place-back changes them.  The
    floats also depend on LAPACK's eigenvalues."""

    def test_counterexample(self):
        A = np.array([[0.0, -1.0], [2.0, -1.0]])
        assert _stabilizer_outputs(A) == (
            None,
            [[2, 1], ["0x1.0000000000001p-1", "0x1.0000000000001p+1"]],
        )

    def test_seeded_four_by_four(self):
        rng = random.Random(61)
        inputs = [
            np.array([[rng.randint(-5, 5) for _ in range(4)] for _ in range(4)], dtype=float)
            for _ in range(4)
        ]
        inputs += [np.array([[rng.uniform(-3, 3) for _ in range(4)] for _ in range(4)]) for _ in range(2)]
        inputs[1][0, 0] = 0.0  # the relabeling (2, 1, 3, 4)
        inputs[3][0, 0] = inputs[3][1, 1] = 0.0  # the 3-cycle (2, 3, 1, 4)
        outputs = [_stabilizer_outputs(A) for A in inputs]
        identity = [1, 2, 3, 4]
        relabelings = [c[0] for _, c in outputs]
        assert relabelings == [identity, [2, 1, 3, 4], identity, [2, 3, 1, 4], identity, identity]
        assert hashlib.sha256(json.dumps(outputs).encode()).hexdigest() == (
            "ef9a679cc24cf82df1072b06055a053e681c97f04317c3c87bc681f244dda674"
        )


def _ordered_minors(cert):
    """The exact leading principal minors of the certificate's witness in
    its chain ordering."""
    return leading_principal_minors(ordering_conjugation(exact_rows(cert.witness), cert.ordering))


class TestSynthesis:
    def test_diagonal_pattern(self):
        cert = synthesize_stable_witness(SparsityPattern.diagonal(4), seed=5)
        assert is_hurwitz(spectral_abscissa(cert.stabilized_matrix()))
        assert np.count_nonzero(cert.stabilized_matrix() - np.diag(np.diag(cert.stabilized_matrix()))) == 0

    def test_fig2_right_support_is_exact(self):
        cert = synthesize_stable_witness(FIG2_RIGHT, seed=6)
        final = cert.stabilized_matrix()
        for i, j in ((1, 3), (2, 2), (3, 2), (3, 3)):
            assert final[i - 1, j - 1] == 0.0
        for i, j in FIG2_RIGHT.free:
            assert final[i - 1, j - 1] != 0.0
        abscissa = spectral_abscissa(final)
        assert is_hurwitz(abscissa) and abscissa < -1e-9

    def test_sigma_alpha(self):
        cert = synthesize_stable_witness(SIGMA_ALPHA, seed=7)
        assert cert.ordering == (1, 2, 3, 4, 5)
        assert all(m != 0 for m in _ordered_minors(cert))
        assert is_hurwitz(spectral_abscissa(cert.stabilized_matrix()))

    def test_unstable_pattern_rejected(self):
        from conftest import FIG2_LEFT

        with pytest.raises(ValueError):
            synthesize_stable_witness(FIG2_LEFT, seed=0)

    def test_deterministic_given_seed(self):
        a = synthesize_stable_witness(FIG2_RIGHT, seed=8)
        b = synthesize_stable_witness(FIG2_RIGHT, seed=8)
        assert np.array_equal(a.witness, b.witness)
        assert np.array_equal(a.stabilizer, b.stabilizer)
        assert _ordered_minors(a) == _ordered_minors(b)


# Chain patterns (n, key) whose witness synthesis failed under the former
# all-at-once diagonal scaling, so they fell through to the oracle.
SCALING_FAILURES = [
    (10, 956079013550381011003549157521),
    (10, 946878156393089088176739748007),
    (10, 1154219152970802027816349429835),
    (10, 1194653103408410158457250513046),
    (11, 542778593454123618950317815473505345),
    (11, 2426310552917574898162732336770974786),
    (11, 1558031183191366280410633156797209907),
    (11, 218361488129048160783139297066573397),
    (12, 4423723991177905517582187710915824048180225),
    (12, 4704765947778450669712270904794631383395353),
    (12, 2788955333322938774125560212523429549047874),
    (12, 13300022394719475146650412328092813454584835),
    (12, 12567481880957777540870196004858145961415072),
]


def _random_chain_pattern(rng, n):
    while True:
        free = {(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if rng.random() < 0.3}
        free |= {(v, v) for v in rng.sample(range(1, n + 1), 2)}
        p = SparsityPattern(n, frozenset(free))
        if not check_scc_sink(p) and find_nested_chain(p) is not None:
            return p


def _assert_chain_certified(p):
    v = classify(p)
    assert (v.tag, v.reason) == (PROVED_STABLE, CHAIN_FOUND), v.diagnostics
    assert verify_certificate(v, p)


class TestChainPatternsAlwaysCertified:
    @pytest.mark.parametrize("n,key", SCALING_FAILURES)
    def test_former_scaling_failures(self, n, key):
        _assert_chain_certified(key_to_pattern(n, key))

    @pytest.mark.parametrize("n", [*range(10, 17), 20])
    def test_seeded_sample(self, n):
        rng = random.Random(1)
        for _ in range(20):
            _assert_chain_certified(_random_chain_pattern(rng, n))

    def test_certificate_bytes_pinned(self):
        # the 13 former failures and the seeded n = 10 sample: a change to
        # the sampler's rng stream or to the minors changes these bytes.
        # The stabilizer entries also depend on LAPACK's eigenvalues.
        rng = random.Random(1)
        patterns = [key_to_pattern(n, key) for n, key in SCALING_FAILURES]
        patterns += [_random_chain_pattern(rng, 10) for _ in range(20)]
        text = json.dumps([verdict_to_dict(classify(p, seed=0)) for p in patterns], sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "1d20e4ff75e638ada632f34c74636ae1c740fe84558be4df618255c3d22d0130"
        )
