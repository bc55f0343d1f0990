import collections
import itertools
import math
import random

import pytest

from sparsestab import (
    CapabilityError,
    PatternFormatError,
    Permutation,
    SparsityPattern,
    all_permutations,
    apply_permutation,
    canonical_form,
    parse_pattern,
    serialize_pattern,
    transpose_pattern,
)
import sparsestab.patterns as patterns_module
from sparsestab.patterns import PatternOrbitInfo, key_orbit, key_to_pattern, pattern_to_key

from conftest import EX_MA_MASK, EX_MA_PROSE, FIG2_LEFT


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


class TestEntryIndices:
    @pytest.mark.parametrize(
        "bad", [1.5, 2.0, True, False, "1"], ids=["float", "integral-float", "true", "false", "str"]
    )
    def test_constructor_rejects_non_int(self, bad):
        with pytest.raises(ValueError):
            SparsityPattern(2, frozenset({(bad, 1), (2, 2)}))
        with pytest.raises(ValueError):
            SparsityPattern(2, frozenset({(1, bad)}))

    @pytest.mark.parametrize("bad", [1.9, 1.0, True, "1"], ids=["float", "integral-float", "bool", "str"])
    def test_from_pairs_rejects_non_integer(self, bad):
        with pytest.raises(ValueError):
            SparsityPattern.from_pairs(2, [(bad, 1)])
        with pytest.raises(ValueError):
            SparsityPattern.from_pairs(2, [(2, bad)])

    def test_from_pairs_takes_numpy_ints(self):
        import numpy as np

        p = SparsityPattern.from_pairs(np.int64(2), [(np.int64(1), np.int32(2)), (np.uint8(2), 2)])
        assert p == SparsityPattern(2, frozenset({(1, 2), (2, 2)}))
        assert type(p.n) is int and all(type(x) is int for pair in p.free for x in pair)

    @pytest.mark.parametrize("n", [2.0, 2.5, True, "2", 0])
    def test_size_must_be_a_positive_int(self, n):
        with pytest.raises(ValueError):
            SparsityPattern(n, frozenset({(1, 1)}))
        with pytest.raises(ValueError):
            SparsityPattern.from_pairs(n, [(1, 1)])


class TestParsing:
    def test_mask_example_matches_display_cells(self):
        # row 2 of the mask is **0*, so (2,4) is free and (2,3) is not
        p = parse_pattern(EX_MA_MASK, "mask")
        assert p.n == 4
        assert p.free == frozenset(
            [(1, 2), (1, 3), (2, 1), (2, 2), (2, 4), (3, 2), (4, 1), (4, 3), (4, 4)]
        )

    def test_one_by_one_zero_mask(self):
        p = parse_pattern("0", "mask")
        assert p.n == 1 and p.free == frozenset()

    def test_json_fig2_left(self):
        p = parse_pattern('{"n":3,"free":[[1,1],[1,2],[2,3],[3,1]]}', "json")
        assert p == FIG2_LEFT

    def test_dot_is_zero_synonym(self):
        assert parse_pattern("*.\n.*", "mask") == SparsityPattern.diagonal(2)

    def test_ragged_mask_names_line(self):
        with pytest.raises(PatternFormatError) as err:
            parse_pattern("**\n*", "mask")
        assert "line 2" in str(err.value)

    def test_bad_character_names_position(self):
        with pytest.raises(PatternFormatError) as err:
            parse_pattern("*0\n0x", "mask")
        assert "line 2" in str(err.value) and "column 2" in str(err.value)

    def test_json_out_of_range(self):
        with pytest.raises(PatternFormatError):
            parse_pattern('{"n":2,"free":[[3,1]]}', "json")

    @pytest.mark.parametrize(
        "text",
        [
            '{"n": true, "free": [[1, 1]]}',
            '{"n": 2, "free": [[true, 1]]}',
            '{"n": 2, "free": [[1, false]]}',
            '{"n": true, "free": [[true, true]]}',
        ],
        ids=["n", "row", "column", "all"],
    )
    def test_json_rejects_booleans(self, text):
        with pytest.raises(PatternFormatError):
            parse_pattern(text, "json")

    @pytest.mark.parametrize("free", ["5", "null", "{}", '""'])
    def test_json_free_not_a_list(self, free):
        with pytest.raises(PatternFormatError, match="free"):
            parse_pattern('{"n": 3, "free": %s}' % free, "json")

    @pytest.mark.parametrize(
        "free",
        ["[[1, [2]]]", "[[1.0, 1]]", "[[0, 1]]", "[[1, 1, 1]]", "[5]"],
        ids=["unhashable", "float", "zero", "triple", "number"],
    )
    def test_json_bad_pair(self, free):
        with pytest.raises(PatternFormatError):
            parse_pattern('{"n": 2, "free": %s}' % free, "json")

    def test_json_pair_repeated_as_a_float(self):
        # (1.0, 1) equals (1, 1), so a set of pairs holds only one of them
        for free in ("[[1, 1], [1.0, 1]]", "[[1.0, 1], [1, 1]]"):
            with pytest.raises(PatternFormatError):
                parse_pattern('{"n": 2, "free": %s}' % free, "json")

    def test_key_to_pattern_inverts_pattern_to_key(self):
        for n in (1, 2, 3):
            for key in range(1 << (n * n)):
                assert pattern_to_key(key_to_pattern(n, key)) == key

    def test_json_duplicate_pair(self):
        with pytest.raises(PatternFormatError) as err:
            parse_pattern('{"n":2,"free":[[1,2],[1,2]]}', "json")
        assert "duplicate" in str(err.value)

    def test_round_trip_both_formats(self):
        rng = random.Random(11)
        for _ in range(25):
            p = random_pattern(rng.randint(1, 6), rng)
            for fmt in ("mask", "json"):
                assert parse_pattern(serialize_pattern(p, fmt), fmt) == p

    def test_json_serializer_sorts_row_major(self):
        p = SparsityPattern.from_pairs(3, [(3, 1), (1, 2), (1, 1)])
        assert '"free": [[1, 1], [1, 2], [3, 1]]' in serialize_pattern(p, "json")

    def test_one_pass_decode_matches_the_checked_path(self):
        # the one-pass decoder gives the pattern and key of the checked
        # path, or its error, on free lists of good and bad entries mixed
        rng = random.Random(29)
        bad = [[1.0, 1], [1, True], ["1", 1], [1, [2]], [0, 1], [1, 0], [5, 1], [1, 5], [-1, 1],
               [1], [1, 1, 1], (1, 2), 5, None, "11", [None, None]]
        outcomes = collections.Counter()
        for _ in range(3000):
            n = rng.randint(1, 4)
            cells = [[i, j] for i in range(1, n + 1) for j in range(1, n + 1)]
            free = rng.sample(cells, rng.randint(0, len(cells)))
            for _ in range(rng.choice([0, 0, 1, 2])):
                free.insert(rng.randint(0, len(free)), rng.choice(bad + cells))
            try:
                p = patterns_module._decode_free(n, free)
                expected = p, pattern_to_key(p)
            except PatternFormatError as exc:
                expected = str(exc)
            try:
                got = patterns_module._decode_json_pattern({"n": n, "free": free})
                assert type(got[1]) is int
            except PatternFormatError as exc:
                got = str(exc)
            assert got == expected, (n, free)
            outcomes[type(got) is tuple] += 1
        assert min(outcomes.values()) > 500


class TestPermutation:
    def test_matrix_of_1342(self):
        # columns of the identity permuted: column j becomes e_{sigma(j)}
        assert Permutation((1, 3, 4, 2)).matrix_rows() == [
            [1, 0, 0, 0],
            [0, 0, 0, 1],
            [0, 1, 0, 0],
            [0, 0, 1, 0],
        ]

    def test_sign_matches_matrix_determinant(self):
        import numpy as np

        for sigma in all_permutations(4):
            det = round(np.linalg.det(np.array(sigma.matrix_rows(), dtype=float)))
            assert sigma.sign == det

    def test_compose_inverse_identity(self):
        rng = random.Random(3)
        for _ in range(20):
            order = list(range(1, 6))
            rng.shuffle(order)
            sigma = Permutation(tuple(order))
            assert sigma.compose(sigma.inverse()) == Permutation.identity(5)
            assert sigma.inverse().compose(sigma) == Permutation.identity(5)

    def test_rejects_non_bijection(self):
        with pytest.raises(ValueError):
            Permutation((1, 1, 3))


class TestSymmetryActions:
    def test_transpose_single_edge(self):
        p = SparsityPattern.from_pairs(2, [(1, 2)])
        assert transpose_pattern(p).free == frozenset([(2, 1)])

    def test_transpose_fixes_diagonal(self):
        p = SparsityPattern.diagonal(4)
        assert transpose_pattern(p) == p

    def test_transpose_of_example_pattern(self):
        expected = frozenset(
            [(2, 1), (3, 1), (1, 2), (2, 2), (3, 2), (2, 3), (1, 4), (3, 4), (4, 4)]
        )
        assert transpose_pattern(EX_MA_PROSE).free == expected

    def test_transpose_involution(self):
        rng = random.Random(5)
        for _ in range(20):
            p = random_pattern(rng.randint(1, 6), rng)
            assert transpose_pattern(transpose_pattern(p)) == p

    def test_apply_identity(self):
        assert apply_permutation(EX_MA_PROSE, Permutation.identity(4)) == EX_MA_PROSE

    def test_apply_swap(self):
        p = SparsityPattern.from_pairs(2, [(1, 2)])
        assert apply_permutation(p, Permutation((2, 1))).free == frozenset([(2, 1)])

    def test_apply_1342_to_example_pattern(self):
        out = apply_permutation(EX_MA_PROSE, Permutation((1, 3, 4, 2)))
        assert out.free == frozenset(
            [(1, 3), (1, 4), (3, 1), (3, 3), (3, 4), (4, 3), (2, 1), (2, 4), (2, 2)]
        )

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            apply_permutation(FIG2_LEFT, Permutation.identity(4))

    def test_action_composition(self):
        rng = random.Random(7)
        for _ in range(30):
            n = rng.randint(2, 5)
            p = random_pattern(n, rng)
            a, b = list(range(1, n + 1)), list(range(1, n + 1))
            rng.shuffle(a)
            rng.shuffle(b)
            sigma, tau = Permutation(tuple(a)), Permutation(tuple(b))
            assert apply_permutation(apply_permutation(p, sigma), tau) == apply_permutation(
                p, tau.compose(sigma)
            )

    def test_transpose_commutes_with_relabeling(self):
        rng = random.Random(9)
        for _ in range(20):
            n = rng.randint(2, 5)
            p = random_pattern(n, rng)
            order = list(range(1, n + 1))
            rng.shuffle(order)
            sigma = Permutation(tuple(order))
            assert transpose_pattern(apply_permutation(p, sigma)) == apply_permutation(
                transpose_pattern(p), sigma
            )


class TestCanonicalForm:
    def test_full_pattern_is_fixed(self):
        p = SparsityPattern.full(3)
        info = canonical_form(p)
        assert info.canonical == p and info.orbit_size == 1

    def test_transpose_related_pair(self):
        a = canonical_form(SparsityPattern.from_pairs(2, [(1, 2)]))
        b = canonical_form(SparsityPattern.from_pairs(2, [(2, 1)]))
        assert a.canonical == b.canonical

    def test_whole_orbit_collapses(self):
        reference = canonical_form(FIG2_LEFT).canonical
        for sigma in all_permutations(3):
            for flip in (False, True):
                q = apply_permutation(FIG2_LEFT, sigma)
                if flip:
                    q = transpose_pattern(q)
                assert canonical_form(q).canonical == reference

    def test_witness_reproduces_canonical(self):
        rng = random.Random(13)
        for _ in range(40):
            p = random_pattern(rng.randint(1, 5), rng)
            info = canonical_form(p)
            q = transpose_pattern(p) if info.transposed else p
            assert apply_permutation(q, info.relabeling) == info.canonical

    def test_constant_on_random_orbit_members(self):
        rng = random.Random(17)
        for _ in range(100):
            n = rng.randint(1, 5)
            p = random_pattern(n, rng)
            order = list(range(1, n + 1))
            rng.shuffle(order)
            q = apply_permutation(p, Permutation(tuple(order)))
            if rng.random() < 0.5:
                q = transpose_pattern(q)
            assert canonical_form(q).canonical == canonical_form(p).canonical

    def test_orbit_size_divides_group_order(self):
        rng = random.Random(19)
        for _ in range(30):
            n = rng.randint(1, 4)
            p = random_pattern(n, rng)
            assert (2 * math.factorial(n)) % canonical_form(p).orbit_size == 0

    def test_capability_cap(self):
        with pytest.raises(CapabilityError):
            canonical_form(SparsityPattern.empty(9))


def reference_orbit(p):
    """The 2*n! scan, one symmetry at a time: every relabeling in
    lexicographic order, plain then transposed, keeping the first strict
    minimum.  Returns the orbit info and the set of images."""
    n = p.n
    total = n * n
    bits = [(i - 1) * n + (j - 1) for (i, j) in p.free]
    images = set()
    best = None
    for perm in itertools.permutations(range(n)):
        for transposed in (False, True):
            img = 0
            for pos in bits:
                i, j = divmod(pos, n)
                if transposed:
                    i, j = j, i
                img |= 1 << (total - 1 - (perm[i] * n + perm[j]))
            images.add(img)
            if best is None or img < best[0]:
                best = (img, perm, transposed)
    img, perm, transposed = best
    info = PatternOrbitInfo(
        canonical=key_to_pattern(n, img),
        orbit_size=len(images),
        relabeling=Permutation(tuple(v + 1 for v in perm)),
        transposed=transposed,
    )
    return info, images


def symmetric_patterns(n):
    """Patterns with large automorphism groups, where the stabilizer count
    decides the orbit size."""
    vertices = range(1, n + 1)
    yield SparsityPattern.empty(n)
    yield SparsityPattern.full(n)
    yield SparsityPattern.diagonal(n)
    yield SparsityPattern.from_pairs(n, [(i, i % n + 1) for i in vertices])  # directed n-cycle
    yield SparsityPattern.from_pairs(n, [(1, j) for j in vertices if j > 1])  # star


class TestKeyToPattern:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_every_key_matches_from_pairs_and_round_trips(self, n):
        cells = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
        for key in range(1 << (n * n)):
            bits = format(key, f"0{n * n}b")  # the first cell is the highest bit
            reference = SparsityPattern.from_pairs(n, [c for c, b in zip(cells, bits) if b == "1"])
            p = key_to_pattern(n, key)
            assert p == reference
            assert all(type(i) is int and type(j) is int for i, j in p.free)
            assert pattern_to_key(p) == key


class TestCanonicalFormMatchesReference:
    @staticmethod
    def check(p):
        info, images = reference_orbit(p)
        assert canonical_form(p) == info
        assert key_orbit(p.n, pattern_to_key(p)) == images
        return info

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_every_small_pattern(self, n):
        for key in range(1 << (n * n)):
            self.check(key_to_pattern(n, key))

    @pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
    def test_symmetric_patterns(self, n):
        sizes = [self.check(p).orbit_size for p in symmetric_patterns(n)]
        group = 2 * math.factorial(n)
        # empty, full, diagonal: fixed; cycle: relabelings along it and a
        # reversal fix it; star: relabelings of its leaves fix it
        assert sizes == [1, 1, 1, group // (2 * n), group // math.factorial(n - 1)]

    @pytest.mark.parametrize("n,count", [(4, 40), (5, 20), (6, 10), (7, 4), (8, 2)])
    def test_seeded_random_patterns(self, n, count):
        rng = random.Random(1000 + n)
        for _ in range(count):
            self.check(random_pattern(n, rng, density=rng.uniform(0.1, 0.6)))

    def test_capability_cap(self):
        with pytest.raises(CapabilityError):
            key_orbit(9, 0)
