import itertools
import random
import time

import pytest

from sparsestab import (
    CapabilityError,
    ChainCertificate,
    Permutation,
    SccReport,
    SparsityPattern,
    apply_permutation,
    block_without_cover,
    check_necessary,
    check_scc_sink,
    enumerate_patterns,
    extract_cycle_decomposition,
    find_nested_chain,
    hamiltonian_k_exists,
    has_principal_matching,
    strongly_connected_components,
    transpose_pattern,
    verify_chain,
)
import sparsestab.graphs as graphs
from sparsestab.patterns import key_to_pattern

from conftest import FIG2_LEFT, FIG2_RIGHT, FIG3, FIG4, SCC_EXAMPLE, SIGMA_ALPHA, SIGMA_BETA


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


def reference_ordering(p):
    """The bottom-up subset rule: a set is reachable when it has a cycle
    cover and a reachable child; the chain peels the smallest removable
    vertex from the full set.  Its ordering, or None."""
    n = p.n
    reachable = {0}
    for mask in range(1, 1 << n):
        verts = [v for v in range(1, n + 1) if mask >> (v - 1) & 1]
        if any(mask ^ 1 << (v - 1) in reachable for v in verts) and has_principal_matching(p, verts):
            reachable.add(mask)
    mask = (1 << n) - 1
    if mask not in reachable:
        return None
    ordering = []
    while mask:
        v = next(v for v in range(1, n + 1) if mask >> (v - 1) & 1 and mask ^ 1 << (v - 1) in reachable)
        ordering.insert(0, v)
        mask ^= 1 << (v - 1)
    return tuple(ordering)


def assert_matches_reference(p, chain):
    """chain has the reference ordering, and the cycles of each prefix are
    disjoint, cover exactly the prefix and use only free entries; checked
    here without verify_chain."""
    ordering = reference_ordering(p)
    if ordering is None:
        assert chain is None
        return
    assert chain.ordering == ordering
    assert len(chain.prefix_cycles) == p.n
    for k, cycles in enumerate(chain.prefix_cycles, 1):
        assert sorted(v for cyc in cycles for v in cyc) == sorted(ordering[:k])
        assert all((a, b) in p.free for cyc in cycles for a, b in zip(cyc, cyc[1:] + cyc[:1]))


def reference_scc(p):
    """Components by a reachability search from every vertex, ordered by
    smallest vertex, with the sink bookkeeping."""
    reach = {}
    for v in range(1, p.n + 1):
        seen, todo = {v}, [v]
        while todo:
            u = todo.pop()
            for i, j in p.free:
                if i == u and j not in seen:
                    seen.add(j)
                    todo.append(j)
        reach[v] = seen
    components = []
    for v in range(1, p.n + 1):
        if not any(v in comp for comp in components):
            components.append(frozenset(u for u in reach[v] if v in reach[u]))
    return SccReport(
        components=tuple(components),
        violating_vertices=frozenset(
            v for comp in components if not any((u, u) in p.free for u in comp) for v in comp
        ),
    )


def induced(p, block):
    """The subpattern on ``block``, its vertices renumbered 1..|block| in
    increasing order."""
    index = {v: a for a, v in enumerate(sorted(block), start=1)}
    return SparsityPattern(
        len(block), frozenset((index[i], index[j]) for i, j in p.free if i in index and j in index)
    )


def reference_necessary(p):
    """Smallest k such that some component of reference_scc, taken as its
    own pattern, has no k-vertex cycle cover."""
    return min(
        (
            k
            for comp in reference_scc(p).components
            for k in range(1, len(comp) + 1)
            if hamiltonian_k_exists(induced(p, comp), k) is None
        ),
        default=None,
    )


def loop_cycle(vertices):
    """A directed cycle through ``vertices`` in order, with a self-loop on
    the first: one block with a cycle cover of size 1 and of size
    len(vertices) only (for four or more vertices)."""
    return {(a, b) for a, b in zip(vertices, vertices[1:] + vertices[:1])} | {(vertices[0],) * 2}


def path_block(lo, hi):
    """Vertices lo..hi joined both ways along a path, with a self-loop on
    lo: one block whose chain is lo, lo + 1, ..., hi."""
    return {(lo, lo)} | {(v, v + 1) for v in range(lo, hi)} | {(v + 1, v) for v in range(lo, hi)}


def block_pattern(rng, n, extra):
    """Random block sizes summing to n, each block a directed cycle through
    its vertices plus ``extra`` * |block| random entries inside it, and
    entries from earlier blocks into later ones only, so the blocks are
    exactly the strongly connected components; vertices are shuffled."""
    order = list(range(1, n + 1))
    rng.shuffle(order)
    free, placed = set(), []
    while len(placed) < n:
        block = order[len(placed) : len(placed) + rng.randint(1, n - len(placed))]
        free |= set(zip(block, block[1:] + block[:1]))
        free |= {(rng.choice(block), rng.choice(block)) for _ in range(int(len(block) * extra))}
        free |= {(v, rng.choice(block)) for v in placed if rng.random() < 0.2}
        placed += block
    return SparsityPattern(n, frozenset(free))


def brute_force_decomposable(p, subset):
    """Reference oracle: try every permutation of the subset."""
    verts = sorted(subset)
    return any(
        all((v, img) in p.free for v, img in zip(verts, perm))
        for perm in itertools.permutations(verts)
    )


class TestScc:
    def test_five_vertex_walkthrough(self):
        report = strongly_connected_components(SCC_EXAMPLE)
        assert set(report.components) == {
            frozenset({1, 2, 3}),
            frozenset({4}),
            frozenset({5}),
        }

    def test_no_edges_gives_singletons(self):
        report = strongly_connected_components(SparsityPattern.empty(3))
        assert report.components == (frozenset({1}), frozenset({2}), frozenset({3}))

    def test_full_pattern_single_component(self):
        report = strongly_connected_components(SparsityPattern.full(4))
        assert report.components == (frozenset({1, 2, 3, 4}),)

    def test_sink_check_on_violating_component(self):
        assert check_scc_sink(FIG3) == frozenset({1, 2, 3, 4})

    def test_sink_check_passes_when_component_has_loop(self):
        assert check_scc_sink(FIG2_LEFT) == frozenset()

    def test_zero_diagonal_violates_everywhere(self):
        for n in (1, 2, 4):
            p = SparsityPattern(
                n, frozenset((i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j)
            )
            assert check_scc_sink(p) == frozenset(range(1, n + 1))


class TestSccMatchesReference:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_every_small_pattern(self, n):
        for key in range(1 << (n * n)):
            p = key_to_pattern(n, key)
            assert strongly_connected_components(p) == reference_scc(p)

    def test_every_n4_representative(self):
        for p, _ in enumerate_patterns(4):
            assert strongly_connected_components(p) == reference_scc(p)

    def test_seeded_random_patterns(self):
        rng = random.Random(53)
        split = violating = 0
        for _ in range(300):
            p = random_pattern(rng.randint(4, 12), rng, density=rng.uniform(0.05, 0.4))
            report = strongly_connected_components(p)
            assert report == reference_scc(p)
            split += len(report.components) > 1
            violating += bool(report.violating_vertices)
        assert 150 <= split <= 280 and 150 <= violating <= 280


class TestPrincipalMatching:
    def test_singleton_with_loop(self):
        assert has_principal_matching(FIG2_LEFT, {1})

    def test_pair_without_support(self):
        assert not has_principal_matching(FIG2_LEFT, {1, 2})

    def test_four_subgraph_of_fig4(self):
        assert has_principal_matching(FIG4, {1, 2, 3, 4})

    def test_empty_subset_rejected(self):
        with pytest.raises(ValueError):
            has_principal_matching(FIG2_LEFT, set())

    def test_out_of_range_subset_rejected(self):
        with pytest.raises(ValueError):
            has_principal_matching(FIG2_LEFT, {1, 7})

    def test_agrees_with_brute_force_small(self):
        # exhaustive over all induced grids up to 3x3
        for k in (1, 2, 3):
            cells = [(i, j) for i in range(1, k + 1) for j in range(1, k + 1)]
            for picks in itertools.product((False, True), repeat=k * k):
                p = SparsityPattern(
                    k, frozenset(c for c, keep in zip(cells, picks) if keep)
                )
                subset = frozenset(range(1, k + 1))
                assert has_principal_matching(p, subset) == brute_force_decomposable(
                    p, subset
                )

    def test_agrees_with_brute_force_random_n5(self):
        rng = random.Random(29)
        for _ in range(200):
            p = random_pattern(5, rng)
            size = rng.randint(1, 5)
            subset = frozenset(rng.sample(range(1, 6), size))
            assert has_principal_matching(p, subset) == brute_force_decomposable(p, subset)


class TestHamiltonianK:
    def test_fig2_left_has_no_pair(self):
        assert hamiltonian_k_exists(FIG2_LEFT, 2) is None

    def test_fig2_right_full_witness(self):
        subset, mapping = hamiltonian_k_exists(FIG2_RIGHT, 3)
        assert subset == (1, 2, 3)
        assert sorted(mapping) == [1, 2, 3] and sorted(mapping.values()) == [1, 2, 3]
        assert all((v, w) in FIG2_RIGHT.free for v, w in mapping.items())

    def test_sigma_beta_misses_size_four(self):
        assert hamiltonian_k_exists(SIGMA_BETA, 4) is None

    def test_k_out_of_range(self):
        with pytest.raises(ValueError):
            hamiltonian_k_exists(FIG2_LEFT, 4)

    def test_necessary_first_failures(self):
        assert check_necessary(FIG2_LEFT) == 2
        assert check_necessary(SIGMA_BETA) == 4
        assert check_necessary(SparsityPattern.full(4)) is None

    def test_block_without_small_cover(self):
        # a 4-cycle with one loop covers sizes 1 and 4 only; beside a
        # looped vertex the whole pattern covers 1, 2 and 4 but the block
        # still misses 2
        p = SparsityPattern(5, frozenset(loop_cycle([1, 2, 3, 4]) | {(4, 5), (5, 5)}))
        assert hamiltonian_k_exists(p, 2) is not None
        assert check_necessary(p) == 2

    def test_loopless_block_fails_at_one(self):
        assert check_necessary(FIG3) == 1
        assert check_necessary(SparsityPattern.empty(3)) == 1


class TestNecessaryMatchesReference:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_every_small_pattern(self, n):
        for key in range(1 << (n * n)):
            p = key_to_pattern(n, key)
            assert check_necessary(p) == reference_necessary(p)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_block_without_cover_every_k(self, n):
        for key in range(1 << (n * n)):
            p = key_to_pattern(n, key)
            for k in range(1, n + 2):
                want = any(
                    len(comp) >= k and hamiltonian_k_exists(induced(p, comp), k) is None
                    for comp in reference_scc(p).components
                )
                assert block_without_cover(p, k) == want

    def test_seeded_block_patterns(self):
        rng = random.Random(59)
        split = failing = 0
        for _ in range(300):
            p = block_pattern(rng, rng.randint(4, 12), extra=0.5)
            k = check_necessary(p)
            assert k == reference_necessary(p)
            split += len(strongly_connected_components(p).components) > 1
            failing += k is not None and k > 1
        assert split >= 200 and failing >= 50


class TestNestedChain:
    def test_fig2_right_chain(self):
        chain = find_nested_chain(FIG2_RIGHT)
        assert chain.ordering == (1, 2, 3)
        assert verify_chain(FIG2_RIGHT, chain)

    def test_sigma_alpha_chain_and_decompositions(self):
        chain = find_nested_chain(SIGMA_ALPHA)
        assert chain.ordering == (1, 2, 3, 4, 5)
        assert chain.prefix_cycles == (
            ((1,),),
            ((1, 2),),
            ((1, 2, 3),),
            ((1, 2), (3, 4)),
            ((1, 2, 3, 4, 5),),
        )
        assert verify_chain(SIGMA_ALPHA, chain)

    def test_fig2_left_has_none(self):
        assert find_nested_chain(FIG2_LEFT) is None

    def test_first_vertex_is_always_a_sink(self):
        rng = random.Random(31)
        found = 0
        for _ in range(200):
            p = random_pattern(rng.randint(1, 5), rng, density=0.5)
            chain = find_nested_chain(p)
            if chain is not None:
                found += 1
                v = chain.ordering[0]
                assert (v, v) in p.free
                assert verify_chain(p, chain)
        assert found > 10

    def test_chain_implies_weaker_checks(self):
        rng = random.Random(37)
        for _ in range(150):
            p = random_pattern(rng.randint(1, 5), rng, density=0.5)
            if find_nested_chain(p) is not None:
                assert check_necessary(p) is None
                assert not check_scc_sink(p)

    def test_capability_cap(self):
        # the cap bounds the largest strongly connected block, not n
        with pytest.raises(CapabilityError):
            find_nested_chain(SparsityPattern(25, frozenset(loop_cycle(list(range(1, 26))))))
        assert find_nested_chain(SparsityPattern.empty(25)) is None  # 25 blocks without a loop

    def test_two_chain_blocks_beyond_the_cap(self):
        p = SparsityPattern(26, frozenset(path_block(1, 13) | path_block(14, 26) | {(13, 14)}))
        assert len(strongly_connected_components(p).components) == 2
        chain = find_nested_chain(p)
        # each block peels from its far end, 13 before 26
        assert chain.ordering == tuple(range(14, 27)) + tuple(range(1, 14))
        assert verify_chain(p, chain)

    def test_one_matching_per_block(self, monkeypatch):
        # the prefix covers come from the search's own matchings: one
        # perfect matching per block, none per prefix
        calls = []
        original = graphs._perfect_matching

        def counting(rows, cols):
            calls.append(cols)
            return original(rows, cols)

        monkeypatch.setattr(graphs, "_perfect_matching", counting)
        two = SparsityPattern(26, frozenset(path_block(1, 13) | path_block(14, 26) | {(13, 14)}))
        assert find_nested_chain(two) is not None and len(calls) == 2
        rng = random.Random(71)
        merged = 0
        for _ in range(100):
            p = block_pattern(rng, rng.randint(4, 9), extra=1.5)
            blocks = len(strongly_connected_components(p).components)
            calls.clear()
            chain = find_nested_chain(p)
            assert len(calls) == blocks if chain is not None else len(calls) <= blocks
            merged += chain is not None and blocks > 1
        assert merged >= 20

    def test_no_chain_beside_a_full_18_block(self):
        gap = key_to_pattern(4, 4780)
        block = {(i, j) for i in range(5, 23) for j in range(5, 23)}
        start = time.perf_counter()
        assert find_nested_chain(SparsityPattern(22, gap.free | block)) is None
        assert time.perf_counter() - start < 1.0


class TestChainSearchMatchesReference:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_every_small_pattern(self, n):
        cells = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
        for key in range(1 << len(cells)):
            p = SparsityPattern(n, frozenset(c for b, c in enumerate(cells) if key >> b & 1))
            assert_matches_reference(p, find_nested_chain(p))

    def test_seeded_random_patterns(self):
        rng = random.Random(47)
        without = 0
        for _ in range(300):
            p = random_pattern(rng.randint(4, 8), rng, density=rng.uniform(0.2, 0.6))
            chain = find_nested_chain(p)
            assert_matches_reference(p, chain)
            without += chain is None
        assert 100 <= without <= 200

    def test_multi_block_patterns(self):
        # block-triangular patterns: the per-block chains must merge into
        # the whole-pattern ordering
        rng = random.Random(67)
        merged = 0
        for _ in range(200):
            p = block_pattern(rng, rng.randint(4, 9), extra=1.5)
            chain = find_nested_chain(p)
            assert_matches_reference(p, chain)
            merged += chain is not None and len(strongly_connected_components(p).components) > 1
        assert merged >= 60

    def test_no_chain_beside_a_dense_block(self):
        # the n=4 gap pattern (key 4780) has no chain, so the block-diagonal
        # union with a full 12-block has none either
        gap = key_to_pattern(4, 4780)
        block = {(i, j) for i in range(5, 17) for j in range(5, 17)}
        assert find_nested_chain(gap) is None
        assert find_nested_chain(SparsityPattern(16, gap.free | block)) is None


LOOP_AND_TWO_CYCLE = SparsityPattern(2, frozenset({(1, 1), (1, 2), (2, 1)}))


class TestVerifyChain:
    def test_search_result_verifies(self):
        chain = find_nested_chain(LOOP_AND_TWO_CYCLE)
        assert chain == ChainCertificate((1, 2), (((1,),), ((1, 2),)))
        assert verify_chain(LOOP_AND_TWO_CYCLE, chain)

    @pytest.mark.parametrize(
        "second",
        [
            ((1,), (1, 2)),  # vertex 1 in two cycles
            ((1, 2), (1, 2)),  # a cycle listed twice
            ((1, 2, 1, 2),),  # a cycle through its vertices twice
            ((1,),),  # vertex 2 uncovered
            ((2, 1), ()),  # an empty cycle
        ],
    )
    def test_cover_must_be_disjoint_cycles_of_the_prefix(self, second):
        # the first two passed a check that read the cycles into a dict
        assert not verify_chain(LOOP_AND_TWO_CYCLE, ChainCertificate((1, 2), (((1,),), second)))

    @pytest.mark.parametrize(
        "ordering, cycles",
        [
            ((1, 1), (((1,),), ((1, 2),))),  # a vertex added twice
            ((2, 1), (((2,),), ((1, 2),))),  # (2, 2) is not free
            ((1, 3), (((1,),), ((1, 2),))),  # off the grid
            ((0, 2), (((1,),), ((1, 2),))),
            ((1.0, 2), (((1,),), ((1, 2),))),  # not an int
            ((1, 2), (((1,),), ((1, 2.0),))),
            ((1, 2), (((True,),), ((1, 2),))),
            ((1, 2), (((1,),), ((1, 3),))),
            ((1,), (((1,),),)),  # too short
        ],
    )
    def test_bad_ordering_or_vertex_fails(self, ordering, cycles):
        assert not verify_chain(LOOP_AND_TWO_CYCLE, ChainCertificate(ordering, cycles))


class TestCycleExtraction:
    def test_fig4_whole_graph(self):
        cycles = extract_cycle_decomposition(FIG4, {1, 2, 3, 4, 5})
        seen = [v for cyc in cycles for v in cyc]
        assert sorted(seen) == [1, 2, 3, 4, 5]
        for cyc in cycles:
            for a, b in zip(cyc, cyc[1:] + cyc[:1]):
                assert (a, b) in FIG4.free

    def test_singleton_loop(self):
        assert extract_cycle_decomposition(FIG2_LEFT, {1}) == ((1,),)

    def test_full_pattern_identity_acceptable(self):
        cycles = extract_cycle_decomposition(SparsityPattern.full(3), {1, 2, 3})
        assert sorted(v for cyc in cycles for v in cyc) == [1, 2, 3]

    def test_infeasible_subset_raises(self):
        with pytest.raises(ValueError):
            extract_cycle_decomposition(FIG2_LEFT, {1, 2})


class TestStructuralProperties:
    def test_monotone_under_edge_addition(self):
        rng = random.Random(41)
        for _ in range(120):
            n = rng.randint(2, 5)
            p = random_pattern(n, rng)
            missing = [
                (i, j)
                for i in range(1, n + 1)
                for j in range(1, n + 1)
                if (i, j) not in p.free
            ]
            if not missing:
                continue
            q = SparsityPattern(n, p.free | {rng.choice(missing)})
            if not check_scc_sink(p):
                assert not check_scc_sink(q)
            for k in range(1, n + 1):
                if hamiltonian_k_exists(p, k) is not None:
                    assert hamiltonian_k_exists(q, k) is not None
            if find_nested_chain(p) is not None:
                assert find_nested_chain(q) is not None

    def test_checks_invariant_under_symmetries(self):
        rng = random.Random(43)
        for _ in range(80):
            n = rng.randint(2, 5)
            p = random_pattern(n, rng)
            order = list(range(1, n + 1))
            rng.shuffle(order)
            images = [
                apply_permutation(p, Permutation(tuple(order))),
                transpose_pattern(p),
            ]
            for q in images:
                assert bool(check_scc_sink(p)) == bool(check_scc_sink(q))
                assert check_necessary(p) == check_necessary(q)
                assert (find_nested_chain(p) is None) == (find_nested_chain(q) is None)
