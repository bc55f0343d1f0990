"""Graph-side stability conditions on sparsity patterns.

After a strongly-connected-component ordering every matrix on a pattern is
block triangular, so its spectrum is the union of its diagonal blocks'
spectra, and the pattern is stable iff every block pattern is (Maybee &
Quirk 1969).  Three checks of increasing strength, all exact:

* every block must contain a vertex with a self-loop ("sink") --
  violation proves instability;
* every block B must have, for each k <= |B|, a k-vertex induced subgraph
  with a Hamiltonian decomposition -- a missing k proves instability;
* a vertex ordering whose every prefix induces a Hamiltonian-decomposable
  subgraph proves stability (the chain certificate consumed by witness
  synthesis).

A Hamiltonian decomposition of an induced subgraph is the same thing as a
permutation of its vertex set supported on free entries, which is the same
thing as a perfect matching of the bipartite graph rows x cols restricted
to the subset.  Testing it is therefore a maximum-matching call rather than
an explicit cycle search.  Cycles never leave a block, so the last two
checks run once per block, on the block's own row bitmasks.

One bitmask pass per pattern serves all three: the row masks, the
components as vertex masks and the mask of the self-loops.  The sink check
ORs together the components that miss the loop mask, the blocks read the
same rows, and SccReport is built from it only on request.  The last
pattern's pass is kept, so classifying a pattern and verifying its verdict
run it once.

The chain search works top down on bitmasks: rows are int bitmasks of
their free columns, a set T - v starts from T's perfect matching with row
v and column v removed and needs at most one augmenting path, and the
search stops at the first complete chain instead of deciding all 2^|B|
subsets of a block.  The blocks' chains merge into the ordering a search
over the whole pattern would find.  Each prefix's cycle cover comes from
the matchings the search holds on its path, so no prefix is matched again;
verify_chain re-checks the covers on p's own row bitmasks.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

from .errors import CapabilityError
from .patterns import SparsityPattern

CHAIN_N_CAP = 24  # the chain search memoises 2^|B| subsets of a block B in a bytearray

# the pattern object that the last chain search ran on, and the chain it returned
_last_found: list = [None, None]


@dataclass(frozen=True)
class SccReport:
    """Strongly connected components plus sink bookkeeping.

    ``components`` partition {1..n} and are sorted by smallest vertex;
    ``violating_vertices`` are the vertices whose component has no
    self-loop.
    """

    components: tuple[frozenset[int], ...]
    violating_vertices: frozenset[int]


@dataclass(frozen=True)
class ChainCertificate:
    """A vertex ordering with a cycle decomposition for every prefix.

    ``prefix_cycles[k-1]`` covers the first k vertices of ``ordering`` with
    disjoint cycles whose edges are all free entries.
    """

    ordering: tuple[int, ...]
    prefix_cycles: tuple[tuple[tuple[int, ...], ...], ...]


@lru_cache(maxsize=1)
def _scc(p: SparsityPattern) -> tuple[tuple[int, ...], tuple[int, ...], int]:
    """p's row bitmasks, its components as bitmasks in smallest-vertex
    order, and the bitmask of its self-loops, over 0-based vertices.

    Warshall's closure runs on the row bitmasks.  u and v share a component
    exactly when they reach the same vertices (each then reaches the
    other), so the components are the classes of equal reach masks, met in
    increasing vertex order.  The last pass is kept, and holds only ints
    and tuples, so the sink check, the cover check, the chain search and
    the verification of one pattern share it.
    """
    rows = _row_masks(p)
    reach = [row | 1 << v for v, row in enumerate(rows)]
    for k in range(p.n):  # whoever reaches k reaches what k reaches
        bit, rk = 1 << k, reach[k]
        reach = [r | rk if r & bit else r for r in reach]
    classes: dict[int, int] = {}
    for v, mask in enumerate(reach):
        classes[mask] = classes.get(mask, 0) | 1 << v
    return tuple(rows), tuple(classes.values()), sum(row & 1 << v for v, row in enumerate(rows))


def strongly_connected_components(p: SparsityPattern) -> SccReport:
    """The components of p, sorted by smallest vertex, and the vertices of
    those without a self-loop."""
    comps = tuple(frozenset(v + 1 for v in range(p.n) if comp >> v & 1) for comp in _scc(p)[1])
    return SccReport(components=comps, violating_vertices=check_scc_sink(p))


def check_scc_sink(p: SparsityPattern) -> frozenset[int]:
    """Vertices whose strongly connected component has no self-loop.

    Empty result means the check passes; a nonempty result proves the
    pattern unstable.
    """
    _, components, loops = _scc(p)
    mask = sum(comp for comp in components if not comp & loops)  # the components are disjoint
    return frozenset(v + 1 for v in range(p.n) if mask >> v & 1) if mask else frozenset()


def _row_masks(p: SparsityPattern) -> list[int]:
    """rows[i] is the bitmask of the free columns of row i + 1 (bit j - 1
    for column j)."""
    rows = [0] * p.n
    for i, j in p.free:
        rows[i - 1] |= 1 << (j - 1)
    return rows


@lru_cache(maxsize=1)
def _blocks(p: SparsityPattern) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
    """The strongly connected blocks of p in component order, each as its
    vertices (0-based, increasing) and its row bitmasks over its own
    positions: bit b of row a is set when (vertices[a], vertices[b]) is
    free.  A one-block pattern is p's own rows."""
    rows, components, _ = _scc(p)
    if len(components) == 1:
        return ((tuple(range(p.n)), rows),)
    blocks = []
    for comp in components:
        verts = tuple(v for v in range(p.n) if comp >> v & 1)
        local = tuple(
            sum(1 << b for b, w in enumerate(verts) if rows[v] >> w & 1) for v in verts
        )
        blocks.append((verts, local))
    return tuple(blocks)


def _augment(rows, cols, row_of, row, seen) -> bool:
    """Kuhn's augmenting path from the unmatched ``row`` to a free column.

    ``cols`` is the bitmask of columns in play and ``row_of[c]`` the row
    matched into column c, or -1.  Columns are tried in increasing order;
    ``seen`` is a one-item list holding the columns already tried in this
    search.  Rewires ``row_of`` along the path and returns True, or
    returns False and leaves the matching unchanged.
    """
    while True:
        free = rows[row] & cols & ~seen[0]
        if not free:
            return False
        bit = free & -free
        seen[0] |= bit
        col = bit.bit_length() - 1
        if row_of[col] < 0 or _augment(rows, cols, row_of, row_of[col], seen):
            row_of[col] = row
            return True


def _perfect_matching(rows, cols: int) -> list[int] | None:
    """Column -> row perfect matching of the rows and columns in ``cols``,
    rows matched in increasing order, or None when none exists."""
    row_of = [-1] * len(rows)
    m = cols
    while m:
        bit = m & -m
        m ^= bit
        if not _augment(rows, cols, row_of, bit.bit_length() - 1, [0]):
            return None
    return row_of


def _max_matching(p: SparsityPattern, subset) -> list[int] | None:
    """Perfect matching rows(subset) -> cols(subset) on free entries.

    Augmenting-path search with rows and columns visited in increasing
    order, so the result is deterministic.  Returns the column -> row
    matching over 0-based positions, or None when no perfect matching
    exists.
    """
    cols = 0
    for v in subset:
        if not 1 <= v <= p.n:
            return None  # a vertex outside the pattern has no free entries
        cols |= 1 << (v - 1)
    return _perfect_matching(_row_masks(p), cols)


def has_principal_matching(p: SparsityPattern, subset) -> bool:
    """Does the subgraph induced by ``subset`` admit a Hamiltonian
    decomposition?

    Equivalent to a permutation of the subset supported on free entries.
    """
    subset = frozenset(subset)
    if not subset:
        raise ValueError("subset must be nonempty")
    if not subset <= set(range(1, p.n + 1)):
        raise ValueError(f"subset {sorted(subset)} out of range for n={p.n}")
    return _max_matching(p, subset) is not None


def _cycles_of_matching(verts, row_of: list[int]) -> tuple[tuple[int, ...], ...]:
    """Disjoint cycles, smallest-led and in order of their first vertex, of
    the row -> column bijection whose column -> row matching is ``row_of``,
    over positions that stand for the increasing 0-based vertices
    ``verts``; the cycles hold 1-based vertices."""
    col_of = [-1] * len(row_of)
    for col, row in enumerate(row_of):
        if row >= 0:
            col_of[row] = col
    cycles = []
    for start, col in enumerate(col_of):  # a walked position reads -1
        if col < 0:
            continue
        cyc = [verts[start] + 1]
        while col != start:
            cyc.append(verts[col] + 1)
            col_of[col], col = -1, col_of[col]
        cycles.append(tuple(cyc))
    return tuple(cycles)


def extract_cycle_decomposition(p: SparsityPattern, subset) -> tuple[tuple[int, ...], ...]:
    """A concrete Hamiltonian decomposition of the induced subgraph.

    Requires has_principal_matching(p, subset); presented as disjoint
    cycles covering the subset.
    """
    row_of = _max_matching(p, frozenset(subset))
    if row_of is None:
        raise ValueError(f"subset {sorted(subset)} has no Hamiltonian decomposition")
    return _cycles_of_matching(range(p.n), row_of)


def _first_cover(rows, k: int):
    """First k-subset of the positions of ``rows`` (lexicographic, 0-based)
    with a perfect matching: (subset, column -> row matching) or None."""
    for subset in combinations(range(len(rows)), k):
        cols = 0
        for v in subset:
            cols |= 1 << v
        row_of = _perfect_matching(rows, cols)
        if row_of is not None:
            return subset, row_of
    return None


def hamiltonian_k_exists(p: SparsityPattern, k: int):
    """First size-k subset (lexicographic) with a Hamiltonian decomposition.

    Returns (subset, row -> col mapping) or None.  The scan is exhaustive
    over subsets; the matching call prunes in its quick-reject step.
    """
    if not 1 <= k <= p.n:
        raise ValueError(f"k={k} out of range 1..{p.n}")
    found = _first_cover(_row_masks(p), k)
    if found is None:
        return None
    subset, row_of = found
    return tuple(v + 1 for v in subset), {r + 1: c + 1 for c, r in enumerate(row_of) if r >= 0}


def block_without_cover(p: SparsityPattern, k: int) -> bool:
    """Does some strongly connected block B with |B| >= k have no k-vertex
    cycle cover?

    True proves the pattern unstable: the degree-(|B|-k) characteristic
    coefficient of every matrix on B's pattern vanishes identically.
    """
    return any(len(verts) >= k and _first_cover(rows, k) is None for verts, rows in _blocks(p))


def check_necessary(p: SparsityPattern) -> int | None:
    """Smallest k for which block_without_cover(p, k) holds, or None when
    every block passes.  k = 1 means a block without a self-loop."""
    largest = max(len(verts) for verts, _ in _blocks(p))
    return next((k for k in range(1, largest + 1) if block_without_cover(p, k)), None)


def _drop_vertex(rows, sub, row_of, v) -> list[int] | None:
    """Perfect matching of ``sub`` = T - v from a perfect matching of T.

    Dropping row v and column v leaves every other row matched except the
    one that was matched into column v, and frees the column row v held.
    One augmenting path (Berge 1957) decides whether the rest is perfect.
    """
    row_of = row_of.copy()
    r = row_of[v]
    row_of[v] = -1
    if r == v:
        return row_of
    row_of[row_of.index(v)] = -1
    return row_of if _augment(rows, sub, row_of, r, [0]) else None


def _chain_order(rows) -> list[tuple[int, list[int]]] | None:
    """Top-down chain search on one block's rows: a 0-based ordering whose
    every prefix has a cycle cover, first vertex first, or None.  Each
    vertex comes with the column -> row perfect matching of the prefix it
    completes.

    A nonempty vertex set T is reachable when it has a cycle cover and
    either is a single vertex or some T - v is reachable.  The search runs
    depth first from the full set, tries v in increasing order and stops at
    the first reachable T - v, so the last vertex of the ordering is the
    smallest removable one, and so on down.  The cycle cover of T - v comes
    from T's perfect matching by one augmenting path.  Sets found
    unreachable are memoised, so no set is searched twice.
    """
    full = (1 << len(rows)) - 1
    row_of = _perfect_matching(rows, full)
    if row_of is None:
        return None
    path = []
    found = _reach(rows, bytearray(1 << len(rows)), path, full, row_of)
    return path if found else None


def _reach(rows, failed, path, mask, row_of) -> bool:
    """Is ``mask``, with the perfect matching row_of, reachable?  On
    success ``path`` holds a chain of mask, first vertex first, as
    (vertex, matching of the prefix it completes) pairs; each set found
    unreachable is marked in ``failed``.  A module function, not a
    closure over the search's state: a closure that calls itself is a
    reference cycle, which would keep ``failed`` alive until the cyclic
    garbage collector runs."""
    if mask & (mask - 1) == 0:
        path.append((mask.bit_length() - 1, row_of))
        return True
    m = mask
    while m:
        bit = m & -m
        m ^= bit
        sub = mask ^ bit
        if failed[sub]:
            continue
        v = bit.bit_length() - 1
        rest = _drop_vertex(rows, sub, row_of, v)
        if rest is not None and _reach(rows, failed, path, sub, rest):
            path.append((v, row_of))
            return True
        failed[sub] = 1
    return False


def find_nested_chain(p: SparsityPattern) -> ChainCertificate | None:
    """Search for an ordering whose every prefix is Hamiltonian-decomposable.

    A vertex set has a chain iff its part in every strongly connected block
    has one, so the search runs per block and visits at most 2^|B| sets of
    a block B.  Read backwards, a block's chain is the sequence in which a
    top-down search over the whole pattern would peel its vertices; that
    search always peels the smallest removable vertex, so repeatedly taking
    the block whose next peel vertex is smallest and reversing the merged
    sequence gives the whole-pattern ordering: the ordering is
    deterministic and independent of the block split.  A prefix's cycles
    are those of the union of each block's matching on its part of the
    prefix, the matchings the search found.  Success proves the pattern
    stable.
    """
    blocks = _blocks(p)
    largest = max(len(verts) for verts, _ in blocks)
    if largest > CHAIN_N_CAP:
        raise CapabilityError(
            f"nested-chain search allocates 2^|B| entries per strongly connected block B; "
            f"a block of {largest} vertices exceeds cap {CHAIN_N_CAP}"
        )
    paths = []
    for b, (verts, rows) in enumerate(blocks):
        path = _chain_order(rows)
        if path is None:
            return None
        paths.append([(verts[a] + 1, b, _cycles_of_matching(verts, row_of)) for a, row_of in path])
    peeled = []  # each path's last vertex is its block's next peel vertex
    while paths:
        i = min(range(len(paths)), key=lambda i: paths[i][-1][0])
        peeled.append(paths[i].pop())
        if not paths[i]:
            del paths[i]
    covers = [()] * len(blocks)  # block b's cycles on its part of the prefix
    ordering, prefix_cycles = [], []  # tuple() of a generator resizes and fills the free lists
    for v, b, cycles in reversed(peeled):
        ordering.append(v)
        covers[b] = cycles
        prefix_cycles.append(tuple(sorted(cyc for block in covers for cyc in block)))  # by first vertex
    chain = ChainCertificate(ordering=tuple(ordering), prefix_cycles=tuple(prefix_cycles))
    _last_found[:] = p, chain
    return chain


def verify_chain(p: SparsityPattern, chain: ChainCertificate) -> bool:
    """Re-check a chain certificate from scratch, on p's row bitmasks.

    Every vertex must be an int in 1..n, and the ordering must add a new
    vertex at each step.  The cycles of the prefix of size k must be
    nonempty and have exactly k edges, all free entries, whose tails (the
    same vertices as their heads) are the prefix: a bijection of the
    prefix, so disjoint cycles that cover it.  The first vertex therefore
    carries a self-loop.
    """
    n = p.n
    if len(chain.ordering) != n or len(chain.prefix_cycles) != n:
        return False
    rows = _row_masks(p)
    prefix = 0  # bit v for vertex v, as are the tails
    for k, (v, cycles) in enumerate(zip(chain.ordering, chain.prefix_cycles), 1):
        if type(v) is not int or not 0 < v <= n or prefix >> v & 1:
            return False
        prefix |= 1 << v
        tails = edges = 0
        for cyc in cycles:
            a = cyc[-1] if cyc else 0  # the edge into cyc[0] first
            if type(a) is not int or not 0 < a <= n:
                return False
            edges += len(cyc)
            for b in cyc:
                if type(b) is not int or not 0 < b <= n or not rows[a - 1] >> (b - 1) & 1:
                    return False
                tails |= 1 << b
                a = b
        if edges != k or tails != prefix:
            return False
    return True
