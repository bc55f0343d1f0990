"""Seeded inputs of the decide workloads.

decide-small has a fixed corpus of random patterns, drawn here with the
benchmark's own sink check.  The benchmark seed relabels every pattern by a
random permutation, transposes about half of them and shuffles the order
inside each block.  At n <= 8 the library classifies the canonical form,
so relabeling and transposition keep the verdict and the work it takes:
runs at different seeds do the same work on different inputs.

decide-large reads a committed corpus of labeled chain patterns with
n > 8, where the library works on the pattern as labeled and its
per-pattern seeds derive from the labeling.  Whether witness synthesis
fails is then a coin flip of each labeling, and its rare failures cost
seconds each; drawn per seed, their count per pass moved throughput by a
quarter.  So every pass holds all of the corpus's synthesis failures and
the seed draws the chain-certified patterns from a larger pool.

Neither corpus depends on the library version being measured, so the
parent and the child of a change see the same inputs.
"""

from __future__ import annotations

import json
import os
import random

from sparsestab.patterns import SparsityPattern

SMALL_NS = (5, 6, 7, 8)
SMALL_DENSITY = (0.25, 0.5)
# Per n and block: two patterns that fail the sink check, one that passes.
# The fixed split keeps the cheap sink rejections a clear majority, so the
# median latency measures them on every seed instead of flipping between
# classes when the natural split (about one half) lands on either side.
SMALL_SINK_SPLIT = (False, False, True)
SMALL_BLOCKS = 48

LARGE_NS = (10, 11, 12)
LARGE_DENSITY = (0.2, 0.4)
LARGE_LOOPS = (1, 3)
LARGE_CORPUS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "large_corpus.json")
LARGE_POOL = 200  # chain-certified patterns per n in the corpus
LARGE_DRAWN = 62  # of them per n in a pass
# Synthesis failures per n in the corpus and in every pass, and the one
# failure that ends in Unknown: 12 + 1 of 199 operations, near the rates
# of about 6 % and 0.5 % seen on relabeled chain patterns.
LARGE_FINDS = 4
LARGE_MISSES = 1


def every_component_has_loop(n: int, free) -> bool:
    """True iff each strongly connected component holds a self-loop.

    An independent statement of the component-sink check (bit-set
    reachability), so input generation does not depend on the library's
    implementation of it.
    """
    succ = [0] * n
    for i, j in free:
        succ[i - 1] |= 1 << (j - 1)
    reach = []
    for v in range(n):
        seen = 1 << v
        frontier = seen
        while frontier:
            nxt = 0
            for w in range(n):
                if frontier >> w & 1:
                    nxt |= succ[w]
            frontier = nxt & ~seen
            seen |= nxt
        reach.append(seen)
    loops = sum(1 << (i - 1) for i, j in free if i == j)
    for v in range(n):
        component = sum(1 << w for w in range(n) if reach[v] >> w & 1 and reach[w] >> v & 1)
        if not component & loops:
            return False
    return True


def random_pattern(rng: random.Random, n: int, density: float, loops: int = 0) -> SparsityPattern:
    """Each entry free with probability ``density``, plus ``loops`` forced self-loops."""
    free = {
        (i, j)
        for i in range(1, n + 1)
        for j in range(1, n + 1)
        if rng.random() < density
    }
    for v in rng.sample(range(1, n + 1), loops):
        free.add((v, v))
    return SparsityPattern(n, frozenset(free))


def _draw(rng, n, density, loops, passes):
    """A random pattern, drawn again until the sink check gives ``passes``."""
    while True:
        p = random_pattern(rng, n, rng.uniform(*density), loops(rng))
        if every_component_has_loop(n, p.free) == passes:
            return p


def small_corpus() -> list[list[SparsityPattern]]:
    """Blocks of twelve patterns, three for each n in 5..8."""
    rng = random.Random("decide-small corpus")
    return [
        [
            _draw(rng, n, SMALL_DENSITY, lambda r: 0, passes)
            for n in SMALL_NS
            for passes in SMALL_SINK_SPLIT
        ]
        for _ in range(SMALL_BLOCKS)
    ]


def pattern_key(p: SparsityPattern) -> int:
    """Row-major bit set of the free entries."""
    return sum(1 << ((i - 1) * p.n + (j - 1)) for i, j in p.free)


def pattern_from_key(n: int, key: int) -> SparsityPattern:
    return SparsityPattern(n, frozenset((b // n + 1, b % n + 1) for b in range(n * n) if key >> b & 1))


def large_corpus() -> dict:
    """The committed decide-large corpus (see make_corpus.py).

    ``chain`` maps each n to LARGE_POOL patterns that the library certified
    by a nested chain and a synthesized witness when the file was written;
    ``finds`` and ``misses`` hold the chain patterns whose synthesis failed
    and whose oracle search then found a witness or ran out.
    """
    with open(LARGE_CORPUS, encoding="utf-8") as fh:
        raw = json.load(fh)
    return {
        "chain": {int(n): [pattern_from_key(int(n), k) for k in keys] for n, keys in raw["chain"].items()},
        "finds": [pattern_from_key(n, k) for n, k in raw["finds"]],
        "misses": [pattern_from_key(n, k) for n, k in raw["misses"]],
    }


def relabel(rng: random.Random, p: SparsityPattern) -> SparsityPattern:
    """A random relabeling of p, transposed with probability one half."""
    image = list(range(1, p.n + 1))
    rng.shuffle(image)
    if rng.random() < 0.5:
        return SparsityPattern(p.n, frozenset((image[j - 1], image[i - 1]) for i, j in p.free))
    return SparsityPattern(p.n, frozenset((image[i - 1], image[j - 1]) for i, j in p.free))


def decide_small(seed: int) -> list[SparsityPattern]:
    """Blocks of twelve patterns, each block relabeled and shuffled."""
    rng = random.Random(f"decide-small:{seed}")
    out = []
    for block in small_corpus():
        block = [relabel(rng, p) for p in block]
        rng.shuffle(block)
        out.extend(block)
    return out


def decide_large(seed: int) -> list[SparsityPattern]:
    """Every synthesis failure of the corpus and LARGE_DRAWN chain-certified
    patterns per n drawn by the seed, shuffled together."""
    rng = random.Random(f"decide-large:{seed}")
    corpus = large_corpus()
    out = corpus["finds"] + corpus["misses"]
    for n in LARGE_NS:
        out.extend(rng.sample(corpus["chain"][n], LARGE_DRAWN))
    rng.shuffle(out)
    return out
