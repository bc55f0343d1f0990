"""Write the decide-large corpus: python3 bench/make_corpus.py

Draws patterns with n cycling through 10..12, density uniform in
[0.2, 0.4] and one to three forced self-loops, and keeps those that pass
the sink check and admit a nested chain.  Each kept pattern is classified
as the benchmark does (``classify(p, seed=0)``) and filed by outcome:
LARGE_POOL chain-certified patterns per n, the first LARGE_FINDS per n
whose synthesis failed and whose oracle search found a witness, and the
first LARGE_MISSES whose oracle search ran out.  The outcomes come from the
library at the time the file is written; the file is committed, so every
later version of the library sees the same inputs.
"""

from __future__ import annotations

import json
import os
import random
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads  # noqa: E402
from sparsestab.graphs import find_nested_chain  # noqa: E402
from sparsestab.verdict import classify  # noqa: E402


def main() -> int:
    rng = random.Random("decide-large corpus")
    chain = {n: [] for n in workloads.LARGE_NS}
    finds = {n: [] for n in workloads.LARGE_NS}
    misses = []

    def full():
        return (
            all(len(chain[n]) == workloads.LARGE_POOL for n in workloads.LARGE_NS)
            and all(len(finds[n]) == workloads.LARGE_FINDS for n in workloads.LARGE_NS)
            and len(misses) == workloads.LARGE_MISSES
        )

    drawn = 0
    while not full():
        n = workloads.LARGE_NS[drawn % len(workloads.LARGE_NS)]
        drawn += 1
        p = workloads.random_pattern(
            rng, n, rng.uniform(*workloads.LARGE_DENSITY), rng.randint(*workloads.LARGE_LOOPS)
        )
        if not workloads.every_component_has_loop(n, p.free) or find_nested_chain(p) is None:
            continue
        reason = classify(p, seed=0).reason
        key = workloads.pattern_key(p)
        if reason == "ChainFound" and len(chain[n]) < workloads.LARGE_POOL:
            chain[n].append(key)
        elif reason == "OracleFound" and len(finds[n]) < workloads.LARGE_FINDS:
            finds[n].append(key)
        elif reason not in ("ChainFound", "OracleFound") and len(misses) < workloads.LARGE_MISSES:
            misses.append([n, key])
    corpus = {
        "chain": {str(n): keys for n, keys in chain.items()},
        "finds": [[n, key] for n in workloads.LARGE_NS for key in finds[n]],
        "misses": misses,
    }
    with open(workloads.LARGE_CORPUS, "w", encoding="utf-8") as fh:
        json.dump(corpus, fh, separators=(",", ":"))
        fh.write("\n")
    print(f"{drawn} patterns drawn", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
