"""Shared fixtures: the worked examples and session-scoped atlases."""

from __future__ import annotations

import time

import numpy as np
import pytest

from sparsestab import SparsityPattern, classify_atlas
from sparsestab.verdict import EngineConfig

# 4x4 example pattern, prose variant (contains (2,3)); the matrix display
# in the source shows (2,4) instead -- parsing tests pin the display, the
# symmetry-action tests pin this set, with expected values derived from it.
EX_MA_PROSE = SparsityPattern.from_pairs(
    4, [(1, 2), (1, 3), (2, 1), (2, 2), (2, 3), (3, 2), (4, 1), (4, 3), (4, 4)]
)
EX_MA_MASK = "0**0\n**0*\n0*00\n*0**\n"

FIG2_LEFT = SparsityPattern.from_pairs(3, [(1, 1), (1, 2), (2, 3), (3, 1)])
FIG2_RIGHT = SparsityPattern.from_pairs(3, [(1, 1), (1, 2), (2, 1), (2, 3), (3, 1)])

# five-vertex strongly-connected-components walkthrough
SCC_EXAMPLE = SparsityPattern.from_pairs(
    5, [(1, 2), (2, 3), (2, 4), (3, 1), (3, 4), (5, 4), (5, 1)]
)

# five-vertex graph with the component {2,3,4} lacking a self-loop
FIG3 = SparsityPattern.from_pairs(
    5, [(1, 2), (1, 3), (2, 3), (2, 5), (4, 2), (3, 4), (4, 5), (5, 5)]
)

# five-vertex graph with several Hamiltonian decompositions
FIG4 = SparsityPattern.from_pairs(
    5,
    [
        (1, 1), (1, 2), (1, 5),
        (2, 1), (2, 3),
        (3, 2), (3, 4),
        (4, 4), (4, 5),
        (5, 1), (5, 3), (5, 4),
    ],
)

SIGMA_ALPHA_MASK = "**000\n*0*00\n*00*0\n00*0*\n*0000\n"
SIGMA_BETA_MASK = "**00*\n00*00\n*00*0\n0000*\n*00*0\n"

SIGMA_ALPHA = SparsityPattern.from_pairs(
    5, [(1, 1), (1, 2), (2, 1), (2, 3), (3, 1), (3, 4), (4, 3), (4, 5), (5, 1)]
)
SIGMA_BETA = SparsityPattern.from_pairs(
    5, [(1, 1), (1, 2), (1, 5), (2, 3), (3, 1), (3, 4), (4, 5), (5, 1), (5, 4)]
)


def failed_geev(stack, signature):
    """Stands in for numerics._geev when LAPACK does not converge: geev
    fills the eigenvalues of a matrix it fails on with NaN."""
    return np.full(np.shape(stack)[:-1], complex("nan"))


@pytest.fixture(scope="session")
def atlas2():
    return classify_atlas(2)


@pytest.fixture(scope="session")
def atlas3():
    return classify_atlas(3)


@pytest.fixture(scope="session")
def atlas4_timed():
    """The full n=4 atlas plus its build time (acceptance needs both)."""
    start = time.perf_counter()
    records = classify_atlas(4)
    return records, time.perf_counter() - start


@pytest.fixture(scope="session")
def audit_config():
    """Baseline engine config for the soundness audit; the independent
    oracle cross-check multiplies its restart budget by 10."""
    return EngineConfig(oracle_restarts=12, oracle_steps=150)
