"""Construction of explicit Hurwitz matrices with checkable certificates.

The pipeline: a nested-chain certificate orders the vertices so that every
prefix supports a cycle decomposition; a random integer matrix on the
pattern is screened in integer arithmetic until the reordered matrix has
all leading principal minors nonzero; a diagonal stabilizer is then built
one vertex at a time (Fisher & Fuller 1958), each step keeping the leading
block Hurwitz.  Every claim in the resulting certificate re-verifies from
primitive operations.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from .errors import StabilizationError, SynthesisError
from .graphs import ChainCertificate, _last_found, find_nested_chain, verify_chain
from .numerics import (
    _abscissae,
    is_hurwitz,
    leading_principal_minors,
    ordering_conjugation,
    random_pattern_matrix,
)
from .patterns import SparsityPattern

RESAMPLE_CAP = 64  # random matrices drawn before a chain is declared degenerate
HALVING_CAP = 64  # halvings of one stabilizer entry before giving up


@dataclass(frozen=True)
class WitnessCertificate:
    """Everything needed to re-check a synthesized stable matrix.

    The final Hurwitz matrix is diag(stabilizer) @ witness.  Derived data
    -- the exact leading principal minors of the witness reordered by
    ``ordering`` and the final matrix's spectrum -- is recomputed on
    verification rather than stored.
    """

    pattern: SparsityPattern
    ordering: tuple[int, ...]
    prefix_cycles: tuple[tuple[tuple[int, ...], ...], ...]
    witness: np.ndarray
    stabilizer: np.ndarray

    def stabilized_matrix(self) -> np.ndarray:
        return np.diag(self.stabilizer) @ self.witness


def chain_generic_matrix(
    p: SparsityPattern, chain: ChainCertificate, seed: int
) -> list[list[int]]:
    """Random integer matrix on the pattern whose chain-ordered conjugation
    has all leading principal minors nonzero (screened exactly).

    Rejection sampling: each prefix minor vanishes only on a hypersurface,
    so acceptance is fast for any valid chain; exhausting the resampling
    budget is treated as a bug signal.  Raises ValueError on a chain that
    does not verify against the pattern.
    """
    _check_chain(p, chain)
    return _screened_matrix(p, chain, seed)[0]


def _check_chain(p: SparsityPattern, chain: ChainCertificate) -> None:
    """Raises ValueError unless ``chain`` verifies against p.  The very
    chain that the last find_nested_chain call returned for this very
    pattern object needs no check: the search built it from p's matchings."""
    searched, found = _last_found
    if (searched is not p or found is not chain) and not verify_chain(p, chain):
        raise ValueError("chain certificate does not verify against the pattern")


def _screened_matrix(
    p: SparsityPattern, chain: ChainCertificate, seed: int
) -> tuple[list[list[int]], list[int]]:
    """chain_generic_matrix's sample A, with the exact leading minors of its
    chain-ordered rows, so synthesis reuses them."""
    rng = random.Random(seed)
    for _ in range(RESAMPLE_CAP):
        A = random_pattern_matrix(p, rng)
        minors = leading_principal_minors(ordering_conjugation(A, chain.ordering))
        if all(m != 0 for m in minors):
            return A, minors
    raise SynthesisError(
        f"no generic matrix with nonzero prefix minors in {RESAMPLE_CAP} samples"
    )


def _stabilize_ordered(M: np.ndarray, ordering, minors) -> np.ndarray:
    """A stabilizer of M: _stabilize on M reordered by ``ordering`` (see
    ordering_conjugation), whose exact leading minors are ``minors``, with
    entry k put back at vertex ordering[k]."""
    idx = [v - 1 for v in ordering]
    d = np.empty(len(idx))
    d[idx] = _stabilize(M.take(idx, axis=0).take(idx, axis=1), minors)
    return d


def _stabilize(M: np.ndarray, minors) -> np.ndarray:
    """A diagonal d with diag(d) @ M Hurwitz, given M's exact leading
    minors, all nonzero.

    Sequential construction (Fisher & Fuller 1958; Ballantine 1970): with
    d_1..d_{k-1} making the leading (k-1)-block of D @ M Hurwitz, a small
    enough d_k keeps those k-1 eigenvalues in the left half-plane and adds
    one near d_k * r_k, where r_k = det_k / det_{k-1} is the exact ratio of
    leading minors.  So d_k starts at -sign(r_k) / (2 |r_k|) and is halved
    until the leading k-block reports Hurwitz.  The block is then scaled by
    the positive factor that puts its abscissa at -1 (the spectrum of
    c * D @ M is c times that of D @ M), so later steps never start from a
    margin inside the Hurwitz test's guard band.

    M must be finite: every caller passes an integer sample or a matrix
    that exact_rows accepted.  Then only a stabilizer entry can leave float
    range, and with it an entry of a product d_i * M_ij, so each block goes
    to the eigenvalue kernel unchecked unless the scalar bound
    max|d| * max|M| overflows.  Raises StabilizationError on an entry
    beyond float range, so the returned d and d[:, None] * M are finite.
    """
    n = M.shape[0]
    d = np.zeros(n)
    scale = float(abs(M).max()) if n else 0.0
    top = 0.0  # at least max |d|
    prev = 1
    for k in range(n):
        try:
            # int / int rounds correctly, as float(Fraction) does
            ratio = float(minors[k] / prev)
            d[k] = dk = -math.copysign(0.5 / abs(ratio), ratio)
        except (OverflowError, ZeroDivisionError):
            raise StabilizationError(f"minor ratio {k + 1} is beyond float range") from None
        prev = minors[k]
        top = max(top, abs(dk))
        for _ in range(HALVING_CAP + 1):
            block = d[: k + 1, None] * M[: k + 1, : k + 1]
            _check_range(top * scale, block)
            abscissa = _abscissae(block[None])[0]
            if is_hurwitz(abscissa):
                break
            d[k] /= 2
        else:
            raise StabilizationError(
                f"leading block {k + 1} not Hurwitz after {HALVING_CAP} halvings"
            )
        d[: k + 1] /= -abscissa
        top /= -abscissa
    _check_range(top * scale, d[:, None] * M)
    return d


def _check_range(bound: float, block: np.ndarray) -> None:
    """Raises StabilizationError unless every entry of ``block`` is finite;
    a finite ``bound`` on its magnitudes settles it without a look."""
    if not math.isfinite(bound) and not np.isfinite(block).all():
        raise StabilizationError("stabilized matrix has entries beyond float range")


def synthesize_stable_witness(
    p: SparsityPattern, *, seed: int = 0, chain: ChainCertificate | None = None
) -> WitnessCertificate:
    """End-to-end: chain -> generic matrix -> diagonal stabilizer -> certificate.

    Requires the pattern to admit a nested chain, found here unless
    ``chain`` is given; a given chain is checked against the pattern as in
    chain_generic_matrix.  Raises SynthesisError with diagnostics when
    stabilization fails (which signals a bug, not an unstable pattern).
    """
    if chain is None:
        chain = find_nested_chain(p)
    if chain is None:
        raise ValueError("pattern admits no nested chain; nothing to synthesize")
    _check_chain(p, chain)
    A, minors = _screened_matrix(p, chain, seed)
    witness = np.array(A, dtype=float)
    stabilizer = _stabilize_ordered(witness, chain.ordering, minors)
    # finite: the witness is integral and _stabilize checks the product's range
    abscissa = _abscissae((stabilizer[:, None] * witness)[None])[0]
    if not is_hurwitz(abscissa):
        raise SynthesisError(f"stabilized witness not Hurwitz (abscissa {abscissa:g})")
    return WitnessCertificate(
        pattern=p,
        ordering=chain.ordering,
        prefix_cycles=chain.prefix_cycles,
        witness=witness,
        stabilizer=stabilizer,
    )
