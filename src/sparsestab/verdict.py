"""Decision pipeline: combine every test into one stability verdict.

Order of attack: the component-sink check, then the nested-chain search,
run block by block, with witness synthesis (a stability proof).  Only
when no chain exists does the per-size cycle-cover check run on every
strongly connected block; a chain already passes it, since each block's
prefixes have cycle covers of every size 1..|B|.  A sink or cover
violation is an instability proof.  Last, a randomized spectral-abscissa
minimization covers the gap between the necessary and the sufficient
conditions.  A pattern is stable iff each of its blocks is, so a block
that fails a check proves the whole pattern unstable.  Oracle success
still yields a stability proof -- an explicit verified Hurwitz matrix --
but oracle failure proves nothing, so the remaining patterns come back
Unknown.
"""

from __future__ import annotations

import random
from _blake2 import blake2b  # hashlib's blake2b, without loading OpenSSL
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import CapabilityError, StabilizationError, SynthesisError, ValidationError
from .graphs import (
    ChainCertificate,
    block_without_cover,
    check_necessary,
    check_scc_sink,
    find_nested_chain,
    verify_chain,
)
from .numerics import (
    _abscissae,
    exact_rows,
    is_hurwitz,
    leading_principal_minors,
    ordering_conjugation,
    spectral_abscissa,
)
from .patterns import CANONICAL_N_CAP, SparsityPattern, canonical_form
from .witness import WitnessCertificate, synthesize_stable_witness

PROVED_STABLE = "ProvedStable"
PROVED_UNSTABLE = "ProvedUnstable"
UNKNOWN = "Unknown"

NO_SINK = "NoSink"
SCC_WITHOUT_SINK = "SccWithoutSink"
NO_HAMILTONIAN_K = "NoHamiltonianK"
CHAIN_FOUND = "ChainFound"
ORACLE_FOUND = "OracleFound"
EXHAUSTED = "Exhausted"


@dataclass(frozen=True)
class EngineConfig:
    """All tunables of the decision pipeline: the oracle's two positive
    integer counts."""

    oracle_restarts: int = 64
    oracle_steps: int = 400

    def __post_init__(self):
        # type(x) is int: bools are ints, and a float count fails deep in the oracle
        bad = [
            name
            for name in ("oracle_restarts", "oracle_steps")
            if type(getattr(self, name)) is not int or getattr(self, name) < 1
        ]
        if bad:
            raise ValueError(f"EngineConfig needs integer counts >= 1: {bad}")

    def scaled_oracle(self, factor: int) -> "EngineConfig":
        return replace(self, oracle_restarts=self.oracle_restarts * factor)


@dataclass(frozen=True)
class OracleResult:
    """What an oracle search found: the Hurwitz matrix, or None on a miss,
    with the restarts spent and the best abscissa seen (on a find, the
    found matrix's abscissa)."""

    matrix: np.ndarray | None
    restarts_used: int
    best_abscissa: float

    @property
    def found(self) -> bool:
        return self.matrix is not None


@dataclass(frozen=True)
class StabilityVerdict:
    """Tri-state outcome with whatever evidence backs it.

    ProvedUnstable carries the violated check (and violating vertices or
    the failing size k).  ProvedStable carries either a full witness
    certificate or, for OracleFound, the oracle's result with the found
    matrix mapped onto the input's support and its spectrum re-checked
    there.  Unknown means every check was inconclusive; its oracle field
    holds the miss.
    """

    tag: str
    reason: str
    k: int | None = None
    violating: frozenset[int] | None = None
    certificate: WitnessCertificate | None = None
    oracle: OracleResult | None = None
    diagnostics: tuple[str, ...] = field(default=())


def derive_seed(seed: int, *parts) -> int:
    """Stable per-stage seed; independent of interpreter hash randomization."""
    text = ":".join([str(seed)] + [str(x) for x in parts])
    return int.from_bytes(blake2b(text.encode(), digest_size=8).digest(), "big")


def oracle_search(
    p: SparsityPattern, config: EngineConfig | None = None, seed: int = 0
) -> OracleResult:
    """Multi-start coordinate-descent minimization of the spectral abscissa.

    The free entries are the coordinates, and the descent steps them in
    place in one float matrix.  A sweep visits each coordinate once and
    tries +step, then -step unless +step lowered the abscissa.  Each visit
    evaluates both trials in one stacked eigenvalue call and takes, counts
    and leaves in the matrix exactly what trying them one at a time would,
    so the search path is that of the one-at-a-time descent.  The first
    two starts bias the diagonal negative (the single best heuristic for
    these objectives); the rest are uniform in [-1, 1]^m.  A restart ends
    when its abscissa clears the Hurwitz guard band, when it has evaluated
    ``oracle_steps`` matrices (its start and every trial taken one at a
    time, so not a -step that was computed but not needed), or when a
    sweep without improvement halves the step below 1e-6.  The first start
    puts -1 on each free diagonal entry and ends after one evaluation: it
    is -I, which clears the guard band, or diagonal with a zero eigenvalue
    that no step can move.  Returns the first matrix that clears the guard
    band -- a stability proof -- with the restarts spent so far, or the
    best abscissa seen.  A miss is NOT an instability proof.
    """
    config = config or EngineConfig()
    cells = [(i - 1, j - 1) for i, j in p.sorted_free()]
    m = len(cells)
    if m == 0:
        return OracleResult(None, 0, 0.0)
    rng = random.Random(seed)
    rows, cols = np.array(cells).T
    # the current matrix twice: a visit writes its two trials into one
    # entry, and after it both copies hold that entry's new value
    pair = np.zeros((2, p.n, p.n))
    M = pair[0]

    best_abscissa = np.inf
    for restart in range(config.oracle_restarts):
        if restart == 0:
            pair[:, rows, cols] = np.where(rows == cols, -1.0, 0.0)
        elif restart == 1:
            pair[:, rows, cols] = [-1.0 if i == j else rng.uniform(-0.3, 0.3) for i, j in cells]
        else:
            pair[:, rows, cols] = [rng.uniform(-1.0, 1.0) for _ in range(m)]
        # restart 0 is -I, or diagonal with a zero that no one-entry step moves
        budget = 1 if restart == 0 else config.oracle_steps
        current = _abscissae(pair[:1])[0]
        evals = 1
        step = 0.35
        improved = False
        c = 0  # the next cell to visit
        while evals < budget and not is_hurwitz(current) and step >= 1e-6:
            # what trying one step at a time puts in the entry: x + s, its
            # restore x' = (x + s) - s (rounding can move it off x), x' - s,
            # and that trial's restore
            r, k = cells[c]
            plus = M[r, k] + step
            restored = plus - step
            minus = restored - step
            pair[0, r, k], pair[1, r, k] = plus, minus
            plus_abscissa, minus_abscissa = _abscissae(pair)
            evals += 1
            if plus_abscissa < current:
                value, current, improved = plus, plus_abscissa, True
            elif evals == budget:
                value = restored
            else:
                evals += 1
                if minus_abscissa < current:
                    value, current, improved = minus, minus_abscissa, True
                else:
                    value = minus + step
            pair[:, r, k] = value
            c += 1
            if c == m:  # end of a sweep
                if not improved:
                    step *= 0.5
                c, improved = 0, False
        best_abscissa = min(best_abscissa, current)
        if is_hurwitz(current):
            return OracleResult(M.copy(), restart + 1, current)
    return OracleResult(None, config.oracle_restarts, float(best_abscissa))


def _transport_from_canonical(matrix: np.ndarray, info) -> np.ndarray:
    """Map a matrix on the canonical pattern back to the original support.

    canonical = relabel(transpose?(original)), so undo the relabeling with
    the inverse index map, then transpose if that was applied.  Both moves
    preserve the spectrum.
    """
    sigma = info.relabeling
    idx = [sigma(a) - 1 for a in range(1, sigma.n + 1)]
    out = matrix[np.ix_(idx, idx)]
    if info.transposed:
        out = out.T
    return out


def classify(
    p: SparsityPattern, config: EngineConfig | None = None, seed: int = 0
) -> StabilityVerdict:
    """Run all checks in order and return the first conclusive verdict.

    The cover check runs only when no chain is found: a chain's prefixes
    have cycle covers of every size, so it would pass.  Deterministic given
    the seed.  The checks and the chain stage work on p as labeled, with a
    witness seed from p's own key; only the oracle works on the canonical
    representative (n <= CANONICAL_N_CAP), seeded from its key.  Synthesis
    failures degrade to the next stage and surface in the diagnostics; no
    instability conclusion is ever drawn from oracle failure.
    """
    config = config or EngineConfig()
    violating = check_scc_sink(p)
    if violating:
        return StabilityVerdict(tag=PROVED_UNSTABLE, reason=_sink_reason(p), violating=violating)
    try:
        chain = find_nested_chain(p)
    except CapabilityError:  # a block too large to search; the cover check may still decide
        if check_necessary(p) is None:
            raise
        chain = None
    if chain is None and (k := check_necessary(p)) is not None:
        return StabilityVerdict(tag=PROVED_UNSTABLE, reason=NO_HAMILTONIAN_K, k=k)

    diagnostics = []
    if chain is not None:
        try:
            cert = synthesize_stable_witness(
                p, seed=derive_seed(seed, p.n, p.bitkey(), "witness"), chain=chain
            )
            return StabilityVerdict(tag=PROVED_STABLE, reason=CHAIN_FOUND, certificate=cert)
        except (SynthesisError, StabilizationError) as exc:  # pragma: no cover
            diagnostics.append(f"witness synthesis failed: {exc}")

    # Oracle runs on the canonical representative so the verdict tag is
    # invariant across relabelings and transposition of the input.
    info = canonical_form(p) if p.n <= CANONICAL_N_CAP else None
    target = info.canonical if info is not None else p
    result = oracle_search(
        target, config, seed=derive_seed(seed, p.n, target.bitkey(), "oracle")
    )
    if result.found:
        matrix = result.matrix if info is None else _transport_from_canonical(result.matrix, info)
        if is_hurwitz(spectral_abscissa(matrix)):
            return StabilityVerdict(
                tag=PROVED_STABLE,
                reason=ORACLE_FOUND,
                oracle=replace(result, matrix=matrix),
                diagnostics=tuple(diagnostics),
            )
        diagnostics.append("oracle hit failed re-verification")  # pragma: no cover
        result = replace(result, matrix=None)  # pragma: no cover
    return StabilityVerdict(
        tag=UNKNOWN, reason=EXHAUSTED, oracle=result, diagnostics=tuple(diagnostics)
    )


def _sink_reason(p: SparsityPattern) -> str:
    """The reason a failed sink check names: NoSink when no diagonal entry
    is free."""
    has_any_sink = any((i, i) in p.free for i in range(1, p.n + 1))
    return SCC_WITHOUT_SINK if has_any_sink else NO_SINK


def _matrix_supported(matrix: np.ndarray, p: SparsityPattern) -> bool:
    n = p.n
    if matrix.shape != (n, n):
        return False
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if (i, j) not in p.free and matrix[i - 1, j - 1] != 0.0:
                return False
    return True


def certificate_failures(cert: WitnessCertificate) -> list[str]:
    """Re-derive every claim of a witness certificate from primitives.

    Returns the list of failed claims (empty means the certificate is
    good).  Raises ValidationError on structurally malformed input.
    """
    p = cert.pattern
    n = p.n
    witness = np.asarray(cert.witness, dtype=float)
    stabilizer = np.asarray(cert.stabilizer, dtype=float)
    if witness.shape != (n, n) or stabilizer.shape != (n,):
        raise ValidationError(
            "certificate arrays have wrong shape",
            failures=[f"witness {witness.shape}, stabilizer {stabilizer.shape}, n={n}"],
        )
    if not (np.isfinite(witness).all() and np.isfinite(stabilizer).all()):
        raise ValidationError("certificate arrays have non-finite entries")
    if sorted(cert.ordering) != list(range(1, n + 1)) or len(cert.prefix_cycles) != n:
        raise ValidationError("certificate ordering is not a permutation of 1..n, or prefix length mismatch")

    failures = []
    chain = ChainCertificate(ordering=cert.ordering, prefix_cycles=cert.prefix_cycles)
    if not verify_chain(p, chain):
        failures.append("prefix cycle decompositions do not verify against the pattern")
    if not _matrix_supported(witness, p):
        failures.append("witness has a nonzero entry outside the free set")
    if any(d == 0.0 for d in stabilizer):
        failures.append("stabilizer has a zero entry")

    minors = leading_principal_minors(ordering_conjugation(exact_rows(witness), cert.ordering))
    if any(m == 0 for m in minors):
        failures.append("a leading principal minor of the ordered witness is zero")

    with np.errstate(over="ignore"):  # an overflow is the failed claim below
        stabilized = stabilizer[:, None] * witness
    if not np.isfinite(stabilized).all():
        failures.append("stabilized matrix has entries beyond float range")
    elif not is_hurwitz(abscissa := _abscissae(stabilized[None])[0]):
        failures.append(f"stabilized matrix is not Hurwitz (abscissa {abscissa:g})")
    return failures


def verify_certificate(obj, p: SparsityPattern | None = None) -> bool:
    """True iff every claim re-verifies from primitive operations.

    Accepts a WitnessCertificate or a whole StabilityVerdict (the pattern
    argument is required for verdicts that do not embed a certificate, and
    a certificate built on another pattern fails).  An instability verdict
    must name its exact evidence: the violating vertices of the sink check,
    or a size k such that some strongly connected block B has |B| >= k and
    no Hamiltonian k-subgraph.  An Unknown must pass both checks and have a
    block without a nested chain.  Raises ValidationError on evidence that
    cannot be checked, such as non-finite entries or a missing pattern.
    """
    if isinstance(obj, WitnessCertificate):
        return not certificate_failures(obj)
    if isinstance(obj, StabilityVerdict):
        v = obj
        if v.tag == PROVED_STABLE:
            if v.certificate is not None:
                if p is not None and v.certificate.pattern != p:
                    return False
                return not certificate_failures(v.certificate)
            if v.oracle is None or not v.oracle.found or p is None:
                raise ValidationError("stable verdict carries no evidence")
            matrix = np.asarray(v.oracle.matrix, dtype=float)
            if not np.isfinite(matrix).all():
                raise ValidationError("oracle matrix has non-finite entries")
            if not _matrix_supported(matrix, p):
                return False
            return is_hurwitz(spectral_abscissa(matrix))
        if v.tag == PROVED_UNSTABLE:
            if p is None:
                raise ValidationError("verifying an instability verdict needs the pattern")
            if v.reason in (NO_SINK, SCC_WITHOUT_SINK):
                violating = check_scc_sink(p)
                return bool(violating) and v.violating == violating and v.reason == _sink_reason(p)
            if v.reason == NO_HAMILTONIAN_K:
                # type(k) is int: True is an int, and 1 would be the k it names
                return type(v.k) is int and v.k >= 1 and block_without_cover(p, v.k)
            return False
        if v.tag == UNKNOWN:
            if p is None:
                raise ValidationError("verifying an Unknown verdict needs the pattern")
            return (
                not check_scc_sink(p)
                and check_necessary(p) is None
                and find_nested_chain(p) is None
            )
    raise ValidationError(f"cannot verify object of type {type(obj).__name__}")
