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

import itertools
import random
from _blake2 import blake2b  # hashlib's blake2b, without loading OpenSSL
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import CapabilityError, StabilizationError, SynthesisError, ValidationError
from .graphs import (
    ChainCertificate,
    _scc,
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
INHERITED = "Inherited"
EXHAUSTED = "Exhausted"

# the reasons each tag may give
REASONS = {
    PROVED_STABLE: frozenset({CHAIN_FOUND, ORACLE_FOUND, INHERITED}),
    PROVED_UNSTABLE: frozenset({NO_SINK, SCC_WITHOUT_SINK, NO_HAMILTONIAN_K}),
    UNKNOWN: frozenset({EXHAUSTED}),
}


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
    there.  Inherited, the atlas's, carries no evidence of its own: the
    1-based free ``entry`` whose removal leaves a stable pattern, and
    ``child``, the verdict of that pattern's representative, which is
    never serialized.  Unknown means every check was inconclusive; its
    oracle field holds the miss.
    """

    tag: str
    reason: str
    k: int | None = None
    violating: frozenset[int] | None = None
    certificate: WitnessCertificate | None = None
    oracle: OracleResult | None = None
    diagnostics: tuple[str, ...] = field(default=())
    entry: tuple[int, int] | None = None
    child: StabilityVerdict | None = field(default=None, repr=False)


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


def _transport(matrix: np.ndarray, image, transposed: bool) -> np.ndarray:
    """A matrix on pattern q, given ``matrix`` on q's image under a symmetry
    that transposes first when ``transposed`` and then sends vertex v to
    image[v] (0-based).

    Entry (a, b) of the result is entry (image[a], image[b]) of ``matrix``,
    then the result is transposed if the symmetry was.  Both moves preserve
    the spectrum.
    """
    out = matrix.take(image, axis=0).take(image, axis=1)  # matrix[np.ix_(image, image)], faster
    return out.T if transposed else out


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
    violating = check_scc_sink(p)
    if violating:
        return StabilityVerdict(tag=PROVED_UNSTABLE, reason=_sink_reason(p), violating=violating)
    try:
        chain = find_nested_chain(p)
    except CapabilityError:  # a block too large to search; the cover check may still decide
        if (k := check_necessary(p)) is None:
            raise
    else:
        k = None if chain is not None else check_necessary(p)
    if k is not None:
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
        matrix = result.matrix
        if info is not None:  # canonical = relabeling(transpose?(p))
            image = [v - 1 for v in info.relabeling.mapping]
            matrix = _transport(matrix, image, info.transposed)
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
    is free, read from the sink check's loop mask."""
    return SCC_WITHOUT_SINK if _scc(p)[2] else NO_SINK


def _matrix_supported(matrix: np.ndarray, p: SparsityPattern) -> bool:
    n = p.n
    if matrix.shape != (n, n):
        return False
    outside = np.ones((n, n), dtype=bool)
    for i, j in p.free:
        outside[i - 1, j - 1] = False
    return not (matrix[outside] != 0.0).any()


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
    for entries in (cert.ordering, *itertools.chain.from_iterable(cert.prefix_cycles)):
        for v in entries:
            # type(v) is int: 2.0 and True compare equal to the ints they stand for
            if type(v) is not int:
                raise ValidationError(f"certificate ordering and cycles must hold ints, got {v!r}")
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
    a certificate built on another pattern fails).  Each verdict must name
    its evidence.  ChainFound needs a certificate and OracleFound a found
    oracle matrix.  Inherited needs a free entry and a stable child verdict
    that verifies on the canonical form of p without that entry: an exact
    lattice step, with no float test of its own.  The child has one free
    entry fewer, so the references end.  An instability verdict needs its
    exact evidence: the violating vertices of the sink check, or a size k
    such that some strongly connected block B has |B| >= k and no
    Hamiltonian k-subgraph.
    An Unknown must say Exhausted, pass both checks and have a block
    without a nested chain.  Raises ValidationError on evidence that
    cannot be checked, such as non-finite entries, a missing pattern or an
    Inherited verdict without its child.
    """
    return _holds(obj, p, None)


def _verify(obj, p: SparsityPattern | None, memo: dict | None) -> bool:
    """verify_certificate, once per (id(obj), p) in ``memo``; obj must outlive memo."""
    if memo is None:
        return _holds(obj, p, None)
    key = (id(obj), p)
    if key not in memo:
        memo[key] = _holds(obj, p, memo)
    return memo[key]


def _holds(obj, p: SparsityPattern | None, memo: dict | None) -> bool:
    """The claims of verify_certificate, a reference's child through _verify."""
    if isinstance(obj, WitnessCertificate):
        return not certificate_failures(obj)
    if isinstance(obj, StabilityVerdict):
        v = obj
        if v.tag == PROVED_STABLE:
            if v.reason == INHERITED:
                if p is None:
                    raise ValidationError("verifying an Inherited verdict needs the pattern")
                if v.entry not in p.free:
                    return False
                if v.child is None:
                    raise ValidationError("an Inherited verdict carries no child verdict")
                child = canonical_form(SparsityPattern(p.n, p.free - {v.entry})).canonical
                return v.child.tag == PROVED_STABLE and _verify(v.child, child, memo)
            if v.certificate is not None:
                if v.reason != CHAIN_FOUND or p is not None and v.certificate.pattern != p:
                    return False
                return not certificate_failures(v.certificate)
            if v.oracle is None or not v.oracle.found:
                raise ValidationError("stable verdict carries no evidence")
            if p is None:
                raise ValidationError("verifying an OracleFound verdict needs the pattern")
            if v.reason != ORACLE_FOUND:
                return False
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
                v.reason == EXHAUSTED
                and not check_scc_sink(p)
                and check_necessary(p) is None
                and find_nested_chain(p) is None
            )
    raise ValidationError(f"cannot verify object of type {type(obj).__name__}")
