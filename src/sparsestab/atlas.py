"""Exhaustive classification of small patterns up to symmetry.

Patterns are enumerated as row-major bit keys; scanning keys in increasing
order visits each orbit at its lexicographic minimum first, so
representatives fall out of the scan already canonical and sorted.  Every
representative is classified, then marked minimally-stable /
maximally-unstable by toggling single cells and looking the neighbors up
through their canonical keys.

Persistence is line-delimited json -- a header line, then one record per
representative -- so long enumerations can resume: existing keys are
skipped and classification continues where the file stopped.
"""

from __future__ import annotations

import json
import os
from _blake2 import blake2b  # hashlib's blake2b, without loading OpenSSL
from dataclasses import dataclass

from . import jsonio
from .errors import CapabilityError, ValidationError
from .graphs import find_nested_chain
from .patterns import (
    SparsityPattern,
    key_orbit,
    key_to_pattern,
    pattern_to_key,
)
from .verdict import (
    PROVED_STABLE,
    PROVED_UNSTABLE,
    UNKNOWN,
    EngineConfig,
    StabilityVerdict,
    classify,
)

TOOL_VERSION = "0.4.0"
FULL_ENUMERATION_CAP = 4  # 2^(n^2) raw patterns; n=4 is 65536


@dataclass(frozen=True)
class AtlasRecord:
    pattern: SparsityPattern
    orbit_size: int
    verdict: StabilityVerdict
    minimal_stable: bool
    maximal_unstable: bool

    @property
    def key(self) -> int:
        return pattern_to_key(self.pattern)

    @property
    def dimension(self) -> int:
        return self.pattern.dimension

    @property
    def codimension(self) -> int:
        return self.pattern.codimension


def config_hash(config: EngineConfig) -> str:
    payload = json.dumps(vars(config), sort_keys=True, default=str)
    return blake2b(payload.encode(), digest_size=6).hexdigest()


def _scan_orbits(n: int) -> tuple[list[tuple[int, int]], list[int]]:
    """Every orbit as (canonical key, orbit size) in key order, and the
    canonical key of each of the 2^(n^2) raw keys."""
    canon = [-1] * (1 << (n * n))
    reps = []
    for key in range(len(canon)):
        if canon[key] < 0:
            orbit = key_orbit(n, key)
            for img in orbit:
                canon[img] = key
            reps.append((key, len(orbit)))
    return reps, canon


def enumerate_patterns(n: int, filter=None):
    """One canonical representative per symmetry orbit, with orbit sizes
    (they sum to 2^(n^2)), for 1 <= n <= 4; any other n raises
    CapabilityError."""
    if not 1 <= n <= FULL_ENUMERATION_CAP:
        raise CapabilityError(f"enumeration needs 1 <= n <= {FULL_ENUMERATION_CAP}")
    for key, orbit_size in _scan_orbits(n)[0]:
        p = key_to_pattern(n, key)
        if filter is None or filter(p):
            yield p, orbit_size


def _header(n: int, seed: int, config: EngineConfig) -> dict:
    return {
        "n": n,
        "tool_version": TOOL_VERSION,
        "seed": seed,
        "config_hash": config_hash(config),
    }


def _record_to_dict(rec: AtlasRecord) -> dict:
    """The record's evidence; its key, dimension and codimension are
    derived from ``free`` on load."""
    return {
        **jsonio.pattern_to_dict(rec.pattern),
        "orbit_size": rec.orbit_size,
        "verdict": jsonio.verdict_to_dict(rec.verdict),
        "minimal_stable": rec.minimal_stable,
        "maximal_unstable": rec.maximal_unstable,
    }


def _record_from_dict(d: dict) -> AtlasRecord:
    return AtlasRecord(
        pattern=jsonio.pattern_from_dict(d),
        orbit_size=_field(d, "orbit_size", int),
        verdict=jsonio.verdict_from_dict(d["verdict"]),
        minimal_stable=_field(d, "minimal_stable", bool),
        maximal_unstable=_field(d, "maximal_unstable", bool),
    )


def _field(d, name: str, kind: type):
    """d[name], which must be of exactly type ``kind`` (so a bool is not an
    int); raises ValidationError otherwise."""
    if type(d) is not dict or type(d.get(name)) is not kind:
        raise ValidationError(f"record field {name!r} must be a {kind.__name__}")
    return d[name]


def load_atlas(path) -> tuple[dict, list[AtlasRecord]]:
    """Read a persisted atlas, every verdict with its evidence."""
    return _read_atlas(path)


def _read_atlas(path, keep=None) -> tuple[dict, list[AtlasRecord]]:
    """The header of a persisted atlas and its records, decoded in full;
    with ``keep``, only the records whose parsed line it accepts are
    decoded.  Every line is parsed; any decode failure raises
    ValidationError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = [line for line in fh.read().splitlines() if line.strip()]
        if not lines:
            raise ValidationError("no header line")
        header = json.loads(lines[0])
        records = [
            _record_from_dict(d)
            for d in map(json.loads, lines[1:])
            if keep is None or keep(d)
        ]
    except (AttributeError, KeyError, TypeError, ValueError, ValidationError) as exc:
        # any decode failure; JSONDecodeError and UnicodeDecodeError are ValueErrors
        raise ValidationError(f"malformed atlas file {path}: {exc}")
    return header, records


def _drop_torn_tail(path) -> None:
    """Cut the file back to its last complete line."""
    with open(path, "rb+") as fh:
        fh.truncate(fh.read().rfind(b"\n") + 1)


def classify_atlas(
    n: int,
    config: EngineConfig | None = None,
    seed: int = 0,
    path=None,
) -> list[AtlasRecord]:
    """Classify every orbit representative and mark minimal/maximal.

    A child (one free entry removed) or parent (one added) is looked up by
    its canonical key, read from the orbit scan's table, in the one verdict
    memo, so the neighbor scan costs no extra classifications.  With a path
    the records stream-append in key order; re-running against an existing
    file resumes after the last written key, its records' verdicts seeding
    the memo; a record torn by a kill mid-write is dropped and redone.
    """
    if not 1 <= n <= FULL_ENUMERATION_CAP:
        raise CapabilityError(f"atlas classification needs 1 <= n <= {FULL_ENUMERATION_CAP}")
    config = config or EngineConfig()
    reps, canon = _scan_orbits(n)
    verdicts: dict[int, StabilityVerdict] = {}

    existing: dict[int, AtlasRecord] = {}
    fh = None
    if path is not None:
        expected = _header(n, seed, config)
        if os.path.exists(path):
            _drop_torn_tail(path)
            header, old_records = load_atlas(path)
            if header != expected:
                raise ValidationError(
                    f"atlas file {path} was built with different parameters: "
                    f"{header} != {expected}"
                )
            for rec in old_records:
                existing[rec.key] = rec
                verdicts[rec.key] = rec.verdict
            fh = open(path, "a", encoding="utf-8")
        else:
            fh = open(path, "w", encoding="utf-8")
            fh.write(json.dumps(expected, sort_keys=True) + "\n")

    # The gap set is tiny at desk scale, so an Unknown is recorded only
    # after a 10x oracle search.  The oracle draws its starts by restart
    # index, so the default-budget search is a prefix of this one: every
    # verdict it would reach comes out the same, with one oracle pass less
    # per Unknown.
    scaled = config.scaled_oracle(10)

    def tag_of(raw: int, p: SparsityPattern | None = None) -> str:
        """The verdict tag of raw's orbit; p, if given, is raw's pattern."""
        key = canon[raw]
        if key not in verdicts:
            verdicts[key] = classify(p or key_to_pattern(n, key), scaled, seed)
        return verdicts[key].tag

    bits = [1 << b for b in range(n * n)]
    records: list[AtlasRecord] = []
    try:
        for key, orbit_size in reps:
            if key in existing:
                records.append(existing[key])
                continue
            p = key_to_pattern(n, key)
            tag = tag_of(key, p)
            minimal_stable = tag == PROVED_STABLE and all(
                tag_of(key ^ bit) != PROVED_STABLE for bit in bits if key & bit
            )
            maximal_unstable = tag == PROVED_UNSTABLE and all(
                tag_of(key | bit) == PROVED_STABLE for bit in bits if not key & bit
            )
            rec = AtlasRecord(
                pattern=p,
                orbit_size=orbit_size,
                verdict=verdicts[key],
                minimal_stable=minimal_stable,
                maximal_unstable=maximal_unstable,
            )
            records.append(rec)
            if fh is not None:
                fh.write(json.dumps(_record_to_dict(rec), sort_keys=True) + "\n")
                fh.flush()
    finally:
        if fh is not None:
            fh.close()
    return records


@dataclass(frozen=True)
class StructureReport:
    """Outcome of the five structural checks on a complete atlas."""

    n: int
    checks: dict
    stable_count: int
    unstable_count: int
    unknown_count: int
    unknown_keys: tuple[int, ...]
    stable_raw_count: int

    @property
    def all_passed(self) -> bool:
        return all(ok for ok, _ in self.checks.values())

    def summary(self) -> str:
        lines = [f"structure checks at n={self.n}:"]
        for name, (ok, detail) in self.checks.items():
            lines.append(f"  [{'PASS' if ok else 'FAIL'}] {name}: {detail}")
        lines.append(
            f"  verdicts: {self.stable_count} stable, {self.unstable_count} unstable, "
            f"{self.unknown_count} unknown"
        )
        if self.unknown_keys:
            lines.append(f"  unknown keys: {list(self.unknown_keys)}")
        return "\n".join(lines)


def _diag_free_count(p: SparsityPattern) -> int:
    return sum(1 for i in range(1, p.n + 1) if (i, i) in p.free)


def _offdiag_zero_count(p: SparsityPattern) -> int:
    return sum(
        1
        for i in range(1, p.n + 1)
        for j in range(1, p.n + 1)
        if i != j and (i, j) not in p.free
    )


def validate_structure_theorem(records: list[AtlasRecord], n: int) -> StructureReport:
    """Check the small-scale structural facts on a complete atlas.

    (a) no stable pattern has dimension below n; (b) some minimally stable
    pattern has dimension exactly n; (c) everything with codimension below
    n is stable; (d) the zero-diagonal pattern is unstable and maximally
    unstable; (e) at least one free diagonal entry plus at most n-2
    off-diagonal zeros forces a nested chain.  A failure here indicates an
    implementation bug and is reported loudly, never silently dropped.
    """
    if not records:
        raise ValidationError("empty atlas")
    expected = 1 << (n * n)
    covered = sum(rec.orbit_size for rec in records)
    if covered != expected:
        raise ValidationError(
            f"incomplete atlas: orbit sizes cover {covered} of {expected} patterns"
        )
    by_key = {rec.key: rec for rec in records}
    checks = {}

    stable = [r for r in records if r.verdict.tag == PROVED_STABLE]
    unstable = [r for r in records if r.verdict.tag == PROVED_UNSTABLE]
    unknown = [r for r in records if r.verdict.tag == UNKNOWN]

    bad_a = [r.key for r in stable if r.dimension < n]
    checks["a: stable dimension >= n"] = (
        not bad_a,
        f"{len(stable)} stable records" if not bad_a else f"violations at keys {bad_a}",
    )

    min_at_n = [r.key for r in records if r.minimal_stable and r.dimension == n]
    checks["b: minimally stable of dimension n exists"] = (
        bool(min_at_n),
        f"witness keys {min_at_n}" if min_at_n else "none found",
    )

    low_codim = [r for r in records if r.codimension < n]
    bad_c = [r.key for r in low_codim if r.verdict.tag != PROVED_STABLE]
    checks["c: codimension < n implies stable"] = (
        not bad_c,
        f"{len(low_codim)} low-codimension records"
        if not bad_c
        else f"violations at keys {bad_c}",
    )

    zero_diag = SparsityPattern(
        n, frozenset((i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j)
    )
    zd_key = min(key_orbit(n, pattern_to_key(zero_diag)))
    zd_rec = by_key.get(zd_key)
    ok_d = (
        zd_rec is not None
        and zd_rec.verdict.tag == PROVED_UNSTABLE
        and zd_rec.maximal_unstable
    )
    detail_d = (
        f"key {zd_key}: tag={zd_rec.verdict.tag}, maximal={zd_rec.maximal_unstable}"
        if zd_rec is not None
        else f"key {zd_key} missing from atlas"
    )
    checks["d: zero-diagonal pattern maximally unstable"] = (ok_d, detail_d)

    eligible = [
        r
        for r in records
        if _diag_free_count(r.pattern) >= 1 and _offdiag_zero_count(r.pattern) <= n - 2
    ]
    bad_e = [
        r.key
        for r in eligible
        if find_nested_chain(r.pattern) is None or r.verdict.tag != PROVED_STABLE
    ]
    checks["e: near-full patterns with a sink admit chains"] = (
        not bad_e,
        f"{len(eligible)} eligible records, all chain-certified"
        if not bad_e
        else f"violations at keys {bad_e}",
    )

    return StructureReport(
        n=n,
        checks=checks,
        stable_count=len(stable),
        unstable_count=len(unstable),
        unknown_count=len(unknown),
        unknown_keys=tuple(r.key for r in unknown),
        stable_raw_count=sum(r.orbit_size for r in stable),
    )


_QUERY_FIELDS = {"min_dim", "max_codim", "verdict", "minimal_stable", "maximal_unstable"}

_VERDICT_ALIASES = {
    "stable": PROVED_STABLE,
    "unstable": PROVED_UNSTABLE,
    "unknown": UNKNOWN,
    PROVED_STABLE.lower(): PROVED_STABLE,
    PROVED_UNSTABLE.lower(): PROVED_UNSTABLE,
    UNKNOWN.lower(): UNKNOWN,
}


def query_atlas(path, query: dict) -> list[AtlasRecord]:
    """Filter a persisted atlas; results stay ordered by canonical key.

    Every line is parsed and filtered on its raw fields, and only the
    matches are decoded, so a malformed record that the query filters out
    raises nothing (atlas validate checks every record).  A field the query
    filters on that is missing or of the wrong type raises ValidationError.
    """
    unknown_fields = set(query) - _QUERY_FIELDS
    if unknown_fields:
        raise ValidationError(f"unknown query fields: {sorted(unknown_fields)}")
    want = None
    if "verdict" in query:
        want = _VERDICT_ALIASES.get(str(query["verdict"]).lower())
        if want is None:
            raise ValidationError(f"unknown verdict filter: {query['verdict']!r}")
    flags = {
        name: bool(query[name]) for name in ("minimal_stable", "maximal_unstable") if name in query
    }

    def keep(d) -> bool:
        if "min_dim" in query or "max_codim" in query:
            dimension = len(_field(d, "free", list))
            if "min_dim" in query and dimension < query["min_dim"]:
                return False
            if "max_codim" in query and _field(d, "n", int) ** 2 - dimension > query["max_codim"]:
                return False
        if want is not None and _field(_field(d, "verdict", dict), "tag", str) != want:
            return False
        return all(_field(d, name, bool) == value for name, value in flags.items())

    _, records = _read_atlas(path, keep)
    return sorted(records, key=lambda r: r.key)
