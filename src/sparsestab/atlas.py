"""Exhaustive classification of small patterns up to symmetry.

Patterns are enumerated as row-major bit keys.  One table per n gives
every key's orbit minimum, its canonical key; the keys that are their own
minimum are the representatives, already canonical and sorted.  Deciding
them in key order puts every child (one free entry removed) first, since a
child's canonical key is at most its raw key, below the parent's.  The
stable patterns form an up-set: a Hurwitz matrix of a child lies in the
parent's space.  So a representative with a stable child gets an Inherited
verdict, a reference to that child's record by the removed entry, and only
the rest are classified.  Every proof in an atlas thus sits on the
boundary of the stable set, in the minimally stable records.  One function
(_marks) then marks the records minimally-stable / maximally-unstable from
the neighbors' tags, for the build and for verify_records, which verifies
each record once.

Persistence is line-delimited json: a header line, then one record per
representative in key order.  The file is a build output: a build never
reads it, and replaces it whole once every record is decided.  A file
stores an Inherited verdict as its entry alone, and load_atlas links it to
its child's record as it decodes it.  Files of 0.6.0 and older hold a full
proof on every stable record.
"""

from __future__ import annotations

import collections
import functools
import json
import os
from _blake2 import blake2b  # hashlib's blake2b, without loading OpenSSL
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import jsonio
from .errors import CapabilityError, ValidationError
from .graphs import find_nested_chain
from .patterns import SparsityPattern, _image_table, _key_bits, key_to_pattern, pattern_to_key
from .verdict import (
    INHERITED,
    PROVED_STABLE,
    PROVED_UNSTABLE,
    UNKNOWN,
    EngineConfig,
    StabilityVerdict,
    _verify,
    classify,
)

TOOL_VERSION = "0.7.0"
FULL_ENUMERATION_CAP = 4  # 2^(n^2) raw patterns; n=4 is 65536

_ENCODER = json.JSONEncoder(sort_keys=True)  # writes the header and every record


@dataclass(frozen=True)
class AtlasRecord:
    pattern: SparsityPattern
    orbit_size: int
    verdict: StabilityVerdict
    minimal_stable: bool
    maximal_unstable: bool

    @functools.cached_property  # in the instance's __dict__, which frozen=True leaves writable
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


class _OrbitTable(NamedTuple):
    """Every orbit as (canonical key, orbit size) in key order; for each
    raw key, its canonical key; and the mask of each key bit."""

    reps: tuple[tuple[int, int], ...]
    canon: tuple[int, ...]
    bits: tuple[int, ...]


@functools.lru_cache(maxsize=FULL_ENUMERATION_CAP)
def _orbit_table(n: int) -> _OrbitTable:
    """The orbit of each of the 2^(n^2) raw keys: for every key at once,
    the min of _orbit_keys, as a running minimum over the 2*n! symmetries.

    A symmetry maps a key bit by bit, so its images of all keys fill in
    one doubling pass: the keys with top bit b are those below 2^b with
    b's image added.  One image array lives at a time, never a
    [2^(n^2), 2*n!] matrix.  Memoised per n in tuples, which no caller can
    change; every caller passes _check_size first, so n <= 4 (65536 keys).
    The n=5 table peaks at ~0.7 GB: lifting FULL_ENUMERATION_CAP needs
    another look at this memo.
    """
    total = n * n
    size = 1 << total
    dtype = np.min_scalar_type(size - 1)
    # moved[b, g]: where symmetry g sends key bit b (least significant
    # first); column 2r + t is permutation r after a transpose when t is 1,
    # as in _orbit_keys
    moved = _key_bits(n)[_image_table(n)].reshape(total, -1)[::-1].astype(dtype)
    canon = np.arange(size, dtype=dtype)  # symmetry 0 is the identity
    image = np.zeros_like(canon)
    for g in range(1, moved.shape[1]):
        for b, high in enumerate(moved[:, g]):
            np.bitwise_or(image[: 1 << b], high, out=image[1 << b : 2 << b])
        np.minimum(image, canon, out=canon)
    keys = np.flatnonzero(canon == np.arange(size))
    sizes = np.bincount(canon, minlength=size)[keys]
    reps = tuple(zip(keys.tolist(), sizes.tolist()))
    return _OrbitTable(reps, tuple(canon.tolist()), tuple(1 << b for b in range(total)))


def _check_size(n) -> None:
    """Reject a size the atlas cannot enumerate: ValueError for an n that
    is not exactly an int (True and 2.0 are not), CapabilityError for an
    int outside 1..FULL_ENUMERATION_CAP."""
    if type(n) is not int:
        raise ValueError(f"atlas size n must be an int, not {n!r}")
    if not 1 <= n <= FULL_ENUMERATION_CAP:
        raise CapabilityError(f"the atlas needs 1 <= n <= {FULL_ENUMERATION_CAP}, not n={n}")


def enumerate_patterns(n: int, filter=None):
    """One canonical representative per symmetry orbit, with orbit sizes
    (they sum to 2^(n^2)), for 1 <= n <= 4 (see _check_size)."""
    _check_size(n)  # here, not at the first next()
    reps = ((key_to_pattern(n, key), size) for key, size in _orbit_table(n).reps)
    return reps if filter is None else ((p, size) for p, size in reps if filter(p))


def _header(n: int, seed: int, config: EngineConfig) -> dict:
    return {
        "n": n,
        "tool_version": TOOL_VERSION,
        "seed": seed,
        "config_hash": config_hash(config),
    }


def _record_to_dict(rec: AtlasRecord) -> dict:
    """The record's evidence; its key, dimension and codimension are
    derived from ``free`` on load, and its certificate's pattern is the
    record's own."""
    return {
        **jsonio.pattern_to_dict(rec.pattern),
        "orbit_size": rec.orbit_size,
        "verdict": jsonio.verdict_to_dict(rec.verdict, rec.pattern),
        "minimal_stable": rec.minimal_stable,
        "maximal_unstable": rec.maximal_unstable,
    }


def _record_from_dict(d: dict, n: int, verdicts: dict | None = None) -> AtlasRecord:
    """The record of ``d``; its marks must fit its own verdict: a minimally
    stable record holds a stability proof of its own, not an Inherited one,
    and a maximally unstable one is ProvedUnstable.  With ``verdicts``,
    those of the records before it by orbit, a reference gets its pattern
    less its entry's, and the record's own is added."""
    jsonio.check(d, jsonio.RECORD, "record")
    pattern = jsonio.pattern_from_dict(d)
    if pattern.n != n:
        raise ValidationError(f"record has n={pattern.n}, not the header's n={n}")
    child = None
    if verdicts is not None and "entry" in d["verdict"]:
        below = SparsityPattern(n, pattern.free - {tuple(d["verdict"]["entry"])})
        child = verdicts.get(_orbit_table(n).canon[pattern_to_key(below)])
    v = jsonio._verdict(d["verdict"], pattern, child)
    if d["minimal_stable"] and (v.tag != PROVED_STABLE or v.reason == INHERITED):
        raise ValidationError(f"a minimally stable record has verdict ({v.tag}, {v.reason})")
    if d["maximal_unstable"] and v.tag != PROVED_UNSTABLE:
        raise ValidationError(f"a maximally unstable record has tag {v.tag}")
    rec = AtlasRecord(pattern, d["orbit_size"], v, d["minimal_stable"], d["maximal_unstable"])
    if verdicts is not None:
        verdicts[_orbit_table(n).canon[rec.key]] = v
    return rec


def load_atlas(path) -> tuple[dict, list[AtlasRecord]]:
    """Read a persisted atlas, every verdict with its evidence, and each
    reference linked as it is decoded (see _record_from_dict)."""
    return _read_atlas(path)


def _read_atlas(path, keep=None) -> tuple[dict, list[AtlasRecord]]:
    """The header of a persisted atlas and its records, each reference
    linked; with ``keep``, only the records whose parsed line it accepts,
    each reference without its child.  Every line is parsed; any decode
    failure, a header n outside 1..FULL_ENUMERATION_CAP or a decoded record
    of another n raises ValidationError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = [line for line in fh.read().splitlines() if line.strip()]
        if not lines:
            raise ValidationError("no header line")
        header = json.loads(lines[0])
        jsonio.check(header, jsonio.HEADER, "header")
        if not 1 <= header["n"] <= FULL_ENUMERATION_CAP:
            raise ValidationError(f"header n={header['n']} is outside 1..{FULL_ENUMERATION_CAP}")
        verdicts = {} if keep is None else None  # by orbit
        records = [
            _record_from_dict(d, header["n"], verdicts)
            for d in map(json.loads, lines[1:])
            if keep is None or keep(d)
        ]
    except (ValueError, ValidationError) as exc:
        # any decode failure; JSONDecodeError and UnicodeDecodeError are
        # ValueErrors
        raise ValidationError(f"malformed atlas file {path}: {exc}")
    return header, records


def classify_atlas(
    n: int,
    config: EngineConfig | None = None,
    seed: int = 0,
    path=None,
) -> list[AtlasRecord]:
    """Classify every orbit representative and mark minimal/maximal.

    One pass decides the representatives in key order (see _decide), so
    each comes after its children: removing an entry lowers the raw key,
    and a canonical key is at most its raw key.  A second pass marks each
    record from the decided tags (see _marks).  With a path, the header
    and records are written in key order once all are decided, and replace
    whatever file is at the path without reading it.
    """
    _check_size(n)
    config = config or EngineConfig()
    orbits = _orbit_table(n)
    # memo[key]: representative key's pattern and verdict
    memo: dict[int, tuple[SparsityPattern, StabilityVerdict]] = {}
    for key, _ in orbits.reps:
        memo[key] = _decide(n, key, orbits, memo, config, seed)
    tags = {key: v.tag for key, (_, v) in memo.items()}
    records = [
        AtlasRecord(p, orbit_size, v, *_marks(orbits, tags, key))
        for (key, orbit_size), (p, v) in zip(orbits.reps, memo.values())
    ]
    if path is not None:
        # a new file beside path, moved onto it in one os.replace: a crash
        # leaves the old file or the new one, never part of one
        tmp = f"{os.fspath(path)}.{os.urandom(6).hex()}.tmp"
        fh = open(tmp, "x", encoding="utf-8")  # "x": a name no other writer holds
        try:
            with fh:
                fh.write(_ENCODER.encode(_header(n, seed, config)) + "\n")
                fh.writelines(_ENCODER.encode(_record_to_dict(rec)) + "\n" for rec in records)
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
    return records


def _decide(n, key, orbits: _OrbitTable, memo, config, seed):
    """The pattern and verdict of representative ``key``, read from
    ``memo``, which holds every lower representative's, so that each child
    (one free entry removed) is there under its canonical key.

    A child's Hurwitz matrix lies in p's matrix space, so a stable child
    proves p stable.  The first stable child in bit order gives p an
    Inherited verdict: the removed entry and the child's verdict.  Only a
    p without a stable child is classified.
    """
    p = key_to_pattern(n, key)
    for b in range(n * n):
        if key >> b & 1:
            child = memo[orbits.canon[key ^ 1 << b]][1]
            if child.tag == PROVED_STABLE:
                pos = n * n - 1 - b
                entry = (pos // n + 1, pos % n + 1)
                return p, StabilityVerdict(PROVED_STABLE, INHERITED, entry=entry, child=child)
    return p, classify(p, config, seed)


def _marks(orbits: _OrbitTable, tags: dict, key: int) -> tuple[bool, bool]:
    """(minimal_stable, maximal_unstable) of raw ``key``, given ``tags``,
    the verdict tag of each canonical key: stable with no stable child, or
    unstable with every parent (one entry added) stable."""
    canon, bits = orbits.canon, orbits.bits
    tag = tags.get(canon[key])
    return (
        tag == PROVED_STABLE
        and all(tags.get(canon[key ^ bit]) != PROVED_STABLE for bit in bits if key & bit),
        tag == PROVED_UNSTABLE
        and all(tags.get(canon[key | bit]) == PROVED_STABLE for bit in bits if not key & bit),
    )


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


def validate_structure_theorem(records: list[AtlasRecord], n: int) -> StructureReport:
    """Check the small-scale structural facts on a complete atlas.

    (a) no stable pattern has dimension below n; (b) some minimally stable
    pattern has dimension exactly n; (c) everything with codimension below
    n is stable; (d) the zero-diagonal pattern is unstable and maximally
    unstable; (e) at least one free diagonal entry plus at most n-2
    off-diagonal zeros forces a nested chain.  A failure here indicates an
    implementation bug and is reported loudly, never silently dropped.

    Records that repeat a key, are not in increasing key order, or whose
    orbit sizes do not sum to 2^(n^2) raise ValidationError; with distinct
    keys, each canonical with its own orbit size (which verify_records
    checks), the sum makes them exactly the representatives.
    As for classify_atlas, n is checked by _check_size.
    """
    _check_size(n)
    if not records:
        raise ValidationError("empty atlas")
    by_key = {rec.key: rec for rec in records}
    if len(by_key) != len(records):
        counts = collections.Counter(rec.key for rec in records)
        repeated = sorted(key for key in counts if counts[key] > 1)
        raise ValidationError(f"atlas repeats record keys {repeated}")
    if list(by_key) != sorted(by_key):  # distinct keys, in record order
        raise ValidationError("atlas records are not in increasing key order")
    expected = 1 << (n * n)
    covered = sum(rec.orbit_size for rec in records)
    if covered != expected:
        raise ValidationError(
            f"incomplete atlas: orbit sizes cover {covered} of {expected} patterns"
        )
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
    zd_key = pattern_to_key(zero_diag)  # every symmetry fixes it, so it is canonical
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

    # a free diagonal entry, and at most n-2 of the n(n-1) off-diagonal cells zero
    eligible = [
        r
        for r in records
        if any(i == j for i, j in r.pattern.free)
        and n * (n - 1) - sum(i != j for i, j in r.pattern.free) <= n - 2
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


def verify_records(records: list[AtlasRecord], n: int) -> list[int]:
    """The keys of the records whose verdict fails verify_certificate, whose
    order is not n, whose key and orbit size are not a representative's,
    or whose marks differ from those _marks gives from the records' tags.
    Each is verified once.  As for classify_atlas, n is checked by _check_size."""
    _check_size(n)
    orbits = _orbit_table(n)
    sizes = dict(orbits.reps)
    # by orbit, so a record at a non-representative key fails only itself
    tags = {orbits.canon[r.key]: r.verdict.tag for r in records if r.pattern.n == n}
    memo = {}  # see verdict._verify; the records keep every verdict alive
    return [
        r.key
        for r in records
        if not _verify(r.verdict, r.pattern, memo)
        or r.pattern.n != n
        or sizes.get(r.key) != r.orbit_size
        or _marks(orbits, tags, r.key) != (r.minimal_stable, r.maximal_unstable)
    ]


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
    filters on that is missing or not of its kind in jsonio.RECORD, a
    malformed pattern under a dimension filter, or a min_dim or max_codim
    that is not an int raises ValidationError.
    """
    unknown_fields = set(query) - _QUERY_FIELDS
    if unknown_fields:
        raise ValidationError(f"unknown query fields: {sorted(unknown_fields)}")
    for name in ("min_dim", "max_codim"):
        if name in query and type(query[name]) is not int:  # True is an int too
            raise ValidationError(f"query field {name} must be an int, not {query[name]!r}")
    want = None
    if "verdict" in query:
        want = _VERDICT_ALIASES.get(str(query["verdict"]).lower())
        if want is None:
            raise ValidationError(f"unknown verdict filter: {query['verdict']!r}")
    flags = {
        name: bool(query[name]) for name in ("minimal_stable", "maximal_unstable") if name in query
    }
    # the raw fields the filters read, with their kinds in the record format
    read = {name: jsonio.RECORD[name] for name in flags}
    if want is not None:
        read["verdict"] = {"tag": jsonio.VERDICT["tag"]}

    def keep(d) -> bool:
        jsonio.check(d, read, "record")
        if "min_dim" in query or "max_codim" in query:
            p = jsonio.pattern_from_dict(d)
            if "min_dim" in query and p.dimension < query["min_dim"]:
                return False
            if "max_codim" in query and p.codimension > query["max_codim"]:
                return False
        if want is not None and d["verdict"]["tag"] != want:
            return False
        return all(d[name] == value for name, value in flags.items())

    _, records = _read_atlas(path, keep)
    return sorted(records, key=lambda r: r.key)
