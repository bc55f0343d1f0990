"""JSON wire formats for certificates, verdicts and atlas files.

Each persisted format is one table of field -> kind below; ``check`` walks
a decoded value against it and raises ValidationError with the bad field's
path, e.g. ``verdict.certificate.prefix_cycles[2][0][1]``, or
``verdict.oracle.matrix`` for a ragged matrix.  The decoders then only
build objects.  EVIDENCE names each reason's fields: a verdict must have
its reason's and no other reason's.  Keys no table lists are ignored.
Matrices serialize as nested float lists and patterns as {"n": ...,
"free": [[i, j], ...]}, which patterns.encode_json_pattern alone writes
(as pattern_to_dict) and decode_json_pattern alone checks; a
certificate inside an atlas record leaves its pattern to the record.
Only evidence is stored: a verifier recomputes minors and spectra from
the matrices.  An Inherited verdict stores only its entry; its child
verdict is the child record's, which atlas.load_atlas links in as it
decodes.
"""

from __future__ import annotations

import reprlib
from math import isfinite
from typing import NamedTuple

import numpy as np

from .errors import PatternFormatError, ValidationError
from .patterns import SparsityPattern, _decode_json_pattern, encode_json_pattern
from .verdict import REASONS, OracleResult, Reference, StabilityVerdict
from .witness import WitnessCertificate

# Kinds: int, bool and str match exactly that type (json's true is not an
# int), a frozenset is an enum of strings, [kind] a list of that kind, a
# dict a nested table and a union a table picked by a field; these are the
# other leaves.
COUNT = "an int >= 0"
NUMBER = "a finite number"  # an int within float range, or a finite float
PATTERN = "a json pattern field"  # checked by patterns.decode_json_pattern alone
ENTRY = "an [i, j] pair of ints"
ABSENT = "absent (another reason's evidence)"  # no value is one: optional(ABSENT) must be left out
MATRIX = [[NUMBER]]  # known by identity: its rows must also be of equal length


class optional(NamedTuple):
    """A field that may be absent; present, it is ``kind``."""

    kind: object


class union(NamedTuple):
    """An object of the table ``head`` and of the table its field ``by`` picks."""

    head: dict
    by: str
    tables: dict


CERTIFICATE = {
    "ordering": [int], "prefix_cycles": [[[int]]], "witness": MATRIX, "stabilizer": [NUMBER],
    "pattern": optional(PATTERN),  # left to the record inside an atlas record
}
ORACLE = {"matrix": MATRIX}
ORACLE_STATS = {"restarts": COUNT, "best_abscissa": NUMBER}
EVIDENCE = {
    "NoSink": {"violating": [int]},
    "SccWithoutSink": {"violating": [int]},
    "NoHamiltonianK": {"k": int},
    "ChainFound": {"certificate": CERTIFICATE},
    "OracleFound": {"oracle": ORACLE, "oracle_stats": ORACLE_STATS},
    "Inherited": {"entry": ENTRY},
    "Exhausted": {"oracle_stats": ORACLE_STATS},
}
# the tag and reason, then the reason's table: its evidence, no other reason's
_ABSENT = {name: optional(ABSENT) for fields in EVIDENCE.values() for name in fields}
_TAGS = frozenset(row.tag for row in REASONS.values())
VERDICT = union({"tag": _TAGS, "reason": frozenset(EVIDENCE)}, "reason", {
    reason: {"tag": frozenset({REASONS[reason].tag}), **_ABSENT, **fields, "diagnostics": optional([str])}
    for reason, fields in EVIDENCE.items()
})
HEADER = {"n": int, "tool_version": str, "seed": int, "config_hash": str}
RECORD = {
    "n": PATTERN, "free": PATTERN, "orbit_size": int, "verdict": VERDICT,
    "minimal_stable": bool, "maximal_unstable": bool,
}


class _Mismatch(Exception):
    """A value not of its kind: args are the problem and the steps down to
    it, innermost first."""


def check(value, kind, name: str) -> None:
    """Raise ValidationError, naming the bad field's path from ``name``,
    unless ``value`` is of ``kind``, typically a table."""
    try:
        _walk(value, kind)
    except _Mismatch as exc:
        problem, path = exc.args
        raise ValidationError(f"{name}{''.join(reversed(path))} {problem}") from None


def _walk(value, kind) -> None:
    # exact-type leaves, finite floats, enum members and pattern fields are
    # checked in the loops, without a call: they are most of the values
    if type(kind) is list and type(value) is list:
        element = kind[0]
        for x in value:
            # x - x is 0.0 for a finite float, nan otherwise
            if type(x) is element or element is NUMBER and type(x) is float and x - x == 0.0:
                continue
            try:
                _walk(x, element)
            except _Mismatch as exc:  # an earlier element that is x would have failed first
                exc.args[1].append(f"[{next(i for i, y in enumerate(value) if y is x)}]")
                raise
        if kind is MATRIX and len(set(map(len, value))) > 1:
            raise _Mismatch(f"must have rows of equal length, got {reprlib.repr(value)}", [])
    elif type(kind) is dict and type(value) is dict:
        for name, sub in kind.items():
            if type(sub) is optional:
                if name not in value:
                    continue
                sub = sub.kind
            elif name not in value:
                raise _Mismatch(f"is missing {name!r}", [])
            x = value[name]
            if type(x) is sub or sub is PATTERN or type(sub) is frozenset and type(x) is str and x in sub:
                continue
            try:
                _walk(x, sub)
            except _Mismatch as exc:
                exc.args[1].append("." + name)
                raise
    elif type(kind) is union:
        _walk(value, kind.head)
        _walk(value, kind.tables[value[kind.by]])
    elif not _is_leaf(value, kind):
        if type(kind) is frozenset:
            what = f"one of {sorted(kind)}"
        else:
            what = {list: "a list", dict: "an object"}.get(type(kind)) or getattr(kind, "__name__", kind)
        raise _Mismatch(f"must be {what}, got {reprlib.repr(value)}", [])


def _is_leaf(value, kind) -> bool:
    """Whether ``value`` is of the leaf ``kind``; json reads NaN, Infinity,
    1e999 and ints beyond float range, and none of them is a number here."""
    if kind is NUMBER:
        try:
            return (type(value) is float or type(value) is int) and isfinite(value)
        except OverflowError:  # an int beyond float range
            return False
    if kind is COUNT:
        return type(value) is int and value >= 0
    if kind is ENTRY:
        return type(value) is list and len(value) == 2 and all(type(x) is int for x in value)
    if type(kind) is frozenset:
        return type(value) is str and value in kind
    return type(value) is kind


pattern_to_dict = encode_json_pattern


def pattern_from_dict(d: dict) -> SparsityPattern:
    return _keyed_pattern(d)[0]


def _keyed_pattern(d: dict) -> tuple[SparsityPattern, int]:
    """pattern_from_dict's pattern and its key, found in the same pass."""
    try:
        return _decode_json_pattern(d)
    except PatternFormatError as exc:
        raise ValidationError(str(exc)) from exc


def certificate_to_dict(cert: WitnessCertificate, pattern: SparsityPattern | None = None) -> dict:
    """The certificate's evidence.  ``pattern`` is the pattern an enclosing
    record states: the certificate must be built on it and then leaves out
    its own copy."""
    out = {
        "ordering": list(cert.ordering),
        "prefix_cycles": [[list(c) for c in cycles] for cycles in cert.prefix_cycles],
        "witness": _float_lists(cert.witness),
        "stabilizer": _float_lists(cert.stabilizer),
    }
    if pattern is None:
        out["pattern"] = pattern_to_dict(cert.pattern)
    elif cert.pattern != pattern:
        raise ValueError("the certificate is built on another pattern than its record's")
    return out


def _float_lists(matrix) -> list:
    """A float array as nested lists of floats, as json writes them."""
    return np.asarray(matrix, dtype=float).tolist()


def certificate_from_dict(d: dict, pattern: SparsityPattern | None = None) -> WitnessCertificate:
    """The inverse of certificate_to_dict.  With the enclosing record's
    ``pattern``, a certificate that still stores its own (files of 0.5.0
    and older) must store that one."""
    check(d, CERTIFICATE, "certificate")
    return _certificate(d, pattern)


def _certificate(d: dict, pattern: SparsityPattern | None) -> WitnessCertificate:
    """certificate_from_dict of a ``d`` that passed check."""
    if pattern is None or "pattern" in d:
        stored = pattern_from_dict(d.get("pattern"))  # None, when absent, fails decoding
        if pattern is not None and stored != pattern:
            raise ValidationError("certificate pattern differs from its record's")
        pattern = stored
    return WitnessCertificate(
        pattern=pattern,
        ordering=tuple(d["ordering"]),
        prefix_cycles=tuple(tuple(map(tuple, cycles)) for cycles in d["prefix_cycles"]),
        witness=np.array(d["witness"], dtype=float),
        stabilizer=np.array(d["stabilizer"], dtype=float),
    )


def _oracle_to_dict(result: OracleResult, pattern) -> dict:
    stats = {"oracle_stats": {"restarts": result.restarts_used, "best_abscissa": result.best_abscissa}}
    return {"oracle": {"matrix": _float_lists(result.matrix)}, **stats} if result.found else stats


def _oracle(d: dict, pattern, link) -> OracleResult:
    matrix = np.array(d["oracle"]["matrix"], dtype=float) if "oracle" in d else None
    stats = d["oracle_stats"]
    return OracleResult(matrix, stats["restarts"], float(stats["best_abscissa"]))


def _reference(d: dict, pattern, link) -> Reference:
    """Inherited's evidence, linked by ``link`` to a child only for a free entry."""
    entry = tuple(d["entry"])
    return Reference(entry, link(entry) if link is not None and entry in pattern.free else None)


# per evidence type, its encoder, (evidence, pattern) -> its EVIDENCE
# fields, and its decoder, (checked verdict dict, pattern, link) -> evidence
_CODECS = {
    frozenset: (lambda e, pattern: {"violating": sorted(e)}, lambda d, *_: frozenset(d["violating"])),
    int: (lambda k, pattern: {"k": k}, lambda d, *_: d["k"]),
    WitnessCertificate: (
        lambda cert, pattern: {"certificate": certificate_to_dict(cert, pattern)},
        lambda d, pattern, _: _certificate(d["certificate"], pattern),
    ),
    OracleResult: (_oracle_to_dict, _oracle),
    Reference: (lambda reference, pattern: {"entry": list(reference.entry)}, _reference),
}


def verdict_to_dict(v: StabilityVerdict, pattern: SparsityPattern | None = None) -> dict:
    """The verdict with its evidence; ``pattern`` as for
    certificate_to_dict."""
    out = {"tag": v.tag, "reason": v.reason, **_CODECS[type(v.evidence)][0](v.evidence, pattern)}
    if v.diagnostics:
        out["diagnostics"] = list(v.diagnostics)
    return out


def verdict_from_dict(d: dict, pattern: SparsityPattern | None = None) -> StabilityVerdict:
    """The inverse of verdict_to_dict, evidence included; ``pattern`` as
    for certificate_from_dict."""
    check(d, VERDICT, "verdict")
    return _verdict(d, pattern)


def _verdict(d: dict, pattern: SparsityPattern | None, link=None) -> StabilityVerdict:
    """verdict_from_dict of a ``d`` that passed check; ``link`` maps an
    Inherited entry to its child verdict."""
    decode = _CODECS[REASONS[d["reason"]].evidence][1]
    return StabilityVerdict(d["reason"], decode(d, pattern, link), tuple(d.get("diagnostics", ())))
