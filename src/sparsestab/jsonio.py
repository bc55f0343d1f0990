"""JSON wire formats for certificates, verdicts and atlas files.

Each persisted format is one table of field -> kind below; ``check`` walks
a decoded value against it and raises ValidationError with the bad field's
path, e.g. ``verdict.certificate.prefix_cycles[2][0][1]``, or
``verdict.oracle.matrix`` for a ragged matrix.  The decoders then only
build objects, once they have checked that a verdict names an ``entry``
exactly when it is Inherited.  Keys a table does not list are ignored.
Matrices serialize as nested float lists and patterns as {"n": ...,
"free": [[i, j], ...]}, which patterns.decode_json_pattern alone checks; a
certificate inside an atlas record leaves its pattern to the record.  Only
evidence is stored: a verifier recomputes minors and spectra from the
matrices.  An Inherited verdict stores only its entry; its child verdict
is the child record's, which atlas.load_atlas links in as it decodes.
"""

from __future__ import annotations

import reprlib
from math import isfinite
from typing import NamedTuple

import numpy as np

from .errors import PatternFormatError, ValidationError
from .patterns import SparsityPattern, decode_json_pattern
from .verdict import INHERITED, REASONS, OracleResult, StabilityVerdict
from .witness import WitnessCertificate

# Kinds: int, bool and str match exactly that type (json's true is not an
# int), a frozenset is an enum of strings, [kind] a list of that kind and a
# dict a nested table; these are the other leaves.
COUNT = "an int >= 0"
NUMBER = "a finite number"  # an int within float range, or a finite float
PATTERN = "a json pattern field"  # checked by patterns.decode_json_pattern alone
REASON = "a reason of the verdict's tag"  # one of REASONS[tag]; the tag is checked first
ENTRY = "an [i, j] pair of ints"
MATRIX = [[NUMBER]]  # known by identity: its rows must also be of equal length


class optional(NamedTuple):
    """A field that may be absent; present, it is ``kind``, and the field
    ``needs`` is present too."""

    kind: object
    needs: str | None = None


CERTIFICATE = {
    "ordering": [int], "prefix_cycles": [[[int]]], "witness": MATRIX, "stabilizer": [NUMBER],
    "pattern": optional(PATTERN),  # left to the record inside an atlas record
}
ORACLE = {"matrix": MATRIX}
ORACLE_STATS = {"restarts": COUNT, "best_abscissa": NUMBER}
VERDICT = {
    "tag": frozenset(REASONS), "reason": REASON, "k": optional(int), "violating": optional([int]),
    "certificate": optional(CERTIFICATE),
    "oracle": optional(ORACLE, needs="oracle_stats"), "oracle_stats": optional(ORACLE_STATS),
    "diagnostics": optional([str]), "entry": optional(ENTRY),
}
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
                sub, needs = sub
                if needs is not None and needs not in value:
                    raise _Mismatch(f"has {name!r} without {needs!r}", [])
            elif name not in value:
                raise _Mismatch(f"is missing {name!r}", [])
            x = value[name]
            if sub is REASON:
                sub = REASONS[value["tag"]]
            if type(x) is sub or sub is PATTERN or type(sub) is frozenset and type(x) is str and x in sub:
                continue
            try:
                _walk(x, sub)
            except _Mismatch as exc:
                exc.args[1].append("." + name)
                raise
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


def pattern_to_dict(p: SparsityPattern) -> dict:
    return {"n": p.n, "free": [list(pair) for pair in p.sorted_free()]}


def pattern_from_dict(d: dict) -> SparsityPattern:
    try:
        return decode_json_pattern(d)
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


def verdict_to_dict(v: StabilityVerdict, pattern: SparsityPattern | None = None) -> dict:
    """The verdict with its evidence; ``pattern`` as for
    certificate_to_dict."""
    out = {"tag": v.tag, "reason": v.reason}
    if v.k is not None:
        out["k"] = v.k
    if v.violating:
        out["violating"] = sorted(v.violating)
    if v.certificate is not None:
        out["certificate"] = certificate_to_dict(v.certificate, pattern)
    if v.oracle is not None:
        if v.oracle.found:
            out["oracle"] = {"matrix": _float_lists(v.oracle.matrix)}
        out["oracle_stats"] = {
            "restarts": v.oracle.restarts_used,
            "best_abscissa": v.oracle.best_abscissa,
        }
    if v.diagnostics:
        out["diagnostics"] = list(v.diagnostics)
    if v.entry is not None:
        out["entry"] = list(v.entry)
    return out


def verdict_from_dict(d: dict, pattern: SparsityPattern | None = None) -> StabilityVerdict:
    """The inverse of verdict_to_dict, evidence included; ``pattern`` as
    for certificate_from_dict."""
    check(d, VERDICT, "verdict")
    return _verdict(d, pattern)


def _verdict(d: dict, pattern: SparsityPattern | None, child=None) -> StabilityVerdict:
    """verdict_from_dict of a ``d`` that passed check, with the given ``child``."""
    if ("entry" in d) != (d["reason"] == INHERITED):
        raise ValidationError("verdict must name an entry exactly when its reason is Inherited")
    stats = d.get("oracle_stats")
    oracle = d.get("oracle")
    return StabilityVerdict(
        tag=d["tag"],
        reason=d["reason"],
        k=d.get("k"),
        violating=frozenset(d["violating"]) if "violating" in d else None,
        certificate=_certificate(d["certificate"], pattern) if "certificate" in d else None,
        oracle=None if stats is None else OracleResult(
            matrix=None if oracle is None else np.array(oracle["matrix"], dtype=float),
            restarts_used=stats["restarts"],
            best_abscissa=float(stats["best_abscissa"]),
        ),
        diagnostics=tuple(d.get("diagnostics", ())),
        entry=tuple(d["entry"]) if "entry" in d else None,
        child=child,
    )
