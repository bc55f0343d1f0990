"""JSON wire formats for certificates and verdicts.

Matrices serialize as nested float lists.  Pattern payloads reuse the
json pattern schema ({"n": ..., "free": [[i, j], ...]}); a certificate
inside an atlas record leaves its pattern to the record.  Only evidence is
stored: a verifier recomputes minors and spectra from the matrices.  Keys
a decoder does not read are ignored.
"""

from __future__ import annotations

from math import isfinite

import numpy as np

from .errors import PatternFormatError, ValidationError
from .patterns import SparsityPattern, decode_json_pattern
from .verdict import OracleResult, StabilityVerdict
from .witness import WitnessCertificate


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


def _finite_array(values) -> np.ndarray:
    """A float array of ``values``, a number or nested lists of numbers.

    Every leaf must be a non-bool int or a finite float, so a string, a
    bool or null is rejected rather than cast.  json reads NaN, Infinity,
    1e999 and integers beyond float range, so a non-finite entry is
    rejected here rather than deep in a re-check.
    """
    stack = [values]
    while stack:
        x = stack.pop()
        kind = type(x)
        if kind is list:
            stack.extend(x)
        elif kind is float:
            if not isfinite(x):
                raise ValidationError(f"non-finite entry in {values!r}")
        elif kind is not int:
            raise ValidationError(f"expected a number, got {x!r}")
    try:
        return np.array(values, dtype=float)
    except OverflowError:  # an int beyond float range
        raise ValidationError(f"non-finite entry in {values!r}") from None


def _finite_real(value) -> float:
    """``value`` as a float; a list, a bool, a string, null or a
    non-finite number is rejected."""
    if type(value) is list:
        raise ValidationError(f"expected a number, got {value!r}")
    return float(_finite_array(value))


def _list_of(kind: type, values, name: str) -> list:
    """``values``, which must be a list of exactly type ``kind`` (so a bool
    is not an int); raises ValidationError otherwise."""
    if type(values) is list:
        for x in values:
            if type(x) is not kind:
                break
        else:
            return values
    raise ValidationError(f"{name} must be a list of {kind.__name__}s, got {values!r}")


def certificate_from_dict(d: dict, pattern: SparsityPattern | None = None) -> WitnessCertificate:
    """The inverse of certificate_to_dict.  With the enclosing record's
    ``pattern``, a certificate that still stores its own (files of 0.5.0
    and older) must store that one."""
    if pattern is None or "pattern" in d:
        stored = pattern_from_dict(d["pattern"])
        if pattern is not None and stored != pattern:
            raise ValidationError("certificate pattern differs from its record's")
        pattern = stored
    return WitnessCertificate(
        pattern=pattern,
        ordering=tuple(_list_of(int, d["ordering"], "certificate ordering")),
        prefix_cycles=tuple(
            tuple(tuple(_list_of(int, cycle, "certificate cycle")) for cycle in cycles)
            for cycles in _list_of(list, d["prefix_cycles"], "certificate prefix_cycles")
        ),
        witness=_finite_array(d["witness"]),
        stabilizer=_finite_array(d["stabilizer"]),
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
    return out


def _oracle_from_dict(oracle: dict | None, stats: dict | None) -> OracleResult | None:
    if stats is None:
        if oracle is not None:
            raise ValidationError("verdict has an oracle matrix but no oracle_stats")
        return None
    restarts = stats["restarts"]
    if type(restarts) is not int or restarts < 0:
        raise ValidationError(f"oracle_stats restarts must be an integer >= 0, got {restarts!r}")
    return OracleResult(
        matrix=None if oracle is None else _finite_array(oracle["matrix"]),
        restarts_used=restarts,
        best_abscissa=_finite_real(stats["best_abscissa"]),
    )


def verdict_from_dict(d: dict, pattern: SparsityPattern | None = None) -> StabilityVerdict:
    """The inverse of verdict_to_dict, evidence included; ``pattern`` as
    for certificate_from_dict."""
    k = d.get("k")
    # type(x) is int: json's true decodes to a bool, which is an int
    if k is not None and type(k) is not int:
        raise ValidationError(f"verdict k must be an integer, got {k!r}")
    return StabilityVerdict(
        tag=d["tag"],
        reason=d["reason"],
        k=k,
        violating=(
            frozenset(_list_of(int, d["violating"], "verdict violating")) if "violating" in d else None
        ),
        certificate=certificate_from_dict(d["certificate"], pattern) if "certificate" in d else None,
        oracle=_oracle_from_dict(d.get("oracle"), d.get("oracle_stats")),
        diagnostics=(
            tuple(_list_of(str, d["diagnostics"], "verdict diagnostics")) if "diagnostics" in d else ()
        ),
    )
