"""JSON wire formats for certificates and verdicts.

Matrices serialize as nested float lists.  Pattern payloads reuse the
json pattern schema ({"n": ..., "free": [[i, j], ...]}).  Only evidence is
stored: a verifier recomputes minors and spectra from the matrices.  Keys
a decoder does not read are ignored.
"""

from __future__ import annotations

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


def certificate_to_dict(cert: WitnessCertificate) -> dict:
    return {
        "pattern": pattern_to_dict(cert.pattern),
        "ordering": list(cert.ordering),
        "prefix_cycles": [[list(c) for c in cycles] for cycles in cert.prefix_cycles],
        "witness": [[float(x) for x in row] for row in cert.witness],
        "stabilizer": [float(x) for x in cert.stabilizer],
    }


def _finite_array(values) -> np.ndarray:
    """A float array of ``values``, a number or nested lists of numbers.

    Every leaf must be a non-bool int or float, so a string, a bool or
    null is rejected rather than cast.  json reads NaN, Infinity, 1e999
    and integers beyond float range, so a non-finite entry is rejected
    here rather than deep in a re-check.
    """
    stack = [values]
    while stack:
        x = stack.pop()
        if type(x) is list:
            stack.extend(x)
        elif type(x) not in (int, float):
            raise ValidationError(f"expected a number, got {x!r}")
    try:
        array = np.array(values, dtype=float)
    except OverflowError:
        array = np.array(np.inf)
    if not np.isfinite(array).all():
        raise ValidationError(f"non-finite entry in {values!r}")
    return array


def _finite_real(value) -> float:
    """``value`` as a float; a list, a bool, a string, null or a
    non-finite number is rejected."""
    if type(value) is list:
        raise ValidationError(f"expected a number, got {value!r}")
    return float(_finite_array(value))


def certificate_from_dict(d: dict) -> WitnessCertificate:
    return WitnessCertificate(
        pattern=pattern_from_dict(d["pattern"]),
        ordering=tuple(d["ordering"]),
        prefix_cycles=tuple(
            tuple(tuple(c) for c in cycles) for cycles in d["prefix_cycles"]
        ),
        witness=_finite_array(d["witness"]),
        stabilizer=_finite_array(d["stabilizer"]),
    )


def verdict_to_dict(v: StabilityVerdict) -> dict:
    out = {"tag": v.tag, "reason": v.reason}
    if v.k is not None:
        out["k"] = v.k
    if v.violating:
        out["violating"] = sorted(v.violating)
    if v.certificate is not None:
        out["certificate"] = certificate_to_dict(v.certificate)
    if v.oracle is not None:
        if v.oracle.found:
            out["oracle"] = {"matrix": [[float(x) for x in row] for row in v.oracle.matrix]}
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


def verdict_from_dict(d: dict) -> StabilityVerdict:
    """The inverse of verdict_to_dict, evidence included."""
    return StabilityVerdict(
        tag=d["tag"],
        reason=d["reason"],
        k=d.get("k"),
        violating=frozenset(d["violating"]) if "violating" in d else None,
        certificate=certificate_from_dict(d["certificate"]) if "certificate" in d else None,
        oracle=_oracle_from_dict(d.get("oracle"), d.get("oracle_stats")),
        diagnostics=tuple(d.get("diagnostics", ())),
    )
