"""JSON wire formats for certificates and verdicts.

Exact rationals serialize as "numerator/denominator" strings, complex
eigenvalues as [re, im] pairs, matrices as nested float lists.  Pattern
payloads reuse the json pattern schema ({"n": ..., "free": [[i, j], ...]}).
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .numerics import DEFAULT_TOLERANCE, ExactMatrix, SpectralReport
from .patterns import SparsityPattern
from .verdict import OracleStats, StabilityVerdict
from .witness import WitnessCertificate


def fraction_to_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def exact_matrix_to_lists(A: ExactMatrix) -> list[list[str]]:
    """Arrays of "num/den" strings, the wire form for exact matrices."""
    return [[fraction_to_str(x) for x in row] for row in A.rows]


def exact_matrix_from_lists(rows) -> ExactMatrix:
    return ExactMatrix([[Fraction(x) for x in row] for row in rows])


def pattern_to_dict(p: SparsityPattern) -> dict:
    return {"n": p.n, "free": [list(pair) for pair in p.sorted_free()]}


def pattern_from_dict(d: dict) -> SparsityPattern:
    return SparsityPattern.from_pairs(d["n"], d["free"])


def _eigs_to_lists(eigs) -> list[list[float]]:
    return [[float(z.real), float(z.imag)] for z in eigs]


def certificate_to_dict(cert: WitnessCertificate) -> dict:
    return {
        "pattern": pattern_to_dict(cert.pattern),
        "ordering": list(cert.ordering),
        "prefix_cycles": [[list(c) for c in cycles] for cycles in cert.prefix_cycles],
        "witness": [[float(x) for x in row] for row in cert.witness],
        "stabilizer": [float(x) for x in cert.stabilizer],
        "minors": [fraction_to_str(m) for m in cert.minors],
        "eigenvalues": _eigs_to_lists(cert.spectral.eigenvalues),
        "abscissa": cert.spectral.abscissa,
    }


def _spectral_from_dict(d: dict, tolerance: float) -> SpectralReport:
    abscissa = float(d["abscissa"])
    return SpectralReport(
        eigenvalues=tuple(complex(re, im) for re, im in d["eigenvalues"]),
        abscissa=abscissa,
        hurwitz=abscissa < -tolerance,
    )


def certificate_from_dict(d: dict, tolerance: float = DEFAULT_TOLERANCE) -> WitnessCertificate:
    return WitnessCertificate(
        pattern=pattern_from_dict(d["pattern"]),
        ordering=tuple(d["ordering"]),
        prefix_cycles=tuple(
            tuple(tuple(c) for c in cycles) for cycles in d["prefix_cycles"]
        ),
        witness=np.array(d["witness"], dtype=float),
        stabilizer=np.array(d["stabilizer"], dtype=float),
        minors=tuple(Fraction(m) for m in d["minors"]),
        spectral=_spectral_from_dict(d, tolerance),
    )


def verdict_to_dict(v: StabilityVerdict) -> dict:
    out = {"tag": v.tag, "reason": v.reason}
    if v.k is not None:
        out["k"] = v.k
    if v.violating:
        out["violating"] = sorted(v.violating)
    if v.certificate is not None:
        out["certificate"] = certificate_to_dict(v.certificate)
    if v.oracle_matrix is not None:
        out["oracle"] = {
            "matrix": [[float(x) for x in row] for row in v.oracle_matrix],
            "eigenvalues": _eigs_to_lists(v.oracle_spectral.eigenvalues),
            "abscissa": v.oracle_spectral.abscissa,
        }
    if v.oracle_stats is not None:
        out["oracle_stats"] = {
            "restarts": v.oracle_stats.restarts,
            "best_abscissa": v.oracle_stats.best_abscissa,
        }
    if v.diagnostics:
        out["diagnostics"] = list(v.diagnostics)
    return out


def verdict_from_dict(d: dict) -> StabilityVerdict:
    """The inverse of verdict_to_dict, evidence included."""
    oracle = d.get("oracle")
    stats = d.get("oracle_stats")
    return StabilityVerdict(
        tag=d["tag"],
        reason=d["reason"],
        k=d.get("k"),
        violating=frozenset(d["violating"]) if "violating" in d else None,
        certificate=certificate_from_dict(d["certificate"]) if "certificate" in d else None,
        oracle_matrix=np.array(oracle["matrix"], dtype=float) if oracle else None,
        oracle_spectral=_spectral_from_dict(oracle, DEFAULT_TOLERANCE) if oracle else None,
        oracle_stats=OracleStats(stats["restarts"], stats["best_abscissa"]) if stats else None,
        diagnostics=tuple(d.get("diagnostics", ())),
    )
