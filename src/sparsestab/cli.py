"""Command-line surface.

Subcommands: analyze, witness, oracle, canon, identities, atlas
(enumerate / classify / validate / query).  All randomness flows from
--seed, so every number printed is reproducible.

Exit codes are a contract:
    0   stable / success
    1   unstable
    2   unknown or nothing found
    10  usage error (bad flags or subcommand)
    11  unreadable input file
    12  malformed pattern or atlas file
    13  capability cap exceeded
    14  witness synthesis or stabilization failure
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import jsonio
from .atlas import (
    TOOL_VERSION,
    classify_atlas,
    enumerate_patterns,
    load_atlas,
    query_atlas,
    validate_structure_theorem,
    verify_records,
)
from .errors import (
    CapabilityError,
    PatternFormatError,
    SparsestabError,
    SynthesisError,
    ValidationError,
)
from .graphs import find_nested_chain
from .numerics import spectral_abscissa
from .paper import run_identity_suites
from .patterns import canonical_form, parse_pattern, serialize_pattern
from .verdict import (
    PROVED_STABLE,
    PROVED_UNSTABLE,
    EngineConfig,
    classify,
    oracle_search,
)
from .witness import synthesize_stable_witness

EXIT_STABLE = 0
EXIT_UNSTABLE = 1
EXIT_UNKNOWN = 2
EXIT_USAGE = 10
EXIT_IO = 11
EXIT_FORMAT = 12
EXIT_CAPABILITY = 13
EXIT_SYNTHESIS = 14


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="sparsestab", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=TOOL_VERSION)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=0, help="master random seed")
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--out", help="write output to this path instead of stdout")

    defaults = EngineConfig()

    def engine(p):
        # only the subcommands that build an EngineConfig take its settings
        p.add_argument("--restarts", type=int, default=defaults.oracle_restarts, help="oracle restarts")
        p.add_argument("--steps", type=int, default=defaults.oracle_steps, help="oracle steps per restart")

    for name in ("analyze", "witness", "oracle", "canon"):
        p = sub.add_parser(name)
        p.add_argument("pattern_file")
        common(p)
        if name in ("analyze", "oracle"):
            engine(p)

    p = sub.add_parser("identities")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--n", type=int, default=4)
    common(p)

    p = sub.add_parser("atlas")
    asub = p.add_subparsers(dest="atlas_command", required=True)
    for name in ("enumerate", "classify", "validate", "query"):
        ap = asub.add_parser(name)
        if name != "query":
            ap.add_argument("-n", type=int, required=True)
        ap.add_argument("--atlas", help="atlas file path")
        if name == "query":
            ap.add_argument("--min-dim", type=int)
            ap.add_argument("--max-codim", type=int)
            ap.add_argument("--verdict", choices=("stable", "unstable", "unknown"))
            ap.add_argument("--minimal-stable", action="store_true")
            ap.add_argument("--maximal-unstable", action="store_true")
        common(ap)
        if name in ("classify", "validate"):
            engine(ap)
    return parser


def _load_pattern(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise FileNotFoundError(f"cannot read {path}: {exc}")
    except UnicodeDecodeError as exc:
        raise PatternFormatError(f"{path} is not UTF-8 text: {exc}")
    if path.endswith(".json"):
        fmt = "json"
    elif path.endswith(".mask"):
        fmt = "mask"
    else:
        fmt = "json" if text.lstrip().startswith("{") else "mask"
    return parse_pattern(text, fmt)


def _config(args) -> EngineConfig:
    try:
        return EngineConfig(oracle_restarts=args.restarts, oracle_steps=args.steps)
    except ValueError as exc:
        raise _UsageError(str(exc))


def _emit(args, text: str, out) -> None:
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        print(text, file=out)


def _cmd_analyze(args, out) -> int:
    p = _load_pattern(args.pattern_file)
    verdict = classify(p, _config(args), args.seed)
    if args.format == "json":
        _emit(args, json.dumps(jsonio.verdict_to_dict(verdict), sort_keys=True), out)
    else:
        lines = [f"pattern: {p.describe()}", f"verdict: {verdict.tag} ({verdict.reason})"]
        if verdict.k is not None:
            lines.append(f"first failing subgraph size: {verdict.k}")
        if verdict.violating:
            lines.append(f"violating vertices: {sorted(verdict.violating)}")
        if verdict.certificate is not None:
            lines.append(f"chain ordering: {list(verdict.certificate.ordering)}")
            abscissa = spectral_abscissa(verdict.certificate.stabilized_matrix())
            lines.append(f"witness abscissa: {abscissa:.6g}")
        if verdict.oracle is not None:
            lines.append(
                f"oracle: {verdict.oracle.restarts_used} restarts, "
                f"best abscissa {verdict.oracle.best_abscissa:.6g}"
            )
        _emit(args, "\n".join(lines), out)
    if verdict.tag == PROVED_STABLE:
        return EXIT_STABLE
    if verdict.tag == PROVED_UNSTABLE:
        return EXIT_UNSTABLE
    return EXIT_UNKNOWN


def _cmd_witness(args, out) -> int:
    p = _load_pattern(args.pattern_file)
    chain = find_nested_chain(p)
    if chain is None:
        _emit(args, "no nested chain: the pattern is not chain-certifiably stable", out)
        return EXIT_UNKNOWN
    cert = synthesize_stable_witness(p, seed=args.seed, chain=chain)
    if args.format == "json":
        _emit(args, json.dumps(jsonio.certificate_to_dict(cert), sort_keys=True), out)
    else:
        _emit(
            args,
            "\n".join(
                [
                    f"pattern: {p.describe()}",
                    f"ordering: {list(cert.ordering)}",
                    f"stabilizer: {[float(x) for x in cert.stabilizer]}",
                    f"abscissa: {spectral_abscissa(cert.stabilized_matrix()):.6g}",
                ]
            ),
            out,
        )
    return EXIT_STABLE


def _cmd_oracle(args, out) -> int:
    p = _load_pattern(args.pattern_file)
    result = oracle_search(p, _config(args), args.seed)
    if args.format == "json":
        payload = {
            "found": result.found,
            "restarts": result.restarts_used,
            "best_abscissa": result.best_abscissa,
        }
        if result.found:
            payload["matrix"] = [[float(x) for x in row] for row in result.matrix]
            payload["abscissa"] = result.best_abscissa
        _emit(args, json.dumps(payload, sort_keys=True), out)
    else:
        if result.found:
            _emit(
                args,
                f"found Hurwitz matrix after {result.restarts_used} restarts, "
                f"abscissa {result.best_abscissa:.6g}\n"
                + str(np.round(result.matrix, 6)),
                out,
            )
        else:
            _emit(
                args,
                f"no Hurwitz matrix found ({result.restarts_used} restarts, "
                f"best abscissa {result.best_abscissa:.6g}); this proves nothing",
                out,
            )
    return EXIT_STABLE if result.found else EXIT_UNKNOWN


def _cmd_canon(args, out) -> int:
    p = _load_pattern(args.pattern_file)
    info = canonical_form(p)
    if args.format == "json":
        payload = {
            "canonical": jsonio.pattern_to_dict(info.canonical),
            "orbit_size": info.orbit_size,
            "relabeling": list(info.relabeling.mapping),
            "transposed": info.transposed,
        }
        _emit(args, json.dumps(payload, sort_keys=True), out)
    else:
        _emit(
            args,
            f"orbit size {info.orbit_size}, relabeling {list(info.relabeling.mapping)}, "
            f"transposed {info.transposed}\n" + serialize_pattern(info.canonical).rstrip(),
            out,
        )
    return 0


def _cmd_identities(args, out) -> int:
    # n < 1 has no matrices to check and trials < 1 would pass vacuously
    if args.n < 1 or args.trials < 1:
        raise _UsageError(
            f"identities needs --n >= 1 and --trials >= 1, not {args.n} and {args.trials}"
        )
    results = run_identity_suites(args.n, args.trials, args.seed)
    if args.format == "json":
        payload = [
            {"suite": r.name, "trials": r.trials, "failures": r.failures} for r in results
        ]
        _emit(args, json.dumps(payload, sort_keys=True), out)
    else:
        lines = [
            f"{r.name:<18} n={args.n} checks={r.trials} failures={r.failures}"
            for r in results
        ]
        _emit(args, "\n".join(lines), out)
    return 0 if all(r.ok for r in results) else 1


def _atlas_enumerate(args, out) -> int:
    rows = [
        {"pattern": jsonio.pattern_to_dict(p), "orbit_size": orbit_size}
        for p, orbit_size in enumerate_patterns(args.n)
    ]
    total = sum(row["orbit_size"] for row in rows)
    if args.format == "json":
        _emit(args, json.dumps({"representatives": rows, "raw_total": total}), out)
    else:
        _emit(
            args,
            f"{len(rows)} orbit representatives covering {total} raw patterns at n={args.n}",
            out,
        )
    return 0


def _atlas_classify(args, out) -> int:
    records = classify_atlas(args.n, _config(args), seed=args.seed, path=args.atlas)
    stable = sum(1 for r in records if r.verdict.tag == PROVED_STABLE)
    _emit(
        args,
        f"classified {len(records)} representatives at n={args.n} "
        f"({stable} stable)" + (f"; written to {args.atlas}" if args.atlas else ""),
        out,
    )
    return 0


def _atlas_validate(args, out) -> int:
    config = _config(args)
    if args.atlas:
        header, records = load_atlas(args.atlas)
        if header["n"] != args.n:
            raise ValidationError(f"atlas file {args.atlas} has n={header['n']}, not {args.n}")
    else:
        records = classify_atlas(args.n, config, seed=args.seed)
    report = validate_structure_theorem(records, args.n)
    failing = verify_records(records, args.n)
    verified = len(records) - len(failing)
    lines = [report.summary(), f"  re-verified {verified} of {len(records)} records"]
    if failing:
        lines.append(f"  failing keys: {failing}")
    _emit(args, "\n".join(lines), out)
    return 0 if report.all_passed and not failing else 1


def _atlas_query(args, out) -> int:
    if not args.atlas:
        raise _UsageError("atlas query needs --atlas PATH")
    # each flag given, under its query_atlas field name
    query = {
        name: value
        for name in ("min_dim", "max_codim", "verdict", "minimal_stable", "maximal_unstable")
        if (value := getattr(args, name)) is not None and value is not False
    }
    records = query_atlas(args.atlas, query)
    if args.format == "json":
        payload = [
            {
                "pattern": jsonio.pattern_to_dict(r.pattern),
                "orbit_size": r.orbit_size,
                "dimension": r.dimension,
                "codimension": r.codimension,
                "verdict": r.verdict.tag,
                "minimal_stable": r.minimal_stable,
                "maximal_unstable": r.maximal_unstable,
            }
            for r in records
        ]
        _emit(args, json.dumps(payload), out)
    else:
        lines = [f"{len(records)} matching records"]
        for r in records:
            lines.append(
                f"  key={r.key} dim={r.dimension} codim={r.codimension} "
                f"{r.verdict.tag} min={r.minimal_stable} max={r.maximal_unstable}"
            )
        _emit(args, "\n".join(lines), out)
    return 0


# every (command, atlas subcommand); argparse's required subparsers reject
# any other (exit 10)
_COMMANDS = {
    ("analyze", None): _cmd_analyze,
    ("witness", None): _cmd_witness,
    ("oracle", None): _cmd_oracle,
    ("canon", None): _cmd_canon,
    ("identities", None): _cmd_identities,
    ("atlas", "enumerate"): _atlas_enumerate,
    ("atlas", "classify"): _atlas_classify,
    ("atlas", "validate"): _atlas_validate,
    ("atlas", "query"): _atlas_query,
}


def dispatch(argv, out=None) -> int:
    """Parse argv, run the subcommand, and return the exit code."""
    out = out if out is not None else sys.stdout
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command, getattr(args, "atlas_command", None)](args, out)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except FileNotFoundError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (PatternFormatError, ValidationError) as exc:
        print(f"format error: {exc}", file=sys.stderr)
        return EXIT_FORMAT
    except CapabilityError as exc:
        print(f"capability error: {exc}", file=sys.stderr)
        return EXIT_CAPABILITY
    except SynthesisError as exc:
        print(f"synthesis error: {exc}", file=sys.stderr)
        return EXIT_SYNTHESIS
    except SparsestabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FORMAT


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
