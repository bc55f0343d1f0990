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
    _record_to_dict,
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
    REASONS,
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


# every flag a command can take, with its add_argument settings
_FLAGS = {
    "pattern_file": {},
    "-n": {"type": int, "required": True},
    "--n": {"type": int, "default": 4},
    "--trials": {"type": int, "default": 100},
    "--atlas": {"help": "atlas file path"},
    "--min-dim": {"type": int},
    "--max-codim": {"type": int},
    "--verdict": {"choices": ("stable", "unstable", "unknown")},
    "--minimal-stable": {"action": "store_true"},
    "--maximal-unstable": {"action": "store_true"},
    "--seed": {"type": int, "default": 0, "help": "master random seed"},
    "--restarts": {"type": int, "default": EngineConfig.oracle_restarts, "help": "oracle restarts"},
    "--steps": {"type": int, "default": EngineConfig.oracle_steps, "help": "oracle steps per restart"},
    "--format": {"choices": ("text", "json"), "default": "text"},
    "--out": {"help": "write output to this path instead of stdout"},
}


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


def _analyze(args):
    p = _load_pattern(args.pattern_file)
    verdict = classify(p, _config(args), args.seed)
    lines = [f"pattern: {p.describe()}", f"verdict: {verdict.tag} ({verdict.reason})"]
    lines += REASONS[verdict.reason].lines(verdict.evidence)
    code = {PROVED_STABLE: EXIT_STABLE, PROVED_UNSTABLE: EXIT_UNSTABLE}.get(verdict.tag, EXIT_UNKNOWN)
    return code, jsonio.verdict_to_dict(verdict), lines


def _witness(args):
    p = _load_pattern(args.pattern_file)
    chain = find_nested_chain(p)
    if chain is None:
        return EXIT_UNKNOWN, None, ["no nested chain: the pattern is not chain-certifiably stable"]
    cert = synthesize_stable_witness(p, seed=args.seed, chain=chain)
    lines = [
        f"pattern: {p.describe()}",
        f"ordering: {list(cert.ordering)}",
        f"stabilizer: {[float(x) for x in cert.stabilizer]}",
        f"abscissa: {spectral_abscissa(cert.stabilized_matrix()):.6g}",
    ]
    return EXIT_STABLE, jsonio.certificate_to_dict(cert), lines


def _oracle(args):
    p = _load_pattern(args.pattern_file)
    result = oracle_search(p, _config(args), args.seed)
    if result.found:
        lines = [
            f"found Hurwitz matrix after {result.restarts_used} restarts, "
            f"abscissa {result.best_abscissa:.6g}",
            str(np.round(result.matrix, 6)),
        ]
    else:
        lines = [
            f"no Hurwitz matrix found ({result.restarts_used} restarts, "
            f"best abscissa {result.best_abscissa:.6g}); this proves nothing"
        ]
    code = EXIT_STABLE if result.found else EXIT_UNKNOWN
    return code, jsonio._oracle_to_dict(result, p), lines


def _canon(args):
    info = canonical_form(_load_pattern(args.pattern_file))
    relabeling = list(info.relabeling.mapping)
    value = {
        "canonical": jsonio.pattern_to_dict(info.canonical),
        "orbit_size": info.orbit_size,
        "relabeling": relabeling,
        "transposed": info.transposed,
    }
    lines = [
        f"orbit size {info.orbit_size}, relabeling {relabeling}, transposed {info.transposed}",
        serialize_pattern(info.canonical).rstrip(),
    ]
    return 0, value, lines


def _identities(args):
    # n < 1 has no matrices to check and trials < 1 would pass vacuously
    if args.n < 1 or args.trials < 1:
        raise _UsageError(
            f"identities needs --n >= 1 and --trials >= 1, not {args.n} and {args.trials}"
        )
    results = run_identity_suites(args.n, args.trials, args.seed)
    value = [{"suite": r.name, "trials": r.trials, "failures": r.failures} for r in results]
    lines = [f"{r.name:<18} n={args.n} checks={r.trials} failures={r.failures}" for r in results]
    return 0 if all(r.ok for r in results) else 1, value, lines


def _atlas_enumerate(args):
    rows = [
        {"pattern": jsonio.pattern_to_dict(p), "orbit_size": orbit_size}
        for p, orbit_size in enumerate_patterns(args.n)
    ]
    total = sum(row["orbit_size"] for row in rows)
    line = f"{len(rows)} orbit representatives covering {total} raw patterns at n={args.n}"
    return 0, {"representatives": rows, "raw_total": total}, [line]


def _atlas_classify(args):
    records = classify_atlas(args.n, _config(args), seed=args.seed, path=args.atlas)
    stable = sum(1 for r in records if r.verdict.tag == PROVED_STABLE)
    written = f"; written to {args.atlas}" if args.atlas else ""
    line = f"classified {len(records)} representatives at n={args.n} ({stable} stable){written}"
    return 0, None, [line]


def _atlas_validate(args):
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
    return 0 if report.all_passed and not failing else 1, None, lines


def _atlas_query(args):
    if not args.atlas:
        raise _UsageError("atlas query needs --atlas PATH")
    # each flag given, under its query_atlas field name
    query = {
        name: value
        for name in ("min_dim", "max_codim", "verdict", "minimal_stable", "maximal_unstable")
        if (value := getattr(args, name)) is not None and value is not False
    }
    records = query_atlas(args.atlas, query)
    lines = [f"{len(records)} matching records"] + [
        f"  key={r.key} dim={r.dimension} codim={r.codimension} "
        f"{r.verdict.tag} min={r.minimal_stable} max={r.maximal_unstable}"
        for r in records
    ]
    return 0, [_record_to_dict(r) for r in records], lines


# every (command, atlas subcommand): its handler and the flags it reads,
# each taken with --out; argparse rejects any other command or flag (exit
# 10).  A handler returns (exit code, JSON value, text lines) and prints
# nothing; only a command with a JSON value takes --format.
_COMMANDS = {
    ("analyze", None): (_analyze, "pattern_file --seed --restarts --steps --format"),
    ("witness", None): (_witness, "pattern_file --seed --format"),
    ("oracle", None): (_oracle, "pattern_file --seed --restarts --steps --format"),
    ("canon", None): (_canon, "pattern_file --format"),
    ("identities", None): (_identities, "--trials --n --seed --format"),
    ("atlas", "enumerate"): (_atlas_enumerate, "-n --format"),
    ("atlas", "classify"): (_atlas_classify, "-n --atlas --seed --restarts --steps"),
    ("atlas", "validate"): (_atlas_validate, "-n --atlas --seed --restarts --steps"),
    ("atlas", "query"): (
        _atlas_query,
        "--atlas --min-dim --max-codim --verdict --minimal-stable --maximal-unstable --format",
    ),
}


def _build_parser() -> _Parser:
    parser = _Parser(prog="sparsestab", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=TOOL_VERSION)
    sub = parser.add_subparsers(dest="command", required=True)
    atlas = None
    for (command, name), (_, flags) in _COMMANDS.items():
        if name is None:
            p = sub.add_parser(command)
        else:
            atlas = atlas or sub.add_parser(command).add_subparsers(dest="atlas_command", required=True)
            p = atlas.add_parser(name)
        for flag in flags.split() + ["--out"]:
            p.add_argument(flag, **_FLAGS[flag])
    return parser


def dispatch(argv, out=None) -> int:
    """Parse argv, run the subcommand, print its JSON value under
    --format json and its text lines otherwise, to --out or ``out``
    (stdout by default), and return the exit code."""
    try:
        args = _build_parser().parse_args(argv)
        handler = _COMMANDS[args.command, getattr(args, "atlas_command", None)][0]
        code, value, lines = handler(args)
        if getattr(args, "format", "text") == "json":
            text = json.dumps(value, sort_keys=True)
        else:
            text = "\n".join(lines)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        else:
            print(text, file=out if out is not None else sys.stdout)
        return code
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
