"""End-to-end benchmark of the sparsestab decision pipeline.

    python3 bench/run.py --workload decide-small --seed 1 --seconds 30 --trace 0

Run from the repository root; the library is imported from ``src/``.  One
client drives the library in a closed loop in this process: an operation
starts when the previous one has returned.  A decide operation is
``classify(p, seed=0)`` followed by ``verify_certificate(verdict, p)``, so
its latency is the time to a verified verdict.  An atlas operation builds
the atlas file and reads it back; every record is re-verified after the
timed part.  The loop runs whole passes over the workload's inputs, in
order, for about ``--seconds`` of operation time (see closed_loop).
bench/README.md defines every metric.

With ``--trace 0`` the last line holds the end-to-end metrics.  With
``--trace 1`` the run makes one pass in which every window of inputs runs
once plainly and once with spans around every public library function,
and the last line holds the per-layer metrics derived from the spans; the
spans are written to ``.bench_work/``.  The process exits non-zero only on
a harness error; an operation whose verdict fails verification is counted
in ``failed``.
"""

from __future__ import annotations

import argparse
import collections
import dataclasses
import fractions
import gc
import json
import math
import os
import resource
import statistics
import sys
import time
import traceback

START = time.perf_counter()  # set-up time includes the library import

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")

SETUP_REPEATS = 3
TAIL_BEYOND = 10  # the tail percentile keeps at least this many inputs of a pass beyond it
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
ATLAS_QUERY = {"verdict": "unstable", "maximal_unstable": True}
# What reference() takes when the host runs at full speed; operation times
# are scaled to that speed (see scaled_seconds).
REFERENCE_NOMINAL_S = 0.00015

MIX = (
    "sink_rejected",
    "cycle_cover_rejected",
    "chain_certified",
    "oracle_find",
    "oracle_miss",  # Unknown that verifies: no chain exists and the oracle missed
    "unknown_unverified",  # Unknown that fails verification: a chain exists
    "other",  # a reason this harness does not know yet
    "raised",
)

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "decided_share": "share",
    "verified_share": "share",
}

CALLS_AND_SELF = (
    "patterns.canonical_form",
    "patterns.key_orbit",
    "graphs.check_scc_sink",
    "graphs.check_necessary",
    "graphs.find_nested_chain",
    "witness.synthesize_stable_witness",
    "numerics.leading_principal_minors",
    "numerics.spectral_abscissa",
    "verdict.classify",
    "verdict.oracle_search",
    "verdict.verify_certificate",
    "jsonio.verdict_to_dict",
)
SELF_ONLY = (
    "atlas.classify_atlas",
    "atlas.load_atlas",
    "atlas.validate_structure_theorem",
    "atlas.query_atlas",
)


def _per_layer_units() -> dict:
    units = {}
    for name in CALLS_AND_SELF:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units["graphs.find_nested_chain.found_ratio"] = "ratio"
    units["witness.synthesize_stable_witness.success_ratio"] = "ratio"
    units["verdict.oracle_search.found_ratio"] = "ratio"
    units["verdict.oracle_search.restarts"] = "count"
    units["verdict.oracle_search.s_per_restart"] = "s"
    units["verdict.verify_certificate.failed"] = "count"
    for name in SELF_ONLY:
        units[f"{name}.self_s"] = "s"
    units["atlas.unknown_retries"] = "count"
    units["atlas.file_bytes"] = "B"
    units["trace.overhead_share"] = "share"
    for kind in MIX:
        units[f"mix.{kind}"] = "share"
    return units


PER_LAYER = _per_layer_units()


@dataclasses.dataclass
class Outcome:
    """What one operation did, as the benchmark checked it."""

    seconds: float
    reference_s: float = 0.0  # reference() right after the operation
    verdicts: int = 0
    decided: int = 0
    verified: int = 0
    unsound: int = 0  # proofs (stable or unstable) that fail verification
    failed: bool = False
    mix: collections.Counter = dataclasses.field(default_factory=collections.Counter)
    build_s: float = 0.0
    read_s: float = 0.0
    file_bytes: int = 0


def import_library():
    sys.path.insert(0, SRC)
    try:
        import sparsestab
        import sparsestab.atlas
        import sparsestab.patterns
        import sparsestab.verdict
    except ImportError as exc:
        sys.exit(f"bench: cannot import sparsestab from {SRC}: {exc}")
    if not os.path.abspath(sparsestab.__file__).startswith(SRC + os.sep):
        sys.exit(f"bench: sparsestab was imported from {sparsestab.__file__}, not from {SRC}")
    return sparsestab


def clear_library_caches():
    """Drop the library's memoised tables so each set-up pays for them."""
    for name, module in list(sys.modules.items()):
        if module is None or not name.startswith("sparsestab"):
            continue
        for value in list(vars(module).values()):
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()


def category(verdict, ok: bool) -> str:
    reason = verdict.reason
    if reason in ("NoSink", "SccWithoutSink"):
        return "sink_rejected"
    if reason == "NoHamiltonianK":
        return "cycle_cover_rejected"
    if reason == "ChainFound":
        return "chain_certified"
    if reason == "OracleFound":
        return "oracle_find"
    if verdict.tag == "Unknown":
        return "oracle_miss" if ok else "unknown_unverified"
    return "other"


def is_proof(verdict) -> bool:
    return verdict.tag in ("ProvedStable", "ProvedUnstable")


class DecideWorkload:
    """Classify and verify seeded patterns; one operation per pattern."""

    def __init__(self, lib, make_inputs, ns, window):
        self.lib = lib
        self.make_inputs = make_inputs
        self.window = window
        self.warmup = [lib.SparsityPattern.full(n) for n in ns]

    def setup(self, seed):
        for p in self.warmup:
            self.check(self.run(p), 0.0)
        return self.make_inputs(seed)

    def run(self, p):
        verdict_module = self.lib.verdict  # resolved per call: tracing rebinds it
        verdict = verdict_module.classify(p, seed=0)
        return p, verdict, verdict_module.verify_certificate(verdict, p)

    def check(self, raw, seconds) -> Outcome:
        _, verdict, ok = raw
        kind = category(verdict, ok)
        return Outcome(
            seconds=seconds,
            verdicts=1,
            decided=int(verdict.tag != "Unknown"),
            verified=int(ok),
            unsound=int(is_proof(verdict) and not ok),
            failed=not ok,
            mix=collections.Counter({kind: 1}),
        )


class AtlasWorkload:
    """Build the complete atlas of order n into a file and read it back."""

    def __init__(self, lib, n, builds_per_pass):
        self.lib = lib
        self.n = n
        self.builds_per_pass = builds_per_pass
        self.window = min(10, builds_per_pass)
        self.path = os.path.join(WORK, f"atlas-n{n}-{os.getpid()}.jsonl")

    def setup(self, seed):
        # The atlas covers every pattern of order n; the seed has no inputs to
        # decide, and the library's own seed stays at its default.
        self.lib.patterns.key_orbit(self.n, 0)
        self.lib.verdict.classify(self.lib.SparsityPattern.full(self.n))
        return [None] * self.builds_per_pass

    def run(self, _):
        atlas = self.lib.atlas
        if os.path.exists(self.path):
            os.remove(self.path)
        start = time.perf_counter()
        records = atlas.classify_atlas(self.n, path=self.path)
        built = time.perf_counter()
        _, loaded = atlas.load_atlas(self.path)
        report = atlas.validate_structure_theorem(loaded, self.n)
        atlas.query_atlas(self.path, ATLAS_QUERY)
        read = time.perf_counter()
        return records, loaded, report, built - start, read - built

    def check(self, raw, seconds) -> Outcome:
        records, loaded, report, build_s, read_s = raw
        verify = self.lib.verdict.verify_certificate
        out = Outcome(seconds=seconds, build_s=build_s, read_s=read_s)
        out.file_bytes = os.path.getsize(self.path)
        for rec in records:
            try:
                ok = verify(rec.verdict, rec.pattern)
            except Exception:
                traceback.print_exc()
                ok = False
            out.verdicts += 1
            out.decided += rec.verdict.tag != "Unknown"
            out.verified += ok
            out.unsound += is_proof(rec.verdict) and not ok
            out.mix[category(rec.verdict, ok)] += 1
        covered = sum(rec.orbit_size for rec in records)
        gates = covered == 1 << (self.n * self.n) and report.all_passed and len(loaded) == len(records)
        out.unsound += not gates
        out.failed = out.verified < out.verdicts or not gates
        return out


def make_workloads(lib):
    import workloads

    return {
        "decide-small": lambda: DecideWorkload(lib, workloads.decide_small, workloads.SMALL_NS, window=48),
        "decide-large": lambda: DecideWorkload(lib, workloads.decide_large, workloads.LARGE_NS, window=30),
        "atlas-n3": lambda: AtlasWorkload(lib, 3, builds_per_pass=40),
        "atlas-n4": lambda: AtlasWorkload(lib, 4, builds_per_pass=1),
    }


def reference() -> float:
    """Seconds taken by a fixed sliver of interpreter work (ints, dicts, sets,
    fractions) that no library change can speed up or slow down.

    The collector is off while it runs, so garbage the operation before it
    left behind is collected in a later operation's time, not in this; and
    only the second of two runs counts, so the caches the operation left
    cold are warm again.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        _reference()
        return _reference()
    finally:
        if enabled:
            gc.enable()


def _reference() -> float:
    start = time.perf_counter()
    acc, counts, seen = 0, {}, set()
    for i in range(300):
        k = (i * 40503) & 1023
        acc ^= k << (i & 15)
        counts[k] = counts.get(k, 0) + 1
        seen.add((k, i & 7))
    total = fractions.Fraction(0)
    for i in range(1, 25):
        total += fractions.Fraction(i, i + 1)
    return time.perf_counter() - start


def host_factor(seconds_of_references: float, count: int) -> float:
    """How much slower than full speed the host ran the reference."""
    return seconds_of_references / count / REFERENCE_NOMINAL_S


def run_op(item, op, check) -> Outcome:
    """One closed-loop operation: ``op`` is timed, then reference() runs,
    then ``check``; neither of the latter counts as operation time."""
    start = time.perf_counter()
    try:
        raw, error = op(item), None
    except Exception as exc:  # counted as a failed operation, never dropped
        raw, error = None, exc
    seconds = time.perf_counter() - start
    reference_s = reference()
    if error is None:
        out = check(raw, seconds)
    else:
        traceback.print_exception(error)
        out = Outcome(seconds=seconds, verdicts=1, failed=True, mix=collections.Counter(raised=1))
    out.reference_s = reference_s
    return out


def closed_loop(workload, inputs, seconds) -> list[Outcome]:
    """Whole passes over the inputs in order, for about ``seconds`` of
    operation time: one pass, then another while the time spent plus half
    a pass stays below ``seconds``.  A run that ends on a pass boundary
    holds each input equally often, so ``failed`` over ``attempted`` is
    fixed by the seed and the program, not by where the clock stopped.
    Outcome k is that of input k mod len(inputs)."""
    outcomes, spent = [], 0.0
    while True:
        for item in inputs:
            out = run_op(item, workload.run, workload.check)
            outcomes.append(out)
            spent += out.seconds
        passes = len(outcomes) // len(inputs)
        if spent + spent / passes / 2 >= seconds:
            return outcomes


def tail_percentile(pass_size: int) -> float:
    """Highest ladder percentile with TAIL_BEYOND inputs of a pass beyond it."""
    fits = [q for q in TAIL_LADDER if pass_size * (100.0 - q) / 100.0 >= TAIL_BEYOND]
    return fits[-1] if fits else 100.0


def rank(q: float, count: int) -> int:
    """Index of the nearest-rank percentile q among ``count`` sorted values."""
    return max(0, math.ceil(q / 100.0 * count) - 1)


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[rank(q, len(ordered))]


def mix_shares(outcomes) -> dict:
    mix = collections.Counter()
    for o in outcomes:
        mix.update(o.mix)
    total = sum(mix.values()) or 1
    return {kind: mix[kind] / total for kind in MIX}


def scaled_seconds(outcomes, window) -> list[float]:
    """Each operation's time at full host speed.

    Other tenants of the host changed the speed of fixed Python work by up
    to 1.8x, for seconds to minutes at a time.  So the operations are cut
    into windows of ``window`` consecutive ones (the last takes the rest),
    and each window's times are divided by the host factor measured by the
    references that ran between its operations.
    """
    cuts = [i * window for i in range(max(1, len(outcomes) // window))] + [len(outcomes)]
    out = []
    for lo, hi in zip(cuts, cuts[1:]):
        factor = host_factor(sum(o.reference_s for o in outcomes[lo:hi]), hi - lo)
        out.extend(o.seconds / factor for o in outcomes[lo:hi])
    return out


def end_to_end(outcomes, setup_s, pass_size, window) -> tuple[dict, dict]:
    """Timings of one pass at full host speed; shares over the first pass.

    Set-up is divided by the host factor of the whole run: a set-up takes
    a fraction of a second, and references right before and after one told
    host speeds apart by up to 2x, so only the long view is steady.

    An input's latency is the mean of its operations' scaled times in the
    run.  Throughput is the pass's inputs over the sum of their latencies,
    which is the run's operations over its scaled time, as closed_loop
    runs whole passes.  The median
    and the tail are taken over the pass's input latencies.  The first pass
    holds each input once (later passes repeat its verdicts).
    """
    scaled = scaled_seconds(outcomes, window)
    per_input = [statistics.fmean(scaled[i::pass_size]) for i in range(pass_size)]
    tail_pct = tail_percentile(pass_size)
    first = outcomes[:pass_size]
    verdicts = sum(o.verdicts for o in first)
    latencies = [o.seconds for o in outcomes]
    run_factor = host_factor(sum(o.reference_s for o in outcomes), len(outcomes))
    metrics = {
        "setup_s": setup_s / run_factor,
        "ops_per_s": pass_size / sum(per_input),
        "latency_p50_ms": 1000 * statistics.median(per_input),
        "latency_tail_ms": 1000 * percentile(per_input, tail_pct),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "decided_share": sum(o.decided for o in first) / verdicts,
        "verified_share": sum(o.verified for o in first) / verdicts,
    }
    extra = {
        "latency_tail_percentile": tail_pct,
        "latency_tail_inputs_beyond": pass_size - 1 - rank(tail_pct, pass_size),
        "passes": len(outcomes) / pass_size,
        "host_factor": run_factor,
        "run_setup_s": setup_s,
        "run_ops_per_s": len(outcomes) / sum(latencies),
        "run_latency_p50_ms": 1000 * statistics.median(latencies),
        "run_latency_tail_ms": 1000 * percentile(latencies, tail_pct),
        "failed_share": sum(o.failed for o in first) / len(first),
        "verdicts": verdicts,
    }
    if any(o.build_s for o in outcomes):
        extra["atlas_build_s"] = statistics.median(o.build_s for o in outcomes)
        extra["atlas_read_s"] = statistics.median(o.read_s for o in outcomes)
    return metrics, extra


def span_outcomes(lib) -> dict:
    """What to record from a call's result; lenient, so an API change in
    the library reads as a missing count rather than a failed operation."""
    default_restarts = lib.verdict.EngineConfig().oracle_restarts

    def classify_retry(args, kwargs, _):
        config = args[1] if len(args) > 1 else kwargs.get("config")
        restarts = getattr(config, "oracle_restarts", default_restarts)
        return "retry" if restarts > default_restarts else None

    return {
        "graphs.find_nested_chain": lambda a, k, r: r is not None,
        "witness.synthesize_stable_witness": lambda a, k, r: True,
        "verdict.oracle_search": lambda a, k, r: [
            getattr(r, "found", False),
            getattr(r, "restarts_used", 0),
        ],
        "verdict.verify_certificate": lambda a, k, r: bool(r),
        "verdict.classify": classify_retry,
    }


def per_layer(summary, overhead, outcomes) -> dict:
    from tracing import RAISED

    empty = {"calls": 0, "self_s": 0.0, "outcomes": []}

    def entry(name):
        return summary.get(name, empty)

    def share(name, predicate):
        e = entry(name)
        return sum(1 for o in e["outcomes"] if predicate(o)) / e["calls"] if e["calls"] else 0.0

    values = {}
    for name in CALLS_AND_SELF:
        values[f"{name}.calls"] = entry(name)["calls"]
        values[f"{name}.self_s"] = entry(name)["self_s"]
    for name in SELF_ONLY:
        values[f"{name}.self_s"] = entry(name)["self_s"]
    values["graphs.find_nested_chain.found_ratio"] = share("graphs.find_nested_chain", lambda o: o is True)
    values["witness.synthesize_stable_witness.success_ratio"] = share(
        "witness.synthesize_stable_witness", lambda o: o is True
    )
    oracle = entry("verdict.oracle_search")
    values["verdict.oracle_search.found_ratio"] = share(
        "verdict.oracle_search", lambda o: o != RAISED and o[0]
    )
    restarts = sum(o[1] for o in oracle["outcomes"] if o != RAISED)
    values["verdict.oracle_search.restarts"] = restarts
    values["verdict.oracle_search.s_per_restart"] = oracle["self_s"] / restarts if restarts else 0.0
    values["verdict.verify_certificate.failed"] = sum(
        1 for o in entry("verdict.verify_certificate")["outcomes"] if o is not True
    )
    values["atlas.unknown_retries"] = sum(1 for o in entry("verdict.classify")["outcomes"] if o == "retry")
    values["atlas.file_bytes"] = max((o.file_bytes for o in outcomes), default=0)
    values["trace.overhead_share"] = overhead
    for kind, value in mix_shares(outcomes).items():
        values[f"mix.{kind}"] = value
    return values


def report(metrics: dict, units: dict, correct: bool, outcomes) -> None:
    result = {
        "correct": correct,
        "attempted": len(outcomes),
        "failed": sum(o.failed for o in outcomes),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    lib = import_library()
    import_s = time.perf_counter() - START
    factories = make_workloads(lib)
    if args.workload not in factories:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(factories)}")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    os.makedirs(WORK, exist_ok=True)

    workload = factories[args.workload]()
    setups = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        clear_library_caches()
        inputs = workload.setup(args.seed)
        setups.append(time.perf_counter() - start)
    setup_s = import_s + statistics.median(setups)  # scaled by end_to_end

    try:
        if args.trace:
            return traced_run(lib, workload, inputs, args)
        outcomes = closed_loop(workload, inputs, args.seconds)
        metrics, extra = end_to_end(outcomes, setup_s, len(inputs), workload.window)
        print(f"workload {args.workload} seed {args.seed}: {len(outcomes)} operations, "
              f"{len(inputs)} per pass")
        for name, unit in END_TO_END.items():
            print(f"  {name:24s} {metrics[name]:14.6f} {unit}")
        for name, value in extra.items():
            print(f"  {name:24s} {value:14.6f}")
        for kind, value in mix_shares(outcomes[: len(inputs)]).items():
            print(f"  mix.{kind:20s} {value:14.6f} share")
        report(metrics, END_TO_END, not any(o.unsound for o in outcomes), outcomes)
        return 0
    finally:
        if isinstance(workload, AtlasWorkload) and os.path.exists(workload.path):
            os.remove(workload.path)


def traced_run(lib, workload, inputs, args) -> int:
    """Each window of inputs once without and once with spans, so host
    speed changes hit both sides of the overhead alike."""
    import tracing

    tracer = tracing.Tracer()
    outcomes = span_outcomes(lib)
    traced_op = tracer.wrap("bench.op", workload.run)

    def untraced_check(raw, seconds):
        tracer.active = False
        try:
            return workload.check(raw, seconds)
        finally:
            tracer.active = True

    untraced, traced = [], []
    for i in range(0, len(inputs), workload.window):
        window = inputs[i : i + workload.window]
        untraced.extend(run_op(item, workload.run, workload.check) for item in window)
        restore = tracing.instrument(tracer, outcomes)
        try:
            traced.extend(run_op(item, traced_op, untraced_check) for item in window)
        finally:
            restore()
    overhead = sum(o.seconds for o in traced) / sum(o.seconds for o in untraced) - 1
    values = per_layer(tracing.summarize(tracer.spans), overhead, traced)
    spans_path = os.path.join(WORK, f"spans-{args.workload}-seed{args.seed}.jsonl")
    tracer.write(spans_path)
    print(f"workload {args.workload} seed {args.seed}: {len(traced)} traced operations, "
          f"{len(tracer.spans)} spans written to {os.path.relpath(spans_path, ROOT)}")
    for name, unit in PER_LAYER.items():
        print(f"  {name:52s} {values[name]:14.6f} {unit}")
    report(values, PER_LAYER, not any(o.unsound for o in untraced + traced), untraced + traced)
    return 0


if __name__ == "__main__":
    sys.exit(main())
