"""Tests of the benchmark harness itself: python3 -m pytest bench -q"""

import gc
import json
import os
import random
import sys
import types

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from sparsestab import canonical_form, graphs, verdict  # noqa: E402


def _free_sets(patterns):
    return [(p.n, sorted(p.free)) for p in patterns]


def test_same_seed_same_patterns():
    assert _free_sets(workloads.decide_small(7)[:36]) == _free_sets(workloads.decide_small(7)[:36])
    assert _free_sets(workloads.decide_large(7)) == _free_sets(workloads.decide_large(7))


def test_different_seed_different_patterns():
    assert _free_sets(workloads.decide_small(7)[:36]) != _free_sets(workloads.decide_small(8)[:36])
    assert _free_sets(workloads.decide_large(7)) != _free_sets(workloads.decide_large(8))


def test_workload_shapes():
    small = workloads.decide_small(1)
    blocks = workloads.SMALL_BLOCKS
    assert len(small) == blocks * 12
    assert sorted(p.n for p in small) == sorted(list(workloads.SMALL_NS) * 3 * blocks)
    rejected = sum(not workloads.every_component_has_loop(p.n, p.free) for p in small)
    assert rejected == blocks * 8
    large = workloads.decide_large(1)
    rare = workloads.LARGE_FINDS * len(workloads.LARGE_NS) + workloads.LARGE_MISSES
    assert len(large) == workloads.LARGE_DRAWN * len(workloads.LARGE_NS) + rare
    assert all(workloads.every_component_has_loop(p.n, p.free) for p in large)


def test_seeds_relabel_the_same_corpus():
    a, b = workloads.decide_small(7)[:36], workloads.decide_small(8)[:36]
    key = lambda p: canonical_form(p).canonical.bitkey()  # noqa: E731
    assert sorted(map(key, a)) == sorted(map(key, b))


def test_seeds_share_the_synthesis_failures_of_the_large_corpus():
    corpus = workloads.large_corpus()
    rare = _free_sets(corpus["finds"] + corpus["misses"])
    pool = _free_sets(p for n in workloads.LARGE_NS for p in corpus["chain"][n])
    for seed in (7, 8):
        drawn = _free_sets(workloads.decide_large(seed))
        assert all(p in drawn for p in rare)
        assert all(p in pool or p in rare for p in drawn)
    assert [len(corpus["chain"][n]) for n in workloads.LARGE_NS] == [workloads.LARGE_POOL] * 3


def test_large_corpus_holds_chain_patterns():
    corpus = workloads.large_corpus()
    for p in corpus["chain"][10][:3] + corpus["finds"] + corpus["misses"]:
        assert workloads.pattern_from_key(p.n, workloads.pattern_key(p)) == p
        assert not graphs.check_scc_sink(p) and graphs.find_nested_chain(p) is not None


def test_sink_statement_matches_library():
    rng = random.Random(0)
    for _ in range(300):
        n = rng.randint(1, 7)
        p = workloads.random_pattern(rng, n, rng.uniform(0.1, 0.5))
        assert workloads.every_component_has_loop(n, p.free) == (not graphs.check_scc_sink(p))


def test_self_time_on_hand_built_tree():
    spans = [
        ["root", 0.0, 10.0, -1, None],
        ["a", 1.0, 3.0, 0, None],
        ["b", 2.0, 5.0, 0, None],  # overlaps a: the union [1, 5] counts once
        ["c", 8.0, 12.0, 0, None],  # ends after its parent: clipped to [8, 10]
        ["d", 1.5, 2.0, 1, None],
    ]
    assert tracing.self_times(spans) == [4.0, 1.5, 3.0, 4.0, 0.5]
    summary = tracing.summarize(spans + [["a", 20.0, 21.0, -1, True]])
    assert summary["a"]["calls"] == 2
    assert summary["a"]["self_s"] == 2.5
    assert summary["a"]["outcomes"] == [True]


def test_instrument_wraps_every_call_site_and_restores():
    original = graphs.find_nested_chain
    tracer = tracing.Tracer()
    restore = tracing.instrument(tracer, {"graphs.find_nested_chain": lambda a, k, r: r is not None})
    try:
        assert verdict.find_nested_chain is graphs.find_nested_chain is not original
        p = workloads.random_pattern(random.Random(3), 4, 0.6, loops=4)
        verdict.classify(p)
    finally:
        restore()
    assert verdict.find_nested_chain is graphs.find_nested_chain is original
    names = [span[tracing.NAME] for span in tracer.spans]
    assert names[0] == "verdict.classify"
    assert "graphs.check_scc_sink" in names and "graphs.find_nested_chain" in names
    assert tracer.spans[0][tracing.PARENT] == -1
    assert all(span[tracing.PARENT] >= 0 for span in tracer.spans[1:])


def test_tail_percentile_keeps_ten_inputs_of_a_pass_beyond():
    assert run.tail_percentile(40) == 75.0
    assert run.tail_percentile(199) == 90.0
    assert run.tail_percentile(576) == 95.0
    assert run.tail_percentile(1000) == 99.0
    assert run.tail_percentile(1) == 100.0
    values = [float(i) for i in range(1, 41)]
    assert run.percentile(values, 75.0) == 30.0
    assert run.percentile(values, 100.0) == 40.0


def test_timings_are_per_input_means_at_full_host_speed():
    nominal = run.REFERENCE_NOMINAL_S
    # a pass of two inputs taking 1 s and 3 s at full speed, run 2.5 times
    # in windows of two (the last takes the rest) on a host that turned
    # twice as slow after the first window
    runs = [(1, 1), (3, 1), (2, 2), (6, 2), (2, 2)]
    outcomes = [
        run.Outcome(seconds=s, reference_s=f * nominal, verdicts=1, decided=1, verified=1) for s, f in runs
    ]
    assert run.scaled_seconds(outcomes, window=2) == pytest.approx([1, 3, 1, 3, 1])
    metrics, extra = run.end_to_end(outcomes, setup_s=1.6, pass_size=2, window=2)
    assert metrics["ops_per_s"] == pytest.approx(2 / 4)  # the repeated first input does not tilt the mix
    assert metrics["latency_p50_ms"] == pytest.approx(2000.0)
    assert metrics["latency_tail_ms"] == pytest.approx(3000.0)
    assert metrics["setup_s"] == pytest.approx(1.0)  # over the run's host factor, 8 / 5
    assert extra["passes"] == 2.5 and extra["run_ops_per_s"] == 5 / 14


def test_closed_loop_runs_whole_passes(monkeypatch):
    # every operation takes 1 s, so a pass of three takes 3 s
    monkeypatch.setattr(run, "run_op", lambda item, op, check: run.Outcome(seconds=1.0, failed=item == "x"))
    inputs = ["x", "a", "b"]
    for seconds, passes in ((0.5, 1), (4.4, 1), (4.6, 2), (7.4, 2), (7.6, 3)):
        outcomes = run.closed_loop(types.SimpleNamespace(run=None, check=None), inputs, seconds)
        assert len(outcomes) == 3 * passes
        assert sum(o.failed for o in outcomes) == passes


def test_reference_runs_without_the_collector():
    phases = []
    callback = lambda phase, info: phases.append(phase)  # noqa: E731
    thresholds = gc.get_threshold()
    gc.callbacks.append(callback)
    gc.set_threshold(1)  # any allocation of a container would start a collection
    try:
        run.reference()
    finally:
        gc.set_threshold(*thresholds)
        gc.callbacks.remove(callback)
    assert phases == [] and gc.isenabled()


def test_a_raising_operation_is_counted_as_failed():
    def raises(_):
        raise RuntimeError("boom")

    outcomes = [run.run_op(item, raises, check=None) for item in (1, 2)]
    assert [(o.failed, dict(o.mix)) for o in outcomes] == [(True, {"raised": 1})] * 2
    assert all(o.reference_s > 0 for o in outcomes)


def test_benchmark_json_lists_the_metrics_the_harness_prints():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} <= {"decide-small", "decide-large", "atlas-n3", "atlas-n4"}
