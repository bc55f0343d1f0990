"""One short run of the benchmark harness per workload kind, so a library
change that breaks what bench/run.py drives fails here and not only when
the benchmark runs."""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("workload", ["atlas-n3", "decide-large", "decide-small"])
def test_harness_run_is_correct(workload):
    argv = ["bench/run.py", "--workload", workload, "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(
        [sys.executable, *argv], cwd=ROOT, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, proc.stdout
    assert result["metrics"]["verified_share"]["value"] == 1.0


def test_traced_run_reports_every_layer():
    """A traced run reports every per-layer metric BENCHMARK.json names, and
    each layer decide-small drives is wrapped and called, so renaming a
    measured function or binding it where the tracer cannot reach fails
    here."""
    argv = ["bench/run.py", "--workload", "decide-small", "--seed", "1", "--seconds", "1", "--trace", "1"]
    proc = subprocess.run(
        [sys.executable, *argv], cwd=ROOT, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, proc.stdout
    metrics = result["metrics"]
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        names = [m["name"] for m in json.load(fh)["per_layer"]]
    assert [name for name in names if name not in metrics] == []
    uncalled = [name for name in names if name.endswith(".calls") and metrics[name]["value"] == 0]
    assert uncalled == ["patterns.key_orbit.calls", "jsonio.verdict_to_dict.calls"]
