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
