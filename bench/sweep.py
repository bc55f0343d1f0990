"""Run the benchmark at many seeds and summarise medians and spreads.

    python3 bench/sweep.py --seeds 1-10 --out bench/baseline.json
    python3 bench/sweep.py --seeds 11-15 --workloads decide-large

For each workload: one untraced run per seed, then one traced run at the
first seed, each as long as BENCHMARK.json's run_seconds.  For every
end-to-end metric the summary holds the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread, the distance
between the quartiles as a share of the median.  ``--atlas-n4``
adds one untraced and one traced run of the n=4 atlas, which takes minutes.
Runs are sequential, one process at a time.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 900


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    start = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    wall_s = time.monotonic() - start
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    extra = {}
    for line in lines[1:-1]:
        fields = line.split()
        if len(fields) >= 2 and fields[0] not in result["metrics"]:
            extra[fields[0]] = float(fields[1])
    result["extra"] = extra
    result["seed"] = seed
    result["wall_s"] = wall_s
    return result


def summarise(runs: list[dict]) -> dict:
    out = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median, median, median)
        out[name] = {
            "unit": runs[0]["metrics"][name]["unit"],
            "median": median,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / median if median else None,
        }
    return out


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10", help="a range like 1-10 or a list like 3,5,8")
    parser.add_argument("--workloads", nargs="+")
    parser.add_argument("--atlas-n4", action="store_true")
    parser.add_argument("--out")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    seeds = parse_seeds(args.seeds)

    import numpy

    report = {
        "machine": {
            "cpus": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "platform": platform.platform(),
        },
        "seconds": seconds,
        "seeds": seeds,
        "workloads": {},
    }
    for workload in workloads:
        runs = []
        for seed in seeds:
            runs.append(run_once(workload, seed, seconds, 0))
            print(f"{workload} seed {seed}: {json.dumps(runs[-1]['metrics'])}", flush=True)
        summary = summarise(runs)
        traced = run_once(workload, seeds[0], seconds, 1)
        report["workloads"][workload] = {"summary": summary, "runs": runs, "traced": traced}
        for name, s in summary.items():
            print(f"  {name:18s} median {s['median']:.6g} {s['unit']}  spread {s['spread']}")
    if args.atlas_n4:
        report["workloads"]["atlas-n4"] = {
            "runs": [run_once("atlas-n4", seeds[0], seconds, 0)],
            "traced": run_once("atlas-n4", seeds[0], seconds, 1),
        }
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
