"""Steadiness check: run one workload repeatedly and report the spread.

    python3 e2ebench/steadiness.py --workload sat_sweep --runs 10 --first-seed 1

Runs ``e2ebench/run.py`` once per seed (``--first-seed`` .. + ``--runs`` - 1)
and prints, for every end-to-end metric, the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them), the inter-quartile
spread as a share of the median, and that spread as a share of the
metric's bound in ``BENCHMARK.json``; then the same figures, without a
bound, for the workload's reference figures.  Two sets of runs agree when
every spread is at most its bound; a metric resolves a regression of its
bound only when its spread stays well below it (the aim is a third of the
bound), and a comparison of a metric whose spread nears its bound is
unresolved.  The share of failed operations must be the same in every run.
Each run lasts ``run_seconds`` of ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload: str, seed: int, seconds: int) -> dict:
    started = time.perf_counter()
    completed = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=900,
    )
    if completed.returncode != 0:
        raise RuntimeError(f"seed {seed}: exit {completed.returncode}\n{completed.stderr[-2000:]}")
    lines = completed.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["details"] = json.loads(lines[-2].split(" ", 1)[1])
    result["wall_s"] = time.perf_counter() - started
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        benchmark = json.load(handle)
    bounds = {metric["name"]: metric["bound"] for metric in benchmark["end_to_end"]}
    seconds = benchmark["run_seconds"]
    results = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        result = run_once(args.workload, seed, seconds)
        results.append(result)
        details = result["details"]
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} calibration_ms={details['calibration_ms']} "
              f"host_steal_pct={details['host_steal_pct']} wall_s={result['wall_s']:.1f}",
              flush=True)
    shares = {r["failed"] / r["attempted"] for r in results}
    print(f"\n{args.workload}: {len(results)} runs, {seconds:g} s each; failed shares {sorted(shares)}; "
          f"all correct: {all(r['correct'] for r in results)}")
    print(f"{'metric':28s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s} "
          f"{'of bound':>8s}")
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, mid, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / mid
        bound = bounds[name]
        print(f"{name:28s} {mid:12.4f} {q1:12.4f} {q3:12.4f} {spread:8.1%} {bound:6.2f} "
              f"{spread / bound:8.1%}")
    for name in results[0]["details"]["reference"]:
        values = [r["details"]["reference"][name] for r in results]
        q1, mid, q3 = statistics.quantiles(values, n=4)
        print(f"{'(reference) ' + name:40s} {mid:12.4f} {q1:12.4f} {q3:12.4f} "
              f"{(q3 - q1) / mid:8.1%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
