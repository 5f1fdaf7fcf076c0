"""The repository benchmark: one command for every workload.

    python3 e2ebench/run.py --workload cli_batch --seed 1 --seconds 22 --trace 0

Builds the workload's inputs from ``--seed``, measures for ``--seconds``,
checks the program's outputs and prints, as its last line, one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: every end-to-end
metric of ``BENCHMARK.json`` with ``--trace 0``, every per-layer metric with
``--trace 1``.  The line before it (``details ...``) carries figures that
are not metrics: the host calibration loop, sample counts, tail
percentiles and the workload's reference medians.
See ``e2ebench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import common  # noqa: E402

WORKLOADS = ("cli_batch", "sat_sweep", "service_mix")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(common.SRC, "repro", "cli.py")):
        common.info(f"error: the program is missing: no {common.SRC}/repro/cli.py")
        return 2
    module = __import__(args.workload)
    work = common.make_workdir(args.workload)
    try:
        calibration_before = common.calibration_ms()
        ticks = common.cpu_ticks()
        result = module.run(work, args.seed, args.seconds, bool(args.trace))
        steal = common.steal_pct(ticks, common.cpu_ticks())
        calibration_after = common.calibration_ms()
    finally:
        common.remove_workdir(work)
    errors = result["errors"]
    for error in errors:
        common.info(f"check failed: {error}")
    for failure in result["failures"]:
        common.info(f"operation failed: {failure}")
    details = dict(result["details"], workload=args.workload, seed=args.seed,
                   calibration_ms=[round(calibration_before, 3), round(calibration_after, 3)],
                   host_steal_pct=round(steal, 2))
    metrics = {name: tuple(value) for name, value in result["metrics"].items()}
    declared = declared_metrics(bool(args.trace))
    units = {name: unit for name, (_, unit) in metrics.items()}
    if units != declared:
        common.info(f"error: metrics {units} differ from BENCHMARK.json {declared}")
        return 3
    common.emit(not errors, result["attempted"], result["failed"],
                {name: metrics[name] for name in declared}, details)
    return 0


def declared_metrics(trace: bool) -> dict[str, str]:
    """Name -> unit of every metric ``BENCHMARK.json`` declares for this
    mode, in its order."""
    with open(os.path.join(common.ROOT, "BENCHMARK.json")) as handle:
        benchmark = json.load(handle)
    return {metric["name"]: metric["unit"]
            for metric in benchmark["per_layer" if trace else "end_to_end"]}


if __name__ == "__main__":
    sys.exit(main())
