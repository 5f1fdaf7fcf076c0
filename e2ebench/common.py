"""Shared plumbing: paths, statistics, the round runner and result output."""

from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: Scratch space for generated inputs; removed when a run ends.
WORK_ROOT = os.path.join(ROOT, ".e2ebench_work")
#: Set-ups timed per run for ``setup_s``: ``SETUP_BEFORE`` before the
#: measured window and the rest after it, so that the reported median spans
#: the host's state over the whole run rather than its first seconds.
SETUP_REPEATS = 9
SETUP_BEFORE = 5


def program_env() -> dict[str, str]:
    """Environment for processes that run the program from ``src/``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("PGSCHEMA_FAULTS", None)
    return env


def use_program() -> None:
    """Make ``import repro`` load the program from ``src/`` of this checkout."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def make_workdir(workload: str) -> str:
    path = os.path.join(WORK_ROOT, f"{workload}-{os.getpid()}")
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def remove_workdir(path: str) -> None:
    shutil.rmtree(path, ignore_errors=True)
    try:
        os.rmdir(WORK_ROOT)
    except OSError:
        pass  # another run still uses it


# --------------------------------------------------------------------------- #
# statistics
# --------------------------------------------------------------------------- #


def tail(values: list[float], percentile: int) -> tuple[float, int]:
    """The fixed *percentile* of *values* (linear interpolation between
    samples) and how many samples lie beyond it."""
    value = statistics.quantiles(values, n=100, method="inclusive")[percentile - 1]
    return value, sum(1 for v in values if v > value)


def calibration_ms() -> float:
    """A fixed pure-Python loop (median of 5): the host's speed right now.

    Printed with every run as a reference figure, so that a shift of the
    host can be told from a shift of the program.
    """
    samples = []
    for _ in range(5):
        started = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i % 7
        samples.append((time.perf_counter() - started) * 1000.0)
    return statistics.median(samples)


def cpu_ticks() -> tuple[int, int]:
    """(steal, total) jiffies of the whole machine from ``/proc/stat``."""
    with open("/proc/stat") as handle:
        fields = [int(value) for value in handle.readline().split()[1:]]
    return fields[7], sum(fields)


def steal_pct(before: tuple[int, int], after: tuple[int, int]) -> float:
    """Share of CPU time the hypervisor took from this machine in between:
    a reference figure for host drift, like the calibration loop."""
    total = after[1] - before[1]
    return 100.0 * (after[0] - before[0]) / total if total else 0.0


def peak_rss_mb() -> float:
    """High-water RSS of this process and of its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def proc_peak_rss_mb(pid: int) -> float:
    """``VmHWM`` of a live child process, in MB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


# --------------------------------------------------------------------------- #
# measurement
# --------------------------------------------------------------------------- #


def time_setup(argv: list[str], repeats: int, cwd: str) -> list[float]:
    """Wall seconds from spawning *argv* to its exit, *repeats* times."""
    samples = []
    for _ in range(repeats):
        started = time.perf_counter()
        completed = subprocess.run(
            argv, cwd=cwd, env=program_env(), stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, timeout=120,
        )
        samples.append(time.perf_counter() - started)
        if completed.returncode not in (0, 1):
            raise RuntimeError(
                f"set-up invocation failed ({completed.returncode}): "
                + completed.stderr.decode(errors="replace")[-400:]
            )
    return samples


def run_rounds(ops: list[dict], seconds: float, seed: int, execute,
               between=None, before_round=None, min_rounds: int = 1):
    """Run whole rounds of *ops*, each round in a fresh seeded order, until
    *seconds* have passed; the round in progress at the deadline is finished.

    ``execute(op)`` performs one operation and returns its duration in
    seconds (measured by the caller around the program call only);
    ``between(op)`` runs untimed before each operation and
    ``before_round(index)`` before each round.  Returns the
    ``(op, seconds, round index)`` samples and the number of rounds.
    """
    rng = random.Random(seed * 7919 + 17)
    samples: list[tuple[dict, float, int]] = []
    rounds = 0
    deadline = time.perf_counter() + seconds
    while rounds < min_rounds or time.perf_counter() < deadline:
        if before_round is not None:
            before_round(rounds)
        order = list(ops)
        rng.shuffle(order)
        for op in order:
            if between is not None:
                between(op)
            gc.collect()
            samples.append((op, execute(op), rounds))
        rounds += 1
    return samples, rounds


class CliRunner:
    """Runs ``pgschema`` in-process and keeps what each invocation printed.

    Every distinct invocation must print the same output each time it runs
    (reports are deterministic); the first output is kept for the checks.
    """

    def __init__(self, manifest: dict) -> None:
        use_program()
        from repro import cli

        self.cli = cli
        self.manifest = manifest
        self.outputs: dict[str, str] = {}
        self.codes: dict[str, int] = {}
        self.mismatched: list[str] = []
        self.failures: list[str] = []
        #: invocations that failed; the checks speak of the others
        self.failed: set[str] = set()

    def invoke(self, argv: list[str]) -> tuple[int, str]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.cli.main(argv)
        return code, out.getvalue() + err.getvalue()

    def execute(self, op: dict) -> float:
        started = time.perf_counter()
        code, output = self.invoke(op["argv"])
        elapsed = time.perf_counter() - started
        key = " ".join(op["argv"])
        if code not in (0, 1):
            self.failures.append(f"{key}: exit {code}: {output[-300:]}")
            self.failed.add(key)
            return elapsed
        self.codes.setdefault(key, code)
        if self.outputs.setdefault(key, output) != output:
            self.mismatched.append(key)
        return elapsed


def run_traced(ops: list[dict], seconds: float, seed: int, call, between=None, inspect=None):
    """Rounds of *ops* through the public-function path ``call(op)``,
    alternating traced (even) and untraced (odd) rounds.

    On traced rounds the program's spans and counters are switched on with
    ``repro.obs.install`` and a ``bench.op`` span wraps the call;
    ``inspect(op, outcome, observation)`` sees every outcome (observation
    is None on untraced rounds).  Returns the samples, the number of rounds
    and the per-layer figures per traced round, tracing overhead included.
    """
    import layers
    from repro import obs

    totals = layers.LayerTotals()
    state = {"traced": False}

    def before_round(index):
        state["traced"] = index % 2 == 0
        totals.rounds += state["traced"]

    def execute(op):
        observation = None
        if state["traced"]:
            observation = obs.install(obs.Tracer(), obs.MetricsRegistry())
        started = time.perf_counter()
        try:
            with obs.span("bench.op", kind=op["kind"]):
                outcome = call(op)
        finally:
            obs.uninstall()
        elapsed = time.perf_counter() - started
        if observation is not None:
            totals.add_spans(observation.tracer.events())
            totals.add_counters(observation.registry.snapshot())
        if inspect is not None:
            inspect(op, outcome, observation)
        return elapsed

    samples, rounds = run_rounds(ops, seconds, seed, execute, between, before_round,
                                 min_rounds=2)
    values = totals.per_round()
    values["obs.tracing_overhead_pct"] = overhead_pct(samples)
    return samples, rounds, values


def overhead_pct(samples) -> float:
    """Tracing overhead: median traced round time over median untraced
    round time, minus 1, in percent.  A sample is ``(op, seconds, round,
    ...)``; the rest of the tuple (a connection) also tells rounds apart,
    and even rounds are the traced ones."""
    time_by_round: dict[tuple, float] = {}
    for sample in samples:
        key = tuple(sample[2:])
        time_by_round[key] = time_by_round.get(key, 0.0) + sample[1]
    traced = [t for key, t in time_by_round.items() if key[0] % 2 == 0]
    plain = [t for key, t in time_by_round.items() if key[0] % 2 == 1]
    return (statistics.median(traced) / statistics.median(plain) - 1.0) * 100.0


def round_ms(samples) -> float:
    """Milliseconds for one round of the operation mix: the sum, over the
    round's distinct operations, of each one's median time.  A sample is
    ``(op, seconds, ...)``; an operation is its kind and input."""
    times: dict[tuple[str, str], list[float]] = {}
    for sample in samples:
        op = sample[0]
        times.setdefault((op["kind"], op["input"]), []).append(sample[1])
    return sum(statistics.median(values) for values in times.values()) * 1000.0


def p50_by_op(samples) -> dict[str, float]:
    """Median milliseconds of each distinct operation (a reference figure)."""
    times: dict[str, list[float]] = {}
    for op, elapsed, _ in samples:
        times.setdefault(f"{op['kind']}:{op['input']}", []).append(elapsed * 1000.0)
    return {key: round(statistics.median(values), 2) for key, values in sorted(times.items())}


def run_with_child(module_file: str, manifest: dict, seconds: float, trace: bool) -> dict:
    """``setup_s`` from fresh interpreters around the measuring child."""
    if trace:
        return run_child(module_file, manifest, seconds, trace)
    argv = [sys.executable, "-m", "repro.cli", *manifest["setup_argv"]]
    samples = time_setup(argv, SETUP_BEFORE, ROOT)
    result = run_child(module_file, manifest, seconds, trace)
    samples += time_setup(argv, SETUP_REPEATS - SETUP_BEFORE, ROOT)
    result["metrics"] = {"setup_s": [statistics.median(samples), "s"], **result["metrics"]}
    result["details"]["setup_samples_s"] = [round(s, 4) for s in samples]
    return result


def child_main(module) -> None:
    """Entry point of the measuring child: ``<module> MANIFEST SECONDS TRACE RESULT``."""
    manifest_path, seconds, trace, result_path = sys.argv[1:5]
    with open(manifest_path) as handle:
        manifest = json.load(handle)
    result = module.measure(manifest, float(seconds), trace == "1")
    with open(result_path, "w") as handle:
        json.dump(result, handle)


def run_child(module_file: str, manifest: dict, seconds: float, trace: bool) -> dict:
    """Run the measuring child for *manifest* and return its result."""
    work = manifest["work"]
    manifest_path = os.path.join(work, "manifest.json")
    result_path = os.path.join(work, "result.json")
    with open(manifest_path, "w") as handle:
        json.dump(manifest, handle)
    completed = subprocess.run(
        [sys.executable, module_file, manifest_path, repr(seconds), "1" if trace else "0",
         result_path],
        cwd=ROOT, env=program_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        timeout=seconds + 120,
    )
    if completed.returncode != 0:
        raise RuntimeError("measuring child failed: "
                           + completed.stderr.decode(errors="replace")[-2000:])
    with open(result_path) as handle:
        return json.load(handle)


# --------------------------------------------------------------------------- #
# output
# --------------------------------------------------------------------------- #


def info(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def emit(correct: bool, attempted: int, failed: int, metrics: dict[str, tuple[float, str]],
         details: dict) -> None:
    """Print the reference details, then the result object as the last line."""
    print("details " + json.dumps(details, sort_keys=True))
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result), flush=True)
