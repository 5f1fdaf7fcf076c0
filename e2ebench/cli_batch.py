"""Workload ``cli_batch``: the batch jobs users run from the shell.

In-process ``pgschema validate`` invocations over seeded JSON and JSONL
graphs of three paper schemas (conformant graphs and graphs with injected
violations; default flags plus a share with ``--engine parallel``,
``--backend columnar`` and ``--stream``), interleaved with ``pgschema cdc``
journal consumptions and checkpoint resumes.  Graph loading, the
validation kernels and the incremental/CDC path do the work here;
satisfiability does none.

One round is 19 invocations (9 default validates, 3 parallel, 2 columnar,
2 stream, 2 CDC consumptions, 1 resume) in a seeded order.  Every class
whose median is a metric has an odd number of inputs per round, so the
median falls inside one input's samples rather than between two.  The parent
process generates the inputs; a child process runs the program, so the
child's peak RSS is the program's.
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import sys
from collections import Counter

import common
import gen

SCHEMAS = ("user_session_edge_props", "library", "vehicles")
#: Fixed tail percentile of validate invocations (16 per round): 3.2 per
#: round lie beyond it, so it falls among the third- to fifth-dearest
#: invocations (two columnar, one stream), away from the two dearest, whose
#: cost moves most with the host.  It leaves at least 16 samples beyond it
#: in a run of 5 rounds.
TAIL_PERCENTILE = 80
CDC_SCHEMA = "user_session_edge_props"
#: Journals: (name, violation rate, commits).  The high journal ends 9
#: commits past its last checkpoint, the suffix a resume replays.
JOURNALS = (("low", 0.0, 64), ("high", 0.4, 137))
RESUME_PREFIX = 128
SMALL_SCALE = 0.1
#: Parallel inputs stay above the parallel engine's 4,096-element process
#: threshold, so ``--engine parallel`` fans out over a process pool.
LARGE_SCALE = 1.0 / 0.55


# --------------------------------------------------------------------------- #
# parent side: inputs
# --------------------------------------------------------------------------- #


def prepare(work: str, seed: int) -> dict:
    schemas = {}
    for name in SCHEMAS:
        path = os.path.join(work, f"{name}.graphql")
        with open(path, "w") as handle:
            handle.write(gen.corpus_sdl(name))
        schemas[name] = path
    inputs = {}

    def add(key, schema, doc, fmt):
        path = os.path.join(work, f"{key}.{fmt}")
        (doc.write_json if fmt == "json" else doc.write_jsonl)(path)
        inputs[key] = {"schema": schemas[schema], "graph": path, "elements": len(doc),
                       "expected": [[rule, list(elems)] for rule, elems in doc.expected]}

    for index, name in enumerate(SCHEMAS):
        base = seed * 1000 + index * 10
        add(f"{name}.conf", name, gen.graph_for(name, base, 1.0, False), "json")
        add(f"{name}.viol", name, gen.graph_for(name, base + 1, 1.0, True), "json")
        add(f"{name}.violl", name, gen.graph_for(name, base + 2, 1.0, True), "jsonl")
        add(f"{name}.small", name, gen.graph_for(name, base + 3, SMALL_SCALE, True), "json")
        add(f"{name}.smalll", name, gen.graph_for(name, base + 4, SMALL_SCALE, True), "jsonl")

    add("user_session_edge_props.large", "user_session_edge_props",
        gen.graph_for("user_session_edge_props", seed * 1000 + 5, LARGE_SCALE, True), "json")

    def validate_op(kind, key, *flags):
        item = inputs[key]
        return {"kind": kind, "input": key, "elements": item["elements"],
                "argv": ["validate", item["schema"], item["graph"], *flags]}

    ops = []
    for name in SCHEMAS:
        ops.append(validate_op("validate", f"{name}.conf"))
        ops.append(validate_op("validate", f"{name}.viol"))
        ops.append(validate_op("validate", f"{name}.violl"))
    ops.append(validate_op("parallel", "user_session_edge_props.large", "--engine", "parallel"))
    ops.append(validate_op("parallel", "library.conf", "--engine", "parallel"))
    ops.append(validate_op("parallel", "vehicles.viol", "--engine", "parallel"))
    ops.append(validate_op("columnar", "vehicles.violl", "--backend", "columnar"))
    ops.append(validate_op("columnar", "user_session_edge_props.violl", "--backend", "columnar"))
    ops.append(validate_op("stream", "library.violl", "--stream"))
    ops.append(validate_op("stream", "user_session_edge_props.violl", "--stream"))

    journals = {}
    for index, (name, rate, commits) in enumerate(JOURNALS):
        journal = gen.session_journal(seed * 1000 + 500 + index, 300, 600, commits, 30, rate)
        paths = {key: os.path.join(work, f"cdc_{name}_{key}") for key in
                 ("base.json", "journal.jsonl", "final.json", "ckpt", "events.jsonl")}
        journal.base_doc.write_json(paths["base.json"])
        journal.write(paths["journal.jsonl"])
        with open(paths["final.json"], "w") as handle:
            json.dump(journal.final_graph(), handle)
        journals[name] = dict(paths, commits=commits)
        ops.append({"kind": "cdc", "input": name, "commits": commits,
                    "argv": cdc_argv(schemas[CDC_SCHEMA], paths)})
        if name == "high":
            prefix = os.path.join(work, "cdc_high_prefix.jsonl")
            journal.write(prefix, RESUME_PREFIX)
            journals[name]["prefix"] = prefix
            resume = {key: os.path.join(work, f"cdc_resume_{key}") for key in
                      ("ckpt", "events.jsonl")}
            resume["base.json"], resume["journal.jsonl"] = paths["base.json"], paths["journal.jsonl"]
            journals["resume"] = resume
            ops.append({"kind": "resume", "input": "high", "commits": commits - RESUME_PREFIX,
                        "argv": cdc_argv(schemas[CDC_SCHEMA], resume) + ["--resume"]})
    first = inputs[f"{SCHEMAS[0]}.conf"]
    return {"workload": "cli_batch", "work": work, "seed": seed, "ops": ops,
            "inputs": inputs, "journals": journals, "schemas": schemas,
            "setup_argv": ["validate", first["schema"], first["graph"]]}


def cdc_argv(schema: str, paths: dict) -> list[str]:
    return ["cdc", schema, paths["journal.jsonl"], "--graph", paths["base.json"],
            "--checkpoint-dir", paths["ckpt"], "--checkpoint-every", "16",
            "--events-json", paths["events.jsonl"]]


# --------------------------------------------------------------------------- #
# child side: the program runs here
# --------------------------------------------------------------------------- #


class Runner(common.CliRunner):
    def __init__(self, manifest: dict) -> None:
        super().__init__(manifest)
        self._make_resume_template()

    def _make_resume_template(self) -> None:
        """Checkpoint the journal prefix once; each resume starts from a copy."""
        high = self.manifest["journals"]["high"]
        template = os.path.join(self.manifest["work"], "resume_template")
        paths = {"journal.jsonl": high["prefix"], "base.json": high["base.json"],
                 "ckpt": os.path.join(template, "ckpt"),
                 "events.jsonl": os.path.join(template, "events.jsonl")}
        os.makedirs(template, exist_ok=True)
        code, _ = self.invoke(cdc_argv(self.manifest["schemas"][CDC_SCHEMA], paths))
        if code not in (0, 1):
            raise RuntimeError("could not checkpoint the resume template")
        self.template = paths

    def reset(self, op: dict) -> None:
        """Untimed: give a resume a fresh copy of the checkpoint template."""
        if op["kind"] != "resume":
            return
        resume = self.manifest["journals"]["resume"]
        shutil.rmtree(resume["ckpt"], ignore_errors=True)
        shutil.copytree(self.template["ckpt"], resume["ckpt"])
        shutil.copyfile(self.template["events.jsonl"], resume["events.jsonl"])

    # -- the public functions behind the CLI, for the traced run -------- #

    def public(self, op: dict) -> str:
        """Run *op* through the public functions ``pgschema`` calls, with a
        benchmark span around each; returns the report summary line."""
        from repro import obs
        from repro.pg import load_graph
        from repro.pg.io import load_graph_jsonl
        from repro.schema import parse_schema
        from repro.validation import CDCConsumer, ParallelValidator, StreamValidator, validate

        argv = op["argv"]
        with obs.span("bench.parse_schema"):
            with open(argv[1]) as handle:
                schema = parse_schema(handle.read())
        if op["kind"] in ("cdc", "resume"):
            paths = dict(zip(argv[3::2], argv[4::2]))
            with obs.span("bench.load_graph"), open(paths["--graph"]) as handle:
                base = load_graph(handle)
            consumer = CDCConsumer(schema, argv[2], base_graph=base,
                                   checkpoint_dir=paths["--checkpoint-dir"], checkpoint_every=16,
                                   events_path=paths["--events-json"])
            with obs.span("bench.CDCConsumer.run"):
                result = consumer.run(resume=op["kind"] == "resume")
            return result.report.summary()
        path = argv[2]
        if op["kind"] == "stream":
            with obs.span("bench.StreamValidator.validate"):
                return StreamValidator(schema).validate(path, mode="strong").summary()
        with obs.span("bench.load_graph"), open(path) as handle:
            if path.endswith(".jsonl"):
                backend = "columnar" if op["kind"] == "columnar" else "dict"
                graph = load_graph_jsonl(handle, source=path, backend=backend)
            else:
                graph = load_graph(handle)
        if op["kind"] == "parallel":
            with obs.span("bench.ParallelValidator.validate"):
                return ParallelValidator(schema).validate(graph, mode="strong").summary()
        with obs.span("bench.validate"):
            return validate(schema, graph).summary()


VALIDATE_KINDS = ("validate", "parallel", "columnar", "stream")


def measure(manifest: dict, seconds: float, trace: bool) -> dict:
    runner = Runner(manifest)
    ops = manifest["ops"]
    if trace:
        return traced(runner, ops, seconds, manifest["seed"])
    seen = set()
    for op in ops:  # warm-up: one invocation per kind, untimed
        if op["kind"] not in seen:
            seen.add(op["kind"])
            runner.reset(op)
            runner.execute(op)
    samples, rounds = common.run_rounds(ops, seconds, manifest["seed"], runner.execute,
                                        runner.reset)
    rss = common.peak_rss_mb()
    by_kind: dict[str, list[float]] = {}
    for op, elapsed, _ in samples:
        by_kind.setdefault(op["kind"], []).append(elapsed)
    validates = [(op, t) for op, t, _ in samples if op["kind"] in VALIDATE_KINDS]
    tail_ms, beyond = common.tail([t * 1000 for _, t in validates], TAIL_PERCENTILE)
    cdc = [(op, t) for op, t, _ in samples if op["kind"] == "cdc"]
    metrics = {
        "peak_rss_mb": (rss, "MB"),
        "tail_ms": (tail_ms, "ms"),
        "main_p50_ms": (statistics.median(by_kind["validate"]) * 1000, "ms"),
        "round_ms": (common.round_ms(samples), "ms"),
    }
    reference = {
        "elements_per_s": sum(op["elements"] for op, _ in validates)
        / sum(t for _, t in validates),
        "validate_parallel_p50_ms": statistics.median(by_kind["parallel"]) * 1000,
        "commits_per_s": sum(op["commits"] for op, _ in cdc) / sum(t for _, t in cdc),
        "cdc_resume_p50_ms": statistics.median(by_kind["resume"]) * 1000,
    }
    errors = check(runner, manifest)
    return {"metrics": metrics, "attempted": len(samples), "failed": len(runner.failures),
            "errors": errors, "failures": runner.failures[:5],
            "details": {"rounds": rounds, "tail_percentile": TAIL_PERCENTILE,
                        "tail_samples": len(validates), "tail_beyond": beyond,
                        "samples": {k: len(v) for k, v in sorted(by_kind.items())},
                        "reference": {k: round(v, 3) for k, v in reference.items()},
                        "p50_ms_by_op": common.p50_by_op(samples)}}


def traced(runner: Runner, ops: list[dict], seconds: float, seed: int) -> dict:
    """Traced run of the public-function path.

    A first untimed round through ``pgschema`` gives the outputs the
    correctness checks and the public path are compared with.
    """
    import layers

    for op in ops:
        runner.reset(op)
        runner.execute(op)
    transitions = {"low": [], "high": []}
    standing = {"low": [], "high": []}
    gauges: dict[str, float] = {}
    errors: list[str] = []

    def inspect(op, summary, observation):
        lines = runner.outputs[" ".join(op["argv"])].splitlines()
        expected = lines[-1] if op["kind"] in ("cdc", "resume") else lines[0]
        if summary != expected:
            errors.append(f"public path summary {summary!r} != pgschema {expected!r}")
        if observation is None:
            return
        gauges.update(observation.registry.snapshot()["gauges"])
        if op["kind"] == "cdc":
            transitions[op["input"]].extend(
                layers.cdc_transition_ms(observation.tracer.events()))
            standing[op["input"]].append(int(summary.split()[0]) if "violation" in summary else 0)

    samples, rounds, values = common.run_traced(ops, seconds, seed, runner.public,
                                                runner.reset, inspect)
    for name in ("low", "high"):
        runs = transitions[name]
        values[f"cdc.transitions_ms.{name}_standing"] = (
            sum(ms for _, ms in runs) / sum(c for c, _ in runs))
        values[f"cdc.standing_violations.{name}_standing"] = statistics.median(standing[name])
    runs = transitions["low"] + transitions["high"]
    values["cdc.transitions_ms"] = sum(ms for _, ms in runs) / sum(c for c, _ in runs)
    values["cdc.standing_violations"] = statistics.median(standing["low"] + standing["high"])
    values["cdc.checkpoint_bytes"] = gauges.get("cdc.checkpoint_bytes", 0.0)
    errors += check(runner, runner.manifest)
    return {"metrics": layers.complete(values), "attempted": len(samples),
            "failed": len(runner.failures), "errors": errors[:5],
            "failures": runner.failures[:5], "details": {"rounds": rounds}}


# --------------------------------------------------------------------------- #
# correctness, outside the timed window
# --------------------------------------------------------------------------- #


def parse_violations(output: str) -> Counter:
    """``(rule, sorted elements)`` of every violation line ``pgschema`` printed."""
    found = Counter()
    for line in output.splitlines():
        if not line.startswith("  "):
            continue
        text = line.strip()
        rule, _, rest = text.partition(" ")
        if rest.startswith("["):
            rest = rest[rest.index("] ") + 2:]
        elements = rest[1:rest.index(")")].split(", ")
        found[(rule, tuple(sorted(elements)))] += 1
    return found


def expected_counter(item: dict) -> Counter:
    return Counter((rule, tuple(elements)) for rule, elements in item["expected"])


def check(runner: Runner, manifest: dict) -> list[str]:
    common.use_program()
    from repro.pg.io import graph_from_dict
    from repro.schema import parse_schema
    from repro.validation import NaiveValidator, validate

    errors = [f"output changed between rounds: {key}" for key in runner.mismatched[:3]]
    inputs = manifest["inputs"]
    # generated graphs: exactly the violations injected by construction
    ops = [op for op in manifest["ops"] if " ".join(op["argv"]) not in runner.failed]
    for op in ops:
        if op["kind"] not in VALIDATE_KINDS:
            continue
        output = runner.outputs[" ".join(op["argv"])]
        if parse_violations(output) != expected_counter(inputs[op["input"]]):
            errors.append(f"violations differ from construction: {' '.join(op['argv'])}")
    # small graphs: every flag set against the Theorem-1 oracle
    flag_sets = {"json": [[], ["--engine", "parallel"]],
                 "jsonl": [[], ["--backend", "columnar"], ["--stream"]]}
    for name in SCHEMAS:
        with open(manifest["schemas"][name]) as handle:
            schema = parse_schema(handle.read())
        for key in (f"{name}.small", f"{name}.smalll"):
            item = inputs[key]
            graph = load_any(item["graph"])
            oracle = Counter((v.rule, tuple(sorted(map(str, v.elements))))
                             for v in NaiveValidator(schema).validate(graph, "strong").violations)
            if oracle != expected_counter(item):
                errors.append(f"naive oracle disagrees with construction on {key}")
            for flags in flag_sets[item["graph"].rsplit(".", 1)[1]]:
                _, output = runner.invoke(["validate", item["schema"], item["graph"], *flags])
                if parse_violations(output) != oracle:
                    errors.append(f"{key} {flags}: report differs from NaiveValidator")
    # CDC: from-scratch validation of the independently applied journal,
    # event replay, and resume == uninterrupted run
    with open(manifest["schemas"][CDC_SCHEMA]) as handle:
        schema = parse_schema(handle.read())
    journals = manifest["journals"]
    for name, _, _ in JOURNALS:
        cdc_op = next((op for op in ops if op["kind"] == "cdc" and op["input"] == name), None)
        if cdc_op is None:
            continue
        paths = journals[name]
        with open(paths["base.json"]) as handle:
            start = validate(schema, graph_from_dict(json.load(handle))).keys()
        with open(paths["final.json"]) as handle:
            final = validate(schema, graph_from_dict(json.load(handle)))
        standing = set(start)
        with open(paths["events.jsonl"]) as handle:
            for line in handle:
                event = json.loads(line)
                key = (event["rule"], event["location"], tuple(event["elements"]))
                if event["event"] == "appeared":
                    if key in standing:
                        errors.append(f"cdc {name}: appeared twice {key}")
                    standing.add(key)
                elif key in standing:
                    standing.remove(key)
                else:
                    errors.append(f"cdc {name}: disappeared unseen {key}")
        if standing != set(final.keys()):
            errors.append(f"cdc {name}: replayed events != from-scratch validation")
        summary = runner.outputs[" ".join(cdc_op["argv"])].splitlines()[-1]
        if summary != final.summary():
            errors.append(f"cdc {name}: report {summary!r} != from scratch {final.summary()!r}")
    if runner.failed:
        return errors
    resume_op = next(op for op in manifest["ops"] if op["kind"] == "resume")
    runner.reset(resume_op)
    _, resumed = runner.invoke(resume_op["argv"])
    high_op = next(op for op in manifest["ops"] if op["kind"] == "cdc" and op["input"] == "high")
    _, full = runner.invoke(high_op["argv"])
    if resumed.splitlines()[-1] != full.splitlines()[-1]:
        errors.append("resume report differs from the uninterrupted run")
    with open(journals["resume"]["events.jsonl"], "rb") as a, \
            open(journals["high"]["events.jsonl"], "rb") as b:
        if a.read() != b.read():
            errors.append("resumed event stream differs from the uninterrupted run")
    return errors


def load_any(path: str):
    from repro.pg import load_graph
    from repro.pg.io import load_graph_jsonl

    with open(path) as handle:
        if path.endswith(".jsonl"):
            return load_graph_jsonl(handle, source=path)
        return load_graph(handle)


def run(work: str, seed: int, seconds: float, trace: bool) -> dict:
    return common.run_with_child(os.path.abspath(__file__), prepare(work, seed), seconds, trace)


if __name__ == "__main__":
    common.child_main(sys.modules[__name__])
