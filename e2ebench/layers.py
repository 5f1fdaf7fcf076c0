"""Per-layer metrics from spans and counters.

The traced run collects the spans the benchmark records around each public
call (named ``bench.*``) together with the spans and counters the program
already records through ``repro.obs``.  A layer's *self time* is its span's
duration minus the time its child spans on the same thread cover; the
tables below say which spans and counters make up each per-layer metric.
Every per-layer metric is printed on every workload; a layer the workload
does not reach reads 0.
"""

from __future__ import annotations

from collections import defaultdict

#: span name -> per-layer time metric its self time counts towards.
SELF_TIME = {
    "bench.load_graph": "pg.load_ms",
    "pg.load": "pg.load_ms",
    "pg.load_jsonl": "pg.load_ms",
    "pg.freeze": "pg.freeze_ms",
    "sdl.parse": "sdl.parse_ms",
    "bench.parse_schema": "schema.build_ms",
    "schema.build": "schema.build_ms",
    "validation.plan.compile": "validation.plan.compile_ms",
    "validation.shard": "validation.kernel_ms",
    "validation.stream.route": "validation.stream.route_ms",
    "validation.stream.chunk": "validation.stream.chunk_ms",
    "validation.partition": "validation.partition_ms",
    "validation.merge": "validation.merge_ms",
    "cdc.apply": "cdc.apply_ms",
    "cdc.checkpoint": "cdc.checkpoint_ms",
    "cdc.recover": "cdc.recover_ms",
    "sat.run": "sat.run_ms",
    "sat.check_type": "sat.run_ms",
    "tableau.search": "tableau.search_ms",
    "analysis.run": "analysis.run_ms",
    "analysis.pass": "analysis.run_ms",
    "lint.run": "lint.run_ms",
    "service.register": "service.register_ms",
}

#: counter -> per-layer metric.
COUNTERS = {
    "validation.plan_cache.hits": "validation.plan_cache.hits",
    "validation.plan_cache.misses": "validation.plan_cache.misses",
    "validation.shards": "validation.shards",
    "validation.rechecks.node": "validation.rechecks",
    "validation.rechecks.edge": "validation.rechecks",
    "validation.rechecks.edge_group": "validation.rechecks",
    "validation.rechecks.key_scope": "validation.rechecks",
    "sat.units": "sat.units",
    "sat.wins.cache": "sat.wins.cache",
    "sat.wins.lint": "sat.wins.lint",
    "sat.wins.analysis": "sat.wins.analysis",
    "sat.wins.tableau": "sat.wins.tableau",
    "sat.cache.hits": "sat.cache.hits",
    "sat.cache.misses": "sat.cache.misses",
    "tableau.expansions": "tableau.expansions",
    "tableau.branches": "tableau.branches",
    "tableau.label_cache.hits": "tableau.label_cache.hits",
    "ladder.retries": "ladder.retries",
    "ladder.fallbacks": "ladder.fallbacks",
}

#: Every per-layer metric with its unit and better direction, in the order
#: printed.  ``BENCHMARK.json`` lists the same names.
PER_LAYER = [
    ("pg.load_ms", "ms", "lower"),
    ("pg.freeze_ms", "ms", "lower"),
    ("sdl.parse_ms", "ms", "lower"),
    ("schema.build_ms", "ms", "lower"),
    ("validation.plan.compile_ms", "ms", "lower"),
    ("validation.plan_cache.hits", "count", "higher"),
    ("validation.plan_cache.misses", "count", "lower"),
    ("validation.kernel_ms", "ms", "lower"),
    ("validation.stream.route_ms", "ms", "lower"),
    ("validation.stream.chunk_ms", "ms", "lower"),
    ("validation.partition_ms", "ms", "lower"),
    ("validation.merge_ms", "ms", "lower"),
    ("validation.fanout_wait_ms", "ms", "lower"),
    ("validation.shards", "count", "lower"),
    ("validation.process_pool_runs", "count", "lower"),
    ("cdc.apply_ms", "ms", "lower"),
    ("cdc.transitions_ms", "ms", "lower"),
    ("cdc.transitions_ms.low_standing", "ms", "lower"),
    ("cdc.transitions_ms.high_standing", "ms", "lower"),
    ("cdc.checkpoint_ms", "ms", "lower"),
    ("cdc.checkpoint_bytes", "bytes", "lower"),
    ("cdc.recover_ms", "ms", "lower"),
    ("validation.rechecks", "count", "lower"),
    ("cdc.standing_violations", "count", "lower"),
    ("cdc.standing_violations.low_standing", "count", "lower"),
    ("cdc.standing_violations.high_standing", "count", "lower"),
    ("sat.run_ms", "ms", "lower"),
    ("sat.units", "count", "lower"),
    ("sat.process_pool_runs", "count", "lower"),
    ("sat.wins.cache", "count", "higher"),
    ("sat.wins.lint", "count", "higher"),
    ("sat.wins.analysis", "count", "higher"),
    ("sat.wins.tableau", "count", "lower"),
    ("sat.cache.hits", "count", "higher"),
    ("sat.cache.misses", "count", "lower"),
    ("tableau.search_ms", "ms", "lower"),
    ("tableau.expansions", "count", "lower"),
    ("tableau.branches", "count", "lower"),
    ("tableau.label_cache.hits", "count", "higher"),
    ("analysis.run_ms", "ms", "lower"),
    ("lint.run_ms", "ms", "lower"),
    ("service.server_latency_ms", "ms", "lower"),
    ("service.transport_ms", "ms", "lower"),
    ("service.batch_ms", "ms", "lower"),
    ("service.batch_size", "count", "higher"),
    ("service.coalesce_ratio", "ratio", "higher"),
    ("service.register_ms", "ms", "lower"),
    ("ladder.retries", "count", "lower"),
    ("ladder.fallbacks", "count", "lower"),
    ("obs.tracing_overhead_pct", "%", "lower"),
]


def self_times(events) -> list[tuple[object, float]]:
    """``(span, self seconds)`` for every span in *events*.

    Spans nest by containment on their ``(pid, tid)`` lane, as the
    program's tracer guarantees with its ``with`` discipline.
    """
    lanes = defaultdict(list)
    for event in events:
        if event.duration is not None:
            lanes[(event.pid, event.tid)].append(event)
    result = []
    for lane in lanes.values():
        lane.sort(key=lambda event: (event.start, -event.duration))
        stack: list[list] = []  # [span, end, covered by children]
        for event in lane:
            while stack and stack[-1][1] <= event.start:
                span, _, covered = stack.pop()
                result.append((span, span.duration - covered))
            if stack:
                stack[-1][2] += event.duration
            stack.append([event, event.start + event.duration, 0.0])
        while stack:
            span, _, covered = stack.pop()
            result.append((span, span.duration - covered))
    return result


class LayerTotals:
    """Accumulates per-layer totals over the traced rounds of one run."""

    def __init__(self) -> None:
        self.totals: dict[str, float] = defaultdict(float)
        self.rounds = 0

    def add_spans(self, events) -> None:
        for span, seconds in self_times(events):
            name = SELF_TIME.get(span.name)
            if span.name == "validation.run":
                # the parallel engine's own time is pool start-up, shipping
                # and waiting; every other engine's run span is its kernel
                parallel = span.attrs.get("engine") == "parallel"
                name = "validation.fanout_wait_ms" if parallel else "validation.kernel_ms"
            if name is not None:
                self.totals[name] += seconds * 1000.0
            if span.name == "sat.run" and span.attrs.get("executor") == "process":
                self.totals["sat.process_pool_runs"] += 1
        runs = [e for e in events if e.name == "validation.run" and e.duration is not None
                and e.attrs.get("engine") == "parallel"]
        pool_shards = [e for e in events if e.name == "validation.shard"
                       and e.attrs.get("executor") == "process"]
        for run in runs:
            end = run.start + run.duration
            if any(run.start <= shard.start <= end for shard in pool_shards):
                self.totals["validation.process_pool_runs"] += 1

    def add_counters(self, snapshot: dict) -> None:
        for counter, value in snapshot.get("counters", {}).items():
            name = COUNTERS.get(counter)
            if name is not None:
                self.totals[name] += value

    def per_round(self) -> dict[str, float]:
        rounds = max(1, self.rounds)
        return {name: value / rounds for name, value in self.totals.items()}


def cdc_transition_ms(events) -> list[tuple[int, float]]:
    """Per commit of each ``cdc.run``: ``(commits, ms not spent in apply,
    checkpoint or schema change)``, i.e. the violation-transition work and
    journal reading between two commits' applies."""
    out = []
    runs = [e for e in events if e.name == "cdc.run" and e.duration is not None]
    for run in runs:
        end = run.start + run.duration
        inside = [e for e in events if e.duration is not None and e.pid == run.pid
                  and e.tid == run.tid and run.start <= e.start < end]
        applies = sorted((e for e in inside if e.name == "cdc.apply"), key=lambda e: e.start)
        if not applies:
            continue
        excluded = [e for e in inside if e.name in ("cdc.checkpoint", "cdc.schema_change")]
        total = 0.0
        for index, apply in enumerate(applies):
            gap_start = apply.start + apply.duration
            gap_end = applies[index + 1].start if index + 1 < len(applies) else end
            gap = gap_end - gap_start
            for other in excluded:
                if gap_start <= other.start < gap_end:
                    gap -= other.duration
            total += gap
        out.append((len(applies), total * 1000.0))
    return out


def complete(values: dict[str, float]) -> dict[str, tuple[float, str]]:
    """Every per-layer metric, in order, with 0 for layers not reached."""
    return {name: (float(values.get(name, 0.0)), unit) for name, unit, _ in PER_LAYER}
