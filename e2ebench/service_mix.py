"""Workload ``service_mix``: a ``pgschema serve`` daemon under a closed loop.

The benchmark spawns ``pgschema serve`` with a registry directory and drives
it from 2 keep-alive connections, each waiting for an answer before it
sends the next request.  Each connection repeats rounds of 12 requests in
its own seeded order: 9 ``validate`` (6 small graphs of ~250 elements and
3 medium graphs of ~1,500, some violating), 1 warm ``sat`` re-check of a
registered version, 1 ``lint`` and 1 ``register`` of a new schema
version (the write path: it persists with fsync and compiles a plan).
Batching, warm caches and registry persistence do the work here; the
validation and sat layers run hot instead of cold.
"""

from __future__ import annotations

import json
import os
import random
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter

import common
import gen

CONNECTIONS = 2
#: Fixed tail percentile of HTTP validate latencies (9 per round and
#: connection; ~700 samples in a 22 s run even when the host is slow).
TAIL_PERCENTILE = 98
#: The registered schema set: (tenant, name, corpus schema).
REGISTERED = (
    ("acme", "sessions", "user_session_edge_props"),
    ("acme", "library", "library"),
    ("acme", "vehicles", "vehicles"),
    ("globex", "figure1", "figure_1"),
    ("globex", "diagramc", "diagram_c"),
)
VALIDATED = (("acme", "sessions", "user_session_edge_props"), ("acme", "library", "library"),
             ("acme", "vehicles", "vehicles"))
#: One warm sat per round: each one starts a process pool in the server
#: today, and a second, different target would put the median between two.
SAT_TARGET = ("globex", "diagramc")
LINT_TARGET = ("acme", "library")
EVOLVING = ("acme", "evolving")


def evolving_sdl(revision: str) -> str:
    return f"type Audit {{\n  note: String\n  rev_{revision}: Int\n}}\n"


def prepare(work: str, seed: int) -> dict:
    ops = []
    for index, (tenant, name, schema) in enumerate(VALIDATED):
        base = seed * 1000 + index * 10
        for variant, scale, violating in (("small.conf", 0.08, False), ("small.viol", 0.08, True),
                                          ("medium", 0.3, index != 1)):
            doc = gen.graph_for(schema, base + len(ops), scale, violating)
            ops.append({"kind": "validate", "input": f"{name}.{variant}", "tenant": tenant,
                        "name": name, "graph": doc.to_dict(), "elements": len(doc),
                        "expected": [[rule, list(e)] for rule, e in doc.expected]})
    ops.append({"kind": "sat", "input": SAT_TARGET[1], "tenant": SAT_TARGET[0],
                "name": SAT_TARGET[1]})
    ops.append({"kind": "lint", "input": LINT_TARGET[1], "tenant": LINT_TARGET[0],
                "name": LINT_TARGET[1]})
    ops.append({"kind": "register", "input": EVOLVING[1], "tenant": EVOLVING[0],
                "name": EVOLVING[1]})
    return {"workload": "service_mix", "work": work, "seed": seed, "ops": ops}


class Server:
    """One ``pgschema serve`` subprocess on an ephemeral port."""

    def __init__(self, work: str, tag: str, traced: bool = False) -> None:
        self.dir = os.path.join(work, f"server_{tag}")
        os.makedirs(self.dir)
        self.log_path = os.path.join(self.dir, "stdout.log")
        self.trace_path = os.path.join(self.dir, "trace.json")
        self.metrics_path = os.path.join(self.dir, "metrics.json")
        argv = [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
                "--registry-dir", os.path.join(self.dir, "registry")]
        if traced:
            argv += ["--trace", self.trace_path, "--metrics", self.metrics_path]
        self._log = open(self.log_path, "w")
        self.process = subprocess.Popen(argv, cwd=common.ROOT, env=common.program_env(),
                                        stdout=self._log, stderr=subprocess.STDOUT)
        self.port = self._wait_for_port()

    def _wait_for_port(self) -> int:
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            with open(self.log_path) as handle:
                text = handle.read()
            marker = "listening on http://"
            if marker in text:
                address = text.split(marker, 1)[1].split("/", 1)[0]
                return int(address.rsplit(":", 1)[1])
            if self.process.poll() is not None:
                break
            time.sleep(0.005)
        self.stop()
        raise RuntimeError(f"server did not start: {text[-500:]}")

    def client(self):
        from repro.service.client import ServiceClient

        return ServiceClient("127.0.0.1", self.port, timeout=60)

    def register_all(self, client) -> None:
        for tenant, name, schema in REGISTERED:
            status, body = client.register(tenant, name, gen.corpus_sdl(schema))
            if status != 200 or body.get("version") != 1:
                raise RuntimeError(f"registering {tenant}/{name}: {status} {body}")
        status, body = client.register(*EVOLVING, evolving_sdl("base"))
        if status != 200 or body.get("version") != 1:
            raise RuntimeError(f"registering the evolving schema: {status} {body}")

    def peak_rss_mb(self) -> float:
        return common.proc_peak_rss_mb(self.process.pid)

    def stop(self) -> None:
        """Graceful drain (SIGINT), waited for; a kill if it hangs."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self._log.close()


def start_server(work: str, tag: str, traced: bool = False) -> tuple[Server, float]:
    """Spawn, wait until healthy, register the schema set: seconds taken."""
    started = time.perf_counter()
    server = Server(work, tag, traced)
    try:
        with server.client() as client:
            while client.healthz()[0] != 200:
                time.sleep(0.005)
            server.register_all(client)
    except BaseException:
        server.stop()
        raise
    return server, time.perf_counter() - started


class Loop:
    """The closed loop: every connection waits for each answer."""

    def __init__(self, ops: list[dict], seed: int) -> None:
        self.ops = ops
        self.seed = seed
        self.samples: list[tuple[dict, float, int, int]] = []  # op, seconds, round, conn
        self.failures: list[str] = []
        self.responses: dict[str, dict] = {}
        self.mismatched: list[str] = []
        self.versions: list[tuple[int, int]] = []  # (server, version)
        self.lock = threading.Lock()

    def request(self, client, op: dict, conn: int, serial: int):
        from repro import obs

        with obs.span(f"bench.ServiceClient.{op['kind']}"):
            return self._request(client, op, conn, serial)

    def _request(self, client, op: dict, conn: int, serial: int):
        kind = op["kind"]
        if kind == "validate":
            return client.validate(op["tenant"], op["name"], op["graph"], version=1)
        if kind == "sat":
            return client.sat(op["tenant"], op["name"], version=1)
        if kind == "lint":
            return client.lint(op["tenant"], op["name"], version=1)
        return client.register(op["tenant"], op["name"], evolving_sdl(f"{conn}_{serial}"))

    def record(self, op: dict, status: int, body: dict, server: int = 0) -> None:
        if status != 200:
            self.failures.append(f"{op['kind']} {op['input']}: HTTP {status} {body}")
            return
        if op["kind"] == "register":
            self.versions.append((server, body["version"]))
            return
        key = f"{op['kind']} {op['input']}"
        first = self.responses.setdefault(key, body)
        if first != body:
            self.mismatched.append(key)

    def connection(self, clients: list, conn: int, more, before_round) -> None:
        rng = random.Random(self.seed * 7919 + 101 * conn)
        rounds = serial = 0
        while more(rounds):
            server = before_round(rounds)
            client = clients[server]
            order = list(self.ops)
            rng.shuffle(order)
            for op in order:
                serial += 1
                started = time.perf_counter()
                try:
                    status, body = self.request(client, op, conn, serial)
                except (OSError, ValueError) as error:
                    status, body = -1, {"error": repr(error)}
                elapsed = time.perf_counter() - started
                with self.lock:
                    self.samples.append((op, elapsed, rounds, conn))
                    self.record(op, status, body, server)
            rounds += 1

    def run(self, servers: list[Server], seconds: float, before_round=None) -> float:
        """Closed loop for *seconds*, then the round in progress is finished.

        With *before_round* (round index -> server index) the connections
        start every round together at a barrier, so that each round puts
        all of them on one server, as the loop with one server does.
        """
        deadline = time.perf_counter() + seconds

        def more(rounds: int) -> bool:
            return rounds == 0 or time.perf_counter() < deadline

        if before_round is not None:
            more = Lockstep(more)
        clients = [[server.client() for server in servers] for _ in range(CONNECTIONS)]
        threads = [threading.Thread(target=self.connection,
                                    args=(clients[conn], conn, more,
                                          before_round or (lambda index: 0)))
                   for conn in range(CONNECTIONS)]
        started = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        elapsed = time.perf_counter() - started
        for pair in clients:
            for client in pair:
                client.close()
        return elapsed


class Lockstep:
    """A round barrier: one decision, made when every connection has
    arrived, tells all of them whether another round runs."""

    def __init__(self, more) -> None:
        self.more = more
        self.go = True
        self.barrier = threading.Barrier(CONNECTIONS, action=self._decide)
        self.rounds = 0

    def _decide(self) -> None:
        self.go = self.more(self.rounds)
        self.rounds += 1

    def __call__(self, rounds: int) -> bool:
        self.barrier.wait(timeout=120)
        return self.go


def warm_up(server: Server, ops: list[dict]) -> None:
    loop = Loop(ops, 0)
    with server.client() as client:
        for op in ops:
            if op["kind"] != "register":
                loop.record(op, *loop.request(client, op, 0, 0))
    if loop.failures:
        raise RuntimeError(f"warm-up failed: {loop.failures[:3]}")


def stats(server: Server) -> dict:
    with server.client() as client:
        status, body = client.stats()
    if status != 200:
        raise RuntimeError(f"/v1/stats: HTTP {status}")
    return body


def run(work: str, seed: int, seconds: float, trace: bool) -> dict:
    common.use_program()
    manifest = prepare(work, seed)
    ops = manifest["ops"]
    servers: list[Server] = []
    try:
        if trace:
            return traced(work, ops, seed, seconds, servers)
        setup: list[float] = []

        def set_up(count: int) -> None:
            """Time *count* servers started one after another; only the
            last one is left running."""
            for _ in range(count):
                if servers:
                    servers[-1].stop()
                started, seconds_taken = start_server(work, f"s{len(setup)}")
                servers.append(started)
                setup.append(seconds_taken)

        set_up(common.SETUP_BEFORE)
        server = servers[-1]
        warm_up(server, ops)
        loop = Loop(ops, seed)
        elapsed = loop.run([server], seconds)
        rss = server.peak_rss_mb()
        set_up(common.SETUP_REPEATS - common.SETUP_BEFORE)
    finally:
        for server in servers:
            server.stop()
    latencies = {kind: [t * 1000 for op, t, _, _ in loop.samples if op["kind"] == kind]
                 for kind in ("validate", "sat", "lint", "register")}
    tail_ms, beyond = common.tail(latencies["validate"], TAIL_PERCENTILE)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (rss, "MB"),
        "tail_ms": (tail_ms, "ms"),
        "main_p50_ms": (statistics.median(latencies["validate"]), "ms"),
        "round_ms": (common.round_ms(loop.samples), "ms"),
    }
    reference = {
        "requests_per_s": len(loop.samples) / elapsed,
        "http_sat_p50_ms": statistics.median(latencies["sat"]),
        "http_lint_p50_ms": statistics.median(latencies["lint"]),
        "http_register_p50_ms": statistics.median(latencies["register"]),
    }
    return {"metrics": metrics, "attempted": len(loop.samples), "failed": len(loop.failures),
            "errors": check(loop, ops), "failures": loop.failures[:5],
            "details": {"tail_percentile": TAIL_PERCENTILE, "tail_samples": len(latencies["validate"]),
                        "tail_beyond": beyond, "connections": CONNECTIONS,
                        "setup_samples_s": [round(s, 4) for s in setup],
                        "samples": {k: len(v) for k, v in latencies.items()},
                        "reference": {k: round(v, 3) for k, v in reference.items()},
                        "p50_ms_by_op": common.p50_by_op([s[:3] for s in loop.samples])}}


def traced(work: str, ops: list[dict], seed: int, seconds: float, servers: list) -> dict:
    """Rounds alternate between a server run with ``--trace``/``--metrics``
    and an untraced one; per-layer figures come from the traced server's
    spans inside the measured window and its ``/v1/stats`` counters."""
    import layers
    from repro import obs

    traced_server, _ = start_server(work, "traced", traced=True)
    servers.append(traced_server)
    plain_server, _ = start_server(work, "plain")
    servers.append(plain_server)
    for server in servers:
        warm_up(server, ops)
    with traced_server.client() as client:
        client.register("bench", "window_start", evolving_sdl("start"))
    before = stats(traced_server)
    loop = Loop(ops, seed)
    observation = obs.install(obs.Tracer(), None)
    try:
        loop.run(servers, seconds, before_round=lambda index: index % 2)
    finally:
        obs.uninstall()
    after = stats(traced_server)
    with traced_server.client() as client:
        client.register("bench", "window_end", evolving_sdl("end"))
    for server in servers:
        server.stop()
    with open(traced_server.trace_path) as handle:
        events = [TraceEvent(entry) for entry in json.load(handle)["traceEvents"]]
    marks = {event.attrs.get("schema"): event.start for event in events
             if event.name == "service.register" and event.attrs.get("tenant") == "bench"}
    window = [event for event in events
              if marks["window_start"] < event.start < marks["window_end"]
              and not (event.name == "service.register" and event.attrs.get("tenant") == "bench")]
    totals = layers.LayerTotals()
    totals.rounds = len({(r, c) for _, _, r, c in loop.samples if r % 2 == 0})
    totals.add_spans(window)
    totals.add_counters({"counters": counter_diff(before, after)})
    values = totals.per_round()
    hist = histogram_diff(before, after)
    client_validate = [t * 1000 for op, t, r, _ in loop.samples
                       if op["kind"] == "validate" and r % 2 == 0]
    values["service.server_latency_ms"] = hist["service.latency_ms"]
    values["service.transport_ms"] = (sum(client_validate) / len(client_validate)
                                      - hist["service.latency_ms"])
    values["service.batch_ms"] = hist["service.batch_seconds"] * 1000.0
    values["service.batch_size"] = hist["service.batch_size"]
    counters = counter_diff(before, after)
    values["service.coalesce_ratio"] = counters["service.requests"] / counters["service.batches"]
    values["obs.tracing_overhead_pct"] = common.overhead_pct(loop.samples)
    client_spans = Counter(event.name for event in observation.tracer.events())
    return {"metrics": layers.complete(values), "attempted": len(loop.samples),
            "failed": len(loop.failures), "errors": check(loop, ops), "failures": loop.failures[:5],
            "details": {"traced_rounds": totals.rounds, "client_spans": dict(client_spans)}}


class TraceEvent:
    """A Chrome trace-event entry read back as a span."""

    def __init__(self, entry: dict) -> None:
        self.name = entry["name"]
        self.start = entry["ts"] / 1e6
        self.duration = entry["dur"] / 1e6 if entry.get("ph") == "X" else None
        self.pid = entry["pid"]
        self.tid = entry["tid"]
        self.attrs = entry.get("args", {})


def counter_diff(before: dict, after: dict) -> dict[str, float]:
    old = before["counters"]
    return {name: value - old.get(name, 0) for name, value in after["counters"].items()}


def histogram_diff(before: dict, after: dict) -> dict[str, float]:
    """Window means of the server's histograms, from their exact count and sum."""
    means = {}
    for name, new in after["histograms"].items():
        old = before["histograms"].get(name, {"count": 0, "sum": 0.0})
        count = new["count"] - old["count"]
        means[name] = (new["sum"] - old["sum"]) / count if count else 0.0
    return means


# --------------------------------------------------------------------------- #
# correctness, outside the timed window
# --------------------------------------------------------------------------- #


def check(loop: Loop, ops: list[dict]) -> list[str]:
    """Each answer against the verdict its input has by construction."""
    from repro.lint import lint_schema
    from repro.satisfiability import SatisfiabilityChecker
    from repro.schema import parse_schema

    errors = [f"answer changed between requests: {key}" for key in loop.mismatched[:3]]
    corpus = {(tenant, name): schema for tenant, name, schema in REGISTERED}
    for op in ops:
        if op["kind"] == "register":
            continue
        body = loop.responses.get(f"{op['kind']} {op['input']}")
        if body is None:
            errors.append(f"no answer for {op['kind']} {op['input']}")
            continue
        sdl = gen.corpus_sdl(corpus[(op["tenant"], op["name"])])
        if op["kind"] == "validate":
            got = Counter((v["rule"], tuple(sorted(v["elements"]))) for v in body["violations"])
            want = Counter((rule, tuple(elements)) for rule, elements in op["expected"])
            if got != want or body["verdict"] != ("violations" if want else "conforms"):
                errors.append(f"validate {op['input']}: answer differs from construction")
        elif op["kind"] == "sat":
            oracle = SatisfiabilityChecker(parse_schema(sdl)).check_schema(engine="serial")
            verdicts = {name: entry["verdict"] for name, entry in body["report"]["types"].items()}
            if verdicts != {name: r.verdict for name, r in oracle.types.items()}:
                errors.append(f"sat {op['input']}: verdicts differ from the serial tableau")
        else:
            findings = [finding.to_json() for finding in lint_schema(parse_schema(sdl))]
            if json.loads(json.dumps(findings)) != body["findings"]:
                errors.append(f"lint {op['input']}: findings differ from lint_schema")
    for server in {server for server, _ in loop.versions}:
        versions = sorted(version for s, version in loop.versions if s == server)
        if versions != list(range(2, 2 + len(versions))):
            errors.append(f"registered versions do not count up by one: {versions[:10]}")
    return errors
