"""Seeded input generators for the end-to-end benchmark.

Everything the benchmark feeds the program is built here (or read from the
stored paper corpus in ``corpus/``), so a change to ``repro.workloads`` or
``repro.satisfiability.reduction`` cannot change what is measured.  Each
generator returns plain JSON-ready documents together with what the input
must produce by construction: the violations injected into a graph, the
final graph a journal leads to, the satisfiability of a CNF.

Sizes are fixed per input class and the seed only varies content (ids,
property values, which elements receive an injected violation, type-name
order), so the cost of an input class stays the same from seed to seed.
"""

from __future__ import annotations

import json
import os
import random
from itertools import combinations

HERE = os.path.dirname(os.path.abspath(__file__))
CORPUS_DIR = os.path.join(HERE, "corpus")

#: The 12 schemas of the paper corpus, in a fixed order.
CORPUS_NAMES = (
    "user_session",
    "user_session_keyed",
    "user_session_edge_props",
    "library",
    "food_union",
    "food_interface",
    "vehicles",
    "cardinality_table",
    "figure_1",
    "example_6_1_a",
    "diagram_b",
    "diagram_c",
)


def corpus_sdl(name: str) -> str:
    with open(os.path.join(CORPUS_DIR, f"{name}.graphql")) as handle:
        return handle.read()


# --------------------------------------------------------------------------- #
# graph documents
# --------------------------------------------------------------------------- #


class GraphDoc:
    """A graph under construction plus the violations injected into it.

    ``expected`` holds one ``(rule, elements)`` pair per injected violation,
    with ``elements`` a sorted tuple of element ids; the program must report
    exactly this multiset.
    """

    def __init__(self) -> None:
        self.nodes: dict[str, tuple[str, dict]] = {}
        self.edges: dict[str, list] = {}  # id -> [source, target, label, props]
        self.expected: list[tuple[str, tuple[str, ...]]] = []
        self._next_edge = 0

    def node(self, node_id: str, label: str, **props) -> str:
        self.nodes[node_id] = (label, props)
        return node_id

    def edge(self, source: str, target: str, label: str, **props) -> str:
        edge_id = f"e{self._next_edge}"
        self._next_edge += 1
        self.edges[edge_id] = [source, target, label, props]
        return edge_id

    def expect(self, rule: str, *elements: str) -> None:
        self.expected.append((rule, tuple(sorted(elements))))

    def __len__(self) -> int:
        return len(self.nodes) + len(self.edges)

    def out_edges(self, node_id: str, label: str) -> list[str]:
        return [
            edge_id
            for edge_id, (source, _, edge_label, _) in self.edges.items()
            if source == node_id and edge_label == label
        ]

    def to_dict(self) -> dict:
        return {
            "nodes": [
                {"id": node_id, "label": label, "properties": props}
                for node_id, (label, props) in self.nodes.items()
            ],
            "edges": [
                {
                    "id": edge_id,
                    "source": source,
                    "target": target,
                    "label": label,
                    "properties": props,
                }
                for edge_id, (source, target, label, props) in self.edges.items()
            ],
        }

    def write_json(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump(self.to_dict(), handle, separators=(",", ":"))

    def write_jsonl(self, path: str) -> None:
        with open(path, "w") as handle:
            for node_id, (label, props) in self.nodes.items():
                record = {"type": "node", "id": node_id, "label": label}
                if props:
                    record["properties"] = props
                handle.write(json.dumps(record, separators=(",", ":")) + "\n")
            for edge_id, (source, target, label, props) in self.edges.items():
                record = {
                    "type": "edge",
                    "id": edge_id,
                    "source": source,
                    "target": target,
                    "label": label,
                }
                if props:
                    record["properties"] = props
                handle.write(json.dumps(record, separators=(",", ":")) + "\n")


def _session_graph(rng: random.Random, users: int, sessions: int) -> GraphDoc:
    """A conformant ``user_session_edge_props`` graph."""
    doc = GraphDoc()
    for i in range(users):
        nicknames = [f"nick{i}_{k}" for k in range(rng.randrange(3))]
        doc.node(f"u{i}", "User", id=f"user-{i}", login=f"login{i}", nicknames=nicknames)
    for j in range(sessions):
        props = {"id": f"sess-{j}", "startTime": f"{rng.randrange(24):02d}:00"}
        if rng.random() < 0.5:
            props["endTime"] = f"{rng.randrange(24):02d}:30"
        session = doc.node(f"s{j}", "UserSession", **props)
        edge_props = {"certainty": round(rng.random(), 3)}
        if rng.random() < 0.3:
            edge_props["comment"] = "seen"
        doc.edge(session, f"u{rng.randrange(users)}", "user", **edge_props)
    return doc


def _inject_session(rng: random.Random, doc: GraphDoc, users: int, sessions: int,
                    per_rule: int, key_groups: int) -> None:
    """One violation per injection, each on elements no other injection uses."""
    session_pool = rng.sample(range(sessions), 6 * per_rule)
    user_pool = rng.sample(range(users), 3 * per_rule + 4 * key_groups)
    user_edge = {
        edge[0]: edge_id for edge_id, edge in doc.edges.items() if edge[2] == "user"
    }
    for k in range(per_rule):
        s = [f"s{session_pool[6 * k + offset]}" for offset in range(6)]
        u = [f"u{user_pool[3 * k + offset]}" for offset in range(3)]
        del doc.nodes[s[0]][1]["startTime"]
        doc.expect("DS5", s[0])
        del doc.edges[user_edge[s[1]]]
        doc.expect("DS6", s[1])
        doc.nodes[u[0]][1]["login"] = 40 + k
        doc.expect("WS1", u[0])
        doc.edges[user_edge[s[2]]][3]["certainty"] = "high"
        doc.expect("WS2", user_edge[s[2]])
        doc.nodes[u[1]][1]["color"] = "red"
        doc.expect("SS2", u[1])
        doc.edges[user_edge[s[3]]][3]["weight"] = 2
        doc.expect("SS3", user_edge[s[3]])
        ghost = doc.node(f"ghost{k}", "Ghost")
        doc.expect("SS1", ghost)
        stray = doc.edge(u[2], s[3], "owns")
        doc.expect("SS4", stray)
        doc.edges[user_edge[s[4]]][1] = s[0]
        doc.expect("WS3", user_edge[s[4]])
        second = doc.edge(s[5], f"u{rng.randrange(users)}", "user", certainty=0.5)
        doc.expect("WS4", user_edge[s[5]], second)
    # @key collisions: groups of 2..4 users share an id (key 1) or a login
    # (key 2); a group of size g yields exactly C(g, 2) DS7 pairs
    cursor = 3 * per_rule
    for group in range(key_groups):
        size = 2 + group % 3
        members = [f"u{user_pool[cursor + offset]}" for offset in range(size)]
        cursor += size
        field = "id" if group % 2 == 0 else "login"
        shared = f"shared-{field}-{group}"
        for member in members:
            doc.nodes[member][1][field] = shared
        for first, second in combinations(members, 2):
            doc.expect("DS7", first, second)


def session_graph(seed: int, users: int, sessions: int, violating: bool) -> GraphDoc:
    rng = random.Random(seed)
    doc = _session_graph(rng, users, sessions)
    if violating:
        _inject_session(rng, doc, users, sessions, per_rule=3, key_groups=6)
    return doc


def library_graph(seed: int, authors: int, books: int, violating: bool) -> GraphDoc:
    """A ``library`` graph; violating variants carry DS1-DS4 and DS6."""
    rng = random.Random(seed)
    doc = GraphDoc()
    series = max(2, books // 8)
    publishers = max(2, books // 25)
    for a in range(authors):
        doc.node(f"a{a}", "Author")
    for b in range(books):
        doc.node(f"b{b}", "Book", title=f"Title {b}")
        for a in rng.sample(range(authors), 1 + rng.randrange(2)):
            doc.edge(f"b{b}", f"a{a}", "author")
    for s in range(series):
        doc.node(f"r{s}", "BookSeries")
    for p in range(publishers):
        doc.node(f"p{p}", "Publisher")
    order = list(range(books))
    rng.shuffle(order)
    contained = order[: books // 2]
    for index, b in enumerate(contained):
        doc.edge(f"r{index % series}", f"b{b}", "contains")
    for b in range(books):
        doc.edge(f"p{rng.randrange(publishers)}", f"b{b}", "published")
    for a in range(authors):
        if rng.random() < 0.5:
            other = rng.randrange(authors - 1)
            doc.edge(f"a{a}", f"a{other + (other >= a)}", "relatedAuthor")
        if rng.random() < 0.3:
            doc.edge(f"a{a}", f"b{rng.randrange(books)}", "favoriteBook")
    if violating:
        related = [
            edge_id for edge_id, edge in doc.edges.items() if edge[2] == "relatedAuthor"
        ]
        picked_related = rng.sample(related, 3)
        loop_authors = rng.sample(range(authors), 3)
        in_series = {doc.edges[e][1]: e for e in doc.edges if doc.edges[e][2] == "contains"}
        picked_books = rng.sample(sorted(in_series), 9)
        published = {doc.edges[e][1]: e for e in doc.edges if doc.edges[e][2] == "published"}
        for k in range(3):
            source, target = doc.edges[picked_related[k]][:2]
            duplicate = doc.edge(source, target, "relatedAuthor")
            doc.expect("DS1", picked_related[k], duplicate)
            loop = doc.edge(f"a{loop_authors[k]}", f"a{loop_authors[k]}", "relatedAuthor")
            doc.expect("DS2", loop)
            book = picked_books[3 * k]
            owner = doc.edges[in_series[book]][0]
            other_series = f"r{(int(owner[1:]) + 1) % series}"
            again = doc.edge(other_series, book, "contains")
            doc.expect("DS3", in_series[book], again)
            book = picked_books[3 * k + 1]
            del doc.edges[published[book]]
            doc.expect("DS4", book)
            book = picked_books[3 * k + 2]
            for edge_id in doc.out_edges(book, "author"):
                del doc.edges[edge_id]
            doc.expect("DS6", book)
    return doc


def vehicles_graph(seed: int, people: int, violating: bool) -> GraphDoc:
    """A ``vehicles`` graph; violating variants carry WS1, WS3, WS4, SS2, SS4."""
    rng = random.Random(seed)
    doc = GraphDoc()
    foods = []
    for f in range(people // 2):
        if f % 2:
            foods.append(doc.node(f"z{f}", "Pizza", name=f"pizza{f}",
                                  toppings=["cheese"] * rng.randrange(1, 3)))
        else:
            foods.append(doc.node(f"q{f}", "Pasta", name=f"pasta{f}"))
    for p in range(people):
        doc.node(f"h{p}", "Person", name=f"person{p}")
        if rng.random() < 0.8:
            doc.edge(f"h{p}", rng.choice(foods), "favoriteFood")
    vehicles = []
    for v in range(people):
        label = "Car" if v % 2 else "Motorcycle"
        vehicles.append(doc.node(f"v{v}", label, brand=f"brand{rng.randrange(20)}"))
        if rng.random() < 0.7:
            doc.edge(f"v{v}", f"h{rng.randrange(people)}", "owner")
    if violating:
        cars = rng.sample([v for v in vehicles if doc.nodes[v][0] == "Car"], 6)
        fans = rng.sample(range(people), 6)
        for k in range(3):
            doc.nodes[cars[k]][1]["brand"] = 7
            doc.expect("WS1", cars[k])
            doc.nodes[cars[3 + k]][1]["color"] = "blue"
            doc.expect("SS2", cars[3 + k])
            person = f"h{fans[k]}"
            for edge_id in doc.out_edges(person, "favoriteFood"):
                del doc.edges[edge_id]
            wrong = doc.edge(person, cars[k], "favoriteFood")
            doc.expect("WS3", wrong)
            person = f"h{fans[3 + k]}"
            for edge_id in doc.out_edges(person, "favoriteFood"):
                del doc.edges[edge_id]
            first = doc.edge(person, foods[k], "favoriteFood")
            second = doc.edge(person, foods[k + 1], "favoriteFood")
            doc.expect("WS4", first, second)
            stray = doc.edge(foods[k], person, "eatenBy")
            doc.expect("SS4", stray)
    return doc


def graph_for(schema: str, seed: int, scale: float, violating: bool) -> GraphDoc:
    """The graph class for one validate input.

    At *scale* 1.0 the three schemas cost about the same to validate (the
    session schema checks more rules per element, so its graph is smaller):
    ~2,600 session elements, ~4,600 library and ~5,000 vehicles elements.
    """
    if schema == "user_session_edge_props":
        return session_graph(seed, int(440 * scale), int(1100 * scale), violating)
    if schema == "library":
        return library_graph(seed, int(450 * scale), int(900 * scale), violating)
    if schema == "vehicles":
        return vehicles_graph(seed, int(1250 * scale), violating)
    raise ValueError(schema)


# --------------------------------------------------------------------------- #
# CDC journals
# --------------------------------------------------------------------------- #


class Journal:
    """A mutation journal over a ``user_session_edge_props`` base graph.

    The generator replays its own events on a plain dict copy of the graph,
    so ``final`` is the graph the journal leads to, computed without the
    program's CDC code.
    """

    def __init__(self, base: GraphDoc) -> None:
        self.base_doc = base
        self.base = base.to_dict()
        self.lines: list[dict] = [{"format": "pgschema-mutation-journal", "version": 1}]
        self.commit_ends: list[int] = []  # line count after each commit marker

    def write(self, path: str, commits: int | None = None) -> None:
        end = len(self.lines) if commits is None else self.commit_ends[commits - 1]
        with open(path, "w") as handle:
            for record in self.lines[:end]:
                handle.write(json.dumps(record, separators=(",", ":")) + "\n")

    def final_graph(self) -> dict:
        nodes = {node["id"]: dict(node, properties=dict(node["properties"]))
                 for node in self.base["nodes"]}
        edges = {edge["id"]: dict(edge, properties=dict(edge["properties"]))
                 for edge in self.base["edges"]}
        for record in self.lines[1:]:
            op = record["op"]
            if op == "add_node":
                nodes[record["id"]] = {"id": record["id"], "label": record["label"],
                                       "properties": dict(record.get("properties", {}))}
            elif op == "add_edge":
                edges[record["id"]] = {key: record[key] for key in
                                       ("id", "source", "target", "label")}
                edges[record["id"]]["properties"] = dict(record.get("properties", {}))
            elif op == "remove_edge":
                del edges[record["id"]]
            elif op == "set_property":
                target = nodes.get(record["id"]) or edges[record["id"]]
                target["properties"][record["name"]] = record["value"]
            elif op == "remove_property":
                target = nodes.get(record["id"]) or edges[record["id"]]
                target["properties"].pop(record["name"], None)
        return {"nodes": list(nodes.values()), "edges": list(edges.values())}


def session_journal(seed: int, base_users: int, base_sessions: int, commits: int,
                    events_per_commit: int, violation_rate: float) -> Journal:
    """Commits that add users and sessions, edit and repair them.

    With ``violation_rate`` > 0 a share of the added sessions lacks its
    ``@required`` start time or user edge, and a share of edits removes a
    start time, so the standing violation set grows commit by commit;
    some edits repair earlier damage, so violations also disappear.
    """
    rng = random.Random(seed)
    base = session_graph(seed, base_users, base_sessions, violating=False)
    journal = Journal(base)
    users = [f"u{i}" for i in range(base_users)]
    sessions = [f"s{j}" for j in range(base_sessions)]
    broken: list[str] = []  # sessions missing startTime
    counter = 0
    for _ in range(commits):
        for _ in range(events_per_commit):
            counter += 1
            roll = rng.random()
            if roll < 0.15:
                user = f"ju{counter}"
                journal.lines.append({"op": "add_node", "id": user, "label": "User",
                                      "properties": {"id": f"juser-{counter}",
                                                     "login": f"jlogin{counter}"}})
                users.append(user)
            elif roll < 0.75:
                session = f"js{counter}"
                props = {"id": f"jsess-{counter}"}
                lacks_start = rng.random() < violation_rate
                if not lacks_start:
                    props["startTime"] = "10:00"
                journal.lines.append({"op": "add_node", "id": session,
                                      "label": "UserSession", "properties": props})
                if rng.random() >= violation_rate:
                    journal.lines.append({"op": "add_edge", "id": f"je{counter}",
                                          "source": session, "target": rng.choice(users),
                                          "label": "user",
                                          "properties": {"certainty": 0.9}})
                sessions.append(session)
                if lacks_start:
                    broken.append(session)
            elif roll < 0.85 and broken and rng.random() < 0.6:
                session = broken.pop(rng.randrange(len(broken)))
                journal.lines.append({"op": "set_property", "id": session,
                                      "name": "startTime", "value": "11:00"})
            elif roll < 0.92 and rng.random() < violation_rate * 2:
                session = rng.choice(sessions)
                journal.lines.append({"op": "remove_property", "id": session,
                                      "name": "startTime"})
                if session not in broken:
                    broken.append(session)
            else:
                journal.lines.append({"op": "set_property", "id": rng.choice(sessions),
                                      "name": "endTime", "value": f"{rng.randrange(24):02d}:45"})
        journal.lines.append({"op": "commit"})
        journal.commit_ends.append(len(journal.lines))
    return journal


# --------------------------------------------------------------------------- #
# satisfiability inputs
# --------------------------------------------------------------------------- #


def _names(rng: random.Random, prefix: str, count: int) -> list[str]:
    """Seeded type names: the seed permutes naming, not structure."""
    tags = rng.sample(range(100, 1000), count)
    return [f"{prefix}{tag}" for tag in tags]


def hub_chain_sdl(rng: random.Random, depth: int = 6, leaves: int = 5) -> str:
    stages = _names(rng, "Stage", depth)
    leaf = _names(rng, "Leaf", leaves)
    lines = []
    for index, stage in enumerate(stages):
        target = stages[index + 1] if index + 1 < depth else "Terminal"
        lines += [f"type {stage} {{", f"  next: {target} @required", "  label: String!", "}"]
    lines += ["type Terminal {", "  label: String!", "}"]
    for name in leaf:
        lines += [f"type {name} {{", "  tag: String!", "}"]
    lines += ["type Hub {", f"  entry: {stages[0]} @required"]
    lines += [f"  f{k}: {name}" for k, name in enumerate(leaf)]
    lines += ["}"]
    return "\n".join(lines) + "\n"


def deep_lattice_sdl(rng: random.Random, depth: int = 4, width: int = 2) -> str:
    t = _names(rng, "T", depth)
    lines = []
    for level in range(depth):
        lines.append(f"union U{level} = " + " | ".join(t[level:]))
    for level in range(depth):
        lines.append(f"interface I{level} {{")
        for field in range(width):
            lines.append(f"  f{field}: [U{level}]" + (" @required" if field == 0 else ""))
        lines.append("}")
    for level in range(depth):
        implements = " & ".join(f"I{k}" for k in range(level + 1))
        lines.append(f"type {t[level]} implements {implements} {{")
        for field in range(width):
            lines.append(f"  f{field}: [{t[-1]}]" + (" @required" if field == 0 else ""))
        lines.append("}")
    return "\n".join(lines) + "\n"


def union_fanout_sdl(rng: random.Random, members: int = 8, fields: int = 8) -> str:
    m = _names(rng, "M", members)
    lines = [f"union U{k} = " + " | ".join(m[k:]) for k in range(members)]
    for i, name in enumerate(m):
        lines += [f"type {name} {{", "  tag: String! @required", f"  link: U{i} @required", "}"]
    lines.append("type Hub {")
    lines += [f"  f{j}: [U{j % members}] @required @distinct" for j in range(fields)]
    lines.append("}")
    return "\n".join(lines) + "\n"


def cardinality_web_sdl(rng: random.Random, blocks: int = 4) -> str:
    sinks = _names(rng, "Sink", blocks)
    lines = []
    for index, sink in enumerate(sinks):
        lines += [
            f"interface Web{index} {{", f"  feed: [{sink}] @uniqueForTarget", "}",
            f"type SrcA{index} implements Web{index} {{",
            f"  feed: [{sink}] @uniqueForTarget @requiredForTarget", "}",
            f"type SrcB{index} implements Web{index} {{",
            f"  feed: [{sink}] @uniqueForTarget", "}",
            f"type {sink} {{", "  tag: String!",
            f"  next: {sinks[(index + 1) % blocks]} @required", "}",
        ]
    return "\n".join(lines) + "\n"


def near_unsat_sdl(rng: random.Random, conflicts: int = 3, collide: bool = True) -> str:
    """Conflicting-cardinality blocks at the edge of satisfiability.

    Each ``Sink`` has one forced source under a one-edge cap, which is
    barely satisfiable; with *collide* the second source is forced too, so
    every ``Sink`` is UNSAT and ``Probe`` (``@required`` edge into the
    first sink) dies with it.
    """
    second = " @requiredForTarget" if collide else ""
    sinks = _names(rng, "Sink", conflicts)
    lines = []
    for index, sink in enumerate(sinks):
        lines += [
            f"interface Channel{index} {{", f"  feed: [{sink}] @uniqueForTarget", "}",
            f"type SrcA{index} implements Channel{index} {{",
            f"  feed: [{sink}] @uniqueForTarget @requiredForTarget", "}",
            f"type SrcB{index} implements Channel{index} {{",
            f"  feed: [{sink}] @uniqueForTarget{second}", "}",
            f"type {sink} {{", "  tag: String!", "}",
        ]
    lines += ["type Probe {", f"  hook: {sinks[0]} @required", "}"]
    return "\n".join(lines) + "\n"


def near_unsat_expected_unsat(sdl: str) -> set[str]:
    """The types of a colliding :func:`near_unsat_sdl` schema UNSAT by
    construction."""
    return {line.split()[1] for line in sdl.splitlines()
            if line.startswith("type Sink") or line.startswith("type Probe")}


def random_3cnf(rng: random.Random, variables: int, clauses: int) -> list[tuple[int, ...]]:
    return [
        tuple(rng.choice((-1, 1)) * v for v in rng.sample(range(1, variables + 1), 3))
        for _ in range(clauses)
    ]


ANCHOR = "OTphi"


def theorem2_sdl(clauses: list[tuple[int, ...]]) -> str:
    """The Theorem-2 construction: ``OTphi`` is satisfiable iff the CNF is.

    One interface per clause obliges every anchor node to receive an
    ``f``-edge from one of the clause's literal types; one interface per
    complementary pair of literal occurrences caps those edges at one, so
    no anchor is reached from both a literal and its negation.
    """
    lines = [f"type {ANCHOR} {{ }}"]
    occurrences = {}
    for c, clause in enumerate(clauses):
        lines += [f"interface Clause_{c} {{", f"  f: [{ANCHOR}] @requiredForTarget", "}"]
        for p, literal in enumerate(clause):
            occurrences[(c, p)] = literal
    ordered = sorted(occurrences)
    implements = {occ: [f"Clause_{occ[0]}"] for occ in ordered}
    for i, first in enumerate(ordered):
        for second in ordered[i + 1:]:
            if occurrences[first] == -occurrences[second]:
                name = f"Conflict_{first[0]}_{first[1]}__{second[0]}_{second[1]}"
                lines += [f"interface {name} {{", f"  f: [{ANCHOR}] @uniqueForTarget", "}"]
                implements[first].append(name)
                implements[second].append(name)
    for c, p in ordered:
        lines += [f"type Lit_{c}_{p} implements {' & '.join(implements[(c, p)])} {{",
                  f"  f: [{ANCHOR}]", "}"]
    return "\n".join(lines) + "\n"


def brute_force_sat(clauses: list[tuple[int, ...]], variables: int) -> bool:
    """Truth-table satisfiability: a second oracle next to ``repro.sat``."""
    for bits in range(1 << variables):
        if all(any((bits >> (abs(l) - 1) & 1) == (l > 0) for l in clause)
               for clause in clauses):
            return True
    return False
