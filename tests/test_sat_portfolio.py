"""Portfolio satisfiability: determinism, agreement, caching, recovery.

The contracts under test (docs/PERFORMANCE.md, E13):

1. the portfolio engine's ``check_schema`` report is *byte-identical*
   (through ``to_json()``) to the serial engine's, for any jobs count,
   cold or warm cache;
2. racing the tableau against the bounded finder never changes a verdict
   (a bounded failure is not decisive), including on the paper's
   diagram (b) schema where the two engines genuinely diverge;
3. the :class:`SatCache` memoizes decided verdicts across
   ``check_type`` / ``check_field`` / ``check_schema`` and across checker
   instances, and never caches budget-exhausted UNKNOWNs;
4. a hard worker kill during a process-executor sweep is recovered by the
   executor ladder with the report unchanged.
"""

import json

import pytest

from repro.errors import BudgetExhaustedError
from repro.resilience import Budget, faults
from repro.satisfiability import (
    SatCache,
    SatisfiabilityChecker,
    build_units,
    sat_cache_clear,
    sat_cache_for,
    sat_cache_info,
)
from repro.schema import parse_schema
from repro.workloads import CORPUS, hub_chain_schema, load

JOBS = [1, 2, 4]


@pytest.fixture(autouse=True)
def _fresh_registry():
    sat_cache_clear()
    yield
    sat_cache_clear()


def _dump(report):
    return json.dumps(report.to_json(), sort_keys=True)


# --------------------------------------------------------------------------- #
# determinism: byte-identical reports
# --------------------------------------------------------------------------- #


@pytest.mark.parametrize("jobs", JOBS)
def test_portfolio_reports_byte_identical_across_jobs(jobs):
    for name in CORPUS:
        schema = load(name)
        expected = _dump(
            SatisfiabilityChecker(schema, cache=False).check_schema(engine="serial")
        )
        checker = SatisfiabilityChecker(schema, cache=SatCache(schema))
        cold = checker.check_schema(jobs=jobs, engine="portfolio")
        warm = checker.check_schema(jobs=jobs, engine="portfolio")
        assert _dump(cold) == expected, name
        assert _dump(warm) == expected, (name, "warm replay must not differ")


@pytest.mark.parametrize("executor", ["serial", "thread", "process"])
def test_portfolio_reports_byte_identical_across_executors(executor):
    schema = load("example_6_1_a")
    expected = _dump(
        SatisfiabilityChecker(schema, cache=False).check_schema(
            find_witnesses=True, engine="serial"
        )
    )
    report = SatisfiabilityChecker(schema, cache=SatCache(schema)).check_schema(
        find_witnesses=True, jobs=4, engine="portfolio", executor=executor
    )
    assert _dump(report) == expected


def test_portfolio_with_witnesses_matches_serial():
    for name in ("library", "diagram_c", "hub"):
        schema = hub_chain_schema(depth=4, leaves=3) if name == "hub" else load(name)
        expected = _dump(
            SatisfiabilityChecker(schema, cache=False).check_schema(
                find_witnesses=True, engine="serial"
            )
        )
        report = SatisfiabilityChecker(schema, cache=SatCache(schema)).check_schema(
            find_witnesses=True, jobs=2, engine="portfolio"
        )
        assert _dump(report) == expected, name


# --------------------------------------------------------------------------- #
# agreement: racing cannot flip verdicts
# --------------------------------------------------------------------------- #


def test_race_agrees_with_serial_on_whole_corpus():
    for name in CORPUS:
        schema = load(name)
        serial = SatisfiabilityChecker(schema, cache=False).check_schema(
            engine="serial"
        )
        race = SatisfiabilityChecker(schema, cache=SatCache(schema)).check_schema(
            engine="race"
        )
        assert set(race.types) == set(serial.types), name
        for type_name, verdict in race.types.items():
            assert verdict.verdict == serial.types[type_name].verdict, (name, type_name)
        assert race.fields == serial.fields, name


def test_race_preserves_diagram_b_infinite_model_divergence():
    """Diagram (b)'s OT2 is tableau-SAT but has no finite model: the race
    must report it satisfiable with the bounded search empty-handed, not
    let the bounded failure masquerade as a verdict."""
    schema = load("diagram_b")
    report = SatisfiabilityChecker(schema, cache=SatCache(schema)).check_schema(
        find_witnesses=True, engine="race"
    )
    ot2 = report.types["OT2"]
    assert ot2.tableau_satisfiable is True
    assert ot2.bounded is not None and not ot2.bounded.satisfiable
    assert ot2.finitely_satisfiable is None
    # the divergence is OT2's alone: its neighbours have finite witnesses
    assert report.types["OT1"].finitely_satisfiable is True
    assert report.types["OT3"].finitely_satisfiable is True


# --------------------------------------------------------------------------- #
# unit partitioning
# --------------------------------------------------------------------------- #


def test_build_units_covers_every_element_once():
    schema = load("food_interface")
    units = build_units(schema)
    typed = [unit.type_name for unit in units if unit.type_name is not None]
    assert sorted(typed) == sorted(schema.object_types)
    seen = set()
    for unit in units:
        for field_name, _base in unit.fields:
            key = (unit.declaring, field_name)
            assert key not in seen, "field assigned to two units"
            seen.add(key)
    expected = {
        (type_name, field_name)
        for type_name, field_name, field_def in schema.field_declarations()
        if field_def.is_relationship
    }
    assert seen == expected


def test_unknown_engine_and_executor_rejected():
    schema = load("library")
    checker = SatisfiabilityChecker(schema, cache=False)
    with pytest.raises(ValueError, match="unknown engine"):
        checker.check_schema(engine="quantum")
    with pytest.raises(ValueError, match="unknown executor"):
        checker.check_schema(executor="gpu")


# --------------------------------------------------------------------------- #
# verdict caching
# --------------------------------------------------------------------------- #


def test_check_type_hits_cache_on_repeat():
    schema = load("library")
    cache = SatCache(schema)
    checker = SatisfiabilityChecker(schema, cache=cache)
    first = checker.check_type("Book", find_witness=False)
    hits_before = cache.cache_info()["hits"]
    second = checker.check_type("Book", find_witness=False)
    assert cache.cache_info()["hits"] > hits_before
    assert second.verdict == first.verdict
    assert second.decided_by == first.decided_by


def test_check_field_hits_cache_on_repeat():
    schema = load("library")
    cache = SatCache(schema)
    checker = SatisfiabilityChecker(schema, cache=cache)
    assert checker.check_field("Book", "author") is True
    hits_before = cache.cache_info()["hits"]
    assert checker.check_field("Book", "author") is True
    assert cache.cache_info()["hits"] == hits_before + 1


def test_cache_shared_across_checker_instances():
    schema = load("library")
    first = SatisfiabilityChecker(schema)  # cache=True -> shared registry
    first.check_schema(engine="portfolio")
    cache = sat_cache_for(schema)
    hits_before = cache.cache_info()["hits"]
    second = SatisfiabilityChecker(schema)
    second.check_schema(engine="portfolio")
    assert cache.cache_info()["hits"] > hits_before
    assert second.last_profile["wins"].get("cache", 0) > 0


def test_warm_check_schema_settles_in_parent_without_a_pool(monkeypatch):
    """A fully cached sweep is answered in the parent even where "auto"
    would fan a cold sweep out over processes: no pool is built, each
    element is one parent-side hit, and the report matches serial's."""
    from repro.satisfiability import portfolio

    schema = load("library")
    cache = SatCache(schema)
    expected = _dump(SatisfiabilityChecker(schema, cache=cache).check_schema())
    monkeypatch.setattr(portfolio, "usable_cores", lambda: 2)

    def no_pool(*args, **kwargs):
        raise AssertionError("a warm check_schema started a process pool")

    monkeypatch.setattr(portfolio, "ProcessPoolExecutor", no_pool)
    hits_before = cache.cache_info()["hits"]
    checker = SatisfiabilityChecker(schema, cache=cache)
    report = checker.check_schema(find_witnesses=False)
    elements = len(report.types) + len(report.fields)
    assert _dump(report) == expected
    assert checker.last_profile["executor"] != "process"
    assert cache.cache_info()["hits"] - hits_before == elements
    assert checker.last_profile["wins"] == {"cache": elements}


@pytest.mark.parametrize("name", ["library", "example_6_1_a", "diagram_c"])
def test_each_cache_lookup_counted_once_per_run(name):
    """The staged per-element fallback must not look an element up again
    after the unit's lookup missed (lint and analysis off to reach it)."""
    schema = load(name)
    cache = SatCache(schema)
    checker = SatisfiabilityChecker(
        schema, cache=cache, lint_precheck=False, analysis_precheck=False
    )
    report = checker.check_schema(jobs=1)
    info = cache.cache_info()
    assert info["hits"] == 0
    assert info["misses"] == len(report.types) + len(report.fields)


def test_partially_cached_units_reuse_the_parent_lookup():
    schema = load("library")
    cache = SatCache(schema)
    warm = SatisfiabilityChecker(schema, cache=cache)
    for type_name in sorted(schema.object_types):
        warm.check_type(type_name, find_witness=False)
    before = cache.cache_info()
    checker = SatisfiabilityChecker(schema, cache=cache)
    report = checker.check_schema(jobs=2)
    after = cache.cache_info()
    assert after["hits"] - before["hits"] == len(report.types)
    assert after["misses"] - before["misses"] == len(report.fields)
    assert checker.last_profile["wins"]["cache"] == len(report.types)
    expected = SatisfiabilityChecker(schema, cache=False).check_schema(engine="serial")
    assert _dump(report) == _dump(expected)


def test_unknown_verdicts_are_never_cached():
    schema = parse_schema("type A { b: B @required }\ntype B { a: A @required }")
    cache = SatCache(schema)
    checker = SatisfiabilityChecker(
        schema, cache=cache, budget=Budget(max_nodes=1), lint_precheck=False
    )
    verdict = checker.check_type("A", find_witness=False)
    assert verdict.verdict == "unknown"
    assert cache.cache_info()["types"] == 0
    # a bigger budget must get a fresh attempt and decide
    decided = SatisfiabilityChecker(schema, cache=cache, lint_precheck=False)
    assert decided.check_type("A", find_witness=False).verdict == "sat"
    assert cache.cache_info()["types"] == 1


def test_label_cache_shares_proofs_between_type_and_field_checks():
    schema = load("library")
    cache = SatCache(schema)
    # analysis off: this test exercises the tableau's label cache, and the
    # dataflow feed would otherwise decide the whole schema without a search
    checker = SatisfiabilityChecker(schema, cache=cache, analysis_precheck=False)
    checker.check_schema(engine="serial")
    info = cache.cache_info()
    assert info["label_entries"] > 0
    assert info["label_hits"] + info["label_misses"] > 0


def test_sat_cache_info_aggregates_registry():
    schema = load("library")
    SatisfiabilityChecker(schema).check_schema()
    info = sat_cache_info()
    assert info["schemas"] == 1
    assert info["types"] == len(schema.object_types)
    assert info["fields"] > 0
    sat_cache_clear()
    assert sat_cache_info()["schemas"] == 0


# --------------------------------------------------------------------------- #
# budget cancellation (the racing primitive)
# --------------------------------------------------------------------------- #


def test_cancelled_budget_raises_at_every_check():
    budget = Budget()
    budget.cancel()
    for check in (
        lambda: budget.check_deadline(site="t"),
        lambda: budget.charge_nodes(1, site="t"),
        lambda: budget.charge_expansions(1, site="t"),
    ):
        with pytest.raises(BudgetExhaustedError) as error:
            check()
        assert error.value.reason.dimension == "cancelled"
    # renewals are born un-cancelled: the next check gets a fresh chance
    budget.renew().check_deadline(site="t")


def test_cancel_stops_a_running_tableau():
    schema = parse_schema("type A { b: B @required }\ntype B { a: A @required }")
    checker = SatisfiabilityChecker(schema, cache=False, lint_precheck=False)
    budget = Budget()
    budget.cancel()
    from repro.dl.concepts import Name

    with pytest.raises(BudgetExhaustedError) as error:
        checker.tableau.is_satisfiable(Name("A"), budget=budget)
    assert error.value.reason.dimension == "cancelled"


# --------------------------------------------------------------------------- #
# worker-crash recovery
# --------------------------------------------------------------------------- #


def test_hard_worker_kill_recovers_byte_identically():
    """An os._exit kill of a portfolio pool worker must be retried by the
    executor ladder and produce the undisturbed report byte-for-byte."""
    schema = load("library")
    faults.install(None)
    try:
        expected = _dump(
            SatisfiabilityChecker(schema, cache=False).check_schema(engine="serial")
        )
    finally:
        faults.uninstall()
    faults.install("crash@portfolio.worker:unit=1,attempt=0,mode=exit")
    try:
        checker = SatisfiabilityChecker(
            schema, cache=SatCache(schema)
        )
        report = checker.check_schema(
            jobs=2, engine="portfolio", executor="process", retry_base_delay=0.01
        )
    finally:
        faults.uninstall()
    assert _dump(report) == expected
    assert checker.last_recovery_log, "the fault must have fired and been survived"
    # the dying worker takes its whole pool attempt down: the crashed unit
    # is logged, possibly alongside pool-mates that failed collaterally
    assert any(entry["unit"] == 1 for entry in checker.last_recovery_log)
    assert all(entry["executor"] == "process" for entry in checker.last_recovery_log)


@pytest.mark.parametrize("executor", ["serial", "thread"])
def test_raised_worker_crash_recovers_on_lighter_executors(executor):
    schema = load("library")
    faults.install(None)
    try:
        expected = _dump(
            SatisfiabilityChecker(schema, cache=False).check_schema(engine="serial")
        )
    finally:
        faults.uninstall()
    faults.install("crash@portfolio.worker:unit=0,attempt=0")
    try:
        checker = SatisfiabilityChecker(schema, cache=SatCache(schema))
        report = checker.check_schema(
            jobs=2, engine="portfolio", executor=executor, retry_base_delay=0.01
        )
    finally:
        faults.uninstall()
    assert _dump(report) == expected
    assert checker.last_recovery_log
    assert checker.last_recovery_log[0]["unit"] == 0


# --------------------------------------------------------------------------- #
# profile surface
# --------------------------------------------------------------------------- #


def test_last_profile_records_engine_and_wins():
    schema = hub_chain_schema(depth=3, leaves=2)
    checker = SatisfiabilityChecker(schema, cache=SatCache(schema))
    checker.check_schema(jobs=2, engine="portfolio")
    profile = checker.last_profile
    assert profile["engine"] == "portfolio"
    assert profile["units"] == len(build_units(schema))
    assert sum(profile["wins"].values()) > 0
    checker.check_schema(engine="serial")
    assert checker.last_profile["engine"] == "serial"
