"""Tests for the SCOPE/CAST language, the cross-island planner, the monitor and semantics.

The scoped-query tests fail if a WITH binding is renamed anywhere but in a
table reference: a column, alias or qualifier spelled like a binding must
stay as written, a binding's name must not leak its per-execution temporary
into result columns, and a property test draws binding names from the
queried columns and aliases.  The runtime's WITH and temporary-scoping tests
(``test_runtime.py -k "with or binding or temporar"``) go with them.  CI
runs the tier-1 suite under ``python -X dev``, so the debug allocator and
warnings are on for these tests too.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import ParseError, PlanningError
from repro.core.bigdawg import BigDawg
from repro.core.monitor import ExecutionMonitor
from repro.core.query.language import parse_query, parse_scope
from repro.core.query.planner import CastStep, IslandQueryStep
from repro.core.semantics import ProbeCase, SemanticProber
from repro.engines.array import ArrayEngine
from repro.engines.keyvalue import KeyValueEngine
from repro.engines.relational import RelationalEngine
from repro.observability import Tracer, tracer_scope
from repro.runtime import PolystoreRuntime


# ----------------------------------------------------------------- language
class TestQueryLanguage:
    def test_parse_scope_and_casts(self):
        scope = parse_scope(
            "RELATIONAL(SELECT * FROM CAST(waves, relational) WHERE value > 5)"
        )
        assert scope.island == "relational"
        assert len(scope.casts) == 1
        assert scope.casts[0].object_name == "waves"
        assert scope.casts[0].target_island == "relational"
        assert "CAST" not in scope.body_without_casts

    def test_bigdawg_wrapper_unwrapped(self):
        scope = parse_scope("BIGDAWG(ARRAY(scan(waves)))")
        assert scope.island == "array"

    def test_nested_parentheses_preserved(self):
        scope = parse_scope("RELATIONAL(SELECT count(*) FROM (SELECT id FROM t) s)")
        assert scope.body.count("(") == scope.body.count(")")

    def test_with_bindings(self):
        query = parse_query(
            "WITH seniors = RELATIONAL(SELECT id FROM patients WHERE age > 65) "
            "ARRAY(aggregate(waves, avg(value)))"
        )
        assert len(query.bindings) == 1
        assert query.bindings[0][0] == "seniors"
        assert query.final.island == "array"

    def test_parse_errors(self):
        with pytest.raises(ParseError):
            parse_scope("QUANTUM(SELECT 1)")
        with pytest.raises(ParseError):
            parse_scope("RELATIONAL(SELECT 1")
        with pytest.raises(ParseError):
            parse_scope("not a scope at all")
        with pytest.raises(ParseError):
            parse_query("WITH x = RELATIONAL(SELECT 1)")  # missing final scope


# ------------------------------------------------------------------ planner
@pytest.fixture()
def bigdawg() -> BigDawg:
    bd = BigDawg()
    postgres = RelationalEngine("postgres")
    scidb = ArrayEngine("scidb")
    accumulo = KeyValueEngine("accumulo")
    bd.add_engine(postgres, islands=["relational", "myria", "d4m"])
    # Note: scidb deliberately NOT a member of the relational island here, so a
    # CAST into the relational island is actually required.
    bd.add_engine(scidb, islands=["array"])
    bd.add_engine(accumulo, islands=["text", "d4m"])
    postgres.execute("CREATE TABLE patients (id INTEGER PRIMARY KEY, age INTEGER)")
    postgres.execute("INSERT INTO patients VALUES (1, 64), (2, 70), (3, 41)")
    scidb.load_numpy("waves", np.arange(12, dtype=float).reshape(3, 4))
    accumulo.create_table("notes", text_indexed=True)
    accumulo.put("notes", "p1", "doctor", "n1", "very sick patient")
    return bd


class TestCrossIslandPlanner:
    def test_plan_contains_cast_step_when_needed(self, bigdawg):
        plan = bigdawg.plan(
            "RELATIONAL(SELECT count(*) AS n FROM CAST(waves, relational) WHERE value > 5)"
        )
        kinds = [type(step) for step in plan.steps]
        assert kinds == [CastStep, IslandQueryStep]
        assert "CAST waves" in plan.explain()

    def test_cast_skipped_when_already_reachable(self, bigdawg):
        plan = bigdawg.plan("RELATIONAL(SELECT count(*) AS n FROM CAST(patients, relational))")
        assert [type(step) for step in plan.steps] == [IslandQueryStep]

    def test_execute_cross_island_query(self, bigdawg):
        result = bigdawg.execute(
            "RELATIONAL(SELECT count(*) AS n FROM CAST(waves, relational) WHERE value > 5)"
        )
        assert result.rows[0]["n"] == 6
        # The cast materialized the array as a table in the relational engine.
        assert bigdawg.engine("postgres").has_object("waves")
        assert len(bigdawg.migrator.history) == 1

    def test_with_binding_visible_to_later_scope(self, bigdawg):
        result = bigdawg.execute(
            "WITH seniors = RELATIONAL(SELECT id, age FROM patients WHERE age >= 64) "
            "RELATIONAL(SELECT count(*) AS n FROM seniors WHERE age >= 70)"
        )
        assert result.rows[0]["n"] == 1

    def test_unscoped_query_routed_by_can_answer(self, bigdawg):
        relational = bigdawg.execute("SELECT count(*) AS n FROM patients")
        assert relational.rows[0]["n"] == 3
        text = bigdawg.execute('SEARCH notes FOR "very sick"')
        assert len(text) == 1
        with pytest.raises(PlanningError):
            bigdawg.execute("?? not a query in any island language ??")

    def test_explain_unscoped(self, bigdawg):
        assert "RELATIONAL" in bigdawg.explain("SELECT 1")

    def test_plan_timings_recorded(self, bigdawg):
        plan = bigdawg.plan("ARRAY(aggregate(waves, avg(value)))")
        tracer = Tracer(enabled=True)
        with tracer_scope(tracer):
            bigdawg._planner.execute_plan(plan)
        steps = [s for s in tracer.spans() if s.name.startswith("step.")]
        assert len(steps) == len(plan.steps)


# ---------------------------------------------------------- scope detection
class TestScopeDetection:
    """A query is scoped exactly when it opens the way the grammar reads a
    scope or a WITH binding: the whitespace the grammar allows before a
    scope's parenthesis and after WITH must not send a query to the islands
    as bare text (they recognize none of these)."""

    SPELLINGS = [
        "RELATIONAL (SELECT count(*) AS n FROM patients)",
        "relational\n(SELECT count(*) AS n FROM patients)",
        "BIGDAWG (RELATIONAL(SELECT count(*) AS n FROM patients))",
        "  BigDawg(\tRELATIONAL (SELECT count(*) AS n FROM patients))",
        "with\tp = RELATIONAL(SELECT id FROM patients) RELATIONAL(SELECT count(*) AS n FROM p)",
        "WITH\np = RELATIONAL (SELECT id FROM patients)\nRELATIONAL(SELECT count(*) AS n FROM p)",
    ]

    @pytest.mark.parametrize("query", SPELLINGS)
    def test_every_spelling_the_grammar_reads_runs_and_explains_scoped(self, bigdawg, query):
        parse_query(query)
        assert BigDawg.is_scoped(query)
        assert bigdawg.execute(query).rows[0]["n"] == 3
        assert bigdawg.explain(query) == bigdawg.plan(query).explain()

    def test_the_runtime_runs_every_spelling_uncached(self, bigdawg):
        with PolystoreRuntime(bigdawg, workers=1) as runtime:
            for query in self.SPELLINGS:
                assert runtime.execute(query, use_cache=False).rows[0]["n"] == 3

    @pytest.mark.parametrize("query", [
        "SELECT count(*) AS n FROM patients",
        'SEARCH notes FOR "relational("',
        "aggregate(waves, avg(value))",
        "relationalx(SELECT 1)",
        "SELECT * FROM withheld",
        "WITHp = RELATIONAL(SELECT 1) RELATIONAL(SELECT 1)",
        "with (SELECT 1)",
    ])
    def test_bare_island_text_is_not_scoped(self, query):
        assert not BigDawg.is_scoped(query)


_WHITESPACE = st.text(alphabet=" \t\n\r", max_size=3)


@settings(max_examples=150, deadline=None)
@given(
    name=st.sampled_from(["relational", "array", "text", "d4m", "myria", "bigdawg",
                          "quantum", "select", "relationalx", "with"]),
    keyword=st.sampled_from(["with", "within", "wit"]),
    upper=st.lists(st.booleans(), min_size=11, max_size=11),
    spaces=st.lists(_WHITESPACE, min_size=4, max_size=4),
    binding=st.booleans(),
)
def test_scope_detection_agrees_with_the_grammar(name, keyword, upper, spaces, binding):
    """``is_scoped`` holds exactly for the texts ``parse_query`` reads, over
    openings spelled in any case, with names that are scopes and names that
    are not, and any whitespace the grammar skips (or needs, after WITH)."""
    def cased(word: str) -> str:
        return "".join(c.upper() if u else c for c, u in zip(word, upper))

    if binding:
        scope = "RELATIONAL(SELECT 1)"
        text = f"{spaces[0]}{cased(keyword)}{spaces[1]}p{spaces[2]}= {scope} {scope}"
    else:
        body = "RELATIONAL(SELECT 1)" if name == "bigdawg" else "SELECT 1"
        text = f"{spaces[0]}{cased(name)}{spaces[1]}({body})"
    try:
        parse_query(text)
        parses = True
    except ParseError:
        parses = False
    assert BigDawg.is_scoped(text) == parses


# ------------------------------------------------- literals are not structure
class TestQuotedLiteralsAreData:
    """Text inside a quoted literal names no WITH binding, closes no scope and
    casts nothing: each query below spells query structure in a literal."""

    @pytest.fixture()
    def labelled(self, bigdawg):
        postgres = bigdawg.engine("postgres")
        postgres.execute("CREATE TABLE t (label TEXT, v INTEGER)")
        postgres.execute(
            "INSERT INTO t VALUES ('x', 1), (')', 2), ('CAST(t, array)', 3), "
            "('CAST(t, relational)', 4)"
        )
        return bigdawg

    @staticmethod
    def values(relation):
        return [tuple(row.values) for row in relation.rows]

    def test_a_literal_spelling_a_binding_is_not_renamed(self, labelled):
        result = labelled.execute(
            "WITH x = RELATIONAL(SELECT label, v FROM t) "
            "RELATIONAL(SELECT label FROM x WHERE label = 'x')"
        )
        assert self.values(result) == [("x",)]

    def test_a_parenthesis_in_a_literal_closes_no_scope(self, labelled):
        result = labelled.execute("RELATIONAL(SELECT v FROM t WHERE label = ')')")
        assert self.values(result) == [(2,)]

    def test_a_cast_spelled_in_a_literal_casts_nothing(self, labelled):
        query = "RELATIONAL(SELECT v FROM t WHERE label = 'CAST(t, array)')"
        assert [type(step) for step in labelled.plan(query).steps] == [IslandQueryStep]
        assert self.values(labelled.execute(query)) == [(3,)]
        assert labelled.migrator.history == []
        assert labelled.catalog.locate("t").engine_name == "postgres"

    def test_eliding_a_cast_leaves_the_same_text_in_a_literal(self, labelled):
        scope = parse_scope(
            "RELATIONAL(SELECT v FROM CAST(t, relational) WHERE label = 'CAST(t, relational)')"
        )
        assert len(scope.casts) == 1
        assert scope.body_without_casts == "SELECT v FROM t WHERE label = 'CAST(t, relational)'"
        result = labelled.execute(f"RELATIONAL({scope.body})")
        assert self.values(result) == [(4,)]

    def test_a_binding_named_only_in_a_literal_is_no_dependency(self, labelled):
        plan = labelled.plan(
            "WITH a = RELATIONAL(SELECT v FROM t) "
            "WITH b = RELATIONAL(SELECT label FROM t WHERE label = 'a') "
            "RELATIONAL(SELECT count(*) AS n FROM b)"
        )
        assert plan.dependencies[:2] == [set(), set()]


# ------------------------------------------ WITH bindings renamed on the parse
def values_sorted(relation):
    return sorted((tuple(row.values) for row in relation.rows), key=repr)


def with_table_t(bigdawg: BigDawg) -> BigDawg:
    postgres = bigdawg.engine("postgres")
    postgres.execute("CREATE TABLE t (x INTEGER, v INTEGER)")
    postgres.execute("INSERT INTO t VALUES " + ", ".join(f"({i}, {i * 3 % 7})" for i in range(8)))
    return bigdawg


class TestBindingsRenamedOnTheParse:
    """A WITH binding is renamed only where a statement reads it as a table:
    columns, aliases and qualifiers spelled like a binding stay as written."""

    @pytest.fixture()
    def tx(self, bigdawg):
        return with_table_t(bigdawg)

    def test_a_column_named_like_the_binding_is_not_renamed(self, tx):
        result = tx.execute("WITH x = RELATIONAL(SELECT x, v FROM t) RELATIONAL(SELECT v FROM x)")
        assert values_sorted(result) == values_sorted(tx.execute("SELECT v FROM t"))

    def test_another_tables_qualified_column_is_not_renamed(self, tx):
        result = tx.execute(
            "WITH x = RELATIONAL(SELECT v FROM t WHERE x < 3) "
            "RELATIONAL(SELECT t.x FROM t JOIN x ON t.v = x.v)"
        )
        # v = 3x mod 7: rows 0..2 hold v 0, 3, 6, and row 7 holds v 0 too.
        assert values_sorted(result) == [(0,), (1,), (2,), (7,)]

    def test_a_column_alias_named_like_a_binding_is_no_dependency(self, tx):
        query = (
            "WITH a = RELATIONAL(SELECT v FROM t) "
            "WITH b = RELATIONAL(SELECT x AS a FROM t) "
            "RELATIONAL(SELECT * FROM b)"
        )
        assert tx.plan(query).dependencies == [set(), set(), {0, 1}]
        result = tx.execute(query)
        assert result.schema.names == ["b.a"]
        assert values_sorted(result) == [(i,) for i in range(8)]

    def test_a_result_names_the_binding_not_its_temporary(self, tx):
        query = "WITH y = RELATIONAL(SELECT x FROM t) RELATIONAL(SELECT * FROM y)"
        assert tx.execute(query).schema.names == ["y.x"]

    def test_two_runs_of_one_query_return_one_schema(self, tx):
        query = "WITH y = RELATIONAL(SELECT x, v FROM t) RELATIONAL(SELECT * FROM y WHERE y.v > 2)"
        assert tx.execute(query).schema == tx.execute(query).schema

    def test_a_d4m_keyword_named_like_the_binding_is_not_renamed(self, tx):
        result = tx.execute(
            "WITH rows = RELATIONAL(SELECT x, v FROM t WHERE x < 2) "
            "D4M(ASSOC rows DEGREE ROWS)"
        )
        assert len(result) == 2

    def test_a_binding_named_like_the_table_it_reads_reads_the_table(self, tx):
        # v = 3x mod 7 is above 3 at x = 2, 4 and 6.
        result = tx.execute(
            "WITH t = RELATIONAL(SELECT x FROM t WHERE v > 3) RELATIONAL(SELECT * FROM t)"
        )
        assert values_sorted(result) == [(2,), (4,), (6,)]

    def test_a_binding_reads_the_table_a_later_binding_is_named_like(self, tx):
        query = (
            "WITH a = RELATIONAL(SELECT x FROM t WHERE x < 3) "
            "WITH t = RELATIONAL(SELECT x FROM a WHERE x > 0) "
            "RELATIONAL(SELECT * FROM t)"
        )
        assert tx.plan(query).dependencies == [set(), {0}, {0, 1}]
        assert values_sorted(tx.execute(query)) == [(1,), (2,)]

    def test_a_statement_naming_no_binding_is_returned_as_planned(self, tx):
        plan = tx.plan("WITH y = RELATIONAL(SELECT x FROM t) RELATIONAL(SELECT count(*) AS n FROM t)")
        execution = tx.planner.start(plan)
        assert execution.statement(1) is plan.steps[1].statement
        assert execution.statement(0) is plan.steps[0].statement


#: Final queries over bindings ``{a}`` (columns x, w) and ``{b}`` (y, v):
#: each also spells the names a binding may take as columns, aliases and
#: qualifiers.
FINAL_QUERIES = (
    "SELECT {a}.x, {a}.w, {b}.v FROM {a} JOIN {b} ON {a}.x = {b}.y",
    "SELECT count(*) AS {a} FROM (SELECT {b}.y FROM {b} WHERE {b}.v > 1) AS q",
    "SELECT {a}.w AS {b}, t.x FROM t JOIN {a} ON t.x = {a}.x",
    "SELECT x, w FROM {a} AS y WHERE y.w < 5",
)


@settings(max_examples=40, deadline=None)
@given(
    names=st.lists(st.sampled_from(["x", "v", "w", "y", "q", "a", "b"]),
                   min_size=2, max_size=2, unique=True),
    final=st.sampled_from(FINAL_QUERIES),
)
def test_a_binding_name_drawn_from_column_names_and_aliases_changes_no_row(names, final):
    def query(a: str, b: str) -> str:
        return (
            f"WITH {a} = RELATIONAL(SELECT x, v AS w FROM t WHERE v > 1) "
            f"WITH {b} = RELATIONAL(SELECT q.x AS y, q.v AS v FROM t AS q WHERE q.x < 6) "
            f"RELATIONAL({final.format(a=a, b=b)})"
        )

    bigdawg = BigDawg()
    bigdawg.add_engine(RelationalEngine("postgres"))
    with_table_t(bigdawg)
    expected = values_sorted(bigdawg.execute(query("fresh_a", "fresh_b")))
    assert values_sorted(bigdawg.execute(query(*names))) == expected


# ------------------------------------------------------------------ monitor
class TestMonitorAndAdvisor:
    def test_monitor_statistics(self):
        monitor = ExecutionMonitor()
        monitor.record("sql_filter", "patients", "postgres", 0.010)
        monitor.record("sql_filter", "patients", "postgres", 0.014)
        monitor.record("sql_filter", "patients", "scidb", 0.050)
        monitor.record("linear_algebra", "patients", "scidb", 0.002)
        assert monitor.mean_latency("sql_filter", "patients", "postgres") == pytest.approx(0.012)
        assert monitor.dominant_query_class("patients") == "sql_filter"
        best_engine, best = monitor.best_engine("sql_filter", "patients")
        assert best_engine == "postgres" and best == pytest.approx(0.012)
        assert monitor.best_engine("text_search", "patients") is None

    def test_probe_records_per_engine_latencies(self):
        monitor = ExecutionMonitor()
        latencies = monitor.probe(
            "agg", "waves",
            {"fast": lambda: sum(range(10)), "slow": lambda: sum(range(200_000))},
        )
        assert latencies["fast"] < latencies["slow"]
        assert len(monitor.observations) == 2

    def test_advisor_recommends_and_applies_migration(self, bigdawg):
        # Simulate observed latencies: waves (currently in scidb) is much faster
        # to query in scidb for linear algebra, so no move; patients is faster in
        # scidb for linear algebra, so a move is recommended.
        monitor = bigdawg.monitor
        monitor.record("linear_algebra", "patients", "postgres", 0.5)
        monitor.record("linear_algebra", "patients", "postgres", 0.4)
        monitor.record("linear_algebra", "patients", "scidb", 0.01)
        recommendation = bigdawg.advisor.recommend("patients")
        assert recommendation.target_engine == "scidb"
        assert recommendation.expected_speedup > 10
        moved = bigdawg.advisor.apply(recommendation, dimensions=["id"])
        assert moved is True
        assert bigdawg.catalog.locate("patients").engine_name == "scidb"
        assert bigdawg.engine("scidb").has_object("patients")

    def test_advisor_skips_pointless_moves(self, bigdawg):
        monitor = bigdawg.monitor
        monitor.record("sql_filter", "patients", "postgres", 0.001)
        monitor.record("sql_filter", "patients", "scidb", 0.100)
        recommendation = bigdawg.advisor.recommend("patients")
        assert recommendation.target_engine == "postgres"
        assert recommendation.worthwhile is False
        assert bigdawg.advisor.apply(recommendation) is False

    def test_rebalance_honours_minimum_speedup(self, bigdawg):
        monitor = bigdawg.monitor
        monitor.record("linear_algebra", "patients", "postgres", 0.011)
        monitor.record("linear_algebra", "patients", "scidb", 0.010)
        moved = bigdawg.advisor.rebalance(["patients"], minimum_speedup=1.5)
        assert moved == []

    def test_recommend_without_observations(self, bigdawg):
        assert bigdawg.advisor.recommend("patients") is None


# ----------------------------------------------------------------- semantics
class TestSemanticProber:
    def test_common_sub_island_detected(self, bigdawg):
        prober = SemanticProber(bigdawg)
        cases = [
            ProbeCase(
                name="count_waves_cells",
                functionality="count",
                island_queries={
                    "relational": "SELECT count(*) AS n FROM waves",
                    "array": "aggregate(waves, count(value))",
                },
                normalizer=lambda rel: int(float(rel.rows[0].values[0])),
            ),
        ]
        # The relational island cannot reach 'waves' in this wiring (scidb is
        # array-only), so first make it reachable by adding the membership.
        bigdawg.catalog.add_island_member("relational", "scidb")
        agreements = prober.common_sub_islands(cases)
        assert agreements == {"count": ["array", "relational"]}

    def test_disagreeing_islands_not_grouped(self, bigdawg):
        bigdawg.catalog.add_island_member("relational", "scidb")
        prober = SemanticProber(bigdawg)
        cases = [
            ProbeCase(
                name="different_semantics",
                functionality="sum",
                island_queries={
                    "relational": "SELECT sum(value) AS s FROM waves WHERE value > 5",
                    "array": "aggregate(waves, sum(value))",
                },
                normalizer=lambda rel: round(float(rel.rows[0].values[0]), 6),
            ),
        ]
        assert prober.common_sub_islands(cases) == {}

    def test_failed_probe_recorded_not_raised(self, bigdawg):
        prober = SemanticProber(bigdawg)
        case = ProbeCase(
            name="broken",
            functionality="count",
            island_queries={"relational": "SELECT * FROM table_that_does_not_exist"},
        )
        outcomes = prober.run_case(case)
        assert outcomes[0].succeeded is False
        assert outcomes[0].error
