"""Tests for the islands: relational, array, text, D4M, Myria and degenerate."""

from __future__ import annotations

import sys

import numpy as np
import pytest

from repro.common.errors import ObjectNotFoundError, ParseError, PlanningError
from repro.common.schema import Row
from repro.core.bigdawg import BigDawg
from repro.core.islands.myria import MyriaPlan
from repro.engines.array import ArrayEngine
from repro.engines.array import aql as aql_module
from repro.engines.keyvalue import KeyValueEngine
from repro.engines.relational import RelationalEngine
from repro.engines.relational.sql import parser as parser_module
from repro.runtime import PolystoreRuntime


@pytest.fixture()
def bigdawg() -> BigDawg:
    bd = BigDawg()
    postgres = RelationalEngine("postgres")
    scidb = ArrayEngine("scidb")
    accumulo = KeyValueEngine("accumulo")
    bd.add_engine(postgres)
    bd.add_engine(scidb)
    bd.add_engine(accumulo)
    postgres.execute("CREATE TABLE patients (id INTEGER PRIMARY KEY, age INTEGER, race TEXT)")
    postgres.execute(
        "INSERT INTO patients VALUES (1, 64, 'white'), (2, 70, 'black'), (3, 41, 'asian'), (4, 85, 'white')"
    )
    postgres.execute("CREATE TABLE rx (pid INTEGER, drug TEXT)")
    postgres.execute("INSERT INTO rx VALUES (1, 'heparin'), (2, 'aspirin'), (2, 'heparin')")
    scidb.load_numpy("waves", np.vstack([np.linspace(0, 1, 50), np.linspace(1, 2, 50)]))
    accumulo.create_table("notes", text_indexed=True)
    accumulo.put("notes", "p1", "doctor", "n1", "patient very sick")
    accumulo.put("notes", "p1", "doctor", "n2", "still very sick")
    accumulo.put("notes", "p2", "nurse", "n1", "doing fine")
    return bd


class TestRelationalIsland:
    def test_native_pushdown_when_single_sql_engine(self, bigdawg):
        island = bigdawg.island("relational")
        before = bigdawg.engine("postgres").queries_executed
        result = island.execute("SELECT count(*) AS n FROM patients WHERE age > 60")
        assert result.rows[0]["n"] == 3
        assert bigdawg.engine("postgres").queries_executed == before + 1

    def test_sql_over_array_object_via_shim(self, bigdawg):
        island = bigdawg.island("relational")
        result = island.execute("SELECT count(*) AS n FROM waves WHERE value > 1.0")
        assert result.rows[0]["n"] == 49

    def test_cross_engine_join(self, bigdawg):
        island = bigdawg.island("relational")
        result = island.execute(
            "SELECT p.id, w.value FROM patients p JOIN waves w ON p.id = w.i WHERE w.j = 0"
        )
        assert len(result) == 1  # only patient id 1 matches array row index 1

    def test_referenced_tables_extraction(self, bigdawg):
        island = bigdawg.island("relational")
        tables = island.parse(
            "SELECT * FROM a JOIN b ON a.x = b.x JOIN (SELECT * FROM c) s ON s.y = a.y"
        ).objects
        assert tables == ("a", "b", "c")
        assert island.parse("UPDATE t SET x = 1").objects == ("t",)

    def test_can_answer(self, bigdawg):
        island = bigdawg.island("relational")
        assert island.can_answer("SELECT 1")
        assert not island.can_answer("scan(waves)")

    @pytest.mark.parametrize("query", [
        "SELECT count(*) AS n FROM patients WHERE age > 60",          # pushed down
        "SELECT count(*) AS n FROM waves WHERE value > 1.0",          # scratch engine
        "SELECT p.id, w.value FROM patients p JOIN waves w ON p.id = w.i",
        "SELECT 1 + 2 AS three",                                      # no table
        "INSERT INTO rx VALUES (3, 'warfarin')",
        "CREATE INDEX rx_pid ON rx (pid)",
    ])
    def test_each_statement_is_parsed_once(self, bigdawg, monkeypatch, query):
        original = parser_module.parse_sql
        parsed = []

        def counting(text):
            parsed.append(text)
            return original(text)

        # Every module that imported parse_sql by name counts.
        for module in list(sys.modules.values()):
            if getattr(module, "parse_sql", None) is original:
                monkeypatch.setattr(module, "parse_sql", counting)
        bigdawg.island("relational").execute(query)
        assert parsed == [query]

    def test_create_index_runs_on_the_engine_holding_the_table(self, bigdawg):
        """A regex scan found no table in CREATE INDEX, so it ran on the
        first SQL engine, whatever held the table."""
        labs = RelationalEngine("warehouse")
        bigdawg.add_engine(labs)
        labs.execute("CREATE TABLE labs (pid INTEGER, value FLOAT)")
        bigdawg.island("relational").execute("CREATE INDEX labs_pid ON labs (pid)")
        assert "labs_pid" in labs.table("labs").indexes()


class TestArrayIsland:
    def test_afl_execution_to_relation(self, bigdawg):
        island = bigdawg.island("array")
        result = island.execute("aggregate(waves, avg(value), count(value))")
        assert result.rows[0]["count(value)"] == 100.0
        grouped = island.execute("aggregate(waves, avg(value), i)")
        assert len(grouped) == 2

    def test_array_result_flattened(self, bigdawg):
        island = bigdawg.island("array")
        result = island.execute("filter(waves, value > 1.5)")
        assert set(result.schema.names) == {"i", "j", "value"}
        assert all(row["value"] > 1.5 for row in result)

    def test_object_not_reachable_through_island(self, bigdawg):
        island = bigdawg.island("array")
        with pytest.raises(ObjectNotFoundError):
            island.execute("scan(patients)")  # patients lives in postgres, not an array engine

    def test_can_answer(self, bigdawg):
        island = bigdawg.island("array")
        assert island.can_answer("aggregate(waves, avg(value))")
        assert not island.can_answer("SELECT 1")


class TestTextIsland:
    def test_phrase_search_and_min_documents(self, bigdawg):
        island = bigdawg.island("text")
        hits = island.execute('SEARCH notes FOR "very sick"')
        assert len(hits) == 2
        rows = island.execute('SEARCH notes FOR "very sick" MIN 2')
        assert [r["row"] for r in rows] == ["p1"]

    def test_conjunctive_search(self, bigdawg):
        island = bigdawg.island("text")
        hits = island.execute('SEARCH notes FOR "patient" AND "sick"')
        assert [r["row"] for r in hits.rows] == ["p1"]

    def test_and_inside_a_quoted_phrase_is_part_of_it(self, bigdawg):
        accumulo = bigdawg.engine("accumulo")
        accumulo.put("notes", "p3", "cook", "n1", "pepper salt")
        accumulo.put("notes", "p4", "cook", "n1", "add salt and pepper")
        island = bigdawg.island("text")
        hits = island.execute('SEARCH notes FOR "salt and pepper"')
        assert [r["row"] for r in hits.rows] == ["p4"]
        hits = island.execute("SEARCH notes FOR 'salt' AND 'pepper' AND \"add salt\"")
        assert [r["row"] for r in hits.rows] == ["p4"]
        hits = island.execute("SEARCH notes FOR salt and pepper")
        assert sorted(r["row"] for r in hits.rows) == ["p3", "p4"]

    def test_malformed_query(self, bigdawg):
        island = bigdawg.island("text")
        with pytest.raises(ParseError):
            island.execute("FIND ME something")


class TestD4MIsland:
    def test_fetch_and_textual_queries(self, bigdawg):
        island = bigdawg.island("d4m")
        assoc = island.fetch("notes")
        assert assoc.nnz() == 3
        degrees = island.execute("ASSOC notes DEGREE ROWS")
        by_key = {r["key"]: r["degree"] for r in degrees}
        assert by_key == {"p1": 2.0, "p2": 1.0}
        subset = island.execute("ASSOC patients ROWS 1,2")
        assert set(r["row"] for r in subset) == {"1", "2"}
        filtered = island.execute("ASSOC patients COLS age FILTER > 60")
        assert {r["row"] for r in filtered} == {"1", "2", "4"}


class TestMyriaIsland:
    def test_plan_execution_with_join_and_group_by(self, bigdawg):
        island = bigdawg.island("myria")
        plan = (
            MyriaPlan()
            .scan("patients")
            .select(lambda row: row["age"] > 50)
            .join(MyriaPlan().scan("rx"), "id", "pid")
            .group_by(["l.race"], {"prescriptions": ("count", "*")})
        )
        result = island.execute(plan)
        by_race = {r["l.race"]: r["prescriptions"] for r in result}
        assert by_race == {"white": 1, "black": 2}

    def test_iteration_reaches_fixpoint(self, bigdawg):
        island = bigdawg.island("myria")
        seed = island.execute(MyriaPlan().scan("patients").project(["id"]))

        def next_plan(previous):
            # A no-op plan over the same table: the fixpoint is reached immediately.
            return MyriaPlan().scan("patients").project(["id"])

        result, iterations = island.iterate(next_plan, seed, max_iterations=10)
        assert iterations == 1
        assert len(result) == 4

    def test_plan_must_start_with_scan(self, bigdawg):
        island = bigdawg.island("myria")
        with pytest.raises(PlanningError):
            island.execute(MyriaPlan().project(["id"]))
        with pytest.raises(PlanningError):
            island.execute("SELECT 1")


class TestDegenerateIslands:
    def test_relational_passthrough(self, bigdawg):
        island = bigdawg.degenerate_island("postgres")
        result = island.execute("SELECT max(age) AS m FROM patients")
        assert result.rows[0]["m"] == 85

    def test_array_passthrough_native(self, bigdawg):
        island = bigdawg.degenerate_island("scidb")
        native = island.execute_native("aggregate(waves, max(value))")
        assert native["max(value)"] == pytest.approx(2.0)

    def test_keyvalue_mini_language(self, bigdawg):
        island = bigdawg.degenerate_island("accumulo")
        row = island.execute("GET notes p1")
        assert len(row) == 2
        scan = island.execute("SCAN notes")
        assert len(scan) == 3
        from repro.common.errors import UnsupportedOperationError

        with pytest.raises(UnsupportedOperationError):
            island.execute("DELETE notes")

    def test_call_escape_hatch(self, bigdawg):
        island = bigdawg.degenerate_island("accumulo")
        count = island.call(lambda engine: len(engine.scan("notes")))
        assert count == 3

    def test_island_lookup_by_both_names(self, bigdawg):
        assert bigdawg.island("degenerate_postgres") is bigdawg.degenerate_island("postgres")
        with pytest.raises(ObjectNotFoundError):
            bigdawg.island("degenerate_mysql")


# -------------------------------------------------------------------- parse
class TestIslandParse:
    """Each text island parses a statement once into the catalog objects it
    reads or writes and whether it writes: what the runtime routes by."""

    @pytest.mark.parametrize("island, text, objects, writes", [
        ("relational",
         "SELECT r.drug FROM rx r JOIN patients p ON p.id = r.pid "
         "JOIN (SELECT id FROM seniors WHERE age > 65) s ON s.id = p.id",
         ("rx", "patients", "seniors"), False),
        ("relational", "INSERT INTO rx VALUES (3, 'aspirin')", ("rx",), True),
        ("relational", "UPDATE patients SET age = 65 WHERE id = 1", ("patients",), True),
        ("relational", "DELETE FROM rx WHERE pid = 2", ("rx",), True),
        ("relational", "CREATE TABLE labs (pid INTEGER, value FLOAT)", ("labs",), True),
        ("relational", "DROP TABLE rx", ("rx",), True),
        ("array", "aggregate(filter(waves, value > 0.5), avg(value))", ("waves",), False),
        ("text", 'SEARCH notes FOR "very sick" MIN 2', ("notes",), False),
        ("d4m", "ASSOC notes ROWS p1,p2", ("notes",), False),
    ])
    def test_objects_and_writes(self, bigdawg, island, text, objects, writes):
        statement = bigdawg.island(island).parse(text)
        assert (statement.text, statement.objects, statement.writes) == (text, objects, writes)

    def test_a_select_lists_only_its_tables(self, bigdawg):
        """Its columns and literals spell other catalog objects."""
        bigdawg.engine("postgres").execute("CREATE TABLE visits (id INTEGER, rx INTEGER)")
        statement = bigdawg.island("relational").parse(
            "SELECT id, rx AS notes FROM visits WHERE 'waves' <> 'patients'"
        )
        assert statement.objects == ("visits",)

    def test_a_parsed_statement_executes_as_its_text_does(self, bigdawg):
        for name, text in [("relational", "SELECT count(*) AS n FROM rx"),
                           ("array", "aggregate(waves, max(value))"),
                           ("text", 'SEARCH notes FOR "very sick"'),
                           ("d4m", "ASSOC notes DEGREE ROWS")]:
            island = bigdawg.island(name)
            parsed = island.execute(island.parse(text))
            assert [tuple(row.values) for row in parsed.rows] == [
                tuple(row.values) for row in island.execute(text).rows
            ]

    def test_islands_without_text_refuse_to_parse(self, bigdawg):
        with pytest.raises(ParseError):
            bigdawg.island("myria").parse("SELECT 1")
        with pytest.raises(ParseError):
            bigdawg.degenerate_island("postgres").parse("SELECT 1")

    @pytest.mark.parametrize("query, parser", [
        ("ARRAY(aggregate(waves, avg(value)))", "parse_aql"),
        ("RELATIONAL(SELECT count(*) AS n FROM patients)", "parse_sql"),
        ("SELECT count(*) AS n FROM patients", "parse_sql"),
    ])
    def test_one_runtime_query_parses_its_statement_once(self, bigdawg, monkeypatch,
                                                          query, parser):
        calls = []
        for original in (parser_module.parse_sql, aql_module.parse_aql):
            def counting(text, original=original):
                calls.append(original.__name__)
                return original(text)

            # Every module that imported the parser by name counts.
            for module in list(sys.modules.values()):
                if getattr(module, original.__name__, None) is original:
                    monkeypatch.setattr(module, original.__name__, counting)
        runtime = PolystoreRuntime(bigdawg, workers=1)
        try:
            runtime.execute(query, use_cache=False)
        finally:
            runtime.shutdown()
        assert calls == [parser]
