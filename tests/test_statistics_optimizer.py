"""Tests for the statistics layer, the optimizer pass and the streaming
group-by: projection pushdown correctness, byte-based build sides,
selectivity-ordered conjuncts, bounded-memory grouped aggregation, the
soft-keyword lexer/parser changes and the cross-island join SQL generation.
"""

from __future__ import annotations

import pytest

from repro.common.errors import ParseError, PlanningError
from repro.common.serialization import BinaryCodec
from repro.engines.relational import RelationalEngine
from repro.engines.relational.statistics import StatisticsCatalog
from repro.engines.relational.vectorized import DEFAULT_BATCH_ROWS


WIDE_COLUMNS = 30  # extra payload columns beyond id/k/grp/val


def fill_engine(engine: RelationalEngine, rows: int = 2000) -> RelationalEngine:
    """Two joinable tables: a wide fact table and a narrow dimension."""
    payload = ", ".join(f"c{i} INTEGER" for i in range(WIDE_COLUMNS))
    engine.execute(
        f"CREATE TABLE wide (id INTEGER PRIMARY KEY, k INTEGER, grp TEXT, "
        f"val FLOAT, {payload})"
    )
    engine.insert_rows(
        "wide",
        [
            (
                i,
                i % 40,
                None if i % 13 == 0 else f"g{i % 5}",
                None if i % 11 == 0 else (i % 97) / 3.0,
                *[(i + j) % 20 for j in range(WIDE_COLUMNS)],
            )
            for i in range(rows)
        ],
    )
    engine.execute("CREATE TABLE dim (k INTEGER, label TEXT, weight FLOAT)")
    engine.insert_rows(
        "dim", [(k, f"label_{k % 6}", k * 1.5) for k in range(30)] + [(None, "nul", 0.0)]
    )
    return engine


@pytest.fixture(scope="module")
def engines():
    """(optimized engine, same data with the optimizer off)."""
    plain = fill_engine(RelationalEngine("plain"))
    plain.optimizer_enabled = False
    return fill_engine(RelationalEngine("vec")), plain


# ------------------------------------------------------------------ statistics
class TestStatistics:
    def test_column_statistics_basics(self):
        engine = RelationalEngine("s")
        engine.execute("CREATE TABLE t (a INTEGER, b TEXT, c FLOAT)")
        engine.insert_rows(
            "t",
            [(1, "xx", 0.5), (2, "yyyy", 1.5), (2, None, 2.5), (3, "xx", None)],
        )
        stats = engine.table_stats("t")
        assert stats.row_count == 4
        a = stats.column("a")
        assert a.ndv == 3 and a.minimum == 1 and a.maximum == 3
        b = stats.column("b")
        assert b.null_fraction == pytest.approx(0.25)
        assert b.ndv == 2
        c = stats.column("c")
        assert c.null_fraction == pytest.approx(0.25)
        assert stats.avg_row_width > 8  # integer + text + float

    def test_qualified_column_lookup(self):
        engine = RelationalEngine("s")
        engine.execute("CREATE TABLE t (a INTEGER)")
        engine.insert_rows("t", [(1,)])
        stats = engine.table_stats("t")
        assert stats.column("t.a") is stats.column("a")

    def test_row_count_tracks_without_reanalyze(self):
        engine = RelationalEngine("s")
        engine.execute("CREATE TABLE t (a INTEGER)")
        engine.insert_rows("t", [(i,) for i in range(1000)])
        first = engine.table_stats("t")
        assert first.row_count == 1000
        # A small insert updates the cheap counter but keeps the analyzed
        # column statistics (NDV unchanged even though new values arrived).
        engine.insert_rows("t", [(5000 + i,) for i in range(10)])
        second = engine.table_stats("t")
        assert second.row_count == 1010
        assert second is first  # cached snapshot, row count patched live

    def test_heavy_churn_triggers_reanalyze(self):
        engine = RelationalEngine("s")
        engine.execute("CREATE TABLE t (a INTEGER)")
        engine.insert_rows("t", [(i,) for i in range(100)])
        first = engine.table_stats("t")
        engine.insert_rows("t", [(1000 + i,) for i in range(500)])
        second = engine.table_stats("t")
        assert second is not first
        assert second.column("a").maximum == 1499

    def test_missing_table_yields_none(self):
        engine = RelationalEngine("s")
        assert engine.table_stats("nope") is None

    def test_invalidate_on_drop_and_replace(self):
        engine = RelationalEngine("s")
        engine.execute("CREATE TABLE t (a INTEGER)")
        engine.insert_rows("t", [(1,)])
        assert engine.table_stats("t") is not None
        engine.execute("DROP TABLE t")
        assert engine.table_stats("t") is None

    def test_analyze_sampling_is_bounded(self, monkeypatch):
        import repro.engines.relational.statistics as stats_mod

        monkeypatch.setattr(stats_mod, "ANALYZE_SAMPLE_ROWS", 100)
        engine = RelationalEngine("s")
        engine.execute("CREATE TABLE t (a INTEGER)")
        engine.insert_rows("t", [(i,) for i in range(1000)])
        catalog = StatisticsCatalog(engine)
        stats = catalog.analyze("t")
        # Unique-in-sample columns scale back up to the full row count.
        assert stats.column("a").ndv == 1000
        assert stats.row_count == 1000


# ------------------------------------------------------------------- optimizer
class TestProjectionPushdown:
    def test_explain_shows_pruned_columns_and_stats(self, engines):
        vec, _plain = engines
        plan = vec.explain(
            "SELECT d.label, sum(w.val) AS s FROM wide w JOIN dim d ON w.k = d.k "
            "GROUP BY d.label"
        )
        assert "Stats(wide: rows=2000" in plan
        assert "[pruned:" in plan
        # The wide side keeps only the join key and the aggregated column.
        assert "Project(w.k, w.val)" in plan or "Project(w.val, w.k)" in plan

    def test_select_star_disables_pruning(self, engines):
        vec, _plain = engines
        plan = vec.explain("SELECT * FROM wide w JOIN dim d ON w.k = d.k")
        assert "[pruned:" not in plan

    def test_pruning_blocked_on_outer_join_non_preserved_side(self, engines):
        vec, _plain = engines
        # LEFT JOIN: the right (non-preserved) side must not be narrowed,
        # mirroring the WHERE-pushdown boundary; the left side may be.
        plan = vec.explain("SELECT w.id FROM wide w LEFT JOIN dim d ON w.k = d.k")
        lines = plan.splitlines()
        join_depth = next(
            line.index("Hash") // 2 for line in lines if "HashJoin" in line
        )
        below_join = [line for line in lines if line.startswith("  " * (join_depth + 1))]
        right_side = below_join[-1]
        assert "SeqScan(dim" in right_side and "[pruned:" not in right_side
        assert any("[pruned:" in line for line in below_join)
        # FULL OUTER: neither side prunable.
        plan = vec.explain(
            "SELECT w.id FROM wide w FULL OUTER JOIN dim d ON w.k = d.k"
        )
        assert "[pruned:" not in plan

    def test_counts_pruned_columns(self, engines):
        vec, _plain = engines
        before = vec.columns_pruned
        vec.execute("SELECT d.label FROM wide w JOIN dim d ON w.k = d.k LIMIT 1")
        assert vec.columns_pruned > before

    def test_parity_wide_join_grid(self, engines, reference_execute):
        vec, plain = engines
        queries = [
            "SELECT w.id, d.label FROM wide w JOIN dim d ON w.k = d.k ORDER BY w.id LIMIT 50",
            "SELECT * FROM wide w JOIN dim d ON w.k = d.k ORDER BY w.id LIMIT 25",
            "SELECT w.id, w.c7, d.weight FROM wide w LEFT JOIN dim d ON w.k = d.k ORDER BY w.id LIMIT 40",
            "SELECT w.id, d.k FROM wide w RIGHT JOIN dim d ON w.k = d.k ORDER BY d.k, w.id LIMIT 40",
            "SELECT w.grp, count(*) AS n, sum(w.val) AS s FROM wide w GROUP BY w.grp",
            "SELECT d.label, count(*) AS n, avg(w.val) AS a FROM wide w JOIN dim d ON w.k = d.k "
            "GROUP BY d.label ORDER BY d.label",
            "SELECT count(*) AS n FROM wide w JOIN dim d ON w.k = d.k AND w.c0 < d.weight",
            "SELECT w.grp, w.c1, min(w.val) AS lo, max(w.c2) AS hi FROM wide w "
            "GROUP BY w.grp, w.c1 ORDER BY w.grp, w.c1",
        ]
        codec = BinaryCodec()
        for query in queries:
            # One reference for both: the unoptimized plan, row at a time.
            expected = codec.encode(reference_execute(plain, query))
            assert codec.encode(reference_execute(vec, query)) == expected, query
            assert codec.encode(vec.execute(query)) == expected, query
            assert codec.encode(plain.execute(query)) == expected, query


class TestCostDecisions:
    @pytest.fixture()
    def sized(self):
        engine = RelationalEngine("cost")
        engine.execute("CREATE TABLE narrow (k INTEGER, v INTEGER)")
        engine.insert_rows("narrow", [(i % 50, i) for i in range(3000)])
        engine.execute(
            "CREATE TABLE fat (k INTEGER, t0 TEXT, t1 TEXT, t2 TEXT, t3 TEXT)"
        )
        filler = "x" * 60
        engine.insert_rows(
            "fat", [(i % 50, filler, filler, filler, filler) for i in range(1000)]
        )
        return engine

    def test_build_side_from_bytes_not_rows(self, sized):
        # fat has fewer rows but far more bytes; SELECT * keeps it wide, so
        # the byte-based choice builds on narrow (left) where the row-count
        # heuristic would have built on fat (right).
        plan = sized.explain("SELECT * FROM narrow n JOIN fat f ON n.k = f.k")
        assert "build=left" in plan
        sized.optimizer_enabled = False
        try:
            plan = sized.explain("SELECT * FROM narrow n JOIN fat f ON n.k = f.k")
            assert "build=right" in plan
        finally:
            sized.optimizer_enabled = True

    def test_conjunct_order_by_selectivity(self):
        engine = RelationalEngine("sel")
        engine.execute("CREATE TABLE t (id INTEGER, flag INTEGER)")
        engine.insert_rows("t", [(i, i % 2) for i in range(1000)])
        plan = engine.explain("SELECT id FROM t WHERE flag = 1 AND id = 5")
        # id=5 keeps ~1/1000 rows, flag=1 keeps ~1/2: the equality on the
        # high-NDV column runs first.
        assert "filter=((id = 5) AND (flag = 1))" in plan

    def test_type_mismatched_comparison_never_reordered(self, reference_execute):
        # 'a < 5' over a TEXT column raises TypeError on the reference path;
        # the optimizer must not move a selective conjunct ahead of it (which
        # would short-circuit the error away for non-matching rows).
        vec = RelationalEngine("mix")
        vec.execute("CREATE TABLE t (a TEXT, b INTEGER)")
        vec.insert_rows("t", [(f"s{i}", i) for i in range(200)])
        query = "SELECT a FROM t WHERE a < 5 AND b = 199"
        with pytest.raises(TypeError):
            reference_execute(vec, query)
        with pytest.raises(TypeError):
            vec.execute(query)
        # Same-family comparisons still reorder.
        plan = vec.explain("SELECT a FROM t WHERE a > 'zz' AND b = 7")
        assert "filter=((b = 7) AND (a > 'zz'))" in plan

    def test_unsafe_conjuncts_keep_order_and_semantics(self, assert_matches_reference):
        vec = RelationalEngine("div")
        vec.execute("CREATE TABLE t (a FLOAT, b FLOAT)")
        vec.insert_rows("t", [(10.0, 0.0), (10.0, 2.0), (4.0, 4.0), (9.0, 3.0)])
        query = "SELECT a FROM t WHERE b != 0 AND a / b > 2 ORDER BY a"
        assert_matches_reference(vec, query)
        plan = vec.explain(query)
        assert "filter=((b != 0) AND ((a / b) > 2))" in plan


# ------------------------------------------------------------ streaming group-by
class TestStreamingGroupBy:
    @staticmethod
    def make_engine(rows, parallelism=1):
        """``parallelism`` is pinned so the grid does not depend on the
        host's core count."""
        engine = RelationalEngine("gv")
        engine.parallelism = parallelism
        engine.execute(
            "CREATE TABLE facts (id INTEGER PRIMARY KEY, g INTEGER, "
            "s TEXT, v FLOAT, big INTEGER)"
        )
        engine.insert_rows("facts", rows)
        return engine

    @staticmethod
    def default_rows(n=20_000, groups=100):
        return [
            (
                i,
                i % groups,
                None if i % 7 == 0 else f"s{i % 11}",
                None if i % 13 == 0 else (i % 89) / 7.0,
                i % 1000,
            )
            for i in range(n)
        ]

    @pytest.mark.parametrize(
        "parallelism, path", [(1, "stream"), (2, "stream")]
    )
    def test_streaming_bounds_peak_resident_rows(
        self, assert_matches_reference, parallelism, path
    ):
        groups = 100
        vec = self.make_engine(self.default_rows(20_000, groups), parallelism)
        assert_matches_reference(
            vec,
            "SELECT g, count(*) AS n, sum(v) AS s, avg(v) AS a, min(v) AS lo, "
            "max(big) AS hi FROM facts GROUP BY g",
        )
        assert vec.groupby_paths == {path: 1}
        assert vec.peak_groupby_resident_rows <= DEFAULT_BATCH_ROWS + groups
        assert vec.peak_groupby_resident_rows < 20_000

    def test_null_heavy_and_text_keys_parity(self, assert_matches_reference):
        rows = [
            (
                i,
                None if i % 3 == 0 else i % 5,
                None if i % 2 == 0 else f"k{i % 4}",
                None if i % 4 == 1 else float(i % 17),
                i,
            )
            for i in range(9000)
        ]
        vec = self.make_engine(rows)
        for query in [
            "SELECT g, s, count(*) AS n, sum(v) AS t FROM facts GROUP BY g, s",
            "SELECT s, avg(v) AS a, min(v) AS lo, max(v) AS hi, count(v) AS c "
            "FROM facts GROUP BY s",
        ]:
            assert_matches_reference(vec, query)

    def test_int_overflow_mid_stream_degrades_exactly(self, reference_execute):
        # Early batches accumulate vectorized; a late huge value (beyond
        # int64) trips the guard and the partial state hands over to the
        # row accumulators — the total must still be exact.
        rows = [(i, i % 3, "x", 1.0, 2**61) for i in range(10_000)]
        rows[9_500] = (9_500, 9_500 % 3, "x", 1.0, 10**19)
        vec = self.make_engine(rows)
        query = "SELECT g, sum(big) AS s FROM facts GROUP BY g ORDER BY g"
        expected = [r.values for r in reference_execute(vec, query).rows]
        assert [r.values for r in vec.execute(query).rows] == expected
        assert vec.groupby_paths.get("stream_degraded", 0) == 1

    def test_nan_minmax_mid_stream_degrades(self, reference_execute):
        rows = [(i, i % 4, "x", float(i % 50), i) for i in range(10_000)]
        rows[9_000] = (9_000, 0, "x", float("nan"), 9_000)
        vec = self.make_engine(rows)
        query = "SELECT g, min(v) AS lo, max(v) AS hi, count(*) AS n FROM facts GROUP BY g"
        codec = BinaryCodec()
        assert codec.encode(vec.execute(query)) == codec.encode(
            reference_execute(vec, query)
        )
        assert vec.groupby_paths.get("stream_degraded", 0) == 1

    def test_nan_group_key_mid_stream_degrades(self, reference_execute):
        rows = [(i, i % 4, "x", float(i % 6), i) for i in range(9_000)]
        rows[8_500] = (8_500, 1, "x", float("nan"), 8_500)
        vec = self.make_engine(rows)
        query = "SELECT v, count(*) AS n FROM facts GROUP BY v"
        codec = BinaryCodec()
        assert codec.encode(vec.execute(query)) == codec.encode(
            reference_execute(vec, query)
        )

    def test_empty_input_group_by(self, assert_matches_reference):
        result = assert_matches_reference(
            self.make_engine([]), "SELECT g, count(*) AS n FROM facts GROUP BY g"
        )
        assert result.rows == ()


# ------------------------------------------------------------- lexer / parser
class TestSoftKeywordsAndQuoting:
    def test_columns_named_right_and_full(self):
        engine = RelationalEngine("kw")
        engine.execute(
            "CREATE TABLE opts (id INTEGER PRIMARY KEY, right INTEGER, full FLOAT)"
        )
        engine.execute("INSERT INTO opts VALUES (1, 10, 0.5), (2, 20, 1.5)")
        result = engine.execute("SELECT right, full FROM opts WHERE right > 15")
        assert result.schema.names == ["right", "full"]
        assert [r.values for r in result.rows] == [(20, 1.5)]
        engine.execute("UPDATE opts SET right = 99, full = 9.0 WHERE id = 1")
        assert engine.execute(
            "SELECT right FROM opts WHERE id = 1"
        ).rows[0].values == (99,)

    def test_double_quoted_identifiers(self):
        engine = RelationalEngine("kw")
        engine.execute('CREATE TABLE t (id INTEGER, "left" TEXT, "order" INTEGER)')
        engine.execute("INSERT INTO t VALUES (1, 'a', 7)")
        result = engine.execute('SELECT "left", "order" FROM t ORDER BY "order"')
        assert result.schema.names == ["left", "order"]
        assert [r.values for r in result.rows] == [("a", 7)]

    def test_right_and_full_joins_still_parse(self):
        engine = RelationalEngine("kw")
        engine.execute("CREATE TABLE a (k INTEGER, v INTEGER)")
        engine.execute("CREATE TABLE b (k INTEGER, w INTEGER)")
        engine.execute("INSERT INTO a VALUES (1, 10), (2, 20)")
        engine.execute("INSERT INTO b VALUES (2, 200), (3, 300)")
        right = engine.execute(
            "SELECT a.k, b.w FROM a RIGHT OUTER JOIN b ON a.k = b.k ORDER BY b.k"
        )
        assert [r.values for r in right.rows] == [(2, 200), (None, 300)]
        full = engine.execute(
            "SELECT a.k, b.k FROM a FULL JOIN b ON a.k = b.k"
        )
        assert len(full.rows) == 3

    def test_soft_keyword_column_in_join_condition(self):
        engine = RelationalEngine("kw")
        engine.execute("CREATE TABLE l (right INTEGER, v INTEGER)")
        engine.execute("CREATE TABLE r (full INTEGER, w INTEGER)")
        engine.execute("INSERT INTO l VALUES (1, 10)")
        engine.execute("INSERT INTO r VALUES (1, 100)")
        result = engine.execute(
            "SELECT l.v, r.w FROM l JOIN r ON l.right = r.full"
        )
        assert [x.values for x in result.rows] == [(10, 100)]

    def test_quoted_soft_keyword_is_an_alias_not_a_join(self):
        engine = RelationalEngine("kw")
        engine.execute("CREATE TABLE a (k INTEGER, v INTEGER)")
        engine.execute("CREATE TABLE b (k INTEGER, w INTEGER)")
        engine.execute("INSERT INTO a VALUES (1, 10)")
        engine.execute("INSERT INTO b VALUES (1, 100), (3, 300)")
        # Quoting forces identifier treatment: "right" aliases a, and the
        # JOIN is a plain inner join — not a RIGHT OUTER JOIN.
        quoted = engine.execute(
            'SELECT right.v, b.w FROM a "right" JOIN b ON right.k = b.k'
        )
        assert [r.values for r in quoted.rows] == [(10, 100)]
        # The unquoted spelling is the outer join.
        outer = engine.execute(
            "SELECT a.v, b.w FROM a RIGHT JOIN b ON a.k = b.k ORDER BY b.k"
        )
        assert [r.values for r in outer.rows] == [(10, 100), (None, 300)]

    def test_soft_join_after_subquery(self):
        engine = RelationalEngine("kw")
        engine.execute("CREATE TABLE a (x INTEGER)")
        engine.execute("CREATE TABLE b (x INTEGER)")
        engine.execute("INSERT INTO a VALUES (1), (2)")
        engine.execute("INSERT INTO b VALUES (2), (3)")
        # RIGHT after a derived table opens the join, it is not its alias.
        result = engine.execute(
            "SELECT b.x FROM (SELECT x FROM a) s RIGHT JOIN b ON s.x = b.x "
            "ORDER BY b.x"
        )
        assert [r.values for r in result.rows] == [(2,), (3,)]
        unaliased = engine.execute(
            "SELECT b.x FROM (SELECT x FROM a) FULL JOIN b ON x = b.x"
        )
        assert len(unaliased.rows) == 3
        # An explicit AS still lets the soft keyword be the alias.
        aliased = engine.execute(
            'SELECT right.x FROM (SELECT x FROM a) AS right JOIN b ON right.x = b.x'
        )
        assert [r.values for r in aliased.rows] == [(2,)]

    def test_qualified_quoted_identifiers(self):
        engine = RelationalEngine("kw")
        engine.execute('CREATE TABLE t (id INTEGER, "left" TEXT)')
        engine.execute("INSERT INTO t VALUES (1, 'a')")
        assert [r.values for r in engine.execute('SELECT t."left" FROM t').rows] == [
            ("a",)
        ]
        assert [
            r.values for r in engine.execute('SELECT "t"."left" FROM t').rows
        ] == [("a",)]
        joined = engine.execute(
            'SELECT u."left" FROM t u JOIN t v ON u.id = v.id'
        )
        assert [r.values for r in joined.rows] == [("a",)]

    def test_unterminated_quoted_identifier(self):
        from repro.engines.relational.sql.lexer import tokenize

        with pytest.raises(ParseError):
            tokenize('SELECT "broken FROM t')


# ------------------------------------------------------- cross-island planning
class TestCrossIslandJoins:
    @pytest.fixture()
    def bigdawg(self):
        import numpy as np

        from repro.core.bigdawg import BigDawg
        from repro.engines.array import ArrayEngine

        bd = BigDawg()
        postgres = RelationalEngine("postgres")
        scidb = ArrayEngine("scidb")
        bd.add_engine(postgres, islands=["relational", "myria"])
        bd.add_engine(scidb, islands=["array"])  # not relational: CAST needed
        postgres.execute("CREATE TABLE patients (id INTEGER PRIMARY KEY, age INTEGER)")
        postgres.execute("INSERT INTO patients VALUES (0, 64), (1, 70), (5, 41)")
        scidb.load_numpy("waves", np.arange(4, dtype=float).reshape(2, 2))
        return bd

    def test_join_query_emits_right_outer_and_cast(self, bigdawg):
        query = bigdawg.planner.join_query(
            "patients", "waves", on=("patients.id", "waves.i"), join_type="right"
        )
        assert "RIGHT OUTER JOIN" in query
        assert "CAST(waves, relational)" in query
        assert "CAST(patients" not in query

    def test_execute_right_join_cross_island(self, bigdawg):
        from repro.core.query.planner import CastStep

        plan = bigdawg.planner.plan_join(
            "patients",
            "waves",
            on=("patients.id", "waves.i"),
            join_type="right",
            columns=["patients.age", "waves.i", "waves.j", "waves.value"],
        )
        assert any(isinstance(step, CastStep) for step in plan.steps)
        result = bigdawg.planner.execute_plan(plan)
        # Every wave cell survives (RIGHT join); ages pad where unmatched.
        assert len(result.rows) == 4
        ages = {row["age"] for row in result.rows}
        assert ages == {64, 70}  # i in {0, 1} both match patients

    def test_execute_full_join_cross_island(self, bigdawg):
        result = bigdawg.planner.execute_join(
            "patients",
            "waves",
            on=("patients.id", "waves.i"),
            join_type="full",
            columns=["patients.id", "waves.value"],
        )
        # 4 wave cells (i in {0,1}, two matches each... ) plus patient 5 unmatched.
        ids = [row["id"] for row in result.rows]
        assert 5 in ids
        assert len(result.rows) == 5

    def test_render_join_sql_validation(self):
        from repro.core.query.planner import render_join_sql

        with pytest.raises(PlanningError):
            render_join_sql("a", "b", on=None, join_type="inner")
        with pytest.raises(PlanningError):
            render_join_sql("a", "b", on="a.x = b.x", join_type="cross")
        with pytest.raises(PlanningError):
            render_join_sql("a", "b", on="a.x = b.x", join_type="sideways")
        sql = render_join_sql(
            "a", "b", on=("a.x", "b.x"), join_type="full",
            columns=["a.x"], where="a.x > 1",
        )
        assert sql == "SELECT a.x FROM a FULL OUTER JOIN b ON a.x = b.x WHERE a.x > 1"


# ------------------------------------------------------------- runtime metrics
class TestRuntimeMetrics:
    def test_snapshot_reports_pruning_and_groupby_paths(self):
        from repro.core.bigdawg import BigDawg
        from repro.runtime import PolystoreRuntime

        bd = BigDawg()
        postgres = RelationalEngine("postgres")
        bd.add_engine(postgres, islands=["relational"])
        postgres.execute("CREATE TABLE t (a INTEGER, b INTEGER, g INTEGER)")
        postgres.insert_rows("t", [(i, i * 2, i % 3) for i in range(500)])
        with PolystoreRuntime(bd, workers=2, parallelism=1) as runtime:
            runtime.execute(
                "RELATIONAL(SELECT s.g FROM t s JOIN t u ON s.a = u.a LIMIT 1)"
            )
            runtime.execute("RELATIONAL(SELECT g, count(*) AS n FROM t GROUP BY g)")
            snapshot = runtime.describe()["metrics"]
        assert snapshot["relational_columns_pruned"] > 0
        assert snapshot["relational_groupby_paths"] == {"stream": 1}
