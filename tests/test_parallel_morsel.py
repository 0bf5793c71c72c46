"""Tests for morsel-driven parallelism, radix partitioning and the spill join.

Three contracts are under test:

* **Invisibility.**  Worker count, partition count and the join memory
  budget are pure performance knobs — results are byte-identical (through
  the binary codec) to the serial, in-memory pipeline, including outer
  joins, NULL-heavy keys and grouped aggregates.
* **Engagement.**  Under a small budget the join really does spill: the
  ``partitions_spilled`` counter moves and EXPLAIN tags the join
  ``[spill]`` when statistics predict the overflow.
* **Plumbing.**  The runtime's ``parallelism`` knob reaches every
  relational engine, borrows extra workers from one shared credit pool,
  and the new counters surface in ``describe()``.
"""

from __future__ import annotations

import random
import threading

import numpy as np
import pytest

from repro.common.keycodes import partition_codes
from repro.common.parallel import (
    TaskContext,
    WorkerCredits,
    partition_count_for,
    resolve_parallelism,
)
from repro.common.serialization import BinaryCodec
from repro.engines.relational import RelationalEngine


# ------------------------------------------------------------------ fixtures
def make_engine(
    parallelism: int | str = 1,
    budget: int | None = None,
) -> RelationalEngine:
    """A deterministic two-table engine with NULL-heavy, skewed join keys."""
    e = RelationalEngine("pg")
    e.parallelism = parallelism
    e.join_memory_budget = budget
    e.execute(
        "CREATE TABLE events (id INTEGER PRIMARY KEY, user_id INTEGER, "
        "kind TEXT, amount FLOAT)"
    )
    e.execute("CREATE TABLE users (uid INTEGER PRIMARY KEY, name TEXT, region TEXT)")
    rng = random.Random(7)
    rows = []
    for i in range(2000):
        # Skew: user 0 owns ~25% of events; ~6% of keys are NULL.
        uid = 0 if rng.random() < 0.25 else rng.randrange(80)
        rows.append(
            (
                i,
                None if rng.random() < 0.06 else uid,
                rng.choice(["click", "view", "buy"]),
                round(rng.uniform(-5.0, 100.0), 2),
            )
        )
    e.insert_rows("events", rows)
    # Users 60..79 never match; users beyond 49 missing from some queries.
    e.insert_rows(
        "users",
        [(u, f"name{u}", rng.choice(["us", "eu", "ap"])) for u in range(70)],
    )
    e.statistics.analyze("events")
    e.statistics.analyze("users")
    return e


JOIN_GROUP_QUERIES = [
    "SELECT e.id, u.name, e.amount FROM events e JOIN users u ON e.user_id = u.uid ORDER BY e.id",
    "SELECT e.id, u.name FROM events e LEFT JOIN users u ON e.user_id = u.uid ORDER BY e.id",
    "SELECT e.id, u.uid, u.name FROM events e RIGHT JOIN users u ON e.user_id = u.uid",
    "SELECT e.id, e.user_id, u.uid FROM events e FULL OUTER JOIN users u ON e.user_id = u.uid",
    "SELECT e.id, u.name FROM events e JOIN users u ON e.user_id = u.uid AND e.amount > 20 ORDER BY e.id",
    "SELECT u.region, count(*), sum(e.amount), avg(e.amount), min(e.amount), max(e.amount) "
    "FROM events e JOIN users u ON e.user_id = u.uid GROUP BY u.region ORDER BY u.region",
    "SELECT user_id, count(*), sum(amount) FROM events GROUP BY user_id ORDER BY user_id",
    "SELECT id, count(*) FROM events GROUP BY id ORDER BY id LIMIT 50",
]


# ------------------------------------------------------------ partitioning
class TestPartitionCodes:
    def test_partitions_are_disjoint_cover_and_ordered(self):
        codes = np.array([5, 3, -1, 0, 8, 3, -1, 13, 2, 0], dtype=np.int64)
        parts = partition_codes(codes, 4)
        assert len(parts) == 4
        seen = np.concatenate(parts)
        # NULL codes (-1) appear in no partition.
        assert set(seen.tolist()) == {0, 1, 3, 4, 5, 7, 8, 9}
        for p, rows in enumerate(parts):
            assert np.all(codes[rows] % 4 == p)
            # Row order within a partition preserves input order.
            assert np.all(np.diff(rows) > 0) or rows.size <= 1

    def test_single_partition_keeps_all_valid_rows_in_order(self):
        codes = np.array([2, -1, 0, 7], dtype=np.int64)
        (rows,) = partition_codes(codes, 1)
        assert rows.tolist() == [0, 2, 3]

    def test_deterministic_across_calls(self):
        rng = np.random.default_rng(3)
        codes = rng.integers(-1, 50, size=997).astype(np.int64)
        first = partition_codes(codes, 8)
        second = partition_codes(codes, 8)
        for a, b in zip(first, second):
            assert np.array_equal(a, b)

    def test_rejects_zero_partitions(self):
        with pytest.raises(ValueError):
            partition_codes(np.array([1], dtype=np.int64), 0)


# -------------------------------------------------------------- primitives
class TestParallelPrimitives:
    def test_resolve_parallelism(self):
        assert resolve_parallelism(3) == 3
        assert resolve_parallelism("auto") >= 1
        assert resolve_parallelism(None) >= 1
        with pytest.raises(ValueError):
            resolve_parallelism(0)

    def test_partition_count_is_power_of_two_at_least_workers(self):
        for workers, expected in [(1, 1), (2, 2), (3, 4), (4, 4), (5, 8), (8, 8)]:
            assert partition_count_for(workers) == expected

    def test_map_ordered_preserves_order_with_threads(self):
        with TaskContext(4) as ctx:
            out = list(ctx.map_ordered(lambda x: x * x, range(100)))
        assert out == [x * x for x in range(100)]

    def test_map_ordered_inline_when_serial(self):
        ctx = TaskContext(1)
        thread_ids = set()

        def work(x):
            thread_ids.add(threading.get_ident())
            return x + 1

        assert list(ctx.map_ordered(work, range(5))) == [1, 2, 3, 4, 5]
        assert thread_ids == {threading.get_ident()}
        ctx.close()

    def test_run_all_returns_results_in_submission_order(self):
        with TaskContext(4) as ctx:
            results = ctx.run_all([lambda i=i: i * 10 for i in range(8)])
        assert results == [i * 10 for i in range(8)]

    def test_worker_credits_acquire_and_release(self):
        credits = WorkerCredits(3)
        assert credits.acquire_up_to(2) == 2
        assert credits.acquire_up_to(5) == 1
        assert credits.acquire_up_to(1) == 0
        credits.release(3)
        assert credits.available == 3

    def test_task_context_close_returns_credits(self):
        engine = RelationalEngine("pg")
        engine.parallelism = 4
        engine.task_credits = WorkerCredits(2)
        ctx = engine.task_context()
        assert ctx.workers == 3  # 1 own + 2 borrowed
        assert engine.task_credits.available == 0
        ctx.close()
        assert engine.task_credits.available == 2

    def test_exhausted_credits_degrade_to_serial(self):
        engine = RelationalEngine("pg")
        engine.parallelism = 4
        engine.task_credits = WorkerCredits(0)
        ctx = engine.task_context()
        assert ctx.workers == 1
        ctx.close()


# ------------------------------------------------------------- spill joins
class TestSpillJoin:
    @pytest.fixture(scope="class")
    def reference(self, reference_execute):
        engine = make_engine(parallelism=1, budget=None)
        codec = BinaryCodec()
        return {
            q: codec.encode(reference_execute(engine, q)) for q in JOIN_GROUP_QUERIES
        }

    @pytest.mark.parametrize("query", JOIN_GROUP_QUERIES)
    def test_spill_results_byte_identical(self, reference, query):
        engine = make_engine(parallelism=1, budget=256)
        codec = BinaryCodec()
        assert codec.encode(engine.execute(query)) == reference[query]

    @pytest.mark.parametrize("workers", [2, 4])
    @pytest.mark.parametrize("query", JOIN_GROUP_QUERIES)
    def test_parallel_spill_results_byte_identical(self, reference, workers, query):
        engine = make_engine(parallelism=workers, budget=256)
        codec = BinaryCodec()
        assert codec.encode(engine.execute(query)) == reference[query]

    def test_small_budget_engages_spill_counters(self):
        engine = make_engine(budget=256)
        engine.execute(JOIN_GROUP_QUERIES[0])
        assert engine.partitions_spilled > 0

    def test_tiny_budget_recurses_and_completes(self):
        # A self-join puts ~250 build rows in each of 8 partitions; at a
        # 1-byte budget every partition re-exceeds it and sub-partitions
        # recursively before processing leaves in memory.
        query = (
            "SELECT a.id, b.amount FROM events a JOIN events b ON a.id = b.id "
            "ORDER BY a.id"
        )
        codec = BinaryCodec()
        expected = codec.encode(make_engine(budget=None).execute(query))
        engine = make_engine(budget=1)
        assert codec.encode(engine.execute(query)) == expected
        assert engine.partitions_spilled > engine.join_spill_partitions

    def test_no_budget_never_spills(self):
        engine = make_engine(budget=None)
        engine.execute(JOIN_GROUP_QUERIES[0])
        assert engine.partitions_spilled == 0
        assert engine.peak_build_bytes > 0

    def test_explain_reports_parallel_header_and_spill_tag(self):
        engine = make_engine(parallelism=2, budget=64)
        text = engine.explain(JOIN_GROUP_QUERIES[0])
        assert "Parallel(workers=2, partitions=2)" in text
        assert "[spill]" in text
        unbudgeted = make_engine(parallelism=2, budget=None)
        assert "[spill]" not in unbudgeted.explain(JOIN_GROUP_QUERIES[0])

    def test_morsel_counter_moves(self):
        engine = make_engine()
        engine.execute("SELECT count(*) FROM events")
        assert engine.morsels_executed > 0


# ---------------------------------------------------------------- group-by
class TestParallelGroupBy:
    def test_parallel_groupby_uses_partitioned_path(self):
        engine = make_engine(parallelism=4)
        engine.execute(
            "SELECT user_id, sum(amount) FROM events GROUP BY user_id"
        )
        assert engine.groupby_paths.get("stream_parallel", 0) > 0

    def test_serial_groupby_keeps_stream_path(self):
        engine = make_engine(parallelism=1)
        engine.execute(
            "SELECT user_id, sum(amount) FROM events GROUP BY user_id"
        )
        assert engine.groupby_paths.get("stream", 0) > 0
        assert "stream_parallel" not in engine.groupby_paths

    def test_aggregate_only_groupby_prunes_representatives(self):
        engine = make_engine()
        engine.optimizer_enabled = False  # keep all four columns flowing in
        engine.execute("SELECT kind, count(*), sum(amount) FROM events GROUP BY kind")
        assert engine.representative_columns_pruned > 0


# ------------------------------------------------------------------ HAVING
class TestHavingOnlyAggregates:
    """HAVING may reference aggregates absent from the SELECT list."""

    QUERIES = [
        "SELECT kind, max(amount) FROM events GROUP BY kind HAVING count(*) > 10 ORDER BY kind",
        "SELECT kind, count(*) FROM events GROUP BY kind HAVING sum(amount) > 100 ORDER BY kind",
        "SELECT user_id, sum(amount) FROM events GROUP BY user_id HAVING avg(amount) > 45 ORDER BY user_id",
        "SELECT kind, min(amount) FROM events GROUP BY kind "
        "HAVING max(amount) > 99 AND count(*) > 5 ORDER BY kind",
        "SELECT user_id, count(*) FROM events GROUP BY user_id HAVING min(amount) > -4.9 ORDER BY user_id",
    ]

    @pytest.mark.parametrize("query", QUERIES)
    def test_matches_reference(self, assert_matches_reference, query):
        assert_matches_reference(make_engine(), query)

    def test_having_only_count_filters_correctly(self, assert_matches_reference):
        e = RelationalEngine("pg")
        e.execute("CREATE TABLE t (g TEXT, v INTEGER)")
        e.insert_rows("t", [("a", 1), ("a", 2), ("a", 3), ("b", 9)])
        rows = assert_matches_reference(
            e, "SELECT g, max(v) FROM t GROUP BY g HAVING count(*) > 2"
        ).rows
        assert [r.values for r in rows] == [("a", 3)]
        # The synthesized HAVING aggregate never leaks into the output.
        assert [c.name for c in rows[0].schema.columns] == ["g", "max(v)"]

    def test_having_only_parallel_parity(self):
        codec = BinaryCodec()
        serial = make_engine(parallelism=1)
        parallel = make_engine(parallelism=4)
        for query in self.QUERIES:
            assert codec.encode(parallel.execute(query)) == codec.encode(
                serial.execute(query)
            )


# ------------------------------------------------------- subquery pruning
class TestSubqueryPruning:
    @pytest.fixture()
    def engine(self):
        e = RelationalEngine("pg")
        e.execute("CREATE TABLE t (a INTEGER PRIMARY KEY, b INTEGER, c TEXT, d FLOAT)")
        e.insert_rows(
            "t", [(i, i * 10, f"c{i % 3}", i / 2.0) for i in range(30)]
        )
        e.statistics.analyze("t")
        return e

    def test_prunes_unreferenced_subquery_items(self, engine):
        query = "SELECT s.a FROM (SELECT a, b, c, d FROM t) s ORDER BY s.a"
        plan = engine.explain(query)
        assert "Project(a)" in plan
        assert "b" not in plan.split("Subquery")[1]
        rows = [r.values for r in engine.execute(query).rows]
        assert rows == [(i,) for i in range(30)]
        assert engine.columns_pruned >= 3

    def test_keeps_columns_referenced_by_inner_order_by(self, engine):
        query = "SELECT s.a FROM (SELECT a, b FROM t ORDER BY b DESC LIMIT 3) s"
        plan = engine.explain(query)
        assert "Project(a, b)" in plan
        rows = [r.values for r in engine.execute(query).rows]
        assert rows == [(29,), (28,), (27,)]

    def test_star_and_distinct_subqueries_untouched(self, engine):
        star = "SELECT s.a FROM (SELECT * FROM t) s ORDER BY s.a"
        assert [r.values for r in engine.execute(star).rows] == [
            (i,) for i in range(30)
        ]
        distinct = "SELECT s.c FROM (SELECT DISTINCT c, b FROM t) s ORDER BY s.c"
        assert "Distinct Project(c, b)" in engine.explain(distinct)
        # DISTINCT over (c, b) yields one row per source row here.
        assert len(engine.execute(distinct).rows) == 30

    def test_pruned_subquery_parity_with_unoptimized(self, engine):
        query = (
            "SELECT s.a, s.d FROM (SELECT a, b, c, d FROM t) s "
            "WHERE s.d > 5 ORDER BY s.a"
        )
        optimized = [r.values for r in engine.execute(query).rows]
        engine.optimizer_enabled = False
        baseline = [r.values for r in engine.execute(query).rows]
        assert optimized == baseline


# ------------------------------------------------------------ runtime knob
class TestRuntimeParallelism:
    @pytest.fixture()
    def runtime(self):
        from repro.core.bigdawg import BigDawg
        from repro.runtime import PolystoreRuntime

        bd = BigDawg()
        postgres = make_engine()
        bd.add_engine(postgres, islands=["relational"])
        rt = PolystoreRuntime(bd, workers=2, parallelism=2)
        yield rt, postgres
        rt.shutdown()

    def test_knob_reaches_engines_and_shares_credits(self, runtime):
        rt, postgres = runtime
        assert postgres.parallelism == 2
        assert postgres.task_credits is rt.task_credits
        rt.set_relational_parallelism(4)
        assert postgres.parallelism == 4
        rt.set_relational_parallelism("auto")
        assert postgres.parallelism == "auto"
        with pytest.raises(ValueError):
            rt.set_relational_parallelism(0)

    def test_describe_surfaces_parallel_counters(self, runtime):
        rt, postgres = runtime
        rt.execute("SELECT count(*) FROM events")
        postgres.join_memory_budget = 256
        rt.execute(
            "SELECT e.id, u.name FROM events e JOIN users u "
            "ON e.user_id = u.uid ORDER BY e.id LIMIT 5"
        )
        metrics = rt.describe()["metrics"]
        assert metrics["relational_morsels_executed"] > 0
        assert metrics["relational_partitions_spilled"] > 0
        assert metrics["relational_peak_build_bytes"] >= 0

    def test_runtime_results_match_across_parallelism(self, runtime):
        rt, _ = runtime
        codec = BinaryCodec()
        query = JOIN_GROUP_QUERIES[5]
        rt.set_relational_parallelism(1)
        serial = codec.encode(rt.execute(query, use_cache=False))
        rt.set_relational_parallelism(4)
        parallel = codec.encode(rt.execute(query, use_cache=False))
        assert serial == parallel
