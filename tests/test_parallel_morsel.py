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

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.keycodes import PartitionRouter, partition_order, value_hash
from repro.common.parallel import TaskContext, WorkerCredits, resolve_parallelism
from repro.common.serialization import BinaryCodec
from repro.common.types import DataType
from repro.common.vectors import vector_from_values
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
def partition_codes(codes: np.ndarray, num_partitions: int) -> list[np.ndarray]:
    """Each partition's row indices, sliced out of :func:`partition_order`."""
    order, bounds = partition_order(codes, num_partitions)
    return [order[bounds[p] : bounds[p + 1]] for p in range(num_partitions)]


class TestPartitionCodes:
    def test_partitions_are_disjoint_cover_and_ordered(self):
        codes = np.array([5, 3, -1, 0, 8, 3, -1, 13, 2, 0], dtype=np.int64)
        order, bounds = partition_order(codes, 4)
        assert len(bounds) == 5
        # NULL codes (-1) sort past the last partition.
        assert sorted(order[bounds[-1]:].tolist()) == [2, 6]
        parts = partition_codes(codes, 4)
        seen = np.concatenate(parts)
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
            partition_order(np.array([1], dtype=np.int64), 0)


_EDGE_NUMBERS = [
    0, 1, -1, True, False, 0.0, -0.0, 1.0, -1.0, 0.5, -2.5, 1e300, float("inf"), float("-inf"),
    2**53, 2**53 + 1, float(2**53), 2**63 - 1, -(2**63), float(2**63), -float(2**63),
    2**63, 2**64 + 1, -(2**63) - 1, 10**400,
]


class TestPartitionRouter:
    """The routing hash: equal under ``==`` means equal hash, whatever kind
    of vector (or plain list) carries the value."""

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.sampled_from(_EDGE_NUMBERS)
            | st.integers(-(2**70), 2**70)
            | st.floats(allow_nan=False)
            | st.booleans(),
            min_size=2, max_size=12,
        )
    )
    def test_equal_numbers_hash_alike(self, values):
        hashes = [value_hash(v) for v in values]
        assert all(0 <= h < 2**63 for h in hashes)
        for a, ha in zip(values, hashes):
            for b, hb in zip(values, hashes):
                if a == b:
                    assert ha == hb, (a, b)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.none() | st.integers(-(2**63), 2**63 - 1), max_size=30),
        st.lists(
            st.none() | st.sampled_from([v for v in _EDGE_NUMBERS if isinstance(v, float)])
            | st.floats(), max_size=30,
        ),
        st.lists(st.none() | st.booleans(), max_size=30),
        st.lists(st.none() | st.text(max_size=3), max_size=30),
    )
    def test_vector_kinds_hash_like_their_values(self, ints, floats, bools, texts):
        router = PartitionRouter(8)
        for values, dtype in (
            (ints, DataType.INTEGER), (floats, DataType.FLOAT),
            (bools, DataType.BOOLEAN), (texts, DataType.TEXT),
        ):
            typed, nulls = router.hashes([vector_from_values(values, dtype)])
            plain, plain_nulls = router.hashes([values])
            expected_nulls = [v is None for v in values]
            assert nulls.tolist() == plain_nulls.tolist() == expected_nulls
            keep = ~nulls
            assert typed[keep].tolist() == plain[keep].tolist()
            assert plain[keep].tolist() == [value_hash(v) for v in values if v is not None]

    def test_null_keys_are_dropped_or_dealt_round_robin(self):
        router = PartitionRouter(4)
        keys = vector_from_values([5, None, 9, None, None, 6], DataType.INTEGER)
        ids = np.arange(100, 106)
        order, bounds = router.order([keys], ids, depth=0, keep_nulls=False)
        assert sorted(order[: bounds[-1]].tolist()) == [0, 2, 5]
        order, bounds = router.order([keys], ids, depth=0, keep_nulls=True)
        assert bounds[-1] == 6
        # Rows 1, 3, 4 (ids 101, 103, 104) go where id % 4 says.
        parts = [order[a:b].tolist() for a, b in zip(bounds, bounds[1:])]
        assert parts == [[4], [0, 1, 2], [5], [3]]

    def test_depth_reads_the_next_digit(self):
        router = PartitionRouter(4)
        keys = vector_from_values(list(range(64)), DataType.INTEGER)
        ids = np.arange(64)
        for depth in range(3):
            order, bounds = router.order([keys], ids, depth, keep_nulls=False)
            for p, (a, b) in enumerate(zip(bounds, bounds[1:])):
                assert all((k // 4**depth) % 4 == p for k in order[a:b].tolist())


# -------------------------------------------------------------- primitives
class TestParallelPrimitives:
    def test_resolve_parallelism(self):
        assert resolve_parallelism(3) == 3
        assert resolve_parallelism("auto") >= 1
        assert resolve_parallelism(None) >= 1
        with pytest.raises(ValueError):
            resolve_parallelism(0)

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
        assert "Parallel(workers=2)" in text
        assert "[spill]" in text
        unbudgeted = make_engine(parallelism=2, budget=None)
        assert "[spill]" not in unbudgeted.explain(JOIN_GROUP_QUERIES[0])

    def test_morsel_counter_moves(self):
        engine = make_engine()
        engine.execute("SELECT count(*) FROM events")
        assert engine.morsels_executed > 0


# ------------------------------------------ spill joins: where routing can err
def make_routing_engine(parallelism: int = 1, budget: int | None = None) -> RelationalEngine:
    """Join inputs whose equal keys differ in type, vector kind or
    dictionary, with NULL keys on both sides and one dominant build key."""
    e = RelationalEngine("pg")
    e.parallelism = parallelism
    e.join_memory_budget = budget
    rng = random.Random(11)

    def maybe_null(value):
        return None if rng.random() < 0.1 else value

    e.execute("CREATE TABLE lhs (id INTEGER PRIMARY KEY, ik INTEGER, tk TEXT, v FLOAT)")
    e.insert_rows(
        "lhs",
        [
            (i, maybe_null(rng.randrange(40)), maybe_null(f"s{rng.randrange(13)}"),
             round(rng.uniform(0.0, 50.0), 2))
            for i in range(600)
        ],
    )
    # FLOAT keys, a third of them fractional (they match no INTEGER); TEXT
    # keys over another range and in another first-appearance order, so the
    # two sides' dictionaries give equal strings different codes.
    e.execute("CREATE TABLE rhs (id INTEGER PRIMARY KEY, fk FLOAT, tk TEXT, w INTEGER)")
    e.insert_rows(
        "rhs",
        [
            (i, maybe_null(rng.randrange(50) + (0.5 if rng.random() < 0.33 else 0.0)),
             maybe_null(f"s{20 - rng.randrange(16)}"), rng.randrange(50))
            for i in range(500)
        ],
    )
    # One key holds 93 % of the rows: no hash digit splits it.
    e.execute("CREATE TABLE skew (id INTEGER PRIMARY KEY, k INTEGER, payload INTEGER)")
    e.insert_rows(
        "skew", [(i, 7 if i % 14 else maybe_null(i % 40), i * 3) for i in range(700)]
    )
    return e


ROUTING_JOINS = {
    "integer_float": "SELECT l.id, r.id, l.ik, r.fk FROM lhs l {join} rhs r ON l.ik = r.fk",
    "text_dictionaries": "SELECT l.id, r.id, l.tk, r.tk FROM lhs l {join} rhs r ON l.tk = r.tk",
    "two_columns": (
        "SELECT l.id, r.id, l.tk, r.fk FROM lhs l {join} rhs r "
        "ON l.ik = r.fk AND l.tk = r.tk"
    ),
    "residual": "SELECT l.id, r.id, l.v, r.w FROM lhs l {join} rhs r ON l.ik = r.fk AND l.v > r.w",
    "dominant_key": "SELECT l.id, s.id, s.payload FROM lhs l {join} skew s ON l.ik = s.k",
}
JOIN_TYPES = ["JOIN", "LEFT JOIN", "RIGHT JOIN", "FULL OUTER JOIN"]


class TestSpillRouting:
    @pytest.fixture(scope="class")
    def expected(self, reference_execute):
        engine = make_routing_engine()
        codec = BinaryCodec()
        out = {}
        for name, template in ROUTING_JOINS.items():
            for join in JOIN_TYPES:
                query = template.format(join=join)
                in_memory = codec.encode(engine.execute(query))
                assert in_memory == codec.encode(reference_execute(engine, query))
                out[name, join] = in_memory
        assert engine.partitions_spilled == 0
        return out

    @pytest.mark.parametrize("workers", [1, 4])
    @pytest.mark.parametrize("budget", [256, 8192])
    @pytest.mark.parametrize("join", JOIN_TYPES)
    @pytest.mark.parametrize("name", ROUTING_JOINS)
    def test_spilled_join_is_byte_identical(self, expected, name, join, budget, workers):
        engine = make_routing_engine(parallelism=workers, budget=budget)
        result = engine.execute(ROUTING_JOINS[name].format(join=join))
        assert BinaryCodec().encode(result) == expected[name, join]
        assert engine.partitions_spilled > 0

    def test_dominant_key_recurses_to_the_depth_limit(self):
        from repro.engines.relational import morsel
        from repro.observability.tracing import Tracer, set_tracer

        engine = make_routing_engine(budget=256)
        tracer = Tracer(enabled=True)
        previous = set_tracer(tracer)
        try:
            engine.execute(ROUTING_JOINS["dominant_key"].format(join="LEFT JOIN"))
        finally:
            set_tracer(previous)
        leaves = tracer.spans("join.spill_leaf")
        assert max(s.attrs["depth"] for s in leaves) == morsel._MAX_RECURSE_DEPTH
        # The dominant key's 650 build rows reach one leaf together.
        assert max(s.attrs["build_rows"] for s in leaves) >= 650
        assert tracer.spans("join.spill_repartition")

    def test_typed_columns_spill_as_buffers(self, monkeypatch):
        """INTEGER keys with FLOAT / TEXT / INTEGER payloads: nothing on the
        spill path may pickle a column or turn one into a Python list."""
        from repro.common import keycodes, vectors
        from repro.engines.relational import morsel

        query = "SELECT l.id, l.v, l.tk, s.payload FROM lhs l LEFT JOIN skew s ON l.id = s.id"
        codec = BinaryCodec()
        expected = codec.encode(make_routing_engine().execute(query))

        def forbidden(*_args, **_kwargs):
            raise AssertionError("typed columns left their buffers on the spill path")

        class NoPickle:
            dump = dumps = load = loads = staticmethod(forbidden)
            HIGHEST_PROTOCOL = 0

        engine = make_routing_engine(budget=1024)
        _schema, batches = engine._batch_executor.stream(engine.plan(query))
        monkeypatch.setattr(morsel, "pickle", NoPickle)
        for module in (morsel, vectors, keycodes):
            monkeypatch.setattr(module, "to_list", forbidden)
        batches = list(batches)
        monkeypatch.undo()
        assert engine.partitions_spilled > 0
        assert all(
            isinstance(column, (vectors.NumericVector, vectors.DictVector))
            for batch in batches
            for column in batch.columns
        )
        relation = engine.execute(query)
        assert codec.encode(relation) == expected
        assert [row for batch in batches for row in batch.value_rows()] == [
            tuple(row.values) for row in relation
        ]


class TestMergeById:
    @pytest.mark.parametrize("seed", range(12))
    def test_windows_equal_a_global_stable_sort_by_id(self, seed):
        """Random id-disjoint ascending runs, written in random pieces with
        random chunk sizes (so chunk ends fall inside merge windows)."""
        from repro.common.schema import Column, ColumnBatch, Schema
        from repro.engines.relational.morsel import SpillFile, SpillRun, merge_by_id

        rng = np.random.default_rng(seed)
        schema = Schema([Column("n", DataType.INTEGER), Column("t", DataType.TEXT)])
        run_count = int(rng.integers(1, 7))
        # An id may repeat (one probe row, several matches), always within
        # one piece of one run.
        repeats = rng.integers(1, 4, size=400)
        ids = np.repeat(np.arange(400), repeats)
        owner = np.repeat(rng.integers(0, run_count, size=400), repeats)
        payload = rng.integers(-50, 50, size=ids.size)
        text = vector_from_values(
            [None if v % 9 == 0 else f"t{v % 5}" for v in payload.tolist()], DataType.TEXT
        )
        numbers = vector_from_values(
            [None if v % 11 == 0 else v for v in payload.tolist()], DataType.INTEGER
        )
        runs = []
        spill = SpillFile()
        try:
            for r in range(run_count):
                run = SpillRun(spill, schema, chunk_rows=int(rng.integers(1, 60)))
                runs.append(run)
                rows = np.flatnonzero(owner == r)
                # Pieces end only where the id changes.
                breaks = np.flatnonzero(np.diff(ids[rows])) + 1
                cuts = np.sort(rng.choice(breaks, size=min(len(breaks), 12), replace=False))
                for piece in np.split(rows, cuts):
                    batch = ColumnBatch(schema, [numbers, text], ids.size).gather(piece)
                    run.append(ids[piece], batch)
            windows = list(merge_by_id(runs, schema))
        finally:
            spill.close()
        merged = [row for window in windows for row in window.value_rows()]
        order = np.argsort(ids, kind="stable")
        assert merged == [(numbers[i], text[i]) for i in order.tolist()]
        assert sum(len(window) for window in windows) == ids.size


# ---------------------------------------------------------------- group-by
class TestParallelGroupBy:
    def test_parallel_groupby_keeps_stream_path(self):
        engine = make_engine(parallelism=4)
        engine.execute(
            "SELECT user_id, sum(amount) FROM events GROUP BY user_id"
        )
        assert engine.groupby_paths == {"stream": 1}

    def test_serial_groupby_keeps_stream_path(self):
        engine = make_engine(parallelism=1)
        engine.execute(
            "SELECT user_id, sum(amount) FROM events GROUP BY user_id"
        )
        assert engine.groupby_paths == {"stream": 1}

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
        rt, postgres = runtime
        codec = BinaryCodec()
        query = JOIN_GROUP_QUERIES[5]
        rt.set_relational_parallelism(1)
        serial = codec.encode(rt.execute(query, use_cache=False))
        # The runtime lends morsel workers only from idle cores, which this
        # host may not have: the fan-out under test brings its own credits.
        rt.task_credits = WorkerCredits(3)
        rt.set_relational_parallelism(4)
        parallel = codec.encode(rt.execute(query, use_cache=False))
        assert serial == parallel
        assert postgres.groupby_paths.get("stream", 0) > 0
        assert rt.task_credits.available == 3

    def test_a_build_that_raises_returns_its_credits(self, runtime, monkeypatch):
        rt, postgres = runtime
        postgres.execute("CREATE TABLE big (id INTEGER PRIMARY KEY, k INTEGER)")
        postgres.insert_rows("big", [(i, i % 7) for i in range(3000)])
        rt.task_credits = WorkerCredits(3)
        rt.set_relational_parallelism(4)

        def boom(*_args, **_kwargs):
            raise MemoryError("no room for the build")

        monkeypatch.setattr("repro.engines.relational.morsel.HashJoinTable.__init__", boom)
        with pytest.raises(Exception, match="no room for the build"):
            rt.execute("SELECT count(*) FROM big a JOIN big b ON a.id = b.id", use_cache=False)
        assert rt.task_credits.available == 3

    def test_engines_made_after_the_runtime_draw_on_its_budget(self, monkeypatch):
        """The WITH-temporaries engine and the island's per-query scratch
        engine are both made after the runtime, and both take its worker
        count and budget: under parallelism=1 a WITH join starts no pool,
        even on a host where "auto" would mean 8 workers."""
        from repro.core.bigdawg import BigDawg
        from repro.engines.array import ArrayEngine
        from repro.runtime import PolystoreRuntime

        monkeypatch.setattr("repro.common.parallel.os.cpu_count", lambda: 8)

        def no_pool(_context):
            raise AssertionError("a worker pool was started")

        monkeypatch.setattr(TaskContext, "_executor", no_pool)
        bd = BigDawg()
        postgres, scidb = RelationalEngine("postgres"), ArrayEngine("scidb")
        bd.add_engine(postgres, islands=["relational"])
        bd.add_engine(scidb, islands=["array"])
        postgres.execute("CREATE TABLE dim (signal INTEGER PRIMARY KEY, name TEXT)")
        postgres.insert_rows("dim", [(i, f"lead_{i}") for i in range(4)])
        bd.catalog.register_object("dim", "postgres", "table")
        scidb.load_numpy("wave", np.arange(32.0).reshape(4, 8))
        bd.catalog.register_object("wave", "scidb", "array")
        with PolystoreRuntime(bd, workers=2, parallelism=1) as rt:
            result = rt.execute(
                "WITH s = ARRAY(aggregate(wave, avg(value), i)) "
                "RELATIONAL(SELECT d.name, s.value FROM s JOIN dim d "
                "ON s.coordinate = d.signal WHERE s.value > 10)"
            )
            assert sorted(row.values for row in result.rows) == [
                ("lead_1", 11.5), ("lead_2", 19.5), ("lead_3", 27.5)]
            temp = bd.temp_engine()
            assert temp.task_credits is rt.task_credits and temp.parallelism == 1

    @pytest.mark.parametrize(
        "cores, workers, parallelism, expected",
        [
            (2, 2, 2, 0),  # saturated: operators run inline
            (2, 4, 4, 0),
            (8, 2, 2, 2),  # (parallelism - 1) x workers fits the idle cores
            (8, 2, 4, 6),
            (8, 4, 4, 4),  # capped by the idle cores
            (8, 3, 1, 0),  # parallelism 1 never borrows
            (8, 8, "auto", 0),
            (8, 2, "auto", 6),
        ],
    )
    def test_credits_are_the_cores_the_serving_pool_leaves_idle(
        self, monkeypatch, cores, workers, parallelism, expected
    ):
        from repro.core.bigdawg import BigDawg
        from repro.runtime import PolystoreRuntime

        monkeypatch.setattr("repro.common.parallel.os.cpu_count", lambda: cores)
        with PolystoreRuntime(BigDawg(), workers=workers, parallelism=parallelism) as rt:
            assert rt.task_credits.available == expected
