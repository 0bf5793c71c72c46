"""Tests for the vectorized relational executor: batches, kernels, reference parity.

The contract under test: ``RelationalEngine.execute`` (the batch pipeline,
the only SELECT path) is observably identical — same schemas, same values,
same ordering, same ``BinaryCodec`` bytes — to the row-at-a-time reference
executor (``conftest.reference_execute``), at any worker count and with a
join memory budget set, while never constructing per-row ``Row`` objects on
its scan and export hot paths.

The key encoder that joins, group-bys and DISTINCT share
(``test_group_encoder_numbers_keys_like_a_dict``,
``TestIncrementalGroupEncoder``, ``TestConcurrentJoinProbes``,
``TestDistinctParity``, with ``test_sql_oracle.py::test_select_distinct``):
these fail if it stops numbering keys as a dict of key tuples does, or if
its read-only ``lookup`` adds a key or answers other than the encode
(property test, with the encoder's own cases).  Eight threads probe one
hash table over INTEGER keys and TEXT keys from two dictionaries with a
10 us switch interval and must equal a serial probe.  DISTINCT must keep
every NaN row, collapse -0.0 into 0.0, collapse one string out of two
dictionaries, keep integers past int64 apart and agree with sqlite.

The aggregate path (``TestAggregatePath``,
``test_cross_batch_group_by_matches_reference``, ``TestNaNParity``,
``TestAggregateOutputTypes``, with ``test_sql_oracle.py::test_group_by_having``):
these fail if an aggregation leaves the one streaming group-by loop or a
global aggregate stops being its one-group case.  Global and grouped
COUNT/SUM/AVG/MIN/MAX over FLOATs holding NaN, signed zeros and NULL,
INTEGER sums near the int64 limits, and what folds per group code
(DISTINCT, stddev, TEXT MIN/MAX, a computed argument or key, NaN keys, a
non-aggregate item with no GROUP BY), must return one result at 1, 7 and
the default rows per batch, the reference's (property test); a NaN opening
a later batch must not stop MAX, a degraded global aggregate must keep the
rows it consumed, a handoff mid-stream must keep every group in
first-appearance order, SUM over BOOLEAN must be an int, and no rows must
still give one row.  The grouped parity tests cover cross-batch groups, NaN
and signed zeros, output types, and sqlite's GROUP BY ... HAVING with a
computed key and COUNT DISTINCT at 3 rows per batch.

CI runs the tier-1 suite under ``python -X dev``, so the debug allocator and
warnings are on for these tests too.
"""

from __future__ import annotations

import math
import sys
import threading
from datetime import datetime, timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common import schema as schema_mod
from repro.common.expressions import (
    BinaryOp,
    ColumnRef,
    InList,
    Literal,
    UnaryOp,
    _like_regex,
    compile_predicate,
)
from repro.common.schema import Column, ColumnBatch, Relation, Schema
from repro.common.serialization import BinaryCodec
from repro.common.types import DataType
from repro.engines.relational import RelationalEngine
from repro.common.errors import TypeMismatchError
from repro.common.keycodes import _DIRECT_GROUP_SLOTS, IncrementalGroupEncoder
from repro.common.vectors import DictVector, NumericVector, numeric_view, to_list, vector_from_values
from repro.engines.relational.morsel import HashJoinTable, JoinSpec
from repro.engines.relational.vectorized import (
    DEFAULT_BATCH_ROWS,
    _KernelUnsupported,
    compile_filter_kernel,
)


# ------------------------------------------------------------------ fixtures
def make_engine(
    parallelism: int = 1, budget: int | None = None, batch_rows: int | None = None
) -> RelationalEngine:
    """A deterministic two-table engine, identical for every call.

    ``parallelism`` is pinned (never ``"auto"``) so no assertion depends on
    the host's core count; ``batch_rows`` shrinks the pipeline's batches so
    small tables still cross every batch / slab boundary.
    """
    e = RelationalEngine("pg")
    e.parallelism = parallelism
    e.join_memory_budget = budget
    if batch_rows is not None:
        e._batch_executor._batch_rows = batch_rows
    e.execute(
        "CREATE TABLE events (id INTEGER PRIMARY KEY, grp TEXT, value FLOAT, "
        "flag INTEGER, note TEXT)"
    )
    rows = []
    for i in range(500):
        grp = ["alpha", "beta", "gamma", None][i % 4]
        value = None if i % 11 == 0 else (i * 7 % 100) / 3.0
        flag = None if i % 13 == 0 else i % 5
        note = None if i % 17 == 0 else f"note_{i % 23}"
        rows.append((i, grp, value, flag, note))
    e.insert_rows("events", rows)
    e.execute("CREATE TABLE dims (grp TEXT, weight FLOAT)")
    e.insert_rows(
        "dims", [("alpha", 1.5), ("beta", 2.5), ("delta", 9.0), (None, 0.5)]
    )
    return e


def values_of(relation) -> list[tuple]:
    return [row.values for row in relation.rows]


#: A grid of queries spanning NULL-heavy columns, LIKE, outer joins, global
#: aggregates, DISTINCT, CASE, IN, scalar functions, HAVING and subqueries.
QUERY_GRID = [
    "SELECT * FROM events",
    "SELECT id, value FROM events WHERE value > 20 AND flag = 3",
    "SELECT id FROM events WHERE value IS NULL ORDER BY id",
    "SELECT id FROM events WHERE grp IS NOT NULL AND flag IN (1, 2) ORDER BY id DESC LIMIT 7 OFFSET 3",
    "SELECT id, note FROM events WHERE note LIKE 'note_1%' ORDER BY id",
    "SELECT count(*) AS n, sum(value) AS s, avg(value) AS a, min(value) AS lo, max(value) AS hi FROM events",
    "SELECT count(*) AS n, sum(value) AS s, avg(value) AS a FROM events WHERE value > 20 AND flag = 3",
    "SELECT count(*) AS n FROM events WHERE value > 200",
    "SELECT grp, count(*) AS n, avg(value) AS a FROM events GROUP BY grp ORDER BY n DESC",
    "SELECT grp, count(*) AS n FROM events GROUP BY grp ORDER BY grp",
    "SELECT grp, count(*) AS n FROM events GROUP BY grp HAVING count(*) > 100",
    "SELECT DISTINCT grp FROM events ORDER BY grp",
    "SELECT DISTINCT flag, grp FROM events WHERE id < 50",
    "SELECT e.id, d.weight FROM events e JOIN dims d ON e.grp = d.grp WHERE e.value > 10 ORDER BY e.id LIMIT 20",
    "SELECT e.id, d.weight FROM events e LEFT JOIN dims d ON e.grp = d.grp ORDER BY e.id LIMIT 40",
    "SELECT d.grp, count(*) AS n FROM dims d JOIN events e ON d.grp = e.grp GROUP BY d.grp ORDER BY d.grp",
    # Outer joins: NULL-keyed rows on both sides, unmatched rows both ways.
    "SELECT e.id, e.grp, d.weight FROM events e LEFT JOIN dims d ON e.grp = d.grp",
    "SELECT e.id, d.grp, d.weight FROM events e RIGHT JOIN dims d ON e.grp = d.grp",
    "SELECT e.id, d.grp FROM events e FULL OUTER JOIN dims d ON e.grp = d.grp",
    "SELECT e.id, e.grp, d.grp, d.weight FROM events e FULL OUTER JOIN dims d ON e.grp = d.grp",
    "SELECT d.grp, e.id FROM dims d LEFT OUTER JOIN events e ON d.grp = e.grp AND e.value > 25",
    "SELECT e.id, d.weight FROM events e FULL JOIN dims d ON e.grp = d.grp WHERE e.flag = 2 OR e.flag IS NULL",
    # Multi-column group-by and NULL-heavy grouped aggregates.
    "SELECT grp, flag, count(*) AS n, sum(value) AS s FROM events GROUP BY grp, flag",
    "SELECT grp, flag, avg(value) AS a, sum(value) AS s, min(value) AS lo FROM events GROUP BY grp, flag",
    "SELECT grp, avg(value) AS a, min(value) AS lo, max(value) AS hi, count(value) AS c FROM events GROUP BY grp",
    "SELECT flag, grp, note, count(*) AS n FROM events GROUP BY flag, grp, note ORDER BY n DESC, flag, grp, note",
    "SELECT note, min(grp) AS g, count(*) AS n FROM events GROUP BY note HAVING count(*) > 10",
    "SELECT CASE WHEN value >= 20 THEN 'high' ELSE 'low' END AS band, id FROM events WHERE id < 30",
    "SELECT upper(grp) AS g, round(value) AS r FROM events WHERE id BETWEEN 10 AND 40 ORDER BY id",
    "SELECT count(*) AS n FROM (SELECT id FROM events WHERE flag = 2) t",
    "SELECT stddev(value) AS sd, count(DISTINCT grp) AS g FROM events",
    "SELECT id, value FROM events WHERE id = 137",
    "SELECT id FROM events WHERE id >= 480 ORDER BY id",
    "SELECT id, -value AS neg, NOT (flag = 1) AS nf FROM events WHERE id < 20",
    "SELECT 1 + 2 AS three",
    # LIMIT / OFFSET straight over scans and joins: prefixes of typed batches.
    "SELECT id, grp, value FROM events LIMIT 9 OFFSET 4",
    "SELECT id, value FROM events WHERE flag = 2 LIMIT 40 OFFSET 15",
    "SELECT e.id, d.weight FROM events e JOIN dims d ON e.grp = d.grp LIMIT 12 OFFSET 3",
    "SELECT id FROM events LIMIT 0",
    "SELECT * FROM events LIMIT 3 OFFSET 600",
    "SELECT count(*) AS n, max(value) AS hi FROM (SELECT id, value FROM events LIMIT 25 OFFSET 490) t",
    # A global aggregate under HAVING.
    "SELECT count(*) AS n, max(value) AS hi FROM events HAVING count(*) > 100",
]

#: Joins with no hashable key — cross, non-equi, keyless — which run on the
#: batched nested loop: every join type, numeric (kernel) and TEXT (row
#: closure) conditions, NULL-valued conditions, empty inputs, and consumers
#: (GROUP BY, ORDER BY ... LIMIT) above the join.
NESTED_LOOP_GRID = [
    "SELECT e.id, d.grp, d.weight FROM events e CROSS JOIN dims d",
    "SELECT count(*) AS n FROM events CROSS JOIN dims",
    "SELECT e.id, d.grp FROM events e JOIN dims d ON e.value < d.weight",
    "SELECT e.id, e.value, d.weight FROM events e LEFT JOIN dims d ON e.value < d.weight",
    "SELECT e.id, d.grp FROM events e RIGHT JOIN dims d ON e.value > d.weight * 30",
    "SELECT e.id, d.grp FROM events e FULL JOIN dims d ON e.value > d.weight * 30",
    "SELECT e.id, d.weight FROM events e JOIN dims d ON e.flag <> d.weight",
    "SELECT e.id, d.weight FROM events e FULL OUTER JOIN dims d ON e.flag <> d.weight AND e.id < 40",
    "SELECT e.id, d.grp FROM events e LEFT JOIN dims d ON e.value BETWEEN d.weight AND d.weight * 3",
    "SELECT e.id, d.grp FROM events e RIGHT JOIN dims d ON e.value >= d.weight AND e.value <= d.weight + 1",
    # TEXT comparisons have no numpy kernel: the compiled closure runs per pair.
    "SELECT e.id, e.grp, d.grp FROM events e LEFT JOIN dims d ON e.grp < d.grp",
    "SELECT e.id, d.grp FROM events e FULL JOIN dims d ON e.grp > d.grp AND e.note LIKE 'note_1%'",
    # Keyless equality: both sides of `=` come from the left input.
    "SELECT e.id, d.grp FROM events e JOIN dims d ON e.flag = e.flag",
    "SELECT e.id, d.grp FROM events e LEFT JOIN dims d ON e.flag = e.flag AND e.id < 30",
    # OR of an equality and an inequality is not a hashable key either.
    "SELECT e.id, d.grp FROM events e JOIN dims d ON e.grp = d.grp OR e.value > d.weight * 25",
    "SELECT e.id, d.grp FROM events e FULL JOIN dims d ON e.grp = d.grp OR e.value > d.weight * 25",
    # Empty left / empty right inputs under every padding rule.
    "SELECT e.id, d.grp FROM (SELECT id, value FROM events WHERE id < 0) e LEFT JOIN dims d ON e.value < d.weight",
    "SELECT e.id, d.grp FROM (SELECT id, value FROM events WHERE id < 0) e FULL JOIN dims d ON e.value < d.weight",
    "SELECT e.id, d.grp FROM events e LEFT JOIN (SELECT grp, weight FROM dims WHERE weight < 0) d ON e.value < d.weight",
    "SELECT e.id, d.grp FROM events e RIGHT JOIN (SELECT grp, weight FROM dims WHERE weight < 0) d ON e.value < d.weight",
    "SELECT e.id, d.grp FROM events e CROSS JOIN (SELECT grp, weight FROM dims WHERE weight < 0) d",
    # A condition that is NULL for every pair matches nothing and pads everything.
    "SELECT e.id, d.grp FROM events e LEFT JOIN dims d ON e.value < NULL",
    "SELECT e.id, d.grp FROM events e FULL JOIN dims d ON e.flag = NULL",
    # Consumers above the join.
    "SELECT d.grp, count(*) AS n, sum(e.value) AS s FROM events e JOIN dims d ON e.value < d.weight GROUP BY d.grp",
    "SELECT e.id, d.weight FROM events e JOIN dims d ON e.value > d.weight ORDER BY e.id DESC, d.weight LIMIT 15",
    "SELECT a.id, b.id FROM (SELECT id, value FROM events WHERE id < 9) a "
    "FULL JOIN (SELECT id, value FROM events WHERE id > 460) b ON a.value < b.value",
]

FULL_GRID = QUERY_GRID + NESTED_LOOP_GRID


class TestReferenceParity:
    """Property: the batch pipeline returns the reference executor's bytes."""

    #: parallelism 1 / 2 / 4, a join memory budget (hash joins spill), and
    #: tiny batches (every operator and join slab boundary is crossed).
    CONFIGS = {
        "serial": dict(parallelism=1),
        "workers2": dict(parallelism=2),
        "workers4": dict(parallelism=4),
        "budget": dict(parallelism=2, budget=256),
        "batch7": dict(parallelism=1, batch_rows=7),
    }

    @pytest.fixture(scope="class")
    def engines(self):
        return {name: make_engine(**config) for name, config in self.CONFIGS.items()}

    @pytest.mark.parametrize("config", list(CONFIGS))
    @pytest.mark.parametrize("query", FULL_GRID)
    def test_matches_reference(self, engines, config, query, assert_matches_reference):
        engine = engines[config]
        assert_matches_reference(engine, query)
        assert engine.fallback_reasons == {}

    @pytest.mark.parametrize("batch_rows", [1, 3, 600])
    @pytest.mark.parametrize("query", NESTED_LOOP_GRID)
    def test_nested_loop_slab_shapes(self, batch_rows, query, assert_matches_reference):
        """Slab geometry is invisible: one pair per slab, a few left rows per
        slab, or a whole left batch against the whole right block."""
        assert_matches_reference(make_engine(batch_rows=batch_rows), query)

    def test_update_delete_then_select_matches_reference(self, assert_matches_reference):
        e = make_engine()
        e.execute("UPDATE events SET value = value + 1 WHERE flag = 2 AND value > 10")
        e.execute("DELETE FROM events WHERE note LIKE 'note_2%'")
        result = assert_matches_reference(e, "SELECT * FROM events ORDER BY id")
        assert 0 < len(result.rows) < 500


_NULLABLE_INTS = st.one_of(st.none(), st.integers(-3, 3))
_NULLABLE_FLOATS = st.one_of(st.none(), st.sampled_from([-1.5, 0.0, 0.5, 2.0]))
_NULLABLE_TEXT = st.one_of(st.none(), st.sampled_from(["a", "b", "c"]))
_TABLE_ROWS = st.lists(
    st.tuples(_NULLABLE_INTS, _NULLABLE_FLOATS, _NULLABLE_TEXT), max_size=9
)
_COMPARISONS = st.sampled_from(["=", "<>", "<", "<=", ">", ">="])
#: Operand pairs a comparison may join on: numeric x numeric (numpy kernel),
#: TEXT x TEXT (row closure), and one same-side pair (keyless).
_OPERANDS = st.sampled_from(
    [("l.i", "r.i"), ("l.f", "r.f"), ("l.i", "r.f"), ("l.t", "r.t"), ("l.i", "l.f")]
)


@st.composite
def _join_conditions(draw) -> str:
    def comparison() -> str:
        left, right = draw(_OPERANDS)
        return f"{left} {draw(_COMPARISONS)} {right}"

    condition = comparison()
    if draw(st.booleans()):
        condition = f"{condition} {draw(st.sampled_from(['AND', 'OR']))} {comparison()}"
    return condition


@settings(max_examples=120, deadline=None)
@given(
    left=_TABLE_ROWS,
    right=_TABLE_ROWS,
    join=st.sampled_from(["JOIN", "LEFT JOIN", "RIGHT JOIN", "FULL JOIN"]),
    condition=_join_conditions(),
    batch_rows=st.sampled_from([1, 2, 5, 4096]),
)
def test_random_joins_match_reference(
    assert_matches_reference, left, right, join, condition, batch_rows
):
    """Small NULL-heavy tables under random comparison conditions: equi
    conditions take the hash join, everything else the nested loop, and
    both must reproduce the reference bytes for every join type."""
    e = RelationalEngine("prop")
    e.parallelism = 1
    e._batch_executor._batch_rows = batch_rows
    for table, rows in (("l", left), ("r", right)):
        e.execute(f"CREATE TABLE {table} (i INTEGER, f FLOAT, t TEXT)")
        e.insert_rows(table, rows)
    assert_matches_reference(e, f"SELECT * FROM l {join} r ON {condition}")
    assert e.fallback_reasons == {}


# ------------------------------------------------- columnar snapshots under writes
_T0 = datetime(2020, 1, 1)
#: Every column nullable; ``k`` tags rows for the DML predicates.  ``i``
#: reaches past int64 (such a column stays an object array), ``f`` carries
#: NaN and the infinities, ``s`` unicode, the empty string and the LIKE
#: wildcards as data.
_SNAPSHOT_DDL = "k INTEGER, i INTEGER, f FLOAT, b BOOLEAN, s TEXT, ts TIMESTAMP"
_SNAPSHOT_SCHEMA = Schema(
    [("k", "integer"), ("i", "integer"), ("f", "float"), ("b", "boolean"),
     ("s", "text"), ("ts", "timestamp")]
)
_TEXTS = st.sampled_from(["", "a", "ab", "b", "a%", "_", "a_b", "%", "é", "日本"]) | st.text(max_size=3)
_SNAPSHOT_ROW = st.tuples(
    st.none() | st.integers(0, 6),
    st.none() | st.integers(-3, 3) | st.sampled_from([2**63 - 1, -(2**63), 2**63, -(2**70)]),
    # Signed zeros compare equal: MIN/MAX must keep the one the row fold keeps.
    st.none() | st.floats(allow_nan=True, allow_infinity=True)
    | st.sampled_from([0.5, 1.5, -2.0, 0.0, -0.0]),
    st.none() | st.booleans(),
    st.none() | _TEXTS,
    st.none() | st.integers(0, 3).map(lambda h: _T0 + timedelta(hours=h)),
)
_SNAPSHOT_ROWS = st.lists(_SNAPSHOT_ROW, max_size=12)
_WRITES = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), st.lists(_SNAPSHOT_ROW, min_size=1, max_size=3)),
        st.tuples(st.just("update"), st.sampled_from(["i = 2", "f = 0.5", "f = NULL", "b = true",
                                                      "s = 'ab'", "s = NULL", "i = i + 1"]),
                  st.integers(0, 6)),
        st.tuples(st.just("delete"), st.integers(0, 6)),
        st.tuples(st.just("truncate")),
        st.tuples(st.just("import"), _SNAPSHOT_ROWS),
    ),
    min_size=1, max_size=4,
)
#: (parallelism, batch rows, join memory budget): both worker counts at both
#: batch sizes, one of them with every hash join forced onto the spill path.
_PIPELINES = [(1, 7, None), (2, None, None), (2, 7, 1), (1, None, None)]
_SNAPSHOT_QUERIES = [
    "SELECT * FROM t",
    "SELECT k, f FROM t WHERE f > 0.25 AND k < 5",
    "SELECT k, i FROM t WHERE i >= 0 OR b = false",
    "SELECT k FROM t WHERE s LIKE 'a%'",
    "SELECT k FROM t WHERE s LIKE '_' OR s LIKE '%b'",
    "SELECT k, s FROM t WHERE s IN ('a', '', 'zz') AND f IS NOT NULL",
    "SELECT k FROM t WHERE s = 'a' OR NOT (s <> 'ab')",
    "SELECT count(*) AS n, count(f) AS c, sum(f) AS sf, avg(f) AS af, min(f) AS lo, max(f) AS hi, "
    "sum(i) AS si, min(i) AS li, sum(k) AS sk, avg(k) AS ak FROM t",
    "SELECT s, count(*) AS n, sum(f) AS sf, max(k) AS hk FROM t GROUP BY s",
    "SELECT s, b, count(*) AS n, avg(k) AS a, min(f) AS lo, count(i) AS ci FROM t GROUP BY s, b",
    "SELECT i, count(*) AS n FROM t GROUP BY i",
    "SELECT ts, k, count(*) AS n, sum(k) AS sk FROM t GROUP BY ts, k",
    "SELECT s, count(*) AS n FROM t WHERE s LIKE '%a%' AND k >= 1 GROUP BY s",
    "SELECT t.k, t.s, d.k, d.f FROM t JOIN d ON t.s = d.s",
    "SELECT t.k, d.f, d.s FROM t LEFT JOIN d ON t.s = d.s AND d.f > 0",
    "SELECT t.i, d.i, t.b, d.ts FROM t FULL OUTER JOIN d ON t.i = d.i",
    "SELECT t.k, d.k FROM t FULL JOIN d ON t.k = d.k AND t.s = d.s",
    "SELECT d.s, count(*) AS n, sum(t.f) AS sf FROM t JOIN d ON t.k = d.k GROUP BY d.s",
    "SELECT t.k, d.k FROM t LEFT JOIN d ON t.k = d.k OR t.f > d.f * 25",
    "SELECT k, f FROM t WHERE k IS NOT NULL ORDER BY k DESC, i LIMIT 3",
    "SELECT s, k FROM t ORDER BY s, k LIMIT 4 OFFSET 1",
]


def _configure(engine: RelationalEngine, parallelism: int, batch_rows, budget) -> None:
    engine.parallelism = parallelism
    engine.join_memory_budget = budget
    engine._batch_executor._batch_rows = batch_rows or DEFAULT_BATCH_ROWS


@settings(max_examples=30, deadline=None)
@given(rows=_SNAPSHOT_ROWS, dim=st.lists(_SNAPSHOT_ROW, max_size=5), writes=_WRITES)
def test_scans_of_the_column_snapshot_follow_every_write(
    assert_matches_reference, rows, dim, writes
):
    """Random tables — every vector kind, NULLs everywhere, empty and
    one-row tables — under random INSERT / UPDATE / DELETE / truncate /
    import_chunks.  After every write each query must equal the reference
    executor, which reads the row store and never the snapshot, at both
    worker counts and batch sizes: a stale or half-built snapshot, a typed
    kernel or a dictionary shortcut that disagrees with the row semantics
    all show up as a difference."""
    e = RelationalEngine("prop")
    for table, content in (("t", rows), ("d", dim)):
        e.execute(f"CREATE TABLE {table} ({_SNAPSHOT_DDL})")
        e.insert_rows(table, content)
    for query in _SNAPSHOT_QUERIES[:3]:
        e.execute(query)   # pack some columns before the first write
    for step, write in enumerate(writes):
        if write[0] == "insert":
            e.insert_rows("t", write[1])
        elif write[0] == "update":
            try:
                e.execute(f"UPDATE t SET {write[1]} WHERE k >= {write[2]}")
            except TypeMismatchError:
                # `i + 1` left INTEGER's range: the statement stops at the
                # failing row, like any other error, and the rows it reached stay.
                pass
        elif write[0] == "delete":
            e.execute(f"DELETE FROM t WHERE k = {write[1]}")
        elif write[0] == "truncate":
            e.table("t").truncate()
        else:
            chunk = Relation.from_columns(
                _SNAPSHOT_SCHEMA, [list(c) for c in zip(*write[1])] or [[] for _ in range(6)]
            )
            e.import_chunks("t", _SNAPSHOT_SCHEMA, [chunk])
        for parallelism, batch_rows, budget in (_PIPELINES[step % 2], _PIPELINES[2 + step % 2]):
            _configure(e, parallelism, batch_rows, budget)
            for query in _SNAPSHOT_QUERIES:
                assert_matches_reference(e, query)
    assert e.fallback_reasons == {}


_NATIVE_TYPES = (int, float, str, bool, datetime, type(None))


def _assert_native(values, where: str) -> None:
    # np.int64(1) == 1 and prints alike: only the exact type tells.
    leaked = {type(v).__name__ for v in values if type(v) not in _NATIVE_TYPES}
    assert not leaked, f"{where}: {leaked}"


def test_only_native_python_values_leave_the_engine():
    """Typed vectors end where rows are made: results, exported chunks and
    spill-path output hold exactly int / float / str / bool / datetime /
    None — before and after a scan has packed the columns."""
    e = RelationalEngine("native")
    e.parallelism = 2
    for table in ("t", "d"):
        e.execute(f"CREATE TABLE {table} ({_SNAPSHOT_DDL})")
        e.insert_rows(table, [
            (k, k % 3 if k % 4 else None, k / 2 if k % 5 else None, k % 2 == 0 if k % 7 else None,
             ["a", "ab", "é", None][k % 4], _T0 + timedelta(hours=k % 3) if k % 6 else None)
            for k in range(40)
        ])

    def check_exports(when: str) -> None:
        relation = e.export_relation("t")
        for index in range(len(relation.schema)):
            _assert_native(relation.column_values(index), f"export_relation {when}")
        for chunk in e.export_chunks("t", chunk_size=16):
            for index in range(len(chunk.schema)):
                _assert_native(chunk.column_values(index), f"export_chunks {when}")
            for row in chunk.rows:
                _assert_native(row.values, f"export_chunks rows {when}")

    check_exports("before any scan")
    for parallelism, batch_rows, budget in _PIPELINES:
        _configure(e, parallelism, batch_rows, budget)
        for query in _SNAPSHOT_QUERIES + [
            "SELECT k + 1 AS k1, f * 2 AS f2, upper(s) AS u FROM t WHERE b = true",
            "SELECT DISTINCT s, b FROM t",
            "SELECT t.k, d.s FROM t CROSS JOIN d WHERE t.k < 3",
        ]:
            result = e.execute(query)
            for row in result.rows:
                _assert_native(row.values, query)
            for index in range(len(result.schema)):
                _assert_native(result.column_values(index), query)
        if budget is not None:
            assert e.partitions_spilled > 0
    check_exports("after scans packed the columns")


class TestOnePath:
    """There is one SELECT path: no mode knob, no fallback, one EXPLAIN dialect."""

    def test_no_execution_knobs(self):
        with pytest.raises(TypeError):
            RelationalEngine("pg", execution_mode="row")
        e = RelationalEngine("pg")
        assert not hasattr(e, "execution_mode")
        assert not hasattr(e, "streaming_groupby")

    def test_explain_has_no_mode_header_or_path_tags(self):
        e = make_engine()
        plan = e.explain(
            "SELECT e.id, d.weight FROM events e LEFT JOIN dims d ON e.grp = d.grp WHERE e.value > 1"
        )
        assert plan.startswith("Stats(")
        assert "ExecutionMode" not in plan
        assert "[vectorized]" not in plan and "[row" not in plan
        assert any("HashJoin[left" in line for line in plan.splitlines())

    def test_explain_names_nested_loop_joins(self):
        e = make_engine()
        plan = e.explain(
            "SELECT e.id FROM events e JOIN dims d ON e.value > d.weight LIMIT 5"
        )
        join_line = next(line for line in plan.splitlines() if "Join" in line)
        assert "Nested_LoopJoin[inner]" in join_line and "[row" not in join_line
        cross = e.explain("SELECT count(*) AS n FROM events CROSS JOIN dims")
        assert any("Nested_LoopJoin[cross]" in line for line in cross.splitlines())

    def test_explain_analyze_annotates_nested_loop_join(self, reference_execute):
        e = make_engine()
        query = "SELECT e.id, d.grp FROM events e LEFT JOIN dims d ON e.value < d.weight"
        text = e.explain(query, analyze=True)
        join_line = next(line for line in text.splitlines() if "Nested_LoopJoin" in line)
        expected_rows = len(reference_execute(e, query).rows)
        assert "estimated=" in join_line
        assert f"actual={expected_rows} rows" in join_line
        assert "batches=" in join_line and "time=" in join_line
        assert "not executed" not in text

    def test_spill_tag_only_on_hash_joins(self):
        e = make_engine(budget=1)
        hash_plan = e.explain("SELECT e.id FROM events e JOIN dims d ON e.grp = d.grp")
        assert "[spill]" in next(l for l in hash_plan.splitlines() if "Join" in l)
        loop_plan = e.explain("SELECT e.id FROM events e JOIN dims d ON e.value < d.weight")
        assert "[spill]" not in loop_plan

    def test_cross_and_non_equi_joins_record_no_fallback(self):
        e = make_engine()
        e.execute("SELECT count(*) AS n FROM events CROSS JOIN dims")
        e.execute("SELECT e.id FROM events e JOIN dims d ON e.value > d.weight LIMIT 5")
        e.execute("SELECT e.id FROM events e LEFT JOIN dims d ON e.grp = d.grp LIMIT 5")
        assert e.fallback_reasons == {}


class TestColumnBatch:
    def test_transpose_roundtrip(self):
        schema = Schema([("a", "integer"), ("b", "text")])
        batch = ColumnBatch.from_value_rows(schema, [(1, "x"), (2, "y"), (3, None)])
        assert len(batch) == 3
        assert [list(col) for col in batch.columns] == [[1, 2, 3], ["x", "y", None]]
        assert list(batch.value_rows()) == [(1, "x"), (2, "y"), (3, None)]

    def test_compress_and_take(self):
        schema = Schema([("a", "integer")])
        batch = ColumnBatch.from_value_rows(schema, [(i,) for i in range(6)])
        assert batch.compress([True, False, True, False, True, False]).columns == [[0, 2, 4]]
        assert batch.take([5, 0]).columns == [[5, 0]]

    def test_columnar_relation_lazy_rows(self):
        schema = Schema([("a", "integer"), ("b", "float")])
        relation = Relation.from_columns(schema, [[1, 2], [0.5, 1.5]])
        assert len(relation) == 2
        assert relation.column_values(0) == [1, 2]  # no Row materialization
        assert relation._rows is None
        assert [r.values for r in relation.rows] == [(1, 0.5), (2, 1.5)]
        assert relation.rows is relation.rows   # built once, then kept


class TestColumnarExport:
    def test_export_chunks_builds_no_rows(self, monkeypatch):
        engine = RelationalEngine("pg")
        engine.execute("CREATE TABLE m (a INTEGER, b FLOAT)")
        engine.insert_rows("m", [(i, i * 0.5) for i in range(5000)])
        codec = BinaryCodec()
        constructed = []
        original = schema_mod.Row.__init__

        def counting(self, *args, **kwargs):
            constructed.append(1)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(schema_mod.Row, "__init__", counting)
        payloads = [codec.encode(chunk) for chunk in engine.export_chunks("m", chunk_size=1024)]
        monkeypatch.undo()
        assert len(payloads) == 5
        assert not constructed, "columnar CAST export must not build Row objects"
        # And the payloads decode to the full table.
        total = sum(len(codec.decode(p, engine.export_schema("m"))) for p in payloads)
        assert total == 5000

    def test_export_chunks_rows_still_available_lazily(self):
        engine = RelationalEngine("pg")
        engine.execute("CREATE TABLE m (a INTEGER, t TEXT)")
        engine.insert_rows("m", [(1, "x"), (2, "y")])
        chunks = list(engine.export_chunks("m"))
        assert [r.values for chunk in chunks for r in chunk] == [(1, "x"), (2, "y")]


class TestLikeCompilation:
    def test_like_regex_compiled_once(self, reference_execute):
        _like_regex.cache_clear()
        # The interpreted (reference) path used to recompile per row.
        result = reference_execute(
            make_engine(), "SELECT count(*) AS n FROM events WHERE note LIKE 'note_1%'"
        )
        assert result.rows[0]["n"] > 0
        info = _like_regex.cache_info()
        assert info.misses == 1, "LIKE pattern must compile exactly once"
        assert info.hits >= 400  # one hit per scanned non-null row after the first

    def test_like_semantics_unchanged(self):
        engine = make_engine()
        # % spans any run, _ exactly one character; both are case sensitive.
        rows = engine.execute(
            "SELECT DISTINCT note FROM events WHERE note LIKE 'note__' ORDER BY note"
        )
        notes = [r["note"] for r in rows]
        assert notes and all(len(n) == 6 and n.startswith("note_") for n in notes)
        none = engine.execute("SELECT count(*) AS n FROM events WHERE note LIKE 'NOTE%'")
        assert none.rows[0]["n"] == 0
        # Regex metacharacters in the pattern stay literal.
        literal = engine.execute("SELECT count(*) AS n FROM events WHERE note LIKE 'note.1'")
        assert literal.rows[0]["n"] == 0


class TestFilterKernel:
    def make_schema(self) -> Schema:
        return Schema(
            [
                Column("a", DataType.INTEGER),
                Column("b", DataType.FLOAT),
                Column("t", DataType.TEXT),
            ]
        )

    def test_numeric_kernel_matches_row_semantics_with_nulls(self):
        schema = self.make_schema()
        predicate = BinaryOp(
            "and",
            BinaryOp(">", ColumnRef("a"), Literal(1)),
            BinaryOp("<", ColumnRef("b"), Literal(10.0)),
        )
        kernel = compile_filter_kernel(predicate, schema)
        assert kernel is not None
        rows = [
            (0, 5.0, "x"),
            (2, None, "x"),
            (3, 4.0, "x"),
            (None, 1.0, "x"),
            (9, 99.0, "x"),
        ]
        batch = ColumnBatch.from_value_rows(schema, rows)
        mask = kernel(batch)
        reference = compile_predicate(predicate, schema)
        assert list(mask) == [reference(row) for row in rows]

    def test_text_comparisons_broadcast_through_the_dictionary(self):
        # =, <>, IN and LIKE against constants are answered once per distinct
        # string of a dictionary-encoded column; a TEXT column that is not
        # dictionary-encoded makes the kernel decline (the runner then uses
        # the row closure), and other TEXT shapes have no kernel at all.
        schema = self.make_schema()
        rows = [(1, 1.0, "x"), (2, 2.0, None), (3, 3.0, "y%"), (4, 4.0, "x"), (5, 5.0, "")]
        encoded = ColumnBatch(
            schema,
            [vector_from_values(list(column), dtype) for column, dtype in zip(zip(*rows), schema.types)],
        )
        t = ColumnRef("t")
        predicates = [
            BinaryOp("=", t, Literal("x")),
            BinaryOp("=", Literal("x"), t),
            BinaryOp("<>", t, Literal("x")),
            BinaryOp("like", t, Literal("y%")),
            BinaryOp("like", t, Literal("_")),
            InList(t, ("x", "", "zzz")),
            InList(t, ("x",), negated=True),
            BinaryOp("and", BinaryOp("=", t, Literal("x")), BinaryOp(">", ColumnRef("a"), Literal(1))),
            BinaryOp("or", BinaryOp("=", t, Literal("y%")), BinaryOp("<", ColumnRef("b"), Literal(2.0))),
            UnaryOp("not", BinaryOp("=", t, Literal("x"))),
        ]
        for predicate in predicates:
            kernel = compile_filter_kernel(predicate, schema)
            assert kernel is not None, predicate
            reference = compile_predicate(predicate, schema)
            assert list(kernel(encoded)) == [reference(row) for row in rows], predicate
            with pytest.raises(_KernelUnsupported):
                kernel(ColumnBatch.from_value_rows(schema, rows))
        assert compile_filter_kernel(BinaryOp("<", t, Literal("x")), schema) is None
        assert compile_filter_kernel(BinaryOp("=", t, ColumnRef("t")), schema) is None

    def test_division_over_integer_columns_left_to_row_path(self):
        # int64 true division would double-round where Python's int/int does
        # not; only float columns get the masked-division kernel.
        schema = self.make_schema()
        predicate = BinaryOp(">", BinaryOp("/", ColumnRef("a"), ColumnRef("b")), Literal(1))
        assert compile_filter_kernel(predicate, schema) is None

    def test_masked_division_kernel_over_float_columns(self):
        schema = Schema([Column("x", DataType.FLOAT), Column("y", DataType.FLOAT)])
        predicate = BinaryOp(">", BinaryOp("/", ColumnRef("x"), ColumnRef("y")), Literal(1))
        kernel = compile_filter_kernel(predicate, schema)
        assert kernel is not None
        batch = ColumnBatch.from_value_rows(
            schema, [(4.0, 2.0), (1.0, 2.0), (None, 0.0), (3.0, None)]
        )
        # NULL dividend or divisor yields NULL (no error), like _null_safe.
        assert list(kernel(batch)) == [True, False, False, False]

    def test_masked_division_raises_like_row_path(self):
        from repro.common.errors import ExecutionError

        schema = Schema([Column("x", DataType.FLOAT), Column("y", DataType.FLOAT)])
        predicate = BinaryOp(">", BinaryOp("/", ColumnRef("x"), ColumnRef("y")), Literal(1))
        kernel = compile_filter_kernel(predicate, schema)
        batch = ColumnBatch.from_value_rows(schema, [(4.0, 2.0), (1.0, 0.0)])
        with pytest.raises(ExecutionError, match="division by zero"):
            kernel(batch)

    def test_masked_division_respects_and_short_circuit(self):
        # Row semantics: `y > 0 AND x / y > 1` never divides where y <= 0,
        # so a zero divisor behind the guard must not raise.
        schema = Schema([Column("x", DataType.FLOAT), Column("y", DataType.FLOAT)])
        predicate = BinaryOp(
            "and",
            BinaryOp(">", ColumnRef("y"), Literal(0)),
            BinaryOp(">", BinaryOp("/", ColumnRef("x"), ColumnRef("y")), Literal(1)),
        )
        kernel = compile_filter_kernel(predicate, schema)
        assert kernel is not None
        batch = ColumnBatch.from_value_rows(
            schema, [(4.0, 2.0), (9.0, 0.0), (1.0, 2.0), (5.0, None)]
        )
        assert list(kernel(batch)) == [True, False, False, False]

    def test_modulo_kernel_matches_python_semantics(self):
        schema = Schema([Column("x", DataType.FLOAT)])
        predicate = BinaryOp("=", BinaryOp("%", ColumnRef("x"), Literal(3)), Literal(1.0))
        kernel = compile_filter_kernel(predicate, schema)
        assert kernel is not None
        batch = ColumnBatch.from_value_rows(schema, [(7.0,), (-2.0,), (6.0,), (None,)])
        reference = compile_predicate(predicate, schema)
        assert list(kernel(batch)) == [reference(row) for row in batch.value_rows()]


class TestDivisionParity:
    """Satellite (e): `/` and `%` kernels keep per-row error semantics."""

    @staticmethod
    def build():
        e = RelationalEngine("d")
        e.execute("CREATE TABLE m (x FLOAT, y FLOAT)")
        e.insert_rows("m", [(4.0, 2.0), (9.0, 3.0), (1.0, 4.0), (None, 5.0), (8.0, None)])
        return e

    def test_division_results_identical(self, assert_matches_reference):
        result = assert_matches_reference(
            self.build(), "SELECT x FROM m WHERE x / y > 1.5 ORDER BY x"
        )
        assert values_of(result) == [(4.0,), (9.0,)]

    def test_division_by_zero_raises_like_reference(self, reference_execute):
        from repro.common.errors import ExecutionError

        e = self.build()
        e.execute("INSERT INTO m VALUES (1.0, 0.0)")
        with pytest.raises(ExecutionError, match="division by zero"):
            e.execute("SELECT x FROM m WHERE x / y > 1")
        with pytest.raises(ExecutionError, match="division by zero"):
            reference_execute(e, "SELECT x FROM m WHERE x / y > 1")

    def test_zero_divisor_behind_and_guard_skipped(self, assert_matches_reference):
        e = self.build()
        e.insert_rows("m", [(7.0, 0.0)])
        result = assert_matches_reference(
            e, "SELECT x FROM m WHERE y > 1 AND x / y > 1.5 ORDER BY x"
        )
        assert values_of(result) == [(4.0,), (9.0,)]

    def test_zero_divisor_in_join_condition(self, assert_matches_reference, reference_execute):
        # The nested-loop join evaluates the same masked-division kernel
        # over pairs: guarded zeros are skipped, unguarded ones raise.
        from repro.common.errors import ExecutionError

        e = self.build()
        e.execute("CREATE TABLE d (z FLOAT)")
        e.insert_rows("d", [(0.0,), (2.0,), (None,)])
        assert_matches_reference(
            e, "SELECT m.x, d.z FROM m LEFT JOIN d ON d.z > 0 AND m.x / d.z > 1.5"
        )
        for run in (e.execute, lambda q: reference_execute(e, q)):
            with pytest.raises(ExecutionError, match="division by zero"):
                run("SELECT m.x, d.z FROM m JOIN d ON m.x / d.z > 1.5")


class TestOuterJoinWherePlacement:
    """WHERE is post-join for outer joins: no pushdown to the padded side."""

    @staticmethod
    def build():
        e = RelationalEngine("w")
        e.execute("CREATE TABLE a (id INTEGER, k INTEGER)")
        e.execute("CREATE TABLE b (k INTEGER, v FLOAT)")
        e.insert_rows("a", [(1, 1), (2, 2)])
        e.insert_rows("b", [(1, 5.0)])
        return e

    def test_where_on_padded_side_filters_padded_rows(self, assert_matches_reference):
        result = assert_matches_reference(
            self.build(), "SELECT a.id, b.v FROM a LEFT JOIN b ON a.k = b.k WHERE b.v > 0"
        )
        # Standard SQL: the padded row (2, NULL) cannot satisfy b.v > 0.
        assert values_of(result) == [(1, 5.0)]

    def test_where_on_preserved_side_still_pushes_down(self, assert_matches_reference):
        e = self.build()
        plan = e.explain("SELECT a.id FROM a LEFT JOIN b ON a.k = b.k WHERE a.id > 1")
        scan_a = next(line for line in plan.splitlines() if "SeqScan(a)" in line)
        assert "filter=" in scan_a  # preserved-side conjunct pushed onto the scan
        result = assert_matches_reference(
            e, "SELECT a.id, b.v FROM a LEFT JOIN b ON a.k = b.k WHERE a.id > 1"
        )
        assert values_of(result) == [(2, None)]

    def test_full_join_where_stays_above(self, assert_matches_reference):
        result = assert_matches_reference(
            self.build(),
            "SELECT a.id, b.v FROM a FULL JOIN b ON a.k = b.k WHERE a.id IS NOT NULL",
        )
        assert values_of(result) == [(1, 5.0), (2, None)]


class TestNaNParity:
    """NaN shapes force the per-row accumulators (position-dependent folds)."""

    def test_grouped_min_max_with_nan_matches_reference(self, reference_execute):
        e = RelationalEngine("n")
        e.execute("CREATE TABLE t (g INTEGER, v FLOAT)")
        e.insert_rows(
            "t",
            [(1, 5.0), (1, float("nan")), (2, float("nan")), (2, 3.0), (1, 2.0)],
        )
        query = "SELECT g, min(v) AS lo, max(v) AS hi FROM t GROUP BY g"
        actual = values_of(e.execute(query))
        expected = values_of(reference_execute(e, query))

        def same(x, y):
            if isinstance(x, float) and isinstance(y, float):
                return x == y or (math.isnan(x) and math.isnan(y))
            return x == y

        assert len(actual) == len(expected) == 2
        assert all(same(x, y) for a, b in zip(actual, expected) for x, y in zip(a, b))

    def test_grouped_signed_zeros_match_reference(self, assert_matches_reference):
        # Equal zeros: the row fold keeps the first for MIN/MAX, and a SUM of
        # negative zeros alone is -0.0.
        e = RelationalEngine("z")
        e.execute("CREATE TABLE t (g INTEGER, v FLOAT)")
        e.insert_rows("t", [(1, 0.0), (1, -0.0), (2, -0.0), (2, 0.0), (3, -0.0), (3, -0.0)])
        result = assert_matches_reference(
            e, "SELECT g, min(v) AS lo, max(v) AS hi, sum(v) AS s FROM t GROUP BY g")
        assert [str(v) for row in result.rows for v in row.values[1:]] == [
            "0.0", "0.0", "0.0", "-0.0", "-0.0", "0.0", "-0.0", "-0.0", "-0.0"]

    def test_nan_group_keys_match_reference(self, reference_execute):
        e = RelationalEngine("n2")
        e.execute("CREATE TABLE t (v FLOAT)")
        e.insert_rows("t", [(float("nan"),), (1.0,), (float("nan"),), (1.0,)])
        query = "SELECT v, count(*) AS n FROM t GROUP BY v"
        actual = values_of(e.execute(query))
        expected = values_of(reference_execute(e, query))
        # Distinct NaN objects are distinct dict keys on the reference path;
        # the batch pipeline must not collapse them into one group.
        assert len(actual) == len(expected) == 3
        assert [n for _v, n in actual] == [n for _v, n in expected]

    def test_self_referential_equality_runs_as_nested_loop(self, assert_matches_reference):
        e = RelationalEngine("sr")
        e.execute("CREATE TABLE a (x INTEGER)")
        e.execute("CREATE TABLE b (y INTEGER)")
        e.insert_rows("a", [(1,), (None,)])
        e.insert_rows("b", [(2,), (3,)])
        # The planner sees an equality and says "hash"; no key resolves
        # across the two inputs, so the join runs as a nested loop.
        for join in ("JOIN", "LEFT JOIN", "RIGHT JOIN", "FULL JOIN"):
            assert_matches_reference(e, f"SELECT a.x, b.y FROM a {join} b ON a.x = a.x")
        result = e.execute("SELECT a.x, b.y FROM a JOIN b ON a.x = a.x")
        assert values_of(result) == [(1, 2), (1, 3)]
        assert e.fallback_reasons == {}


class TestBuildSideHint:
    """Satellite: the planner's build-side decision reaches the executor."""

    @staticmethod
    def build():
        e = RelationalEngine("b")
        e.execute("CREATE TABLE big (id INTEGER, k INTEGER)")
        e.insert_rows("big", [(i, i % 40) for i in range(2000)])
        e.execute("CREATE TABLE small (k INTEGER, tag TEXT)")
        e.insert_rows("small", [(k, f"t{k}") for k in range(30)])
        return e

    def test_planner_builds_on_smaller_side(self):
        e = self.build()
        # Large left, small right: the hash table must build on the right.
        plan = e.explain("SELECT b.id, s.tag FROM big b JOIN small s ON b.k = s.k")
        join_line = next(line for line in plan.splitlines() if "Join" in line)
        assert "build=right" in join_line
        # Small left, large right: build stays on the left.
        plan = e.explain("SELECT b.id, s.tag FROM small s JOIN big b ON b.k = s.k")
        join_line = next(line for line in plan.splitlines() if "Join" in line)
        assert "build=left" in join_line

    def test_outer_join_with_empty_build_side(self, assert_matches_reference):
        # Regression: the pad gather must not index into zero-length build
        # columns when the right side is empty (or filtered to nothing).
        e = RelationalEngine("eb")
        e.execute("CREATE TABLE a (id INTEGER, k INTEGER)")
        e.execute("CREATE TABLE b (k INTEGER, w FLOAT)")
        e.insert_rows("a", [(1, 10), (2, 20)])
        left = assert_matches_reference(e, "SELECT a.id, b.w FROM a LEFT JOIN b ON a.k = b.k")
        assert_matches_reference(e, "SELECT a.id, b.w FROM a FULL JOIN b ON a.k = b.k")
        assert values_of(left) == [(1, None), (2, None)]

    def test_probe_key_beyond_int64_matches_reference(self, reference_execute):
        # Regression: a probe-side Python int too large for int64 must probe
        # as "no match", not crash the numeric transform.
        e = RelationalEngine("oi")
        e.execute("CREATE TABLE big (k INTEGER)")
        e.execute("CREATE TABLE small (k INTEGER, tag TEXT)")
        e.insert_rows("big", [(2**70,), (5,), (7,)])
        e.insert_rows("small", [(5, "five"), (9, "nine")])
        query = "SELECT b.k, s.tag FROM big b LEFT JOIN small s ON b.k = s.k"
        actual = values_of(e.execute(query))
        assert actual == values_of(reference_execute(e, query))
        assert (2**70, None) in actual and (5, "five") in actual

    def test_nested_loop_value_beyond_int64_matches_reference(self, reference_execute):
        # The numeric kernel cannot pack 2**70; the join must drop to the
        # compiled closure for exact Python-int comparison, not crash.
        e = RelationalEngine("oi2")
        e.execute("CREATE TABLE big (k INTEGER)")
        e.execute("CREATE TABLE small (k INTEGER, tag TEXT)")
        e.insert_rows("big", [(2**70,), (5,), (7,)])
        e.insert_rows("small", [(5, "five"), (9, "nine"), (2**71, "huge")])
        for join in ("JOIN", "LEFT JOIN", "FULL JOIN"):
            query = f"SELECT b.k, s.tag FROM big b {join} small s ON b.k > s.k"
            assert values_of(e.execute(query)) == values_of(reference_execute(e, query))

    def test_large_left_small_right_parity(self, assert_matches_reference):
        result = assert_matches_reference(
            self.build(),
            "SELECT b.id, s.tag FROM big b JOIN small s ON b.k = s.k ORDER BY b.id",
        )
        assert len(result.rows) == 1500  # 2000 rows, 30 of 40 key values match


class TestReferenceParityEdgeCases:
    """Regressions for divergences the numeric kernels could introduce."""

    @pytest.fixture()
    def run(self, assert_matches_reference):
        def run(create_sql, table, rows, query):
            e = RelationalEngine("t")
            e.execute(create_sql)
            e.insert_rows(table, rows)
            return values_of(assert_matches_reference(e, query))

        return run

    def test_integer_arithmetic_does_not_wrap(self, run):
        # int64 kernels would wrap 4e9**2 negative; Python ints must win.
        out = run(
            "CREATE TABLE t (v INTEGER)", "t",
            [(4_000_000_000,), (2,)],
            "SELECT v FROM t WHERE v * v > 0",
        )
        assert out == [(4_000_000_000,), (2,)]

    def test_falsy_integer_and_null_is_null(self, run):
        # The reference short-circuits AND only on the literal False: 0 AND
        # NULL is NULL (excluded), and NOT NULL stays NULL.
        run(
            "CREATE TABLE u (flag INTEGER, y FLOAT)", "u",
            [(0, None), (0, 1.0), (1, 9.0)],
            "SELECT flag FROM u WHERE NOT (flag AND y > 5)",
        )

    def test_same_side_equality_is_not_a_hash_key(self, assert_matches_reference):
        # Both tables have a column `f`: suffix matching used to read `l.f`
        # as the right input's `r.f` and hash `l.i = r.f` instead.
        e = RelationalEngine("k")
        for table in ("l", "r"):
            e.execute(f"CREATE TABLE {table} (i INTEGER, f FLOAT)")
        e.insert_rows("l", [(2, None), (3, 3.0)])
        e.insert_rows("r", [(None, 2.0), (7, 8.0)])
        for join in ("JOIN", "LEFT JOIN", "FULL JOIN"):
            assert_matches_reference(e, f"SELECT * FROM l {join} r ON l.i = l.f")
        result = e.execute("SELECT l.i, r.i FROM l JOIN r ON l.i = l.f")
        assert values_of(result) == [(3, None), (3, 7)]

    def test_sum_over_text_concatenates_like_reference(self, run):
        out = run(
            "CREATE TABLE s (name TEXT)", "s",
            [("a",), ("b",)],
            "SELECT sum(name) AS s FROM s",
        )
        assert out == [("ab",)]


class TestRuntimeMetrics:
    def test_fallback_reasons_key_stays_and_is_empty(self):
        from repro.core.bigdawg import BigDawg
        from repro.runtime import PolystoreRuntime

        bigdawg = BigDawg()
        engine = RelationalEngine("postgres")
        bigdawg.add_engine(engine, islands=["relational"])
        engine.execute("CREATE TABLE a (id INTEGER)")
        engine.execute("CREATE TABLE b (id INTEGER)")
        engine.insert_rows("a", [(1,), (2,)])
        engine.insert_rows("b", [(1,), (3,)])
        runtime = PolystoreRuntime(bigdawg, workers=2)
        try:
            result = runtime.execute(
                "RELATIONAL(SELECT count(*) AS n FROM a CROSS JOIN b)", use_cache=False
            )
            assert values_of(result) == [(4,)]
            runtime.execute(
                "RELATIONAL(SELECT count(*) AS n FROM a LEFT JOIN b ON a.id < b.id)",
                use_cache=False,
            )
            metrics = runtime.describe()["metrics"]
            assert metrics["relational_fallback_reasons"] == {}
            assert "relational_execution_modes" not in metrics
            assert not hasattr(runtime, "set_relational_execution_mode")
        finally:
            runtime.shutdown()


# ------------------------------------------------------- streaming group-by
_GROUP_KEYS = ("i", "f", "s", "b")
_GROUP_FLOATS = st.sampled_from([0.0, -0.0, 1.5, -2.0])
_GROUP_VALUES = st.none() | st.sampled_from([0.5, 1.0, -3.0, 2.25])
_GROUP_HAVING = [None, "count(*) > 1", "sum(w) >= 0", "max(v) > 0.5 OR min(w) < 0"]


@st.composite
def _group_by_cases(draw):
    """A table whose early rows repeat a few keys and whose late rows bring
    keys no earlier row has (ints past int64 in some draws), a grouped
    query over 1-3 of its key columns, and a batch size."""
    big = draw(st.booleans())
    early = st.tuples(
        st.none() | st.integers(-2, 2),
        st.none() | _GROUP_FLOATS,
        st.none() | st.sampled_from(["a", "b", "c"]),
        st.none() | st.booleans(),
        _GROUP_VALUES,
        st.none() | st.integers(-5, 5),
    )
    late_ints = [10, 11] + ([2**63, -(2**63) - 1] if big else [])
    late = st.tuples(
        st.sampled_from(late_ints),
        st.none() | st.sampled_from([7.5, -0.0]),
        st.sampled_from(["x", "y"]),
        st.none() | st.booleans(),
        _GROUP_VALUES,
        st.none() | st.integers(-5, 5),
    )
    rows = draw(st.lists(early, min_size=1, max_size=14)) + draw(st.lists(late, max_size=6))
    nan = draw(st.integers(0, 4)) == 0
    if nan:
        # A NaN in the MIN/MAX column, after the rows before it streamed.
        rows.append((draw(st.integers(-2, 2)), 1.5, "a", True, float("nan"), 1))
    keys = draw(st.lists(st.sampled_from(_GROUP_KEYS), min_size=1, max_size=3, unique=True))
    having = draw(st.sampled_from(_GROUP_HAVING))
    return rows, keys, having, nan, draw(st.sampled_from([1, 3, 7, 4096]))


@settings(max_examples=150, deadline=None)
@given(case=_group_by_cases())
def test_cross_batch_group_by_matches_reference(assert_matches_reference, case):
    """Groups that span batches, first appear in a late batch, or have NULL,
    signed-zero, past-int64 or boolean keys come out of the streaming
    group-by as from the reference: values, order, types and bytes — also
    when a NaN hands the stream to the row accumulators mid-way."""
    rows, keys, having, nan, batch_rows = case
    e = RelationalEngine("groups")
    e.parallelism = 1
    e._batch_executor._batch_rows = batch_rows
    e.execute("CREATE TABLE t (i INTEGER, f FLOAT, s TEXT, b BOOLEAN, v FLOAT, w INTEGER)")
    e.insert_rows("t", rows)
    key_list = ", ".join(keys)
    sql = (
        f"SELECT {key_list}, count(*) AS n, count(v) AS cv, sum(v) AS sv, avg(w) AS aw, "
        f"sum(w) AS sw, min(v) AS lo, max(w) AS hw FROM t GROUP BY {key_list}"
    )
    if having is not None:
        sql += f" HAVING {having}"
    assert_matches_reference(e, sql)
    assert set(e.groupby_paths) == ({"stream_degraded"} if nan else {"stream"})


@pytest.mark.parametrize("batch_rows", [3, None])
def test_grouped_computed_items_match_reference(assert_matches_reference, batch_rows):
    """A computed SELECT item runs its row closure over the group
    representatives."""
    e = make_engine(batch_rows=batch_rows)
    assert_matches_reference(
        e,
        "SELECT grp, value * 2 AS twice, value > 10 AS big, upper(grp) AS g, "
        "count(*) AS n FROM events GROUP BY grp, value HAVING count(*) >= 1",
    )
    assert e.groupby_paths == {"stream": 1}


_AGGREGATED_FLOATS = st.none() | st.sampled_from(
    [float("nan"), 0.0, -0.0, 1.5, -2.0, 1e308, float("inf"), float("-inf")]
)
_AGGREGATED_INTS = st.none() | st.sampled_from([0, 3, -4, 2**62, -(2**62), 2**63 - 1, -(2**63)])
_AGGREGATES = (
    "count(*) AS n, count(f) AS cf, sum(f) AS sf, avg(f) AS af, min(f) AS lf, max(f) AS hf, "
    "count(i) AS ci, sum(i) AS si, avg(i) AS ai, min(i) AS li, max(i) AS hi"
)


#: The shapes of grouping the property draws: the SELECT items before the
#: aggregates, and the GROUP BY.
_GROUPINGS = [
    ("", ""),
    ("g, ", " GROUP BY g"),
    # NaN keys, each its own group, before and after other keys.
    ("f, ", " GROUP BY f"),
    ("g + 1 AS k, ", " GROUP BY g + 1"),
    # A global aggregate with a non-aggregate item reads the first row.
    ("g, ", ""),
]
#: Aggregate lists the property draws: the vector fold's, and ones that
#: fold per group code (DISTINCT, stddev, TEXT MIN/MAX, a computed argument).
_AGGREGATE_LISTS = [
    _AGGREGATES,
    "count(DISTINCT f) AS df, sum(DISTINCT i) AS di",
    "stddev(i) AS sd",
    "min(s) AS ls, max(s) AS hs",
    "sum(i * 2) AS s2",
    "count(*) AS n, max(s) AS hs, max(f) AS hf",
]


def _aggregate_table(rows: list[tuple]) -> RelationalEngine:
    e = RelationalEngine("agg")
    e.parallelism = 1
    e.execute("CREATE TABLE t (g INTEGER, f FLOAT, i INTEGER, s TEXT)")
    e.insert_rows("t", rows)
    return e


def _as_run(engine: RelationalEngine, sql: str, batch_rows: int) -> tuple:
    """``sql``'s schema and rows at ``batch_rows`` rows per batch, each row
    as its repr: NaN equals NaN, while -0.0, 0.0, 0 and False stay apart."""
    engine._batch_executor._batch_rows = batch_rows
    result = engine.execute(sql)
    return result.schema, [repr(row.values) for row in result.rows]


class TestAggregatePath:
    """Every aggregation is the streaming group-by; a global aggregate is the
    one with one group."""

    @settings(max_examples=150, deadline=None)
    @given(
        rows=st.lists(
            st.tuples(
                st.none() | st.integers(0, 2),
                _AGGREGATED_FLOATS,
                _AGGREGATED_INTS,
                st.none() | st.sampled_from(["a", "B", "b", ""]),
            ),
            max_size=20,
        ),
        grouping=st.sampled_from(_GROUPINGS),
        aggregates=st.sampled_from(_AGGREGATE_LISTS),
    )
    def test_aggregates_hold_at_every_batch_size(
        self, reference_execute, rows, grouping, aggregates
    ):
        """Global and grouped COUNT/SUM/AVG/MIN/MAX over FLOATs holding NaN,
        signed zeros and NULL, and INTEGER sums near the int64 limits, and
        the aggregates and keys that fold per group code (DISTINCT, stddev,
        TEXT MIN/MAX, a computed argument or key, a NaN key): one result at
        1, 7 and the default rows per batch, the reference's."""
        e = _aggregate_table(rows)
        items, group_by = grouping
        sql = f"SELECT {items}{aggregates} FROM t{group_by}"
        runs = [_as_run(e, sql, batch_rows) for batch_rows in (1, 7, DEFAULT_BATCH_ROWS)]
        assert runs[0] == runs[1] == runs[2]
        expected = reference_execute(e, sql)
        assert runs[2] == (expected.schema, [repr(row.values) for row in expected.rows])

    def test_a_handoff_keeps_every_group_in_first_appearance_order(self):
        """TEXT MAX folds per group code from the first batch; the NaN in
        the second batch hands FLOAT MAX, COUNT and SUM over to per-code
        accumulators, and group 2 first appears in the third."""
        e = _aggregate_table(
            [
                (3, 0.5, 1, "b"), (1, 1.5, 10, "a"),
                (1, float("nan"), 100, "c"), (3, 2.5, 1000, "a"),
                (2, 4.0, 10000, "d"), (3, 0.25, 100000, "z"),
            ]
        )
        e._batch_executor._batch_rows = 2
        result = e.execute(
            "SELECT g, max(s) AS hs, max(f) AS hf, count(*) AS n, sum(i) AS si "
            "FROM t GROUP BY g"
        )
        assert values_of(result) == [
            (3, "z", 2.5, 3, 101001),
            (1, "c", 1.5, 2, 110),
            (2, "d", 4.0, 1, 10000),
        ]
        assert e.groupby_paths == {"stream_degraded": 1}

    def test_a_sum_over_booleans_is_an_integer(self):
        """SUM starts its total from the first value as an int, so a group
        with one true row sums to 1, not True, on either fold."""
        e = RelationalEngine("bools")
        e.execute("CREATE TABLE t (b BOOLEAN, f FLOAT)")
        e.insert_rows("t", [(True, 1.0)])
        (total,) = values_of(e.execute("SELECT sum(DISTINCT b) AS s FROM t"))[0]
        assert type(total) is int and total == 1
        e.insert_rows("t", [(None, float("nan"))])
        total, top = values_of(e.execute("SELECT sum(b) AS s, max(f) AS m FROM t"))[0]
        assert type(total) is int and (total, top) == (1, 1.0)
        assert e.groupby_paths == {"row": 1, "stream_degraded": 1}

    def test_a_nan_that_opens_a_later_batch_does_not_stop_max(self):
        """The row fold compares each value with the running MAX, so a NaN
        met after 0.0 changes nothing and 1.0 still wins."""
        e = _aggregate_table([(0, 0.0, 1, "a")] * 7 + [(0, float("nan"), 2**62, "a"), (0, 1.0, 1, "a")])
        for sql in ("SELECT max(f) AS hf FROM t", "SELECT g, max(f) AS hf FROM t GROUP BY g"):
            for batch_rows in (7, DEFAULT_BATCH_ROWS):
                e._batch_executor._batch_rows = batch_rows
                assert values_of(e.execute(sql))[0][-1] == 1.0, (sql, batch_rows)

    def test_a_degraded_global_aggregate_keeps_the_rows_it_consumed(self):
        """The second batch's NaN and 2**62 hand the fold to the row
        accumulators, seeded with the first batch's seven rows."""
        e = _aggregate_table([(0, 0.0, 1, "a")] * 7 + [(0, float("nan"), 2**62, "a"), (0, 1.0, 1, "a")])
        e._batch_executor._batch_rows = 7
        result = e.execute("SELECT max(f) AS hf, count(*) AS n, sum(i) AS si FROM t")
        assert values_of(result) == [(1.0, 9, 2**62 + 8)]
        assert e.groupby_paths == {"stream_degraded": 1}

    def test_a_global_aggregate_over_no_rows_is_one_row(self):
        e = make_engine()
        result = e.execute(
            "SELECT count(*) AS n, count(value) AS c, sum(value) AS s, avg(flag) AS a, "
            "min(value) AS lo, max(flag) AS hi FROM events WHERE id < 0"
        )
        assert values_of(result) == [(0, 0, None, None, None, None)]
        assert e.groupby_paths == {"stream": 1}

    def test_global_min_max_over_text_runs_on_the_row_fold(self, assert_matches_reference):
        e = make_engine(batch_rows=7)
        assert_matches_reference(e, "SELECT min(grp) AS lo, max(note) AS hi FROM events")
        assert e.groupby_paths == {"row": 1}


def _encoded_like_a_dict(encoder: IncrementalGroupEncoder, batches: list) -> None:
    """Feed ``batches`` (each a list of key columns) to ``encoder`` and check
    it numbers keys as a dict of key tuples does: by first appearance, with
    Python equality, stable across batches.  Before and after each batch,
    ``lookup`` of it answers the dict's codes — -1 for a key not met yet, an
    unseen value or a NULL before any NULL was encoded — and adds nothing."""
    model: dict[tuple, int] = {}
    for columns in batches:
        keys = list(zip(*(list(column) for column in columns)))
        assert encoder.lookup(columns).tolist() == [model.get(key, -1) for key in keys]
        assert encoder.group_count == len(model)
        expected, firsts = [], []
        for row, key in enumerate(keys):
            if key not in model:
                model[key] = len(model)
                firsts.append(row)
            expected.append(model[key])
        codes, new_first_rows = encoder.encode_batch(columns)
        assert codes.tolist() == expected
        assert new_first_rows.tolist() == firsts
        assert encoder.group_count == len(model)
        assert encoder.lookup(columns).tolist() == expected
        assert encoder.group_count == len(model)


_ENCODER_KINDS = {
    "int": (DataType.INTEGER, st.none() | st.integers(-3, 3) | st.sampled_from([2**63, -(2**64)])),
    "float": (DataType.FLOAT, st.none() | _GROUP_FLOATS | st.sampled_from([math.inf, -math.inf])),
    "bool": (DataType.BOOLEAN, st.none() | st.booleans()),
    "text": (DataType.TEXT, st.none() | st.sampled_from(["a", "b", "", "é"])),
    "time": (DataType.TIMESTAMP, st.none() | st.integers(0, 2).map(lambda h: _T0 + timedelta(hours=h))),
}


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_group_encoder_numbers_keys_like_a_dict(data):
    """Every column kind — typed vectors, object arrays, plain lists, a new
    TEXT dictionary per batch — and kind changes mid-stream (an INTEGER
    column meeting a value past int64) keep one numbering."""
    kinds = data.draw(st.lists(st.sampled_from(sorted(_ENCODER_KINDS)), min_size=1, max_size=3))
    encoder = IncrementalGroupEncoder([_ENCODER_KINDS[kind][0] for kind in kinds])
    batches = []
    for _ in range(data.draw(st.integers(1, 5))):
        rows = data.draw(
            st.lists(st.tuples(*(_ENCODER_KINDS[kind][1] for kind in kinds)), min_size=1, max_size=9)
        )
        columns = []
        for kind, values in zip(kinds, zip(*rows)):
            values = list(values)
            typed = data.draw(st.booleans())
            columns.append(vector_from_values(values, _ENCODER_KINDS[kind][0]) if typed else values)
        batches.append(columns)
    _encoded_like_a_dict(encoder, batches)


class TestIncrementalGroupEncoder:
    def test_wide_key_products_leave_the_direct_table(self):
        """Past the direct-address limit the groups sit in a dict of packed
        keys, and the codes do not change."""
        side = 300  # 300 x 300 packed slots > _DIRECT_GROUP_SLOTS
        first = [list(range(side)), [f"k{i}" for i in range(side)]]
        second = [list(range(side - 5, 2 * side)), [f"k{i}" for i in range(side - 5, 2 * side)]]
        encoder = IncrementalGroupEncoder([DataType.INTEGER, DataType.TEXT])
        _encoded_like_a_dict(encoder, [first, second, first])
        assert encoder._direct is None and not encoder._tuples

    def test_radix_products_past_int64_fall_back_to_code_tuples(self):
        width, distinct = 7, 512  # 512 ** 7 = 2 ** 63 packed slots
        base = [[(row * (c + 1)) % distinct for row in range(distinct)] for c in range(width)]
        encoder = IncrementalGroupEncoder([DataType.INTEGER] * width)
        late = [column[:3] + [distinct + c] for c, column in enumerate(base)]
        _encoded_like_a_dict(encoder, [base, late, base])
        assert encoder._tuples

    @pytest.mark.parametrize("dtype", [DataType.FLOAT, DataType.INTEGER])
    def test_high_cardinality_column_moves_to_a_dict(self, dtype):
        """A numeric key column whose sorted table passes the direct-address
        limit converts it to a dict once, keeping every code (NULL's too)."""
        distinct = _DIRECT_GROUP_SLOTS + 100
        values = [v * 1000 if dtype is DataType.INTEGER else v / 8 for v in range(distinct)]
        halves = [values[: distinct // 2] + [None], values[distinct // 2 :]]
        batches = [[vector_from_values(half, dtype)] for half in halves]
        zero = -0.0 if dtype is DataType.FLOAT else 0
        batches.append([vector_from_values([None, values[1], zero, 7], dtype)])
        encoder = IncrementalGroupEncoder([dtype])
        _encoded_like_a_dict(encoder, batches)
        assert encoder._columns[0]._mapping is not None

    def test_python_work_does_not_grow_with_keys(self):
        """One 4,096-row (INTEGER, dictionary TEXT) batch makes about as many
        Python-level calls with 4,096 distinct keys as with 8 — encoded, and
        probed through ``lookup`` with a second TEXT dictionary."""
        rows = np.arange(4096)
        dictionary = np.array([f"t{i}" for i in range(8)] + [None], dtype=object)
        text = DictVector((rows % 8).astype(np.int32), dictionary)
        probe_text = DictVector(
            (7 - rows % 8).astype(np.int32), np.array([*dictionary[7::-1], None], dtype=object)
        )

        def profiled_calls(distinct: int) -> tuple[int, int]:
            encoder = IncrementalGroupEncoder([DataType.INTEGER, DataType.TEXT])
            ints = NumericVector(rows % distinct)
            calls = 0

            def profile(frame, event, arg):
                nonlocal calls
                calls += event in ("call", "c_call")

            def profiled(fn, *args):
                nonlocal calls
                calls = 0
                sys.setprofile(profile)
                try:
                    result = fn(*args)
                finally:
                    sys.setprofile(None)
                return result, calls

            (codes, _firsts), encode_calls = profiled(encoder.encode_batch, [ints, text])
            probed, lookup_calls = profiled(encoder.lookup, [ints, probe_text])
            assert encoder.group_count == distinct
            assert probed.tolist() == codes.tolist()
            return encode_calls, lookup_calls

        (few, few_probe), (many, many_probe) = profiled_calls(8), profiled_calls(4096)
        assert many <= 2 * few, (few, many)
        assert many_probe <= 2 * few_probe, (few_probe, many_probe)


class TestConcurrentJoinProbes:
    def test_threads_probing_one_table_match_a_serial_probe(self):
        """Eight threads probe one hash table — INTEGER keys beside TEXT keys
        out of the build's dictionary, a second dictionary and plain lists —
        with a 10 us switch interval, while the lookups cache what they
        derive from each dictionary: every result equals a serial probe's."""
        rng = np.random.default_rng(5)
        words = np.array([f"w{i}" for i in range(40)] + [None], dtype=object)
        other = np.array([*words[39::-1], "x", None], dtype=object)  # reversed, plus one more
        build_schema = Schema([Column("k", DataType.INTEGER), Column("s", DataType.TEXT)])
        probe_schema = Schema([Column("pk", DataType.INTEGER), Column("ps", DataType.TEXT)])
        spec = JoinSpec(
            joined_schema=build_schema.concat(probe_schema),
            build_schema=build_schema,
            probe_schema=probe_schema,
            build_key_idx=[0, 1],
            probe_key_idx=[0, 1],
            residual=None,
            build_on_left=True,
            pad_probe=True,
            track_build=False,
        )
        n = 3000
        build = ColumnBatch(
            build_schema,
            [
                NumericVector(rng.integers(0, 50, n), rng.random(n) < 0.05),
                DictVector(rng.integers(-1, 40, n).astype(np.int32), words),
            ],
            n,
        )
        probes = []
        for i in range(24):
            ints = NumericVector(rng.integers(0, 60, 512), rng.random(512) < 0.05)
            dictionary = (words, other)[i % 2]
            text = DictVector(rng.integers(-1, len(dictionary) - 1, 512).astype(np.int32), dictionary)
            if i % 3 == 2:
                ints, text = to_list(ints), to_list(text)
            probes.append(ColumnBatch(probe_schema, [ints, text], 512))

        def outcome(table: HashJoinTable, batch: ColumnBatch) -> tuple:
            build_rows, probe_rows, joined = table.probe(batch)
            return build_rows.tolist(), probe_rows.tolist(), [to_list(c) for c in joined.columns]

        serial_table = HashJoinTable(spec, build)
        expected = [outcome(serial_table, batch) for batch in probes]
        assert sum(len(rows) for rows, _, _ in expected) > 1000
        table = HashJoinTable(spec, build)
        start = threading.Barrier(8)
        results: dict[int, list] = {}

        def probe_all(worker: int) -> None:
            start.wait()
            order = list(range(len(probes)))[worker % 3 :] + list(range(len(probes)))[: worker % 3]
            results[worker] = [(i, outcome(table, probes[i])) for i in order * 3]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=probe_all, args=(w,)) for w in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finally:
            sys.setswitchinterval(interval)
        assert sorted(results) == list(range(8))
        for got in results.values():
            for i, result in got:
                assert result == expected[i]


class TestDistinctParity:
    """DISTINCT is a group-by with no aggregates over the output columns;
    each shape here is one the encoder must not merge or split."""

    @staticmethod
    def engine(ddl: str, rows: list, batch_rows: int = 2) -> RelationalEngine:
        e = RelationalEngine("d")
        e.parallelism = 1
        e._batch_executor._batch_rows = batch_rows
        e.execute(ddl)
        e.insert_rows("t", rows)
        return e

    def test_every_nan_row_is_kept(self, assert_matches_reference):
        nan = float("nan")
        e = self.engine(
            "CREATE TABLE t (f FLOAT, g INTEGER)",
            [(nan, 1), (1.0, 1), (nan, 1), (1.0, 1), (None, 1), (None, 1), (nan, 2)],
        )
        result = assert_matches_reference(e, "SELECT DISTINCT f, g FROM t")
        assert [str(v) for row in result.rows for v in row.values] == [
            "nan", "1", "1.0", "1", "nan", "1", "None", "1", "nan", "2"]

    @pytest.mark.parametrize("zeros", [(-0.0, 0.0), (0.0, -0.0)])
    def test_signed_zeros_collapse_to_the_first(self, assert_matches_reference, zeros):
        first, second = zeros
        e = self.engine("CREATE TABLE t (f FLOAT)", [(first,), (second,), (1.5,), (second,)])
        result = assert_matches_reference(e, "SELECT DISTINCT f FROM t")
        assert [str(row.values[0]) for row in result.rows] == [str(first), "1.5"]

    def test_text_through_two_dictionaries_collapses(self, assert_matches_reference, monkeypatch):
        """Each scan batch's TEXT column gets a dictionary of its own, in its
        own first-appearance order."""
        e = self.engine(
            "CREATE TABLE t (s TEXT, k INTEGER)",
            [("b", 1), ("a", 1), (None, 1), ("a", 1), ("b", 1), ("c", 1), (None, 1), ("a", 2)],
            batch_rows=3,
        )
        sliced = DictVector.__getitem__
        dictionaries = []

        def fresh_dictionary(self, key):
            part = sliced(self, key)
            if isinstance(key, slice):
                part = vector_from_values(part.tolist(), DataType.TEXT)
                dictionaries.append(part.dictionary)
            return part

        monkeypatch.setattr(DictVector, "__getitem__", fresh_dictionary)
        result = assert_matches_reference(e, "SELECT DISTINCT s, k FROM t")
        assert values_of(result) == [("b", 1), ("a", 1), (None, 1), ("c", 1), ("a", 2)]
        assert len(dictionaries) >= 3

    def test_integers_past_int64_stay_distinct(self, assert_matches_reference):
        big = 2**70
        e = self.engine("CREATE TABLE t (k INTEGER)", [(5,), (big,), (big + 1,), (5,), (big,)])
        result = assert_matches_reference(e, "SELECT DISTINCT k FROM t")
        assert values_of(result) == [(5,), (big,), (big + 1,)]

    def test_computed_items(self, assert_matches_reference):
        e = self.engine(
            "CREATE TABLE t (k INTEGER, s TEXT)",
            [(1, "a"), (4, "a"), (2, None), (1, "a"), (None, "b"), (7, "a")],
        )
        result = assert_matches_reference(e, "SELECT DISTINCT k + 1 AS k1 FROM t")
        assert values_of(result) == [(2,), (5,), (3,), (None,), (8,)]
        result = assert_matches_reference(e, "SELECT DISTINCT k % 3 AS m, s FROM t")
        assert values_of(result) == [(1, "a"), (2, None), (None, "b")]

    def test_keys_typed_by_their_first_value_keep_their_values(self, assert_matches_reference):
        """A computed column is typed by its first value (here INTEGER) and
        may hold others: DISTINCT, GROUP BY and a join key it feeds compare
        the values it holds — 0.5 and 0.75 are neither one key nor 0."""
        e = self.engine("CREATE TABLE t (k INTEGER)", [(1,), (2,), (3,), (1,)])
        e.execute("CREATE TABLE z (k INTEGER)")
        e.insert_rows("z", [(0,), (1,)])
        x = "(SELECT CASE WHEN k = 1 THEN 1 ELSE k / 4.0 END AS x FROM t) a"
        result = assert_matches_reference(e, f"SELECT DISTINCT x FROM {x}")
        assert values_of(result) == [(1,), (0.5,), (0.75,)]
        result = assert_matches_reference(e, f"SELECT x, count(*) AS n FROM {x} GROUP BY x")
        assert values_of(result) == [(1, 2), (0.5, 1), (0.75, 1)]
        result = assert_matches_reference(e, f"SELECT a.x, z.k FROM {x} JOIN z ON a.x = z.k")
        assert values_of(result) == [(1, 1), (1, 1)]


class TestAggregateOutputTypes:
    """An aggregate's output column has the type its values have: count is
    INTEGER, avg FLOAT, sum INTEGER over INTEGER/BOOLEAN and FLOAT
    otherwise, min/max the argument's type."""

    @pytest.fixture
    def bigdawg(self):
        from repro.core.bigdawg import BigDawg

        bigdawg = BigDawg()
        engine = RelationalEngine("postgres")
        bigdawg.add_engine(engine, islands=["relational"])
        engine.execute("CREATE TABLE t (g INTEGER, s TEXT, v INTEGER, f FLOAT, b BOOLEAN)")
        engine.insert_rows(
            "t", [(i % 3, f"s{i}", i, i / 4, i % 2 == 0) for i in range(10)]
        )
        bigdawg.catalog.register_object("t", "postgres", "table", replace=True)
        return bigdawg

    QUERY = (
        "SELECT g, max(s) AS ms, min(f) AS lf, sum(v) AS sv, sum(f) AS sf, sum(b) AS sb, "
        "avg(v) AS av, count(*) AS n FROM t GROUP BY g"
    )

    def test_schema_follows_the_values(self, bigdawg, assert_matches_reference):
        engine = bigdawg.engine("postgres")
        result = assert_matches_reference(engine, self.QUERY)
        assert [c.dtype for c in result.schema] == [
            DataType.INTEGER, DataType.TEXT, DataType.FLOAT, DataType.INTEGER,
            DataType.FLOAT, DataType.INTEGER, DataType.FLOAT, DataType.INTEGER,
        ]
        assert values_of(result)[0][:4] == (0, "s9", 0.0, 18)
        having = "SELECT g, count(*) AS n FROM t GROUP BY g HAVING max(s) > 's7' AND sum(v) > 12"
        assert values_of(assert_matches_reference(engine, having)) == [(0, 4), (2, 3)]

    def test_with_binding_keeps_the_values(self, bigdawg):
        direct = values_of(bigdawg.execute(f"RELATIONAL({self.QUERY})"))
        bound = bigdawg.execute(f"WITH x = RELATIONAL({self.QUERY}) RELATIONAL(SELECT * FROM x)")
        assert values_of(bound) == direct
        assert [type(v) for v in values_of(bound)[0][:4]] == [int, str, float, int]

    def test_codec_round_trip_keeps_the_values(self, bigdawg):
        result = bigdawg.engine("postgres").execute(self.QUERY)
        codec = BinaryCodec()
        decoded = codec.decode(codec.encode(result), result.schema)
        assert values_of(decoded) == values_of(result)
        assert [type(v) for v in values_of(decoded)[0]] == [int, str, float, int, float, int, float, int]


@pytest.mark.parametrize("column", [
    [1, 0.5, 0.75],
    [1, None, 2.5],
    np.array([1, 0.5, None], dtype=object),
    np.array([0.25, 1.0]),
    NumericVector(np.array([1.0, 0.5])),
], ids=["list", "list-with-null", "object-array", "float-array", "float-vector"])
def test_numeric_view_never_truncates_floats_into_integers(column):
    """A float column asked for as int64 raises, so the filter kernel and
    the aggregates fall back to the row path instead of reading 0.5 as 0."""
    with pytest.raises(TypeError):
        numeric_view(column, np.int64)
    values, _nulls = numeric_view(column, np.float64)
    assert any(value % 1 for value in values.tolist())  # the fractions survive


def test_numeric_view_packs_integers_and_refuses_ones_past_int64():
    values, nulls = numeric_view([3, None, True], np.int64)
    assert values.tolist() == [3, 0, 1] and nulls.tolist() == [False, True, False]
    for column in ([2 ** 63], [-1, 2 ** 63], [2 ** 70, 1]):
        with pytest.raises(OverflowError):
            numeric_view(column, np.int64)
