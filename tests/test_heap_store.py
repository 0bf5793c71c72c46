"""HeapTable as one append-only column store: every mutator against a plain
Python model, compaction, and what the store holds in memory.

The sqlite suite (``test_sql_oracle.py``) checks the store through SQL;
this one drives the table API directly, where SQL does not reach: typed
``insert_columns`` chunks, integers beyond int64, NaN, truncate, and
compaction, whose threshold is lowered here so that small tables compact.
"""

from __future__ import annotations

import sys
import threading
import time
import tracemalloc
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import ConstraintViolationError
from repro.common.schema import Schema
from repro.common.types import DataType
from repro.common.vectors import vector_from_values
from repro.engines.relational import HeapTable, RelationalEngine
from repro.engines.relational import storage

SCHEMA = Schema([("id", "integer", False), ("n", "integer"), ("f", "float"), ("s", "text")])
_TYPES = [DataType.INTEGER, DataType.INTEGER, DataType.FLOAT, DataType.TEXT]


def _comparable(values):
    """NaN == NaN, for comparing states."""
    return tuple("NaN" if v != v else v for v in values)


def _count_compactions(table: HeapTable) -> list[int]:
    """Patch ``table`` so every compaction appends to the returned list."""
    calls: list[int] = []
    settle = table._settle

    def counting() -> None:
        before = table._length
        settle()
        if table._length < before:
            calls.append(before - table._length)

    table._settle = counting
    return calls


def assert_matches_model(table: HeapTable, model: dict[int, tuple]) -> None:
    """Scan order, snapshot columns, point reads and both indexes agree
    with ``model`` (row id -> values, in position order)."""
    expected = [(row_id, _comparable(values)) for row_id, values in model.items()]
    assert [(row_id, _comparable(v)) for row_id, v in table.scan()] == expected
    assert len(table) == len(model)
    snapshot = table.column_snapshot()
    for i in range(len(SCHEMA)):
        assert list(map(_comparable, zip(snapshot.column(i).tolist()))) == [
            _comparable((values[i],)) for values in model.values()]
    for row_id, values in model.items():
        assert _comparable(table.get(row_id)) == _comparable(values)
        assert [(rid, _comparable(v)) for rid, v in table.index_lookup("__pk__", values[0])] == [
            (row_id, _comparable(values))]
    for key in {values[1] for values in model.values()} | {0}:
        assert sorted(rid for rid, _v in table.index_lookup("idx_n", key)) == sorted(
            rid for rid, values in model.items() if values[1] == key and key is not None)


_N = st.one_of(st.none(), st.integers(-3, 3), st.sampled_from([2**70, -(2**65)]))
_F = st.one_of(st.none(), st.sampled_from([0.0, -1.5, 2.5, float("nan")]))
_S = st.one_of(st.none(), st.sampled_from(["a", "b", "cc"]))
_ROWS = st.lists(st.tuples(st.integers(0, 25), _N, _F, _S), min_size=1, max_size=4)
_OPS = st.lists(st.one_of(
    st.tuples(st.just("insert"), _ROWS),
    st.tuples(st.just("columns"), _ROWS, st.booleans()),
    st.tuples(st.just("update"), st.integers(0, 99), st.tuples(st.integers(0, 25), _N, _F, _S)),
    st.tuples(st.just("delete"), st.integers(0, 99)),
    st.tuples(st.just("truncate")),
), max_size=25)


@settings(max_examples=150, deadline=None)
@given(ops=_OPS)
def test_every_mutator_matches_a_list_model(ops):
    """INSERT appends, UPDATE moves a row last, DELETE and truncate remove:
    after every call the table equals the model, through typed and untyped
    bulk loads, integers that promote a column past int64, NaN, failed
    writes and compactions (the threshold lowered to 2 dead positions)."""
    table = HeapTable("t", SCHEMA, primary_key=("id",))
    table.create_index("idx_n", ["n"])
    model: dict[int, tuple] = {}
    with mock.patch.object(storage, "COMPACT_MIN_DEAD", 2):
        for op in ops:
            try:
                if op[0] == "insert":
                    ids = table.insert_many(op[1])
                    model.update(zip(ids, map(tuple, op[1])))
                elif op[0] == "columns":
                    columns = [list(c) for c in zip(*op[1])]
                    if op[2]:
                        columns = [vector_from_values(c, t) for c, t in zip(columns, _TYPES)]
                    before = table._next_row_id
                    table.insert_columns(columns)
                    model.update(zip(range(before, table._next_row_id), map(tuple, op[1])))
                elif op[0] == "update" and model:
                    row_id = list(model)[op[1] % len(model)]
                    table.update(row_id, op[2])
                    del model[row_id]
                    model[row_id] = tuple(op[2])
                elif op[0] == "delete" and model:
                    row_id = list(model)[op[1] % len(model)]
                    table.delete(row_id)
                    del model[row_id]
                elif op[0] == "truncate":
                    table.truncate()
                    model.clear()
            except ConstraintViolationError:
                pass   # a taken key: nothing moved, as the model says
            assert_matches_model(table, model)


def _fact_like(rows: int) -> HeapTable:
    table = HeapTable("t", Schema([("id", "integer", False), ("v", "integer"), ("name", "text")]),
                      primary_key=("id",))
    table.create_index("idx_v", ["v"])
    table.insert_many([(i, i % 10, f"n{i}") for i in range(rows)])
    return table


def test_compaction_keeps_row_ids_indexes_and_scan_order():
    table = _fact_like(1500)
    compactions = _count_compactions(table)
    model = {row_id: values for row_id, values in table.scan()}
    for round_ in range(3):
        for row_id, (i, v, name) in list(model.items()):
            table.update(row_id, (i, (v + 1) % 10, name))
            del model[row_id]
            model[row_id] = (i, (v + 1) % 10, name)
    assert compactions, "2 x 1500 dead positions over 1500 live must compact"
    assert list(table.scan()) == list(model.items())
    for v in range(10):
        assert sorted(table.index_lookup("idx_v", v)) == sorted(
            (row_id, values) for row_id, values in model.items() if values[1] == v)


def test_select_and_index_reads_after_a_compaction():
    engine = RelationalEngine()
    engine.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER, name TEXT)")
    engine.execute("CREATE INDEX idx_v ON t (v)")
    engine.insert_rows("t", [(i, i % 10, f"n{i}") for i in range(1200)])
    compactions = _count_compactions(engine.table("t"))
    model = {i: (i, i % 10, f"n{i}") for i in range(1200)}
    engine.execute("DELETE FROM t WHERE id >= 100")          # 1100 dead over 100 live
    for i in range(100, 1200):
        del model[i]
    engine.execute("UPDATE t SET name = 'x' WHERE v = 3")
    model.update({i: (i, 3, "x") for i in model if i % 10 == 3})
    assert compactions
    rows = sorted(row.values for row in engine.execute("SELECT * FROM t").rows)
    assert rows == sorted(model.values())
    for v in range(10):
        got = sorted(row.values for row in engine.execute(f"SELECT * FROM t WHERE v = {v}").rows)
        assert got == sorted(values for values in model.values() if values[1] == v)
    assert "IndexScan" in engine.explain("SELECT * FROM t WHERE v = 3")


def test_rollback_across_a_compaction():
    engine = RelationalEngine()
    engine.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)")
    engine.execute("CREATE INDEX idx_v ON t (v)")
    engine.insert_rows("t", [(i, i % 7) for i in range(1500)])
    before = sorted(row.values for row in engine.execute("SELECT * FROM t").rows)
    compactions = _count_compactions(engine.table("t"))
    try:
        with engine.begin():
            engine.execute("UPDATE t SET v = v + 1")
            engine.execute("UPDATE t SET v = v + 1")     # 3000 dead over 1500 live
            engine.execute("DELETE FROM t WHERE id < 10")
            engine.execute("INSERT INTO t VALUES (5000, 1)")
            raise RuntimeError("abort")
    except RuntimeError:
        pass
    assert compactions
    assert sorted(row.values for row in engine.execute("SELECT * FROM t").rows) == before
    for v in range(7):
        got = sorted(row.values for row in engine.execute(f"SELECT * FROM t WHERE v = {v}").rows)
        assert got == [values for values in before if values[1] == v]


def test_scans_race_compactions():
    """A writer rewrites every row round after round, compacting as it
    goes; scanners take snapshots meanwhile: each one holds every id once,
    with the name that id was written with."""
    rows = 2000
    table = _fact_like(rows)
    compactions = _count_compactions(table)
    errors: list[BaseException] = []
    done = threading.Event()

    def write() -> None:
        try:
            for round_ in range(1, 5):
                for row_id, (i, _v, _name) in list(table.scan()):
                    table.update(row_id, (i, round_, f"n{i}"))
        except BaseException as exc:  # noqa: BLE001 - reported by the assert below
            errors.append(exc)
        finally:
            done.set()

    def scan() -> None:
        try:
            while not done.is_set():
                snapshot = table.column_snapshot()
                ids = snapshot.column(0).tolist()
                time.sleep(0)
                assert sorted(ids) == list(range(rows))
                assert snapshot.column(2).tolist() == [f"n{i}" for i in ids]
                assert set(snapshot.column(1).tolist()) <= set(range(10))
        except BaseException as exc:  # noqa: BLE001 - reported by the assert below
            errors.append(exc)

    threads = [threading.Thread(target=write)] + [threading.Thread(target=scan) for _ in range(2)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        done.set()
        sys.setswitchinterval(interval)
    assert errors == [] and not any(thread.is_alive() for thread in threads)
    assert len(compactions) >= 2
    assert sorted(values for _rid, values in table.scan()) == [
        (i, 4, f"n{i}") for i in range(rows)]


def test_updates_keep_the_table_under_twice_its_live_rows():
    table = _fact_like(2000)
    for step in range(10_000):
        row_id = (step * 7919) % 2000
        table.update(row_id, (row_id, step % 10, f"n{row_id}"))
        assert table._length <= 2 * len(table)
    assert len(table) == 2000


def test_insert_delete_churn_holds_buffers_to_the_live_rows():
    """Live rows stay at 100 while 10k rows pass through: the column buffers
    stay bounded by live rows plus the compaction threshold.  The row id ->
    position map is the one array that grows with every INSERT, 8 bytes
    per row id issued."""
    table = _fact_like(100)
    oldest = 0
    for i in range(100, 10_100):
        table.insert((i, i % 10, f"n{i}"))
        table.delete(oldest)
        oldest += 1
    assert len(table) == 100
    bound = 2 * (len(table) + storage.COMPACT_MIN_DEAD + 1)
    for column in table._columns:
        buffer = column.codes if hasattr(column, "codes") else column.values
        assert len(buffer) <= bound
    assert len(table._row_ids) <= bound and len(table._live) <= bound
    assert table._position.nbytes <= 2 * 8 * table._next_row_id


def test_a_fact_table_holds_less_than_half_of_rows_plus_packed_columns():
    """24k rows of polybench's ``fact`` schema, with every column taken by
    a scan.  The row dict plus the packed snapshot this store replaced held
    5.8 MB (CPython 3.11, numpy buffers); the buffers hold about 2 MB, and
    a snapshot's columns are views of them."""
    schema = Schema([("id", "integer"), ("grp", "integer"), ("value", "float"),
                     ("flag", "integer"), ("bucket", "integer"), ("region", "text"),
                     ("fk", "integer")])
    rows = [(i, i % 50, i * 0.37 % 100, i % 7, i % 4, f"region_{i % 8}", i * 7919 % 3600)
            for i in range(24_000)]
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        table = HeapTable("fact", schema)
        table.insert_many(rows)
        snapshot = table.column_snapshot()
        columns = [snapshot.column(i) for i in range(len(schema))]
        held = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert len(columns[0]) == 24_000
    assert held < 5.8e6 / 2
