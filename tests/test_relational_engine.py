"""Tests for the relational engine: B-tree, storage, SQL parsing, planning, execution."""

from __future__ import annotations

import sys
import threading
import time
from datetime import datetime

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import (
    ConstraintViolationError,
    ExecutionError,
    ObjectNotFoundError,
    ParseError,
    SchemaError,
    TypeMismatchError,
)
from repro.common.expressions import compile_predicate
from repro.common.schema import Schema
from repro.common.vectors import DictVector, NumericVector, to_list
from repro.engines.base import EngineCapability
from repro.engines.relational import BTreeIndex, HeapTable, RelationalEngine
from repro.engines.relational.schemas import qualified_schema
from repro.engines.relational.sql.ast import SelectStatement
from repro.engines.relational.sql.lexer import tokenize
from repro.engines.relational.sql.parser import parse_expression, parse_sql


# --------------------------------------------------------------------------- B-tree
class TestBTree:
    def test_insert_and_search(self):
        tree = BTreeIndex(order=4)
        for i in range(100):
            tree.insert((i % 10,), i)
        assert sorted(tree.search((3,))) == [3, 13, 23, 33, 43, 53, 63, 73, 83, 93]
        assert tree.search((99,)) == []

    def test_range_scan_ordered(self):
        tree = BTreeIndex(order=4)
        for i in range(200, 0, -1):
            tree.insert((i,), i)
        keys = [k[0] for k, _ in tree.range_scan((50,), (60,))]
        assert keys == list(range(50, 61))
        open_low = [k[0] for k, _ in tree.range_scan(None, (5,))]
        assert open_low == [1, 2, 3, 4, 5]

    def test_range_scan_exclusive_bounds(self):
        tree = BTreeIndex()
        for i in range(10):
            tree.insert((i,), i)
        keys = [k[0] for k, _ in tree.range_scan((2,), (5,), include_low=False, include_high=False)]
        assert keys == [3, 4]

    def test_unique_index_rejects_duplicates(self):
        tree = BTreeIndex(unique=True)
        tree.insert(("a",), 1)
        with pytest.raises(ValueError):
            tree.insert(("a",), 2)

    def test_delete(self):
        tree = BTreeIndex(order=4)
        for i in range(50):
            tree.insert((i,), i)
        assert tree.delete((10,), 10) is True
        assert tree.delete((10,), 10) is False
        assert tree.search((10,)) == []
        assert len(tree) == 49

    def test_height_grows_with_size(self):
        tree = BTreeIndex(order=4)
        assert tree.height() == 1
        for i in range(500):
            tree.insert((i,), i)
        assert tree.height() >= 3
        # Every key is still reachable in order.
        assert [k[0] for k in tree.keys()] == list(range(500))

    def test_order_too_small_rejected(self):
        with pytest.raises(ValueError):
            BTreeIndex(order=2)

    def test_keys_with_null_or_nan_are_not_stored(self):
        tree = BTreeIndex(order=4)
        for i in range(20):
            tree.insert((i,), i)
        for key in ((None,), (float("nan"),), (3, None)):
            tree.insert(key, 99)
            assert tree.search(key) == []
            assert tree.delete(key, 99) is False
        assert len(tree) == 20
        assert [k[0] for k in tree.keys()] == list(range(20))


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(-1000, 1000), min_size=1, max_size=300))
def test_btree_property_sorted_iteration(values):
    """Property: iterating a B+tree yields keys in sorted order, all values present."""
    tree = BTreeIndex(order=8)
    for i, value in enumerate(values):
        tree.insert((value,), i)
    scanned = [key[0] for key, _ in tree.items()]
    assert scanned == sorted(scanned)
    assert len(list(tree.items())) == len(values)


# --------------------------------------------------------------------------- storage
def snapshot_columns(table: HeapTable) -> list[list]:
    """Every column of a fresh snapshot, as native values."""
    snapshot = table.column_snapshot()
    return [snapshot.column(i).tolist() for i in range(len(table.schema))]


class TestHeapTable:
    def make_table(self) -> HeapTable:
        schema = Schema([("id", "integer", False), ("name", "text"), ("score", "float")])
        return HeapTable("t", schema, primary_key=("id",))

    def test_insert_get_update_delete(self):
        table = self.make_table()
        rid = table.insert([1, "a", 1.5])
        assert table.get(rid) == (1, "a", 1.5)
        table.update(rid, [1, "b", 2.5])
        assert table.get(rid)[1] == "b"
        table.delete(rid)
        with pytest.raises(ObjectNotFoundError):
            table.get(rid)

    def test_primary_key_enforced(self):
        table = self.make_table()
        table.insert([1, "a", 1.0])
        with pytest.raises(ConstraintViolationError):
            table.insert([1, "b", 2.0])

    def test_primary_key_refuses_null_on_a_nullable_column(self):
        """A table built through the API may leave its key column nullable;
        a NULL key is still refused, on insert and on update, with nothing
        stored."""
        table = HeapTable("t", Schema([("id", "integer"), ("name", "text")]), primary_key=("id",))
        with pytest.raises(ConstraintViolationError, match="NULL in primary key"):
            table.insert([None, "a"])
        rid = table.insert([1, "a"])
        with pytest.raises(ConstraintViolationError, match="NULL in primary key"):
            table.insert_many([[2, "b"], [None, "c"]])
        with pytest.raises(ConstraintViolationError, match="NULL in primary key"):
            table.update(rid, [None, "a"])
        assert list(table.scan()) == [(rid, (1, "a"))]
        assert table.index_lookup("__pk__", 1) == [(rid, (1, "a"))]

    def test_writes_from_an_overtaken_read_change_nothing(self):
        table = self.make_table()
        first, second = table.insert_many([[1, "a", 1.0], [2, "b", 2.0]])
        read = [table.get(first), table.get(second)]
        table.update(second, [2, "b", 9.0])   # another write gets in between
        assert table.update_many([(first, [1, "x", 1.0]), (second, [2, "x", 2.0])],
                                 expected=read) is None
        assert table.delete_many([first, second], expected=read) is None
        assert [values for _rid, values in table.scan()] == [(1, "a", 1.0), (2, "b", 9.0)]
        table.delete(first)   # a row deleted since the read is skipped, not a conflict
        assert table.update_many([(first, [1, "x", 1.0]), (second, [2, "x", 9.0])],
                                 expected=[read[0], table.get(second)]) == [(second, (2, "b", 9.0))]

    def test_secondary_index_lookup_and_range(self):
        table = self.make_table()
        table.insert_many([[i, f"n{i}", float(i % 5)] for i in range(1, 51)])
        table.create_index("idx_score", ["score"])
        hits = table.index_lookup("idx_score", 3.0)
        assert all(values[2] == 3.0 for _rid, values in hits)
        ranged = list(table.index_range("idx_score", low=1.0, high=2.0))
        assert all(1.0 <= values[2] <= 2.0 for _rid, values in ranged)

    def test_index_maintained_on_update_and_delete(self):
        table = self.make_table()
        rid = table.insert([1, "a", 5.0])
        table.create_index("idx_score", ["score"])
        table.update(rid, [1, "a", 9.0])
        assert table.index_lookup("idx_score", 5.0) == []
        assert len(table.index_lookup("idx_score", 9.0)) == 1
        table.delete(rid)
        assert table.index_lookup("idx_score", 9.0) == []

    def test_duplicate_index_and_bad_column(self):
        table = self.make_table()
        table.create_index("idx", ["name"])
        with pytest.raises(SchemaError):
            table.create_index("idx", ["name"])
        table.create_index("idx", ["name"], if_not_exists=True)
        with pytest.raises(SchemaError):
            table.create_index("idx2", ["missing"])

    def test_truncate_keeps_indexes(self):
        table = self.make_table()
        table.insert([1, "a", 1.0])
        table.create_index("idx_name", ["name"])
        table.truncate()
        assert len(table) == 0
        assert "idx_name" in table.indexes()
        table.insert([1, "again", 1.0])   # the emptied indexes accept the old key
        assert len(table.index_lookup("idx_name", "again")) == 1

    def test_insert_columns_matches_row_inserts(self):
        bulk, single = self.make_table(), self.make_table()
        rows = [[i, f"n{i}", float(i % 5)] for i in range(1, 40)]
        bulk.create_index("idx_score", ["score"])
        single.create_index("idx_score", ["score"])
        bulk.insert_columns([list(column) for column in zip(*rows)])
        single.insert_many(rows)
        assert list(bulk.scan()) == list(single.scan())
        assert bulk.index_lookup("idx_score", 3.0) == single.index_lookup("idx_score", 3.0)
        with pytest.raises(ConstraintViolationError):
            bulk.insert_columns([[100, 7], ["x", "y"], [0.0, 0.0]])   # 7 is taken
        assert len(bulk) == len(rows) and bulk.index_lookup("__pk__", 100) == []
        with pytest.raises(TypeMismatchError):
            bulk.insert_columns([[None], ["null id"], [0.0]])   # id is NOT NULL

    def test_truncate_bulk_load_and_index_ddl_race_scans(self):
        """truncate() and drop_index() used to mutate the row dict and the
        index map outside the table lock: racing a load, truncate could swap
        the indexes out from under it (rows landed, index entries lost) or
        die in "dictionary changed size during iteration".  Under the lock,
        whatever interleaving runs, every scan sees whole rows and the
        indexes end up describing exactly the rows that are left."""
        table = self.make_table()
        table.create_index("idx_score", ["score"])
        errors: list[BaseException] = []
        done = threading.Event()
        rounds, chunk = 150, 40

        def guarded(body):
            def run():
                try:
                    body()
                except BaseException as exc:  # noqa: BLE001 - reported by the assert below
                    errors.append(exc)
            return threading.Thread(target=run)

        def load():
            for r in range(rounds):
                ids = list(range(r * chunk, (r + 1) * chunk))
                table.insert_columns([ids, [f"n{i}" for i in ids], [float(i % 5) for i in ids]])
                table.insert([-1 - r, "single", 9.0])

        def truncate():
            for _ in range(rounds):
                table.truncate()

        def index_ddl():
            for _ in range(rounds):
                table.create_index("idx_tmp", ["name"], if_not_exists=True)
                table.drop_index("idx_tmp")

        def scan():
            while not done.is_set():
                snapshot = table.column_snapshot()
                ids = snapshot.column(0)
                time.sleep(0)   # let the writers in between the two columns
                assert len(ids) == len(snapshot.column(2)) == len(snapshot)
                assert ids.tolist() == [values[0] for values in snapshot.scan_values()]
                assert all(len(values) == 3 for _row_id, values in table.scan())

        writers = [guarded(load), guarded(truncate), guarded(index_ddl)]
        scanner = guarded(scan)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in writers + [scanner]:
                thread.start()
            for thread in writers:
                thread.join(timeout=120)
            done.set()
            scanner.join(timeout=120)
            assert not any(thread.is_alive() for thread in writers + [scanner])
        finally:
            done.set()
            sys.setswitchinterval(interval)
        assert errors == []
        rows = dict(table.scan())
        for name in ("__pk__", "idx_score"):
            entries = sorted(row_id for _key, row_id in table._indexes[name][1].items())
            assert entries == sorted(rows), name
        for row_id, values in rows.items():
            assert (row_id, values) in table.index_lookup("__pk__", values[0])


    def test_update_onto_a_taken_unique_key_changes_nothing(self):
        """update() used to delete the old key from every index before the
        unique insert failed: the row stayed in the table but fell out of the
        primary-key index.  The new key is now checked first."""
        table = self.make_table()
        table.insert_many([[i, f"n{i}", float(i)] for i in (1, 2, 3)])
        table.create_index("idx_name", ["name"], unique=True)
        before_rows = list(table.scan())
        before_columns = snapshot_columns(table)
        positions = table._length
        (row_id, _values), = table.index_lookup("__pk__", 2)
        with pytest.raises(ConstraintViolationError, match="primary key"):
            table.update(row_id, [1, "n2", 2.0])
        with pytest.raises(ConstraintViolationError, match="idx_name"):
            table.update(row_id, [2, "n3", 2.0])
        assert list(table.scan()) == before_rows
        assert snapshot_columns(table) == before_columns and table._length == positions
        for found_id, values in before_rows:
            assert table.index_lookup("__pk__", values[0]) == [(found_id, values)]
            assert table.index_lookup("idx_name", values[1]) == [(found_id, values)]
        table.update(row_id, [2, "renamed", 2.5])   # keeping its own key is no conflict
        assert table.index_lookup("__pk__", 2) == [(row_id, (2, "renamed", 2.5))]

    def test_insert_many_lands_all_rows_or_none(self):
        table = self.make_table()
        table.insert([1, "a", 1.0])
        with pytest.raises(ConstraintViolationError):
            table.insert_many([[2, "b", 2.0], [1, "again", 3.0]])      # taken in the table
        with pytest.raises(ConstraintViolationError):
            table.insert_many([[2, "b", 2.0], [2, "twice", 3.0]])      # repeated in the batch
        with pytest.raises(TypeMismatchError):
            table.insert_many([[2, "b", 2.0], [None, "null id", 3.0]])
        assert [values for _rid, values in table.scan()] == [(1, "a", 1.0)]
        assert table.index_lookup("__pk__", 2) == []
        assert len(table.insert_many([[2, "b", 2.0], [3, "c", 3.0]])) == 2


# ----------------------------------------------------------------- column snapshot
class TestColumnSnapshot:
    """HeapTable.column_snapshot(): one table state, packed a column at a time."""

    def make_table(self, rows: int = 0) -> HeapTable:
        schema = Schema([("id", "integer", False), ("name", "text"), ("score", "float")])
        table = HeapTable("t", schema, primary_key=("id",))
        table.insert_many([self.row(i) for i in range(rows)])
        return table

    @staticmethod
    def row(i: int) -> list:
        return [i, f"n{i}", float(i)]

    @staticmethod
    def check_one_state(snapshot) -> list[int]:
        """Pack ``id``, let other threads run, pack the rest: every column
        must describe the same rows."""
        ids = snapshot.column(0).tolist()
        time.sleep(0)
        names, scores = snapshot.column(1).tolist(), snapshot.column(2).tolist()
        assert len(ids) == len(names) == len(scores) == len(snapshot)
        assert names == [f"n{i}" for i in ids] and scores == [float(i) for i in ids]
        return ids

    def test_vector_kinds_and_native_values(self):
        schema = Schema([("i", "integer"), ("f", "float"), ("b", "boolean"), ("s", "text"),
                         ("ts", "timestamp"), ("big", "integer")])
        table = HeapTable("kinds", schema)
        stamp = datetime(2020, 1, 2, 3, 4, 5)
        rows = [(1, 0.5, True, "x", stamp, 2**70), (None, None, None, None, None, None),
                (-3, float("inf"), False, "", stamp, -1), (1, -0.0, True, "x", stamp, 0)]
        table.insert_many(rows)
        snapshot = table.column_snapshot()
        i, f, b, s, ts, big = (snapshot.column(n) for n in range(6))
        assert isinstance(i, NumericVector) and i.values.dtype == np.int64
        assert isinstance(f, NumericVector) and f.values.dtype == np.float64
        assert isinstance(b, NumericVector) and b.values.dtype == np.bool_
        assert i.nulls.tolist() == [False, True, False, False]
        assert isinstance(s, DictVector) and s.codes.dtype == np.int32
        assert s.codes.tolist() == [0, -1, 1, 0] and s.dictionary.tolist() == ["x", "", None]
        assert isinstance(ts, np.ndarray) and ts.dtype == object
        assert isinstance(big, np.ndarray) and big.dtype == object   # beyond int64
        for n in range(6):
            column = snapshot.column(n)
            assert column.tolist() == [row[n] for row in rows]
            assert [column[r] for r in range(4)] == [row[n] for row in rows]
            assert [type(v) for v in column.tolist()] == [type(row[n]) for row in rows]
            assert to_list(column[1:3]) == [row[n] for row in rows[1:3]]
        assert str(f.tolist()[3]) == "-0.0"
        null_free = HeapTable("nf", Schema([("i", "integer")]))
        null_free.insert_many([[1], [2]])
        assert null_free.column_snapshot().column(0).nulls is None

    def test_a_snapshot_taken_before_a_write_reads_its_own_state(self):
        """Every mutator leaves an earlier snapshot as it was, whether its
        columns were made before the write or only after it."""
        table = self.make_table(3)
        first = table.column_snapshot()
        mutations = [
            lambda: table.insert(self.row(10)),
            lambda: table.insert_many([self.row(11), self.row(12)]),
            lambda: table.insert_columns([[13], ["n13"], [13.0]]),
            lambda: table.update(table.index_lookup("__pk__", 10)[0][0], [10, "m10", 10.5]),
            lambda: table.delete(table.index_lookup("__pk__", 11)[0][0]),
            table.truncate,
        ]
        for mutate in mutations:
            early, late = table.column_snapshot(), table.column_snapshot()
            state = [early.column(i).tolist() for i in range(3)]
            rows = list(table.scan_values())
            mutate()
            assert [early.column(i).tolist() for i in range(3)] == state
            assert [late.column(i).tolist() for i in range(3)] == state   # made after the write
            assert list(late.scan_values()) == rows
            after = table.column_snapshot()
            assert after.column(0).tolist() == [values[0] for _rid, values in table.scan()]
        assert first.column(0).tolist() == [0, 1, 2]
        assert first.column(1).tolist() == ["n0", "n1", "n2"]

    def test_snapshots_race_writers(self):
        """Scanners pack one column, yield, then pack the others while
        writers insert, update, delete and truncate: every snapshot is one
        table state, holds every write acknowledged before it was taken and
        none started after, and a snapshot a write overtook is never handed
        out again (the next one would miss an acknowledged write)."""
        table = self.make_table()
        started: list[int] = []     # ids whose insert has begun
        acked: list[int] = []       # ids whose insert has returned
        errors: list[BaseException] = []
        done = threading.Event()

        def guarded(body):
            def run():
                try:
                    body()
                except BaseException as exc:  # noqa: BLE001 - reported by the assert below
                    errors.append(exc)
            return threading.Thread(target=run)

        def insert():
            for i in range(3000):
                started.append(i)
                table.insert(self.row(i))
                acked.append(i)

        def rewrite():
            # Same-valued updates and a delete + re-insert of negative ids:
            # they drop the memo and reshuffle rows without touching the
            # inserter's ids.
            for i in range(1, 1500):
                row_id = table.insert(self.row(-i))
                table.update(row_id, self.row(-i))
                table.delete(row_id)

        def scan():
            while not done.is_set():
                seen = len(acked)
                snapshot = table.column_snapshot()
                begun = len(started)
                ids = {i for i in self.check_one_state(snapshot) if i >= 0}
                assert set(acked[:seen]) <= ids <= set(started[:begun])

        writers = [guarded(insert), guarded(rewrite)]
        scanners = [guarded(scan), guarded(scan)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in writers + scanners:
                thread.start()
            for thread in writers:
                thread.join(timeout=120)
            done.set()
            for thread in scanners:
                thread.join(timeout=120)
            assert not any(thread.is_alive() for thread in writers + scanners)
        finally:
            done.set()
            sys.setswitchinterval(interval)
        assert errors == []
        assert self.check_one_state(table.column_snapshot()) == list(range(3000))
        table.truncate()
        assert len(table.column_snapshot()) == 0


# --------------------------------------------------------------------------- parser
class TestSqlParser:
    def test_select_structure(self):
        stmt = parse_sql(
            "SELECT p.race, count(*) AS n FROM patients p JOIN admissions a ON p.id = a.pid "
            "WHERE p.age > 60 AND a.stay BETWEEN 1 AND 5 GROUP BY p.race HAVING count(*) > 2 "
            "ORDER BY n DESC LIMIT 10 OFFSET 5"
        )
        assert isinstance(stmt, SelectStatement)
        assert stmt.items[1].aggregate == "count"
        assert stmt.from_table.alias == "p"
        assert len(stmt.joins) == 1
        assert stmt.group_by and stmt.having is not None
        assert stmt.order_by[0].descending is True
        assert stmt.limit == 10 and stmt.offset == 5

    def test_select_star_and_distinct(self):
        stmt = parse_sql("SELECT DISTINCT race FROM patients")
        assert stmt.distinct is True
        star = parse_sql("SELECT * FROM patients")
        assert star.items[0].star is True

    def test_subquery_in_from(self):
        stmt = parse_sql("SELECT * FROM (SELECT id FROM patients WHERE age > 60) t WHERE t.id > 1")
        assert stmt.from_table.subquery is not None
        assert stmt.from_table.alias == "t"

    def test_expressions(self):
        stmt = parse_sql(
            "SELECT CASE WHEN age >= 65 THEN 'senior' ELSE 'adult' END AS band, "
            "abs(score) FROM t WHERE name LIKE 'a%' AND id IN (1, 2, 3) AND x IS NOT NULL"
        )
        assert stmt.items[0].alias == "band"
        assert stmt.where is not None

    def test_insert_update_delete_create(self):
        insert = parse_sql("INSERT INTO t (a, b) VALUES (1, 'x'), (2, 'y')")
        assert len(insert.rows) == 2 and insert.columns == ["a", "b"]
        update = parse_sql("UPDATE t SET a = a + 1 WHERE b = 'x'")
        assert "a" in update.assignments
        delete = parse_sql("DELETE FROM t WHERE a > 5")
        assert delete.where is not None
        create = parse_sql("CREATE TABLE t (id INTEGER PRIMARY KEY, name TEXT NOT NULL, v FLOAT)")
        assert create.columns[0].primary_key and not create.columns[1].nullable
        index = parse_sql("CREATE UNIQUE INDEX idx ON t (name)")
        assert index.unique is True
        drop = parse_sql("DROP TABLE IF EXISTS t")
        assert drop.if_exists is True

    def test_parse_errors(self):
        with pytest.raises(ParseError):
            parse_sql("SELEC * FROM t")
        with pytest.raises(ParseError):
            parse_sql("SELECT * FROM t WHERE")
        with pytest.raises(ParseError):
            parse_sql("SELECT 'unterminated FROM t")
        with pytest.raises(ParseError):
            parse_sql("SELECT * FROM t extra garbage )")


class TestSqlLexer:
    """The exact token stream: type, value, position and ``quoted``."""

    @staticmethod
    def lex(text: str) -> list[tuple[str, str, int, bool]]:
        return [(t.type.name, t.value, t.position, t.quoted) for t in tokenize(text)]

    @pytest.mark.parametrize(
        "text, expected",
        [
            ("1.5e-3", [("NUMBER", "1.5e-3", 0, False)]),
            (".5", [("NUMBER", ".5", 0, False)]),
            ("1.", [("NUMBER", "1.", 0, False)]),
            ("1e5e3", [("NUMBER", "1e5", 0, False), ("IDENTIFIER", "e3", 3, False)]),
            ("1.5.3", [("NUMBER", "1.5", 0, False), ("NUMBER", ".3", 3, False)]),
            ("x 1.e5 2E+1", [
                ("IDENTIFIER", "x", 0, False),
                ("NUMBER", "1.e5", 2, False),
                ("NUMBER", "2E+1", 7, False),
            ]),
            ("'a''b'", [("STRING", "a'b", 0, False)]),
            ("'' 'it''s'", [("STRING", "", 0, False), ("STRING", "it's", 3, False)]),
            ('"x""y"', [("IDENTIFIER", 'x"y', 0, True)]),
            ('"""x"', [("IDENTIFIER", '"x', 0, True)]),
            ('t."left"', [("IDENTIFIER", "t.left", 0, True)]),
            ('"t"."order"', [("IDENTIFIER", "t.order", 0, True)]),
            ("t.", [("IDENTIFIER", "t.", 0, False)]),
            ("t.1 a.b.c", [("IDENTIFIER", "t.1", 0, False), ("IDENTIFIER", "a.b.c", 4, False)]),
            ('"a"b', [("IDENTIFIER", "a", 0, True), ("IDENTIFIER", "b", 3, False)]),
            ('a right join "right"', [
                ("IDENTIFIER", "a", 0, False),
                ("IDENTIFIER", "right", 2, False),
                ("KEYWORD", "join", 8, False),
                ("IDENTIFIER", "right", 13, True),
            ]),
            ("FULL Outer JOIN", [
                ("IDENTIFIER", "FULL", 0, False),
                ("KEYWORD", "outer", 5, False),
                ("KEYWORD", "join", 11, False),
            ]),
            ('SELECT "select", t.select', [
                ("KEYWORD", "select", 0, False),
                ("IDENTIFIER", "select", 7, True),
                ("PUNCTUATION", ",", 15, False),
                ("IDENTIFIER", "t.select", 17, False),
            ]),
            ("a <> b", [
                ("IDENTIFIER", "a", 0, False),
                ("OPERATOR", "<>", 2, False),
                ("IDENTIFIER", "b", 5, False),
            ]),
            ("a==b", [
                ("IDENTIFIER", "a", 0, False),
                ("OPERATOR", "==", 1, False),
                ("IDENTIFIER", "b", 3, False),
            ]),
            ("a != b<=c>=d", [
                ("IDENTIFIER", "a", 0, False),
                ("OPERATOR", "!=", 2, False),
                ("IDENTIFIER", "b", 5, False),
                ("OPERATOR", "<=", 6, False),
                ("IDENTIFIER", "c", 8, False),
                ("OPERATOR", ">=", 9, False),
                ("IDENTIFIER", "d", 11, False),
            ]),
            ("-a+b/c%d<e>f=g!h", [
                ("OPERATOR", "-", 0, False),
                ("IDENTIFIER", "a", 1, False),
                ("OPERATOR", "+", 2, False),
                ("IDENTIFIER", "b", 3, False),
                ("OPERATOR", "/", 4, False),
                ("IDENTIFIER", "c", 5, False),
                ("OPERATOR", "%", 6, False),
                ("IDENTIFIER", "d", 7, False),
                ("OPERATOR", "<", 8, False),
                ("IDENTIFIER", "e", 9, False),
                ("OPERATOR", ">", 10, False),
                ("IDENTIFIER", "f", 11, False),
                ("OPERATOR", "=", 12, False),
                ("IDENTIFIER", "g", 13, False),
                ("OPERATOR", "!", 14, False),
                ("IDENTIFIER", "h", 15, False),
            ]),
            ("SELECT * FROM t;", [
                ("KEYWORD", "select", 0, False),
                ("OPERATOR", "*", 7, False),
                ("KEYWORD", "from", 9, False),
                ("IDENTIFIER", "t", 14, False),
                ("PUNCTUATION", ";", 15, False),
            ]),
            ("count(x)", [
                ("KEYWORD", "count", 0, False),
                ("PUNCTUATION", "(", 5, False),
                ("IDENTIFIER", "x", 6, False),
                ("PUNCTUATION", ")", 7, False),
            ]),
            ("x -- done", [("IDENTIFIER", "x", 0, False)]),
            ("a --one\n\tb", [("IDENTIFIER", "a", 0, False), ("IDENTIFIER", "b", 9, False)]),
            ("café é_1 _x", [
                ("IDENTIFIER", "café", 0, False),
                ("IDENTIFIER", "é_1", 5, False),
                ("IDENTIFIER", "_x", 9, False),
            ]),
        ],
    )
    def test_token_stream(self, text, expected):
        assert self.lex(text) == expected + [("EOF", "", len(text), False)]

    @pytest.mark.parametrize(
        "text, message, position",
        [
            ("x = 'abc", "unterminated string literal", 4),
            ("x 'a''", "unterminated string literal", 2),
            ('x "abc', "unterminated quoted identifier", 2),
            ('t."ab', "unterminated quoted identifier", 0),
            ('"""', "unterminated quoted identifier", 0),
            ('x ""', "empty quoted identifier", 2),
            ('t."".x', "empty quoted identifier", 0),
            ("a # b", "unexpected character '#'", 2),
            ("a..b", "unexpected character '.'", 2),
        ],
    )
    def test_errors(self, text, message, position):
        with pytest.raises(ParseError) as info:
            tokenize(text)
        assert str(info.value) == message
        assert info.value.position == position

    @pytest.mark.parametrize(
        "text, position",
        [
            ("SELECT 1e FROM t", 7),
            ("SELECT 1e+ FROM t", 7),
            ("SELECT 1.5E- FROM t", 7),
            ("SELECT x FROM t WHERE y = 2ex", 26),
            ("SELECT 1e5.3 FROM t", 7),
            ("SELECT x FROM t WHERE y = ²", 26),
            ("SELECT ٣", 7),
        ],
    )
    def test_malformed_number_is_a_parse_error(self, text, position):
        """A number literal is ASCII ``[0-9]``: a bad one raises ParseError
        at the literal, never ValueError from ``float()``/``int()``."""
        with pytest.raises(ParseError) as info:
            parse_sql(text)
        assert info.value.position == position

    @pytest.mark.parametrize("clause", ["LIMIT 1.5", "LIMIT 1e2", "LIMIT 2 OFFSET .5"])
    def test_non_integer_limit_is_a_parse_error(self, clause):
        with pytest.raises(ParseError, match="integer"):
            parse_sql(f"SELECT a FROM t {clause}")


@pytest.mark.parametrize(
    "text, rendered",
    [
        ("not a = 1 and b or c", "(((NOT (a = 1)) AND b) OR c)"),
        ("a - b - c * -d % e", "((a - b) - ((c * (- d)) % e))"),
        ("- - a * b", "((- (- a)) * b)"),
        ("a + 1 between 2 and b * 3 or x not in (1, -2)",
         "((((a + 1) >= 2) AND ((a + 1) <= (b * 3))) OR (x NOT IN (1, -2)))"),
        ("a is not null and not b like 'x%'", "((a IS NOT NULL) AND (NOT (b LIKE 'x%')))"),
    ],
)
def test_expression_precedence_and_associativity(text, rendered):
    assert parse_expression(text).to_sql() == rendered


@pytest.mark.parametrize(
    "text, message, position",
    [
        ("a = b = c", "unexpected trailing input: '='", 6),
        ("a is null + 1", "unexpected trailing input: '+'", 10),
        ("not a = 1 = 2", "unexpected trailing input: '='", 10),
        ("a and b = 1 = 2", "unexpected trailing input: '='", 12),
        ("a in (1) * 2", "unexpected trailing input: '*'", 9),
        ("a = not b", "unexpected token 'not'", 4),
    ],
)
def test_a_comparison_takes_no_second_operator(text, message, position):
    """A comparison (and a NOT prefix) may be followed only by AND/OR."""
    with pytest.raises(ParseError) as info:
        parse_expression(text)
    assert (str(info.value), info.value.position) == (message, position)


# --------------------------------------------------------------------------- engine
@pytest.fixture()
def engine() -> RelationalEngine:
    e = RelationalEngine("pg")
    e.execute("CREATE TABLE patients (id INTEGER PRIMARY KEY, age INTEGER, race TEXT, stay FLOAT)")
    e.execute(
        "INSERT INTO patients VALUES (1, 64, 'white', 3.5), (2, 70, 'black', 7.2), "
        "(3, 55, 'asian', 2.0), (4, 80, 'white', 9.9), (5, 33, 'black', 1.1)"
    )
    e.execute("CREATE TABLE rx (pid INTEGER, drug TEXT, dose FLOAT)")
    e.execute(
        "INSERT INTO rx VALUES (1, 'aspirin', 81), (2, 'heparin', 5), (1, 'heparin', 4), "
        "(4, 'insulin', 10), (9, 'aspirin', 81)"
    )
    return e


class TestRelationalEngine:
    def test_capabilities_and_objects(self, engine):
        assert engine.capabilities & EngineCapability.SQL
        assert set(engine.list_objects()) == {"patients", "rx"}
        assert engine.has_object("PATIENTS")

    def test_filter_and_projection(self, engine):
        result = engine.execute("SELECT id, age FROM patients WHERE age > 60 ORDER BY age")
        assert [r["id"] for r in result] == [1, 2, 4]

    def test_aggregates_and_group_by(self, engine):
        result = engine.execute(
            "SELECT race, count(*) AS n, avg(stay) AS s FROM patients GROUP BY race ORDER BY race"
        )
        by_race = {r["race"]: r for r in result}
        assert by_race["white"]["n"] == 2
        assert by_race["black"]["s"] == pytest.approx((7.2 + 1.1) / 2)

    def test_having_with_alias_and_canonical_name(self, engine):
        result = engine.execute(
            "SELECT race, count(*) AS n FROM patients GROUP BY race HAVING count(*) >= 2"
        )
        assert {r["race"] for r in result} == {"white", "black"}

    def test_global_aggregate_on_empty_result(self, engine):
        result = engine.execute("SELECT count(*), max(age) FROM patients WHERE age > 200")
        assert result.rows[0].values[0] == 0
        assert result.rows[0].values[1] is None

    def test_join_inner_and_left(self, engine):
        inner = engine.execute(
            "SELECT p.id, r.drug FROM patients p JOIN rx r ON p.id = r.pid ORDER BY p.id"
        )
        assert len(inner) == 4
        left = engine.execute(
            "SELECT p.id, r.drug FROM patients p LEFT JOIN rx r ON p.id = r.pid ORDER BY p.id"
        )
        assert len(left) == 6  # four matches plus patients 3 and 5 padded with NULL drug
        missing = [r for r in left if r["drug"] is None]
        assert {r["p.id"] for r in missing} == {3, 5}

    def test_cross_join(self, engine):
        result = engine.execute("SELECT count(*) AS n FROM patients CROSS JOIN rx")
        assert result.rows[0]["n"] == 25

    def test_distinct_order_limit_offset(self, engine):
        result = engine.execute("SELECT DISTINCT race FROM patients ORDER BY race LIMIT 2 OFFSET 1")
        assert [r["race"] for r in result] == ["black", "white"]

    def test_subquery(self, engine):
        result = engine.execute(
            "SELECT count(*) AS n FROM (SELECT id FROM patients WHERE age > 60) t"
        )
        assert result.rows[0]["n"] == 3

    def test_scalar_functions_and_case(self, engine):
        result = engine.execute(
            "SELECT id, CASE WHEN age >= 65 THEN 'senior' ELSE 'adult' END AS band, "
            "round(stay) AS r FROM patients WHERE id = 4"
        )
        assert result.rows[0]["band"] == "senior"
        assert result.rows[0]["r"] == 10

    def test_index_scan_used_for_pk_lookup(self, engine):
        plan = engine.explain("SELECT * FROM patients WHERE id = 3")
        assert "IndexScan" in plan
        result = engine.execute("SELECT age FROM patients WHERE id = 3")
        assert result.rows[0]["age"] == 55

    def test_index_scan_range(self, engine):
        engine.execute("CREATE INDEX idx_age ON patients (age)")
        plan = engine.explain("SELECT * FROM patients WHERE age >= 70")
        assert "IndexScan" in plan
        result = engine.execute("SELECT id FROM patients WHERE age >= 70 ORDER BY id")
        assert [r["id"] for r in result] == [2, 4]

    def test_predicate_pushdown_in_join_plan(self, engine):
        plan = engine.explain(
            "SELECT p.id FROM patients p JOIN rx r ON p.id = r.pid WHERE p.age > 60 AND r.dose > 5"
        )
        # Both single-table predicates must appear below the join (on scans), not above it.
        join_line = next(line for line in plan.splitlines() if "Join" in line)
        assert "age" not in join_line and "dose" not in join_line

    def test_update_and_delete(self, engine):
        affected = engine.execute("UPDATE patients SET stay = stay + 1 WHERE race = 'white'")
        assert affected.rows[0]["affected_rows"] == 2
        assert engine.execute("SELECT stay FROM patients WHERE id = 1").rows[0]["stay"] == 4.5
        deleted = engine.execute("DELETE FROM patients WHERE age < 40")
        assert deleted.rows[0]["affected_rows"] == 1
        assert engine.table_row_count("patients") == 4

    def test_insert_with_column_list_fills_missing_with_null(self, engine):
        engine.execute("INSERT INTO patients (id, age) VALUES (10, 20)")
        row = engine.execute("SELECT * FROM patients WHERE id = 10").rows[0]
        assert row["race"] is None

    def test_primary_key_violation_through_sql(self, engine):
        with pytest.raises(ConstraintViolationError):
            engine.execute("INSERT INTO patients VALUES (1, 1, 'x', 1.0)")

    def test_update_onto_a_taken_primary_key_leaves_the_index_intact(self, engine):
        """Shown at the parent: a bare ValueError, and afterwards SELECT *
        still listed row 2 while WHERE id = 2 (the index path) found nothing."""
        before = [r.values for r in engine.execute("SELECT * FROM patients ORDER BY id")]
        with pytest.raises(ConstraintViolationError):
            engine.execute("UPDATE patients SET id = 1 WHERE id = 2")
        table = engine.table("patients")
        assert [values for _rid, values in table.index_lookup("__pk__", 2)] == [before[1]]
        assert [r.values for r in engine.execute("SELECT * FROM patients ORDER BY id")] == before
        for row in before:
            by_key = engine.execute(f"SELECT * FROM patients WHERE id = {row[0]}")
            assert [r.values for r in by_key] == [row]

    def test_insert_rejects_non_constant_values_before_any_row_lands(self, engine):
        """Shown at the parent: `INSERT INTO t VALUES (1, id + 1)` answered
        affected_rows=1 and stored NULL for the expression."""
        before = [r.values for r in engine.execute("SELECT * FROM patients ORDER BY id")]
        with pytest.raises(ExecutionError, match=r"\(id \+ 1\)"):
            engine.execute("INSERT INTO patients VALUES (6, id + 1, 'x', 1.0)")
        bad_later_rows = [
            "(6, 1, 'ok', 1.0), (7, age, 'column reference', 1.0)",
            "(6, 1, 'ok', 1.0), (1, 1, 'taken key', 1.0)",
            "(6, 1, 'ok', 1.0), (6, 1, 'key repeated', 1.0)",
            "(6, 1, 'ok', 1.0), (7, 'not a number', 'x', 1.0)",
            "(6, 1, 'ok', 1.0), (7, 1)",
        ]
        for values in bad_later_rows:
            with pytest.raises(Exception):  # noqa: B017 - each row fails its own way
                engine.execute(f"INSERT INTO patients VALUES {values}")
            after = engine.execute("SELECT * FROM patients ORDER BY id")
            assert [r.values for r in after] == before, values
            assert engine.execute("SELECT * FROM patients WHERE id = 6").rows == ()
        done = engine.execute("INSERT INTO patients VALUES (6, 30 + 3, 'x', 1.0), (7, -1, 'y', 2.0)")
        assert done.rows[0]["affected_rows"] == 2
        assert engine.execute("SELECT age FROM patients WHERE id = 6").rows[0]["age"] == 33

    def test_missing_table_raises(self, engine):
        with pytest.raises(ObjectNotFoundError):
            engine.execute("SELECT * FROM nonexistent")

    def test_export_import_roundtrip(self, engine):
        relation = engine.export_relation("patients")
        other = RelationalEngine("copy")
        other.import_relation("patients", relation, primary_key=("id",))
        assert other.table_row_count("patients") == engine.table_row_count("patients")

    def test_select_without_from(self, engine):
        result = engine.execute("SELECT 1 + 2 AS three")
        assert result.rows[0]["three"] == 3


class TestTransactions:
    def test_commit_persists(self):
        engine = RelationalEngine()
        engine.execute("CREATE TABLE t (id INTEGER, v TEXT)")
        with engine.begin():
            engine.insert_rows("t", [(1, "a"), (2, "b")])
        assert engine.table_row_count("t") == 2

    def test_rollback_on_exception_restores_state(self):
        engine = RelationalEngine()
        engine.execute("CREATE TABLE t (id INTEGER, v TEXT)")
        engine.insert_rows("t", [(1, "a")])
        with pytest.raises(RuntimeError):
            with engine.begin():
                engine.insert_rows("t", [(2, "b")])
                engine.execute("UPDATE t SET v = 'changed' WHERE id = 1")
                raise RuntimeError("boom")
        assert engine.table_row_count("t") == 1
        assert engine.execute("SELECT v FROM t WHERE id = 1").rows[0]["v"] == "a"

    def test_rollback_restores_deletes(self):
        engine = RelationalEngine()
        engine.execute("CREATE TABLE t (id INTEGER, v TEXT)")
        engine.insert_rows("t", [(1, "a"), (2, "b")])
        txn = engine.begin()
        engine.execute("DELETE FROM t WHERE id = 2")
        txn.rollback()
        assert engine.table_row_count("t") == 2

    @staticmethod
    def keyed_engine() -> RelationalEngine:
        engine = RelationalEngine()
        engine.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)")
        engine.execute("INSERT INTO t VALUES (1, 10)")
        return engine

    def test_rollback_of_an_update_then_a_delete_of_the_same_row(self):
        """The delete's undo used to put the row back under a new row id,
        so the update's undo raised ObjectNotFoundError and left (1, 11)."""
        engine = self.keyed_engine()
        txn = engine.begin()
        engine.execute("UPDATE t SET v = 11 WHERE id = 1")
        engine.execute("DELETE FROM t WHERE id = 1")
        txn.rollback()
        assert result_rows(engine) == [(1, 10)]
        assert result_rows(engine, "SELECT * FROM t WHERE id = 1") == [(1, 10)]

    def test_rollback_of_an_insert_then_a_delete_of_the_same_row(self):
        """The delete's undo used to re-insert (2, 20) under a new row id,
        which the insert's undo then missed: the row survived the rollback."""
        engine = self.keyed_engine()
        txn = engine.begin()
        engine.execute("INSERT INTO t VALUES (2, 20)")
        engine.execute("DELETE FROM t WHERE id = 2")
        txn.rollback()
        assert result_rows(engine) == [(1, 10)]
        assert result_rows(engine, "SELECT * FROM t WHERE id = 2") == []
        engine.execute("INSERT INTO t VALUES (2, 21)")   # the key is free again

    def test_only_one_active_transaction(self):
        from repro.common.errors import TransactionError

        engine = RelationalEngine()
        engine.begin()
        with pytest.raises(TransactionError):
            engine.begin()


# ------------------------------------------------------ index path and DML
def indexed_engine() -> RelationalEngine:
    engine = RelationalEngine()
    engine.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)")
    engine.execute("INSERT INTO t VALUES (1, 10), (2, 20), (3, 30)")
    engine.execute("CREATE INDEX idx_v ON t (v)")
    return engine


def result_rows(engine: RelationalEngine, sql: str = "SELECT * FROM t") -> list[tuple]:
    return sorted(row.values for row in engine.execute(sql))


def index_entries(table: HeapTable, name: str) -> list[tuple]:
    return sorted(table._indexes[name][1].items())


def scanned_entries(table: HeapTable, name: str) -> list[tuple]:
    """What index ``name`` must hold: every row's key without a NULL or NaN."""
    positions = [table.schema.index_of(c) for c in table._indexes[name][0]]
    out = []
    for row_id, values in table.scan():
        key = tuple(values[i] for i in positions)
        if all(part is not None and part == part for part in key):
            out.append((key, row_id))
    return sorted(out)


class TestNullKeysStayOutOfIndexes:
    """A B+tree cannot order None against an int.  Each of these used to
    raise a bare TypeError — after the row had landed, or after the
    old index entry had gone — leaving the index and the heap disagreeing."""

    def test_insert_of_a_null_key(self):
        engine = indexed_engine()
        assert result_rows(engine, "INSERT INTO t VALUES (4, NULL)") == [(1,)]
        assert result_rows(engine) == [(1, 10), (2, 20), (3, 30), (4, None)]
        assert result_rows(engine, "SELECT * FROM t WHERE v IS NULL") == [(4, None)]
        assert result_rows(engine, "SELECT * FROM t WHERE v >= 10") == [(1, 10), (2, 20), (3, 30)]
        table = engine.table("t")
        assert index_entries(table, "idx_v") == scanned_entries(table, "idx_v")

    def test_update_to_and_from_a_null_key(self):
        engine = indexed_engine()
        assert result_rows(engine, "UPDATE t SET v = NULL WHERE id = 2") == [(1,)]
        assert result_rows(engine, "SELECT * FROM t WHERE v = 20") == []
        assert result_rows(engine) == [(1, 10), (2, None), (3, 30)]
        assert result_rows(engine, "UPDATE t SET v = 25 WHERE v IS NULL") == [(1,)]
        assert result_rows(engine, "SELECT * FROM t WHERE v = 25") == [(2, 25)]
        assert result_rows(engine, "DELETE FROM t WHERE v < 100") == [(3,)]
        table = engine.table("t")
        assert len(table) == 0 and index_entries(table, "idx_v") == []

    def test_create_index_over_a_null_and_a_nan(self):
        engine = RelationalEngine()
        engine.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER, f FLOAT)")
        engine.insert_rows("t", [(1, 10, 1.0), (2, None, float("nan")), (3, 30, None)])
        engine.execute("CREATE INDEX idx_v ON t (v)")
        engine.execute("CREATE UNIQUE INDEX idx_f ON t (f)")
        engine.insert_rows("t", [(4, None, float("nan"))])   # NULL/NaN are never duplicates
        table = engine.table("t")
        for name in ("idx_v", "idx_f"):
            assert index_entries(table, name) == scanned_entries(table, name)
        assert result_rows(engine, "SELECT id FROM t WHERE v > 0") == [(1,), (3,)]
        assert result_rows(engine, "SELECT id FROM t WHERE f >= 1") == [(1,)]
        assert table.index_lookup("idx_v", None) == []

    def test_truncate_keeps_a_secondary_index_unique(self):
        engine = indexed_engine()
        engine.execute("CREATE UNIQUE INDEX idx_u ON t (v)")
        engine.table("t").truncate()
        engine.execute("INSERT INTO t VALUES (1, 10)")
        with pytest.raises(ConstraintViolationError, match="idx_u"):
            engine.execute("INSERT INTO t VALUES (2, 10)")


class TestIndexPathLiterals:
    """A NULL literal used to read as "no bound" (every row matched), and
    an INTEGER key compared against '2' raised inside the B+tree."""

    @pytest.mark.parametrize("where", ["id = NULL", "NULL = id", "v > NULL", "v <= NULL"])
    def test_a_null_literal_matches_nothing(self, where):
        engine = indexed_engine()
        assert "IndexScan" not in engine.explain(f"SELECT * FROM t WHERE {where}")
        assert result_rows(engine, f"SELECT * FROM t WHERE {where}") == []
        assert result_rows(engine, f"UPDATE t SET v = 0 WHERE {where}") == [(0,)]
        assert result_rows(engine, f"DELETE FROM t WHERE {where}") == [(0,)]
        assert result_rows(engine) == [(1, 10), (2, 20), (3, 30)]

    def test_a_literal_of_another_type_takes_the_scan(self):
        engine = indexed_engine()
        assert "IndexScan" not in engine.explain("SELECT * FROM t WHERE id = '2'")
        assert result_rows(engine, "SELECT * FROM t WHERE id = '2'") == []
        assert result_rows(engine, "UPDATE t SET v = 0 WHERE id = '2'") == [(0,)]
        assert result_rows(engine, "SELECT * FROM t WHERE id = 2.0") == [(2, 20)]
        assert result_rows(engine, "SELECT * FROM t WHERE 15 < v AND id = '2'") == []

    def test_a_composite_index_is_not_a_range_on_its_first_column(self):
        """A bound on the leading column alone is not a key range of a
        two-column B+tree: read as one, ``a = 1`` found nothing and
        ``a > 1`` returned every row."""
        engine = RelationalEngine()
        engine.execute("CREATE TABLE c (a INTEGER PRIMARY KEY, b INTEGER PRIMARY KEY, v INTEGER)")
        engine.execute("INSERT INTO c VALUES (1, 1, 10), (1, 2, 20), (2, 1, 30)")
        assert result_rows(engine, "SELECT * FROM c WHERE a = 1") == [(1, 1, 10), (1, 2, 20)]
        assert result_rows(engine, "SELECT * FROM c WHERE a > 1") == [(2, 1, 30)]
        assert result_rows(engine, "SELECT * FROM c WHERE a <= 1") == [(1, 1, 10), (1, 2, 20)]
        assert result_rows(engine, "DELETE FROM c WHERE a = 1") == [(2,)]


class TestAtomicUpdate:
    """Every new row is evaluated and every key checked before any row
    moves, as INSERT does.  Applied row by row, the first two statements
    raised with row 1 already changed."""

    def engine(self) -> RelationalEngine:
        engine = RelationalEngine()
        engine.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)")
        engine.execute("INSERT INTO t VALUES (1, 5), (2, 0), (12, 30)")
        return engine

    def test_a_failing_expression_changes_nothing(self):
        engine = self.engine()
        with pytest.raises(ExecutionError, match="division by zero"):
            engine.execute("UPDATE t SET v = 100 / v WHERE id > 0")
        assert result_rows(engine) == [(1, 5), (2, 0), (12, 30)]

    def test_a_key_clash_with_an_untouched_row_changes_nothing(self):
        engine = self.engine()
        table = engine.table("t")
        before_columns, positions = snapshot_columns(table), table._length
        with pytest.raises(ConstraintViolationError, match=r"\(12,\)"):
            engine.execute("UPDATE t SET id = id + 10 WHERE id < 3")
        assert result_rows(engine) == [(1, 5), (2, 0), (12, 30)]
        assert snapshot_columns(table) == before_columns and table._length == positions
        assert result_rows(engine, "SELECT * FROM t WHERE id = 1") == [(1, 5)]
        with pytest.raises(ConstraintViolationError):
            engine.execute("UPDATE t SET id = 7")   # one key for three rows
        assert result_rows(engine) == [(1, 5), (2, 0), (12, 30)]

    def test_keys_may_pass_between_rows_of_one_statement(self):
        engine = self.engine()
        assert result_rows(engine, "UPDATE t SET id = id + 1") == [(3,)]
        assert result_rows(engine) == [(2, 5), (3, 0), (13, 30)]
        assert result_rows(engine, "SELECT * FROM t WHERE id = 2") == [(2, 5)]
        table = engine.table("t")
        assert index_entries(table, "__pk__") == scanned_entries(table, "__pk__")

    def test_rollback_undoes_updates_and_a_delete(self):
        """A rollback restores a run of updates together: undone row by
        row, ``SET id = id + 1`` would put id 2 back while row 1 held it."""
        engine = self.engine()
        with pytest.raises(RuntimeError):
            with engine.begin():
                engine.execute("UPDATE t SET v = v + 1 WHERE id < 3")
                engine.execute("UPDATE t SET id = id + 1 WHERE id < 3")
                engine.execute("UPDATE t SET v = 0 WHERE id = 3")
                engine.execute("DELETE FROM t WHERE id = 12")
                raise RuntimeError("boom")
        assert result_rows(engine) == [(1, 5), (2, 0), (12, 30)]
        assert result_rows(engine, "SELECT * FROM t WHERE id = 2") == [(2, 0)]


def test_by_key_dml_takes_the_index_path(monkeypatch):
    """A WHERE the SELECT planner answers from an index never walks the
    table; one it cannot still does."""
    engine = indexed_engine()
    walked = []
    original = HeapTable.apply_filter_values
    monkeypatch.setattr(HeapTable, "apply_filter_values",
                        lambda self, predicate: walked.append(1) or original(self, predicate))
    assert result_rows(engine, "UPDATE t SET v = 21 WHERE id = 2") == [(1,)]
    assert result_rows(engine, "DELETE FROM t WHERE v >= 30 AND id > 0") == [(1,)]
    assert walked == []
    assert result_rows(engine, "UPDATE t SET v = 0 WHERE v IS NULL OR id = 1") == [(1,)]
    assert walked == [1]
    assert result_rows(engine) == [(1, 0), (2, 21)]


def test_index_range_scans_racing_inserts_return_each_row_once():
    """index_range used to walk B+tree leaves lazily, outside the table
    lock: a leaf split mid-walk handed the moved entries out twice."""
    engine = RelationalEngine()
    engine.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)")
    engine.execute("CREATE INDEX idx_v ON t (v)")
    rng = np.random.default_rng(7)
    engine.insert_rows("t", [(i, int(v)) for i, v in enumerate(rng.integers(0, 10_000, 2000))])
    done = threading.Event()
    errors: list[BaseException] = []

    def insert() -> None:
        try:
            for i, v in enumerate(rng.integers(0, 10_000, 6000), start=2000):
                engine.insert_rows("t", [(i, int(v))])
        except BaseException as exc:  # noqa: BLE001 - reported by the assert below
            errors.append(exc)
        finally:
            done.set()

    duplicated = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    writer = threading.Thread(target=insert)
    try:
        writer.start()
        while not done.is_set() and not duplicated:
            ids = [row[0] for row in engine.execute("SELECT id FROM t WHERE v > 5").rows]
            if len(ids) != len(set(ids)):
                duplicated.append(len(ids) - len(set(ids)))
    finally:
        done.wait(timeout=120)
        writer.join(timeout=120)
        sys.setswitchinterval(interval)
    assert not writer.is_alive() and errors == []
    assert duplicated == []


def test_concurrent_updates_of_one_row_keep_both_writes():
    """Two threads each add to a different column of one row.  An UPDATE
    computes the new row from the values it matched; written back blindly,
    it reverted a change the other thread made in between."""
    engine = RelationalEngine()
    engine.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, a INTEGER, b INTEGER)")
    engine.execute("INSERT INTO t VALUES (1, 0, 0), (2, 0, 0)")
    rounds = 1500
    errors: list[BaseException] = []

    def bump(column: str) -> None:
        try:
            for _ in range(rounds):
                engine.execute(f"UPDATE t SET {column} = {column} + 1 WHERE id = 1")
        except BaseException as exc:  # noqa: BLE001 - reported by the assert below
            errors.append(exc)

    threads = [threading.Thread(target=bump, args=(column,)) for column in ("a", "b")]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
    finally:
        for thread in threads:
            thread.join(timeout=120)
        sys.setswitchinterval(interval)
    assert errors == [] and not any(thread.is_alive() for thread in threads)
    assert result_rows(engine) == [(1, rounds, rounds), (2, 0, 0)]


# Domains small enough that WHERE literals hit stored keys often.
_INTS = st.one_of(st.none(), st.integers(-4, 4))
_TEXTS = st.one_of(st.none(), st.sampled_from(["a", "b", "bb"]))
_FLOATS = st.one_of(st.none(), st.sampled_from([-1.5, 0.0, 2.0, 2.5, float("nan")]))
_COLUMN_LITERALS = {
    # column -> (literals of its own type, a literal of another type)
    "id": (st.one_of(st.none(), st.integers(-1, 12), st.just(2.5)), "'2'"),
    "v": (st.one_of(_INTS, st.just(1.5)), "'1'"),
    "w": (_TEXTS, "2"),
    "f": (st.one_of(_FLOATS.filter(lambda x: x is None or x == x), st.integers(-2, 3)), "'x'"),
}


def _sql_literal(value) -> str:
    if value is None:
        return "NULL"
    if isinstance(value, str):
        return f"'{value}'"
    return repr(value)


@st.composite
def _comparisons(draw) -> str:
    column = draw(st.sampled_from(sorted(_COLUMN_LITERALS)))
    own, other = _COLUMN_LITERALS[column]
    if draw(st.integers(0, 5)) == 0:
        # Another type only under "=": an ordering against it raises in
        # the scan's predicate as well as anywhere else.
        return f"{column} = {other}"
    op = draw(st.sampled_from(["=", "<", "<=", ">", ">="]))
    literal = _sql_literal(draw(own))
    if draw(st.booleans()):
        flipped = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "=": "="}[op]
        return f"{literal} {flipped} {column}"
    return f"{column} {op} {literal}"


_RESIDUALS = st.sampled_from([
    "v IS NULL", "w IS NOT NULL", "v + 1 > 0", "w LIKE 'b%'", "f <> 2.0",
    "(v = 1 OR w = 'a')", "NOT (id > 5)",
])
_WHERES = st.lists(st.one_of(_comparisons(), _RESIDUALS), min_size=1,
                   max_size=2).map(" AND ".join)
#: None is a DELETE.
_SETS = st.sampled_from([None, "w = 'z'", "v = v + 1", "v = NULL, f = 2.0", "id = id + 1",
                         "id = id + 100", "f = f * 2"])


@settings(max_examples=200, deadline=None)
@given(
    data=st.lists(st.tuples(_INTS, _TEXTS, _FLOATS), min_size=1, max_size=14),
    where=_WHERES,
    assignment=_SETS,
)
def test_dml_through_the_index_path_touches_what_the_scan_would(data, where, assignment):
    """UPDATE/DELETE choose the index path a SELECT would, then keep the
    candidates the whole WHERE accepts: they must touch exactly the rows
    ``apply_filter_values`` selects with the same compiled predicate, land
    all of them or none, and leave every index equal to a full-scan filter."""
    engine = RelationalEngine()
    engine.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER, w TEXT, f FLOAT)")
    engine.insert_rows("t", [(i, v, w, f) for i, (v, w, f) in enumerate(data)])
    for column in ("v", "w", "f"):
        engine.execute(f"CREATE INDEX idx_{column} ON t ({column})")
    table = engine.table("t")
    sql = (f"DELETE FROM t WHERE {where}" if assignment is None
           else f"UPDATE t SET {assignment} WHERE {where}")
    statement = parse_sql(sql)
    before = dict(table.scan())
    expected = table.apply_filter_values(compile_predicate(statement.where, table.schema))
    model = dict(before)
    if assignment is None:
        for row_id, _values in expected:
            del model[row_id]
    else:
        assignments = [(table.schema.index_of(c), e.compile(table.schema))
                       for c, e in statement.assignments.items()]
        for row_id, values in expected:
            new = list(values)
            for position, expression in assignments:
                new[position] = expression(values)
            model[row_id] = table.schema.validate_row(new)
    ids = [values[0] for values in model.values()]
    clash = len(ids) != len(set(ids))
    if clash:
        with pytest.raises(ConstraintViolationError):
            engine.execute(sql)
        model = before
    else:
        assert result_rows(engine, sql) == [(len(expected),)]

    def comparable(state):   # NaN == NaN, for the comparison
        return {row_id: tuple("NaN" if x != x else x for x in values)
                for row_id, values in state.items()}

    assert comparable(dict(table.scan())) == comparable(model)
    for name in ("__pk__", "idx_v", "idx_w", "idx_f"):
        assert index_entries(table, name) == scanned_entries(table, name), name
    for value in (None, -1, 0, 1, 2, 4):
        by_index = sorted(row_id for row_id, _values in table.index_lookup("idx_v", value))
        by_scan = sorted(row_id for row_id, values in table.scan()
                         if value is not None and values[1] == value)
        assert by_index == by_scan


def test_not_in_a_list_holding_a_null_selects_nothing():
    """``x NOT IN (.., NULL)`` is never true, and ``x IN (.., NULL)`` is NULL
    for an absent x — through the closure, the dictionary kernel and the
    select list alike.  Every one of these used to answer two-valued."""
    engine = RelationalEngine()
    engine.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v FLOAT, name TEXT)")
    engine.execute("INSERT INTO t VALUES (1, 1.5, 'a'), (2, 2.5, 'b'), (3, NULL, NULL)")
    for where in ("v NOT IN (1.5, NULL)", "NOT (v IN (1.5, NULL))",
                  "name NOT IN ('a', NULL)", "NOT (name IN ('a', NULL))"):
        assert result_rows(engine, f"SELECT id FROM t WHERE {where}") == [], where
    assert result_rows(engine, "SELECT id FROM t WHERE v IN (1.5, NULL)") == [(1,)]
    selected = engine.execute("SELECT id, v IN (1.5, NULL) AS x FROM t ORDER BY id")
    assert [row.values for row in selected.rows] == [(1, True), (2, None), (3, None)]


def test_stddev_distinct_counts_each_value_once():
    """``stddev(DISTINCT v)`` over 1, 1, 2, 3 is the sample deviation of
    1, 2, 3: exactly 1.0 (it used to ignore DISTINCT and answer 0.957)."""
    engine = RelationalEngine()
    engine.execute("CREATE TABLE t (g INTEGER, v INTEGER)")
    engine.execute("INSERT INTO t VALUES (1, 1), (1, 1), (1, 2), (1, 3), (2, 5), (2, 5), (2, 7), (2, NULL)")
    whole = engine.execute("SELECT stddev(DISTINCT v) AS d, stddev(v) AS s FROM t WHERE g = 1")
    assert whole.rows[0]["d"] == pytest.approx(1.0)
    assert whole.rows[0]["s"] == pytest.approx((11 / 12) ** 0.5)  # mean 7/4, squares 11/4 over 3
    grouped = result_rows(engine, "SELECT g, stddev(DISTINCT v) AS d FROM t GROUP BY g ORDER BY g")
    assert grouped == [(1, pytest.approx(1.0)), (2, pytest.approx(2 ** 0.5))]


def test_scans_reuse_one_qualified_schema_per_alias():
    """A scan's qualified schema is built once per table schema and alias,
    more aliases than the memo keeps still resolve, and a self-join under
    two aliases keeps its columns apart."""
    engine = RelationalEngine()
    engine.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)")
    engine.execute("INSERT INTO t VALUES (1, 10), (2, 20), (3, 30)")
    schema = engine.table("t").schema
    first = qualified_schema(schema, "a")
    assert qualified_schema(schema, "a") is first
    assert first.names == ["a.id", "a.v"]
    assert qualified_schema(first, "b") is first
    for i in range(20):
        alias = f"q{i}"
        assert result_rows(engine, f"SELECT {alias}.v FROM t {alias} WHERE {alias}.id = 2") == [(20,)]
    assert qualified_schema(schema, "a") == first
    joined = result_rows(
        engine, "SELECT a.id, b.v FROM t a JOIN t b ON a.id + 1 = b.id ORDER BY a.id"
    )
    assert joined == [(1, 20), (2, 30)]
