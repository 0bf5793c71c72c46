"""A differential suite: the relational engine against stdlib ``sqlite3``.

Every other parity test compares this system with itself (the batch
executor with the reference ``Executor``, spill with memory, parallel with
serial), and the reference executor reads the same column buffers as the
engine.  Here the reference is SQLite, on random tables, over the SQL both
speak:

* filters heavy in NULLs: ``=``, ``<>``, ``<``, ``>=``, ``IS [NOT] NULL``,
  ``[NOT] IN`` with NULLs in the list, ``BETWEEN`` and ``LIKE``, under
  ``AND`` / ``OR`` / ``NOT``;
* inner and left joins with residual conjuncts in ``ON``;
* ``GROUP BY`` / ``HAVING`` with ``count``, ``sum``, ``min`` and ``max``;
* ``SELECT DISTINCT`` over columns and computed items, across batches;
* a filter over a computed column holding both integers and floats;
* ``ORDER BY`` a unique key with ``LIMIT``;
* interleaved INSERT, UPDATE and DELETE by key and by range on an indexed
  table, with ``SELECT *`` compared after every statement.

Results are compared as sorted multisets (``ORDER BY`` results in order),
floats to a relative 1e-9, booleans as 0 / 1.

Carve-outs — where the two are not asked to agree, so no query goes there:

* NULL placement under ``ORDER BY``: ours puts NULLs first under ``DESC``,
  as PostgreSQL does, SQLite last.  Queries order only by a key that is
  never NULL.
* Division by zero: ours raises, SQLite returns NULL.  No query divides.
* Summation order: float sums may differ in the last bits, hence the
  tolerance.
* ``LIKE``: SQLite's ignores ASCII case unless ``PRAGMA
  case_sensitive_like = ON``, which the suite sets; ours is case-sensitive.
* Types: SQLite compares values of different types (``1 < 'a'``) and stores
  NaN as NULL; ours raises on the first and keeps NaN.  Every literal has
  its column's type, and no value is NaN.
* Key updates: SQLite checks a unique key row by row during an UPDATE, ours
  after the whole statement (``SET id = id + 1`` succeeds here).  No
  UPDATE assigns the key.
"""

from __future__ import annotations

import math
import sqlite3

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.common.errors import BigDawgError
from repro.engines.relational import RelationalEngine

_T_DDL = "CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER, f FLOAT, s TEXT)"
_D_DDL = "CREATE TABLE d (id INTEGER PRIMARY KEY, k INTEGER, s TEXT)"

_INTS = st.one_of(st.none(), st.integers(-3, 3))
_FLOATS = st.one_of(st.none(), st.sampled_from([-1.5, 0.0, 0.5, 2.0]))
_TEXTS = st.one_of(st.none(), st.sampled_from(["a", "A", "ab", "b", "ba"]))
_DOMAINS = {"v": _INTS, "f": _FLOATS, "s": _TEXTS}
_T_ROWS = st.lists(st.tuples(_INTS, _FLOATS, _TEXTS), max_size=12)
_D_ROWS = st.lists(st.tuples(_INTS, _TEXTS), max_size=6)


def _sql(value) -> str:
    if value is None:
        return "NULL"
    if isinstance(value, str):
        return f"'{value}'"
    return repr(value)


@st.composite
def _atoms(draw) -> str:
    column = draw(st.sampled_from(sorted(_DOMAINS)))
    domain = _DOMAINS[column]
    kind = draw(st.sampled_from(["compare", "null", "in", "between", "like"]))
    if kind == "compare":
        op = draw(st.sampled_from(["=", "<>", "<", ">="]))
        return f"{column} {op} {_sql(draw(domain))}"
    if kind == "null":
        return f"{column} IS {draw(st.sampled_from(['', 'NOT ']))}NULL"
    if kind == "in":
        items = ", ".join(map(_sql, draw(st.lists(domain, min_size=1, max_size=3))))
        return f"{column} {draw(st.sampled_from(['IN', 'NOT IN']))} ({items})"
    if kind == "between":
        return f"{column} BETWEEN {_sql(draw(domain))} AND {_sql(draw(domain))}"
    pattern = draw(st.sampled_from(["a%", "%a", "_a", "A%", "%", "b_"]))
    return f"s LIKE '{pattern}'"


_PREDICATES = st.recursive(
    _atoms(),
    lambda inner: st.one_of(
        st.tuples(inner, st.sampled_from(["AND", "OR"]), inner).map(
            lambda p: f"({p[0]} {p[1]} {p[2]})"
        ),
        inner.map(lambda p: f"NOT ({p})"),
    ),
    max_leaves=3,
)


def _pair(t_rows, d_rows=()) -> tuple[RelationalEngine, sqlite3.Connection]:
    """The same tables in this engine and in SQLite."""
    engine, lite = RelationalEngine("oracle"), sqlite3.connect(":memory:")
    lite.execute("PRAGMA case_sensitive_like = ON")
    for ddl, table, rows in ((_T_DDL, "t", t_rows), (_D_DDL, "d", d_rows)):
        engine.execute(ddl)
        lite.execute(ddl)
        rows = [(i, *row) for i, row in enumerate(rows)]
        if rows:
            engine.insert_rows(table, rows)
            marks = ", ".join("?" * len(rows[0]))
            lite.executemany(f"INSERT INTO {table} VALUES ({marks})", rows)
    return engine, lite


def _plain(value):
    return int(value) if isinstance(value, bool) else value


def _sort_key(row):
    return tuple(
        (0, 0, "") if v is None
        else (1, 1, v) if isinstance(v, str)
        else (1, 0, float(f"{v:.6g}"))
        for v in row
    )


def _same_rows(ours: list[tuple], theirs: list[tuple], ordered: bool = False) -> bool:
    ours = [tuple(map(_plain, row)) for row in ours]
    theirs = [tuple(map(_plain, row)) for row in theirs]
    if not ordered:
        ours, theirs = sorted(ours, key=_sort_key), sorted(theirs, key=_sort_key)
    if len(ours) != len(theirs):
        return False
    for a_row, b_row in zip(ours, theirs):
        for a, b in zip(a_row, b_row):
            if isinstance(a, float) or isinstance(b, float):
                if a is None or b is None or not math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12):
                    return False
            elif a != b:
                return False
    return True


def assert_agrees(engine, lite, sql: str, ordered: bool = False) -> None:
    ours = [row.values for row in engine.execute(sql).rows]
    theirs = lite.execute(sql).fetchall()
    assert _same_rows(ours, theirs, ordered), f"{sql}\n ours:   {ours}\n sqlite: {theirs}"


@settings(max_examples=150, deadline=None)
@given(rows=_T_ROWS, predicate=_PREDICATES)
@example(rows=[(1, 1.5, "a"), (2, None, "b")], predicate="v NOT IN (1, NULL)")
@example(rows=[(1, 0.5, "a"), (None, 2.0, "b")], predicate="NOT (f IN (0.5, NULL))")
@example(rows=[(1, 0.5, "a"), (2, 2.0, "b")], predicate="s NOT IN ('a', NULL)")
@example(rows=[(-3, -1.5, "a"), (2, None, "b")], predicate="v NOT IN (-3, NULL)")
def test_filters(rows, predicate):
    engine, lite = _pair(rows)
    assert_agrees(engine, lite, f"SELECT id, v, f, s FROM t WHERE {predicate}")


@pytest.mark.parametrize("predicate", [
    "x = 0", "x > 0.6", "x < 1", "x <> 0.5", "x IN (0, 1)", "x BETWEEN 0.1 AND 0.8",
])
def test_filter_over_a_column_of_ints_and_floats(predicate):
    """A computed column whose first value is an integer and the rest floats:
    the filter kernel used to pack it as integers, truncating 0.5 to 0."""
    engine, lite = _pair([(k, None, None) for k in range(1, 5)])
    assert_agrees(
        engine, lite,
        "SELECT x FROM (SELECT CASE WHEN v = 1 THEN 1 ELSE v / 4.0 END AS x FROM t) AS q "
        f"WHERE {predicate}",
    )


@settings(max_examples=80, deadline=None)
@given(rows=_T_ROWS, column=st.sampled_from(sorted(_DOMAINS)), data=st.data())
@example(rows=[(1, 1.5, "a"), (2, None, "b")], column="v", data=None)
def test_in_list_as_a_value(rows, column, data):
    """``IN`` / ``NOT IN`` in the select list: a value absent from a list
    holding a NULL is NULL, not false."""
    items = [None, 1] if data is None else data.draw(
        st.lists(_DOMAINS[column], min_size=1, max_size=3))
    engine, lite = _pair(rows)
    listed = ", ".join(map(_sql, items))
    assert_agrees(engine, lite, f"SELECT id, {column} IN ({listed}) AS x FROM t")
    assert_agrees(engine, lite, f"SELECT id, {column} NOT IN ({listed}) AS x FROM t")


_RESIDUALS = st.sampled_from([
    "d.s <> 'a'", "t.f > 0.0", "d.s = t.s", "t.s IS NULL", "d.s LIKE 'b%'",
    "t.v IN (1, NULL)", "d.k NOT IN (2, 3)", "t.f BETWEEN -1.5 AND 0.5",
])


@settings(max_examples=100, deadline=None)
@given(t_rows=_T_ROWS, d_rows=_D_ROWS, residual=_RESIDUALS,
       kind=st.sampled_from(["JOIN", "LEFT JOIN"]), anti=st.booleans())
def test_joins_with_residual_conjuncts(t_rows, d_rows, residual, kind, anti):
    engine, lite = _pair(t_rows, d_rows)
    where = " WHERE d.id IS NULL" if anti and kind == "LEFT JOIN" else ""
    assert_agrees(
        engine, lite,
        f"SELECT t.id, t.s, d.id, d.s FROM t {kind} d ON t.v = d.k AND {residual}{where}",
    )


@settings(max_examples=100, deadline=None)
@given(rows=_T_ROWS, key=st.sampled_from(["v", "s", "f", "v + 1"]), floor=st.integers(0, 2),
       predicate=st.one_of(st.none(), _PREDICATES))
def test_group_by_having(rows, key, floor, predicate):
    engine, lite = _pair(rows)
    engine._batch_executor._batch_rows = 3
    where = "" if predicate is None else f" WHERE {predicate}"
    assert_agrees(
        engine, lite,
        f"SELECT {key} AS k, count(*) AS n, count(f) AS nf, sum(v) AS sv, min(f) AS lo, "
        f"max(s) AS hi, count(DISTINCT s) AS ds FROM t{where} GROUP BY {key} "
        f"HAVING count(*) > {floor}",
    )


@settings(max_examples=100, deadline=None)
@given(rows=_T_ROWS, items=st.sampled_from(["v", "f", "s", "v, s", "f, s, v", "v + 1 AS w, s", "*"]),
       predicate=st.one_of(st.none(), _PREDICATES))
def test_select_distinct(rows, items, predicate):
    engine, lite = _pair(rows)
    engine._batch_executor._batch_rows = 3
    where = "" if predicate is None else f" WHERE {predicate}"
    assert_agrees(engine, lite, f"SELECT DISTINCT {items} FROM t{where}")


@settings(max_examples=100, deadline=None)
@given(rows=_T_ROWS, predicate=_PREDICATES, descending=st.booleans(), limit=st.integers(0, 5))
def test_order_by_a_unique_key_with_limit(rows, predicate, descending, limit):
    engine, lite = _pair(rows)
    direction = "DESC" if descending else "ASC"
    assert_agrees(
        engine, lite,
        f"SELECT id, v, s FROM t WHERE {predicate} ORDER BY id {direction} LIMIT {limit}",
        ordered=True,
    )


_ASSIGNMENTS = st.sampled_from([
    "v = v + 1", "v = NULL", "f = f * 2", "s = 'z'", "s = NULL", "v = 3, f = 0.5",
])


@st.composite
def _by_key_or_range(draw) -> str:
    k, j = draw(st.integers(-1, 14)), draw(st.integers(-1, 14))
    return draw(st.sampled_from([
        f"id = {k}", f"id BETWEEN {min(k, j)} AND {max(k, j)}", f"id >= {k}",
        f"v < {k % 4}", f"v >= {j % 4}", "s = 'a'", f"v = {k % 4} AND id < {j}",
    ]))


@st.composite
def _statements(draw) -> str:
    kind = draw(st.sampled_from(["insert", "update", "delete"]))
    where = draw(st.one_of(_by_key_or_range(), _PREDICATES))
    if kind == "insert":
        rows = draw(st.lists(st.tuples(st.integers(0, 15), _INTS, _FLOATS, _TEXTS),
                             min_size=1, max_size=3))
        return "INSERT INTO t VALUES " + ", ".join(
            f"({', '.join(map(_sql, row))})" for row in rows)
    if kind == "update":
        return f"UPDATE t SET {draw(_ASSIGNMENTS)} WHERE {where}"
    return f"DELETE FROM t WHERE {where}"


@settings(max_examples=100, deadline=None)
@given(rows=_T_ROWS, statements=st.lists(_statements(), min_size=1, max_size=8))
def test_interleaved_writes_on_an_indexed_table(rows, statements):
    """The store under INSERT / UPDATE / DELETE by key and by range: after
    every statement, both hold the same rows (and both refused, or both
    took, an INSERT onto a taken key)."""
    engine, lite = _pair(rows)
    for ddl in ("CREATE INDEX idx_v ON t (v)", "CREATE INDEX idx_s ON t (s)"):
        engine.execute(ddl)
        lite.execute(ddl)
    for sql in statements:
        failed = []
        try:
            engine.execute(sql)
        except BigDawgError as exc:
            failed.append(type(exc).__name__)
        try:
            lite.execute(sql)
        except sqlite3.Error as exc:
            failed.append(type(exc).__name__)
        assert len(failed) in (0, 2), f"{sql}: {failed}"
        assert_agrees(engine, lite, "SELECT * FROM t")
        assert_agrees(engine, lite, "SELECT id, v FROM t WHERE v >= 1")
