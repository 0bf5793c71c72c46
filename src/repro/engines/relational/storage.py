"""Table storage for the relational engine: a row store to write and look up,
a columnar snapshot to scan.

A :class:`HeapTable` stores rows in insertion order keyed by a monotonically
increasing row id, with optional B+tree secondary indexes kept in sync on
insert, update and delete.  Deletes are tombstoned so row ids remain stable
for index entries and in-flight scans.  The row dict is the write and index
store: DML, point lookups and the reference executor read it.  An index
holds no key with a NULL (or NaN) in it (:func:`~repro.engines.relational.
btree.orderable`); a primary key refuses one.

Every table scan of the SELECT pipeline and of the CAST export reads a
:class:`ColumnSnapshot` instead (:meth:`HeapTable.column_snapshot`): the rows
live at one instant, captured under the table lock, whose columns turn into
typed vectors (:mod:`repro.common.vectors`) one at a time, the first time a
scan asks for them, each from those same captured rows.  The snapshot is
memoised on the table and dropped by every mutator — they hold the same lock
— so a static table packs a column once for all the queries that follow,
and a table under writes pays only for the columns its scans touch.

Runtime worker threads share tables: mutations, snapshots and index reads
serialize on a per-table lock, and every scan iterates its own snapshot (an
index read returns one list), so a SELECT, UPDATE or DELETE racing an INSERT
never sees the row dict or a B+tree leaf change under it.  Every mutator
lands all of its rows or none: keys are checked before anything moves.

A :class:`ForeignTable` is the read-only other kind: the columns of an
object another engine exported, scanned in place by SQL that reaches it
through a shim.
"""

from __future__ import annotations

import threading
from datetime import datetime
from operator import itemgetter
from typing import Any, Callable, Iterable, Iterator, Sequence

from repro.common.errors import (
    ConstraintViolationError,
    ObjectNotFoundError,
    SchemaError,
    UnsupportedOperationError,
)
from repro.common.schema import Column, Relation, Schema
from repro.common.types import DataType, coerce
from repro.common.vectors import DictVector, NumericVector, to_list, vector_from_values
from repro.engines.relational.btree import BTreeIndex, orderable

#: The exact Python type :func:`~repro.common.types.coerce` produces per type.
_PYTHON_TYPES = {
    DataType.INTEGER: int,
    DataType.FLOAT: float,
    DataType.TEXT: str,
    DataType.BOOLEAN: bool,
    DataType.TIMESTAMP: datetime,
}


def _holds_exact_types(column: Column, values: Sequence[Any]) -> bool:
    """Whether every value is of the column's exact Python type (or None
    where the column is nullable)."""
    found = set(map(type, values))
    if column.nullable:
        found.discard(type(None))
    return not found - {_PYTHON_TYPES.get(column.dtype)}


class ColumnSnapshot:
    """One table state as columns, each packed on first use.

    ``rows`` is the value tuples live when the snapshot was taken, in
    insertion order; :meth:`column` packs one column of them into its typed
    vector — INTEGER / FLOAT / BOOLEAN a ``NumericVector``, TEXT a
    ``DictVector``, anything else an object array — and keeps it.  Every
    column comes from the same ``rows``, so all have ``len(rows)`` entries
    of one table state however late they are asked for.  Two threads asking
    for one column at once both pack it, to the same content.
    """

    __slots__ = ("schema", "rows", "_columns")

    def __init__(self, schema: Schema, rows: list[tuple[Any, ...]]) -> None:
        self.schema = schema
        self.rows = rows
        self._columns: list[Any] = [None] * len(schema)

    def __len__(self) -> int:
        return len(self.rows)

    def column(self, index: int) -> Any:
        column = self._columns[index]
        if column is None:
            values = list(map(itemgetter(index), self.rows))
            column = vector_from_values(values, self.schema.columns[index].dtype)
            self._columns[index] = column
        return column

    def values(self, index: int, start: int, stop: int) -> list[Any]:
        """Rows ``start:stop`` of one column as native Python values (what a
        CAST export ships): unpacked from the vector when a scan already
        packed it, else read off the captured rows — an export never packs
        a column only to unpack it."""
        column = self._columns[index]
        if column is not None:
            return to_list(column[start:stop])
        return list(map(itemgetter(index), self.rows[start:stop]))


class HeapTable:
    """An append-ordered row store with secondary indexes and a columnar
    snapshot for scans."""

    def __init__(self, name: str, schema: Schema, primary_key: Sequence[str] = ()) -> None:
        self.name = name
        self.schema = schema
        self.primary_key = tuple(primary_key)
        self._rows: dict[int, tuple[Any, ...]] = {}
        #: Guards ``_rows``, ``_next_row_id``, the indexes and ``_snapshot``
        #: against concurrent mutation; never held while a scan yields.
        self._lock = threading.Lock()
        #: The memoised :class:`ColumnSnapshot` of the current rows, or None
        #: since the last mutation.
        self._snapshot: ColumnSnapshot | None = None
        self._next_row_id = 0
        self._indexes: dict[str, tuple[tuple[str, ...], BTreeIndex]] = {}
        if self.primary_key:
            for col in self.primary_key:
                if not schema.has_column(col):
                    raise SchemaError(f"primary key column {col!r} not in table {name!r}")
            self.create_index("__pk__", self.primary_key, unique=True)

    # ------------------------------------------------------------------ basic
    def __len__(self) -> int:
        return len(self._rows)

    @property
    def row_count(self) -> int:
        return len(self._rows)

    def insert(self, values: Sequence[Any]) -> int:
        """Validate, store and index one row. Returns the new row id."""
        return self.insert_many([values])[0]

    def insert_many(self, rows: Sequence[Sequence[Any]]) -> list[int]:
        """Validate, store and index a batch of rows — all of them, or none
        when any fails validation or repeats a unique key; returns their row ids."""
        return list(self._land([self.schema.validate_row(values) for values in rows]))

    def insert_columns(self, columns: Sequence[Sequence[Any]]) -> None:
        """Bulk-load a chunk given as one value sequence per schema column.

        A chunk whose every column already holds exactly the schema's Python
        types (what an engine export or a decoded frame delivers) is checked
        per column and stored as is; any other chunk is coerced row by row
        through :meth:`Schema.validate_row`, as :meth:`insert` would.  The
        chunk lands all or nothing, like :meth:`insert_many`.
        """
        if self._typed(columns):
            self._land(list(zip(*columns)))
        else:
            self._land([self.schema.validate_row(values) for values in zip(*columns)])

    def restore(self, row_id: int, values: tuple[Any, ...]) -> None:
        """Put a deleted row back under its old row id (a rollback undoing a
        DELETE), so older undo records of the same transaction still find
        it; unique keys are checked as :meth:`insert` checks them."""
        self._land([values], row_id)

    def _land(self, rows: list[tuple[Any, ...]], first: int | None = None) -> range:
        """Store validated rows under one lock acquisition: unique keys are
        checked for the whole batch first — a duplicate, in the table or in
        the batch, raises with nothing stored — and the indexes are filled
        after the rows.  The rows take new ids unless ``first`` gives the
        (freed) id of the first.  Returns their row ids."""
        with self._lock:
            keys = {
                name: self._keys_for(rows, key_columns)
                for name, (key_columns, _index) in self._indexes.items()
            }
            for name, (_key_columns, index) in self._indexes.items():
                if index.unique:
                    self._reject_duplicates(name, index, keys[name])
            if first is None:
                first = self._next_row_id
                self._next_row_id += len(rows)
            self._snapshot = None
            self._rows.update(zip(range(first, first + len(rows)), rows))
            for name, (_key_columns, index) in self._indexes.items():
                for row_id, key in enumerate(keys[name], first):
                    index.insert(key, row_id)
        return range(first, first + len(rows))

    def _reject_duplicates(
        self,
        name: str,
        index: BTreeIndex,
        keys: Sequence[tuple[Any, ...]],
        replaced: "set[int] | frozenset[int]" = frozenset(),
    ) -> None:
        """Raise if any of ``keys`` occurs twice among them or is held in the
        unique ``index`` by a row outside ``replaced`` (the rows whose keys
        the same write gives up).  A key with a NULL is never a duplicate,
        but a primary key may not hold one.  Caller holds the lock."""
        kind = "primary key" if name == "__pk__" else f"key in unique index {name!r}"
        seen: set[tuple[Any, ...]] = set()
        for key in keys:
            if not orderable(key):
                if name == "__pk__":
                    raise ConstraintViolationError(
                        f"NULL in primary key {key!r} of table {self.name!r}"
                    )
                continue
            if key in seen or any(row_id not in replaced for row_id in index.search(key)):
                raise ConstraintViolationError(
                    f"duplicate {kind} {key!r} in table {self.name!r}"
                )
            seen.add(key)

    def _typed(self, columns: Sequence[Sequence[Any]]) -> bool:
        """Whether every value of every column is of its schema column's
        exact Python type (or None where the column is nullable)."""
        return len(columns) == len(self.schema) and all(
            _holds_exact_types(column, values) for column, values in zip(self.schema, columns)
        )

    def get(self, row_id: int) -> tuple[Any, ...]:
        """Fetch one row by id."""
        if row_id not in self._rows:
            raise self._no_row(row_id)
        return self._rows[row_id]

    def _no_row(self, row_id: int) -> ObjectNotFoundError:
        return ObjectNotFoundError(f"row {row_id} not found in table {self.name!r}")

    def delete(self, row_id: int) -> None:
        """Delete one row by id, maintaining all indexes."""
        if not self.delete_many([row_id]):
            raise self._no_row(row_id)

    def delete_many(
        self, row_ids: Sequence[int], expected: Sequence[tuple[Any, ...]] | None = None
    ) -> list[tuple[int, tuple[Any, ...]]] | None:
        """Delete rows by id under one lock acquisition, maintaining all
        indexes; a row already gone is skipped.  Returns ``(row id, old
        values)`` of every row deleted — or, when another write replaced one
        of the rows since the caller read ``expected`` (:meth:`_overtaken`),
        None with nothing deleted."""
        with self._lock:
            if expected is not None and self._overtaken(row_ids, expected):
                return None
            gone = [(row_id, self._rows.pop(row_id)) for row_id in row_ids if row_id in self._rows]
            if gone:
                self._snapshot = None
            for columns, index in self._indexes.values():
                for row_id, values in gone:
                    index.delete(self._key_for(values, columns), row_id)
        return gone

    def update(self, row_id: int, new_values: Sequence[Any]) -> None:
        """Replace one row in place (see :meth:`update_many`)."""
        if not self.update_many([(row_id, new_values)]):
            raise self._no_row(row_id)

    def update_many(
        self,
        changes: Sequence[tuple[int, Sequence[Any]]],
        expected: Sequence[tuple[Any, ...]] | None = None,
    ) -> list[tuple[int, tuple[Any, ...]]] | None:
        """Replace rows in place, maintaining all indexes — every row, or
        none.  The shape of :meth:`_land`:

        1. every new row is validated before the lock is taken;
        2. under it, each new unique key is checked within the batch and
           against the rows the batch leaves untouched — so ``SET id = id +
           1`` over ids 1 and 2 succeeds, and a clash raises with rows,
           indexes and snapshot as they were;
        3. then every row and index entry moves, in the same acquisition.

        A row deleted since the caller read it is skipped.  ``expected`` is
        the values the caller computed the new rows from, one per change: if
        another write replaced any of those rows since (:meth:`_overtaken`),
        nothing moves and the call returns None, so the caller can read
        again rather than overwrite that write.  Otherwise returns ``(row id,
        old values)`` of every row replaced.
        """
        validated = [(row_id, self.schema.validate_row(values)) for row_id, values in changes]
        with self._lock:
            if expected is not None and self._overtaken(
                [row_id for row_id, _values in changes], expected
            ):
                return None
            validated = [(row_id, values) for row_id, values in validated if row_id in self._rows]
            old = [(row_id, self._rows[row_id]) for row_id, _values in validated]
            replaced = {row_id for row_id, _values in validated}
            moves = {}
            for name, (columns, index) in self._indexes.items():
                moves[name] = [
                    (row_id, self._key_for(before, columns), self._key_for(after, columns))
                    for (row_id, before), (_row_id, after) in zip(old, validated)
                ]
                if index.unique:
                    self._reject_duplicates(
                        name, index, [new for _row_id, _old, new in moves[name]], replaced
                    )
            if old:
                self._snapshot = None
            for name, (_columns, index) in self._indexes.items():
                moved = [move for move in moves[name] if move[1] != move[2]]
                # Every old entry leaves before any new one lands: a unique
                # key can pass from one row of the batch to another.
                for row_id, before, _after in moved:
                    index.delete(before, row_id)
                for row_id, _before, after in moved:
                    index.insert(after, row_id)
            self._rows.update(validated)
        return old

    def _overtaken(self, row_ids: Sequence[int], expected: Sequence[tuple[Any, ...]]) -> bool:
        """Whether a write replaced any of ``row_ids`` since the caller read
        ``expected`` (their value tuples then, in order).  Every write stores
        a new tuple, so identity tells; a row deleted since does not count.
        Caller holds the lock."""
        rows = self._rows
        return any(
            rows.get(row_id, values) is not values for row_id, values in zip(row_ids, expected)
        )

    def _snapshot_items(self) -> Iterator[tuple[int, tuple[Any, ...]]]:
        with self._lock:
            # Two flat copies zipped lazily: cheaper than one tuple per row.
            return zip(list(self._rows), list(self._rows.values()))

    def column_snapshot(self) -> ColumnSnapshot:
        """The rows live at the call as a :class:`ColumnSnapshot`.

        Capture and memoisation happen under the lock every mutator holds
        while it drops the memo, so the snapshot returned reflects every
        write that finished before the call and none that starts after, and
        a snapshot a write has overtaken is never handed to a later caller.
        """
        with self._lock:
            snapshot = self._snapshot
            if snapshot is None:
                snapshot = ColumnSnapshot(self.schema, list(self._rows.values()))
                self._snapshot = snapshot
            return snapshot

    def scan(self) -> Iterator[tuple[int, tuple[Any, ...]]]:
        """Yield (row_id, values) for every row live at the call, in insertion order."""
        return self._snapshot_items()

    def scan_values(self) -> Iterator[tuple[Any, ...]]:
        """Yield raw value tuples for every row live at the call, in insertion order."""
        with self._lock:
            return iter(list(self._rows.values()))

    def truncate(self) -> None:
        """Remove all rows but keep schema and index definitions."""
        with self._lock:
            self._snapshot = None
            self._rows.clear()
            self._indexes = {
                name: (columns, BTreeIndex(unique=index.unique))
                for name, (columns, index) in self._indexes.items()
            }

    # ---------------------------------------------------------------- indexes
    def create_index(
        self,
        index_name: str,
        columns: Sequence[str],
        unique: bool = False,
        if_not_exists: bool = False,
    ) -> None:
        """Create a B+tree index over the named columns and backfill it
        (rows whose key holds a NULL are not indexed)."""
        if index_name in self._indexes:
            if if_not_exists:
                return
            raise SchemaError(f"index {index_name!r} already exists on {self.name!r}")
        for col in columns:
            if not self.schema.has_column(col):
                raise SchemaError(f"index column {col!r} not in table {self.name!r}")
        index = BTreeIndex(unique=unique)
        resolved = tuple(columns)
        with self._lock:
            for row_id, key in zip(self._rows, self._keys_for(self._rows.values(), resolved)):
                index.insert(key, row_id)
            self._indexes[index_name] = (resolved, index)

    def drop_index(self, index_name: str) -> None:
        with self._lock:
            if index_name not in self._indexes:
                raise ObjectNotFoundError(
                    f"index {index_name!r} does not exist on {self.name!r}"
                )
            del self._indexes[index_name]

    def indexes(self) -> dict[str, tuple[str, ...]]:
        """Return {index name: indexed columns}."""
        return {name: cols for name, (cols, _idx) in self._indexes.items()}

    def index_lookup(self, index_name: str, key: Any) -> list[tuple[int, tuple[Any, ...]]]:
        """Equality lookup through an index: the (row_id, values) pairs live
        at the call, read under the table lock.  A key with a NULL matches
        nothing."""
        if not isinstance(key, tuple):
            key = (key,)
        with self._lock:
            _columns, index = self._indexes[index_name]
            return [(row_id, self._rows[row_id]) for row_id in index.search(key)]

    def index_range(
        self,
        index_name: str,
        low: Any = None,
        high: Any = None,
        include_low: bool = True,
        include_high: bool = True,
    ) -> list[tuple[int, tuple[Any, ...]]]:
        """Range scan through an index: the (row_id, values) pairs live at
        the call, in key order, collected under the table lock (a leaf split
        mid-walk would repeat entries).  A ``None`` bound is open."""
        low_key = (low,) if low is not None and not isinstance(low, tuple) else low
        high_key = (high,) if high is not None and not isinstance(high, tuple) else high
        with self._lock:
            _columns, index = self._indexes[index_name]
            return [
                (row_id, self._rows[row_id])
                for _key, row_id in index.range_scan(low_key, high_key, include_low, include_high)
            ]

    def _key_for(self, values: Sequence[Any], columns: Sequence[str]) -> tuple[Any, ...]:
        return tuple(values[self.schema.index_of(col)] for col in columns)

    def _keys_for(
        self, rows: Sequence[Sequence[Any]], columns: Sequence[str]
    ) -> list[tuple[Any, ...]]:
        """:meth:`_key_for` over many rows, resolving the columns once."""
        positions = [self.schema.index_of(col) for col in columns]
        return [tuple(values[i] for i in positions) for values in rows]

    # ------------------------------------------------------------------ stats
    def statistics(self) -> dict[str, Any]:
        """Cheap table statistics used by the planner's cost model."""
        return {
            "row_count": len(self._rows),
            "column_count": len(self.schema),
            "indexes": list(self._indexes),
        }

    def apply_filter_values(
        self, predicate: Callable[[Sequence[Any]], bool]
    ) -> list[tuple[int, tuple[Any, ...]]]:
        """The (row_id, values) pairs, of the rows live at the call, whose
        value tuple satisfies ``predicate`` (UPDATE/DELETE's WHERE when no
        index path applies).

        Pairs with :func:`repro.common.expressions.compile_predicate`: the
        caller compiles the WHERE clause once and no per-row :class:`Row`
        objects are built while matching.
        """
        return [(row_id, values) for row_id, values in self._snapshot_items() if predicate(values)]


class ForeignTable:
    """A read-only table over a relation another engine exported: what SQL
    over an object that lives outside the scanning engine reads, with no
    heap copy (the relational island's shim reads).

    It holds the schema and one column set, and is its own column snapshot.
    A column the export already stores as a typed vector (the array
    engine's gather) is scanned as is; any other is packed once with
    :func:`~repro.common.vectors.vector_from_values` the first time a scan
    takes it, its values coerced to the schema type first where the export
    left them loose.  Statistics get a row count and :meth:`scan_values`;
    there are no indexes.

    Every write refuses with :class:`UnsupportedOperationError` naming the
    object and its engine: it would land in this copy and vanish with it.
    """

    primary_key: tuple[str, ...] = ()

    def __init__(self, name: str, relation: Relation, engine: str) -> None:
        self.name = name
        self.schema = relation.schema
        #: The engine the object lives in.
        self.engine = engine
        self._length = len(relation)
        self._sources = [relation.column_vector(i) for i in range(len(self.schema))]
        self._columns: list[Any] = [None] * len(self.schema)

    def __len__(self) -> int:
        return self._length

    @property
    def row_count(self) -> int:
        return self._length

    def column_snapshot(self) -> "ForeignTable":
        return self

    def column(self, index: int) -> Any:
        """One column as a typed vector (see :meth:`ColumnSnapshot.column`)."""
        column = self._columns[index]
        if column is None:
            column = self._sources[index]
            if not isinstance(column, (NumericVector, DictVector)):
                column = vector_from_values(
                    self._typed_values(index), self.schema.columns[index].dtype
                )
            self._columns[index] = column
        return column

    def values(self, index: int, start: int, stop: int) -> list[Any]:
        """Rows ``start:stop`` of one column as native Python values."""
        return to_list(self.column(index)[start:stop])

    def _typed_values(self, index: int) -> list[Any]:
        values = to_list(self._sources[index])
        column = self.schema.columns[index]
        if _holds_exact_types(column, values):
            return values
        return [coerce(value, column.dtype) for value in values]

    def scan_values(self) -> Iterator[tuple[Any, ...]]:
        """Yield the value tuples, in export order."""
        return zip(*(self._typed_values(i) for i in range(len(self.schema))))

    def indexes(self) -> dict[str, tuple[str, ...]]:
        return {}

    def refuse_write(self, *_args: Any, **_kwargs: Any) -> Any:
        raise UnsupportedOperationError(
            f"{self.name!r} lives in engine {self.engine!r}, which the relational "
            "island reads through a shim: it cannot be written through SQL"
        )

    # What INSERT, UPDATE, DELETE and CREATE INDEX call; UPDATE and DELETE
    # stop at their matcher, apply_filter_values.  DROP TABLE calls
    # refuse_write itself.
    insert_many = update_many = delete_many = apply_filter_values = refuse_write
    create_index = refuse_write
