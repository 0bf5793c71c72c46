"""Table storage for the relational engine: one append-only column store per
table, read through snapshots.

A :class:`HeapTable` keeps one buffer per schema column, in position order:
INTEGER / FLOAT / BOOLEAN as ``int64`` / ``float64`` / ``bool_`` values plus
a null mask, TEXT as ``int32`` codes into an append-only dictionary, and
TIMESTAMP — or an INTEGER column once it receives a value beyond int64 — as
an object array.  A buffer doubles its capacity when it fills.  A live mask
over the positions marks the current rows.  Writes, under the table lock,
only append or clear a live bit:

* INSERT appends;
* DELETE clears the row's bit;
* UPDATE appends the new version and clears the old one's bit, so, as in
  PostgreSQL's heap, an updated row scans last.

A row id names a row for its life — B+tree entries, transaction undo
records, :meth:`HeapTable.update` and :meth:`HeapTable.delete` use it —
through a ``position → row id`` array and a ``row id → position`` array
(-1 once deleted).  The latter has one 8-byte slot per row id ever issued,
so it grows with every INSERT; compaction does not shrink it.

Every scan and CAST export reads a :class:`ColumnSnapshot`
(:meth:`HeapTable.column_snapshot`): the length, the column buffers and,
only when a dead position exists, a copy of the live mask, all taken under
the lock.  Entries below that length never change and growth reallocates,
so the snapshot then runs lock-free: it shows every write that finished
before it and none that started after.  Nothing is captured, memoised or
invalidated.

Compaction: once dead positions outnumber live ones and number at least
:data:`COMPACT_MIN_DEAD`, the write that crossed the line rewrites the live
rows, in position order, into fresh buffers with fresh dictionaries.  Row
ids and indexes do not change; snapshots taken before keep the old buffers.

An index holds no key with a NULL (or NaN) in it (:func:`~repro.engines.
relational.btree.orderable`); a primary key refuses one.  Every mutator
lands all of its rows or none: keys are checked before anything moves.

A :class:`ForeignTable` is the read-only other kind: a snapshot over the
columns of an object another engine exported, scanned in place by SQL that
reaches it through a shim.
"""

from __future__ import annotations

import threading
from datetime import datetime
from functools import partial
from typing import Any, Callable, Iterator, Sequence

import numpy as np

from repro.common.errors import (
    ConstraintViolationError,
    ObjectNotFoundError,
    SchemaError,
    UnsupportedOperationError,
)
from repro.common.schema import Column, Relation, Schema
from repro.common.types import DataType, coerce
from repro.common.vectors import (
    VECTOR_DTYPES,
    DictVector,
    NumericVector,
    numeric_view,
    object_view,
    to_list,
    vector_from_values,
)
from repro.engines.relational.btree import BTreeIndex, orderable

#: The exact Python type :func:`~repro.common.types.coerce` produces per type.
_PYTHON_TYPES = {
    DataType.INTEGER: int,
    DataType.FLOAT: float,
    DataType.TEXT: str,
    DataType.BOOLEAN: bool,
    DataType.TIMESTAMP: datetime,
}

#: The fewest dead positions a compaction rewrites.
COMPACT_MIN_DEAD = 1024


def _holds_exact_types(column: Column, values: Any) -> bool:
    """Whether every value is of the column's exact Python type (or None
    where the column is nullable); a ``NumericVector`` qualifies by dtype."""
    if isinstance(values, NumericVector):
        dtype = VECTOR_DTYPES.get(column.dtype)
        return dtype is not None and values.values.dtype == dtype and (
            column.nullable or values.nulls is None or not values.nulls.any()
        )
    found = set(map(type, values))
    if column.nullable:
        found.discard(type(None))
    return not found - {_PYTHON_TYPES.get(column.dtype)}


def _grown(buffer: np.ndarray, used: int, needed: int) -> np.ndarray:
    """``buffer`` when it holds ``needed`` entries, else a new buffer of
    double the capacity (at least ``needed``) holding its first ``used``."""
    if needed <= len(buffer):
        return buffer
    grown = np.empty(max(needed, 2 * len(buffer)), dtype=buffer.dtype)
    grown[:used] = buffer[:used]
    return grown


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


def _same(current: Sequence[Any], read: Sequence[Any]) -> bool:
    return all(a == b or (a != a and b != b) for a, b in zip(current, read))


class _NumericColumn:
    """INTEGER / FLOAT / BOOLEAN: fixed-width values plus a null mask."""

    def __init__(self, dtype: Any) -> None:
        self.values = np.empty(16, dtype)
        self.nulls = np.empty(16, np.bool_)
        #: The first NULL's position: a shorter prefix holds none.
        self.first_null: int | None = None

    def append(self, start: int, column: Any) -> None:
        """Store ``column`` from position ``start``; an integer beyond int64
        raises ``OverflowError`` (the table then promotes the column)."""
        stop = start + len(column)
        self.values = _grown(self.values, start, stop)
        self.nulls = _grown(self.nulls, start, stop)
        if stop - start < 8 and not isinstance(column, NumericVector):
            # A few rows (one INSERT or UPDATE): element writes beat packing.
            for position, value in enumerate(column, start):
                self.values[position] = 0 if value is None else value
                self.nulls[position] = value is None
                if value is None and self.first_null is None:
                    self.first_null = position
            return
        values, nulls = numeric_view(column, self.values.dtype)
        self.values[start:stop] = values
        self.nulls[start:stop] = False if nulls is None else nulls
        if self.first_null is None and nulls is not None and nulls.any():
            self.first_null = start + int(nulls.argmax())

    def vector(self, length: int, live: np.ndarray | None) -> NumericVector:
        values = self.values[:length]
        nulls = None
        if self.first_null is not None and self.first_null < length:
            nulls = self.nulls[:length]
        if live is not None:
            values = values[live]
            nulls = None if nulls is None else nulls[live]
        return NumericVector(_read_only(values), None if nulls is None else _read_only(nulls))

    def value(self, position: int) -> Any:
        return None if self.nulls.item(position) else self.values.item(position)


class _TextColumn:
    """TEXT: ``int32`` codes into an append-only dictionary, NULL = -1."""

    def __init__(self) -> None:
        self.codes = np.empty(16, np.int32)
        self.strings: list[str] = []
        self.code_of: dict[Any, int] = {None: -1}
        self._dictionary = _read_only(object_view([None]))

    def append(self, start: int, column: Any) -> None:
        values = to_list(column)
        for value in dict.fromkeys(values):
            if value not in self.code_of:
                self.code_of[value] = len(self.strings)
                self.strings.append(value)
        stop = start + len(values)
        self.codes = _grown(self.codes, start, stop)
        self.codes[start:stop] = list(map(self.code_of.__getitem__, values))

    def dictionary(self) -> np.ndarray:
        """The strings plus the trailing ``None`` code -1 reads: one array
        per dictionary length, so scans of an unchanged dictionary share it."""
        dictionary = self._dictionary
        if len(dictionary) <= len(self.strings):
            dictionary = self._dictionary = _read_only(object_view([*self.strings, None]))
        return dictionary

    def vector(self, length: int, live: np.ndarray | None) -> DictVector:
        codes = self.codes[:length]
        return DictVector(_read_only(codes if live is None else codes[live]), self.dictionary())

    def value(self, position: int) -> Any:
        code = self.codes.item(position)
        return None if code < 0 else self.strings[code]


class _ObjectColumn:
    """TIMESTAMP, and INTEGER past int64: the Python values themselves."""

    def __init__(self) -> None:
        self.values = np.empty(16, object)

    def append(self, start: int, column: Any) -> None:
        values = to_list(column)
        stop = start + len(values)
        self.values = _grown(self.values, start, stop)
        self.values[start:stop] = values

    def vector(self, length: int, live: np.ndarray | None) -> np.ndarray:
        values = self.values[:length]
        return _read_only(values if live is None else values[live])

    def value(self, position: int) -> Any:
        return self.values.item(position)


def _new_column(dtype: DataType) -> Any:
    if dtype is DataType.TEXT:
        return _TextColumn()
    np_dtype = VECTOR_DTYPES.get(dtype)
    return _ObjectColumn() if np_dtype is None else _NumericColumn(np_dtype)


class ColumnSnapshot:
    """One table state as ``len`` rows of typed column vectors — INTEGER /
    FLOAT / BOOLEAN a ``NumericVector``, TEXT a ``DictVector``, anything
    else an object array — each made the first time it is asked for and
    kept.  What every scan and CAST export reads."""

    __slots__ = ("schema", "_length", "_make", "_columns")

    def __init__(self, schema: Schema, length: int, make: Callable[[int], Any]) -> None:
        self.schema = schema
        self._length = length
        self._make = make
        self._columns: list[Any] = [None] * len(schema)

    def __len__(self) -> int:
        return self._length

    def column(self, index: int) -> Any:
        column = self._columns[index]
        if column is None:
            column = self._columns[index] = self._make(index)
        return column

    def scan_values(self) -> Iterator[tuple[Any, ...]]:
        """The value tuples, in order."""
        return zip(*(to_list(self.column(i)) for i in range(len(self.schema))))


class HeapTable:
    """An append-only column store with secondary indexes (see the module
    docstring)."""

    def __init__(self, name: str, schema: Schema, primary_key: Sequence[str] = ()) -> None:
        self.name = name
        self.schema = schema
        self.primary_key = tuple(primary_key)
        #: Guards the buffers, counters and indexes against concurrent
        #: mutation; never held while a scan runs.
        self._lock = threading.Lock()
        self._next_row_id = 0
        self._position = np.empty(16, np.int64)   # row id -> position, -1 once deleted
        self._clear()
        self._indexes: dict[str, tuple[tuple[str, ...], BTreeIndex]] = {}
        if self.primary_key:
            for col in self.primary_key:
                if not schema.has_column(col):
                    raise SchemaError(f"primary key column {col!r} not in table {name!r}")
            self.create_index("__pk__", self.primary_key, unique=True)

    def _clear(self) -> None:
        """Fresh, empty buffers; row ids keep counting."""
        self._columns = [_new_column(column.dtype) for column in self.schema]
        self._row_ids = np.empty(16, np.int64)    # position -> row id
        self._live = np.empty(16, np.bool_)
        self._length = 0    # positions used
        self._dead = 0      # positions whose live bit is clear

    # ------------------------------------------------------------------ basic
    def __len__(self) -> int:
        return self._length - self._dead

    @property
    def row_count(self) -> int:
        return len(self)

    def insert(self, values: Sequence[Any]) -> int:
        """Validate, store and index one row. Returns the new row id."""
        return self.insert_many([values])[0]

    def insert_many(self, rows: Sequence[Sequence[Any]]) -> list[int]:
        """Validate, store and index a batch of rows — all of them, or none
        when any fails validation or repeats a unique key; returns their row ids."""
        return list(self._land(self._transpose([self.schema.validate_row(v) for v in rows])))

    def insert_columns(self, columns: Sequence[Sequence[Any]]) -> None:
        """Bulk-load a chunk given as one value sequence per schema column.

        A chunk whose every column already holds exactly the schema's types
        (a ``NumericVector`` of the column's dtype, or values of its exact
        Python type: what an engine export or a decoded frame delivers) is
        appended as is; any other chunk is coerced row by row through
        :meth:`Schema.validate_row`, as :meth:`insert` would.  The chunk
        lands all or nothing, like :meth:`insert_many`.
        """
        if not self._typed(columns):
            columns = self._transpose([self.schema.validate_row(v) for v in zip(*columns)])
        self._land(columns)

    def restore(self, row_id: int, values: tuple[Any, ...]) -> None:
        """Put a deleted row back under its old row id (a rollback undoing a
        DELETE), so older undo records of the same transaction still find
        it; unique keys are checked as :meth:`insert` checks them."""
        self._land(self._transpose([values]), row_id)

    def _transpose(self, rows: Sequence[Sequence[Any]]) -> Sequence[Sequence[Any]]:
        return list(zip(*rows)) if rows else [()] * len(self.schema)

    def _land(self, columns: Sequence[Sequence[Any]], first: int | None = None) -> range:
        """Store validated rows, one value sequence per schema column, under
        one lock acquisition: unique keys are checked for the whole batch
        first — a duplicate, in the table or in the batch, raises with
        nothing stored — and the indexes are filled after the rows.  The
        rows take new ids unless ``first`` gives the (freed) id of the
        first.  Returns their row ids."""
        count = len(columns[0])
        with self._lock:
            keys = {
                name: self._keys_for(columns.__getitem__, key_columns)
                for name, (key_columns, _index) in self._indexes.items()
            }
            for name, (_key_columns, index) in self._indexes.items():
                if index.unique:
                    self._reject_duplicates(name, index, keys[name])
            if first is None:
                first = self._next_row_id
                self._next_row_id += count
            row_ids = range(first, first + count)
            self._append(columns, np.arange(first, first + count))
            for name, (_key_columns, index) in self._indexes.items():
                for row_id, key in zip(row_ids, keys[name]):
                    index.insert(key, row_id)
        return row_ids

    def _append(self, columns: Sequence[Any], row_ids: np.ndarray) -> None:
        """Store one row version per entry of ``columns`` at new positions,
        for ``row_ids``, and point those ids at them.  Caller holds the lock."""
        start = self._length
        stop = start + len(row_ids)
        for index, values in enumerate(columns):
            column = self._columns[index]
            try:
                column.append(start, values)
            except OverflowError:   # beyond int64: Python ints from now on
                promoted = _ObjectColumn()
                promoted.append(0, column.vector(start, None))
                promoted.append(start, values)
                self._columns[index] = promoted
        self._row_ids = _grown(self._row_ids, start, stop)
        self._row_ids[start:stop] = row_ids
        self._live = _grown(self._live, start, stop)
        self._live[start:stop] = True
        self._position = _grown(self._position, len(self._position), self._next_row_id)
        self._position[row_ids] = np.arange(start, stop)
        self._length = stop

    def _kill(self, row_ids: np.ndarray) -> None:
        """Clear the live bits of ``row_ids``' current versions.  Caller
        holds the lock."""
        self._live[self._position[row_ids]] = False
        self._dead += len(row_ids)

    def _settle(self) -> None:
        """Compact if dead positions outnumber live ones and number at least
        :data:`COMPACT_MIN_DEAD`.  Caller holds the lock."""
        if self._dead < COMPACT_MIN_DEAD or self._dead <= self._length - self._dead:
            return
        live = np.flatnonzero(self._live[: self._length])
        columns = [column.vector(self._length, live) for column in self._columns]
        row_ids = self._row_ids[live]
        self._clear()
        self._append(columns, row_ids)

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
        """Whether every column holds exactly its schema column's types."""
        return len(columns) == len(self.schema) and all(
            _holds_exact_types(column, values) for column, values in zip(self.schema, columns)
        )

    def get(self, row_id: int) -> tuple[Any, ...]:
        """Fetch one row by id."""
        with self._lock:
            position = self._where(row_id)
            if position < 0:
                raise self._no_row(row_id)
            return self._row_at(position)

    def _where(self, row_id: int) -> int:
        """The position of ``row_id``'s current version, -1 when it has none."""
        return int(self._position[row_id]) if 0 <= row_id < self._next_row_id else -1

    def _row_at(self, position: int) -> tuple[Any, ...]:
        return tuple(column.value(position) for column in self._columns)

    def _pairs(self, row_ids: list[int]) -> list[tuple[int, tuple[Any, ...]]]:
        """``(row id, values)`` of live rows, gathered a column at a time
        when there are several.  Caller holds the lock."""
        if len(row_ids) < 2:
            return [(row_id, self._row_at(self._position[row_id])) for row_id in row_ids]
        positions = self._position[row_ids]
        columns = [column.vector(self._length, positions).tolist() for column in self._columns]
        return list(zip(row_ids, zip(*columns)))

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
        values)`` of every row deleted — or, when another write changed one
        of the rows since the caller read ``expected`` (:meth:`_overtaken`),
        None with nothing deleted."""
        with self._lock:
            if expected is not None and self._overtaken(row_ids, expected):
                return None
            positions = {row_id: self._where(row_id) for row_id in row_ids}
            gone = [(row_id, self._row_at(at)) for row_id, at in positions.items() if at >= 0]
            if gone:
                ids = np.array([row_id for row_id, _values in gone], np.int64)
                self._kill(ids)
                self._position[ids] = -1
            for columns, index in self._indexes.values():
                for row_id, values in gone:
                    index.delete(self._key_for(values, columns), row_id)
            self._settle()
        return gone

    def update(self, row_id: int, new_values: Sequence[Any]) -> None:
        """Replace one row (see :meth:`update_many`)."""
        if not self.update_many([(row_id, new_values)]):
            raise self._no_row(row_id)

    def update_many(
        self,
        changes: Sequence[tuple[int, Sequence[Any]]],
        expected: Sequence[tuple[Any, ...]] | None = None,
    ) -> list[tuple[int, tuple[Any, ...]]] | None:
        """Replace rows, maintaining all indexes — every row, or none.  The
        shape of :meth:`_land`:

        1. every new row is validated before the lock is taken;
        2. under it, each new unique key is checked within the batch and
           against the rows the batch leaves untouched — so ``SET id = id +
           1`` over ids 1 and 2 succeeds, and a clash raises with rows and
           indexes as they were;
        3. then every new version is appended, its old one cleared and
           every index entry moved, in the same acquisition.

        A row deleted since the caller read it is skipped.  ``expected`` is
        the values the caller computed the new rows from, one per change: if
        another write changed any of those rows since (:meth:`_overtaken`),
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
            validated = list({
                row_id: values for row_id, values in validated if self._where(row_id) >= 0
            }.items())
            old = [(row_id, self._row_at(self._where(row_id))) for row_id, _values in validated]
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
            if validated:
                ids = np.array([row_id for row_id, _values in validated], np.int64)
                self._kill(ids)
                self._append(self._transpose([values for _row_id, values in validated]), ids)
            for name, (_columns, index) in self._indexes.items():
                moved = [move for move in moves[name] if move[1] != move[2]]
                # Every old entry leaves before any new one lands: a unique
                # key can pass from one row of the batch to another.
                for row_id, before, _after in moved:
                    index.delete(before, row_id)
                for row_id, _before, after in moved:
                    index.insert(after, row_id)
            self._settle()
        return old

    def _overtaken(self, row_ids: Sequence[int], expected: Sequence[tuple[Any, ...]]) -> bool:
        """Whether a write changed any of ``row_ids`` since the caller read
        ``expected`` (their value tuples then, in order): its current values
        differ, NaN matching NaN.  A row deleted since does not count, nor
        does a write that left the values as they were — the caller's write,
        computed from them, is then that write run after it.  Caller holds
        the lock."""
        for row_id, values in zip(row_ids, expected):
            position = self._where(row_id)
            if position >= 0 and not _same(self._row_at(position), values):
                return True
        return False

    def _state(self) -> tuple[ColumnSnapshot, np.ndarray]:
        """The rows live now, as a snapshot plus their row ids.  Caller holds
        the lock; what it returns is read without it."""
        length, columns = self._length, list(self._columns)
        live = self._live[:length].copy() if self._dead else None
        row_ids = self._row_ids[:length] if live is None else self._row_ids[:length][live]
        snapshot = ColumnSnapshot(
            self.schema, len(row_ids), lambda index: columns[index].vector(length, live)
        )
        return snapshot, row_ids

    def column_snapshot(self) -> ColumnSnapshot:
        """The rows live at the call, in position order, as a
        :class:`ColumnSnapshot` that no later write changes."""
        with self._lock:
            return self._state()[0]

    def scan(self) -> Iterator[tuple[int, tuple[Any, ...]]]:
        """Yield (row_id, values) for every row live at the call, in position order."""
        with self._lock:
            snapshot, row_ids = self._state()
        return zip(row_ids.tolist(), snapshot.scan_values())

    def scan_values(self) -> Iterator[tuple[Any, ...]]:
        """Yield raw value tuples for every row live at the call, in position order."""
        return self.column_snapshot().scan_values()

    def truncate(self) -> None:
        """Remove all rows but keep schema and index definitions."""
        with self._lock:
            self._position[: self._next_row_id] = -1
            self._clear()
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
            snapshot, row_ids = self._state()
            for row_id, key in zip(row_ids.tolist(), self._keys_for(snapshot.column, resolved)):
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
            return self._pairs(index.search(key))

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
            return self._pairs([
                row_id
                for _key, row_id in index.range_scan(low_key, high_key, include_low, include_high)
            ])

    def _key_for(self, values: Sequence[Any], columns: Sequence[str]) -> tuple[Any, ...]:
        return tuple(values[self.schema.index_of(col)] for col in columns)

    def _keys_for(
        self, column: Callable[[int], Sequence[Any]], names: Sequence[str]
    ) -> list[tuple[Any, ...]]:
        """The key over ``names`` of every row, given ``column(i)``, the
        values of schema column ``i``."""
        return list(zip(*(to_list(column(self.schema.index_of(name))) for name in names)))

    # ------------------------------------------------------------------ stats
    def statistics(self) -> dict[str, Any]:
        """Cheap table statistics used by the planner's cost model."""
        return {
            "row_count": len(self),
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
        return [(row_id, values) for row_id, values in self.scan() if predicate(values)]


def _packed(relation: Relation, index: int) -> Any:
    """Column ``index`` of ``relation`` as a typed vector: as stored when it
    already is one, else packed, its values coerced to the schema type first
    where the export left them loose."""
    column = relation.column_vector(index)
    if isinstance(column, (NumericVector, DictVector)):
        return column
    schema_column = relation.schema.columns[index]
    values = to_list(column)
    if not _holds_exact_types(schema_column, values):
        values = [coerce(value, schema_column.dtype) for value in values]
    return vector_from_values(values, schema_column.dtype)


class ForeignTable(ColumnSnapshot):
    """A read-only table over a relation another engine exported: what SQL
    over an object that lives outside the scanning engine reads, with no
    heap copy (the relational island's shim reads).

    It is its own column snapshot over the relation's columns (see
    :func:`_packed`).  Statistics get a row count and :meth:`scan_values`;
    there are no indexes.  Every write refuses with
    :class:`UnsupportedOperationError` naming the object and its engine: it
    would land in this copy and vanish with it.
    """

    primary_key: tuple[str, ...] = ()

    def __init__(self, name: str, relation: Relation, engine: str) -> None:
        super().__init__(relation.schema, len(relation), partial(_packed, relation))
        self.name = name
        #: The engine the object lives in.
        self.engine = engine

    @property
    def row_count(self) -> int:
        return len(self)

    def column_snapshot(self) -> "ForeignTable":
        return self

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
