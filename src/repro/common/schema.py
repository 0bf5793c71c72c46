"""Relational schemas and relations — the lingua franca of the polystore.

Every island answers, and every CAST and shim moves, one result type: a
:class:`Relation`, a :class:`Schema` plus one column per schema column.
Columns are what is stored (any kind :mod:`repro.common.vectors`
describes), and a relation never changes after it is built.
:attr:`Relation.rows` is a read-only view of :class:`Row` objects, built
from the columns the first time someone asks.  ``Relation(schema, rows)``
is where values from outside are checked and coerced to the schema;
:meth:`Relation.from_columns` is how engines, islands and codecs hand over
columns they already produced, with no check.  Each engine translates its
native representation to and from this form at the shim/CAST boundary.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import repeat
from typing import Any, Iterable, Iterator, Sequence

import numpy as np

from repro.common import vectors
from repro.common.errors import SchemaError, TypeMismatchError
from repro.common.types import DataType, coerce, common_type, parse_type


def name_suffix(name: str) -> str:
    """The last dotted segment of ``name``, lowercased: what a bare name and
    a qualified one (``t.col``) must share to match."""
    return name.lower().rpartition(".")[2]


@dataclass(frozen=True)
class Column:
    """A named, typed column.

    Parameters
    ----------
    name:
        Column name; comparisons are case-insensitive but the original case is
        preserved for display.
    dtype:
        Scalar type of the column.
    nullable:
        Whether NULL values are allowed.
    """

    name: str
    dtype: DataType
    nullable: bool = True

    def __post_init__(self) -> None:
        if not self.name:
            raise SchemaError("column name must be non-empty")
        object.__setattr__(self, "dtype", parse_type(self.dtype))

    def with_name(self, name: str) -> "Column":
        """Return a copy of this column under a different name."""
        return Column(name, self.dtype, self.nullable)

    def matches(self, name: str) -> bool:
        """Case-insensitive name comparison, also matching a qualified suffix:
        ``t.col`` matches ``col`` and vice versa."""
        return self.name.lower() == name.lower() or name_suffix(self.name) == name_suffix(name)


class Schema:
    """An ordered collection of :class:`Column` objects.

    A schema never changes once built, so it keeps what name lookups need:
    a map from each lowercase name to its position, and (built the first
    time a name misses it) one from each :func:`name_suffix` to the
    positions that share it, plus the qualified copies :meth:`prefixed`
    has handed out.
    """

    def __init__(self, columns: Sequence[Column | tuple[str, Any]]) -> None:
        normalized: list[Column] = []
        for col in columns:
            if isinstance(col, Column):
                normalized.append(col)
            else:
                name, dtype = col[0], col[1]
                nullable = col[2] if len(col) > 2 else True
                normalized.append(Column(name, parse_type(dtype), nullable))
        names = [c.name.lower() for c in normalized]
        if len(set(names)) != len(names):
            raise SchemaError(f"duplicate column names in schema: {names}")
        self._columns = tuple(normalized)
        self._index = dict(zip(names, range(len(names))))
        self._suffixes: dict[str, tuple[int, ...]] | None = None
        self._prefixed: dict[str, Schema] | None = None

    @property
    def columns(self) -> tuple[Column, ...]:
        return self._columns

    @property
    def names(self) -> list[str]:
        return [c.name for c in self._columns]

    @property
    def types(self) -> list[DataType]:
        return [c.dtype for c in self._columns]

    def __len__(self) -> int:
        return len(self._columns)

    def __iter__(self) -> Iterator[Column]:
        return iter(self._columns)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Schema):
            return NotImplemented
        return self._columns == other._columns

    def __hash__(self) -> int:
        return hash(self._columns)

    def __repr__(self) -> str:
        cols = ", ".join(f"{c.name}:{c.dtype}" for c in self._columns)
        return f"Schema({cols})"

    def _positions(self, name: str) -> tuple[int, ...]:
        """Where ``name`` resolves: the column named exactly that (case
        aside), else every column whose suffix is the name's."""
        exact = self._index.get(name.lower())
        if exact is not None:
            return (exact,)
        if self._suffixes is None:
            suffixes: dict[str, tuple[int, ...]] = {}
            for i, column in enumerate(self._columns):
                key = name_suffix(column.name)
                suffixes[key] = suffixes.get(key, ()) + (i,)
            self._suffixes = suffixes
        return self._suffixes.get(name_suffix(name), ())

    def find(self, name: str) -> int | None:
        """The position ``name`` resolves to, or None when it names no
        column or several."""
        positions = self._positions(name)
        return positions[0] if len(positions) == 1 else None

    def index_of(self, name: str) -> int:
        """Return the ordinal position of a column by (case-insensitive) name."""
        positions = self._positions(name)
        if len(positions) == 1:
            return positions[0]
        if positions:
            raise SchemaError(f"ambiguous column reference: {name!r}")
        raise SchemaError(f"no such column: {name!r} in {self.names}")

    def column(self, name: str) -> Column:
        return self._columns[self.index_of(name)]

    def has_column(self, name: str) -> bool:
        return self.find(name) is not None

    def project(self, names: Sequence[str]) -> "Schema":
        """Return a new schema with only the named columns, in the given order."""
        return Schema([self.column(n) for n in names])

    def rename(self, mapping: dict[str, str]) -> "Schema":
        """Return a new schema with columns renamed according to ``mapping``."""
        lowered = {k.lower(): v for k, v in mapping.items()}
        return Schema(
            [
                c.with_name(lowered.get(c.name.lower(), c.name))
                for c in self._columns
            ]
        )

    def prefixed(self, prefix: str) -> "Schema":
        """Return a schema whose columns are qualified as ``prefix.column``:
        the same object for the same prefix while the memo, which starts
        over past eight prefixes, holds it."""
        memo = self._prefixed
        if memo is None:
            memo = self._prefixed = {}
        schema = memo.get(prefix)
        if schema is None:
            if len(memo) >= 8:
                memo.clear()
            schema = memo[prefix] = Schema([c.with_name(f"{prefix}.{c.name}") for c in self._columns])
        return schema

    def concat(self, other: "Schema") -> "Schema":
        """Concatenate two schemas (used by joins)."""
        return Schema(list(self._columns) + list(other.columns))

    def merge_types(self, other: "Schema") -> "Schema":
        """Return a schema unifying column types positionally (used by UNION/CAST)."""
        if len(self) != len(other):
            raise SchemaError(
                f"cannot merge schemas of different widths: {len(self)} vs {len(other)}"
            )
        merged = []
        for a, b in zip(self._columns, other.columns):
            merged.append(Column(a.name, common_type(a.dtype, b.dtype), a.nullable or b.nullable))
        return Schema(merged)

    def validate_row(self, values: Sequence[Any]) -> tuple[Any, ...]:
        """Coerce a sequence of values to this schema, raising on mismatch."""
        if len(values) != len(self._columns):
            raise SchemaError(
                f"row width {len(values)} does not match schema width {len(self._columns)}"
            )
        out = []
        for value, col in zip(values, self._columns):
            if value is None and not col.nullable:
                raise TypeMismatchError(f"column {col.name!r} is not nullable")
            out.append(coerce(value, col.dtype))
        return tuple(out)


class Row:
    """A single tuple bound to a :class:`Schema`.

    Rows are immutable; engines produce new rows rather than mutating.
    """

    __slots__ = ("_schema", "_values")

    def __init__(self, schema: Schema, values: Sequence[Any], validate: bool = False) -> None:
        self._schema = schema
        if validate:
            self._values = schema.validate_row(values)
        else:
            self._values = tuple(values)

    @property
    def schema(self) -> Schema:
        return self._schema

    @property
    def values(self) -> tuple[Any, ...]:
        return self._values

    def __getitem__(self, key: int | str) -> Any:
        if isinstance(key, int):
            return self._values[key]
        return self._values[self._schema.index_of(key)]

    def get(self, key: str, default: Any = None) -> Any:
        try:
            return self[key]
        except SchemaError:
            return default

    def __len__(self) -> int:
        return len(self._values)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Row):
            return self._values == other._values
        if isinstance(other, tuple):
            return self._values == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values)

    def __repr__(self) -> str:
        pairs = ", ".join(f"{n}={v!r}" for n, v in zip(self._schema.names, self._values))
        return f"Row({pairs})"

    def to_dict(self) -> dict[str, Any]:
        """Return the row as a plain ``{column: value}`` dictionary."""
        return dict(zip(self._schema.names, self._values))

    def concat(self, other: "Row", schema: Schema | None = None) -> "Row":
        """Concatenate two rows (used by joins)."""
        joined_schema = schema if schema is not None else self._schema.concat(other.schema)
        return Row(joined_schema, self._values + other.values)

    def project(self, names: Sequence[str]) -> "Row":
        """Return a row containing only the named columns."""
        schema = self._schema.project(names)
        return Row(schema, tuple(self[n] for n in names))


class Relation:
    """A result set: a schema, one column per schema column and a length.

    The unit of exchange at island boundaries, the return type of every
    island ``execute`` call and what CAST moves between engines.  A column
    is any kind :mod:`repro.common.vectors` describes — a ``NumericVector``,
    a ``DictVector``, an object array or a list — and is never written
    after the relation is built.

    ``Relation(schema, rows)`` checks and coerces plain value rows through
    :meth:`Schema.validate_row` (a :class:`Row` is taken as already
    checked); :meth:`from_columns` takes its producer's columns unchecked.
    """

    #: Set (per instance) by the runtime when this result was served from the
    #: stale cache while an engine's circuit breaker was open — possibly out
    #: of date, and the caller opted into receiving it anyway.
    stale = False

    def __init__(self, schema: Schema, rows: Iterable[Row | Sequence[Any]] = ()) -> None:
        width = len(schema)
        values: list[tuple[Any, ...]] = []
        for row in rows:
            if isinstance(row, Row):
                if len(row) != width:
                    raise SchemaError("row width does not match relation schema")
                values.append(row.values)
            else:
                values.append(schema.validate_row(row))
        self._schema = schema
        self._columns = tuple(map(list, zip(*values))) if values else tuple([] for _ in schema)
        self._length = len(values)
        self._rows: tuple[Row, ...] | None = None

    @classmethod
    def from_columns(
        cls, schema: Schema, columns: Sequence[Any], length: int | None = None
    ) -> "Relation":
        """A relation over ``columns`` as given, one per schema column, with
        no check; ``length`` is needed only when there are no columns."""
        relation = cls.__new__(cls)
        relation._schema = schema
        relation._columns = tuple(columns)
        if length is None:
            length = len(relation._columns[0]) if relation._columns else 0
        relation._length = length
        relation._rows = None
        return relation

    @property
    def schema(self) -> Schema:
        return self._schema

    @property
    def rows(self) -> tuple[Row, ...]:
        """The rows, read-only: built from the columns' native values on
        first access, then kept (two threads racing here build the same)."""
        rows = self._rows
        if rows is None:
            schema = self._schema
            if self._columns:
                values = zip(*map(vectors.to_list, self._columns))
            else:
                values = repeat((), self._length)
            rows = self._rows = tuple(Row(schema, v) for v in values)
        return rows

    def __len__(self) -> int:
        return self._length

    def __iter__(self) -> Iterator[Row]:
        return iter(self.rows)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Relation):
            return NotImplemented
        return self._schema == other._schema and self.rows == other.rows

    def __repr__(self) -> str:
        return f"Relation({self._schema!r}, {len(self)} rows)"

    def column_values(self, index: int) -> list[Any]:
        """One column (by ordinal position) as a list of native values,
        read off the stored column without building a row."""
        return vectors.to_list(self._columns[index])

    def column_vector(self, index: int) -> Any:
        """One column as stored: a typed vector (:mod:`repro.common.vectors`)
        where the producer stored one."""
        return self._columns[index]

    def column(self, name: str) -> list[Any]:
        """Return all values of one column as a list."""
        return self.column_values(self._schema.index_of(name))

    def to_dicts(self) -> list[dict[str, Any]]:
        """Return the relation as a list of ``{column: value}`` dictionaries."""
        return [row.to_dict() for row in self.rows]

    def sorted_by(self, *names: str, descending: bool = False) -> "Relation":
        """Return a copy sorted by the given columns (NULLs last)."""
        indexes = [self._schema.index_of(n) for n in names]

        def key(row: Row) -> tuple:
            parts = []
            for i in indexes:
                value = row.values[i]
                parts.append((value is None, value))
            return tuple(parts)

        return Relation(self._schema, sorted(self.rows, key=key, reverse=descending))

    @classmethod
    def from_dicts(cls, schema: Schema, records: Iterable[dict[str, Any]]) -> "Relation":
        """Build a relation from dictionaries keyed by column name."""
        return cls(schema, [[record.get(name) for name in schema.names] for record in records])

    def head(self, n: int) -> "Relation":
        """Return the first ``n`` rows as a new relation (sharing columns)."""
        return Relation.from_columns(
            self._schema,
            [column[:n] for column in self._columns],
            len(range(self._length)[:n]),
        )


class ColumnBatch:
    """A bounded batch of tuples stored column-wise.

    This is the unit of exchange inside the vectorized relational executor:
    operators stream ``ColumnBatch`` objects instead of per-tuple
    :class:`Row` objects.  A column is any kind :mod:`repro.common.vectors`
    describes — the typed vectors a table scan hands out, or a plain
    sequence of Python values — and is read-only: operators build new
    columns rather than mutating.  :meth:`value_rows` and :meth:`row` are
    where a batch turns back into native Python tuples.
    """

    __slots__ = ("schema", "columns", "_length")

    def __init__(
        self, schema: Schema, columns: Sequence[Sequence[Any]], length: int | None = None
    ) -> None:
        self.schema = schema
        self.columns = list(columns)
        if length is None:
            length = len(self.columns[0]) if self.columns else 0
        self._length = length

    @classmethod
    def from_value_rows(cls, schema: Schema, value_rows: Sequence[Sequence[Any]]) -> "ColumnBatch":
        """Transpose a list of value tuples into a columnar batch.

        Columns are stored as the tuples ``zip`` produces — batch columns
        are read-only by convention, so skipping the per-column list copy
        keeps the transpose single-pass.
        """
        count = len(value_rows)
        if count == 0:
            return cls(schema, [[] for _ in schema], 0)
        return cls(schema, list(zip(*value_rows)), count)

    def __len__(self) -> int:
        return self._length

    def value_rows(self) -> Iterator[tuple[Any, ...]]:
        """Yield the batch's tuples row-wise (the batch/tuple boundary)."""
        if not self.columns:
            return (() for _ in range(self._length))
        return zip(*self.columns)

    def row(self, index: int) -> tuple[Any, ...]:
        """One tuple of the batch, without materializing the others."""
        return tuple(column[index] for column in self.columns)

    def with_schema(self, schema: Schema) -> "ColumnBatch":
        """The same columns under a different (equally wide) schema."""
        return ColumnBatch(schema, self.columns, self._length)

    def select(self, schema: Schema, indices: Sequence[int]) -> "ColumnBatch":
        """The columns at ``indices`` (shared, not copied) under ``schema``."""
        return ColumnBatch(schema, [self.columns[i] for i in indices], self._length)

    def slice(self, start: int, stop: int) -> "ColumnBatch":
        """Rows ``start:stop`` (``0 <= start <= stop <= len``); typed vectors
        come back as views, not copies."""
        return ColumnBatch(
            self.schema, [column[start:stop] for column in self.columns], stop - start
        )

    def compress(self, mask: Sequence[bool]) -> "ColumnBatch":
        """Keep only the rows where ``mask`` is true.

        A numpy boolean mask (the filter kernels' output) compresses each
        column with a C-speed boolean gather that keeps its kind; list
        masks (the row-closure fallback) use the Python path.
        """
        if isinstance(mask, np.ndarray):
            kept = [vectors.take(column, mask) for column in self.columns]
            return ColumnBatch(self.schema, kept, int(np.count_nonzero(mask)))
        kept = [
            [value for value, keep in zip(column, mask) if keep]
            for column in self.columns
        ]
        length = len(kept[0]) if kept else sum(1 for keep in mask if keep)
        return ColumnBatch(self.schema, kept, length)

    def take(self, indices: Sequence[int]) -> "ColumnBatch":
        """Gather rows by position, in Python (small index lists)."""
        return ColumnBatch(
            self.schema,
            [[column[i] for i in indices] for column in self.columns],
            len(indices),
        )

    def gather(self, indices: Any, pad: Any = None) -> "ColumnBatch":
        """Vectorized row gather by a numpy integer array: each column keeps
        its kind (see :func:`repro.common.vectors.take`).  ``pad`` marks the
        output rows that are outer-join NULL padding."""
        return ColumnBatch(
            self.schema,
            [vectors.take(column, indices, pad) for column in self.columns],
            int(len(indices)),
        )

    @classmethod
    def concat(cls, schema: Schema, batches: Sequence["ColumnBatch"]) -> "ColumnBatch":
        """Vertically concatenate batches into one (used to pin a join's build
        side in memory as columns, never as rows)."""
        if not batches:
            return cls(schema, [[] for _ in schema], 0)
        columns = [
            vectors.concat(parts) for parts in zip(*(batch.columns for batch in batches))
        ]
        return cls(schema, columns, sum(len(batch) for batch in batches))

    @classmethod
    def nulls(cls, schema: Schema, length: int) -> "ColumnBatch":
        """An all-NULL batch: the padding side of an outer join's unmatched rows."""
        return cls(schema, [[None] * length for _ in schema], length)


@dataclass
class TableDefinition:
    """A named table plus optional constraints, as stored in a catalog."""

    name: str
    schema: Schema
    primary_key: tuple[str, ...] = ()
    engine: str | None = None
    properties: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for key_col in self.primary_key:
            if not self.schema.has_column(key_col):
                raise SchemaError(
                    f"primary key column {key_col!r} not present in schema for {self.name!r}"
                )
