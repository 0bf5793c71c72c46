"""Serialization codecs used by the CAST operator.

The paper contrasts naive *file-based import/export* between engines with a
*binary, parallel* access path (Section 2.1).  We model both:

* :class:`CsvCodec` — the file-based path: every value is rendered to text,
  written line by line, then re-parsed and re-coerced on the receiving side.
* :class:`BinaryCodec` — the direct path: every relation is packed
  *columnar* — one null-flag vector plus one contiguous value buffer per
  column — into a compact binary frame, so encoding and decoding a chunk is
  a handful of bulk numpy conversions, with no text parsing and no per-value
  loop.  A fixed-width column stays a typed vector on both sides: encoding
  reads a ``NumericVector``'s arrays and decoding hands one back over the
  frame, so a numeric CAST makes no Python value per cell.

Both codecs also support the chunked CAST pipeline through
``encode_chunks`` / ``decode_chunks``: each chunk becomes one independent,
self-describing frame, so a streaming CAST never holds more than a single
chunk's payload in memory.

Timestamps are normalized to UTC on encode: naive datetimes are interpreted
as UTC wall-clock times (not local time), so a value decodes to the same
instant regardless of the host timezone.

Both codecs round-trip a :class:`~repro.common.schema.Relation`, so the CAST
benchmarks compare like for like.
"""

from __future__ import annotations

import io
import struct
from datetime import datetime, timezone
from typing import Any, Iterable, Iterator

import numpy as np

from repro.common.errors import CastError
from repro.common.schema import Relation, Schema
from repro.common.types import DataType, coerce
from repro.common.vectors import DictVector, NumericVector, object_view, to_list


def _timestamp_to_epoch(value: Any) -> float:
    """Convert a timestamp value to UTC epoch seconds.

    Naive datetimes are treated as UTC wall-clock times; interpreting them in
    local time would make the decoded instant depend on the host timezone.
    """
    if isinstance(value, datetime):
        if value.tzinfo is None:
            value = value.replace(tzinfo=timezone.utc)
        return value.timestamp()
    return float(value)


class ChunkedCodecMixin:
    """Frame-per-chunk streaming on top of a codec's ``encode``/``decode``.

    Each chunk becomes one independent, self-describing payload (CSV frames
    carry their own header line; binary frames their own type tags), so any
    frame decodes on its own and a consumer never holds more than one frame.
    """

    def encode_chunks(self, chunks: Iterable[Relation]) -> Iterator[bytes]:
        """Encode a stream of chunks as independent payloads, one at a time."""
        for chunk in chunks:
            yield self.encode(chunk)

    def decode_chunks(self, payloads: Iterable[bytes], schema: Schema) -> Iterator[Relation]:
        """Decode a stream of independent payloads back into relation chunks."""
        for payload in payloads:
            yield self.decode(payload, schema)


class CsvCodec(ChunkedCodecMixin):
    """Text (CSV-like) encoding of a relation, modelling file-based export/import."""

    DELIMITER = ","
    NULL_TOKEN = r"\N"

    # Kept in sync with the boolean tokens repro.common.types.coerce accepts,
    # so a value that imports through validate_row also parses from CSV.
    _TRUE_TOKENS = frozenset(("true", "t", "1", "yes"))
    _FALSE_TOKENS = frozenset(("false", "f", "0", "no"))

    def encode(self, relation: Relation) -> bytes:
        """Render a relation to delimited text, one row per line."""
        buffer = io.StringIO()
        buffer.write(self.DELIMITER.join(relation.schema.names))
        buffer.write("\n")
        for row in relation:
            fields = []
            for value in row.values:
                fields.append(self._render(value))
            buffer.write(self.DELIMITER.join(fields))
            buffer.write("\n")
        return buffer.getvalue().encode("utf-8")

    def decode(self, payload: bytes, schema: Schema) -> Relation:
        """Parse delimited text back into a relation, coercing each field.

        Quoted fields may contain the delimiter, doubled quotes and embedded
        newlines, exactly as they are rendered by :meth:`encode`.
        """
        text = payload.decode("utf-8")
        rows = []
        single_text_column = len(schema) == 1 and schema.columns[0].dtype is DataType.TEXT
        for fields in self._split_records(text)[1:]:
            if fields == [""] and not single_text_column:
                # A blank line cannot be a row — except for a single-TEXT-column
                # schema, where it is a legitimate empty-string value.
                continue
            if len(fields) != len(schema):
                raise CastError(
                    f"CSV row has {len(fields)} fields but schema expects {len(schema)}"
                )
            rows.append([self._parse(field, col.dtype) for field, col in zip(fields, schema)])
        return Relation(schema, rows)

    def _split_records(self, text: str) -> list[list[str]]:
        """Split the full payload into records, honouring quoted newlines."""
        records: list[list[str]] = []
        fields: list[str] = []
        current = io.StringIO()
        in_quotes = False
        i = 0
        n = len(text)
        while i < n:
            ch = text[i]
            if in_quotes:
                if ch == '"':
                    if i + 1 < n and text[i + 1] == '"':
                        current.write('"')
                        i += 1
                    else:
                        in_quotes = False
                else:
                    current.write(ch)
            elif ch == '"':
                in_quotes = True
            elif ch == self.DELIMITER:
                fields.append(current.getvalue())
                current = io.StringIO()
            elif ch == "\n":
                fields.append(current.getvalue())
                current = io.StringIO()
                records.append(fields)
                fields = []
            elif ch != "\r":
                current.write(ch)
            i += 1
        trailing = current.getvalue()
        if trailing or fields:
            fields.append(trailing)
            records.append(fields)
        return records

    def _render(self, value: Any) -> str:
        if value is None:
            return self.NULL_TOKEN
        if isinstance(value, datetime):
            return value.isoformat()
        if isinstance(value, str):
            if self.DELIMITER in value or '"' in value or "\n" in value:
                return '"' + value.replace('"', '""') + '"'
            return value
        return str(value)

    def _parse(self, field: str, dtype: DataType) -> Any:
        if field == self.NULL_TOKEN:
            return None
        try:
            if dtype is DataType.INTEGER:
                return int(field)
            if dtype is DataType.FLOAT:
                return float(field)
            if dtype is DataType.BOOLEAN:
                token = field.strip().lower()
                if token in self._TRUE_TOKENS:
                    return True
                if token in self._FALSE_TOKENS:
                    return False
                raise CastError(f"cannot parse {field!r} as {dtype}")
            if dtype is DataType.TIMESTAMP:
                parsed = datetime.fromisoformat(field)
                if parsed.tzinfo is None:
                    parsed = parsed.replace(tzinfo=timezone.utc)
                return parsed
            return field
        except ValueError as exc:
            raise CastError(f"cannot parse {field!r} as {dtype}") from exc


class BinaryCodec(ChunkedCodecMixin):
    """Compact binary encoding of a relation, modelling a direct binary CAST path.

    Every frame is columnar — there is one layout::

        [u8 layout = 1][u32 row_count][u32 column_count]
        for each column: [u8 type_tag]
        for each column: [u8 null flag x row_count] then the non-null values

    with the non-null values packed contiguously (little-endian)::

        INTEGER   -> i64
        FLOAT     -> f64
        BOOLEAN   -> u8
        TIMESTAMP -> f64 (epoch seconds, UTC; naive datetimes treated as UTC)
        TEXT/NULL -> [u32 blob_bytes][u32 length-in-characters x non-null]
                     then one UTF-8 blob of the values joined together

    An INTEGER column holding a value beyond int64 travels under its own
    tag (7) in the TEXT layout, as decimal digits.

    Encoding reads each column as stored (``Relation.column_vector``): a
    ``NumericVector`` is written from its value and null arrays, a
    ``DictVector`` from its dictionary gathered by code, and only a plain
    column (list or object array) is packed from Python values.  Decoding
    unpacks each column with one ``np.frombuffer`` and returns
    ``Relation.from_columns``: an INTEGER / FLOAT / BOOLEAN column whose
    tag is the schema's type comes back as a ``NumericVector`` over the
    frame (zero-copy when it holds no NULL), so a numeric CAST makes no
    Python value per cell on either side.  Decoded columns are typed
    vectors that read as native values, never numpy scalars; TIMESTAMP
    and TEXT values are the exception to "no Python value": each datetime
    or string is its own object.  Frames are transient — written and read
    by the same process during one CAST — so the layout carries no version
    beyond its leading byte.
    """

    LAYOUT_COLUMNAR = 1

    _TYPE_TAGS = {
        DataType.INTEGER: 1,
        DataType.FLOAT: 2,
        DataType.TEXT: 3,
        DataType.BOOLEAN: 4,
        DataType.TIMESTAMP: 5,
        DataType.NULL: 6,
    }
    _TAG_TYPES = {v: k for k, v in _TYPE_TAGS.items()}
    #: INTEGER values beyond int64, as decimal text.
    _WIDE_INTEGER_TAG = 7

    #: Wire dtype of each fixed-width type; TEXT and NULL travel as a blob.
    _WIRE_DTYPES = {
        DataType.INTEGER: np.dtype("<i8"),
        DataType.FLOAT: np.dtype("<f8"),
        DataType.BOOLEAN: np.dtype("?"),
        DataType.TIMESTAMP: np.dtype("<f8"),
    }
    _LENGTH_DTYPE = np.dtype("<u4")

    def encode(self, relation: Relation) -> bytes:
        schema = relation.schema
        tags = bytearray()
        parts: list[bytes] = []
        for index, col in enumerate(schema):
            tags.append(self._encode_column(relation.column_vector(index), col.dtype, parts))
        header = struct.pack("<BII", self.LAYOUT_COLUMNAR, len(relation), len(schema))
        return b"".join([header, bytes(tags), *parts])

    def _encode_column(self, column: Any, dtype: DataType, parts: list[bytes]) -> int:
        """Append one column's null flags and values to ``parts``; returns
        its type tag."""
        wire = self._WIRE_DTYPES.get(dtype)
        if isinstance(column, NumericVector) and wire is not None \
                and np.can_cast(column.values.dtype, wire):
            values, nulls = column.values, column.nulls
            if nulls is None:
                parts.append(bytes(len(values)))
            else:
                parts.append(nulls.tobytes())
                values = values[~nulls]
            parts.append(values.astype(wire, copy=False).tobytes())
            return self._TYPE_TAGS[dtype]
        if isinstance(column, DictVector) and wire is None:
            nulls = column.codes < 0
            parts.append(nulls.tobytes())
            self._encode_text(column.dictionary[column.codes[~nulls]], parts)
            return self._TYPE_TAGS[dtype]
        column = to_list(column)
        if None in column:
            column = object_view(column)
            nulls = np.equal(column, None)
            parts.append(nulls.tobytes())
            column = column[~nulls]
        else:
            parts.append(bytes(len(column)))
        if wire is None:
            self._encode_text(column, parts)
            return self._TYPE_TAGS[dtype]
        if dtype is DataType.TIMESTAMP:
            column = [_timestamp_to_epoch(v) for v in column]
        try:
            parts.append(np.asarray(column, dtype=wire).tobytes())
        except OverflowError:
            if dtype is not DataType.INTEGER or not all(isinstance(v, int) for v in column):
                raise
            self._encode_text([str(v) for v in column], parts)
            return self._WIDE_INTEGER_TAG
        return self._TYPE_TAGS[dtype]

    def _encode_text(self, strings: Any, parts: list[bytes]) -> None:
        """The TEXT layout of the non-null ``strings``: blob size, lengths, blob."""
        try:
            text = "".join(strings)
        except TypeError:
            # A column typed TEXT that holds other values (an unvalidated
            # result set): render them, as str() would.
            strings = [str(v) for v in strings]
            text = "".join(strings)
        blob = text.encode("utf-8")
        parts.append(struct.pack("<I", len(blob)))
        parts.append(np.fromiter(map(len, strings), self._LENGTH_DTYPE, len(strings)).tobytes())
        parts.append(blob)

    def decode(self, payload: bytes, schema: Schema) -> Relation:
        view = memoryview(payload)
        layout, row_count, col_count = struct.unpack_from("<BII", view, 0)
        if layout != self.LAYOUT_COLUMNAR:
            raise CastError(f"unknown binary frame layout {layout}")
        if col_count != len(schema):
            raise CastError(
                f"binary frame has {col_count} columns but schema expects {len(schema)}"
            )
        offset = 9 + col_count
        columns: list[Any] = []
        for tag, col in zip(view[9:offset], schema):
            wide = tag == self._WIDE_INTEGER_TAG
            dtype = DataType.INTEGER if wide else self._TAG_TYPES[tag]
            nulls = np.frombuffer(view, np.bool_, row_count, offset)
            offset += row_count
            count = row_count - int(np.count_nonzero(nulls))
            wire = None if wide else self._WIRE_DTYPES.get(dtype)
            if wire is None:
                (blob_bytes,) = struct.unpack_from("<I", view, offset)
                offset += 4
                ends = np.cumsum(
                    np.frombuffer(view, self._LENGTH_DTYPE, count, offset), dtype=np.int64
                ).tolist()
                offset += 4 * count
                text = str(view[offset : offset + blob_bytes], "utf-8")
                offset += blob_bytes
                values = [text[a:b] for a, b in zip([0] + ends, ends)]
                if wide:
                    values = list(map(int, values))
            else:
                packed = np.frombuffer(view, wire, count, offset)
                offset += wire.itemsize * count
                if dtype is col.dtype and dtype is not DataType.TIMESTAMP:
                    columns.append(_numeric_column(packed, nulls, count))
                    continue
                values = packed.tolist()
                if dtype is DataType.TIMESTAMP:
                    values = [datetime.fromtimestamp(v, tz=timezone.utc) for v in values]
            if count != row_count:
                # A fresh object array is all None: only the non-null slots
                # are written.
                padded = np.empty(row_count, dtype=object)
                padded[~nulls] = object_view(values)
                values = padded.tolist()
            if dtype is not col.dtype:
                # The frame's type differs from the schema asked for: coerce,
                # as building a Relation of that schema from rows would.
                values = [coerce(v, col.dtype) for v in values]
            columns.append(values)
        return Relation.from_columns(schema, columns, row_count)


def _numeric_column(packed: np.ndarray, nulls: np.ndarray, count: int) -> NumericVector:
    """A fixed-width column's non-null ``packed`` values as a vector of
    ``len(nulls)`` rows: the frame's buffer itself when nothing is NULL,
    else scattered into a zeroed buffer beside the frame's null mask."""
    if count == len(nulls):
        return NumericVector(packed)
    values = np.zeros(len(nulls), packed.dtype)
    values[~nulls] = packed
    return NumericVector(values, nulls)
