"""Typed column vectors: the buffers a :class:`~repro.common.schema.ColumnBatch`
column may be made of, and the few operations every kernel needs over them.

A batch column is one of four kinds:

* :class:`NumericVector` — INTEGER/FLOAT/BOOLEAN values as an ``int64`` /
  ``float64`` / ``bool_`` array plus a null mask (``None`` when NULL-free);
* :class:`DictVector` — TEXT as ``int32`` codes into a first-appearance
  dictionary, NULL = ``-1``;
* a 1-D object ``ndarray`` of Python values (TIMESTAMP, integers beyond
  int64, gathers over plain columns);
* a plain ``list`` / ``tuple`` of Python values (what projections, sorts and
  aggregates compute).

The first two are what :meth:`HeapTable.column_snapshot` hands the scan —
read-only views of the table's append-only buffers, in position order, so a
kernel never writes into a vector it was handed — and they stay typed
through slice, compress, gather, concat and outer-join NULL padding, so
kernels read ``values`` / ``nulls`` / ``codes`` directly.
Indexing, iterating or ``tolist()``-ing any kind yields native Python values
(``int`` / ``float`` / ``bool`` / ``str`` / ``None``), never numpy scalars:
that is the boundary at which rows are made.
"""

from __future__ import annotations

import operator
from itertools import repeat
from typing import Any, Sequence

import numpy as np

from repro.common.types import DataType

#: numpy dtype per scalar type whose Python values pack losslessly into a
#: fixed-width array (the array island's buffers use the same mapping).
VECTOR_DTYPES = {
    DataType.INTEGER: np.int64,
    DataType.FLOAT: np.float64,
    DataType.BOOLEAN: np.bool_,
}


class NumericVector:
    """Fixed-width values (unspecified at NULL positions) plus a null mask."""

    __slots__ = ("values", "nulls")

    def __init__(self, values: np.ndarray, nulls: np.ndarray | None = None) -> None:
        self.values = values
        self.nulls = nulls

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, key: Any) -> Any:
        if isinstance(key, slice):
            nulls = None if self.nulls is None else self.nulls[key]
            return NumericVector(self.values[key], nulls)
        if self.nulls is not None and self.nulls[key]:
            return None
        return self.values[key].item()

    def __iter__(self):
        return iter(self.tolist())

    def tolist(self) -> list[Any]:
        out = self.values.tolist()
        if self.nulls is not None:
            for index in np.flatnonzero(self.nulls).tolist():
                out[index] = None
        return out

    def take(self, indices: np.ndarray, pad: np.ndarray | None = None) -> "NumericVector":
        nulls = None if self.nulls is None else self.nulls[indices]
        if pad is not None:
            nulls = pad if nulls is None else nulls | pad
        return NumericVector(self.values[indices], nulls)


class DictVector:
    """``int32`` codes into ``dictionary``, an object array of the distinct
    strings in first-appearance order plus one trailing ``None`` — so the
    NULL code ``-1`` decodes through the same fancy index as every other."""

    __slots__ = ("codes", "dictionary")

    def __init__(self, codes: np.ndarray, dictionary: np.ndarray) -> None:
        self.codes = codes
        self.dictionary = dictionary

    def __len__(self) -> int:
        return len(self.codes)

    def __getitem__(self, key: Any) -> Any:
        if isinstance(key, slice):
            return DictVector(self.codes[key], self.dictionary)
        return self.dictionary[self.codes[key]]

    def __iter__(self):
        return iter(self.tolist())

    def tolist(self) -> list[Any]:
        return self.dictionary[self.codes].tolist()

    def take(self, indices: np.ndarray, pad: np.ndarray | None = None) -> "DictVector":
        codes = self.codes[indices]
        if pad is not None:
            codes[pad] = -1
        return DictVector(codes, self.dictionary)


def object_view(column: Sequence[Any]) -> np.ndarray:
    """A plain column as a 1-D object ndarray (reused when it already is one)."""
    if isinstance(column, np.ndarray):
        return column
    arr = np.empty(len(column), dtype=object)
    arr[:] = column
    return arr


def _is_none(values: Sequence[Any]) -> np.ndarray:
    return np.fromiter(map(operator.is_, values, repeat(None)), np.bool_, count=len(values))


def vector_from_values(values: list[Any], dtype: DataType) -> Any:
    """Pack one stored column (Python values of ``dtype``, or None) into the
    typed vector for that type; an object array when nothing typed holds it."""
    if dtype is DataType.TEXT:
        distinct = dict.fromkeys(values)
        distinct.pop(None, None)
        codes_of = {value: code for code, value in enumerate(distinct)}
        codes_of[None] = -1
        codes = np.fromiter(map(codes_of.__getitem__, values), np.int32, count=len(values))
        return DictVector(codes, object_view([*distinct, None]))
    np_dtype = VECTOR_DTYPES.get(dtype)
    if np_dtype is not None:
        try:
            return NumericVector(*numeric_view(values, np_dtype))
        except OverflowError:
            pass  # integers beyond int64 keep their Python values
    return object_view(values)


def numeric_view(column: Any, dtype: Any) -> tuple[np.ndarray, np.ndarray | None]:
    """``column`` as a ``dtype`` array (0 at NULLs) plus its null mask, None
    when NULL-free.  A typed vector of that dtype is read in place; anything
    else is packed, raising ``OverflowError`` / ``TypeError`` /
    ``ValueError`` when its values do not fit — floats bound for an integer
    or boolean array included, which a cast would truncate."""
    if isinstance(column, NumericVector):
        values = column.values
        return (values if values.dtype == dtype else _packed(values, dtype)), column.nulls
    if isinstance(column, DictVector):
        raise TypeError("a dictionary column has no numeric view")
    if isinstance(column, np.ndarray):
        nulls = np.equal(column, None)
        if nulls.any():
            return _packed(np.where(nulls, 0, column), dtype), nulls
        return _packed(column, dtype), None
    if None in column:
        nulls = _is_none(column)
        return _packed([0 if v is None else v for v in column], dtype), nulls
    return _packed(column, dtype), None


def _packed(values: Any, dtype: Any) -> np.ndarray:
    """``values`` as a ``dtype`` array; floats bound for an integer or
    boolean array raise ``TypeError`` instead of being truncated."""
    read = np.asarray(values)  # at the values' own type
    if np.can_cast(read.dtype, dtype, "safe"):
        return read.astype(dtype, copy=False)
    # A typed array says what it holds; Python values are asked one by one
    # (numpy reads ints past int64 beside negatives as floats).
    typed = isinstance(values, np.ndarray) and values.dtype.kind != "O"
    if np.dtype(dtype).kind in "iub" and (
            values.dtype.kind == "f" and values.size if typed
            else any(isinstance(v, float) for v in values)):
        raise TypeError(f"float values have no lossless {np.dtype(dtype)} view")
    return np.array(values, dtype=dtype)


def null_mask(column: Any) -> np.ndarray:
    """Boolean mask of the NULL positions of any column kind."""
    if isinstance(column, NumericVector):
        if column.nulls is None:
            return np.zeros(len(column), dtype=np.bool_)
        return column.nulls
    if isinstance(column, DictVector):
        return column.codes < 0
    if isinstance(column, np.ndarray):
        return np.equal(column, None)
    return _is_none(column)


def to_list(column: Any) -> list[Any]:
    """Any column kind as a list of native Python values."""
    if isinstance(column, list):
        return column
    if isinstance(column, tuple):
        return list(column)
    return column.tolist()


def take(column: Any, indices: np.ndarray, pad: np.ndarray | None = None) -> Any:
    """Gather rows by an integer index array or a boolean mask, keeping the
    column's kind (plain columns come back as object arrays).  ``pad``
    marks output rows that are outer-join NULL padding: whatever their index
    gathered is replaced by NULL."""
    if pad is not None and not len(column):
        return [None] * len(pad)
    if isinstance(column, (NumericVector, DictVector)):
        return column.take(indices, pad)
    out = object_view(column)[indices]
    if pad is not None:
        out[pad] = None
    return out


def concat(parts: Sequence[Any]) -> Any:
    """Vertically concatenate columns; typed when every part is the same
    kind (and, for dictionaries, shares one dictionary), a list otherwise."""
    first = parts[0]
    if len(parts) == 1:
        return first
    if isinstance(first, NumericVector) and all(
        isinstance(p, NumericVector) and p.values.dtype == first.values.dtype for p in parts
    ):
        nulls = None
        if any(p.nulls is not None for p in parts):
            nulls = np.concatenate([null_mask(p) for p in parts])
        return NumericVector(np.concatenate([p.values for p in parts]), nulls)
    if isinstance(first, DictVector) and all(
        isinstance(p, DictVector) and p.dictionary is first.dictionary for p in parts
    ):
        return DictVector(np.concatenate([p.codes for p in parts]), first.dictionary)
    out: list[Any] = []
    for part in parts:
        out.extend(to_list(part))
    return out
