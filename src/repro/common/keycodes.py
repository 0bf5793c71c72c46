"""Dense int64 key codes for vectorized joins, group-bys and DISTINCT.

All three reduce to one primitive: map one-or-many key columns to a single
dense ``int64`` code per row, so that "same key" becomes "same integer" and
the rest of the operator is numpy index arithmetic (``np.bincount``,
``np.take``, ``np.repeat``) instead of per-row Python tuples and dict
probes.  One encoder does it, :class:`IncrementalGroupEncoder`: a
dictionary per key column that persists across a stream's batches, and a
group table over the radix-packed column codes.  A group-by and DISTINCT
encode every batch; a hash join encodes its build side once
(:class:`JoinKeyTable`) and maps probe batches through the read-only
:meth:`~IncrementalGroupEncoder.lookup`.

NULL and NaN
------------
* The encoder treats NULL as a key value like any other (GROUP BY puts all
  NULL keys in one group, DISTINCT keeps one all-NULL row).
* One rule for joins: a key holding a NULL or a NaN matches nothing.  The
  build side never encodes such a row (its code is :data:`NULL_CODE`), so
  ``lookup`` answers ``-1`` for such a probe key, as for any key the build
  side lacks.
* numpy would merge the NaNs of a FLOAT vector, which the row path keeps
  apart (no NaN equals another), so none reaches the encoder's sorted
  tables: the group-by hands such a column over as a list, which moves it
  to the dict, where each NaN is a fresh float and so a fresh group; and
  DISTINCT keeps its row unencoded.

Dtype specialization
--------------------
A key column fed vectors of its fixed-width dtype (INTEGER, FLOAT,
BOOLEAN) keeps its distinct values sorted, looked up with
``searchsorted`` (or by direct address when INTEGER values span few
slots); a dictionary TEXT column resolves each dictionary entry once,
through a remap array per dictionary object.  Everything else — plain
columns of Python values, TIMESTAMP, mixed-type join pairs, and a
fixed-width column past :data:`_DIRECT_GROUP_SLOTS` distinct values — goes
through an insertion-ordered Python dict, which keeps the row path's
``==``/``hash`` equality exactly (``1 == 1.0``, ``True == 1``).
"""

from __future__ import annotations

import itertools
import math
import struct
from typing import Any, Callable, Sequence

import numpy as np

from repro.common.types import DataType
from repro.common.vectors import (
    VECTOR_DTYPES,
    DictVector,
    NumericVector,
    null_mask,
    take,
    to_list,
)

#: Public sentinel: the code of a row whose key must not participate in a
#: join (NULL or NaN key on either side, or a probe key absent from the
#: build side).
NULL_CODE = -1

#: Mixed-radix packing must stay inside int64; past it, code tuples.
_RADIX_LIMIT = np.int64(2) ** 62


def partition_order(codes: np.ndarray, num_partitions: int) -> tuple[np.ndarray, list[int]]:
    """Rows stably sorted by partition ``codes[i] % num_partitions``, plus the
    ``num_partitions + 1`` bounds of each partition's slice of that order.

    Rows with negative codes (:data:`NULL_CODE`) belong to no partition: they
    sort past ``bounds[-1]``.
    """
    if num_partitions < 1:
        raise ValueError(f"num_partitions must be >= 1, got {num_partitions}")
    codes = np.asarray(codes, dtype=np.int64)
    # Negative codes go to a sentinel bucket past the last real partition
    # (numpy's modulo maps -1 % k to k-1, which would leak NULLs into a
    # real partition).
    pids = np.where(codes >= 0, codes % num_partitions, num_partitions)
    order = np.argsort(pids, kind="stable").astype(np.int64, copy=False)
    bounds = np.searchsorted(pids[order], np.arange(num_partitions + 1))
    return order, bounds.tolist()


_HASH_MASK = 0x7FFF_FFFF_FFFF_FFFF
_GOLDEN = 0x9E37_79B9_7F4A_7C15
_INT64_LIMIT = 2.0**63


def _mixed_bits(bits: Any) -> Any:
    """Multiplicative mix of a float's 64 bits: a ``uint64`` array (whose
    product wraps) or a Python int (masked to the same 64 bits)."""
    mixed = (bits * _GOLDEN) & 0xFFFF_FFFF_FFFF_FFFF
    return mixed ^ (mixed >> 32)


def value_hash(value: Any) -> int:
    """Routing hash of one Python value, equal for values equal under ``==``.

    A number that is a whole int64 hashes to itself (so ``1``, ``1.0`` and
    ``True`` agree, and dense integer keys spread evenly modulo anything);
    any other number hashes the bits of its float; everything else goes
    through Python's ``hash``.  :func:`_float_hashes` and the ``int64``
    branch of :meth:`PartitionRouter.hashes` compute the same function over
    buffers.
    """
    if isinstance(value, int) and -(2**63) <= value < 2**63:
        return value & _HASH_MASK
    if isinstance(value, (int, float)):
        try:
            value = float(value)
        except OverflowError:
            value = math.inf if value > 0 else -math.inf
        if value.is_integer() and -_INT64_LIMIT <= value < _INT64_LIMIT:
            return int(value) & _HASH_MASK
        (bits,) = struct.unpack("<Q", struct.pack("<d", value))
        return _mixed_bits(bits) & _HASH_MASK
    return hash(value) & _HASH_MASK


def _float_hashes(values: np.ndarray) -> np.ndarray:
    whole = (values == np.floor(values)) & (values >= -_INT64_LIMIT) & (values < _INT64_LIMIT)
    ints = np.where(whole, values, 0.0).astype(np.int64)
    mixed = _mixed_bits(values.view(np.uint64)).view(np.int64)
    return np.where(whole, ints, mixed) & _HASH_MASK


class PartitionRouter:
    """Routes the rows of both inputs of one spilled join to partitions by
    key *value*, batch by batch, so neither input is ever encoded whole.

    Keys that are equal under the row executor's ``==`` (``1 == 1.0 ==
    True``; the same string out of two dictionaries) hash alike whatever
    vector kind carries them, hence share a partition at every depth: depth
    ``d`` reads the ``d``-th base-``partitions`` digit of the hash.  A row
    with a NULL in any key column matches nothing; it is dropped, or — when
    the join must still emit it NULL-padded — dealt round-robin by row id.
    """

    def __init__(self, partitions: int) -> None:
        self.partitions = partitions
        #: id(dictionary) -> (dictionary, hash per entry); the reference
        #: keeps the id from being reused while the join runs.
        self._dictionary_hashes: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    def _column_hashes(self, column: Any) -> np.ndarray:
        if isinstance(column, NumericVector):
            values = column.values
            if values.dtype == np.float64:
                return _float_hashes(values)
            return values.astype(np.int64, copy=False) & _HASH_MASK
        if isinstance(column, DictVector):
            dictionary = column.dictionary
            entry = self._dictionary_hashes.get(id(dictionary))
            if entry is None:
                table = np.fromiter(map(value_hash, dictionary), np.int64, count=len(dictionary))
                entry = self._dictionary_hashes[id(dictionary)] = (dictionary, table)
            return entry[1][column.codes]
        return np.fromiter(map(value_hash, column), np.int64, count=len(column))

    def hashes(self, key_columns: Sequence[Any]) -> tuple[np.ndarray, np.ndarray]:
        """Non-negative int64 hash per row, and the rows with a NULL key."""
        combined = self._column_hashes(key_columns[0])
        nulls = null_mask(key_columns[0])
        for column in key_columns[1:]:
            combined = ((combined * 1000003) ^ self._column_hashes(column)) & _HASH_MASK
            nulls = nulls | null_mask(column)
        return combined, nulls

    def order(
        self, key_columns: Sequence[Any], ids: np.ndarray, depth: int, keep_nulls: bool
    ) -> tuple[np.ndarray, list[int]]:
        """:func:`partition_order` of one batch at recursion ``depth``."""
        hashes, nulls = self.hashes(key_columns)
        codes = np.where(nulls, ids if keep_nulls else NULL_CODE, hashes)
        return partition_order(codes // self.partitions**depth, self.partitions)


#: A multi-key group dictionary addresses its groups directly by packed key
#: while the product of the key columns' radices is at most this many
#: slots (8 bytes each); past it, a dict of packed keys holds the groups.
#: A fixed-width key column keeps at most this many values in its sorted
#: table (a batch that adds values copies the table once) before a dict
#: takes over, and an INTEGER column is addressed directly while its values
#: span at most this many.
_DIRECT_GROUP_SLOTS = 1 << 16

_NO_ROWS = np.zeros(0, dtype=np.int64)


def _first_appearance(firsts: np.ndarray, start: int) -> tuple[np.ndarray, np.ndarray]:
    """Number new keys ``start, start + 1, ...`` by the row each first
    appears at (``firsts``, distinct): the code of each key, and the first
    rows in code order."""
    order = np.argsort(firsts)
    codes = np.empty(len(firsts), dtype=np.int64)
    codes[order] = np.arange(start, start + len(firsts), dtype=np.int64)
    return codes, firsts[order]


def _distinct_first(
    keys: np.ndarray, rows: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The distinct values of ``keys[rows]`` (ascending; ``rows`` ascending
    and non-empty), the first of ``rows`` each is at, and the index of each
    row's value among the distinct ones.  Integers spanning at most
    :data:`_DIRECT_GROUP_SLOTS` take a direct-address pass; anything else
    sorts once (unstably: a value's first row is the least of its run)."""
    sub = keys[rows]
    if sub.dtype.kind == "i":
        low = int(sub.min())
        span = int(sub.max()) - low + 1
        if span <= _DIRECT_GROUP_SLOTS:
            offsets = sub - low
            first = np.full(span, len(keys), dtype=np.int64)
            np.minimum.at(first, offsets, rows)
            slots = (first < len(keys)).nonzero()[0]
            index = np.empty(span, dtype=np.int64)  # read only at ``slots``
            index[slots] = np.arange(len(slots))
            return (slots + low).astype(sub.dtype, copy=False), first[slots], index[offsets]
    order = np.argsort(sub)
    ordered = sub[order]
    head = np.empty(len(sub), dtype=np.bool_)
    head[0] = True
    np.not_equal(ordered[1:], ordered[:-1], out=head[1:])
    starts = head.nonzero()[0]
    inverse = np.empty(len(sub), dtype=np.int64)
    inverse[order] = np.cumsum(head) - 1
    return ordered[starts], rows[np.minimum.reduceat(order, starts)], inverse


def _new_first_rows(codes: np.ndarray, before: int) -> np.ndarray:
    """The row each code ``>= before`` first appears at, in code order
    (codes numbered by first appearance, so also in row order)."""
    rows = (codes >= before).nonzero()[0]
    return _distinct_first(codes, rows)[1] if len(rows) else _NO_ROWS


def _dict_codes(mapping: dict[Any, int], values: list) -> np.ndarray:
    """The code of each of ``values`` in ``mapping``, after adding the values
    it lacks, numbered by first appearance — every loop runs in C."""
    fresh = itertools.filterfalse(mapping.__contains__, dict.fromkeys(values))
    mapping.update(zip(fresh, itertools.count(len(mapping))))
    return np.fromiter(map(mapping.__getitem__, values), np.int64, count=len(values))


def _dict_lookup(mapping: dict[Any, int], values: list) -> np.ndarray:
    """The code of each of ``values`` in ``mapping``, -1 where it has none."""
    return np.fromiter(
        map(mapping.get, values, itertools.repeat(-1)), np.int64, count=len(values)
    )


class _KeyColumn:
    """Persistent value -> code dictionary of one key column.

    Codes are dense and numbered by first appearance over the stream; NULL
    is a key value like any other.  A fixed-width column keeps its distinct
    values sorted, beside their codes, and looks a batch up with
    ``searchsorted`` (a narrow INTEGER column by direct address): a batch
    sorts only the values it adds.  Every other column maps Python values
    through one insertion-ordered dict, so equality is the row executor's
    ``==``/``hash`` (``1 == 1.0 == True``): a dictionary TEXT batch reaches
    the dict once per dictionary entry it uses, through a remap array per
    dictionary object, and a plain batch through C-level ``dict.fromkeys``
    / ``map``.  A fixed-width column converts its table to that dict, once,
    when a batch is not a vector of its dtype (a plain column holds
    whatever values it holds: one typed INTEGER by its first value may
    hold 0.5) or finds the table past :data:`_DIRECT_GROUP_SLOTS` values —
    so a high-cardinality key costs O(rows) dict work, not a table copy per
    batch, while a table encoded once (a join's build side) stays sorted.

    :meth:`lookup` writes nothing :meth:`encode` reads, so threads may look
    batches up at once while no encode runs.
    """

    def __init__(self, dtype: DataType | None) -> None:
        self._dtype = VECTOR_DTYPES.get(dtype) if dtype is not None else None
        self.count = 0
        #: Sorted distinct non-NULL values and the code of each.
        self._values = np.zeros(0, dtype=self._dtype)
        self._codes = _NO_ROWS
        #: An INTEGER column whose values span at most _DIRECT_GROUP_SLOTS
        #: also keeps the code of ``value - min`` (-1 for no value), read by
        #: a batch that stays inside that span instead of a binary search.
        self._lut: np.ndarray | None = None
        self._null_code = -1
        self._mapping: dict[Any, int] | None = None if self._dtype is not None else {}
        #: id(dictionary) -> (dictionary, code per entry, -1 while unresolved);
        #: holding the dictionary keeps its id from being reused.
        self._remaps: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        #: What lookup derived from the dictionary (a remap per dictionary
        #: object, the sorted table as a dict), with the count it was made at.
        self._lookups: dict[Any, tuple[int, Any, Any]] = {}

    def encode(self, column: Sequence[Any]) -> tuple[np.ndarray, np.ndarray]:
        """The code of each row, plus the rows where new codes first appear
        (in code order)."""
        if self._mapping is None:
            if len(self._values) <= _DIRECT_GROUP_SLOTS and self._typed(column):
                return self._encode_numeric(column.values, column.nulls)
            self._to_dict()
        if isinstance(column, DictVector):
            return self._encode_dictionary(column)
        before = self.count
        codes = _dict_codes(self._mapping, to_list(column))
        self.count = len(self._mapping)
        return codes, _new_first_rows(codes, before)

    def lookup(self, column: Sequence[Any]) -> np.ndarray:
        """The code of each row, -1 where the column has not met its value
        (a NULL before any NULL was encoded included); adds nothing."""
        mapping = self._mapping
        if mapping is None:
            if self._typed(column):
                codes = self._lookup(column.values)
                if column.nulls is not None:
                    codes[column.nulls] = self._null_code
                return codes
            mapping = self._cached("table", None, self._table_mapping)
        if isinstance(column, DictVector):
            dictionary = column.dictionary
            remap = self._cached(
                id(dictionary), dictionary, lambda: _dict_lookup(mapping, dictionary.tolist())
            )
            return remap[column.codes]
        return _dict_lookup(mapping, to_list(column))

    def _typed(self, column: Sequence[Any]) -> bool:
        """Whether ``column`` is a vector of this column's fixed-width dtype,
        the only kind the sorted table reads."""
        return isinstance(column, NumericVector) and column.values.dtype == self._dtype

    def _cached(self, key: Any, anchor: Any, build: Callable[[], Any]) -> Any:
        """``build()``, kept under ``key`` until the column's count changes
        (``anchor``, the dictionary whose id is the key, stays referenced so
        the id is not reused).  The cache is replaced whole, never updated
        in place, as lookups may run on several threads."""
        entry = self._lookups.get(key)
        if entry is None or entry[0] != self.count:
            entry = (self.count, anchor, build())
            self._lookups = {**self._lookups, key: entry}
        return entry[2]

    def _table_mapping(self) -> dict[Any, int]:
        """The sorted table (and NULL's code) as a value -> code dict."""
        mapping = dict(zip(self._values.tolist(), self._codes.tolist()))
        if self._null_code >= 0:
            mapping[None] = self._null_code
        return mapping

    def _to_dict(self) -> None:
        """Move the sorted table into the insertion-ordered dict, once."""
        self._mapping = self._table_mapping()
        self._values, self._codes, self._lut = self._values[:0], _NO_ROWS, None

    def _encode_numeric(
        self, values: np.ndarray, nulls: np.ndarray | None
    ) -> tuple[np.ndarray, np.ndarray]:
        if values.dtype == np.float64:
            values = values + 0.0  # -0.0 groups with 0.0, as -0.0 == 0.0
        codes = self._lookup(values)
        new = codes < 0
        null_rows = _NO_ROWS
        if nulls is not None:
            new &= ~nulls
            if self._null_code >= 0:
                codes[nulls] = self._null_code
            else:
                null_rows = nulls.nonzero()[0]
        if not new.any() and not len(null_rows):
            return codes, _NO_ROWS
        rows = new.nonzero()[0]
        added, firsts, inverse = (
            _distinct_first(values, rows) if len(rows) else (values[rows], rows, rows)
        )
        if len(null_rows):
            firsts = np.append(firsts, null_rows[0])
        new_codes, new_first_rows = _first_appearance(firsts, self.count)
        self.count += len(firsts)
        if len(null_rows):
            self._null_code = int(new_codes[-1])
            codes[null_rows] = self._null_code
            new_codes = new_codes[:-1]
        if len(rows):
            at = np.searchsorted(self._values, added)
            self._values = table = np.insert(self._values, at, added)
            self._codes = np.insert(self._codes, at, new_codes)
            self._lut = None
            if self._dtype is np.int64 and int(table[-1]) - int(table[0]) < _DIRECT_GROUP_SLOTS:
                self._lut = np.full(int(table[-1]) - int(table[0]) + 1, -1, dtype=np.int64)
                self._lut[table - table[0]] = self._codes
            codes[rows] = new_codes[inverse]
        return codes, new_first_rows

    def _lookup(self, values: np.ndarray) -> np.ndarray:
        """The code of each of ``values``, -1 where it has none."""
        table = self._values
        if not len(table):
            return np.full(len(values), -1, dtype=np.int64)
        lut = self._lut
        low, high = table[0], table[-1]
        if lut is not None and len(values) and low <= values.min() and values.max() <= high:
            return lut[values - low]
        slots = np.minimum(np.searchsorted(table, values), len(table) - 1)
        return np.where(table[slots] == values, self._codes[slots], -1)

    def _encode_dictionary(self, column: DictVector) -> tuple[np.ndarray, np.ndarray]:
        dictionary = column.dictionary
        entry = self._remaps.get(id(dictionary))
        if entry is None:
            remap = np.full(len(dictionary), -1, dtype=np.int64)
            entry = self._remaps[id(dictionary)] = (dictionary, remap)
        remap = entry[1]
        local = column.codes
        codes = remap[local]
        unresolved = codes < 0
        if not unresolved.any():
            return codes, _NO_ROWS
        # Resolve each entry the batch uses that this dictionary has not met
        # yet (NULL, code -1, is its trailing None): known to the column
        # through another dictionary or a plain batch, or new.
        rows = unresolved.nonzero()[0]
        entries, firsts, _ = _distinct_first(local, rows)
        values = dictionary[entries].tolist()
        mapping = self._mapping
        resolved = _dict_lookup(mapping, values)
        fresh = resolved < 0
        new_first_rows = _NO_ROWS
        if fresh.any():
            resolved[fresh], new_first_rows = _first_appearance(firsts[fresh], self.count)
            mapping.update(zip(itertools.compress(values, fresh.tolist()), resolved[fresh].tolist()))
            self.count = len(mapping)
        remap[entries] = resolved
        return remap[local], new_first_rows


class IncrementalGroupEncoder:
    """Shared key dictionary for the streaming group-by, DISTINCT and the
    hash join's build side.

    Each key column keeps a persistent value -> code dictionary
    (:class:`_KeyColumn`).  With one key, its codes are the group codes.
    With several, the column codes are mixed-radix packed into one int64
    per row, and a group table maps packed keys to group codes: a
    direct-address array while the radix product is at most
    :data:`_DIRECT_GROUP_SLOTS`, an insertion-ordered dict of packed keys
    past it, and a dict of code tuples once the product would overflow
    int64.  A column's radix doubles when its codes outgrow it, and the
    known groups are re-packed once.

    Group codes are stable across batches and numbered by first appearance
    in row order over the whole stream, so emitting groups in code order
    reproduces the row executor's dict-insertion output order.  A batch
    does Python work per call, not per row or key, until a dict takes over
    (see :class:`_KeyColumn`; or a group table past the direct limit): that
    dict is fed by C-level ``dict``/``map`` loops.  The caller keeps the
    NaNs of FLOAT vectors out of the sorted tables (:func:`nan_rows`).
    :meth:`lookup` adds nothing, and may run on several threads while no
    encode runs.
    """

    def __init__(self, dtypes: Sequence[DataType | None]) -> None:
        self._columns = [_KeyColumn(dtype) for dtype in dtypes]
        self.group_count = 0
        #: One slot per column until a batch brings codes: the first batch
        #: sizes the radices and the group table.
        self._radices = [1] * len(self._columns)
        #: Group code per packed key, -1 for none; None once a dict holds
        #: the groups.
        self._direct: np.ndarray | None = np.full(1, -1, dtype=np.int64)
        #: Packed key (or, past int64, code tuple) -> group code.
        self._groups: dict[Any, int] = {}
        self._tuples = False

    def encode_batch(
        self, columns: Sequence[Sequence[Any]]
    ) -> tuple[np.ndarray, np.ndarray]:
        """Encode one batch of key columns against the shared dictionary.

        Returns ``(codes, new_first_rows)``: the global int64 group code per
        row, plus the batch row indices of the first occurrence of each group
        that is **new** to the stream, in global-code order (the new groups
        occupy codes ``group_count_before .. group_count_after - 1``).
        """
        if len(self._columns) == 1:
            key = self._columns[0]
            codes, new_first_rows = key.encode(columns[0])
            self.group_count = key.count
            return codes, new_first_rows
        per_column = [key.encode(values)[0] for key, values in zip(self._columns, columns)]
        self._fit_radices()
        before = self.group_count
        if self._direct is None:
            codes = _dict_codes(self._groups, self._dict_keys(per_column))
            self.group_count = len(self._groups)
            return codes, _new_first_rows(codes, before)
        packed = self._pack(per_column)
        codes = self._direct[packed]
        rows = (codes < 0).nonzero()[0]
        if not len(rows):
            return codes, _NO_ROWS
        keys, firsts, inverse = _distinct_first(packed, rows)
        groups, new_first_rows = _first_appearance(firsts, before)
        self.group_count += len(keys)
        self._direct[keys] = groups
        codes[rows] = groups[inverse]
        return codes, new_first_rows

    def lookup(self, columns: Sequence[Sequence[Any]]) -> np.ndarray:
        """The group code of each row of a batch of key columns, -1 where
        the stream has no such group; adds nothing."""
        per_column = [key.lookup(values) for key, values in zip(self._columns, columns)]
        if len(per_column) == 1:
            return per_column[0]
        missing = np.min(per_column, axis=0) < 0
        if self._direct is not None:
            # A missing column code (-1) would pack into some other slot.
            codes = self._direct[np.where(missing, 0, self._pack(per_column))]
        else:
            codes = _dict_lookup(self._groups, self._dict_keys(per_column))
        codes[missing] = -1
        return codes

    def _fit_radices(self) -> None:
        """Grow the radix of every column whose codes outgrew it, re-pack
        the known groups and rebuild the group table for the new radices
        (code tuples do not depend on the radices)."""
        counts = [key.count for key in self._columns]
        if self._tuples or all(count <= radix for count, radix in zip(counts, self._radices)):
            return
        if self._direct is not None:
            slots = (self._direct >= 0).nonzero()[0]
            packed = np.empty(len(slots), dtype=np.int64)
            packed[self._direct[slots]] = slots
        else:
            packed = np.fromiter(self._groups, np.int64, count=len(self._groups))
        per_group = self._unpack(packed)
        self._radices = [
            radix if count <= radix else max(count, 2 * radix)
            for count, radix in zip(counts, self._radices)
        ]
        product = math.prod(self._radices)
        if product <= _DIRECT_GROUP_SLOTS:
            self._direct = np.full(product, -1, dtype=np.int64)
            self._direct[self._pack(per_group)] = np.arange(self.group_count, dtype=np.int64)
            return
        self._direct = None
        self._tuples = product >= int(_RADIX_LIMIT)
        self._groups = dict(zip(self._dict_keys(per_group), itertools.count()))

    def _dict_keys(self, per_column: list[np.ndarray]) -> list:
        """The group dict's key per row: the packed key, or the code tuple."""
        if self._tuples:
            return list(zip(*(codes.tolist() for codes in per_column)))
        return self._pack(per_column).tolist()

    def _pack(self, per_column: list[np.ndarray]) -> np.ndarray:
        packed = per_column[0]
        for codes, radix in zip(per_column[1:], self._radices[1:]):
            packed = packed * radix + codes
        return packed

    def _unpack(self, packed: np.ndarray) -> list[np.ndarray]:
        per_column = []
        for radix in reversed(self._radices[1:]):
            packed, codes = np.divmod(packed, radix)
            per_column.append(codes)
        per_column.append(packed)
        return per_column[::-1]


def nan_rows(columns: Sequence[Sequence[Any]]) -> np.ndarray:
    """Mask of the rows holding a NaN in a FLOAT vector among ``columns``:
    the rows a sorted table would merge, though no NaN equals another.  (A
    plain column is keyed through the dict, where a NaN equals only itself,
    as in the row path.)"""
    mask = np.zeros(len(columns[0]), dtype=np.bool_)
    for column in columns:
        if isinstance(column, NumericVector) and column.values.dtype == np.float64:
            nan = np.isnan(column.values)
            mask |= nan if column.nulls is None else nan & ~column.nulls
    return mask


def encode_except(
    encoder: IncrementalGroupEncoder, columns: Sequence[Sequence[Any]], skip: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """:meth:`~IncrementalGroupEncoder.encode_batch` over the rows ``skip``
    does not mark: the skipped rows get :data:`NULL_CODE` and are never
    encoded, and the new groups' first rows index the whole batch."""
    if not skip.any():
        return encoder.encode_batch(columns)
    rows = (~skip).nonzero()[0]
    kept, new_first_rows = encoder.encode_batch([take(column, rows) for column in columns])
    codes = np.full(len(skip), NULL_CODE, dtype=np.int64)
    codes[rows] = kept
    return codes, rows[new_first_rows]


class JoinKeyTable:
    """The key dictionary of a hash join's build side.

    The build keys go through one
    :meth:`IncrementalGroupEncoder.encode_batch` — over the rows whose key
    holds no NULL or NaN; the others get :data:`NULL_CODE` and are never
    encoded — so :attr:`build_codes` numbers the distinct build keys
    ``0 .. group_count - 1``.  :meth:`probe` maps probe key columns through
    :meth:`IncrementalGroupEncoder.lookup`, which adds nothing and answers
    :data:`NULL_CODE` for a key the build side lacks (so for NULL and NaN):
    a whole probe batch resolves to build codes with array lookups and no
    per-row tuples, and probes may run on several threads at once.
    """

    def __init__(
        self,
        build_columns: Sequence[Sequence[Any]],
        build_dtypes: Sequence[DataType | None],
        probe_dtypes: Sequence[DataType | None] | None = None,
    ) -> None:
        probe_dtypes = probe_dtypes if probe_dtypes is not None else build_dtypes
        # A column takes the fixed-width path only when both sides share its
        # dtype; mixed pairs (e.g. INTEGER vs FLOAT) use the dict path, whose
        # Python hashing equates 1 and 1.0 like the row executor.
        self._encoder = IncrementalGroupEncoder(
            [build if build == probe else None for build, probe in zip(build_dtypes, probe_dtypes)]
        )
        unmatchable = nan_rows(build_columns)
        for column in build_columns:
            unmatchable |= null_mask(column)
        self.build_codes = encode_except(self._encoder, build_columns, unmatchable)[0]
        self.group_count = self._encoder.group_count

    def probe(self, columns: Sequence[Sequence[Any]]) -> np.ndarray:
        """Map probe key columns to build codes (``NULL_CODE`` = no match)."""
        return self._encoder.lookup(columns)
