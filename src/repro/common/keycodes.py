"""Dense int64 key codes for vectorized joins and grouped aggregation.

The batch executor's joins and group-bys both reduce to the same primitive:
map one-or-many key columns to a single dense ``int64`` code per row so that
"same key" becomes "same integer" and the rest of the operator is numpy
index arithmetic (``np.bincount``, ``np.take``, ``np.repeat``) instead of
per-row Python tuples and dict probes.

NULL-sentinel contract
----------------------
* Inside a join key column's encoding, code ``0`` is **reserved for
  NULL**; real values are assigned codes ``1..k``.  Combining columns with
  a mixed-radix step therefore keeps NULL distinct from every real value
  automatically.
* In the public results, :data:`NULL_CODE` (``-1``) marks rows whose key
  contains a NULL **in join position**: :meth:`JoinKeyTable.build_codes`
  and :meth:`JoinKeyTable.probe` return ``-1`` for NULL (or unseen) keys,
  because an SQL equi-join never matches on NULL.
* :class:`IncrementalGroupEncoder` instead treats NULL as a *regular
  grouping value* (SQL GROUP BY puts all-NULL keys in one group): in each
  key column NULL gets a code like any other value, so group codes are
  always ``>= 0``.

Dtype specialization
--------------------
A join key column is factorized once: INTEGER/FLOAT/BOOLEAN with
``np.unique`` over a fixed-width numpy array (a typed vector's own buffer;
NULLs masked out first); a dictionary-encoded TEXT column already *is*
factorized, so its codes shift by one.  A grouping key column keeps a
dictionary that persists across the batches of a stream: a fixed-width
column its sorted distinct values (looked up with ``searchsorted``, or by
direct address when an INTEGER column's values span few slots), a
dictionary TEXT column one remap array per dictionary object.  Everything
else — plain TEXT, TIMESTAMP, out-of-int64-range integers, mixed-type
column pairs, and a fixed-width grouping column past
:data:`_DIRECT_GROUP_SLOTS` distinct values — uses a stable
insertion-ordered Python dict, which preserves the row path's
``==``/``hash`` equality semantics exactly (``1 == 1.0``, ``True == 1``).
"""

from __future__ import annotations

import itertools
import math
import struct
from typing import Any, Sequence

import numpy as np

from repro.common.types import DataType
from repro.common.vectors import (
    VECTOR_DTYPES,
    DictVector,
    NumericVector,
    null_mask,
    numeric_view,
    to_list,
)

#: Public sentinel: the code of a row whose key must not participate in a
#: join (NULL key on either side, or a probe key absent from the build side).
NULL_CODE = -1

#: Mixed-radix combination must stay inside int64; re-densify before this.
_RADIX_LIMIT = np.int64(2) ** 62


class _NumericColumnCodes:
    """Per-column factorization over a fixed-width numpy dtype."""

    def __init__(self, values: Sequence[Any], dtype: Any) -> None:
        filled, nulls = numeric_view(values, dtype)  # may raise OverflowError
        self._dtype = dtype
        if nulls is not None and nulls.any():
            uniq, inverse = np.unique(filled[~nulls], return_inverse=True)
            codes = np.zeros(len(values), dtype=np.int64)
            codes[~nulls] = inverse.astype(np.int64) + 1
        else:
            uniq, inverse = np.unique(filled, return_inverse=True)
            codes = inverse.astype(np.int64) + 1
        self.uniques = uniq
        self.codes = codes
        self.radix = len(uniq) + 1

    def transform(self, values: Sequence[Any]) -> np.ndarray:
        """Codes for probe-side values against this column's dictionary.

        Unseen values and NULLs map to 0 (the reserved NULL slot), which the
        caller treats as non-matching.
        """
        uniq = self.uniques
        if len(uniq) == 0:
            return np.zeros(len(values), dtype=np.int64)
        try:
            filled, nulls = numeric_view(values, self._dtype)
        except (OverflowError, TypeError, ValueError):
            return self._transform_one_by_one(values)
        idx = np.searchsorted(uniq, filled)
        clipped = np.minimum(idx, len(uniq) - 1)
        found = (idx < len(uniq)) & (uniq[clipped] == filled)
        if nulls is not None:
            found &= ~nulls
        return np.where(found, clipped + 1, 0).astype(np.int64)

    def _transform_one_by_one(self, values: Sequence[Any]) -> np.ndarray:
        """Probe values that will not pack into the build dtype (e.g. Python
        ints beyond int64): a misfit value can never equal an in-range build
        key, so it maps to 0; the remaining values probe individually."""
        uniq = self.uniques
        out = np.zeros(len(values), dtype=np.int64)
        for i, value in enumerate(values):
            if value is None:
                continue
            try:
                packed = np.array([value], dtype=self._dtype)[0]
            except (OverflowError, TypeError, ValueError):
                continue
            idx = int(np.searchsorted(uniq, packed))
            if idx < len(uniq) and uniq[idx] == packed:
                out[i] = idx + 1
        return out


class _ObjectColumnCodes:
    """Insertion-ordered dict factorization: the stable fallback for object
    columns, preserving Python ``==``/``hash`` equality across types.  A
    dictionary-encoded column skips the per-row dict: its codes are the
    factorization, and the value -> code mapping is built from its
    dictionary only if a probe side ever needs it."""

    def __init__(self, values: Sequence[Any]) -> None:
        self._mapping: dict[Any, int] | None = None
        self._remapped: tuple[Any, np.ndarray] | None = None
        if isinstance(values, DictVector):
            self._entries = values.dictionary[:-1].tolist()
            self.codes = values.codes.astype(np.int64) + 1
            self.radix = len(self._entries) + 1
            return
        mapping: dict[Any, int] = {}
        setdefault = mapping.setdefault
        # fromiter writes int64 slots directly — no interim list, no
        # per-element ndarray __setitem__.
        self.codes = np.fromiter(
            (0 if v is None else setdefault(v, len(mapping) + 1) for v in to_list(values)),
            np.int64,
            count=len(values),
        )
        self._mapping = mapping
        self.radix = len(mapping) + 1

    def transform(self, values: Sequence[Any]) -> np.ndarray:
        mapping = self._mapping
        if mapping is None:
            mapping = self._mapping = {
                entry: code for code, entry in enumerate(self._entries, 1)
            }
        get = mapping.get
        if isinstance(values, DictVector):
            # One lookup per distinct probe string, broadcast through the
            # codes (NULL, -1, lands on the trailing 0).
            if self._remapped is None or self._remapped[0] is not values.dictionary:
                entries = values.dictionary[:-1].tolist()
                remap = np.fromiter(
                    (get(entry, 0) for entry in entries), np.int64, count=len(entries)
                )
                self._remapped = (values.dictionary, np.append(remap, 0))
            return self._remapped[1][values.codes]
        return np.fromiter(
            (0 if v is None else get(v, 0) for v in to_list(values)),
            np.int64,
            count=len(values),
        )


def _encode_column(values: Sequence[Any], dtype: DataType | None):
    """Factorize one key column; numpy-specialized when the dtype allows."""
    np_dtype = VECTOR_DTYPES.get(dtype) if dtype is not None else None
    if np_dtype is not None:
        try:
            return _NumericColumnCodes(values, np_dtype)
        except (OverflowError, TypeError, ValueError):
            pass  # e.g. Python ints beyond int64: fall through to the dict
    return _ObjectColumnCodes(values)


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


def _distinct_first(keys: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct values of ``keys[rows]`` (ascending, ``rows`` ascending
    and non-empty) and the first of ``rows`` each is at.  Integers spanning
    at most :data:`_DIRECT_GROUP_SLOTS` take a direct-address pass;
    anything else sorts."""
    sub = keys[rows]
    if sub.dtype.kind == "i":
        low = int(sub.min())
        span = int(sub.max()) - low + 1
        if span <= _DIRECT_GROUP_SLOTS:
            first = np.full(span, len(keys), dtype=np.int64)
            np.minimum.at(first, sub - low, rows)
            present = (first < len(keys)).nonzero()[0]
            return (present + low).astype(sub.dtype, copy=False), first[present]
    distinct, first = np.unique(sub, return_index=True)
    return distinct, rows[first]


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


class _KeyColumn:
    """Persistent value -> code dictionary of one grouping key column.

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
    when it meets a batch its dtype cannot hold (integers past int64) or
    its table passes :data:`_DIRECT_GROUP_SLOTS` values — so a
    high-cardinality key costs O(rows) dict work, not a table copy per
    batch.
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

    def encode(self, column: Sequence[Any]) -> tuple[np.ndarray, np.ndarray]:
        """The code of each row, plus the rows where new codes first appear
        (in code order)."""
        if self._mapping is None:
            try:
                values, nulls = numeric_view(column, self._dtype)
            except (OverflowError, TypeError, ValueError):
                self._to_dict()
            else:
                encoded = self._encode_numeric(values, nulls)
                if len(self._values) > _DIRECT_GROUP_SLOTS:
                    self._to_dict()
                return encoded
        if isinstance(column, DictVector):
            return self._encode_dictionary(column)
        before = self.count
        codes = _dict_codes(self._mapping, to_list(column))
        self.count = len(self._mapping)
        return codes, _new_first_rows(codes, before)

    def _to_dict(self) -> None:
        """Move the sorted table into the insertion-ordered dict, once."""
        self._mapping = dict(zip(self._values.tolist(), self._codes.tolist()))
        if self._null_code >= 0:
            self._mapping[None] = self._null_code
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
        added, firsts = _distinct_first(values, rows) if len(rows) else (values[rows], rows)
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
            codes[rows] = self._lookup(values[rows])
        return codes, new_first_rows

    def _lookup(self, values: np.ndarray) -> np.ndarray:
        """The code of each of ``values`` (non-empty), -1 where it has none."""
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
        entries, firsts = _distinct_first(local, rows)
        values = dictionary[entries].tolist()
        mapping = self._mapping
        resolved = np.fromiter(
            map(mapping.get, values, itertools.repeat(-1)), np.int64, count=len(values)
        )
        fresh = resolved < 0
        new_first_rows = _NO_ROWS
        if fresh.any():
            resolved[fresh], new_first_rows = _first_appearance(firsts[fresh], self.count)
            mapping.update(zip(itertools.compress(values, fresh.tolist()), resolved[fresh].tolist()))
            self.count = len(mapping)
        remap[entries] = resolved
        return remap[local], new_first_rows


class IncrementalGroupEncoder:
    """Shared group-key dictionary for the streaming two-pass group-by.

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
    (a plain-TEXT, TIMESTAMP, past-int64 or very high-cardinality column,
    or a group table past the direct limit): that dict is fed by C-level
    ``dict``/``map`` loops.  NaN grouping keys must be rejected by the
    caller before encoding (numpy collapses NaNs that the row path's dict
    keeps distinct).
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
            keys = (
                list(zip(*(c.tolist() for c in per_column)))
                if self._tuples
                else self._pack(per_column).tolist()
            )
            codes = _dict_codes(self._groups, keys)
            self.group_count = len(self._groups)
            return codes, _new_first_rows(codes, before)
        packed = self._pack(per_column)
        codes = self._direct[packed]
        rows = (codes < 0).nonzero()[0]
        if not len(rows):
            return codes, _NO_ROWS
        keys, firsts = _distinct_first(packed, rows)
        groups, new_first_rows = _first_appearance(firsts, before)
        self.group_count += len(keys)
        self._direct[keys] = groups
        codes[rows] = self._direct[packed[rows]]
        return codes, new_first_rows

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
        keys = (
            zip(*(codes.tolist() for codes in per_group))
            if self._tuples
            else self._pack(per_group).tolist()
        )
        self._groups = dict(zip(keys, itertools.count()))

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


class JoinKeyTable:
    """Code dictionary fitted on a hash join's build side.

    Construction factorizes the build keys; :attr:`build_codes` holds one
    dense code per build row with :data:`NULL_CODE` at NULL keys (excluded
    from matching).  :meth:`probe` maps probe-side key columns through the
    same dictionary, returning the matching build code or :data:`NULL_CODE`
    for NULL or never-seen keys — so a whole probe batch resolves to build
    rows with array lookups and zero per-row tuple construction.

    The multi-column combine keeps the build side's radices (probe must
    replay its exact radix arithmetic); when their product would overflow
    int64, the combine degrades to a dict over per-column code tuples
    instead.
    """

    def __init__(
        self,
        build_columns: Sequence[Sequence[Any]],
        build_dtypes: Sequence[DataType | None],
        probe_dtypes: Sequence[DataType | None] | None = None,
    ) -> None:
        probe_dtypes = probe_dtypes if probe_dtypes is not None else build_dtypes
        self._encoders = []
        for col, build_dt, probe_dt in zip(build_columns, build_dtypes, probe_dtypes):
            # The numpy path requires both sides to share the fixed-width
            # dtype; mixed pairs (e.g. INTEGER vs FLOAT) use the dict path,
            # whose Python hashing equates 1 and 1.0 like the row executor.
            dtype = build_dt if build_dt == probe_dt else None
            self._encoders.append(_encode_column(col, dtype))
        self._radices = [max(enc.radix, 1) for enc in self._encoders]
        product = 1
        for radix in self._radices:
            product *= radix
        self._tuple_mode = product >= int(_RADIX_LIMIT)
        per_codes = [enc.codes for enc in self._encoders]
        if self._tuple_mode:
            self._tuple_map: dict[tuple, int] = {}
            self.build_codes = self._tuple_encode(per_codes, fit=True)
            self.group_count = len(self._tuple_map)
        else:
            combined, null_any = self._radix_combine(per_codes)
            valid = ~null_any
            uniq, inverse = np.unique(combined[valid], return_inverse=True)
            codes = np.full(len(combined), NULL_CODE, dtype=np.int64)
            codes[valid] = inverse.astype(np.int64)
            self.build_codes = codes
            self.group_count = len(uniq)
            self._uniques = uniq

    def probe(self, columns: Sequence[Sequence[Any]]) -> np.ndarray:
        """Map probe key columns to build codes (``NULL_CODE`` = no match)."""
        per_codes = [enc.transform(col) for enc, col in zip(self._encoders, columns)]
        if self._tuple_mode:
            return self._tuple_encode(per_codes, fit=False)
        combined, null_any = self._radix_combine(per_codes)
        uniq = self._uniques
        n = len(combined)
        if len(uniq) == 0:
            return np.full(n, NULL_CODE, dtype=np.int64)
        idx = np.searchsorted(uniq, combined)
        clipped = np.minimum(idx, len(uniq) - 1)
        found = (~null_any) & (idx < len(uniq)) & (uniq[clipped] == combined)
        return np.where(found, clipped, NULL_CODE).astype(np.int64)

    def _radix_combine(self, per_codes: list) -> tuple[np.ndarray, np.ndarray]:
        combined = per_codes[0]
        null_any = combined == 0
        for codes, radix in zip(per_codes[1:], self._radices[1:]):
            combined = combined * np.int64(radix) + codes
            null_any = null_any | (codes == 0)
        return combined, null_any

    def _tuple_encode(self, per_codes: list, fit: bool) -> np.ndarray:
        n = len(per_codes[0])
        out = np.full(n, NULL_CODE, dtype=np.int64)
        mapping = self._tuple_map
        rows = zip(*(codes.tolist() for codes in per_codes))
        if fit:
            setdefault = mapping.setdefault
            for i, key in enumerate(rows):
                if 0 not in key:
                    out[i] = setdefault(key, len(mapping))
        else:
            get = mapping.get
            for i, key in enumerate(rows):
                if 0 not in key:
                    out[i] = get(key, NULL_CODE)
        return out
