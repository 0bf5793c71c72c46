"""Dense int64 key codes for vectorized joins and grouped aggregation.

The batch executor's joins and group-bys both reduce to the same primitive:
map one-or-many key columns to a single dense ``int64`` code per row so that
"same key" becomes "same integer" and the rest of the operator is numpy
index arithmetic (``np.bincount``, ``np.take``, ``np.repeat``) instead of
per-row Python tuples and dict probes.

NULL-sentinel contract
----------------------
* Inside a per-column encoding, code ``0`` is **reserved for NULL**; real
  values are assigned codes ``1..k``.  Combining columns with a mixed-radix
  step therefore keeps NULL distinct from every real value automatically.
* In the public results, :data:`NULL_CODE` (``-1``) marks rows whose key
  contains a NULL **in join position**: :meth:`JoinKeyTable.build_codes`
  and :meth:`JoinKeyTable.probe` return ``-1`` for NULL (or unseen) keys,
  because an SQL equi-join never matches on NULL.
* :func:`encode_group_keys` instead treats NULL as a *regular grouping
  value* (SQL GROUP BY puts all-NULL keys in one group), so its codes are
  always ``>= 0``; the per-row NULL information is preserved in
  :attr:`GroupCodes.null_rows`.

Dtype specialization
--------------------
INTEGER/FLOAT/BOOLEAN columns are factorized with ``np.unique`` over a
fixed-width numpy array (a typed vector's own buffer; NULLs masked out
first).  A dictionary-encoded TEXT column already *is* factorized: its codes
shift by one.  Everything else — plain TEXT, TIMESTAMP, out-of-int64-range
integers, and mixed-type column pairs — uses a stable insertion-ordered
Python dict, which preserves the row path's ``==``/``hash`` equality
semantics exactly (``1 == 1.0``, ``True == 1``).
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

from repro.common.types import DataType
from repro.common.vectors import (
    VECTOR_DTYPES,
    DictVector,
    NumericVector,
    null_mask,
    numeric_view,
    take,
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


def _combine(column_codes: list) -> tuple[np.ndarray, np.ndarray]:
    """Mixed-radix combine per-column codes into one int64 code per row.

    Returns ``(combined, null_any)`` where ``null_any`` flags rows with a
    NULL (code 0) in any key column.  Re-densifies via ``np.unique`` before
    any step that could overflow int64.
    """
    first = column_codes[0]
    combined = first.codes
    null_any = combined == 0
    radix_total = np.int64(max(first.radix, 1))
    for encoder in column_codes[1:]:
        radix = np.int64(max(encoder.radix, 1))
        if radix_total > _RADIX_LIMIT // radix:
            uniq, inverse = np.unique(combined, return_inverse=True)
            combined = inverse.astype(np.int64)
            radix_total = np.int64(len(uniq))
        combined = combined * radix + encoder.codes
        null_any = null_any | (encoder.codes == 0)
        radix_total = radix_total * radix
    return combined, null_any


@dataclass
class GroupCodes:
    """Result of :func:`encode_group_keys`.

    ``codes[i]`` is the dense group id of row ``i``, numbered by **first
    appearance** so that emitting groups in code order reproduces the row
    executor's dict-insertion output order exactly.
    """

    codes: np.ndarray  #: int64 group id per row, first-appearance ordered
    group_count: int
    first_rows: np.ndarray  #: row index of each group's first occurrence
    null_rows: np.ndarray  #: bool mask: key contains a NULL (still grouped)


def encode_group_keys(
    columns: Sequence[Sequence[Any]], dtypes: Sequence[DataType | None]
) -> GroupCodes:
    """Factorize grouping key columns into dense first-appearance codes."""
    encoders = [_encode_column(col, dt) for col, dt in zip(columns, dtypes)]
    combined, null_any = _combine(encoders)
    uniq, first_idx, inverse = np.unique(
        combined, return_index=True, return_inverse=True
    )
    order = np.argsort(first_idx, kind="stable")
    rank = np.empty(len(uniq), dtype=np.int64)
    rank[order] = np.arange(len(uniq), dtype=np.int64)
    codes = rank[inverse]
    return GroupCodes(
        codes=codes,
        group_count=len(uniq),
        first_rows=first_idx[order],
        null_rows=null_any,
    )


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


class IncrementalGroupEncoder:
    """Shared group-key dictionary for the streaming two-pass group-by.

    Each batch is factorized locally with :func:`encode_group_keys` (the
    numpy-fast path), then only the batch's **distinct** keys are mapped
    through a persistent insertion-ordered dictionary.  Global codes are
    therefore stable across batches and numbered by first appearance over
    the whole stream — emitting groups in code order reproduces the row
    executor's dict-insertion output order — while the per-batch Python
    work is O(distinct keys in the batch), not O(rows).

    The dictionary keys are the actual key values (a scalar for
    single-column keys, a tuple otherwise), so cross-batch equality follows
    Python ``==``/``hash`` semantics exactly like the row executor's group
    dict (``1 == 1.0``, ``True == 1``).  NaN grouping keys must be rejected
    by the caller before encoding (``np.unique`` collapses NaNs that the
    row path's dict keeps distinct).
    """

    def __init__(self, dtypes: Sequence[DataType | None]) -> None:
        self._dtypes = list(dtypes)
        self._single = len(self._dtypes) == 1
        self._key_map: dict[Any, int] = {}

    @property
    def group_count(self) -> int:
        return len(self._key_map)

    def encode_batch(
        self, columns: Sequence[Sequence[Any]]
    ) -> tuple[np.ndarray, np.ndarray]:
        """Encode one batch of key columns against the shared dictionary.

        Returns ``(codes, new_first_rows)``: the global int64 group code per
        row, plus the batch row indices of the first occurrence of each group
        that is **new** to the stream, in global-code order (the new groups
        occupy codes ``group_count_before .. group_count_after - 1``).
        """
        local = encode_group_keys(columns, self._dtypes)
        key_map = self._key_map
        before = len(key_map)
        # Only the batch's distinct keys turn into Python values: one gather
        # per key column at the groups' first rows.
        firsts = [to_list(take(column, local.first_rows)) for column in columns]
        keys = firsts[0] if self._single else zip(*firsts)
        setdefault = key_map.setdefault
        translation = np.fromiter(
            (setdefault(key, len(key_map)) for key in keys),
            np.int64,
            count=local.group_count,
        )
        # Local codes are first-appearance ordered, so new global codes are
        # assigned in increasing order as the groups advance — the new-group
        # representatives come out already sorted by global code.
        new_first_rows = local.first_rows[translation >= before]
        return translation[local.codes], new_first_rows


class JoinKeyTable:
    """Code dictionary fitted on a hash join's build side.

    Construction factorizes the build keys; :attr:`build_codes` holds one
    dense code per build row with :data:`NULL_CODE` at NULL keys (excluded
    from matching).  :meth:`probe` maps probe-side key columns through the
    same dictionary, returning the matching build code or :data:`NULL_CODE`
    for NULL or never-seen keys — so a whole probe batch resolves to build
    rows with array lookups and zero per-row tuple construction.

    Unlike :func:`encode_group_keys`, the multi-column combine here never
    re-densifies mid-stream (probe must replay the build side's exact radix
    arithmetic); when the radix product would overflow int64, the combine
    degrades to a dict over per-column code tuples instead.
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
