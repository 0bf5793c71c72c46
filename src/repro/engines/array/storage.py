"""Chunked array storage backed by numpy, with per-chunk synopses.

Each attribute of an array is stored as one dense numpy array covering the
whole dimension space, plus a validity mask for empty cells.  Chunk metadata
(min / max / sum / count per chunk) is maintained lazily; it is what the
Searchlight exploration system and the ScalaR browser read as a *synopsis* —
a small structure that answers aggregate questions without touching the data.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterator

import numpy as np

from repro.common.cancellation import check_cancelled
from repro.common.errors import SchemaError, UnsupportedOperationError
from repro.common.schema import Column, Relation, Schema
from repro.common.types import DataType, coerce
from repro.common.vectors import NumericVector
from repro.engines.array.schema import ArraySchema


_NUMPY_DTYPES = {
    DataType.INTEGER: np.int64,
    DataType.FLOAT: np.float64,
    DataType.BOOLEAN: np.bool_,
    DataType.TEXT: object,
    DataType.TIMESTAMP: np.float64,
}


@dataclass
class ChunkSynopsis:
    """Aggregate summary of one chunk of one attribute."""

    chunk: tuple[int, ...]
    count: int
    minimum: float | None
    maximum: float | None
    total: float | None

    @property
    def mean(self) -> float | None:
        if not self.count or self.total is None:
            return None
        return self.total / self.count


class StoredArray:
    """One array's data: a dense numpy buffer per attribute plus an empty-cell mask."""

    def __init__(self, schema: ArraySchema) -> None:
        self.schema = schema
        self._buffers: dict[str, np.ndarray] = {}
        for attribute in schema.attributes:
            dtype = _NUMPY_DTYPES[attribute.dtype]
            if attribute.dtype is DataType.TEXT:
                self._buffers[attribute.name.lower()] = np.empty(schema.shape, dtype=object)
            else:
                self._buffers[attribute.name.lower()] = np.zeros(schema.shape, dtype=dtype)
        self._present = np.zeros(schema.shape, dtype=np.bool_)
        self._synopsis_dirty = True
        self._synopses: dict[str, list[ChunkSynopsis]] = {}

    # ------------------------------------------------------------------ access
    def buffer(self, attribute: str) -> np.ndarray:
        key = attribute.lower()
        if key not in self._buffers:
            raise SchemaError(f"array {self.schema.name!r} has no attribute {attribute!r}")
        return self._buffers[key]

    @property
    def present_mask(self) -> np.ndarray:
        return self._present

    @property
    def populated_cells(self) -> int:
        return int(self._present.sum())

    def write_cell(self, coordinates: tuple[int, ...], values: dict[str, Any]) -> None:
        """Write one cell's attribute values at the given dimension coordinates."""
        indexes = self.schema.coordinates_to_indexes(coordinates)
        for name, value in values.items():
            self.buffer(name)[indexes] = value
        self._present[indexes] = True
        self._synopsis_dirty = True

    def read_cell(self, coordinates: tuple[int, ...]) -> dict[str, Any] | None:
        """Read one cell; returns None for an empty cell."""
        indexes = self.schema.coordinates_to_indexes(coordinates)
        if not self._present[indexes]:
            return None
        return {a.name: self._buffers[a.name.lower()][indexes].item()
                if hasattr(self._buffers[a.name.lower()][indexes], "item")
                else self._buffers[a.name.lower()][indexes]
                for a in self.schema.attributes}

    def write_block(self, attribute: str, start: tuple[int, ...], block: np.ndarray) -> None:
        """Bulk write a dense block of one attribute starting at ``start`` coordinates."""
        indexes = self.schema.coordinates_to_indexes(start)
        slices = tuple(
            slice(idx, idx + size) for idx, size in zip(indexes, block.shape)
        )
        target = self.buffer(attribute)
        if any(s.stop > dim for s, dim in zip(slices, target.shape)):
            raise SchemaError("block extends beyond the array bounds")
        target[slices] = block
        self._present[slices] = True
        self._synopsis_dirty = True

    def read_block(self, attribute: str, low: tuple[int, ...], high: tuple[int, ...]) -> np.ndarray:
        """Read the dense block of one attribute between inclusive coordinate bounds."""
        low_idx = self.schema.coordinates_to_indexes(low)
        high_idx = self.schema.coordinates_to_indexes(high)
        slices = tuple(slice(lo, hi + 1) for lo, hi in zip(low_idx, high_idx))
        return self.buffer(attribute)[slices]

    def iter_cells(self) -> Iterator[tuple[tuple[int, ...], dict[str, Any]]]:
        """Yield (coordinates, values) for every populated cell, row-major."""
        coords = np.argwhere(self._present)
        offsets = [d.start for d in self.schema.dimensions]
        for idx in coords:
            coordinates = tuple(int(i) + off for i, off in zip(idx, offsets))
            values = {}
            for attribute in self.schema.attributes:
                raw = self._buffers[attribute.name.lower()][tuple(idx)]
                values[attribute.name] = raw.item() if hasattr(raw, "item") else raw
            yield coordinates, values

    # -------------------------------------------------------- relational view
    def flat_schema(self) -> Schema:
        """The schema of the flattened array: one INTEGER column per
        dimension (the cell's coordinates), then one column per attribute."""
        columns = [Column(d.name, DataType.INTEGER) for d in self.schema.dimensions]
        columns += [Column(a.name, a.dtype) for a in self.schema.attributes]
        return Schema(columns)

    def cell_chunks(self, chunk_size: int | None = None) -> Iterator[Relation]:
        """Populated cells, row-major, as relations over :meth:`flat_schema`
        of at most ``chunk_size`` rows; nothing for an array with no
        populated cell.  With no ``chunk_size``, exactly one relation holding
        every cell (empty for an empty array): the whole array flattened.

        Each chunk is one gather (:meth:`_gather`), kept typed: coordinates
        and INTEGER / FLOAT / BOOLEAN attributes are ``NumericVector``
        columns over the gathered buffers, so no Python value is made for
        them (see :meth:`Relation.column_vector`); TEXT and TIMESTAMP values
        exist as Python objects one chunk at a time.
        """
        schema = self.flat_schema()
        indexes = np.nonzero(self._present)
        total = len(indexes[0])
        if chunk_size is None:
            starts, step = range(1), total
        else:
            starts, step = range(0, total, chunk_size), chunk_size
        for start in starts:
            check_cancelled()  # chunk boundary: cancelled exports stop here
            part = tuple(axis[start : start + step] for axis in indexes)
            yield Relation.from_columns(schema, self._gather(part), len(part[0]))

    def _gather(self, part: tuple[np.ndarray, ...]) -> list[Any]:
        """The cells at ``part`` (one index array per axis, from ``np.nonzero``
        on the presence mask) as :meth:`flat_schema` columns: coordinates and
        fixed-width attributes one fancy-index read each, held as a
        NULL-free ``NumericVector``; TEXT (an object buffer) and TIMESTAMP
        (epoch seconds in a float buffer) as lists through
        :func:`~repro.common.types.coerce`."""
        columns: list[Any] = [
            NumericVector(axis + dimension.start)
            for axis, dimension in zip(part, self.schema.dimensions)
        ]
        for attribute in self.schema.attributes:
            values = self._buffers[attribute.name.lower()][part]
            if attribute.dtype in (DataType.TEXT, DataType.TIMESTAMP):
                columns.append([coerce(value, attribute.dtype) for value in values.tolist()])
            else:
                columns.append(NumericVector(values))
        return columns

    # ---------------------------------------------------------------- synopsis
    def synopsis(self, attribute: str) -> list[ChunkSynopsis]:
        """Per-chunk aggregate summaries for one attribute (rebuilt lazily)."""
        attr = self.schema.attribute(attribute)
        if attr.dtype is DataType.TEXT:
            raise UnsupportedOperationError("synopses are only defined for numeric attributes")
        if self._synopsis_dirty or attribute.lower() not in self._synopses:
            self._rebuild_synopsis(attribute)
        return self._synopses[attribute.lower()]

    def _rebuild_synopsis(self, attribute: str) -> None:
        buffer = self.buffer(attribute)
        synopses = []
        for chunk in self.schema.chunks():
            slices = self.schema.chunk_slices(chunk)
            mask = self._present[slices]
            values = buffer[slices][mask]
            if values.size:
                synopses.append(
                    ChunkSynopsis(
                        chunk=chunk,
                        count=int(values.size),
                        minimum=float(values.min()),
                        maximum=float(values.max()),
                        total=float(values.sum()),
                    )
                )
            else:
                synopses.append(ChunkSynopsis(chunk=chunk, count=0, minimum=None, maximum=None, total=None))
        self._synopses[attribute.lower()] = synopses
        self._synopsis_dirty = False

    # ------------------------------------------------------------------ stats
    def statistics(self) -> dict[str, Any]:
        return {
            "name": self.schema.name,
            "shape": self.schema.shape,
            "populated_cells": self.populated_cells,
            "attributes": [a.name for a in self.schema.attributes],
            "chunk_count": sum(1 for _ in self.schema.chunks()),
        }
