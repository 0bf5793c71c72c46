"""The TileDB prototype engine: arrays built from irregular dense/sparse tiles.

The engine partitions each array's domain into fixed-extent tiles but lets
every tile choose (and switch) its own representation based on observed
density — the "irregular subarray that can be optimized for dense or sparse
objects" idea.  The complex-analytics interface can read matrices straight
out of it, which is the tight linear-algebra coupling Section 2.4 motivates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Iterator

import numpy as np

from repro.common.errors import DuplicateObjectError, ObjectNotFoundError, SchemaError
from repro.common.schema import Column, Relation, Schema
from repro.common.types import DataType
from repro.engines.base import DEFAULT_CHUNK_ROWS, Engine, EngineCapability, row_chunks
from repro.engines.tiledb.tiles import (
    Tile,
    TileExtent,
    TileStatistics,
    choose_representation,
)


@dataclass
class TileDBArraySchema:
    """Domain (inclusive bounds per dimension) plus tile extents."""

    name: str
    domain: tuple[tuple[int, int], ...]
    tile_extents: tuple[int, ...]
    attribute: str = "value"
    sparse_threshold: float = 0.2

    def __post_init__(self) -> None:
        if len(self.domain) != len(self.tile_extents):
            raise SchemaError("one tile extent per dimension is required")
        for (low, high), extent in zip(self.domain, self.tile_extents):
            if high < low:
                raise SchemaError("domain high bound below low bound")
            if extent <= 0:
                raise SchemaError("tile extents must be positive")

    @property
    def ndim(self) -> int:
        return len(self.domain)


class TileDBArray:
    """One tiled array."""

    def __init__(self, schema: TileDBArraySchema) -> None:
        self.schema = schema
        self._tiles: dict[tuple[int, ...], Tile] = {}
        self.representation_switches = 0

    # ----------------------------------------------------------------- tiling
    def _tile_index(self, coordinates: tuple[int, ...]) -> tuple[int, ...]:
        index = []
        for coord, (low, high), extent in zip(coordinates, self.schema.domain, self.schema.tile_extents):
            if not low <= coord <= high:
                raise SchemaError(f"coordinate {coord} outside domain [{low}, {high}]")
            index.append((coord - low) // extent)
        return tuple(index)

    def _tile_extent(self, tile_index: tuple[int, ...]) -> TileExtent:
        lows = []
        highs = []
        for index, (low, high), extent in zip(tile_index, self.schema.domain, self.schema.tile_extents):
            tile_low = low + index * extent
            tile_high = min(tile_low + extent - 1, high)
            lows.append(tile_low)
            highs.append(tile_high)
        return TileExtent(tuple(lows), tuple(highs))

    def _tile_for(self, coordinates: tuple[int, ...]) -> Tile:
        index = self._tile_index(coordinates)
        if index not in self._tiles:
            self._tiles[index] = choose_representation(
                self._tile_extent(index), expected_density=0.0,
                sparse_threshold=self.schema.sparse_threshold,
            )
        return self._tiles[index]

    # ------------------------------------------------------------------ access
    def write(self, coordinates: tuple[int, ...], value: float) -> None:
        tile = self._tile_for(coordinates)
        tile.write(coordinates, value)
        # Promote a sparse tile to dense once it crosses the density threshold.
        if tile.is_sparse and tile.density >= self.schema.sparse_threshold:
            index = self._tile_index(coordinates)
            self._tiles[index] = tile.to_dense()  # type: ignore[union-attr]
            self.representation_switches += 1

    def read(self, coordinates: tuple[int, ...]) -> float | None:
        index = self._tile_index(coordinates)
        tile = self._tiles.get(index)
        if tile is None:
            return None
        return tile.read(coordinates)

    def write_block(self, start: tuple[int, ...], block: np.ndarray) -> int:
        """Write a dense block starting at ``start``; returns cells written."""
        count = 0
        for offset in np.ndindex(*block.shape):
            coordinates = tuple(s + o for s, o in zip(start, offset))
            self.write(coordinates, float(block[offset]))
            count += 1
        return count

    def slice_box(self, low: tuple[int, ...], high: tuple[int, ...]) -> np.ndarray:
        """Read the inclusive box [low, high] as a dense block (zeros where empty)."""
        shape = tuple(h - l + 1 for l, h in zip(low, high))
        out = np.zeros(shape)
        for index, tile in self._tiles.items():
            if not tile.extent.overlaps(low, high):
                continue
            for coordinates, value in tile.cells():
                if all(l <= c <= h for c, l, h in zip(coordinates, low, high)):
                    out[tuple(c - l for c, l in zip(coordinates, low))] = value
        return out

    def cells(self) -> Iterator[tuple[tuple[int, ...], float]]:
        for index in sorted(self._tiles):
            yield from self._tiles[index].cells()

    @property
    def cell_count(self) -> int:
        return sum(tile.cell_count for tile in self._tiles.values())

    def tile_statistics(self) -> list[TileStatistics]:
        """Per-tile stats: density, representation, min/max/total."""
        stats = []
        for index in sorted(self._tiles):
            tile = self._tiles[index]
            values = tile.values()
            stats.append(
                TileStatistics(
                    extent=tile.extent,
                    cell_count=tile.cell_count,
                    density=tile.density,
                    is_sparse=tile.is_sparse,
                    minimum=float(values.min()) if values.size else None,
                    maximum=float(values.max()) if values.size else None,
                    total=float(values.sum()) if values.size else 0.0,
                )
            )
        return stats

    def to_matrix(self) -> np.ndarray:
        """The whole domain as a dense matrix (for the linear-algebra coupling)."""
        low = tuple(d[0] for d in self.schema.domain)
        high = tuple(d[1] for d in self.schema.domain)
        return self.slice_box(low, high)


class TileDBEngine(Engine):
    """Engine facade exposing tiled arrays to the polystore."""

    kind = "tiledb"

    def __init__(self, name: str = "tiledb") -> None:
        super().__init__(name)
        self._arrays: dict[str, TileDBArray] = {}

    @property
    def capabilities(self) -> EngineCapability:
        return EngineCapability.ARRAY | EngineCapability.LINEAR_ALGEBRA

    def list_objects(self) -> list[str]:
        return sorted(self._arrays)

    def has_object(self, name: str) -> bool:
        return name.lower() in self._arrays

    def create_array(self, schema: TileDBArraySchema, replace: bool = False) -> TileDBArray:
        key = schema.name.lower()
        if key in self._arrays and not replace:
            raise DuplicateObjectError(f"tiledb array {schema.name!r} already exists")
        array = TileDBArray(schema)
        self._arrays[key] = array
        # Native mutation path: invalidate any cached results over this engine.
        self.bump_write_version()
        return array

    def write(self, name: str, coordinates: tuple[int, ...], value: float) -> None:
        """Engine-level cell write; bumps the write version for cache safety.

        Writing through :meth:`array`'s returned handle bypasses the engine
        and therefore the runtime's result-cache invalidation; callers that
        mutate a stored array should go through this method (or
        :meth:`write_block`) instead.
        """
        self.array(name).write(coordinates, value)
        self.bump_write_version()

    def write_block(self, name: str, start: tuple[int, ...], block: np.ndarray) -> int:
        """Engine-level block write; bumps the write version for cache safety."""
        count = self.array(name).write_block(start, block)
        self.bump_write_version()
        return count

    def array(self, name: str) -> TileDBArray:
        key = name.lower()
        if key not in self._arrays:
            raise ObjectNotFoundError(f"tiledb array {name!r} does not exist")
        return self._arrays[key]

    def export_schema(self, name: str) -> Schema:
        """One INTEGER column per dimension (``d0``, ``d1``, ...), then the
        FLOAT attribute."""
        array = self.array(name)
        columns = [Column(f"d{i}", DataType.INTEGER) for i in range(array.schema.ndim)]
        return Schema([*columns, Column(array.schema.attribute, DataType.FLOAT)])

    def export_chunks(self, name: str, chunk_size: int = DEFAULT_CHUNK_ROWS) -> Iterator[Relation]:
        """The written cells, tile by tile, as (coordinates..., value) rows."""
        cells = self.array(name).cells()
        return row_chunks(self.export_schema(name), (
            (*coordinates, value) for coordinates, value in cells
        ), chunk_size)

    def import_chunks(self, name: str, schema: Schema, chunks: Iterable[Relation],
                      **options: Any) -> None:
        """Build a tiled array over the bounding box of the chunks' cells,
        holding the rows until the last chunk fixes the domain (no rows: a
        one-cell domain with no cell written).  The value column names the
        attribute.  Options: ``dimensions`` (default every column but the
        last), ``value_column`` (default the last) and ``replace``.
        Validated here: coordinates go through ``int`` and values through
        ``float``, so a NULL in either raises."""
        names = schema.names
        dim_columns = [schema.index_of(d) for d in options.get("dimensions") or names[:-1]]
        value_column = schema.index_of(options.get("value_column", names[-1]))
        rows = [row.values for chunk in chunks for row in chunk.rows]
        domain = []
        for dim in dim_columns:
            values = [int(row[dim]) for row in rows] or [0]
            domain.append((min(values), max(values)))
        extents = tuple(
            max(1, (high - low + 1) // 10) for low, high in domain
        )
        array = self.create_array(
            TileDBArraySchema(name, tuple(domain), extents, names[value_column]),
            replace=bool(options.get("replace", True)),
        )
        for row in rows:
            array.write(tuple(int(row[dim]) for dim in dim_columns), float(row[value_column]))

    def drop_object(self, name: str) -> None:
        if name.lower() not in self._arrays:
            raise ObjectNotFoundError(f"tiledb array {name!r} does not exist")
        del self._arrays[name.lower()]

    def rename_object(self, old_name: str, new_name: str,
                      replace: bool = True) -> None:
        """O(1) rename: re-key the tiled array (the CAST commit primitive)."""
        old_key, new_key = old_name.lower(), new_name.lower()
        if old_key == new_key:
            return
        if old_key not in self._arrays:
            raise ObjectNotFoundError(f"tiledb array {old_name!r} does not exist")
        if new_key in self._arrays and not replace:
            raise DuplicateObjectError(f"tiledb array {new_name!r} already exists")
        array = self._arrays.pop(old_key)
        array.schema.name = new_name
        self._arrays[new_key] = array
