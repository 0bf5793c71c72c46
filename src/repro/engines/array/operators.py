"""Array operators in the style of SciDB's AFL: filter, between, subarray,
apply, aggregate, window aggregates and regrid.

Each operator takes a :class:`StoredArray` (plus parameters) and returns a new
:class:`StoredArray`, so operators compose exactly as AFL expressions do.
"""

from __future__ import annotations

from typing import Any, Callable

import numpy as np

from repro.common.errors import ExecutionError, SchemaError, UnsupportedOperationError
from repro.common.types import DataType
from repro.engines.array.schema import ArraySchema, Attribute, Dimension
from repro.engines.array.storage import StoredArray


_AGGREGATIONS: dict[str, Callable[[np.ndarray], float]] = {
    "count": lambda values: float(values.size),
    "sum": lambda values: float(values.sum()),
    "avg": lambda values: float(values.mean()),
    "min": lambda values: float(values.min()),
    "max": lambda values: float(values.max()),
    "stddev": lambda values: float(values.std(ddof=1)) if values.size > 1 else 0.0,
    "var": lambda values: float(values.var(ddof=1)) if values.size > 1 else 0.0,
}


def filter_array(array: StoredArray, attribute: str, predicate: Callable[[np.ndarray], np.ndarray]) -> StoredArray:
    """Keep only the cells where ``predicate`` over one attribute's values holds.

    ``predicate`` receives the whole attribute buffer and must return a boolean
    mask of the same shape (vectorized filtering, as an array engine would do).
    """
    buffer = array.buffer(attribute)
    mask = predicate(buffer)
    if mask.shape != buffer.shape:
        raise ExecutionError("filter predicate must return a mask of the array's shape")
    result = StoredArray(array.schema)
    keep = mask & array.present_mask
    for attr in array.schema.attributes:
        target = result.buffer(attr.name)
        source = array.buffer(attr.name)
        target[keep] = source[keep]
    result.present_mask[:] = keep
    return result


def between(array: StoredArray, low: tuple[int, ...], high: tuple[int, ...]) -> StoredArray:
    """Keep cells whose coordinates fall inside the inclusive box [low, high].

    The result keeps the original dimension space (like AFL ``between``).
    """
    _validate_box(array.schema, low, high)
    result = StoredArray(array.schema)
    low_idx = array.schema.coordinates_to_indexes(low)
    high_idx = array.schema.coordinates_to_indexes(high)
    slices = tuple(slice(lo, hi + 1) for lo, hi in zip(low_idx, high_idx))
    box_mask = np.zeros(array.schema.shape, dtype=bool)
    box_mask[slices] = True
    keep = box_mask & array.present_mask
    for attr in array.schema.attributes:
        result.buffer(attr.name)[keep] = array.buffer(attr.name)[keep]
    result.present_mask[:] = keep
    return result


def subarray(array: StoredArray, low: tuple[int, ...], high: tuple[int, ...], name: str | None = None) -> StoredArray:
    """Extract the box [low, high] into a new, smaller array re-origined at 0."""
    _validate_box(array.schema, low, high)
    new_dims = []
    for lo, hi, dim in zip(low, high, array.schema.dimensions):
        length = hi - lo + 1
        new_dims.append(Dimension(dim.name, 0, length - 1, min(dim.chunk_length, length)))
    new_schema = ArraySchema(name or f"{array.schema.name}_sub", new_dims, array.schema.attributes)
    result = StoredArray(new_schema)
    low_idx = array.schema.coordinates_to_indexes(low)
    high_idx = array.schema.coordinates_to_indexes(high)
    slices = tuple(slice(lo, hi + 1) for lo, hi in zip(low_idx, high_idx))
    for attr in array.schema.attributes:
        result.buffer(attr.name)[...] = array.buffer(attr.name)[slices]
    result.present_mask[...] = array.present_mask[slices]
    return result


def apply(array: StoredArray, new_attribute: str, dtype: DataType,
          fn: Callable[..., np.ndarray], *inputs: str) -> StoredArray:
    """Add a computed attribute: ``fn`` receives the input attribute buffers."""
    if array.schema.has_attribute(new_attribute):
        raise SchemaError(f"attribute {new_attribute!r} already exists")
    new_schema = ArraySchema(
        array.schema.name,
        array.schema.dimensions,
        array.schema.attributes + [Attribute(new_attribute, dtype)],
    )
    result = StoredArray(new_schema)
    for attr in array.schema.attributes:
        result.buffer(attr.name)[...] = array.buffer(attr.name)
    buffers = [array.buffer(name) for name in inputs]
    computed = fn(*buffers)
    if np.shape(computed) != array.schema.shape:
        raise ExecutionError("apply function must return an array of the input shape")
    result.buffer(new_attribute)[...] = computed
    result.present_mask[...] = array.present_mask
    return result


def project(array: StoredArray, attributes: list[str]) -> StoredArray:
    """Keep only the named attributes."""
    kept = [array.schema.attribute(a) for a in attributes]
    new_schema = ArraySchema(array.schema.name, array.schema.dimensions, kept)
    result = StoredArray(new_schema)
    for attr in kept:
        result.buffer(attr.name)[...] = array.buffer(attr.name)
    result.present_mask[...] = array.present_mask
    return result


def aggregate(array: StoredArray, attribute: str, functions: list[str]) -> dict[str, float | None]:
    """Full-array aggregate of one attribute over populated cells."""
    values = array.buffer(attribute)[array.present_mask]
    results: dict[str, float | None] = {}
    for fn in functions:
        key = fn.lower()
        if key not in _AGGREGATIONS:
            raise UnsupportedOperationError(f"unknown aggregate {fn!r}")
        results[key] = _AGGREGATIONS[key](values) if values.size else None
    return results


def aggregate_by_dimension(
    array: StoredArray, attribute: str, dimension: str, function: str
) -> dict[int, float]:
    """Group-by one dimension: aggregate the attribute along all other dimensions."""
    key = function.lower()
    if key not in _AGGREGATIONS:
        raise UnsupportedOperationError(f"unknown aggregate {function!r}")
    dim_index = array.schema.dimension_index(dimension)
    dim = array.schema.dimensions[dim_index]
    buffer = array.buffer(attribute)
    mask = array.present_mask
    results: dict[int, float] = {}
    for offset in range(dim.length):
        slicer: list[Any] = [slice(None)] * array.schema.ndim
        slicer[dim_index] = offset
        values = buffer[tuple(slicer)][mask[tuple(slicer)]]
        if values.size:
            results[dim.start + offset] = _AGGREGATIONS[key](values)
    return results


def window(array: StoredArray, attribute: str, window_size: int, function: str,
           dimension: str | None = None) -> StoredArray:
    """Sliding-window aggregate along one dimension (defaults to the first).

    Produces a new single-attribute array of the same shape whose cell value is
    the aggregate of the trailing ``window_size`` cells along the dimension.
    """
    key = function.lower()
    if key not in _AGGREGATIONS:
        raise UnsupportedOperationError(f"unknown aggregate {function!r}")
    if window_size <= 0:
        raise ExecutionError("window size must be positive")
    dim_index = 0 if dimension is None else array.schema.dimension_index(dimension)
    buffer = np.asarray(array.buffer(attribute), dtype=float)
    out_name = f"{key}_{attribute}"
    new_schema = ArraySchema(
        f"{array.schema.name}_window",
        array.schema.dimensions,
        [Attribute(out_name, DataType.FLOAT)],
    )
    result = StoredArray(new_schema)
    moved = np.moveaxis(buffer, dim_index, -1)
    out = np.empty_like(moved)
    length = moved.shape[-1]
    # Trailing-window aggregate via cumulative sums for sum/avg/count; generic loop otherwise.
    if key in ("sum", "avg", "count"):
        cumsum = np.cumsum(moved, axis=-1)
        windowed_sum = cumsum.copy()
        windowed_sum[..., window_size:] = cumsum[..., window_size:] - cumsum[..., :-window_size]
        counts = np.minimum(np.arange(1, length + 1), window_size)
        if key == "sum":
            out = windowed_sum
        elif key == "count":
            out = np.broadcast_to(counts.astype(float), moved.shape).copy()
        else:
            out = windowed_sum / counts
    else:
        for i in range(length):
            lo = max(0, i - window_size + 1)
            out[..., i] = _apply_along(moved[..., lo : i + 1], key)
    result.buffer(out_name)[...] = np.moveaxis(out, -1, dim_index)
    result.present_mask[...] = array.present_mask
    return result


def _apply_along(block: np.ndarray, key: str) -> np.ndarray:
    if key == "min":
        return block.min(axis=-1)
    if key == "max":
        return block.max(axis=-1)
    if key == "stddev":
        return block.std(axis=-1, ddof=1) if block.shape[-1] > 1 else np.zeros(block.shape[:-1])
    if key == "var":
        return block.var(axis=-1, ddof=1) if block.shape[-1] > 1 else np.zeros(block.shape[:-1])
    raise UnsupportedOperationError(f"window aggregate {key!r} not supported")


def regrid(array: StoredArray, attribute: str, block_sizes: tuple[int, ...], function: str) -> StoredArray:
    """Downsample: partition the array into blocks and aggregate each block to one cell.

    This is the operation behind ScalaR's multi-resolution browsing.
    """
    key = function.lower()
    if key not in _AGGREGATIONS:
        raise UnsupportedOperationError(f"unknown aggregate {function!r}")
    if len(block_sizes) != array.schema.ndim:
        raise SchemaError("one block size per dimension is required")
    new_dims = []
    for size, dim in zip(block_sizes, array.schema.dimensions):
        if size <= 0:
            raise SchemaError("block sizes must be positive")
        new_length = (dim.length + size - 1) // size
        new_dims.append(Dimension(dim.name, 0, new_length - 1, max(1, min(dim.chunk_length, new_length))))
    out_name = f"{key}_{attribute}"
    new_schema = ArraySchema(
        f"{array.schema.name}_regrid", new_dims, [Attribute(out_name, DataType.FLOAT)]
    )
    result = StoredArray(new_schema)
    buffer = np.asarray(array.buffer(attribute), dtype=float)
    mask = array.present_mask
    out_shape = tuple(d.length for d in new_dims)
    out = np.zeros(out_shape)
    out_present = np.zeros(out_shape, dtype=bool)
    for block_index in np.ndindex(*out_shape):
        slices = tuple(
            slice(i * size, min((i + 1) * size, dim.length))
            for i, size, dim in zip(block_index, block_sizes, array.schema.dimensions)
        )
        values = buffer[slices][mask[slices]]
        if values.size:
            out[block_index] = _AGGREGATIONS[key](values)
            out_present[block_index] = True
    result.buffer(out_name)[...] = out
    result.present_mask[...] = out_present
    return result


def cross_join(left: StoredArray, right: StoredArray, name: str | None = None) -> StoredArray:
    """Join two arrays with identical dimension spaces, concatenating attributes."""
    if left.schema.shape != right.schema.shape:
        raise SchemaError("cross_join requires arrays with identical shapes")
    attributes = list(left.schema.attributes)
    for attr in right.schema.attributes:
        if left.schema.has_attribute(attr.name):
            attr = Attribute(f"{attr.name}_right", attr.dtype, attr.nullable)
        attributes.append(attr)
    schema = ArraySchema(name or f"{left.schema.name}_join", left.schema.dimensions, attributes)
    result = StoredArray(schema)
    for attr in left.schema.attributes:
        result.buffer(attr.name)[...] = left.buffer(attr.name)
    for original, renamed in zip(right.schema.attributes, attributes[len(left.schema.attributes):]):
        result.buffer(renamed.name)[...] = right.buffer(original.name)
    result.present_mask[...] = left.present_mask & right.present_mask
    return result


def _validate_box(schema: ArraySchema, low: tuple[int, ...], high: tuple[int, ...]) -> None:
    if len(low) != schema.ndim or len(high) != schema.ndim:
        raise SchemaError("box bounds must have one coordinate per dimension")
    for lo, hi, dim in zip(low, high, schema.dimensions):
        if lo > hi:
            raise SchemaError(f"box bound {lo} > {hi} on dimension {dim.name!r}")
