"""The array engine facade: the SciDB stand-in federated by BigDAWG.

Arrays are created from schemas or numpy data, queried either through the
programmatic operator API (:mod:`repro.engines.array.operators`) or through
AFL-style text queries, and exchanged with other engines as relations whose
leading columns are the dimension coordinates.
"""

from __future__ import annotations

import re
from typing import Any, Callable, Iterable, Iterator

import numpy as np

from repro.common.errors import (
    DuplicateObjectError,
    ExecutionError,
    ObjectNotFoundError,
    ParseError,
)
from repro.common.schema import Relation, Schema
from repro.common.types import DataType
from repro.common.vectors import DictVector, NumericVector, object_view
from repro.engines.array import operators as ops
from repro.engines.array.aql import AqlCall, parse_aql
from repro.engines.array.schema import ArraySchema, Attribute, Dimension
from repro.engines.array.storage import _NUMPY_DTYPES, StoredArray
from repro.common.cancellation import check_cancelled
from repro.engines.base import DEFAULT_CHUNK_ROWS, Engine, EngineCapability, check_chunk_size


class ArrayEngine(Engine):
    """An in-process chunked array database."""

    kind = "array"

    def __init__(self, name: str = "scidb") -> None:
        super().__init__(name)
        self._arrays: dict[str, StoredArray] = {}

    # ------------------------------------------------------------- Engine API
    @property
    def capabilities(self) -> EngineCapability:
        return EngineCapability.ARRAY | EngineCapability.LINEAR_ALGEBRA

    def list_objects(self) -> list[str]:
        return sorted(self._arrays)

    def has_object(self, name: str) -> bool:
        return name.lower() in self._arrays

    def export_schema(self, name: str) -> Schema:
        """The flattened export's schema, from the array schema alone:
        dimension coordinates, then attribute values."""
        return self.array(name).flat_schema()

    def export_chunks(self, name: str, chunk_size: int = DEFAULT_CHUNK_ROWS) -> Iterator[Relation]:
        """Stream populated cells as bounded columnar chunks of flattened
        rows (:meth:`StoredArray.cell_chunks`): coordinates and fixed-width
        attributes are ``NumericVector`` columns, so no Python value is
        made for them."""
        check_chunk_size(chunk_size)
        return self.array(name).cell_chunks(chunk_size)

    def import_chunks(self, name: str, schema: Schema, chunks: Iterable[Relation],
                      **options: Any) -> None:
        """Build an array from chunks of flattened rows.

        Options: ``dimensions`` (the columns that become dimensions, default
        the first column alone; the rest become attributes),
        ``chunk_length`` (the array's chunk length per dimension, default
        10 000) and ``replace``.

        Each chunk's columns are read into typed numpy vectors — a
        ``NumericVector`` column in place (:func:`_column_vector`); the array
        is built once the dimension bounds are known (arrays need their
        extent up front) and every chunk lands with one scatter per
        attribute.  This method validates: dimension values are coerced to
        int, a NULL float attribute becomes a NaN cell, TEXT lands in an
        object buffer, the last row wins on a repeated coordinate, and an
        empty stream yields the 1-cell ``(0, ...)`` array.  A column the
        array cannot hold (a NULL coordinate, a NULL integer attribute)
        raises :class:`ExecutionError`.
        """
        if name.lower() in self._arrays and not options.get("replace", True):
            raise DuplicateObjectError(f"array {name!r} already exists")
        dim_columns: list[str] = options.get("dimensions") or [schema.names[0]]
        chunk_length = int(options.get("chunk_length", 10_000))
        attr_columns = [c for c in schema.columns if c.name not in dim_columns]
        if not attr_columns:
            raise ExecutionError("importing an array requires at least one attribute column")
        landed: list[tuple[list[np.ndarray], list[np.ndarray]]] = []
        bounds: list[tuple[int, int]] | None = None
        for number, chunk in enumerate(chunks):
            if not len(chunk):
                continue
            coordinates = [
                _column_vector(name, chunk, d, DataType.INTEGER, number) for d in dim_columns
            ]
            extent = [(int(c.min()), int(c.max())) for c in coordinates]
            if bounds is None:
                bounds = extent
            else:
                bounds = [
                    (min(lo, c_lo), max(hi, c_hi))
                    for (lo, hi), (c_lo, c_hi) in zip(bounds, extent)
                ]
            landed.append((coordinates, [
                _column_vector(name, chunk, c.name, c.dtype, number) for c in attr_columns
            ]))
        if bounds is None:
            bounds = [(0, 0)] * len(dim_columns)
        dims = [
            Dimension(dim_name, low, high, min(chunk_length, high - low + 1))
            for dim_name, (low, high) in zip(dim_columns, bounds)
        ]
        attributes = [Attribute(c.name, c.dtype) for c in attr_columns]
        stored = StoredArray(ArraySchema(name, dims, attributes))
        # Per chunk, the row-major cell number of every row; the buffers are
        # C-contiguous, so reshape(-1) is a view to scatter into.
        cells = [
            np.ravel_multi_index(
                tuple(c - low for c, (low, _high) in zip(coordinates, bounds)),
                stored.schema.shape,
            )
            for coordinates, _values in landed
        ]
        present = stored.present_mask.reshape(-1)
        for flat in cells:
            present[flat] = True
        # numpy leaves the winner of a repeated index in one fancy assignment
        # unspecified, so when some coordinate repeats (fewer cells than rows)
        # each chunk keeps only the last row of every coordinate.
        repeats = stored.populated_cells < sum(len(flat) for flat in cells)
        for flat, (_coordinates, values) in zip(cells, landed):
            if repeats:
                _cell, last = np.unique(flat[::-1], return_index=True)
                keep = len(flat) - 1 - last
                flat, values = flat[keep], [column[keep] for column in values]
            for attribute, column in zip(attributes, values):
                stored.buffer(attribute.name).reshape(-1)[flat] = column
        self._arrays[name.lower()] = stored

    def drop_object(self, name: str) -> None:
        if name.lower() not in self._arrays:
            raise ObjectNotFoundError(f"array {name!r} does not exist")
        del self._arrays[name.lower()]

    def rename_object(self, old_name: str, new_name: str,
                      replace: bool = True) -> None:
        """O(1) rename: re-key the stored array, keeping its schema (and so
        its dimensions) exactly as they are."""
        old_key, new_key = old_name.lower(), new_name.lower()
        if old_key == new_key:
            return
        stored = self.array(old_name)
        if new_key in self._arrays and not replace:
            raise DuplicateObjectError(f"array {new_name!r} already exists")
        del self._arrays[old_key]
        stored.schema.name = new_name
        self._arrays[new_key] = stored

    # --------------------------------------------------------------- creation
    def create_array(self, schema: ArraySchema, replace: bool = False) -> StoredArray:
        key = schema.name.lower()
        if key in self._arrays and not replace:
            raise DuplicateObjectError(f"array {schema.name!r} already exists")
        stored = StoredArray(schema)
        self._arrays[key] = stored
        self.bump_write_version()
        return stored

    def load_numpy(self, name: str, data: np.ndarray, attribute: str = "value",
                   chunk_length: int = 10_000, replace: bool = True) -> StoredArray:
        """Create a dense array directly from a numpy ndarray."""
        data = np.asarray(data)
        dims = []
        dim_names = ["i", "j", "k", "l"]
        for axis, size in enumerate(data.shape):
            dims.append(Dimension(dim_names[axis], 0, size - 1, min(chunk_length, size)))
        dtype = DataType.FLOAT if np.issubdtype(data.dtype, np.floating) else DataType.INTEGER
        schema = ArraySchema(name, dims, [Attribute(attribute, dtype)])
        if name.lower() in self._arrays and not replace:
            raise DuplicateObjectError(f"array {name!r} already exists")
        stored = StoredArray(schema)
        stored.buffer(attribute)[...] = data
        stored.present_mask[...] = True
        self._arrays[name.lower()] = stored
        self.bump_write_version()
        return stored

    def register(self, name: str, stored: StoredArray, replace: bool = True) -> None:
        """Register an externally built :class:`StoredArray` under a name."""
        if name.lower() in self._arrays and not replace:
            raise DuplicateObjectError(f"array {name!r} already exists")
        self._arrays[name.lower()] = stored
        self.bump_write_version()

    def array(self, name: str) -> StoredArray:
        key = name.lower()
        if key not in self._arrays:
            raise ObjectNotFoundError(f"array {name!r} does not exist in engine {self.name!r}")
        return self._arrays[key]

    # ------------------------------------------------------------------ query
    def execute(self, afl: str | AqlCall) -> StoredArray | dict[str, float | None] | dict[int, float]:
        """Execute an AFL-style text query, or a call :func:`parse_aql`
        already parsed (not parsed again).

        Returns a :class:`StoredArray` for array-valued operators, a dict of
        aggregate results for ``aggregate`` and a ``{coordinate: value}`` dict
        for dimension grouping.
        """
        check_cancelled()
        self.queries_executed += 1
        call = afl if isinstance(afl, AqlCall) else parse_aql(afl)
        return self._execute_call(call)

    def _execute_call(self, call: AqlCall) -> Any:
        source = call.source
        if isinstance(source, AqlCall):
            array = self._execute_call(source)
            if not isinstance(array, StoredArray):
                raise ExecutionError(
                    f"nested call {source.operator!r} does not produce an array"
                )
        else:
            array = self.array(str(source))
        args = call.argument_strings()
        operator = call.operator
        if operator == "scan":
            return array
        if operator == "filter":
            if len(args) != 1:
                raise ExecutionError("filter(array, predicate) takes one predicate")
            attribute, predicate = _compile_predicate(args[0], array)
            return ops.filter_array(array, attribute, predicate)
        if operator == "between":
            return ops.between(array, *self._split_box(args, array))
        if operator == "subarray":
            return ops.subarray(array, *self._split_box(args, array))
        if operator == "project":
            return ops.project(array, args)
        if operator == "apply":
            if len(args) != 2:
                raise ExecutionError("apply(array, new_attr, expression) takes two arguments")
            return self._execute_apply(array, args[0], args[1])
        if operator == "aggregate":
            return self._execute_aggregate(array, args)
        if operator == "window":
            if len(args) < 3:
                raise ExecutionError("window(array, attribute, size, function) takes three arguments")
            return ops.window(array, args[0], int(args[1]), args[2],
                              args[3] if len(args) > 3 else None)
        if operator == "regrid":
            if len(args) < 3:
                raise ExecutionError("regrid(array, attribute, block, function) takes three arguments")
            block = tuple(int(a) for a in args[1:-1])
            if len(block) == 1 and array.schema.ndim > 1:
                block = block * array.schema.ndim
            return ops.regrid(array, args[0], block, args[-1])
        raise ExecutionError(f"unknown array operator: {operator!r}")

    # ----------------------------------------------------------------- helpers
    def _split_box(self, args: list[str], array: StoredArray) -> tuple[tuple[int, ...], tuple[int, ...]]:
        ndim = array.schema.ndim
        if len(args) != 2 * ndim:
            raise ExecutionError(
                f"expected {2 * ndim} box coordinates for a {ndim}-dimensional array"
            )
        values = [int(a) for a in args]
        return tuple(values[:ndim]), tuple(values[ndim:])

    def _execute_aggregate(self, array: StoredArray, args: list[str]) -> Any:
        specs = []
        group_dimension = None
        for arg in args:
            match = re.match(r"^([A-Za-z_]+)\s*\(\s*([A-Za-z_][A-Za-z0-9_]*)\s*\)$", arg)
            if match:
                specs.append((match.group(1).lower(), match.group(2)))
            else:
                group_dimension = arg
        if not specs:
            raise ExecutionError("aggregate requires at least one spec such as avg(value)")
        if group_dimension is not None:
            if len(specs) != 1:
                raise ExecutionError("grouped aggregates support one spec at a time")
            function, attribute = specs[0]
            return ops.aggregate_by_dimension(array, attribute, group_dimension, function)
        results: dict[str, float | None] = {}
        for function, attribute in specs:
            value = ops.aggregate(array, attribute, [function])[function]
            results[f"{function}({attribute})"] = value
        return results

    def _execute_apply(self, array: StoredArray, new_attribute: str, expression: str) -> StoredArray:
        attribute, fn = _compile_arithmetic(expression, array)
        return ops.apply(array, new_attribute, DataType.FLOAT, fn, attribute)


def _column_vector(array: str, chunk: Relation, column: str, dtype: DataType,
                   chunk_number: int) -> np.ndarray:
    """One column of an imported chunk as the numpy vector its cells are
    stored as; what numpy cannot convert (a NULL where the buffer is integer,
    a datetime, an out-of-range integer) is an :class:`ExecutionError`.

    A typed column is read in place (:func:`_typed_cells`) when that gives
    what converting its values would; any other column — or one that
    conversion would refuse — takes the conversion of its Python values,
    so both give the same cells and the same errors."""
    index = chunk.schema.index_of(column)
    vector = chunk.column_vector(index)
    if dtype is DataType.TEXT:
        if isinstance(vector, DictVector):
            return vector.dictionary[vector.codes]
        return object_view(chunk.column_values(index))
    if isinstance(vector, NumericVector):
        cells = _typed_cells(vector, np.dtype(_NUMPY_DTYPES[dtype]))
        if cells is not None:
            return cells
    try:
        return np.asarray(chunk.column_values(index), dtype=_NUMPY_DTYPES[dtype])
    except (TypeError, ValueError, OverflowError) as exc:
        raise ExecutionError(
            f"cannot import array {array!r}: column {column!r} of chunk {chunk_number} "
            f"does not fit a {dtype} array buffer ({exc})"
        ) from exc


def _typed_cells(vector: NumericVector, target: np.dtype) -> np.ndarray | None:
    """``vector`` read in place as a ``target`` buffer, the cells
    ``np.asarray`` makes of its Python values: a NULL is NaN in a float
    buffer and ``False`` in a boolean one.  None where the vector's dtype is
    not ``target`` or it holds a NULL for an integer buffer: the caller
    converts the values."""
    values, nulls = vector.values, vector.nulls
    if values.dtype != target:
        return None
    if nulls is not None and not nulls.any():
        nulls = None
    if nulls is not None:
        if target.kind not in "fb":
            return None
        values = np.where(nulls, np.nan if target.kind == "f" else False, values)
    return values


_COMPARISON_RE = re.compile(
    r"^\s*([A-Za-z_][A-Za-z0-9_]*)\s*(<=|>=|!=|=|<|>)\s*(-?[0-9]+(?:\.[0-9]+)?)\s*$"
)
_ARITHMETIC_RE = re.compile(
    r"^\s*([A-Za-z_][A-Za-z0-9_]*)\s*([+\-*/])\s*(-?[0-9]+(?:\.[0-9]+)?)\s*$"
)


def _compile_predicate(text: str, array: StoredArray) -> tuple[str, Callable[[np.ndarray], np.ndarray]]:
    """Compile ``attr <op> literal`` into a vectorized mask function."""
    match = _COMPARISON_RE.match(text)
    if match is None:
        raise ParseError(f"unsupported array filter predicate: {text!r}")
    attribute, op, literal_text = match.groups()
    if not array.schema.has_attribute(attribute):
        raise ExecutionError(f"array has no attribute {attribute!r}")
    literal = float(literal_text)
    operations: dict[str, Callable[[np.ndarray], np.ndarray]] = {
        "<": lambda buf: buf < literal,
        "<=": lambda buf: buf <= literal,
        ">": lambda buf: buf > literal,
        ">=": lambda buf: buf >= literal,
        "=": lambda buf: buf == literal,
        "!=": lambda buf: buf != literal,
    }
    return attribute, operations[op]


def _compile_arithmetic(text: str, array: StoredArray) -> tuple[str, Callable[[np.ndarray], np.ndarray]]:
    """Compile ``attr <op> literal`` into a vectorized arithmetic function."""
    match = _ARITHMETIC_RE.match(text)
    if match is None:
        raise ParseError(f"unsupported apply expression: {text!r}")
    attribute, op, literal_text = match.groups()
    if not array.schema.has_attribute(attribute):
        raise ExecutionError(f"array has no attribute {attribute!r}")
    literal = float(literal_text)
    operations: dict[str, Callable[[np.ndarray], np.ndarray]] = {
        "+": lambda buf: np.asarray(buf, dtype=float) + literal,
        "-": lambda buf: np.asarray(buf, dtype=float) - literal,
        "*": lambda buf: np.asarray(buf, dtype=float) * literal,
        "/": lambda buf: np.asarray(buf, dtype=float) / literal,
    }
    return attribute, operations[op]
