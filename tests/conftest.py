"""Shared fixtures: a small deterministic MIMIC deployment reused across tests,
the reference executor the relational parity suites compare against, and the
per-cell / per-row CAST endpoints the columnar ones replaced."""

from __future__ import annotations

from typing import Any, Iterable

import pytest

from repro.common.errors import ExecutionError
from repro.common.schema import Column, Relation, Schema
from repro.common.serialization import BinaryCodec
from repro.common.types import DataType
from repro.engines.array import ArrayEngine
from repro.engines.array.schema import ArraySchema, Attribute, Dimension
from repro.engines.array.storage import StoredArray
from repro.engines.keyvalue import KeyValueEngine
from repro.engines.relational import RelationalEngine
from repro.engines.relational.storage import HeapTable
from repro.engines.streaming import StreamingEngine
from repro.engines.tiledb import TileDBEngine
from repro.engines.tupleware import TuplewareEngine
from repro.mimic import MimicGenerator, build_polystore
from repro.mimic.generator import MimicDataset
from reference_executor import Executor


def reference_execute(engine: RelationalEngine, sql: str) -> Relation:
    """``sql`` answered by the row-at-a-time reference executor over
    ``engine``'s tables and (optimized) plan — what ``engine.execute(sql)``
    must reproduce byte for byte."""
    return Executor(engine).execute(engine.plan(sql))


def _nan_as_text(relation: Relation) -> list[tuple]:
    """Row values with NaN spelled out: two NaN answers are the same answer,
    but only one float object ever equals itself."""
    return [
        tuple("NaN" if isinstance(v, float) and v != v else v for v in row.values)
        for row in relation.rows
    ]


def assert_matches_reference(engine: RelationalEngine, sql: str) -> Relation:
    """Assert ``engine.execute(sql)`` equals the reference in schema, values,
    order and (where the schema encodes at all) ``BinaryCodec`` bytes."""
    actual = engine.execute(sql)
    expected = reference_execute(engine, sql)
    assert actual.schema == expected.schema, sql
    assert _nan_as_text(actual) == _nan_as_text(expected), sql
    codec = BinaryCodec()
    try:
        expected_bytes = codec.encode(expected)
    except (ValueError, OverflowError):
        # A SUM over TEXT (the accumulator concatenates; the result is
        # typed FLOAT) and integers beyond int64 make a few results
        # unencodable on every path; values were compared above.
        return actual
    assert codec.encode(actual) == expected_bytes, sql
    return actual


def reference_array_import(name: str, schema: Schema, chunks: Iterable[Relation],
                           **options: Any) -> StoredArray:
    """The array ``ArrayEngine.import_chunks`` must build, cell for cell: the
    loop it ran before it went columnar — one ``dict`` and one ``write_cell``
    per row, bounds folded one coordinate at a time."""
    dim_columns: list[str] = options.get("dimensions") or [schema.names[0]]
    chunk_length = int(options.get("chunk_length", 10_000))
    attr_columns = [c for c in schema.columns if c.name not in dim_columns]
    if not attr_columns:
        raise ExecutionError("importing an array requires at least one attribute column")
    cells: list[tuple[tuple[int, ...], dict[str, Any]]] = []
    bounds: list[tuple[int, int]] | None = None
    for chunk in chunks:
        for row in chunk:
            coordinates = tuple(int(row[d]) for d in dim_columns)
            if bounds is None:
                bounds = [(c, c) for c in coordinates]
            else:
                bounds = [
                    (min(lo, c), max(hi, c))
                    for (lo, hi), c in zip(bounds, coordinates)
                ]
            cells.append((coordinates, {c.name: row[c.name] for c in attr_columns}))
    if bounds is None:
        bounds = [(0, 0)] * len(dim_columns)
    dims = [
        Dimension(dim_name, low, high, min(chunk_length, high - low + 1))
        for dim_name, (low, high) in zip(dim_columns, bounds)
    ]
    attributes = [Attribute(c.name, c.dtype) for c in attr_columns]
    stored = StoredArray(ArraySchema(name, dims, attributes))
    for coordinates, values in cells:
        stored.write_cell(coordinates, values)
    return stored


def reference_array_export(array: StoredArray) -> Relation:
    """The relation an array flattens to: the ``iter_cells`` loop (one
    validated row per cell) ``StoredArray.to_relation`` replaced."""
    columns = [Column(d.name, DataType.INTEGER) for d in array.schema.dimensions]
    columns += [Column(a.name, a.dtype) for a in array.schema.attributes]
    return Relation(Schema(columns), [
        list(coordinates) + [values[a.name] for a in array.schema.attributes]
        for coordinates, values in array.iter_cells()
    ])


def reference_table_import(name: str, schema: Schema, chunks: Iterable[Relation],
                           primary_key: tuple[str, ...] = ()) -> HeapTable:
    """The table ``RelationalEngine.import_chunks`` must build: one validated
    ``HeapTable.insert`` per row, as before the bulk load."""
    table = HeapTable(name, schema, primary_key)
    for chunk in chunks:
        for row in chunk:
            table.insert(row.values)
    return table


# Tests take the helpers as fixtures: ``from conftest import ...`` would
# resolve to whichever conftest.py (tests/ or benchmarks/) pytest loaded last.
@pytest.fixture(scope="session", name="reference_execute")
def _reference_execute_fixture():
    return reference_execute


@pytest.fixture(scope="session", name="assert_matches_reference")
def _assert_matches_reference_fixture():
    return assert_matches_reference


@pytest.fixture(scope="session", name="reference_array_import")
def _reference_array_import_fixture():
    return reference_array_import


@pytest.fixture(scope="session", name="reference_array_export")
def _reference_array_export_fixture():
    return reference_array_export


@pytest.fixture(scope="session", name="reference_table_import")
def _reference_table_import_fixture():
    return reference_table_import


#: One factory per engine kind BigDAWG federates.
ENGINE_FACTORIES = {
    "relational": lambda: RelationalEngine("pg"),
    "array": lambda: ArrayEngine("scidb"),
    "keyvalue": lambda: KeyValueEngine("accumulo"),
    "streaming": lambda: StreamingEngine("sstore"),
    "tiledb": lambda: TileDBEngine("tiledb"),
    "tupleware": lambda: TuplewareEngine("tupleware"),
}


@pytest.fixture(params=list(ENGINE_FACTORIES), name="each_engine")
def _each_engine_fixture(request):
    """A fresh engine of every kind in turn (the test runs once per kind)."""
    return ENGINE_FACTORIES[request.param]()


SMALL_GENERATOR = MimicGenerator(
    patient_count=60,
    waveform_patients=3,
    waveform_samples=1000,
    sample_rate_hz=50.0,
    anomaly_fraction=1.0,
    seed=42,
)


@pytest.fixture(scope="session")
def mimic_dataset() -> MimicDataset:
    """A small synthetic MIMIC II dataset (generated once per test session)."""
    return SMALL_GENERATOR.generate()


@pytest.fixture()
def deployment(mimic_dataset):
    """A freshly loaded polystore over the shared dataset (per test, engines are mutable)."""
    return build_polystore(dataset=mimic_dataset)
