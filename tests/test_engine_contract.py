"""The engine data-path contract (``repro.engines.base``), held by every
engine kind: ``export_schema`` reads no rows, every chunk has that schema and
all but the last hold exactly ``chunk_size`` rows, a non-positive
``chunk_size`` raises at the call, an empty object yields no chunk,
``import_chunks`` replaces unless ``replace=False``, and an export (an
empty one too) imports back as the same object.

These fail if any of the six engines breaks the contract stated in
``src/repro/engines/base.py``, including that a rename re-keys the object.
``test_cast_chunked.py``, which drives CAST over the same path, goes with
them.  CI runs the tier-1 suite under ``python -X dev``, so the debug
allocator and warnings are on for these tests too.
"""

from __future__ import annotations

import pytest

from repro.common.errors import DuplicateObjectError, ObjectNotFoundError
from repro.common.schema import Column, Schema
from repro.common.types import DataType
from repro.engines.array.schema import ArraySchema, Attribute, Dimension
from repro.engines.tiledb import TileDBArraySchema

ROWS = 7

#: Options an export needs to import back as the same object.
IMPORT_OPTIONS = {"array": {"dimensions": ["i", "j"]}}


def make_object(engine, name: str, rows: int = ROWS) -> None:
    """Create ``name`` on ``engine`` through its native API, holding ``rows``
    rows (cells, tuples, values) when exported."""
    kind = engine.kind
    if kind == "relational":
        engine.execute(f"CREATE TABLE {name} (id INTEGER, label TEXT, value FLOAT)")
        for i in range(rows):
            label = "NULL" if i == 2 else f"'l{i % 3}'"
            engine.execute(f"INSERT INTO {name} VALUES ({i}, {label}, {i / 2})")
    elif kind == "array":
        stored = engine.create_array(ArraySchema(
            name, [Dimension("i", 0, 3, 2), Dimension("j", 0, 3, 2)],
            [Attribute("value", DataType.FLOAT)],
        ))
        for i in range(rows):
            stored.write_cell((i // 3, i % 3), {"value": i / 2})
    elif kind == "keyvalue":
        engine.create_table(name)
        for i in range(rows):
            # Mixed INTEGER and FLOAT values: the export widens to FLOAT.
            engine.put(name, f"r{i}", "attr", "q", i if i % 2 else i / 2)
    elif kind == "streaming":
        engine.create_stream(name, Schema([Column("hr", DataType.INTEGER)]), 3600.0)
        for i in range(rows):
            engine.append(name, float(i), (60 + i,))
    elif kind == "tiledb":
        engine.create_array(TileDBArraySchema(name, ((0, 3), (0, 3)), (2, 2)))
        for i in range(rows):
            engine.write(name, (i // 3, i % 3), i / 2)
    else:
        engine.load(name, [i / 2 for i in range(rows)])


def values(engine, name: str) -> list[tuple]:
    """The exported rows of ``name``, sorted (a tiled array's cell order
    follows its tiling, which an import chooses afresh)."""
    return sorted((row.values for row in engine.export_relation(name).rows), key=repr)


def chunk_values(chunks) -> list[tuple]:
    return sorted((row.values for chunk in chunks for row in chunk.rows), key=repr)


def test_export_schema_reads_no_rows(each_engine, monkeypatch):
    make_object(each_engine, "obj")
    expected = each_engine.export_relation("obj").schema

    def refuse(*_args, **_kwargs):
        raise AssertionError("export_schema read rows")

    for method in ("export_chunks", "export_relation"):
        monkeypatch.setattr(each_engine, method, refuse)
    assert each_engine.export_schema("obj") == expected


@pytest.mark.parametrize("chunk_size, lengths", [
    (1, [1] * ROWS),
    (3, [3, 3, 1]),
    (ROWS, [ROWS]),
    (100, [ROWS]),
])
def test_every_chunk_has_the_schema_and_all_but_the_last_are_full(
        each_engine, chunk_size, lengths):
    make_object(each_engine, "obj")
    schema = each_engine.export_schema("obj")
    chunks = list(each_engine.export_chunks("obj", chunk_size))
    assert [len(chunk) for chunk in chunks] == lengths
    assert all(chunk.schema == schema for chunk in chunks)
    assert chunk_values(chunks) == values(each_engine, "obj")


@pytest.mark.parametrize("chunk_size", [0, -3])
def test_a_non_positive_chunk_size_raises_at_the_call(each_engine, chunk_size):
    make_object(each_engine, "obj")
    with pytest.raises(ValueError):
        each_engine.export_chunks("obj", chunk_size)  # no next(): the call raises


def test_a_missing_object_raises_at_the_call(each_engine):
    with pytest.raises(ObjectNotFoundError):
        each_engine.export_schema("missing")
    with pytest.raises(ObjectNotFoundError):
        each_engine.export_chunks("missing", 3)


def test_an_empty_object_yields_no_chunk(each_engine):
    make_object(each_engine, "empty", rows=0)
    assert list(each_engine.export_chunks("empty", 3)) == []
    relation = each_engine.export_relation("empty")
    assert len(relation) == 0
    assert relation.schema == each_engine.export_schema("empty")


def test_an_export_imports_back_as_the_same_object(each_engine):
    make_object(each_engine, "obj")
    schema = each_engine.export_schema("obj")
    each_engine.import_chunks(
        "copy", schema, each_engine.export_chunks("obj", 3),
        **IMPORT_OPTIONS.get(each_engine.kind, {}),
    )
    assert each_engine.export_schema("copy") == schema
    assert values(each_engine, "copy") == values(each_engine, "obj")


def test_an_empty_export_imports_back_as_an_empty_object(each_engine):
    make_object(each_engine, "empty", rows=0)
    schema = each_engine.export_schema("empty")
    each_engine.import_chunks(
        "copy", schema, each_engine.export_chunks("empty", 3),
        **IMPORT_OPTIONS.get(each_engine.kind, {}),
    )
    assert each_engine.export_schema("copy") == schema
    assert values(each_engine, "copy") == []


def test_import_chunks_replaces_unless_told_not_to(each_engine):
    make_object(each_engine, "obj")
    options = IMPORT_OPTIONS.get(each_engine.kind, {})
    schema = each_engine.export_schema("obj")
    before = values(each_engine, "obj")
    first = next(each_engine.export_chunks("obj", 2))
    with pytest.raises(DuplicateObjectError):
        each_engine.import_chunks("obj", schema, [first], replace=False, **options)
    assert values(each_engine, "obj") == before
    each_engine.import_chunks("obj", schema, [first], **options)
    assert values(each_engine, "obj") == chunk_values([first])


def test_import_relation_is_import_chunks_of_one_chunk(each_engine):
    make_object(each_engine, "obj")
    options = IMPORT_OPTIONS.get(each_engine.kind, {})
    relation = each_engine.export_relation("obj")
    each_engine.import_relation("whole", relation, **options)
    each_engine.import_chunks("chunked", relation.schema, [relation], **options)
    assert values(each_engine, "whole") == values(each_engine, "chunked") == values(each_engine, "obj")


def test_rename_object_re_keys_the_object(each_engine):
    make_object(each_engine, "obj")
    make_object(each_engine, "other", rows=0)
    before = values(each_engine, "obj")
    each_engine.rename_object("obj", "moved")
    assert not each_engine.has_object("obj")
    assert values(each_engine, "moved") == before
    with pytest.raises(DuplicateObjectError):
        each_engine.rename_object("moved", "other", replace=False)
    each_engine.rename_object("moved", "other")
    assert each_engine.list_objects() == ["other"]
    assert values(each_engine, "other") == before
