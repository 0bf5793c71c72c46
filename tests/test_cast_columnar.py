"""The columnar CAST data plane against the per-cell loops it replaced.

``tests/conftest.py`` keeps the old endpoints — one ``write_cell`` /
``Relation.append`` / ``HeapTable.insert`` per cell or row — as the reference.
Every property here moves a random object through ``CastMigrator.cast`` and
requires the destination to equal what the reference loops build from the
same rows, cell for cell, at every chunk size and for every method.
"""

from __future__ import annotations

import math
from datetime import datetime, timezone

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import BigDawgError, ConstraintViolationError, ExecutionError
from repro.common.schema import Relation, Row, Schema
from repro.core.cast import CastMigrator
from repro.core.catalog import BigDawgCatalog
from repro.engines.array import ArrayEngine
from repro.engines.array.schema import ArraySchema, Attribute, Dimension
from repro.engines.array.storage import StoredArray
from repro.engines.base import DEFAULT_CHUNK_ROWS
from repro.engines.relational import RelationalEngine

METHODS = ("binary", "csv", "direct")
CHUNK_SIZES = (1, 7, DEFAULT_CHUNK_ROWS)
NATIVE_TYPES = (int, float, str, bool, datetime, type(None))

# Whole seconds survive the binary codec's epoch-float exactly; text avoids
# what the CSV codec cannot carry (control characters, the NULL token's "\").
_text = st.text(
    alphabet=st.characters(blacklist_categories=("Cs", "Cc"), blacklist_characters="\\"),
    max_size=8,
)
_VALUES = {
    "integer": st.integers(-(2 ** 62), 2 ** 62),
    "float": st.floats(allow_nan=True, allow_infinity=True),
    "boolean": st.booleans(),
    "timestamp": st.integers(0, 4_000_000_000).map(
        lambda s: datetime.fromtimestamp(s, tz=timezone.utc)),
    "text": _text,
}
_coordinate = st.integers(-20, 40)   # negative, sparse, and few enough to repeat


@st.composite
def keyed_relations(draw):
    """A relation of 1-2 INTEGER coordinate columns (NULL now and then) and
    1-3 attribute columns of any type, NULLs included."""
    ndim = draw(st.integers(1, 2))
    kinds = draw(st.lists(st.sampled_from(sorted(_VALUES)), min_size=1, max_size=3))
    schema = Schema([(f"d{i}", "integer") for i in range(ndim)]
                    + [(f"a{i}", kind) for i, kind in enumerate(kinds)])
    null_coordinates = draw(st.booleans())
    row = st.tuples(
        *[st.one_of(st.none(), _coordinate) if null_coordinates and i == 0 else _coordinate
          for i in range(ndim)],
        *[st.one_of(st.none(), _VALUES[kind]) for kind in kinds],
    )
    rows = draw(st.lists(row, max_size=12))
    return Relation(schema, [list(r) for r in rows]), [f"d{i}" for i in range(ndim)]


@st.composite
def native_arrays(draw):
    """A sparse array with negative origins and 1-3 attributes of any type,
    written the way an array-engine user would (``write_cell``)."""
    dims = [
        Dimension(f"d{i}", start, start + draw(st.integers(0, 5)), 3)
        for i, start in enumerate(draw(st.lists(st.integers(-9, 9), min_size=1, max_size=2)))
    ]
    kinds = draw(st.lists(st.sampled_from(sorted(_VALUES)), min_size=1, max_size=3))
    stored = StoredArray(ArraySchema(
        "src", dims, [Attribute(f"a{i}", kind) for i, kind in enumerate(kinds)]))
    cell = st.tuples(
        st.tuples(*[st.integers(d.start, d.end) for d in dims]),
        st.tuples(*[
            # Array cells hold what their buffers hold: epoch seconds for a
            # TIMESTAMP, no NULL where the buffer is an integer.
            st.integers(0, 4_000_000_000).map(float) if kind == "timestamp"
            else _VALUES[kind] if kind == "integer"
            else st.one_of(st.none(), _VALUES[kind])
            for kind in kinds
        ]),
    )
    for coordinates, values in draw(st.lists(cell, max_size=12)):
        stored.write_cell(coordinates, {f"a{i}": v for i, v in enumerate(values)})
    return stored


def _polystore() -> tuple[CastMigrator, RelationalEngine, ArrayEngine]:
    catalog = BigDawgCatalog()
    postgres, scidb = RelationalEngine("postgres"), ArrayEngine("scidb")
    catalog.register_engine(postgres, ["relational"])
    catalog.register_engine(scidb, ["array"])
    return CastMigrator(catalog), postgres, scidb


def _chunks(relation: Relation, size: int) -> list[Relation]:
    return [
        Relation(relation.schema, relation.rows[start : start + size])
        for start in range(0, len(relation), size)
    ]


def _outcome(fn):
    """("ok", value) or ("error", exception): the reference failing (a bare
    TypeError on a NULL coordinate, say) obliges the engine to refuse too."""
    try:
        return "ok", fn()
    except (BigDawgError, TypeError, ValueError, OverflowError) as error:
        return "error", error


def _comparable(value):
    return "NaN" if isinstance(value, float) and math.isnan(value) else value


def _table_rows(table) -> list[tuple]:
    return [tuple(_comparable(v) for v in values) for _rid, values in table.scan()]


def assert_same_array(actual, expected) -> None:
    assert [(d.name, d.start, d.end, d.chunk_length) for d in actual.schema.dimensions] == \
        [(d.name, d.start, d.end, d.chunk_length) for d in expected.schema.dimensions]
    assert [(a.name, a.dtype) for a in actual.schema.attributes] == \
        [(a.name, a.dtype) for a in expected.schema.attributes]
    assert np.array_equal(actual.present_mask, expected.present_mask)
    for attribute in expected.schema.attributes:
        got, want = actual.buffer(attribute.name), expected.buffer(attribute.name)
        assert got.dtype == want.dtype
        mask = expected.present_mask
        assert [_comparable(v) for v in got[mask].tolist()] == \
            [_comparable(v) for v in want[mask].tolist()]


def assert_native_rows(relation: Relation) -> None:
    for row in relation.rows:
        assert all(type(value) in NATIVE_TYPES for value in row.values), row


# ------------------------------------------------------------------ properties
@settings(max_examples=40, deadline=None)
@given(keyed_relations())
def test_table_to_array_to_table_matches_the_reference(
    reference_array_import, reference_array_export, reference_table_import, data,
):
    relation, dims = data
    for method in METHODS:
        for size in CHUNK_SIZES:
            migrator, postgres, scidb = _polystore()
            postgres.import_relation("obj", relation)
            migrator.catalog.register_object("obj", "postgres", "table")
            want, expected = _outcome(lambda: reference_array_import(
                "obj", relation.schema, _chunks(relation, size), dimensions=dims))
            got, record = _outcome(lambda: migrator.cast(
                "obj", "scidb", method=method, chunk_size=size, dimensions=dims))
            assert got == want, (method, size, record, expected)
            if want == "error":
                # Refused as an engine error, nothing published, shadow gone.
                assert isinstance(record, ExecutionError)
                assert scidb.list_objects() == []
                continue
            assert record.rows == len(relation)
            assert_same_array(scidb.array("obj"), expected)
            # ... and back.  (An all-NULL TIMESTAMP column is the one array
            # that cannot flatten: its NaN cells are no timestamps.)
            want, flat = _outcome(lambda: reference_array_export(expected))
            got, record = _outcome(lambda: migrator.cast(
                "obj", "postgres", method=method, chunk_size=size,
                target_name="back", source_engine="scidb"))
            assert got == want, (method, size, record, flat)
            if want == "error":
                assert postgres.list_objects() == ["obj"]
                continue
            back = reference_table_import("back", flat.schema, _chunks(flat, size))
            assert postgres.export_schema("back") == flat.schema
            assert _table_rows(postgres.table("back")) == _table_rows(back)
            assert_native_rows(postgres.export_relation("back"))


@settings(max_examples=40, deadline=None)
@given(native_arrays())
def test_array_to_table_to_array_matches_the_reference(
    reference_array_import, reference_array_export, reference_table_import, stored,
):
    dims = [d.name for d in stored.schema.dimensions]
    flat = reference_array_export(stored)
    for method in METHODS:
        for size in CHUNK_SIZES:
            migrator, postgres, scidb = _polystore()
            scidb.register("src", stored)
            migrator.catalog.register_object("src", "scidb", "array")
            table = reference_table_import("src", flat.schema, _chunks(flat, size))
            record = migrator.cast("src", "postgres", method=method, chunk_size=size)
            assert record.rows == stored.populated_cells
            assert postgres.export_schema("src") == flat.schema
            assert _table_rows(postgres.table("src")) == _table_rows(table)
            assert_native_rows(postgres.export_relation("src"))
            for chunk in scidb.export_chunks("src", size):
                assert_native_rows(chunk)
            # ... and back into a second array, keyed by the same dimensions.
            want, expected = _outcome(lambda: reference_array_import(
                "again", flat.schema, _chunks(flat, size), dimensions=dims))
            got, outcome = _outcome(lambda: migrator.cast(
                "src", "scidb", method=method, chunk_size=size, target_name="again",
                source_engine="postgres", dimensions=dims))
            assert got == want, (method, size, outcome, expected)
            if want == "ok":
                assert_same_array(scidb.array("again"), expected)
            else:
                assert isinstance(outcome, ExecutionError)
                assert scidb.list_objects() == ["src"]


# ------------------------------------------------------------------ regressions
class TestArrayImportRefusals:
    def test_null_coordinate_is_an_execution_error_naming_column_and_chunk(self):
        # Regression: int(row[d]) let a NULL coordinate escape as a bare
        # TypeError; the cast must fail as an engine error, leave an existing
        # destination untouched and discard its shadow.
        migrator, postgres, scidb = _polystore()
        schema = Schema([("i", "integer"), ("v", "float")])
        postgres.import_relation(
            "readings", Relation(schema, [[0, 1.0], [1, 2.0], [2, 3.0], [None, 4.0], [4, 5.0]]))
        migrator.catalog.register_object("readings", "postgres", "table")
        scidb.load_numpy("readings", np.arange(3, dtype=float))
        before = scidb.export_relation("readings")
        with pytest.raises(ExecutionError, match=r"column 'i' of chunk 1\b"):
            migrator.cast("readings", "scidb", chunk_size=3, dimensions=["i"])
        assert scidb.list_objects() == ["readings"]          # no shadow left behind
        assert scidb.export_relation("readings") == before  # destination untouched
        assert migrator.catalog.locate("readings").engine_name == "postgres"
        assert migrator.history == []

    def test_empty_stream_builds_the_one_cell_origin_array(self):
        scidb = ArrayEngine("scidb")
        schema = Schema([("i", "integer"), ("j", "integer"), ("v", "float")])
        scidb.import_chunks("empty", schema, [], dimensions=["i", "j"])
        array = scidb.array("empty")
        assert array.schema.shape == (1, 1) and array.populated_cells == 0
        assert [(d.start, d.end) for d in array.schema.dimensions] == [(0, 0), (0, 0)]
        assert len(scidb.export_relation("empty")) == 0
        assert list(scidb.export_chunks("empty", 4)) == []

    def test_last_write_wins_on_a_repeated_coordinate_within_and_across_chunks(self):
        scidb = ArrayEngine("scidb")
        schema = Schema([("i", "integer"), ("v", "float"), ("t", "text")])
        first = Relation(schema, [[5, 1.0, "a"], [7, 2.0, "b"], [5, 3.0, "c"]])
        second = Relation(schema, [[7, 4.0, None], [6, None, "e"]])
        scidb.import_chunks("dup", schema, [first, second])
        rows = [tuple(_comparable(v) for v in r.values) for r in scidb.export_relation("dup")]
        assert rows == [(5, 3.0, "c"), (6, "NaN", "e"), (7, 4.0, None)]


class TestRelationalBulkLoad:
    SCHEMA = Schema([("id", "integer"), ("v", "float")])

    def test_duplicate_key_inside_a_chunk_publishes_nothing(self):
        engine = RelationalEngine("postgres")
        chunk = Relation(self.SCHEMA, [[1, 1.0], [2, 2.0], [1, 3.0]])
        with pytest.raises(ConstraintViolationError, match="duplicate primary key"):
            engine.import_chunks("t", self.SCHEMA, [chunk], primary_key=("id",))
        assert not engine.has_object("t")

    def test_duplicate_key_across_chunks_fails_the_cast_and_discards_the_shadow(self):
        migrator, postgres, scidb = _polystore()
        other = RelationalEngine("warehouse")
        migrator.catalog.register_engine(other, ["relational"])
        postgres.import_relation(
            "t", Relation(self.SCHEMA, [[1, 1.0], [2, 2.0], [3, 3.0], [2, 4.0]]))
        migrator.catalog.register_object("t", "postgres", "table")
        with pytest.raises(ConstraintViolationError):
            migrator.cast("t", "warehouse", chunk_size=2, primary_key=("id",))
        assert other.list_objects() == []

    def test_bulk_loaded_rows_are_indexed_like_inserted_ones(self, reference_table_import):
        engine = RelationalEngine("postgres")
        relation = Relation(self.SCHEMA, [[i, i * 0.5] for i in range(50)])
        engine.import_chunks("t", self.SCHEMA, _chunks(relation, 16), primary_key=("id",))
        table = engine.table("t")
        reference = reference_table_import("t", self.SCHEMA, [relation], ("id",))
        assert list(table.scan()) == list(reference.scan())
        assert table.index_lookup("__pk__", 33) == reference.index_lookup("__pk__", 33)
        with pytest.raises(ConstraintViolationError):
            table.insert([33, 0.0])
        assert engine.execute("SELECT v FROM t WHERE id = 49").rows[0]["v"] == 24.5

    def test_untyped_chunk_is_coerced_row_by_row(self):
        # Values that are not yet the schema's Python types (ints in a FLOAT
        # column, numpy scalars) take the validate_row path and land native.
        engine = RelationalEngine("postgres")
        relation = Relation(self.SCHEMA, [
            Row(self.SCHEMA, v) for v in ([np.int64(1), 2], [True, np.float64(0.5)])])
        engine.import_relation("t", relation)
        rows = [r.values for r in engine.export_relation("t")]
        assert rows == [(1, 2.0), (1, 0.5)]
        assert [[type(v) for v in r] for r in rows] == [[int, float], [int, float]]
