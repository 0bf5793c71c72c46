"""A numeric binary CAST makes no Python value per cell.

The columns of an (INTEGER, INTEGER, FLOAT) table stay numpy vectors from
the source engine's export through the binary frame into the destination's
import, in both directions between the relational and the array engine.
The guard: with ``NumericVector.tolist``, ``Relation.column_values`` and
``Relation.rows`` patched to raise, both CASTs must still complete, and
what they built must equal what the per-row reference loops in
``tests/conftest.py`` build from the same rows.  A property holds the
array import's in-place read of a typed column to the conversion of its
Python values that it skips.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import ExecutionError
from repro.common.schema import Relation, Schema
from repro.common.types import DataType
from repro.common.vectors import NumericVector, vector_from_values
from repro.core.cast import CastMigrator
from repro.core.catalog import BigDawgCatalog
from repro.engines.array import ArrayEngine
from repro.engines.array.engine import _column_vector
from repro.engines.relational import RelationalEngine

SCHEMA = Schema([("signal", "integer"), ("sample", "integer"), ("value", "float")])


def _rows(null_floats: bool) -> list[list]:
    return [
        [signal, sample, None if null_floats and sample % 5 == 2 else signal * 0.5 - sample]
        for signal in range(4) for sample in range(30)
    ]


def _no_python_values(monkeypatch: pytest.MonkeyPatch) -> None:
    def refuse(*_args, **_kwargs):
        raise AssertionError("a numeric CAST made a Python value per cell")

    monkeypatch.setattr(NumericVector, "tolist", refuse)
    monkeypatch.setattr(Relation, "column_values", refuse)
    monkeypatch.setattr(Relation, "rows", property(refuse))


def _cells(values) -> list:
    return ["NaN" if isinstance(v, float) and math.isnan(v) else v for v in values]


@pytest.mark.parametrize("null_floats", [False, True], ids=["dense", "null-floats"])
def test_numeric_binary_casts_make_no_python_value_per_cell(
    monkeypatch, reference_array_import, reference_array_export, reference_table_import,
    null_floats,
):
    catalog = BigDawgCatalog()
    postgres, scidb = RelationalEngine("postgres"), ArrayEngine("scidb")
    catalog.register_engine(postgres, ["relational"])
    catalog.register_engine(scidb, ["array"])
    relation = Relation(SCHEMA, _rows(null_floats))
    postgres.import_relation("readings", relation)
    catalog.register_object("readings", "postgres", "table")
    migrator = CastMigrator(catalog)
    dims = ["signal", "sample"]
    with monkeypatch.context() as patch:
        _no_python_values(patch)
        migrator.cast("readings", "scidb", method="binary", chunk_size=50,
                      target_name="grid", dimensions=dims)
        migrator.cast("grid", "postgres", method="binary", chunk_size=50,
                      target_name="back", source_engine="scidb")
    expected = reference_array_import("grid", SCHEMA, [relation], dimensions=dims)
    grid = scidb.array("grid")
    assert grid.schema.shape == expected.schema.shape
    assert np.array_equal(grid.present_mask, expected.present_mask)
    assert _cells(grid.buffer("value").ravel().tolist()) == \
        _cells(expected.buffer("value").ravel().tolist())
    flat = reference_array_export(expected)
    table = reference_table_import("back", flat.schema, [flat])
    assert postgres.export_schema("back") == flat.schema
    assert [_cells(v) for _rid, v in postgres.table("back").scan()] == \
        [_cells(v) for _rid, v in table.scan()]


_NUMERIC = {
    DataType.INTEGER: st.integers(-(2 ** 63), 2 ** 63 - 1),
    DataType.FLOAT: st.one_of(st.floats(), st.sampled_from([1e20, -9.3e18, 2.0 ** 63, -0.0])),
    DataType.BOOLEAN: st.booleans(),
}


def _landed(chunk: Relation, dtype: DataType):
    try:
        return "ok", _column_vector("a", chunk, "c", dtype, 0)
    except ExecutionError as error:
        return "error", str(error)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_a_typed_column_lands_as_its_python_values_would(data):
    """The array import reads a ``NumericVector`` in place only where that
    gives exactly what converting its Python values gives: the same cells
    (NaN for a NULL float, False for a NULL boolean, truncated floats in an
    integer buffer) and the same refusal otherwise."""
    source = data.draw(st.sampled_from(sorted(_NUMERIC, key=str)))
    target = data.draw(st.sampled_from(sorted(_NUMERIC, key=str)))
    values = data.draw(st.lists(st.one_of(st.none(), _NUMERIC[source]), max_size=8))
    schema = Schema([("c", source)])
    typed = Relation.from_columns(schema, [vector_from_values(values, source)], len(values))
    plain = Relation.from_columns(schema, [values], len(values))
    got, want = _landed(typed, target), _landed(plain, target)
    assert got[0] == want[0]
    if got[0] == "error":
        assert got[1] == want[1]
    else:
        assert got[1].dtype == want[1].dtype
        assert np.array_equal(got[1], want[1], equal_nan=target is DataType.FLOAT)
