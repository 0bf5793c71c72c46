"""SQL over objects outside the scanning engine: read-only foreign tables.

The relational island answers SQL over a non-SQL object (or across engines)
in a scratch engine whose tables are the objects' exports, scanned in place
(:class:`~repro.engines.relational.storage.ForeignTable`).  The contract:

* the same SQL over a foreign table and over a heap import of the same
  relation returns the same rows, of native Python types;
* an export's typed vectors are scanned as is, and no heap table is built;
* every write refuses, naming the object and its engine, instead of landing
  in a copy and vanishing with it;
* a key-value export sees one version per cell, the newest.
"""

from __future__ import annotations

from datetime import datetime

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import UnsupportedOperationError
from repro.core.bigdawg import BigDawg
from repro.core.shims import AssociativeShim
from repro.engines.array import ArrayEngine
from repro.engines.array.schema import ArraySchema, Attribute, Dimension
from repro.engines.keyvalue import KeyValueEngine
from repro.engines.relational import RelationalEngine
from repro.engines.relational.storage import HeapTable
from repro.runtime import PolystoreRuntime

NATIVE_TYPES = (int, float, str, bool, datetime, type(None))

#: SQL over the array ``w`` (dimensions i, j; attribute value) and the heap
#: table ``d`` (i, label); ``{x}`` is a value literal, ``{k}`` a coordinate.
QUERIES = (
    "SELECT i, j, value FROM w WHERE value > {x}",
    "SELECT count(*) AS n, sum(value) AS s, min(value) AS lo, max(j) AS hi FROM w",
    "SELECT i, count(*) AS n, sum(value) AS s, avg(value) AS a FROM w "
    "WHERE j >= {k} GROUP BY i",
    "SELECT w.i, d.label, w.value FROM w JOIN d ON w.i = d.i WHERE w.value <= {x}",
    "SELECT d.label, count(*) AS n FROM w JOIN d ON w.j = d.i GROUP BY d.label",
    "SELECT i, j FROM w WHERE value = {x} OR j < {k} ORDER BY value DESC, i, j LIMIT 4",
)


def dimension_table(engine: RelationalEngine, size: int) -> None:
    engine.execute("CREATE TABLE d (i INTEGER PRIMARY KEY, label TEXT)")
    engine.insert_rows("d", [(i, f"g{i % 3}") for i in range(size)])


@st.composite
def stored_arrays(draw):
    """A 2-D array with an integer or float attribute and any subset of its
    cells populated (none: an empty array)."""
    rows, cols = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    dtype = draw(st.sampled_from(["integer", "float"]))
    values = (
        st.integers(-4, 4) if dtype == "integer"
        else st.floats(-4, 4, allow_nan=False).map(lambda v: round(v, 2))
    )
    engine = ArrayEngine("scidb")
    stored = engine.create_array(ArraySchema(
        "w", [Dimension("i", 0, rows - 1, rows), Dimension("j", 0, cols - 1, cols)],
        [Attribute("value", dtype)],
    ))
    for i in range(rows):
        for j in range(cols):
            if draw(st.booleans()):
                stored.write_cell((i, j), {"value": draw(values)})
    return stored


@settings(max_examples=60, deadline=None)
@given(
    stored=stored_arrays(),
    x=st.integers(-4, 4),
    k=st.integers(0, 4),
    query=st.sampled_from(QUERIES),
)
def test_sql_over_a_foreign_table_equals_sql_over_a_heap_import(stored, x, k, query):
    relation = next(stored.cell_chunks())
    foreign, heap = RelationalEngine("foreign"), RelationalEngine("heap")
    for engine in (foreign, heap):
        dimension_table(engine, 5)
    foreign.attach_foreign("w", relation, "scidb")
    heap.import_relation("w", relation)
    sql = query.format(x=x, k=k)
    got, expected = foreign.execute(sql), heap.execute(sql)
    assert got.schema == expected.schema
    assert [row.values for row in got.rows] == [row.values for row in expected.rows]
    assert all(type(v) in NATIVE_TYPES for row in got.rows for v in row.values)


def test_typed_export_columns_are_scanned_in_place():
    engine = ArrayEngine("scidb")
    engine.load_numpy("w", np.arange(12, dtype=float).reshape(3, 4))
    relation = engine.export_relation("w")
    scratch = RelationalEngine("scratch")
    scratch.attach_foreign("w", relation, "scidb")
    table = scratch.table("w")
    assert all(table.column(i) is relation.column_vector(i) for i in range(3))
    assert table.row_count == 12 and table.indexes() == {}
    assert scratch.execute("SELECT sum(value) AS s FROM w WHERE j = 3").rows[0]["s"] == 3.0 + 7.0 + 11.0
    # The CAST-style export of a foreign table hands out native values.
    exported = scratch.export_relation("w")
    assert exported.column_values(2) == [float(v) for v in range(12)]


def test_loose_export_values_are_coerced_to_the_schema():
    """A key-value export widens INTEGER + FLOAT cells to FLOAT: the foreign
    table reads 1 as 1.0, as a heap import would."""
    kv = KeyValueEngine("accumulo")
    kv.create_table("cells")
    kv.put("cells", "r1", "f", "a", 1)
    kv.put("cells", "r2", "f", "a", 2.5)
    scratch = RelationalEngine("scratch")
    scratch.attach_foreign("cells", kv.export_relation("cells"), "accumulo")
    result = scratch.execute("SELECT row, value FROM cells ORDER BY row")
    assert [row.values for row in result.rows] == [("r1", 1.0), ("r2", 2.5)]
    assert type(result.rows[0]["value"]) is float


# ----------------------------------------------------- through the island
@pytest.fixture()
def polystore():
    bd = BigDawg()
    postgres, scidb = RelationalEngine("postgres"), ArrayEngine("scidb")
    bd.add_engine(postgres, islands=["relational"])
    bd.add_engine(scidb, islands=["relational", "array"])
    scidb.load_numpy("w", np.arange(4, dtype=float))
    postgres.execute("CREATE TABLE names (i INTEGER PRIMARY KEY, name TEXT)")
    postgres.execute("INSERT INTO names VALUES (0, 'a'), (1, 'b'), (2, 'c')")
    return bd, postgres, scidb


def test_a_shim_read_builds_no_heap_table(polystore, monkeypatch):
    bd, _postgres, _scidb = polystore
    built, exported = [], []
    heap_init, export = HeapTable.__init__, ArrayEngine.export_relation

    def counted_init(self, name, *args, **kwargs):
        built.append(name)
        heap_init(self, name, *args, **kwargs)

    def counted_export(self, name):
        exported.append(name)
        return export(self, name)

    monkeypatch.setattr(HeapTable, "__init__", counted_init)
    monkeypatch.setattr(ArrayEngine, "export_relation", counted_export)
    island = bd.island("relational")
    result = island.execute(
        "SELECT n.name, w.value FROM w JOIN names n ON w.i = n.i WHERE w.value > 0"
    )
    assert sorted(row.values for row in result.rows) == [("b", 1.0), ("c", 2.0)]
    # The shim still exports through the engine; nothing lands in a heap.
    assert exported == ["w"]
    assert built == []


WRITES = (
    "INSERT INTO w VALUES (9, 9.0)",
    "DELETE FROM w WHERE i = 0",
    "UPDATE w SET value = 100.0 WHERE i = 1",
    "DROP TABLE w",
)


@pytest.mark.parametrize("statement", WRITES, ids=["insert", "delete", "update", "drop"])
def test_dml_on_a_non_sql_object_refuses_on_the_island(polystore, statement):
    """Each used to report success and leave the array as it was: the write
    landed in (or dropped) the scratch copy."""
    bd, _postgres, scidb = polystore
    before = scidb.export_relation("w").rows
    with pytest.raises(UnsupportedOperationError, match=r"'w'.*'scidb'"):
        bd.island("relational").execute(statement)
    assert scidb.export_relation("w").rows == before
    assert bd.catalog.locate("w").engine_name == "scidb"


@pytest.mark.parametrize("statement", WRITES, ids=["insert", "delete", "update", "drop"])
def test_dml_on_a_non_sql_object_refuses_through_the_runtime(polystore, statement):
    bd, _postgres, scidb = polystore
    before = scidb.export_relation("w").rows
    with PolystoreRuntime(bd, workers=1) as runtime:
        with pytest.raises(UnsupportedOperationError, match=r"'w'.*'scidb'"):
            runtime.execute(f"RELATIONAL({statement})")
        (intent,) = runtime.journal.replay()
        assert intent.kind == "dml" and intent.aborted
        assert runtime.journal.open_intents() == []
    assert scidb.export_relation("w").rows == before


# ----------------------------------------------- overwritten key-value cells
@pytest.fixture()
def overwritten():
    """cells on a key-value engine, with (r1, f, q) written twice."""
    bd = BigDawg()
    postgres, accumulo = RelationalEngine("postgres"), KeyValueEngine("accumulo")
    bd.add_engine(postgres, islands=["relational"])
    bd.add_engine(accumulo, islands=["relational", "d4m"])
    accumulo.create_table("cells")
    bd.catalog.register_object("cells", "accumulo", "table", replace=True)
    accumulo.put("cells", "r1", "f", "q", 1)
    accumulo.put("cells", "r2", "f", "q", 5)
    accumulo.put("cells", "r1", "f", "q", 2)
    return bd, postgres, accumulo


NEWEST = [("r1", "f", "q", 2), ("r2", "f", "q", 5)]


def test_sql_over_a_key_value_table_sees_the_newest_version(overwritten):
    bd, _postgres, accumulo = overwritten
    result = bd.execute("RELATIONAL(SELECT * FROM cells)")
    assert sorted(row.values for row in result.rows) == NEWEST
    assert [row.values for row in accumulo.export_relation("cells").rows] == NEWEST
    chunks = accumulo.export_chunks("cells", chunk_size=1)
    assert [row.values for chunk in chunks for row in chunk.rows] == NEWEST


def test_d4m_and_cast_see_the_newest_version(overwritten):
    bd, postgres, accumulo = overwritten
    assoc = AssociativeShim(accumulo).fetch_associative("cells")
    assert assoc.get("r1", "f:q") == 2 and len(assoc) == 2
    bd.migrator.cast("cells", "postgres")
    assert sorted(row.values for row in postgres.export_relation("cells").rows) == NEWEST
