"""Tests for the BigDAWG catalog, shims and the CAST migrator."""

from __future__ import annotations

import numpy as np
import pytest

from repro.common.errors import CastError, DuplicateObjectError, ObjectNotFoundError
from repro.core.cast import CastMigrator
from repro.core.catalog import BigDawgCatalog
from repro.core.shims import ArrayShim, AssociativeShim, RelationalShim, TextShim, shim_for
from repro.engines.array import ArrayEngine
from repro.engines.keyvalue import KeyValueEngine
from repro.engines.relational import RelationalEngine


@pytest.fixture()
def catalog() -> BigDawgCatalog:
    cat = BigDawgCatalog()
    postgres = RelationalEngine("postgres")
    scidb = ArrayEngine("scidb")
    accumulo = KeyValueEngine("accumulo")
    cat.register_engine(postgres, ["relational", "myria"])
    cat.register_engine(scidb, ["array", "relational"])
    cat.register_engine(accumulo, ["text", "d4m"])
    postgres.execute("CREATE TABLE patients (id INTEGER PRIMARY KEY, age INTEGER)")
    postgres.execute("INSERT INTO patients VALUES (1, 64), (2, 70), (3, 41)")
    scidb.load_numpy("waves", np.arange(20, dtype=float).reshape(4, 5))
    accumulo.create_table("notes", text_indexed=True)
    accumulo.put("notes", "p1", "doctor", "n1", "patient very sick")
    return cat


class TestCatalog:
    def test_engine_registration_and_lookup(self, catalog):
        assert catalog.engine("postgres").kind == "relational"
        assert catalog.has_engine("SCIDB")
        with pytest.raises(ObjectNotFoundError):
            catalog.engine("mysql")
        with pytest.raises(DuplicateObjectError):
            catalog.register_engine(RelationalEngine("postgres"))

    def test_island_membership(self, catalog):
        relational = {e.name for e in catalog.island_engines("relational")}
        assert relational == {"postgres", "scidb"}
        assert catalog.islands_of_engine("accumulo") == ["d4m", "text"]
        catalog.add_island_member("d4m", "postgres")
        assert "postgres" in {e.name for e in catalog.island_engines("d4m")}
        with pytest.raises(ObjectNotFoundError):
            catalog.add_island_member("d4m", "mysql")

    def test_locate_registered_and_unregistered_objects(self, catalog):
        catalog.register_object("patients", "postgres", "table")
        assert catalog.locate("patients").engine_name == "postgres"
        # 'waves' is not registered but the engines are searched as a fallback.
        assert catalog.locate("waves").engine_name == "scidb"
        assert catalog.has_object("notes")
        assert not catalog.has_object("ghost")
        with pytest.raises(ObjectNotFoundError):
            catalog.locate("ghost")

    def test_duplicate_object_registration(self, catalog):
        catalog.register_object("patients", "postgres", "table")
        with pytest.raises(DuplicateObjectError):
            catalog.register_object("patients", "scidb", "array")
        catalog.register_object("patients", "scidb", "array", replace=True)
        assert catalog.locate("patients").engine_name == "scidb"

    def test_move_object_and_describe(self, catalog):
        catalog.register_object("patients", "postgres", "table")
        catalog.move_object("patients", "scidb", "array")
        assert catalog.locate("patients").engine_name == "scidb"
        description = catalog.describe()
        assert "postgres" in description["engines"]
        assert "relational" in description["islands"]

    def test_objects_in_engine_includes_unregistered(self, catalog):
        assert "patients" in catalog.objects_in_engine("postgres")
        assert "waves" in catalog.objects_in_engine("scidb")


class TestShims:
    def test_relational_shim_pushdown_and_fetch(self, catalog):
        postgres_shim = RelationalShim(catalog.engine("postgres"))
        assert postgres_shim.supports_native()
        result = postgres_shim.execute_sql("SELECT count(*) AS n FROM patients")
        assert result.rows[0]["n"] == 3
        array_shim = RelationalShim(catalog.engine("scidb"))
        assert not array_shim.supports_native()
        relation = array_shim.engine.export_relation("waves")
        assert len(relation) == 20
        from repro.common.errors import UnsupportedOperationError

        with pytest.raises(UnsupportedOperationError):
            array_shim.execute_sql("SELECT 1")

    def test_array_shim(self, catalog):
        shim = ArrayShim(catalog.engine("scidb"))
        stored = shim.fetch_array("waves")
        assert stored.schema.shape == (4, 5)

    def test_text_shim(self, catalog):
        shim = TextShim(catalog.engine("accumulo"))
        assert shim.supports_native()
        assert shim.rows_with_min_documents("notes", ["very sick"], 1) == ["p1"]

    def test_associative_shim_from_each_model(self, catalog):
        kv = AssociativeShim(catalog.engine("accumulo")).fetch_associative("notes")
        assert kv.get("p1", "doctor:n1") == "patient very sick"
        rel = AssociativeShim(catalog.engine("postgres")).fetch_associative("patients")
        assert rel.get("1", "age") == 64
        arr = AssociativeShim(catalog.engine("scidb")).fetch_associative("waves")
        assert arr.nnz() == 20

    def test_shim_factory(self, catalog):
        assert isinstance(shim_for(catalog.engine("postgres"), "relational"), RelationalShim)
        assert isinstance(shim_for(catalog.engine("scidb"), "array"), ArrayShim)
        assert isinstance(shim_for(catalog.engine("accumulo"), "text"), TextShim)
        assert isinstance(shim_for(catalog.engine("accumulo"), "d4m"), AssociativeShim)
        from repro.common.errors import UnsupportedOperationError

        with pytest.raises(UnsupportedOperationError):
            shim_for(catalog.engine("postgres"), "quantum")


class TestCastMigrator:
    def test_binary_and_csv_casts_move_all_rows(self, catalog):
        migrator = CastMigrator(catalog)
        catalog.register_object("patients", "postgres", "table")
        record = migrator.cast("patients", "accumulo", method="binary")
        assert record.rows == 3 and record.method == "binary"
        assert catalog.engine("accumulo").has_object("patients")
        record_csv = migrator.cast("waves", "postgres", method="csv", target_name="wave_rows")
        assert record_csv.rows == 20
        assert catalog.engine("postgres").has_object("wave_rows")
        assert migrator.total_bytes_moved() > 0
        assert len(migrator.casts_between("postgres", "accumulo")) == 1

    def test_cast_into_array_engine_with_dimensions(self, catalog):
        migrator = CastMigrator(catalog)
        catalog.register_object("patients", "postgres", "table")
        migrator.cast("patients", "scidb", dimensions=["id"])
        array = catalog.engine("scidb").array("patients")
        assert array.schema.dimensions[0].name == "id"

    def test_cast_with_drop_source_moves_catalog_entry(self, catalog):
        migrator = CastMigrator(catalog)
        catalog.register_object("patients", "postgres", "table")
        migrator.cast("patients", "accumulo", drop_source=True)
        assert not catalog.engine("postgres").has_object("patients")
        assert catalog.locate("patients").engine_name == "accumulo"

    def test_cast_to_same_engine_rejected(self, catalog):
        migrator = CastMigrator(catalog)
        catalog.register_object("patients", "postgres", "table")
        with pytest.raises(CastError):
            migrator.cast("patients", "postgres")

    def test_unknown_method_rejected(self, catalog):
        migrator = CastMigrator(catalog)
        catalog.register_object("patients", "postgres", "table")
        with pytest.raises(CastError):
            migrator.cast("patients", "accumulo", method="carrier_pigeon")

    def test_csv_via_tempfile(self, catalog):
        migrator = CastMigrator(catalog)
        catalog.register_object("patients", "postgres", "table")
        record = migrator.cast("patients", "accumulo", method="csv", use_tempfile=True)
        assert record.bytes_moved > 0

    def test_binary_and_csv_produce_identical_destination_content(self, catalog):
        migrator = CastMigrator(catalog)
        catalog.register_object("patients", "postgres", "table")
        migrator.cast("patients", "accumulo", method="binary", target_name="via_binary")
        migrator.cast("patients", "accumulo", method="csv", target_name="via_csv")
        accumulo = catalog.engine("accumulo")
        binary_rows = sorted(str(e.value) for e in accumulo.scan("via_binary"))
        csv_rows = sorted(str(e.value) for e in accumulo.scan("via_csv"))
        assert binary_rows == csv_rows

    @pytest.mark.parametrize("method", ["binary", "csv", "direct"])
    def test_integers_beyond_int64_survive_every_cast_method(self, catalog, method):
        # Regression: the binary frame packed INTEGER as i64 only, so a table
        # holding 2**70 failed the default cast with a bare OverflowError.
        postgres, warehouse = catalog.engine("postgres"), RelationalEngine("warehouse")
        catalog.register_engine(warehouse, ["relational"])
        postgres.execute("CREATE TABLE wide (id INTEGER, big INTEGER)")
        rows = [(1, 2 ** 70), (2, -(2 ** 70)), (3, None), (4, 5)]
        postgres.insert_rows("wide", rows)
        catalog.register_object("wide", "postgres", "table")
        record = CastMigrator(catalog).cast("wide", "warehouse", method=method)
        assert record.rows == 4
        got = [row.values for row in warehouse.export_relation("wide")]
        assert got == rows
        assert [type(v) for _id, v in got] == [int, int, type(None), int]
