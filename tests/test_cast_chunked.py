"""Tests for the chunked streaming CAST pipeline and its regression fixes."""

from __future__ import annotations

import numpy as np
import pytest

from repro.common.errors import CastError, ObjectNotFoundError
from repro.common.schema import Relation, Schema
from repro.common.serialization import BinaryCodec, CsvCodec
from repro.core.bigdawg import BigDawg
from repro.core.cast import CastMigrator
from repro.core.catalog import BigDawgCatalog, ObjectLocation
from repro.core.query.planner import CastStep
from repro.engines.array import ArrayEngine
from repro.engines.base import DEFAULT_CHUNK_ROWS
from repro.engines.keyvalue import KeyValueEngine
from repro.engines.relational import RelationalEngine


SCHEMA = Schema([("sample_index", "integer"), ("signal_id", "integer"), ("value", "float")])


def _relation(rows: int) -> Relation:
    return Relation(SCHEMA, [[i, i % 4, (i % 97) * 0.25] for i in range(rows)])


def _catalog(rows: int) -> BigDawgCatalog:
    catalog = BigDawgCatalog()
    postgres = RelationalEngine("postgres")
    scidb = ArrayEngine("scidb")
    accumulo = KeyValueEngine("accumulo")
    catalog.register_engine(postgres, ["relational"])
    catalog.register_engine(scidb, ["array"])
    catalog.register_engine(accumulo, ["text"])
    postgres.import_relation("waveform_rows", _relation(rows))
    catalog.register_object("waveform_rows", "postgres", "table")
    return catalog


# ------------------------------------------------------------ engine chunk API
class TestEngineChunkApi:
    def test_relational_export_chunk_sizes(self):
        catalog = _catalog(10)
        chunks = list(catalog.engine("postgres").export_chunks("waveform_rows", 4))
        assert [len(c) for c in chunks] == [4, 4, 2]

    def test_export_schema_matches_export_relation(self):
        catalog = _catalog(5)
        postgres = catalog.engine("postgres")
        scidb = catalog.engine("scidb")
        accumulo = catalog.engine("accumulo")
        scidb.load_numpy("waves", np.arange(6, dtype=float).reshape(2, 3))
        accumulo.create_table("notes")
        accumulo.put("notes", "r1", "attr", "q1", "hello")
        for engine, obj in ((postgres, "waveform_rows"), (scidb, "waves"), (accumulo, "notes")):
            assert engine.export_schema(obj) == engine.export_relation(obj).schema

    def test_array_and_keyvalue_export_chunks(self):
        catalog = _catalog(0)
        scidb = catalog.engine("scidb")
        scidb.load_numpy("waves", np.arange(12, dtype=float).reshape(3, 4))
        chunks = list(scidb.export_chunks("waves", 5))
        assert [len(c) for c in chunks] == [5, 5, 2]
        accumulo = catalog.engine("accumulo")
        accumulo.create_table("notes")
        for i in range(7):
            accumulo.put("notes", f"r{i}", "attr", "q", f"v{i}")
        chunks = list(accumulo.export_chunks("notes", 3))
        assert [len(c) for c in chunks] == [3, 3, 1]

    def test_import_chunks_equivalent_to_import_relation(self):
        catalog = _catalog(10)
        postgres = catalog.engine("postgres")
        source = postgres.export_relation("waveform_rows")
        chunks = postgres.export_chunks("waveform_rows", 3)
        postgres.import_chunks("copy_chunked", source.schema, chunks)
        assert postgres.export_relation("copy_chunked") == source

    def test_invalid_chunk_size_rejected(self):
        catalog = _catalog(3)
        with pytest.raises(ValueError):
            list(catalog.engine("postgres").export_chunks("waveform_rows", 0))

    def test_keyvalue_value_type_tracking(self):
        catalog = _catalog(0)
        accumulo = catalog.engine("accumulo")
        accumulo.create_table("mixed")
        accumulo.put("mixed", "r1", "attr", "q", 1)
        accumulo.put("mixed", "r2", "attr", "q", 0.5)
        from repro.common.types import DataType

        assert accumulo.export_schema("mixed").column("value").dtype is DataType.FLOAT
        # Unclassifiable values still store and fall back to TEXT exports.
        accumulo.put("mixed", "r3", "attr", "q", b"raw-bytes")
        assert accumulo.export_schema("mixed").column("value").dtype is DataType.TEXT

    def test_keyvalue_out_of_band_store_writes_widen_schema(self):
        # Values written directly into the store (behind the table's put)
        # must still be reflected in the export schema.
        from repro.common.types import DataType

        catalog = _catalog(0)
        accumulo = catalog.engine("accumulo")
        table = accumulo.create_table("oob")
        table.put("r1", "attr", "q", 1)
        table.store.put("r2", "attr", "q", 0.5)  # behind the table's back
        assert accumulo.export_schema("oob").column("value").dtype is DataType.FLOAT
        assert len(accumulo.export_relation("oob")) == 2

    def test_keyvalue_schema_narrows_after_out_of_band_deletion(self):
        # The rescan must not seed from the stale cached type, or the value
        # column stays TEXT forever after the only TEXT entry is removed.
        from repro.common.types import DataType

        catalog = _catalog(0)
        accumulo = catalog.engine("accumulo")
        table = accumulo.create_table("shrink")
        table.put("r1", "attr", "q", "hello")
        assert accumulo.export_schema("shrink").column("value").dtype is DataType.TEXT
        # Replace the TEXT entry behind the table's back, leaving one integer
        # (balanced delete+put: the store length is unchanged).
        table.store.delete("r1")
        table.store.put("r2", "attr", "q", 5)
        assert accumulo.export_schema("shrink").column("value").dtype is DataType.INTEGER


# ------------------------------------------------------------- chunk pipeline
class TestChunkedCast:
    @pytest.mark.parametrize("rows,chunk_size,expected_chunks", [
        (0, 5, 0),       # empty object: nothing on the wire
        (1, 5, 1),       # single row
        (5, 5, 1),       # exactly one chunk
        (6, 5, 2),       # one row spills into a second chunk
        (17, 5, 4),
    ])
    def test_chunk_boundary_row_counts(self, rows, chunk_size, expected_chunks):
        catalog = _catalog(rows)
        migrator = CastMigrator(catalog)
        record = migrator.cast(
            "waveform_rows", "accumulo", method="binary", chunk_size=chunk_size
        )
        assert record.rows == rows
        assert record.chunks == expected_chunks
        assert record.chunk_size == chunk_size
        moved = catalog.engine("accumulo").export_relation("waveform_rows")
        # Each source row becomes two kv cells (signal_id + value).
        assert len(moved) == rows * 2

    @pytest.mark.parametrize("method", ["binary", "csv", "direct"])
    def test_all_methods_move_identical_content(self, method):
        catalog = _catalog(23)
        migrator = CastMigrator(catalog)
        migrator.cast("waveform_rows", "accumulo", method=method,
                      chunk_size=7, target_name=f"via_{method}")
        moved = catalog.engine("accumulo").export_relation(f"via_{method}")
        assert len(moved) == 46

    def test_default_chunk_size_used_when_unspecified(self):
        catalog = _catalog(4)
        record = CastMigrator(catalog).cast("waveform_rows", "accumulo")
        assert record.chunk_size == DEFAULT_CHUNK_ROWS

    def test_nonpositive_chunk_size_rejected(self):
        catalog = _catalog(4)
        with pytest.raises(CastError):
            CastMigrator(catalog).cast("waveform_rows", "accumulo", chunk_size=0)

    def test_csv_tempfile_staging_per_chunk(self):
        catalog = _catalog(12)
        migrator = CastMigrator(catalog)
        record = migrator.cast(
            "waveform_rows", "accumulo", method="csv", use_tempfile=True, chunk_size=5
        )
        assert record.chunks == 3 and record.rows == 12
        assert record.bytes_moved > 0
        moved = catalog.engine("accumulo").export_relation("waveform_rows")
        assert len(moved) == 24

    def test_cast_into_array_engine_chunked(self):
        catalog = _catalog(20)
        migrator = CastMigrator(catalog)
        record = migrator.cast(
            "waveform_rows", "scidb", method="binary", chunk_size=6,
            dimensions=["sample_index"],
        )
        assert record.chunks == 4
        array = catalog.engine("scidb").array("waveform_rows")
        assert array.schema.dimensions[0].name == "sample_index"
        assert array.populated_cells == 20

    def test_direct_method_moves_no_bytes(self):
        catalog = _catalog(9)
        record = CastMigrator(catalog).cast(
            "waveform_rows", "accumulo", method="direct", chunk_size=4
        )
        assert record.bytes_moved == 0 and record.peak_chunk_bytes == 0
        assert record.rows == 9 and record.chunks == 3

    def test_pipeline_interleaves_encode_and_decode(self, monkeypatch):
        """Frames are decoded as they are produced: never two frames in memory."""
        events = []
        original_encode = BinaryCodec.encode
        original_decode = BinaryCodec.decode

        def spy_encode(self, relation):
            events.append("encode")
            return original_encode(self, relation)

        def spy_decode(self, payload, schema):
            events.append("decode")
            return original_decode(self, payload, schema)

        monkeypatch.setattr(BinaryCodec, "encode", spy_encode)
        monkeypatch.setattr(BinaryCodec, "decode", spy_decode)
        catalog = _catalog(12)
        CastMigrator(catalog).cast("waveform_rows", "accumulo", chunk_size=4)
        assert events == ["encode", "decode"] * 3


# --------------------------------------------------------------- accounting
class TestChunkAccounting:
    def test_bytes_moved_sums_per_chunk_frames(self):
        catalog = _catalog(13)
        migrator = CastMigrator(catalog)
        record = migrator.cast("waveform_rows", "accumulo", method="binary", chunk_size=5)
        codec = BinaryCodec()
        frames = [
            codec.encode(chunk)
            for chunk in catalog.engine("postgres").export_chunks("waveform_rows", 5)
        ]
        assert record.bytes_moved == sum(len(f) for f in frames)
        assert record.peak_chunk_bytes == max(len(f) for f in frames)
        assert record.peak_chunk_bytes < record.bytes_moved

    def test_single_chunk_matches_old_single_shot_numbers(self):
        """With one chunk the stats reduce to the pre-streaming accounting."""
        catalog = _catalog(50)
        migrator = CastMigrator(catalog)
        full = catalog.engine("postgres").export_relation("waveform_rows")
        record_bin = migrator.cast(
            "waveform_rows", "accumulo", method="binary", chunk_size=1000,
            target_name="one_shot_bin",
        )
        assert record_bin.chunks == 1
        assert record_bin.bytes_moved == len(BinaryCodec().encode(full))
        assert record_bin.peak_chunk_bytes == record_bin.bytes_moved
        record_csv = migrator.cast(
            "waveform_rows", "accumulo", method="csv", chunk_size=1000,
            target_name="one_shot_csv",
        )
        assert record_csv.bytes_moved == len(CsvCodec().encode(full))

    def test_history_totals_across_chunked_casts(self):
        catalog = _catalog(10)
        migrator = CastMigrator(catalog)
        a = migrator.cast("waveform_rows", "accumulo", chunk_size=3, target_name="a")
        b = migrator.cast("waveform_rows", "scidb", chunk_size=4, target_name="b",
                          dimensions=["sample_index"])
        assert migrator.total_bytes_moved() == a.bytes_moved + b.bytes_moved
        assert len(migrator.casts_between("postgres", "accumulo")) == 1
        assert len(migrator.casts_between("postgres", "scidb")) == 1


# --------------------------------------------------------------- regressions
class TestDropSourceWithTargetName:
    def test_catalog_tracks_renamed_moved_object(self):
        # Regression: drop_source=True with a custom target_name used to call
        # move_object(object_name, ...), leaving the catalog pointing at a
        # name that does not exist on the target engine.
        catalog = _catalog(6)
        migrator = CastMigrator(catalog)
        migrator.cast(
            "waveform_rows", "accumulo", drop_source=True, target_name="waveform_kv"
        )
        assert not catalog.engine("postgres").has_object("waveform_rows")
        assert catalog.engine("accumulo").has_object("waveform_kv")
        location = catalog.locate("waveform_kv")
        assert location.engine_name == "accumulo"
        # The old name must be gone from the catalog entirely.
        assert not catalog.has_object("waveform_rows")
        with pytest.raises(ObjectNotFoundError):
            catalog.locate("waveform_rows")

    def test_case_variant_same_engine_rename_rejected(self):
        # Regression: a case-variant target_name on the same engine passed the
        # guard (case-sensitive compare), then drop_source deleted the freshly
        # imported table (case-insensitive compare) — destroying the object.
        catalog = _catalog(6)
        migrator = CastMigrator(catalog)
        with pytest.raises(CastError):
            migrator.cast("waveform_rows", "postgres", target_name="WAVEFORM_ROWS",
                          drop_source=True)
        assert catalog.engine("postgres").has_object("waveform_rows")
        assert len(catalog.engine("postgres").export_relation("waveform_rows")) == 6

    def test_drop_source_same_name_still_moves(self):
        catalog = _catalog(6)
        CastMigrator(catalog).cast("waveform_rows", "accumulo", drop_source=True)
        assert catalog.locate("waveform_rows").engine_name == "accumulo"

    def test_rename_move_preserves_location_properties(self):
        catalog = _catalog(6)
        catalog.register_object("waveform_rows", "postgres", "table",
                                replace=True, temporary=True)
        CastMigrator(catalog).cast(
            "waveform_rows", "accumulo", drop_source=True, target_name="waveform_kv"
        )
        assert catalog.locate("waveform_kv").properties == {"temporary": True}


class TestEngineNameCaseNormalization:
    def test_object_location_normalizes_engine_name(self):
        # Regression: mixed-case engine names in an ObjectLocation caused
        # spurious re-CASTs of already-reachable objects.
        assert ObjectLocation("waves", "SciDB", "array").engine_name == "scidb"

    def test_planner_skips_cast_for_mixed_case_location(self):
        bd = BigDawg()
        bd.add_engine(RelationalEngine("postgres"), islands=["relational"])
        scidb = ArrayEngine("scidb")
        bd.add_engine(scidb, islands=["array"])
        scidb.load_numpy("waves", np.arange(6, dtype=float).reshape(2, 3))
        # Simulate an out-of-band registration that preserved the display case.
        bd.catalog._objects["waves"] = ObjectLocation("waves", "SciDB", "array")
        plan = bd.plan("ARRAY(aggregate(CAST(waves, array), avg(value)))")
        assert not any(isinstance(step, CastStep) for step in plan.steps)


# ------------------------------------------------------- planner/policy wiring
@pytest.fixture()
def bigdawg() -> BigDawg:
    bd = BigDawg()
    postgres = RelationalEngine("postgres")
    scidb = ArrayEngine("scidb")
    bd.add_engine(postgres, islands=["relational"])
    bd.add_engine(scidb, islands=["array"])
    postgres.execute("CREATE TABLE readings (id INTEGER PRIMARY KEY, value FLOAT)")
    postgres.execute(
        "INSERT INTO readings VALUES " + ", ".join(f"({i}, {i * 0.5})" for i in range(30))
    )
    bd.catalog.register_object("readings", "postgres", "table")
    return bd


class TestPolicyThreading:
    def test_execute_passes_chunk_size_to_migrator(self, bigdawg):
        bigdawg.execute(
            "ARRAY(aggregate(CAST(readings, array), avg(value)))",
            cast_method="binary", chunk_size=8,
        )
        (record,) = bigdawg.migrator.history
        assert record.chunk_size == 8 and record.chunks == 4

    def test_plan_stamps_policy_on_cast_steps(self, bigdawg):
        plan = bigdawg._planner.plan(
            "ARRAY(aggregate(CAST(readings, array), avg(value)))",
            cast_method="csv", chunk_size=16,
        )
        cast_steps = [s for s in plan.steps if isinstance(s, CastStep)]
        assert cast_steps and all(
            s.method == "csv" and s.chunk_size == 16 for s in cast_steps
        )
        assert "chunks of 16" in plan.explain()
        bigdawg._planner.execute_plan(plan)
        (record,) = bigdawg.migrator.history
        assert record.method == "csv" and record.chunk_size == 16

    def test_planning_a_cast_does_not_export_the_source(self, bigdawg):
        # Regression: _cast_options used to export the whole source relation
        # on the planning path just to inspect its schema.
        postgres = bigdawg.engine("postgres")
        calls = []
        original = postgres.export_relation
        postgres.export_relation = lambda name: (calls.append(name), original(name))[1]
        bigdawg.execute("ARRAY(aggregate(CAST(readings, array), avg(value)))")
        assert calls == []

    def test_schema_of_reflects_engine_side_ddl(self, bigdawg):
        # Regression: a cached schema must not survive drop-and-recreate DDL
        # done directly on the engine (the normal DDL path, which never
        # touches the catalog).
        first = bigdawg.catalog.schema_of("readings")
        assert first.names == ["id", "value"]
        postgres = bigdawg.engine("postgres")
        postgres.execute("DROP TABLE readings")
        postgres.execute("CREATE TABLE readings (name TEXT, value FLOAT)")
        assert bigdawg.catalog.schema_of("readings").names == ["name", "value"]

    def test_rebalance_accepts_chunk_size_in_cast_options(self, bigdawg):
        # Regression: passing chunk_size inside cast_options used to collide
        # with rebalance's own chunk_size keyword and raise TypeError.
        monitor = bigdawg.monitor
        monitor.record("linear_algebra", "readings", "postgres", 0.5)
        monitor.record("linear_algebra", "readings", "scidb", 0.01)
        moved = bigdawg.advisor.rebalance(
            ["readings"], cast_options={"chunk_size": 10, "dimensions": ["id"]}
        )
        assert len(moved) == 1
        (record,) = bigdawg.migrator.history
        assert record.chunk_size == 10

    def test_rebalance_explicit_chunk_size_wins_over_cast_options(self, bigdawg):
        monitor = bigdawg.monitor
        monitor.record("linear_algebra", "readings", "postgres", 0.5)
        monitor.record("linear_algebra", "readings", "scidb", 0.01)
        bigdawg.advisor.rebalance(
            ["readings"], chunk_size=15,
            cast_options={"chunk_size": 10, "dimensions": ["id"]},
        )
        (record,) = bigdawg.migrator.history
        assert record.chunk_size == 15

    def test_advisor_migration_uses_chunked_pipeline(self, bigdawg):
        monitor = bigdawg.monitor
        monitor.record("linear_algebra", "readings", "postgres", 0.5)
        monitor.record("linear_algebra", "readings", "scidb", 0.01)
        recommendation = bigdawg.advisor.recommend("readings")
        assert bigdawg.advisor.apply(recommendation, chunk_size=10, dimensions=["id"])
        (record,) = bigdawg.migrator.history
        assert record.chunk_size == 10 and record.chunks == 3
        assert bigdawg.catalog.locate("readings").engine_name == "scidb"
