"""Interface-level audit: every engine's mutating ops advance write_version.

The runtime's result cache fingerprints engine state with ``write_version``;
a mutator that forgets to bump it leaves stale results servable forever.
This suite sweeps every engine kind (conftest's ``each_engine``) through its
interface-level mutators (import/drop) and its native mutation entry points,
asserting each one invalidates the fingerprint — including the tiledb and
tupleware prototypes, whose native paths (create_array/write/load)
previously skipped the bump.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.common.schema import Column, Relation, Schema
from repro.common.types import DataType
from repro.core.catalog import BigDawgCatalog
from repro.engines.relational import RelationalEngine
from repro.engines.tiledb import TileDBArraySchema, TileDBEngine
from repro.engines.tupleware import TuplewareEngine
from repro.runtime import ResultCache


def sample_relation() -> Relation:
    schema = Schema([Column("d0", DataType.INTEGER), Column("value", DataType.FLOAT)])
    return Relation(schema, [[i, float(i)] for i in range(4)])


class TestInterfaceMutatorsBump:
    """import_relation / import_chunks / drop_object must bump on every engine."""

    def test_import_and_drop_bump(self, each_engine):
        engine = each_engine
        relation = sample_relation()
        before = engine.write_version
        engine.import_relation("obj", relation)
        after_import = engine.write_version
        assert after_import > before, f"{engine.kind}: import_relation must bump"
        engine.drop_object("obj")
        assert engine.write_version > after_import, f"{engine.kind}: drop_object must bump"

    def test_import_chunks_bumps(self, each_engine):
        engine = each_engine
        relation = sample_relation()
        before = engine.write_version
        engine.import_chunks("obj", relation.schema, [relation])
        assert engine.write_version > before, f"{engine.kind}: import_chunks must bump"


class TestNativeMutatorsBump:
    """Engine-native mutation entry points must bump too."""

    def test_tiledb_create_array_and_writes_bump(self):
        engine = TileDBEngine()
        before = engine.write_version
        engine.create_array(TileDBArraySchema("m", ((0, 9), (0, 9)), (5, 5)))
        after_create = engine.write_version
        assert after_create > before
        engine.write("m", (1, 1), 4.0)
        after_write = engine.write_version
        assert after_write > after_create
        engine.write_block("m", (0, 0), np.ones((2, 2)))
        assert engine.write_version > after_write

    def test_tupleware_load_bumps(self):
        engine = TuplewareEngine()
        before = engine.write_version
        engine.load("d", [1.0, 2.0, 3.0])
        assert engine.write_version > before
        engine.load("d", [4.0], replace=True)
        assert engine.write_version > before + 1

    def test_relational_ddl_dml_bump(self):
        engine = RelationalEngine()
        before = engine.write_version
        engine.execute("CREATE TABLE t (id INTEGER)")
        engine.execute("INSERT INTO t VALUES (1)")
        engine.execute("UPDATE t SET id = 2")
        engine.execute("DELETE FROM t WHERE id = 2")
        assert engine.write_version >= before + 4


class TestResultCacheInvalidation:
    """The end-to-end property: native prototype-engine mutations evict cached results."""

    @pytest.mark.parametrize(
        "factory, mutate",
        [
            pytest.param(
                lambda: TileDBEngine("tiledb"),
                lambda e: (
                    e.create_array(TileDBArraySchema("fresh", ((0, 3),), (2,))),
                    e.write("fresh", (0,), 1.0),
                ),
                id="tiledb-native",
            ),
            pytest.param(
                lambda: TuplewareEngine("tupleware"),
                lambda e: e.load("fresh", [1.0, 2.0]),
                id="tupleware-native",
            ),
        ],
    )
    def test_native_mutation_invalidates_cached_result(self, factory, mutate):
        engine = factory()
        catalog = BigDawgCatalog()
        catalog.register_engine(engine)
        cache = ResultCache(catalog)
        result = sample_relation()
        assert cache.put("QUERY(x)", result, cache.fingerprint())
        assert cache.get("QUERY(x)") is not None
        mutate(engine)
        assert cache.get("QUERY(x)") is None, (
            f"{engine.kind}: a native mutation must invalidate cached results"
        )
        assert cache.invalidations >= 1
