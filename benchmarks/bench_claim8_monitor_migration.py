"""CLAIM-8 — §2.1: the monitor learns which engine excels at which query class
and migrates objects as the workload shifts.

Waveform rows start in the relational engine.  A workload of windowed
(linear-algebra-style) queries is probed on both engines; the advisor then
recommends — and applies — migration to the array engine, and the benchmark
reports the post-migration speedup of the dominant query.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.common.schema import Relation, Schema
from repro.core.bigdawg import BigDawg
from repro.engines.array import ArrayEngine
from repro.engines.relational import RelationalEngine


SIGNALS, SAMPLES, WINDOW = 4, 3000, 32


def _build() -> BigDawg:
    bigdawg = BigDawg()
    postgres = RelationalEngine("postgres")
    scidb = ArrayEngine("scidb")
    bigdawg.add_engine(postgres, islands=["relational"])
    bigdawg.add_engine(scidb, islands=["array"])
    rng = np.random.default_rng(31)
    schema = Schema([("signal_id", "integer"), ("sample_index", "integer"), ("value", "float")])
    rows = []
    for signal in range(SIGNALS):
        values = np.sin(np.linspace(0, 60, SAMPLES)) + 0.1 * rng.standard_normal(SAMPLES)
        rows.extend([signal, index, value] for index, value in enumerate(values.tolist()))
    postgres.import_relation("waveforms", Relation(schema, rows))
    bigdawg.catalog.register_object("waveforms", "postgres", "table")
    return bigdawg


def _windowed_on_postgres(engine: RelationalEngine) -> float:
    rows = engine.execute(
        "SELECT signal_id, sample_index, value FROM waveforms ORDER BY signal_id, sample_index"
    )
    best, buffer, current = float("-inf"), [], None
    for row in rows:
        if row["signal_id"] != current:
            current, buffer = row["signal_id"], []
        buffer.append(float(row["value"]))
        if len(buffer) > WINDOW:
            buffer.pop(0)
        best = max(best, sum(buffer) / len(buffer))
    return best


def _windowed_on_scidb(engine: ArrayEngine, name: str) -> float:
    result = engine.execute(
        f"aggregate(window({name}, value, {WINDOW}, avg, sample_index), max(avg_value))"
    )
    return float(result["max(avg_value)"])


@pytest.fixture(scope="module")
def bigdawg() -> BigDawg:
    return _build()


def test_workload_on_initial_placement(benchmark, bigdawg):
    benchmark.pedantic(
        _windowed_on_postgres, args=(bigdawg.engine("postgres"),), rounds=2, iterations=1
    )


def test_claim8_migration_summary(bigdawg):
    postgres = bigdawg.engine("postgres")
    scidb = bigdawg.engine("scidb")

    def probe_scidb() -> float:
        if not scidb.has_object("waveforms_probe"):
            bigdawg.cast("waveforms", "scidb", target_name="waveforms_probe",
                         dimensions=["signal_id", "sample_index"])
        return _windowed_on_scidb(scidb, "waveforms_probe")

    # The monitor re-executes the dominant query on both engines several times.
    for _ in range(3):
        bigdawg.monitor.probe(
            "linear_algebra", "waveforms",
            {"postgres": lambda: _windowed_on_postgres(postgres), "scidb": probe_scidb},
        )
    recommendation = bigdawg.advisor.recommend("waveforms")
    assert recommendation is not None and recommendation.target_engine == "scidb"
    before = time.perf_counter()
    _windowed_on_postgres(postgres)
    before_seconds = time.perf_counter() - before

    applied = bigdawg.advisor.apply(recommendation, dimensions=["signal_id", "sample_index"])
    assert applied
    after = time.perf_counter()
    _windowed_on_scidb(scidb, "waveforms")
    after_seconds = time.perf_counter() - after

    print("\nCLAIM-8: workload-driven migration of the waveform object")
    print(f"  dominant query class          : {recommendation.query_class}")
    print(f"  before migration (postgres)   : {before_seconds:.4f} s per query")
    print(f"  after migration  (scidb)      : {after_seconds:.4f} s per query")
    print(f"  measured speedup              : {before_seconds / after_seconds:.1f}x")
    print(f"  placement now                 : {bigdawg.catalog.locate('waveforms').engine_name}")
    from bench_recording import record_bench

    record_bench(
        "claim8", "workload_driven_migration",
        query_class=recommendation.query_class,
        before_seconds=before_seconds,
        after_seconds=after_seconds,
        speedup=before_seconds / after_seconds,
        placement=bigdawg.catalog.locate("waveforms").engine_name,
    )
    # Shape: the advisor moves the object and the dominant query gets much faster.
    assert bigdawg.catalog.locate("waveforms").engine_name == "scidb"
    assert before_seconds / after_seconds > 5
