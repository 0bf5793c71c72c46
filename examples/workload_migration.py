"""Workload-driven data placement: the BigDAWG monitor in action.

Section 2.1 of the paper: "if the majority of the queries accessing MIMIC II's
waveforms use linear algebra, this data would naturally be migrated to an
array store."  This example starts with waveform data *misplaced* in the
relational engine, lets the monitor observe a linear-algebra-heavy workload on
both engines, and shows the advisor recommending — and applying — the
migration to the array engine.

Run with::

    python examples/workload_migration.py
"""

from __future__ import annotations

import numpy as np

from repro import BigDawg
from repro.common.schema import Relation, Schema
from repro.engines.array import ArrayEngine
from repro.engines.relational import RelationalEngine


def build_waveform_rows(signals: int, samples: int, seed: int = 5) -> Relation:
    rng = np.random.default_rng(seed)
    schema = Schema([("signal_id", "integer"), ("sample_index", "integer"), ("value", "float")])
    rows = []
    for signal in range(signals):
        values = np.sin(np.linspace(0, 40, samples)) + 0.1 * rng.standard_normal(samples)
        rows.extend([signal, index, value] for index, value in enumerate(values.tolist()))
    return Relation(schema, rows)


def windowed_average_sql(engine: RelationalEngine, window: int) -> float:
    rows = engine.execute(
        "SELECT signal_id, sample_index, value FROM waveforms ORDER BY signal_id, sample_index"
    )
    best, buffer, current = float("-inf"), [], None
    for row in rows:
        if row["signal_id"] != current:
            current, buffer = row["signal_id"], []
        buffer.append(float(row["value"]))
        if len(buffer) > window:
            buffer.pop(0)
        best = max(best, sum(buffer) / len(buffer))
    return best


def main() -> None:
    bigdawg = BigDawg()
    postgres = RelationalEngine("postgres")
    scidb = ArrayEngine("scidb")
    bigdawg.add_engine(postgres)
    bigdawg.add_engine(scidb)

    # Waveforms start out (badly) placed in the relational engine.
    postgres.import_relation("waveforms", build_waveform_rows(signals=4, samples=2000))
    bigdawg.catalog.register_object("waveforms", "postgres", "table")
    print("initial placement:", bigdawg.catalog.locate("waveforms").engine_name)

    # The monitor probes the dominant (linear-algebra) query on both engines.
    # The array-engine runner includes the one-time cast, so the comparison is honest.
    def run_on_postgres() -> float:
        return windowed_average_sql(postgres, window=32)

    def run_on_scidb() -> float:
        if not scidb.has_object("waveforms_probe"):
            # Probe copy under a different name so the catalog still records the
            # object's real placement (postgres) until the advisor moves it.
            bigdawg.cast("waveforms", "scidb", target_name="waveforms_probe",
                         dimensions=["signal_id", "sample_index"])
        result = scidb.execute(
            "aggregate(window(waveforms_probe, value, 32, avg, sample_index), max(avg_value))"
        )
        return float(result["max(avg_value)"])

    for _ in range(3):
        latencies = bigdawg.monitor.probe(
            "linear_algebra", "waveforms",
            {"postgres": run_on_postgres, "scidb": run_on_scidb},
        )
        print({engine: f"{seconds * 1000:.1f} ms" for engine, seconds in latencies.items()})

    recommendation = bigdawg.advisor.recommend("waveforms")
    print(
        f"advisor: move {recommendation.object_name} from {recommendation.current_engine} "
        f"to {recommendation.target_engine} (expected speedup {recommendation.expected_speedup:.1f}x)"
    )
    moved = bigdawg.advisor.apply(
        recommendation, dimensions=["signal_id", "sample_index"]
    )
    print("migration applied:", moved)
    print("final placement:", bigdawg.catalog.locate("waveforms").engine_name)


if __name__ == "__main__":
    main()
