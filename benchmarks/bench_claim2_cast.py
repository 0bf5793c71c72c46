"""CLAIM-2 — §2.1: binary CASTs vs file-based (CSV) import/export.

The paper argues cross-database CASTs should be "more efficient than
file-based import/export" by reading binary data directly.  The benchmark
casts the same objects between engines through both paths at two sizes and
prints the throughput ratio; the binary path must not lose (and typically
wins clearly as row counts grow).

The chunk-size sweep measures the same claim *under bounded wire memory*:
the streaming pipeline holds at most one encoded frame at a time, so
``peak_chunk_bytes`` — reported alongside throughput — is the pipeline's
wire-memory footprint (destination-side buffering is the target engine's
own, e.g. the array engine still collects cells to size its dimensions),
and the binary-vs-CSV comparison holds at every chunk size.  The 100k-row
case checks that chunking costs nothing: the chunked binary path must keep
up with the old single-shot path while using a fraction of its peak
wire-frame memory.
"""

from __future__ import annotations

import gc
import time

import pytest

from repro.core.cast import CastMigrator
from repro.core.catalog import BigDawgCatalog
from repro.engines.array import ArrayEngine
from repro.engines.keyvalue import KeyValueEngine
from repro.engines.relational import RelationalEngine
from repro.common.schema import Relation, Schema


def _catalog_with_rows(row_count: int) -> BigDawgCatalog:
    catalog = BigDawgCatalog()
    postgres = RelationalEngine("postgres")
    scidb = ArrayEngine("scidb")
    accumulo = KeyValueEngine("accumulo")
    catalog.register_engine(postgres, ["relational"])
    catalog.register_engine(scidb, ["array"])
    catalog.register_engine(accumulo, ["text"])
    schema = Schema([("sample_index", "integer"), ("signal_id", "integer"), ("value", "float")])
    relation = Relation(schema, [[i, i % 4, (i % 97) * 0.25] for i in range(row_count)])
    postgres.import_relation("waveform_rows", relation)
    catalog.register_object("waveform_rows", "postgres", "table")
    return catalog


@pytest.fixture(scope="module")
def small_catalog():
    return _catalog_with_rows(2_000)


@pytest.fixture(scope="module")
def large_catalog():
    return _catalog_with_rows(20_000)


def test_cast_binary_small(benchmark, small_catalog):
    migrator = CastMigrator(small_catalog)
    record = benchmark(
        migrator.cast, "waveform_rows", "scidb", method="binary",
        target_name="wf_bin", dimensions=["sample_index"],
    )
    assert record.rows == 2_000


def test_cast_csv_small(benchmark, small_catalog):
    migrator = CastMigrator(small_catalog)
    record = benchmark(
        migrator.cast, "waveform_rows", "scidb", method="csv", use_tempfile=True,
        target_name="wf_csv", dimensions=["sample_index"],
    )
    assert record.rows == 2_000


def test_cast_binary_large(benchmark, large_catalog):
    migrator = CastMigrator(large_catalog)
    record = benchmark(
        migrator.cast, "waveform_rows", "scidb", method="binary",
        target_name="wf_bin", dimensions=["sample_index"],
    )
    assert record.rows == 20_000


def test_cast_csv_large(benchmark, large_catalog):
    migrator = CastMigrator(large_catalog)
    record = benchmark(
        migrator.cast, "waveform_rows", "scidb", method="csv", use_tempfile=True,
        target_name="wf_csv", dimensions=["sample_index"],
    )
    assert record.rows == 20_000


def test_claim2_chunk_size_sweep(large_catalog):
    """Sweep chunk sizes for both methods; report throughput and peak frame size."""
    migrator = CastMigrator(large_catalog)
    chunk_sizes = (1_000, 5_000, 20_000)
    peaks: dict[tuple[str, int], int] = {}
    print("\nCLAIM-2: chunk-size sweep, 20,000 rows postgres -> accumulo")
    print(f"  {'method':<8} {'chunk_size':>10} {'rows/s':>12} {'bytes':>12} {'peak_chunk_bytes':>18}")
    for method in ("binary", "csv"):
        for chunk_size in chunk_sizes:
            record = migrator.cast(
                "waveform_rows", "accumulo", method=method, chunk_size=chunk_size,
                target_name=f"sweep_{method}_{chunk_size}",
            )
            throughput = record.rows / record.seconds
            peaks[(method, chunk_size)] = record.peak_chunk_bytes
            print(
                f"  {method:<8} {chunk_size:>10,} {throughput:>12,.0f} "
                f"{record.bytes_moved:>12,} {record.peak_chunk_bytes:>18,}"
            )
    # Bounded memory: the peak frame scales with the chunk size, not the relation.
    for method in ("binary", "csv"):
        assert peaks[(method, 1_000)] < peaks[(method, 20_000)]
        assert peaks[(method, 1_000)] < peaks[(method, 20_000)] / 10


@pytest.fixture(scope="module")
def xlarge_catalog():
    return _catalog_with_rows(100_000)


def test_claim2_chunked_vs_single_shot_100k(xlarge_catalog):
    """Chunked binary CAST must keep up with the old single-shot binary path."""
    migrator = CastMigrator(xlarge_catalog)

    def best_of(chunk_size: int, target: str, attempts: int = 2):
        # Same noise treatment as test_claim2_summary: best-of-N with the
        # collector off, so one GC pause cannot flip the comparison.
        best = None
        for _ in range(attempts):
            gc.collect()
            gc.disable()
            try:
                record = migrator.cast(
                    "waveform_rows", "scidb", method="binary", chunk_size=chunk_size,
                    target_name=target, dimensions=["sample_index"],
                )
            finally:
                gc.enable()
            if best is None or record.seconds < best.seconds:
                best = record
        return best

    single = best_of(100_000, "wf_single")
    chunked = best_of(8_192, "wf_chunked")
    assert single.chunks == 1 and chunked.chunks == 13
    single_tput = single.rows / single.seconds
    chunked_tput = chunked.rows / chunked.seconds
    print("\nCLAIM-2: 100,000-row binary CAST, single-shot vs chunked")
    print(f"  single-shot : {single_tput:>12,.0f} rows/s, peak frame {single.peak_chunk_bytes:,} bytes")
    print(f"  chunked     : {chunked_tput:>12,.0f} rows/s, peak frame {chunked.peak_chunk_bytes:,} bytes")
    # Same work, bounded memory: throughput holds (10% timing tolerance) while
    # the peak in-memory frame shrinks by the chunking ratio.
    assert chunked_tput >= single_tput * 0.9
    assert chunked.peak_chunk_bytes < single.peak_chunk_bytes / 10


@pytest.mark.parametrize("rows", [2_000, 20_000], ids=["small", "large"])
def test_claim2_summary(rows):
    """Print the binary-vs-CSV comparison (CI runs the small size: ``-k small``)."""
    # A fresh catalog (not the shared module fixture) and best-of-three timing:
    # the destination import dominates the wall clock and is noisy enough —
    # especially with other fixtures' data still resident — to flip a close
    # comparison on a single measurement.
    migrator = CastMigrator(_catalog_with_rows(rows))

    def timed(method: str, use_tempfile: bool) -> tuple[float, int]:
        best, bytes_moved = float("inf"), 0
        accumulo = migrator.catalog.engine("accumulo")
        for attempt in range(3):
            # Keep the live heap identical for every run: drop the previous
            # destination, then time with the collector off so GC pauses
            # (which scale with whatever else the process has resident) do
            # not land on one method's measurement.
            gc.collect()
            gc.disable()
            try:
                start = time.perf_counter()
                record = migrator.cast(
                    "waveform_rows", "accumulo", method=method, use_tempfile=use_tempfile,
                    target_name="summary_scratch",
                )
                best = min(best, time.perf_counter() - start)
            finally:
                gc.enable()
            bytes_moved = record.bytes_moved
            accumulo.drop_object("summary_scratch")
            migrator.catalog.unregister_object("summary_scratch")
        return best, bytes_moved

    csv_seconds, csv_bytes = timed("csv", True)
    binary_seconds, binary_bytes = timed("binary", False)
    print(f"\nCLAIM-2: CAST of {rows:,} waveform rows between engines")
    print(f"  file-based (CSV) : {csv_seconds:.4f} s, {csv_bytes:,} bytes")
    print(f"  binary direct    : {binary_seconds:.4f} s, {binary_bytes:,} bytes")
    print(f"  speedup          : {csv_seconds / binary_seconds:.2f}x")
    from bench_recording import record_bench

    record_bench(
        "claim2", f"binary_vs_csv_{rows // 1000}k_rows",
        csv_seconds=csv_seconds, csv_bytes=csv_bytes,
        binary_seconds=binary_seconds, binary_bytes=binary_bytes,
        speedup=csv_seconds / binary_seconds,
    )
    # Shape of the claim: the binary path is at least as fast as file-based export/import.
    assert binary_seconds <= csv_seconds * 1.1


def test_claim2_relational_array_summary():
    """Binary vs CSV between the relational and the array engine, both ways,
    at 2,000 and 20,000 rows: the direction polybench's refresh casts.

    The binary frame carries the table's typed columns straight into the
    array's buffers, so no Python value is made per cell, while CSV renders
    and re-parses every one.  At 20,000 rows the binary relational -> array
    CAST must be at least 100x faster than CSV.
    """
    print("\nCLAIM-2: relational <-> array CAST, best of 5")
    print(f"  {'rows':>7} {'direction':<18} {'csv s':>9} {'binary s':>9} {'speedup':>8}")
    speedups: dict[tuple[int, str], float] = {}
    for rows in (2_000, 20_000):
        migrator = CastMigrator(_catalog_with_rows(rows))
        scidb = migrator.catalog.engine("scidb")
        postgres = migrator.catalog.engine("postgres")
        directions = {
            "relational->array": (scidb, dict(
                source_engine="postgres", dimensions=["sample_index"])),
            "array->relational": (postgres, dict(source_engine="scidb")),
        }
        # The array the reverse direction reads.
        migrator.cast("waveform_rows", "scidb", method="binary",
                      dimensions=["sample_index"], target_name="waveform_array")
        for direction, (target, options) in directions.items():
            source = "waveform_rows" if target is scidb else "waveform_array"
            seconds = {}
            for method in ("csv", "binary"):
                best = float("inf")
                for _attempt in range(5):
                    gc.collect()
                    gc.disable()
                    try:
                        start = time.perf_counter()
                        migrator.cast(source, target.name, method=method,
                                      use_tempfile=method == "csv",
                                      target_name="summary_scratch", **options)
                        best = min(best, time.perf_counter() - start)
                    finally:
                        gc.enable()
                    target.drop_object("summary_scratch")
                    migrator.catalog.unregister_object("summary_scratch")
                seconds[method] = best
            speedups[(rows, direction)] = seconds["csv"] / seconds["binary"]
            print(f"  {rows:>7,} {direction:<18} {seconds['csv']:>9.4f} "
                  f"{seconds['binary']:>9.4f} {speedups[(rows, direction)]:>7.0f}x")
    from bench_recording import record_bench

    record_bench("claim2", "relational_array_binary_vs_csv", **{
        f"speedup_{rows // 1000}k_{direction.replace('->', '_to_')}": speedup
        for (rows, direction), speedup in speedups.items()
    })
    assert speedups[(20_000, "relational->array")] >= 100
