"""CLAIM-1 — §4: the polystore outperforms a "one size fits all" system.

The paper expects one-to-two orders of magnitude on the workload classes that
do not fit the single engine.  Each pair of benchmarks below runs the same
logical task on the specialized engine (through BigDAWG) and on the single
relational store; the summary test prints the speedups so the shape (who wins,
roughly by how much) can be compared against the claim.
"""

from __future__ import annotations

import time

import numpy as np

from repro.analytics import dominant_frequency


WINDOW = 64


# ------------------------------------------------------ SQL analytics (baseline's home turf)
def test_sql_analytics_polystore(benchmark, bench_deployment):
    result = benchmark(
        bench_deployment.bigdawg.execute,
        "RELATIONAL(SELECT count(*) AS n FROM prescriptions WHERE drug = 'heparin')",
    )
    assert result.rows[0]["n"] > 0


def test_sql_analytics_onesize(benchmark, bench_onesize):
    result = benchmark(bench_onesize.patients_given_drug, "heparin")
    assert result > 0


# ------------------------------------------------- complex analytics over waveforms
def test_windowed_analytics_polystore(benchmark, bench_deployment):
    query = (
        f"ARRAY(aggregate(window(waveform_history, value, {WINDOW}, avg, sample), max(avg_value)))"
    )
    result = benchmark(bench_deployment.bigdawg.execute, query)
    assert result.rows[0]["max(avg_value)"] > 0


def test_windowed_analytics_onesize(benchmark, bench_onesize):
    result = benchmark(bench_onesize.windowed_max_average, WINDOW)
    assert result > 0


def test_fft_polystore(benchmark, bench_deployment):
    array = bench_deployment.array.array("waveform_history")

    def run() -> float:
        signal = np.asarray(array.buffer("value")[0], dtype=float)
        return dominant_frequency(signal, 125.0)

    assert benchmark(run) > 0


def test_fft_onesize(benchmark, bench_onesize):
    assert benchmark(bench_onesize.dominant_frequency, 0) > 0


# ------------------------------------------------------------------- text search
def test_text_search_polystore(benchmark, bench_deployment):
    result = benchmark(
        bench_deployment.bigdawg.execute, 'TEXT(SEARCH notes FOR "very sick" MIN 3)'
    )
    assert len(result) >= 0


def test_text_search_onesize(benchmark, bench_onesize):
    benchmark(bench_onesize.patients_with_min_phrase, "very sick", 3)


# ----------------------------------------------------------------------- summary
def test_claim1_speedup_summary(bench_deployment, bench_onesize):
    """Print the per-class speedups (polystore vs one-size-fits-all)."""

    def timed(fn, repeat: int = 3) -> float:
        best = float("inf")
        for _ in range(repeat):
            start = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - start)
        return best

    array = bench_deployment.array.array("waveform_history")
    rows = [
        (
            "sql_analytics (count by drug)",
            timed(lambda: bench_onesize.patients_given_drug("heparin")),
            timed(lambda: bench_deployment.bigdawg.execute(
                "RELATIONAL(SELECT count(*) AS n FROM prescriptions WHERE drug = 'heparin')")),
        ),
        (
            "windowed waveform analytics",
            timed(lambda: bench_onesize.windowed_max_average(WINDOW), 1),
            timed(lambda: bench_deployment.bigdawg.execute(
                f"ARRAY(aggregate(window(waveform_history, value, {WINDOW}, avg, sample), max(avg_value)))"), 1),
        ),
        (
            "FFT of one signal",
            timed(lambda: bench_onesize.dominant_frequency(0), 1),
            timed(lambda: dominant_frequency(np.asarray(array.buffer("value")[0], dtype=float), 125.0)),
        ),
        (
            "text search (>=3 'very sick' notes)",
            timed(lambda: bench_onesize.patients_with_min_phrase("very sick", 3)),
            timed(lambda: bench_deployment.bigdawg.execute('TEXT(SEARCH notes FOR "very sick" MIN 3)')),
        ),
    ]
    from bench_recording import record_bench

    print("\nCLAIM-1: specialized engines vs single relational store")
    print(f"{'workload class':38s} {'one-size (s)':>14s} {'polystore (s)':>14s} {'speedup':>9s}")
    specialized_wins = 0
    for label, baseline_seconds, polystore_seconds in rows:
        speedup = baseline_seconds / polystore_seconds if polystore_seconds > 0 else float("inf")
        print(f"{label:38s} {baseline_seconds:14.4f} {polystore_seconds:14.4f} {speedup:8.1f}x")
        record_bench(
            "claim1", label,
            onesize_seconds=baseline_seconds,
            polystore_seconds=polystore_seconds,
            speedup=speedup,
        )
        if label.startswith("sql"):
            continue  # SQL analytics is the baseline's home turf; no win expected
        if speedup > 1:
            specialized_wins += 1
    # The shape of the claim: every non-SQL workload class is faster on its
    # specialized engine, with at least one class an order of magnitude faster.
    assert specialized_wins == 3
    speedups = [b / p for _l, b, p in rows[1:]]
    assert max(speedups) > 10
    # The inverted index's posting arrays answer the demo's MIN query from
    # one candidate set and a bincount; the single store scans every note.
    _label, text_onesize, text_polystore = rows[3]
    assert text_onesize / text_polystore >= 2.5
