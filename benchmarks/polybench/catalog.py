"""The declared metrics: name, unit, direction, layer, and what each should move.

``BENCHMARK.json`` carries name/unit/better(/bound) only — its schema admits
nothing else — so the layer -> end-to-end -> workload predictions live here,
and the smoke test holds the two in step.  ``python run.py --glossary``
renders this table for the README.
"""

from __future__ import annotations

from typing import NamedTuple


class EndToEnd(NamedTuple):
    name: str
    unit: str
    better: str
    bound: float
    meaning: str


class PerLayer(NamedTuple):
    name: str
    unit: str
    better: str
    moves: str      # which end-to-end metric, on which workload, it should move
    meaning: str

    @property
    def layer(self) -> str:
        parts = self.name.split(".")
        # engines.relational.sql.parse_us -> engines.relational; the rest are
        # <package>.<module>.<metric...>.
        return ".".join(parts[:2])


END_TO_END = [
    EndToEnd("setup_s", "s", "lower", 0.25,
             "data generation + load + runtime build + warm-up (median of 3 set-ups)"),
    EndToEnd("throughput_ops_s", "1/s", "higher", 0.25,
             "ops completed per second by the closed-loop clients"),
    EndToEnd("latency_p50_ms", "ms", "lower", 0.25, "median op latency"),
    EndToEnd("latency_p90_ms", "ms", "lower", 0.25,
             "90th-percentile op latency (>= 100 samples, so ten lie beyond it)"),
    EndToEnd("cpu_s_per_op", "s", "lower", 0.25,
             "process CPU seconds per op (what pool and morsel threads burn)"),
    EndToEnd("peak_rss_mb", "MB", "lower", 0.10, "peak resident set of the run"),
]

_SERVING = "latency_p50_ms, throughput_ops_s on mimic_serving"
_ANALYTICS = ("throughput_ops_s, latency_p50_ms, cpu_s_per_op, peak_rss_mb on "
              "relational_analytics; <5% on mimic_serving")
_CAST = "latency_p50_ms, throughput_ops_s on cross_island_cast; none elsewhere"
_DURABLE = "write latency, journal bytes/write, recovery on durable_mixed; none on read-only"

PER_LAYER = [
    # core.query
    PerLayer("core.query.parse_us", "us", "lower", "latency_p50_ms on mimic_serving",
             "parse_query per scoped query"),
    PerLayer("core.query.plan_us", "us", "lower", "latency_p50_ms on mimic_serving",
             "cross-island planning, parse excluded"),
    # core.islands
    PerLayer("core.islands.relational.execute_ms", "ms", "lower", _SERVING,
             "RelationalIsland.execute per call"),
    PerLayer("core.islands.array.execute_ms", "ms", "lower", _SERVING,
             "ArrayIsland.execute per call"),
    PerLayer("core.islands.text.execute_ms", "ms", "lower", _SERVING,
             "TextIsland.execute per call"),
    PerLayer("core.islands.d4m.execute_ms", "ms", "lower", _SERVING,
             "D4MIsland.execute per call"),
    # core.bigdawg
    PerLayer("core.bigdawg.execute_ms", "ms", "lower", "throughput_ops_s on mimic_serving",
             "BigDawg.execute of a read op, no runtime"),
    PerLayer("core.bigdawg.overhead_us", "us", "lower", "throughput_ops_s on mimic_serving",
             "BigDawg.execute minus its island executes and plan"),
    # engines.relational
    PerLayer("engines.relational.sql.parse_us", "us", "lower", _ANALYTICS, "parse_sql per statement"),
    PerLayer("engines.relational.plan_us", "us", "lower", _ANALYTICS,
             "engine.plan (plan + optimize), parse excluded"),
    PerLayer("engines.relational.execute_ms", "ms", "lower", _ANALYTICS,
             "RelationalEngine.execute per statement"),
    PerLayer("engines.relational.parallel_speedup", "ratio", "higher", _ANALYTICS,
             "execute at parallelism 1 / at the pinned parallelism"),
    PerLayer("engines.relational.morsels_executed", "count", "lower", _ANALYTICS,
             "scan morsels over the replay (exact)"),
    PerLayer("engines.relational.partitions_spilled", "count", "lower", _ANALYTICS,
             "join build partitions spilled over the replay (exact)"),
    PerLayer("engines.relational.peak_build_bytes", "bytes", "lower",
             "peak_rss_mb on relational_analytics", "largest resident join build (exact)"),
    PerLayer("engines.relational.row_fallback_ops", "count", "lower", _ANALYTICS,
             "row-executor fallbacks over the replay (exact)"),
    PerLayer("engines.relational.groupby_stream_frac", "ratio", "higher", _ANALYTICS,
             "grouped aggregations on a streaming path / all (exact)"),
    PerLayer("engines.relational.columns_pruned", "count", "higher", _ANALYTICS,
             "columns the optimizer pruned over the replay (exact)"),
    # core.cast
    PerLayer("core.cast.cast_ms", "ms", "lower", _CAST, "CastMigrator.cast per cast"),
    PerLayer("core.cast.rows_per_s", "rows/s", "higher", _CAST, "rows moved / cast seconds"),
    PerLayer("core.cast.bytes_per_row", "bytes/row", "lower", _CAST, "encoded bytes per row moved"),
    PerLayer("core.cast.chunks_per_cast", "count", "lower", _CAST, "frames per cast"),
    PerLayer("core.cast.peak_chunk_bytes", "bytes", "lower", "peak_rss_mb on cross_island_cast",
             "largest encoded frame (exact)"),
    PerLayer("core.cast.protocol_overhead_ms", "ms", "lower", _CAST,
             "cast self time: shadow, rename, catalog swap (journal, codec, engines excluded)"),
    PerLayer("core.cast.executed_per_refresh", "ratio", "lower", _CAST,
             "CASTs executed per refresh op (must be 1.0)"),
    # common.serialization
    PerLayer("common.serialization.encode_ms", "ms", "lower", _CAST, "BinaryCodec.encode per frame"),
    PerLayer("common.serialization.decode_ms", "ms", "lower", _CAST, "BinaryCodec.decode per frame"),
    PerLayer("common.serialization.columnar_frac", "ratio", "higher", _CAST,
             "frames on the all-numeric columnar layout / all frames"),
    # engine CAST ends and the shim's read
    PerLayer("engines.relational.export_chunks_ms", "ms", "lower", _CAST,
             "pulling every chunk of one export"),
    PerLayer("engines.relational.import_chunks_ms", "ms", "lower", _CAST,
             "import_chunks self time per call"),
    PerLayer("engines.array.export_chunks_ms", "ms", "lower", _CAST,
             "pulling every chunk of one export"),
    PerLayer("engines.array.import_chunks_ms", "ms", "lower", _CAST,
             "import_chunks self time per call"),
    PerLayer("engines.array.export_relation_ms", "ms", "lower",
             "the shim-read ops' share of latency on cross_island_cast",
             "the relational shim's in-place read of an array"),
    # runtime.scheduler
    PerLayer("runtime.scheduler.execute_ms", "ms", "lower",
             "latency_p50_ms/throughput_ops_s on mimic_serving; <=1% on relational_analytics",
             "runtime.execute(use_cache=False) of a read op"),
    PerLayer("runtime.scheduler.overhead_us", "us", "lower",
             "latency_p50_ms on mimic_serving, write latency on durable_mixed",
             "the runtime tax: that minus BigDawg.execute of the same op"),
    PerLayer("runtime.scheduler.latency_p99_ms", "ms", "lower", "informational",
             "p99 op latency of the single-client replay"),
    # runtime.cache
    PerLayer("runtime.cache.hit_ratio", "ratio", "higher", "latency_p50_ms on mimic_serving",
             "cache hits / lookups over the replay"),
    PerLayer("runtime.cache.evictions", "count", "lower", "latency_p50_ms on mimic_serving",
             "LRU evictions over the replay"),
    PerLayer("runtime.cache.get_us", "us", "lower", "latency_p50_ms on mimic_serving",
             "ResultCache.get of a present key"),
    PerLayer("runtime.cache.put_us", "us", "lower",
             "latency_p50_ms on mimic_serving; read latency on durable_mixed (opposite sign)",
             "ResultCache.put"),
    PerLayer("runtime.cache.fingerprint_us", "us", "lower", "latency_p50_ms on mimic_serving",
             "ResultCache.fingerprint"),
    PerLayer("runtime.cache.hit_path_us", "us", "lower", "latency_p50_ms on mimic_serving",
             "runtime.execute of a primed query"),
    # runtime.admission
    PerLayer("runtime.admission.admit_us", "us", "lower", "latency_p90_ms on mimic_serving",
             "uncontended admit enter + exit"),
    PerLayer("runtime.admission.wait_s_total", "s", "lower", "latency_p90_ms on mimic_serving",
             "seconds queued at gates over the replay"),
    PerLayer("runtime.admission.held_s_total", "s", "lower", "latency_p90_ms on mimic_serving",
             "seconds slots were held over the replay"),
    # runtime.resilience
    PerLayer("runtime.resilience.run_overhead_us", "us", "lower", "throughput_ops_s on mimic_serving",
             "EngineResilience.run around a no-op"),
    PerLayer("runtime.resilience.retries", "count", "lower", "must be 0 on a healthy run",
             "retry attempts over the replay"),
    PerLayer("runtime.resilience.breaker_refusals", "count", "lower", "must be 0 on a healthy run",
             "breaker rejections over the replay"),
    # runtime.journal
    PerLayer("runtime.journal.append_us.memory", "us", "lower", _DURABLE,
             "begin+commit pair, memory backend"),
    PerLayer("runtime.journal.append_us.file", "us", "lower", _DURABLE,
             "begin+commit pair, file backend, flush only"),
    PerLayer("runtime.journal.append_us.fsync", "us", "lower", _DURABLE,
             "begin+commit pair, file backend, fsync per record"),
    PerLayer("runtime.journal.bytes_per_intent", "bytes", "lower", _DURABLE,
             "file bytes per begin+commit pair (exact)"),
    PerLayer("runtime.journal.replay_ms_per_1k", "ms", "lower", "recovery on durable_mixed",
             "replay() per 1000 intents at the longest of three history lengths"),
    PerLayer("runtime.journal.write_share", "ratio", "lower", _DURABLE,
             "runtime.journal self time / op time over the replay's write ops"),
    # runtime.recovery
    PerLayer("runtime.recovery.recover_ms", "ms", "lower", "recovery on durable_mixed",
             "new runtime on the replay's journal: construction + recover()"),
    PerLayer("runtime.recovery.intents_replayed", "count", "lower", "recovery on durable_mixed",
             "open intents recover() resolved (0 after a clean shutdown)"),
    PerLayer("runtime.recovery.lost_acked_writes", "count", "lower", "must be 0",
             "acknowledged writes missing after the restart"),
    # observability.tracing
    PerLayer("observability.tracing.overhead_ratio", "ratio", "lower", "none (guard: <= 1.3)",
             "runtime.trace / runtime.execute(use_cache=False), same ops"),
    PerLayer("observability.tracing.spans_per_op", "count", "lower", "none",
             "spans the program's own tracer records per op"),
]


def glossary_markdown() -> str:
    lines = ["| metric | unit | better | bound | meaning |", "|---|---|---|---|---|"]
    for m in END_TO_END:
        lines.append(f"| `{m.name}` | {m.unit} | {m.better} | {m.bound:.0%} | {m.meaning} |")
    lines += ["", "| layer | metric | unit | meaning | should move |", "|---|---|---|---|---|"]
    for m in PER_LAYER:
        lines.append(f"| `{m.layer}` | `{m.name}` | {m.unit} | {m.meaning} | {m.moves} |")
    return "\n".join(lines)
