"""Set-up, the closed-loop measured pass, the traced run and result checking.

Load model (all workloads): ``clients = min(2, nproc)`` threads in this one
process, each doing blocking ``runtime.execute(q)``; the runtime is built
with ``workers = parallelism = clients`` pinned.  Result checking happens
after the clock stops, so the oracle never competes with a timed op for the
interpreter lock.
"""

from __future__ import annotations

import contextlib
import gc
import os
import resource
import shutil
import statistics
import threading
import time
from collections import Counter
from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Iterator

import oracle
import spans as spans_module
import workloads
from catalog import END_TO_END, PER_LAYER

HERE = os.path.dirname(os.path.abspath(__file__))
RESULTS_DIR = os.path.join(HERE, "results")
SETUP_REPEATS = 3
PROBE_BUDGET_S = 6.0
MICRO_ITERATIONS = 300
TRACE_OPS_CAP = 100     # the traced replay gives up after this many times ``trace_ops``


def client_count() -> int:
    return min(2, os.cpu_count() or 1)


def percentile(samples: list[float], fraction: float) -> float:
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, int(fraction * len(ordered)))]


def median(samples: list[float]) -> "float | None":
    return statistics.median(samples) if samples else None


# ==================================================================== set-up
@dataclass
class Session:
    workload: Any
    deployment: Any
    streams: list[Iterator[workloads.Op]]
    clients: int
    journal_path: "str | None" = None
    setup_seconds: list[float] = field(default_factory=list)

    @property
    def runtime(self) -> Any:
        return self.deployment.runtime

    def close(self) -> None:
        self.runtime.shutdown()
        backend = self.runtime.journal.backend
        backend.close()


def scratch_dir() -> str:
    """This process's directory for journal files; ``tear_down`` removes it."""
    path = os.path.join(RESULTS_DIR, f"tmp-{os.getpid()}")
    os.makedirs(path, exist_ok=True)
    return path


def _journal_for(workload: Any) -> tuple[Any, "str | None"]:
    """The durable workload's fsync'd file journal; memory (the default) elsewhere."""
    if workload.name != "durable_mixed":
        return None, None
    from repro.runtime.journal import FileJournalBackend, WriteIntentJournal

    path = os.path.join(scratch_dir(), "journal.jsonl")
    if os.path.exists(path):
        os.remove(path)
    return WriteIntentJournal(FileJournalBackend(path, fsync=True)), path


def set_up_once(name: str, seed: int, tiny: bool) -> Session:
    """Generate, load, build the runtime and run the warm-up slice."""
    cls = workloads.WORKLOADS[name]
    workload = cls(seed, workloads.TINY[name]) if tiny else cls(seed)
    clients = client_count()
    workload.generate()
    journal, path = _journal_for(workload)
    deployment = workload.deploy(clients, journal)
    session = Session(workload, deployment,
                      [workload.ops(c, clients) for c in range(clients)], clients, path)
    warm = drive(session, max_ops=max(1, workload.sizes.warmup_ops // clients), check=False)
    raised = [r.failure for r in warm if r.failure]
    if raised:
        raise RuntimeError(f"warm-up op failed: {raised[0]}")
    return session


def set_up(name: str, seed: int, tiny: bool = False, repeats: int = SETUP_REPEATS) -> Session:
    """Set up ``repeats`` times, keep the last; ``setup_seconds`` holds every timing."""
    timings = []
    session = None
    for _ in range(repeats):
        if session is not None:
            session.close()
            session = None
            gc.collect()
        started = time.perf_counter()
        session = set_up_once(name, seed, tiny)
        timings.append(time.perf_counter() - started)
    session.setup_seconds = timings
    session.workload.build_oracle()
    gc.collect()
    gc.freeze()
    return session


def tear_down(session: Session) -> None:
    session.close()
    gc.unfreeze()
    shutil.rmtree(scratch_dir(), ignore_errors=True)


# ============================================================= measured pass
@dataclass
class OpRecord:
    kind: str
    write: bool
    casts: int
    seconds: float
    failure: "str | None"   # why the op counts as failed, None when it is right


def run_op(session: Session, op: workloads.Op, clock: Callable[[], float],
           around: Callable[[], Any] = contextlib.nullcontext, check: bool = True) -> OpRecord:
    """Execute one op under one timer (and inside ``around()``, the traced
    run's op span), then, timer stopped, check its answers."""
    runtime = session.runtime
    with around():
        started = clock()
        try:
            results: Any = [runtime.execute(q) for q in op.queries]
        except Exception as error:  # noqa: BLE001 - a raised op is a failed op
            results = error
        seconds = clock() - started
    failure = None
    if isinstance(results, Exception):
        failure = f"{op.kind}: raised {results!r}"[:200]
    elif check and not all(
        oracle.rows_match((row.values for row in relation.rows), want)
        for relation, want in zip(results, session.workload.expected(op))
    ):
        failure = f"{op.kind}: wrong answer for {op.queries[-1]}"[:200]
    return OpRecord(op.kind, op.write, op.casts, seconds, failure)


def drive(session: Session, seconds: "float | None" = None,
          max_ops: "int | None" = None, check: bool = True) -> list[OpRecord]:
    """Closed loop: every client runs its stream until the deadline/op limit.

    ``check=False`` is the warm-up: it runs before the oracle is built."""
    records: list[list[OpRecord]] = [[] for _ in session.streams]
    crashes: list[BaseException] = []
    deadline = None if seconds is None else time.perf_counter() + seconds

    def client(index: int) -> None:
        stream, out = session.streams[index], records[index]
        clock = time.perf_counter
        try:
            while (max_ops is None or len(out) < max_ops) and \
                    (deadline is None or clock() < deadline):
                out.append(run_op(session, next(stream), clock, check=check))
        except BaseException as error:  # noqa: BLE001 - a harness bug: re-raised below
            crashes.append(error)

    threads = [threading.Thread(target=client, args=(i,)) for i in range(len(session.streams))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if crashes:
        raise crashes[0]
    return [record for client_records in records for record in client_records]


def count_failures(records: list[OpRecord], casts_executed: int) -> tuple[int, list[str]]:
    """Ops that raised or whose answer the oracle rejected, plus missing CASTs."""
    notes = [r.failure for r in records if r.failure]
    failed = len(notes)
    casts_required = sum(r.casts for r in records)
    if casts_executed < casts_required:
        # A refresh that found a fresh replica did not really CAST.
        failed += casts_required - casts_executed
        notes.append(f"{casts_required - casts_executed} refresh ops executed no CAST")
    return failed, notes[:10]


def restart_and_verify(session: Session) -> dict[str, float]:
    """Shut down, reopen the journal in a new runtime, diff the table with the model."""
    from repro.runtime.journal import FileJournalBackend, WriteIntentJournal
    from repro.runtime.scheduler import PolystoreRuntime

    old = session.runtime
    old.shutdown()
    backend = old.journal.backend
    if session.journal_path:
        backend.close()
    started = time.perf_counter()
    journal = (WriteIntentJournal(FileJournalBackend(session.journal_path, fsync=True))
               if session.journal_path else WriteIntentJournal(backend))
    fresh = PolystoreRuntime(
        session.deployment.bigdawg, workers=session.clients, parallelism=session.clients,
        cache_capacity=workloads.CACHE_CAPACITY, journal=journal, recover_on_start=False,
    )
    report = fresh.recover()
    elapsed = time.perf_counter() - started
    session.deployment.runtime = fresh
    out = {"recovery_s": elapsed, "intents_replayed": report.intents_replayed,
           "lost_acked_writes": 0}
    if session.workload.name == "durable_mixed":
        models = session.workload.models
        engine = session.deployment.engines["relational"]
        out["lost_acked_writes"] = oracle.lost_acked_writes(models.values(), (
            row.values for client in models
            for row in engine.export_relation(f"vitals_{client}").rows))
    return out


def measure(session: Session, seconds: float) -> dict[str, Any]:
    """The tracing-off pass: end-to-end metrics plus informational extras."""
    history = session.deployment.bigdawg.migrator.history
    casts_before = len(history)
    journal_before = _journal_bytes(session)
    cpu_before, wall_before = time.process_time(), time.perf_counter()
    records = drive(session, seconds=seconds)
    wall = time.perf_counter() - wall_before
    cpu = time.process_time() - cpu_before
    latencies = [r.seconds for r in records]
    snapshot = session.runtime.metrics.snapshot()
    cache = session.runtime.cache.describe()
    extras: dict[str, Any] = {
        "samples": len(records),
        "wall_s": wall,
        "cache_hit_ratio": cache["hit_rate"],
        "cache_evictions": cache["evictions"],
        "admission_wait_s_total": snapshot["admission_wait_s_total"],
        "retries": snapshot["retry_attempts"],
        "breaker_refusals": snapshot["breaker_rejections"],
        "latency_p99_ms": percentile(latencies, 0.99) * 1e3,
        "ops_by_kind": dict(sorted(Counter(r.kind for r in records).items())),
    }
    writes = [r.seconds for r in records if r.write]
    reads = [r.seconds for r in records if not r.write]
    if session.workload.name == "durable_mixed":
        extras.update({
            "write_latency_p50_ms": percentile(writes, 0.5) * 1e3,
            "write_latency_p90_ms": percentile(writes, 0.9) * 1e3,
            "read_latency_p50_ms": percentile(reads, 0.5) * 1e3,
            "read_latency_p90_ms": percentile(reads, 0.9) * 1e3,
            "journal_bytes_per_write": (_journal_bytes(session) - journal_before) / len(writes),
        })
        extras.update(restart_and_verify(session))
    failed, notes = count_failures(records, len(history) - casts_before)
    lost = extras.get("lost_acked_writes", 0)
    metrics = {
        "setup_s": statistics.median(session.setup_seconds),
        "throughput_ops_s": len(records) / wall,
        "latency_p50_ms": percentile(latencies, 0.5) * 1e3,
        "latency_p90_ms": percentile(latencies, 0.9) * 1e3,
        "cpu_s_per_op": cpu / len(records),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return {
        "correct": failed == 0 and lost == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": _with_units(metrics, END_TO_END),
        "extras": extras,
        "failure_notes": notes,
        "setup_seconds": session.setup_seconds,
    }


def _journal_bytes(session: Session) -> int:
    return os.path.getsize(session.journal_path) if session.journal_path else 0


def _with_units(values: dict[str, Any], declared: list) -> dict[str, dict]:
    units = {m.name: m.unit for m in declared}
    return {name: {"value": value, "unit": units[name]} for name, value in values.items()}


# ================================================================ traced run
def _engine_counters(session: Session) -> dict[str, float]:
    snapshot = session.runtime.metrics.snapshot()
    cache = session.runtime.cache
    paths = snapshot["relational_groupby_paths"]
    return {
        "morsels": snapshot["relational_morsels_executed"],
        "spilled": snapshot["relational_partitions_spilled"],
        "fallbacks": sum(snapshot["relational_fallback_reasons"].values()),
        "pruned": snapshot["relational_columns_pruned"],
        "groupby_stream": sum(n for path, n in paths.items() if path.startswith("stream")),
        "groupby_all": sum(paths.values()),
        "hits": cache.hits, "lookups": cache.hits + cache.misses,
        "evictions": cache.evictions,
        "wait_s": snapshot["admission_wait_s_total"],
        "held_s": snapshot["admission_held_s_total"],
        "retries": snapshot["retry_attempts"],
        "refusals": snapshot["breaker_rejections"],
    }


def _timed_loop(fn: Callable[[], Any], iterations: int) -> float:
    """Median seconds of one call."""
    clock = time.perf_counter
    samples = []
    for _ in range(iterations):
        started = clock()
        fn()
        samples.append(clock() - started)
    return statistics.median(samples)


def _journal_probes(iterations: int) -> dict[str, Any]:
    """One begin+commit pair per backend, bytes per pair, replay() vs history length."""
    from repro.runtime.journal import FileJournalBackend, MemoryJournalBackend, WriteIntentJournal

    scratch = scratch_dir()
    out: dict[str, Any] = {}

    def pair(journal: Any) -> Callable[[], None]:
        return lambda: journal.begin("dml", query="probe", engines=["postgres"]).commit()

    out["runtime.journal.append_us.memory"] = _timed_loop(
        pair(WriteIntentJournal(MemoryJournalBackend())), iterations) * 1e6
    for label, fsync in (("file", False), ("fsync", True)):
        path = os.path.join(scratch, f"probe-{label}.jsonl")
        backend = FileJournalBackend(path, fsync=fsync)
        out[f"runtime.journal.append_us.{label}"] = _timed_loop(
            pair(WriteIntentJournal(backend)), iterations) * 1e6
        backend.close()
        if fsync:
            out["runtime.journal.bytes_per_intent"] = os.path.getsize(path) / iterations
        os.remove(path)
    journal = WriteIntentJournal(MemoryJournalBackend())
    per_1k = []
    for length in (iterations, 2 * iterations, 4 * iterations):
        while journal.intents_written < length:
            pair(journal)()
        per_1k.append(_timed_loop(journal.replay, 3) * 1e3 * 1000 / length)
    out["runtime.journal.replay_ms_per_1k"] = per_1k[-1]
    out["replay_ms_per_1k_by_length"] = per_1k   # informational: is it flat?
    return out


def _micro_probes(session: Session, primed: str, iterations: int) -> dict[str, Any]:
    """Median cost of one uncontended call into cache, admission, resilience, journal."""
    runtime, cache = session.runtime, session.runtime.cache
    relation = runtime.execute(primed)
    gate = {"postgres"}

    def admit() -> None:
        with runtime.admission.admit(gate):
            pass

    out = {
        "runtime.cache.fingerprint_us": _timed_loop(cache.fingerprint, iterations) * 1e6,
        "runtime.cache.put_us": _timed_loop(
            lambda: cache.put(primed, relation, cache.fingerprint()), iterations) * 1e6,
        "runtime.cache.get_us": _timed_loop(lambda: cache.get(primed), iterations) * 1e6,
        "runtime.admission.admit_us": _timed_loop(admit, iterations) * 1e6,
        "runtime.resilience.run_overhead_us": _timed_loop(
            lambda: runtime.resilience.run(gate, lambda: None), iterations) * 1e6,
    }
    out.update(_journal_probes(iterations))
    return out


def _probe_reads(session: Session, recorder: spans_module.SpanRecorder,
                 reads: list[str]) -> dict[str, list[float]]:
    """Re-run read ops straight through each layer: runtime without cache,
    BigDawg without runtime, the program's own tracer, and the cache-hit path."""
    runtime, bigdawg = session.runtime, session.deployment.bigdawg
    out: dict[str, list[float]] = {k: [] for k in (
        "scheduler", "bigdawg", "overhead", "bigdawg_overhead", "traced", "spans", "hit")}
    clock = time.perf_counter
    deadline = clock() + PROBE_BUDGET_S
    for index, query in enumerate(reads):
        if index >= 5 and clock() > deadline:
            break
        started = clock()
        runtime.execute(query, use_cache=False)
        scheduled = clock() - started
        mark = len(recorder.spans)
        started = clock()
        bigdawg.execute(query)
        direct = clock() - started
        inner = [s for s in recorder.spans[mark:]
                 if s.name == "core.query.plan" or s.name.startswith("core.islands.")]
        started = clock()
        _relation, tracer = runtime.trace(query)
        traced = clock() - started
        runtime.execute(query)
        started = clock()
        runtime.execute(query)
        out["hit"].append(clock() - started)
        out["scheduler"].append(scheduled)
        out["bigdawg"].append(direct)
        out["overhead"].append(scheduled - direct)
        out["bigdawg_overhead"].append(direct - sum(s.duration for s in inner))
        out["traced"].append(traced)
        out["spans"].append(len(tracer.spans()))
    return out


def _probe_relational(session: Session, recorder: spans_module.SpanRecorder) -> dict[str, Any]:
    """engine.plan and parallelism 1 vs pinned, on SELECTs the replay ran."""
    engine = session.deployment.engines["relational"]
    statements = []
    for span in recorder.spans:
        sql = span.attrs.get("sql")
        if span.op is not None and sql and span.attrs["engine"] == engine.name \
                and sql not in statements and sql.lstrip().lower().startswith("select"):
            statements.append(sql)
    clock = time.perf_counter
    deadline = clock() + PROBE_BUDGET_S
    serial, parallel, plans = [], [], []
    pinned = engine.parallelism
    try:
        for index, sql in enumerate(statements):
            if index >= 5 and clock() > deadline:
                break
            mark = len(recorder.spans)
            engine.plan(sql)
            plan_span = next(s for s in recorder.spans[mark:] if s.name == "engines.relational.plan")
            parse = sum(s.duration for s in recorder.spans[mark:]
                        if s.name == "engines.relational.sql.parse")
            plans.append(plan_span.duration - parse)
            engine.parallelism = 1
            started = clock()
            engine.execute(sql)
            serial.append(clock() - started)
            engine.parallelism = pinned
            started = clock()
            engine.execute(sql)
            parallel.append(clock() - started)
    finally:
        engine.parallelism = pinned
    speedup = sum(serial) / sum(parallel) if parallel else None
    return {"plan": plans, "speedup": speedup}


def trace(session: Session, micro_iterations: int = MICRO_ITERATIONS) -> dict[str, Any]:
    """Replay the next ``trace_ops`` ops of client 0's stream, and on until
    every op kind of the workload has run past the cache, with the span wrappers on, then
    probe each layer's public functions.  Returns every per-layer metric this
    workload exercises (None where it does not), the layer-share table and the
    recorder.  ``micro_iterations=0`` skips the workload-independent
    micro-probes (the fallback replays do)."""
    workload, runtime = session.workload, session.runtime
    ops = workload.sizes.trace_ops
    recorder = spans_module.SpanRecorder()
    stream = session.streams[0]
    history = session.deployment.bigdawg.migrator.history
    casts_before = len(history)
    engine = session.deployment.engines["relational"]
    engine.peak_build_bytes = 0
    records: list[OpRecord] = []
    reads: list[str] = []
    with spans_module.instrumented(recorder):
        before = _engine_counters(session)
        unseen = set(workload.KINDS)
        for index in range(TRACE_OPS_CAP * ops):
            if index >= ops and not unseen:
                break
            op = next(stream)
            if not op.write and len(op.queries) == 1 and op.queries[0] not in reads:
                reads.append(op.queries[0])
            recorder.op = index
            mark = len(recorder.spans)
            records.append(run_op(session, op, time.perf_counter,
                                  around=lambda: recorder.span("op", kind=op.kind)))
            recorder.op = None
            # A cache hit never reaches the layers its kind stands for.
            if any(span.name.startswith("core.") for span in recorder.spans[mark:]):
                unseen.discard(op.kind)
        if unseen:
            raise RuntimeError(f"{TRACE_OPS_CAP * ops} ops of {workload.name} held no {unseen}")
        after = _engine_counters(session)
        casts = history[casts_before:]
        peak_build = engine.peak_build_bytes
        probes = _probe_reads(session, recorder, reads)
        relational = _probe_relational(session, recorder)
        if workload.reverse_cast_object:
            # The replay only casts tables into the array engine; one explicit
            # cast the other way times array export and relational import.
            for _ in range(3):
                session.deployment.bigdawg.cast(
                    workload.reverse_cast_object, engine.name, target_name="polybench_probe")
    # Uncontended micro-probes run without the wrappers, so they time the
    # layer and not the benchmark's own span bookkeeping.
    micro: dict[str, Any] = {}
    if micro_iterations:
        micro = _micro_probes(session, reads[0], micro_iterations)
    replay_by_length = micro.pop("replay_ms_per_1k_by_length", None)
    restart = restart_and_verify(session)

    failed, notes = count_failures(records, len(casts))
    selfs = recorder.self_times()
    delta = {k: after[k] - before[k] for k in after}
    write_ops = {i for i, r in enumerate(records) if r.write}

    def dur(name: str, scale: float) -> "float | None":
        value = median(recorder.durations(name))
        return None if value is None else value * scale

    def per_cast(name: str, self_time: bool) -> "float | None":
        """Median over casts of the span total (or self-time total) inside each cast."""
        totals = _totals_under(recorder, selfs, "core.cast.cast", name, self_time)
        return None if not totals else statistics.median(totals) * 1e3

    frames = [s for s in recorder.spans if s.name == "common.serialization.encode"]
    refreshes = sum(r.casts for r in records)
    cast_selfs = [selfs[s.id] for s in recorder.spans if s.name == "core.cast.cast"]
    values: dict[str, Any] = {
        "core.query.parse_us": dur("core.query.parse", 1e6),
        "core.query.plan_us": dur("core.query.plan", 1e6),
        "core.islands.relational.execute_ms": dur("core.islands.relational.execute", 1e3),
        "core.islands.array.execute_ms": dur("core.islands.array.execute", 1e3),
        "core.islands.text.execute_ms": dur("core.islands.text.execute", 1e3),
        "core.islands.d4m.execute_ms": dur("core.islands.d4m.execute", 1e3),
        "core.bigdawg.execute_ms": _scaled(median(probes["bigdawg"]), 1e3),
        "core.bigdawg.overhead_us": _scaled(median(probes["bigdawg_overhead"]), 1e6),
        "engines.relational.sql.parse_us": dur("engines.relational.sql.parse", 1e6),
        "engines.relational.plan_us": _scaled(median(relational["plan"]), 1e6),
        "engines.relational.execute_ms": dur("engines.relational.execute", 1e3),
        "engines.relational.parallel_speedup": relational["speedup"],
        "engines.relational.morsels_executed": delta["morsels"],
        "engines.relational.partitions_spilled": delta["spilled"],
        "engines.relational.peak_build_bytes": peak_build,
        "engines.relational.row_fallback_ops": delta["fallbacks"],
        "engines.relational.groupby_stream_frac":
            delta["groupby_stream"] / delta["groupby_all"] if delta["groupby_all"] else None,
        "engines.relational.columns_pruned": delta["pruned"],
        "core.cast.cast_ms": dur("core.cast.cast", 1e3),
        "core.cast.rows_per_s":
            sum(c.rows for c in casts) / sum(c.seconds for c in casts) if casts else None,
        "core.cast.bytes_per_row":
            sum(c.bytes_moved for c in casts) / sum(c.rows for c in casts) if casts else None,
        "core.cast.chunks_per_cast":
            sum(c.chunks for c in casts) / len(casts) if casts else None,
        "core.cast.peak_chunk_bytes": max((c.peak_chunk_bytes for c in casts), default=None),
        "core.cast.protocol_overhead_ms": _scaled(median(cast_selfs), 1e3),
        "core.cast.executed_per_refresh": len(casts) / refreshes if refreshes else None,
        "common.serialization.encode_ms": dur("common.serialization.encode", 1e3),
        "common.serialization.decode_ms": dur("common.serialization.decode", 1e3),
        "common.serialization.columnar_frac":
            sum(1 for s in frames if s.attrs.get("columnar")) / len(frames) if frames else None,
        "engines.relational.export_chunks_ms": per_cast("engines.relational.export_chunks", False),
        "engines.relational.import_chunks_ms": per_cast("engines.relational.import_chunks", True),
        "engines.array.export_chunks_ms": per_cast("engines.array.export_chunks", False),
        "engines.array.import_chunks_ms": per_cast("engines.array.import_chunks", True),
        "engines.array.export_relation_ms": dur("engines.array.export_relation", 1e3),
        "runtime.scheduler.execute_ms": _scaled(median(probes["scheduler"]), 1e3),
        "runtime.scheduler.overhead_us": _scaled(median(probes["overhead"]), 1e6),
        "runtime.scheduler.latency_p99_ms": percentile([r.seconds for r in records], 0.99) * 1e3,
        "runtime.cache.hit_ratio": delta["hits"] / delta["lookups"] if delta["lookups"] else None,
        "runtime.cache.evictions": delta["evictions"],
        "runtime.cache.hit_path_us": _scaled(median(probes["hit"]), 1e6),
        "runtime.admission.wait_s_total": delta["wait_s"],
        "runtime.admission.held_s_total": delta["held_s"],
        "runtime.resilience.retries": delta["retries"],
        "runtime.resilience.breaker_refusals": delta["refusals"],
        "runtime.journal.write_share":
            recorder.layer_shares(selfs, write_ops).get("runtime.journal") if write_ops else None,
        "runtime.recovery.recover_ms": restart["recovery_s"] * 1e3,
        "runtime.recovery.intents_replayed": restart["intents_replayed"],
        "runtime.recovery.lost_acked_writes": restart["lost_acked_writes"],
        "observability.tracing.overhead_ratio":
            sum(probes["traced"]) / sum(probes["scheduler"]) if probes["scheduler"] else None,
        "observability.tracing.spans_per_op": _scaled(median(probes["spans"]), 1.0),
        **micro,
    }
    kinds = sorted({r.kind for r in records})
    return {
        "correct": failed == 0 and restart["lost_acked_writes"] == 0,
        "attempted": len(records),
        "failed": failed,
        "values": values,
        "shares": recorder.layer_shares(selfs),
        "shares_by_kind": {
            kind: recorder.layer_shares(
                selfs, {i for i, r in enumerate(records) if r.kind == kind})
            for kind in kinds},
        "replay_ms_per_1k_by_length": replay_by_length,
        "failure_notes": notes,
        "recorder": recorder,
    }


def _scaled(value: "float | None", scale: float) -> "float | None":
    return None if value is None else value * scale


def _totals_under(recorder: spans_module.SpanRecorder, selfs: dict[int, float],
                  ancestor: str, name: str, self_time: bool) -> list[float]:
    """Per ``ancestor`` span, the summed (self) time of ``name`` spans beneath it."""
    by_id = {s.id: s for s in recorder.spans}
    totals: dict[int, float] = {}
    for span in recorder.spans:
        if span.name != name:
            continue
        parent = span.parent
        while parent is not None and by_id[parent].name != ancestor:
            parent = by_id[parent].parent
        if parent is not None:
            totals[parent] = totals.get(parent, 0.0) + (
                selfs[span.id] if self_time else span.duration)
    return list(totals.values())


def per_layer_result(name: str, seed: int, tiny: bool = False) -> dict[str, Any]:
    """The ``--trace 1`` result: every declared per-layer metric.

    A layer this workload never enters (no CAST in ``relational_analytics``,
    no text island outside ``mimic_serving``) is measured on the smoke-sized
    replay of the workloads that do enter it, so every metric is a real
    measurement in every run; ``sources`` says which came from where.
    """
    session = set_up(name, seed, tiny=tiny, repeats=1)
    try:
        result = trace(session, MICRO_ITERATIONS // 10 if tiny else MICRO_ITERATIONS)
    finally:
        tear_down(session)
    values, sources = dict(result["values"]), {}
    for other in workloads.WORKLOADS:
        missing = [m.name for m in PER_LAYER if values.get(m.name) is None]
        if not missing:
            break
        if other == name:
            continue
        fallback_session = set_up(other, seed, tiny=True, repeats=1)
        try:
            fallback = trace(fallback_session, micro_iterations=0)["values"]
        finally:
            tear_down(fallback_session)
        for metric in missing:
            if fallback.get(metric) is not None:
                values[metric] = fallback[metric]
                sources[metric] = f"tiny {other}"
    unmeasured = [m.name for m in PER_LAYER if values.get(m.name) is None]
    if unmeasured:
        raise RuntimeError(f"no workload exercised: {unmeasured}")
    result["metrics"] = _with_units({m.name: values[m.name] for m in PER_LAYER}, PER_LAYER)
    result["sources"] = sources
    result["sizes"] = asdict(session.workload.sizes)
    return result


def end_to_end_result(name: str, seed: int, seconds: float, tiny: bool = False) -> dict[str, Any]:
    """The ``--trace 0`` result: every declared end-to-end metric."""
    session = set_up(name, seed, tiny=tiny)
    try:
        result = measure(session, seconds)
    finally:
        tear_down(session)
    result["sizes"] = asdict(session.workload.sizes)
    return result
