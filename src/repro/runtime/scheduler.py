"""The polystore runtime: serving many clients concurrently.

:class:`PolystoreRuntime` is the layer between clients and
:class:`~repro.core.bigdawg.BigDawg`.  A blocking :meth:`~PolystoreRuntime.
execute` runs on the caller's own thread; :meth:`~PolystoreRuntime.submit`
and :meth:`~PolystoreRuntime.execute_many` hand queries to a worker pool.
Either way each query flows through:

1. **Result cache** — a fingerprint-verified lookup; hits return immediately
   and never touch an engine.  A miss's result is stored afterwards, unless
   a full cache's frequency filter keeps the LRU entry instead.
2. **Planning** — scoped queries become a :class:`~repro.core.query.planner.QueryPlan`
   whose dependency sets say which steps may overlap.
3. **Scheduling** — plan steps run in dependency waves; steps in the same
   wave (independent CASTs, unrelated WITH-binding materializations) run on
   parallel threads.
4. **Dispatch** — an island query or plan step is one record, built from
   its island's parse of the statement (the objects it touches, whether it
   writes; the island then runs that parse), on one path: a write's journal
   intent, breakers and retry, admission at the gates of the engines it
   touches (so no engine sees more concurrency than its slot budget), the
   call, and failover when a breaker is open.
5. **Accounting** — latency lands in :class:`~repro.runtime.metrics.RuntimeMetrics`
   and in the :class:`~repro.core.monitor.ExecutionMonitor`, where the
   migration advisor mines it.

``engine_latency`` emulates the network hop to an out-of-process engine
(every engine here is in-process, which a real BigDAWG deployment is not):
each admitted dispatch sleeps that long while holding its slots.  Benchmarks
use it to study scheduling under realistic service times; it defaults to 0.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from contextlib import ExitStack
from functools import partial
from typing import Sequence

from repro.common.cancellation import CancellationToken, cancel_scope, check_cancelled
from repro.common.errors import (
    BigDawgError,
    CatalogError,
    CircuitOpenError,
    DeadlineExceededError,
    ObjectNotFoundError,
    PlanningError,
    SimulatedCrashError,
    TransientEngineError,
)
from repro.common.parallel import WorkerCredits, resolve_parallelism
from repro.common.schema import Relation
from repro.core.bigdawg import BigDawg
from repro.core.islands.base import Island, IslandStatement
from repro.core.query.planner import BindingStep, CastStep, PlanExecution, QueryPlan
from repro.engines.base import Engine
from repro.observability.profile import SlowQueryLog
from repro.observability.tracing import (
    Tracer,
    capture_context,
    get_tracer,
    tracer_scope,
    with_context,
)
from repro.runtime.admission import AdmissionController
from repro.runtime.cache import ResultCache
from repro.runtime.journal import WriteIntentJournal
from repro.runtime.metrics import RuntimeMetrics
from repro.runtime.recovery import JournalRecovery, RecoveryReport
from repro.runtime.resilience import EngineResilience
from repro.runtime.session import RuntimeSession

def _span_text(query: str, limit: int = 200) -> str:
    """Query text trimmed for span attributes (traces stay bounded)."""
    text = " ".join(query.split())
    return text if len(text) <= limit else text[: limit - 3] + "..."


def _merge_counts(per_engine) -> dict[str, int]:
    total: dict[str, int] = {}
    for counts in per_engine:
        for key, count in counts.items():
            total[key] = total.get(key, 0) + count
    return total


#: Relational-engine counters in the metrics snapshot: (snapshot key, engine
#: attribute, how the per-engine values combine).  ``fallback_reasons`` is
#: always empty now; its key stays until the polybench harness stops reading it.
_RELATIONAL_GAUGES = (
    ("relational_fallback_reasons", "fallback_reasons", _merge_counts),
    ("relational_columns_pruned", "columns_pruned", sum),
    ("relational_groupby_paths", "groupby_paths", _merge_counts),
    ("relational_morsels_executed", "morsels_executed", sum),
    ("relational_partitions_spilled", "partitions_spilled", sum),
    ("relational_peak_build_bytes", "peak_build_bytes", partial(max, default=0)),
)

#: Installed as the thread-scoped tracer for queries that lose the 1-in-N
#: sampling draw, so their whole call tree records nothing.
_UNSAMPLED_TRACER = Tracer(enabled=False)


class _Dispatch:
    """One island query or plan step on its way to the engines.

    Built once per dispatch from its island's parse of the statement, which
    ``call`` executes (attempts and failovers call it again): journaling,
    engine resolution, failover and the execution monitor read the objects
    it touches (``names``) and ``is_write``.  ``step`` is None for a bare
    island query; a CAST step has no island and no statement.
    ``cast_method`` / ``chunk_size`` are how a read failover CASTs a
    stranded object into the island.
    """

    __slots__ = (
        "description", "call", "step", "island", "members", "text",
        "is_write", "names", "cast_method", "chunk_size",
    )

    def __init__(self, description: str, call, step: object = None,
                 island: Island | None = None, statement: IslandStatement | None = None,
                 cast_method: str = "binary", chunk_size: int | None = None) -> None:
        self.description, self.call, self.step = description, call, step
        self.island, self.text = island, None if statement is None else statement.text
        self.cast_method, self.chunk_size = cast_method, chunk_size
        self.members = (
            None if island is None else [engine.name for engine in island.member_engines()]
        )
        self.is_write = statement is not None and statement.writes
        #: The catalog objects the statement reads or writes.
        self.names = [] if statement is None else list(statement.objects)


class PolystoreRuntime:
    """Concurrent serving layer over one :class:`BigDawg` polystore.

    ``workers`` sizes only the pool behind :meth:`submit` and
    :meth:`execute_many`; :meth:`execute` and :meth:`trace` run on the
    calling thread.  How many calls reach an engine at once is bounded by
    the admission slots (``slots_per_engine`` / ``engine_slots``), whichever
    thread the calls come from.
    """

    def __init__(
        self,
        bigdawg: BigDawg,
        workers: int = 4,
        slots_per_engine: int = 2,
        admission_timeout: float | None = 30.0,
        engine_slots: dict[str, int] | None = None,
        cache_capacity: int = 256,
        engine_latency: float = 0.0,
        parallelism: int | str = "auto",
        resilience: EngineResilience | None = None,
        serve_stale_on_open: bool = False,
        default_deadline_s: float | None = None,
        journal: WriteIntentJournal | None = None,
        recover_on_start: bool = True,
    ) -> None:
        if workers <= 0:
            raise ValueError(f"workers must be positive, got {workers}")
        self.bigdawg = bigdawg
        self.workers = workers
        self.admission = AdmissionController(
            slots_per_engine=slots_per_engine, timeout=admission_timeout, slots=engine_slots
        )
        #: Retry/backoff + per-engine circuit breakers around every dispatch.
        self.resilience = resilience if resilience is not None else EngineResilience()
        #: Serve a last-known-good cached result (flagged stale) when a
        #: breaker refuses a query — opt-in degraded reads over hard errors.
        self.serve_stale_on_open = serve_stale_on_open
        #: Applied to queries submitted without an explicit ``deadline_s``.
        self.default_deadline_s = default_deadline_s
        self.cache = ResultCache(
            bigdawg.catalog, capacity=cache_capacity, keep_stale=serve_stale_on_open
        )
        self.metrics = RuntimeMetrics()
        #: Queries slower than ``slow_queries.threshold_s`` land here (off
        #: until a threshold is set).
        self.slow_queries = SlowQueryLog()
        # Queue-wait flows from the gates into the metrics histogram, and
        # every aggregated engine counter becomes a computed gauge in the
        # registry — one uniform snapshot instead of per-counter kwargs.
        self.admission.wait_sink = self.metrics.record_queue_wait
        registry = self.metrics.registry
        self.resilience.bind_registry(registry)
        # Durable-write surface: the write-ahead intent journal covers DML
        # dispatches, CAST protocols and primary promotions; the migrator
        # gets the journal injected (duck-typed — core/ never imports
        # runtime/) so casts journal themselves wherever they are triggered.
        self.journal = journal if journal is not None else WriteIntentJournal()
        bigdawg.migrator.journal = self.journal
        #: The report of the most recent :meth:`recover` run, if any.
        self.last_recovery: RecoveryReport | None = None
        # Per-engine degraded-mode accounting: which engine's outage caused
        # stale serves / failovers, surfaced as dict-valued gauges.
        self._degraded_lock = threading.Lock()
        self._stale_served_by_engine: dict[str, int] = {}
        self._failover_by_engine: dict[str, int] = {}
        for name in ("stale_served", "failover_total", "writes_failed_over",
                     "intents_replayed", "recovery_rollbacks"):
            registry.counter(name)
        gauges = {
            "intents_written": lambda: self.journal.intents_written,
            "journal_open_intents": lambda: len(self.journal.open_intents()),
            "stale_served_by_engine": lambda: dict(self._stale_served_by_engine),
            "failover_by_engine": lambda: dict(self._failover_by_engine),
            "queue_depth": self.admission.queue_depth,
            "admission_wait_s_total": lambda: round(self.admission.queue_wait_seconds(), 6),
            "admission_held_s_total": lambda: round(self.admission.held_seconds(), 6),
        }
        for key, attribute, combine in _RELATIONAL_GAUGES:
            gauges[key] = partial(self._relational_gauge, attribute, combine)
        for name, read in gauges.items():
            registry.register_gauge(name, read)
        # Replica-aware read routing avoids engines whose breaker is open:
        # the catalog asks this probe before choosing the copy to read.
        bigdawg.catalog.set_health_probe(self.resilience.engine_is_available)
        self.engine_latency = engine_latency
        # Intra-query morsel parallelism: every relational engine gets the
        # knob plus one shared fleet-wide extra-worker budget, so a single
        # big join cannot grab `workers x parallelism` threads under load.
        # The budget is the cores the serving pool does not already occupy:
        # morsel threads on a saturated host only take turns on the GIL, so
        # there operators run inline on the query's own thread.
        self.parallelism = parallelism
        idle_cores = max(0, resolve_parallelism("auto") - workers)
        self.task_credits = WorkerCredits(
            min((resolve_parallelism(parallelism) - 1) * workers, idle_cores)
        )
        self.set_relational_parallelism(parallelism)
        self._pool = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="bigdawg-runtime"
        )
        self._closed = False
        # A journal carrying intents from a previous process run means that
        # process died (or was killed) mid-write: replay it before serving,
        # so no query can observe a half-applied write.  A fresh (empty)
        # journal makes this a no-op.
        if recover_on_start and self.journal.has_intents():
            self.recover()

    # ------------------------------------------------------------- client API
    def submit(self, query: str, cast_method: str = "binary",
               chunk_size: int | None = None, use_cache: bool = True,
               deadline_s: float | None = None) -> "Future[Relation]":
        """Enqueue one query; returns a future resolving to its Relation.

        ``deadline_s`` is a per-query wall budget: the deadline is checked
        at every plan-step boundary, bounds retry backoff, and rides a
        :class:`~repro.common.cancellation.CancellationToken` into the
        engines, where it is polled at every batch/chunk boundary — a query
        that overruns fails with
        :class:`~repro.common.errors.DeadlineExceededError` within one
        batch of the deadline instead of running arbitrarily long.
        Defaults to the runtime's ``default_deadline_s`` (None = no
        deadline).

        The returned future carries the token as ``cancellation_token``: a
        client that no longer wants the answer calls ``.cancel()`` on it
        and the in-flight query unwinds at its next batch boundary,
        cleaning up shadow/spill state on the way out.
        """
        deadline, token = self._accept(deadline_s)
        # When tracing, remember the enqueue instant so the worker can emit
        # a "queued" span for the time spent waiting for a pool thread.
        queued_at = time.time() if get_tracer().enabled else None
        try:
            future = self._pool.submit(
                self._run, query, cast_method, chunk_size, use_cache, deadline, token,
                queued_at,
            )
        except RuntimeError:
            # Lost the race with a concurrent shutdown(): the pool refused
            # the work; report it the same way the _closed check would have.
            raise RuntimeError("runtime has been shut down") from None
        future.cancellation_token = token  # type: ignore[attr-defined]
        return future

    def execute(self, query: str, cast_method: str = "binary",
                chunk_size: int | None = None, use_cache: bool = True,
                deadline_s: float | None = None) -> Relation:
        """Run one query on the calling thread and return its result.

        The blocking single-client call.  It takes no pool thread, so a
        cache hit costs a lookup and not a hand-off; ``deadline_s`` works as
        for :meth:`submit`.  Raises ``RuntimeError`` once :meth:`shutdown`
        has started (a call already running finishes).
        """
        deadline, token = self._accept(deadline_s)
        return self._run(query, cast_method, chunk_size, use_cache, deadline, token)

    def execute_many(self, queries: Sequence[str], cast_method: str = "binary",
                     chunk_size: int | None = None, use_cache: bool = True) -> list[Relation]:
        """Run a batch concurrently; results come back in submission order."""
        futures = [self.submit(q, cast_method, chunk_size, use_cache) for q in queries]
        return [future.result() for future in futures]

    def trace(self, query: str, cast_method: str = "binary",
              chunk_size: int | None = None,
              use_cache: bool = False) -> "tuple[Relation, Tracer]":
        """Run one query traced, without enabling tracing for anyone else.

        :meth:`execute` under a fresh enabled :class:`Tracer`, installed as
        a *thread-scoped* override for just this call (concurrent traffic
        keeps seeing the process-global tracer); both the result and the
        tracer full of spans come back::

            relation, tracer = runtime.trace("SELECT ...")
            print(render_tree(tracer.spans()))

        ``use_cache`` defaults to False so the trace shows real execution
        rather than one cache-hit span.
        """
        tracer = Tracer(enabled=True)
        with tracer_scope(tracer):
            result = self.execute(query, cast_method, chunk_size, use_cache)
        return result, tracer

    def _accept(self, deadline_s: float | None) -> tuple[float | None, CancellationToken]:
        """Take one client query in: refuse it after shutdown, count it, and
        give it its deadline (``default_deadline_s`` when None) and token."""
        if self._closed:
            raise RuntimeError("runtime has been shut down")
        self.metrics.record_submitted()
        if deadline_s is None:
            deadline_s = self.default_deadline_s
        deadline = (
            self.resilience.now() + deadline_s if deadline_s is not None else None
        )
        return deadline, CancellationToken(deadline=deadline, clock=self.resilience.now)

    def session(self) -> RuntimeSession:
        return RuntimeSession(self)

    def shutdown(self, wait: bool = True) -> None:
        """Stop accepting queries and wind down the worker pool.

        Contract (idempotent; callable from any thread):

        * After ``shutdown`` *starts*, every ``submit``, ``execute`` and
          ``trace`` raises ``RuntimeError`` — including submits racing the
          shutdown, which the pool itself refuses.  An ``execute`` already
          running on its caller's thread finishes.
        * ``wait=True`` (default) blocks until every already-submitted query
          finishes; their futures complete normally.
        * ``wait=False`` returns immediately: queries whose worker already
          started still run to completion, but *queued* queries are
          cancelled and their futures raise ``CancelledError``.
        """
        self._closed = True
        self._pool.shutdown(wait=wait, cancel_futures=not wait)

    def __enter__(self) -> "PolystoreRuntime":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.shutdown()

    def describe(self) -> dict:
        return {
            "workers": self.workers,
            # Every engine/admission counter is a registered metric now, so
            # the bare snapshot carries the whole surface.
            "metrics": self.metrics.snapshot(),
            "admission": self.admission.describe(),
            "cache": self.cache.describe(),
            "journal": self.journal.describe(),
            "recovery": (
                None if self.last_recovery is None else self.last_recovery.as_dict()
            ),
        }

    # --------------------------------------------------------------- recovery
    def recover(self) -> RecoveryReport:
        """Replay the write-ahead intent journal and reconcile the catalog.

        The crash-recovery entry point, run automatically at startup when
        the journal carries intents (``recover_on_start``) and callable at
        any time — it is idempotent.  Committed intents are rolled forward
        (finish the catalog swap / source drop a crash interrupted, repair
        or discard the primary a committed election demoted), incomplete
        ones rolled back (drop orphaned CAST shadows, un-promote
        half-elected primaries, abort unapplied DML — consulting the
        engines' idempotency-token memory to keep DML that *did* land),
        and the catalog is reconciled against what the engines actually
        hold.  Returns the :class:`RecoveryReport`; counters land in
        ``metrics.snapshot()`` (``intents_replayed``,
        ``recovery_rollbacks``).
        """
        tracer = get_tracer()
        with tracer.span("recovery", kind="resilience") as span:
            report = JournalRecovery(
                self.bigdawg,
                self.journal,
                health=self.resilience.engine_is_available,
            ).recover()
            span.set("replayed", report.intents_replayed)
            span.set("rolled_back", report.rolled_back)
        self.metrics.registry.counter("intents_replayed").inc(report.intents_replayed)
        self.metrics.registry.counter("recovery_rollbacks").inc(report.rolled_back)
        self.last_recovery = report
        return report

    # ------------------------------------------------------ relational engines
    def _relational_gauge(self, attribute: str, combine):
        """One ``_RELATIONAL_GAUGES`` counter, combined over every engine that has it."""
        return combine(
            getattr(engine, attribute)
            for engine in self.bigdawg.catalog.engines()
            if hasattr(engine, attribute)
        )

    def set_relational_parallelism(self, value: int | str) -> None:
        """Set every relational engine's intra-query worker count.

        Each engine keeps borrowing extra workers from the runtime's shared
        :class:`WorkerCredits` budget, sized at construction to the cores
        the serving pool leaves idle, so raising the knob never lets the
        deployment run more busy threads than the host has cores.  Engines
        created later get both as they are made (see
        :meth:`BigDawgCatalog.set_engine_setup`).
        """
        resolve_parallelism(value)  # validates before touching any engine
        self.parallelism = value
        catalog = self.bigdawg.catalog
        catalog.set_engine_setup(self._pin_parallelism)
        for engine in catalog.engines():
            self._pin_parallelism(engine)

    def _pin_parallelism(self, engine: Engine) -> None:
        """Give a relational engine the runtime's worker count and budget:
        every registered engine, and, through the catalog's engine setup,
        every engine made later (WITH temporaries, per-query scratch)."""
        if hasattr(engine, "task_credits"):
            engine.parallelism = self.parallelism
            engine.task_credits = self.task_credits

    # -------------------------------------------------------------- execution
    def _run(self, query: str, cast_method: str, chunk_size: int | None,
             use_cache: bool, deadline: float | None, token: CancellationToken,
             queued_at: float | None = None) -> Relation:
        """Serve one query on the current thread (a caller's, or a pool
        worker's for a submitted one, which passes its enqueue instant)."""
        started = time.perf_counter()
        tracer = get_tracer()
        if tracer.enabled and tracer.sample_every and not tracer.sample_query():
            # This query lost the 1-in-N sampling draw: a disabled tracer
            # for the query's whole call tree makes every layer below
            # (steps, CAST chunks, operators) skip its spans too.
            tracer, queued_at = _UNSAMPLED_TRACER, None
        with tracer_scope(tracer), cancel_scope(token), \
                tracer.span("query", kind="lifecycle", query=_span_text(query)) as root:
            if queued_at is not None and tracer.enabled:
                tracer.record(
                    "queued", start_s=queued_at, duration_s=time.time() - queued_at,
                    parent=root, kind="lifecycle",
                )
            serve_stale = use_cache and self.serve_stale_on_open
            pre_open: set[str] = set()
            records: list[_Dispatch] = []
            try:
                hit = self.cache.get(query) if use_cache else None
                if hit is not None:
                    self.metrics.record_completed(time.perf_counter() - started, cached=True)
                    root.set("cached", True)
                    return hit
                fingerprint = self.cache.fingerprint()
                if serve_stale:
                    # Breakers already open *before* this execution (see
                    # _stale_read).
                    pre_open = self.resilience.open_engines(self.resilience.states())
                result = self._execute_uncached(
                    query, cast_method, chunk_size, deadline, records
                )
                if use_cache:
                    # put() refuses the entry if any engine (including ones this
                    # very query mutated) or the catalog moved past `fingerprint`.
                    self.cache.put(query, result, fingerprint)
                elapsed = time.perf_counter() - started
                self.metrics.record_completed(elapsed, cached=False)
                if self.slow_queries.enabled:
                    self.slow_queries.observe(query, elapsed)
                self._observe(records[-1], elapsed)
                return result
            except Exception as error:
                if serve_stale and isinstance(error, (CircuitOpenError, TransientEngineError)):
                    # The engines the query's dispatches need, resolved now:
                    # routing moves as breakers open.
                    needed = set().union(*(self._engines(record) for record in records))
                    stale = self._stale_read(query, error, needed, pre_open)
                    if stale is not None:
                        self.metrics.record_completed(time.perf_counter() - started, cached=True)
                        root.set("stale", True)
                        return stale
                self.metrics.record_failed()
                raise

    def _stale_read(self, query: str, error: Exception, needed: set[str],
                    pre_open: set[str]) -> Relation | None:
        """The last-known-good cached result of a query a breaker failed.

        The opt-in degraded read (``serve_stale_on_open``): *any* engine the
        query needs with an open breaker qualifies it, not just the one that
        refused admission.  A transient failure qualifies only when such a
        breaker was open before the query started (``pre_open``), so a
        failure that first trips its own breaker still surfaces hard.
        """
        open_engines = self._open_engines_for_dispatch(needed, error)
        if not isinstance(error, CircuitOpenError):
            open_engines &= pre_open
        stale = self.cache.get_stale(query) if open_engines else None
        if stale is not None:
            self.metrics.registry.counter("stale_served").inc()
            self._count_by_engine(self._stale_served_by_engine, open_engines)
        return stale

    def _execute_uncached(
        self, query: str, cast_method: str, chunk_size: int | None,
        deadline: float | None, records: list[_Dispatch],
    ) -> Relation:
        """Run the query; each dispatch record it builds is appended to
        ``records``, the final one last."""
        stripped = query.strip()
        tracer = get_tracer()
        if self.bigdawg.is_scoped(stripped):
            with tracer.span("planned", kind="lifecycle"):
                plan = self.bigdawg.plan(
                    stripped, cast_method=cast_method, chunk_size=chunk_size
                )
            execution = self.bigdawg.planner.start(plan)
            try:
                with tracer.span("executed", kind="lifecycle", steps=len(plan.steps)):
                    self._run_plan(plan, execution, deadline, records)
                self.metrics.record_casts_skipped(len(execution.skipped_casts))
                return execution.finish()
            finally:
                execution.cleanup()
        island = self.bigdawg._choose_island(stripped)
        statement = island.parse(stripped)
        record = _Dispatch(
            "island query", lambda: island.execute(statement), island=island,
            statement=statement, cast_method=cast_method, chunk_size=chunk_size,
        )
        records.append(record)
        with tracer.span("executed", kind="lifecycle"):
            return self._dispatch(record, deadline)

    def _run_plan(self, plan: QueryPlan, execution: PlanExecution,
                  deadline: float | None, records: list[_Dispatch]) -> None:
        """Run steps in dependency waves, a wave's steps on parallel threads,
        appending their records to ``records`` (the final step's comes last)."""

        def run_step(index: int) -> None:
            step = plan.steps[index]
            scope = getattr(step, "scope", None)
            statement = None if scope is None else execution.statement(index)
            record = _Dispatch(
                step.describe(), lambda: execution.run_step(index, statement), step=step,
                island=self.bigdawg.island(scope.island) if scope is not None else None,
                statement=statement,
            )
            records.append(record)
            with get_tracer().span("plan_step", kind="step", step=record.description):
                self._dispatch(record, deadline)

        dependencies = plan.step_dependencies()
        completed: set[int] = set()
        remaining = set(range(len(plan.steps)))
        while remaining:
            ready = sorted(i for i in remaining if dependencies[i] <= completed)
            if not ready:
                raise PlanningError("plan dependencies contain a cycle")
            if len(ready) == 1:
                run_step(ready[0])
            else:
                errors: list[BaseException] = []
                # Wave threads are raw Threads, not pool workers: carry the
                # query's trace context across explicitly so step spans nest
                # under the submitting query's "executed" span.
                ctx = capture_context()

                def run(index: int) -> None:
                    try:
                        with_context(ctx, run_step, index)
                    except BaseException as exc:  # noqa: BLE001 - re-raised below
                        errors.append(exc)

                threads = [threading.Thread(target=run, args=(i,), daemon=True) for i in ready]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join()
                if errors:
                    raise errors[0]
            completed.update(ready)
            remaining.difference_update(ready)

    def _dispatch(self, record: _Dispatch, deadline: float | None):
        """Run one dispatch: journal → breakers/retry → admission → call → failover.

        Admit-and-call is the retryable unit, so a retried attempt re-queues
        at the gates, and the breakers are checked *before* admission, so
        traffic to a tripped engine fails fast instead of holding slots.  A
        write (DML/DDL) is a write-ahead intent: begin before the dispatch,
        the intent's token stamped onto the engines once it applies, commit
        after — so recovery can tell an interrupted write applied (roll
        forward) or not (roll back).  Reads skip the journal.
        """
        engines = self._engines(record)
        intent = None
        if record.is_write:
            intent = self.journal.begin(
                "dml", query=_span_text(record.text), engines=sorted(engines),
                tables=self._catalog_tables(record.names),
            )
            self.journal.crash_point("dml.begin")
        token = intent.token if intent is not None else None
        try:
            try:
                result = self.resilience.run(
                    engines, lambda: self._admitted_call(record, engines, token),
                    deadline=deadline, description=record.description,
                )
            except (CircuitOpenError, TransientEngineError) as error:
                result = self._failover(record, engines, error, deadline, token)
        except BaseException as error:
            if intent is not None and not isinstance(error, SimulatedCrashError):
                intent.abort(error=type(error).__name__)
            raise
        if intent is not None:
            self.journal.crash_point("dml.dispatched")
            # Not synced on its own: the mark goes out in the commit's write.
            # A crash before that loses it, and recovery reads the engines'
            # write token instead.
            intent.stage("applied")
            self.journal.crash_point("dml.applied")
            intent.commit()
            self.journal.crash_point("dml.committed")
        return result

    def _admitted_call(self, record: _Dispatch, engines: set[str],
                       write_token: str | None):
        """One attempt: admit at the engines' gates, call, and stamp a
        write's token onto the engines once the call succeeded."""
        with ExitStack() as stack:
            with get_tracer().span("admitted", kind="lifecycle",
                                   engines=",".join(sorted(engines))):
                stack.enter_context(self.admission.admit(engines))
            if self.engine_latency > 0:
                time.sleep(self.engine_latency)
            result = record.call()
            if write_token is not None:
                for name in engines:
                    try:
                        self.bigdawg.catalog.engine(name).note_write_token(write_token)
                    except ObjectNotFoundError:  # pragma: no cover - defensive
                        pass
            return result

    def _failover(self, record: _Dispatch, engines: set[str], error: Exception,
                  deadline: float | None, write_token: str | None):
        """Re-plan a dispatch an open breaker refused, or re-raise ``error``.

        A read re-resolves its engines (routing now avoids the open breaker)
        and, if that finds no healthy copy in the island, first CASTs a
        fresh healthy replica from outside it into a healthy member.  A
        write first *promotes* a fresh healthy replica to primary (a
        journaled election, under a ``failover.write`` span).  The dispatch
        repeats only on an engine set clear of open breakers, with as many
        attempts as the deadline still allows.
        """
        broken = self._open_engines_for_dispatch(engines, error)
        if not broken:
            raise error
        failover_attempts: int | None = None
        if deadline is not None:
            # The failed primary already spent part of the query's budget,
            # so the re-dispatch gets only as many attempts (with worst-case
            # backoff) as still fit before the deadline.
            remaining = deadline - self.resilience.now()
            if remaining <= 0:
                raise DeadlineExceededError(
                    f"query deadline exhausted before failover of "
                    f"{record.description or 'step'}"
                ) from error
            failover_attempts = self.resilience.retry.attempts_within(remaining)
        elected = False
        if record.is_write and record.island is not None:
            elected = self._elect_write_primaries(record.names, broken, record.description)
            if not elected:
                raise error
        rerouted = self._engines(record)
        if not record.is_write and (rerouted == engines or rerouted & broken) \
                and record.island is not None and record.names:
            if self._provision_replicas(record):
                rerouted = self._engines(record)
        if not rerouted or rerouted == engines or rerouted & broken:
            raise error
        self.metrics.registry.counter("failover_total").inc()
        if elected:
            self.metrics.registry.counter("writes_failed_over").inc()
        self._count_by_engine(self._failover_by_engine, broken)
        with get_tracer().span(
            "failover.write" if elected else "failover",
            kind="resilience", step=record.description,
            from_engines=",".join(sorted(broken)),
            to_engines=",".join(sorted(rerouted)),
            error=type(error).__name__,
            budget_attempts=failover_attempts or 0,
        ):
            return self.resilience.run(
                rerouted, lambda: self._admitted_call(record, rerouted, write_token),
                deadline=deadline, description=f"failover: {record.description}",
                max_attempts=failover_attempts,
            )

    def _elect_write_primaries(self, names: Sequence[str], broken: set[str],
                               description: str) -> bool:
        """Promote fresh healthy replicas to primary for a failed write.

        For every catalog object among ``names`` whose primary sits on a
        broken engine, a *fresh* (current-content) replica on a healthy
        engine is promoted via :meth:`BigDawgCatalog.promote_primary`.  Each
        election is journaled as a ``promotion`` intent — begin before the
        catalog swap, commit after — so a crash mid-election is either
        rolled back (un-promote) or, once committed, finished by recovery:
        the demoted copy is repaired with an anti-entropy CAST or discarded.
        Returns True when at least one primary moved.
        """
        catalog = self.bigdawg.catalog
        elected = False
        for name in sorted(names):
            check_cancelled()  # client cancellation lands between elections
            try:
                primary = catalog.locate(name)
            except ObjectNotFoundError:
                continue
            if primary.engine_name not in broken:
                continue
            candidates = [
                loc for loc in catalog.fresh_locations(name)
                if loc.engine_name != primary.engine_name
                and self.resilience.engine_is_available(loc.engine_name)
            ]
            if not candidates:
                continue
            target = candidates[0].engine_name
            intent = self.journal.begin(
                "promotion", object=primary.name, from_engine=primary.engine_name,
                to_engine=target, step=description,
            )
            self.journal.crash_point("promotion.begin")
            try:
                catalog.promote_primary(name, target)
            except CatalogError as error:
                # Lost a race (another thread promoted first, or the copy
                # went stale between the check and the swap): record the
                # abort and move on — re-resolution will see whatever
                # primary won.
                intent.abort(error=type(error).__name__)
                continue
            intent.mark("catalog")
            self.journal.crash_point("promotion.catalog")
            intent.commit()
            self.journal.crash_point("promotion.committed")
            elected = True
        return elected

    def _catalog_tables(self, names: Sequence[str]) -> list[str]:
        """Catalog objects among ``names`` (for the journal record)."""
        tables = []
        for name in sorted(names):
            try:
                tables.append(self.bigdawg.catalog.locate(name).name)
            except ObjectNotFoundError:
                continue
        return tables

    def _count_by_engine(self, counts: dict[str, int], names: set[str]) -> None:
        with self._degraded_lock:
            for name in names:
                counts[name] = counts.get(name, 0) + 1

    def _open_engines_for_dispatch(self, engines: set[str],
                                   error: BaseException) -> set[str]:
        """Engines in ``engines`` whose breaker is open, plus the refuser."""
        broken = self.resilience.open_engines(engines)
        name = getattr(error, "engine", None)
        if name and not self.resilience.engine_is_available(name):
            broken.add(name.lower())
        return broken

    def _provision_replicas(self, record: _Dispatch) -> bool:
        """Copy each object the dispatch reads that has no healthy copy in
        the island, from a fresh healthy replica outside it, onto a healthy
        member (the alternate-CAST failover).  True when one moved."""
        healthy_members = [
            name.lower() for name in record.members
            if self.resilience.engine_is_available(name.lower())
        ]
        if not healthy_members:
            return False
        catalog = self.bigdawg.catalog
        moved = False
        for name in sorted(record.names):
            try:
                primary = catalog.locate(name)
            except ObjectNotFoundError:
                continue
            healthy = [
                loc for loc in catalog.fresh_locations(name)
                if self.resilience.engine_is_available(loc.engine_name)
            ]
            if not healthy or any(loc.engine_name in healthy_members for loc in healthy):
                continue  # nothing to copy from, or already readable in-island
            source = healthy[0].engine_name
            try:
                self.bigdawg.migrator.cast(
                    name, healthy_members[0], method=record.cast_method,
                    chunk_size=record.chunk_size,
                    source_engine=None if source == primary.engine_name else source,
                )
            except BigDawgError:
                continue  # best effort; the re-raise path reports the original
            moved = True
        return moved

    # ------------------------------------------------------- engine discovery
    def _engines(self, record: _Dispatch) -> set[str]:
        """The engines a dispatch claims at the breakers and gates, resolved
        afresh on every call: a CAST its source and target, a WITH binding
        also the temp engine, and a statement the copies the islands will
        touch — each object's primary for a write, else the copy the
        catalog's replica-aware read routing picks among the members."""
        step, catalog = record.step, self.bigdawg.catalog
        if isinstance(step, CastStep):
            engines = {step.target_engine.lower()}
            if step.source_engine is not None:
                engines.add(step.source_engine.lower())
            else:
                try:
                    engines.add(catalog.locate(step.object_name).engine_name)
                except ObjectNotFoundError:
                    pass
            return engines
        locate = catalog.locate if record.is_write else partial(
            catalog.locate_for_read, members=record.members
        )
        engines = set()
        for name in record.names:
            try:
                engines.add(locate(name).engine_name)
            except ObjectNotFoundError:
                continue
        if isinstance(step, BindingStep):
            # The materialization writes into the temp engine: admit there
            # too, so binding writes stay inside that engine's slot budget.
            engines.add(self.bigdawg.temp_engine().name.lower())
        elif step is None and not engines and record.members:
            engines = {record.members[0].lower()}
        return engines

    # -------------------------------------------------------------- monitoring
    def _observe(self, final: _Dispatch, elapsed: float) -> None:
        """Feed the execution monitor so the advisor learns from live traffic."""
        island = final.step.scope.island if final.step is not None else "auto"
        catalog = self.bigdawg.catalog
        try:
            for name in final.names:
                try:
                    location = catalog.locate(name)
                except ObjectNotFoundError:
                    continue
                self.bigdawg.monitor.record(
                    f"runtime_{island}", location.name, location.engine_name, elapsed
                )
                return
        except BigDawgError:  # pragma: no cover - observation must never fail a query
            pass


__all__ = ["PolystoreRuntime", "RuntimeSession"]
