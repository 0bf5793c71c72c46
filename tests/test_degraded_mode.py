"""Degraded-mode survival: replica-aware failover, cooperative cancellation,
adaptive retry budgets, and the fault-injector's timed outages.

The invariants under test extend the chaos suite's contract:

* a CAST without ``drop_source`` leaves the source as a queryable replica,
  byte-identical to the copy at the destination, and a write through the
  island invalidates every stale replica;
* an outage on a primary re-routes reads to a fresh healthy replica — real
  re-execution flagged by a ``failover`` trace span, never a stale cache hit,
  and byte-identical to the healthy-path answer;
* a timed-out or client-abandoned query stops at the next batch/chunk
  boundary, leaving no shadow objects, no open spill files and no catalog
  changes;
* a flapping engine exhausts its retry budget and stops amplifying load,
  while healthy engines keep their full budgets.

CI runs the tier-1 suite under ``python -X dev``, so the debug allocator
and warnings are on for these tests too.
"""

from __future__ import annotations

import random

import pytest

from repro.common.cancellation import CancellationToken, cancel_scope
from repro.common.errors import (
    DeadlineExceededError,
    EngineUnavailableError,
    QueryCancelledError,
    TransientEngineError,
)
from repro.common.serialization import BinaryCodec
from repro.core.bigdawg import BigDawg
from repro.engines.relational import RelationalEngine
from repro.engines.relational import morsel
from repro.runtime import (
    EngineResilience,
    FaultInjector,
    InjectedFault,
    PolystoreRuntime,
    RetryBudget,
    RetryPolicy,
)


class FakeClock:
    """A manually advanced clock (reads do not move time)."""

    def __init__(self) -> None:
        self.t = 0.0

    def now(self) -> float:
        return self.t

    def advance(self, seconds: float) -> None:
        self.t += seconds


class TickingClock:
    """A clock that advances on every read — each poll is one 'second'.

    Deadline checks read the clock, so a deadline of N expires after ~N
    polls: deterministic mid-stream expiry without wall-clock sleeps.
    """

    def __init__(self, step: float = 1.0) -> None:
        self.t = 0.0
        self.step = step

    def now(self) -> float:
        self.t += self.step
        return self.t


@pytest.fixture()
def polystore():
    """Two relational engines in one island, patients on postgres only."""
    bd = BigDawg()
    postgres = RelationalEngine("postgres")
    mysql = RelationalEngine("mysql")
    bd.add_engine(postgres, islands=["relational"])
    bd.add_engine(mysql, islands=["relational"])
    postgres.execute("CREATE TABLE patients (id INTEGER PRIMARY KEY, age INTEGER)")
    postgres.execute(
        "INSERT INTO patients VALUES (1, 64), (2, 70), (3, 41), (4, 77)"
    )
    return bd, postgres, mysql


def fast_runtime(bd: BigDawg, **overrides) -> PolystoreRuntime:
    options = dict(
        workers=2,
        resilience=EngineResilience(
            retry=RetryPolicy(max_attempts=1), failure_threshold=1,
            cooldown_s=60.0,
        ),
    )
    options.update(overrides)
    return PolystoreRuntime(bd, **options)


def assert_no_shadows(*engines) -> None:
    for engine in engines:
        shadows = [n for n in engine.list_objects() if "__cast_shadow__" in n]
        assert shadows == [], f"leftover shadows on {engine.name!r}: {shadows}"


# --------------------------------------------------------- replica catalog
class TestReplicaCatalog:
    def test_cast_without_drop_keeps_source_as_byte_identical_replica(
        self, polystore
    ):
        bd, postgres, mysql = polystore
        bd.migrator.cast("patients", "mysql")
        # Primary unchanged; the destination is registered as a replica.
        assert bd.catalog.locate("patients").engine_name == "postgres"
        replicas = bd.catalog.replicas("patients")
        assert [loc.engine_name for loc in replicas] == ["mysql"]
        # Both locations answer, byte for byte.
        codec = BinaryCodec()
        assert codec.encode(postgres.export_relation("patients")) == codec.encode(
            mysql.export_relation("patients")
        )
        # Both copies are fresh.
        fresh = bd.catalog.fresh_locations("patients")
        assert sorted(loc.engine_name for loc in fresh) == ["mysql", "postgres"]

    def test_island_write_invalidates_replicas(self, polystore):
        bd, postgres, mysql = polystore
        bd.migrator.cast("patients", "mysql")
        runtime = fast_runtime(bd)
        try:
            runtime.execute("RELATIONAL(INSERT INTO patients VALUES (5, 30))")
        finally:
            runtime.shutdown()
        fresh = bd.catalog.fresh_locations("patients")
        # Only the written copy (the primary) is still fresh.
        assert [loc.engine_name for loc in fresh] == ["postgres"]
        assert bd.catalog.locate_for_read("patients").engine_name == "postgres"
        # Re-replicating refreshes the stale copy.
        bd.migrator.cast("patients", "mysql")
        fresh = bd.catalog.fresh_locations("patients")
        assert sorted(loc.engine_name for loc in fresh) == ["mysql", "postgres"]

    def test_stale_replica_is_never_served_during_an_outage(self, polystore):
        bd, postgres, mysql = polystore
        bd.migrator.cast("patients", "mysql")
        runtime = fast_runtime(bd)
        injector = FaultInjector()
        try:
            # The write makes the mysql replica stale …
            runtime.execute("RELATIONAL(INSERT INTO patients VALUES (5, 30))")
            injector.outage()
            injector.install(postgres)
            # … so downing the primary must surface the outage, not quietly
            # answer from a replica missing the write.
            with pytest.raises((EngineUnavailableError, TransientEngineError)):
                runtime.execute(
                    "RELATIONAL(SELECT count(*) AS n FROM patients)",
                    use_cache=False,
                )
        finally:
            injector.uninstall()
            runtime.shutdown()


# -------------------------------------------------------- failover routing
class TestFailoverRouting:
    def test_outage_mid_plan_fails_over_to_replica(self, polystore):
        bd, postgres, mysql = polystore
        bd.migrator.cast("patients", "mysql")
        runtime = fast_runtime(bd)
        injector = FaultInjector()
        query = "RELATIONAL(SELECT count(*) AS n FROM patients)"
        try:
            healthy = runtime.execute(query, use_cache=False)
            assert healthy.rows[0]["n"] == 4
            injector.outage()
            injector.install(postgres)
            served_before = mysql.queries_executed
            result, tracer = runtime.trace(query)
            # Same answer, actually re-executed on the replica engine —
            # failover, not a stale cache read.
            assert [tuple(r.values) for r in result.rows] == [
                tuple(r.values) for r in healthy.rows
            ]
            assert mysql.queries_executed > served_before
            (span,) = tracer.spans("failover")
            assert span.attrs["from_engines"] == "postgres"
            assert span.attrs["to_engines"] == "mysql"
            snapshot = runtime.metrics.snapshot()
            assert snapshot["failover_total"] >= 1
            assert snapshot["failover_by_engine"].get("postgres", 0) >= 1
        finally:
            injector.uninstall()
            runtime.shutdown()

    def test_no_replica_means_the_outage_still_surfaces(self, polystore):
        bd, postgres, mysql = polystore
        runtime = fast_runtime(bd)
        injector = FaultInjector()
        try:
            injector.outage()
            injector.install(postgres)
            with pytest.raises(EngineUnavailableError):
                runtime.execute(
                    "RELATIONAL(SELECT count(*) AS n FROM patients)",
                    use_cache=False,
                )
            assert runtime.metrics.snapshot()["failover_total"] == 0
        finally:
            injector.uninstall()
            runtime.shutdown()


# ------------------------------------------------------- routing by parse
class TestRoutingByParse:
    """The runtime routes a statement by the objects its island parsed: a
    column of ``patients`` is named like the table ``visits``, which lives
    on ``mysql``, and the statements below touch ``patients`` only."""

    READ = "SELECT id, visits FROM patients"
    WRITE = "UPDATE patients SET visits = 4 WHERE id = 1"

    @pytest.fixture()
    def clinic(self):
        bd = BigDawg()
        postgres, mysql = RelationalEngine("postgres"), RelationalEngine("mysql")
        bd.add_engine(postgres, islands=["relational"])
        bd.add_engine(mysql, islands=["relational"])
        postgres.execute("CREATE TABLE patients (id INTEGER PRIMARY KEY, visits INTEGER)")
        postgres.execute("INSERT INTO patients VALUES (1, 3), (2, 5)")
        mysql.execute("CREATE TABLE visits (id INTEGER PRIMARY KEY, patient INTEGER)")
        mysql.execute("INSERT INTO visits VALUES (10, 1)")
        runtime = fast_runtime(bd)
        yield bd, runtime
        runtime.shutdown()

    @pytest.mark.parametrize("scoped", [False, True])
    def test_an_open_breaker_the_statement_does_not_touch_refuses_nothing(
        self, clinic, scoped
    ):
        bd, runtime = clinic
        runtime.resilience.breaker("mysql").record_failure()
        assert runtime.resilience.open_engines(["mysql"]) == {"mysql"}
        wrap = (lambda q: f"RELATIONAL({q})") if scoped else (lambda q: q)
        read = runtime.execute(wrap(self.READ), use_cache=False)
        assert sorted(tuple(row.values) for row in read.rows) == [(1, 3), (2, 5)]
        runtime.execute(wrap(self.WRITE))
        rows = bd.engine("postgres").execute("SELECT visits FROM patients WHERE id = 1").rows
        assert [row["visits"] for row in rows] == [4]

    def test_the_dispatch_claims_only_the_engine_it_touches(self, clinic):
        _bd, runtime = clinic
        for query in (self.READ, self.WRITE):
            _result, tracer = runtime.trace(query)
            assert [span.attrs["engines"] for span in tracer.spans("admitted")] == ["postgres"]

    def test_the_write_journals_only_its_table(self, clinic):
        _bd, runtime = clinic
        runtime.execute(self.WRITE)
        (intent,) = runtime.journal.replay()
        assert intent.kind == "dml" and intent.committed
        assert intent.payload["tables"] == ["patients"]
        assert intent.payload["engines"] == ["postgres"]

    def test_a_failed_write_promotes_no_object_it_names_as_a_column(self, clinic):
        """Both tables have a fresh replica on mysql and their primary on
        postgres, whose breaker is open: the write fails over by promoting
        ``patients`` alone."""
        bd, runtime = clinic
        bd.migrator.cast("visits", "postgres", drop_source=True)
        bd.migrator.cast("visits", "mysql")
        bd.migrator.cast("patients", "mysql")
        runtime.resilience.breaker("postgres").record_failure()
        runtime.execute(self.WRITE)
        assert bd.catalog.locate("patients").engine_name == "mysql"
        assert bd.catalog.locate("visits").engine_name == "postgres"
        promotions = [i.payload["object"] for i in runtime.journal.replay()
                      if i.kind == "promotion"]
        assert promotions == ["patients"]
        rows = bd.engine("mysql").execute("SELECT visits FROM patients WHERE id = 1").rows
        assert [row["visits"] for row in rows] == [4]


# ---------------------------------------------------------- cancellation
class TestCooperativeCancellation:
    def test_deadline_expires_mid_scan(self, polystore):
        bd, postgres, _ = polystore
        postgres._batch_executor._batch_rows = 64
        postgres.execute(
            "CREATE TABLE big (id INTEGER PRIMARY KEY, v INTEGER)"
        )
        postgres.execute(
            "INSERT INTO big VALUES "
            + ", ".join(f"({i}, {i % 7})" for i in range(4000))
        )
        ticking = TickingClock()
        runtime = fast_runtime(
            bd,
            resilience=EngineResilience(
                retry=RetryPolicy(max_attempts=1), clock=ticking.now,
                sleep=lambda s: None,
            ),
        )
        try:
            with pytest.raises(DeadlineExceededError):
                runtime.execute(
                    "RELATIONAL(SELECT sum(v) AS s FROM big)",
                    use_cache=False, deadline_s=30.0,
                )
            # The scan polls the token once per 64-row batch; the first poll
            # past the deadline raises, so the query died within one batch
            # of its budget — far short of the ~62 batches a full scan needs.
            assert ticking.t < 45.0
        finally:
            runtime.shutdown()

    def test_client_abandon_cancels_in_flight_query(self, polystore):
        bd, postgres, _ = polystore
        runtime = fast_runtime(bd)
        injector = FaultInjector().add_latency("execute", 0.3)
        injector.install(postgres)
        try:
            future = runtime.submit(
                "RELATIONAL(SELECT count(*) AS n FROM patients)",
                use_cache=False,
            )
            future.cancellation_token.cancel("client went away")
            with pytest.raises(QueryCancelledError):
                future.result(timeout=10)
        finally:
            injector.uninstall()
            runtime.shutdown()

    def test_deadline_mid_cast_discards_shadow_and_catalog_state(
        self, polystore
    ):
        bd, postgres, mysql = polystore
        postgres.execute("CREATE TABLE wide (id INTEGER PRIMARY KEY)")
        postgres.execute(
            "INSERT INTO wide VALUES " + ", ".join(f"({i})" for i in range(40))
        )
        ticking = TickingClock()
        token = CancellationToken(deadline=10.0, clock=ticking.now)
        with cancel_scope(token):
            with pytest.raises(DeadlineExceededError):
                bd.migrator.cast("wide", "mysql", chunk_size=1)
        # The cancelled import rolled back: no shadow, no half-imported
        # object, no replica registered.
        assert_no_shadows(postgres, mysql)
        assert not mysql.has_object("wide")
        assert bd.catalog.replicas("wide") == []
        assert bd.catalog.locate("wide").engine_name == "postgres"
        # The same CAST succeeds once the pressure is off.
        record = bd.migrator.cast("wide", "mysql", chunk_size=1)
        assert record.rows == 40

    def test_cancellation_mid_spill_join_closes_every_run(self, monkeypatch):
        engine = RelationalEngine("pg")
        engine.join_memory_budget = 256
        engine._batch_executor._batch_rows = 64
        engine.execute(
            "CREATE TABLE events (id INTEGER PRIMARY KEY, user_id INTEGER)"
        )
        engine.execute("CREATE TABLE users (uid INTEGER PRIMARY KEY, name TEXT)")
        rng = random.Random(7)
        engine.execute(
            "INSERT INTO events VALUES "
            + ", ".join(f"({i}, {rng.randrange(80)})" for i in range(2000))
        )
        engine.execute(
            "INSERT INTO users VALUES "
            + ", ".join(f"({u}, 'user{u}')" for u in range(80))
        )
        created: list[morsel.SpillFile] = []
        original_init = morsel.SpillFile.__init__

        def tracking_init(self):
            original_init(self)
            created.append(self)

        monkeypatch.setattr(morsel.SpillFile, "__init__", tracking_init)
        ticking = TickingClock()
        token = CancellationToken(deadline=20.0, clock=ticking.now)
        with cancel_scope(token):
            with pytest.raises(DeadlineExceededError):
                engine.execute(
                    "SELECT count(*) AS n FROM events JOIN users ON user_id = uid"
                )
        assert created, "join never reached the spill path"
        leaked = [spill for spill in created if not spill._file.closed]
        assert leaked == [], f"{len(leaked)} spill temp files left open"

    def test_non_equi_join_stops_within_one_slab(self):
        engine = RelationalEngine("pg")
        engine.parallelism = 1
        engine._batch_executor._batch_rows = 64
        for table in ("a", "b"):
            engine.execute(f"CREATE TABLE {table} (id INTEGER PRIMARY KEY, v INTEGER)")
            engine.execute(
                f"INSERT INTO {table} VALUES "
                + ", ".join(f"({i}, {i % 17})" for i in range(300))
            )
        # 300 x 300 pairs in 64-pair slabs: ~1,500 slabs, one token poll each
        # (plus one per scanned batch).  A 30-tick deadline expires in the
        # first left batch; the first poll past it raises.
        ticking = TickingClock()
        token = CancellationToken(deadline=30.0, clock=ticking.now)
        with cancel_scope(token):
            with pytest.raises(DeadlineExceededError):
                engine.execute("SELECT count(*) AS n FROM a JOIN b ON a.v < b.v")
        assert ticking.t < 45.0
        # Client cancel between two output batches: the next slab raises.
        token = CancellationToken()
        with cancel_scope(token):
            _schema, batches = engine._batch_executor.stream(
                engine.plan("SELECT a.id, b.id FROM a LEFT JOIN b ON a.v <> b.v")
            )
            assert 0 < len(next(batches)) <= 64
            token.cancel("client went away")
            with pytest.raises(QueryCancelledError):
                next(batches)


# --------------------------------------------------------- retry budgets
class TestRetryBudgets:
    def test_bucket_spend_refund_and_refill(self):
        budget = RetryBudget(capacity=2.0, refill_per_success=1.0)
        assert budget.try_spend() and budget.try_spend()
        assert not budget.try_spend()
        assert budget.denied_total == 1
        budget.refund()
        assert budget.try_spend()
        budget.record_success()
        assert budget.try_spend()

    def test_flapping_engine_throttles_retries_healthy_engine_unaffected(self):
        resilience = EngineResilience(
            retry=RetryPolicy(max_attempts=3, base_backoff_s=0.0, jitter=0.0),
            failure_threshold=100, sleep=lambda s: None,
            retry_budget_capacity=1.0, retry_budget_refill=0.0,
        )
        calls = {"n": 0}

        def flaky():
            calls["n"] += 1
            raise TransientEngineError("flap")

        # First run spends the only token on its first retry, then is denied.
        with pytest.raises(TransientEngineError):
            resilience.run(["flappy"], flaky)
        assert calls["n"] == 2
        assert resilience.budget("flappy").denied_total == 1
        # Budget drained: later failures shed their retries entirely.
        with pytest.raises(TransientEngineError):
            resilience.run(["flappy"], flaky)
        assert calls["n"] == 3
        # A healthy engine keeps its full, untouched budget.
        assert resilience.run(["steady"], lambda: "ok") == "ok"
        assert resilience.budget("steady").tokens == 1.0
        assert resilience.budget("steady").denied_total == 0

    def test_successes_refill_the_budget(self):
        resilience = EngineResilience(
            retry=RetryPolicy(max_attempts=2, base_backoff_s=0.0, jitter=0.0),
            failure_threshold=100, sleep=lambda s: None,
            retry_budget_capacity=1.0, retry_budget_refill=1.0,
        )
        attempts = {"n": 0}

        def flaky_then_ok():
            attempts["n"] += 1
            if attempts["n"] % 2 == 1:
                raise TransientEngineError("flap")
            return "ok"

        # fail → retry (spends the token) → success refills it; so the
        # pattern stays retryable indefinitely.
        for _ in range(3):
            assert resilience.run(["wobbly"], flaky_then_ok) == "ok"
        assert resilience.budget("wobbly").denied_total == 0


# ----------------------------------------------- fault injector extensions
class TestFaultInjectorExtensions:
    def test_timed_outage_expires_on_the_injected_clock(self, polystore):
        _, postgres, _ = polystore
        clock = FakeClock()
        injector = FaultInjector(clock=clock.now)
        injector.outage(duration_s=5.0).install(postgres)
        try:
            with pytest.raises(EngineUnavailableError):
                postgres.export_relation("patients")
            clock.advance(4.9)
            with pytest.raises(EngineUnavailableError):
                postgres.export_relation("patients")
            clock.advance(0.2)
            assert len(postgres.export_relation("patients")) == 4
        finally:
            injector.uninstall()

    def test_indefinite_outage_needs_explicit_restore(self, polystore):
        _, postgres, _ = polystore
        clock = FakeClock()
        injector = FaultInjector(clock=clock.now)
        injector.outage().install(postgres)
        try:
            clock.advance(1e9)
            with pytest.raises(EngineUnavailableError):
                postgres.export_relation("patients")
            injector.restore()
            assert len(postgres.export_relation("patients")) == 4
        finally:
            injector.uninstall()

    def test_fail_rename_aborts_the_cast_commit_cleanly(self, polystore):
        bd, postgres, mysql = polystore
        injector = FaultInjector().fail_rename()
        injector.install(mysql)
        try:
            with pytest.raises(InjectedFault):
                bd.migrator.cast("patients", "mysql")
            assert_no_shadows(postgres, mysql)
            assert not mysql.has_object("patients")
            assert bd.catalog.replicas("patients") == []
            # The fault fired once; the retried cast commits.
            record = bd.migrator.cast("patients", "mysql")
            assert record.rows == 4
            assert [loc.engine_name for loc in bd.catalog.replicas("patients")] \
                == ["mysql"]
        finally:
            injector.uninstall()


# ------------------------------------------------ multi-engine stale serve
class TestMultiEngineStaleServe:
    def test_any_required_open_breaker_qualifies_and_counts_per_engine(
        self, polystore
    ):
        bd, postgres, mysql = polystore
        mysql.execute("CREATE TABLE visits (vid INTEGER PRIMARY KEY, pid INTEGER)")
        mysql.execute("INSERT INTO visits VALUES (10, 1), (11, 2)")
        runtime = fast_runtime(bd, serve_stale_on_open=True)
        injector = FaultInjector()
        query = (
            "RELATIONAL(SELECT count(*) AS n FROM patients "
            "JOIN visits ON id = pid)"
        )
        try:
            fresh = runtime.execute(query)
            assert fresh.rows[0]["n"] == 2 and fresh.stale is False
            # Trip only mysql's breaker, then invalidate the cache entry
            # with a write on the still-healthy engine.
            injector.outage()
            injector.install(mysql)
            with pytest.raises(EngineUnavailableError):
                runtime.execute(
                    "RELATIONAL(SELECT count(*) AS n FROM visits)",
                    use_cache=False,
                )
            runtime.execute("RELATIONAL(INSERT INTO patients VALUES (5, 30))")
            # The two-engine query hits mysql's open breaker: the last-known
            # -good result is served, flagged, and attributed to mysql.
            served = runtime.execute(query)
            assert served.stale is True
            assert served.rows[0]["n"] == 2
            snapshot = runtime.metrics.snapshot()
            assert snapshot["stale_served"] == 1
            assert snapshot["stale_served_by_engine"] == {"mysql": 1}
        finally:
            injector.uninstall()
            runtime.shutdown()
