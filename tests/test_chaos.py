"""Chaos tests: fault injection, retry/backoff, circuit breakers, transactional
CAST recovery, deadlines, stale-cache fallback, and shutdown semantics.

The invariants under test are the robustness layer's contract:

* no fault sequence may ever leave a lost or partially-imported catalog
  object — a failed CAST is invisible afterwards;
* a retried CAST produces a byte-identical copy of the data;
* breaker transitions are observable through ``metrics.snapshot()`` and
  trace spans;
* shutdown and session close are race-safe.

A failure here names a regression in retry/backoff, the circuit breakers
or transactional CAST recovery; zero lost or partially-imported catalog
objects under injected faults is the bar.  CI runs the tier-1 suite under
``python -X dev``, so the debug allocator and warnings are on for these
tests too.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import CancelledError

import numpy as np
import pytest

from repro.common.errors import (
    CastError,
    CircuitOpenError,
    DeadlineExceededError,
    EngineUnavailableError,
    TransientEngineError,
)
from repro.core.bigdawg import BigDawg
from repro.engines.array import ArrayEngine
from repro.engines.keyvalue import KeyValueEngine
from repro.engines.relational import RelationalEngine
from repro.observability.tracing import Tracer, get_tracer, set_tracer
from repro.runtime import (
    CircuitBreaker,
    EngineResilience,
    FaultInjector,
    InjectedFault,
    PolystoreRuntime,
    RetryPolicy,
)


@pytest.fixture()
def bigdawg() -> BigDawg:
    bd = BigDawg()
    postgres = RelationalEngine("postgres")
    scidb = ArrayEngine("scidb")
    accumulo = KeyValueEngine("accumulo")
    bd.add_engine(postgres, islands=["relational", "myria", "d4m"])
    bd.add_engine(scidb, islands=["array"])
    bd.add_engine(accumulo, islands=["text", "d4m"])
    postgres.execute("CREATE TABLE patients (id INTEGER PRIMARY KEY, age INTEGER)")
    postgres.execute("INSERT INTO patients VALUES (1, 64), (2, 70), (3, 41), (4, 77)")
    scidb.load_numpy("waves", np.arange(12, dtype=float).reshape(3, 4))
    scidb.load_numpy("wave_copy", np.arange(6, dtype=float).reshape(2, 3))
    accumulo.create_table("notes", text_indexed=True)
    accumulo.put("notes", "p1", "doctor", "n1", "very sick patient")
    return bd


def assert_no_partials(bigdawg: BigDawg) -> None:
    """The chaos acceptance invariant: no lost or half-imported objects.

    Every registered catalog object must actually exist on its recorded
    engine, and no engine may hold a leftover CAST shadow object.
    """
    for location in bigdawg.catalog.objects():
        engine = bigdawg.catalog.engine(location.engine_name)
        assert engine.has_object(location.name), (
            f"catalog names {location.name!r} on {location.engine_name!r} "
            "but the engine does not have it"
        )
    for engine in bigdawg.catalog.engines():
        shadows = [n for n in engine.list_objects() if "__cast_shadow__" in n]
        assert shadows == [], f"leftover shadow objects on {engine.name!r}: {shadows}"


def rows_of(engine, name):
    return sorted(tuple(row.values) for row in engine.export_relation(name))


class FakeClock:
    def __init__(self) -> None:
        self.t = 0.0

    def now(self) -> float:
        return self.t

    def advance(self, seconds: float) -> None:
        self.t += seconds


# ------------------------------------------------------------ fault injection
class TestFaultInjector:
    def test_fail_nth_fires_once_and_uninstall_restores(self, bigdawg):
        postgres = bigdawg.engine("postgres")
        injector = FaultInjector().fail_nth("execute", 2)
        injector.install(postgres)
        postgres.execute("SELECT count(*) FROM patients")
        with pytest.raises(InjectedFault):
            postgres.execute("SELECT count(*) FROM patients")
        postgres.execute("SELECT count(*) FROM patients")  # only the 2nd fails
        assert injector.calls["execute"] == 3
        assert injector.injected["execute"] == 1
        injector.uninstall()
        # The instrumented closure is gone: class lookup resolves again.
        assert "execute" not in postgres.__dict__
        postgres.execute("SELECT count(*) FROM patients")

    def test_instrumentation_preserves_engine_identity(self, bigdawg):
        # isinstance routing in islands/shims and attribute plumbing must
        # keep working while instrumented: faults patch the instance, they
        # never wrap it in a proxy.
        postgres = bigdawg.engine("postgres")
        with FaultInjector() as injector:
            injector.install(postgres)
            assert isinstance(postgres, RelationalEngine)
            assert bigdawg.engine("postgres") is postgres
        assert "execute" not in postgres.__dict__

    def test_fail_every_and_seeded_rate_are_deterministic(self, bigdawg):
        postgres = bigdawg.engine("postgres")
        injector = FaultInjector(seed=5).fail_every("execute", 3)
        injector.install(postgres)
        outcomes = []
        for _ in range(6):
            try:
                postgres.execute("SELECT count(*) FROM patients")
                outcomes.append("ok")
            except InjectedFault:
                outcomes.append("fail")
        injector.uninstall()
        assert outcomes == ["ok", "ok", "fail", "ok", "ok", "fail"]

        a = FaultInjector(seed=7).fail_rate("execute", 0.5)
        b = FaultInjector(seed=7).fail_rate("execute", 0.5)

        def pattern(injector):
            engine = RelationalEngine("pg")
            engine.execute("CREATE TABLE t (id INTEGER)")
            injector.install(engine)
            out = []
            for _ in range(10):
                try:
                    engine.execute("SELECT count(*) FROM t")
                    out.append(1)
                except InjectedFault:
                    out.append(0)
            injector.uninstall()
            return out

        assert pattern(a) == pattern(b)

    def test_added_latency_delays_calls(self, bigdawg):
        postgres = bigdawg.engine("postgres")
        with FaultInjector().add_latency("execute", 0.02) as injector:
            injector.install(postgres)
            begin = time.perf_counter()
            postgres.execute("SELECT count(*) FROM patients")
            assert time.perf_counter() - begin >= 0.02

    def test_outage_downs_every_method_until_restore(self, bigdawg):
        postgres = bigdawg.engine("postgres")
        injector = FaultInjector().outage()
        injector.install(postgres)
        with pytest.raises(EngineUnavailableError):
            postgres.execute("SELECT count(*) FROM patients")
        with pytest.raises(EngineUnavailableError):
            postgres.export_relation("patients")
        assert injector.is_down
        injector.restore()
        postgres.execute("SELECT count(*) FROM patients")
        injector.uninstall()

    def test_export_stream_dies_mid_chunk(self, bigdawg):
        postgres = bigdawg.engine("postgres")
        injector = FaultInjector().fail_mid_stream("export_chunks", after_chunks=1)
        injector.install(postgres)
        chunks = postgres.export_chunks("patients", chunk_size=2)
        first = next(chunks)
        assert len(first) == 2
        with pytest.raises(InjectedFault):
            next(chunks)
        injector.uninstall()

    def test_mid_stream_requires_chunk_method(self):
        with pytest.raises(ValueError):
            FaultInjector().fail_mid_stream("execute", after_chunks=1)


# ------------------------------------------------------------ circuit breaker
class TestCircuitBreaker:
    def test_trips_open_after_consecutive_failures(self):
        clock = FakeClock()
        breaker = CircuitBreaker("pg", failure_threshold=3, cooldown_s=10.0,
                                 clock=clock.now)
        assert breaker.state == "closed"
        for _ in range(2):
            breaker.record_failure()
        assert breaker.state == "closed"  # below threshold
        breaker.record_failure()
        assert breaker.state == "open"
        assert breaker.opened_total == 1
        assert not breaker.allow()
        assert breaker.rejections == 1
        assert breaker.retry_after_s() == pytest.approx(10.0)

    def test_success_resets_the_consecutive_count(self):
        breaker = CircuitBreaker("pg", failure_threshold=2)
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == "closed"

    def test_half_open_probe_success_closes(self):
        clock = FakeClock()
        breaker = CircuitBreaker("pg", failure_threshold=1, cooldown_s=5.0,
                                 clock=clock.now)
        breaker.record_failure()
        assert breaker.state == "open"
        clock.advance(5.0)
        assert breaker.state == "half_open"
        assert breaker.allow()       # claims the single probe slot
        assert not breaker.allow()   # no second probe
        breaker.record_success()
        assert breaker.state == "closed"
        assert breaker.transitions == [
            ("closed", "open"), ("open", "half_open"), ("half_open", "closed"),
        ]

    def test_half_open_probe_failure_reopens_and_restarts_cooldown(self):
        clock = FakeClock()
        breaker = CircuitBreaker("pg", failure_threshold=1, cooldown_s=5.0,
                                 clock=clock.now)
        breaker.record_failure()
        clock.advance(5.0)
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == "open"
        clock.advance(4.9)
        assert breaker.state == "open"  # cooldown restarted at the probe
        clock.advance(0.2)
        assert breaker.state == "half_open"

    def test_release_probe_frees_the_slot_without_outcome(self):
        clock = FakeClock()
        breaker = CircuitBreaker("pg", failure_threshold=1, cooldown_s=1.0,
                                 half_open_probes=1, clock=clock.now)
        breaker.record_failure()
        clock.advance(1.0)
        assert breaker.allow()
        breaker.release_probe()
        # Slot is free again, and no transition was recorded.
        assert breaker.state == "half_open"
        assert breaker.allow()


# ------------------------------------------------------------- retry policy
class TestRetryPolicy:
    def test_backoff_grows_exponentially_and_caps(self):
        policy = RetryPolicy(base_backoff_s=0.05, multiplier=2.0,
                             max_backoff_s=0.15, jitter=0.0)
        assert policy.backoff(1) == pytest.approx(0.05)
        assert policy.backoff(2) == pytest.approx(0.10)
        assert policy.backoff(3) == pytest.approx(0.15)  # capped
        assert policy.backoff(8) == pytest.approx(0.15)

    def test_jitter_stays_within_bounds_and_is_seeded(self):
        policy = RetryPolicy(base_backoff_s=0.1, jitter=0.5, seed=11)
        values = [policy.backoff(1) for _ in range(50)]
        assert all(0.05 <= v <= 0.15 for v in values)
        again = [RetryPolicy(base_backoff_s=0.1, jitter=0.5, seed=11).backoff(1)
                 for _ in range(1)]
        assert values[0] == again[0]

    def test_retryability_follows_the_error_flag(self):
        assert RetryPolicy.is_retryable(TransientEngineError("x"))
        assert RetryPolicy.is_retryable(InjectedFault("x"))
        assert RetryPolicy.is_retryable(EngineUnavailableError("x"))
        assert not RetryPolicy.is_retryable(CastError("x"))
        assert not RetryPolicy.is_retryable(ValueError("x"))


# --------------------------------------------------------- resilience driver
class TestEngineResilience:
    def make(self, **kwargs):
        sleeps: list[float] = []
        resilience = EngineResilience(
            retry=kwargs.pop("retry", RetryPolicy(
                max_attempts=3, base_backoff_s=0.01, jitter=0.0)),
            sleep=sleeps.append, **kwargs,
        )
        return resilience, sleeps

    def test_transient_failures_are_retried_to_success(self):
        resilience, sleeps = self.make()
        attempts = {"n": 0}

        def flaky():
            attempts["n"] += 1
            if attempts["n"] < 3:
                raise InjectedFault("transient")
            return 42

        assert resilience.run(["pg"], flaky) == 42
        assert attempts["n"] == 3
        assert len(sleeps) == 2
        assert resilience.breaker("pg").state == "closed"

    def test_semantic_errors_fail_immediately_and_count_as_health(self):
        resilience, sleeps = self.make(failure_threshold=1)
        attempts = {"n": 0}

        def broken():
            attempts["n"] += 1
            raise CastError("semantic")

        with pytest.raises(CastError):
            resilience.run(["pg"], broken)
        assert attempts["n"] == 1
        assert sleeps == []
        # The engine responded, so the breaker saw a *success*.
        assert resilience.breaker("pg").state == "closed"

    def test_exhausted_retries_raise_the_last_error(self):
        resilience, _ = self.make(failure_threshold=100)

        def always():
            raise InjectedFault("still down")

        with pytest.raises(InjectedFault):
            resilience.run(["pg"], always)

    def test_breaker_opens_and_rejects_before_dispatch(self):
        resilience, _ = self.make(
            retry=RetryPolicy(max_attempts=1), failure_threshold=2,
            cooldown_s=60.0,
        )
        calls = {"n": 0}

        def always():
            calls["n"] += 1
            raise InjectedFault("down")

        for _ in range(2):
            with pytest.raises(InjectedFault):
                resilience.run(["pg"], always)
        dispatched = calls["n"]
        with pytest.raises(CircuitOpenError) as excinfo:
            resilience.run(["pg"], always)
        assert calls["n"] == dispatched  # rejected before dispatch
        assert excinfo.value.engine == "pg"
        assert excinfo.value.retry_after_s is not None
        assert resilience.states() == {"pg": "open"}

    def test_half_open_probe_recovers_the_engine(self):
        clock = FakeClock()
        resilience = EngineResilience(
            retry=RetryPolicy(max_attempts=1), failure_threshold=1,
            cooldown_s=5.0, clock=clock.now, sleep=lambda s: None,
        )
        with pytest.raises(InjectedFault):
            resilience.run(["pg"], lambda: (_ for _ in ()).throw(InjectedFault("x")))
        assert resilience.states() == {"pg": "open"}
        clock.advance(5.0)
        assert resilience.run(["pg"], lambda: "ok") == "ok"
        assert resilience.states() == {"pg": "closed"}

    def test_multi_engine_rejection_releases_claimed_probes(self):
        clock = FakeClock()
        resilience = EngineResilience(
            retry=RetryPolicy(max_attempts=1), failure_threshold=1,
            cooldown_s=5.0, clock=clock.now, sleep=lambda s: None,
        )
        # Trip both breakers, then advance only far enough that both are
        # half-open; engine "a" allows a probe, engine "b"... also half-open.
        for name in ("a", "b"):
            with pytest.raises(InjectedFault):
                resilience.run([name], lambda: (_ for _ in ()).throw(InjectedFault("x")))
        # Re-open "b" and claim probes through a two-engine run while "a"
        # is half-open: the rejection must release "a"'s probe slot.
        clock.advance(5.0)
        assert resilience.breaker("a").state == "half_open"
        resilience.breaker("b").allow()          # consume b's only probe slot
        with pytest.raises(CircuitOpenError):
            resilience.run(["a", "b"], lambda: "never")
        # "a"'s probe slot must be free again.
        assert resilience.breaker("a").allow()

    def test_deadline_checked_before_attempts(self):
        clock = FakeClock()
        resilience = EngineResilience(clock=clock.now, sleep=lambda s: None)
        clock.t = 100.0
        with pytest.raises(DeadlineExceededError):
            resilience.run(["pg"], lambda: "never", deadline=100.0)

    def test_deadline_bounds_backoff_and_stops_retries(self):
        clock = FakeClock()
        sleeps: list[float] = []

        def sleep(seconds: float) -> None:
            sleeps.append(seconds)
            clock.advance(seconds)

        resilience = EngineResilience(
            retry=RetryPolicy(max_attempts=10, base_backoff_s=1.0, jitter=0.0),
            failure_threshold=100, clock=clock.now, sleep=sleep,
        )

        def always():
            clock.advance(0.1)
            raise InjectedFault("down")

        # The deadline — not exhaustion — ends the retry loop, at the next
        # attempt boundary after the clipped backoff.
        with pytest.raises(DeadlineExceededError):
            resilience.run(["pg"], always, deadline=1.5)
        # Every backoff was clipped to the remaining budget.
        assert all(s <= 1.5 for s in sleeps)
        assert clock.now() <= 1.5 + 1e-9


# ------------------------------------------------------- transactional CAST
class TestTransactionalCast:
    def test_mid_export_failure_leaves_no_partial_object(self, bigdawg):
        postgres = bigdawg.engine("postgres")
        accumulo = bigdawg.engine("accumulo")
        injector = FaultInjector().fail_mid_stream("export_chunks", after_chunks=1)
        injector.install(postgres)
        with pytest.raises(InjectedFault):
            bigdawg.migrator.cast(
                "patients", "accumulo", target_name="patients_kv", chunk_size=2
            )
        injector.uninstall()
        assert not accumulo.has_object("patients_kv")
        assert bigdawg.catalog.locate("patients").engine_name == "postgres"
        assert_no_partials(bigdawg)

    def test_mid_import_failure_leaves_no_partial_object(self, bigdawg):
        postgres = bigdawg.engine("postgres")
        accumulo = bigdawg.engine("accumulo")
        injector = FaultInjector().fail_mid_stream("import_chunks", after_chunks=1)
        injector.install(accumulo)
        with pytest.raises(InjectedFault):
            bigdawg.migrator.cast(
                "patients", "accumulo", target_name="patients_kv", chunk_size=2
            )
        injector.uninstall()
        assert not accumulo.has_object("patients_kv")
        # The source is untouched by the failed cast.
        assert len(rows_of(postgres, "patients")) == 4
        assert_no_partials(bigdawg)

    def test_retried_cast_is_byte_identical_to_a_clean_cast(self, bigdawg):
        postgres = bigdawg.engine("postgres")
        accumulo = bigdawg.engine("accumulo")
        injector = FaultInjector().fail_nth("import_chunks", 1)
        injector.install(accumulo)
        with pytest.raises(InjectedFault):
            bigdawg.migrator.cast(
                "patients", "accumulo", target_name="patients_kv", chunk_size=2
            )
        # Retry with the fault cleared: same call, same destination.
        injector.uninstall()
        bigdawg.migrator.cast(
            "patients", "accumulo", target_name="patients_kv", chunk_size=2
        )
        retried = rows_of(accumulo, "patients_kv")
        # A never-faulted cast of the same object must produce identical data.
        bigdawg.migrator.cast(
            "patients", "accumulo", target_name="patients_clean", chunk_size=2
        )
        assert retried == rows_of(accumulo, "patients_clean")
        assert_no_partials(bigdawg)

    def test_failed_replacement_keeps_the_old_copy_intact(self, bigdawg):
        postgres = bigdawg.engine("postgres")
        accumulo = bigdawg.engine("accumulo")
        bigdawg.migrator.cast(
            "patients", "accumulo", target_name="patients_kv", chunk_size=2
        )
        before = rows_of(accumulo, "patients_kv")
        postgres.execute("INSERT INTO patients VALUES (5, 30)")
        injector = FaultInjector().fail_mid_stream("export_chunks", after_chunks=1)
        injector.install(postgres)
        with pytest.raises(InjectedFault):
            bigdawg.migrator.cast(
                "patients", "accumulo", target_name="patients_kv", chunk_size=2
            )
        injector.uninstall()
        # The pre-existing destination copy survived the failed replacement.
        assert rows_of(accumulo, "patients_kv") == before
        # And the retry replaces it with the new five-row content.
        bigdawg.migrator.cast(
            "patients", "accumulo", target_name="patients_kv", chunk_size=2
        )
        assert len(rows_of(accumulo, "patients_kv")) > len(before)
        assert_no_partials(bigdawg)

    def test_drop_source_survives_catalog_failure_between_steps(self, bigdawg):
        """Regression for the drop-source ordering hazard: a catalog
        registration failure after the import must never orphan the object
        (source dropped, catalog pointing nowhere)."""
        postgres = bigdawg.engine("postgres")
        scidb = bigdawg.engine("scidb")
        bigdawg.catalog.register_object("wave_copy", "scidb", "array", replace=True)
        original_move = bigdawg.catalog.move_object
        calls = {"n": 0}

        def flaky_move(name, target_engine, object_type=None):
            calls["n"] += 1
            if calls["n"] == 1:
                raise InjectedFault("catalog registration failed")
            return original_move(name, target_engine, object_type)

        bigdawg.catalog.move_object = flaky_move
        try:
            with pytest.raises(InjectedFault):
                bigdawg.migrator.cast("wave_copy", "postgres", drop_source=True)
            # The source copy still exists and the catalog still names it.
            assert scidb.has_object("wave_copy")
            assert bigdawg.catalog.locate("wave_copy").engine_name == "scidb"
            # Idempotent retry completes the move.
            bigdawg.migrator.cast("wave_copy", "postgres", drop_source=True)
        finally:
            del bigdawg.catalog.move_object
        assert not scidb.has_object("wave_copy")
        assert postgres.has_object("wave_copy")
        assert bigdawg.catalog.locate("wave_copy").engine_name == "postgres"
        assert_no_partials(bigdawg)

    def test_randomized_faults_never_corrupt_the_catalog(self, bigdawg):
        """Seeded chaos loop: casts retried under a random fault rate always
        converge with zero lost or partially-imported objects."""
        postgres = bigdawg.engine("postgres")
        scidb = bigdawg.engine("scidb")
        resilience = EngineResilience(
            retry=RetryPolicy(max_attempts=12, base_backoff_s=0.0, jitter=0.0),
            failure_threshold=10_000, sleep=lambda s: None,
        )
        injector = FaultInjector(seed=13).fail_rate(None, 0.15)
        injector.install(scidb)
        try:
            for _ in range(4):
                resilience.run(
                    ["scidb", "postgres"],
                    lambda: bigdawg.migrator.cast(
                        "waves", "postgres", target_name="waves_rel", chunk_size=4
                    ),
                )
        finally:
            injector.uninstall()
        assert injector.total_injected() > 0, "the chaos loop injected nothing"
        assert postgres.has_object("waves_rel")
        # Byte-identical to a clean cast despite every retry.
        bigdawg.migrator.cast(
            "waves", "postgres", target_name="waves_clean", chunk_size=4
        )
        assert rows_of(postgres, "waves_rel") == rows_of(postgres, "waves_clean")
        assert_no_partials(bigdawg)


# ------------------------------------------------------ runtime integration
class TestRuntimeResilience:
    def test_transient_engine_faults_are_retried_transparently(self, bigdawg):
        postgres = bigdawg.engine("postgres")
        runtime = PolystoreRuntime(
            bigdawg, workers=2,
            resilience=EngineResilience(
                retry=RetryPolicy(max_attempts=4, base_backoff_s=0.001, jitter=0.0)
            ),
        )
        injector = FaultInjector().fail_nth("execute", 1)
        injector.install(postgres)
        try:
            result = runtime.execute(
                "RELATIONAL(SELECT count(*) AS n FROM patients)", use_cache=False
            )
            assert result.rows[0]["n"] == 4
            snapshot = runtime.metrics.snapshot()
            assert snapshot["retry_attempts"] >= 1
            assert snapshot["breaker_states"] == {"postgres": "closed"}
        finally:
            injector.uninstall()
            runtime.shutdown()

    def test_breaker_opens_under_outage_and_is_observable(self, bigdawg):
        postgres = bigdawg.engine("postgres")
        runtime = PolystoreRuntime(
            bigdawg, workers=2,
            resilience=EngineResilience(
                retry=RetryPolicy(max_attempts=1), failure_threshold=2,
                cooldown_s=60.0,
            ),
        )
        previous = set_tracer(Tracer(enabled=True))
        injector = FaultInjector().outage()
        injector.install(postgres)
        try:
            for _ in range(2):
                with pytest.raises(EngineUnavailableError):
                    runtime.execute(
                        "RELATIONAL(SELECT count(*) AS n FROM patients)",
                        use_cache=False,
                    )
            with pytest.raises(CircuitOpenError):
                runtime.execute(
                    "RELATIONAL(SELECT count(*) AS n FROM patients)",
                    use_cache=False,
                )
            snapshot = runtime.metrics.snapshot()
            assert snapshot["breaker_states"] == {"postgres": "open"}
            assert snapshot["breaker_open_total"] == 1
            assert snapshot["breaker_rejections"] >= 1
            tracer = get_tracer()
            (transition,) = tracer.spans("breaker_transition")
            assert transition.attrs["engine"] == "postgres"
            assert transition.attrs["to_state"] == "open"
            assert tracer.spans("retry") == []  # max_attempts=1: no retries
        finally:
            set_tracer(previous)
            injector.uninstall()
            runtime.shutdown()

    def test_recovery_after_cooldown_closes_the_breaker(self, bigdawg):
        postgres = bigdawg.engine("postgres")
        runtime = PolystoreRuntime(
            bigdawg, workers=2,
            resilience=EngineResilience(
                retry=RetryPolicy(max_attempts=1), failure_threshold=1,
                cooldown_s=0.05,
            ),
        )
        injector = FaultInjector().outage()
        injector.install(postgres)
        try:
            with pytest.raises(EngineUnavailableError):
                runtime.execute(
                    "RELATIONAL(SELECT count(*) AS n FROM patients)",
                    use_cache=False,
                )
            assert runtime.resilience.states() == {"postgres": "open"}
            injector.restore()
            time.sleep(0.06)  # past the cooldown: next call is the probe
            result = runtime.execute(
                "RELATIONAL(SELECT count(*) AS n FROM patients)", use_cache=False
            )
            assert result.rows[0]["n"] == 4
            assert runtime.resilience.states() == {"postgres": "closed"}
            assert runtime.metrics.snapshot()["breaker_close_total"] == 1
        finally:
            injector.uninstall()
            runtime.shutdown()

    def test_stale_cache_fallback_serves_flagged_results(self, bigdawg):
        postgres = bigdawg.engine("postgres")
        runtime = PolystoreRuntime(
            bigdawg, workers=2, serve_stale_on_open=True,
            resilience=EngineResilience(
                retry=RetryPolicy(max_attempts=1), failure_threshold=1,
                cooldown_s=60.0,
            ),
        )
        query = "RELATIONAL(SELECT count(*) AS n FROM patients)"
        injector = FaultInjector()
        try:
            fresh = runtime.execute(query)
            assert fresh.rows[0]["n"] == 4
            assert fresh.stale is False
            # Invalidate the cached entry, then down the engine.
            postgres.execute("INSERT INTO patients VALUES (5, 30)")
            injector.outage()
            injector.install(postgres)
            with pytest.raises(EngineUnavailableError):
                runtime.execute(query)  # trips the breaker open
            served = runtime.execute(query)
            assert served.stale is True
            assert served.rows[0]["n"] == 4  # last-known-good, not current
            assert runtime.metrics.snapshot()["stale_served"] == 1
        finally:
            injector.uninstall()
            runtime.shutdown()

    def test_without_opt_in_breaker_rejection_propagates(self, bigdawg):
        postgres = bigdawg.engine("postgres")
        runtime = PolystoreRuntime(
            bigdawg, workers=2,
            resilience=EngineResilience(
                retry=RetryPolicy(max_attempts=1), failure_threshold=1,
                cooldown_s=60.0,
            ),
        )
        query = "RELATIONAL(SELECT count(*) AS n FROM patients)"
        injector = FaultInjector()
        try:
            runtime.execute(query)
            postgres.execute("INSERT INTO patients VALUES (5, 30)")
            injector.outage()
            injector.install(postgres)
            with pytest.raises(EngineUnavailableError):
                runtime.execute(query)
            with pytest.raises(CircuitOpenError):
                runtime.execute(query)
        finally:
            injector.uninstall()
            runtime.shutdown()

    def test_deadline_fails_at_a_step_boundary(self, bigdawg):
        runtime = PolystoreRuntime(bigdawg, workers=2)
        try:
            with pytest.raises(DeadlineExceededError):
                runtime.execute(
                    "RELATIONAL(SELECT count(*) AS n FROM patients)",
                    use_cache=False, deadline_s=0.0,
                )
        finally:
            runtime.shutdown()

    def test_default_deadline_applies_to_every_query(self, bigdawg):
        runtime = PolystoreRuntime(bigdawg, workers=2, default_deadline_s=0.0)
        try:
            with pytest.raises(DeadlineExceededError):
                runtime.execute(
                    "RELATIONAL(SELECT count(*) AS n FROM patients)",
                    use_cache=False,
                )
            # An explicit generous deadline overrides the default.
            result = runtime.execute(
                "RELATIONAL(SELECT count(*) AS n FROM patients)",
                use_cache=False, deadline_s=30.0,
            )
            assert result.rows[0]["n"] == 4
        finally:
            runtime.shutdown()


# ------------------------------------------------------- shutdown semantics
class TestShutdownSemantics:
    def test_shutdown_waits_for_in_flight_queries(self, bigdawg):
        runtime = PolystoreRuntime(bigdawg, workers=2, engine_latency=0.02)
        futures = [
            runtime.submit(
                "RELATIONAL(SELECT count(*) AS n FROM patients)", use_cache=False
            )
            for _ in range(4)
        ]
        runtime.shutdown(wait=True)
        assert all(f.done() for f in futures)
        assert all(f.result().rows[0]["n"] == 4 for f in futures)

    def test_shutdown_nowait_cancels_queued_queries(self, bigdawg):
        runtime = PolystoreRuntime(bigdawg, workers=1, engine_latency=0.2)
        futures = [
            runtime.submit(
                "RELATIONAL(SELECT count(*) AS n FROM patients)", use_cache=False
            )
            for _ in range(3)
        ]
        time.sleep(0.05)  # let the single worker start the first query
        begin = time.perf_counter()
        runtime.shutdown(wait=False)
        assert time.perf_counter() - begin < 0.15  # returned without joining
        # The in-flight query completes; the queued ones were cancelled.
        assert futures[0].result(timeout=5).rows[0]["n"] == 4
        for future in futures[1:]:
            with pytest.raises(CancelledError):
                future.result(timeout=5)

    def test_shutdown_is_idempotent_and_blocks_submit(self, bigdawg):
        runtime = PolystoreRuntime(bigdawg, workers=1)
        runtime.shutdown()
        runtime.shutdown(wait=False)  # second call is a no-op
        with pytest.raises(RuntimeError, match="shut down"):
            runtime.submit("RELATIONAL(SELECT 1)")

    def test_submit_racing_shutdown_reports_shut_down(self, bigdawg):
        runtime = PolystoreRuntime(bigdawg, workers=1)
        runtime.shutdown()
        # Model the race where submit passed the _closed check before
        # shutdown flipped it: the pool's own refusal is translated.
        runtime._closed = False
        with pytest.raises(RuntimeError, match="shut down"):
            runtime.submit("RELATIONAL(SELECT 1)")

    def test_session_close_is_race_safe_with_in_flight_queries(self, bigdawg):
        runtime = PolystoreRuntime(bigdawg, workers=2, engine_latency=0.02)
        try:
            session = runtime.session()
            future = session.submit(
                "RELATIONAL(SELECT count(*) AS n FROM patients)", use_cache=False
            )
            session.close()  # closing with the query still in flight
            assert future.result(timeout=5).rows[0]["n"] == 4
            with pytest.raises(RuntimeError, match="closed"):
                session.submit("RELATIONAL(SELECT 1)")
            session.close()  # idempotent
        finally:
            runtime.shutdown()

    def test_concurrent_session_close_and_submit_never_leak(self, bigdawg):
        runtime = PolystoreRuntime(bigdawg, workers=2)
        try:
            session = runtime.session()
            errors: list[BaseException] = []
            submitted: list[object] = []

            def hammer():
                for _ in range(20):
                    try:
                        submitted.append(session.submit(
                            "RELATIONAL(SELECT count(*) AS n FROM patients)"
                        ))
                    except RuntimeError:
                        return  # session closed underneath us: the contract
                    except BaseException as exc:  # noqa: BLE001
                        errors.append(exc)

            thread = threading.Thread(target=hammer)
            thread.start()
            session.close()
            thread.join()
            assert errors == []
            for future in submitted:
                future.result(timeout=5)
        finally:
            runtime.shutdown()


# ------------------------------------------------- scoped + sampled tracing
class TestScopedAndSampledTracing:
    def test_runtime_trace_returns_spans_without_global_tracing(self, bigdawg):
        runtime = PolystoreRuntime(bigdawg, workers=2)
        try:
            assert not get_tracer().enabled
            relation, tracer = runtime.trace(
                "RELATIONAL(SELECT count(*) AS n FROM patients)"
            )
            assert relation.rows[0]["n"] == 4
            names = tracer.span_names()
            assert "query" in names
            assert "executed" in names
            assert "plan_step" in names
            # The process-global tracer saw none of it.
            assert not get_tracer().enabled
            assert len(get_tracer()) == 0
        finally:
            runtime.shutdown()

    def test_trace_carries_into_parallel_plan_steps(self, bigdawg):
        runtime = PolystoreRuntime(bigdawg, workers=2)
        try:
            _, tracer = runtime.trace(
                "RELATIONAL(SELECT count(*) AS n FROM CAST(wave_copy, relational)"
                " WHERE value >= 0)"
            )
            assert "cast" in tracer.span_names()
        finally:
            runtime.shutdown()

    def test_sampled_tracing_records_one_in_n(self, bigdawg):
        runtime = PolystoreRuntime(bigdawg, workers=1)
        previous = set_tracer(Tracer(enabled=True, sample_every=3))
        try:
            for _ in range(6):
                runtime.execute(
                    "RELATIONAL(SELECT count(*) AS n FROM patients)",
                    use_cache=False,
                )
            tracer = get_tracer()
            assert len(tracer.spans("query")) == 2  # queries 0 and 3
            assert tracer.sampled == 2
            assert tracer.unsampled == 4
        finally:
            set_tracer(previous)
            runtime.shutdown()

    def test_trace_is_rejected_after_shutdown(self, bigdawg):
        runtime = PolystoreRuntime(bigdawg, workers=1)
        runtime.shutdown()
        with pytest.raises(RuntimeError, match="shut down"):
            runtime.trace("RELATIONAL(SELECT 1)")
