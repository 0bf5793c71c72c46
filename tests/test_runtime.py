"""Tests for the concurrent polystore runtime: scheduler, admission control,
versioned result cache, runtime metrics, sessions, and the concurrency-safety
fixes that ride along (temp-table scoping, run-time cast elision, full-rank
array cast dimensions).

``TestResultCache`` fails if the result cache stops admitting by frequency:
on a seeded Zipf(1.1) stream its hit ratio must beat an LRU model of the
same stream by 5 points, a scan of one-off keys must leave 90 % of a warm
hot set cached, a dead LRU entry must always give way, a refused result
must stay readable as stale, and the frequency sketch must keep one size
over 100k distinct keys.  Eight threads share one cache with a 10 us switch
interval and must keep its size bound and its hit/miss counts.  CI runs the
tier-1 suite under ``python -X dev``, so the debug allocator and warnings
are on for these tests too.
"""

from __future__ import annotations

import sys
import threading
import time

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.cancellation import CancellationToken, cancel_scope, current_token
from repro.common.errors import CatalogError, DeadlineExceededError
from repro.common.schema import Relation, Schema
from repro.core.bigdawg import BigDawg
from repro.core.query.planner import BindingStep, CastStep, IslandQueryStep
from repro.engines.array import ArrayEngine
from repro.engines.keyvalue import KeyValueEngine
from repro.engines.relational import RelationalEngine
from repro.observability.tracing import Tracer, get_tracer, set_tracer, tracer_scope
from repro.runtime import (
    AdmissionController,
    AdmissionTimeout,
    EngineResilience,
    FaultInjector,
    MemoryJournalBackend,
    PolystoreRuntime,
    ResultCache,
    RetryPolicy,
    RuntimeMetrics,
    WriteIntentJournal,
)


def reference_normalize_query(query: str) -> str:
    """``normalize_query`` one character at a time, quoted or not: the loop
    the whitespace-only fast path has to agree with."""
    result: list[str] = []
    quote: str | None = None
    pending_space = False
    for ch in query:
        if quote is not None:
            result.append(ch)
            if ch == quote:
                quote = None
        elif ch.isspace():
            pending_space = True
        else:
            if pending_space and result:
                result.append(" ")
            pending_space = False
            if ch in ("'", '"'):
                quote = ch
            result.append(ch)
    return "".join(result)


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
    # A second array reserved for CAST traffic, so cast queries do not
    # re-point the catalog entry the array-island reads rely on.
    scidb.load_numpy("wave_copy", np.arange(6, dtype=float).reshape(2, 3))
    accumulo.create_table("notes", text_indexed=True)
    accumulo.put("notes", "p1", "doctor", "n1", "very sick patient")
    accumulo.put("notes", "p2", "doctor", "n1", "recovering well")
    return bd


@pytest.fixture()
def runtime(bigdawg) -> PolystoreRuntime:
    rt = PolystoreRuntime(bigdawg, workers=4)
    yield rt
    rt.shutdown()


# ---------------------------------------------------------------- versioning
class TestWriteVersions:
    def test_import_and_drop_bump_write_version(self):
        engine = RelationalEngine("pg")
        schema = Schema([("id", "integer"), ("v", "float")])
        before = engine.write_version
        engine.import_relation("t", Relation(schema, [[1, 0.5]]))
        assert engine.write_version > before
        mid = engine.write_version
        engine.drop_object("t")
        assert engine.write_version > mid

    def test_native_dml_bumps_write_version(self):
        engine = RelationalEngine("pg")
        engine.execute("CREATE TABLE t (id INTEGER)")
        v1 = engine.write_version
        engine.execute("INSERT INTO t VALUES (1)")
        assert engine.write_version > v1
        v2 = engine.write_version
        engine.execute("SELECT count(*) FROM t")
        assert engine.write_version == v2  # reads do not bump

    def test_array_and_keyvalue_native_mutations_bump(self):
        scidb = ArrayEngine("scidb")
        v0 = scidb.write_version
        scidb.load_numpy("a", np.zeros((2, 2)))
        assert scidb.write_version > v0
        accumulo = KeyValueEngine("acc")
        accumulo.create_table("t")
        v1 = accumulo.write_version
        accumulo.put("t", "r1", "f", "q", 1)
        assert accumulo.write_version > v1

    def test_catalog_version_bumps_on_metadata_mutations(self, bigdawg):
        v0 = bigdawg.catalog.version
        bigdawg.catalog.register_object("waves", "scidb", "array", replace=True)
        v1 = bigdawg.catalog.version
        assert v1 > v0
        bigdawg.catalog.unregister_object("nonexistent")  # no-op: no bump
        assert bigdawg.catalog.version == v1


# ------------------------------------------------------------------ admission
class TestAdmission:
    def test_slots_bound_concurrency(self):
        controller = AdmissionController(slots_per_engine=2, timeout=5.0)
        active, peak = [0], [0]
        lock = threading.Lock()

        def worker():
            with controller.admit(["postgres"]):
                with lock:
                    active[0] += 1
                    peak[0] = max(peak[0], active[0])
                time.sleep(0.02)
                with lock:
                    active[0] -= 1

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert peak[0] <= 2
        assert controller.gate("postgres").admitted == 8

    def test_timeout_raises_admission_timeout(self):
        controller = AdmissionController(slots_per_engine=1, timeout=0.05)
        release = threading.Event()

        def holder():
            with controller.admit(["scidb"]):
                release.wait(2.0)

        thread = threading.Thread(target=holder)
        thread.start()
        time.sleep(0.02)  # let the holder take the only slot
        with pytest.raises(AdmissionTimeout):
            with controller.admit(["scidb"]):
                pass
        assert controller.gate("scidb").timed_out == 1
        release.set()
        thread.join()

    def test_fifo_order(self):
        controller = AdmissionController(slots_per_engine=1, timeout=5.0)
        order: list[int] = []
        started = threading.Event()

        def holder():
            with controller.admit(["e"]):
                started.set()
                time.sleep(0.05)

        def waiter(rank: int):
            with controller.admit(["e"]):
                order.append(rank)

        hold = threading.Thread(target=holder)
        hold.start()
        started.wait()
        waiters = []
        for rank in range(4):
            t = threading.Thread(target=waiter, args=(rank,))
            t.start()
            waiters.append(t)
            time.sleep(0.01)  # stagger arrivals so FIFO order is observable
        hold.join()
        for t in waiters:
            t.join()
        assert order == [0, 1, 2, 3]

    def test_multi_engine_admission_sorted(self):
        controller = AdmissionController(slots_per_engine=1, timeout=1.0)
        # Overlapping engine sets acquired concurrently must not deadlock.
        def worker(engines):
            for _ in range(5):
                with controller.admit(engines):
                    time.sleep(0.001)

        threads = [
            threading.Thread(target=worker, args=(["a", "b"],)),
            threading.Thread(target=worker, args=(["b", "a"],)),
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert controller.gate("a").admitted == 10


# ---------------------------------------------------------------------- cache
class TestResultCache:
    def test_hit_after_store_and_whitespace_normalization(self, bigdawg):
        cache = ResultCache(bigdawg.catalog)
        result = bigdawg.execute("RELATIONAL(SELECT count(*) AS n FROM patients)")
        fp = cache.fingerprint()
        assert cache.put("RELATIONAL(SELECT count(*) AS n FROM patients)", result, fp)
        hit = cache.get("RELATIONAL(SELECT   count(*) AS n\n FROM patients)")
        assert hit is not None and hit.rows[0]["n"] == 4
        assert cache.hits == 1

    def test_invalidated_by_cast(self, bigdawg):
        cache = ResultCache(bigdawg.catalog)
        result = bigdawg.execute("ARRAY(aggregate(waves, avg(value)))")
        cache.put("q", result, cache.fingerprint())
        bigdawg.cast("wave_copy", "postgres")
        assert cache.get("q") is None
        assert cache.invalidations == 1

    def test_invalidated_by_native_dml(self, bigdawg):
        cache = ResultCache(bigdawg.catalog)
        result = bigdawg.execute("RELATIONAL(SELECT count(*) AS n FROM patients)")
        cache.put("q", result, cache.fingerprint())
        bigdawg.engine("postgres").execute("INSERT INTO patients VALUES (5, 30)")
        assert cache.get("q") is None

    def test_put_refused_when_state_moved(self, bigdawg):
        cache = ResultCache(bigdawg.catalog)
        fp = cache.fingerprint()
        result = bigdawg.execute("RELATIONAL(SELECT count(*) AS n FROM patients)")
        bigdawg.engine("postgres").execute("INSERT INTO patients VALUES (6, 50)")
        assert cache.put("q", result, fp) is False
        assert len(cache) == 0

    def test_normalization_preserves_literal_whitespace(self, bigdawg):
        from repro.runtime.cache import normalize_query

        assert normalize_query("SELECT  a \n FROM t") == "SELECT a FROM t"
        # Whitespace inside string literals is significant: these are
        # different queries and must not share a cache key.
        single = normalize_query('TEXT(SEARCH notes FOR "chest pain")')
        double = normalize_query('TEXT(SEARCH notes FOR "chest  pain")')
        assert single != double

    @settings(max_examples=300, deadline=None)
    @given(
        st.text(
            alphabet=st.sampled_from(list("ab'\" \t\n\r\x0b\x0c\x1c\x1f\x85\xa0\u2003\u3000")),
            max_size=40,
        )
        | st.text(max_size=40)
    )
    def test_normalization_fast_path_agrees_with_the_character_loop(self, query):
        from repro.runtime.cache import normalize_query

        assert normalize_query(query) == reference_normalize_query(query)

    def test_invalidated_by_transaction_rollback(self, bigdawg):
        cache = ResultCache(bigdawg.catalog)
        engine = bigdawg.engine("postgres")
        txn = engine.begin()
        engine.insert_rows("patients", [[50, 45]])
        result = bigdawg.execute("RELATIONAL(SELECT count(*) AS n FROM patients)")
        cache.put("q", result, cache.fingerprint())
        txn.rollback()
        # The rolled-back insert was visible when the entry was stored.
        assert cache.get("q") is None

    def test_with_query_churn_does_not_invalidate_cache(self, bigdawg):
        cache = ResultCache(bigdawg.catalog)
        with_query = (
            "WITH seniors = RELATIONAL(SELECT id FROM patients WHERE age > 65) "
            "RELATIONAL(SELECT count(*) AS n FROM seniors)"
        )
        bigdawg.execute(with_query)  # warm-up: lazily creates the temp engine
        result = bigdawg.execute("RELATIONAL(SELECT count(*) AS n FROM patients)")
        cache.put("q", result, cache.fingerprint())
        # Temp materialization and retirement are ephemeral churn: the
        # unrelated cached entry must survive a WITH query.
        bigdawg.execute(with_query)
        assert cache.get("q") is not None
        assert bigdawg.catalog.temp_version > 0

    def test_replacing_existing_temp_name_invalidates(self, bigdawg):
        cache = ResultCache(bigdawg.catalog)
        schema = Schema([("id", "integer")])
        bigdawg.materialize_temporary("scratchpad", Relation(schema, [[1]]))
        result = bigdawg.execute("RELATIONAL(SELECT count(*) AS n FROM scratchpad)")
        cache.put("q", result, cache.fingerprint())
        # Re-materializing the *same* name changes visible content.
        bigdawg.materialize_temporary("scratchpad", Relation(schema, [[1], [2]]))
        assert cache.get("q") is None
        bigdawg.drop_temporary("scratchpad")

    def test_lru_eviction(self, bigdawg):
        cache = ResultCache(bigdawg.catalog, capacity=2)
        relation = bigdawg.execute("RELATIONAL(SELECT count(*) AS n FROM patients)")
        fp = cache.fingerprint()
        for key in ("a", "b", "c"):
            cache.put(key, relation, fp)
        assert len(cache) == 2
        assert cache.get("a") is None  # evicted as least recently used
        assert cache.get("c") is not None

    def test_a_hit_shares_the_stored_relation_and_stale_reads_never_flag_it(self, bigdawg):
        cache = ResultCache(bigdawg.catalog, keep_stale=True)
        result = bigdawg.execute("RELATIONAL(SELECT id, age FROM patients)")
        rows = result.rows
        assert cache.put("q", result, cache.fingerprint())
        # No copy per hit: the stored relation, with the rows already built.
        hit = cache.get("q")
        assert hit is result and hit.rows is rows and cache.get("q") is result
        stale = cache.get_stale("q")
        assert stale is not result and stale.stale is True
        assert stale.rows == rows and stale.column_vector(0) is result.column_vector(0)
        assert result.stale is False and cache.get("q").stale is False
        # Invalidated, the entry moves to the stale buffer, still unflagged.
        bigdawg.engine("postgres").execute("INSERT INTO patients VALUES (9, 19)")
        assert cache.get("q") is None
        assert cache.get_stale("q").stale is True and result.stale is False

    # ------------------------------------------------- frequency admission
    @staticmethod
    def _serve(cache, relation, query):
        """One runtime lookup: get, and on a miss store the result."""
        if cache.get(query) is not None:
            return True
        cache.put(query, relation, cache.fingerprint())
        return False

    def test_zipf_traffic_beats_lru(self, bigdawg):
        from collections import OrderedDict

        capacity, keys, lookups = 64, 16 * 64, 40_000
        rng = np.random.default_rng(11)
        weights = 1.0 / np.arange(1, keys + 1) ** 1.1
        stream = [f"q{k}" for k in rng.choice(keys, size=lookups, p=weights / weights.sum())]
        lru: OrderedDict[str, None] = OrderedDict()
        lru_hits = 0
        for query in stream:
            if query in lru:
                lru.move_to_end(query)
                lru_hits += 1
            else:
                lru[query] = None
                if len(lru) > capacity:
                    lru.popitem(last=False)
        cache = ResultCache(bigdawg.catalog, capacity=capacity)
        relation = bigdawg.execute("RELATIONAL(SELECT count(*) AS n FROM patients)")
        hits = sum(self._serve(cache, relation, query) for query in stream)
        assert hits == cache.hits and cache.hits + cache.misses == lookups
        assert hits / lookups >= lru_hits / lookups + 0.05
        assert cache.describe()["refused"] == cache.refused > 0

    def test_a_scan_of_one_off_keys_leaves_the_hot_set_cached(self, bigdawg):
        capacity = 64
        cache = ResultCache(bigdawg.catalog, capacity=capacity)
        relation = bigdawg.execute("RELATIONAL(SELECT count(*) AS n FROM patients)")
        hot = [f"hot{i}" for i in range(capacity)]
        for _ in range(3):
            for query in hot:
                self._serve(cache, relation, query)
        for i in range(4 * capacity):
            self._serve(cache, relation, f"scan{i}")
        assert sum(cache.get(query) is not None for query in hot) >= 0.9 * capacity

    def test_a_dead_lru_entry_is_evicted_for_a_cold_newcomer(self, bigdawg):
        cache = ResultCache(bigdawg.catalog, capacity=2)
        relation = bigdawg.execute("RELATIONAL(SELECT count(*) AS n FROM patients)")
        for query in ("a", "b"):
            for _ in range(5):
                self._serve(cache, relation, query)
        # Both entries are popular but dead once the polystore moves.
        bigdawg.engine("postgres").execute("INSERT INTO patients VALUES (7, 33)")
        assert cache.put("cold", relation, cache.fingerprint())
        assert len(cache) == 2 and cache.refused == 0 and cache.evictions == 1
        assert cache.get("cold") is relation

    def test_a_refused_newcomer_is_kept_for_stale_reads(self, bigdawg):
        cache = ResultCache(bigdawg.catalog, capacity=2, keep_stale=True)
        relation = bigdawg.execute("RELATIONAL(SELECT count(*) AS n FROM patients)")
        for query in ("a", "b"):
            for _ in range(5):
                self._serve(cache, relation, query)
        assert self._serve(cache, relation, "cold") is False
        assert cache.refused == 1 and len(cache) == 2
        assert cache.get("cold") is None
        stale = cache.get_stale("cold")
        assert stale is not None and stale.stale is True
        assert stale.column_vector(0) is relation.column_vector(0)

    def test_the_sketch_stays_one_size_however_many_keys_arrive(self, bigdawg):
        cache = ResultCache(bigdawg.catalog, capacity=16)
        counts = cache._sketch._counts
        size, footprint = len(counts), sys.getsizeof(counts)
        for i in range(100_000):
            cache.get(f"distinct{i}")
        counts = cache._sketch._counts
        assert len(counts) == size and sys.getsizeof(counts) == footprint
        assert cache.misses == 100_000 and len(cache) == 0

    def test_threads_sharing_one_cache_keep_its_bounds_and_counts(self, bigdawg):
        cache = ResultCache(bigdawg.catalog, capacity=32)
        relation = bigdawg.execute("RELATIONAL(SELECT count(*) AS n FROM patients)")
        lookups = [0] * 8
        errors: list[Exception] = []
        deadline = time.monotonic() + 1.0

        def client(slot: int) -> None:
            rng = np.random.default_rng(slot)
            try:
                while time.monotonic() < deadline:
                    for key in rng.integers(0, 128, size=64):
                        self._serve(cache, relation, f"k{key}")
                        lookups[slot] += 1
            except Exception as error:  # noqa: BLE001 - surfaced below
                errors.append(error)

        threads = [threading.Thread(target=client, args=(slot,)) for slot in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert len(cache) <= cache.capacity
        assert cache.hits + cache.misses == sum(lookups) > 0


# -------------------------------------------------------------------- planner
class TestPlannerConcurrencySupport:
    def test_plan_dependencies_allow_parallel_bindings(self, bigdawg):
        plan = bigdawg.plan(
            "WITH old = RELATIONAL(SELECT id FROM patients WHERE age > 70) "
            "WITH young = RELATIONAL(SELECT id FROM patients WHERE age < 50) "
            "RELATIONAL(SELECT count(*) AS n FROM old)"
        )
        kinds = [type(step) for step in plan.steps]
        assert kinds == [BindingStep, BindingStep, IslandQueryStep]
        deps = plan.step_dependencies()
        # The two bindings are mutually independent; the final query waits.
        assert deps[0] == set() and deps[1] == set()
        assert deps[2] == {0, 1}

    def test_dependent_binding_waits_for_referenced_binding(self, bigdawg):
        plan = bigdawg.plan(
            "WITH old = RELATIONAL(SELECT id, age FROM patients WHERE age > 60) "
            "WITH oldest = RELATIONAL(SELECT id FROM old WHERE age > 75) "
            "RELATIONAL(SELECT count(*) AS n FROM oldest)"
        )
        deps = plan.step_dependencies()
        assert 0 in deps[1]  # `oldest` reads `old`

    def test_with_binding_temporaries_dropped_after_plan(self, bigdawg):
        query = (
            "WITH seniors = RELATIONAL(SELECT id, age FROM patients WHERE age >= 64) "
            "RELATIONAL(SELECT count(*) AS n FROM seniors WHERE age >= 70)"
        )
        for _ in range(3):  # repeated runs must not accumulate state
            result = bigdawg.execute(query)
            assert result.rows[0]["n"] == 2
        leftovers = [o.name for o in bigdawg.catalog.objects() if o.properties.get("temporary")]
        assert leftovers == []
        assert all(
            not name.startswith("seniors")
            for name in bigdawg.engine("postgres").list_objects()
        )

    def test_runtime_cast_elision_on_stale_plan(self, bigdawg):
        query = "RELATIONAL(SELECT count(*) AS n FROM CAST(wave_copy, relational) WHERE value > 1)"
        plan = bigdawg.plan(query)
        assert any(isinstance(step, CastStep) for step in plan.steps)
        # The object moves between planning and execution (e.g. a concurrent
        # plan or an advisor migration): the stale CastStep must become a no-op.
        bigdawg.cast("wave_copy", "postgres")
        casts_before = len(bigdawg.migrator.history)
        result = bigdawg.planner.execute_plan(plan)
        assert result.rows[0]["n"] == 4
        assert len(bigdawg.migrator.history) == casts_before  # no re-migration

    def test_three_dimension_cast_keeps_all_dimensions(self, bigdawg):
        postgres = bigdawg.engine("postgres")
        postgres.execute(
            "CREATE TABLE cube (x INTEGER, y INTEGER, z INTEGER, value FLOAT)"
        )
        postgres.execute(
            "INSERT INTO cube VALUES (0,0,0,1.0), (1,0,1,2.0), (0,1,0,3.0), (1,1,1,4.0)"
        )
        bigdawg.catalog.register_object("cube", "postgres", "table", replace=True)
        result = bigdawg.execute("ARRAY(aggregate(CAST(cube, array), avg(value)))")
        assert float(result.rows[0].values[0]) == pytest.approx(2.5)
        stored = bigdawg.engine("scidb").array("cube")
        # Regression: dims used to be truncated to the first two columns.
        assert [d.name for d in stored.schema.dimensions] == ["x", "y", "z"]


# -------------------------------------------------------------------- runtime
class TestPolystoreRuntime:
    MIXED = [
        "RELATIONAL(SELECT count(*) AS n FROM patients WHERE age > 60)",
        "ARRAY(aggregate(waves, avg(value)))",
        'TEXT(SEARCH notes FOR "very sick")',
        "RELATIONAL(SELECT avg(age) AS a FROM patients)",
    ]

    def test_results_match_serial_execution(self, bigdawg, runtime):
        serial = [bigdawg.execute(q).to_dicts() for q in self.MIXED]
        concurrent = [r.to_dicts() for r in runtime.execute_many(self.MIXED * 3)]
        assert concurrent == (serial * 3)

    def test_repeated_query_hits_cache(self, bigdawg, runtime):
        query = self.MIXED[0]
        runtime.execute(query)
        runtime.execute(query)
        assert runtime.cache.hits >= 1
        assert runtime.metrics.cache_hits >= 1
        # Native DML invalidates: the third run recomputes.
        bigdawg.engine("postgres").execute("INSERT INTO patients VALUES (9, 90)")
        result = runtime.execute(query)
        assert result.rows[0]["n"] == 4  # now four patients over 60

    def test_mutating_query_is_not_cached(self, bigdawg, runtime):
        runtime.execute("RELATIONAL(INSERT INTO patients VALUES (10, 55))")
        assert len(runtime.cache) == 0

    def test_with_query_temporaries_scoped_per_execution(self, bigdawg, runtime):
        query = (
            "WITH seniors = RELATIONAL(SELECT id, age FROM patients WHERE age >= 64) "
            "RELATIONAL(SELECT count(*) AS n FROM seniors WHERE age >= 70)"
        )
        results = runtime.execute_many([query] * 6)
        assert all(r.rows[0]["n"] == 2 for r in results)
        leftovers = [o.name for o in bigdawg.catalog.objects() if o.properties.get("temporary")]
        assert leftovers == []

    def test_runtime_feeds_execution_monitor(self, bigdawg, runtime):
        runtime.execute(self.MIXED[0], use_cache=False)
        runtime.execute(self.MIXED[1], use_cache=False)
        classes = {o.query_class for o in bigdawg.monitor.observations}
        assert "runtime_relational" in classes
        assert "runtime_array" in classes

    def test_metrics_snapshot(self, runtime):
        runtime.execute_many(self.MIXED)
        snap = runtime.metrics.snapshot(queue_depth=runtime.admission.queue_depth())
        assert snap["completed"] == 4
        assert snap["failed"] == 0
        assert snap["latency_p50_s"] is not None
        assert snap["latency_p95_s"] >= snap["latency_p50_s"]
        assert snap["queue_depth"] == 0
        assert runtime.metrics.throughput() > 0

    def test_failed_query_counted_and_raised(self, runtime):
        with pytest.raises(Exception):
            runtime.execute("RELATIONAL(SELECT * FROM no_such_table)")
        assert runtime.metrics.failed == 1

    def test_session_scoped_temporaries(self, bigdawg, runtime):
        schema = Schema([("id", "integer")])
        with runtime.session() as session:
            physical = session.materialize("scratch", Relation(schema, [[1], [2]]))
            result = session.execute(
                f"RELATIONAL(SELECT count(*) AS n FROM {physical})"
            )
            assert result.rows[0]["n"] == 2
            assert session.queries_submitted == 1
        assert not bigdawg.catalog.has_object(physical)
        with pytest.raises(RuntimeError):
            session.execute("RELATIONAL(SELECT 1)")

    def test_drop_temporary_refuses_persistent_objects(self, bigdawg):
        with pytest.raises(CatalogError):
            bigdawg.drop_temporary("patients")
        assert bigdawg.catalog.has_object("patients")

    def test_runtime_accessor_is_lazy_singleton(self, bigdawg):
        rt = bigdawg.runtime(workers=2)
        assert bigdawg.runtime() is rt
        rt.shutdown()

    def test_sessions_unique_across_runtimes(self, bigdawg):
        with PolystoreRuntime(bigdawg, workers=1) as rt1, \
                PolystoreRuntime(bigdawg, workers=1) as rt2:
            with rt1.session() as s1, rt2.session() as s2:
                # Distinct ids even across runtimes, so session temp names
                # (name__s<id>) can never collide on the shared temp engine.
                assert s1.id != s2.id
                schema = Schema([("id", "integer")])
                p1 = s1.materialize("tmp", Relation(schema, [[1]]))
                p2 = s2.materialize("tmp", Relation(schema, [[1], [2]]))
                assert p1 != p2
                assert s1.execute(
                    f"RELATIONAL(SELECT count(*) AS n FROM {p1})"
                ).rows[0]["n"] == 1
                assert s2.execute(
                    f"RELATIONAL(SELECT count(*) AS n FROM {p2})"
                ).rows[0]["n"] == 2


# ---------------------------------------------------------------------------
# execute() serves on the caller's thread; submit() goes through the pool
# ---------------------------------------------------------------------------
class TestCallerThread:
    QUERY = "RELATIONAL(SELECT count(*) AS n FROM patients WHERE age > 60)"

    @staticmethod
    def engine_threads(bigdawg, monkeypatch, before=None) -> list[str]:
        """Names of the threads postgres's SQL calls run on, from now on;
        ``before`` (if given) runs first inside each call."""
        threads: list[str] = []
        postgres = bigdawg.engine("postgres")
        original = postgres.execute

        def execute(sql):
            threads.append(threading.current_thread().name)
            if before is not None:
                before()
            return original(sql)

        monkeypatch.setattr(postgres, "execute", execute)
        return threads

    def test_execute_calls_the_engine_on_the_calling_thread(
        self, bigdawg, runtime, monkeypatch
    ):
        threads = self.engine_threads(bigdawg, monkeypatch)
        assert runtime.execute(self.QUERY, use_cache=False).rows[0]["n"] == 3
        runtime.trace(self.QUERY)
        with runtime.session() as session:
            session.execute(self.QUERY, use_cache=False)
        assert threads == [threading.current_thread().name] * 3

    def test_submit_and_execute_many_use_pool_threads_and_record_queue_wait(
        self, bigdawg, runtime, monkeypatch
    ):
        threads = self.engine_threads(bigdawg, monkeypatch)
        tracer = Tracer(enabled=True)
        previous = set_tracer(tracer)
        try:
            assert runtime.submit(self.QUERY, use_cache=False).result().rows[0]["n"] == 3
            runtime.execute_many([self.QUERY] * 3, use_cache=False)
        finally:
            set_tracer(previous)
        assert len(threads) == 4
        assert all(name.startswith("bigdawg-runtime") for name in threads)
        assert len(tracer.spans("queued")) == 4

    def test_deadline_cancels_mid_batch_on_the_calling_thread(
        self, bigdawg, monkeypatch
    ):
        postgres = bigdawg.engine("postgres")
        postgres._batch_executor._batch_rows = 64
        postgres.execute("CREATE TABLE big (id INTEGER PRIMARY KEY, v INTEGER)")
        postgres.insert_rows("big", [(i, i % 7) for i in range(4000)])
        ticks = [0.0]

        def clock() -> float:  # every read is one "second"
            ticks[0] += 1.0
            return ticks[0]

        threads = self.engine_threads(bigdawg, monkeypatch)
        resilience = EngineResilience(
            retry=RetryPolicy(max_attempts=1), clock=clock, sleep=lambda s: None
        )
        with PolystoreRuntime(bigdawg, workers=2, resilience=resilience) as runtime:
            with pytest.raises(DeadlineExceededError):
                runtime.execute("RELATIONAL(SELECT sum(v) AS s FROM big)",
                                use_cache=False, deadline_s=30.0)
        assert threads == [threading.current_thread().name]
        # One token poll per 64-row batch: the scan stopped within a batch
        # of the deadline, far short of the ~62 batches it needs.
        assert ticks[0] < 45.0

    def test_tracer_and_cancel_scopes_are_restored_after_return_and_raise(self, runtime):
        def scopes():
            return get_tracer(), current_token()

        bare = scopes()
        assert bare[1] is None
        runtime.execute(self.QUERY, use_cache=False)
        assert scopes() == bare
        with pytest.raises(Exception):
            runtime.execute("RELATIONAL(SELECT * FROM no_such_table)")
        assert scopes() == bare
        outer = (Tracer(enabled=False), CancellationToken())
        with tracer_scope(outer[0]), cancel_scope(outer[1]):
            runtime.trace(self.QUERY)
            assert scopes() == outer
            with pytest.raises(Exception):
                runtime.trace("RELATIONAL(SELECT * FROM no_such_table)")
            assert scopes() == outer
        assert scopes() == bare

    def test_execute_after_shutdown_raises_and_a_running_call_finishes(
        self, bigdawg, monkeypatch
    ):
        entered, release = threading.Event(), threading.Event()

        def hold():
            entered.set()
            assert release.wait(10)

        self.engine_threads(bigdawg, monkeypatch, before=hold)
        runtime = PolystoreRuntime(bigdawg, workers=1)
        results: list[Relation] = []
        caller = threading.Thread(
            target=lambda: results.append(runtime.execute(self.QUERY, use_cache=False))
        )
        caller.start()
        try:
            assert entered.wait(10)
            runtime.shutdown()
            for entry in (runtime.execute, runtime.trace, runtime.submit):
                with pytest.raises(RuntimeError, match="shut down"):
                    entry(self.QUERY)
        finally:
            release.set()
            caller.join(10)
        assert [r.rows[0]["n"] for r in results] == [3]

    def test_execute_never_touches_the_pool(self, runtime):
        class NoPool:
            def __getattr__(self, name):
                raise AssertionError(f"execute() used the pool's {name!r}")

        pool, runtime._pool = runtime._pool, NoPool()
        try:
            runtime.execute(self.QUERY)              # miss
            runtime.execute(self.QUERY)              # hit
            runtime.execute("RELATIONAL(INSERT INTO patients VALUES (5, 90))")
            runtime.trace(self.QUERY)
        finally:
            runtime._pool = pool
        assert runtime.metrics.cache_hits >= 1


# --------------------------------------------------------------------- stress
class TestConcurrencyStress:
    def test_mixed_reads_casts_and_with_queries(self, bigdawg):
        """N threads of mixed traffic: results must match serial execution,
        catalog updates must not be lost, and the cache must be invalidated
        by every mutation."""
        reads = [
            "RELATIONAL(SELECT count(*) AS n FROM patients WHERE age > 60)",
            "ARRAY(aggregate(waves, avg(value)))",
            'TEXT(SEARCH notes FOR "very sick")',
            (
                "WITH seniors = RELATIONAL(SELECT id, age FROM patients WHERE age >= 64) "
                "RELATIONAL(SELECT count(*) AS n FROM seniors WHERE age >= 70)"
            ),
        ]
        expected = [bigdawg.execute(q).to_dicts() for q in reads]
        cast_query = (
            "RELATIONAL(SELECT count(*) AS n FROM CAST(wave_copy, relational) WHERE value >= 0)"
        )
        expected_cast = {"n": 6}
        with PolystoreRuntime(bigdawg, workers=8) as runtime:
            futures = []
            for round_index in range(6):
                for query in reads:
                    futures.append((query, runtime.submit(query)))
                futures.append((cast_query, runtime.submit(cast_query)))
            outcomes = [(query, future.result()) for query, future in futures]
        for query, result in outcomes:
            if query == cast_query:
                assert result.to_dicts() == [expected_cast]
            else:
                assert result.to_dicts() == expected[reads.index(query)]
        # No lost catalog updates: every object is still locatable.
        for name in ("patients", "waves", "notes", "wave_copy"):
            assert bigdawg.catalog.has_object(name)
        # No temp leaks from the concurrent WITH executions.
        assert [o.name for o in bigdawg.catalog.objects() if o.properties.get("temporary")] == []
        # The object was cast exactly once; later plans skipped or elided it.
        casts = [r for r in bigdawg.migrator.history if r.object_name == "wave_copy"]
        assert len(casts) == 1

    def test_cache_invalidation_under_writer_thread(self, bigdawg):
        """A writer mutating the relational engine concurrently with readers:
        every served result must reflect a state at least as fresh as the
        last write that preceded its fingerprint check."""
        query = "RELATIONAL(SELECT count(*) AS n FROM patients)"
        stop = threading.Event()
        inserted = [0]

        def writer():
            next_id = 100
            while not stop.is_set():
                bigdawg.engine("postgres").execute(
                    f"INSERT INTO patients VALUES ({next_id}, 20)"
                )
                inserted[0] += 1
                next_id += 1
                time.sleep(0.002)

        thread = threading.Thread(target=writer)
        thread.start()
        try:
            with PolystoreRuntime(bigdawg, workers=4) as runtime:
                counts = [r.rows[0]["n"] for r in runtime.execute_many([query] * 40)]
        finally:
            stop.set()
            thread.join()
        # Counts are monotone in time but arrive unordered; the set of values
        # must stay within what the writer produced.
        assert all(4 <= count <= 4 + inserted[0] for count in counts)
        final = bigdawg.execute(query).rows[0]["n"]
        assert final == 4 + inserted[0]  # no lost inserts

    def test_scans_race_inserts_on_one_table(self, bigdawg):
        """One client inserts while another runs UPDATE-by-predicate,
        DELETE-by-predicate and full-scan SELECTs on the same table: every
        scan iterates a snapshot, so none dies with "dictionary changed size
        during iteration" and no write is lost."""
        seeded, ops = 500, 1000
        postgres = bigdawg.engine("postgres")
        postgres.execute("CREATE TABLE vitals (id INTEGER PRIMARY KEY, hr INTEGER)")
        postgres.insert_rows("vitals", [(i, i % 200) for i in range(seeded)])
        errors: list[BaseException] = []
        deleted = [0]

        def client(statements):
            try:
                for statement in statements:
                    runtime.execute(f"RELATIONAL({statement})", use_cache=False)
            except BaseException as exc:  # noqa: BLE001 - reported by the assert below
                errors.append(exc)

        def scanner_statements():
            for i in range(ops):
                if i % 3 == 0:
                    yield "UPDATE vitals SET hr = hr + 1 WHERE hr < 50"
                elif i % 3 == 1:
                    # Only seeded ids, which the inserter never touches: the
                    # model's row count stays exact.
                    yield f"DELETE FROM vitals WHERE id = {deleted[0]} AND hr >= 0"
                    deleted[0] += 1
                else:
                    yield "SELECT count(*) AS n, max(hr) AS hi FROM vitals"

        inserts = [f"INSERT INTO vitals VALUES ({10_000 + i}, {i % 200})" for i in range(ops)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with PolystoreRuntime(bigdawg, workers=4) as runtime:
                threads = [
                    threading.Thread(target=client, args=(inserts,)),
                    threading.Thread(target=client, args=(scanner_statements(),)),
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=120)
                assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
        assert errors == []
        final = postgres.execute("SELECT count(*) AS n FROM vitals").rows[0]["n"]
        assert final == seeded - deleted[0] + ops


# ---------------------------------------------------------------------------
# The in-memory journal is bounded
# ---------------------------------------------------------------------------
class TestMemoryJournalBound:
    def test_complete_dml_and_cast_intents_age_out(self):
        """A runtime journals every write; the memory backend used to keep
        every record for the life of the process (a few KB per query).
        Recovery never re-reads a complete DML or CAST intent, so only the
        newest few stay; open intents and promotions are never dropped."""
        backend = MemoryJournalBackend()
        journal = WriteIntentJournal(backend)
        kept = backend.COMPLETE_INTENTS_KEPT
        stuck = journal.begin("cast", object="stuck")            # never finishes
        stuck.mark("imported")
        election = journal.begin("promotion", object="waves")
        election.commit()
        for i in range(3 * kept):
            intent = journal.begin("dml" if i % 2 else "cast", n=i)
            intent.mark("applied")
            intent.abort() if i % 7 == 0 else intent.commit()
        states = journal.replay()
        assert len(states) == kept + 2
        assert len(backend.records()) == 3 * kept + 2 + 2
        assert [s.intent_id for s in states[:2]] == [stuck.intent_id, election.intent_id]
        assert [s.intent_id for s in journal.open_intents()] == [stuck.intent_id]
        assert states[1].committed and states[1].kind == "promotion"
        # The newest complete intents are the ones kept, whole and in order.
        assert [s.payload["n"] for s in states[2:]] == list(range(2 * kept, 3 * kept))
        assert all(s.complete and "applied" in s.steps for s in states[2:])
        seqs = [record["seq"] for record in backend.records()]
        assert seqs == sorted(seqs)
        # Counters and sequence numbers are the journal's, not the window's.
        assert journal.intents_written == 3 * kept + 2
        assert journal.begin("dml").intent_id > states[-1].intent_id


# ---------------------------------------------------------------------------
# The dispatch contract: what one query costs the layers around the engines
# ---------------------------------------------------------------------------
#: Spans the runtime itself opens around a query.
RUNTIME_SPANS = {
    "query", "queued", "planned", "executed", "plan_step", "admitted",
    "failover", "failover.write",
}


def runtime_span_edges(tracer: Tracer) -> list[str]:
    """``parent>child`` for every runtime span, its parent being the nearest
    enclosing runtime span (engine and CAST spans in between are skipped)."""
    spans = tracer.spans()
    by_id = {span.span_id: span for span in spans}
    edges = []
    for span in spans:
        if span.name not in RUNTIME_SPANS:
            continue
        parent = by_id.get(span.parent_id)
        while parent is not None and parent.name not in RUNTIME_SPANS:
            parent = by_id.get(parent.parent_id)
        edges.append(span.name if parent is None else f"{parent.name}>{span.name}")
    return sorted(edges)


class TestDispatchContract:
    """One ``EngineResilience.run`` and one ``AdmissionController.admit`` per
    dispatch (an island query, or each plan step), three journal records per
    DML, and the same runtime spans in the same nesting — what per-layer
    attribution of a query's time relies on."""

    ISLAND = ["executed>admitted", "query", "query>executed"]
    ONE_STEP = [
        "executed>plan_step", "plan_step>admitted", "query", "query>executed",
        "query>planned",
    ]
    TWO_STEPS = [
        "executed>plan_step", "executed>plan_step", "plan_step>admitted",
        "plan_step>admitted", "query", "query>executed", "query>planned",
    ]
    CASES = pytest.mark.parametrize(
        "query, dispatches, records, edges",
        [
            ("SELECT count(*) AS n FROM patients WHERE age > 60", 1, 0, ISLAND),
            ("INSERT INTO patients VALUES (5, 30)", 1, 3, ISLAND),
            ("RELATIONAL(SELECT count(*) AS n FROM patients WHERE age > 60)", 1, 0, ONE_STEP),
            ("RELATIONAL(INSERT INTO patients VALUES (5, 30))", 1, 3, ONE_STEP),
            # The CAST journals itself (begin, imported, renamed, catalog, commit).
            ("RELATIONAL(SELECT count(*) AS n FROM CAST(wave_copy, relational))", 2, 5, TWO_STEPS),
            (
                "WITH seniors = RELATIONAL(SELECT id, age FROM patients WHERE age >= 64) "
                "RELATIONAL(SELECT count(*) AS n FROM seniors WHERE age >= 70)",
                2, 0, TWO_STEPS,
            ),
        ],
        ids=[
            "island-read", "island-write", "scoped-read", "scoped-write",
            "cast-then-query", "with-binding",
        ],
    )

    @CASES
    def test_calls_records_and_spans_per_dispatch(
        self, runtime, monkeypatch, query, dispatches, records, edges
    ):
        observed = self.observe(
            runtime, monkeypatch, lambda: runtime.execute(query, use_cache=False)
        )
        assert observed == ({"run": dispatches, "admit": dispatches}, records, edges)

    @CASES
    def test_a_submitted_query_adds_only_its_queue_wait(
        self, runtime, monkeypatch, query, dispatches, records, edges
    ):
        observed = self.observe(
            runtime, monkeypatch, lambda: runtime.submit(query, use_cache=False).result()
        )
        expected_edges = sorted([*edges, "query>queued"])
        assert observed == ({"run": dispatches, "admit": dispatches}, records, expected_edges)

    @staticmethod
    def observe(runtime, monkeypatch, run) -> tuple[dict, int, list[str]]:
        """Resilience runs and admissions counted, journal records written,
        and runtime span edges, over one call of ``run``."""
        calls = {"run": 0, "admit": 0}

        def counted(name, method):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return method(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(EngineResilience, "run", counted("run", EngineResilience.run))
        monkeypatch.setattr(
            AdmissionController, "admit", counted("admit", AdmissionController.admit)
        )
        written = runtime.journal.records_written
        tracer = Tracer(enabled=True)
        previous = set_tracer(tracer)
        try:
            run()
        finally:
            set_tracer(previous)
        return calls, runtime.journal.records_written - written, runtime_span_edges(tracer)


# ---------------------------------------------------------------------------
# Object names come from the statement, never from its string literals
# ---------------------------------------------------------------------------
class TestLiteralObjectNames:
    """A string literal that spells a catalog object's name must not make
    the runtime claim, journal or fail over that object's engine."""

    @pytest.fixture(params=[True, False], ids=["replicated", "unreplicated"])
    def split(self, request):
        """patients on postgres (with or without a fresh replica on mysql),
        notes on mysql; postgres down and its breaker open."""
        bd = BigDawg()
        postgres = RelationalEngine("postgres")
        mysql = RelationalEngine("mysql")
        bd.add_engine(postgres, islands=["relational"])
        bd.add_engine(mysql, islands=["relational"])
        postgres.execute("CREATE TABLE patients (id INTEGER PRIMARY KEY, age INTEGER)")
        postgres.execute("INSERT INTO patients VALUES (1, 64), (2, 70)")
        mysql.execute("CREATE TABLE notes (id INTEGER PRIMARY KEY, body TEXT)")
        if request.param:
            bd.migrator.cast("patients", "mysql")
        rt = PolystoreRuntime(
            bd, workers=2,
            resilience=EngineResilience(
                retry=RetryPolicy(max_attempts=1), failure_threshold=1, cooldown_s=60.0,
            ),
        )
        injector = FaultInjector().outage()
        injector.install(postgres)
        rt.resilience.breaker("postgres").record_failure()
        yield bd, rt
        injector.uninstall()
        rt.shutdown()

    def test_a_literal_neither_claims_nor_elects_the_object_it_names(self, split):
        """Replicated, patients must not be promoted to mysql; unreplicated,
        postgres's open breaker must not refuse the write to mysql."""
        bd, rt = split
        rt.execute("RELATIONAL(INSERT INTO notes VALUES (1, 'it''s patients'))")
        rows = bd.engine("mysql").execute("SELECT body FROM notes").rows
        assert [row["body"] for row in rows] == ["it's patients"]
        assert bd.catalog.locate("patients").engine_name == "postgres"
        (intent,) = rt.journal.replay()
        assert intent.kind == "dml" and intent.committed
        assert intent.payload["engines"] == ["mysql"]
        assert intent.payload["tables"] == ["notes"]
        assert rt.metrics.snapshot()["failover_total"] == 0
