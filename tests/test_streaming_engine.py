"""Tests for the streaming engine: streams, windows, procedures, ingestion, recovery, aging."""

from __future__ import annotations

import numpy as np
import pytest

from repro.common.errors import DuplicateObjectError, IngestionError, SchemaError, TransactionError
from repro.common.schema import Schema
from repro.engines.array import ArrayEngine
from repro.engines.streaming import (
    AgingPolicy,
    FeedConnection,
    SlidingWindow,
    Stream,
    StreamingEngine,
    TumblingWindow,
)


FEED_SCHEMA = Schema([("signal_id", "integer"), ("sample_index", "integer"), ("value", "float")])


def make_stream(retention: float = 10.0) -> Stream:
    return Stream("feed", FEED_SCHEMA, retention_seconds=retention)


class TestStream:
    def test_append_and_order_enforced(self):
        stream = make_stream()
        stream.append(1.0, (0, 0, 1.5))
        stream.append(2.0, (0, 1, 1.6))
        with pytest.raises(IngestionError):
            stream.append(1.5, (0, 2, 1.7))
        assert len(stream) == 2
        assert stream.latest_timestamp == 2.0

    def test_retention_evicts_old_tuples(self):
        stream = make_stream(retention=5.0)
        for i in range(20):
            stream.append(float(i), (0, i, float(i)))
        assert stream.oldest_timestamp >= 19.0 - 5.0
        evicted = stream.drain_evicted()
        assert len(evicted) + len(stream) == 20
        assert stream.total_appended == 20

    def test_since(self):
        stream = make_stream()
        for i in range(5):
            stream.append(float(i), (0, i, 0.0))
        assert len(stream.since(3.0)) == 2

    def test_schema_validation(self):
        stream = make_stream()
        with pytest.raises(Exception):
            stream.append(0.0, ("not-an-int", 0, 1.0))


class TestWindows:
    def test_sliding_window_contents_and_aggregate(self):
        stream = make_stream()
        for i in range(10):
            stream.append(float(i), (0, i, float(i)))
        window = SlidingWindow(stream, size_seconds=3.0)
        contents = window.contents()
        assert [t.timestamp for t in contents] == [7.0, 8.0, 9.0]
        assert window.aggregate("value", lambda vs: sum(vs) / len(vs)) == pytest.approx(8.0)

    def test_sliding_window_slide_firing(self):
        stream = make_stream()
        window = SlidingWindow(stream, size_seconds=2.0, slide_seconds=1.0)
        assert window.should_fire(0.0)
        window.mark_fired(0.0)
        assert not window.should_fire(0.5)
        assert window.should_fire(1.0)

    def test_tumbling_window_is_aligned_and_disjoint(self):
        stream = make_stream()
        for i in range(10):
            stream.append(i * 0.5, (0, i, float(i)))
        window = TumblingWindow(stream, size_seconds=2.0)
        contents = window.contents(now=3.9)
        assert all(2.0 <= t.timestamp < 4.0 for t in contents)


class TestProceduresAndTransactions:
    def make_engine(self) -> StreamingEngine:
        engine = StreamingEngine(snapshot_interval=50)
        engine.create_stream("feed", FEED_SCHEMA, retention_seconds=100.0)
        return engine

    def test_procedure_runs_per_tuple_and_updates_state(self):
        engine = self.make_engine()

        def body(ctx):
            ctx.state["count"] = ctx.state.get("count", 0) + len(ctx.batch)

        engine.register_procedure("counter", "feed", body)
        for i in range(25):
            engine.append("feed", float(i), (0, i, 1.0))
        assert engine.procedure_state("counter")["count"] == 25
        assert engine.procedure("counter").invocations == 25
        assert len(engine.scheduler.committed) == 25

    def test_alerts_collected(self):
        engine = self.make_engine()

        def body(ctx):
            value = ctx.batch[-1].values[2]
            if value > 5.0:
                ctx.alert(kind="high", value=value)

        engine.register_procedure("alerter", "feed", body)
        for i in range(10):
            engine.append("feed", float(i), (0, i, float(i)))
        assert len(engine.alerts) == 4  # values 6..9

    def test_aborted_procedure_leaves_state_untouched(self):
        engine = self.make_engine()

        def body(ctx):
            ctx.state["count"] = ctx.state.get("count", 0) + 1
            if ctx.state["count"] == 3:
                raise ValueError("synthetic failure")

        engine.register_procedure("flaky", "feed", body)
        engine.append("feed", 0.0, (0, 0, 1.0))
        engine.append("feed", 1.0, (0, 1, 1.0))
        with pytest.raises(TransactionError):
            engine.append("feed", 2.0, (0, 2, 1.0))
        assert engine.procedure_state("flaky")["count"] == 2
        assert engine.scheduler.aborted == 1

    def test_emit_to_downstream_stream(self):
        engine = self.make_engine()
        engine.create_stream("derived", Schema([("value", "float")]), retention_seconds=100.0)

        def body(ctx):
            ctx.emit("derived", ctx.timestamp, (ctx.batch[-1].values[2] * 2,))

        engine.register_procedure("doubler", "feed", body)
        engine.append("feed", 0.0, (0, 0, 2.5))
        derived = engine.stream("derived")
        assert len(derived) == 1
        assert list(derived.tuples())[0].values[0] == 5.0

    def test_emit_to_unknown_stream_aborts(self):
        engine = self.make_engine()
        engine.register_procedure("bad", "feed", lambda ctx: ctx.emit("nowhere", 0.0, (1.0,)))
        with pytest.raises(TransactionError):
            engine.append("feed", 0.0, (0, 0, 1.0))

    def test_duplicate_names_rejected(self):
        engine = self.make_engine()
        engine.register_procedure("p", "feed", lambda ctx: None)
        with pytest.raises(DuplicateObjectError):
            engine.register_procedure("p", "feed", lambda ctx: None)
        with pytest.raises(DuplicateObjectError):
            engine.create_stream("feed", FEED_SCHEMA)


class TestIngestion:
    def test_feed_connection_pumps_batches(self):
        engine = StreamingEngine()
        engine.create_stream("feed", FEED_SCHEMA, retention_seconds=100.0)
        seen = []
        engine.register_procedure("observer", "feed",
                                   lambda ctx: seen.append(len(ctx.batch)), batch_size=10)
        tuples = [(float(i), (0, i, float(i))) for i in range(35)]
        engine.attach_feed(FeedConnection.from_iterable("monitor-1", tuples), "feed")
        total = 0
        while True:
            pumped = engine.pump(max_tuples=10)
            if pumped == 0:
                break
            total += pumped
        assert total == 35
        assert sum(seen) == 35
        assert engine.stream("feed").total_appended == 35

    def test_malformed_tuples_rejected_not_fatal(self):
        engine = StreamingEngine()
        engine.create_stream("feed", FEED_SCHEMA, retention_seconds=100.0)
        tuples = [(0.0, (0, 0, 1.0)), (1.0, ("bad", 1, 1.0)), (2.0, (0, 2, 2.0)), (1.5, (0, 3, 3.0))]
        connection = FeedConnection.from_iterable("noisy", tuples)
        engine.attach_feed(connection, "feed")
        ingested = engine.pump(max_tuples=10)
        assert ingested == 2  # the malformed and the out-of-order tuples are rejected
        assert connection.tuples_rejected == 2

    def test_unknown_connection(self):
        engine = StreamingEngine()
        with pytest.raises(IngestionError):
            engine.ingestion.pump("missing")


class TestRecovery:
    def test_snapshot_plus_replay_reconstructs_state(self):
        engine = StreamingEngine(snapshot_interval=10)
        engine.create_stream("feed", FEED_SCHEMA, retention_seconds=1000.0)

        def body(ctx):
            ctx.state["total"] = ctx.state.get("total", 0.0) + ctx.batch[-1].values[2]

        engine.register_procedure("summer", "feed", body)
        for i in range(27):
            engine.append("feed", float(i), (0, i, 1.0))
        expected = engine.procedure_state("summer")["total"]
        assert len(engine.recovery.snapshots) == 2  # at txn 10 and 20
        # Simulate a crash: wipe in-memory state, then recover.
        engine._procedure_state["summer"] = {}
        replayed = engine.simulate_crash_and_recover()
        assert replayed == 7  # transactions 21..27 replayed on top of snapshot 20
        assert engine.procedure_state("summer")["total"] == pytest.approx(expected)

    def test_recovery_without_snapshots_replays_everything(self):
        engine = StreamingEngine(snapshot_interval=1000)
        engine.create_stream("feed", FEED_SCHEMA, retention_seconds=1000.0)

        def body(ctx):
            ctx.state["count"] = ctx.state.get("count", 0) + 1

        engine.register_procedure("counter", "feed", body)
        for i in range(5):
            engine.append("feed", float(i), (0, i, 1.0))
        engine._procedure_state["counter"] = {}
        assert engine.simulate_crash_and_recover() == 5
        assert engine.procedure_state("counter")["count"] == 5


class TestAging:
    def test_evicted_tuples_age_into_array_engine(self):
        engine = StreamingEngine()
        stream = engine.create_stream("feed", FEED_SCHEMA, retention_seconds=2.0)
        array_engine = ArrayEngine("scidb")
        policy = AgingPolicy(stream, array_engine, "history", max_series=2, max_samples=1000)
        engine.add_aging_policy(policy)
        for i in range(200):
            engine.append("feed", i * 0.05, (0, i, float(i)))
        assert policy.tuples_aged > 0
        assert array_engine.has_object("history")
        cold = policy.cold_values(0)
        hot = policy.hot_tuples(0)
        assert len(cold) + len(hot) == 200
        combined = policy.combined_series(0)
        np.testing.assert_allclose(combined, np.arange(200, dtype=float))

    def test_engine_export_relation(self):
        engine = StreamingEngine()
        engine.create_stream("feed", FEED_SCHEMA, retention_seconds=100.0)
        engine.append("feed", 0.5, (1, 0, 9.0))
        relation = engine.export_relation("feed")
        assert relation.schema.names == ["timestamp", "signal_id", "sample_index", "value"]
        assert relation.rows[0]["value"] == 9.0

    def test_import_relation_orders_by_timestamp(self):
        from repro.common.schema import Relation

        engine = StreamingEngine()
        schema = Schema([("timestamp", "float"), ("value", "float")])
        relation = Relation(schema, [[2.0, 20.0], [1.0, 10.0], [3.0, 30.0]])
        engine.import_relation("s", relation)
        values = [t.values[0] for t in engine.stream("s").tuples()]
        assert values == [10.0, 20.0, 30.0]

    def test_a_payload_column_named_timestamp_is_refused(self):
        from repro.common.schema import Relation

        engine = StreamingEngine()
        clashing = Schema([("value", "float"), ("Timestamp", "float")])
        with pytest.raises(SchemaError):
            engine.create_stream("feed", clashing)
        schema = Schema([("ts", "float"), ("timestamp", "float")])
        with pytest.raises(SchemaError):
            engine.import_relation("s", Relation(schema, [[1.0, 2.0]]), timestamp_column="ts")
        assert engine.list_objects() == []

    def test_statistics_shape(self):
        engine = StreamingEngine()
        engine.create_stream("feed", FEED_SCHEMA)
        stats = engine.statistics()
        assert set(stats) >= {"streams", "procedures", "committed_transactions", "alerts"}
