"""The streaming engine facade: the S-Store stand-in federated by BigDAWG.

The engine owns streams (time-varying tables), registers stored procedures
against them, ingests feeds through the ingestion module, executes procedures
tuple-at-a-time (or in small batches) under the transaction scheduler, logs
commits for lightweight recovery, and ages old tuples into the array engine.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Iterator

from repro.common.errors import DuplicateObjectError, ObjectNotFoundError, SchemaError
from repro.common.schema import Column, Relation, Schema
from repro.common.types import DataType
from repro.engines.base import DEFAULT_CHUNK_ROWS, Engine, EngineCapability, row_chunks
from repro.engines.streaming.aging import AgingPolicy
from repro.engines.streaming.ingestion import FeedConnection, IngestionModule
from repro.engines.streaming.procedures import (
    ProcedureBody,
    ProcedureContext,
    StoredProcedure,
    TransactionScheduler,
)
from repro.engines.streaming.recovery import CommandLogRecord, RecoveryManager
from repro.engines.streaming.streams import SlidingWindow, Stream, StreamTuple


def _new_stream(name: str, payload: Schema, retention_seconds: float) -> Stream:
    """A stream of ``payload`` tuples; a ``timestamp`` payload column is
    refused, as an export puts each tuple's timestamp under that name."""
    if "timestamp" in (column.lower() for column in payload.names):
        raise SchemaError(
            f"stream {name!r}: a payload column may not be named 'timestamp'"
        )
    return Stream(name, payload, retention_seconds)


class StreamingEngine(Engine):
    """A transactional stream processing engine with tuple-at-a-time latency."""

    kind = "streaming"

    def __init__(self, name: str = "sstore", snapshot_interval: int = 500) -> None:
        super().__init__(name)
        self._streams: dict[str, Stream] = {}
        self._procedures: dict[str, StoredProcedure] = {}
        self._procedure_state: dict[str, dict[str, Any]] = {}
        self._by_input_stream: dict[str, list[str]] = {}
        self.scheduler = TransactionScheduler()
        self.recovery = RecoveryManager(snapshot_interval=snapshot_interval)
        self.ingestion = IngestionModule(on_batch=self._on_ingest)
        self.alerts: list[dict[str, Any]] = []
        self.aging_policies: list[AgingPolicy] = []

    # ------------------------------------------------------------- Engine API
    @property
    def capabilities(self) -> EngineCapability:
        return EngineCapability.STREAMING | EngineCapability.TRANSACTIONS

    def list_objects(self) -> list[str]:
        return sorted(self._streams)

    def has_object(self, name: str) -> bool:
        return name.lower() in self._streams

    def export_schema(self, name: str) -> Schema:
        """A ``timestamp`` FLOAT column, then the stream's own columns."""
        return Schema([Column("timestamp", DataType.FLOAT), *self.stream(name).schema.columns])

    def export_chunks(self, name: str, chunk_size: int = DEFAULT_CHUNK_ROWS) -> Iterator[Relation]:
        """The retained tuples, oldest first, as (timestamp, values...) rows,
        from a copy of the deque taken at the call (appends go on)."""
        retained = list(self.stream(name).tuples())
        return row_chunks(self.export_schema(name), (
            (item.timestamp, *item.values) for item in retained
        ), chunk_size)

    def import_chunks(self, name: str, schema: Schema, chunks: Iterable[Relation],
                      **options: Any) -> None:
        """Create a stream of the chunks' rows, appended in timestamp order.

        Options: ``timestamp_column`` (default the column named
        ``timestamp``, else the first) orders the tuples and is not part of
        the payload; ``retention_seconds`` (default 3600); ``replace``.  The
        stream validates: :meth:`Stream.append` coerces each payload through
        :meth:`Schema.validate_row`; a NULL timestamp raises."""
        if name.lower() in self._streams and not options.get("replace", True):
            raise DuplicateObjectError(f"stream {name!r} already exists")
        retention = float(options.get("retention_seconds", 3600.0))
        names = [n.lower() for n in schema.names]
        ts_index = schema.index_of(
            options.get("timestamp_column", "timestamp" if "timestamp" in names else names[0])
        )
        payload = [i for i in range(len(names)) if i != ts_index]
        stream = _new_stream(name, Schema([schema.columns[i] for i in payload]), retention)
        rows = [row.values for chunk in chunks for row in chunk.rows]
        rows.sort(key=lambda values: values[ts_index])
        for values in rows:
            stream.append(float(values[ts_index]), [values[i] for i in payload])
        self._streams[name.lower()] = stream

    def drop_object(self, name: str) -> None:
        if name.lower() not in self._streams:
            raise ObjectNotFoundError(f"stream {name!r} does not exist")
        del self._streams[name.lower()]

    def rename_object(self, old_name: str, new_name: str,
                      replace: bool = True) -> None:
        """O(1) rename: re-key the stream (the CAST commit primitive).
        Procedures follow the stream *name* they were registered on, as
        they would had the stream been dropped and re-created."""
        old_key, new_key = old_name.lower(), new_name.lower()
        if old_key == new_key:
            return
        stream = self.stream(old_name)
        if new_key in self._streams and not replace:
            raise DuplicateObjectError(f"stream {new_name!r} already exists")
        del self._streams[old_key]
        stream.name = new_name
        self._streams[new_key] = stream

    # ---------------------------------------------------------------- streams
    def create_stream(self, name: str, schema: Schema, retention_seconds: float = 60.0,
                      replace: bool = False) -> Stream:
        key = name.lower()
        if key in self._streams and not replace:
            raise DuplicateObjectError(f"stream {name!r} already exists")
        stream = _new_stream(name, schema, retention_seconds)
        self._streams[key] = stream
        return stream

    def stream(self, name: str) -> Stream:
        key = name.lower()
        if key not in self._streams:
            raise ObjectNotFoundError(f"stream {name!r} does not exist in {self.name!r}")
        return self._streams[key]

    # ------------------------------------------------------------- procedures
    def register_procedure(
        self,
        name: str,
        input_stream: str,
        body: ProcedureBody,
        window_seconds: float | None = None,
        batch_size: int = 1,
    ) -> StoredProcedure:
        """Register a stored procedure triggered by new tuples on a stream."""
        if name in self._procedures:
            raise DuplicateObjectError(f"procedure {name!r} already exists")
        stream = self.stream(input_stream)
        window = SlidingWindow(stream, window_seconds) if window_seconds else None
        procedure = StoredProcedure(name, input_stream, body, window, batch_size)
        self._procedures[name] = procedure
        self._procedure_state[name] = {}
        self._by_input_stream.setdefault(input_stream.lower(), []).append(name)
        return procedure

    def procedure(self, name: str) -> StoredProcedure:
        if name not in self._procedures:
            raise ObjectNotFoundError(f"procedure {name!r} is not registered")
        return self._procedures[name]

    def procedure_state(self, name: str) -> dict[str, Any]:
        return self._procedure_state[name]

    # -------------------------------------------------------------- ingestion
    def attach_feed(self, connection: FeedConnection, stream_name: str) -> None:
        """Attach a feed connection to a stream."""
        self.ingestion.attach(connection, self.stream(stream_name))

    def pump(self, max_tuples: int = 1000) -> int:
        """Pump every attached feed once (triggering procedures per batch)."""
        pumped = self.ingestion.pump_all(max_tuples)
        if pumped:
            self.bump_write_version()
        return pumped

    def append(self, stream_name: str, timestamp: float, values: tuple | list) -> list[ProcedureContext]:
        """Append one tuple directly and run the procedures it triggers.

        This is the lowest-latency path: the tuple is processed immediately,
        which is what gives S-Store its tens-of-milliseconds responses.
        """
        stream = self.stream(stream_name)
        item = stream.append(timestamp, values)
        self.bump_write_version()
        return self._trigger(stream_name, [item], timestamp)

    def _on_ingest(self, stream_name: str, count: int, timestamp: float) -> None:
        stream = self.stream(stream_name)
        batch = list(stream.tuples())[-count:]
        self._trigger(stream_name, batch, timestamp)

    def _trigger(self, stream_name: str, batch: list[StreamTuple], timestamp: float) -> list[ProcedureContext]:
        contexts = []
        for proc_name in self._by_input_stream.get(stream_name.lower(), []):
            procedure = self._procedures[proc_name]
            state = self._procedure_state[proc_name]
            context = self.scheduler.execute(
                procedure, batch, timestamp, state, self._streams_by_name()
            )
            self.queries_executed += 1
            self.alerts.extend(context.alerts)
            self.recovery.record(
                CommandLogRecord(
                    transaction_id=context.transaction_id,
                    procedure=proc_name,
                    timestamp=timestamp,
                    batch=[(t.timestamp, t.values) for t in batch],
                )
            )
            self.recovery.maybe_snapshot(context.transaction_id, self._procedure_state)
            contexts.append(context)
        for policy in self.aging_policies:
            policy.age_out()
        return contexts

    def _streams_by_name(self) -> dict[str, Stream]:
        return {stream.name: stream for stream in self._streams.values()}

    # ----------------------------------------------------------------- aging
    def add_aging_policy(self, policy: AgingPolicy) -> None:
        """Register a policy that moves evicted tuples to the array engine."""
        self.aging_policies.append(policy)

    # --------------------------------------------------------------- recovery
    def simulate_crash_and_recover(self) -> int:
        """Rebuild procedure state from the latest snapshot plus the command log.

        Returns the number of command-log records replayed.  Procedure bodies
        are re-executed against the recovered state, so deterministic bodies
        end up in exactly the pre-crash state.
        """
        recovered_state = self.recovery.recovery_state()
        self._procedure_state = {name: recovered_state.get(name, {}) for name in self._procedures}
        replayed = 0
        for record in self.recovery.records_to_replay():
            procedure = self._procedures.get(record.procedure)
            if procedure is None:
                continue
            batch = [StreamTuple(ts, tuple(values)) for ts, values in record.batch]
            state = self._procedure_state[record.procedure]
            context = ProcedureContext(
                transaction_id=record.transaction_id,
                timestamp=record.timestamp,
                batch=batch,
                window=procedure.window,
                state=state,
            )
            procedure.body(context)
            replayed += 1
        return replayed

    # ------------------------------------------------------------------ stats
    def statistics(self) -> dict[str, Any]:
        return {
            "streams": {name: len(stream) for name, stream in self._streams.items()},
            "procedures": {name: proc.invocations for name, proc in self._procedures.items()},
            "committed_transactions": len(self.scheduler.committed),
            "aborted_transactions": self.scheduler.aborted,
            "alerts": len(self.alerts),
            "snapshots": len(self.recovery.snapshots),
        }


def windowed_average_procedure(column: str, threshold: float, alert_kind: str = "threshold") -> Callable[[ProcedureContext], None]:
    """A ready-made procedure body: alert when the window average crosses a threshold."""

    def body(context: ProcedureContext) -> None:
        if context.window is None:
            return
        average = context.window.aggregate(column, lambda vs: sum(vs) / len(vs), context.timestamp)
        context.state["last_average"] = average
        if average is not None and average > threshold:
            context.alert(kind=alert_kind, average=average, threshold=threshold)

    return body
