"""The CAST operator: moving data objects between engines.

Section 2.1 of the paper introduces ``CAST`` for moving data or intermediate
results from one storage engine to another, and notes the project is
"investigating techniques to make cross-database CASTs more efficient than
file-based import/export", with a binary access method that reads data
directly from another engine.

:class:`CastMigrator` implements the move as a *chunked streaming pipeline*
over the engines' chunk export/import interface: the source yields relations
of at most ``chunk_size`` rows, each chunk is encoded into one frame, decoded
by the receiver and imported before the next chunk is produced.  At no point
does the migrator hold more than one encoded frame (or, on the zero-copy
path, one decoded chunk) in memory, so the *wire* side of a CAST runs in
bounded space.  Destination-side memory depends on the target: engines with
incremental import (relational, key-value) consume each chunk as it arrives,
while the array engine — which needs its dimension bounds before it can
allocate — holds each chunk's columns as typed numpy vectors until the
stream ends.

Three methods are supported:

* ``method="binary"`` — the direct path: each chunk is framed with the
  compact binary codec (one columnar layout) and decoded by the receiver
  without text parsing.
* ``method="csv"``    — the file-based path: each chunk is rendered to
  delimited text (optionally staged through a real temporary file) and
  re-parsed on the way in.
* ``method="direct"`` — the zero-copy fast path for engines that share the
  in-memory :class:`~repro.common.schema.Relation` representation: chunks
  flow from exporter to importer with no serialization at all.

Every cast is recorded — including per-chunk accounting (``chunks``,
``peak_chunk_bytes``) — so the monitor and benchmarks can inspect volume,
latency and memory behaviour.  Stage timings are spans only: under an
enabled tracer each chunk's export, encode, stage, decode and import is one.
"""

from __future__ import annotations

import itertools
import os
import tempfile
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Iterator

from repro.common.cancellation import check_cancelled
from repro.common.errors import (
    BigDawgError,
    CastError,
    ObjectNotFoundError,
    SimulatedCrashError,
)
from repro.common.schema import Relation, Schema
from repro.common.serialization import BinaryCodec, CsvCodec
from repro.core.catalog import BigDawgCatalog
from repro.engines.base import DEFAULT_CHUNK_ROWS
from repro.observability.tracing import get_tracer


@dataclass(slots=True)
class CastRecord:
    """Accounting for one completed cast (slotted: the history keeps one per
    cast for the life of the migrator)."""

    object_name: str
    source_engine: str
    target_engine: str
    method: str
    rows: int
    bytes_moved: int
    seconds: float
    #: Number of chunks the object was streamed in.
    chunks: int = 1
    #: Largest single encoded frame held in memory during the cast.
    peak_chunk_bytes: int = 0
    #: The row budget per chunk the pipeline ran with.
    chunk_size: int = DEFAULT_CHUNK_ROWS


@dataclass
class CastMigrator:
    """Moves objects between engines registered in a catalog.

    Casts of the *same* object are serialized through a per-object lock so
    concurrent plans in the runtime cannot interleave the export/import/
    catalog-update sequence; casts of different objects proceed in parallel.
    """

    catalog: BigDawgCatalog
    history: list[CastRecord] = field(default_factory=list)
    #: Write-ahead intent journal (duck-typed to avoid a core -> runtime
    #: import; the runtime injects its
    #: :class:`~repro.runtime.journal.WriteIntentJournal` here).  When set,
    #: every cast journals begin/imported/renamed/catalog/source_dropped/
    #: commit so crash recovery can roll a half-done cast forward or back.
    journal: Any = None

    def __post_init__(self) -> None:
        self._object_locks: dict[str, threading.RLock] = {}
        self._locks_guard = threading.Lock()

    def object_lock(self, object_name: str) -> threading.RLock:
        """The lock serializing casts of one object.  Re-entrant, so a caller
        can hold it across its own "is the cast still needed?" check and the
        :meth:`cast` call (the plan executor does)."""
        with self._locks_guard:
            return self._object_locks.setdefault(object_name.lower(), threading.RLock())

    def cast(
        self,
        object_name: str,
        target_engine: str,
        method: str = "binary",
        target_name: str | None = None,
        drop_source: bool = False,
        use_tempfile: bool = False,
        chunk_size: int | None = None,
        source_engine: str | None = None,
        **import_options: Any,
    ) -> CastRecord:
        """Copy (or move) an object to another engine, one chunk at a time.

        Parameters
        ----------
        object_name:
            The object to move; its current location comes from the catalog.
        target_engine:
            Name of the destination engine.
        method:
            ``"binary"`` for the direct binary path, ``"csv"`` for file-based
            export/import, or ``"direct"`` for the zero-copy in-memory path.
        target_name:
            Name for the object at the destination (defaults to the same name).
        drop_source:
            When True the source copy is dropped and the catalog records the move.
        use_tempfile:
            For the CSV path, stage each chunk through an actual temporary
            file, as a real file-based export/import would.
        chunk_size:
            Rows per chunk on the streaming pipeline (default
            :data:`~repro.engines.base.DEFAULT_CHUNK_ROWS`).  Only one chunk's
            encoded payload is ever held in memory.
        source_engine:
            Export from this copy instead of the primary — the failover path
            reads from a fresh replica when the primary's engine is down.
            Must name an engine holding a *fresh* copy; a ``drop_source``
            cast must still export from the primary.
        import_options:
            Passed to the destination engine's ``import_chunks`` (e.g.
            ``dimensions=[...]`` when casting into the array engine).
        """
        with self.object_lock(object_name):
            return self._cast_locked(
                object_name, target_engine, method, target_name, drop_source,
                use_tempfile, chunk_size, source_engine, **import_options,
            )

    def _cast_locked(
        self,
        object_name: str,
        target_engine: str,
        method: str,
        target_name: str | None,
        drop_source: bool,
        use_tempfile: bool,
        chunk_size: int | None,
        source_engine: str | None = None,
        **import_options: Any,
    ) -> CastRecord:
        codec = self._codec(method)
        location = self.catalog.locate(object_name)
        if source_engine is not None and source_engine.lower() != location.engine_name:
            if drop_source:
                raise CastError(
                    "a drop_source cast must export from the primary copy, "
                    f"not the replica on {source_engine!r}"
                )
            copies = {
                loc.engine_name: loc for loc in self.catalog.fresh_locations(object_name)
            }
            chosen = copies.get(source_engine.lower())
            if chosen is None:
                raise CastError(
                    f"object {object_name!r} has no fresh copy on engine "
                    f"{source_engine!r} to export from"
                )
            location = chosen
        source = self.catalog.engine(location.engine_name)
        target = self.catalog.engine(target_engine)
        destination_name = target_name or object_name
        if source is target and destination_name.lower() == object_name.lower():
            # Same comparison as the drop_source path below: names are
            # case-insensitive, so a case-variant target_name is the same
            # object and casting would destroy it.
            raise CastError(f"object {object_name!r} already lives in engine {target_engine!r}")
        size = chunk_size if chunk_size is not None else DEFAULT_CHUNK_ROWS
        if size <= 0:
            raise CastError(f"chunk_size must be positive, got {size}")
        stats = _PipelineStats()
        started = time.perf_counter()
        tracer = get_tracer()
        # Transactional import: stream into a *shadow* name, publish with one
        # atomic rename only after every chunk landed.  A failure anywhere in
        # export/encode/decode/import leaves the destination name untouched
        # (including a pre-existing object being replaced) and discards the
        # partial shadow, so a died-mid-stream CAST is invisible afterwards
        # and the whole operation is idempotently retryable.
        shadow_name = self._shadow_name(destination_name)
        # Write-ahead intent: the begin record lands before any engine state
        # changes, each completed protocol step is marked, and the boundaries
        # double as the crash-sweep points.  ``intent`` stays None when no
        # journal is attached (bare migrator use).
        intent = None
        if self.journal is not None:
            intent = self.journal.begin(
                "cast",
                object=object_name,
                source_engine=source.name.lower(),
                target_engine=target.name.lower(),
                destination=destination_name,
                shadow=shadow_name,
                drop_source=drop_source,
                target_kind=target.kind,
                properties=dict(location.properties),
            )
            self.journal.crash_point("cast.begin")

        def checkpoint(step: str) -> None:
            if intent is not None:
                intent.mark(step)
                self.journal.crash_point(f"cast.{step}")

        with tracer.span(
            "cast", kind="cast", object=object_name,
            source=source.name, target=target.name, method=method,
        ):
            try:
                schema = source.export_schema(object_name)
                exported = source.export_chunks(object_name, size)
                decoded = self._pipeline(
                    exported, schema, codec, method == "csv" and use_tempfile,
                    stats, tracer,
                )
                with tracer.span("cast.import", kind="cast", object=destination_name,
                                 shadow=shadow_name):
                    target.import_chunks(shadow_name, schema, decoded, **import_options)
                checkpoint("imported")
                with tracer.span("cast.commit", kind="cast", object=destination_name):
                    target.rename_object(shadow_name, destination_name, replace=True)
                checkpoint("renamed")
            except BaseException as error:
                if isinstance(error, SimulatedCrashError):
                    # A (simulated) process death gets no in-process cleanup:
                    # the shadow stays, the intent stays open, and recovery
                    # must resolve both from the journal.
                    raise
                self._discard_partial(target, shadow_name, tracer)
                if intent is not None:
                    intent.abort(error=type(error).__name__)
                raise
        elapsed = time.perf_counter() - started
        # The catalog swap happens *before* the source copy is dropped: if
        # registration fails, the catalog still points at the intact source
        # object and the cast can simply be retried — the reverse order could
        # orphan the object (source gone, catalog still naming it there).
        if drop_source:
            if destination_name.lower() == object_name.lower():
                self.catalog.move_object(object_name, target.name, target.kind)
            else:
                # The object changed name as it moved: retire the old catalog
                # entry and register the new one (carrying its properties, as
                # move_object does), so the catalog never points at a name
                # that does not exist on the target engine.
                self.catalog.unregister_object(object_name)
                self.catalog.register_object(
                    destination_name, target.name, target.kind, replace=True,
                    **location.properties,
                )
            checkpoint("catalog")
            try:
                source.drop_object(object_name)
            except ObjectNotFoundError:  # pragma: no cover - already gone
                pass
            checkpoint("source_dropped")
        elif destination_name.lower() == object_name.lower():
            # Copy-cast keeping the same name: the source keeps its (still
            # queryable) registration and the new copy is recorded as a fresh
            # replica — CAST doubling as a replication tool instead of
            # silently re-pointing the catalog away from the source island.
            self.catalog.add_replica(destination_name, target.name, target.kind)
            checkpoint("catalog")
        else:
            self.catalog.register_object(
                destination_name, target.name, target.kind, replace=True
            )
            checkpoint("catalog")
        if intent is not None:
            intent.commit()
            self.journal.crash_point("cast.committed")
        record = CastRecord(
            object_name=object_name,
            source_engine=source.name,
            target_engine=target.name,
            method=method,
            rows=stats.rows,
            bytes_moved=stats.bytes_moved,
            seconds=elapsed,
            chunks=stats.chunks,
            peak_chunk_bytes=stats.peak_chunk_bytes,
            chunk_size=size,
        )
        self.history.append(record)
        return record

    # ----------------------------------------------------------------- helpers
    @staticmethod
    def _shadow_name(destination_name: str) -> str:
        """The staging name a cast imports into before the commit rename.

        Deterministic on purpose: a retried cast reuses (and therefore
        replaces) the shadow a previous failed attempt may have left behind,
        instead of leaking one abandoned staging object per attempt.
        """
        return f"__cast_shadow__{destination_name}"

    @staticmethod
    def _discard_partial(target: Any, shadow_name: str, tracer: Any) -> None:
        """Best-effort drop of a failed cast's staging object.

        Runs on the failure path, so engine errors here must not mask the
        original exception; a shadow that was never created (the stream died
        before the first chunk landed) is the common, silent case.
        """
        begin = time.time()
        try:
            target.drop_object(shadow_name)
            tracer.record("cast.abort", start_s=begin, duration_s=time.time() - begin,
                          kind="cast", shadow=shadow_name, dropped=True)
        except ObjectNotFoundError:
            pass
        except BigDawgError:
            tracer.record("cast.abort", start_s=begin, duration_s=time.time() - begin,
                          kind="cast", shadow=shadow_name, dropped=False)

    def _codec(self, method: str) -> BinaryCodec | CsvCodec | None:
        if method == "binary":
            return BinaryCodec()
        if method == "csv":
            return CsvCodec()
        if method == "direct":
            return None
        raise CastError(
            f"unknown cast method {method!r}; use 'binary', 'csv' or 'direct'"
        )

    def _pipeline(
        self,
        chunks: Iterator[Relation],
        schema: Schema,
        codec: BinaryCodec | CsvCodec | None,
        stage: bool,
        stats: "_PipelineStats",
        tracer: Any,
    ) -> Iterator[Relation]:
        """export -> encode -> (stage) -> decode -> import, one chunk at a time.

        Every stage is timed only by its span (``cast.export`` with rows,
        ``cast.encode`` with bytes, ``cast.stage``, ``cast.decode``,
        ``cast.import_chunk``); a disabled tracer hands back the shared
        ``NULL_SPAN`` for each.  Export time is the pull from the source
        iterator; import time is the gap between yielding a chunk and being
        resumed (the consumer is ``import_chunks``).  Without a codec
        (``method="direct"``) chunks flow through unserialized: every engine
        here shares the in-memory Relation representation.
        """
        source = iter(chunks)
        for index in itertools.count():
            check_cancelled()
            export_wall = time.time()
            export_begin = time.perf_counter()
            try:
                chunk = next(source)
            except StopIteration:
                return
            tracer.record(
                "cast.export", start_s=export_wall,
                duration_s=time.perf_counter() - export_begin,
                kind="cast", chunk=index, rows=len(chunk),
            )
            stats.rows += len(chunk)
            stats.chunks += 1
            if codec is not None:
                with tracer.span("cast.encode", kind="cast", chunk=index) as span:
                    payload = codec.encode(chunk)
                    span.set("bytes", len(payload))
                if stage:
                    with tracer.span("cast.stage", kind="cast", chunk=index):
                        payload = self._stage_through_tempfile(payload)
                stats.bytes_moved += len(payload)
                stats.peak_chunk_bytes = max(stats.peak_chunk_bytes, len(payload))
                with tracer.span("cast.decode", kind="cast", chunk=index):
                    chunk = codec.decode(payload, schema)
            import_wall = time.time()
            import_begin = time.perf_counter()
            yield chunk
            tracer.record(
                "cast.import_chunk", start_s=import_wall,
                duration_s=time.perf_counter() - import_begin,
                kind="cast", chunk=index,
            )

    @staticmethod
    def _stage_through_tempfile(payload: bytes) -> bytes:
        """Round-trip one chunk through a real file to model export-to-disk."""
        fd, path = tempfile.mkstemp(suffix=".csv")
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(payload)
            with open(path, "rb") as handle:
                return handle.read()
        finally:
            os.unlink(path)

    # ------------------------------------------------------------------ stats
    def total_bytes_moved(self) -> int:
        return sum(record.bytes_moved for record in self.history)

    def casts_between(self, source: str, target: str) -> list[CastRecord]:
        return [
            record
            for record in self.history
            if record.source_engine.lower() == source.lower()
            and record.target_engine.lower() == target.lower()
        ]


@dataclass
class _PipelineStats:
    """Mutable per-cast counters threaded through the streaming generators."""

    rows: int = 0
    chunks: int = 0
    bytes_moved: int = 0
    peak_chunk_bytes: int = 0
