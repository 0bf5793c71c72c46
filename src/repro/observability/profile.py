"""Per-operator execution profiling: the engine behind EXPLAIN ANALYZE.

A :class:`PlanProfiler` walks a logical plan once, creating one
:class:`OperatorProfile` per node (keyed by node identity) seeded with the
optimizer's *estimated* cardinality.  During execution each operator reports
its *actuals* — rows out, batches, inclusive wall time: the batch executor
wraps every operator's batch iterator with :func:`observe_stream`, which
accounts each pull (time producing a batch, inclusive of the subtree,
exclusive of downstream consumption — the same "actual time" semantics as
PostgreSQL's EXPLAIN ANALYZE).

``engine.explain(sql, analyze=True)`` renders estimated vs. actual per
operator via :meth:`PlanProfiler.annotation`.  The same stream wrapper also
emits one ``op.<NodeType>`` span per operator when the global tracer is
enabled, so traced queries show operator timing without profiling overhead
on untraced runs.

:class:`SlowQueryLog` is the third observability primitive here: a bounded
log of queries whose wall time crossed a configurable threshold (disabled
until a threshold is set).
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Any, Callable, Iterator

from repro.observability.tracing import Tracer

__all__ = ["OperatorProfile", "PlanProfiler", "SlowQueryLog", "observe_stream"]


class OperatorProfile:
    """Estimated vs. actual execution accounting for one plan node."""

    __slots__ = (
        "label",
        "depth",
        "estimated_rows",
        "rows_out",
        "batches",
        "seconds",
    )

    def __init__(self, label: str, depth: int, estimated_rows: int | None) -> None:
        self.label = label
        self.depth = depth
        self.estimated_rows = estimated_rows
        self.rows_out: int | None = None
        self.batches: int | None = None
        self.seconds: float | None = None

    @property
    def recorded(self) -> bool:
        return self.rows_out is not None

    def record(self, rows: int, seconds: float, batches: int) -> None:
        self.rows_out = rows
        self.batches = batches
        self.seconds = seconds

    def annotation(self) -> str:
        """The EXPLAIN ANALYZE suffix for this operator."""
        est = "?" if self.estimated_rows is None else str(self.estimated_rows)
        if not self.recorded:
            return f"(estimated={est} rows, not executed)"
        return (
            f"(estimated={est} rows, actual={self.rows_out} rows, "
            f"batches={self.batches}, time={self.seconds * 1000:.3f}ms)"
        )


class PlanProfiler:
    """Per-node profiles for one plan execution, keyed by node identity."""

    def __init__(
        self,
        plan: Any,
        estimator: Callable[[Any], int | None] | None = None,
    ) -> None:
        self._entries: dict[int, OperatorProfile] = {}
        self.total_seconds: float | None = None
        self.result_rows: int | None = None

        def estimate(node: Any) -> int | None:
            if estimator is None:
                return None
            try:
                return estimator(node)
            except Exception:  # noqa: BLE001 - estimates must never fail a query
                return None

        def walk(node: Any, depth: int) -> None:
            self._entries[id(node)] = OperatorProfile(
                node.describe(), depth, estimate(node)
            )
            for child in node.children():
                walk(child, depth + 1)

        walk(plan, 0)

    def entry(self, node: Any) -> OperatorProfile | None:
        return self._entries.get(id(node))

    def annotation(self, node: Any) -> str:
        profile = self._entries.get(id(node))
        if profile is None:  # pragma: no cover - every plan node is registered
            return ""
        return profile.annotation()

    def profiles(self) -> list[OperatorProfile]:
        """All operator profiles in plan preorder (registration order)."""
        return list(self._entries.values())


def observe_stream(
    node: Any,
    batches: Iterator[Any],
    profiler: PlanProfiler | None,
    tracer: Tracer | None,
) -> Iterator[Any]:
    """Wrap one operator's batch iterator with rows/batches/time accounting.

    Timing is accumulated per pull, so a node is charged for producing its
    batches (subtree inclusive) but not for whatever downstream does with
    them while this generator is suspended.  On exhaustion (or early close,
    e.g. under LIMIT) the totals land in the profiler entry and — when the
    tracer is enabled — one ``op.<NodeType>`` span.
    """
    entry = profiler.entry(node) if profiler is not None else None
    rows = 0
    count = 0
    seconds = 0.0
    start_wall = time.time()
    iterator = iter(batches)
    try:
        while True:
            begin = time.perf_counter()
            try:
                batch = next(iterator)
            except StopIteration:
                seconds += time.perf_counter() - begin
                return
            seconds += time.perf_counter() - begin
            rows += len(batch)
            count += 1
            yield batch
    finally:
        if entry is not None:
            entry.record(rows, seconds, batches=count)
        if tracer is not None and tracer.enabled:
            tracer.record(
                f"op.{type(node).__name__}",
                start_s=start_wall,
                duration_s=seconds,
                kind="operator",
                label=node.describe(),
                rows=rows,
                batches=count,
            )


class SlowQuery:
    """One slow-query log entry."""

    __slots__ = ("query", "seconds", "timestamp", "attrs")

    def __init__(self, query: str, seconds: float, attrs: dict[str, Any]) -> None:
        self.query = query
        self.seconds = seconds
        self.timestamp = time.time()
        self.attrs = attrs

    def to_dict(self) -> dict[str, Any]:
        return {
            "query": self.query,
            "seconds": round(self.seconds, 6),
            "timestamp": self.timestamp,
            **self.attrs,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SlowQuery({self.seconds * 1000:.1f}ms, {self.query!r})"


class SlowQueryLog:
    """Bounded log of queries slower than a configurable threshold.

    Disabled (and free) until :attr:`threshold_s` is set; ``observe`` is
    then one comparison per query plus an append on the slow side only.
    """

    def __init__(self, threshold_s: float | None = None, capacity: int = 128) -> None:
        self.threshold_s = threshold_s
        self._lock = threading.Lock()
        self._entries: deque[SlowQuery] = deque(maxlen=capacity)

    @property
    def enabled(self) -> bool:
        return self.threshold_s is not None

    def observe(self, query: str, seconds: float, **attrs: Any) -> bool:
        threshold = self.threshold_s
        if threshold is None or seconds < threshold:
            return False
        with self._lock:
            self._entries.append(SlowQuery(query, seconds, attrs))
        return True

    def entries(self) -> list[SlowQuery]:
        with self._lock:
            return list(self._entries)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)
