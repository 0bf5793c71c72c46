"""Operator spans (the record behind EXPLAIN ANALYZE) and the slow-query log.

The batch executor wraps an operator's batch iterator with
:func:`observe_stream` whenever the thread's tracer is enabled.  The wrapper
accounts each pull (time producing a batch, inclusive of the subtree,
exclusive of downstream consumption — the same "actual time" semantics as
PostgreSQL's EXPLAIN ANALYZE) and records one ``op.<NodeType>`` span with
the operator's rows, batches and plan node identity.

``engine.explain(sql, analyze=True)`` runs the plan under its own enabled
tracer and renders each node's estimated vs. actual figures from those
spans, so the query's timing has exactly one record.

:class:`SlowQueryLog` is a bounded log of queries whose wall time crossed a
configurable threshold (disabled until a threshold is set).
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Any, Iterator

from repro.observability.tracing import Tracer

__all__ = ["SlowQueryLog", "observe_stream"]


def observe_stream(node: Any, batches: Iterator[Any], tracer: Tracer) -> Iterator[Any]:
    """Wrap one operator's batch iterator with rows/batches/time accounting.

    Timing is accumulated per pull, so a node is charged for producing its
    batches (subtree inclusive) but not for whatever downstream does with
    them while this generator is suspended.  On exhaustion (or early close,
    e.g. under LIMIT) the totals land in one ``op.<NodeType>`` span whose
    ``node`` attribute is ``id(node)``.
    """
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
        tracer.record(
            f"op.{type(node).__name__}",
            start_s=start_wall,
            duration_s=seconds,
            kind="operator",
            label=node.describe(),
            node=id(node),
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
