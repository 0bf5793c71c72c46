"""Intra-query task parallelism: worker credits and per-query task contexts.

The runtime's thread pool parallelizes *across* queries; this module is the
machinery that lets one query parallelize *within* itself without starving
the many-client path.  A :class:`WorkerCredits` counter is installed fleet-
wide by the runtime: a query that wants N workers borrows up to N-1 extra
credits non-blockingly and runs with whatever it got, so under concurrent
load every query degrades toward serial instead of oversubscribing the box.

:class:`TaskContext` is the per-query handle.  With ``workers <= 1`` it runs
everything inline (no pool, no threads), which keeps the single-threaded
path byte-for-byte identical to the pre-parallel executor; with more workers
it lazily spins up a bounded pool and offers an order-preserving streaming
map (the hash join's probe fan-out).
"""

from __future__ import annotations

import os
import threading
from collections import deque
from collections.abc import Callable, Iterable, Iterator
from concurrent.futures import ThreadPoolExecutor
from typing import Any

from repro.observability.tracing import capture_context, with_context

PARALLELISM_AUTO = "auto"
_AUTO_CAP = 8


def resolve_parallelism(setting: int | str | None, cap: int = _AUTO_CAP) -> int:
    """Resolve a ``parallelism`` knob value to a concrete worker count.

    ``"auto"`` (or None) uses the machine's core count, capped so a large
    host doesn't spawn unbounded threads per query.  Integers are taken
    literally (minimum 1).
    """
    if setting is None or setting == PARALLELISM_AUTO:
        return max(1, min(os.cpu_count() or 1, cap))
    workers = int(setting)
    if workers < 1:
        raise ValueError(f"parallelism must be >= 1 or 'auto', got {setting!r}")
    return workers


class WorkerCredits:
    """Fleet-wide budget of extra intra-query workers.

    The runtime creates one of these sized to the cores its serving pool
    does not already occupy (none on a saturated host: morsel threads there
    only take turns on the GIL) and installs it on every relational engine.
    ``acquire_up_to`` never blocks: a query asking for 3 extra workers when
    only 1 credit remains gets 1 and runs mostly serial.  That is the
    cooperation with admission — serving pool plus intra-query fan-out can
    never hold more busy threads than the host has cores.
    """

    def __init__(self, total: int) -> None:
        self._lock = threading.Lock()
        self._available = max(0, int(total))

    def acquire_up_to(self, wanted: int) -> int:
        if wanted <= 0:
            return 0
        with self._lock:
            granted = min(wanted, self._available)
            self._available -= granted
            return granted

    def release(self, count: int) -> None:
        if count <= 0:
            return
        with self._lock:
            self._available += count

    @property
    def available(self) -> int:
        with self._lock:
            return self._available


class TaskContext:
    """Execution context for one query's intra-operator tasks.

    ``workers`` counts the calling thread, so ``workers=1`` means "no extra
    threads": every method runs inline and no pool is ever created.  The
    context must be closed (or used as a context manager) so borrowed
    worker credits flow back to the runtime.
    """

    def __init__(
        self,
        workers: int = 1,
        on_close: Callable[[], None] | None = None,
    ) -> None:
        self.workers = max(1, int(workers))
        self._on_close = on_close
        self._pool: ThreadPoolExecutor | None = None
        self._closed = False

    # ------------------------------------------------------------------ pool
    def _executor(self) -> ThreadPoolExecutor:
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=self.workers, thread_name_prefix="bigdawg-task"
            )
        return self._pool

    # ----------------------------------------------------------------- tasks
    def map_ordered(
        self, fn: Callable[[Any], Any], items: Iterable[Any]
    ) -> Iterator[Any]:
        """Apply ``fn`` to ``items``, yielding results in input order.

        Streaming with a bounded in-flight window (2x workers), so an
        operator can pipe morsels through without materializing the whole
        input or output.  Serial contexts map inline.
        """
        if self.workers <= 1:
            for item in items:
                yield fn(item)
            return
        pool = self._executor()
        window = self.workers * 2
        pending: deque = deque()
        # Carry the submitter's trace context into the pool threads so
        # morsel-level spans nest under the query's operator spans.  With
        # tracing off the context is None and tasks run unwrapped.
        ctx = capture_context()
        try:
            for item in items:
                pending.append(pool.submit(with_context, ctx, fn, item))
                if len(pending) >= window:
                    yield pending.popleft().result()
            while pending:
                yield pending.popleft().result()
        finally:
            for future in pending:
                future.cancel()

    # --------------------------------------------------------------- lifetime
    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        if self._on_close is not None:
            self._on_close()

    def __enter__(self) -> TaskContext:
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

