"""Runtime counters: throughput, latency percentiles, queue wait, cache hits.

:class:`RuntimeMetrics` is the one place the serving layer's health is
visible.  The scheduler records every submission and completion here; the
snapshot combines them with everything registered in the attached
:class:`~repro.observability.registry.MetricRegistry` — per-engine executor
counters, admission queue depth, queue-wait histograms — into a single dict
a dashboard (or a benchmark assertion) can read.  Components *register*
their metrics instead of the snapshot call growing a kwarg per counter: the
scheduler installs computed gauges for the relational executor tallies, the
admission controller feeds the queue-wait histogram, and any engine can add
its own namespaced entries through :attr:`registry`.

The same completions are forwarded to the
:class:`~repro.core.monitor.ExecutionMonitor`, so the
:class:`~repro.core.monitor.MigrationAdvisor` learns engine preferences from
live production traffic rather than only from offline probes.
"""

from __future__ import annotations

import threading
import time
from collections import deque

from repro.observability.registry import Histogram, MetricRegistry

#: Default sliding window (seconds) for :meth:`RuntimeMetrics.windowed_throughput`.
DEFAULT_THROUGHPUT_WINDOW_S = 30.0


class RuntimeMetrics:
    """Thread-safe counters plus bounded windows for percentiles/throughput."""

    def __init__(self, window: int = 4096, registry: MetricRegistry | None = None) -> None:
        self._lock = threading.Lock()
        #: End-to-end latencies; unregistered, so the snapshot's own
        #: ``latency_p*_s`` keys stay the only place they surface.
        self._latencies = Histogram(window)
        #: Completion timestamps (``perf_counter``) for windowed throughput.
        self._completions: deque[float] = deque(maxlen=window)
        self.submitted = 0
        self.completed = 0
        self.failed = 0
        self.cache_hits = 0
        self.cache_misses = 0
        self.casts_skipped = 0
        self._first_submit: float | None = None
        self._last_complete: float | None = None
        #: Start of the resettable measurement window (see :meth:`reset_window`).
        self._window_start: float | None = None
        #: The uniform metric surface: components register counters, gauges
        #: and histograms here and :meth:`snapshot` flattens all of them.
        self.registry = registry if registry is not None else MetricRegistry()
        #: Queue-wait observations (seconds spent blocked in admission gates
        #: before execution), kept separate from end-to-end latency so
        #: backpressure is visible on its own axis.
        self._queue_wait = self.registry.histogram("queue_wait_s", window=window)

    # --------------------------------------------------------------- recording
    def record_submitted(self) -> None:
        with self._lock:
            self.submitted += 1
            if self._first_submit is None:
                self._first_submit = time.perf_counter()

    def record_completed(self, seconds: float, cached: bool = False) -> None:
        self._latencies.observe(seconds)
        with self._lock:
            self.completed += 1
            if cached:
                self.cache_hits += 1
            else:
                self.cache_misses += 1
            now = time.perf_counter()
            self._last_complete = now
            self._completions.append(now)

    def record_failed(self) -> None:
        with self._lock:
            self.failed += 1

    def record_casts_skipped(self, count: int) -> None:
        if count:
            with self._lock:
                self.casts_skipped += count

    def record_queue_wait(self, seconds: float) -> None:
        """One admission-gate wait (seconds blocked before a slot opened)."""
        self._queue_wait.observe(seconds)

    # -------------------------------------------------------------- statistics
    def latency_percentile(self, percentile: float) -> float | None:
        """Latency at ``percentile`` (0..100) over the recent window, or None."""
        return self._latencies.percentile(percentile)

    def throughput(self) -> float:
        """Completed queries per second since the *first submission ever*.

        Long-lived runtimes see this decay across idle gaps; use
        :meth:`windowed_throughput` for the recent rate.
        """
        with self._lock:
            if self._first_submit is None or self._last_complete is None:
                return 0.0
            elapsed = self._last_complete - self._first_submit
            completed = self.completed
        if elapsed <= 0:
            return float(completed)
        return completed / elapsed

    def windowed_throughput(
        self, window_seconds: float = DEFAULT_THROUGHPUT_WINDOW_S
    ) -> float:
        """Completed queries per second over the trailing window.

        The window never reaches past the start of the current measurement
        window (a :meth:`reset_window` call, else the first submission), so
        a young runtime is not under-reported by dividing through idle time
        it never lived.  Only the last ``window`` stamps are kept; when
        older ones inside the window were dropped, the rate is taken over
        the time the kept stamps span.
        """
        with self._lock:
            now = time.perf_counter()
            origin = self._window_start
            if origin is None:
                origin = self._first_submit
            if origin is None and self._completions:
                # Completions recorded without record_submitted (bare-metrics
                # callers): measure from the first completion instead.
                origin = self._completions[0]
            if origin is None:
                return 0.0
            span = min(window_seconds, now - origin)
            if span <= 0:
                return 0.0
            cutoff = now - span
            stamps = self._completions
            if len(stamps) == stamps.maxlen and stamps[0] > cutoff:
                # The bounded deque dropped stamps inside the window: count
                # the kept ones over the time they actually span.
                return len(stamps) / (now - stamps[0])
            count = sum(1 for stamp in stamps if stamp >= cutoff)
        return count / span

    def reset_window(self) -> None:
        """Restart the windowed measurements (throughput window and stamps)."""
        with self._lock:
            self._completions.clear()
            self._window_start = time.perf_counter()

    @property
    def cache_hit_rate(self) -> float:
        with self._lock:
            total = self.cache_hits + self.cache_misses
            return self.cache_hits / total if total else 0.0

    def snapshot(self, queue_depth: int | None = None) -> dict:
        """Everything a dashboard needs, as one dict.

        The core serving counters come first; everything registered in
        :attr:`registry` (engine executor tallies, admission wait
        histograms, queue depth gauges, ...) is flattened on top under its
        registered name.  ``queue_depth`` may still be passed explicitly by
        callers holding a bare ``RuntimeMetrics`` without a wired registry.
        """
        p50 = self.latency_percentile(50)
        p95 = self.latency_percentile(95)
        p99 = self.latency_percentile(99)
        with self._lock:
            out = {
                "submitted": self.submitted,
                "completed": self.completed,
                "failed": self.failed,
                "in_flight": self.submitted - self.completed - self.failed,
                "cache_hits": self.cache_hits,
                "cache_misses": self.cache_misses,
                "casts_skipped": self.casts_skipped,
            }
        out["cache_hit_rate"] = round(self.cache_hit_rate, 4)
        out["throughput_qps"] = round(self.throughput(), 2)
        out["throughput_recent_qps"] = round(self.windowed_throughput(), 2)
        out["latency_p50_s"] = p50
        out["latency_p95_s"] = p95
        out["latency_p99_s"] = p99
        out.update(self.registry.snapshot())
        if queue_depth is not None:
            out["queue_depth"] = queue_depth
        return out
