"""A typed metric registry: counters, gauges and histograms by name.

Before this module, every new engine- or runtime-level counter grew the
optional-kwarg list of ``RuntimeMetrics.snapshot()`` — eight kwargs and
counting.  Now components *register* metrics under namespaced names
(``relational_groupby_paths``, ``admission_queue_wait``, ...) and one
``registry.snapshot()`` call flattens everything into a single dict, so a
dashboard, a test or a benchmark reads the whole system from one place
without the serving layer knowing each engine's internals.

Three metric types:

* :class:`Counter` — a monotonically increasing integer (``inc``).
* :class:`Gauge` — a point-in-time value, either pushed (``set``) or
  computed on read from a registered callable (the pattern the runtime
  uses to aggregate per-engine counters lazily).
* :class:`Histogram` — a bounded sliding window of observations with
  percentile summaries (the same windowing the latency metrics use).

All types are thread-safe; registration is idempotent per (name, type) and
re-registering a name as a different type raises, so two subsystems cannot
silently fight over one key.
"""

from __future__ import annotations

import math
import threading
from collections import deque
from typing import Any, Callable

__all__ = ["Counter", "Gauge", "Histogram", "MetricRegistry"]


class Counter:
    """Monotonic counter."""

    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0

    def inc(self, amount: int = 1) -> None:
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int:
        with self._lock:
            return self._value

    def snapshot_value(self) -> int:
        return self.value


class Gauge:
    """Point-in-time value: pushed with ``set`` or computed from a callable."""

    __slots__ = ("_lock", "_value", "_fn")

    def __init__(self, fn: Callable[[], Any] | None = None) -> None:
        self._lock = threading.Lock()
        self._value: Any = 0
        self._fn = fn

    def set(self, value: Any) -> None:
        with self._lock:
            self._value = value

    def set_max(self, value: Any) -> None:
        with self._lock:
            if value > self._value:
                self._value = value

    @property
    def value(self) -> Any:
        if self._fn is not None:
            return self._fn()
        with self._lock:
            return self._value

    def snapshot_value(self) -> Any:
        return self.value


class Histogram:
    """Bounded sliding window of float observations with percentiles.

    ``snapshot_value`` flattens to ``{count, total, mean, p50, p95, p99,
    max}`` — the registry prefixes each with the histogram's name.
    """

    __slots__ = ("_lock", "_window", "_count", "_total", "_max")

    def __init__(self, window: int = 4096) -> None:
        self._lock = threading.Lock()
        self._window: deque[float] = deque(maxlen=window)
        self._count = 0
        self._total = 0.0
        self._max = 0.0

    def observe(self, value: float) -> None:
        with self._lock:
            self._window.append(value)
            self._count += 1
            self._total += value
            if value > self._max:
                self._max = value

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def total(self) -> float:
        with self._lock:
            return self._total

    def percentile(self, percentile: float) -> float | None:
        """Linear-interpolated percentile over the recent window, or None."""
        with self._lock:
            samples = sorted(self._window)
        if not samples:
            return None
        rank = (percentile / 100.0) * (len(samples) - 1)
        lower = math.floor(rank)
        upper = math.ceil(rank)
        if lower == upper:
            return samples[lower]
        fraction = rank - lower
        return samples[lower] * (1 - fraction) + samples[upper] * fraction

    def snapshot_value(self) -> dict[str, Any]:
        with self._lock:
            count, total, peak = self._count, self._total, self._max
        return {
            "count": count,
            "total": round(total, 6),
            "mean": round(total / count, 6) if count else 0.0,
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
            "max": round(peak, 6),
        }


class MetricRegistry:
    """Get-or-create registry of named metrics plus one flat snapshot."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: dict[str, Counter | Gauge | Histogram] = {}

    # -------------------------------------------------------------- creation
    def _get_or_create(self, name: str, factory: Callable[[], Any], kind: type) -> Any:
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = factory()
                self._metrics[name] = metric
            elif not isinstance(metric, kind):
                raise TypeError(
                    f"metric {name!r} is already registered as "
                    f"{type(metric).__name__}, not {kind.__name__}"
                )
            return metric

    def counter(self, name: str) -> Counter:
        return self._get_or_create(name, Counter, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get_or_create(name, Gauge, Gauge)

    def register_gauge(self, name: str, fn: Callable[[], Any]) -> Gauge:
        """A computed gauge: ``fn`` is called at snapshot time.

        Re-registering the same name swaps the callable — the pattern for a
        runtime that rebuilds its aggregation closures on reconfiguration.
        """
        with self._lock:
            metric = self._metrics.get(name)
            if metric is not None and not isinstance(metric, Gauge):
                raise TypeError(
                    f"metric {name!r} is already registered as {type(metric).__name__}"
                )
            gauge = Gauge(fn)
            self._metrics[name] = gauge
            return gauge

    def histogram(self, name: str, window: int = 4096) -> Histogram:
        return self._get_or_create(name, lambda: Histogram(window), Histogram)

    # -------------------------------------------------------------- snapshot
    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._metrics)

    def snapshot(self) -> dict[str, Any]:
        """One flat dict of every registered metric.

        Counters and gauges land under their own name; histograms expand to
        ``<name>_count`` / ``<name>_total`` / ``<name>_mean`` / ``<name>_p50``
        / ``<name>_p95`` / ``<name>_p99`` / ``<name>_max``.
        """
        with self._lock:
            metrics = dict(self._metrics)
        out: dict[str, Any] = {}
        for name in sorted(metrics):
            metric = metrics[name]
            value = metric.snapshot_value()
            if isinstance(metric, Histogram):
                for key, sub in value.items():
                    out[f"{name}_{key}"] = sub
            else:
                out[name] = value
        return out
