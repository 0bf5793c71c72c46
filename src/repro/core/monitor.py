"""Cross-system monitoring and workload-driven data placement.

Section 2.1: "we are investigating cross-system monitoring that will migrate
data objects between storage engines as query workloads change.  We are
building a monitoring system that will re-execute portions of a query workload
on multiple engines, learning which engines excel at which types of queries."

Two pieces implement that here:

* :class:`ExecutionMonitor` — records (query class, object, engine, latency)
  observations, and can *probe* a workload sample by re-executing it on every
  candidate engine through a caller-supplied runner.
* :class:`MigrationAdvisor` — from the monitor's observations, recommends
  moving an object to the engine with the lowest expected latency for the
  object's dominant query class, and can apply the recommendation through the
  CAST migrator.
"""

from __future__ import annotations

import sys
import threading
import time
from collections import defaultdict, deque
from dataclasses import dataclass, field
from statistics import mean
from typing import Callable

from repro.core.cast import CastMigrator
from repro.core.catalog import BigDawgCatalog


@dataclass(frozen=True, slots=True)
class Observation:
    """One measured query execution."""

    query_class: str  # e.g. "sql_filter", "linear_algebra", "text_search"
    object_name: str
    engine_name: str
    seconds: float


@dataclass
class MigrationRecommendation:
    """Advice to move one object to a better-suited engine."""

    object_name: str
    current_engine: str
    target_engine: str
    query_class: str
    expected_speedup: float

    @property
    def worthwhile(self) -> bool:
        return self.target_engine != self.current_engine and self.expected_speedup > 1.0


class ExecutionMonitor:
    """Accumulates latency observations per (query class, object, engine)."""

    def __init__(self, window: int = 10_000) -> None:
        # Bounded: the runtime feeds one observation per completed query, so
        # an unbounded list would grow forever in a long-lived server.  Old
        # observations age out, which is also what a workload-following
        # advisor wants to learn from.
        self._observations: deque[Observation] = deque(maxlen=window)
        # The runtime records observations from many worker threads at once;
        # one lock keeps appends and snapshot reads consistent.
        self._lock = threading.Lock()

    def record(self, query_class: str, object_name: str, engine_name: str, seconds: float) -> None:
        # A window of observations repeats a handful of names: interned, each
        # costs the observation a slot instead of a string of its own.
        observation = Observation(
            sys.intern(query_class), sys.intern(object_name.lower()),
            sys.intern(engine_name.lower()), seconds,
        )
        with self._lock:
            self._observations.append(observation)

    def probe(self, query_class: str, object_name: str,
              runners: dict[str, Callable[[], object]]) -> dict[str, float]:
        """Re-execute one representative query on several engines; record and return latencies."""
        latencies = {}
        for engine_name, runner in runners.items():
            started = time.perf_counter()
            runner()
            elapsed = time.perf_counter() - started
            self.record(query_class, object_name, engine_name, elapsed)
            latencies[engine_name] = elapsed
        return latencies

    # -------------------------------------------------------------- statistics
    @property
    def observations(self) -> list[Observation]:
        with self._lock:
            return list(self._observations)

    def mean_latency(self, query_class: str, object_name: str, engine_name: str) -> float | None:
        samples = [
            o.seconds
            for o in self.observations
            if o.query_class == query_class
            and o.object_name == object_name.lower()
            and o.engine_name == engine_name.lower()
        ]
        return mean(samples) if samples else None

    def dominant_query_class(self, object_name: str) -> str | None:
        """The most frequent query class observed against an object."""
        counts: dict[str, int] = defaultdict(int)
        for o in self.observations:
            if o.object_name == object_name.lower():
                counts[o.query_class] += 1
        if not counts:
            return None
        return max(counts, key=counts.get)

    def best_engine(self, query_class: str, object_name: str) -> tuple[str, float] | None:
        """The engine with the lowest mean latency for a query class on an object."""
        by_engine: dict[str, list[float]] = defaultdict(list)
        for o in self.observations:
            if o.query_class == query_class and o.object_name == object_name.lower():
                by_engine[o.engine_name].append(o.seconds)
        if not by_engine:
            return None
        averaged = {engine: mean(samples) for engine, samples in by_engine.items()}
        best = min(averaged, key=averaged.get)
        return best, averaged[best]


@dataclass
class MigrationAdvisor:
    """Turns monitor observations into (and optionally applies) migrations."""

    catalog: BigDawgCatalog
    monitor: ExecutionMonitor
    migrator: CastMigrator
    applied: list[MigrationRecommendation] = field(default_factory=list)

    def recommend(self, object_name: str) -> MigrationRecommendation | None:
        """Recommend a placement for one object based on its dominant workload."""
        query_class = self.monitor.dominant_query_class(object_name)
        if query_class is None:
            return None
        best = self.monitor.best_engine(query_class, object_name)
        if best is None:
            return None
        best_engine, best_latency = best
        current = self.catalog.locate(object_name).engine_name
        current_latency = self.monitor.mean_latency(query_class, object_name, current)
        if current_latency is None or best_latency <= 0:
            expected_speedup = 1.0
        else:
            expected_speedup = current_latency / best_latency
        return MigrationRecommendation(
            object_name=object_name,
            current_engine=current,
            target_engine=best_engine,
            query_class=query_class,
            expected_speedup=expected_speedup,
        )

    def apply(self, recommendation: MigrationRecommendation, method: str = "binary",
              chunk_size: int | None = None, **cast_options) -> bool:
        """Apply a worthwhile recommendation by casting the object. Returns True if moved.

        Migrations ride the chunked streaming pipeline, so rebalancing a large
        object does not spike memory; ``chunk_size`` tunes the per-chunk row
        budget.
        """
        if not recommendation.worthwhile:
            return False
        self.migrator.cast(
            recommendation.object_name,
            recommendation.target_engine,
            method=method,
            chunk_size=chunk_size,
            drop_source=True,
            **cast_options,
        )
        self.applied.append(recommendation)
        return True

    def rebalance(self, objects: list[str], minimum_speedup: float = 1.5,
                  cast_options: dict | None = None,
                  chunk_size: int | None = None) -> list[MigrationRecommendation]:
        """Recommend-and-apply for a set of objects; returns what was moved."""
        moved = []
        for object_name in objects:
            recommendation = self.recommend(object_name)
            if recommendation is None or recommendation.expected_speedup < minimum_speedup:
                continue
            options = dict(cast_options or {})
            if chunk_size is not None:
                # The explicit argument wins over a chunk_size in cast_options.
                options["chunk_size"] = chunk_size
            if self.apply(recommendation, **options):
                moved.append(recommendation)
        return moved
