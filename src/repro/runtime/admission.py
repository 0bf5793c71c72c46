"""Per-engine admission control for the concurrent runtime.

Every storage engine gets a *gate*: a bounded number of concurrent execution
slots plus a FIFO wait queue.  A plan step must be admitted by the gates of
every engine it touches before it runs, so a burst of slow array scans can
saturate only the array engine's slots while relational traffic keeps
flowing through its own.  Waiters are served strictly in arrival order and
give up with :class:`AdmissionTimeout` once the configured timeout passes —
bounded queueing rather than unbounded convoy, the property the
hybrid-hash-join robustness literature calls load-bounded admission.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Iterable

from repro.common.errors import BigDawgError


class AdmissionTimeout(BigDawgError):
    """Raised when a query waited longer than the admission timeout for a slot."""


class EngineGate:
    """Bounded concurrent slots for one engine, with a FIFO wait queue.

    Besides the admission counters, the gate separates the two timings the
    tail-latency story needs: *queue-wait* (seconds a ticket was blocked
    before admission — recorded by :meth:`acquire` and reported through
    ``on_wait``) and *hold* (seconds the admitted step kept its slot, i.e.
    execution — recorded by the admission controller via
    :meth:`record_hold`).  End-to-end latency alone cannot distinguish an
    overloaded gate from a slow engine; these two can.
    """

    def __init__(self, engine_name: str, slots: int,
                 on_wait: "callable | None" = None) -> None:
        if slots <= 0:
            raise ValueError(f"slots must be positive, got {slots}")
        self.engine_name = engine_name
        self.slots = slots
        self._condition = threading.Condition()
        self._queue: deque[object] = deque()
        self._in_use = 0
        self._on_wait = on_wait
        # Counters for the metrics surface.
        self.admitted = 0
        self.timed_out = 0
        self.peak_waiting = 0
        self.wait_seconds_total = 0.0
        self.held_seconds_total = 0.0

    # ----------------------------------------------------------------- slots
    def acquire(self, timeout: float | None = None) -> float:
        """Wait (FIFO) for a slot; raise :class:`AdmissionTimeout` on timeout.

        Returns the seconds spent queued before admission: 0.0 when nobody
        was queued and a slot was free, so the slot is taken at once.
        """
        with self._condition:
            if not self._queue and self._in_use < self.slots:
                self._in_use += 1
                self.admitted += 1
                waited = 0.0
            else:
                waited = self._wait_in_queue(timeout)
        if self._on_wait is not None:
            self._on_wait(waited)
        return waited

    def _wait_in_queue(self, timeout: float | None) -> float:
        """Queue a ticket and wait until it heads the queue with a slot free
        (callers hold the condition); the seconds it waited."""
        ticket = object()
        entered = time.monotonic()
        deadline = None if timeout is None else entered + timeout
        self._queue.append(ticket)
        self.peak_waiting = max(self.peak_waiting, len(self._queue))
        while not (self._queue[0] is ticket and self._in_use < self.slots):
            remaining = None if deadline is None else deadline - time.monotonic()
            if remaining is not None and remaining <= 0:
                self._queue.remove(ticket)
                self.timed_out += 1
                self.wait_seconds_total += time.monotonic() - entered
                # Our departure may unblock the ticket behind us.
                self._condition.notify_all()
                raise AdmissionTimeout(
                    f"engine {self.engine_name!r}: no free slot within {timeout:.3f}s "
                    f"({self._in_use}/{self.slots} in use, {len(self._queue)} waiting)"
                )
            self._condition.wait(remaining)
        self._queue.popleft()
        self._in_use += 1
        self.admitted += 1
        waited = time.monotonic() - entered
        self.wait_seconds_total += waited
        if self._queue and self._in_use < self.slots:
            # The new queue head is admittable too (multiple slots).
            self._condition.notify_all()
        return waited

    def release(self) -> None:
        with self._condition:
            if self._in_use <= 0:
                raise RuntimeError(f"engine gate {self.engine_name!r} released more than acquired")
            self._in_use -= 1
            if self._queue:
                self._condition.notify_all()

    def record_hold(self, seconds: float) -> None:
        """Account seconds one admitted step held a slot (execution time)."""
        with self._condition:
            self.held_seconds_total += seconds

    # ----------------------------------------------------------------- status
    @property
    def in_use(self) -> int:
        with self._condition:
            return self._in_use

    @property
    def waiting(self) -> int:
        with self._condition:
            return len(self._queue)

    def describe(self) -> dict:
        with self._condition:
            return {
                "engine": self.engine_name,
                "slots": self.slots,
                "in_use": self._in_use,
                "waiting": len(self._queue),
                "admitted": self.admitted,
                "timed_out": self.timed_out,
                "peak_waiting": self.peak_waiting,
                "wait_seconds_total": round(self.wait_seconds_total, 6),
                "held_seconds_total": round(self.held_seconds_total, 6),
            }


class AdmissionController:
    """One :class:`EngineGate` per engine, created on first use.

    ``slots`` overrides the per-engine slot count (``{"scidb": 1}``); every
    other engine gets ``slots_per_engine``.  ``admit`` acquires the gates of
    all engines a step touches in sorted name order — a global acquisition
    order, so two steps touching overlapping engine sets cannot deadlock.
    """

    def __init__(self, slots_per_engine: int = 2, timeout: float | None = 30.0,
                 slots: dict[str, int] | None = None) -> None:
        if slots_per_engine <= 0:
            raise ValueError(f"slots_per_engine must be positive, got {slots_per_engine}")
        self.slots_per_engine = slots_per_engine
        self.timeout = timeout
        #: Optional callable receiving each gate's queue-wait seconds — the
        #: runtime points this at ``RuntimeMetrics.record_queue_wait`` so
        #: backpressure shows up in the registry's histogram.
        self.wait_sink = None
        self._overrides = {name.lower(): count for name, count in (slots or {}).items()}
        self._gates: dict[str, EngineGate] = {}
        self._lock = threading.Lock()

    def gate(self, engine_name: str) -> EngineGate:
        key = engine_name.lower()
        gate = self._gates.get(key)
        if gate is not None:
            return gate
        with self._lock:
            if key not in self._gates:
                self._gates[key] = EngineGate(
                    key, self._overrides.get(key, self.slots_per_engine),
                    on_wait=self._record_wait,
                )
            return self._gates[key]

    def _record_wait(self, seconds: float) -> None:
        sink = self.wait_sink
        if sink is not None:
            sink(seconds)

    def admit(self, engine_names: Iterable[str],
              timeout: float | None = None) -> _Admission:
        """Hold one slot on every named engine for the duration of the block."""
        return _Admission(
            self, sorted({name.lower() for name in engine_names}),
            self.timeout if timeout is None else timeout,
        )

    # ----------------------------------------------------------------- status
    def queue_depth(self) -> int:
        """Total queries currently waiting across all gates."""
        with self._lock:
            gates = list(self._gates.values())
        return sum(gate.waiting for gate in gates)

    def queue_wait_seconds(self) -> float:
        """Total seconds spent queued across all gates, ever."""
        with self._lock:
            gates = list(self._gates.values())
        return sum(gate.wait_seconds_total for gate in gates)

    def held_seconds(self) -> float:
        """Total slot-hold (execution) seconds across all gates, ever."""
        with self._lock:
            gates = list(self._gates.values())
        return sum(gate.held_seconds_total for gate in gates)

    def describe(self) -> dict:
        with self._lock:
            gates = list(self._gates.values())
        return {gate.engine_name: gate.describe() for gate in gates}


class _Admission:
    """One ``with`` block's hold on its engines' gates: entering acquires
    them in sorted name order, leaving records the hold on each and
    releases them (a failed acquisition releases what it took)."""

    __slots__ = ("_controller", "_names", "_timeout", "_gates", "_held_from")

    def __init__(self, controller: AdmissionController, names: list[str],
                 timeout: float | None) -> None:
        self._controller, self._names, self._timeout = controller, names, timeout

    def __enter__(self) -> None:
        gates: list[EngineGate] = []
        try:
            for name in self._names:
                gate = self._controller.gate(name)
                gate.acquire(self._timeout)
                gates.append(gate)
        except BaseException:
            for gate in reversed(gates):
                gate.release()
            raise
        self._gates = gates
        self._held_from = time.monotonic()

    def __exit__(self, *exc_info: object) -> bool:
        held = time.monotonic() - self._held_from
        for gate in reversed(self._gates):
            gate.record_hold(held)
            gate.release()
        return False
