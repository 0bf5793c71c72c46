"""Lightweight distributed-style tracing for the polystore.

A :class:`Tracer` collects :class:`Span` records for everything a query does:
the runtime lifecycle (queued → admitted → planned → executed), each
cross-island plan step, each CAST stage (export/encode/decode/import per
chunk) and each relational operator, down to morsel probe waves and spill
runs.  Spans form a tree via parent ids, and the ambient "current span" is a
*module-level thread-local* so span creation anywhere in the stack attaches
to the right parent without plumbing handles through every layer.

Two properties drive the design:

* **Near-zero cost disabled.**  ``tracer.span(...)`` on a disabled tracer
  returns the shared :data:`NULL_SPAN` singleton — no allocation, no
  thread-local write, no lock.  Hot paths additionally gate per-item spans
  on ``tracer.enabled``.
* **Context survives thread pools.**  Worker threads (the runtime's
  scheduler pool, its per-wave plan threads, and ``TaskContext`` morsel
  workers) do not inherit the submitter's thread-local.  The submitting
  side calls :func:`capture_context` (one ``getattr``) and the worker runs
  the task through :func:`with_context`, which installs the captured span
  as the ambient parent for the duration of the call.
"""

from __future__ import annotations

import itertools
import threading
import time
from typing import Any, Callable

from repro.common import cancellation

__all__ = [
    "NULL_SPAN",
    "Span",
    "Tracer",
    "capture_context",
    "current_span",
    "get_tracer",
    "query_scope",
    "set_tracer",
    "tracer_scope",
    "with_context",
]

# .span   -> the innermost live Span on this thread
# .tracer -> a thread-scoped Tracer override (see :func:`tracer_scope`)
_ACTIVE = threading.local()

_SPAN_IDS = itertools.count(1)
_TRACE_IDS = itertools.count(1)


def current_span() -> "Span | None":
    """The innermost live span on the calling thread, or None."""
    return getattr(_ACTIVE, "span", None)


def capture_context() -> "tuple[Span | None, Tracer | None, Any] | None":
    """Snapshot the ambient (span, tracer override, cancellation token).

    Returns None when there is nothing to carry, so the disabled path in
    :func:`with_context` stays one ``is None`` check.  The cancellation
    token rides along with the trace context because the two have exactly
    the same propagation problem: worker threads (scheduler pool, plan-wave
    threads, morsel workers) do not inherit the submitter's thread-locals.
    """
    span = getattr(_ACTIVE, "span", None)
    tracer = getattr(_ACTIVE, "tracer", None)
    token = cancellation.current_token()
    if span is None and tracer is None and token is None:
        return None
    return (span, tracer, token)


def with_context(ctx: Any, fn: Callable, *args: Any, **kwargs: Any) -> Any:
    """Run ``fn`` with a captured context installed as the thread's ambient.

    ``ctx`` is what :func:`capture_context` returned: None (nothing to
    carry — ``fn`` is called directly) or a ``(span, tracer, token)``
    triple.
    """
    if ctx is None:
        return fn(*args, **kwargs)
    span, tracer, token = ctx
    prev_span = getattr(_ACTIVE, "span", None)
    prev_tracer = getattr(_ACTIVE, "tracer", None)
    prev_token = cancellation._install(token)
    _ACTIVE.span = span
    _ACTIVE.tracer = tracer
    try:
        return fn(*args, **kwargs)
    finally:
        _ACTIVE.span = prev_span
        _ACTIVE.tracer = prev_tracer
        cancellation._install(prev_token)


class tracer_scope:
    """Install ``tracer`` as this thread's tracer for the ``with`` body.

    Everything under the block that calls :func:`get_tracer` — the
    scheduler, CAST pipeline, operators — sees ``tracer`` instead of the
    process-global one, and :func:`capture_context` carries the override
    into worker threads.  This is how ``runtime.trace(query)`` collects one
    query's spans without enabling tracing for concurrent traffic, and how
    sampled tracing silences the queries that lost the draw.
    """

    __slots__ = ("_tracer", "_prev")

    def __init__(self, tracer: "Tracer") -> None:
        self._tracer = tracer

    def __enter__(self) -> "Tracer":
        self._prev = getattr(_ACTIVE, "tracer", None)
        _ACTIVE.tracer = self._tracer
        return self._tracer

    def __exit__(self, *exc_info: object) -> bool:
        _ACTIVE.tracer = self._prev
        return False


class query_scope:
    """Install a tracer override and a cancellation token together for the
    ``with`` body: the pair :func:`with_context` carries into workers, in
    one scope, as the runtime serves a query on its thread."""

    __slots__ = ("_tracer", "_token", "_prev_tracer", "_prev_token")

    def __init__(self, tracer: "Tracer",
                 token: "cancellation.CancellationToken | None") -> None:
        self._tracer, self._token = tracer, token

    def __enter__(self) -> None:
        self._prev_tracer = getattr(_ACTIVE, "tracer", None)
        _ACTIVE.tracer = self._tracer
        self._prev_token = cancellation._install(self._token)

    def __exit__(self, *exc_info: object) -> bool:
        _ACTIVE.tracer = self._prev_tracer
        cancellation._install(self._prev_token)
        return False


class _NullSpan:
    """Shared do-nothing span: the disabled tracer's only return value."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: object) -> bool:
        return False

    def set(self, key: str, value: Any) -> "_NullSpan":
        return self


NULL_SPAN = _NullSpan()


class Span:
    """One timed, attributed node in a trace tree.

    ``start_s`` is wall-clock epoch seconds (for export alignment across
    threads); ``duration_s`` is measured with ``perf_counter`` so short
    spans stay precise.  Use as a context manager, or let the tracer
    record pre-measured spans via :meth:`Tracer.record`.
    """

    __slots__ = (
        "name",
        "kind",
        "trace_id",
        "span_id",
        "parent_id",
        "start_s",
        "duration_s",
        "thread",
        "attrs",
        "_tracer",
        "_prev",
        "_start_perf",
    )

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        kind: str,
        trace_id: int,
        parent_id: int | None,
        attrs: dict[str, Any],
    ) -> None:
        self._tracer = tracer
        self.name = name
        self.kind = kind
        self.trace_id = trace_id
        self.span_id = next(_SPAN_IDS)
        self.parent_id = parent_id
        self.start_s = time.time()
        self.duration_s = 0.0
        self.thread = threading.current_thread().name
        self.attrs = attrs
        self._prev: Span | None = None
        self._start_perf = time.perf_counter()

    def set(self, key: str, value: Any) -> "Span":
        self.attrs[key] = value
        return self

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> bool:
        if exc_type is not None:
            self.attrs["error"] = getattr(exc_type, "__name__", str(exc_type))
        self.finish()
        return False

    def finish(self) -> None:
        self.duration_s = time.perf_counter() - self._start_perf
        _ACTIVE.span = self._prev
        self._tracer._collect(self)

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "kind": self.kind,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start_s": self.start_s,
            "duration_s": self.duration_s,
            "thread": self.thread,
            "attrs": dict(self.attrs),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Span({self.name!r}, id={self.span_id}, parent={self.parent_id}, "
            f"{self.duration_s * 1000:.3f}ms)"
        )


class Tracer:
    """Collects spans into a bounded in-memory buffer.

    Disabled by default: every ``span()`` call then returns
    :data:`NULL_SPAN` without allocating.  ``max_spans`` bounds memory on
    long traced runs; overflow increments :attr:`dropped` instead of
    growing without limit.
    """

    def __init__(self, enabled: bool = False, max_spans: int = 100_000,
                 sample_every: int | None = None) -> None:
        self.enabled = enabled
        self.max_spans = max_spans
        #: Trace one query in every ``sample_every`` (None/1 = every query).
        self.sample_every = sample_every
        self.dropped = 0
        self.sampled = 0
        self.unsampled = 0
        self._lock = threading.Lock()
        self._spans: list[Span] = []
        self._sample_clock = 0

    # ----------------------------------------------------------------- control
    def enable(self) -> "Tracer":
        self.enabled = True
        return self

    def disable(self) -> "Tracer":
        self.enabled = False
        return self

    def reset(self) -> None:
        with self._lock:
            self._spans = []
            self.dropped = 0
            self.sampled = 0
            self.unsampled = 0
            self._sample_clock = 0

    def sample_query(self) -> bool:
        """Whether the next query should be traced (1-in-``sample_every``).

        Deterministic round-robin rather than random: query ``0, N, 2N, ...``
        of the tracer's lifetime are traced, so a load test with
        ``sample_every=100`` records exactly 1% of its queries.  Always True
        without sampling configured; always False disabled.
        """
        if not self.enabled:
            return False
        if not self.sample_every or self.sample_every <= 1:
            return True
        with self._lock:
            chosen = self._sample_clock % self.sample_every == 0
            self._sample_clock += 1
            if chosen:
                self.sampled += 1
            else:
                self.unsampled += 1
        return chosen

    # ------------------------------------------------------------------- spans
    def span(self, name: str, kind: str = "span", **attrs: Any) -> "Span | _NullSpan":
        """Start a live span parented to the thread's current span.

        The span becomes the ambient parent until it finishes (use it as a
        context manager).  Disabled tracers return :data:`NULL_SPAN`.
        """
        if not self.enabled:
            return NULL_SPAN
        parent = getattr(_ACTIVE, "span", None)
        if parent is not None:
            trace_id, parent_id = parent.trace_id, parent.span_id
        else:
            trace_id, parent_id = next(_TRACE_IDS), None
        span = Span(self, name, kind, trace_id, parent_id, attrs)
        span._prev = parent
        _ACTIVE.span = span
        return span

    def record(
        self,
        name: str,
        start_s: float,
        duration_s: float,
        parent: "Span | None" = None,
        kind: str = "span",
        **attrs: Any,
    ) -> "Span | _NullSpan":
        """Append an already-measured span without making it ambient.

        Used where the interval was timed externally (operator stream
        accounting, queue wait measured across threads).  ``parent``
        defaults to the thread's current span.
        """
        if not self.enabled:
            return NULL_SPAN
        if parent is None:
            parent = getattr(_ACTIVE, "span", None)
        if parent is not None and not isinstance(parent, Span):
            parent = None
        if parent is not None:
            trace_id, parent_id = parent.trace_id, parent.span_id
        else:
            trace_id, parent_id = next(_TRACE_IDS), None
        span = Span(self, name, kind, trace_id, parent_id, attrs)
        span.start_s = start_s
        span.duration_s = duration_s
        self._collect(span)
        return span

    def _collect(self, span: Span) -> None:
        with self._lock:
            if len(self._spans) >= self.max_spans:
                self.dropped += 1
                return
            self._spans.append(span)

    # ------------------------------------------------------------------ access
    def spans(self, name: str | None = None) -> list[Span]:
        with self._lock:
            spans = list(self._spans)
        if name is not None:
            spans = [s for s in spans if s.name == name]
        return spans

    def span_names(self) -> set[str]:
        with self._lock:
            return {s.name for s in self._spans}

    def find(self, predicate: Callable[[Span], bool]) -> list[Span]:
        with self._lock:
            return [s for s in self._spans if predicate(s)]

    def __len__(self) -> int:
        with self._lock:
            return len(self._spans)


#: Process-global tracer, disabled until someone opts in.  All instrumented
#: components read it through :func:`get_tracer`, so tests (and the example
#: scripts) can swap in a fresh tracer with :func:`set_tracer`.
_GLOBAL_TRACER = Tracer(enabled=False)


def get_tracer() -> Tracer:
    """The calling thread's tracer: a :func:`tracer_scope` override if one
    is installed, else the process-global tracer."""
    override = getattr(_ACTIVE, "tracer", None)
    return override if override is not None else _GLOBAL_TRACER


def set_tracer(tracer: Tracer) -> Tracer:
    """Install ``tracer`` as the process-global tracer; returns the old one."""
    global _GLOBAL_TRACER
    previous = _GLOBAL_TRACER
    _GLOBAL_TRACER = tracer
    return previous
