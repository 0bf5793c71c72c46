"""Benchmark-side spans: timing calls into each layer's public functions.

Nothing under ``src/`` is edited.  A traced run swaps the public callables
named in :func:`_targets` for timing wrappers (restored on exit), so one real
execution yields properly nested spans: name, start, end, parent, op id.
A layer's *self time* is its span minus the interval its children cover;
summing self times by layer gives the per-workload share table.

Span names are ``<layer>.<call>``; the layer is the module path of the code
the wrapped function lives in (``runtime.cache``, ``core.cast``, ...).
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

#: Span-name prefixes, longest first, mapped to the layer they bill.
LAYERS = (
    "runtime.scheduler", "runtime.cache", "runtime.admission",
    "runtime.resilience", "runtime.journal",
    "core.query", "core.islands", "core.bigdawg", "core.cast",
    "common.serialization", "engines.relational", "engines.array",
)


def layer_of(span_name: str) -> str:
    for layer in LAYERS:
        if span_name == layer or span_name.startswith(layer + "."):
            return layer
    return "unaccounted"


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    op: int | None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """In-memory span sink with per-thread nesting.

    A span opened on a thread with no open span of its own (the runtime's
    pool worker picking up a submitted query) is parented to the most
    recently opened span still open anywhere — with one traced client that
    is the ``runtime.scheduler.execute`` call waiting on the future.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.op: int | None = None
        self._local = threading.local()
        self._open: list[Span] = []
        self._lock = threading.Lock()

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        with self._lock:
            if stack:
                parent = stack[-1].id
            else:
                parent = self._open[-1].id if self._open else None
            span = Span(len(self.spans), name, 0.0, 0.0, parent, self.op, attrs)
            self.spans.append(span)
            self._open.append(span)
        stack.append(span)
        span.start = time.perf_counter()
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            stack.pop()
            with self._lock:
                self._open.remove(span)

    # ------------------------------------------------------------- analysis
    def self_times(self) -> dict[int, float]:
        """Span id -> duration minus the union of its children's intervals."""
        children: dict[int, list[Span]] = {}
        for span in self.spans:
            if span.parent is not None:
                children.setdefault(span.parent, []).append(span)
        out = {}
        for span in self.spans:
            covered = 0.0
            cursor = span.start
            for child in sorted(children.get(span.id, ()), key=lambda s: s.start):
                lo, hi = max(child.start, cursor), min(child.end, span.end)
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            out[span.id] = max(0.0, span.duration - covered)
        return out

    def durations(self, name: str) -> list[float]:
        """Durations of the ``name`` spans recorded inside ops."""
        return [s.duration for s in self.spans if s.name == name and s.op is not None]

    def layer_shares(self, selfs: dict[int, float],
                     ops: "set[int] | None" = None) -> dict[str, float]:
        """Share of op time per layer, from :meth:`self_times`, over ``ops`` or all ops."""
        totals: dict[str, float] = {}
        for span in self.spans:
            if span.op is None or (ops is not None and span.op not in ops):
                continue
            layer = layer_of(span.name)
            totals[layer] = totals.get(layer, 0.0) + selfs[span.id]
        whole = sum(totals.values())
        return {k: v / whole for k, v in sorted(totals.items())} if whole else {}

    def as_json(self) -> list[dict]:
        return [
            {"id": s.id, "name": s.name, "start": s.start, "end": s.end,
             "parent": s.parent, "op": s.op, **({"attrs": s.attrs} if s.attrs else {})}
            for s in self.spans
        ]


def _timed(recorder: SpanRecorder, name: str, fn: Callable,
           attrs: "Callable[..., dict] | None" = None) -> Callable:
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        with recorder.span(name) as span:
            result = fn(*args, **kwargs)
            if attrs is not None:
                span.attrs.update(attrs(args, result))
            return result
    return wrapper


def _timed_iterator(recorder: SpanRecorder, name: str, fn: Callable) -> Callable:
    """Wrap a generator-returning method: every ``next`` becomes one span."""
    def wrapper(*args: Any, **kwargs: Any) -> Iterator:
        source = iter(fn(*args, **kwargs))
        while True:
            with recorder.span(name):
                try:
                    item = next(source)
                except StopIteration:
                    return
            yield item
    return wrapper


def _timed_context(recorder: SpanRecorder, name: str, fn: Callable) -> Callable:
    """Wrap a context-manager factory: the span covers the whole with-block,
    so its self time is enter + exit (what the guarded body ran is children)."""
    @contextmanager
    def wrapper(*args: Any, **kwargs: Any) -> Iterator:
        with recorder.span(name):
            with fn(*args, **kwargs) as value:
                yield value
    return wrapper


def _targets() -> list[tuple[Any, str, str, str]]:
    """(owner, attribute, span name, wrapper kind) for every traced call."""
    import repro.core.bigdawg as bigdawg_module
    import repro.engines.relational.engine as relational_module
    from repro.common.serialization import BinaryCodec
    from repro.core.bigdawg import BigDawg
    from repro.core.cast import CastMigrator
    from repro.core.islands.array import ArrayIsland
    from repro.core.islands.d4m import D4MIsland
    from repro.core.islands.relational import RelationalIsland
    from repro.core.islands.text import TextIsland
    from repro.core.query.planner import CrossIslandPlanner, PlanExecution
    from repro.engines.array.engine import ArrayEngine
    from repro.engines.relational.engine import RelationalEngine
    from repro.runtime.admission import AdmissionController
    from repro.runtime.cache import ResultCache
    from repro.runtime.journal import Intent, WriteIntentJournal
    from repro.runtime.resilience import EngineResilience
    from repro.runtime.scheduler import PolystoreRuntime

    return [
        (PolystoreRuntime, "execute", "runtime.scheduler.execute", "call"),
        (ResultCache, "get", "runtime.cache.get", "call"),
        (ResultCache, "put", "runtime.cache.put", "call"),
        (ResultCache, "fingerprint", "runtime.cache.fingerprint", "call"),
        (AdmissionController, "admit", "runtime.admission.admit", "context"),
        (EngineResilience, "run", "runtime.resilience.run", "call"),
        (WriteIntentJournal, "begin", "runtime.journal.begin", "call"),
        (WriteIntentJournal, "commit_intent", "runtime.journal.commit", "call"),
        (WriteIntentJournal, "abort_intent", "runtime.journal.abort", "call"),
        (Intent, "mark", "runtime.journal.mark", "call"),
        (bigdawg_module, "parse_query", "core.query.parse", "call"),
        (CrossIslandPlanner, "plan", "core.query.plan", "call"),
        (PlanExecution, "run_step", "core.query.run_step", "call"),
        (BigDawg, "execute", "core.bigdawg.execute", "call"),
        (RelationalIsland, "execute", "core.islands.relational.execute", "call"),
        (ArrayIsland, "execute", "core.islands.array.execute", "call"),
        (TextIsland, "execute", "core.islands.text.execute", "call"),
        (D4MIsland, "execute", "core.islands.d4m.execute", "call"),
        (CastMigrator, "cast", "core.cast.cast", "call"),
        (BinaryCodec, "encode", "common.serialization.encode", "encode"),
        (BinaryCodec, "decode", "common.serialization.decode", "call"),
        (relational_module, "parse_sql", "engines.relational.sql.parse", "call"),
        (RelationalEngine, "execute", "engines.relational.execute", "sql"),
        (RelationalEngine, "plan", "engines.relational.plan", "call"),
        (RelationalEngine, "export_chunks", "engines.relational.export_chunks", "iterator"),
        (RelationalEngine, "import_chunks", "engines.relational.import_chunks", "call"),
        (ArrayEngine, "export_chunks", "engines.array.export_chunks", "iterator"),
        (ArrayEngine, "import_chunks", "engines.array.import_chunks", "call"),
        (ArrayEngine, "export_relation", "engines.array.export_relation", "call"),
    ]


@contextmanager
def instrumented(recorder: SpanRecorder) -> Iterator[SpanRecorder]:
    """Install the timing wrappers for the duration of the block."""
    originals = []
    for owner, attribute, name, kind in _targets():
        original = getattr(owner, attribute)
        if kind == "iterator":
            wrapper = _timed_iterator(recorder, name, original)
        elif kind == "context":
            wrapper = _timed_context(recorder, name, original)
        elif kind == "encode":
            # The frame's first byte is its layout (1 = columnar).
            wrapper = _timed(recorder, name, original,
                             attrs=lambda args, payload: {"columnar": payload[0] == 1})
        elif kind == "sql":
            wrapper = _timed(recorder, name, original,
                             attrs=lambda args, _r: {"engine": args[0].name, "sql": args[1]})
        else:
            wrapper = _timed(recorder, name, original)
        originals.append((owner, attribute, original))
        setattr(owner, attribute, wrapper)
    try:
        yield recorder
    finally:
        for owner, attribute, original in reversed(originals):
            setattr(owner, attribute, original)
