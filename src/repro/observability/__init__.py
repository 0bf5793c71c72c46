"""Observability: query tracing, typed metrics, operator spans.

Four pieces, used together or separately:

* :mod:`~repro.observability.tracing` — ``Tracer``/``Span`` with ambient
  thread-local context that survives the runtime's worker pools.
* :mod:`~repro.observability.registry` — a typed metric registry
  (counters, gauges, histograms) behind one namespaced snapshot.
* :mod:`~repro.observability.profile` — the operator stream wrapper that
  records one ``op.<Node>`` span per operator (EXPLAIN ANALYZE reads them)
  and the slow-query log.
* :mod:`~repro.observability.export` — Chrome trace-event JSON and OTLP
  JSON export plus a text tree renderer for collected spans.
"""

from repro.observability.export import (
    render_tree,
    to_chrome_trace,
    to_otlp,
    write_chrome_trace,
    write_otlp,
)
from repro.observability.profile import SlowQueryLog, observe_stream
from repro.observability.registry import Counter, Gauge, Histogram, MetricRegistry
from repro.observability.tracing import (
    NULL_SPAN,
    Span,
    Tracer,
    capture_context,
    current_span,
    get_tracer,
    set_tracer,
    tracer_scope,
    with_context,
)

__all__ = [
    "NULL_SPAN",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricRegistry",
    "SlowQueryLog",
    "Span",
    "Tracer",
    "capture_context",
    "current_span",
    "get_tracer",
    "observe_stream",
    "render_tree",
    "set_tracer",
    "to_chrome_trace",
    "to_otlp",
    "tracer_scope",
    "with_context",
    "write_chrome_trace",
    "write_otlp",
]
