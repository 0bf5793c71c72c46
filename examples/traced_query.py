"""Trace one multi-island query end to end and export it for chrome://tracing.

Stands up a tiny BigDAWG deployment (relational + array + text engines),
enables the global :class:`~repro.observability.tracing.Tracer`, and runs a
cross-island query through the :class:`~repro.runtime.scheduler.PolystoreRuntime`:
an array object is CAST into the relational island and aggregated there, so
the trace covers the full lifecycle — admitted, planned, the CAST's
export/encode/decode/import stages, and the relational execution.
``runtime.execute`` runs on this thread; a query handed to
``runtime.submit`` would also show the time it queued for a worker.

The spans are written to ``traced_query.json`` in Chrome trace-event format;
open chrome://tracing (or https://ui.perfetto.dev) and load the file to see
one lane per thread.  The same spans are also printed as a text tree, and
the engine's EXPLAIN ANALYZE output shows estimated vs actual per-operator
cardinality for a plain relational query.

Run with::

    python examples/traced_query.py
"""

from __future__ import annotations

import numpy as np

from repro.core.bigdawg import BigDawg
from repro.engines.array import ArrayEngine
from repro.engines.keyvalue import KeyValueEngine
from repro.engines.relational import RelationalEngine
from repro.observability import Tracer, render_tree, set_tracer, write_chrome_trace
from repro.runtime import PolystoreRuntime

TRACE_PATH = "traced_query.json"

QUERY = (
    "RELATIONAL(SELECT count(*) AS n, sum(value) AS total "
    "FROM CAST(waveform, relational) WHERE value >= 0.25)"
)


def build_deployment() -> BigDawg:
    bigdawg = BigDawg()
    postgres = RelationalEngine("postgres")
    scidb = ArrayEngine("scidb")
    accumulo = KeyValueEngine("accumulo")
    bigdawg.add_engine(postgres, islands=["relational"])
    bigdawg.add_engine(scidb, islands=["array"])
    bigdawg.add_engine(accumulo, islands=["text"])

    postgres.execute("CREATE TABLE patients (id INTEGER PRIMARY KEY, age INTEGER)")
    postgres.execute("INSERT INTO patients VALUES (1, 64), (2, 70), (3, 41), (4, 77)")
    rng = np.random.default_rng(7)
    scidb.load_numpy("waveform", rng.random((50, 40)))
    return bigdawg


def main() -> None:
    print("Building a 3-engine BigDAWG deployment (postgres/scidb/accumulo)...")
    bigdawg = build_deployment()

    tracer = Tracer(enabled=True)
    previous = set_tracer(tracer)
    runtime = PolystoreRuntime(bigdawg, workers=2)
    try:
        print(f"\nExecuting traced multi-island query:\n  {QUERY}")
        result = runtime.execute(QUERY)
        print(f"  -> {result.to_dicts()}")

        # A second execution: the CAST target is already materialized, so
        # the second trace has no cast stage — only the relational execute.
        runtime.execute(QUERY)
    finally:
        runtime.shutdown()
        set_tracer(previous)

    events = write_chrome_trace(TRACE_PATH, tracer.spans())
    print(f"\nWrote {events} trace events to {TRACE_PATH} "
          "(load in chrome://tracing or ui.perfetto.dev)")

    print("\nSpan tree:")
    print(render_tree(tracer.spans()))

    # EXPLAIN ANALYZE on the relational engine: estimated vs actual rows
    # per operator, measured on the vectorized executor.
    postgres = bigdawg.engine("postgres")
    print("\nEXPLAIN ANALYZE on the relational island:")
    print(postgres.explain(
        "SELECT age, count(*) AS n FROM patients WHERE age > 50 "
        "GROUP BY age ORDER BY age",
        analyze=True,
    ))


if __name__ == "__main__":
    main()
