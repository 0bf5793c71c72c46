"""The concurrent polystore runtime: the serving layer in front of BigDAWG.

The paper pitches BigDAWG as middleware serving many simultaneous clients
across heterogeneous engines.  This package supplies that serving layer for
the reproduction:

* :mod:`repro.runtime.scheduler` — :class:`PolystoreRuntime`, a worker-pool
  executor with ``submit``/``execute_many`` that runs cross-island plans
  concurrently and overlaps independent plan steps; every island query and
  plan step takes one dispatch path (journal, breakers and retry,
  admission, call, failover).
* :mod:`repro.runtime.session` — per-client :class:`RuntimeSession` handles
  with session-scoped temporaries.
* :mod:`repro.runtime.admission` — per-engine admission control: bounded
  concurrent slots with a FIFO wait queue and timeout, so a slow array scan
  cannot starve relational traffic.
* :mod:`repro.runtime.cache` — a versioned result cache keyed by normalized
  query text and the catalog/engine write-versions, invalidated automatically
  by CASTs, imports, drops and temp materializations.
* :mod:`repro.runtime.metrics` — throughput, latency percentiles, queue depth
  and cache hit rate, feeding the :class:`~repro.core.monitor.ExecutionMonitor`
  so the :class:`~repro.core.monitor.MigrationAdvisor` learns from production
  traffic instead of only offline probes.
* :mod:`repro.runtime.resilience` — retry with exponential backoff plus
  per-engine circuit breakers, checked before admission so traffic to a
  tripped engine fails fast (or, opt-in, is served a flagged stale result).
* :mod:`repro.runtime.faults` — the chaos harness: inject failures, latency,
  mid-stream deaths, whole-engine outages and simulated process crashes at
  journal boundaries into any in-process engine.
* :mod:`repro.runtime.journal` — the write-ahead intent journal: every DML
  dispatch, CAST protocol step and primary election appends begin/step/
  commit records (with idempotency tokens) before acting, so a crash leaves
  a replayable record instead of a mystery.
* :mod:`repro.runtime.recovery` — crash recovery: replay the journal at
  startup, roll committed work forward, roll incomplete work back (drop
  shadows, un-promote half-elected primaries), repair or discard demoted
  primaries, and reconcile the catalog against engine state.
"""

from repro.runtime.admission import AdmissionController, AdmissionTimeout, EngineGate
from repro.runtime.cache import ResultCache
from repro.runtime.faults import FaultInjector, FaultSpec, InjectedFault
from repro.runtime.journal import (
    CRASH_POINTS,
    FileJournalBackend,
    Intent,
    IntentState,
    MemoryJournalBackend,
    WriteIntentJournal,
    all_crash_points,
)
from repro.runtime.metrics import RuntimeMetrics
from repro.runtime.recovery import JournalRecovery, RecoveryReport
from repro.runtime.resilience import CircuitBreaker, EngineResilience, RetryBudget, RetryPolicy
from repro.runtime.scheduler import PolystoreRuntime
from repro.runtime.session import RuntimeSession

__all__ = [
    "AdmissionController",
    "AdmissionTimeout",
    "CRASH_POINTS",
    "CircuitBreaker",
    "EngineGate",
    "EngineResilience",
    "FaultInjector",
    "FaultSpec",
    "FileJournalBackend",
    "InjectedFault",
    "Intent",
    "IntentState",
    "JournalRecovery",
    "MemoryJournalBackend",
    "PolystoreRuntime",
    "RecoveryReport",
    "ResultCache",
    "RetryBudget",
    "RetryPolicy",
    "RuntimeMetrics",
    "RuntimeSession",
    "WriteIntentJournal",
    "all_crash_points",
]
