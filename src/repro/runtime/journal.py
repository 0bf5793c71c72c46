"""The write-ahead intent journal: durable records of in-flight mutations.

A federated write is a multi-step protocol (dispatch a DML statement and
invalidate replicas; import a CAST shadow, rename it live, swap the catalog,
drop the source; promote a replica to primary before re-dispatching a write)
and the middleware process can die between any two steps.  The
:class:`WriteIntentJournal` is the recovery contract for that failure mode:
every write-path protocol *begins* an intent record before doing anything,
*marks* each completed step, and *commits* (or *aborts*) the intent when the
protocol finishes.  :meth:`~repro.runtime.recovery.JournalRecovery.recover`
replays the journal after a restart — committed intents are finished,
incomplete ones rolled back or rolled forward from their last marked step —
so a crash can never lose an acknowledged write or leave a half-applied one
visible.

Records are append-only dicts.  Two backends:

* :class:`MemoryJournalBackend` — in-process and bounded (complete DML/CAST
  intents age out), the default.
* :class:`FileJournalBackend` — one JSON line per record, one ``O_DSYNC``
  write per append by default, tolerant of a torn trailing line from a crash
  mid-append.  Reopening the same path resumes the sequence numbers, so a
  "restarted" runtime sees the previous process's intents.

What is synced when: a ``begin`` record is durable before the protocol acts,
and a commit or abort before the protocol returns.  A step's :meth:`Intent.
mark` is durable on its own (CAST and promotion steps, which recovery reads);
a step recovery can do without is staged instead (:meth:`Intent.stage`) and
goes out in the terminal record's write.  A DML dispatch stages its ``applied``
mark — recovery asks the engines for the intent's write token when the mark
is missing — so an acknowledged DML costs two synced writes: begin, then
``applied`` + commit.

Reopening a journal and recovering from it each read the records once, as
a stream (:meth:`WriteIntentJournal.unfinished`): what they hold is the
intents still open, not the history.  The file itself still grows with
every write; nothing truncates or rotates it yet.

Every intent carries an **idempotency token**: the scheduler stamps it onto
the engines a journaled write touched (:meth:`~repro.engines.base.Engine.
note_write_token`), so recovery can tell "the engine applied this write but
the commit record is missing" (roll forward) apart from "the write never
reached the engine" (roll back) without guessing.

Crash simulation hooks into the journal rather than the engines: the write
paths call :meth:`WriteIntentJournal.crash_point` at every protocol boundary,
and :meth:`FaultInjector.crash_at <repro.runtime.faults.FaultInjector.
crash_at>` arms a :class:`~repro.common.errors.SimulatedCrashError` at a
named boundary.  The error derives from ``BaseException`` so ordinary
``except Exception`` cleanup does not run — exactly like a real process
death, which is the point of the sweep.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import Counter, deque
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Iterator, Sequence

__all__ = [
    "CRASH_POINTS",
    "FileJournalBackend",
    "Intent",
    "IntentState",
    "MemoryJournalBackend",
    "WriteIntentJournal",
]

#: Every journal boundary the write paths expose to the crash sweep, by
#: protocol.  ``cast.source_dropped`` only exists on ``drop_source`` casts.
CRASH_POINTS = {
    "dml": ("dml.begin", "dml.dispatched", "dml.applied", "dml.committed"),
    "cast": (
        "cast.begin",
        "cast.imported",
        "cast.renamed",
        "cast.catalog",
        "cast.source_dropped",
        "cast.committed",
    ),
    "promotion": ("promotion.begin", "promotion.catalog", "promotion.committed"),
}


class MemoryJournalBackend:
    """Journal records in process memory (the default: tests, and runtimes
    that need not survive a restart).

    Bounded.  Recovery never reads a DML or CAST intent again once it is
    committed or aborted — :meth:`JournalRecovery.recover
    <repro.runtime.recovery.JournalRecovery.recover>` skips complete intents
    and only revisits committed *promotions* — so of those only the newest
    :attr:`COMPLETE_INTENTS_KEPT` stay, for inspection; a runtime that
    journals every write would otherwise grow by a few KB per query for as
    long as it lives.  Open intents and promotions are never dropped.
    """

    name = "memory"

    #: Complete DML/CAST intents whose records are kept (oldest first out).
    COMPLETE_INTENTS_KEPT = 128

    def __init__(self) -> None:
        self._records: dict[str, list[dict]] = {}   # intent id -> its records
        self._complete: deque[str] = deque()
        self._lock = threading.Lock()

    def append(self, *records: dict) -> None:
        with self._lock:
            for record in records:
                intent = record.get("intent", "")
                self._records.setdefault(intent, []).append(record)
                if (record.get("phase") in ("commit", "abort")
                        and record.get("kind") != "promotion"):
                    self._complete.append(intent)
                    if len(self._complete) > self.COMPLETE_INTENTS_KEPT:
                        self._records.pop(self._complete.popleft(), None)

    def records(self) -> list[dict]:
        """The kept records, in append (sequence) order."""
        with self._lock:
            records = [record for group in self._records.values() for record in group]
        return sorted(records, key=lambda record: record.get("seq", 0))

    def iter_records(self) -> Iterator[dict]:
        return iter(self.records())

    def close(self) -> None:  # pragma: no cover - symmetry with the file backend
        pass


class FileJournalBackend:
    """Journal records as JSON lines appended to one file.

    Every :meth:`append` is one ``os.write`` of its encoded lines, in the
    kernel before it returns.  With ``fsync=True`` (the default) the file is
    opened ``O_DSYNC``, so that write also returns only once the data and
    the file size are on the device: ``fdatasync``-level durability, one
    blocking call per append.  ``fsync=False`` leaves flushing to the OS
    (tests and scratch runs).

    Reading back skips blank and torn lines — a crash mid-append must not
    make the whole journal unreadable, it just loses the record that was
    being written, which by the write-ahead discipline means the step it
    described never happened as far as recovery is concerned.  Opening a
    file whose last line is torn first ends that line, so the next record
    starts a line of its own.
    """

    name = "file"

    def __init__(self, path: "str | os.PathLike[str]", fsync: bool = True) -> None:
        self.path = os.fspath(path)
        self._lock = threading.Lock()
        sync = os.O_DSYNC if fsync else 0
        # Unbuffered, and written only through os.write on its descriptor:
        # the file object just owns the descriptor's lifetime.
        self._file = open(  # noqa: SIM115 - closed by close()
            self.path, "ab", buffering=0,
            opener=lambda name, flags: os.open(name, flags | sync, 0o644),
        )
        if _ends_torn(self.path):
            self._write(b"\n")

    def append(self, *records: dict) -> None:
        """Append ``records`` in one write (a crash mid-write tears the line
        it reached, and loses that record and any after it)."""
        data = "".join(
            json.dumps(record, default=str, separators=(",", ":")) + "\n" for record in records
        ).encode("utf-8")
        with self._lock:
            self._write(data)

    def _write(self, data: bytes) -> None:
        fd, view = self._file.fileno(), memoryview(data)
        while view:
            view = view[os.write(fd, view):]

    def iter_records(self) -> Iterator[dict]:
        """The records one line at a time, in file order: a reader holds one
        line, not the journal."""
        with open(self.path, encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    yield json.loads(line)
                except json.JSONDecodeError:
                    continue  # torn trailing write from a crash mid-append

    def close(self) -> None:
        with self._lock:
            self._file.close()


def _ends_torn(path: str) -> bool:
    """Whether the file is non-empty and does not end in a newline."""
    with open(path, "rb") as handle:
        if handle.seek(0, os.SEEK_END) == 0:
            return False
        handle.seek(-1, os.SEEK_END)
        return handle.read(1) != b"\n"


class Intent:
    """A live handle on one journaled protocol run.

    The protocol calls :meth:`mark` (or :meth:`stage`) after each completed
    step and exactly one of :meth:`commit` / :meth:`abort` at the end.  The
    handle never swallows the distinction: a crash between steps simply
    leaves the intent without a terminal record, which is what recovery keys
    on.
    """

    __slots__ = ("journal", "intent_id", "kind", "token", "_staged")

    def __init__(self, journal: "WriteIntentJournal", intent_id: str,
                 kind: str, token: str) -> None:
        self.journal = journal
        self.intent_id = intent_id
        self.kind = kind
        self.token = token
        self._staged: list[dict] = []

    def mark(self, step: str, **payload: Any) -> None:
        """Record that one protocol step completed, durably before returning."""
        self.journal._append(self.intent_id, self.kind, "apply", step=step,
                             payload=payload)

    def stage(self, step: str, **payload: Any) -> None:
        """Record a completed step that recovery can do without: the mark is
        held by this handle and goes out in the same write as the commit or
        abort, so a crash before then loses it with the handle."""
        self._staged.append(
            self.journal._record(self.intent_id, self.kind, "apply", step=step, payload=payload)
        )

    def commit(self, **payload: Any) -> None:
        self.journal.commit_intent(self.intent_id, kind=self.kind,
                                   staged=self._take_staged(), **payload)

    def abort(self, **payload: Any) -> None:
        self.journal.abort_intent(self.intent_id, kind=self.kind,
                                  staged=self._take_staged(), **payload)

    def _take_staged(self) -> list[dict]:
        staged, self._staged = self._staged, []
        return staged


@dataclass
class IntentState:
    """One intent as reconstructed from the journal by :meth:`replay`."""

    intent_id: str
    kind: str
    token: str
    payload: dict = field(default_factory=dict)
    #: Completed steps, step name -> the mark's payload.
    steps: dict = field(default_factory=dict)
    committed: bool = False
    aborted: bool = False
    #: The begin record's sequence number (the intent's place in the journal).
    seq: int = 0

    @property
    def complete(self) -> bool:
        return self.committed or self.aborted

    @property
    def settled(self) -> bool:
        """Whether recovery is done with the intent: a DML or CAST intent
        once it commits or aborts; a promotion once it aborts, or commits
        and its demoted copy is ``resolved``."""
        if self.kind == "promotion":
            return self.aborted or (self.committed and "resolved" in self.steps)
        return self.complete

    def apply(self, record: dict) -> None:
        """Fold one of this intent's records into the state."""
        phase = record.get("phase")
        if phase == "begin":
            self.kind = record.get("kind", self.kind)
            self.token = record.get("token", self.token)
            self.payload = dict(record.get("payload") or {})
            self.seq = int(record.get("seq", 0))
        elif phase == "apply":
            self.steps[record.get("step", "")] = dict(record.get("payload") or {})
        elif phase == "commit":
            self.committed = True
        elif phase == "abort":
            self.aborted = True


class WriteIntentJournal:
    """Append-only begin/apply/commit/abort intent records.

    Thread-safe; one journal serves every write path of a runtime (DML
    dispatches, CAST protocols, primary promotions).  ``crash_hook`` is the
    crash-simulation seam: :meth:`crash_point` calls it with the boundary
    name, and an armed :class:`~repro.runtime.faults.FaultInjector` raises
    :class:`~repro.common.errors.SimulatedCrashError` from it.
    """

    def __init__(self, backend: Any = None, clock: Callable[[], float] = time.time) -> None:
        self.backend = backend if backend is not None else MemoryJournalBackend()
        self._clock = clock
        self._lock = threading.Lock()
        self._crash_hook: Callable[[str], None] | None = None
        self._seq = 0
        phases: Counter[str] = Counter()
        for record in self.backend.iter_records():
            phases[record.get("phase", "")] += 1
            self._seq = max(self._seq, int(record.get("seq", 0)))
        #: Intents begun, journal-wide (prior process runs included).
        self.intents_written = phases["begin"]
        self.intents_committed = phases["commit"]
        self.intents_aborted = phases["abort"]
        self.records_written = sum(phases.values())

    # --------------------------------------------------------------- recording
    def begin(self, kind: str, **payload: Any) -> Intent:
        """Open a new intent; returns the handle carrying its idempotency token."""
        with self._lock:
            self._seq += 1
            seq = self._seq
            intent_id = f"i{seq:08d}"
            token = f"w{seq:08d}.{kind}"
            self.intents_written += 1
        self._append(intent_id, kind, "begin", token=token, payload=payload,
                     reserved_seq=seq)
        return Intent(self, intent_id, kind, token)

    def commit_intent(self, intent_id: str, kind: str = "", *,
                      staged: Sequence[dict] = (), **payload: Any) -> None:
        """Append the commit record, after the intent's ``staged`` marks
        (:meth:`Intent.stage`) in the same write."""
        with self._lock:
            self.intents_committed += 1
        self._append(intent_id, kind, "commit", payload=payload, staged=staged)

    def abort_intent(self, intent_id: str, kind: str = "", *,
                     staged: Sequence[dict] = (), **payload: Any) -> None:
        """Append the abort record, after the intent's ``staged`` marks."""
        with self._lock:
            self.intents_aborted += 1
        self._append(intent_id, kind, "abort", payload=payload, staged=staged)

    def annotate(self, intent_id: str, step: str, kind: str = "",
                 **payload: Any) -> None:
        """Append an apply record to an existing intent (recovery bookkeeping)."""
        self._append(intent_id, kind, "apply", step=step, payload=payload)

    def _append(self, intent_id: str, kind: str, phase: str,
                step: str | None = None, token: str | None = None,
                payload: dict | None = None, reserved_seq: int | None = None,
                staged: Sequence[dict] = ()) -> None:
        """Write one record, preceded by ``staged`` ones, in one backend append."""
        record = self._record(intent_id, kind, phase, step, token, payload, reserved_seq)
        with self._lock:
            self.records_written += 1 + len(staged)
        self.backend.append(*staged, record)

    def _record(self, intent_id: str, kind: str, phase: str,
                step: str | None = None, token: str | None = None,
                payload: dict | None = None, reserved_seq: int | None = None) -> dict:
        """One record, numbered now unless :meth:`begin` reserved its number."""
        if reserved_seq is None:
            with self._lock:
                self._seq += 1
                reserved_seq = self._seq
        record = {
            "seq": reserved_seq,
            "intent": intent_id,
            "kind": kind,
            "phase": phase,
            "ts": self._clock(),
        }
        if step is not None:
            record["step"] = step
        if token is not None:
            record["token"] = token
        if payload:
            record["payload"] = payload
        return record

    # ------------------------------------------------------------------ replay
    def replay(self) -> list[IntentState]:
        """Reconstruct every intent, in begin order, from the record stream.

        For inspection: it holds a state per intent ever written.  Recovery
        reads :meth:`unfinished`, which does not.
        """
        return self._fold(self.backend.iter_records(), keep_settled=True)

    def unfinished(self) -> list[IntentState]:
        """What recovery still has to act on, in begin order: the open
        intents, and the committed promotions whose demoted copy is not yet
        ``resolved`` (:attr:`IntentState.settled`).

        One streaming pass over the records; a DML or CAST intent's state
        is dropped at its commit or abort record, so memory follows the open
        intents, not the history.  File order is not sequence order across
        intents (``begin`` reserves its number before it appends, so two
        threads can write n+1 before n), hence the final sort; within one
        intent it is, since one protocol run appends its records in turn.
        """
        return self._fold(self.backend.iter_records(), keep_settled=False)

    @staticmethod
    def _fold(records: Iterable[dict], keep_settled: bool) -> list[IntentState]:
        states: dict[str, IntentState] = {}
        for record in records:
            intent_id = record.get("intent")
            if not intent_id:
                continue
            state = states.get(intent_id)
            if state is None:
                state = states[intent_id] = IntentState(
                    intent_id=intent_id,
                    kind=record.get("kind", ""),
                    token=record.get("token", ""),
                    seq=int(record.get("seq", 0)),
                )
            state.apply(record)
            if not keep_settled and state.settled:
                del states[intent_id]
        return sorted(states.values(), key=lambda state: state.seq)

    def open_intents(self) -> list[IntentState]:
        """Intents begun but never committed or aborted."""
        return [state for state in self.unfinished() if not state.complete]

    def has_intents(self) -> bool:
        return self.intents_written > 0

    # ---------------------------------------------------------- crash simulation
    def set_crash_hook(self, hook: Callable[[str], None] | None) -> None:
        """Install (or with None remove) the crash-simulation hook."""
        self._crash_hook = hook

    def crash_point(self, name: str) -> None:
        """A named write-path boundary; an armed hook raises a simulated crash."""
        hook = self._crash_hook
        if hook is not None:
            hook(name)

    # ------------------------------------------------------------------- status
    def describe(self) -> dict:
        return {
            "backend": getattr(self.backend, "name", type(self.backend).__name__),
            "records_written": self.records_written,
            "intents_written": self.intents_written,
            "intents_committed": self.intents_committed,
            "intents_aborted": self.intents_aborted,
            "open_intents": len(self.open_intents()),
        }


def all_crash_points(kinds: Iterable[str] = ("dml", "cast", "promotion")) -> list[str]:
    """The flat crash-point sweep list, for parametrized crash tests."""
    out: list[str] = []
    for kind in kinds:
        out.extend(CRASH_POINTS[kind])
    return out
