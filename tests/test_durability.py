"""Durable writes: the intent journal, write failover, and crash recovery.

The contract under test:

* every write-path protocol (DML dispatch, CAST, primary election) journals
  a begin record before acting and a terminal record after, with per-step
  marks in between, so a crash at *any* journal boundary leaves a replayable
  record;
* a "restarted" runtime (a new :class:`PolystoreRuntime` over the same
  engines and the same journal) replays the journal: acknowledged writes
  are never lost, unacknowledged ones are never half-visible — after
  recovery the polystore reads byte-identically to either the pre-write or
  the post-write state, with no orphaned shadows or half-elected primaries;
* a write whose primary is down succeeds by *promoting* a fresh healthy
  replica (a journaled election under a ``failover.write`` span), and
  recovery later repairs the demoted copy (anti-entropy CAST) or discards
  it if its engine is still unreachable;
* failover re-dispatches are budgeted out of the query's remaining
  deadline (``RetryPolicy.attempts_within``), so failing over can never
  sleep past the deadline;
* client cancellation during a write failover unwinds cleanly: no dangling
  intents, no half-promotions, no shadow objects.
"""

from __future__ import annotations

import fcntl
import json
import os
import random
import tracemalloc

import pytest

from repro.common.cancellation import current_token
from repro.common.errors import (
    QueryCancelledError,
    SimulatedCrashError,
    TransientEngineError,
)
from repro.core.bigdawg import BigDawg
from repro.engines.relational import RelationalEngine
from repro.runtime import (
    CRASH_POINTS,
    EngineResilience,
    FaultInjector,
    FileJournalBackend,
    MemoryJournalBackend,
    PolystoreRuntime,
    RetryPolicy,
    WriteIntentJournal,
)
from repro.runtime.recovery import JournalRecovery


class FakeClock:
    """A manually advanced clock (reads do not move time)."""

    def __init__(self) -> None:
        self.t = 0.0

    def now(self) -> float:
        return self.t

    def advance(self, seconds: float) -> None:
        self.t += seconds


@pytest.fixture()
def polystore():
    """patients on postgres, with a fresh replica on mysql."""
    bd = BigDawg()
    postgres = RelationalEngine("postgres")
    mysql = RelationalEngine("mysql")
    bd.add_engine(postgres, islands=["relational"])
    bd.add_engine(mysql, islands=["relational"])
    postgres.execute("CREATE TABLE patients (id INTEGER PRIMARY KEY, age INTEGER)")
    postgres.execute("INSERT INTO patients VALUES (1, 64), (2, 70), (3, 41)")
    bd.migrator.cast("patients", "mysql")
    return bd, postgres, mysql


def fast_runtime(bd: BigDawg, **overrides) -> PolystoreRuntime:
    options = dict(
        workers=2,
        resilience=EngineResilience(
            retry=RetryPolicy(max_attempts=1), failure_threshold=1,
            cooldown_s=60.0,
        ),
    )
    options.update(overrides)
    return PolystoreRuntime(bd, **options)


def restart(bd: BigDawg, journal: WriteIntentJournal, **overrides) -> PolystoreRuntime:
    """Model a process restart: a fresh runtime over the same engines+journal.

    The in-process engines and catalog survive (they model autonomous
    engines with their own durability; it is the *middleware* that died
    mid-protocol), while breakers, pools and caches are new — and
    ``recover_on_start`` replays the journal before the runtime serves.
    """
    return fast_runtime(bd, journal=journal, **overrides)


def rows_of(engine, name: str = "patients") -> list[tuple]:
    return sorted(row.values for row in engine.export_relation(name).rows)


def assert_no_shadows(*engines) -> None:
    for engine in engines:
        shadows = [n for n in engine.list_objects() if "__cast_shadow__" in n]
        assert shadows == [], f"leftover shadows on {engine.name!r}: {shadows}"


def assert_recovered_clean(runtime: PolystoreRuntime, *engines) -> None:
    """The universal post-recovery invariants: nothing dangling anywhere."""
    assert runtime.journal.open_intents() == []
    assert_no_shadows(*engines)
    assert runtime.last_recovery is not None


# ------------------------------------------------------------- journal units
class TestWriteIntentJournal:
    def test_begin_mark_commit_roundtrip(self):
        journal = WriteIntentJournal()
        intent = journal.begin("dml", query="INSERT ...", engines=["postgres"])
        assert intent.token  # idempotency token assigned at begin
        intent.mark("applied", rows=1)
        intent.commit()
        (state,) = journal.replay()
        assert state.kind == "dml"
        assert state.payload["engines"] == ["postgres"]
        assert state.steps["applied"] == {"rows": 1}
        assert state.committed and not state.aborted and state.complete
        assert journal.open_intents() == []

    def test_open_intents_are_the_unterminated_ones(self):
        journal = WriteIntentJournal()
        done = journal.begin("dml")
        done.commit()
        failed = journal.begin("cast")
        failed.abort(error="Boom")
        hanging = journal.begin("promotion")
        hanging.mark("catalog")
        (open_state,) = journal.open_intents()
        assert open_state.intent_id == hanging.intent_id
        assert "catalog" in open_state.steps
        described = journal.describe()
        assert described["backend"] == "memory"
        assert described["intents_written"] == 3
        assert described["intents_committed"] == 1
        assert described["intents_aborted"] == 1
        assert described["open_intents"] == 1
        assert failed.intent_id != done.intent_id

    def test_file_backend_survives_reopen_and_resumes_sequence(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        first = WriteIntentJournal(FileJournalBackend(path))
        intent = first.begin("dml", query="UPDATE ...")
        intent.mark("applied")
        first.backend.close()
        # The "next process" opens the same file: same intents, higher seqs.
        second = WriteIntentJournal(FileJournalBackend(path))
        assert second.has_intents()
        (state,) = second.open_intents()
        assert state.intent_id == intent.intent_id
        assert state.token == intent.token
        later = second.begin("dml")
        assert later.intent_id > intent.intent_id
        assert second.describe()["backend"] == "file"
        second.backend.close()

    def test_file_backend_tolerates_torn_trailing_record(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal = WriteIntentJournal(FileJournalBackend(path))
        journal.begin("dml", query="INSERT ...").commit()
        journal.backend.close()
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"seq": 99, "intent": "i000')  # crash mid-append
        reopened = WriteIntentJournal(FileJournalBackend(path))
        (state,) = reopened.replay()
        assert state.committed  # the torn line is dropped, not fatal
        reopened.backend.close()

    def test_file_records_are_json_lines(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal = WriteIntentJournal(FileJournalBackend(path))
        journal.begin("cast", object="patients").mark("imported")
        journal.backend.close()
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert [record["phase"] for record in lines] == ["begin", "apply"]
        assert lines[0]["token"].endswith(".cast")

    def test_reopening_a_torn_tail_keeps_the_next_record(self, tmp_path):
        """The next process's first record used to be glued onto the torn
        line, and skipped with it: an intent recovery could not see."""
        path = tmp_path / "journal.jsonl"
        journal = WriteIntentJournal(FileJournalBackend(path, fsync=False))
        journal.begin("dml", query="INSERT ...").commit()
        journal.backend.close()
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"seq": 99, "intent": "i000')  # crash mid-append
        reopened = WriteIntentJournal(FileJournalBackend(path, fsync=False))
        intent = reopened.begin("dml", query="UPDATE ...")
        reopened.backend.close()
        restarted = WriteIntentJournal(FileJournalBackend(path, fsync=False))
        try:
            assert [s.intent_id for s in restarted.open_intents()] == [intent.intent_id]
            assert [r["intent"] for r in restarted.backend.iter_records()][-1] == intent.intent_id
        finally:
            restarted.backend.close()


# ------------------------------------------------------ journal write policy
def journal_writes(monkeypatch, backend: FileJournalBackend) -> list[bytes]:
    """Every ``os.write`` to the backend's file from now on, as written."""
    writes: list[bytes] = []
    write, journal_fd = os.write, backend._file.fileno()

    def counted(fd, data):
        if fd == journal_fd and not backend._file.closed:
            writes.append(bytes(data))
        return write(fd, data)

    monkeypatch.setattr(os, "write", counted)
    return writes


class TestJournalWritePolicy:
    def test_durable_by_default_one_dsync_write_per_record(self, tmp_path, monkeypatch):
        backend = FileJournalBackend(tmp_path / "journal.jsonl")
        try:
            assert fcntl.fcntl(backend._file.fileno(), fcntl.F_GETFL) & os.O_DSYNC
            writes = journal_writes(monkeypatch, backend)

            def no_fsync(fd):
                raise AssertionError("an O_DSYNC append needs no fsync")

            monkeypatch.setattr(os, "fsync", no_fsync)
            monkeypatch.setattr(os, "fdatasync", no_fsync, raising=False)
            journal = WriteIntentJournal(backend)
            intent = journal.begin("cast", object="patients")
            intent.mark("imported")
            intent.commit()
            assert [json.loads(w)["phase"] for w in writes] == ["begin", "apply", "commit"]
        finally:
            backend.close()
        fast = FileJournalBackend(tmp_path / "fast.jsonl", fsync=False)
        try:
            assert not fcntl.fcntl(fast._file.fileno(), fcntl.F_GETFL) & os.O_DSYNC
        finally:
            fast.close()

    def test_a_durable_dml_makes_two_journal_writes(self, polystore, tmp_path, monkeypatch):
        """begin, then the staged ``applied`` mark together with the commit."""
        bd, postgres, mysql = polystore
        backend = FileJournalBackend(tmp_path / "wal.jsonl")
        runtime = fast_runtime(bd, journal=WriteIntentJournal(backend))
        try:
            writes = journal_writes(monkeypatch, backend)
            runtime.execute("INSERT INTO patients VALUES (9, 33)")
        finally:
            runtime.shutdown()
            backend.close()
        assert [[json.loads(line)["phase"] for line in w.splitlines()] for w in writes] == [
            ["begin"], ["apply", "commit"]]
        assert (9, 33) in rows_of(postgres)

    @pytest.mark.parametrize("point", CRASH_POINTS["dml"])
    def test_file_journal_crash_sweep_loses_no_acknowledged_write(
        self, polystore, tmp_path, point
    ):
        """A crash at each DML boundary, on a durable file journal: after
        recovery every acknowledged write is visible once, and the staged
        ``applied`` mark of the crashed write never reaches the file — not
        even when the same journal goes on to journal more writes."""
        bd, postgres, mysql = polystore
        before = rows_of(postgres)
        path = tmp_path / "wal.jsonl"
        journal = WriteIntentJournal(FileJournalBackend(path))
        runtime = fast_runtime(bd, journal=journal)
        runtime.execute("INSERT INTO patients VALUES (8, 50)")
        injector = FaultInjector().crash_at(point).attach_journal(journal)
        try:
            with pytest.raises(SimulatedCrashError):
                runtime.execute("INSERT INTO patients VALUES (9, 33)")
        finally:
            injector.uninstall()
            runtime.shutdown()
        revived = restart(bd, journal)
        try:
            revived.execute("INSERT INTO patients VALUES (10, 20)")
        finally:
            revived.shutdown()
            journal.backend.close()
        applied = point != "dml.begin"  # the engine applied from "dispatched" on
        assert rows_of(postgres) == sorted(
            before + [(8, 50), (10, 20)] + ([(9, 33)] if applied else []))
        reopened = WriteIntentJournal(FileJournalBackend(path, fsync=False))
        try:
            records = list(reopened.backend.iter_records())
            assert reopened.open_intents() == []
        finally:
            reopened.backend.close()
        (crashed,) = [r["intent"] for r in records
                      if r["phase"] == "begin" and "(9, 33)" in r["payload"]["query"]]
        marks = [r["step"] for r in records if r["intent"] == crashed and r["phase"] == "apply"]
        assert marks == (["applied"] if point == "dml.committed" else [])


# ------------------------------------------------------- streaming replay
def random_journal(rng: random.Random, intents: int) -> tuple[list[dict], set[str]]:
    """Records of ``intents`` random protocol runs, in a file order whose
    sequence numbers interleave out of order across intents (``begin``
    reserves its number before it appends), plus the ids recovery still has
    to act on: open intents and committed promotions not yet resolved."""
    scripts: list[list[dict]] = []
    unfinished: set[str] = set()
    for n in range(intents):
        intent_id, kind = f"i{n:08d}", rng.choice(["dml", "cast", "promotion"])
        steps = rng.sample(["dispatched", "applied", "imported", "renamed", "catalog"],
                           rng.randint(0, 3))
        script = [{"intent": intent_id, "kind": kind, "phase": "begin",
                   "token": f"w{n:08d}.{kind}", "payload": {"n": n}}]
        script += [{"intent": intent_id, "kind": kind, "phase": "apply", "step": step,
                    "payload": {"at": step}} for step in steps]
        end = rng.choice(["commit", "abort", None])
        if end is not None:
            script.append({"intent": intent_id, "kind": kind, "phase": end})
        resolved = kind == "promotion" and end == "commit" and rng.random() < 0.5
        if resolved:
            script.append({"intent": intent_id, "kind": kind, "phase": "apply",
                           "step": "resolved", "payload": {"outcome": "fresh"}})
        if end is None or (kind == "promotion" and end == "commit" and not resolved):
            unfinished.add(intent_id)
        scripts.append(script)

    def interleave() -> list[dict]:
        # A random merge that keeps each intent's own records in order.
        cursors = [0] * len(scripts)
        live = [i for i, script in enumerate(scripts) if script]
        merged = []
        while live:
            i = rng.choice(live)
            merged.append(scripts[i][cursors[i]])
            cursors[i] += 1
            if cursors[i] == len(scripts[i]):
                live.remove(i)
        return merged

    for seq, record in enumerate(interleave(), start=1):
        record["seq"] = seq
    return interleave(), unfinished


class TestStreamingReplay:
    @pytest.mark.parametrize("seed", range(12))
    def test_unfinished_is_replay_filtered_on_out_of_order_journals(self, tmp_path, seed):
        rng = random.Random(seed)
        records, unfinished = random_journal(rng, rng.randint(1, 60))
        path = tmp_path / "journal.jsonl"
        path.write_text("".join(json.dumps(record) + "\n" for record in records))
        journal = WriteIntentJournal(FileJournalBackend(path))
        try:
            replayed = journal.replay()
            streamed = journal.unfinished()
            committed_promotions = [s for s in replayed if s.kind == "promotion"
                                    and s.committed and "resolved" not in s.steps]
            expected = [s for s in replayed if not s.complete] + committed_promotions
            expected.sort(key=lambda state: state.seq)
            assert streamed == expected
            assert {s.intent_id for s in streamed} == unfinished
            assert [s.seq for s in streamed] == sorted(s.seq for s in streamed)
            assert journal.open_intents() == [s for s in replayed if not s.complete]
            phases = [r["phase"] for r in records]
            assert journal.intents_written == phases.count("begin") == len(replayed)
            assert journal.intents_committed == phases.count("commit")
            assert journal.intents_aborted == phases.count("abort")
            assert journal.records_written == len(records)
            assert journal.begin("dml").intent_id > max(s.intent_id for s in replayed)
        finally:
            journal.backend.close()

    def test_memory_backend_streams_the_same_way(self):
        journal = WriteIntentJournal(MemoryJournalBackend())
        open_cast = journal.begin("cast", object="x")
        journal.begin("dml").commit()
        election = journal.begin("promotion", object="y")
        election.mark("catalog")
        election.commit()
        settled = journal.begin("promotion", object="z")
        settled.commit()
        journal.annotate(settled.intent_id, "resolved", kind="promotion", outcome="fresh")
        assert [s.intent_id for s in journal.unfinished()] == [
            open_cast.intent_id, election.intent_id]
        assert [s.intent_id for s in journal.open_intents()] == [open_cast.intent_id]

    def test_recovery_memory_stays_flat_as_committed_history_grows(self, tmp_path):
        """Reopening a journal and recovering from it used to load every
        record, and keep an IntentState per intent ever written: 10x the
        committed DML meant about 10x the memory.  Now both stream."""
        def peak_bytes(history: int) -> int:
            path = tmp_path / f"journal-{history}.jsonl"
            journal = WriteIntentJournal(FileJournalBackend(path, fsync=False))
            for i in range(history):
                intent = journal.begin("dml", engines=["postgres"],
                                       query=f"UPDATE vitals SET hr = {i} WHERE id = {i}")
                intent.mark("applied")
                intent.commit()
            journal.begin("dml", engines=["postgres"], query="DELETE FROM vitals")
            journal.backend.close()
            bd = BigDawg()
            bd.add_engine(RelationalEngine("postgres"), islands=["relational"])
            tracemalloc.start()
            try:
                reopened = WriteIntentJournal(FileJournalBackend(path, fsync=False))
                report = JournalRecovery(bd, reopened).recover()
                _current, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
                reopened.backend.close()
            assert report.rolled_back == 1 and report.rolled_forward == 0
            assert reopened.intents_written == history + 1
            return peak

        small, large = peak_bytes(300), peak_bytes(3000)
        assert large < 1.5 * small, (small, large)


# --------------------------------------------------------- DML crash sweep
class TestDMLCrashSweep:
    @pytest.mark.parametrize("point", CRASH_POINTS["dml"])
    def test_crash_at_every_dml_boundary_loses_nothing_visible(
        self, polystore, point
    ):
        bd, postgres, mysql = polystore
        before = rows_of(postgres)
        runtime = fast_runtime(bd)
        injector = FaultInjector().crash_at(point).attach_journal(runtime.journal)
        try:
            with pytest.raises(SimulatedCrashError):
                runtime.execute("INSERT INTO patients VALUES (9, 33)")
        finally:
            injector.uninstall()
            runtime.shutdown()
        assert injector.injected[f"crash:{point}"] == 1

        revived = restart(bd, runtime.journal)
        try:
            assert_recovered_clean(revived, postgres, mysql)
            (dml,) = [s for s in revived.journal.replay() if s.kind == "dml"]
            after = rows_of(postgres)
            if dml.committed:
                # The write applied before the crash: recovery rolled it
                # forward, and it must be visible exactly once.
                assert after == sorted(before + [(9, 33)])
            else:
                # Never dispatched: rolled back, byte-identical to before.
                assert dml.aborted
                assert after == before
            # The answer a client reads now is a clean pre- or post- state.
            result = revived.execute("SELECT * FROM patients ORDER BY id")
            assert sorted(r.values for r in result.rows) == after
        finally:
            revived.shutdown()

    def test_applied_but_uncommitted_write_rolls_forward_by_token(self, polystore):
        bd, postgres, mysql = polystore
        runtime = fast_runtime(bd)
        injector = FaultInjector().crash_at("dml.dispatched")
        injector.attach_journal(runtime.journal)
        try:
            with pytest.raises(SimulatedCrashError):
                runtime.execute("INSERT INTO patients VALUES (9, 33)")
        finally:
            injector.uninstall()
            runtime.shutdown()
        (state,) = runtime.journal.open_intents()
        # The engine remembers the intent's idempotency token...
        assert postgres.has_write_token(state.token)
        revived = restart(bd, runtime.journal)
        try:
            # ...which is what recovery keys the roll-forward on: the intent
            # has no "applied" mark, only the engine-side token.
            assert revived.last_recovery.rolled_forward == 1
            assert (9, 33) in rows_of(postgres)
        finally:
            revived.shutdown()

    def test_crash_recovery_with_file_journal_across_instances(
        self, polystore, tmp_path
    ):
        bd, postgres, mysql = polystore
        path = tmp_path / "wal.jsonl"
        journal = WriteIntentJournal(FileJournalBackend(path))
        runtime = fast_runtime(bd, journal=journal)
        injector = FaultInjector().crash_at("dml.applied").attach_journal(journal)
        try:
            with pytest.raises(SimulatedCrashError):
                runtime.execute("INSERT INTO patients VALUES (9, 33)")
        finally:
            injector.uninstall()
            runtime.shutdown()
            journal.backend.close()
        # The restarted process reads the journal *from disk* — nothing is
        # shared with the dead runtime but the file.
        revived = restart(bd, WriteIntentJournal(FileJournalBackend(path)))
        try:
            assert revived.last_recovery.rolled_forward == 1
            assert (9, 33) in rows_of(postgres)
            assert revived.journal.open_intents() == []
        finally:
            revived.shutdown()
            revived.journal.backend.close()


# -------------------------------------------------------- CAST crash sweep
def _cast_sweep_params():
    for drop_source in (False, True):
        for point in CRASH_POINTS["cast"]:
            if point == "cast.source_dropped" and not drop_source:
                continue  # that boundary only exists on drop_source casts
            yield pytest.param(point, drop_source, id=f"{point}-drop{drop_source}")


class TestCastCrashSweep:
    @pytest.mark.parametrize("point,drop_source", _cast_sweep_params())
    def test_crash_at_every_cast_boundary_is_atomic(
        self, polystore, point, drop_source
    ):
        bd, postgres, mysql = polystore
        bd.catalog.drop_replica("patients", "mysql")
        mysql.drop_object("patients")
        before = rows_of(postgres)
        runtime = fast_runtime(bd)  # injects the journal into the migrator
        injector = FaultInjector().crash_at(point).attach_journal(runtime.journal)
        try:
            with pytest.raises(SimulatedCrashError):
                bd.migrator.cast("patients", "mysql", drop_source=drop_source)
        finally:
            injector.uninstall()
            runtime.shutdown()

        revived = restart(bd, runtime.journal)
        try:
            assert_recovered_clean(revived, postgres, mysql)
            (cast,) = [s for s in revived.journal.replay() if s.kind == "cast"]
            if cast.aborted:
                # Rolled back: the polystore reads as if the CAST never ran.
                assert bd.catalog.locate("patients").engine_name == "postgres"
                assert bd.catalog.replicas("patients") == []
                assert not mysql.has_object("patients")
                assert rows_of(postgres) == before
            else:
                # Rolled forward: the CAST completed, catalog swap included.
                assert cast.committed
                assert rows_of(mysql) == before
                if drop_source:
                    assert bd.catalog.locate("patients").engine_name == "mysql"
                    assert not postgres.has_object("patients")
                else:
                    assert bd.catalog.locate("patients").engine_name == "postgres"
                    replicas = bd.catalog.replicas("patients")
                    assert [loc.engine_name for loc in replicas] == ["mysql"]
                    assert rows_of(postgres) == before
        finally:
            revived.shutdown()


# --------------------------------------------------- promotion crash sweep
class TestPromotionCrashSweep:
    @pytest.mark.parametrize("point", CRASH_POINTS["promotion"])
    def test_crash_mid_election_never_half_promotes(self, polystore, point):
        bd, postgres, mysql = polystore
        before = rows_of(postgres)
        runtime = fast_runtime(bd)
        injector = FaultInjector().outage().crash_at(point)
        injector.attach_journal(runtime.journal)
        injector.install(postgres)
        try:
            with pytest.raises(SimulatedCrashError):
                runtime.execute("INSERT INTO patients VALUES (9, 33)")
        finally:
            injector.uninstall()  # engine back up, crash hook detached
            runtime.shutdown()

        revived = restart(bd, runtime.journal)
        try:
            assert_recovered_clean(revived, postgres, mysql)
            # The client never got an acknowledgement, and the re-dispatch
            # never ran: the row must not exist on any copy.
            assert rows_of(postgres) == before
            assert rows_of(mysql) == before
            (promotion,) = [
                s for s in revived.journal.replay() if s.kind == "promotion"
            ]
            primary = bd.catalog.locate("patients").engine_name
            if promotion.committed:
                # A committed election stands; the demoted copy missed no
                # writes, so recovery resolves it as still-fresh.
                assert point == "promotion.committed"
                assert primary == "mysql"
                assert promotion.steps["resolved"]["outcome"] == "fresh"
                fresh = bd.catalog.fresh_locations("patients")
                assert {loc.engine_name for loc in fresh} == {"postgres", "mysql"}
            else:
                # Un-elected (or never elected): postgres is primary again
                # and the mysql replica is still fresh and promotable.
                assert primary == "postgres"
                fresh = bd.catalog.fresh_locations("patients")
                assert {loc.engine_name for loc in fresh} == {"postgres", "mysql"}
            # Either way the poststate serves reads consistently.
            result = revived.execute("SELECT * FROM patients ORDER BY id")
            assert sorted(r.values for r in result.rows) == before
        finally:
            revived.shutdown()


# ------------------------------------------------------------ write failover
class TestWriteFailover:
    def test_write_to_downed_primary_elects_replica_and_succeeds(self, polystore):
        bd, postgres, mysql = polystore
        runtime = fast_runtime(bd)
        injector = FaultInjector().outage()
        injector.install(postgres)
        try:
            _, tracer = runtime.trace("INSERT INTO patients VALUES (9, 33)")
        finally:
            injector.uninstall()
        try:
            spans = {span.name: span for span in tracer.spans()}
            assert "failover.write" in spans
            assert spans["failover.write"].attrs["from_engines"] == "postgres"
            assert spans["failover.write"].attrs["to_engines"] == "mysql"
            # The election moved the primary; the write landed there.
            assert bd.catalog.locate("patients").engine_name == "mysql"
            assert (9, 33) in rows_of(mysql)
            assert (9, 33) not in rows_of(postgres)
            # Demoted primary is now a *stale* replica awaiting repair.
            (demoted,) = bd.catalog.replicas("patients")
            assert demoted.engine_name == "postgres"
            assert demoted.version != bd.catalog.content_version("patients")
            snapshot = runtime.metrics.snapshot()
            assert snapshot["writes_failed_over"] == 1
            assert snapshot["failover_total"] == 1
            assert runtime.journal.open_intents() == []
        finally:
            runtime.shutdown()

    def test_recovery_repairs_demoted_primary_when_engine_returns(self, polystore):
        bd, postgres, mysql = polystore
        runtime = fast_runtime(bd)
        injector = FaultInjector().outage()
        injector.install(postgres)
        try:
            runtime.execute("INSERT INTO patients VALUES (9, 33)")
        finally:
            injector.uninstall()  # postgres comes back, stale
            runtime.shutdown()
        assert rows_of(postgres) != rows_of(mysql)

        revived = restart(bd, runtime.journal)
        try:
            # Startup recovery saw the committed election and repaired the
            # demoted copy with an anti-entropy CAST from the new primary.
            assert revived.last_recovery.repaired == 1
            assert rows_of(postgres) == rows_of(mysql)
            (repaired,) = bd.catalog.replicas("patients")
            assert repaired.engine_name == "postgres"
            assert repaired.version == bd.catalog.content_version("patients")
            assert revived.metrics.snapshot()["recovery_rollbacks"] == 0
        finally:
            revived.shutdown()

    def test_recovery_discards_demoted_primary_still_down(self, polystore):
        bd, postgres, mysql = polystore
        runtime = fast_runtime(bd)
        injector = FaultInjector().outage()
        injector.install(postgres)
        try:
            runtime.execute("INSERT INTO patients VALUES (9, 33)")
            runtime.shutdown()
            # postgres is STILL down through the restart: the repair CAST
            # fails, so recovery forgets the unreachable stale copy.
            revived = restart(bd, runtime.journal)
        finally:
            injector.uninstall()
        try:
            assert revived.last_recovery.discarded == 1
            assert bd.catalog.locate("patients").engine_name == "mysql"
            assert bd.catalog.replicas("patients") == []
        finally:
            revived.shutdown()

    def test_write_without_fresh_replica_still_fails(self, polystore):
        bd, postgres, mysql = polystore
        bd.catalog.drop_replica("patients", "mysql")
        runtime = fast_runtime(bd)
        injector = FaultInjector().outage()
        injector.install(postgres)
        try:
            with pytest.raises(TransientEngineError):
                runtime.execute("INSERT INTO patients VALUES (9, 33)")
            # Nothing to elect: no counters moved, no intents dangling.
            assert runtime.metrics.snapshot()["writes_failed_over"] == 0
            assert runtime.journal.open_intents() == []
            assert bd.catalog.locate("patients").engine_name == "postgres"
        finally:
            injector.uninstall()
            runtime.shutdown()


# --------------------------------------------------- deadline-aware failover
class TestFailoverDeadlineBudget:
    def test_attempts_within_counts_worst_case_backoff(self):
        policy = RetryPolicy(
            max_attempts=5, base_backoff_s=10.0, multiplier=2.0,
            max_backoff_s=100.0, jitter=0.0,
        )
        assert policy.attempts_within(5.0) == 1    # no backoff fits
        assert policy.attempts_within(10.0) == 2   # one 10s backoff
        assert policy.attempts_within(25.0) == 2   # 10+20 > 25
        assert policy.attempts_within(30.0) == 3
        assert policy.attempts_within(10_000.0) == 5  # policy ceiling holds
        jittered = RetryPolicy(
            max_attempts=5, base_backoff_s=10.0, multiplier=2.0,
            max_backoff_s=100.0, jitter=0.5,
        )
        # Worst-case jitter stretches the first backoff to 15s.
        assert jittered.attempts_within(10.0) == 1
        assert jittered.attempts_within(15.0) == 2

    def _deadline_runtime(self, bd):
        clock = FakeClock()
        resilience = EngineResilience(
            retry=RetryPolicy(
                max_attempts=3, base_backoff_s=10.0, multiplier=2.0,
                max_backoff_s=100.0, jitter=0.0,
            ),
            failure_threshold=2, cooldown_s=1000.0,
            clock=clock.now, sleep=clock.advance,
        )
        return clock, fast_runtime(bd, resilience=resilience)

    # Primary-path timeline shared by both tests: the postgres outage fails
    # attempt 1 at t=0 (backoff 10s), fails attempt 2 at t=10 — the breaker
    # opens — and sleeps backoff 20s, so attempt 3 hits the open breaker at
    # t=30 and the failover path takes over with (deadline - 30)s left.

    def test_failover_redispatch_fits_inside_remaining_deadline(self, polystore):
        bd, postgres, mysql = polystore
        clock, runtime = self._deadline_runtime(bd)
        outage = FaultInjector().outage()
        outage.install(postgres)
        flaky = FaultInjector().fail_nth("execute", 1)
        flaky.install(mysql)
        try:
            # Budget 45s: the primary burns 30s, and the remaining 15s buys
            # the re-dispatch two attempts (one 10s backoff) — enough to
            # absorb mysql's first flake and land inside the deadline.
            runtime.execute("INSERT INTO patients VALUES (9, 33)", deadline_s=45.0)
            assert (9, 33) in rows_of(mysql)
            assert clock.t <= 45.0
            assert flaky.calls["execute"] == 2
        finally:
            outage.uninstall()
            flaky.uninstall()
            runtime.shutdown()

    def test_failover_redispatch_never_sleeps_past_the_deadline(self, polystore):
        bd, postgres, mysql = polystore
        clock, runtime = self._deadline_runtime(bd)
        outage = FaultInjector().outage()
        outage.install(postgres)
        flaky = FaultInjector().fail_nth("execute", 1)
        flaky.install(mysql)
        try:
            # Budget 35s: after the primary burns 30s only 5s remain — not
            # enough for one 10s backoff, so the re-dispatch is capped at a
            # single attempt and surfaces mysql's flake *immediately*
            # instead of sleeping past the deadline.
            with pytest.raises(TransientEngineError):
                runtime.execute(
                    "INSERT INTO patients VALUES (9, 33)", deadline_s=35.0
                )
            assert clock.t == 30.0  # no post-failover backoff was slept
            assert flaky.calls["execute"] == 1
            assert runtime.journal.open_intents() == []
        finally:
            outage.uninstall()
            flaky.uninstall()
            runtime.shutdown()


# --------------------------------------------- cancellation during failover
class TestCancellationDuringWriteFailover:
    def test_cancel_mid_election_leaves_no_dangling_state(self, polystore):
        bd, postgres, mysql = polystore
        runtime = fast_runtime(bd)
        original = runtime._elect_write_primaries

        def cancel_then_elect(names, broken, description):
            # The client gives up exactly as the election starts — the
            # nastiest moment: the breaker is open, the promotion has not
            # yet been journaled.
            token = current_token()
            assert token is not None
            token.cancel("client abandoned the write")
            return original(names, broken, description)

        runtime._elect_write_primaries = cancel_then_elect
        injector = FaultInjector().outage()
        injector.install(postgres)
        try:
            future = runtime.submit("INSERT INTO patients VALUES (9, 33)")
            with pytest.raises(QueryCancelledError):
                future.result()
        finally:
            injector.uninstall()
            runtime.shutdown()
        # No half-promotion, no dangling intents, no shadows, no write.
        assert runtime.journal.open_intents() == []
        assert all(
            s.kind != "promotion" for s in runtime.journal.replay()
        ), "a cancelled failover must not have begun an election"
        assert bd.catalog.locate("patients").engine_name == "postgres"
        assert_no_shadows(postgres, mysql)
        assert (9, 33) not in rows_of(mysql)
        assert (9, 33) not in rows_of(postgres)
        # The mysql replica stayed fresh: nothing was stale-marked by the
        # failed, never-applied write.
        fresh = bd.catalog.fresh_locations("patients")
        assert {loc.engine_name for loc in fresh} == {"postgres", "mysql"}


# ------------------------------------------------------- metrics & describe
class TestDurabilitySurface:
    def test_journal_and_recovery_metrics_are_exposed(self, polystore):
        bd, postgres, mysql = polystore
        runtime = fast_runtime(bd)
        try:
            runtime.execute("INSERT INTO patients VALUES (9, 33)")
            snapshot = runtime.metrics.snapshot()
            assert snapshot["intents_written"] == 1
            assert snapshot["journal_open_intents"] == 0
            assert snapshot["writes_failed_over"] == 0
            assert snapshot["intents_replayed"] == 0
            assert snapshot["recovery_rollbacks"] == 0
            described = runtime.describe()
            assert described["journal"]["backend"] == "memory"
            assert described["journal"]["intents_committed"] == 1
            assert described["recovery"] is None
        finally:
            runtime.shutdown()

    def test_recover_surfaces_report_in_describe_and_counters(self, polystore):
        bd, postgres, mysql = polystore
        runtime = fast_runtime(bd)
        injector = FaultInjector().crash_at("dml.begin")
        injector.attach_journal(runtime.journal)
        try:
            with pytest.raises(SimulatedCrashError):
                runtime.execute("INSERT INTO patients VALUES (9, 33)")
        finally:
            injector.uninstall()
            runtime.shutdown()
        revived = restart(bd, runtime.journal)
        try:
            snapshot = revived.metrics.snapshot()
            assert snapshot["intents_replayed"] == 1
            assert snapshot["recovery_rollbacks"] == 1
            recovery = revived.describe()["recovery"]
            assert recovery["rolled_back"] == 1
            assert recovery["details"]  # human-readable action log
        finally:
            revived.shutdown()

    def test_recovery_is_idempotent(self, polystore):
        bd, postgres, mysql = polystore
        runtime = fast_runtime(bd)
        injector = FaultInjector().crash_at("cast.imported")
        injector.attach_journal(runtime.journal)
        bd.catalog.drop_replica("patients", "mysql")
        mysql.drop_object("patients")
        try:
            with pytest.raises(SimulatedCrashError):
                bd.migrator.cast("patients", "mysql")
        finally:
            injector.uninstall()
        try:
            first = runtime.recover()
            assert first.rolled_back == 1
            # A second replay finds every intent terminal: nothing to do.
            second = runtime.recover()
            assert second.intents_replayed == 0
            assert second.as_dict()["repaired"] == 0
            assert runtime.journal.open_intents() == []
        finally:
            runtime.shutdown()

    def test_fresh_journal_makes_startup_recovery_a_noop(self, polystore):
        bd, postgres, mysql = polystore
        runtime = fast_runtime(bd, journal=WriteIntentJournal(MemoryJournalBackend()))
        try:
            assert runtime.last_recovery is None  # nothing replayed
        finally:
            runtime.shutdown()
