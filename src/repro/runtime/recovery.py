"""Crash recovery: replay the write-ahead intent journal against the polystore.

After the middleware process dies mid-write, the next process holds a journal
full of intents whose terminal record may be missing.  :class:`JournalRecovery`
turns that journal back into a consistent polystore:

* **DML intents** without a commit record are classified by the engines'
  idempotency-token memory — the scheduler stamps each intent's token onto
  the engines right after the dispatch applies, so "token present" means the
  write landed (roll forward: commit the intent) and "token absent" means it
  never reached an engine (roll back: abort the intent; the statement was
  never acknowledged, so dropping it loses nothing).
* **CAST intents** roll back before the commit rename (drop the orphaned
  shadow object; the destination name was never touched) and roll forward
  after it (finish the catalog swap and the source drop the crash
  interrupted — the renamed object is already live on the target, so
  completing the protocol is the only consistent direction).
* **Promotion intents** (write-failover elections) roll back when the
  catalog swap never committed — un-promote the half-elected primary — and,
  once committed, stand: recovery then *resolves the demoted copy*, which
  missed any writes the new primary absorbed, by repairing it with an
  anti-entropy CAST from the new primary (engine healthy) or discarding it
  from the catalog (engine still down).
* **Reconciliation** sweeps the catalog against what the engines actually
  hold: phantom replicas (catalog entry, no object) are dropped, and a
  primary whose engine lost the object is re-pointed at a fresh replica
  that still has it.

Every action recovery takes is itself journaled (terminal records appended
to the replayed intents, fresh intents for reconciliation promotions), so
recovery is idempotent: a second replay — or a crash *during* recovery —
finds the already-resolved intents terminal and does nothing twice.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.common.errors import CatalogError, ObjectNotFoundError

__all__ = ["JournalRecovery", "RecoveryReport"]


@dataclass
class RecoveryReport:
    """What one :meth:`JournalRecovery.recover` pass did."""

    #: Incomplete intents finished in the forward direction (committed).
    rolled_forward: int = 0
    #: Incomplete intents undone (aborted; shadows dropped, elections unwound).
    rolled_back: int = 0
    #: Demoted primaries refreshed with an anti-entropy CAST.
    repaired: int = 0
    #: Demoted primaries dropped from the catalog (engine unreachable).
    discarded: int = 0
    #: Catalog entries fixed by the engine-state sweep.
    reconciled: int = 0
    #: Human-readable action log, in order.
    details: list[str] = field(default_factory=list)

    @property
    def intents_replayed(self) -> int:
        """Open intents this pass resolved, either direction."""
        return self.rolled_forward + self.rolled_back

    def note(self, message: str) -> None:
        self.details.append(message)

    def as_dict(self) -> dict:
        return {
            "intents_replayed": self.intents_replayed,
            "rolled_forward": self.rolled_forward,
            "rolled_back": self.rolled_back,
            "repaired": self.repaired,
            "discarded": self.discarded,
            "reconciled": self.reconciled,
            "details": list(self.details),
        }


class JournalRecovery:
    """One recovery pass over a journal, against one polystore.

    ``health`` is an optional ``engine_name -> bool`` probe (the runtime
    wires its breaker state in); engines reported unhealthy are never
    touched — their repairs wait for a later :meth:`recover` call, and
    copies that *must* be resolved now (a demoted primary) are discarded
    from the catalog instead.
    """

    def __init__(self, bigdawg: Any, journal: Any,
                 health: Callable[[str], bool] | None = None) -> None:
        self.bigdawg = bigdawg
        self.journal = journal
        self._health = health

    def healthy(self, engine_name: str) -> bool:
        if self._health is None:
            return True
        try:
            return bool(self._health(engine_name))
        except Exception:  # fail open, like the catalog's probe
            return True

    # ----------------------------------------------------------------- driver
    def recover(self) -> RecoveryReport:
        report = RecoveryReport()
        # One streaming pass: the open intents plus the committed promotions
        # still to resolve — not every intent the journal ever held.
        states = self.journal.unfinished()
        handlers = {
            "dml": self._recover_dml,
            "cast": self._recover_cast,
            "promotion": self._recover_promotion,
        }
        for state in states:
            if state.complete:
                continue
            handler = handlers.get(state.kind)
            if handler is None:
                self.journal.abort_intent(
                    state.intent_id, kind=state.kind, recovered=True,
                    reason="unknown intent kind",
                )
                report.rolled_back += 1
                report.note(f"{state.intent_id}: unknown kind {state.kind!r}, aborted")
                continue
            handler(state, report)
        # Committed elections whose demoted copy was never repaired or
        # discarded (the crash hit after the commit record, or the demoted
        # engine was down at the previous recovery).
        for state in states:
            if (state.kind == "promotion" and state.committed
                    and "resolved" not in state.steps):
                self._resolve_demoted(state, report)
        self._reconcile(report)
        return report

    # -------------------------------------------------------------------- DML
    def _recover_dml(self, state: Any, report: RecoveryReport) -> None:
        applied = "applied" in state.steps
        if not applied and state.token:
            for engine_name in state.payload.get("engines", []):
                try:
                    engine = self.bigdawg.catalog.engine(engine_name)
                except ObjectNotFoundError:
                    continue
                checker = getattr(engine, "has_write_token", None)
                if checker is not None and checker(state.token):
                    applied = True
                    break
        if applied:
            self.journal.commit_intent(state.intent_id, kind=state.kind, recovered=True)
            report.rolled_forward += 1
            report.note(
                f"{state.intent_id}: dml applied on an engine, rolled forward"
            )
        else:
            self.journal.abort_intent(state.intent_id, kind=state.kind, recovered=True)
            report.rolled_back += 1
            report.note(f"{state.intent_id}: dml never applied, rolled back")

    # ------------------------------------------------------------------- CAST
    def _recover_cast(self, state: Any, report: RecoveryReport) -> None:
        payload = state.payload
        catalog = self.bigdawg.catalog
        obj = payload.get("object", "")
        destination = payload.get("destination", obj)
        shadow = payload.get("shadow", "")
        drop_source = bool(payload.get("drop_source"))
        target_kind = payload.get("target_kind")
        try:
            target = catalog.engine(payload.get("target_engine", ""))
        except ObjectNotFoundError:
            self.journal.abort_intent(
                state.intent_id, kind=state.kind, recovered=True,
                reason="target engine unknown",
            )
            report.rolled_back += 1
            return
        if "renamed" not in state.steps:
            # The commit rename never ran: the destination name is untouched
            # and the only residue is (at most) a partial shadow object.
            if shadow and self.healthy(target.name):
                try:
                    target.drop_object(shadow)
                except ObjectNotFoundError:
                    pass
                except Exception as error:
                    report.note(
                        f"{state.intent_id}: shadow {shadow!r} drop failed "
                        f"({type(error).__name__}); will retry next recovery"
                    )
            self.journal.abort_intent(state.intent_id, kind=state.kind, recovered=True)
            report.rolled_back += 1
            report.note(f"{state.intent_id}: cast rolled back, shadow discarded")
            return
        # Renamed: the finished object is live under the destination name on
        # the target engine — roll forward by finishing the catalog swap and
        # the source drop the crash interrupted.
        if "catalog" not in state.steps:
            if drop_source:
                if destination.lower() == obj.lower():
                    catalog.move_object(obj, target.name, target_kind)
                else:
                    catalog.unregister_object(obj)
                    catalog.register_object(
                        destination, target.name, target_kind or target.kind,
                        replace=True, **(payload.get("properties") or {}),
                    )
            elif destination.lower() == obj.lower():
                catalog.add_replica(destination, target.name, target_kind)
            else:
                catalog.register_object(
                    destination, target.name, target_kind or target.kind,
                    replace=True,
                )
        if drop_source and "source_dropped" not in state.steps:
            try:
                source = catalog.engine(payload.get("source_engine", ""))
                source.drop_object(obj)
            except ObjectNotFoundError:
                pass
            except Exception as error:
                # The catalog no longer references the source copy, so a
                # leftover object on a flaky engine is a harmless leak —
                # note it rather than blocking recovery on it.
                self.journal.annotate(
                    state.intent_id, "source_drop_failed", kind=state.kind,
                    error=type(error).__name__,
                )
                report.note(
                    f"{state.intent_id}: source copy of {obj!r} not dropped "
                    f"({type(error).__name__}); orphaned on its engine"
                )
        self.journal.commit_intent(state.intent_id, kind=state.kind, recovered=True)
        report.rolled_forward += 1
        report.note(f"{state.intent_id}: cast rolled forward to completion")

    # -------------------------------------------------------------- promotions
    def _recover_promotion(self, state: Any, report: RecoveryReport) -> None:
        payload = state.payload
        catalog = self.bigdawg.catalog
        obj = payload.get("object", "")
        from_engine = payload.get("from_engine", "")
        to_engine = payload.get("to_engine", "")
        if "catalog" in state.steps:
            # Half-elected: the catalog swap landed but the election never
            # committed, so no write can have been re-dispatched yet (the
            # commit record precedes the re-dispatch).  Un-promote — the
            # old primary's copy is still fresh.
            try:
                if catalog.locate(obj).engine_name == to_engine:
                    catalog.promote_primary(obj, from_engine)
                    report.note(
                        f"{state.intent_id}: un-promoted half-elected primary "
                        f"of {obj!r} back to {from_engine!r}"
                    )
            except (ObjectNotFoundError, CatalogError) as error:
                report.note(
                    f"{state.intent_id}: could not un-promote {obj!r} "
                    f"({type(error).__name__})"
                )
        self.journal.abort_intent(state.intent_id, kind=state.kind, recovered=True)
        report.rolled_back += 1

    def _resolve_demoted(self, state: Any, report: RecoveryReport) -> None:
        """Repair or discard the primary a committed election demoted."""
        payload = state.payload
        catalog = self.bigdawg.catalog
        obj = payload.get("object", "")
        from_engine = payload.get("from_engine", "")
        to_engine = payload.get("to_engine", "")

        def resolved(outcome: str) -> None:
            self.journal.annotate(
                state.intent_id, "resolved", kind=state.kind, outcome=outcome
            )
            report.note(f"{state.intent_id}: demoted {from_engine!r} {outcome}")

        try:
            primary = catalog.locate(obj)
        except ObjectNotFoundError:
            resolved("object_gone")
            return
        if primary.engine_name != to_engine:
            # A later election or write moved the primary again; that
            # intent owns the current demotion.
            resolved("superseded")
            return
        demoted = {
            loc.engine_name: loc for loc in catalog.replicas(obj)
        }.get(from_engine)
        if demoted is None:
            resolved("gone")
            return
        if demoted.version == catalog.content_version(obj):
            # No write landed after the election — the demoted copy is
            # still byte-identical to the primary.
            resolved("fresh")
            return
        if self.healthy(from_engine):
            try:
                # Anti-entropy CAST: re-copy the object from the new
                # primary over the stale demoted copy, re-registering it
                # as a fresh replica.
                self.bigdawg.migrator.cast(obj, from_engine)
                report.repaired += 1
                resolved("repaired")
                return
            except Exception as error:
                report.note(
                    f"{state.intent_id}: repair cast of {obj!r} to "
                    f"{from_engine!r} failed ({type(error).__name__})"
                )
        catalog.drop_replica(obj, from_engine)
        report.discarded += 1
        resolved("discarded")

    # ---------------------------------------------------------- reconciliation
    def _reconcile(self, report: RecoveryReport) -> None:
        """Sweep the catalog against what the engines actually hold."""
        catalog = self.bigdawg.catalog
        for location in list(catalog.objects()):
            if location.properties.get("temporary"):
                continue
            name = location.name
            for replica in catalog.replicas(name):
                if not self.healthy(replica.engine_name):
                    continue
                if self._engine_has(replica.engine_name, name) is False:
                    catalog.drop_replica(name, replica.engine_name)
                    report.reconciled += 1
                    report.note(
                        f"reconcile: dropped phantom replica of {name!r} "
                        f"on {replica.engine_name!r}"
                    )
            if not self.healthy(location.engine_name):
                continue
            if self._engine_has(location.engine_name, name) is not False:
                continue
            # The primary's engine lost the object: re-point the catalog at
            # a fresh replica that still has it (journaled like any other
            # election, pre-resolved since the old copy is simply gone).
            current = catalog.content_version(name)
            for replica in catalog.replicas(name):
                if (replica.version != current
                        or not self.healthy(replica.engine_name)
                        or self._engine_has(replica.engine_name, name) is not True):
                    continue
                intent = self.journal.begin(
                    "promotion", object=name,
                    from_engine=location.engine_name,
                    to_engine=replica.engine_name, step="reconcile",
                )
                try:
                    catalog.promote_primary(name, replica.engine_name)
                except CatalogError as error:
                    intent.abort(error=type(error).__name__)
                    continue
                intent.mark("catalog")
                intent.commit()
                self.journal.annotate(
                    intent.intent_id, "resolved", kind="promotion",
                    outcome="reconciled",
                )
                catalog.drop_replica(name, location.engine_name)
                report.reconciled += 1
                report.note(
                    f"reconcile: promoted {replica.engine_name!r} to primary "
                    f"of {name!r} (old primary lost the object)"
                )
                break

    def _engine_has(self, engine_name: str, object_name: str) -> bool | None:
        """Whether an engine holds an object; None when it cannot be asked."""
        try:
            return bool(self.bigdawg.catalog.engine(engine_name).has_object(object_name))
        except Exception:
            return None
