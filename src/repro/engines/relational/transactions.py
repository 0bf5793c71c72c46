"""A minimal transaction layer for the relational engine.

Transactions collect undo records for every insert, update and delete, apply
changes immediately (no isolation levels beyond a single-writer lock), and can
roll the table back on abort.  This is intentionally lightweight — what the
polystore needs is the *ability* to group multi-statement writes, not a full
MVCC implementation — but the API (begin/commit/rollback, context manager)
matches what an application written against PostgreSQL would expect.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.common.errors import TransactionError

if TYPE_CHECKING:  # pragma: no cover
    from repro.engines.relational.engine import RelationalEngine


@dataclass
class _UndoRecord:
    """One reversible change."""

    kind: str  # insert | delete | update
    table: str
    row_id: int
    before: tuple[Any, ...] | None = None


@dataclass
class Transaction:
    """A unit of work against one relational engine."""

    engine: "RelationalEngine"
    txn_id: int
    active: bool = True
    _undo: list[_UndoRecord] = field(default_factory=list)

    def record_insert(self, table: str, row_id: int) -> None:
        self._undo.append(_UndoRecord("insert", table, row_id))

    def record_delete(self, table: str, row_id: int, before: tuple[Any, ...]) -> None:
        self._undo.append(_UndoRecord("delete", table, row_id, before))

    def record_update(self, table: str, row_id: int, before: tuple[Any, ...]) -> None:
        self._undo.append(_UndoRecord("update", table, row_id, before))

    def commit(self) -> None:
        """Make the transaction's changes permanent."""
        self._require_active()
        self._undo.clear()
        self.active = False
        self.engine._finish_transaction(self)

    def rollback(self) -> None:
        """Undo every change made inside the transaction, newest first.

        A run of consecutive updates to one table is undone by one
        :meth:`HeapTable.update_many` that puts each row back as it was
        before the run: that state existed, so its unique keys agree, while
        undoing row by row can pass through one where a key is taken twice
        (``SET id = id + 1`` moved key 2 from one row to another).
        """
        self._require_active()
        batch: dict[int, tuple[Any, ...]] = {}   # row id -> values before the run
        batch_table = ""
        for record in reversed(self._undo):
            if batch and (record.kind != "update" or record.table != batch_table):
                self._restore(batch_table, batch)
            if record.kind == "update":
                batch_table = record.table
                batch[record.row_id] = record.before   # older records come later
                continue
            table = self.engine.table(record.table)
            if record.kind == "insert":
                table.delete_many([record.row_id])   # skips a row already gone
            elif record.kind == "delete":
                # Under its old row id: an older update or insert record of
                # this transaction names that id.
                table.restore(record.row_id, record.before)
        if batch:
            self._restore(batch_table, batch)
        if self._undo:
            # Undoing visibly mutated table state; results cached while the
            # transaction's changes were live must be invalidated.
            self.engine.bump_write_version()
        self._undo.clear()
        self.active = False
        self.engine._finish_transaction(self)

    def _restore(self, table_name: str, batch: dict[int, tuple[Any, ...]]) -> None:
        table = self.engine.table(table_name)
        for row_id in batch:
            table.get(row_id)   # raises, as a row-by-row update would, if a row is gone
        table.update_many(list(batch.items()))
        batch.clear()

    def _require_active(self) -> None:
        if not self.active:
            raise TransactionError(f"transaction {self.txn_id} is no longer active")

    def __enter__(self) -> "Transaction":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if not self.active:
            return False
        if exc_type is None:
            self.commit()
        else:
            self.rollback()
        return False


class TransactionManager:
    """Hands out transactions and enforces single-writer semantics."""

    def __init__(self, engine: "RelationalEngine") -> None:
        self._engine = engine
        self._lock = threading.Lock()
        self._next_id = 1
        self._active: Transaction | None = None

    def begin(self) -> Transaction:
        with self._lock:
            if self._active is not None and self._active.active:
                raise TransactionError("another transaction is already active")
            txn = Transaction(self._engine, self._next_id)
            self._next_id += 1
            self._active = txn
            return txn

    @property
    def active_transaction(self) -> Transaction | None:
        if self._active is not None and self._active.active:
            return self._active
        return None

    def finish(self, txn: Transaction) -> None:
        with self._lock:
            if self._active is txn:
                self._active = None
