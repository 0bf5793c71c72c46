"""Per-client runtime sessions: traffic counts and session-scoped temporaries."""

from __future__ import annotations

import itertools
import threading
from concurrent.futures import Future
from typing import TYPE_CHECKING

from repro.common.schema import Relation

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.scheduler import PolystoreRuntime

#: Process-wide session ids: several runtimes may serve one polystore, and
#: session-scoped temp names (``name__s<id>``) must never collide across them.
_SESSION_IDS = itertools.count(1)


class RuntimeSession:
    """A per-client handle: counts its traffic and scopes its temporaries.

    Any temporary materialized through :meth:`materialize` lives until the
    session closes (use it as a context manager), at which point it is
    dropped from both its engine and the catalog — per-query WITH bindings
    are already scoped to their plan execution and need no session help.
    """

    def __init__(self, runtime: "PolystoreRuntime") -> None:
        self.runtime = runtime
        self.id = next(_SESSION_IDS)
        self.queries_submitted = 0
        self._temporaries: list[str] = []
        self._lock = threading.Lock()
        self._closed = False

    # ------------------------------------------------------------------ query
    def submit(self, query: str, **options: object) -> "Future[Relation]":
        self._count()
        return self.runtime.submit(query, **options)  # type: ignore[arg-type]

    def execute(self, query: str, **options: object) -> Relation:
        """Run one query on the calling thread (see :meth:`PolystoreRuntime.execute`)."""
        self._count()
        return self.runtime.execute(query, **options)  # type: ignore[arg-type]

    def _count(self) -> None:
        self._check_open()
        with self._lock:
            self.queries_submitted += 1

    # ------------------------------------------------------------- temporaries
    def materialize(self, name: str, relation: Relation) -> str:
        """Store a relation as a session-scoped temporary table."""
        self._check_open()
        physical = f"{name}__s{self.id}"
        self.runtime.bigdawg.materialize_temporary(physical, relation)
        with self._lock:
            self._temporaries.append(physical)
        return physical

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        with self._lock:
            temporaries, self._temporaries = self._temporaries, []
        for name in temporaries:
            self.runtime.bigdawg.drop_temporary(name)

    def __enter__(self) -> "RuntimeSession":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError(f"session {self.id} is closed")


__all__ = ["RuntimeSession"]
