"""The engine interface the BigDAWG shims program against.

An engine owns data objects (tables, arrays, streams, key-value tables) and
executes queries in its native language.  The only thing BigDAWG requires of
an engine is the small surface in :class:`Engine`: enumerate objects, move an
object out and in over one chunked data path, drop and rename it, and report
which capabilities it has so the planner can route subqueries.

The data path is three methods every engine implements; CAST streams over
them, so a cross-engine move never holds the whole object on the wire:

* ``export_schema(name)`` is the schema an export of ``name`` has, read from
  metadata: it reads no rows.
* ``export_chunks(name, chunk_size)`` yields the object's rows as relations.
  Every chunk has the ``export_schema`` schema, and every chunk but the last
  holds exactly ``chunk_size`` rows.  An empty object yields no chunk.  A
  non-positive ``chunk_size`` raises ``ValueError``, and a missing object
  :class:`ObjectNotFoundError`, at the call, not at the first ``next``.
* ``import_chunks(name, schema, chunks, **options)`` creates the object from
  chunks over ``schema``.  It replaces an existing object of that name unless
  ``replace=False``, which raises :class:`DuplicateObjectError` instead.
  Each engine's ``import_chunks`` docstring names the options it reads and
  says who validates the chunks' types and NULLs.

``export_relation`` and ``import_relation`` are the same path for one whole
relation (a shim's read, a one-relation load); no engine overrides them.
"""

from __future__ import annotations

import enum
import functools
import itertools
import sys
import threading
from abc import ABC, abstractmethod
from typing import Any, Callable, Iterable, Iterator, Sequence

from repro.common.cancellation import check_cancelled
from repro.common.schema import Relation, Schema

#: Default number of rows per chunk on the streaming CAST path.
DEFAULT_CHUNK_ROWS = 8192


def check_chunk_size(chunk_size: int) -> None:
    """Raise ``ValueError`` for a non-positive ``chunk_size``."""
    if chunk_size <= 0:
        raise ValueError(f"chunk_size must be positive, got {chunk_size}")


def row_chunks(schema: Schema, rows: Iterable[Sequence[Any]],
               chunk_size: int) -> Iterator[Relation]:
    """``rows`` as relations over ``schema`` of ``chunk_size`` rows (the last
    may hold fewer), each row coerced by :class:`Relation`: the export of an
    engine whose storage is row-shaped.  Checks ``chunk_size`` at the call."""
    check_chunk_size(chunk_size)
    rows = iter(rows)

    def generate() -> Iterator[Relation]:
        while True:
            check_cancelled()  # chunk boundary: cancelled exports stop here
            chunk = Relation(schema, itertools.islice(rows, chunk_size))
            if not len(chunk):
                return
            yield chunk

    return generate()


class EngineCapability(enum.Flag):
    """Feature flags the cross-island planner uses to route subqueries."""

    NONE = 0
    SQL = enum.auto()
    ARRAY = enum.auto()
    KEY_VALUE = enum.auto()
    TEXT_SEARCH = enum.auto()
    STREAMING = enum.auto()
    LINEAR_ALGEBRA = enum.auto()
    UDF = enum.auto()
    TRANSACTIONS = enum.auto()


def _bumps_write_version(method: Callable) -> Callable:
    """Wrap a mutating engine method so it advances the engine's write version.

    The bump happens in a ``finally`` block: a failed mutation may still have
    partially changed engine state, and over-invalidating the result cache is
    always safe while under-invalidating never is.
    """

    @functools.wraps(method)
    def wrapper(self: "Engine", *args: Any, **kwargs: Any) -> Any:
        try:
            return method(self, *args, **kwargs)
        finally:
            self.bump_write_version()

    wrapper._bumps_write_version = True  # type: ignore[attr-defined]
    return wrapper


#: Engine-interface methods that mutate stored objects.  Subclass overrides of
#: these are wrapped automatically so every mutation — including ones made by
#: engines added later — advances ``write_version`` without each engine having
#: to remember to do it.  Engine-*native* mutation entry points (SQL DML, kv
#: ``put``, array loads) sit outside this interface and call
#: :meth:`Engine.bump_write_version` explicitly.
_MUTATOR_NAMES = ("import_chunks", "drop_object", "rename_object")


class Engine(ABC):
    """Abstract storage engine federated by BigDAWG."""

    #: Symbolic engine kind, e.g. "relational", "array"; used by the catalog.
    kind: str = "abstract"

    #: Ephemeral engines hold only per-execution scratch state (e.g. the
    #: polystore's temp-table engine); the result cache excludes them from its
    #: state fingerprint because no cacheable query can observe their contents.
    ephemeral: bool = False

    #: How many write idempotency tokens an engine remembers (FIFO).
    WRITE_TOKEN_MEMORY = 1024

    def __init__(self, name: str) -> None:
        self.name = name
        #: Count of native queries executed; used by the monitor and tests.
        self.queries_executed = 0
        #: Monotonically increasing counter advanced by every mutating call;
        #: the runtime's result cache fingerprints engine state with it.
        self._write_version = 0
        self._write_version_lock = threading.Lock()
        # Idempotency tokens of journaled writes this engine applied, in
        # arrival order so the memory stays bounded.  Crash recovery asks
        # ``has_write_token`` to tell "applied but the commit record is
        # missing" (roll forward) from "never reached the engine" (roll
        # back).
        self._write_tokens: list[str] = []
        self._write_token_set: set[str] = set()

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        for name in _MUTATOR_NAMES:
            method = cls.__dict__.get(name)
            if method is not None and not getattr(method, "_bumps_write_version", False):
                setattr(cls, name, _bumps_write_version(method))

    # --------------------------------------------------------- write versioning
    @property
    def write_version(self) -> int:
        """The engine's current mutation counter (see :meth:`bump_write_version`)."""
        return self._write_version

    def bump_write_version(self) -> int:
        """Advance the mutation counter; returns the new version.

        Import/drop overrides are bumped automatically; engines must call this
        from any *native* mutation path (DDL/DML, ``put``, loads) as well.
        """
        with self._write_version_lock:
            self._write_version += 1
            return self._write_version

    def note_write_token(self, token: str) -> None:
        """Remember that a journaled write with this idempotency token landed.

        The scheduler stamps the token right after a journaled DML dispatch
        succeeds; memory is bounded to :attr:`WRITE_TOKEN_MEMORY` tokens
        (oldest first out), far beyond the handful of in-flight intents a
        crash can leave behind.
        """
        with self._write_version_lock:
            if token in self._write_token_set:
                return
            self._write_tokens.append(token)
            self._write_token_set.add(token)
            while len(self._write_tokens) > self.WRITE_TOKEN_MEMORY:
                self._write_token_set.discard(self._write_tokens.pop(0))

    def has_write_token(self, token: str) -> bool:
        """Whether a journaled write with this token was applied here."""
        with self._write_version_lock:
            return token in self._write_token_set

    @property
    @abstractmethod
    def capabilities(self) -> EngineCapability:
        """Capabilities this engine offers."""

    @abstractmethod
    def list_objects(self) -> list[str]:
        """Names of all data objects stored in this engine."""

    @abstractmethod
    def has_object(self, name: str) -> bool:
        """Whether the engine stores an object with this name."""

    @abstractmethod
    def drop_object(self, name: str) -> None:
        """Remove an object."""

    @abstractmethod
    def rename_object(self, old_name: str, new_name: str,
                      replace: bool = True) -> None:
        """Rename an object in place, replacing any object at ``new_name``
        (with ``replace=False``, raise :class:`DuplicateObjectError`).

        The commit primitive of transactional CAST: the migrator imports
        into a shadow name and publishes the finished object with one
        rename, so a consumer can never observe (or be left with) a
        half-imported object under the real name.  Every engine re-keys its
        storage, so a rename copies no data.
        """

    # ---------------------------------------------------------------- data path
    @abstractmethod
    def export_schema(self, name: str) -> Schema:
        """The schema an export of ``name`` has, read without reading rows."""

    @abstractmethod
    def export_chunks(self, name: str, chunk_size: int = DEFAULT_CHUNK_ROWS) -> Iterator[Relation]:
        """The object's rows as relations of ``chunk_size`` rows (the last
        may hold fewer); nothing for an empty object."""

    @abstractmethod
    def import_chunks(self, name: str, schema: Schema, chunks: Iterable[Relation],
                      **options: Any) -> None:
        """Create (or replace) an object from a stream of chunks over ``schema``."""

    def export_relation(self, name: str) -> Relation:
        """The whole object as one relation: the one chunk of an unbounded
        :meth:`export_chunks`, as the engine made it, or an empty relation
        over :meth:`export_schema` for an empty object."""
        for chunk in self.export_chunks(name, sys.maxsize):
            return chunk
        return Relation(self.export_schema(name))

    def import_relation(self, name: str, relation: Relation, **options: Any) -> None:
        """Create (or replace) an object from one relation: :meth:`import_chunks`
        of that one chunk, with the same options."""
        self.import_chunks(name, relation.schema, [relation], **options)

    def describe(self) -> dict[str, Any]:
        """Human-readable summary used by EXPLAIN output and the demo."""
        return {
            "name": self.name,
            "kind": self.kind,
            "objects": self.list_objects(),
            "capabilities": str(self.capabilities),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r})"
