"""The engine interface the BigDAWG shims program against.

An engine owns data objects (tables, arrays, streams, key-value tables) and
executes queries in its native language.  The only thing BigDAWG requires of
an engine is the small surface in :class:`Engine`: enumerate objects, export
an object as a relation (all at once or as bounded chunks), import a relation
as a new object (likewise chunked), and report which capabilities it has so
the planner can route subqueries.

The chunked half of the surface — :meth:`Engine.export_schema`,
:meth:`Engine.export_chunks` and :meth:`Engine.import_chunks` — is what the
streaming CAST pipeline uses so that a cross-engine move never materializes
the whole object on the wire.  The base class provides full-relation
fallbacks, so an engine only has to implement ``export_relation`` /
``import_relation`` to participate; engines with native chunk support
override the chunked methods to avoid the full copy.
"""

from __future__ import annotations

import enum
import functools
import itertools
import threading
from abc import ABC, abstractmethod
from typing import Any, Callable, Iterable, Iterator

from repro.common import vectors
from repro.common.cancellation import check_cancelled
from repro.common.schema import Relation, Schema

#: Default number of rows per chunk on the streaming CAST path.
DEFAULT_CHUNK_ROWS = 8192


def _sliced(relation: Relation, chunk_size: int) -> Iterator[Relation]:
    """``relation`` as relations of at most ``chunk_size`` rows, each a slice
    of every column (views where the column is typed).  Raises eagerly on a
    non-positive ``chunk_size``; yields nothing for an empty relation."""
    if chunk_size <= 0:
        raise ValueError(f"chunk_size must be positive, got {chunk_size}")
    columns = [relation.column_vector(i) for i in range(len(relation.schema))]

    def generate() -> Iterator[Relation]:
        for start in range(0, len(relation), chunk_size):
            check_cancelled()  # chunk boundary: cancelled exports stop here
            stop = min(start + chunk_size, len(relation))
            yield Relation.from_columns(
                relation.schema, [column[start:stop] for column in columns], stop - start
            )

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
_MUTATOR_NAMES = ("import_relation", "import_chunks", "drop_object", "rename_object")


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
    def export_relation(self, name: str) -> Relation:
        """Export a stored object as a relation (the CAST egress path)."""

    @abstractmethod
    def import_relation(self, name: str, relation: Relation, **options: Any) -> None:
        """Create (or replace) an object from a relation (the CAST ingress path)."""

    @abstractmethod
    def drop_object(self, name: str) -> None:
        """Remove an object."""

    def rename_object(self, old_name: str, new_name: str,
                      replace: bool = True) -> None:
        """Rename an object in place, replacing any object at ``new_name``.

        The commit primitive of transactional CAST: the migrator imports
        into a shadow name and publishes the finished object with one
        rename, so a consumer can never observe (or be left with) a
        half-imported object under the real name.  The fallback copies
        through export/import; engines with dict-keyed storage override it
        with an O(1) key move.
        """
        if old_name.lower() == new_name.lower():
            return
        if not replace and self.has_object(new_name):
            from repro.common.errors import DuplicateObjectError

            raise DuplicateObjectError(
                f"object {new_name!r} already exists in engine {self.name!r}"
            )
        self.import_relation(new_name, self.export_relation(old_name))
        self.drop_object(old_name)

    # ------------------------------------------------------- chunked CAST path
    def export_schema(self, name: str) -> Schema:
        """The relational schema an export of ``name`` would have.

        The fallback exports the whole object just to read its schema; engines
        override this with a metadata-only lookup so planning a CAST is cheap.
        """
        return self.export_relation(name).schema

    def export_chunks(self, name: str, chunk_size: int = DEFAULT_CHUNK_ROWS) -> Iterator[Relation]:
        """Export an object as a stream of relations of at most ``chunk_size`` rows.

        The fallback exports the full relation and slices its columns;
        engines with an incremental scan override this to bound memory.
        Yields nothing for an empty object.
        """
        return _sliced(self.export_relation(name), chunk_size)

    def export_stream(self, name: str, chunk_size: int = DEFAULT_CHUNK_ROWS
                      ) -> tuple[Schema, Iterator[Relation]]:
        """Schema plus chunk stream in one call — the CAST egress entry point.

        Dispatches to ``export_schema``/``export_chunks`` whenever a subclass
        overrides them, so native chunk or metadata paths are always
        honoured.  An engine overriding only ``export_chunks`` gets its
        schema from the first chunk rather than the full-export schema
        fallback, preserving the override's memory bound.  Only for
        pure-fallback engines does it materialize the relation *once* and
        derive both from it (calling the two fallbacks separately would
        export twice).
        """
        cls = type(self)
        if cls.export_schema is not Engine.export_schema:
            return self.export_schema(name), self.export_chunks(name, chunk_size)
        if cls.export_chunks is not Engine.export_chunks:
            chunks = self.export_chunks(name, chunk_size)
            first = next(chunks, None)
            if first is not None:
                return first.schema, itertools.chain([first], chunks)
            # Empty stream: the object has no rows, so the schema fallback's
            # full export is cheap here.
            return self.export_relation(name).schema, iter(())
        relation = self.export_relation(name)
        return relation.schema, _sliced(relation, chunk_size)

    def import_chunks(self, name: str, schema: Schema, chunks: Iterable[Relation],
                      **options: Any) -> None:
        """Create (or replace) an object from a stream of relation chunks.

        The fallback concatenates the chunks' columns and delegates to
        ``import_relation``; engines that can append incrementally override
        this so only one decoded chunk is held at a time.
        """
        parts = list(chunks)
        columns = [
            vectors.concat([chunk.column_vector(i) for chunk in parts]) if parts else []
            for i in range(len(schema))
        ]
        combined = Relation.from_columns(schema, columns, sum(len(chunk) for chunk in parts))
        self.import_relation(name, combined, **options)

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
