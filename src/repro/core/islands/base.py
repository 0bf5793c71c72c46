"""The island abstraction.

Each island is a front-facing abstraction with a query language, a data model
and a set of shims to the engines it federates (Section 2.1).  Every island
answers:

* ``execute(query)`` — run a query expressed in the island's language and
  return a :class:`~repro.common.schema.Relation` (the common result form all
  interfaces consume).
* ``can_answer(query)`` — a cheap syntactic check used by the cross-island
  planner when the user did not SCOPE a subquery explicitly.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

from repro.common.errors import ObjectNotFoundError
from repro.common.schema import Relation
from repro.core.catalog import BigDawgCatalog
from repro.core.shims import Shim, shim_for
from repro.engines.base import Engine

#: Statement prefixes that mutate their target objects — these must be
#: routed to the primary copy and invalidate replicas afterwards.
_WRITE_PREFIXES = ("insert", "update", "delete", "drop", "create", "alter")


def is_write_statement(text: str) -> bool:
    """Whether a statement writes: the islands send it to the primary copy
    and the runtime journals it."""
    return text.strip().lower().startswith(_WRITE_PREFIXES)


class Island(ABC):
    """Base class of every island."""

    #: Island name as used in SCOPE specifications, e.g. RELATIONAL(...)
    name: str = "abstract"

    def __init__(self, catalog: BigDawgCatalog) -> None:
        self.catalog = catalog
        self.queries_executed = 0

    # ------------------------------------------------------------------ shims
    def member_engines(self) -> list[Engine]:
        """Engines reachable through this island, according to the catalog."""
        return self.catalog.island_engines(self.name)

    def shim(self, engine: Engine) -> Shim:
        """Build the shim adapting an engine to this island's data model."""
        return shim_for(engine, self.name)

    def engine_for_object(self, object_name: str, for_write: bool = False) -> Engine:
        """The engine storing an object, restricted to this island's members.

        Reads go through the catalog's replica-aware routing (cheapest fresh
        healthy copy); writes must hit the primary, which is what keeps the
        freshness bookkeeping single-writer.
        """
        members = {engine.name.lower() for engine in self.member_engines()}
        if for_write:
            location = self.catalog.locate(object_name)
        else:
            location = self.catalog.locate_for_read(object_name, members=members)
        if location.engine_name not in members:
            raise ObjectNotFoundError(
                f"object {object_name!r} lives in engine {location.engine_name!r}, "
                f"which is not reachable through island {self.name!r}"
            )
        return self.catalog.engine(location.engine_name)

    # ------------------------------------------------------------------ query
    @abstractmethod
    def execute(self, query: str) -> Relation:
        """Execute a query in this island's language and return a relation."""

    @abstractmethod
    def can_answer(self, query: str) -> bool:
        """Cheap syntactic test: does this query look like this island's language?"""

    def describe(self) -> dict:
        return {
            "island": self.name,
            "engines": [engine.name for engine in self.member_engines()],
            "queries_executed": self.queries_executed,
        }
