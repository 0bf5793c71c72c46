"""The island abstraction.

Each island is a front-facing abstraction with a query language, a data model
and a set of shims to the engines it federates (Section 2.1).  Every island
answers:

* ``parse(text)`` — the island's own parse of one statement, made once: an
  :class:`IslandStatement`, which the runtime routes and journals by.  The
  base raises ``ParseError``: Myria and the degenerate islands take no text.
* ``execute(query)`` — run a query in the island's language (text, or a
  statement ``parse`` made, which is not parsed again) and return a
  :class:`~repro.common.schema.Relation` (the common result form all
  interfaces consume).
* ``rebind(statement, renames)`` — the statement reading WITH bindings
  under their temporary tables' names, renamed on the parse, not the text.
* ``can_answer(query)`` — a cheap syntactic check used by the cross-island
  planner when the user did not SCOPE a subquery explicitly.
"""

from __future__ import annotations

import re
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any

from repro.common.errors import ObjectNotFoundError, ParseError
from repro.common.schema import Relation
from repro.core.catalog import BigDawgCatalog
from repro.core.shims import Shim, shim_for
from repro.engines.base import Engine


@dataclass(frozen=True)
class IslandStatement:
    """One parsed statement: the catalog ``objects`` it reads or writes,
    first mention first; whether it ``writes`` (then it goes to their
    primaries and is journaled); and the island's parse, which runs."""

    text: str
    objects: tuple[str, ...]
    writes: bool
    parsed: Any


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
    def parse(self, text: str) -> IslandStatement:
        """Parse one statement of this island's language."""
        raise ParseError(f"island {self.name!r} takes no query text")

    def statement(self, query: str | IslandStatement) -> IslandStatement:
        """``query`` parsed: text is parsed, a statement is returned as is."""
        return self.parse(query) if isinstance(query, str) else query

    def rebind(self, statement: IslandStatement, renames: dict[str, str]) -> IslandStatement:
        """``statement`` with the objects in ``renames`` (lower-case logical
        name -> physical name) renamed; no binding reaches the base's."""
        return statement

    @abstractmethod
    def execute(self, query: str | IslandStatement) -> Relation:
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


class PatternIsland(Island):
    """An island whose statements are one line matched by ``pattern``;
    group 1 names the one object a statement reads, and it writes none."""

    pattern: re.Pattern

    def can_answer(self, query: str) -> bool:
        return bool(self.pattern.match(query.strip()))

    def parse(self, text: str) -> IslandStatement:
        match = self.pattern.match(text.strip())
        if match is None:
            raise ParseError(f"not a {self.name} island query: {text!r}")
        return IslandStatement(text, (match.group(1),), False, match)

    def rebind(self, statement: IslandStatement, renames: dict[str, str]) -> IslandStatement:
        """The match's object span replaced, parsed again."""
        match = statement.parsed
        physical = renames.get(match.group(1).lower())
        if physical is None:
            return statement
        return self.parse(match.string[: match.start(1)] + physical + match.string[match.end(1):])
