"""Degenerate islands: the full functionality of a single storage engine.

An island exposes the *intersection* of its engines' capabilities; anything an
engine can do beyond that intersection is reached through its degenerate
island, which simply forwards native queries to that one engine (Section 2.1).
"""

from __future__ import annotations

from typing import Any, Callable

from repro.common.errors import UnsupportedOperationError
from repro.common.schema import Column, Relation, Schema
from repro.common.types import DataType, infer_type
from repro.core.catalog import BigDawgCatalog
from repro.core.islands.base import Island
from repro.engines.array.engine import ArrayEngine
from repro.engines.array.storage import StoredArray
from repro.engines.base import Engine
from repro.engines.keyvalue.engine import KeyValueEngine
from repro.engines.relational.engine import RelationalEngine
from repro.engines.streaming.engine import StreamingEngine


class DegenerateIsland(Island):
    """A pass-through island bound to exactly one engine."""

    def __init__(self, catalog: BigDawgCatalog, engine: Engine) -> None:
        super().__init__(catalog)
        self.engine = engine
        self.name = f"degenerate_{engine.name}"

    def member_engines(self) -> list[Engine]:
        return [self.engine]

    def can_answer(self, query: str) -> bool:
        # A degenerate island never claims queries; it must be SCOPEd explicitly.
        return False

    def execute(self, query: str) -> Relation:
        """Run a native query on the bound engine and coerce the result to a relation."""
        self.queries_executed += 1
        result = self.execute_native(query)
        return self._coerce(result)

    def execute_native(self, query: str) -> Any:
        """Run a native query and return the engine's native result object."""
        if isinstance(self.engine, (RelationalEngine, ArrayEngine)):
            return self.engine.execute(query)
        if isinstance(self.engine, KeyValueEngine):
            # Native access for the key-value engine is programmatic; accept a
            # tiny "GET <table> <row>" / "SCAN <table>" language for the demo.
            return self._execute_keyvalue(query)
        if isinstance(self.engine, StreamingEngine):
            return self._execute_streaming(query)
        raise UnsupportedOperationError(
            f"engine {self.engine.name!r} has no textual native interface; "
            "use its Python API through engine()"
        )

    def call(self, fn: Callable[[Engine], Any]) -> Any:
        """Programmatic escape hatch: call arbitrary engine API under the island."""
        self.queries_executed += 1
        return fn(self.engine)

    # ----------------------------------------------------------------- helpers
    def _execute_keyvalue(self, query: str) -> Any:
        parts = query.strip().split()
        if not parts:
            raise UnsupportedOperationError("empty key-value query")
        verb = parts[0].lower()
        if verb == "scan" and len(parts) >= 2:
            return self.engine.scan(parts[1])
        if verb == "get" and len(parts) >= 3:
            return self.engine.get_row(parts[1], parts[2])
        raise UnsupportedOperationError(
            f"unsupported key-value query {query!r}; use 'SCAN <table>' or 'GET <table> <row>'"
        )

    def _execute_streaming(self, query: str) -> Any:
        parts = query.strip().split()
        if len(parts) >= 2 and parts[0].lower() == "stats":
            return self.engine.statistics()
        if len(parts) >= 2 and parts[0].lower() == "export":
            return self.engine.export_relation(parts[1])
        raise UnsupportedOperationError(
            f"unsupported streaming query {query!r}; use 'EXPORT <stream>' or 'STATS <stream>'"
        )

    def _coerce(self, result: Any) -> Relation:
        if isinstance(result, Relation):
            return result
        if isinstance(result, StoredArray):
            return next(result.cell_chunks())
        if isinstance(result, dict):
            schema = Schema([Column("key", DataType.TEXT), Column("value", DataType.TEXT)])
            return Relation(schema, [[str(key), str(value)] for key, value in result.items()])
        if isinstance(result, list):
            schema = Schema(
                [Column("row", DataType.TEXT), Column("family", DataType.TEXT),
                 Column("qualifier", DataType.TEXT), Column("value", DataType.TEXT)]
            )
            return Relation(schema, [
                [entry.key.row, entry.key.family, entry.key.qualifier, str(entry.value)]
                for entry in result
            ])
        return Relation(Schema([Column("value", infer_type(result))]), [[result]])
