"""Shims: the connectors between islands and storage engines.

A shim adapts one engine to one island's data model (Figure 1).  Islands never
talk to engines directly; they ask their shims to (a) fetch an object in the
island's model or (b) push an island query down to the engine when the engine
can run it natively.

Three shim families exist, one per island data model:

* :class:`RelationalShim` — native SQL pushdown when the engine speaks SQL;
  any object's relational form is its engine's ``export_relation``.
* :class:`ArrayShim` — object as a :class:`StoredArray`, read from the array
  engine or converted from a tiled one.
* :class:`AssociativeShim` — object as a D4M :class:`AssociativeArray`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from repro.common.errors import UnsupportedOperationError
from repro.common.schema import Relation
from repro.d4m.associative_array import AssociativeArray
from repro.engines.array.engine import ArrayEngine
from repro.engines.array.storage import StoredArray
from repro.engines.base import Engine, EngineCapability
from repro.engines.keyvalue.engine import KeyValueEngine
from repro.engines.keyvalue.text_index import DocumentMatches
from repro.engines.relational.engine import RelationalEngine
from repro.engines.tiledb.engine import TileDBEngine

if TYPE_CHECKING:  # pragma: no cover
    pass


class Shim:
    """Base shim: wraps one engine for one island."""

    island: str = "abstract"

    def __init__(self, engine: Engine) -> None:
        self.engine = engine

    def supports_native(self) -> bool:
        """Whether island queries can be pushed down to the engine unchanged."""
        return False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.engine.name})"


class RelationalShim(Shim):
    """Adapts any engine to the relational island."""

    island = "relational"

    def supports_native(self) -> bool:
        return bool(self.engine.capabilities & EngineCapability.SQL)

    def execute_sql(self, sql: str) -> Relation:
        """Push a SQL query down to the engine (only for SQL-capable engines)."""
        if not self.supports_native():
            raise UnsupportedOperationError(
                f"engine {self.engine.name!r} cannot execute SQL natively"
            )
        return self.engine.execute(sql)  # type: ignore[attr-defined]


class ArrayShim(Shim):
    """Adapts array-capable engines to the array island."""

    island = "array"

    def supports_native(self) -> bool:
        return isinstance(self.engine, ArrayEngine)

    def fetch_array(self, object_name: str) -> StoredArray:
        """Materialize an object as a StoredArray."""
        if isinstance(self.engine, ArrayEngine):
            return self.engine.array(object_name)
        if isinstance(self.engine, TileDBEngine):
            # Convert a tiled array through its relation form into a dense array.
            scratch = ArrayEngine(f"_scratch_{self.engine.name}")
            relation = self.engine.export_relation(object_name)
            ndim = self.engine.array(object_name).schema.ndim
            dims = [f"d{i}" for i in range(ndim)]
            scratch.import_relation(object_name, relation, dimensions=dims)
            return scratch.array(object_name)
        if not (self.engine.capabilities & EngineCapability.ARRAY):
            raise UnsupportedOperationError(
                f"engine {self.engine.name!r} is not reachable through the array island"
            )
        raise UnsupportedOperationError(
            f"no array conversion implemented for engine {self.engine.name!r}"
        )


class TextShim(Shim):
    """Adapts text-search-capable engines to the text island."""

    island = "text"

    def supports_native(self) -> bool:
        return bool(self.engine.capabilities & EngineCapability.TEXT_SEARCH)

    def search(self, object_name: str, phrases: Sequence[str]) -> DocumentMatches:
        """Documents containing every phrase, in one engine call."""
        return self._keyvalue_engine().text_search(object_name, phrases)

    def rows_with_min_documents(self, object_name: str, phrases: Sequence[str], minimum: int) -> list[str]:
        """Rows with at least ``minimum`` documents per phrase, in one engine call."""
        return self._keyvalue_engine().rows_with_min_documents(object_name, phrases, minimum)

    def _keyvalue_engine(self) -> KeyValueEngine:
        if not isinstance(self.engine, KeyValueEngine):
            raise UnsupportedOperationError(
                f"engine {self.engine.name!r} does not support text search"
            )
        return self.engine


class AssociativeShim(Shim):
    """Adapts engines to the D4M island's associative-array model."""

    island = "d4m"

    def fetch_associative(self, object_name: str) -> AssociativeArray:
        """Build an associative array from the engine's object.

        * Key-value tables map naturally: row key x (family:qualifier) -> the
          cell's newest value.
        * Relations use their first column as the row key and remaining columns
          as column keys.
        * Arrays use stringified coordinates.
        """
        if isinstance(self.engine, KeyValueEngine):
            table = self.engine.table(object_name)
            out = AssociativeArray()
            for entry in table.store.latest():
                out.set(entry.key.row, f"{entry.key.family}:{entry.key.qualifier}", entry.value)
            return out
        relation = self.engine.export_relation(object_name)
        names = relation.schema.names
        out = AssociativeArray()
        if isinstance(self.engine, RelationalEngine):
            key_column = names[0]
            for row in relation:
                for column in names[1:]:
                    value = row[column]
                    if value is not None:
                        out.set(str(row[key_column]), column, value)
            return out
        # Array-like engines: last column is the value, the rest are coordinates.
        value_column = names[-1]
        for row in relation:
            row_key = str(row[names[0]])
            col_key = ",".join(str(row[n]) for n in names[1:-1]) or value_column
            out.set(row_key, col_key, row[value_column])
        return out


def shim_for(engine: Engine, island: str) -> Shim:
    """Factory: the right shim class for an engine/island pair."""
    island_key = island.lower()
    if island_key in ("relational", "myria"):
        return RelationalShim(engine)
    if island_key == "array":
        return ArrayShim(engine)
    if island_key == "text":
        return TextShim(engine)
    if island_key == "d4m":
        return AssociativeShim(engine)
    raise UnsupportedOperationError(f"no shim family defined for island {island!r}")
