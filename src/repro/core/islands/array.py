"""The array island: AFL-style queries over array-capable engines."""

from __future__ import annotations

import re

from repro.common.errors import ExecutionError
from repro.common.schema import Column, Relation, Schema
from repro.common.types import DataType
from repro.core.islands.base import Island, IslandStatement
from repro.core.shims import ArrayShim
from repro.engines.array.aql import AqlCall, parse_aql
from repro.engines.array.engine import ArrayEngine
from repro.engines.array.storage import StoredArray


class ArrayIsland(Island):
    """AFL over the federation's array engines."""

    name = "array"

    _OPERATOR_RE = re.compile(
        r"^\s*(scan|filter|between|subarray|apply|project|aggregate|window|regrid)\s*\(",
        re.IGNORECASE,
    )

    def can_answer(self, query: str) -> bool:
        return bool(self._OPERATOR_RE.match(query.strip()))

    def parse(self, text: str) -> IslandStatement:
        """An AFL call reads one object, its root array, and writes none."""
        call = parse_aql(text)
        return IslandStatement(text, (self._root_array(call),), False, call)

    def execute(self, query: str | IslandStatement) -> Relation:
        """Execute an AFL query; the result is flattened to a relation."""
        return self._to_relation(self.execute_native(query))

    def execute_native(self, query: str | IslandStatement) -> StoredArray | dict:
        """Execute and return the engine's native result (used by analytics)."""
        self.queries_executed += 1
        statement = self.statement(query)
        (array_name,) = statement.objects
        engine = self.engine_for_object(array_name)
        if not isinstance(engine, ArrayEngine):
            # Materialize through the shim into a scratch array engine first.
            scratch = ArrayEngine("_array_island_scratch")
            scratch.register(array_name, ArrayShim(engine).fetch_array(array_name))
            engine = scratch
        return engine.execute(statement.parsed)

    def fetch_array(self, object_name: str) -> StoredArray:
        """Materialize an object as a stored array via the owning engine's shim."""
        engine = self.engine_for_object(object_name)
        return ArrayShim(engine).fetch_array(object_name)

    # ----------------------------------------------------------------- helpers
    @staticmethod
    def _root_array(call: AqlCall) -> str:
        node = call
        while isinstance(node.source, AqlCall):
            node = node.source
        return str(node.source)

    @staticmethod
    def _to_relation(result) -> Relation:
        """Flatten an array / aggregate-dict result into a relation."""
        if isinstance(result, StoredArray):
            return next(result.cell_chunks())
        if isinstance(result, dict):
            # Either {aggregate_name: value} or {coordinate: value} from grouping.
            keys = list(result)
            if keys and isinstance(keys[0], str):
                schema = Schema([Column(key, DataType.FLOAT) for key in keys])
                return Relation(schema, [[result[key] for key in keys]])
            schema = Schema([Column("coordinate", DataType.INTEGER), Column("value", DataType.FLOAT)])
            return Relation(schema, [[int(key), float(result[key])] for key in sorted(result)])
        raise ExecutionError(f"cannot convert array result of type {type(result).__name__} to a relation")
