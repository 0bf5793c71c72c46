"""The array island: AFL-style queries over array-capable engines."""

from __future__ import annotations

import re

from repro.common.errors import ExecutionError
from repro.common.schema import Column, Relation, Schema
from repro.common.types import DataType
from repro.core.islands.base import Island
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

    def execute(self, query: str) -> Relation:
        """Execute an AFL query; the result is flattened to a relation."""
        self.queries_executed += 1
        call = parse_aql(query)
        array_name = self._root_array(call)
        engine = self.engine_for_object(array_name)
        if isinstance(engine, ArrayEngine):
            result = engine.execute(query)
        else:
            # Materialize through the shim into a scratch array engine first.
            scratch = ArrayEngine("_array_island_scratch")
            stored = ArrayShim(engine).fetch_array(array_name)
            scratch.register(array_name, stored)
            result = scratch.execute(query)
        return self._to_relation(result)

    def execute_native(self, query: str) -> StoredArray | dict:
        """Execute and return the engine's native result (used by analytics)."""
        self.queries_executed += 1
        call = parse_aql(query)
        array_name = self._root_array(call)
        engine = self.engine_for_object(array_name)
        if isinstance(engine, ArrayEngine):
            return engine.execute(query)
        scratch = ArrayEngine("_array_island_scratch")
        scratch.register(array_name, ArrayShim(engine).fetch_array(array_name))
        return scratch.execute(query)

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
