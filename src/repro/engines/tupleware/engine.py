"""The Tupleware prototype engine: compiled UDF workflows over in-memory datasets."""

from __future__ import annotations

from typing import Any, Iterable, Iterator, Sequence

import numpy as np

from repro.common.cancellation import check_cancelled
from repro.common.errors import DuplicateObjectError, ObjectNotFoundError
from repro.common.schema import Column, Relation, Schema
from repro.common.types import DataType
from repro.engines.base import DEFAULT_CHUNK_ROWS, Engine, EngineCapability, row_chunks
from repro.engines.tupleware.compiler import CompiledExecutor, ExecutionReport, InterpretedExecutor
from repro.engines.tupleware.workflow import Workflow

_EXPORT_SCHEMA = Schema([Column("index", DataType.INTEGER), Column("value", DataType.FLOAT)])


class TuplewareEngine(Engine):
    """Stores numeric datasets and runs UDF workflows over them, compiled by default."""

    kind = "tupleware"

    def __init__(self, name: str = "tupleware") -> None:
        super().__init__(name)
        self._datasets: dict[str, np.ndarray] = {}
        self._compiled = CompiledExecutor()
        self._interpreted = InterpretedExecutor()

    @property
    def capabilities(self) -> EngineCapability:
        return EngineCapability.UDF

    # ------------------------------------------------------------- Engine API
    def list_objects(self) -> list[str]:
        return sorted(self._datasets)

    def has_object(self, name: str) -> bool:
        return name.lower() in self._datasets

    def export_schema(self, name: str) -> Schema:
        """``index`` (a value's position in the dataset) and ``value``."""
        self.dataset(name)  # a missing dataset raises here
        return _EXPORT_SCHEMA

    def export_chunks(self, name: str, chunk_size: int = DEFAULT_CHUNK_ROWS) -> Iterator[Relation]:
        """The flattened dataset as (index, value) rows."""
        return row_chunks(_EXPORT_SCHEMA, enumerate(self.dataset(name).ravel().tolist()), chunk_size)

    def import_chunks(self, name: str, schema: Schema, chunks: Iterable[Relation],
                      **options: Any) -> None:
        """Load one column of the chunks as the dataset.  Options:
        ``value_column`` (default the last) and ``replace``.  NULLs are
        skipped; ``float`` refuses any other value that is not a number."""
        column = schema.index_of(options.get("value_column", schema.names[-1]))
        values = [
            float(value) for chunk in chunks for value in chunk.column_values(column)
            if value is not None
        ]
        self.load(name, values, replace=bool(options.get("replace", True)))

    def drop_object(self, name: str) -> None:
        if name.lower() not in self._datasets:
            raise ObjectNotFoundError(f"dataset {name!r} does not exist")
        del self._datasets[name.lower()]

    def rename_object(self, old_name: str, new_name: str,
                      replace: bool = True) -> None:
        """O(1) rename: re-key the dataset (the CAST commit primitive)."""
        old_key, new_key = old_name.lower(), new_name.lower()
        if old_key == new_key:
            return
        if old_key not in self._datasets:
            raise ObjectNotFoundError(f"dataset {old_name!r} does not exist")
        if new_key in self._datasets and not replace:
            raise DuplicateObjectError(f"dataset {new_name!r} already exists")
        self._datasets[new_key] = self._datasets.pop(old_key)

    # ----------------------------------------------------------------- datasets
    def load(self, name: str, data: Sequence[float] | np.ndarray, replace: bool = False) -> None:
        key = name.lower()
        if key in self._datasets and not replace:
            raise DuplicateObjectError(f"dataset {name!r} already exists")
        self._datasets[key] = np.asarray(data, dtype=float)
        # Native mutation path: invalidate any cached results over this engine.
        self.bump_write_version()

    def dataset(self, name: str) -> np.ndarray:
        key = name.lower()
        if key not in self._datasets:
            raise ObjectNotFoundError(f"dataset {name!r} does not exist in {self.name!r}")
        return self._datasets[key]

    # ----------------------------------------------------------------- execute
    def execute(self, workflow: Workflow, dataset: str, compiled: bool = True) -> ExecutionReport:
        """Run a workflow over a stored dataset, compiled (default) or interpreted."""
        check_cancelled()
        self.queries_executed += 1
        data = self.dataset(dataset)
        executor = self._compiled if compiled else self._interpreted
        return executor.execute(workflow, data)

    def compare_strategies(self, workflow: Workflow, dataset: str) -> dict[str, ExecutionReport]:
        """Run the same workflow through both executors (used by the benchmarks)."""
        return {
            "compiled": self.execute(workflow, dataset, compiled=True),
            "interpreted": self.execute(workflow, dataset, compiled=False),
        }
