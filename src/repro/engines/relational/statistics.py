"""Table and column statistics for the relational engine's optimizer.

This is the layer every cost-based decision reads from: per-table row
counts plus per-column NDV (number-of-distinct-values) estimates, null
fractions, min/max bounds and average widths in bytes.

Maintenance model
-----------------
* **Cheap counters, always fresh.**  Row counts are read live from the
  heap table and per-table mutation counters are bumped on every DML/load
  hook, so size/byte estimates track reality without ever rescanning.
* **Full column statistics, lazily.**  NDV/null/min-max require a scan;
  they are computed on first demand (``table_stats``) and then reused
  until the table has churned past a staleness threshold — mirroring the
  engine's existing ``write_version`` invalidation machinery, which the
  cached snapshot also records so external observers can correlate a
  statistics version with a cache fingerprint.
* **Bounded analyze cost.**  ``analyze`` samples at most
  :data:`ANALYZE_SAMPLE_ROWS` rows (evenly strided) and scales the NDV
  estimate back up, so collecting statistics on a 10M-row table costs the
  same as on a 20k-row one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.common.types import DataType
from repro.common.vectors import to_list

if TYPE_CHECKING:  # pragma: no cover
    from repro.engines.relational.engine import RelationalEngine

#: Hard cap on rows touched by one ``analyze`` pass.
ANALYZE_SAMPLE_ROWS = 20_000

#: Recompute column statistics once this fraction of the analyzed rows has
#: been touched by DML (or at least ``_STALE_FLOOR`` rows, so tiny tables
#: do not re-analyze on every insert).
STALE_FRACTION = 0.2
_STALE_FLOOR = 64

#: Fixed storage width per scalar type; TEXT widths are measured.
_FIXED_WIDTHS = {
    DataType.INTEGER: 8,
    DataType.FLOAT: 8,
    DataType.BOOLEAN: 1,
    DataType.TIMESTAMP: 8,
}
_DEFAULT_WIDTH = 8
_NULL_WIDTH = 1
_TEXT_OVERHEAD = 4


@dataclass(frozen=True)
class ColumnStats:
    """Statistics for one column, from the most recent analyze pass."""

    name: str
    dtype: DataType
    ndv: int  #: estimated number of distinct non-NULL values
    null_fraction: float  #: fraction of rows that are NULL
    minimum: Any = None  #: smallest non-NULL value seen (orderable types)
    maximum: Any = None
    avg_width: float = _DEFAULT_WIDTH  #: average stored bytes per value


@dataclass
class TableStats:
    """Statistics for one table.

    ``row_count`` is refreshed from the live table on every
    :meth:`StatisticsCatalog.table_stats` call; the per-column entries are
    as of the last analyze (``analyzed_rows`` rows, engine write version
    ``analyzed_version``).
    """

    table: str
    row_count: int
    columns: dict[str, ColumnStats] = field(default_factory=dict)
    analyzed_rows: int = 0
    analyzed_version: int = 0

    @property
    def avg_row_width(self) -> float:
        """Average bytes per row (sum of per-column average widths)."""
        if not self.columns:
            return _DEFAULT_WIDTH
        return sum(c.avg_width for c in self.columns.values())

    @property
    def estimated_bytes(self) -> int:
        """The optimizer's size unit: live row count times average width."""
        return int(self.row_count * self.avg_row_width)

    def column(self, name: str) -> ColumnStats | None:
        """Look up one column's statistics by (possibly qualified) name."""
        key = name.lower().split(".")[-1]
        return self.columns.get(key)


class StatisticsCatalog:
    """Per-engine statistics store with lazy analyze and cheap upkeep.

    The engine calls :meth:`note_mutation` from its DML paths and
    :meth:`invalidate` when a table is created, replaced or dropped;
    everything else happens on demand inside :meth:`table_stats`.
    Mutations that bypass the engine facade (e.g. transaction rollback
    restoring rows directly) are tolerated: counters drift slightly, but
    row counts are always read live and the drift only delays a
    re-analyze, never corrupts an estimate.
    """

    def __init__(self, engine: "RelationalEngine") -> None:
        self._engine = engine
        self._stats: dict[str, TableStats] = {}
        self._mutations: dict[str, int] = {}

    # ------------------------------------------------------------------ upkeep
    def note_mutation(self, table: str, rows_touched: int = 1) -> None:
        """Record that DML touched ``rows_touched`` rows (cheap counter)."""
        key = table.lower()
        self._mutations[key] = self._mutations.get(key, 0) + max(1, rows_touched)

    def invalidate(self, table: str | None = None) -> None:
        """Drop cached statistics for one table (or all of them)."""
        if table is None:
            self._stats.clear()
            self._mutations.clear()
            return
        key = table.lower()
        self._stats.pop(key, None)
        self._mutations.pop(key, None)

    # ------------------------------------------------------------------ access
    def table_stats(self, table: str) -> TableStats | None:
        """Statistics for ``table``, analyzing lazily when stale or missing.

        Returns ``None`` when the table does not exist (planning against a
        missing table surfaces its own error downstream).
        """
        key = table.lower()
        try:
            heap = self._engine.table(table)
        except Exception:  # noqa: BLE001 - statistics are best-effort
            return None
        cached = self._stats.get(key)
        if cached is not None and not self._is_stale(key, cached, heap.row_count):
            cached.row_count = heap.row_count  # cheap counter: always live
            return cached
        return self.analyze(table)

    def _is_stale(self, key: str, cached: TableStats, live_rows: int) -> bool:
        threshold = max(_STALE_FLOOR, int(cached.analyzed_rows * STALE_FRACTION))
        if self._mutations.get(key, 0) > threshold:
            return True
        return abs(live_rows - cached.analyzed_rows) > threshold

    def analyze(self, table: str) -> TableStats:
        """Read (a bounded sample of) the table's columns and rebuild its
        statistics."""
        snapshot = self._engine.table(table).column_snapshot()
        total = len(snapshot)
        # Ceiling division keeps the sample at or under the cap (floor would
        # let a 39,999-row table scan every row with stride 1).
        stride = max(1, -(-total // ANALYZE_SAMPLE_ROWS))
        columns: dict[str, ColumnStats] = {}
        for c, column in enumerate(snapshot.schema.columns):
            sample = to_list(snapshot.column(c)[::stride])
            sampled = len(sample)
            present = [value for value in sample if value is not None]
            nulls = sampled - len(present)
            ndv = len(set(present))
            try:
                minimum, maximum = min(present), max(present)
            except (TypeError, ValueError):  # unorderable values, or none: no bounds
                minimum = maximum = None
            if sampled and sampled < total:
                # Scale the sampled NDV back up: a column that is unique in
                # the sample is assumed unique overall; otherwise the
                # distinct set is assumed to be fully seen (dimension-like).
                if present and ndv >= 0.9 * len(present):
                    ndv = max(ndv, int(total * (1.0 - nulls / sampled)))
            avg_width = float(_FIXED_WIDTHS.get(column.dtype, _DEFAULT_WIDTH))
            if column.dtype is DataType.TEXT:
                avg_width = (
                    sum(map(len, present)) / len(present) + _TEXT_OVERHEAD
                    if present else _NULL_WIDTH
                )
            if sampled and nulls:
                null_fraction = nulls / sampled
                avg_width = avg_width * (1 - null_fraction) + _NULL_WIDTH * null_fraction
            else:
                null_fraction = 0.0
            columns[column.name.lower()] = ColumnStats(
                name=column.name,
                dtype=column.dtype,
                ndv=ndv,
                null_fraction=null_fraction,
                minimum=minimum,
                maximum=maximum,
                avg_width=avg_width,
            )
        stats = TableStats(
            table=table,
            row_count=total,
            columns=columns,
            analyzed_rows=total,
            analyzed_version=getattr(self._engine, "write_version", 0),
        )
        key = table.lower()
        self._stats[key] = stats
        self._mutations[key] = 0
        return stats
