"""The D4M island: associative-array queries over the federation.

D4M offers "a new data model, associative arrays, as an access mechanism for
existing data stores … it contains shims to Accumulo, SciDB and Postgres"
(Section 2.1.1).  The island fetches any object as an
:class:`~repro.d4m.associative_array.AssociativeArray` through the associative
shim and exposes the D4M algebra (subsetting, filtering, linear algebra) plus
a small textual query form used by SCOPE'd cross-island queries::

    ASSOC notes ROWS patient_001,patient_002            -- subset rows
    ASSOC vitals COLS heart_rate* FILTER > 100          -- subset columns, filter values
    ASSOC prescriptions DEGREE ROWS                     -- per-row non-zero counts
"""

from __future__ import annotations

import re

from repro.common.schema import Column, Relation, Schema
from repro.common.types import DataType, infer_type
from repro.core.islands.base import IslandStatement, PatternIsland
from repro.core.shims import AssociativeShim
from repro.d4m.associative_array import AssociativeArray


_ASSOC_RE = re.compile(
    r"^\s*assoc\s+([A-Za-z_][A-Za-z0-9_]*)"
    r"(?:\s+rows\s+(\S+))?"
    r"(?:\s+cols\s+(\S+))?"
    r"(?:\s+filter\s+(<=|>=|<|>|=)\s*(-?[0-9.]+))?"
    r"(?:\s+(degree)\s+(rows|cols))?\s*$",
    re.IGNORECASE,
)


class D4MIsland(PatternIsland):
    """Associative arrays over every shimmed engine."""

    name = "d4m"
    pattern = _ASSOC_RE

    # ------------------------------------------------------------ programmatic
    def fetch(self, object_name: str) -> AssociativeArray:
        """Fetch any catalogued object as an associative array."""
        self.queries_executed += 1
        engine = self.engine_for_object(object_name)
        return AssociativeShim(engine).fetch_associative(object_name)

    # ----------------------------------------------------------------- textual
    def execute(self, query: str | IslandStatement) -> Relation:
        self.queries_executed += 1
        match = self.statement(query).parsed
        object_name, rows, cols, op, literal, degree, degree_axis = match.groups()
        engine = self.engine_for_object(object_name)
        assoc = AssociativeShim(engine).fetch_associative(object_name)
        if rows:
            assoc = assoc.subset_rows(rows.split(","))
        if cols:
            assoc = assoc.subset_cols(cols.split(","))
        if op:
            threshold = float(literal)
            comparators = {
                "<": lambda v: _numeric_or_none(v) is not None and _numeric_or_none(v) < threshold,
                "<=": lambda v: _numeric_or_none(v) is not None and _numeric_or_none(v) <= threshold,
                ">": lambda v: _numeric_or_none(v) is not None and _numeric_or_none(v) > threshold,
                ">=": lambda v: _numeric_or_none(v) is not None and _numeric_or_none(v) >= threshold,
                "=": lambda v: _numeric_or_none(v) == threshold,
            }
            assoc = assoc.filter_values(comparators[op])
        if degree:
            totals = assoc.sum_rows() if degree_axis.lower() == "rows" else assoc.sum_cols()
            schema = Schema([Column("key", DataType.TEXT), Column("degree", DataType.FLOAT)])
            return Relation(schema, [[key, totals[key]] for key in sorted(totals)])
        return self.to_relation(assoc)

    @staticmethod
    def to_relation(assoc: AssociativeArray) -> Relation:
        """Flatten an associative array to (row, col, value) triples.

        The value column's type is the common type of every stored value; mixed
        numeric/text content degrades to TEXT.
        """
        from repro.common.types import common_type

        value_type: DataType | None = None
        for entry in assoc.entries():
            entry_type = infer_type(entry.value)
            if value_type is None:
                value_type = entry_type
            else:
                try:
                    value_type = common_type(value_type, entry_type)
                except Exception:  # noqa: BLE001 - incompatible types degrade to text
                    value_type = DataType.TEXT
                    break
        if value_type is None:
            value_type = DataType.TEXT
        schema = Schema(
            [Column("row", DataType.TEXT), Column("col", DataType.TEXT), Column("value", value_type)]
        )
        return Relation(schema, [[entry.row, entry.col, entry.value] for entry in assoc.entries()])


def _numeric_or_none(value) -> float | None:
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value)
    try:
        return float(value)
    except (TypeError, ValueError):
        return None
