"""The reference execution of logical plans (volcano style, row at a time).

A test reference, not a production path: ``RelationalEngine`` never runs
it.  The parity suites run it beside the batch pipeline
(:mod:`repro.engines.relational.vectorized`) and require byte-identical
results (``conftest.py::reference_execute``), which is why it favours
obviousness over speed: each ``_execute_*`` method consumes its children's
fully materialized relations, builds one ``Row`` per tuple and tree-walks
``Expression.evaluate`` per row.  Both take their naming and join-key rules
from :mod:`repro.engines.relational.schemas`.  It reads tables through
the same ``scan_values`` the engine's storage serves; the independent
check of that storage is ``test_sql_oracle.py``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.common.errors import ExecutionError
from repro.common.expressions import ColumnRef, Expression, evaluate_predicate
from repro.common.schema import Column, Relation, Row, Schema
from repro.common.types import DataType, infer_type
from repro.engines.relational.functions import make_aggregate
from repro.engines.relational.planner import (
    AggregateNode,
    FilterNode,
    IndexScanNode,
    JoinNode,
    LimitNode,
    LogicalPlan,
    ProjectNode,
    PruneNode,
    ScanNode,
    SortNode,
    SubqueryNode,
)
from repro.engines.relational.schemas import (
    DUAL_SCHEMA,
    aggregate_type,
    dedupe,
    having_input_schema,
    qualified_schema,
    split_join_condition,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.engines.relational.engine import RelationalEngine


class Executor:
    """Executes logical plans against a :class:`RelationalEngine`'s storage."""

    def __init__(self, engine: "RelationalEngine") -> None:
        self._engine = engine

    def execute(self, plan: LogicalPlan) -> Relation:
        if isinstance(plan, ScanNode):
            return self._execute_scan(plan)
        if isinstance(plan, IndexScanNode):
            return self._execute_index_scan(plan)
        if isinstance(plan, SubqueryNode):
            return self._execute_subquery(plan)
        if isinstance(plan, FilterNode):
            return self._execute_filter(plan)
        if isinstance(plan, JoinNode):
            return self._execute_join(plan)
        if isinstance(plan, AggregateNode):
            return self._execute_aggregate(plan)
        if isinstance(plan, ProjectNode):
            return self._execute_project(plan)
        if isinstance(plan, PruneNode):
            return self._execute_prune(plan)
        if isinstance(plan, SortNode):
            return self._execute_sort(plan)
        if isinstance(plan, LimitNode):
            return self._execute_limit(plan)
        raise ExecutionError(f"unknown plan node: {type(plan).__name__}")

    # ------------------------------------------------------------------ scans
    def _execute_scan(self, node: ScanNode) -> Relation:
        if node.table == "__dual__":
            return Relation(DUAL_SCHEMA, [[0]])
        table = self._engine.table(node.table)
        schema = qualified_schema(table.schema, node.alias or node.table)
        rows = (Row(schema, values) for values in table.scan_values())
        if node.predicate is None:
            return Relation(schema, rows)
        return Relation(schema, [row for row in rows if evaluate_predicate(node.predicate, row)])

    def _execute_index_scan(self, node: IndexScanNode) -> Relation:
        table = self._engine.table(node.table)
        schema = qualified_schema(table.schema, node.alias or node.table)
        rows = (Row(schema, values) for _row_id, values in node.candidates(table))
        return Relation(schema, [
            row for row in rows
            if node.residual is None or evaluate_predicate(node.residual, row)
        ])

    def _execute_subquery(self, node: SubqueryNode) -> Relation:
        inner = self.execute(node.plan)
        return Relation(qualified_schema(inner.schema, node.alias), inner.rows)

    # ---------------------------------------------------------------- operators
    def _execute_filter(self, node: FilterNode) -> Relation:
        child = self.execute(node.child)
        return Relation(child.schema, [row for row in child if evaluate_predicate(node.predicate, row)])

    def _execute_join(self, node: JoinNode) -> Relation:
        left = self.execute(node.left)
        right = self.execute(node.right)
        joined_schema = left.schema.concat(right.schema)
        if node.strategy == "hash" and node.condition is not None:
            keys = self._equi_join_keys(node.condition, left.schema, right.schema)
            if keys:
                return self._hash_join(node, left, right, joined_schema, keys)
        # Nested loop (cross joins and non-equi conditions, all join types).
        out: list[Row] = []
        track_right = node.join_type in ("right", "full")
        right_matched = [False] * len(right) if track_right else None
        for left_row in left:
            matched = False
            for r_index, right_row in enumerate(right.rows):
                candidate = Row(joined_schema, left_row.values + right_row.values)
                if node.condition is None or evaluate_predicate(node.condition, candidate):
                    out.append(candidate)
                    matched = True
                    if right_matched is not None:
                        right_matched[r_index] = True
            if node.join_type in ("left", "full") and not matched:
                padding = tuple([None] * len(right.schema))
                out.append(Row(joined_schema, left_row.values + padding))
        if right_matched is not None:
            padding = tuple([None] * len(left.schema))
            for r_index, right_row in enumerate(right.rows):
                if not right_matched[r_index]:
                    out.append(Row(joined_schema, padding + right_row.values))
        return Relation(joined_schema, out)

    def _hash_join(
        self,
        node: JoinNode,
        left: Relation,
        right: Relation,
        joined_schema: Schema,
        keys: list[tuple[str, str]],
    ) -> Relation:
        out: list[Row] = []
        left_cols = [pair[0] for pair in keys]
        right_cols = [pair[1] for pair in keys]
        # Honor the planner's build-side hint; outer joins always build on
        # the right so the probe (and therefore the output) stays left-major.
        build_on_left = node.join_type == "inner" and node.build_side != "right"
        if build_on_left:
            build_rel, build_cols = left, left_cols
            probe_rel, probe_cols = right, right_cols
        else:
            build_rel, build_cols = right, right_cols
            probe_rel, probe_cols = left, left_cols
        build: dict[tuple, list[tuple[int, Row]]] = {}
        for index, row in enumerate(build_rel.rows):
            key = tuple(row[c] for c in build_cols)
            build.setdefault(key, []).append((index, row))
        track_build = node.join_type in ("right", "full")
        build_matched = [False] * len(build_rel) if track_build else None
        pad_probe = node.join_type in ("left", "full")
        build_padding = tuple([None] * len(build_rel.schema))
        for probe_row in probe_rel:
            key = tuple(probe_row[c] for c in probe_cols)
            matched = False
            for index, build_row in build.get(key, ()):
                if build_on_left:
                    values = build_row.values + probe_row.values
                else:
                    values = probe_row.values + build_row.values
                candidate = Row(joined_schema, values)
                if node.condition is None or evaluate_predicate(node.condition, candidate):
                    out.append(candidate)
                    matched = True
                    if build_matched is not None:
                        build_matched[index] = True
            if pad_probe and not matched:
                out.append(Row(joined_schema, probe_row.values + build_padding))
        if build_matched is not None:
            probe_padding = tuple([None] * len(probe_rel.schema))
            for index, build_row in enumerate(build_rel.rows):
                if not build_matched[index]:
                    out.append(Row(joined_schema, probe_padding + build_row.values))
        return Relation(joined_schema, out)

    @staticmethod
    def _equi_join_keys(
        condition: Expression, left_schema: Schema, right_schema: Schema
    ) -> list[tuple[str, str]]:
        """Extract (left column, right column) pairs from equality conjuncts."""
        keys, _residual = split_join_condition(condition, left_schema, right_schema)
        return keys

    def _execute_prune(self, node: PruneNode) -> Relation:
        """Optimizer-inserted narrowing: keep only the named columns."""
        child = self.execute(node.child)
        indices = [child.schema.index_of(name) for name in node.columns]
        schema = child.schema.project(node.columns)
        return Relation(schema, [
            Row(schema, tuple(row.values[i] for i in indices)) for row in child.rows
        ])

    def _execute_project(self, node: ProjectNode) -> Relation:
        child = self.execute(node.child)
        columns: list[Column] = []
        for item in node.items:
            if item.star:
                columns.extend(child.schema.columns)
            else:
                dtype = self._expression_type(item.expression, child)
                columns.append(Column(item.output_name, dtype))
        schema = Schema(dedupe(columns))
        out: list[Row] = []
        seen: set[tuple] = set()
        for row in child:
            values: list[Any] = []
            for item in node.items:
                if item.star:
                    values.extend(row.values)
                else:
                    values.append(item.expression.evaluate(row))
            candidate = tuple(values)
            if node.distinct:
                if candidate in seen:
                    continue
                seen.add(candidate)
            out.append(Row(schema, candidate))
        return Relation(schema, out)

    def _execute_aggregate(self, node: AggregateNode) -> Relation:
        child = self.execute(node.child)
        group_exprs = node.group_by
        groups: dict[tuple, dict[int, Any]] = {}
        group_rows: dict[tuple, Row] = {}
        having_items = getattr(node, "having_items", [])
        agg_items = [(i, item) for i, item in enumerate(node.items) if item.aggregate]
        agg_items += [
            (len(node.items) + j, item) for j, item in enumerate(having_items)
        ]
        for row in child:
            key = tuple(expr.evaluate(row) for expr in group_exprs)
            if key not in groups:
                groups[key] = {
                    i: make_aggregate(
                        item.aggregate,
                        count_star=(item.expression is None),
                        distinct=item.distinct,
                    )
                    for i, item in agg_items
                }
                group_rows[key] = row
            for i, item in agg_items:
                value = 1 if item.expression is None else item.expression.evaluate(row)
                groups[key][i].add(value)
        # A global aggregate over zero rows still yields one output row.
        if not groups and not group_exprs:
            groups[()] = {
                i: make_aggregate(
                    item.aggregate,
                    count_star=(item.expression is None),
                    distinct=item.distinct,
                )
                for i, item in agg_items
            }
            group_rows[()] = None  # type: ignore[assignment]

        columns = []
        for item in node.items:
            if item.aggregate:
                argument = self._expression_type(item.expression, child)
                columns.append(Column(item.output_name, aggregate_type(item.aggregate, argument)))
            else:
                dtype = self._expression_type(item.expression, child)
                columns.append(Column(item.output_name, dtype))
        schema = Schema(dedupe(columns))
        having_schema = having_input_schema(
            schema, node.items, having_items, lambda e: self._expression_type(e, child)
        )
        out: list[Row] = []
        for key, accumulators in groups.items():
            values: list[Any] = []
            representative = group_rows[key]
            for i, item in enumerate(node.items):
                if item.aggregate:
                    values.append(accumulators[i].result())
                else:
                    if representative is None:
                        values.append(None)
                    else:
                        values.append(item.expression.evaluate(representative))
            out_row = Row(schema, tuple(values))
            if node.having is not None:
                # HAVING may reference aggregate outputs either by alias or by
                # their canonical rendering, e.g. "count(*)"; expose both,
                # then append HAVING-only aggregates (computed but not output).
                having_values = tuple(
                    accumulators[len(node.items) + j].result()
                    for j in range(len(having_items))
                )
                having_row = Row(
                    having_schema, tuple(values) + tuple(values) + having_values
                )
                if not evaluate_predicate(node.having, having_row):
                    continue
            out.append(out_row)
        return Relation(schema, out)

    def _execute_sort(self, node: SortNode) -> Relation:
        child = self.execute(node.child)
        # Python's sort is stable, so apply keys right-to-left for mixed directions.
        rows = list(child.rows)
        for item in reversed(node.order_by):
            def key(row: Row, item=item) -> tuple:
                value = item.expression.evaluate(row)
                return (value is None, value)

            rows.sort(key=key, reverse=item.descending)
        return Relation(child.schema, rows)

    def _execute_limit(self, node: LimitNode) -> Relation:
        child = self.execute(node.child)
        start = node.offset or 0
        end = None if node.limit is None else start + node.limit
        return Relation(child.schema, child.rows[start:end])

    # ------------------------------------------------------------------ helpers
    def _expression_type(self, expression: Expression | None, child: Relation) -> DataType:
        if expression is None:
            return DataType.INTEGER
        if isinstance(expression, ColumnRef) and child.schema.has_column(expression.name):
            return child.schema.column(expression.name).dtype
        if child.rows:
            try:
                return infer_type(expression.evaluate(child.rows[0]))
            except Exception:  # noqa: BLE001 - fall back to float
                return DataType.FLOAT
        return DataType.FLOAT
