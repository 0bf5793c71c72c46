"""Statistics-driven plan optimization: projection pushdown and cost choices.

This pass runs over the logical plan the :class:`~repro.engines.relational.
planner.Planner` produced, reading the statistics layer
(:mod:`repro.engines.relational.statistics`) to make three decisions the
rule-based planner cannot:

* **Projection pushdown.**  The referenced-column set is computed top-down
  and :class:`~repro.engines.relational.planner.PruneNode` operators are
  inserted below joins and aggregates, so the batched hash join gathers
  (and the group-by carries) only the columns the query actually reads.
  Pushdown stops at the same outer-join boundaries as WHERE pushdown: only
  the side a WHERE conjunct may move below (the preserved side) may be
  narrowed, so null-padded semantics are never disturbed.
* **Build-side selection by bytes.**  An inner hash join builds on the side
  with the smaller *estimated byte volume* (rows x average row width after
  pruning), not the smaller row count — a 400-row table of wide TEXT
  columns loses to a 5000-row table of two ints.
* **Selectivity-ordered conjuncts.**  Multi-conjunct scan filters are
  reordered most-selective-first using NDV/min-max estimates, but only
  when every conjunct is side-effect-free (no division, no scalar
  functions), so error and short-circuit semantics are untouched.

The pass never changes results — only shapes and costs — which the
mode-parity grid in ``tests/test_statistics_optimizer.py`` asserts.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.expressions import (
    BinaryOp,
    ColumnRef,
    Expression,
    InList,
    IsNull,
    Literal,
    UnaryOp,
    conjunction,
    split_conjuncts,
)
from repro.common.types import DataType
from repro.engines.relational.planner import (
    AggregateNode,
    FilterNode,
    IndexScanNode,
    JoinNode,
    LimitNode,
    LogicalPlan,
    Planner,
    ProjectNode,
    PruneNode,
    ScanNode,
    SortNode,
    SubqueryNode,
    TableStatisticsProvider,
)

#: Binary operators that can never raise regardless of operand types
#: (``==``/``!=`` return False on mismatches, LIKE str-coerces, AND/OR
#: work on truthiness).  Order comparisons (``<`` etc.) and unary minus
#: CAN raise ``TypeError`` across type families, so they are only safe
#: when every operand is provably in one comparable family.
_ALWAYS_SAFE_BINARY_OPS = {"=", "==", "!=", "<>", "like", "and", "or"}
_ORDERED_BINARY_OPS = {"<", "<=", ">", ">="}

#: Type families whose members are mutually comparable without raising.
_NUMERIC_FAMILY = "numeric"
_TEXT_FAMILY = "text"
_TIMESTAMP_FAMILY = "timestamp"
_DTYPE_FAMILIES = {
    DataType.INTEGER: _NUMERIC_FAMILY,
    DataType.FLOAT: _NUMERIC_FAMILY,
    DataType.BOOLEAN: _NUMERIC_FAMILY,
    DataType.TEXT: _TEXT_FAMILY,
    DataType.TIMESTAMP: _TIMESTAMP_FAMILY,
}

_DEFAULT_SELECTIVITY = 0.5
_RANGE_SELECTIVITY = 1 / 3
_LIKE_SELECTIVITY = 0.25


@dataclass
class OptimizationResult:
    """The optimized plan plus what the pass did (for metrics and EXPLAIN)."""

    plan: LogicalPlan
    columns_pruned: int = 0
    tables: list[str] = field(default_factory=list)


def referenced_refs(expr: Expression | None) -> set[str]:
    return set() if expr is None else expr.referenced_columns()


def select_referenced(columns: list[str], refs: set[str]) -> list[str]:
    """The subset of ``columns`` any reference in ``refs`` resolves to.

    Mirrors :meth:`repro.common.schema.Schema.index_of`: an exact
    (case-insensitive) name match wins; otherwise a bare/qualified suffix
    match applies — and when a bare reference is ambiguous, every match is
    kept so the runtime's ambiguity error still fires.
    """
    lowered = [c.lower() for c in columns]
    exact = set(lowered)
    keep: set[str] = set()
    for ref in refs:
        r = ref.lower()
        if r in exact:
            keep.add(r)
            continue
        suffix = r.split(".")[-1]
        keep.update(c for c in lowered if c.split(".")[-1] == suffix)
    return [c for c, lc in zip(columns, lowered) if lc in keep]


def plan_column_names(
    node: LogicalPlan, statistics: TableStatisticsProvider
) -> list[str] | None:
    """Plan-time output column names of a node (None when unknowable).

    Benchmarks and tests use this to report how many columns a join
    actually gathers with and without projection pushdown.
    """
    return Optimizer(statistics)._node_columns(node)


class Optimizer:
    """One-shot optimization pass over a logical plan (not thread-shared)."""

    def __init__(self, statistics: TableStatisticsProvider) -> None:
        self._stats = statistics
        self._pruned = 0
        self._tables: list[str] = []

    # ------------------------------------------------------------------ public
    def optimize(self, plan: LogicalPlan) -> OptimizationResult:
        self._pruned = 0
        self._tables = []
        plan = self._optimize(plan, None)
        return OptimizationResult(plan, self._pruned, list(self._tables))

    # -------------------------------------------------------------- recursion
    def _optimize(self, node: LogicalPlan, required: set[str] | None) -> LogicalPlan:
        """Rewrite ``node``; ``required`` is the set of column references the
        operators above it read (``None`` means all columns, e.g. ``*``)."""
        if isinstance(node, ProjectNode):
            child_required: set[str] | None = None
            if not any(item.star for item in node.items):
                child_required = set()
                for item in node.items:
                    child_required |= referenced_refs(item.expression)
            node.child = self._optimize(node.child, child_required)
            return node
        if isinstance(node, AggregateNode):
            if any(item.star for item in node.items):
                child_required = None
            else:
                child_required = set()
                for expr in node.group_by:
                    child_required |= referenced_refs(expr)
                for item in node.items:
                    child_required |= referenced_refs(item.expression)
                # HAVING-only aggregates are computed from synthesized items;
                # their inputs must survive pruning like any SELECT aggregate.
                for item in getattr(node, "having_items", []):
                    child_required |= referenced_refs(item.expression)
                # HAVING references aggregate outputs by canonical name
                # ("count(*)"); those match no child column and fall away,
                # while plain grouped-column references are kept.
                child_required |= referenced_refs(node.having)
            node.child = self._narrow(node.child, child_required)
            return node
        if isinstance(node, SortNode):
            refs = None if required is None else set(required)
            if refs is not None:
                for item in node.order_by:
                    refs |= referenced_refs(item.expression)
            node.child = self._optimize(node.child, refs)
            return node
        if isinstance(node, FilterNode):
            refs = (
                None
                if required is None
                else set(required) | referenced_refs(node.predicate)
            )
            node.child = self._optimize(node.child, refs)
            return node
        if isinstance(node, LimitNode):
            node.child = self._optimize(node.child, required)
            return node
        if isinstance(node, JoinNode):
            return self._optimize_join(node, required)
        if isinstance(node, SubqueryNode):
            self._narrow_subquery(node, required)
            # After (possibly) shrinking the derived table's SELECT list its
            # interior optimizes as an independent root, so the narrowed
            # projection propagates pushdown below it.
            node.plan = self._optimize(node.plan, None)
            return node
        if isinstance(node, PruneNode):  # pragma: no cover - defensive
            node.child = self._optimize(node.child, set(node.columns))
            return node
        if isinstance(node, ScanNode):
            self._note_table(node.table)
            if node.predicate is not None:
                node.predicate = self._order_conjuncts(node.table, node.predicate)
            return node
        if isinstance(node, IndexScanNode):
            self._note_table(node.table)
            return node
        return node

    def _optimize_join(self, node: JoinNode, required: set[str] | None) -> JoinNode:
        refs = None
        if required is not None:
            refs = set(required) | referenced_refs(node.condition)
        # Projection pushdown stops at the same outer-join boundary as WHERE
        # pushdown: only the preserved side(s) may be narrowed.
        if node.join_type in ("inner", "cross", "left"):
            node.left = self._narrow(node.left, refs)
        else:
            node.left = self._optimize(node.left, None)
        if node.join_type in ("inner", "cross", "right"):
            node.right = self._narrow(node.right, refs)
        else:
            node.right = self._optimize(node.right, None)
        self._choose_build_side(node)
        return node

    def _narrow(self, child: LogicalPlan, refs: set[str] | None) -> LogicalPlan:
        """Optimize ``child`` and, when ``refs`` shows unused columns, cap it
        with a :class:`PruneNode` keeping only the referenced ones."""
        child = self._optimize(child, refs)
        if refs is None:
            return child
        columns = self._node_columns(child)
        if columns is None:
            return child
        keep = select_referenced(columns, refs)
        if not keep:
            # A join or COUNT(*) input must still carry at least one column
            # (batches infer their length from the first column).
            keep = columns[:1]
        if len(keep) >= len(columns):
            return child
        kept = set(keep)
        dropped = [c for c in columns if c not in kept]
        self._pruned += len(dropped)
        return PruneNode(columns=keep, pruned=dropped, child=child)

    def _narrow_subquery(self, node: SubqueryNode, required: set[str] | None) -> None:
        """Drop unreferenced items from a derived table's terminal SELECT list.

        Safe only for a plain projection: DISTINCT compares whole output
        rows, ``*`` output is unknowable at plan time, and duplicate output
        names would renumber dedup suffixes — all three disable the rewrite.
        ORDER BY wrappers above the projection may reference items the outer
        query never reads, so their references are kept as well.
        """
        if required is None:
            return
        inner = node.plan
        sort_refs: set[str] = set()
        while isinstance(inner, (LimitNode, SortNode)):
            if isinstance(inner, SortNode):
                for order in inner.order_by:
                    sort_refs |= referenced_refs(order.expression)
            inner = inner.child
        if not isinstance(inner, ProjectNode) or inner.distinct:
            return
        if any(item.star for item in inner.items):
            return
        names = [item.output_name for item in inner.items]
        if len({n.lower() for n in names}) != len(names):
            return
        qualified = [f"{node.alias}.{n}" for n in names]
        keep = {c.lower() for c in select_referenced(qualified, required)}
        keep |= {
            f"{node.alias}.{c}".lower()
            for c in select_referenced(names, sort_refs)
        }
        kept_items = [
            item for item, q in zip(inner.items, qualified) if q.lower() in keep
        ]
        if not kept_items:
            kept_items = inner.items[:1]
        if len(kept_items) >= len(inner.items):
            return
        self._pruned += len(inner.items) - len(kept_items)
        inner.items = kept_items

    # ------------------------------------------------------- plan-side schemas
    def _node_columns(self, node: LogicalPlan) -> list[str] | None:
        """Output column names of a plan node, or None when unknowable at
        plan time (which disables pruning around that node)."""
        if isinstance(node, (ScanNode, IndexScanNode)):
            if getattr(node, "table", None) == "__dual__":
                return None
            try:
                columns = self._stats.table_schema(node.table).names
            except Exception:  # noqa: BLE001 - missing table errors at run time
                return None
            if any("." in c for c in columns):
                return list(columns)
            alias = node.alias or node.table
            return [f"{alias}.{c}" for c in columns]
        if isinstance(node, PruneNode):
            return list(node.columns)
        if isinstance(node, JoinNode):
            left = self._node_columns(node.left)
            right = self._node_columns(node.right)
            if left is None or right is None:
                return None
            return left + right
        if isinstance(node, (FilterNode, SortNode, LimitNode)):
            return self._node_columns(node.child)
        if isinstance(node, SubqueryNode):
            inner = self._node_columns(node.plan)
            if inner is None:
                return None
            if any("." in c for c in inner):
                return inner
            return [f"{node.alias}.{c}" for c in inner]
        if isinstance(node, ProjectNode):
            out: list[str] = []
            for item in node.items:
                if item.star:
                    child = self._node_columns(node.child)
                    if child is None:
                        return None
                    out.extend(child)
                else:
                    out.append(item.output_name)
            return out
        if isinstance(node, AggregateNode):
            return [item.output_name for item in node.items]
        return None

    def _note_table(self, table: str) -> None:
        if table != "__dual__" and table.lower() not in {t.lower() for t in self._tables}:
            self._tables.append(table)

    # ------------------------------------------------------------- build side
    def _choose_build_side(self, node: JoinNode) -> None:
        """Re-pick an inner hash join's build side from estimated bytes.

        Outer joins keep the planner's pinned ``build_side="right"`` (the
        probe must stay left-major); when either side has no statistics the
        planner's row-count hint stands.
        """
        if node.strategy != "hash" or node.join_type != "inner":
            return
        left_bytes = self._estimate_bytes(node.left)
        right_bytes = self._estimate_bytes(node.right)
        if left_bytes is None or right_bytes is None:
            return
        node.build_side = "right" if right_bytes < left_bytes else "left"

    def _estimate_rows(self, node: LogicalPlan) -> int:
        if isinstance(node, ScanNode):
            stats = self._stats.table_stats(node.table)
            if stats is None:
                try:
                    count = self._stats.table_row_count(node.table)
                except Exception:  # noqa: BLE001
                    return 1000
            else:
                count = stats.row_count
            return max(1, count // 3) if node.predicate is not None else count
        if isinstance(node, IndexScanNode):
            return 10
        if isinstance(node, JoinNode):
            return self._estimate_rows(node.left) * max(
                1, self._estimate_rows(node.right) // 10
            )
        children = node.children()
        if children:
            return self._estimate_rows(children[0])
        return 1000

    def _estimate_bytes(self, node: LogicalPlan) -> int | None:
        widths = self._column_widths(node)
        if widths is None:
            return None
        return int(self._estimate_rows(node) * sum(widths.values()))

    def _column_widths(self, node: LogicalPlan) -> dict[str, float] | None:
        """Per-output-column average byte widths, or None without statistics."""
        if isinstance(node, (ScanNode, IndexScanNode)):
            stats = self._stats.table_stats(node.table)
            if stats is None:
                return None
            alias = (node.alias or node.table).lower()
            return {
                f"{alias}.{name}": column.avg_width
                for name, column in stats.columns.items()
            }
        if isinstance(node, PruneNode):
            child = self._column_widths(node.child)
            if child is None:
                return None
            out: dict[str, float] = {}
            for name in node.columns:
                key = name.lower()
                out[key] = child.get(key, 8.0)
            return out
        if isinstance(node, JoinNode):
            left = self._column_widths(node.left)
            right = self._column_widths(node.right)
            if left is None or right is None:
                return None
            return {**left, **right}
        if isinstance(node, (FilterNode, SortNode, LimitNode)):
            return self._column_widths(node.child)
        return None

    # ---------------------------------------------------- conjunct reordering
    def _order_conjuncts(self, table: str, predicate: Expression) -> Expression:
        conjuncts = split_conjuncts(predicate)
        if len(conjuncts) < 2:
            return predicate
        stats = self._stats.table_stats(table)
        if stats is None:
            return predicate
        if not all(self._reorder_safe(c, stats) for c in conjuncts):
            return predicate
        ranked = sorted(
            enumerate(conjuncts),
            key=lambda pair: (self._selectivity(pair[1], stats), pair[0]),
        )
        reordered = [conjunct for _i, conjunct in ranked]
        if reordered == conjuncts:
            return predicate
        result = conjunction(reordered)
        assert result is not None
        return result

    @staticmethod
    def _reorder_safe(expr: Expression, stats) -> bool:
        """Whether evaluating ``expr`` can never raise (so conjuncts around
        it may be reordered without changing error semantics).

        Equality/LIKE/NOT/IS NULL/IN never raise.  Order comparisons and
        unary minus raise ``TypeError`` across type families (``'a' < 5``),
        so they are only safe when every operand provably belongs to one
        comparable family (column dtypes from statistics, literal Python
        types); division and scalar functions are never safe.
        """
        if isinstance(expr, (Literal, ColumnRef)):
            return True
        if isinstance(expr, BinaryOp):
            op = expr.op.lower()
            if op in _ORDERED_BINARY_OPS:
                return Optimizer._one_comparable_family(
                    (expr.left, expr.right), stats
                )
            return (
                op in _ALWAYS_SAFE_BINARY_OPS
                and Optimizer._reorder_safe(expr.left, stats)
                and Optimizer._reorder_safe(expr.right, stats)
            )
        if isinstance(expr, UnaryOp):
            op = expr.op.lower()
            if op == "not":
                return Optimizer._reorder_safe(expr.operand, stats)
            if op == "-":
                return (
                    Optimizer._operand_family(expr.operand, stats)
                    == _NUMERIC_FAMILY
                )
            return False
        if isinstance(expr, (IsNull, InList)):
            return Optimizer._reorder_safe(expr.operand, stats)
        return False

    @staticmethod
    def _operand_family(expr: Expression, stats) -> str | None:
        """The comparable type family of a literal or column, else None."""
        if isinstance(expr, Literal):
            if isinstance(expr.value, (bool, int, float)):
                return _NUMERIC_FAMILY
            if isinstance(expr.value, str):
                return _TEXT_FAMILY
            return None  # NULL and exotic literals: assume nothing
        if isinstance(expr, ColumnRef):
            cs = stats.column(expr.name)
            if cs is None:
                return None
            return _DTYPE_FAMILIES.get(cs.dtype)
        return None

    @staticmethod
    def _one_comparable_family(operands, stats) -> bool:
        families = {Optimizer._operand_family(o, stats) for o in operands}
        return None not in families and len(families) == 1

    def _selectivity(self, conjunct: Expression, stats) -> float:
        """Estimated fraction of rows the conjunct keeps (lower = run first)."""
        simple = Planner._simple_comparison(conjunct)
        if simple is not None:
            column, op, value = simple
            cs = stats.column(column)
            if cs is None:
                return _DEFAULT_SELECTIVITY
            if op in ("=", "=="):
                return min(1.0, 1.0 / max(cs.ndv, 1))
            if op in ("!=", "<>"):
                return 1.0 - min(1.0, 1.0 / max(cs.ndv, 1))
            fraction = self._range_fraction(cs, value)
            if fraction is None:
                return _RANGE_SELECTIVITY
            if op in ("<", "<="):
                return fraction
            return 1.0 - fraction
        if isinstance(conjunct, IsNull) and isinstance(conjunct.operand, ColumnRef):
            cs = stats.column(conjunct.operand.name)
            if cs is None:
                return _DEFAULT_SELECTIVITY
            return (1.0 - cs.null_fraction) if conjunct.negated else cs.null_fraction
        if isinstance(conjunct, InList) and isinstance(conjunct.operand, ColumnRef):
            cs = stats.column(conjunct.operand.name)
            if cs is None:
                return _DEFAULT_SELECTIVITY
            fraction = min(1.0, len(conjunct.values) / max(cs.ndv, 1))
            return (1.0 - fraction) if conjunct.negated else fraction
        if isinstance(conjunct, BinaryOp) and conjunct.op.lower() == "like":
            return _LIKE_SELECTIVITY
        return _DEFAULT_SELECTIVITY

    @staticmethod
    def _range_fraction(cs, value) -> float | None:
        """Position of ``value`` inside the column's [min, max], or None."""
        low, high = cs.minimum, cs.maximum
        if low is None or high is None:
            return None
        try:
            span = high - low
            if span <= 0:
                return None
            fraction = (value - low) / span
        except TypeError:
            return None
        return min(1.0, max(0.0, float(fraction)))
