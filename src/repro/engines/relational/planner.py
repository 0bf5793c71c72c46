"""Logical planning and a small rule/cost-based optimizer for SELECT queries.

The planner turns a parsed :class:`SelectStatement` into a tree of
:class:`LogicalPlan` nodes.  The optimizer then applies classical rewrites:

* predicate pushdown — WHERE conjuncts that mention only one table's columns
  move below the join into that table's scan;
* index selection — an equality or range conjunct on a single-column index
  turns a sequential scan into an index scan (:meth:`Planner.index_access`,
  which UPDATE and DELETE use too);
* join ordering — the smaller input (by row-count statistic) becomes the hash
  join's build side.

The resulting physical plan is executed by
:mod:`repro.engines.relational.vectorized`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from datetime import datetime
from typing import Any, Callable

from repro.common.errors import PlanningError
from repro.common.expressions import (
    BinaryOp,
    ColumnRef,
    Expression,
    Literal,
    conjunction,
    split_conjuncts,
)
from repro.common.schema import Schema
from repro.common.types import DataType
from repro.engines.relational.sql.ast import SelectStatement, TableRef

#: Canonical rendering of a HAVING-context aggregate reference, e.g.
#: ``count(*)`` or ``sum(v + 1)`` (see the parser's aggregate-in-expression
#: branch, which emits ``ColumnRef(f"{aggregate}({inner_sql})")``).
_HAVING_AGGREGATE_RE = re.compile(r"^(count|sum|avg|min|max|stddev)\((.*)\)$", re.IGNORECASE)

#: Per column type, the literal types a B+tree key of that column orders
#: against (``bool`` is an ``int``); any other literal never picks an index.
_ORDERABLE: dict[DataType, tuple[type, ...]] = {
    DataType.INTEGER: (int, float),
    DataType.FLOAT: (int, float),
    DataType.BOOLEAN: (int, float),
    DataType.TEXT: (str,),
    DataType.TIMESTAMP: (datetime,),
}


@dataclass
class LogicalPlan:
    """Base class of logical plan nodes. Children are plan-specific."""

    def children(self) -> list["LogicalPlan"]:
        return []

    def explain(
        self, depth: int = 0, annotate: "Callable[[LogicalPlan], str] | None" = None
    ) -> str:
        """Return an indented text rendering of the plan (EXPLAIN).

        ``annotate`` optionally maps each node to a trailing marker — the
        engine uses it for ``[spill]`` and the EXPLAIN ANALYZE actuals.
        """
        line = "  " * depth + self.describe()
        if annotate is not None:
            suffix = annotate(self)
            if suffix:
                line = f"{line} {suffix}"
        parts = [line]
        for child in self.children():
            parts.append(child.explain(depth + 1, annotate))
        return "\n".join(parts)

    def describe(self) -> str:
        return type(self).__name__


@dataclass
class ScanNode(LogicalPlan):
    """Sequential scan of a base table (optionally with a residual filter)."""

    table: str
    alias: str | None = None
    predicate: Expression | None = None

    def describe(self) -> str:
        suffix = f" filter={self.predicate.to_sql()}" if self.predicate else ""
        alias = f" as {self.alias}" if self.alias and self.alias != self.table else ""
        return f"SeqScan({self.table}{alias}){suffix}"


@dataclass
class IndexScanNode(LogicalPlan):
    """Index lookup (``equals``) or range scan (``low``/``high``, ``None``
    open) over a single table.  The bound comes from one conjunct of the
    WHERE clause; ``residual`` is the rest of it."""

    table: str
    index_name: str
    column: str
    alias: str | None = None
    equals: Any = None
    low: Any = None
    high: Any = None
    include_low: bool = True
    include_high: bool = True
    residual: Expression | None = None

    def describe(self) -> str:
        if self.equals is not None:
            detail = f"{self.column} = {self.equals!r}"
        else:
            detail = f"{self.column} in [{self.low!r}, {self.high!r}]"
        suffix = f" residual={self.residual.to_sql()}" if self.residual else ""
        return f"IndexScan({self.table} via {self.index_name}: {detail}){suffix}"

    def candidates(self, table: Any) -> list[tuple[int, tuple[Any, ...]]]:
        """The (row_id, values) pairs of ``table`` (a ``HeapTable``) inside
        the index bound, as one list read under the table lock."""
        if self.equals is not None:
            return table.index_lookup(self.index_name, self.equals)
        return table.index_range(
            self.index_name, low=self.low, high=self.high,
            include_low=self.include_low, include_high=self.include_high,
        )


@dataclass
class SubqueryNode(LogicalPlan):
    """A derived table: a nested SELECT planned independently."""

    plan: LogicalPlan
    alias: str

    def children(self) -> list[LogicalPlan]:
        return [self.plan]

    def describe(self) -> str:
        return f"Subquery(as {self.alias})"


@dataclass
class FilterNode(LogicalPlan):
    predicate: Expression
    child: LogicalPlan = None  # type: ignore[assignment]

    def children(self) -> list[LogicalPlan]:
        return [self.child]

    def describe(self) -> str:
        return f"Filter({self.predicate.to_sql()})"


@dataclass
class JoinNode(LogicalPlan):
    left: LogicalPlan
    right: LogicalPlan
    condition: Expression | None
    join_type: str = "inner"  # inner | left | right | full | cross
    strategy: str = "hash"  # hash | nested_loop
    #: Which input the hash join builds its table from.  The planner sets
    #: this from row-count estimates (smaller side builds); executors honor
    #: it instead of re-guessing, and outer joins pin it to "right" so the
    #: probe side stays the left (order-preserved) input.
    build_side: str = "left"  # left | right

    def children(self) -> list[LogicalPlan]:
        return [self.left, self.right]

    def describe(self) -> str:
        cond = self.condition.to_sql() if self.condition else "TRUE"
        detail = f"{self.join_type},build={self.build_side}" if self.strategy == "hash" else self.join_type
        return f"{self.strategy.title()}Join[{detail}]({cond})"


@dataclass
class PruneNode(LogicalPlan):
    """A narrowing projection inserted by the optimizer, not by the query.

    Keeps only ``columns`` (a subset of the child's output, in child
    order) so operators above it — most importantly the batched hash
    join's gathers — touch fewer columns.  ``pruned`` lists the columns
    dropped, which EXPLAIN renders as ``[pruned: a,b,c]`` so the effect
    of projection pushdown is observable per plan.
    """

    columns: list[str] = field(default_factory=list)
    pruned: list[str] = field(default_factory=list)
    child: LogicalPlan = None  # type: ignore[assignment]

    def children(self) -> list[LogicalPlan]:
        return [self.child]

    def describe(self) -> str:
        kept = ", ".join(self.columns)
        dropped = ",".join(name.split(".")[-1] for name in self.pruned)
        return f"Project({kept}) [pruned: {dropped}]"


@dataclass
class ProjectNode(LogicalPlan):
    items: list = field(default_factory=list)  # list[SelectItem]
    child: LogicalPlan = None  # type: ignore[assignment]
    distinct: bool = False

    def children(self) -> list[LogicalPlan]:
        return [self.child]

    def describe(self) -> str:
        names = ", ".join(i.output_name for i in self.items)
        prefix = "Distinct " if self.distinct else ""
        return f"{prefix}Project({names})"


@dataclass
class AggregateNode(LogicalPlan):
    group_by: list[Expression] = field(default_factory=list)
    items: list = field(default_factory=list)  # list[SelectItem]
    having: Expression | None = None
    child: LogicalPlan = None  # type: ignore[assignment]
    #: Aggregates that appear only in HAVING (e.g. ``HAVING count(*) > 2``
    #: with no ``count(*)`` in the SELECT list).  The planner synthesizes
    #: these so executors compute their accumulators alongside ``items``;
    #: their values feed the HAVING predicate but never the output rows.
    having_items: list = field(default_factory=list)  # list[SelectItem]

    def children(self) -> list[LogicalPlan]:
        return [self.child]

    def describe(self) -> str:
        keys = ", ".join(e.to_sql() for e in self.group_by) or "<global>"
        return f"Aggregate(group by {keys})"


@dataclass
class SortNode(LogicalPlan):
    order_by: list = field(default_factory=list)  # list[OrderItem]
    child: LogicalPlan = None  # type: ignore[assignment]

    def children(self) -> list[LogicalPlan]:
        return [self.child]

    def describe(self) -> str:
        keys = ", ".join(
            f"{o.expression.to_sql()} {'DESC' if o.descending else 'ASC'}" for o in self.order_by
        )
        return f"Sort({keys})"


@dataclass
class LimitNode(LogicalPlan):
    limit: int | None
    offset: int | None
    child: LogicalPlan = None  # type: ignore[assignment]

    def children(self) -> list[LogicalPlan]:
        return [self.child]

    def describe(self) -> str:
        return f"Limit({self.limit}, offset={self.offset or 0})"


class TableStatisticsProvider:
    """Minimal statistics interface the planner needs (row counts, indexes
    and schemas)."""

    def table_row_count(self, table: str) -> int:  # pragma: no cover - interface
        raise NotImplementedError

    def table_indexes(self, table: str) -> dict[str, tuple[str, ...]]:  # pragma: no cover
        raise NotImplementedError

    def table_schema(self, table: str) -> Schema:  # pragma: no cover - interface
        raise NotImplementedError

    def table_stats(self, table: str):
        """Full :class:`~repro.engines.relational.statistics.TableStats` for a
        table, or ``None`` when the provider keeps none (the optimizer then
        falls back to row-count heuristics)."""
        return None


class Planner:
    """Builds and optimizes logical plans for SELECT statements."""

    def __init__(self, statistics: TableStatisticsProvider) -> None:
        self._stats = statistics

    # ------------------------------------------------------------------ public
    def plan_select(self, statement: SelectStatement) -> LogicalPlan:
        if statement.from_table is None:
            # SELECT without FROM: evaluate expressions over a single empty row.
            return ProjectNode(items=statement.items, child=ScanNode(table="__dual__"),
                               distinct=statement.distinct)
        plan = self._plan_from_clause(statement)
        plan = self._apply_where(plan, statement)
        sort_below_project = (
            bool(statement.order_by)
            and not statement.has_aggregates
            and self._order_by_needs_source_columns(statement)
        )
        if sort_below_project:
            plan = SortNode(order_by=statement.order_by, child=plan)
        if statement.has_aggregates:
            plan = AggregateNode(
                group_by=statement.group_by,
                items=statement.items,
                having=statement.having,
                child=plan,
                having_items=self._having_only_items(statement),
            )
        else:
            plan = ProjectNode(items=statement.items, child=plan, distinct=statement.distinct)
        if statement.order_by and not sort_below_project:
            plan = SortNode(order_by=statement.order_by, child=plan)
        if statement.limit is not None or statement.offset is not None:
            plan = LimitNode(limit=statement.limit, offset=statement.offset, child=plan)
        return plan

    @staticmethod
    def _having_only_items(statement: SelectStatement) -> list:
        """Synthesize SelectItems for aggregates referenced only in HAVING.

        HAVING-context aggregates parse to ``ColumnRef("count(*)")``-style
        references; when no SELECT item exposes that canonical name the
        executors would have nothing to evaluate it against.  Reconstruct
        each uncovered aggregate as a SelectItem so accumulators get
        computed for it too.
        """
        if statement.having is None:
            return []
        from repro.engines.relational.sql.ast import SelectItem
        from repro.engines.relational.sql.parser import ParseError, parse_expression

        covered: set[str] = set()
        for item in statement.items:
            if item.alias:
                covered.add(item.alias.lower())
            if item.aggregate:
                covered.add(item.output_name.lower())
                inner = "*" if item.expression is None else item.expression.to_sql()
                covered.add(f"{item.aggregate}({inner})".lower())
        extra: list = []
        # referenced_columns() is a set; sort for a deterministic item order.
        for ref in sorted(statement.having.referenced_columns()):
            match = _HAVING_AGGREGATE_RE.match(ref)
            if match is None or ref.lower() in covered:
                continue
            covered.add(ref.lower())
            aggregate = match.group(1).lower()
            inner_sql = match.group(2).strip()
            if inner_sql == "*":
                expression = None
            else:
                try:
                    expression = parse_expression(inner_sql)
                except ParseError:
                    continue  # leave unparseable refs to error as before
            extra.append(SelectItem(expression=expression, aggregate=aggregate))
        return extra

    @staticmethod
    def _order_by_needs_source_columns(statement: SelectStatement) -> bool:
        """True when ORDER BY references columns that the SELECT list does not expose.

        In that case the sort runs below the projection (against source columns),
        which is what SQL semantics require for ``SELECT a FROM t ORDER BY b``.
        """
        if any(item.star for item in statement.items):
            return False
        exposed: set[str] = set()
        for item in statement.items:
            if item.alias:
                exposed.add(item.alias.lower())
            if item.expression is not None:
                exposed.add(item.expression.to_sql().lower())
                if isinstance(item.expression, ColumnRef):
                    exposed.add(item.expression.name.lower().split(".")[-1])
            if item.aggregate:
                exposed.add(item.output_name.lower())
        for order in statement.order_by:
            refs = {name.split(".")[-1] for name in order.expression.referenced_columns()}
            rendered = order.expression.to_sql().lower()
            if rendered in exposed:
                continue
            if refs and not (refs <= exposed):
                return True
        return False

    # ---------------------------------------------------------------- internal
    def _plan_table_ref(self, ref: TableRef) -> LogicalPlan:
        if ref.subquery is not None:
            inner = self.plan_select(ref.subquery)
            return SubqueryNode(plan=inner, alias=ref.effective_name)
        if ref.name is None:
            raise PlanningError("table reference has neither a name nor a subquery")
        return ScanNode(table=ref.name, alias=ref.alias)

    def _plan_from_clause(self, statement: SelectStatement) -> LogicalPlan:
        assert statement.from_table is not None
        plan = self._plan_table_ref(statement.from_table)
        for join in statement.joins:
            right = self._plan_table_ref(join.table)
            plan = JoinNode(left=plan, right=right, condition=join.condition, join_type=join.join_type)
        return plan

    def _apply_where(self, plan: LogicalPlan, statement: SelectStatement) -> LogicalPlan:
        predicate = statement.where
        if predicate is None:
            return self._choose_access_paths(plan)
        conjuncts = split_conjuncts(predicate)
        plan, remaining = self._push_down(plan, conjuncts)
        plan = self._choose_access_paths(plan)
        residual = conjunction(remaining)
        if residual is not None:
            plan = FilterNode(predicate=residual, child=plan)
        return plan

    def _push_down(
        self, plan: LogicalPlan, conjuncts: list[Expression]
    ) -> tuple[LogicalPlan, list[Expression]]:
        """Push WHERE conjuncts onto the scans whose columns they reference."""
        if isinstance(plan, ScanNode):
            columns = {c.lower() for c in self._stats.table_schema(plan.table).names}
            alias = (plan.alias or plan.table).lower()
            local: list[Expression] = []
            remaining: list[Expression] = []
            for conjunct in conjuncts:
                refs = conjunct.referenced_columns()
                if refs and all(self._column_belongs(ref, columns, alias) for ref in refs):
                    local.append(conjunct)
                else:
                    remaining.append(conjunct)
            if local:
                existing = [plan.predicate] if plan.predicate is not None else []
                plan.predicate = conjunction(existing + local)
            return plan, remaining
        if isinstance(plan, JoinNode):
            # WHERE runs after the join, so a conjunct may only move below
            # an outer join on its *preserved* side: filtering the other
            # side's scan would resurrect rows the post-join filter removes
            # (a NULL-padded row can never satisfy a predicate on the padded
            # columns).  Inner/cross joins push freely to both sides.
            if plan.join_type in ("inner", "cross", "left"):
                plan.left, conjuncts = self._push_down(plan.left, conjuncts)
            if plan.join_type in ("inner", "cross", "right"):
                plan.right, conjuncts = self._push_down(plan.right, conjuncts)
            return plan, conjuncts
        if isinstance(plan, SubqueryNode):
            return plan, conjuncts
        return plan, conjuncts

    @staticmethod
    def _column_belongs(ref: str, columns: set[str], alias: str) -> bool:
        name = ref.lower()
        if "." in name:
            qualifier, bare = name.split(".", 1)
            return qualifier == alias and bare in columns
        return name in columns

    def _choose_access_paths(self, plan: LogicalPlan) -> LogicalPlan:
        """Replace scans with index scans where a pushed-down predicate allows it."""
        if isinstance(plan, ScanNode):
            return self.index_access(plan.table, plan.predicate, plan.alias) or plan
        if isinstance(plan, JoinNode):
            plan.left = self._choose_access_paths(plan.left)
            plan.right = self._choose_access_paths(plan.right)
            return self._order_join(plan)
        if isinstance(plan, SubqueryNode):
            return plan
        for child_attr in ("child",):
            if hasattr(plan, child_attr):
                setattr(plan, child_attr, self._choose_access_paths(getattr(plan, child_attr)))
        return plan

    def index_access(
        self, table: str, predicate: Expression | None, alias: str | None = None
    ) -> IndexScanNode | None:
        """The index path for reading ``table`` filtered by ``predicate``, or
        None for a sequential scan — the one access-path choice SELECT scans
        and UPDATE/DELETE share.

        The first conjunct ``column <op> literal`` (either side; ``op`` one
        of ``= < <= > >=``) on the column of a single-column index picks that
        index, and the other conjuncts become the residual.  A NULL literal
        never does (``=``/``<``/``>`` never match NULL, and the index holds
        no NULL keys), nor does a literal the B+tree cannot order against
        the column's values (``id = '2'`` on an INTEGER key): those stay with
        the scan, whose predicate answers them.
        """
        if predicate is None or table == "__dual__":
            return None
        # A composite index orders by its full key, so a bound on its
        # leading column alone is not a key range; only one-column indexes.
        single = {}
        for index_name, columns in self._stats.table_indexes(table).items():
            if len(columns) == 1:
                single.setdefault(columns[0].lower(), index_name)
        if not single:
            return None
        schema = self._stats.table_schema(table)
        conjuncts = split_conjuncts(predicate)
        for i, conjunct in enumerate(conjuncts):
            simple = self._simple_comparison(conjunct)
            if simple is None:
                continue
            column, op, value = simple
            bare = column.split(".")[-1].lower()
            if (
                bare not in single
                or op not in ("=", "==", "<", "<=", ">", ">=")
                or not isinstance(value, _ORDERABLE.get(schema.column(bare).dtype, ()))
                or value != value  # NaN
            ):
                continue
            node = IndexScanNode(
                table=table, index_name=single[bare], column=bare, alias=alias,
                residual=conjunction(conjuncts[:i] + conjuncts[i + 1 :]),
            )
            if op in ("=", "=="):
                node.equals = value
            elif op in (">", ">="):
                node.low = value
                node.include_low = op == ">="
            else:
                node.high = value
                node.include_high = op == "<="
            return node
        return None

    @staticmethod
    def _simple_comparison(expr: Expression) -> tuple[str, str, Any] | None:
        """Recognise ``column <op> literal`` (either side), else None."""
        if not isinstance(expr, BinaryOp):
            return None
        op = expr.op
        flipped = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}
        if isinstance(expr.left, ColumnRef) and isinstance(expr.right, Literal):
            return expr.left.name, op, expr.right.value
        if isinstance(expr.left, Literal) and isinstance(expr.right, ColumnRef):
            if op in flipped:
                return expr.right.name, flipped[op], expr.left.value
            if op in ("=", "=="):
                return expr.right.name, op, expr.left.value
        return None

    def _order_join(self, join: JoinNode) -> JoinNode:
        """Pick the join strategy and the hash join's build side.

        Equi-joins (inner and left/right/full outer) hash; the smaller
        estimated input becomes the build side via the ``build_side`` hint —
        the children are never swapped, so output column order always follows
        the query.  Outer joins pin ``build_side="right"``: probing the left
        input preserves the row executor's left-major emission order, which
        the batch executor must reproduce exactly.
        """
        equi = join.condition is not None and self._is_equi_join(join.condition)
        if not equi or join.join_type == "cross":
            join.strategy = "nested_loop"
            return join
        join.strategy = "hash"
        if join.join_type == "inner":
            left_rows = self._estimate_rows(join.left)
            right_rows = self._estimate_rows(join.right)
            join.build_side = "right" if right_rows < left_rows else "left"
        else:
            join.build_side = "right"
        return join

    @staticmethod
    def _is_equi_join(condition: Expression) -> bool:
        conjuncts = split_conjuncts(condition)
        for conjunct in conjuncts:
            if (
                isinstance(conjunct, BinaryOp)
                and conjunct.op in ("=", "==")
                and isinstance(conjunct.left, ColumnRef)
                and isinstance(conjunct.right, ColumnRef)
            ):
                return True
        return False

    def _estimate_rows(self, plan: LogicalPlan) -> int:
        if isinstance(plan, (ScanNode,)):
            try:
                count = self._stats.table_row_count(plan.table)
            except Exception:  # noqa: BLE001 - statistics are best-effort
                return 1000
            # A pushed-down filter is assumed to keep a third of the rows.
            return max(1, count // 3) if plan.predicate is not None else count
        if isinstance(plan, IndexScanNode):
            return 10
        if isinstance(plan, JoinNode):
            return self._estimate_rows(plan.left) * max(1, self._estimate_rows(plan.right) // 10)
        children = plan.children()
        if children:
            return self._estimate_rows(children[0])
        return 1000
