"""Vectorized (columnar batch) execution: the relational engine's SELECT path.

A row-at-a-time executor materializes a :class:`~repro.common.schema.Row` object per tuple and
tree-walks ``Expression.evaluate`` per row per predicate — exactly the
interpreted per-tuple overhead the Cambridge report calls out.  This module
is the cure, and the only executor ``RelationalEngine`` runs:

* **Batches, not rows.**  Operators stream
  :class:`~repro.common.schema.ColumnBatch` objects, and a table scan's
  batches are slices of the table's columnar snapshot
  (:meth:`HeapTable.column_snapshot`): typed vectors
  (:mod:`repro.common.vectors`) that stay typed through filter, gather,
  join and NULL padding, so kernels read buffers instead of converting
  Python values per query.  A result is the concatenated batches' columns,
  handed to the :class:`~repro.common.schema.Relation` as they are.  Values
  turn back into native Python only where rows are made: the result's
  ``rows`` view, and ``value_rows()`` / ``row()`` for sort, projected
  expressions and row-closure fallbacks.
* **Compile once, run per batch.**  Predicates, projections, join keys,
  group keys and sort keys are lowered once per plan node with
  :meth:`Expression.compile` into positional-tuple closures — no per-row
  name resolution or isinstance dispatch.
* **numpy kernels where the data allows.**  When a predicate only touches
  numeric columns (dtype mapping shared with the array island), it is
  lowered to a numpy mask kernel with SQL three-valued NULL semantics, so a
  filter over a 100k-row batch is a handful of vector ops.  ``=``, ``<>``,
  ``IN`` and ``LIKE`` between a dictionary-encoded TEXT column and
  constants join the same kernel: evaluated once per distinct string and
  broadcast through the codes.
* **Key-encoded joins and group-bys.**  Join keys and grouping keys map
  to dense int64 codes (:mod:`repro.common.keycodes`); a hash join probes
  whole batches with ``np.take`` gathers over a CSR layout of the build
  side — including left/right/full outer joins, which track a
  matched-build bitmap and emit null-padded batches — and grouped
  aggregation accumulates count/sum/avg/min/max per group with
  ``np.bincount`` / ``ufunc.at`` folds whose accumulation order matches
  the row accumulators bit for bit, and emits its groups as columns.  A
  global aggregate is the same group-by with no keys and one group.
* **Batched nested-loop joins for everything else.**  Cross, non-equi and
  keyless joins evaluate the whole condition over bounded slabs of the
  left x right cross product (same kernel / compiled closure as a filter).

Results are identical — schemas, values, order — to the reference
executor's, which the parity suites assert property-style.
"""

from __future__ import annotations

import itertools
import operator
from typing import TYPE_CHECKING, Any, Callable, Iterator, Sequence

import numpy as np

from repro.common.cancellation import check_cancelled, current_token
from repro.common.errors import ExecutionError, SchemaError
from repro.common.expressions import (
    BinaryOp,
    ColumnRef,
    Expression,
    InList,
    IsNull,
    Literal,
    UnaryOp,
    compile_predicate,
    conjunction,
    evaluate_predicate,
)
from repro.common.keycodes import IncrementalGroupEncoder, encode_except, nan_rows
from repro.common.schema import Column, ColumnBatch, Relation, Row, Schema
from repro.common.types import DataType, infer_type
from repro.common.vectors import (
    VECTOR_DTYPES,
    DictVector,
    NumericVector,
    concat,
    null_mask,
    numeric_view,
    take,
    to_list,
)
from repro.engines.relational.functions import Aggregate, make_aggregate
from repro.engines.relational.morsel import (
    HashJoinTable,
    JoinSpec,
    approx_batch_bytes,
    partitioned_spill_join,
)
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
from repro.observability.profile import observe_stream
from repro.observability.tracing import get_tracer

if TYPE_CHECKING:  # pragma: no cover
    from repro.engines.relational.engine import RelationalEngine

#: Rows per batch on the vectorized pipeline (bounded memory per operator).
DEFAULT_BATCH_ROWS = 4096

_COMPARE_OPS: dict[str, Callable[[Any, Any], Any]] = {
    "=": operator.eq,
    "==": operator.eq,
    "!=": operator.ne,
    "<>": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}

def _like_float(fn: Callable[[Any, Any], Any]) -> Callable[[Any, Any], Any]:
    """``fn`` with numpy's overflow / invalid warnings off: Python floats
    run to inf and NaN in silence, and so must the kernel."""

    def quiet(left: Any, right: Any) -> Any:
        with np.errstate(over="ignore", invalid="ignore"):
            return fn(left, right)

    return quiet


_ARITH_OPS: dict[str, Callable[[Any, Any], Any]] = {
    "+": _like_float(operator.add),
    "-": _like_float(operator.sub),
    "*": _like_float(operator.mul),
}

#: Division and modulo get masked kernels: the by-zero error must fire only
#: for rows that the row path would actually evaluate (AND/OR short-circuits
#: skip rows), so the kernel threads an active-row mask through lowering and
#: checks divisors against it before dividing.
_DIVISION_OPS = ("/", "%")


class _KernelUnsupported(Exception):
    """Raised during lowering when an expression has no vector form."""


def _compile_or_defer(expression: Expression, schema: Schema) -> Callable[[Sequence[Any]], Any]:
    """Compile an expression, deferring compile-time errors to evaluation time.

    The row executor only surfaces a bad column reference when a row is
    actually evaluated (an empty input never errors); eager compilation would
    move that error to plan time.  Deferring keeps the two modes identical.
    """
    try:
        return expression.compile(schema)
    except Exception:  # noqa: BLE001 - re-raised on first evaluation, like the row path
        return lambda values: expression.evaluate(Row(schema, values))


def _compile_predicate_or_defer(
    predicate: Expression | None, schema: Schema
) -> Callable[[Sequence[Any]], bool]:
    try:
        return compile_predicate(predicate, schema)
    except Exception:  # noqa: BLE001
        return lambda values: evaluate_predicate(predicate, Row(schema, values))


def _union_nulls(left: np.ndarray | None, right: np.ndarray | None) -> np.ndarray | None:
    if left is None:
        return right
    if right is None:
        return left
    return left | right


def _as_bool(values: Any) -> np.ndarray:
    return np.asarray(values).astype(np.bool_, copy=False)


# Each lowered node maps ({column index: (values array, null mask | None),
# or the DictVector of a TEXT column}, active-row mask) to its own (values,
# null mask | None) pair.  Values at
# null positions are unspecified; the final mask removes them (SQL: NULL is
# not satisfied).  The active mask marks rows the row executor would
# actually evaluate at this point — AND/OR narrow it for their right
# operands, and the division kernels consult it so ``x / 0`` errors fire
# for exactly the rows that survive short-circuiting.
_KernelNode = Callable[[dict[int, Any], np.ndarray], tuple[Any, "np.ndarray | None"]]

#: Comparisons the kernel answers per distinct string of a dictionary TEXT
#: column: against constants none of them can raise, whatever the string.
_DICTIONARY_OPS = ("=", "==", "!=", "<>", "like")


def _dictionary_column(expr: Expression, schema: Schema) -> int | None:
    """The TEXT column ``expr`` compares with constants by ``=``, ``<>``,
    ``LIKE`` or ``IN``, or None when ``expr`` is not of that shape."""
    if isinstance(expr, BinaryOp) and expr.op.lower() in _DICTIONARY_OPS:
        if isinstance(expr.left, ColumnRef) and isinstance(expr.right, Literal):
            ref = expr.left
        elif isinstance(expr.left, Literal) and isinstance(expr.right, ColumnRef):
            ref = expr.right
        else:
            return None
    elif isinstance(expr, InList) and isinstance(expr.operand, ColumnRef):
        ref = expr.operand
    else:
        return None
    index = schema.index_of(ref.name)
    return index if schema.columns[index].dtype is DataType.TEXT else None


def _lower_dictionary(
    expr: Expression, index: int, schema: Schema, columns: dict[int, Any]
) -> _KernelNode:
    """``expr`` over one dictionary column: the compiled row closure runs once
    per dictionary entry (and once on NULL), and the answers — exactly the
    row path's — are broadcast through the codes."""
    fn = expr.compile(Schema([schema.columns[index]]))
    columns[index] = None  # read as the DictVector itself
    answered: list[Any] = [None, None, None]  # dictionary, truth, null per entry

    def _broadcast(env: dict, active: np.ndarray) -> tuple[Any, np.ndarray | None]:
        vector = env[index]
        if answered[0] is not vector.dictionary:
            answers = [fn((entry,)) for entry in vector.dictionary.tolist()]
            answered[:] = (
                vector.dictionary,
                np.array([answer is True for answer in answers], dtype=np.bool_),
                np.array([answer is None for answer in answers], dtype=np.bool_),
            )
        return answered[1][vector.codes], answered[2][vector.codes]

    return _broadcast


def _require_float_columns(expr: Expression, schema: Schema) -> None:
    """Reject arithmetic over INTEGER columns: int64 wraps on overflow where
    Python's arbitrary-precision ints do not, which could silently change a
    mask.  float64 arithmetic matches the row path's float semantics exactly.
    """
    for name in expr.referenced_columns():
        if schema.columns[schema.index_of(name)].dtype is not DataType.FLOAT:
            raise _KernelUnsupported(f"arithmetic over non-float column {name!r}")


def _lower(expr: Expression, schema: Schema, columns: dict[int, Any]) -> tuple[_KernelNode, bool]:
    """Lower ``expr``; returns (kernel node, produces-boolean-values).

    The boolean flag matters for AND/OR: the row path short-circuits only on
    the literal ``False`` (``value is False``), so ``0 AND NULL`` is NULL
    there while a truthiness-based kernel would call it False.  Restricting
    AND/OR to operands that produce genuine booleans keeps the two paths
    identical; anything else falls back to the compiled row closure.
    """
    text_column = _dictionary_column(expr, schema)
    if text_column is not None:
        return _lower_dictionary(expr, text_column, schema, columns), True
    if isinstance(expr, Literal):
        value = expr.value
        if not isinstance(value, (bool, int, float)) or value is None:
            raise _KernelUnsupported(f"literal {value!r}")
        return (lambda env, active: (value, None)), isinstance(value, bool)
    if isinstance(expr, ColumnRef):
        index = schema.index_of(expr.name)
        dtype = schema.columns[index].dtype
        if dtype not in VECTOR_DTYPES:
            raise _KernelUnsupported(f"column {expr.name!r} has non-numeric type {dtype}")
        columns[index] = VECTOR_DTYPES[dtype]
        return (lambda env, active: env[index]), dtype is DataType.BOOLEAN
    if isinstance(expr, BinaryOp):
        op = expr.op.lower()
        if op in ("and", "or"):
            left, left_boolean = _lower(expr.left, schema, columns)
            right, right_boolean = _lower(expr.right, schema, columns)
            if not (left_boolean and right_boolean):
                raise _KernelUnsupported("AND/OR over non-boolean operands")
            conjunctive = op == "and"

            def _logic(env: dict, active: np.ndarray) -> tuple[Any, np.ndarray | None]:
                lv, ln = left(env, active)
                lb = _as_bool(lv)
                # The row path skips the right operand only when the left is
                # the literal False (AND) / True (OR); NULL still evaluates it.
                if conjunctive:
                    evaluates_right = lb if ln is None else (lb | ln)
                else:
                    evaluates_right = ~lb if ln is None else (~lb | ln)
                rv, rn = right(env, active & evaluates_right)
                rb = _as_bool(rv)
                vals = (lb & rb) if conjunctive else (lb | rb)
                if ln is None and rn is None:
                    return vals, None
                if conjunctive:
                    # AND is NULL unless either side is definitely False.
                    decided_l = ~lb if ln is None else (~lb & ~ln)
                    decided_r = ~rb if rn is None else (~rb & ~rn)
                else:
                    # OR is NULL unless either side is definitely True.
                    decided_l = lb if ln is None else (lb & ~ln)
                    decided_r = rb if rn is None else (rb & ~rn)
                nulls = _union_nulls(ln, rn) & ~decided_l & ~decided_r
                return vals, nulls

            return _logic, True
        if op in _COMPARE_OPS or op in _ARITH_OPS:
            fn = _COMPARE_OPS.get(op) or _ARITH_OPS[op]
            if op in _ARITH_OPS:
                _require_float_columns(expr, schema)
            left, _lb = _lower(expr.left, schema, columns)
            right, _rb = _lower(expr.right, schema, columns)

            def _binary(env: dict, active: np.ndarray) -> tuple[Any, np.ndarray | None]:
                lv, ln = left(env, active)
                rv, rn = right(env, active)
                return fn(lv, rv), _union_nulls(ln, rn)

            return _binary, op in _COMPARE_OPS
        if op in _DIVISION_OPS:
            _require_float_columns(expr, schema)
            left, _lb = _lower(expr.left, schema, columns)
            right, _rb = _lower(expr.right, schema, columns)
            modulo = op == "%"

            def _masked_divide(env: dict, active: np.ndarray) -> tuple[Any, np.ndarray | None]:
                lv, ln = left(env, active)
                rv, rn = right(env, active)
                zero = np.asarray(rv) == 0
                if zero.ndim == 0:
                    zero = np.full(active.shape, bool(zero), dtype=np.bool_)
                # NULL on either side yields NULL before the division runs
                # (_null_safe), so those rows cannot raise on the row path.
                evaluated = active if ln is None else (active & ~ln)
                if rn is not None:
                    evaluated = evaluated & ~rn
                if bool((zero & evaluated).any()):
                    if modulo:
                        raise ZeroDivisionError("float modulo")
                    raise ExecutionError("division by zero")
                safe_rv = np.where(zero, 1, rv) if zero.any() else rv
                with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                    vals = np.mod(lv, safe_rv) if modulo else np.true_divide(lv, safe_rv)
                return vals, _union_nulls(ln, rn)

            return _masked_divide, False
        raise _KernelUnsupported(f"operator {expr.op!r}")
    if isinstance(expr, UnaryOp):
        op = expr.op.lower()
        if op == "not":
            operand, _ob = _lower(expr.operand, schema, columns)

            def _not(env: dict, active: np.ndarray) -> tuple[Any, np.ndarray | None]:
                vals, nulls = operand(env, active)
                return ~_as_bool(vals), nulls

            return _not, True
        if op == "-":
            _require_float_columns(expr, schema)
            operand, _ob = _lower(expr.operand, schema, columns)

            def _neg(env: dict, active: np.ndarray) -> tuple[Any, np.ndarray | None]:
                vals, nulls = operand(env, active)
                return operator.neg(vals), nulls

            return _neg, False
        raise _KernelUnsupported(f"unary operator {expr.op!r}")
    if isinstance(expr, IsNull):
        operand, _ob = _lower(expr.operand, schema, columns)
        negated = expr.negated

        def _is_null(env: dict, active: np.ndarray) -> tuple[Any, np.ndarray | None]:
            vals, nulls = operand(env, active)
            shaped = np.asarray(vals)
            if shaped.ndim == 0:
                raise _KernelUnsupported("IS NULL over a scalar")
            base = nulls if nulls is not None else np.zeros(shaped.shape, dtype=np.bool_)
            return (~base if negated else base), None

        return _is_null, True
    if isinstance(expr, InList):
        if any(not isinstance(v, (bool, int, float)) or v is None for v in expr.values):
            raise _KernelUnsupported("non-numeric IN list")
        operand, _ob = _lower(expr.operand, schema, columns)
        members = list(expr.values)
        negated = expr.negated

        def _in(env: dict, active: np.ndarray) -> tuple[Any, np.ndarray | None]:
            vals, nulls = operand(env, active)
            result = np.isin(vals, members)
            return (~result if negated else result), nulls

        return _in, True
    raise _KernelUnsupported(type(expr).__name__)


class FilterKernel:
    """A predicate lowered to a numpy mask function over a ColumnBatch."""

    def __init__(self, fn: _KernelNode, columns: dict[int, Any]) -> None:
        self._fn = fn
        self._columns = tuple(columns.items())

    def __call__(self, batch: ColumnBatch) -> np.ndarray:
        length = len(batch)
        env: dict[int, Any] = {}
        for index, dtype in self._columns:
            column = batch.columns[index]
            if dtype is not None:
                env[index] = numeric_view(column, dtype)
            elif isinstance(column, DictVector):
                env[index] = column
            else:
                raise _KernelUnsupported("TEXT column is not dictionary-encoded")
        vals, nulls = self._fn(env, np.ones(length, dtype=np.bool_))
        mask = _as_bool(vals)
        if mask.ndim == 0:
            mask = np.full(length, bool(mask), dtype=np.bool_)
        if nulls is not None:
            mask = mask & ~nulls
        return mask


def compile_filter_kernel(predicate: Expression, schema: Schema) -> FilterKernel | None:
    """Lower a predicate to a numpy kernel, or None when it has no vector form."""
    columns: dict[int, Any] = {}
    try:
        fn, _boolean = _lower(predicate, schema, columns)
    except _KernelUnsupported:
        return None
    except Exception:  # noqa: BLE001 - malformed predicates fail on the row path
        return None
    if not columns:
        return None  # constant predicate: nothing to vectorize
    return FilterKernel(fn, columns)


class _PredicateRunner:
    """Applies one predicate to batches: numpy kernel first, row closure fallback."""

    def __init__(self, predicate: Expression, schema: Schema) -> None:
        self.kernel = compile_filter_kernel(predicate, schema)
        self._row_predicate = _compile_predicate_or_defer(predicate, schema)

    def mask(self, batch: ColumnBatch) -> np.ndarray:
        """Per-row keep flags, from the kernel or else the row closure."""
        if self.kernel is not None:
            try:
                return self.kernel(batch)
            except (_KernelUnsupported, TypeError, OverflowError):
                pass  # fall back; the row path reproduces exact semantics
        return np.fromiter(
            map(self._row_predicate, batch.value_rows()), np.bool_, count=len(batch)
        )

    def __call__(self, batch: ColumnBatch) -> ColumnBatch:
        mask = self.mask(batch)
        return batch if mask.all() else batch.compress(mask)


_VECTOR_AGGREGATES = ("count", "sum", "avg", "min", "max")


def _accumulator(item: Any) -> Aggregate:
    """A fresh row accumulator for one aggregate SELECT or HAVING item."""
    return make_aggregate(
        item.aggregate, count_star=item.expression is None, distinct=item.distinct
    )


def _abs_peak(ints: np.ndarray) -> int:
    """Largest magnitude in a non-empty int64 array, as a Python int
    (``np.abs`` wraps around at the most negative value)."""
    return max(-int(ints.min()), int(ints.max()))


def _has_negative_zero(floats: np.ndarray) -> bool:
    zeros = floats == 0.0
    return np.count_nonzero(zeros) > 0 and np.count_nonzero(np.signbit(floats[zeros])) > 0


def _extreme_identity(name: str, dtype: Any) -> Any:
    """The value MIN (or MAX) over ``dtype`` starts from: no value of the
    dtype is above (below) it."""
    if dtype is np.float64:
        return np.inf if name == "min" else -np.inf
    if dtype is np.bool_:
        return name == "min"
    info = np.iinfo(dtype)
    return info.max if name == "min" else info.min


def _unmatched_right_batches(
    joined_schema: Schema,
    left_schema: Schema,
    right_block: ColumnBatch,
    matched: np.ndarray,
    batch_rows: int,
) -> Iterator[ColumnBatch]:
    """The trailing batches of a right/full outer join: right rows no left
    row matched, in right input order, NULL-padded on the left."""
    unmatched = np.flatnonzero(~matched)
    if not unmatched.size:
        return
    # One gather for all unmatched rows, then cheap list slices per batch.
    padded = right_block.gather(unmatched)
    for start in range(0, unmatched.size, batch_rows):
        size = min(batch_rows, int(unmatched.size) - start)
        right_cols = padded.slice(start, start + size).columns
        left_pad = ColumnBatch.nulls(left_schema, size).columns
        yield ColumnBatch(joined_schema, left_pad + right_cols, size)


class BatchExecutor:
    """Executes logical plans as a streaming columnar batch pipeline.

    Produces results identical to the row-at-a-time reference executor
    the parity suites compare against (``tests/reference_executor.py``).
    """

    def __init__(
        self, engine: "RelationalEngine", batch_rows: int = DEFAULT_BATCH_ROWS
    ) -> None:
        self._engine = engine
        self._batch_rows = batch_rows

    def estimated_build_bytes(self, node: JoinNode) -> int | None:
        """Statistics-based build-side size prediction (None without stats)."""
        build_child = (
            node.left
            if node.join_type == "inner" and node.build_side != "right"
            else node.right
        )
        return self._engine.estimated_plan_bytes(build_child)

    # ------------------------------------------------------------------ public
    def execute(self, plan: LogicalPlan) -> Relation:
        schema, batches = self.stream(plan)
        result = ColumnBatch.concat(schema, list(batches))
        return Relation.from_columns(schema, result.columns, len(result))

    def stream(
        self, plan: LogicalPlan, columns: Sequence[str] | None = None
    ) -> tuple[Schema, Iterator[ColumnBatch]]:
        """Output schema plus a bounded-batch iterator for a plan subtree.

        ``columns`` names the only output columns the caller will read (a
        prune or a projection knows them): a table scan then emits just
        those, so the snapshot packs no column nobody asked for.  Every
        other operator ignores it.

        When the thread's tracer is enabled (a traced query, or EXPLAIN
        ANALYZE under its own tracer), the iterator is wrapped to record one
        ``op.<NodeType>`` span with the operator's rows/batches/time;
        otherwise the pipeline is returned untouched.
        """
        schema, batches = self._stream_impl(plan, columns)
        tracer = get_tracer()
        if tracer.enabled:
            batches = observe_stream(plan, batches, tracer)
        return schema, batches

    def _stream_impl(
        self, plan: LogicalPlan, columns: Sequence[str] | None
    ) -> tuple[Schema, Iterator[ColumnBatch]]:
        if isinstance(plan, ScanNode):
            return self._scan_stream(plan, columns)
        if isinstance(plan, IndexScanNode):
            return self._index_scan_stream(plan)
        if isinstance(plan, SubqueryNode):
            return self._subquery_stream(plan)
        if isinstance(plan, FilterNode):
            return self._filter_stream(plan)
        if isinstance(plan, JoinNode):
            return self._join_stream(plan)
        if isinstance(plan, AggregateNode):
            return self._aggregate_stream(plan)
        if isinstance(plan, PruneNode):
            return self._prune_stream(plan)
        if isinstance(plan, ProjectNode):
            return self._project_stream(plan)
        if isinstance(plan, SortNode):
            return self._sort_stream(plan)
        if isinstance(plan, LimitNode):
            return self._limit_stream(plan)
        raise ExecutionError(f"unknown plan node: {type(plan).__name__}")

    # ------------------------------------------------------------------- scans
    def _scan_stream(
        self, node: ScanNode, columns: Sequence[str] | None
    ) -> tuple[Schema, Iterator[ColumnBatch]]:
        """Slice the table's columnar snapshot into batches.

        Only the columns in ``columns`` (all when None) plus those the scan
        predicate reads are taken from the snapshot — which packs a column
        the first time any scan takes it — and only the former are emitted.
        """
        if node.table == "__dual__":
            return DUAL_SCHEMA, iter([ColumnBatch.from_value_rows(DUAL_SCHEMA, [(0,)])])
        table = self._engine.table(node.table)
        full_schema = qualified_schema(table.schema, node.alias or node.table)
        emitted = read = list(range(len(full_schema)))
        if columns is not None:
            try:
                # Never zero columns: a batch takes its length from them.
                emitted = sorted({full_schema.index_of(name) for name in columns} or {0})
                filtered = () if node.predicate is None else node.predicate.referenced_columns()
                read = sorted({*emitted, *(full_schema.index_of(name) for name in filtered)})
            except SchemaError:
                # A reference that does not resolve must fail where the row
                # path fails it — on the first evaluated row — so read it all.
                emitted = read
        # A scan of every column keeps the table's qualified schema itself.
        read_schema = full_schema if len(read) == len(full_schema) else Schema(
            [full_schema.columns[i] for i in read]
        )
        schema = read_schema if len(emitted) == len(read) else Schema(
            [full_schema.columns[i] for i in emitted]
        )
        keep = [read.index(i) for i in emitted]
        predicate = (
            None if node.predicate is None else _PredicateRunner(node.predicate, read_schema)
        )
        batch_rows = self._batch_rows

        def generate() -> Iterator[ColumnBatch]:
            token = current_token()
            snapshot = table.column_snapshot()
            vectors = [snapshot.column(i) for i in read]
            for start in range(0, len(snapshot), batch_rows):
                if token is not None:
                    # Cooperative cancellation: a timed-out or abandoned
                    # query stops at the next batch, not at end-of-scan.
                    token.check()
                stop = min(start + batch_rows, len(snapshot))
                batch = ColumnBatch(
                    read_schema, [vector[start:stop] for vector in vectors], stop - start
                )
                mask = None if predicate is None else predicate.mask(batch)
                if len(keep) < len(read):
                    batch = batch.select(schema, keep)
                if mask is not None and not mask.all():
                    batch = batch.compress(mask)
                if len(batch):
                    self._engine.record_morsels(1)
                    yield batch

        return schema, generate()

    def _index_scan_stream(self, node: IndexScanNode) -> tuple[Schema, Iterator[ColumnBatch]]:
        table = self._engine.table(node.table)
        schema = qualified_schema(table.schema, node.alias or node.table)
        predicate = None if node.residual is None else _PredicateRunner(node.residual, schema)

        def generate() -> Iterator[ColumnBatch]:
            matches = node.candidates(table)
            token = current_token()
            pending: list[tuple[Any, ...]] = []
            for _row_id, values in matches:
                pending.append(values)
                if len(pending) >= self._batch_rows:
                    if token is not None:
                        token.check()
                    batch = ColumnBatch.from_value_rows(schema, pending)
                    pending = []
                    if predicate is not None:
                        batch = predicate(batch)
                    if len(batch):
                        self._engine.record_morsels(1)
                        yield batch
            if pending:
                batch = ColumnBatch.from_value_rows(schema, pending)
                if predicate is not None:
                    batch = predicate(batch)
                if len(batch):
                    self._engine.record_morsels(1)
                    yield batch

        return schema, generate()

    def _subquery_stream(self, node: SubqueryNode) -> tuple[Schema, Iterator[ColumnBatch]]:
        inner_schema, batches = self.stream(node.plan)
        schema = qualified_schema(inner_schema, node.alias)
        return schema, (batch.with_schema(schema) for batch in batches)

    # --------------------------------------------------------------- operators
    def _filter_stream(self, node: FilterNode) -> tuple[Schema, Iterator[ColumnBatch]]:
        schema, batches = self.stream(node.child)
        predicate = _PredicateRunner(node.predicate, schema)

        def generate() -> Iterator[ColumnBatch]:
            for batch in batches:
                filtered = predicate(batch)
                if len(filtered):
                    yield filtered

        return schema, generate()

    def _join_stream(self, node: JoinNode) -> tuple[Schema, Iterator[ColumnBatch]]:
        """Key-encoded batched hash join (inner and left/right/full outer);
        joins without a resolvable equi-key go to the batched nested loop.

        The build side is pinned as one
        :class:`~repro.engines.relational.morsel.HashJoinTable` and each
        probe batch resolved against it — or, over ``join_memory_budget``,
        both inputs go to the partitioned spill join, which runs the same
        table one partition at a time.

        Outer joins track a matched-build bitmap: unmatched probe rows are
        null-padded inline (left/full, preserving the row executor's
        left-major order) and unmatched build rows are emitted as trailing
        null-padded batches (right/full).
        """
        left_schema, left_batches = self.stream(node.left)
        right_schema, right_batches = self.stream(node.right)
        keys: list[tuple[str, str]] = []
        if node.strategy == "hash" and node.condition is not None:
            keys, residual_conjuncts = split_join_condition(
                node.condition, left_schema, right_schema
            )
        if not keys:
            return self._nested_loop_join_stream(
                node, left_schema, left_batches, right_schema, right_batches
            )
        left_indices = [left_schema.index_of(pair[0]) for pair in keys]
        right_indices = [right_schema.index_of(pair[1]) for pair in keys]
        joined_schema = left_schema.concat(right_schema)
        # Outer joins probe the left input (left-major output order); inner
        # joins honor the planner's build-side hint.
        build_on_left = node.join_type == "inner" and node.build_side != "right"
        if build_on_left:
            build_schema, build_batches, build_key_idx = left_schema, left_batches, left_indices
            probe_schema, probe_batches, probe_key_idx = right_schema, right_batches, right_indices
        else:
            build_schema, build_batches, build_key_idx = right_schema, right_batches, right_indices
            probe_schema, probe_batches, probe_key_idx = left_schema, left_batches, left_indices
        spec = JoinSpec(
            joined_schema=joined_schema,
            build_schema=build_schema,
            probe_schema=probe_schema,
            build_key_idx=build_key_idx,
            probe_key_idx=probe_key_idx,
            residual=(
                _compile_predicate_or_defer(conjunction(residual_conjuncts), joined_schema)
                if residual_conjuncts
                else None
            ),
            build_on_left=build_on_left,
            pad_probe=node.join_type in ("left", "full"),
            track_build=node.join_type in ("right", "full"),
        )
        batch_rows = self._batch_rows

        def generate() -> Iterator[ColumnBatch]:
            engine = self._engine
            budget = engine.join_memory_budget
            # ---------------------------------------------- memory budget gate
            # Stream the build side watching the budget: a statistics-based
            # prediction or a measured overrun hands the whole join (prefix
            # batches already read + the rest of both streams) to the
            # partitioned spill join, which never pins the full build side.
            parts: list[ColumnBatch] = []
            build_iter = iter(build_batches)
            approx = 0
            if budget is not None:
                predicted = self.estimated_build_bytes(node)
                over_budget = predicted is not None and predicted > budget
                if not over_budget:
                    for part in build_iter:
                        parts.append(part)
                        approx += approx_batch_bytes(part)
                        if approx > budget:
                            over_budget = True
                            break
                if over_budget:
                    yield from partitioned_spill_join(
                        spec,
                        itertools.chain(parts, build_iter),
                        probe_batches,
                        batch_rows=batch_rows,
                        budget=budget,
                        engine=engine,
                    )
                    return
            else:
                parts = list(build_iter)
                approx = sum(approx_batch_bytes(part) for part in parts)
            engine.record_build_bytes(approx)
            build_block = ColumnBatch.concat(build_schema, parts)
            table = HashJoinTable(spec, build_block)
            with engine.task_context() as ctx:
                probe_task = table.probe
                tracer = get_tracer()
                if tracer.enabled:

                    def probe_task(batch: ColumnBatch):
                        with tracer.span("join.probe_morsel", kind="operator", rows=len(batch)):
                            return table.probe(batch)

                # Morsel-wise probe: the table is read-only after build, so
                # probe batches fan out to workers; results come back in
                # input order (matched-bitmap updates applied here, in
                # order) — output is byte-identical to the serial loop.
                for build_rows, _probe_rows, out in ctx.map_ordered(probe_task, probe_batches):
                    if table.matched is not None:
                        table.matched[build_rows] = True
                    if out is not None:
                        yield out
            if table.matched is not None:
                yield from _unmatched_right_batches(
                    joined_schema, probe_schema, build_block, table.matched, batch_rows
                )

        return joined_schema, generate()

    def _nested_loop_join_stream(
        self,
        node: JoinNode,
        left_schema: Schema,
        left_batches: Iterator[ColumnBatch],
        right_schema: Schema,
        right_batches: Iterator[ColumnBatch],
    ) -> tuple[Schema, Iterator[ColumnBatch]]:
        """Batched nested-loop join: cross, non-equi and keyless conditions.

        The right input is pinned as one block and each left batch is walked
        against it in slabs of at most ``batch_rows`` (left row, right row)
        pairs — several left rows x the whole block when it is small, one
        left row x a slice of it otherwise — so pairs are visited, and
        matches emitted, left-major / right-ascending exactly like the
        reference executor's double loop.  Each slab's pairs are gathered
        into one candidate batch (``np.repeat`` / ``np.tile`` index pairs)
        and the whole condition runs over it like a filter: numpy kernel
        first, compiled row closure otherwise.  Left/full joins pad
        unmatched left rows inline; right/full joins keep a matched-right
        bitmap and emit the unmatched right rows as trailing batches.
        """
        joined_schema = left_schema.concat(right_schema)
        condition = (
            None
            if node.condition is None
            else _PredicateRunner(node.condition, joined_schema)
        )
        pad_left = node.join_type in ("left", "full")
        track_right = node.join_type in ("right", "full")
        batch_rows = self._batch_rows

        def generate() -> Iterator[ColumnBatch]:
            right_block = ColumnBatch.concat(right_schema, list(right_batches))
            n_right = len(right_block)
            right_matched = np.zeros(n_right, dtype=np.bool_)
            slab_right = max(1, min(n_right, batch_rows))
            slab_left = max(1, batch_rows // slab_right)

            for batch in left_batches:

                def joined(li: np.ndarray, ri: np.ndarray) -> ColumnBatch:
                    # Right index -1 is the NULL pad of an unmatched left row.
                    pad = ri < 0
                    right = right_block.gather(ri, pad if pad.any() else None)
                    columns = batch.gather(li).columns + right.columns
                    return ColumnBatch(joined_schema, columns, int(li.size))

                for l0 in range(0, len(batch), slab_left):
                    l1 = min(len(batch), l0 + slab_left)
                    hit = np.zeros(l1 - l0, dtype=np.bool_)
                    li = ri = np.zeros(0, dtype=np.int64)
                    for r0 in range(0, n_right, slab_right):
                        check_cancelled()
                        if li.size:
                            yield joined(li, ri)
                        r1 = min(n_right, r0 + slab_right)
                        li = np.repeat(np.arange(l0, l1), r1 - r0)
                        ri = np.tile(np.arange(r0, r1), l1 - l0)
                        if condition is not None:
                            keep = np.flatnonzero(condition.mask(joined(li, ri)))
                            li, ri = li[keep], ri[keep]
                        hit[li - l0] = True
                        right_matched[ri] = True
                    if pad_left and not hit.all():
                        # Unmatched left rows slot in at their left position;
                        # a matched row never pads, so the stable sort only
                        # interleaves, it never reorders a row's matches.
                        pads = l0 + np.flatnonzero(~hit)
                        li = np.concatenate([li, pads])
                        ri = np.concatenate([ri, np.full(pads.size, -1, dtype=np.int64)])
                        order = np.argsort(li, kind="stable")
                        li, ri = li[order], ri[order]
                    if li.size:
                        yield joined(li, ri)
            if track_right:
                yield from _unmatched_right_batches(
                    joined_schema, left_schema, right_block, right_matched, batch_rows
                )

        return joined_schema, generate()

    def _prune_stream(self, node: PruneNode) -> tuple[Schema, Iterator[ColumnBatch]]:
        """Optimizer-inserted narrowing: pass through only the kept columns.

        Columns are shared by reference, so this costs one list pick per
        batch — the savings materialize in the operators above (the hash
        join gathers and the group-by representatives touch fewer columns).
        """
        child_schema, batches = self.stream(node.child, node.columns)
        indices = [child_schema.index_of(name) for name in node.columns]
        schema = child_schema.project(node.columns)

        def generate() -> Iterator[ColumnBatch]:
            for batch in batches:
                yield batch.select(schema, indices)

        return schema, generate()

    def _project_stream(self, node: ProjectNode) -> tuple[Schema, Iterator[ColumnBatch]]:
        wanted = None
        if isinstance(node.child, ScanNode) and not any(item.star for item in node.items):
            wanted = sorted(
                set().union(*(item.expression.referenced_columns() for item in node.items))
            )
        child_schema, batches = self.stream(node.child, wanted)
        first = next(batches, None)
        first_values = first.row(0) if first is not None and len(first) else None
        columns: list[Column] = []
        compiled: list[tuple[bool, Any]] = []  # (star, fn | column index)
        for item in node.items:
            if item.star:
                columns.extend(child_schema.columns)
                compiled.append((True, None))
                continue
            expression = item.expression
            index = child_schema.find(expression.name) if isinstance(expression, ColumnRef) else None
            if index is None:
                dtype = self._expression_type(expression, child_schema, first_values)
                compiled.append((False, _compile_or_defer(expression, child_schema)))
            else:
                dtype = child_schema.columns[index].dtype
                compiled.append((False, index))
            columns.append(Column(item.output_name, dtype))
        schema = Schema(dedupe(columns))
        all_batches = batches if first is None else itertools.chain([first], batches)

        def generate() -> Iterator[ColumnBatch]:
            # DISTINCT: a group-by without aggregates over the output columns.
            encoder = IncrementalGroupEncoder(schema.types) if node.distinct else None
            for batch in all_batches:
                out_columns: list[list[Any]] = []
                computed: list[tuple[int, Any]] = []
                for star, spec in compiled:
                    if star:
                        out_columns.extend(batch.columns)
                    elif isinstance(spec, int):
                        out_columns.append(batch.columns[spec])
                    else:
                        slot: list[Any] = []
                        computed.append((len(out_columns), spec))
                        out_columns.append(slot)
                if computed:
                    for values in batch.value_rows():
                        for slot_index, fn in computed:
                            out_columns[slot_index].append(fn(values))
                out = ColumnBatch(schema, out_columns, len(batch))
                if encoder is None:
                    yield out
                    continue
                # Each NaN is a fresh value to the row path: its row stays.
                nan = nan_rows(out_columns)
                rows = encode_except(encoder, out_columns, nan)[1]
                if nan.any():
                    rows = np.union1d(rows, nan.nonzero()[0])
                if len(rows):
                    yield out.gather(rows)

        return schema, generate()

    def _aggregate_stream(self, node: AggregateNode) -> tuple[Schema, Iterator[ColumnBatch]]:
        child_schema, batches = self.stream(node.child)
        having_items = getattr(node, "having_items", [])
        agg_items = [(i, item) for i, item in enumerate(node.items) if item.aggregate]
        # HAVING-only aggregates get accumulators past the SELECT items'
        # index range; their values feed the predicate, never the output.
        extra_offset = len(node.items)
        agg_items += [(extra_offset + j, item) for j, item in enumerate(having_items)]
        # The output types read the first input row, so the first non-empty
        # batch is pulled now; the aggregation runs when the result is.
        batches = iter(batches)
        first = next((batch for batch in batches if len(batch)), None)
        first_values = None if first is None else first.row(0)
        if first is not None:
            batches = itertools.chain([first], batches)

        def type_of(expression: Expression | None) -> DataType:
            return self._expression_type(expression, child_schema, first_values)

        # Output schema: mirrors the row executor exactly.
        schema = Schema(
            dedupe(
                [
                    Column(
                        item.output_name,
                        aggregate_type(item.aggregate, type_of(item.expression))
                        if item.aggregate
                        else type_of(item.expression),
                    )
                    for item in node.items
                ]
            )
        )
        having_schema = having_input_schema(schema, node.items, having_items, type_of)
        having = (
            None if node.having is None else _PredicateRunner(node.having, having_schema)
        )
        rep_cols = self._representative_columns(node, child_schema)
        if rep_cols is not None and node.group_by:  # counted for group-bys only
            self._engine.record_representative_prune(len(child_schema.columns) - len(rep_cols))
        rep_schema = (
            child_schema
            if rep_cols is None
            else Schema([child_schema.columns[i] for i in rep_cols])
        )

        def generate() -> Iterator[ColumnBatch]:
            count, agg_columns, rep_columns = self._run_streaming_grouped(
                node, child_schema, batches, agg_items, rep_cols
            )
            if not count:
                return
            rep_rows: list[tuple[Any, ...]] | None = None
            out_columns: list[Any] = []
            for i, item in enumerate(node.items):
                if item.aggregate:
                    out_columns.append(agg_columns[i])
                elif first is None:
                    # The one group of a global aggregate over no rows has
                    # no representative row.
                    out_columns.append([None])
                elif isinstance(item.expression, ColumnRef) and (
                    index := rep_schema.find(item.expression.name)
                ) is not None:
                    out_columns.append(rep_columns[index])
                else:
                    if rep_rows is None:
                        rep_rows = list(ColumnBatch(rep_schema, rep_columns, count).value_rows())
                    fn = _compile_or_defer(item.expression, rep_schema)
                    out_columns.append(list(map(fn, rep_rows)))
            out = ColumnBatch(schema, out_columns, count)
            if having is not None:
                # HAVING reads each output by alias and by canonical name,
                # then the HAVING-only aggregates.
                extra = [agg_columns[extra_offset + j] for j in range(len(having_items))]
                out = out.compress(
                    having.mask(
                        ColumnBatch(having_schema, out_columns + out_columns + extra, count)
                    )
                )
            if len(out):
                yield out

        return schema, generate()

    @staticmethod
    def _representative_columns(
        node: AggregateNode, child_schema: Schema
    ) -> list[int] | None:
        """Column indices a group representative must retain, or None for all.

        A grouped aggregation keeps one representative row per group only to
        evaluate non-aggregate SELECT items; when those items (plus the
        grouping keys) reference an unambiguous subset of the child columns,
        storing just that subset bounds per-group memory by the referenced
        width instead of the full row width.  Returns None (keep full rows)
        when any reference fails to resolve — ambiguity and unknown-column
        errors must surface exactly as they would on the full path.
        """
        needed: set[int] = set()
        try:
            for expr in node.group_by:
                for ref in expr.referenced_columns():
                    needed.add(child_schema.index_of(ref))
            for item in node.items:
                if item.aggregate:
                    continue
                if item.star or item.expression is None:
                    return None
                for ref in item.expression.referenced_columns():
                    needed.add(child_schema.index_of(ref))
        except SchemaError:
            return None
        cols = sorted(needed)
        if len(cols) >= len(child_schema.columns):
            return None
        return cols

    @staticmethod
    def _source(expression: Expression | None, schema: Schema) -> Any:
        """Where a grouping key's or an aggregate argument's values come
        from: a bare column's index, None for ``*``, or else a row closure."""
        if expression is None:
            return None
        if isinstance(expression, ColumnRef) and (index := schema.find(expression.name)) is not None:
            return index
        return _compile_or_defer(expression, schema)

    @staticmethod
    def _vector_plan(item: Any, source: Any, child_schema: Schema) -> tuple[str, int | None] | None:
        """How the vector fold takes one aggregate, or None when it folds per
        group code instead: a non-distinct count/sum/avg/min/max over a bare
        column (or ``*``), sum/avg/min/max over a fixed-width numeric one."""
        if item.aggregate not in _VECTOR_AGGREGATES or item.distinct or callable(source):
            return None
        if source is None:
            return "count_star", None
        if item.aggregate != "count" and child_schema.columns[source].dtype not in VECTOR_DTYPES:
            return None
        return item.aggregate, source

    def _run_streaming_grouped(
        self,
        node: AggregateNode,
        child_schema: Schema,
        batches: Iterator[ColumnBatch],
        agg_items: list,
        rep_cols: list[int] | None,
    ) -> tuple[int, dict[int, Sequence[Any]], list[Sequence[Any]]]:
        """Streaming group-by, the one loop over an aggregation's batches.

        Each batch's grouping keys map through a shared
        :class:`~repro.common.keycodes.IncrementalGroupEncoder` (dictionaries
        that persist across batches) to group codes numbered by first
        appearance.  A bare-column key is the batch column; a computed key
        is a list from its row closure; a FLOAT key vector holding NaN goes
        to the encoder as a list, which moves its column to the dict, where
        each NaN is a fresh float and so a fresh group, as no NaN equals
        another.  Peak resident rows are O(batch_size + groups) instead of
        the whole input.  A batch's new groups leave their representative
        values as one gather per kept column; with no keys (a global
        aggregate) every row is in group 0, which exists before the first
        row (over no rows it still yields its one row, COUNT 0, the others
        NULL), and row 0 of the first batch represents it.

        Each aggregate with a vector plan folds into per-group arrays
        (:class:`_StreamingGroupAggregator`), strictly sequential in row
        order (the bit-for-bit parity contract with the row accumulators).
        Any other aggregate keeps one row accumulator per group code and
        adds the batch's argument values at their rows' codes.  Shapes the
        vector fold cannot reproduce faithfully (NaN or -0.0 in MIN/MAX,
        int64 overflow risk) are detected *before* a batch folds in; every
        vector aggregate then hands over to per-code accumulators seeded
        from its state, and the same encoder and representatives carry on,
        never re-reading consumed input.

        The path recorded is ``stream`` when every aggregate folded as
        vectors, ``row`` when some folded per group code from the first
        batch and ``stream_degraded`` after a handoff.  Returns the group
        count, one column per aggregate and the representative columns, in
        group-code order.
        """
        keys = [self._source(expr, child_schema) for expr in node.group_by]
        kept = range(len(child_schema.columns)) if rep_cols is None else rep_cols
        encoder = (
            IncrementalGroupEncoder(
                [None if callable(key) else child_schema.columns[key].dtype for key in keys]
            )
            if keys
            else None
        )
        group_count = 0 if keys else 1
        items_by_index = dict(agg_items)
        plan: list[tuple[int, str, int | None]] = []
        #: Per aggregate the vector fold does not take: the source of its
        #: argument and one row accumulator per group code.
        folds: dict[int, tuple[Any, list[Aggregate]]] = {}
        for i, item in agg_items:
            source = self._source(item.expression, child_schema)
            vector = self._vector_plan(item, source, child_schema)
            if vector is None:
                folds[i] = (source, [_accumulator(item) for _ in range(group_count)])
            else:
                plan.append((i, *vector))
        state = _StreamingGroupAggregator(plan, child_schema, group_count) if plan else None
        path = "row" if folds else "stream"
        by_row = any(map(callable, [*keys, *(source for source, _ in folds.values())]))
        #: Per kept column, the representatives each batch's new groups gathered.
        rep_parts: list[list[Any]] = [[] for _ in kept]
        peak = 0
        for batch in batches:
            n = len(batch)
            if n == 0:
                continue
            columns = batch.columns
            rows = list(batch.value_rows()) if by_row else None

            def values_of(source: Any) -> Any:
                return columns[source] if isinstance(source, int) else list(map(source, rows))

            if state is not None:
                try:
                    prepared = state.prepare(columns, n)
                except _KernelUnsupported:
                    seeded = state.seeded_accumulators(items_by_index)
                    for i, _name, col in plan:
                        folds[i] = (col, seeded[i])
                    state, path = None, "stream_degraded"
            if encoder is None:
                codes = np.zeros(n, dtype=np.intp)
                # Row 0 of the first batch (peak is still 0) represents group 0.
                new_first_rows = np.zeros(0 if peak else 1, dtype=np.intp)
            else:
                key_columns = [values_of(key) for key in keys]
                if nan_rows(key_columns).any():  # a sorted table would merge NaNs
                    key_columns = [
                        to_list(column) if nan_rows([column]).any() else column
                        for column in key_columns
                    ]
                codes, new_first_rows = encoder.encode_batch(key_columns)
                group_count = encoder.group_count
            if new_first_rows.size:
                for parts, index in zip(rep_parts, kept):
                    parts.append(take(columns[index], new_first_rows))
            if state is not None:
                state.accumulate(codes, prepared, group_count)
            if folds:
                code_list = codes.tolist()
                for i, (source, accumulators) in folds.items():
                    accumulators.extend(
                        _accumulator(items_by_index[i])
                        for _ in range(group_count - len(accumulators))
                    )
                    values = itertools.repeat(1) if source is None else to_list(values_of(source))
                    for code, value in zip(code_list, values):
                        accumulators[code].add(value)
            peak = max(peak, n + group_count)
        self._engine.record_groupby(path, peak)
        agg_columns: dict[int, Sequence[Any]] = {} if state is None else state.results()
        for i, (_source, accumulators) in folds.items():
            agg_columns[i] = [accumulator.result() for accumulator in accumulators]
        return group_count, agg_columns, [concat(parts) if parts else [] for parts in rep_parts]

    def _sort_stream(self, node: SortNode) -> tuple[Schema, Iterator[ColumnBatch]]:
        schema, batches = self.stream(node.child)
        key_fns = [_compile_or_defer(item.expression, schema) for item in node.order_by]

        def generate() -> Iterator[ColumnBatch]:
            rows: list[tuple[Any, ...]] = []
            for batch in batches:
                rows.extend(batch.value_rows())
            # Stable sort applied right-to-left, exactly like the row executor.
            for item, fn in zip(reversed(node.order_by), reversed(key_fns)):

                def sort_key(values: tuple[Any, ...], fn=fn) -> tuple:
                    value = fn(values)
                    return (value is None, value)

                rows.sort(key=sort_key, reverse=item.descending)
            for start in range(0, len(rows), self._batch_rows):
                yield ColumnBatch.from_value_rows(schema, rows[start : start + self._batch_rows])

        return schema, generate()

    def _limit_stream(self, node: LimitNode) -> tuple[Schema, Iterator[ColumnBatch]]:
        schema, batches = self.stream(node.child)
        start = node.offset or 0
        limit = node.limit

        def generate() -> Iterator[ColumnBatch]:
            # Prefixes are slices: typed columns stay typed, no row is made.
            to_skip = start
            remaining = limit
            for batch in batches:
                if to_skip:
                    if to_skip >= len(batch):
                        to_skip -= len(batch)
                        continue
                    batch = batch.slice(to_skip, len(batch))
                    to_skip = 0
                if remaining is not None:
                    if remaining <= 0:
                        return
                    if len(batch) > remaining:
                        batch = batch.slice(0, remaining)
                    remaining -= len(batch)
                if len(batch):
                    yield batch
                if remaining is not None and remaining <= 0:
                    return

        return schema, generate()

    # ------------------------------------------------------------------ helpers
    @staticmethod
    def _expression_type(
        expression: Expression | None,
        child_schema: Schema,
        first_values: tuple[Any, ...] | None,
    ) -> DataType:
        """Mirror of the row executor's output-type inference, over batches."""
        if expression is None:
            return DataType.INTEGER
        if isinstance(expression, ColumnRef) and (index := child_schema.find(expression.name)) is not None:
            return child_schema.columns[index].dtype
        if first_values is not None:
            try:
                return infer_type(expression.compile(child_schema)(first_values))
            except Exception:  # noqa: BLE001 - fall back to float, like the row path
                return DataType.FLOAT
        return DataType.FLOAT


class _StreamingGroupAggregator:
    """Growable per-group accumulator arrays for the streaming group-by.

    One instance serves one aggregation; arrays are indexed by the global
    group codes handed out by the shared incremental key dictionary and
    grow geometrically as new groups appear.  State is kept per column, not
    per aggregate, so a batch reads each column once however many
    aggregates share it: the column's non-NULL rows per group (which
    COUNT reads, and SUM/AVG/MIN/MAX to tell an empty group) and, as its
    aggregates need them, a float total, an integer total and the running
    extremes (``None`` stands for COUNT(*)'s column of every row).  The
    merge discipline keeps every per-group fold strictly sequential in row
    order:

    * float totals (float SUM, every AVG) use a **seeded bincount** — the
      running totals ride along as one leading entry per group, so
      ``np.bincount``'s sequential C loop continues the exact
      ``((t + v1) + v2)...`` fold the row accumulators perform (plain
      partial-sum merging would round differently).  A float SUM and an
      AVG share one total: both start at 0.0, as ``-0.0`` under SUM is
      rejected up front;
    * integer SUM uses ``np.add.at`` (unbuffered, in input order) with a
      conservative overflow guard that trips *before* a batch is folded;
    * counts merge with plain bincount addition, and MIN/MAX fold each
      batch into the running extremes with ``np.minimum.at`` /
      ``np.maximum.at`` (the extremes start at the dtype's identity) — both
      order-insensitive, as NaN and ``-0.0`` are rejected up front.

    With one group the counts, integer sums and extremes are plain
    reductions instead.

    :meth:`results` hands each aggregate back as one column, indexed by
    group code.
    """

    def __init__(
        self, plan: list[tuple[int, str, int | None]], child_schema: Schema, groups: int = 0
    ) -> None:
        self._plan = plan
        self._size = 0
        self._cap = 0
        #: Per column: its per-group arrays, by what they hold ("rows",
        #: "fsum", "isum", "min", "max").
        self._columns: dict[int | None, dict[str, np.ndarray]] = {}
        #: The dtype each column some SUM/AVG/MIN/MAX reads packs to.
        self._dtypes: dict[int, Any] = {}
        #: FLOAT columns under MIN/MAX, which must hold no NaN and no -0.0,
        #: and under SUM, which must hold no -0.0.
        self._float_extremes: set[int] = set()
        self._float_sums: set[int] = set()
        #: Largest integer total so far per column under integer SUM.
        self._abs_max: dict[int, int] = {}
        for _i, name, col in plan:
            arrays = self._columns.setdefault(col, {"rows": np.zeros(0, dtype=np.int64)})
            if name in ("count_star", "count"):
                continue
            dtype = self._dtypes[col] = VECTOR_DTYPES[child_schema.columns[col].dtype]
            if name in ("min", "max"):
                arrays[name] = np.zeros(0, dtype=dtype)
                if dtype is np.float64:
                    self._float_extremes.add(col)
            elif name == "avg" or dtype is np.float64:
                arrays["fsum"] = np.zeros(0, dtype=np.float64)
                if name == "sum":
                    self._float_sums.add(col)
            else:
                arrays["isum"] = np.zeros(0, dtype=np.int64)
                self._abs_max[col] = 0
        self._ensure(groups)

    # ---------------------------------------------------------------- batches
    def prepare(
        self, columns: list, n: int
    ) -> dict[int, tuple[np.ndarray | None, np.ndarray | None]]:
        """Pack and vet one batch's aggregate inputs **before** any state
        mutation, raising :class:`_KernelUnsupported` on shapes the vector
        fold cannot reproduce faithfully (so the caller can still hand the
        untouched batch to the row accumulators).

        Returns, per column an aggregate reads, the mask of its non-NULL
        rows (None when there is no NULL) and those rows' packed values
        (None for a column only COUNT reads)."""
        prepared: dict[int, tuple[np.ndarray | None, np.ndarray | None]] = {}
        for col in self._columns:
            if col is None:
                continue
            dtype = self._dtypes.get(col)
            if dtype is None:
                values, nulls = None, null_mask(columns[col])
            else:
                try:
                    values, nulls = numeric_view(columns[col], dtype)
                except (OverflowError, TypeError, ValueError) as exc:
                    # e.g. Python ints beyond int64: only the row
                    # accumulators' arbitrary precision is faithful.
                    raise _KernelUnsupported(str(exc)) from exc
            present = None if nulls is None or not np.count_nonzero(nulls) else ~nulls
            if values is not None:
                if present is not None:
                    values = values[present]
                self._vet(col, values, n)
            prepared[col] = (present, values)
        return prepared

    def _vet(self, col: int, values: np.ndarray, n: int) -> None:
        """Reject one column's non-NULL values where a vector fold would
        differ from the row accumulators."""
        extremes = col in self._float_extremes
        if extremes and np.count_nonzero(np.isnan(values)):
            # The row fold never replaces on NaN, making MIN/MAX
            # position-dependent; reductions cannot reproduce that.
            raise _KernelUnsupported("NaN in MIN/MAX column")
        if (extremes or col in self._float_sums) and _has_negative_zero(values):
            # Nor which of two equal zeros MIN/MAX keeps (the first), nor a
            # SUM of negative zeros only, which is -0.0 where every bincount
            # bin starts at +0.0.
            raise _KernelUnsupported("negative zero in MIN/MAX/SUM column")
        if col in self._abs_max and values.size:
            if self._abs_max[col] + _abs_peak(values) * n > 2**62:
                raise _KernelUnsupported("int64 overflow risk in SUM")

    def accumulate(
        self,
        codes: np.ndarray,
        prepared: dict[int, tuple[np.ndarray | None, np.ndarray | None]],
        group_count: int,
    ) -> None:
        """Fold one prepared batch into the per-group state.  With one group
        the counts, integer sums and extremes are plain reductions instead
        of ``ufunc.at`` scatters: :meth:`prepare` has ruled out the
        overflow, NaN and -0.0 that would make their order matter."""
        self._ensure(group_count)
        size = self._size
        one = size == 1
        for col, arrays in self._columns.items():
            present, values = prepared.get(col, (None, None))
            sub = codes if present is None else codes[present]
            arrays["rows"][:size] += len(sub) if one else np.bincount(sub, minlength=size)
            if values is None or not values.size:
                continue
            fsum = arrays.get("fsum")
            if fsum is not None:
                fsum[:size] = np.bincount(
                    np.concatenate((np.arange(size, dtype=np.int64), sub)),
                    weights=np.concatenate((fsum[:size], values.astype(np.float64, copy=False))),
                    minlength=size,
                )
            isum = arrays.get("isum")
            if isum is not None:
                ints = values.astype(np.int64, copy=False)
                if one:
                    isum[0] += ints.sum()
                else:
                    np.add.at(isum[:size], sub, ints)
                self._abs_max[col] = max(self._abs_max[col], int(np.abs(isum[:size]).max()))
            for name, reducer in (("min", np.minimum), ("max", np.maximum)):
                extremes = arrays.get(name)
                if extremes is None:
                    continue
                if one:
                    extreme = values.min() if name == "min" else values.max()
                    extremes[0] = reducer(extremes[0], extreme)
                else:
                    reducer.at(extremes, sub, values)

    def _ensure(self, group_count: int) -> None:
        self._size = group_count
        if group_count <= self._cap:
            return
        cap = max(64, self._cap * 2, group_count)
        for arrays in self._columns.values():
            for key, old in arrays.items():
                if key in ("min", "max"):
                    grown = np.full(cap, _extreme_identity(key, old.dtype.type), dtype=old.dtype)
                else:
                    grown = np.zeros(cap, dtype=old.dtype)
                if len(old):
                    grown[: len(old)] = old
                arrays[key] = grown
        self._cap = cap

    # ---------------------------------------------------------------- results
    def results(self) -> dict[int, NumericVector]:
        """Per-item result columns indexed by global group code, NULL where
        the row accumulator would hold None (native values on the way out,
        like every vector)."""
        size = self._size
        out: dict[int, NumericVector] = {}
        #: Per column, its empty groups (None when there is none).
        empty: dict[int | None, np.ndarray | None] = {}
        for i, name, col in self._plan:
            arrays = self._columns[col]
            rows = arrays["rows"][:size]
            if name in ("count_star", "count"):
                out[i] = NumericVector(rows)
                continue
            if col not in empty:
                nulls = rows == 0
                empty[col] = nulls if np.count_nonzero(nulls) else None
            if name == "avg":
                # float / int, as the accumulator divides; empty groups are
                # NULL, so their 0 / 0 never surfaces.
                with np.errstate(divide="ignore", invalid="ignore"):
                    totals = arrays["fsum"][:size] / rows
            else:
                totals = self._totals(name, col)[:size]
            out[i] = NumericVector(totals, empty[col])
        return out

    def seeded_accumulators(self, items_by_index: dict) -> dict[int, list[Aggregate]]:
        """Per item, row accumulators pre-loaded with each group's vector
        state, in group-code order (the handoff: consumed rows were folded
        in row order, so this state is bit-for-bit what the row
        accumulators would hold)."""
        size = self._size
        seeded: dict[int, list[Aggregate]] = {}
        for i, name, col in self._plan:
            arrays = self._columns[col]
            rows = arrays["rows"][:size].tolist()
            if name in ("count_star", "count"):
                states = [(count,) for count in rows]
            elif name == "avg":
                states = list(zip(arrays["fsum"][:size].tolist(), rows))
            else:
                # An empty group's accumulator keeps its None.
                totals = self._totals(name, col)[:size].tolist()
                states = [(total,) if count else () for total, count in zip(totals, rows)]
            seeded[i] = [_accumulator(items_by_index[i]) for _ in states]
            for accumulator, state in zip(seeded[i], states):
                if state:
                    accumulator.load(*state)
        return seeded

    def _totals(self, name: str, col: int) -> np.ndarray:
        """The per-group array a SUM, MIN or MAX over ``col`` reads."""
        arrays = self._columns[col]
        if name != "sum":
            return arrays[name]
        return arrays["fsum" if col in self._float_sums else "isum"]
