"""The relational engine facade: the PostgreSQL stand-in federated by BigDAWG.

Usage::

    engine = RelationalEngine("postgres")
    engine.execute("CREATE TABLE patients (id INTEGER PRIMARY KEY, age INTEGER)")
    engine.execute("INSERT INTO patients VALUES (1, 64)")
    result = engine.execute("SELECT count(*) FROM patients WHERE age > 60")
"""

from __future__ import annotations

import time
from typing import Any, Iterable, Iterator, Sequence

from repro.common.cancellation import check_cancelled
from repro.common.errors import (
    DuplicateObjectError,
    ExecutionError,
    ObjectNotFoundError,
)
from repro.common.expressions import Expression, compile_predicate
from repro.common.parallel import (
    PARALLELISM_AUTO,
    TaskContext,
    WorkerCredits,
    resolve_parallelism,
)
from repro.common.schema import Column, Relation, Schema, TableDefinition
from repro.engines.base import DEFAULT_CHUNK_ROWS, Engine, EngineCapability, check_chunk_size
from repro.engines.relational.optimizer import Optimizer
from repro.observability.profile import SlowQueryLog
from repro.observability.tracing import Tracer, tracer_scope
from repro.engines.relational.planner import (
    JoinNode,
    LogicalPlan,
    Planner,
    TableStatisticsProvider,
)
from repro.engines.relational.statistics import StatisticsCatalog, TableStats
from repro.engines.relational.vectorized import BatchExecutor
from repro.engines.relational.sql.ast import (
    CreateIndexStatement,
    CreateTableStatement,
    DeleteStatement,
    DropTableStatement,
    InsertStatement,
    SelectStatement,
    Statement,
    UpdateStatement,
)
from repro.engines.relational.sql.parser import parse_sql
from repro.engines.relational.storage import ColumnSnapshot, ForeignTable, HeapTable
from repro.engines.relational.transactions import Transaction, TransactionManager


class ParsedSql(str):
    """SQL text that carries the :class:`Statement` it parses to
    (:meth:`RelationalEngine.parse`).

    :meth:`RelationalEngine.execute` runs ``statement`` without parsing the
    text again, while whatever reads its argument as text (fault injection,
    the slow-query log) still reads text.
    """

    statement: Statement

    def __new__(cls, text: str, statement: Statement) -> "ParsedSql":
        sql = super().__new__(cls, text)
        sql.statement = statement
        return sql


class RelationalEngine(Engine, TableStatisticsProvider):
    """An in-process SQL engine over heap tables.

    Writes, index lookups and DML go to each table's row store; every
    SELECT scan and CAST export slices the table's columnar snapshot
    (:meth:`HeapTable.column_snapshot`) and runs on the columnar batch
    pipeline with one-time expression compilation
    (:mod:`repro.engines.relational.vectorized`).
    """

    kind = "relational"

    def __init__(self, name: str = "postgres") -> None:
        super().__init__(name)
        self._tables: dict[str, HeapTable | ForeignTable] = {}
        self._planner = Planner(self)
        self._batch_executor = BatchExecutor(self)
        self._transactions = TransactionManager(self)
        #: Table/column statistics (row counts, NDV, null fractions, widths)
        #: maintained incrementally on DML and read by the optimizer pass.
        self.statistics = StatisticsCatalog(self)
        #: Whether SELECT plans run through the statistics-driven optimizer
        #: (projection pushdown, byte-based build side, conjunct ordering).
        #: Off, plans execute exactly as the rule-based planner built them —
        #: the baseline the wide-join benchmark measures against.
        self.optimizer_enabled = True
        #: Always empty: no plan shape leaves the batch pipeline any more.
        #: Kept because the polybench harness still reads the runtime's
        #: ``relational_fallback_reasons`` snapshot key built from it.
        self.fallback_reasons: dict[str, int] = {}
        #: Total columns the optimizer pruned below joins/aggregates, and
        #: aggregations per path, for the runtime's metrics snapshot:
        #: "stream" (every aggregate folded as vectors), "row" (some
        #: aggregate folded per group code from the first batch) or
        #: "stream_degraded" (the vector state handed over mid-stream).
        #: NaN keys never degrade: they go to the key encoder's dict.
        self.columns_pruned = 0
        self.groupby_paths: dict[str, int] = {}
        #: Largest resident row footprint (batch + groups) any streaming
        #: group-by reached — what the CI memory guard bounds.
        self.peak_groupby_resident_rows = 0
        #: Intra-query worker count: ``"auto"`` (core count, capped) or an
        #: explicit integer ≥ 1.  1 keeps the pipeline fully serial.
        self._parallelism: int | str = PARALLELISM_AUTO
        #: Fleet-wide extra-worker budget, installed by the runtime so one
        #: big query cannot starve the many-client path (None standalone).
        self.task_credits: WorkerCredits | None = None
        #: Build-side memory budget in (estimated) bytes for hash joins;
        #: None disables the budget.  Over budget, the join switches to the
        #: radix-partitioned spill path instead of pinning the build block.
        self.join_memory_budget: int | None = None
        #: Fan-out of the spill path's radix partitioning (and its recursion).
        self.join_spill_partitions = 8
        #: Parallel-pipeline observability, surfaced by the runtime metrics:
        #: scan morsels executed, build partitions spilled to disk, the
        #: largest estimated resident build-side footprint, and columns
        #: dropped from group-by representative rows.
        self.morsels_executed = 0
        self.partitions_spilled = 0
        self.peak_build_bytes = 0
        self.representative_columns_pruned = 0
        #: SELECTs slower than ``slow_queries.threshold_s`` are logged here
        #: with their SQL and wall time (free until a threshold is set).
        self.slow_queries = SlowQueryLog()

    def record_groupby(self, path: str, peak_rows: int) -> None:
        """Count one grouped aggregation by path and track peak resident rows."""
        self.groupby_paths[path] = self.groupby_paths.get(path, 0) + 1
        if peak_rows > self.peak_groupby_resident_rows:
            self.peak_groupby_resident_rows = peak_rows

    def record_morsels(self, count: int) -> None:
        """Count scan morsels (bounded ColumnBatches) emitted into pipelines."""
        self.morsels_executed += count

    def record_spill(self, partitions: int) -> None:
        """Count join build partitions written to temp files."""
        self.partitions_spilled += partitions

    def record_build_bytes(self, nbytes: int) -> None:
        """Track the largest estimated resident join build footprint."""
        if nbytes > self.peak_build_bytes:
            self.peak_build_bytes = nbytes

    def record_representative_prune(self, count: int) -> None:
        """Count columns dropped from group-by representative rows."""
        self.representative_columns_pruned += count

    @property
    def parallelism(self) -> int | str:
        """Intra-query workers: ``"auto"`` or an explicit integer ≥ 1."""
        return self._parallelism

    @parallelism.setter
    def parallelism(self, value: int | str) -> None:
        resolve_parallelism(value)  # validates
        self._parallelism = value

    def effective_parallelism(self) -> int:
        """The concrete worker count ``parallelism`` resolves to right now."""
        return resolve_parallelism(self._parallelism)

    def task_context(self) -> TaskContext:
        """A per-query :class:`TaskContext` honoring the parallelism knob.

        When the runtime installed :attr:`task_credits`, extra workers are
        borrowed non-blockingly from the fleet-wide budget and returned on
        ``close()`` — under concurrent client load a query gets fewer (or
        zero) extra workers and degrades toward serial execution.
        """
        workers = self.effective_parallelism()
        if workers <= 1:
            return TaskContext(1)
        credits = self.task_credits
        if credits is None:
            return TaskContext(workers)
        extra = credits.acquire_up_to(workers - 1)
        if extra == 0:
            return TaskContext(1)
        return TaskContext(extra + 1, on_close=lambda: credits.release(extra))

    # ------------------------------------------------------------- Engine API
    @property
    def capabilities(self) -> EngineCapability:
        return EngineCapability.SQL | EngineCapability.TRANSACTIONS

    def list_objects(self) -> list[str]:
        return sorted(self._tables)

    def has_object(self, name: str) -> bool:
        return name.lower() in self._tables

    def attach_foreign(self, name: str, relation: Relation, engine: str) -> None:
        """Make ``relation``, object ``name`` as exported by ``engine``,
        scannable here as a read-only :class:`ForeignTable` over its
        columns: no copy, no index, and every write refused."""
        self._tables[name.lower()] = ForeignTable(name, relation, engine)
        self.statistics.invalidate(name)

    def drop_object(self, name: str) -> None:
        key = name.lower()
        if key not in self._tables:
            raise ObjectNotFoundError(f"table {name!r} does not exist")
        del self._tables[key]
        self.statistics.invalidate(name)

    def rename_object(self, old_name: str, new_name: str,
                      replace: bool = True) -> None:
        """O(1) rename: re-key the heap table (the CAST commit primitive)."""
        old_key, new_key = old_name.lower(), new_name.lower()
        if old_key == new_key:
            return
        table = self.table(old_name)
        if new_key in self._tables and not replace:
            raise DuplicateObjectError(f"table {new_name!r} already exists")
        del self._tables[old_key]
        table.name = new_name
        self._tables[new_key] = table
        self.statistics.invalidate(old_name)
        self.statistics.invalidate(new_name)

    def export_schema(self, name: str) -> Schema:
        return self.table(name).schema

    def export_chunks(self, name: str, chunk_size: int = DEFAULT_CHUNK_ROWS) -> Iterator[Relation]:
        """Stream the table scan as bounded *columnar* chunks.

        Each chunk is a :class:`~repro.common.schema.Relation` sliced
        from the table's columnar snapshot — the same read image SELECT
        scans — whose columns are the snapshot's typed vectors as they are
        (INTEGER / FLOAT / BOOLEAN a ``NumericVector``, TEXT a
        ``DictVector``, anything else an object array).  A CAST whose
        consumer reads columns (the binary codec, a columnar import) so
        moves data from storage to the wire without making a Python value
        per cell.
        """
        check_chunk_size(chunk_size)
        table = self.table(name)

        def generate() -> Iterator[Relation]:
            snapshot = table.column_snapshot()
            for start in range(0, len(snapshot), chunk_size):
                check_cancelled()  # chunk boundary: cancelled exports stop here
                yield _snapshot_chunk(snapshot, start, min(start + chunk_size, len(snapshot)))

        return generate()

    def import_chunks(self, name: str, schema: Schema, chunks: Iterable[Relation],
                      **options: Any) -> None:
        """Bulk-load a new table one chunk's columns at a time, then publish
        it under ``name``.

        Options: ``primary_key`` (column names, default none) and
        ``replace``.  The table validates: :meth:`HeapTable.insert_columns`
        appends a column already of the schema's exact type as is and
        coerces any other chunk row by row through
        :meth:`Schema.validate_row`, which refuses a value of the wrong type
        and a NULL in a NOT NULL column."""
        primary_key = options.get("primary_key", ())
        replace = options.get("replace", True)
        key = name.lower()
        if key in self._tables and not replace:
            raise DuplicateObjectError(f"table {name!r} already exists")
        table = HeapTable(name, schema, primary_key)
        for chunk in chunks:
            table.insert_columns([chunk.column_vector(i) for i in range(len(chunk.schema))])
        self._tables[key] = table
        self.statistics.invalidate(name)

    # -------------------------------------------------------------- statistics
    def table(self, name: str) -> HeapTable | ForeignTable:
        key = name.lower()
        if key not in self._tables:
            raise ObjectNotFoundError(f"table {name!r} does not exist in engine {self.name!r}")
        return self._tables[key]

    def table_row_count(self, table: str) -> int:
        return self.table(table).row_count

    def table_indexes(self, table: str) -> dict[str, tuple[str, ...]]:
        return self.table(table).indexes()

    def table_schema(self, table: str) -> Schema:
        return self.table(table).schema

    def table_stats(self, table: str) -> TableStats | None:
        """Full table statistics for the optimizer (lazily analyzed)."""
        return self.statistics.table_stats(table)

    # ------------------------------------------------------------------ DDL/DML
    def create_table(
        self,
        name: str,
        schema: Schema,
        primary_key: Sequence[str] = (),
        if_not_exists: bool = False,
    ) -> TableDefinition:
        """Create a table from a schema object (programmatic path, used by loaders)."""
        key = name.lower()
        if key in self._tables:
            if if_not_exists:
                return TableDefinition(name, schema, tuple(primary_key), self.name)
            raise DuplicateObjectError(f"table {name!r} already exists")
        self._tables[key] = HeapTable(name, schema, primary_key)
        self.statistics.invalidate(name)
        self.bump_write_version()
        return TableDefinition(name, schema, tuple(primary_key), self.name)

    def insert_rows(self, table_name: str, rows: Sequence[Sequence[Any]]) -> int:
        """Bulk insert, all rows or (when one is invalid or repeats a unique
        key) none; returns the number of rows inserted."""
        row_ids = self.table(table_name).insert_many(rows)
        txn = self._transactions.active_transaction
        if txn is not None:
            for row_id in row_ids:
                txn.record_insert(table_name, row_id)
        self.statistics.note_mutation(table_name, len(row_ids))
        self.bump_write_version()
        return len(row_ids)

    def create_index(
        self, index_name: str, table_name: str, columns: Sequence[str], unique: bool = False
    ) -> None:
        self.table(table_name).create_index(index_name, columns, unique)
        self.bump_write_version()

    # ------------------------------------------------------------------ query
    @staticmethod
    def parse(sql: str) -> ParsedSql:
        """Parse one SQL statement, once: the relational island reads its
        tables off the result and hands that same result to :meth:`execute`."""
        return ParsedSql(sql, parse_sql(sql))

    def execute(self, sql: str) -> Relation:
        """Parse, plan and execute one SQL statement.

        A :class:`ParsedSql` is not parsed again: its ``statement`` runs.
        DDL and DML statements return a one-column relation with the affected
        row count; SELECT returns its result set.
        """
        check_cancelled()
        statement = sql.statement if isinstance(sql, ParsedSql) else parse_sql(sql)
        if self.slow_queries.enabled and isinstance(statement, SelectStatement):
            started = time.perf_counter()
            result = self.execute_statement(statement)
            self.slow_queries.observe(
                sql, time.perf_counter() - started, engine=self.name
            )
            return result
        return self.execute_statement(statement)

    def execute_statement(self, statement: Statement) -> Relation:
        self.queries_executed += 1
        if isinstance(statement, SelectStatement):
            return self._batch_executor.execute(self._optimized_plan(statement))
        # Everything below is DDL or DML: advance the write version so cached
        # results depending on this engine's state are invalidated.
        self.bump_write_version()
        if isinstance(statement, CreateTableStatement):
            return self._execute_create_table(statement)
        if isinstance(statement, DropTableStatement):
            return self._execute_drop_table(statement)
        if isinstance(statement, CreateIndexStatement):
            self.create_index(statement.index, statement.table, statement.columns, statement.unique)
            return self._count_relation(0)
        if isinstance(statement, InsertStatement):
            return self._execute_insert(statement)
        if isinstance(statement, UpdateStatement):
            return self._execute_update(statement)
        if isinstance(statement, DeleteStatement):
            return self._execute_delete(statement)
        raise ExecutionError(f"unsupported statement type: {type(statement).__name__}")

    def plan(self, sql: str) -> LogicalPlan:
        """The (optimized) logical plan a SELECT would execute — the hook
        benchmarks and tests use to inspect pruning and build-side choices.
        Inspection only: the ``columns_pruned`` metric counts executed
        queries, not plans looked at."""
        statement = parse_sql(sql)
        if not isinstance(statement, SelectStatement):
            raise ExecutionError("only SELECT statements are planned")
        return self._optimized_plan(statement, record=False)

    def _optimized_plan(
        self, statement: SelectStatement, record: bool = True
    ) -> LogicalPlan:
        plan = self._planner.plan_select(statement)
        if not self.optimizer_enabled:
            return plan
        result = Optimizer(self).optimize(plan)
        if record:
            self.columns_pruned += result.columns_pruned
        return result.plan

    def explain(self, sql: str, analyze: bool = False) -> str:
        """Return the optimized plan for a SELECT statement as indented text.

        The header carries a ``Stats(...)`` summary of every referenced
        table (live row count and estimated bytes from the statistics layer)
        and a ``Parallel(...)`` line.  A hash join whose build side is
        predicted to exceed ``join_memory_budget`` is tagged ``[spill]``;
        optimizer-inserted prunes render as ``Project(kept...) [pruned:
        a,b,c]``.

        With ``analyze=True`` the query is actually executed and every
        operator is additionally annotated with its estimated vs. actual
        row count, batch count and wall time — ``(estimated=N rows,
        actual=M rows, batches=B, time=X.XXXms)`` — followed by a
        ``Total(...)`` footer, in the spirit of ``EXPLAIN ANALYZE``.  The
        actuals are the ``op.<Node>`` spans of a run under this call's own
        tracer (installed for this thread only), so concurrent EXPLAIN
        ANALYZEs never see each other's operators and an enabled global
        tracer does not receive them.
        """
        statement = parse_sql(sql)
        if not isinstance(statement, SelectStatement):
            raise ExecutionError("EXPLAIN is only supported for SELECT statements")
        plan = self._planner.plan_select(statement)
        tables: list[str] = []
        if self.optimizer_enabled:
            result = Optimizer(self).optimize(plan)
            plan, tables = result.plan, result.tables
        header = f"Parallel(workers={self.effective_parallelism()})"
        stats_line = self._stats_line(tables)
        if stats_line:
            header = f"{stats_line}\n{header}"
        operators: dict[int, Any] | None = None
        if analyze:
            tracer = Tracer(enabled=True)
            with tracer_scope(tracer):
                with tracer.span("explain.analyze", kind="query") as run:
                    result = self._batch_executor.execute(plan)
            self.queries_executed += 1
            operators = {
                span.attrs["node"]: span for span in tracer.spans()
                if span.name.startswith("op.")
            }

        def annotate(node):
            parts: list[str] = []
            if (
                isinstance(node, JoinNode)
                and node.strategy == "hash"
                and self.join_memory_budget is not None
            ):
                estimate = self._batch_executor.estimated_build_bytes(node)
                if estimate is not None and estimate > self.join_memory_budget:
                    parts.append("[spill]")
            if operators is not None:
                parts.append(self._analyze_annotation(node, operators.get(id(node))))
            return " ".join(parts)

        text = header + "\n" + plan.explain(annotate=annotate)
        if analyze:
            text = (
                f"{text.rstrip()}\n"
                f"Total(rows={len(result)}, time={run.duration_s * 1000:.3f}ms)\n"
            )
        return text

    def _analyze_annotation(self, node, span) -> str:
        """One operator's EXPLAIN ANALYZE suffix: the estimate, then its
        ``op.<Node>`` span's actuals (or ``not executed`` without one)."""
        estimate = self.estimated_plan_rows(node)
        est = "?" if estimate is None else str(estimate)
        if span is None:
            return f"(estimated={est} rows, not executed)"
        return (
            f"(estimated={est} rows, actual={span.attrs['rows']} rows, "
            f"batches={span.attrs['batches']}, time={span.duration_s * 1000:.3f}ms)"
        )

    def estimated_plan_rows(self, plan) -> int | None:
        """Estimated output row count of a plan subtree, or None if unknown.

        Same facade pattern as :meth:`estimated_plan_bytes` — EXPLAIN
        ANALYZE uses it to print estimated vs. actual cardinality per
        operator without importing the optimizer.
        """
        try:
            return Optimizer(self)._estimate_rows(plan)
        except Exception:
            return None

    def estimated_plan_bytes(self, plan) -> int | None:
        """Estimated materialized bytes of a plan subtree, or None if unknown.

        Thin facade over the optimizer's cardinality model so the executor's
        join memory budget can consult statistics without importing the
        optimizer directly.
        """
        try:
            return Optimizer(self)._estimate_bytes(plan)
        except Exception:
            return None

    def _stats_line(self, tables: list[str]) -> str | None:
        """The EXPLAIN ``Stats(...)`` line for the referenced base tables."""
        parts = []
        for table in tables:
            stats = self.statistics.table_stats(table)
            if stats is None:
                continue
            parts.append(
                f"{table}: rows={stats.row_count}, bytes~{stats.estimated_bytes}"
            )
        if not parts:
            return None
        return f"Stats({'; '.join(parts)})"

    # ----------------------------------------------------------------- private
    def _execute_create_table(self, statement: CreateTableStatement) -> Relation:
        columns = [Column(c.name, c.dtype, c.nullable) for c in statement.columns]
        primary_key = tuple(c.name for c in statement.columns if c.primary_key)
        self.create_table(
            statement.table, Schema(columns), primary_key, statement.if_not_exists
        )
        return self._count_relation(0)

    def _execute_drop_table(self, statement: DropTableStatement) -> Relation:
        key = statement.table.lower()
        if key not in self._tables:
            if statement.if_exists:
                return self._count_relation(0)
            raise ObjectNotFoundError(f"table {statement.table!r} does not exist")
        table = self._tables[key]
        if isinstance(table, ForeignTable):
            table.refuse_write()
        del self._tables[key]
        self.statistics.invalidate(statement.table)
        return self._count_relation(0)

    def _execute_insert(self, statement: InsertStatement) -> Relation:
        """Every VALUES row is evaluated before any lands, and they land
        together (:meth:`insert_rows`): a bad row leaves the table unchanged."""
        schema = self.table(statement.table).schema
        rows = []
        for expressions in statement.rows:
            for expression in expressions:
                if expression.referenced_columns():
                    raise ExecutionError(
                        f"INSERT value {expression.to_sql()} is not a constant: "
                        "VALUES cannot reference columns"
                    )
            values = [expression.evaluate(None) for expression in expressions]
            if statement.columns:
                named = values
                values = [None] * len(schema)
                for column, value in zip(statement.columns, named):
                    values[schema.index_of(column)] = value
            rows.append(values)
        return self._count_relation(self.insert_rows(statement.table, rows))

    def _execute_update(self, statement: UpdateStatement) -> Relation:
        """Every new row is evaluated before any lands, and they land
        together (:meth:`HeapTable.update_many`): a failing expression or a
        taken key leaves the table unchanged.  If another write replaced a
        matched row in between, nothing lands and the statement matches and
        evaluates again, so that write is neither overwritten nor applied
        to a row the WHERE no longer selects."""
        table = self.table(statement.table)
        assignments = [
            (table.schema.index_of(column), expression.compile(table.schema))
            for column, expression in statement.assignments.items()
        ]
        updated = None
        while updated is None:
            matched = self._matching_rows(table, statement.where)
            changes = []
            for row_id, old in matched:
                new_values = list(old)
                for index, expression in assignments:
                    new_values[index] = expression(old)
                changes.append((row_id, new_values))
            updated = table.update_many(changes, expected=[old for _row_id, old in matched])
        txn = self._transactions.active_transaction
        if txn is not None:
            for row_id, old in updated:
                txn.record_update(statement.table, row_id, old)
        self.statistics.note_mutation(statement.table, len(updated))
        return self._count_relation(len(updated))

    def _execute_delete(self, statement: DeleteStatement) -> Relation:
        """Like UPDATE: a row another write replaced since it matched sends
        the statement back to match again."""
        table = self.table(statement.table)
        deleted = None
        while deleted is None:
            matched = self._matching_rows(table, statement.where)
            deleted = table.delete_many(
                [row_id for row_id, _values in matched],
                expected=[values for _row_id, values in matched],
            )
        txn = self._transactions.active_transaction
        if txn is not None:
            for row_id, old in deleted:
                txn.record_delete(statement.table, row_id, old)
        self.statistics.note_mutation(statement.table, len(deleted))
        return self._count_relation(len(deleted))

    def _matching_rows(
        self, table: HeapTable, where: Expression | None
    ) -> list[tuple[int, tuple[Any, ...]]]:
        """The (row_id, values) pairs an UPDATE/DELETE's WHERE selects, live
        at one instant under the table lock.

        Through the index path a SELECT with the same WHERE would take
        (:meth:`Planner.index_access`): its candidates are kept where the
        *whole* compiled WHERE holds, so NULL logic matches the scan
        exactly.  Without one, a full scan (:meth:`HeapTable.apply_filter_values`).
        """
        predicate = compile_predicate(where, table.schema)
        path = self._planner.index_access(table.name, where)
        if path is None:
            return table.apply_filter_values(predicate)
        return [(row_id, values) for row_id, values in path.candidates(table) if predicate(values)]

    @staticmethod
    def _count_relation(count: int) -> Relation:
        return Relation.from_columns(_COUNT_SCHEMA, [[count]])

    # ------------------------------------------------------------ transactions
    def begin(self) -> Transaction:
        """Start a transaction; use as a context manager for commit/rollback."""
        return self._transactions.begin()

    def _finish_transaction(self, txn: Transaction) -> None:
        self._transactions.finish(txn)


_COUNT_SCHEMA = Schema([Column("affected_rows", "integer")])


def _snapshot_chunk(snapshot: ColumnSnapshot, start: int, stop: int) -> Relation:
    """Rows ``start:stop`` of a table snapshot, each column the snapshot's
    own vector sliced: a read-only view, no value copied or converted."""
    columns = [snapshot.column(i)[start:stop] for i in range(len(snapshot.schema))]
    return Relation.from_columns(snapshot.schema, columns, stop - start)

