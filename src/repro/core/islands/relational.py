"""The relational island: SQL over every engine that has a relational shim.

The island offers the *intersection* of capabilities — plain SQL — over all of
its member engines.  Queries whose tables all live in one SQL-capable engine
are pushed down and executed natively; queries touching objects stored in
non-SQL engines (or spanning engines) fetch each referenced object through
its relational shim and run the SQL in a scratch relational engine, where
every export is a read-only foreign table: scanned in place, never copied
into a heap, and refusing any write (a write there would change a copy).

Each statement is parsed once (:meth:`RelationalIsland.parse`): its tables
are read off the AST, and the engine that runs it receives the text with
that AST, which it does not parse again.
"""

from __future__ import annotations

from dataclasses import replace

from repro.common.errors import TransientEngineError
from repro.common.schema import Relation
from repro.core.islands.base import Island, IslandStatement
from repro.engines.base import EngineCapability
from repro.engines.relational.engine import ParsedSql, RelationalEngine
from repro.engines.relational.sql.ast import SelectStatement, Statement, TableRef


class RelationalIsland(Island):
    """SQL over the federation."""

    name = "relational"

    def can_answer(self, query: str) -> bool:
        stripped = query.strip().lower()
        return stripped.startswith(("select", "insert", "update", "delete", "create", "drop"))

    def parse(self, text: str) -> IslandStatement:
        """The statement's tables (a SELECT's FROM and JOIN tables, subqueries
        included); every statement but a SELECT writes."""
        sql = RelationalEngine.parse(text)
        writes = not isinstance(sql.statement, SelectStatement)
        return IslandStatement(text, tuple(_tables(sql.statement)), writes, sql)

    def rebind(self, statement: IslandStatement, renames: dict[str, str]) -> IslandStatement:
        """Table references (FROM, JOIN, FROM-subqueries, a write's target)
        renamed, an unaliased one aliased to its logical name, so qualifiers
        and output columns keep it; the text, which logs show, keeps it too."""
        objects = tuple(renames.get(name.lower(), name) for name in statement.objects)
        if objects == statement.objects:
            return statement
        sql = _renamed(statement.parsed.statement, renames)
        return IslandStatement(statement.text, objects, statement.writes, ParsedSql(statement.text, sql))

    def execute(self, query: str | IslandStatement) -> Relation:
        self.queries_executed += 1
        statement = self.statement(query)
        sql, tables, is_write = statement.parsed, statement.objects, statement.writes
        if not tables:
            # Table-free SELECT (constant expressions): run on any SQL engine.
            return self._any_sql_engine().execute(sql)
        placements = {
            table: self.engine_for_object(table, for_write=is_write)
            for table in tables
        }
        engines = {engine.name for engine in placements.values()}
        # A transient dispatch failure (engine down, connection dropped) is,
        # by the retry contract, raised *before* the engine applied anything
        # — the copies did not diverge, so replicas must stay fresh: a
        # write-failover election needs one to promote.  Any other failure
        # may have half-applied, so over-invalidating stays the safe default.
        failed_before_apply = False
        try:
            if len(engines) == 1:
                only_engine = next(iter(placements.values()))
                if only_engine.capabilities & EngineCapability.SQL:
                    # Single SQL-capable engine: push the whole query down.
                    return only_engine.execute(sql)
            # Cross-engine (or non-SQL source): each object's export becomes a
            # read-only foreign table of a scratch engine, scanned in place.
            scratch = self.catalog.setup_engine(RelationalEngine("_relational_island_scratch"))
            try:
                for table, engine in placements.items():
                    relation = engine.export_relation(table)
                    scratch.attach_foreign(table, relation, engine.name)
                return scratch.execute(sql)
            finally:
                # An engine is a reference cycle: dropped with it, the
                # exported columns would sit in memory until the cyclic
                # collector next runs a full pass.
                for table in scratch.list_objects():
                    scratch.drop_object(table)
        except TransientEngineError:
            failed_before_apply = True
            raise
        finally:
            if is_write and not failed_before_apply:
                for table, engine in placements.items():
                    # Stale-marks the other copies; a no-op without replicas.
                    if self.catalog.replicas(table):
                        self.catalog.note_object_write(table, engine.name)

    # ----------------------------------------------------------------- helpers
    def _any_sql_engine(self) -> RelationalEngine:
        for engine in self.member_engines():
            if isinstance(engine, RelationalEngine):
                return engine
        return self.catalog.setup_engine(RelationalEngine("_relational_island_scratch"))


def _renamed(statement: Statement, renames: dict[str, str]) -> Statement:
    """A copy of ``statement`` whose table references follow ``renames``."""
    if not isinstance(statement, SelectStatement):
        return replace(statement, table=renames.get(statement.table.lower(), statement.table))

    def ref(table: TableRef | None) -> TableRef | None:
        if table is None:
            return None
        if table.subquery is not None:
            return replace(table, subquery=_renamed(table.subquery, renames))
        physical = renames.get(table.name.lower())
        return table if physical is None else TableRef(physical, table.alias or table.name)

    return replace(
        statement, from_table=ref(statement.from_table),
        joins=[replace(join, table=ref(join.table)) for join in statement.joins],
    )


def _tables(statement: Statement) -> list[str]:
    """The table names ``statement`` references, first mention first."""
    if not isinstance(statement, SelectStatement):
        return [statement.table]
    tables: dict[str, str] = {}

    def visit(select: SelectStatement) -> None:
        refs = [select.from_table] + [join.table for join in select.joins]
        for ref in refs:
            if ref is None:
                continue
            if ref.subquery is not None:
                visit(ref.subquery)
            elif ref.name is not None:
                tables.setdefault(ref.name.lower(), ref.name)

    visit(statement)
    return list(tables.values())
