"""Cross-island query planning and execution.

The planner turns a parsed :class:`CrossIslandQuery` into an ordered list of
steps:

1. :class:`CastStep` — for every ``CAST(object, island)``, move the object to
   an engine that is a member of the target island (skipped when the object is
   already reachable there).
2. :class:`BindingStep` — materialize each ``WITH name = SCOPE(...)`` result
   into the relational engine as a temporary table so later scopes can read it.
3. :class:`IslandQueryStep` — run the final scoped query on its island.

Each scope is parsed once, by its island, when the plan is built; an
execution renames the WITH bindings a statement reads on that parse
(:meth:`Island.rebind`), never on its text.

Island selection for un-scoped queries: when the user supplies bare query
text, the planner asks each island ``can_answer`` and, if several overlap
(common semantics, Section 2.1), picks the one whose engines already hold the
referenced objects — the automatic-processing-choice behaviour the paper
describes.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.common.errors import CastError, PlanningError
from repro.common.schema import Relation
from repro.core.query.language import CrossIslandQuery, ScopedQuery, parse_query
from repro.observability.tracing import NULL_SPAN, get_tracer

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.bigdawg import BigDawg
    from repro.core.islands.base import IslandStatement


#: SQL emitted per join type by :func:`render_join_sql`.  RIGHT/FULL OUTER
#: JOIN are first-class here: the relational island executes every shape the
#: engine's planner supports, so cross-island queries can reach them too.
JOIN_SQL = {
    "inner": "JOIN",
    "left": "LEFT OUTER JOIN",
    "right": "RIGHT OUTER JOIN",
    "full": "FULL OUTER JOIN",
    "cross": "CROSS JOIN",
}


def render_join_sql(
    left: str,
    right: str,
    on: "str | tuple[str, str] | None" = None,
    join_type: str = "inner",
    columns: "list[str] | None" = None,
    where: str | None = None,
) -> str:
    """Generate relational-island SQL joining two objects.

    ``on`` is either literal join-condition SQL or a ``(left_column,
    right_column)`` equality pair; ``columns`` defaults to ``*``.  ``left``
    and ``right`` may be bare object names or ``CAST(obj, island)`` terms —
    the island query language treats both as table references.
    """
    key = join_type.lower()
    if key not in JOIN_SQL:
        raise PlanningError(
            f"unknown join type {join_type!r}; expected one of {sorted(JOIN_SQL)}"
        )
    if key == "cross":
        if on is not None:
            raise PlanningError("a CROSS JOIN takes no ON condition")
        condition = ""
    else:
        if on is None:
            raise PlanningError(f"a {key} join needs an ON condition")
        if isinstance(on, tuple):
            left_column, right_column = on
            condition = f" ON {left_column} = {right_column}"
        else:
            condition = f" ON {on}"
    select_list = ", ".join(columns) if columns else "*"
    sql = f"SELECT {select_list} FROM {left} {JOIN_SQL[key]} {right}{condition}"
    if where:
        sql += f" WHERE {where}"
    return sql


@dataclass
class CastStep:
    """Move an object so it becomes reachable through the target island.

    ``source_engine`` names the copy to export from when the planner routed
    around an unhealthy primary — a fresh replica serving the failover path;
    ``None`` means the primary.
    """

    object_name: str
    target_island: str
    target_engine: str
    method: str = "binary"
    chunk_size: int | None = None
    source_engine: str | None = None

    def describe(self) -> str:
        detail = self.method if self.chunk_size is None else f"{self.method}, chunks of {self.chunk_size}"
        if self.source_engine is not None:
            detail += f", from replica on {self.source_engine}"
        return (
            f"CAST {self.object_name} -> engine {self.target_engine} "
            f"(island {self.target_island}, {detail})"
        )


@dataclass
class BindingStep:
    """Materialize a named intermediate result as a relational temp table."""

    name: str
    scope: ScopedQuery
    statement: "IslandStatement"

    def describe(self) -> str:
        return f"BIND {self.name} = {self.scope.island.upper()}(...)"


@dataclass
class IslandQueryStep:
    """Run the final island query."""

    scope: ScopedQuery
    statement: "IslandStatement"

    def describe(self) -> str:
        return f"EXECUTE on island {self.scope.island.upper()}"


@dataclass
class QueryPlan:
    """The ordered steps of a polystore query and their dependencies.

    Each step's execution time is its ``step.<Type>`` span, recorded by
    :meth:`PlanExecution.run_step` when the thread's tracer is enabled.

    ``dependencies[i]`` holds the indices of the steps that must complete
    before step ``i`` may run.  Serial execution simply runs steps in order
    (the order is always a valid topological sort); the concurrent runtime
    uses the dependency sets to overlap independent steps — e.g. the
    materializations of unrelated WITH bindings.
    """

    steps: list = field(default_factory=list)
    dependencies: list[set[int]] = field(default_factory=list)

    def explain(self) -> str:
        return "\n".join(f"{i + 1}. {step.describe()}" for i, step in enumerate(self.steps))

    def step_dependencies(self) -> list[set[int]]:
        """A copy of the per-step prerequisite sets."""
        return [set(deps) for deps in self.dependencies]


class CrossIslandPlanner:
    """Builds and executes query plans against a :class:`BigDawg` instance."""

    def __init__(self, bigdawg: "BigDawg") -> None:
        self._bigdawg = bigdawg

    # ------------------------------------------------------------------ plan
    def plan(self, query: CrossIslandQuery | str, cast_method: str = "binary",
             chunk_size: int | None = None) -> QueryPlan:
        if isinstance(query, str):
            query = parse_query(query)
        if query.final is None:
            raise PlanningError("a BigDAWG query needs a final scoped query")
        plan = QueryPlan()
        cast_index_by_object: dict[str, int] = {}
        binding_indices: list[int] = []

        def add_step(step, deps: set[int]) -> int:
            plan.steps.append(step)
            plan.dependencies.append(deps)
            return len(plan.steps) - 1

        def add_cast_steps(scope: ScopedQuery) -> set[int]:
            indices: set[int] = set()
            for cast_step in self._cast_steps(scope, cast_method, chunk_size):
                key = cast_step.object_name.lower()
                # Two casts of the same object must not race; chain them.
                deps = {cast_index_by_object[key]} if key in cast_index_by_object else set()
                index = add_step(cast_step, deps)
                cast_index_by_object[key] = index
                indices.add(index)
            return indices

        for name, scope in [*query.bindings, (None, query.final)]:
            statement = self._bigdawg.island(scope.island).parse(scope.body_without_casts)
            deps = add_cast_steps(scope)
            if name is None:
                add_step(IslandQueryStep(scope, statement), deps | set(binding_indices))
            else:
                # A binding waits for the earlier ones its statement reads:
                # bindings that read none of each other run concurrently.
                reads = {object_name.lower() for object_name in statement.objects}
                deps |= {i for i in binding_indices if plan.steps[i].name.lower() in reads}
                binding_indices.append(add_step(BindingStep(name, scope, statement), deps))
        return plan

    def _cast_steps(self, scope: ScopedQuery, cast_method: str = "binary",
                    chunk_size: int | None = None) -> list[CastStep]:
        steps = []
        catalog = self._bigdawg.catalog
        for cast in scope.casts:
            if self._reachable(cast.object_name, cast.target_island):
                continue
            # Export from a healthy replica when the primary is down.
            healthy = [
                loc.engine_name for loc in catalog.fresh_locations(cast.object_name)
                if catalog.engine_is_healthy(loc.engine_name)
            ]
            primary = catalog.locate(cast.object_name).engine_name
            steps.append(
                CastStep(cast.object_name, cast.target_island,
                         self._choose_target_engine(cast.target_island),
                         method=cast_method, chunk_size=chunk_size,
                         source_engine=healthy[0] if healthy and primary not in healthy else None)
            )
        return steps

    def _choose_target_engine(self, island_name: str) -> str:
        island = self._bigdawg.island(island_name)
        members = island.member_engines()
        if not members:
            raise PlanningError(f"island {island_name!r} has no member engines to cast into")
        # Prefer the island's "natural" engine kind: relational -> relational,
        # etc. — and within each preference tier, a healthy engine over one
        # whose breaker is open.
        catalog = self._bigdawg.catalog
        preferred_kind = {
            "relational": "relational",
            "array": "array",
            "text": "keyvalue",
            "d4m": "keyvalue",
            "myria": "relational",
        }.get(island_name.lower())
        natural = [engine for engine in members if engine.kind == preferred_kind]
        for pool in (natural, members):
            for engine in pool:
                if catalog.engine_is_healthy(engine.name):
                    return engine.name
        return (natural or members)[0].name

    # ------------------------------------------------------------ joins as SQL
    def join_query(
        self,
        left: str,
        right: str,
        on: "str | tuple[str, str] | None" = None,
        join_type: str = "inner",
        columns: "list[str] | None" = None,
        where: str | None = None,
    ) -> str:
        """Generate a full cross-island query joining two catalog objects.

        Either object may live outside the relational island — it is
        wrapped in a ``CAST(obj, relational)`` term, so planning emits the
        migration ahead of the join.  All five join shapes the relational
        engine executes (inner, left/right/full outer, cross) are emitted;
        RIGHT and FULL OUTER are exactly the shapes ROADMAP item (i) asked
        to make reachable cross-island.
        """
        left_ref = self._relational_table_ref(left)
        right_ref = self._relational_table_ref(right)
        body = render_join_sql(
            left_ref, right_ref, on=on, join_type=join_type, columns=columns,
            where=where,
        )
        return f"RELATIONAL({body})"

    def _relational_table_ref(self, object_name: str) -> str:
        """The object name, CAST-wrapped when not reachable relationally."""
        island = self._bigdawg.island("relational")
        members = {engine.name.lower() for engine in island.member_engines()}
        location = self._bigdawg.catalog.locate(object_name)
        if location.engine_name in members:
            return object_name
        return f"CAST({object_name}, relational)"

    def plan_join(
        self,
        left: str,
        right: str,
        on: "str | tuple[str, str] | None" = None,
        join_type: str = "inner",
        columns: "list[str] | None" = None,
        where: str | None = None,
        cast_method: str = "binary",
        chunk_size: int | None = None,
    ) -> QueryPlan:
        query = self.join_query(
            left, right, on=on, join_type=join_type, columns=columns, where=where
        )
        return self.plan(query, cast_method=cast_method, chunk_size=chunk_size)

    def execute_join(
        self,
        left: str,
        right: str,
        on: "str | tuple[str, str] | None" = None,
        join_type: str = "inner",
        columns: "list[str] | None" = None,
        where: str | None = None,
        cast_method: str = "binary",
        chunk_size: int | None = None,
    ) -> Relation:
        plan = self.plan_join(
            left, right, on=on, join_type=join_type, columns=columns, where=where,
            cast_method=cast_method, chunk_size=chunk_size,
        )
        return self.execute_plan(plan)

    # --------------------------------------------------------------- execution
    def execute(self, query: CrossIslandQuery | str, cast_method: str = "binary",
                chunk_size: int | None = None) -> Relation:
        return self.execute_plan(self.plan(query, cast_method=cast_method, chunk_size=chunk_size))

    def start(self, plan: QueryPlan) -> "PlanExecution":
        """Begin executing a plan; the caller drives steps and must ``cleanup``."""
        return PlanExecution(self, plan)

    def execute_plan(self, plan: QueryPlan) -> Relation:
        """Run a plan serially; cast policy comes from the fields baked into
        each step.  WITH-binding temporaries are dropped when the plan
        finishes (the concurrent runtime drives the same :class:`PlanExecution`
        machinery step by step, possibly in parallel)."""
        execution = self.start(plan)
        try:
            for index in range(len(plan.steps)):
                execution.run_step(index)
            return execution.finish()
        finally:
            execution.cleanup()

    def _reachable(self, object_name: str, island_name: str) -> bool:
        """Whether a CAST of the object into the island is a no-op: a fresh
        healthy copy is inside it, or every copy is unhealthy and a fresh one
        is inside (a cast has nothing healthy to read; dispatch-time retry
        and failover handle it).  Planning skips such a cast, and a cast step
        checks again as it runs: a concurrent plan or an advisor migration
        may have moved the object since."""
        island = self._bigdawg.island(island_name)
        members = {engine.name.lower() for engine in island.member_engines()}
        catalog = self._bigdawg.catalog
        fresh = catalog.fresh_locations(object_name)
        healthy = [loc for loc in fresh if catalog.engine_is_healthy(loc.engine_name)]
        return any(loc.engine_name in members for loc in healthy or fresh)

    def _cast_options(self, step: CastStep) -> dict:
        """Extra import options needed by particular target engines."""
        engine = self._bigdawg.catalog.engine(step.target_engine)
        if engine.kind == "array":
            # Casting rows into the array engine: use the leading integer columns
            # as dimensions when possible (the schema comes from metadata).
            schema = self._bigdawg.catalog.schema_of(step.object_name)
            from repro.common.types import DataType

            dims = []
            for column in schema.columns:
                if column.dtype is DataType.INTEGER:
                    dims.append(column.name)
                else:
                    break
            if dims and len(dims) < len(schema):
                # All leading integer columns become dimensions: a
                # (signal, sample, window) keyed relation casts into a
                # 3-dimensional array, not a truncated 2-dimensional one.
                return {"dimensions": dims}
        return {}


#: Process-wide counter giving every plan execution a unique namespace for its
#: WITH-binding temporaries (``next`` on :func:`itertools.count` is atomic).
_EXECUTION_IDS = itertools.count(1)


class PlanExecution:
    """One in-flight execution of a :class:`QueryPlan`.

    Responsibilities beyond running steps:

    * **Session-scoped temporaries.**  WITH bindings materialize under a
      per-execution physical name (``name__p<id>``) and are dropped from both
      the engine and the catalog in :meth:`cleanup`, so repeated queries do
      not accumulate state and concurrent plans using the same binding name
      never collide on the shared relational engine.
    * **Run-time cast elision.**  Each :class:`CastStep` re-checks object
      reachability just before running and is skipped when the cast became a
      no-op after planning (another plan already moved the object).
    * **Thread safety.**  ``run_step`` may be called from several threads for
      *disjoint* steps whose dependencies are satisfied; shared bookkeeping is
      guarded by a lock.
    """

    def __init__(self, planner: "CrossIslandPlanner", plan: QueryPlan) -> None:
        self._planner = planner
        self._bigdawg = planner._bigdawg
        self.plan = plan
        self._lock = threading.Lock()
        self._result: Relation | None = None
        namespace = f"p{next(_EXECUTION_IDS)}"
        self._renames: dict[str, str] = {}
        #: Per step, the renames of the bindings before it: a scope reads
        #: only earlier bindings, and any other name is a stored object.
        self._visible: list[dict[str, str]] = []
        for step in plan.steps:
            self._visible.append(dict(self._renames))
            if isinstance(step, BindingStep):
                self._renames[step.name.lower()] = f"{step.name}__{namespace}"
        self._materialized: list[str] = []
        self.skipped_casts: list[int] = []

    # ------------------------------------------------------------------ steps
    def statement(self, index: int) -> "IslandStatement":
        """Step ``index``'s statement, the WITH bindings before it that it
        reads under this execution's physical names."""
        step = self.plan.steps[index]
        return self._bigdawg.island(step.scope.island).rebind(
            step.statement, self._visible[index]
        )

    def run_step(self, index: int, statement: "IslandStatement | None" = None) -> None:
        """Run step ``index``; a scope step executes ``statement``, or
        :meth:`statement` of ``index`` when it is None."""
        step = self.plan.steps[index]
        tracer = get_tracer()
        with (
            tracer.span(f"step.{type(step).__name__}", kind="step", step=step.describe())
            if tracer.enabled else NULL_SPAN
        ):
            if isinstance(step, CastStep):
                self._run_cast(index, step)
                return
            relation = self._bigdawg.island(step.scope.island).execute(
                self.statement(index) if statement is None else statement
            )
            if isinstance(step, BindingStep):
                physical = self._renames[step.name.lower()]
                self._bigdawg.materialize_temporary(physical, relation)
                with self._lock:
                    self._materialized.append(physical)
            else:
                with self._lock:
                    self._result = relation

    def _run_cast(self, index: int, step: CastStep) -> None:
        migrator = self._bigdawg.migrator
        # Check and cast under the object's (re-entrant) cast lock: two plans
        # that both found the object unreachable must not both move it.
        with migrator.object_lock(step.object_name):
            if self._planner._reachable(step.object_name, step.target_island):
                with self._lock:
                    self.skipped_casts.append(index)
                return
            try:
                migrator.cast(
                    step.object_name,
                    step.target_engine,
                    method=step.method,
                    chunk_size=step.chunk_size,
                    source_engine=step.source_engine,
                    **self._planner._cast_options(step),
                )
            except CastError:
                # Lost a race with a cast made outside a plan (an advisor
                # migration): if the object is reachable now, that is
                # exactly the state this step wanted.
                if not self._planner._reachable(step.object_name, step.target_island):
                    raise
                with self._lock:
                    self.skipped_casts.append(index)

    # ----------------------------------------------------------------- result
    def finish(self) -> Relation:
        with self._lock:
            if self._result is None:
                raise PlanningError("plan produced no final result")
            return self._result

    def cleanup(self) -> None:
        """Drop every temporary this execution materialized (engine + catalog)."""
        with self._lock:
            materialized, self._materialized = self._materialized, []
        for name in materialized:
            self._bigdawg.drop_temporary(name)
