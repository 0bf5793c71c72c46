"""The Myria island: relational algebra extended with iteration.

Myria's programming model is relational algebra plus iteration, with an
optimizer that picks which backend executes each piece (Section 2.1.1).  The
island exposes:

* a programmatic plan API (:class:`MyriaPlan` built from scan / select /
  project / join / group_by steps), and
* ``iterate(...)`` — run a plan repeatedly, feeding each iteration's output
  back in, until a fixpoint or an iteration cap, which is how Myria expresses
  recursive analytics such as reachability.

Backends are chosen per scan by a simple cost rule: prefer the engine that
already stores the object (no movement), breaking ties toward SQL-capable
engines which can evaluate pushed-down predicates natively.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.common.errors import PlanningError
from repro.common.schema import Relation, Row
from repro.core.islands.base import Island
from repro.engines.base import EngineCapability


@dataclass
class MyriaStep:
    """One relational-algebra step."""

    kind: str  # scan | select | project | join | group_by
    options: dict = field(default_factory=dict)


@dataclass
class MyriaPlan:
    """A linear plan of relational-algebra steps (joins reference a second plan)."""

    steps: list[MyriaStep] = field(default_factory=list)

    # Fluent builders -------------------------------------------------------
    def scan(self, object_name: str) -> "MyriaPlan":
        self.steps.append(MyriaStep("scan", {"object": object_name}))
        return self

    def select(self, predicate: Callable[[Row], bool]) -> "MyriaPlan":
        self.steps.append(MyriaStep("select", {"predicate": predicate}))
        return self

    def project(self, columns: list[str]) -> "MyriaPlan":
        self.steps.append(MyriaStep("project", {"columns": columns}))
        return self

    def join(self, other: "MyriaPlan", left_column: str, right_column: str) -> "MyriaPlan":
        self.steps.append(MyriaStep("join", {"other": other, "left": left_column, "right": right_column}))
        return self

    def group_by(self, keys: list[str], aggregates: dict[str, tuple[str, str]]) -> "MyriaPlan":
        """``aggregates`` maps output name -> (function, column); function in count/sum/avg/min/max."""
        self.steps.append(MyriaStep("group_by", {"keys": keys, "aggregates": aggregates}))
        return self


class MyriaIsland(Island):
    """Relational algebra with iteration over any engine with a relational shim."""

    name = "myria"

    def can_answer(self, query: str) -> bool:
        return False  # Myria queries are programmatic plans, not text.

    def execute(self, query) -> Relation:  # type: ignore[override]
        """Execute a :class:`MyriaPlan` (text queries are not part of this island)."""
        if not isinstance(query, MyriaPlan):
            raise PlanningError("the Myria island executes MyriaPlan objects")
        self.queries_executed += 1
        return self._run(query)

    def iterate(self, plan_fn: Callable[[Relation], MyriaPlan], seed: Relation,
                max_iterations: int = 25) -> tuple[Relation, int]:
        """Iterate-to-fixpoint: repeatedly build and run a plan from the previous result.

        Returns (final relation, iterations executed).  The fixpoint test is
        set equality of row tuples.
        """
        self.queries_executed += 1
        current = seed
        seen = {tuple(sorted(row.values for row in current.rows))}
        for iteration in range(1, max_iterations + 1):
            plan = plan_fn(current)
            nxt = self._run(plan)
            signature = tuple(sorted(row.values for row in nxt.rows))
            if signature in seen:
                return nxt, iteration
            seen.add(signature)
            current = nxt
        return current, max_iterations

    # ----------------------------------------------------------------- engine
    def _scan(self, object_name: str) -> Relation:
        engine = self._choose_backend(object_name)
        return engine.export_relation(object_name)

    def _choose_backend(self, object_name: str):
        """Prefer the engine already holding the object; tie-break toward SQL engines."""
        members = self.member_engines()
        location = self.catalog.locate_for_read(
            object_name, members=[e.name for e in members]
        )
        holders = [e for e in members if e.name.lower() == location.engine_name]
        if holders:
            return holders[0]
        sql_engines = [e for e in members if e.capabilities & EngineCapability.SQL]
        if sql_engines:
            return sql_engines[0]
        if members:
            return members[0]
        return self.catalog.engine(location.engine_name)

    # -------------------------------------------------------------- evaluation
    def _run(self, plan: MyriaPlan) -> Relation:
        current: Relation | None = None
        for step in plan.steps:
            if step.kind == "scan":
                current = self._scan(step.options["object"])
            elif current is None:
                raise PlanningError("a Myria plan must start with a scan")
            elif step.kind == "select":
                predicate = step.options["predicate"]
                current = Relation(current.schema, [row for row in current.rows if predicate(row)])
            elif step.kind == "project":
                columns = step.options["columns"]
                schema = current.schema.project(columns)
                current = Relation.from_columns(
                    schema, [current.column_vector(current.schema.index_of(c)) for c in columns],
                    len(current),
                )
            elif step.kind == "join":
                current = self._join(current, step)
            elif step.kind == "group_by":
                current = self._group_by(current, step)
            else:
                raise PlanningError(f"unknown Myria step kind {step.kind!r}")
        if current is None:
            raise PlanningError("empty Myria plan")
        return current

    def _join(self, left: Relation, step: MyriaStep) -> Relation:
        right = self._run(step.options["other"])
        left_col, right_col = step.options["left"], step.options["right"]
        joined_schema = left.schema.prefixed("l").concat(right.schema.prefixed("r"))
        build: dict = {}
        for row in right.rows:
            build.setdefault(row[right_col], []).append(row)
        return Relation(joined_schema, [
            row.values + match.values
            for row in left.rows
            for match in build.get(row[left_col], [])
        ])

    def _group_by(self, child: Relation, step: MyriaStep) -> Relation:
        from repro.engines.relational.functions import make_aggregate

        keys: list[str] = step.options["keys"]
        aggregates: dict[str, tuple[str, str]] = step.options["aggregates"]
        groups: dict[tuple, dict[str, object]] = {}
        for row in child.rows:
            group_key = tuple(row[k] for k in keys)
            if group_key not in groups:
                groups[group_key] = {
                    name: make_aggregate(fn, count_star=(column == "*"))
                    for name, (fn, column) in aggregates.items()
                }
            for name, (fn, column) in aggregates.items():
                value = 1 if column == "*" else row[column]
                groups[group_key][name].add(value)
        from repro.common.schema import Column, Schema
        from repro.common.types import DataType

        columns = [child.schema.column(k) for k in keys]
        columns += [Column(name, DataType.FLOAT) for name in aggregates]
        return Relation(Schema(columns), [
            list(group_key) + [accumulators[name].result() for name in aggregates]
            for group_key, accumulators in groups.items()
        ])
