"""The BigDAWG polystore facade.

This is the public entry point of the reproduction: it wires the catalog, the
islands, the CAST migrator, the cross-island planner and the monitor into one
object, mirroring Figure 1 of the paper.

Typical usage::

    from repro import BigDawg
    from repro.engines.relational import RelationalEngine
    from repro.engines.array import ArrayEngine

    bd = BigDawg()
    bd.add_engine(RelationalEngine("postgres"), islands=["relational", "myria", "d4m"])
    bd.add_engine(ArrayEngine("scidb"), islands=["array", "relational", "myria", "d4m"])

    bd.execute("RELATIONAL(SELECT count(*) FROM patients WHERE age > 65)")
    bd.execute("ARRAY(aggregate(waveform_history, avg(value)))")
    bd.execute("RELATIONAL(SELECT * FROM CAST(waveform_history, relational) WHERE value > 5)")
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Any

from repro.common.errors import CatalogError, ObjectNotFoundError, ParseError, PlanningError
from repro.common.schema import Relation
from repro.core.cast import CastMigrator, CastRecord
from repro.core.catalog import BigDawgCatalog
from repro.core.islands.array import ArrayIsland
from repro.core.islands.base import Island
from repro.core.islands.d4m import D4MIsland
from repro.core.islands.degenerate import DegenerateIsland
from repro.core.islands.myria import MyriaIsland
from repro.core.islands.relational import RelationalIsland
from repro.core.islands.text import TextIsland
from repro.core.monitor import ExecutionMonitor, MigrationAdvisor
from repro.core.query.language import is_scoped_query, parse_query
from repro.core.query.planner import CrossIslandPlanner, QueryPlan
from repro.engines.base import Engine
from repro.engines.relational.engine import RelationalEngine

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.scheduler import PolystoreRuntime


#: Default island memberships per engine kind, matching the paper's Figure 1.
DEFAULT_ISLANDS_BY_KIND = {
    "relational": ["relational", "myria", "d4m"],
    "array": ["array", "relational", "myria", "d4m"],
    "keyvalue": ["text", "relational", "d4m"],
    "streaming": ["relational"],
    "tiledb": ["array", "relational"],
    "tupleware": ["relational"],
}


class BigDawg:
    """The polystore: engines + islands + SCOPE/CAST query processing."""

    def __init__(self) -> None:
        self.catalog = BigDawgCatalog()
        self.migrator = CastMigrator(self.catalog)
        self.monitor = ExecutionMonitor()
        self.advisor = MigrationAdvisor(self.catalog, self.monitor, self.migrator)
        self._islands: dict[str, Island] = {
            "relational": RelationalIsland(self.catalog),
            "array": ArrayIsland(self.catalog),
            "text": TextIsland(self.catalog),
            "d4m": D4MIsland(self.catalog),
            "myria": MyriaIsland(self.catalog),
        }
        self._degenerate: dict[str, DegenerateIsland] = {}
        self._planner = CrossIslandPlanner(self)
        self._temp_engine: RelationalEngine | None = None
        self._temp_engine_lock = threading.Lock()
        self._runtime: "PolystoreRuntime | None" = None
        self._runtime_lock = threading.Lock()

    @property
    def planner(self) -> CrossIslandPlanner:
        """The cross-island planner (the runtime drives it step by step)."""
        return self._planner

    def runtime(self, **config: Any) -> "PolystoreRuntime":
        """The concurrent serving layer for this polystore, created lazily.

        ``config`` (``workers=``, ``slots_per_engine=``, ...) applies only on
        the call that creates the runtime; construct
        :class:`~repro.runtime.scheduler.PolystoreRuntime` directly for
        several differently-tuned runtimes over one polystore.
        """
        with self._runtime_lock:
            if self._runtime is None:
                from repro.runtime.scheduler import PolystoreRuntime

                self._runtime = PolystoreRuntime(self, **config)
            return self._runtime

    # ------------------------------------------------------------------ wiring
    def add_engine(self, engine: Engine, islands: list[str] | None = None) -> None:
        """Register an engine, join it to islands, and create its degenerate island."""
        memberships = islands if islands is not None else DEFAULT_ISLANDS_BY_KIND.get(engine.kind, [])
        self.catalog.register_engine(engine, memberships)
        self._degenerate[engine.name.lower()] = DegenerateIsland(self.catalog, engine)

    def engine(self, name: str) -> Engine:
        return self.catalog.engine(name)

    def island(self, name: str) -> Island:
        key = name.lower()
        if key in self._islands:
            return self._islands[key]
        if key.startswith("degenerate_"):
            engine_name = key[len("degenerate_"):]
            if engine_name in self._degenerate:
                return self._degenerate[engine_name]
        if key in self._degenerate:
            return self._degenerate[key]
        raise ObjectNotFoundError(f"no island named {name!r}")

    def islands(self) -> list[Island]:
        return list(self._islands.values()) + list(self._degenerate.values())

    def degenerate_island(self, engine_name: str) -> DegenerateIsland:
        key = engine_name.lower()
        if key not in self._degenerate:
            raise ObjectNotFoundError(f"no degenerate island for engine {engine_name!r}")
        return self._degenerate[key]

    # ------------------------------------------------------------------- query
    def execute(self, query: str, cast_method: str = "binary",
                chunk_size: int | None = None) -> Relation:
        """Execute a BigDAWG query.

        Accepts either a scoped query (``RELATIONAL(...)``, ``ARRAY(...)``, ...)
        — possibly with ``WITH`` bindings and ``CAST`` terms — or bare island
        text, in which case the island is chosen automatically from the ones
        whose ``can_answer`` matches.  ``cast_method`` and ``chunk_size`` set
        the policy for any CASTs the plan performs.
        """
        stripped = query.strip()
        if is_scoped_query(stripped):
            return self._planner.execute(
                parse_query(stripped), cast_method=cast_method, chunk_size=chunk_size
            )
        island = self._choose_island(stripped)
        return island.execute(stripped)

    def explain(self, query: str, cast_method: str = "binary",
                chunk_size: int | None = None) -> str:
        """Return the cross-island plan for a scoped query as numbered steps.

        Pass the same ``cast_method``/``chunk_size`` the query will be
        executed with so the explained CAST steps match what would run.
        """
        if not is_scoped_query(query):
            island = self._choose_island(query.strip())
            return f"1. EXECUTE on island {island.name.upper()}"
        return self.plan(query, cast_method=cast_method, chunk_size=chunk_size).explain()

    def plan(self, query: str, cast_method: str = "binary",
             chunk_size: int | None = None) -> QueryPlan:
        return self._planner.plan(
            parse_query(query.strip()), cast_method=cast_method, chunk_size=chunk_size
        )

    def cast(self, object_name: str, target_engine: str, method: str = "binary",
             chunk_size: int | None = None, **options: Any) -> CastRecord:
        """Explicitly CAST an object to another engine."""
        return self.migrator.cast(
            object_name, target_engine, method=method, chunk_size=chunk_size, **options
        )

    # ----------------------------------------------------------------- helpers
    @staticmethod
    def is_scoped(query: str) -> bool:
        """Whether the query is in SCOPE/CAST form (vs bare island text):
        it opens the way :func:`parse_query` reads a WITH binding or a scope."""
        return is_scoped_query(query)

    def _choose_island(self, query: str) -> Island:
        candidates = [island for island in self._islands.values() if island.can_answer(query)]
        if not candidates:
            raise PlanningError(
                f"no island recognizes the query; wrap it in a scope such as RELATIONAL(...): {query[:60]!r}"
            )
        if len(candidates) == 1:
            return candidates[0]
        # Common semantics: prefer the island whose engines hold the referenced objects.
        for island in candidates:
            try:
                objects = island.parse(query).objects
                engines = {self.catalog.locate(name).engine_name for name in objects}
            except (ObjectNotFoundError, ParseError):
                continue
            members = {e.name.lower() for e in island.member_engines()}
            if engines <= members:
                return island
        return candidates[0]

    def materialize_temporary(self, name: str, relation: Relation) -> None:
        """Store a WITH-binding result as a table visible to later scopes.

        The object is registered as ``temporary`` so :meth:`drop_temporary`
        (called by plan executions when they finish, and by runtime sessions
        when they close) can retire it from both the engine and the catalog.
        Temporaries always land in the dedicated ephemeral engine: their
        constant churn then never advances a production engine's write
        version, so the result cache stays warm across WITH queries.
        """
        target = self.temp_engine()
        target.import_relation(name, relation)
        self.catalog.register_object(name, target.name, "table", replace=True, temporary=True)

    def drop_temporary(self, name: str) -> bool:
        """Drop a temporary object from its engine and the catalog.

        Returns False when the object no longer exists; raises
        :class:`~repro.common.errors.CatalogError` when asked to drop an
        object that was not registered as temporary.
        """
        try:
            location = self.catalog.locate(name)
        except ObjectNotFoundError:
            return False
        if not location.properties.get("temporary"):
            raise CatalogError(f"object {name!r} is not temporary; refusing to drop it")
        try:
            self.catalog.engine(location.engine_name).drop_object(location.name)
        except ObjectNotFoundError:
            pass
        self.catalog.unregister_object(name)
        return True

    def temp_engine(self) -> RelationalEngine:
        """The ephemeral relational engine holding WITH/session temporaries.

        Created lazily and joined to the relational-model islands so temps
        stay reachable from every scope that could previously see them;
        registering it runs the catalog's engine setup, so under a runtime
        it gets the runtime's parallelism and worker budget.
        """
        with self._temp_engine_lock:
            if self._temp_engine is None:
                engine = RelationalEngine("_bigdawg_temp")
                engine.ephemeral = True
                self.catalog.register_engine(engine, ["relational", "myria", "d4m"])
                self._temp_engine = engine
            return self._temp_engine

    # ------------------------------------------------------------------ status
    def describe(self) -> dict:
        """A status snapshot: engines, islands, objects, casts performed."""
        return {
            "catalog": self.catalog.describe(),
            "islands": {island.name: island.describe() for island in self.islands()},
            "casts": len(self.migrator.history),
            "observations": len(self.monitor.observations),
        }
