"""The BigDAWG catalog: which engines exist, which islands they join, and where
every data object lives.

The catalog is what gives users *location transparency* (Section 2.1): island
queries name objects, and the middleware asks the catalog which engine stores
each object and through which islands that engine is reachable.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Callable, Iterable

from repro.common.errors import CatalogError, DuplicateObjectError, ObjectNotFoundError
from repro.common.schema import Schema
from repro.engines.base import Engine


@dataclass
class ObjectLocation:
    """Where one copy of a data object lives and what it is.

    ``version`` tags the copy's content: a location is *fresh* when its
    version equals the catalog's current content version for the object,
    and *stale* (still present, no longer served reads) after another
    location absorbed a write.
    """

    name: str
    engine_name: str
    object_type: str  # table | array | stream | kvtable | dataset
    properties: dict = field(default_factory=dict)
    version: int = 0

    def __post_init__(self) -> None:
        # Engine names are case-insensitive everywhere else in the catalog;
        # normalizing here (the single place locations are created) means
        # consumers such as the planner can compare engine names directly.
        self.engine_name = self.engine_name.lower()


class BigDawgCatalog:
    """Registry of engines, island memberships and object placements."""

    def __init__(self) -> None:
        self._engines: dict[str, Engine] = {}
        self._island_members: dict[str, set[str]] = {}
        self._objects: dict[str, ObjectLocation] = {}
        # Replication: the primary stays in ``_objects`` (so ``locate`` keeps
        # its historical meaning), extra copies live here keyed
        # object -> engine -> location, and ``_content_versions`` holds the
        # current content tag a copy must carry to be considered fresh.
        self._replicas: dict[str, dict[str, ObjectLocation]] = {}
        self._content_versions: dict[str, int] = {}
        self._health_probe: Callable[[str], bool] | None = None
        self._engine_setup: Callable[[Engine], None] | None = None
        # Concurrent runtime support: every read and write goes through one
        # re-entrant lock, and every metadata mutation advances ``version`` so
        # the result cache can fingerprint catalog state cheaply.  Temporary
        # objects churn constantly (every WITH binding registers and retires
        # one), so their *fresh* registrations and retirements advance the
        # separate ``temp_version`` — temp names are unique per execution, no
        # cached query can reference them, and folding that churn into
        # ``version`` would invalidate the whole result cache on every WITH
        # query.  Replacing an object that already exists (temporary or not)
        # is a visible content change and always bumps ``version``.
        self._lock = threading.RLock()
        self._version = 0
        self._temp_version = 0
        #: ``(version, non-ephemeral engines)``, rebuilt by
        #: :meth:`durable_engines` the first time it is asked at a new version.
        self._durable: tuple[int, tuple[Engine, ...]] = (0, ())

    @property
    def version(self) -> int:
        """Monotonic counter advanced by every durable catalog mutation."""
        with self._lock:
            return self._version

    @property
    def temp_version(self) -> int:
        """Monotonic counter advanced by temporary-object churn."""
        with self._lock:
            return self._temp_version

    def _bump(self) -> None:
        self._version += 1  # callers hold self._lock

    # ----------------------------------------------------------------- engines
    def set_engine_setup(self, setup: Callable[[Engine], None] | None) -> None:
        """Install a callback every engine passes through before it serves:
        each one registered from now on, and each scratch engine an island
        makes for one query (:meth:`setup_engine`).

        The runtime wires this to its intra-query parallelism, so an engine
        created after it — the lazily made WITH-temporaries engine, a
        cross-engine query's scratch engine — runs under the same worker
        budget as the engines it found.  ``None`` removes the callback.
        """
        with self._lock:
            self._engine_setup = setup

    def setup_engine(self, engine: Engine) -> Engine:
        """Pass ``engine`` through the installed setup callback (if any)."""
        setup = self._engine_setup
        if setup is not None:
            setup(engine)
        return engine

    def register_engine(self, engine: Engine, islands: Iterable[str] = ()) -> None:
        """Register an engine and the islands through which it is reachable."""
        with self._lock:
            key = engine.name.lower()
            if key in self._engines:
                raise DuplicateObjectError(f"engine {engine.name!r} is already registered")
            self.setup_engine(engine)
            self._engines[key] = engine
            for island in islands:
                self._island_members.setdefault(island.lower(), set()).add(key)
            self._bump()

    def engine(self, name: str) -> Engine:
        with self._lock:
            key = name.lower()
            if key not in self._engines:
                raise ObjectNotFoundError(f"engine {name!r} is not registered")
            return self._engines[key]

    def engines(self) -> list[Engine]:
        with self._lock:
            return list(self._engines.values())

    def durable_engines(self) -> tuple[int, tuple[Engine, ...]]:
        """The durable catalog version and, at that version, every engine
        that is not ``ephemeral``, in registration order.

        The result cache fingerprints state with it on every lookup, so the
        tuple is built once per version and then read without the lock:
        registering an engine bumps the version, so an unchanged version
        means an unchanged engine list.  An engine's ``ephemeral`` flag is
        read when the tuple is built; set it before registering the engine.
        """
        durable = self._durable
        if durable[0] != self._version:
            with self._lock:
                durable = self._durable = (
                    self._version,
                    tuple(engine for engine in self._engines.values() if not engine.ephemeral),
                )
        return durable

    def has_engine(self, name: str) -> bool:
        with self._lock:
            return name.lower() in self._engines

    # ----------------------------------------------------------------- islands
    def add_island_member(self, island: str, engine_name: str) -> None:
        """Declare that an engine is reachable through an island."""
        with self._lock:
            if engine_name.lower() not in self._engines:
                raise ObjectNotFoundError(f"engine {engine_name!r} is not registered")
            self._island_members.setdefault(island.lower(), set()).add(engine_name.lower())
            self._bump()

    def island_engines(self, island: str) -> list[Engine]:
        """Engines reachable through an island."""
        with self._lock:
            members = self._island_members.get(island.lower(), set())
            return [self._engines[name] for name in sorted(members)]

    def islands(self) -> list[str]:
        with self._lock:
            return sorted(self._island_members)

    def islands_of_engine(self, engine_name: str) -> list[str]:
        with self._lock:
            key = engine_name.lower()
            return sorted(
                island for island, members in self._island_members.items() if key in members
            )

    # ----------------------------------------------------------------- objects
    def register_object(self, name: str, engine_name: str, object_type: str,
                        replace: bool = False, **properties) -> ObjectLocation:
        """Record that an object lives in an engine."""
        with self._lock:
            key = name.lower()
            if key in self._objects and not replace:
                raise DuplicateObjectError(f"object {name!r} is already registered")
            if engine_name.lower() not in self._engines:
                raise ObjectNotFoundError(f"engine {engine_name!r} is not registered")
            existed = key in self._objects
            if existed:
                # Replacing an object is new content at the named engine: the
                # content version advances, so surviving replicas turn stale.
                self._content_versions[key] = self._content_versions.get(key, 0) + 1
            content = self._content_versions.get(key, 0)
            location = ObjectLocation(
                name, engine_name, object_type, dict(properties), version=content
            )
            self._objects[key] = location
            # The new primary engine may previously have held a replica.
            self._replicas.get(key, {}).pop(location.engine_name, None)
            if properties.get("temporary") and not existed:
                self._temp_version += 1
            else:
                self._bump()
            return location

    def unregister_object(self, name: str) -> None:
        with self._lock:
            removed = self._objects.pop(name.lower(), None)
            self._replicas.pop(name.lower(), None)
            self._content_versions.pop(name.lower(), None)
            if removed is None:
                return
            if removed.properties.get("temporary"):
                self._temp_version += 1
            else:
                self._bump()

    def locate(self, name: str) -> ObjectLocation:
        """Find where an object lives, checking registrations first, then engines."""
        with self._lock:
            key = name.lower()
            if key in self._objects:
                return self._objects[key]
            # Fall back to asking the engines directly (objects created out-of-band).
            for engine in self._engines.values():
                if engine.has_object(name):
                    return ObjectLocation(name, engine.name, engine.kind)
        raise ObjectNotFoundError(f"object {name!r} is not stored in any registered engine")

    def has_object(self, name: str) -> bool:
        try:
            self.locate(name)
            return True
        except ObjectNotFoundError:
            return False

    def objects(self) -> list[ObjectLocation]:
        with self._lock:
            return list(self._objects.values())

    def objects_in_engine(self, engine_name: str) -> list[str]:
        with self._lock:
            key = engine_name.lower()
            registered = [loc.name for loc in self._objects.values() if loc.engine_name == key]
            engine = self.engine(engine_name)
            unregistered = [n for n in engine.list_objects() if n.lower() not in self._objects]
            return sorted(set(registered) | set(unregistered))

    def move_object(self, name: str, target_engine: str, object_type: str | None = None) -> ObjectLocation:
        """Update an object's recorded location (the migrator calls this after a CAST)."""
        with self._lock:
            current = self.locate(name)
            if target_engine.lower() not in self._engines:
                raise CatalogError(f"target engine {target_engine!r} is not registered")
            key = name.lower()
            location = ObjectLocation(
                current.name, target_engine, object_type or current.object_type,
                current.properties, version=self._content_versions.get(key, 0),
            )
            self._objects[key] = location
            # A replica on the target engine is absorbed into the primary.
            self._replicas.get(key, {}).pop(location.engine_name, None)
            self._bump()
            return location

    # ----------------------------------------------------------------- replicas
    def add_replica(self, name: str, engine_name: str,
                    object_type: str | None = None,
                    version: int | None = None) -> ObjectLocation:
        """Record an extra copy of an object on another engine.

        The copy is tagged fresh (current content version) unless an explicit
        ``version`` says otherwise.  Adding a "replica" on the primary's own
        engine is a no-op — there is only one copy there.
        """
        with self._lock:
            primary = self.locate(name)
            key = name.lower()
            if key not in self._objects:
                # Object known only via the engine-scan fallback: pin the
                # discovered primary so the replica has an anchor.
                self._objects[key] = primary
            engine_key = engine_name.lower()
            if engine_key not in self._engines:
                raise ObjectNotFoundError(f"engine {engine_name!r} is not registered")
            if engine_key == primary.engine_name:
                return primary
            location = ObjectLocation(
                primary.name, engine_name, object_type or primary.object_type,
                dict(primary.properties),
                version=self._content_versions.get(key, 0) if version is None else version,
            )
            self._replicas.setdefault(key, {})[engine_key] = location
            self._bump()
            return location

    def promote_primary(self, name: str, engine_name: str) -> ObjectLocation:
        """Make the copy of ``name`` on ``engine_name`` the write primary.

        The write-failover election step: when the current primary's engine
        is down, a *fresh* replica (one holding the current content version)
        is promoted so writes keep flowing.  The demoted primary stays
        behind as a replica at its old version — the caller journals the
        election and recovery later repairs (anti-entropy CAST) or discards
        it.  Promoting the current primary is a no-op; promoting a stale or
        unknown copy raises :class:`CatalogError`, because electing a copy
        missing acknowledged writes would silently lose them.
        """
        with self._lock:
            primary = self.locate(name)
            key = name.lower()
            engine_key = engine_name.lower()
            if engine_key == primary.engine_name:
                return primary
            copies = self._replicas.get(key, {})
            candidate = copies.get(engine_key)
            if candidate is None:
                raise CatalogError(
                    f"no replica of {name!r} on engine {engine_name!r} to promote"
                )
            current = self._content_versions.get(key, 0)
            if candidate.version != current:
                raise CatalogError(
                    f"replica of {name!r} on {engine_name!r} is stale "
                    f"(version {candidate.version} != content {current}); "
                    "refusing to elect a copy that would lose writes"
                )
            if key not in self._objects:
                self._objects[key] = primary
            copies.pop(engine_key)
            copies[primary.engine_name] = primary  # demoted, keeps its version
            self._replicas[key] = copies
            self._objects[key] = candidate
            self._bump()
            return candidate

    def drop_replica(self, name: str, engine_name: str) -> None:
        """Forget the copy of ``name`` on ``engine_name`` (primary unaffected)."""
        with self._lock:
            removed = self._replicas.get(name.lower(), {}).pop(engine_name.lower(), None)
            if removed is not None:
                self._bump()

    def replicas(self, name: str) -> list[ObjectLocation]:
        """Non-primary copies of an object, in deterministic engine order."""
        with self._lock:
            copies = self._replicas.get(name.lower(), {})
            return [copies[engine] for engine in sorted(copies)]

    def locations(self, name: str) -> list[ObjectLocation]:
        """Every known copy of an object, primary first."""
        with self._lock:
            return [self.locate(name), *self.replicas(name)]

    def content_version(self, name: str) -> int:
        """The content tag a copy must carry to be fresh."""
        with self._lock:
            return self._content_versions.get(name.lower(), 0)

    def fresh_locations(self, name: str) -> list[ObjectLocation]:
        """Copies holding the current content, primary first."""
        with self._lock:
            current = self._content_versions.get(name.lower(), 0)
            return [loc for loc in self.locations(name) if loc.version == current]

    def note_object_write(self, name: str, engine_name: str | None = None) -> None:
        """Record that an object's content changed at one location.

        The written copy (the primary unless ``engine_name`` says otherwise)
        becomes the fresh primary; every other copy keeps its old version and
        turns stale.  A write landing on a replica promotes it to primary —
        the demoted primary stays behind as a stale replica.  Without any
        replicas this is version bookkeeping only, so the durable catalog
        version (and with it the result cache) is left alone — engine write
        versions already fingerprint plain single-copy mutation.
        """
        with self._lock:
            key = name.lower()
            primary = self._objects.get(key)
            if primary is None:
                return
            copies = self._replicas.get(key, {})
            new_version = self._content_versions.get(key, 0) + 1
            self._content_versions[key] = new_version
            written = primary.engine_name if engine_name is None else engine_name.lower()
            if written != primary.engine_name and written in copies:
                promoted = copies.pop(written)
                copies[primary.engine_name] = primary
                self._objects[key] = promoted
                primary = promoted
            if written == primary.engine_name:
                primary.version = new_version
            if copies:
                self._bump()

    # ------------------------------------------------------------ read routing
    def set_health_probe(self, probe: Callable[[str], bool] | None) -> None:
        """Install a callback reporting whether an engine can serve reads.

        The runtime wires this to its circuit-breaker state so read routing
        avoids engines with open breakers.  ``None`` removes the probe.
        """
        with self._lock:
            self._health_probe = probe

    def engine_is_healthy(self, engine_name: str) -> bool:
        """Whether the health probe (if any) considers an engine usable."""
        probe = self._health_probe
        if probe is None:
            return True
        try:
            return bool(probe(engine_name.lower()))
        except Exception:  # fail open: a broken probe must not stop routing
            return True

    def locate_for_read(self, name: str,
                        members: Iterable[str] | None = None) -> ObjectLocation:
        """The best copy of an object to *read* from.

        Preference order among copies holding the current content: the
        primary when it is healthy and reachable, then healthy replicas in
        engine-name order, then any fresh reachable copy, and finally the
        primary itself (so a fully-unhealthy catalog degrades to the
        pre-replication behaviour instead of failing routing).  ``members``
        restricts candidates to an island's engines; writes must keep using
        :meth:`locate` — only the primary accepts writes.
        """
        with self._lock:
            primary = self.locate(name)
            if name.lower() not in self._replicas or not self._replicas[name.lower()]:
                return primary
            allowed = None if members is None else {m.lower() for m in members}
            candidates = [
                loc for loc in self.fresh_locations(name)
                if allowed is None or loc.engine_name in allowed
            ]
            healthy = [loc for loc in candidates if self.engine_is_healthy(loc.engine_name)]
            for pool in (healthy, candidates):
                for loc in pool:
                    if loc.engine_name == primary.engine_name:
                        return loc
                if pool:
                    return min(pool, key=lambda loc: loc.engine_name)
            return primary

    # ----------------------------------------------------------------- schemas
    def schema_of(self, name: str) -> Schema:
        """The relational schema an export of ``name`` would have: planning
        a CAST needs the schema, never the data, and every engine answers
        from metadata."""
        location = self.locate(name)
        return self.engine(location.engine_name).export_schema(name)

    def describe(self) -> dict:
        """Summary used by the demo's status screen."""
        with self._lock:
            return {
                "engines": {name: engine.kind for name, engine in self._engines.items()},
                "islands": {island: sorted(members) for island, members in self._island_members.items()},
                "objects": {loc.name: loc.engine_name for loc in self._objects.values()},
            }
