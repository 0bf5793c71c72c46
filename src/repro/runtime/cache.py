"""A versioned result cache for the concurrent runtime.

Entries are keyed by whitespace-normalized query text and stamped with a
*fingerprint* of the polystore's state: the catalog's metadata version plus
every engine's ``write_version``.  A lookup whose stored fingerprint no
longer matches the live fingerprint is a miss (and evicts the stale entry),
which makes invalidation automatic: CASTs bump the target (and, for moves,
source) engine and the catalog; imports, drops and temp materializations bump
their engine; advisor migrations go through CAST.  Nothing has to remember
to call the cache — mutating the polystore *is* the invalidation.

Stores use the same protocol in reverse: the runtime fingerprints *before*
executing and hands that fingerprint to :meth:`ResultCache.put`, which
refuses the entry when the live fingerprint moved during execution — either
because the query itself mutated state (engine-native DML, WITH
materializations) or because a concurrent writer did.  Only results provably
derived from the current polystore state are ever served.

Eviction is LRU behind a frequency filter (TinyLFU: Einziger, Friedman &
Manes, ACM TOS 2017).  Every lookup, hit or miss, counts its key in a
fixed-size count-min sketch whose counters all halve after every
``_SKETCH_WIDTH_PER_ENTRY * capacity`` counts, so popularity follows recent
traffic and the sketch's memory never grows with the number of distinct
texts.  A new key arriving at a full cache is admitted only when the LRU
entry is dead (its fingerprint is no longer the live one, so it can never be
served) or has been asked for no more often than the newcomer; otherwise
the newcomer is refused and the entry stays.  Ties admit, so a cache with no
frequency signal is plain LRU.  A burst of one-off texts therefore cannot
flush the texts clients keep repeating.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass

from repro.common.schema import Relation
from repro.core.catalog import BigDawgCatalog

#: fingerprint = (catalog version, ((engine, write_version), ...))
Fingerprint = tuple[int, tuple[tuple[str, int], ...]]

#: Counters per row of the frequency sketch, per cache entry.  The sketch
#: has two rows of ``_SKETCH_WIDTH_PER_ENTRY * capacity`` one-byte counters,
#: and halves them all after that many counts.
_SKETCH_WIDTH_PER_ENTRY = 64

#: ``bytearray.translate`` table that halves every counter in one C pass.
_HALVE = bytes(count >> 1 for count in range(256))


def normalize_query(query: str) -> str:
    """Collapse runs of whitespace so trivially reformatted queries share a key.

    Quoted string literals are preserved verbatim — island languages treat
    them case- and whitespace-sensitively (``SEARCH notes FOR "chest  pain"``
    is a different query from the single-spaced one), so only the whitespace
    *between* tokens is collapsed, and case is never folded.
    """
    if "'" not in query and '"' not in query:
        return " ".join(query.split())
    result: list[str] = []
    quote: str | None = None
    pending_space = False
    for ch in query:
        if quote is not None:
            result.append(ch)
            if ch == quote:
                quote = None
        elif ch.isspace():
            pending_space = True
        else:
            if pending_space and result:
                result.append(" ")
            pending_space = False
            if ch in ("'", '"'):
                quote = ch
            result.append(ch)
    return "".join(result)


class _FrequencySketch:
    """Approximate recent lookup counts per key, in fixed memory.

    A count-min sketch with two rows of ``width`` saturating one-byte
    counters, indexed by the low and the high half of the key's hash; a key's
    estimate is the smaller of its two counters, so collisions can only
    over-count.
    After every ``width`` additions all counters halve, which ages out old
    popularity.  Callers hold the cache's lock.
    """

    __slots__ = ("_counts", "_width", "_added")

    def __init__(self, width: int) -> None:
        self._width = width
        self._counts = bytearray(2 * width)
        self._added = 0

    def add(self, key: str) -> None:
        h = hash(key)
        counts, width = self._counts, self._width
        first, second = h % width, width + (h >> 32) % width
        if counts[first] < 255:
            counts[first] += 1
        if counts[second] < 255:
            counts[second] += 1
        self._added += 1
        if self._added >= width:
            self._added = 0
            self._counts = counts.translate(_HALVE)

    def estimate(self, key: str) -> int:
        h = hash(key)
        counts, width = self._counts, self._width
        return min(counts[h % width], counts[width + (h >> 32) % width])


@dataclass
class _Entry:
    relation: Relation
    fingerprint: Fingerprint


class ResultCache:
    """LRU result cache behind frequency admission, verified against a state fingerprint."""

    def __init__(self, catalog: BigDawgCatalog, capacity: int = 256,
                 keep_stale: bool = False) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self._catalog = catalog
        self.capacity = capacity
        #: When True, fingerprint-invalidated entries move to a bounded side
        #: buffer instead of being dropped, so :meth:`get_stale` can serve a
        #: last-known-good result while an engine's breaker is open.
        self.keep_stale = keep_stale
        self._entries: "OrderedDict[str, _Entry]" = OrderedDict()
        self._stale: "OrderedDict[str, _Entry]" = OrderedDict()
        self._sketch = _FrequencySketch(_SKETCH_WIDTH_PER_ENTRY * capacity)
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.evictions = 0
        #: New keys turned away at a full cache because the LRU entry is
        #: asked for more often.
        self.refused = 0
        self.invalidations = 0
        self.stale_hits = 0

    # ------------------------------------------------------------ fingerprint
    def fingerprint(self) -> Fingerprint:
        """The polystore's current state version, cheap to compute.

        Ephemeral engines (the temp-table engine) are excluded: their
        contents are per-execution scratch that no cacheable query text can
        name, and including them would invalidate the whole cache on every
        WITH query.  Replacing a *pre-existing* temporary name still bumps
        the catalog's durable version, so reuse of a temp name invalidates.
        """
        engines = tuple(
            (engine.name.lower(), engine.write_version)
            for engine in self._catalog.engines()
            if not engine.ephemeral
        )
        return (self._catalog.version, engines)

    # ------------------------------------------------------------------ cache
    def get(self, query: str) -> Relation | None:
        key = normalize_query(query)
        # Fingerprint only a key that is there: most misses are absent keys.
        # The unlocked peek is one dict lookup of a str under the GIL.
        live = self.fingerprint() if key in self._entries else None
        with self._lock:
            self._sketch.add(key)
            entry = self._entries.get(key)
            if entry is None or live is None:
                # Absent, or stored since the peek: a miss either way.
                self.misses += 1
                return None
            if entry.fingerprint != live:
                # Some engine or the catalog mutated since this was stored.
                del self._entries[key]
                if self.keep_stale:
                    self._demote_locked(key, entry)
                self.invalidations += 1
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            # A relation never changes once built: every hit can share it.
            return entry.relation

    def put(self, query: str, relation: Relation, fingerprint: Fingerprint) -> bool:
        """Store a result computed while the polystore was at ``fingerprint``.

        Returns False (and stores nothing) when the live fingerprint has
        moved — the result may not reflect current state — or when a full
        cache refuses a new key: its LRU entry is live and has been looked
        up more often than ``query``.  With ``keep_stale`` a refused result
        still goes to the stale buffer, as an evicted one does.
        """
        if fingerprint != self.fingerprint():
            return False
        key = normalize_query(query)
        entry = _Entry(relation, fingerprint)
        with self._lock:
            entries = self._entries
            if key not in entries and len(entries) >= self.capacity:
                victim_key, victim = next(iter(entries.items()))
                if (victim.fingerprint == fingerprint
                        and self._sketch.estimate(key) < self._sketch.estimate(victim_key)):
                    self.refused += 1
                    if self.keep_stale:
                        self._demote_locked(key, entry)
                    return False
                del entries[victim_key]
                if self.keep_stale:
                    self._demote_locked(victim_key, victim)
                self.evictions += 1
            entries[key] = entry
            entries.move_to_end(key)
            # A fresh result supersedes any stale copy kept for fallback.
            self._stale.pop(key, None)
            self.stores += 1
        return True

    def get_stale(self, query: str) -> Relation | None:
        """A last-known-good result for ``query``, flagged ``stale=True``.

        This is the opt-in degraded-mode read: the runtime calls it only
        when a circuit breaker refused the live execution.  The returned
        relation carries ``stale=True`` so callers can tell (and render)
        that it may not reflect current engine state: a new relation over
        the entry's columns, so the stored one is never flagged.
        ``keep_stale=False`` caches never hold anything here.
        """
        key = normalize_query(query)
        with self._lock:
            entry = self._entries.get(key) or self._stale.get(key)
            if entry is None:
                return None
            self.stale_hits += 1
        relation = entry.relation
        stale = Relation.from_columns(
            relation.schema,
            [relation.column_vector(i) for i in range(len(relation.schema))],
            len(relation),
        )
        stale.stale = True
        return stale

    def _demote_locked(self, key: str, entry: _Entry) -> None:
        """Move an invalidated/evicted entry to the bounded stale buffer."""
        self._stale[key] = entry
        self._stale.move_to_end(key)
        while len(self._stale) > self.capacity:
            self._stale.popitem(last=False)

    def invalidate(self) -> None:
        """Drop every entry (state fingerprints make this rarely necessary).

        Stale copies survive on purpose: they exist precisely to outlive
        invalidation, and are bounded by ``capacity``.
        """
        with self._lock:
            self.invalidations += len(self._entries)
            if self.keep_stale:
                for key, entry in self._entries.items():
                    self._demote_locked(key, entry)
            self._entries.clear()

    # ----------------------------------------------------------------- status
    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def describe(self) -> dict:
        with self._lock:
            size = len(self._entries)
            stale_size = len(self._stale)
        return {
            "size": size,
            "capacity": self.capacity,
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": round(self.hit_rate, 4),
            "stores": self.stores,
            "evictions": self.evictions,
            "refused": self.refused,
            "invalidations": self.invalidations,
            "keep_stale": self.keep_stale,
            "stale_size": stale_size,
            "stale_hits": self.stale_hits,
        }
