"""A sorted key-value store in the style of Apache Accumulo.

Entries are keyed by (row, column family, column qualifier, timestamp) and
kept in sorted order, so range scans over rows are cheap.  The store supports
multiple versions per key; reads go through a stack of *server-side iterators*
(:mod:`repro.engines.keyvalue.iterators`) exactly as Accumulo scans do.
"""

from __future__ import annotations

import bisect
import itertools
from dataclasses import dataclass, field
from typing import Any, Iterator


@dataclass(frozen=True, order=True)
class Key:
    """An Accumulo-style key.  Ordering: row, family, qualifier, then newest first."""

    row: str
    family: str = ""
    qualifier: str = ""
    timestamp: int = 0

    def sort_key(self) -> tuple:
        # Timestamps sort descending so the newest version of a cell comes first.
        return (self.row, self.family, self.qualifier, -self.timestamp)


@dataclass(frozen=True)
class Entry:
    """One key/value pair."""

    key: Key
    value: Any

    @property
    def row(self) -> str:
        return self.key.row


@dataclass
class ScanRange:
    """A half-open scan range over rows ([start_row, end_row]); None is unbounded."""

    start_row: str | None = None
    end_row: str | None = None
    families: tuple[str, ...] = field(default_factory=tuple)

    def contains(self, key: Key) -> bool:
        if self.start_row is not None and key.row < self.start_row:
            return False
        if self.end_row is not None and key.row > self.end_row:
            return False
        if self.families and key.family not in self.families:
            return False
        return True


class SortedKeyValueStore:
    """The sorted map behind one Accumulo table."""

    def __init__(self) -> None:
        self._sort_keys: list[tuple] = []
        self._entries: list[Entry] = []
        self._timestamp_counter = itertools.count(1)
        #: Monotone count of completed mutations (puts and deletions), so
        #: callers can cheaply detect that the store changed under them.
        self.mutations = 0

    def __len__(self) -> int:
        return len(self._entries)

    def put(self, row: str, family: str = "", qualifier: str = "", value: Any = None,
            timestamp: int | None = None) -> Entry:
        """Insert one entry; a missing timestamp gets the next logical tick."""
        if timestamp is None:
            timestamp = next(self._timestamp_counter)
        key = Key(row, family, qualifier, timestamp)
        entry = Entry(key, value)
        sort_key = key.sort_key()
        index = bisect.bisect_left(self._sort_keys, sort_key)
        self._sort_keys.insert(index, sort_key)
        self._entries.insert(index, entry)
        self.mutations += 1
        return entry

    def delete(self, row: str, family: str | None = None, qualifier: str | None = None) -> int:
        """Delete all versions matching the given key parts. Returns entries removed."""
        kept_keys: list[tuple] = []
        kept_entries: list[Entry] = []
        removed = 0
        for sort_key, entry in zip(self._sort_keys, self._entries):
            key = entry.key
            matches = key.row == row
            if family is not None:
                matches = matches and key.family == family
            if qualifier is not None:
                matches = matches and key.qualifier == qualifier
            if matches:
                removed += 1
            else:
                kept_keys.append(sort_key)
                kept_entries.append(entry)
        self._sort_keys = kept_keys
        self._entries = kept_entries
        self.mutations += removed
        return removed

    def scan(self, scan_range: ScanRange | None = None) -> Iterator[Entry]:
        """Yield entries in key order, bounded by an optional range."""
        if scan_range is None or scan_range.start_row is None:
            start_index = 0
        else:
            start_index = bisect.bisect_left(self._sort_keys, (scan_range.start_row,))
        for entry in self._entries[start_index:]:
            if scan_range is not None:
                if scan_range.end_row is not None and entry.key.row > scan_range.end_row:
                    return
                if not scan_range.contains(entry.key):
                    continue
            yield entry

    def latest(self) -> Iterator[Entry]:
        """The newest version of every cell (row, family, qualifier), in key
        order: what a reader of the table's current state sees."""
        last = None
        for entry in self._entries[:]:
            key = entry.key
            cell = (key.row, key.family, key.qualifier)
            if cell != last:  # versions of a cell come newest first
                last = cell
                yield entry

    def get_row(self, row: str) -> list[Entry]:
        """All entries for one row."""
        return list(self.scan(ScanRange(start_row=row, end_row=row)))

    def row_count(self) -> int:
        """Number of distinct rows."""
        return len({entry.key.row for entry in self._entries})

    def rows(self) -> list[str]:
        """Distinct rows in sorted order."""
        seen = []
        last = None
        for entry in self._entries:
            if entry.key.row != last:
                seen.append(entry.key.row)
                last = entry.key.row
        return seen

    def split_point(self) -> str | None:
        """The median row — where a tablet would split."""
        rows = self.rows()
        if len(rows) < 2:
            return None
        return rows[len(rows) // 2]
