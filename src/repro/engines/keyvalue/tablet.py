"""Tablet management: how a key-value table is split across servers.

Accumulo splits each table into *tablets* by row ranges and balances them
across tablet servers.  The polystore does not need real distribution, but
tablet boundaries matter for the D4M island's scan planning and for the
engine's statistics, so we model the split/merge/assignment lifecycle.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.errors import ExecutionError
from repro.engines.keyvalue.store import SortedKeyValueStore


@dataclass
class Tablet:
    """One contiguous row range of a table."""

    table: str
    start_row: str | None  # inclusive; None = unbounded low
    end_row: str | None  # inclusive; None = unbounded high
    server: str = "tserver-0"

    def contains_row(self, row: str) -> bool:
        if self.start_row is not None and row < self.start_row:
            return False
        if self.end_row is not None and row > self.end_row:
            return False
        return True


@dataclass
class TabletManager:
    """Tracks the tablets of one table and splits them when they grow too large."""

    table: str
    split_threshold: int = 100_000
    servers: list[str] = field(default_factory=lambda: ["tserver-0", "tserver-1"])
    tablets: list[Tablet] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.tablets:
            self.tablets = [Tablet(self.table, None, None, self.servers[0])]

    def tablet_for_row(self, row: str) -> Tablet:
        for tablet in self.tablets:
            if tablet.contains_row(row):
                return tablet
        raise ExecutionError(f"no tablet covers row {row!r} — tablet map is inconsistent")

    def maybe_split(self, store: SortedKeyValueStore) -> bool:
        """Split the largest tablet at the store's median row if it exceeds the threshold.

        Returns True when a split happened.
        """
        if len(store) < self.split_threshold * len(self.tablets):
            return False
        split_row = store.split_point()
        if split_row is None:
            return False
        # Find the tablet containing the split row and divide it there.
        target = self.tablet_for_row(split_row)
        if target.start_row == split_row:
            return False
        index = self.tablets.index(target)
        left = Tablet(self.table, target.start_row, split_row, target.server)
        right = Tablet(
            self.table,
            split_row + "\x00",
            target.end_row,
            self.servers[(index + 1) % len(self.servers)],
        )
        self.tablets[index : index + 1] = [left, right]
        return True

    def balance(self) -> dict[str, int]:
        """Round-robin tablets across servers; returns tablets per server."""
        counts: dict[str, int] = {server: 0 for server in self.servers}
        for i, tablet in enumerate(self.tablets):
            tablet.server = self.servers[i % len(self.servers)]
            counts[tablet.server] += 1
        return counts
