"""An in-memory B+tree used for secondary indexes in the relational engine.

Keys are mutually comparable Python tuples (so composite indexes work) and
values are lists of row identifiers.  The tree supports point lookups, range
scans and ordered iteration — everything the planner needs to turn an
equality or range predicate into an index scan instead of a sequential scan.

A key holding ``None`` or NaN cannot be ordered, so the tree never stores
one: :meth:`BTreeIndex.insert` and :meth:`~BTreeIndex.delete` ignore it and
:meth:`~BTreeIndex.search` finds nothing under it.  That is also SQL's
answer: ``=``, ``<`` and ``>`` never match a NULL, so no index path needs it.
"""

from __future__ import annotations

import bisect
from typing import Any, Iterator


def orderable(key: tuple[Any, ...]) -> bool:
    """Whether the tree stores ``key``: not when a part is None or NaN."""
    for part in key:   # a loop, not all(): this runs once per key of every load
        if part is None or part != part:
            return False
    return True


class _Node:
    """A B+tree node. Leaf nodes hold (key, [row_ids]); internal nodes hold children."""

    __slots__ = ("keys", "children", "values", "next_leaf", "is_leaf")

    def __init__(self, is_leaf: bool) -> None:
        self.is_leaf = is_leaf
        self.keys: list[Any] = []
        self.children: list[_Node] = []
        self.values: list[list[int]] = []
        self.next_leaf: _Node | None = None


class BTreeIndex:
    """A B+tree mapping keys to lists of row ids.

    Parameters
    ----------
    order:
        Maximum number of keys per node before it splits.
    unique:
        When True, inserting a duplicate key raises ``ValueError``.
    """

    def __init__(self, order: int = 64, unique: bool = False) -> None:
        if order < 4:
            raise ValueError("B+tree order must be at least 4")
        self._order = order
        self._unique = unique
        self._root = _Node(is_leaf=True)
        self._size = 0

    def __len__(self) -> int:
        """Number of (key, row_id) pairs stored."""
        return self._size

    @property
    def unique(self) -> bool:
        return self._unique

    # ------------------------------------------------------------------ insert
    def insert(self, key: Any, row_id: int) -> None:
        """Insert one key → row_id mapping, splitting nodes as necessary (a
        key that is not :func:`orderable` is not stored)."""
        if not orderable(key):
            return
        root = self._root
        result = self._insert(root, key, row_id)
        if result is not None:
            separator, new_node = result
            new_root = _Node(is_leaf=False)
            new_root.keys = [separator]
            new_root.children = [root, new_node]
            self._root = new_root

    def _insert(self, node: _Node, key: Any, row_id: int) -> tuple[Any, _Node] | None:
        if node.is_leaf:
            idx = bisect.bisect_left(node.keys, key)
            if idx < len(node.keys) and node.keys[idx] == key:
                if self._unique:
                    raise ValueError(f"duplicate key in unique index: {key!r}")
                node.values[idx].append(row_id)
            else:
                node.keys.insert(idx, key)
                node.values.insert(idx, [row_id])
            self._size += 1
            if len(node.keys) > self._order:
                return self._split_leaf(node)
            return None
        idx = bisect.bisect_right(node.keys, key)
        result = self._insert(node.children[idx], key, row_id)
        if result is not None:
            separator, new_child = result
            node.keys.insert(idx, separator)
            node.children.insert(idx + 1, new_child)
            if len(node.keys) > self._order:
                return self._split_internal(node)
        return None

    def _split_leaf(self, node: _Node) -> tuple[Any, _Node]:
        mid = len(node.keys) // 2
        sibling = _Node(is_leaf=True)
        sibling.keys = node.keys[mid:]
        sibling.values = node.values[mid:]
        node.keys = node.keys[:mid]
        node.values = node.values[:mid]
        sibling.next_leaf = node.next_leaf
        node.next_leaf = sibling
        return sibling.keys[0], sibling

    def _split_internal(self, node: _Node) -> tuple[Any, _Node]:
        mid = len(node.keys) // 2
        separator = node.keys[mid]
        sibling = _Node(is_leaf=False)
        sibling.keys = node.keys[mid + 1 :]
        sibling.children = node.children[mid + 1 :]
        node.keys = node.keys[:mid]
        node.children = node.children[: mid + 1]
        return separator, sibling

    # ------------------------------------------------------------------ delete
    def delete(self, key: Any, row_id: int) -> bool:
        """Remove one key → row_id mapping. Returns True if something was removed.

        Underfull nodes are left as-is (lazy deletion); lookups stay correct and
        the tree is rebuilt on bulk reload, which matches how the engine uses it.
        """
        if not orderable(key):
            return False
        leaf = self._find_leaf(key)
        idx = bisect.bisect_left(leaf.keys, key)
        if idx >= len(leaf.keys) or leaf.keys[idx] != key:
            return False
        try:
            leaf.values[idx].remove(row_id)
        except ValueError:
            return False
        if not leaf.values[idx]:
            leaf.keys.pop(idx)
            leaf.values.pop(idx)
        self._size -= 1
        return True

    # ------------------------------------------------------------------ lookup
    def _find_leaf(self, key: Any) -> _Node:
        node = self._root
        while not node.is_leaf:
            idx = bisect.bisect_right(node.keys, key)
            node = node.children[idx]
        return node

    def search(self, key: Any) -> list[int]:
        """Return all row ids stored under ``key`` (empty list if absent)."""
        if not orderable(key):
            return []
        leaf = self._find_leaf(key)
        idx = bisect.bisect_left(leaf.keys, key)
        if idx < len(leaf.keys) and leaf.keys[idx] == key:
            return list(leaf.values[idx])
        return []

    def range_scan(
        self,
        low: Any = None,
        high: Any = None,
        include_low: bool = True,
        include_high: bool = True,
    ) -> Iterator[tuple[Any, int]]:
        """Yield (key, row_id) pairs with keys in [low, high], in key order.

        ``None`` bounds are open on that side.
        """
        if low is not None:
            leaf = self._find_leaf(low)
        else:
            node = self._root
            while not node.is_leaf:
                node = node.children[0]
            leaf = node
        while leaf is not None:
            for key, row_ids in zip(leaf.keys, leaf.values):
                if low is not None:
                    if key < low or (key == low and not include_low):
                        continue
                if high is not None:
                    if key > high or (key == high and not include_high):
                        return
                for row_id in row_ids:
                    yield key, row_id
            leaf = leaf.next_leaf

    def items(self) -> Iterator[tuple[Any, int]]:
        """Yield every (key, row_id) pair in key order."""
        return self.range_scan()

    def keys(self) -> Iterator[Any]:
        """Yield distinct keys in order."""
        node = self._root
        while not node.is_leaf:
            node = node.children[0]
        while node is not None:
            yield from node.keys
            node = node.next_leaf

    def height(self) -> int:
        """Tree height (1 for a single leaf); exposed for tests."""
        height = 1
        node = self._root
        while not node.is_leaf:
            node = node.children[0]
            height += 1
        return height
