"""The text island: keyword and phrase search over text-indexed key-value tables.

Query language (one line per query)::

    SEARCH notes FOR "very sick"
    SEARCH notes FOR "very sick" MIN 3          -- rows with >= 3 matching documents
    SEARCH notes FOR "chest pain" AND "aspirin" -- documents containing both phrases
"""

from __future__ import annotations

import re

from repro.common.schema import Column, Relation, Schema
from repro.common.types import DataType
from repro.core.islands.base import IslandStatement, PatternIsland
from repro.core.query.language import split_literals
from repro.core.shims import TextShim


_SEARCH_RE = re.compile(
    r"^\s*search\s+([A-Za-z_][A-Za-z0-9_]*)\s+for\s+(.+?)(?:\s+min\s+(\d+))?\s*$",
    re.IGNORECASE,
)
_AND_RE = re.compile(r"\s+and\s+", re.IGNORECASE)


def _phrases(text: str) -> list[str]:
    """The ``AND``-separated phrases of a search; an ``and`` inside a quoted
    phrase is part of the phrase."""
    phrases = [""]
    for index, piece in enumerate(split_literals(text)):
        parts = [piece] if index % 2 else _AND_RE.split(piece)
        phrases[-1] += parts[0]
        phrases.extend(parts[1:])
    return [phrase.strip().strip('"').strip("'") for phrase in phrases]


_ROWS = Schema([Column("row", DataType.TEXT)])
_DOCUMENTS = Schema(
    [Column("row", DataType.TEXT), Column("qualifier", DataType.TEXT), Column("count", DataType.INTEGER)]
)


class TextIsland(PatternIsland):
    """Full-text search over the federation's key-value engines."""

    name = "text"
    pattern = _SEARCH_RE

    def execute(self, query: str | IslandStatement) -> Relation:
        self.queries_executed += 1
        table, phrases_text, minimum = self.statement(query).parsed.groups()
        phrases = _phrases(phrases_text)
        shim = TextShim(self.engine_for_object(table))
        if minimum is not None:
            return Relation.from_columns(
                _ROWS, [shim.rows_with_min_documents(table, phrases, int(minimum))]
            )
        found = shim.search(table, phrases)
        return Relation.from_columns(_DOCUMENTS, [found.rows, found.qualifiers, found.counts])
