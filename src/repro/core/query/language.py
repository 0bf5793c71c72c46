"""The BigDAWG cross-island query language: SCOPE and CAST.

A BigDAWG query wraps an island query in a *scope* naming the island whose
language and semantics apply, and may contain *CAST* terms that move objects
to an engine of another island before the scoped query runs::

    RELATIONAL(SELECT * FROM CAST(waveform_history, relational) WHERE value > 5)
    ARRAY(aggregate(waveform_history, avg(value)))
    TEXT(SEARCH notes FOR "very sick" MIN 3)
    D4M(ASSOC prescriptions DEGREE ROWS)
    BIGDAWG(RELATIONAL(...))                 -- explicit outer wrapper, optional

Multi-scope queries are sequences of named bindings followed by a final scope;
each binding materializes its result as a temporary table available to later
scopes::

    WITH recent = RELATIONAL(SELECT id FROM patients WHERE age > 65)
    ARRAY(aggregate(waveform_history, avg(value)))
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from repro.common.errors import ParseError


#: Island keywords accepted as scope names.
SCOPE_NAMES = ("relational", "array", "text", "d4m", "myria", "bigdawg")

#: A scope's opening (its name, formatted in, and the parenthesis) and a
#: WITH binding's (up to its ``=``): what :func:`parse_query` reads first.
_SCOPE_OPEN = r"^\s*({})\s*\("
_WITH_OPEN = r"^\s*WITH\s+([A-Za-z_][A-Za-z0-9_]*)\s*=\s*"

_SCOPE_RE = re.compile(_SCOPE_OPEN.format(r"[A-Za-z_][A-Za-z0-9_]*"))
_CAST_RE = re.compile(
    r"\bCAST\s*\(\s*([A-Za-z_][A-Za-z0-9_]*)\s*,\s*([A-Za-z_][A-Za-z0-9_]*)\s*\)",
    re.IGNORECASE,
)
_WITH_RE = re.compile(_WITH_OPEN, re.IGNORECASE)
#: Either opening, the scope's name one of :data:`SCOPE_NAMES`.
_SCOPED_RE = re.compile(
    _WITH_OPEN + "|" + _SCOPE_OPEN.format("|".join(SCOPE_NAMES)), re.IGNORECASE
)

#: ``'…'`` string literals and ``"…"`` identifiers ('' and "" escape).
_QUOTED_RE = re.compile(r"""('[^']*(?:''[^']*)*'|"[^"]*(?:""[^"]*)*")""")
_PARENTHESIS_RE = re.compile(r"[()]")


def split_literals(text: str) -> list[str]:
    """``text`` cut at its ``'…'`` literals and ``"…"`` identifiers: even
    items lie outside them, where query structure (parentheses, CAST terms)
    is read; odd items are the quoted spans."""
    return _QUOTED_RE.split(text)


@dataclass(frozen=True)
class CastSpec:
    """One CAST(object, island) term found inside a scoped query."""

    object_name: str
    target_island: str


@dataclass
class ScopedQuery:
    """One scope: the island it addresses, its inner query text, its casts,
    and that text with every CAST(obj, island) replaced by the object name
    (what the island parses)."""

    island: str
    body: str
    casts: list[CastSpec]
    body_without_casts: str


@dataclass
class CrossIslandQuery:
    """A full BigDAWG query: zero or more named bindings plus a final scope."""

    bindings: list[tuple[str, ScopedQuery]] = field(default_factory=list)
    final: ScopedQuery | None = None


def is_scoped_query(text: str) -> bool:
    """Whether ``text`` opens as a BigDAWG query (a WITH binding, or a
    known scope's name and parenthesis) rather than as bare island text."""
    return _SCOPED_RE.match(text) is not None


def parse_scope(text: str) -> ScopedQuery:
    """Parse one ``ISLAND( ... )`` block (unwrapping an optional BIGDAWG wrapper)."""
    text = text.strip().rstrip(";")
    match = _SCOPE_RE.match(text)
    if match is None:
        raise ParseError(f"expected a scope such as RELATIONAL(...), got {text[:40]!r}")
    island = match.group(1).lower()
    if island not in SCOPE_NAMES:
        raise ParseError(f"unknown island scope {island!r}; expected one of {SCOPE_NAMES}")
    body, end = _matched_parentheses(text, match.end() - 1)
    if text[end:].strip():
        raise ParseError(f"unexpected trailing input after scope: {text[end:]!r}")
    if island == "bigdawg":
        return parse_scope(body)
    body = body.strip()
    pieces = split_literals(body)
    casts = [
        CastSpec(m.group(1), m.group(2).lower())
        for piece in pieces[::2]
        for m in _CAST_RE.finditer(piece)
    ]
    if casts:
        pieces[::2] = [_CAST_RE.sub(r"\1", piece) for piece in pieces[::2]]
    return ScopedQuery(island, body, casts, "".join(pieces))


def parse_query(text: str) -> CrossIslandQuery:
    """Parse a full BigDAWG query: optional WITH bindings, then a final scope."""
    remaining = text.strip()
    query = CrossIslandQuery()
    while True:
        match = _WITH_RE.match(remaining)
        if match is None:
            break
        name = match.group(1)
        scope_start = match.end()
        scope_match = _SCOPE_RE.match(remaining[scope_start:])
        if scope_match is None:
            raise ParseError(f"expected a scope after WITH {name} =")
        body, end = _matched_parentheses(remaining[scope_start:], scope_match.end() - 1)
        scope_text = remaining[scope_start : scope_start + end]
        query.bindings.append((name, parse_scope(scope_text)))
        remaining = remaining[scope_start + end :].strip()
    if not remaining:
        raise ParseError("a BigDAWG query needs a final scoped query")
    query.final = parse_scope(remaining)
    return query


def _matched_parentheses(text: str, open_index: int) -> tuple[str, int]:
    """Return (inner text, index just past the matching close paren);
    parentheses inside quoted spans do not count."""
    if text[open_index] != "(":
        raise ParseError("internal error: expected an open parenthesis")
    pieces = split_literals(text)
    pieces[1::2] = [" " * len(piece) for piece in pieces[1::2]]
    depth = 0
    for parenthesis in _PARENTHESIS_RE.finditer("".join(pieces), open_index):
        depth += 1 if parenthesis.group() == "(" else -1
        if depth == 0:
            return text[open_index + 1 : parenthesis.start()], parenthesis.end()
    raise ParseError("unbalanced parentheses in BigDAWG query")
