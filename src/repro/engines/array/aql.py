"""A small AFL-style query language for the array engine.

The array island accepts textual queries in a functional AFL syntax::

    aggregate(waveforms, avg(value))
    filter(waveforms, value > 0.5)
    between(waveforms, 0, 0, 99, 3)
    subarray(waveforms, 0, 0, 99, 3)
    window(waveforms, value, 8, avg)
    regrid(waveforms, value, 100, max)
    apply(waveforms, scaled, value * 2.0)
    project(waveforms, value)
    scan(waveforms)

Nested calls are supported (the inner call's result feeds the outer call)::

    aggregate(filter(waveforms, value > 0.5), count(value))
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Any

from repro.common.errors import ParseError


@dataclass
class AqlCall:
    """One parsed AFL call: an operator name plus raw argument strings.

    The first argument may itself be a nested :class:`AqlCall`.
    """

    operator: str
    arguments: list[Any] = field(default_factory=list)

    @property
    def source(self) -> "AqlCall | str":
        """The input array: a name or a nested call."""
        if not self.arguments:
            raise ParseError(f"{self.operator} requires at least an array argument")
        return self.arguments[0]

    def argument_strings(self) -> list[str]:
        """All arguments after the source, as stripped strings."""
        return [str(arg).strip() for arg in self.arguments[1:]]


def parse_aql(text: str) -> AqlCall:
    """Parse a (possibly nested) AFL-style call."""
    text = text.strip().rstrip(";")
    call, consumed = _parse_call(text, 0)
    if consumed != len(text):
        raise ParseError(f"unexpected trailing input in AFL query: {text[consumed:]!r}", consumed)
    return call


def _parse_call(text: str, start: int) -> tuple[AqlCall, int]:
    match = re.match(r"\s*([A-Za-z_][A-Za-z0-9_]*)\s*\(", text[start:])
    if match is None:
        raise ParseError(f"expected an operator call at offset {start}", start)
    operator = match.group(1).lower()
    pos = start + match.end()
    arguments: list[Any] = []
    depth = 1
    current_start = pos
    while pos < len(text):
        ch = text[pos]
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth == 0:
                fragment = text[current_start:pos].strip()
                if fragment:
                    arguments.append(_maybe_nested(fragment))
                return AqlCall(operator, arguments), pos + 1
        elif ch == "," and depth == 1:
            fragment = text[current_start:pos].strip()
            if fragment:
                arguments.append(_maybe_nested(fragment))
            current_start = pos + 1
        pos += 1
    raise ParseError("unbalanced parentheses in AFL query", start)


def _maybe_nested(fragment: str) -> Any:
    """If the fragment is itself an operator call over an array, parse it recursively."""
    stripped = fragment.strip()
    match = re.match(r"^([A-Za-z_][A-Za-z0-9_]*)\s*\(", stripped)
    if match and stripped.endswith(")"):
        operator = match.group(1).lower()
        # Aggregate specifications such as avg(value) stay as plain strings;
        # only array operators are parsed recursively.
        if operator in _ARRAY_OPERATORS:
            call, consumed = _parse_call(stripped, 0)
            if consumed == len(stripped):
                return call
    return stripped


_ARRAY_OPERATORS = {
    "scan", "filter", "between", "subarray", "apply", "project",
    "aggregate", "window", "regrid", "cross_join",
}
