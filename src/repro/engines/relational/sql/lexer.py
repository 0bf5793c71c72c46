"""Tokenizer for the SQL subset: one compiled pattern, matched token by token."""

from __future__ import annotations

import enum
import re
from typing import NamedTuple

from repro.common.errors import ParseError


class TokenType(enum.Enum):
    KEYWORD = "keyword"
    IDENTIFIER = "identifier"
    NUMBER = "number"
    STRING = "string"
    OPERATOR = "operator"
    PUNCTUATION = "punctuation"
    EOF = "eof"


KEYWORDS = {
    "select", "from", "where", "group", "by", "having", "order", "limit", "offset",
    "insert", "into", "values", "update", "set", "delete", "create", "drop", "table",
    "index", "unique", "on", "as", "and", "or", "not", "null", "is", "in", "like",
    "join", "inner", "left", "cross", "outer", "distinct", "asc", "desc", "case",
    "when", "then", "else", "end", "primary", "key", "if", "exists", "between",
    "true", "false", "count", "sum", "avg", "min", "max", "stddev",
    "integer", "int", "bigint", "float", "double", "real", "text", "varchar",
    "boolean", "bool", "timestamp",
}

#: Context-sensitive keywords: these lex as identifiers and the parser only
#: treats them as keywords when the surrounding tokens form a join clause
#: (``RIGHT [OUTER] JOIN`` / ``FULL [OUTER] JOIN``).  Keeping them out of
#: ``KEYWORDS`` means a column named ``right`` or ``full`` still parses.
SOFT_KEYWORDS = {"right", "full"}

#: One token per match: the whitespace and ``--`` comments before it (never
#: given back, so a token cannot start inside a comment), then the first
#: alternative that fits.  A number is ASCII digits; a malformed one (an
#: exponent with no digits, ``1e5.3``) is matched whole so it can be
#: refused where it starts.  A word is an identifier chain: bare and/or
#: double-quoted (``""`` escapes a quote) segments joined by dots, so
#: keyword-named columns can be table-qualified (``t."left"``,
#: ``"t"."order"``); an unterminated quoted segment runs to the end of the
#: text.  A string that does not close is ``unterminated``.
_QUOTED = r'"[^"]*(?:""[^"]*)*(?:"(?!")|\Z)'
_MANTISSA = r"(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)"
_TOKEN = re.compile(
    rf"""
    (?>(?:\s|--[^\n]*)*)
    (?:
        (?P<word>(?:[^\W0-9]\w*|{_QUOTED})(?:\.(?:\w+|{_QUOTED}))*\.?)
      | (?P<punctuation>[(),;])
      | (?P<operator><=|>=|!=|<>|==|[=<>!+\-*/%])
      | (?P<malformed>{_MANTISSA}[eE](?![+-]?[0-9])|[0-9]+[eE][+-]?[0-9]+\.)
      | (?P<number>{_MANTISSA}(?:[eE][+-]?[0-9]+)?)
      | (?P<string>'[^']*(?:''[^']*)*'(?!'))
      | (?P<unterminated>')
      | (?P<end>\Z)
      | (?P<unexpected>.)
    )
    """,
    re.VERBOSE | re.DOTALL,
)
#: The pieces of a word that holds a quoted segment: a bare run (dots
#: included), or a quoted segment's text and its closing quote ('' when the
#: text ended first).
_WORD_PIECE = re.compile(r'([^"]+)|"([^"]*(?:""[^"]*)*)("(?!")|\Z)')


class Token(NamedTuple):
    type: TokenType
    value: str
    position: int
    #: True when any part of an identifier was double-quoted; quoting forces
    #: identifier treatment, so the parser must never reinterpret a quoted
    #: ``"right"``/``"full"`` as a soft join keyword.
    quoted: bool
    #: What the parser compares with a keyword: a word's ``value``
    #: lowercased, every other token's ``value`` as it is.
    low: str


#: Builds a :class:`Token` from its field tuple, skipping NamedTuple's
#: Python-level ``__new__``.
_new = tuple.__new__
_KEYWORD = TokenType.KEYWORD
_IDENTIFIER = TokenType.IDENTIFIER
_SIMPLE = {
    "punctuation": TokenType.PUNCTUATION,
    # '*' is both multiplication and the star selector; the parser decides.
    "operator": TokenType.OPERATOR,
    "number": TokenType.NUMBER,
}


def _quoted_word(word: str, position: int) -> str:
    """The identifier a word holding a double-quoted segment names."""
    pieces: list[str] = []
    for bare, quoted, closing in _WORD_PIECE.findall(word):
        if bare:
            pieces.append(bare)
        elif not closing:
            raise ParseError("unterminated quoted identifier", position)
        elif not quoted:
            raise ParseError("empty quoted identifier", position)
        else:
            pieces.append(quoted.replace('""', '"'))
    return "".join(pieces)


def tokenize(text: str) -> list[Token]:
    """Split SQL text into tokens, raising :class:`ParseError` on bad input."""
    tokens: list[Token] = []
    append = tokens.append
    match = _TOKEN.match
    end = 0
    while True:
        m = match(text, end)
        kind = m.lastgroup
        value = m.group(kind)
        end = m.end()
        pos = end - len(value)
        if kind == "word":
            first = value[0]
            # The pattern's first character also admits numerals that are
            # not letters (``²``); a bare word starts with a letter or ``_``.
            if not (first.isalpha() or first == "_" or first == '"'):
                raise ParseError(f"unexpected character {first!r}", pos)
            if '"' in value:
                word = _quoted_word(value, pos)
                append(_new(Token, (_IDENTIFIER, word, pos, True, word.lower())))
            else:
                low = value.lower()
                if low in KEYWORDS:
                    append(_new(Token, (_KEYWORD, low, pos, False, low)))
                else:
                    append(_new(Token, (_IDENTIFIER, value, pos, False, low)))
        elif kind in _SIMPLE:
            append(_new(Token, (_SIMPLE[kind], value, pos, False, value)))
        elif kind == "string":
            body = value[1:-1].replace("''", "'")
            append(_new(Token, (TokenType.STRING, body, pos, False, body)))
        elif kind == "end":
            append(_new(Token, (TokenType.EOF, "", pos, False, "")))
            return tokens
        elif kind == "malformed":
            raise ParseError(f"malformed number {value!r}", pos)
        elif kind == "unterminated":
            raise ParseError("unterminated string literal", pos)
        else:
            raise ParseError(f"unexpected character {value!r}", pos)
