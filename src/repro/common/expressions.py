"""Expression AST shared by the SQL engine, the array engine and the islands.

The same expression tree is produced by the SQL parser, the AFL parser and the
BigDAWG query planner, which lets predicates be pushed across island
boundaries without re-parsing.

Expressions support two evaluation strategies:

* :meth:`Expression.evaluate` — the interpreted path: walk the tree once per
  row, resolving column names against the row's schema each time.
* :meth:`Expression.compile` — the compiled path: lower the tree *once*
  against a schema into a closure over a positional value tuple.  Column
  references become index lookups, operator tables are resolved at compile
  time, and LIKE patterns become pre-compiled regexes, so evaluating a
  predicate over a batch of rows pays no per-row dispatch.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Callable, Sequence

from repro.common.errors import ExecutionError
from repro.common.schema import Row, Schema

#: A compiled expression: positional value tuple -> value.
CompiledExpression = Callable[[Sequence[Any]], Any]


class Expression:
    """Base class of all expression nodes."""

    def evaluate(self, row: Row) -> Any:
        """Evaluate this expression against one row."""
        raise NotImplementedError

    def compile(self, schema: Schema) -> CompiledExpression:
        """Lower this expression once into a closure over a value tuple.

        The returned callable takes a positional sequence of values laid out
        according to ``schema`` and returns the expression's value.  The
        default implementation wraps :meth:`evaluate` so expression types
        added later still work on the compiled path; every built-in node
        overrides it with a dispatch-free closure.
        """
        node, bound_schema = self, schema
        return lambda values: node.evaluate(Row(bound_schema, values))

    def referenced_columns(self) -> set[str]:
        """Return the set of column names this expression reads."""
        return set()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return self.to_sql()

    def to_sql(self) -> str:
        """Render the expression back to SQL-ish text (for EXPLAIN and shims)."""
        raise NotImplementedError


@dataclass(frozen=True, repr=False)
class Literal(Expression):
    """A constant value."""

    value: Any

    def evaluate(self, row: Row) -> Any:
        return self.value

    def compile(self, schema: Schema) -> CompiledExpression:
        value = self.value
        return lambda values: value

    def to_sql(self) -> str:
        if self.value is None:
            return "NULL"
        if isinstance(self.value, str):
            escaped = self.value.replace("'", "''")
            return f"'{escaped}'"
        if isinstance(self.value, bool):
            return "TRUE" if self.value else "FALSE"
        return str(self.value)


@dataclass(frozen=True, repr=False)
class ColumnRef(Expression):
    """A reference to a column by name."""

    name: str

    def evaluate(self, row: Row) -> Any:
        return row[self.name]

    def compile(self, schema: Schema) -> CompiledExpression:
        return operator.itemgetter(schema.index_of(self.name))

    def referenced_columns(self) -> set[str]:
        return {self.name.lower()}

    def to_sql(self) -> str:
        return self.name


def _null_safe(fn: Callable[[Any, Any], Any]) -> Callable[[Any, Any], Any]:
    """Wrap a binary operator with SQL NULL propagation."""

    def wrapped(left: Any, right: Any) -> Any:
        if left is None or right is None:
            return None
        return fn(left, right)

    return wrapped


def _divide(left: Any, right: Any) -> Any:
    if right == 0:
        raise ExecutionError("division by zero")
    result = left / right
    return result


@lru_cache(maxsize=512)
def _like_regex(pattern: str) -> "re.Pattern[str]":
    """Compile a LIKE pattern (``%`` and ``_`` wildcards) to a regex, once.

    The cache means a LIKE predicate evaluated over a million rows compiles
    its regex a single time instead of once per row.
    """
    return re.compile(re.escape(pattern).replace("%", ".*").replace("_", "."))


def _like(value: Any, pattern: Any) -> bool:
    """SQL LIKE with % and _ wildcards, case sensitive."""
    return _like_regex(str(pattern)).fullmatch(str(value)) is not None


_BINARY_OPS: dict[str, Callable[[Any, Any], Any]] = {
    "+": _null_safe(operator.add),
    "-": _null_safe(operator.sub),
    "*": _null_safe(operator.mul),
    "/": _null_safe(_divide),
    "%": _null_safe(operator.mod),
    "=": _null_safe(operator.eq),
    "==": _null_safe(operator.eq),
    "!=": _null_safe(operator.ne),
    "<>": _null_safe(operator.ne),
    "<": _null_safe(operator.lt),
    "<=": _null_safe(operator.le),
    ">": _null_safe(operator.gt),
    ">=": _null_safe(operator.ge),
    "like": _null_safe(_like),
}


@dataclass(frozen=True, repr=False)
class BinaryOp(Expression):
    """A binary arithmetic or comparison operator with SQL NULL semantics."""

    op: str
    left: Expression
    right: Expression

    def __post_init__(self) -> None:
        if self.op.lower() not in _BINARY_OPS and self.op.lower() not in ("and", "or"):
            raise ExecutionError(f"unknown binary operator: {self.op!r}")

    def evaluate(self, row: Row) -> Any:
        op = self.op.lower()
        if op == "and":
            left = self.left.evaluate(row)
            if left is False:
                return False
            right = self.right.evaluate(row)
            if right is False:
                return False
            if left is None or right is None:
                return None
            return bool(left) and bool(right)
        if op == "or":
            left = self.left.evaluate(row)
            if left is True:
                return True
            right = self.right.evaluate(row)
            if right is True:
                return True
            if left is None or right is None:
                return None
            return bool(left) or bool(right)
        return _BINARY_OPS[op](self.left.evaluate(row), self.right.evaluate(row))

    def compile(self, schema: Schema) -> CompiledExpression:
        op = self.op.lower()
        left = self.left.compile(schema)
        right = self.right.compile(schema)
        if op == "and":

            def _and(values: Sequence[Any]) -> Any:
                l = left(values)
                if l is False:
                    return False
                r = right(values)
                if r is False:
                    return False
                if l is None or r is None:
                    return None
                return bool(l) and bool(r)

            return _and
        if op == "or":

            def _or(values: Sequence[Any]) -> Any:
                l = left(values)
                if l is True:
                    return True
                r = right(values)
                if r is True:
                    return True
                if l is None or r is None:
                    return None
                return bool(l) or bool(r)

            return _or
        if op == "like" and isinstance(self.right, Literal) and self.right.value is not None:
            # Constant pattern: bake the compiled regex straight into the closure.
            regex = _like_regex(str(self.right.value))

            def _match(values: Sequence[Any]) -> Any:
                value = left(values)
                if value is None:
                    return None
                return regex.fullmatch(str(value)) is not None

            return _match
        fn = _BINARY_OPS[op]
        return lambda values: fn(left(values), right(values))

    def referenced_columns(self) -> set[str]:
        return self.left.referenced_columns() | self.right.referenced_columns()

    def to_sql(self) -> str:
        return f"({self.left.to_sql()} {self.op.upper()} {self.right.to_sql()})"


@dataclass(frozen=True, repr=False)
class UnaryOp(Expression):
    """NOT and unary minus."""

    op: str
    operand: Expression

    def evaluate(self, row: Row) -> Any:
        value = self.operand.evaluate(row)
        op = self.op.lower()
        if op == "not":
            if value is None:
                return None
            return not bool(value)
        if op == "-":
            if value is None:
                return None
            return -value
        raise ExecutionError(f"unknown unary operator: {self.op!r}")

    def compile(self, schema: Schema) -> CompiledExpression:
        operand = self.operand.compile(schema)
        op = self.op.lower()
        if op == "not":

            def _not(values: Sequence[Any]) -> Any:
                value = operand(values)
                return None if value is None else not bool(value)

            return _not
        if op == "-":

            def _neg(values: Sequence[Any]) -> Any:
                value = operand(values)
                return None if value is None else -value

            return _neg
        raise ExecutionError(f"unknown unary operator: {self.op!r}")

    def referenced_columns(self) -> set[str]:
        return self.operand.referenced_columns()

    def to_sql(self) -> str:
        return f"({self.op.upper()} {self.operand.to_sql()})"


@dataclass(frozen=True, repr=False)
class IsNull(Expression):
    """``expr IS [NOT] NULL``."""

    operand: Expression
    negated: bool = False

    def evaluate(self, row: Row) -> Any:
        is_null = self.operand.evaluate(row) is None
        return (not is_null) if self.negated else is_null

    def compile(self, schema: Schema) -> CompiledExpression:
        operand = self.operand.compile(schema)
        if self.negated:
            return lambda values: operand(values) is not None
        return lambda values: operand(values) is None

    def referenced_columns(self) -> set[str]:
        return self.operand.referenced_columns()

    def to_sql(self) -> str:
        suffix = "IS NOT NULL" if self.negated else "IS NULL"
        return f"({self.operand.to_sql()} {suffix})"


@dataclass(frozen=True, repr=False)
class InList(Expression):
    """``expr IN (v1, v2, ...)``."""

    operand: Expression
    values: tuple[Any, ...]
    negated: bool = False

    def evaluate(self, row: Row) -> Any:
        return self._member(self.operand.evaluate(row))

    def _member(self, value: Any) -> Any:
        """Three-valued: a value absent from a list that holds a NULL may
        equal that NULL, so it is unknown (NULL), under IN and NOT IN alike.
        Tuple membership keeps ``==`` semantics; IN lists are short."""
        if value is None:
            return None
        if value in self.values:
            return not self.negated
        return None if None in self.values else self.negated

    def compile(self, schema: Schema) -> CompiledExpression:
        operand, member = self.operand.compile(schema), self._member
        return lambda values: member(operand(values))

    def referenced_columns(self) -> set[str]:
        return self.operand.referenced_columns()

    def to_sql(self) -> str:
        rendered = ", ".join(Literal(v).to_sql() for v in self.values)
        keyword = "NOT IN" if self.negated else "IN"
        return f"({self.operand.to_sql()} {keyword} ({rendered}))"


_SCALAR_FUNCTIONS: dict[str, Callable[..., Any]] = {
    "abs": abs,
    "sqrt": lambda x: math.sqrt(x) if x is not None else None,
    "floor": lambda x: math.floor(x) if x is not None else None,
    "ceil": lambda x: math.ceil(x) if x is not None else None,
    "round": lambda x, n=0: round(x, int(n)) if x is not None else None,
    "ln": lambda x: math.log(x) if x is not None else None,
    "log": lambda x: math.log10(x) if x is not None else None,
    "exp": lambda x: math.exp(x) if x is not None else None,
    "upper": lambda s: s.upper() if s is not None else None,
    "lower": lambda s: s.lower() if s is not None else None,
    "length": lambda s: len(s) if s is not None else None,
    "substr": lambda s, start, length=None: (
        None if s is None else (s[int(start) - 1 :] if length is None else s[int(start) - 1 : int(start) - 1 + int(length)])
    ),
    "coalesce": lambda *args: next((a for a in args if a is not None), None),
    "greatest": lambda *args: max(a for a in args if a is not None),
    "least": lambda *args: min(a for a in args if a is not None),
    "pow": lambda x, y: math.pow(x, y) if x is not None and y is not None else None,
    "sin": lambda x: math.sin(x) if x is not None else None,
    "cos": lambda x: math.cos(x) if x is not None else None,
}


def scalar_function_names() -> set[str]:
    """Names of all built-in scalar functions (used by parsers)."""
    return set(_SCALAR_FUNCTIONS)


@dataclass(frozen=True, repr=False)
class FunctionCall(Expression):
    """A call to a built-in scalar function."""

    name: str
    args: tuple[Expression, ...]

    def evaluate(self, row: Row) -> Any:
        fn = _SCALAR_FUNCTIONS.get(self.name.lower())
        if fn is None:
            raise ExecutionError(f"unknown scalar function: {self.name!r}")
        return fn(*[arg.evaluate(row) for arg in self.args])

    def compile(self, schema: Schema) -> CompiledExpression:
        fn = _SCALAR_FUNCTIONS.get(self.name.lower())
        if fn is None:
            raise ExecutionError(f"unknown scalar function: {self.name!r}")
        compiled = [arg.compile(schema) for arg in self.args]
        if len(compiled) == 1:
            arg0 = compiled[0]
            return lambda values: fn(arg0(values))
        if len(compiled) == 2:
            arg0, arg1 = compiled
            return lambda values: fn(arg0(values), arg1(values))
        return lambda values: fn(*[arg(values) for arg in compiled])

    def referenced_columns(self) -> set[str]:
        refs: set[str] = set()
        for arg in self.args:
            refs |= arg.referenced_columns()
        return refs

    def to_sql(self) -> str:
        return f"{self.name.upper()}({', '.join(a.to_sql() for a in self.args)})"


@dataclass(frozen=True, repr=False)
class CaseWhen(Expression):
    """``CASE WHEN cond THEN value ... ELSE default END``."""

    branches: tuple[tuple[Expression, Expression], ...]
    default: Expression | None = None

    def evaluate(self, row: Row) -> Any:
        for condition, result in self.branches:
            if condition.evaluate(row):
                return result.evaluate(row)
        if self.default is not None:
            return self.default.evaluate(row)
        return None

    def compile(self, schema: Schema) -> CompiledExpression:
        branches = [
            (condition.compile(schema), result.compile(schema))
            for condition, result in self.branches
        ]
        default = self.default.compile(schema) if self.default is not None else None

        def _case(values: Sequence[Any]) -> Any:
            for condition, result in branches:
                if condition(values):
                    return result(values)
            if default is not None:
                return default(values)
            return None

        return _case

    def referenced_columns(self) -> set[str]:
        refs: set[str] = set()
        for condition, result in self.branches:
            refs |= condition.referenced_columns() | result.referenced_columns()
        if self.default is not None:
            refs |= self.default.referenced_columns()
        return refs

    def to_sql(self) -> str:
        parts = ["CASE"]
        for condition, result in self.branches:
            parts.append(f"WHEN {condition.to_sql()} THEN {result.to_sql()}")
        if self.default is not None:
            parts.append(f"ELSE {self.default.to_sql()}")
        parts.append("END")
        return " ".join(parts)


def conjunction(predicates: Sequence[Expression]) -> Expression | None:
    """AND together a list of predicates; returns None for an empty list."""
    result: Expression | None = None
    for predicate in predicates:
        result = predicate if result is None else BinaryOp("and", result, predicate)
    return result


def split_conjuncts(predicate: Expression | None) -> list[Expression]:
    """Split a predicate into its top-level AND-ed conjuncts."""
    if predicate is None:
        return []
    if isinstance(predicate, BinaryOp) and predicate.op.lower() == "and":
        return split_conjuncts(predicate.left) + split_conjuncts(predicate.right)
    return [predicate]


def columns_satisfiable_by(predicate: Expression, schema: Schema) -> bool:
    """Return True if every column the predicate references exists in ``schema``."""
    return all(schema.has_column(name) for name in predicate.referenced_columns())


def evaluate_predicate(predicate: Expression | None, row: Row) -> bool:
    """Evaluate a predicate with SQL semantics: NULL counts as not satisfied."""
    if predicate is None:
        return True
    result = predicate.evaluate(row)
    return bool(result) if result is not None else False


def compile_predicate(
    predicate: Expression | None, schema: Schema
) -> Callable[[Sequence[Any]], bool]:
    """Compile a predicate once into a value-tuple closure with SQL semantics.

    The returned callable applies the same NULL-counts-as-false rule as
    :func:`evaluate_predicate`, but resolves columns, operators and LIKE
    regexes a single time instead of once per row.
    """
    if predicate is None:
        return lambda values: True
    compiled = predicate.compile(schema)

    def _predicate(values: Sequence[Any]) -> bool:
        result = compiled(values)
        return bool(result) if result is not None else False

    return _predicate
