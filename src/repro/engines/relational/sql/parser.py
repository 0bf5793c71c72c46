"""Recursive-descent parser producing the SQL AST.

Supported statements: ``CREATE TABLE``, ``DROP TABLE``, ``CREATE INDEX``,
``INSERT``, ``UPDATE``, ``DELETE`` and ``SELECT`` with joins, ``WHERE``,
``GROUP BY`` / ``HAVING``, ``ORDER BY``, ``LIMIT`` / ``OFFSET``, ``DISTINCT``,
aggregates, ``CASE`` expressions, ``IN`` lists, ``BETWEEN``, ``LIKE`` and
``IS [NOT] NULL``.
"""

from __future__ import annotations

from typing import Callable, TypeVar

from repro.common.errors import ParseError
from repro.common.expressions import (
    BinaryOp,
    CaseWhen,
    ColumnRef,
    Expression,
    FunctionCall,
    InList,
    IsNull,
    Literal,
    UnaryOp,
    scalar_function_names,
)
from repro.common.types import parse_type
from repro.engines.relational.sql.ast import (
    ColumnDefinition,
    CreateIndexStatement,
    CreateTableStatement,
    DeleteStatement,
    DropTableStatement,
    InsertStatement,
    JoinClause,
    OrderItem,
    SelectItem,
    SelectStatement,
    Statement,
    TableRef,
    UpdateStatement,
)
from repro.engines.relational.sql.lexer import (
    SOFT_KEYWORDS,
    Token,
    TokenType,
    tokenize,
)

_AGGREGATES = {"count", "sum", "avg", "min", "max", "stddev"}
#: How tightly each binary operator binds: OR 1, AND 2, the comparisons
#: (NOT opens ``NOT LIKE/IN/BETWEEN``) 3, ``+ -`` 4 and ``* / %`` 5.
_LEVELS = {
    "or": 1, "and": 2,
    **dict.fromkeys(("=", "==", "!=", "<>", "<", "<=", ">", ">="), 3),
    **dict.fromkeys(("like", "not", "in", "between", "is"), 3),
    "+": 4, "-": 4, "*": 5, "/": 5, "%": 5,
}
_T = TypeVar("_T")


class _Parser:
    def __init__(self, tokens: list[Token]) -> None:
        self._tokens = tokens
        self._pos = 0

    # ------------------------------------------------------------- primitives
    def advance(self) -> Token:
        token = self._tokens[self._pos]
        self._pos += 1
        return token

    def check(self, token_type: TokenType, value: str | None = None) -> bool:
        token = self._tokens[self._pos]
        return token.type is token_type and (value is None or token.low == value)

    def accept(self, token_type: TokenType, value: str | None = None) -> Token | None:
        token = self._tokens[self._pos]
        if token.type is token_type and (value is None or token.low == value):
            self._pos += 1
            return token
        return None

    def expect(self, token_type: TokenType, value: str | None = None) -> Token:
        token = self._tokens[self._pos]
        if token.type is not token_type or (value is not None and token.low != value):
            raise ParseError(
                f"expected {value or token_type.value!s} but found {token.value!r}",
                token.position,
            )
        self._pos += 1
        return token

    def expect_end(self) -> None:
        token = self._tokens[self._pos]
        if token.type is not TokenType.EOF:
            raise ParseError(f"unexpected trailing input: {token.value!r}", token.position)

    def _identifier(self) -> str:
        return self.expect(TokenType.IDENTIFIER).value

    def _comma_list(self, parse_one: Callable[[], _T]) -> list[_T]:
        """One or more ``parse_one`` items separated by commas."""
        items = [parse_one()]
        while self.accept(TokenType.PUNCTUATION, ","):
            items.append(parse_one())
        return items

    def _parenthesized(self, parse_one: Callable[[], _T]) -> list[_T]:
        """A parenthesized :meth:`_comma_list`."""
        self.expect(TokenType.PUNCTUATION, "(")
        items = self._comma_list(parse_one)
        self.expect(TokenType.PUNCTUATION, ")")
        return items

    def _peek(self, offset: int = 1) -> Token:
        index = min(self._pos + offset, len(self._tokens) - 1)
        return self._tokens[index]

    def _starts_soft_join(self) -> bool:
        """Whether the current token is a soft keyword (a member of
        :data:`~repro.engines.relational.sql.lexer.SOFT_KEYWORDS`) opening
        a join clause.  Soft keywords lex as identifiers, so the decision
        needs one token of lookahead: only
        ``right/full`` directly followed by ``JOIN`` or ``OUTER`` is a join;
        anywhere else — or when the user double-quoted the word, which
        forces identifier treatment — it is an ordinary identifier (a
        column name, an alias, ...)."""
        token = self._tokens[self._pos]
        if token.type is not TokenType.IDENTIFIER or token.quoted or token.low not in SOFT_KEYWORDS:
            return False
        upcoming = self._peek()
        return upcoming.type is TokenType.KEYWORD and upcoming.value in ("join", "outer")

    # -------------------------------------------------------------- statements
    def parse_statement(self) -> Statement:
        if self.check(TokenType.KEYWORD, "select"):
            return self.parse_select()
        if self.check(TokenType.KEYWORD, "insert"):
            return self.parse_insert()
        if self.check(TokenType.KEYWORD, "update"):
            return self.parse_update()
        if self.check(TokenType.KEYWORD, "delete"):
            return self.parse_delete()
        if self.check(TokenType.KEYWORD, "create"):
            return self.parse_create()
        if self.check(TokenType.KEYWORD, "drop"):
            return self.parse_drop()
        token = self._tokens[self._pos]
        raise ParseError(f"unexpected statement start: {token.value!r}", token.position)

    def parse_create(self) -> Statement:
        self.expect(TokenType.KEYWORD, "create")
        unique = bool(self.accept(TokenType.KEYWORD, "unique"))
        if self.accept(TokenType.KEYWORD, "table"):
            if unique:
                raise ParseError("UNIQUE is not valid before TABLE", self._tokens[self._pos].position)
            return self._parse_create_table()
        if self.accept(TokenType.KEYWORD, "index"):
            return self._parse_create_index(unique)
        raise ParseError("expected TABLE or INDEX after CREATE", self._tokens[self._pos].position)

    def _parse_create_table(self) -> CreateTableStatement:
        if_not_exists = False
        if self.accept(TokenType.KEYWORD, "if"):
            self.expect(TokenType.KEYWORD, "not")
            self.expect(TokenType.KEYWORD, "exists")
            if_not_exists = True
        table = self._identifier()
        columns = self._parenthesized(self._parse_column_definition)
        return CreateTableStatement(table, columns, if_not_exists)

    def _parse_column_definition(self) -> ColumnDefinition:
        name = self._identifier()
        dtype = parse_type(self.advance().value)
        nullable = True
        primary_key = False
        while True:
            if self.accept(TokenType.KEYWORD, "not"):
                self.expect(TokenType.KEYWORD, "null")
                nullable = False
            elif self.accept(TokenType.KEYWORD, "primary"):
                self.expect(TokenType.KEYWORD, "key")
                primary_key = True
                nullable = False
            elif self.accept(TokenType.KEYWORD, "null"):
                nullable = True
            else:
                return ColumnDefinition(name, dtype, nullable, primary_key)

    def _parse_create_index(self, unique: bool) -> CreateIndexStatement:
        index = self._identifier()
        self.expect(TokenType.KEYWORD, "on")
        table = self._identifier()
        return CreateIndexStatement(index, table, self._parenthesized(self._identifier), unique)

    def parse_drop(self) -> DropTableStatement:
        self.expect(TokenType.KEYWORD, "drop")
        self.expect(TokenType.KEYWORD, "table")
        if_exists = False
        if self.accept(TokenType.KEYWORD, "if"):
            self.expect(TokenType.KEYWORD, "exists")
            if_exists = True
        table = self._identifier()
        return DropTableStatement(table, if_exists)

    def parse_insert(self) -> InsertStatement:
        self.expect(TokenType.KEYWORD, "insert")
        self.expect(TokenType.KEYWORD, "into")
        table = self._identifier()
        columns: list[str] = []
        if self.check(TokenType.PUNCTUATION, "("):
            columns = self._parenthesized(self._identifier)
        self.expect(TokenType.KEYWORD, "values")
        rows = self._comma_list(lambda: self._parenthesized(self.parse_expression))
        return InsertStatement(table, columns, rows)

    def parse_update(self) -> UpdateStatement:
        self.expect(TokenType.KEYWORD, "update")
        table = self._identifier()
        self.expect(TokenType.KEYWORD, "set")
        assignments = dict(self._comma_list(self._parse_assignment))
        where = None
        if self.accept(TokenType.KEYWORD, "where"):
            where = self.parse_expression()
        return UpdateStatement(table, assignments, where)

    def _parse_assignment(self) -> tuple[str, Expression]:
        column = self._identifier()
        self.expect(TokenType.OPERATOR, "=")
        return column, self.parse_expression()

    def parse_delete(self) -> DeleteStatement:
        self.expect(TokenType.KEYWORD, "delete")
        self.expect(TokenType.KEYWORD, "from")
        table = self._identifier()
        where = None
        if self.accept(TokenType.KEYWORD, "where"):
            where = self.parse_expression()
        return DeleteStatement(table, where)

    # ------------------------------------------------------------------ select
    def parse_select(self) -> SelectStatement:
        self.expect(TokenType.KEYWORD, "select")
        statement = SelectStatement()
        if self.accept(TokenType.KEYWORD, "distinct"):
            statement.distinct = True
        statement.items = self._comma_list(self._parse_select_item)
        if self.accept(TokenType.KEYWORD, "from"):
            statement.from_table = self._parse_table_ref()
            while True:
                if self.accept(TokenType.KEYWORD, "join") or self.accept(TokenType.KEYWORD, "inner"):
                    self.accept(TokenType.KEYWORD, "join")
                    join_type = "inner"
                elif self.accept(TokenType.KEYWORD, "cross"):
                    self.expect(TokenType.KEYWORD, "join")
                    join_type = "cross"
                elif self.check(TokenType.KEYWORD, "left") or self._starts_soft_join():
                    join_type = self.advance().low  # left, right or full
                    self.accept(TokenType.KEYWORD, "outer")
                    self.expect(TokenType.KEYWORD, "join")
                else:
                    break
                table = self._parse_table_ref()
                condition = None
                if join_type != "cross":
                    self.expect(TokenType.KEYWORD, "on")
                    condition = self.parse_expression()
                statement.joins.append(JoinClause(table, condition, join_type))
        if self.accept(TokenType.KEYWORD, "where"):
            statement.where = self.parse_expression()
        if self.accept(TokenType.KEYWORD, "group"):
            self.expect(TokenType.KEYWORD, "by")
            statement.group_by = self._comma_list(self.parse_expression)
        if self.accept(TokenType.KEYWORD, "having"):
            statement.having = self.parse_expression()
        if self.accept(TokenType.KEYWORD, "order"):
            self.expect(TokenType.KEYWORD, "by")
            statement.order_by = self._comma_list(self._parse_order_item)
        if self.accept(TokenType.KEYWORD, "limit"):
            statement.limit = self._parse_count()
        if self.accept(TokenType.KEYWORD, "offset"):
            statement.offset = self._parse_count()
        return statement

    def _parse_count(self) -> int:
        """A LIMIT or OFFSET count: an integer literal."""
        token = self.expect(TokenType.NUMBER)
        if not token.value.isdigit():
            raise ParseError(f"expected an integer but found {token.value!r}", token.position)
        return int(token.value)

    def _parse_table_ref(self) -> TableRef:
        if self.accept(TokenType.PUNCTUATION, "("):
            subquery = self.parse_select()
            self.expect(TokenType.PUNCTUATION, ")")
            alias = None
            explicit = bool(self.accept(TokenType.KEYWORD, "as"))
            if self.check(TokenType.IDENTIFIER) and (
                explicit
                # "FROM (...) RIGHT JOIN b": the soft keyword opens a join
                # clause, it is not the derived table's implicit alias.
                or not self._starts_soft_join()
            ):
                alias = self.advance().value
            return TableRef(subquery=subquery, alias=alias)
        name = self._identifier()
        alias = None
        if self.accept(TokenType.KEYWORD, "as"):
            alias = self._identifier()
        elif self.check(TokenType.IDENTIFIER) and not self._starts_soft_join(
            # "FROM a RIGHT JOIN b": the soft keyword opens a join clause,
            # it is not an implicit alias (write "a AS right" to alias).
        ):
            alias = self.advance().value
        return TableRef(name=name, alias=alias)

    def _parse_order_item(self) -> OrderItem:
        expr = self.parse_expression()
        descending = False
        if self.accept(TokenType.KEYWORD, "desc"):
            descending = True
        else:
            self.accept(TokenType.KEYWORD, "asc")
        return OrderItem(expr, descending)

    def _parse_select_item(self) -> SelectItem:
        if self.check(TokenType.OPERATOR, "*"):
            self.advance()
            return SelectItem(star=True)
        # Aggregate functions.
        token = self._tokens[self._pos]
        if token.type is TokenType.KEYWORD and token.value in _AGGREGATES:
            aggregate = self.advance().value
            self.expect(TokenType.PUNCTUATION, "(")
            distinct = bool(self.accept(TokenType.KEYWORD, "distinct"))
            expression: Expression | None = None
            if self.check(TokenType.OPERATOR, "*"):
                self.advance()
            else:
                expression = self.parse_expression()
            self.expect(TokenType.PUNCTUATION, ")")
            alias = self._parse_alias()
            return SelectItem(expression=expression, alias=alias, aggregate=aggregate, distinct=distinct)
        expression = self.parse_expression()
        alias = self._parse_alias()
        return SelectItem(expression=expression, alias=alias)

    def _parse_alias(self) -> str | None:
        if self.accept(TokenType.KEYWORD, "as"):
            return self._identifier()
        if self.check(TokenType.IDENTIFIER):
            return self.advance().value
        return None

    # -------------------------------------------------------------- expressions
    def parse_expression(self, level: int = 1) -> Expression:
        """An expression of operators that bind at ``level`` or tighter
        (:data:`_LEVELS`; 6 is a unary minus or a primary).  Binary
        operators associate to the left; a comparison takes no second one
        and nothing but AND/OR after it, and a NOT prefix only AND/OR."""
        token = self._tokens[self._pos]
        ceiling = 5
        if level <= 3 and token.type is TokenType.KEYWORD and token.value == "not":
            self._pos += 1
            left: Expression = UnaryOp("not", self.parse_expression(3))
            ceiling = 2
        elif token.type is TokenType.OPERATOR and token.value == "-":
            self._pos += 1
            left = UnaryOp("-", self.parse_expression(6))
        else:
            left = self._parse_primary()
        while True:
            token = self._tokens[self._pos]
            if token.type is not TokenType.OPERATOR and token.type is not TokenType.KEYWORD:
                return left
            at = _LEVELS.get(token.value)
            if at is None or not level <= at <= ceiling:
                return left
            if at == 3:
                comparison = self._parse_comparison(left)
                if comparison is None:
                    return left
                left = comparison
                ceiling = 2
            else:
                self._pos += 1
                left = BinaryOp(token.value, left, self.parse_expression(at + 1))
                ceiling = at

    def _parse_comparison(self, left: Expression) -> Expression | None:
        """The comparison the current token opens with ``left`` as its
        operand, or None (nothing consumed) for a NOT that opens none."""
        token = self.advance()
        word = token.value
        if token.type is TokenType.OPERATOR or word == "like":
            return BinaryOp(word, left, self.parse_expression(4))
        if word == "not":
            if self.accept(TokenType.KEYWORD, "like"):
                return UnaryOp("not", BinaryOp("like", left, self.parse_expression(4)))
            if self.accept(TokenType.KEYWORD, "in"):
                return self._parse_in(left, negated=True)
            if self.accept(TokenType.KEYWORD, "between"):
                return UnaryOp("not", self._parse_between(left))
            self._pos -= 1
            return None
        if word == "in":
            return self._parse_in(left, negated=False)
        if word == "between":
            return self._parse_between(left)
        negated = bool(self.accept(TokenType.KEYWORD, "not"))  # IS [NOT] NULL
        self.expect(TokenType.KEYWORD, "null")
        return IsNull(left, negated)

    def _parse_in(self, operand: Expression, negated: bool) -> Expression:
        return InList(operand, tuple(self._parenthesized(self._literal_value)), negated)

    def _literal_value(self):
        expr = self.parse_expression()
        if isinstance(expr, Literal):
            return expr.value
        if (
            isinstance(expr, UnaryOp)
            and expr.op == "-"
            and isinstance(expr.operand, Literal)
            and isinstance(expr.operand.value, (int, float))
            and not isinstance(expr.operand.value, bool)
        ):
            return -expr.operand.value
        raise ParseError("IN list values must be literals", self._tokens[self._pos].position)

    def _parse_between(self, operand: Expression) -> Expression:
        low = self.parse_expression(4)
        self.expect(TokenType.KEYWORD, "and")
        high = self.parse_expression(4)
        return BinaryOp("and", BinaryOp(">=", operand, low), BinaryOp("<=", operand, high))

    def _parse_primary(self) -> Expression:
        token = self._tokens[self._pos]
        if token.type is TokenType.NUMBER:
            self.advance()
            text = token.value
            return Literal(int(text) if text.isdigit() else float(text))
        if token.type is TokenType.STRING:
            self.advance()
            return Literal(token.value)
        if token.type is TokenType.KEYWORD:
            if token.value == "null":
                self.advance()
                return Literal(None)
            if token.value == "true":
                self.advance()
                return Literal(True)
            if token.value == "false":
                self.advance()
                return Literal(False)
            if token.value == "case":
                return self._parse_case()
            if token.value in _AGGREGATES:
                # Aggregates inside expressions (e.g. HAVING count(*) > 2) are
                # represented as column references to the aggregate's output name.
                aggregate = self.advance().value
                self.expect(TokenType.PUNCTUATION, "(")
                inner: Expression | None = None
                if self.check(TokenType.OPERATOR, "*"):
                    self.advance()
                else:
                    inner = self.parse_expression()
                self.expect(TokenType.PUNCTUATION, ")")
                inner_sql = "*" if inner is None else inner.to_sql()
                return ColumnRef(f"{aggregate}({inner_sql})")
        if token.type is TokenType.PUNCTUATION and token.value == "(":
            self.advance()
            expr = self.parse_expression()
            self.expect(TokenType.PUNCTUATION, ")")
            return expr
        if token.type is TokenType.IDENTIFIER:
            self.advance()
            if self.check(TokenType.PUNCTUATION, "(") and token.low in scalar_function_names():
                self.advance()
                args: list[Expression] = []
                if not self.check(TokenType.PUNCTUATION, ")"):
                    args = self._comma_list(self.parse_expression)
                self.expect(TokenType.PUNCTUATION, ")")
                return FunctionCall(token.value, tuple(args))
            return ColumnRef(token.value)
        raise ParseError(f"unexpected token {token.value!r}", token.position)

    def _parse_case(self) -> Expression:
        self.expect(TokenType.KEYWORD, "case")
        branches: list[tuple[Expression, Expression]] = []
        default: Expression | None = None
        while self.accept(TokenType.KEYWORD, "when"):
            condition = self.parse_expression()
            self.expect(TokenType.KEYWORD, "then")
            result = self.parse_expression()
            branches.append((condition, result))
        if self.accept(TokenType.KEYWORD, "else"):
            default = self.parse_expression()
        self.expect(TokenType.KEYWORD, "end")
        return CaseWhen(tuple(branches), default)


def parse_sql(text: str) -> Statement:
    """Parse one SQL statement into its AST."""
    tokens = tokenize(text.strip().rstrip(";"))
    parser = _Parser(tokens)
    statement = parser.parse_statement()
    parser.expect_end()
    return statement


def parse_expression(text: str) -> Expression:
    """Parse a standalone scalar expression (no statement keywords).

    Used by the planner to reconstruct the inner expression of a
    HAVING-only aggregate reference such as ``sum(v + 1)`` from its
    rendered SQL, since HAVING aggregates parse to plain column refs.
    """
    tokens = tokenize(text.strip())
    parser = _Parser(tokens)
    expression = parser.parse_expression()
    parser.expect_end()
    return expression

