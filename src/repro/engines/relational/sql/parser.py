"""Recursive-descent parser producing the SQL AST.

Supported statements: ``CREATE TABLE``, ``DROP TABLE``, ``CREATE INDEX``,
``INSERT``, ``UPDATE``, ``DELETE`` and ``SELECT`` with joins, ``WHERE``,
``GROUP BY`` / ``HAVING``, ``ORDER BY``, ``LIMIT`` / ``OFFSET``, ``DISTINCT``,
aggregates, ``CASE`` expressions, ``IN`` lists, ``BETWEEN``, ``LIKE`` and
``IS [NOT] NULL``.
"""

from __future__ import annotations

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


class _Parser:
    def __init__(self, tokens: list[Token]) -> None:
        self._tokens = tokens
        self._pos = 0

    # ------------------------------------------------------------- primitives
    @property
    def current(self) -> Token:
        return self._tokens[self._pos]

    def advance(self) -> Token:
        token = self.current
        self._pos += 1
        return token

    def check(self, token_type: TokenType, value: str | None = None) -> bool:
        return self.current.matches(token_type, value)

    def accept(self, token_type: TokenType, value: str | None = None) -> Token | None:
        if self.check(token_type, value):
            return self.advance()
        return None

    def expect(self, token_type: TokenType, value: str | None = None) -> Token:
        if not self.check(token_type, value):
            raise ParseError(
                f"expected {value or token_type.value!s} but found {self.current.value!r}",
                self.current.position,
            )
        return self.advance()

    def _peek(self, offset: int = 1) -> Token:
        index = min(self._pos + offset, len(self._tokens) - 1)
        return self._tokens[index]

    def _starts_soft_join(self, word: str | None = None) -> bool:
        """Whether the current token is a soft keyword (``word``, or any
        member of :data:`~repro.engines.relational.sql.lexer.SOFT_KEYWORDS`
        when ``word`` is None) opening a join clause.  Soft keywords lex as
        identifiers, so the decision needs one token of lookahead: only
        ``right/full`` directly followed by ``JOIN`` or ``OUTER`` is a join;
        anywhere else — or when the user double-quoted the word, which
        forces identifier treatment — it is an ordinary identifier (a
        column name, an alias, ...)."""
        token = self.current
        if token.type is not TokenType.IDENTIFIER or token.quoted:
            return False
        value = token.value.lower()
        if value not in SOFT_KEYWORDS or (word is not None and value != word):
            return False
        upcoming = self._peek()
        return upcoming.matches(TokenType.KEYWORD, "join") or upcoming.matches(
            TokenType.KEYWORD, "outer"
        )

    def _accept_soft_join_keyword(self, word: str) -> bool:
        if self._starts_soft_join(word):
            self.advance()
            return True
        return False

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
        raise ParseError(f"unexpected statement start: {self.current.value!r}", self.current.position)

    def parse_create(self) -> Statement:
        self.expect(TokenType.KEYWORD, "create")
        unique = bool(self.accept(TokenType.KEYWORD, "unique"))
        if self.accept(TokenType.KEYWORD, "table"):
            if unique:
                raise ParseError("UNIQUE is not valid before TABLE", self.current.position)
            return self._parse_create_table()
        if self.accept(TokenType.KEYWORD, "index"):
            return self._parse_create_index(unique)
        raise ParseError("expected TABLE or INDEX after CREATE", self.current.position)

    def _parse_create_table(self) -> CreateTableStatement:
        if_not_exists = False
        if self.accept(TokenType.KEYWORD, "if"):
            self.expect(TokenType.KEYWORD, "not")
            self.expect(TokenType.KEYWORD, "exists")
            if_not_exists = True
        table = self.expect(TokenType.IDENTIFIER).value
        self.expect(TokenType.PUNCTUATION, "(")
        columns: list[ColumnDefinition] = []
        while True:
            name = self.expect(TokenType.IDENTIFIER).value
            type_token = self.advance()
            dtype = parse_type(type_token.value)
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
                    break
            columns.append(ColumnDefinition(name, dtype, nullable, primary_key))
            if not self.accept(TokenType.PUNCTUATION, ","):
                break
        self.expect(TokenType.PUNCTUATION, ")")
        return CreateTableStatement(table, columns, if_not_exists)

    def _parse_create_index(self, unique: bool) -> CreateIndexStatement:
        index = self.expect(TokenType.IDENTIFIER).value
        self.expect(TokenType.KEYWORD, "on")
        table = self.expect(TokenType.IDENTIFIER).value
        self.expect(TokenType.PUNCTUATION, "(")
        columns = [self.expect(TokenType.IDENTIFIER).value]
        while self.accept(TokenType.PUNCTUATION, ","):
            columns.append(self.expect(TokenType.IDENTIFIER).value)
        self.expect(TokenType.PUNCTUATION, ")")
        return CreateIndexStatement(index, table, columns, unique)

    def parse_drop(self) -> DropTableStatement:
        self.expect(TokenType.KEYWORD, "drop")
        self.expect(TokenType.KEYWORD, "table")
        if_exists = False
        if self.accept(TokenType.KEYWORD, "if"):
            self.expect(TokenType.KEYWORD, "exists")
            if_exists = True
        table = self.expect(TokenType.IDENTIFIER).value
        return DropTableStatement(table, if_exists)

    def parse_insert(self) -> InsertStatement:
        self.expect(TokenType.KEYWORD, "insert")
        self.expect(TokenType.KEYWORD, "into")
        table = self.expect(TokenType.IDENTIFIER).value
        columns: list[str] = []
        if self.accept(TokenType.PUNCTUATION, "("):
            columns.append(self.expect(TokenType.IDENTIFIER).value)
            while self.accept(TokenType.PUNCTUATION, ","):
                columns.append(self.expect(TokenType.IDENTIFIER).value)
            self.expect(TokenType.PUNCTUATION, ")")
        self.expect(TokenType.KEYWORD, "values")
        rows: list[list[Expression]] = []
        while True:
            self.expect(TokenType.PUNCTUATION, "(")
            row = [self.parse_expression()]
            while self.accept(TokenType.PUNCTUATION, ","):
                row.append(self.parse_expression())
            self.expect(TokenType.PUNCTUATION, ")")
            rows.append(row)
            if not self.accept(TokenType.PUNCTUATION, ","):
                break
        return InsertStatement(table, columns, rows)

    def parse_update(self) -> UpdateStatement:
        self.expect(TokenType.KEYWORD, "update")
        table = self.expect(TokenType.IDENTIFIER).value
        self.expect(TokenType.KEYWORD, "set")
        assignments: dict[str, Expression] = {}
        while True:
            column = self.expect(TokenType.IDENTIFIER).value
            self.expect(TokenType.OPERATOR, "=")
            assignments[column] = self.parse_expression()
            if not self.accept(TokenType.PUNCTUATION, ","):
                break
        where = None
        if self.accept(TokenType.KEYWORD, "where"):
            where = self.parse_expression()
        return UpdateStatement(table, assignments, where)

    def parse_delete(self) -> DeleteStatement:
        self.expect(TokenType.KEYWORD, "delete")
        self.expect(TokenType.KEYWORD, "from")
        table = self.expect(TokenType.IDENTIFIER).value
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
        statement.items.append(self._parse_select_item())
        while self.accept(TokenType.PUNCTUATION, ","):
            statement.items.append(self._parse_select_item())
        if self.accept(TokenType.KEYWORD, "from"):
            statement.from_table = self._parse_table_ref()
            while True:
                join_type = None
                if self.accept(TokenType.KEYWORD, "join") or self.accept(TokenType.KEYWORD, "inner"):
                    if self.check(TokenType.KEYWORD, "join"):
                        self.advance()
                    join_type = "inner"
                elif self.accept(TokenType.KEYWORD, "left"):
                    self.accept(TokenType.KEYWORD, "outer")
                    self.expect(TokenType.KEYWORD, "join")
                    join_type = "left"
                elif self._accept_soft_join_keyword("right"):
                    self.accept(TokenType.KEYWORD, "outer")
                    self.expect(TokenType.KEYWORD, "join")
                    join_type = "right"
                elif self._accept_soft_join_keyword("full"):
                    self.accept(TokenType.KEYWORD, "outer")
                    self.expect(TokenType.KEYWORD, "join")
                    join_type = "full"
                elif self.accept(TokenType.KEYWORD, "cross"):
                    self.expect(TokenType.KEYWORD, "join")
                    join_type = "cross"
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
            statement.group_by.append(self.parse_expression())
            while self.accept(TokenType.PUNCTUATION, ","):
                statement.group_by.append(self.parse_expression())
        if self.accept(TokenType.KEYWORD, "having"):
            statement.having = self.parse_expression()
        if self.accept(TokenType.KEYWORD, "order"):
            self.expect(TokenType.KEYWORD, "by")
            statement.order_by.append(self._parse_order_item())
            while self.accept(TokenType.PUNCTUATION, ","):
                statement.order_by.append(self._parse_order_item())
        if self.accept(TokenType.KEYWORD, "limit"):
            statement.limit = int(self.expect(TokenType.NUMBER).value)
        if self.accept(TokenType.KEYWORD, "offset"):
            statement.offset = int(self.expect(TokenType.NUMBER).value)
        return statement

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
        name = self.expect(TokenType.IDENTIFIER).value
        alias = None
        if self.accept(TokenType.KEYWORD, "as"):
            alias = self.expect(TokenType.IDENTIFIER).value
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
        if self.current.type is TokenType.KEYWORD and self.current.value in _AGGREGATES:
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
            return self.expect(TokenType.IDENTIFIER).value
        if self.check(TokenType.IDENTIFIER):
            return self.advance().value
        return None

    # -------------------------------------------------------------- expressions
    def parse_expression(self) -> Expression:
        return self._parse_or()

    def _parse_or(self) -> Expression:
        left = self._parse_and()
        while self.accept(TokenType.KEYWORD, "or"):
            left = BinaryOp("or", left, self._parse_and())
        return left

    def _parse_and(self) -> Expression:
        left = self._parse_not()
        while self.accept(TokenType.KEYWORD, "and"):
            left = BinaryOp("and", left, self._parse_not())
        return left

    def _parse_not(self) -> Expression:
        if self.accept(TokenType.KEYWORD, "not"):
            return UnaryOp("not", self._parse_not())
        return self._parse_comparison()

    def _parse_comparison(self) -> Expression:
        left = self._parse_additive()
        if self.check(TokenType.OPERATOR) and self.current.value in ("=", "==", "!=", "<>", "<", "<=", ">", ">="):
            op = self.advance().value
            return BinaryOp(op, left, self._parse_additive())
        if self.accept(TokenType.KEYWORD, "like"):
            return BinaryOp("like", left, self._parse_additive())
        if self.check(TokenType.KEYWORD, "not"):
            saved = self._pos
            self.advance()
            if self.accept(TokenType.KEYWORD, "like"):
                return UnaryOp("not", BinaryOp("like", left, self._parse_additive()))
            if self.accept(TokenType.KEYWORD, "in"):
                return self._parse_in(left, negated=True)
            if self.accept(TokenType.KEYWORD, "between"):
                return UnaryOp("not", self._parse_between(left))
            self._pos = saved
        if self.accept(TokenType.KEYWORD, "in"):
            return self._parse_in(left, negated=False)
        if self.accept(TokenType.KEYWORD, "between"):
            return self._parse_between(left)
        if self.accept(TokenType.KEYWORD, "is"):
            negated = bool(self.accept(TokenType.KEYWORD, "not"))
            self.expect(TokenType.KEYWORD, "null")
            return IsNull(left, negated)
        return left

    def _parse_in(self, operand: Expression, negated: bool) -> Expression:
        self.expect(TokenType.PUNCTUATION, "(")
        values = [self._literal_value()]
        while self.accept(TokenType.PUNCTUATION, ","):
            values.append(self._literal_value())
        self.expect(TokenType.PUNCTUATION, ")")
        return InList(operand, tuple(values), negated)

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
        raise ParseError("IN list values must be literals", self.current.position)

    def _parse_between(self, operand: Expression) -> Expression:
        low = self._parse_additive()
        self.expect(TokenType.KEYWORD, "and")
        high = self._parse_additive()
        return BinaryOp("and", BinaryOp(">=", operand, low), BinaryOp("<=", operand, high))

    def _parse_additive(self) -> Expression:
        left = self._parse_multiplicative()
        while self.check(TokenType.OPERATOR) and self.current.value in ("+", "-"):
            op = self.advance().value
            left = BinaryOp(op, left, self._parse_multiplicative())
        return left

    def _parse_multiplicative(self) -> Expression:
        left = self._parse_unary()
        while self.check(TokenType.OPERATOR) and self.current.value in ("*", "/", "%"):
            op = self.advance().value
            left = BinaryOp(op, left, self._parse_unary())
        return left

    def _parse_unary(self) -> Expression:
        if self.check(TokenType.OPERATOR, "-"):
            self.advance()
            return UnaryOp("-", self._parse_unary())
        return self._parse_primary()

    def _parse_primary(self) -> Expression:
        token = self.current
        if token.type is TokenType.NUMBER:
            self.advance()
            text = token.value
            if "." in text or "e" in text.lower():
                return Literal(float(text))
            return Literal(int(text))
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
            if self.check(TokenType.PUNCTUATION, "(") and token.value.lower() in scalar_function_names():
                self.advance()
                args: list[Expression] = []
                if not self.check(TokenType.PUNCTUATION, ")"):
                    args.append(self.parse_expression())
                    while self.accept(TokenType.PUNCTUATION, ","):
                        args.append(self.parse_expression())
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
    if not parser.check(TokenType.EOF):
        raise ParseError(
            f"unexpected trailing input: {parser.current.value!r}", parser.current.position
        )
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
    if not parser.check(TokenType.EOF):
        raise ParseError(
            f"unexpected trailing input: {parser.current.value!r}", parser.current.position
        )
    return expression

