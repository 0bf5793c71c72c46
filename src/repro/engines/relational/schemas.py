"""Output-schema rules of a relational plan: how scans qualify names, what a
join's key is, and how projections and HAVING name their columns.

The batch executor (:mod:`repro.engines.relational.vectorized`) applies
them, and so does the row-at-a-time reference executor the parity suites
run beside it, so both agree on naming and on what "the join key" means.
"""

from __future__ import annotations

from typing import Callable

from repro.common.expressions import BinaryOp, ColumnRef, Expression, split_conjuncts
from repro.common.schema import Column, Schema
from repro.common.types import DataType

#: The one-column, one-row input of a FROM-less SELECT.
DUAL_SCHEMA = Schema([Column("__dual__", DataType.INTEGER)])


def qualified_schema(schema: Schema, qualifier: str) -> Schema:
    """Expose both bare and table-qualified column names via suffix matching.

    Bare names are prefixed with the qualifier, so self-joins stay
    unambiguous and ``col`` still finds ``t.col``; the result is
    :meth:`Schema.prefixed`'s, the same object on every scan.  A schema
    that already holds a dotted name comes back as it is.
    """
    if any("." in column.name for column in schema):
        return schema
    return schema.prefixed(qualifier)


def split_join_condition(
    condition: Expression, left_schema: Schema, right_schema: Schema
) -> tuple[list[tuple[str, str]], list[Expression]]:
    """Split a join condition into equi-key pairs and residual conjuncts.

    The key pairs are ``(left column, right column)`` equality conjuncts
    usable for hashing/key-encoding; everything else (non-equi conjuncts,
    same-side equalities) is returned as residual predicates the join must
    still evaluate per candidate.
    """
    # Suffix matching lets ``l.f`` resolve against a right column ``r.f``:
    # a name that is exactly the other input's column (and not exactly one
    # of this input's) belongs to the other input.
    left = (left_schema, {name.lower() for name in left_schema.names})
    right = (right_schema, {name.lower() for name in right_schema.names})

    def owns(side: tuple, other: tuple, name: str) -> bool:
        schema, names = side
        return schema.has_column(name) and (name.lower() in names or name.lower() not in other[1])

    keys: list[tuple[str, str]] = []
    residual: list[Expression] = []
    for conjunct in split_conjuncts(condition):
        if (
            isinstance(conjunct, BinaryOp)
            and conjunct.op in ("=", "==")
            and isinstance(conjunct.left, ColumnRef)
            and isinstance(conjunct.right, ColumnRef)
        ):
            a, b = conjunct.left.name, conjunct.right.name
            if owns(left, right, a) and owns(right, left, b):
                keys.append((a, b))
                continue
            if owns(left, right, b) and owns(right, left, a):
                keys.append((b, a))
                continue
        residual.append(conjunct)
    return keys, residual


def aggregate_type(aggregate: str, argument: DataType) -> DataType:
    """The type of ``aggregate``'s result over an argument of type
    ``argument`` (INTEGER for ``*``): what its accumulator returns."""
    if aggregate == "count":
        return DataType.INTEGER
    if aggregate in ("min", "max"):
        return argument
    if aggregate == "sum" and argument in (DataType.INTEGER, DataType.BOOLEAN):
        return DataType.INTEGER
    return DataType.FLOAT


def having_input_schema(
    schema: Schema,
    items: list,
    having_items: list,
    type_of: Callable[[Expression | None], DataType],
) -> Schema:
    """Schema exposing output columns twice (alias and canonical name),
    plus trailing columns for HAVING-only aggregates; ``type_of`` types an
    aggregate's argument."""
    canonical = []
    used = {c.name.lower() for c in schema.columns}
    for i, item in enumerate(items):
        if item.aggregate:
            inner = "*" if item.expression is None else item.expression.to_sql()
            name = f"{item.aggregate}({inner})"
        else:
            name = item.output_name
        if name.lower() in used:
            name = f"__having_{i}__"
        used.add(name.lower())
        canonical.append(Column(name, schema.columns[min(i, len(schema.columns) - 1)].dtype))
    for j, item in enumerate(having_items):
        inner = "*" if item.expression is None else item.expression.to_sql()
        name = f"{item.aggregate}({inner})"
        if name.lower() in used:
            name = f"__having_only_{j}__"
        used.add(name.lower())
        canonical.append(Column(name, aggregate_type(item.aggregate, type_of(item.expression))))
    return Schema(list(schema.columns) + canonical)


def dedupe(columns: list[Column]) -> list[Column]:
    """Rename repeated output names ``x``, ``x_1``, ``x_2``, ..."""
    seen: dict[str, int] = {}
    out = []
    for col in columns:
        key = col.name.lower()
        if key in seen:
            seen[key] += 1
            out.append(col.with_name(f"{col.name}_{seen[key]}"))
        else:
            seen[key] = 0
            out.append(col)
    return out
