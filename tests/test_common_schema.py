"""Tests for repro.common.schema: columns, schemas, rows and relations."""

from __future__ import annotations

import sys
import threading
from datetime import datetime, timezone

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import SchemaError, TypeMismatchError
from repro.common.schema import Column, Relation, Row, Schema, TableDefinition
from repro.common.serialization import BinaryCodec
from repro.common.types import DataType
from repro.common.vectors import vector_from_values


@pytest.fixture()
def patient_schema() -> Schema:
    return Schema(
        [
            Column("patient_id", DataType.INTEGER, nullable=False),
            Column("age", DataType.INTEGER),
            Column("race", DataType.TEXT),
            Column("stay_days", DataType.FLOAT),
        ]
    )


class TestColumn:
    def test_empty_name_rejected(self):
        with pytest.raises(SchemaError):
            Column("", DataType.TEXT)

    def test_type_aliases_resolved(self):
        assert Column("x", "bigint").dtype is DataType.INTEGER

    def test_matches_is_case_insensitive_and_suffix_aware(self):
        column = Column("patients.age", DataType.INTEGER)
        assert column.matches("AGE")
        assert column.matches("patients.age")
        assert not column.matches("stay")

    def test_with_name_preserves_type(self):
        renamed = Column("a", DataType.FLOAT, nullable=False).with_name("b")
        assert renamed.name == "b"
        assert renamed.dtype is DataType.FLOAT
        assert renamed.nullable is False


class TestSchema:
    def test_tuple_shorthand(self):
        schema = Schema([("a", "integer"), ("b", "text", False)])
        assert schema.column("b").nullable is False

    def test_duplicate_names_rejected(self):
        with pytest.raises(SchemaError):
            Schema([("a", "integer"), ("A", "text")])

    def test_index_of_and_ambiguity(self, patient_schema):
        assert patient_schema.index_of("age") == 1
        assert patient_schema.index_of("AGE") == 1
        with pytest.raises(SchemaError):
            patient_schema.index_of("missing")

    def test_qualified_lookup_through_suffix(self):
        schema = Schema([Column("p.age", DataType.INTEGER), Column("p.race", DataType.TEXT)])
        assert schema.index_of("age") == 0
        assert schema.index_of("p.race") == 1

    def test_ambiguous_suffix_raises(self):
        schema = Schema([Column("p.id", DataType.INTEGER), Column("r.id", DataType.INTEGER)])
        with pytest.raises(SchemaError):
            schema.index_of("id")

    def test_project_and_rename(self, patient_schema):
        projected = patient_schema.project(["race", "age"])
        assert projected.names == ["race", "age"]
        renamed = patient_schema.rename({"race": "ethnicity"})
        assert "ethnicity" in renamed.names

    def test_concat_and_prefixed(self, patient_schema):
        other = Schema([("drug", "text")])
        combined = patient_schema.concat(other)
        assert len(combined) == 5
        prefixed = patient_schema.prefixed("p")
        assert prefixed.names[0] == "p.patient_id"

    def test_merge_types_promotes(self):
        a = Schema([("x", "integer"), ("y", "integer")])
        b = Schema([("x", "float"), ("y", "integer")])
        merged = a.merge_types(b)
        assert merged.column("x").dtype is DataType.FLOAT
        assert merged.column("y").dtype is DataType.INTEGER

    def test_merge_types_width_mismatch(self):
        with pytest.raises(SchemaError):
            Schema([("x", "integer")]).merge_types(Schema([("x", "integer"), ("y", "text")]))

    def test_validate_row_coerces_and_checks_nulls(self, patient_schema):
        values = patient_schema.validate_row(["7", "64", "white", "3.5"])
        assert values == (7, 64, "white", 3.5)
        with pytest.raises(TypeMismatchError):
            patient_schema.validate_row([None, 60, "white", 1.0])
        with pytest.raises(SchemaError):
            patient_schema.validate_row([1, 2])


def scan_lookup(schema: Schema, name: str) -> int:
    """Column lookup restated as a scan: the exact name (case aside), else
    every column whose last dotted segment is the name's; one match wins."""
    exact = [i for i, c in enumerate(schema) if c.name.lower() == name.lower()]
    matches = exact or [i for i, c in enumerate(schema)
                        if c.name.lower().split(".")[-1] == name.lower().split(".")[-1]]
    if len(matches) == 1:
        return matches[0]
    raise SchemaError(f"ambiguous column reference: {name!r}" if matches
                      else f"no such column: {name!r} in {schema.names}")


def _recase(draw, word: str) -> str:
    flips = draw(st.lists(st.booleans(), min_size=len(word), max_size=len(word)))
    return "".join(c.upper() if flip else c.lower() for c, flip in zip(word, flips))


_SEGMENTS = st.sampled_from(["a", "b", "ab", "id", "t", "x1", "_"])


@st.composite
def lookup_cases(draw):
    """A schema of bare, qualified and multiply-dotted names in mixed case,
    and names to look up: its own (recased, requalified, unqualified) and
    near misses (an extra or missing character, a trailing dot)."""
    dotted = st.lists(_SEGMENTS, min_size=1, max_size=3).map(".".join)
    names = draw(st.lists(dotted, min_size=1, max_size=6, unique_by=str.lower))
    schema = Schema([(_recase(draw, n), "integer") for n in names])
    lookups = []
    for name in schema.names:
        suffix = name.rpartition(".")[2]
        qualifier = draw(_SEGMENTS)
        lookups += [name, _recase(draw, name), suffix, f"{qualifier}.{suffix}",
                    f"{qualifier}.{name}", name + "z", name[:-1] or "q", name + "."]
    lookups += draw(st.lists(dotted.map(lambda n: _recase(draw, n)), max_size=4))
    return schema, lookups


@settings(max_examples=200, deadline=None)
@given(lookup_cases())
def test_column_lookup_equals_the_scan_rule(case):
    schema, lookups = case
    for name in lookups:
        try:
            expected = scan_lookup(schema, name)
        except SchemaError as error:
            with pytest.raises(SchemaError) as raised:
                schema.index_of(name)
            assert str(raised.value) == str(error)
            assert not schema.has_column(name)
            assert schema.find(name) is None
            continue
        assert schema.index_of(name) == expected
        assert schema.has_column(name)
        assert schema.find(name) == expected
        assert schema.column(name) is schema.columns[expected]
        assert schema.columns[expected].matches(name)


def test_lookup_maps_and_prefix_memo_hold_under_threads():
    """Eight threads share fresh schemas: each builds the suffix map on its
    first miss and cycles through more prefixes than the memo keeps, with a
    10 us switch interval.  Every lookup and every prefixed schema stays
    right, and no thread fails."""
    names = [f"t{i}.c{i % 5}" for i in range(10)] + ["x", "y.z"]
    expected = {"x": 10, "z": 11, "y.z": 11, "T3.C3": 3, "c3": None, "q.c3": None}
    failures: list[BaseException] = []
    switch = sys.getswitchinterval()

    def work(schema: Schema) -> None:
        try:
            for round_ in range(200):
                for name, position in expected.items():
                    assert schema.find(name) == position
                    assert schema.has_column(name) == (position is not None)
                prefix = f"p{round_ % 11}"
                assert schema.prefixed(prefix).names[10] == f"{prefix}.x"
        except BaseException as error:  # noqa: BLE001 - reported below
            failures.append(error)

    sys.setswitchinterval(1e-5)
    try:
        for _ in range(5):
            schema = Schema([(name, "integer") for name in names])
            threads = [threading.Thread(target=work, args=(schema,)) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(switch)
    assert failures == []


class TestRow:
    def test_access_by_index_and_name(self, patient_schema):
        row = Row(patient_schema, (1, 64, "white", 3.5))
        assert row[0] == 1
        assert row["race"] == "white"
        assert row.get("missing", "default") == "default"

    def test_to_dict_and_equality(self, patient_schema):
        row = Row(patient_schema, (1, 64, "white", 3.5))
        assert row.to_dict()["age"] == 64
        assert row == (1, 64, "white", 3.5)
        assert hash(row) == hash(Row(patient_schema, (1, 64, "white", 3.5)))

    def test_concat_and_project(self, patient_schema):
        row = Row(patient_schema, (1, 64, "white", 3.5))
        extra = Row(Schema([("drug", "text")]), ("aspirin",))
        combined = row.concat(extra)
        assert combined["drug"] == "aspirin"
        projected = row.project(["race", "age"])
        assert projected.values == ("white", 64)


class TestRelation:
    def test_constructor_validates(self, patient_schema):
        relation = Relation(patient_schema, [[1, "64", "white", 2]])
        assert relation.rows[0]["age"] == 64
        with pytest.raises(SchemaError):
            Relation(patient_schema, [[1, 2]])

    def test_column_extraction_and_sort(self, patient_schema):
        relation = Relation(patient_schema, [
            [2, 70, "black", 7.2],
            [1, 64, "white", 3.5],
            [3, None, "asian", 2.0],
        ])
        assert relation.column("patient_id") == [2, 1, 3]
        ordered = relation.sorted_by("age")
        # NULLs sort last.
        assert ordered.rows[-1]["patient_id"] == 3
        descending = relation.sorted_by("stay_days", descending=True)
        assert descending.rows[0]["patient_id"] == 2  # longest stay first

    def test_from_dicts_and_head(self, patient_schema):
        relation = Relation.from_dicts(
            patient_schema,
            [{"patient_id": 1, "age": 50, "race": "white", "stay_days": 1.0},
             {"patient_id": 2, "age": 60, "race": "black", "stay_days": 2.0}],
        )
        assert len(relation) == 2
        assert len(relation.head(1)) == 1

    def test_equality(self, patient_schema):
        a = Relation(patient_schema, [[1, 60, "white", 1.0]])
        b = Relation(patient_schema, [[1, 60, "white", 1.0]])
        assert a == b

    def test_rows_are_a_read_only_view(self, patient_schema):
        relation = Relation(patient_schema, [[1, 60, "white", 1.0]])
        assert isinstance(relation.rows, tuple)
        with pytest.raises(AttributeError):
            relation.rows.append(Row(patient_schema, (2, 70, "black", 2.0)))
        with pytest.raises(TypeError):
            relation.rows[0] = Row(patient_schema, (2, 70, "black", 2.0))
        with pytest.raises(AttributeError):
            relation.rows = ()
        assert not hasattr(relation, "append") and not hasattr(relation, "extend")
        assert len(relation) == 1 and relation.column("patient_id") == [1]


class TestTableDefinition:
    def test_primary_key_must_exist(self, patient_schema):
        TableDefinition("patients", patient_schema, ("patient_id",))
        with pytest.raises(SchemaError):
            TableDefinition("patients", patient_schema, ("missing",))


@given(
    st.lists(
        st.tuples(st.integers(-1000, 1000), st.floats(allow_nan=False, allow_infinity=False)),
        min_size=0, max_size=30,
    )
)
def test_relation_roundtrip_through_dicts(rows):
    """Property: Relation -> dicts -> Relation preserves content."""
    schema = Schema([("a", "integer"), ("b", "float")])
    relation = Relation(schema, [list(row) for row in rows])
    rebuilt = Relation.from_dicts(schema, relation.to_dicts())
    assert rebuilt == relation


# ------------------------------------------------- rows in, columns in: one type
NATIVE_TYPES = (int, float, str, bool, datetime, type(None))

#: Per column type, the values a column may hold: every kind the vectors
#: module stores (NULLs everywhere, NaN, integers beyond int64 — which stay
#: an object array — TEXT dictionaries and TIMESTAMP object arrays).
_VALUES = {
    DataType.INTEGER: st.integers(-(2 ** 63), 2 ** 63 - 1) | st.integers(2 ** 63, 2 ** 70),
    DataType.FLOAT: st.floats(),
    DataType.BOOLEAN: st.booleans(),
    DataType.TEXT: st.text(max_size=4),
    DataType.TIMESTAMP: st.datetimes(
        min_value=datetime(1970, 1, 2), max_value=datetime(2100, 1, 1),
        timezones=st.just(timezone.utc),
    ),
}


@st.composite
def relation_parts(draw):
    """A schema, value rows for it, and per column whether the column-built
    relation stores it as a plain list or as its typed vector."""
    types = draw(st.lists(st.sampled_from(sorted(_VALUES, key=str)), min_size=1, max_size=4))
    schema = Schema([(f"c{i}", dtype) for i, dtype in enumerate(types)])
    rows = draw(st.lists(
        st.tuples(*(st.none() | _VALUES[dtype] for dtype in types)), max_size=8
    ))
    typed = draw(st.lists(st.booleans(), min_size=len(types), max_size=len(types)))
    return schema, rows, typed


def _canonical(values) -> tuple:
    """Values with NaN spelled out (no two NaN objects need be equal)."""
    return tuple("NaN" if isinstance(v, float) and v != v else v for v in values)


def _canonical_rows(relation: Relation) -> list[tuple]:
    return [_canonical(row.values) for row in relation.rows]


def _encoded(relation: Relation):
    try:
        return BinaryCodec().encode(relation)
    except (OverflowError, ValueError) as error:   # integers beyond int64
        return type(error)


@settings(max_examples=150, deadline=None)
@given(relation_parts(), st.integers(0, 9))
def test_a_relation_built_from_rows_equals_one_built_from_columns(parts, n):
    schema, rows, typed = parts
    from_rows = Relation(schema, rows)
    columns = [list(column) for column in zip(*rows)] or [[] for _ in schema]
    from_columns = Relation.from_columns(schema, [
        vector_from_values(values, column.dtype) if as_vector else values
        for values, column, as_vector in zip(columns, schema, typed)
    ], len(rows))

    has_nan = any(isinstance(v, float) and v != v for row in rows for v in row)
    assert len(from_rows) == len(from_columns) == len(rows)
    assert _canonical_rows(from_rows) == _canonical_rows(from_columns) == [
        _canonical(row) for row in rows
    ]
    for index in range(len(schema)):
        for relation in (from_rows, from_columns):
            values = relation.column_values(index)
            assert all(type(v) in NATIVE_TYPES for v in values)
            assert _canonical(values) == _canonical(columns[index])
    assert from_rows == from_rows and from_columns == from_columns
    assert has_nan or (from_rows == from_columns and from_columns == from_rows)
    name = schema.names[n % len(schema)]
    for descending in (False, True):
        assert _canonical_rows(from_rows.sorted_by(name, descending=descending)) == \
            _canonical_rows(from_columns.sorted_by(name, descending=descending))
    assert _canonical_rows(from_rows.head(n)) == _canonical_rows(from_columns.head(n))
    assert len(from_columns.head(n)) == min(n, len(rows))
    assert [_canonical(d.values()) for d in from_rows.to_dicts()] == \
        [_canonical(d.values()) for d in from_columns.to_dicts()]
    assert _encoded(from_rows) == _encoded(from_columns)
