"""Tests for the CSV and binary codecs used by the CAST operator."""

from __future__ import annotations

import math
import os
import time as time_module
from datetime import datetime, timezone

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import CastError
from repro.common.schema import Relation, Row, Schema
from repro.common.serialization import BinaryCodec, CsvCodec
from repro.common.vectors import NumericVector, vector_from_values


SCHEMA = Schema(
    [("id", "integer"), ("name", "text"), ("score", "float"), ("active", "boolean"), ("seen", "timestamp")]
)


def sample_relation() -> Relation:
    return Relation(SCHEMA, [
        [1, "alice", 3.5, True, datetime(2015, 8, 31, 12, 0, tzinfo=timezone.utc)],
        [2, "bob, the builder", None, False, None],
        [3, 'quote "x"\nnewline', -1.25, None, datetime(2020, 1, 1, tzinfo=timezone.utc)],
    ])


@pytest.mark.parametrize("codec", [CsvCodec(), BinaryCodec()], ids=["csv", "binary"])
class TestRoundTrip:
    def test_roundtrip_preserves_values(self, codec):
        original = sample_relation()
        decoded = codec.decode(codec.encode(original), SCHEMA)
        assert len(decoded) == len(original)
        assert decoded.rows[0]["id"] == 1
        assert decoded.rows[0]["name"] == "alice"
        assert decoded.rows[1]["score"] is None
        assert decoded.rows[1]["active"] is False
        assert decoded.rows[0]["active"] is True
        assert decoded.rows[2]["score"] == -1.25

    def test_empty_relation(self, codec):
        empty = Relation(SCHEMA)
        decoded = codec.decode(codec.encode(empty), SCHEMA)
        assert len(decoded) == 0

    def test_timestamps_survive(self, codec):
        original = sample_relation()
        decoded = codec.decode(codec.encode(original), SCHEMA)
        assert decoded.rows[0]["seen"].year == 2015
        assert decoded.rows[1]["seen"] is None


class TestCsvSpecifics:
    def test_quoting_of_delimiters_and_quotes(self):
        codec = CsvCodec()
        decoded = codec.decode(codec.encode(sample_relation()), SCHEMA)
        assert decoded.rows[1]["name"] == "bob, the builder"
        assert '"x"' in decoded.rows[2]["name"]

    def test_header_row_present(self):
        payload = CsvCodec().encode(sample_relation()).decode("utf-8")
        assert payload.splitlines()[0].startswith("id,")

    def test_width_mismatch_raises(self):
        payload = b"id,name\n1,alice,extra\n"
        with pytest.raises(CastError):
            CsvCodec().decode(payload, Schema([("id", "integer"), ("name", "text")]))

    def test_unparseable_value_raises(self):
        payload = b"id\nnot_a_number\n"
        with pytest.raises(CastError):
            CsvCodec().decode(payload, Schema([("id", "integer")]))


class TestCsvRegressions:
    def test_single_empty_text_column_row_is_not_dropped(self):
        # Regression: decode used to skip any [""] record, silently losing
        # rows whose single TEXT column holds the empty string.
        schema = Schema([("note", "text")])
        relation = Relation(schema, [["first"], [""], ["last"]])
        decoded = CsvCodec().decode(CsvCodec().encode(relation), schema)
        assert [row["note"] for row in decoded] == ["first", "", "last"]

    def test_blank_line_still_tolerated_for_wider_schemas(self):
        schema = Schema([("id", "integer"), ("name", "text")])
        payload = b"id,name\n1,alice\n\n2,bob\n"
        decoded = CsvCodec().decode(payload, schema)
        assert [row["id"] for row in decoded] == [1, 2]

    def test_blank_line_tolerated_for_single_non_text_column(self):
        # A blank line can only be a value for a single-TEXT-column schema;
        # for a single INTEGER column it is still skipped as a blank line.
        schema = Schema([("id", "integer")])
        decoded = CsvCodec().decode(b"id\n1\n\n2\n", schema)
        assert [row["id"] for row in decoded] == [1, 2]

    def test_unrecognized_boolean_token_raises(self):
        # Regression: unknown tokens used to be coerced to False instead of
        # raising ("yes"/"no" are recognized, matching repro.common.types.coerce).
        schema = Schema([("flag", "boolean")])
        with pytest.raises(CastError):
            CsvCodec().decode(b"flag\nmaybe\n", schema)

    def test_recognized_boolean_tokens(self):
        schema = Schema([("flag", "boolean")])
        decoded = CsvCodec().decode(b"flag\nTrue\nf\n1\n0\nyes\nno\n", schema)
        assert [row["flag"] for row in decoded] == [True, False, True, False, True, False]


class TestTimestampNormalization:
    @pytest.mark.parametrize("codec", [CsvCodec(), BinaryCodec()], ids=["csv", "binary"])
    def test_naive_timestamp_roundtrip_is_timezone_independent(self, codec):
        # Regression: BinaryCodec used to call .timestamp() on naive datetimes
        # (interpreted in *local* time) while decode always attached UTC, so a
        # naive value decoded to a different wall-clock instant whenever the
        # host timezone was not UTC.
        schema = Schema([("seen", "timestamp")])
        relation = Relation(schema, [[datetime(2020, 6, 1, 12, 30)]])
        saved = os.environ.get("TZ")
        os.environ["TZ"] = "America/New_York"
        time_module.tzset()
        try:
            decoded = codec.decode(codec.encode(relation), schema)
        finally:
            if saved is None:
                os.environ.pop("TZ", None)
            else:
                os.environ["TZ"] = saved
            time_module.tzset()
        assert decoded.rows[0]["seen"] == datetime(2020, 6, 1, 12, 30, tzinfo=timezone.utc)

    def test_aware_timestamp_unchanged(self):
        schema = Schema([("seen", "timestamp")])
        instant = datetime(2015, 8, 31, 9, 0, tzinfo=timezone.utc)
        for codec in (CsvCodec(), BinaryCodec()):
            decoded = codec.decode(codec.encode(Relation(schema, [[instant]])), schema)
            assert decoded.rows[0]["seen"] == instant


class TestChunkedFrames:
    @pytest.mark.parametrize("codec", [CsvCodec(), BinaryCodec()], ids=["csv", "binary"])
    def test_chunked_roundtrip_matches_single_shot(self, codec):
        relation = sample_relation()
        chunks = [
            Relation(SCHEMA, relation.rows[start : start + 2])
            for start in range(0, len(relation), 2)
        ]
        frames = list(codec.encode_chunks(chunks))
        assert len(frames) == 2
        decoded_chunks = list(codec.decode_chunks(frames, SCHEMA))
        reassembled = [tuple(r.values) for c in decoded_chunks for r in c]
        single_shot = codec.decode(codec.encode(relation), SCHEMA)
        assert reassembled == [tuple(r.values) for r in single_shot]

    @pytest.mark.parametrize("codec", [CsvCodec(), BinaryCodec()], ids=["csv", "binary"])
    def test_each_frame_decodes_independently(self, codec):
        relation = sample_relation()
        chunk = Relation(SCHEMA, relation.rows[1:2])
        (frame,) = codec.encode_chunks([chunk])
        decoded = codec.decode(frame, SCHEMA)
        assert len(decoded) == 1 and decoded.rows[0]["name"] == "bob, the builder"

    def test_empty_chunk_stream(self):
        assert list(BinaryCodec().encode_chunks([])) == []
        assert list(BinaryCodec().decode_chunks([], SCHEMA)) == []


#: ``BinaryCodec().encode`` of :func:`numeric_relation`, captured at the
#: commit before the codec moved from ``struct`` to numpy: numeric frames
#: must stay byte-identical.
GOLDEN_NUMERIC_FRAME = bytes.fromhex(
    "01040000000400000001020405"
    "00010000" "0100000000000000" "fdffffffffffffff" "0000000000010000"
    "00010000" "000000000000f83f" "00000000000004c0" "0000000000000000"
    "00010000" "010001"
    "00010001" "00000040f882d741" "00000050882dd841"
)

NUMERIC_SCHEMA = Schema(
    [("i", "integer"), ("v", "float"), ("ok", "boolean"), ("at", "timestamp")]
)


def numeric_relation() -> Relation:
    return Relation(NUMERIC_SCHEMA, [
        [1, 1.5, True, datetime(2020, 1, 1, tzinfo=timezone.utc)],
        [None, None, None, None],
        [-3, -2.5, False, datetime(2021, 6, 1, 12, 0, tzinfo=timezone.utc)],
        [2 ** 40, 0.0, True, None],
    ])


def values_of(relation: Relation) -> list[tuple]:
    return [tuple(r.values) for r in relation]


class TestColumnarLayout:
    def test_numeric_frame_is_byte_identical_to_the_golden_frame(self):
        assert BinaryCodec().encode(numeric_relation()) == GOLDEN_NUMERIC_FRAME
        decoded = BinaryCodec().decode(GOLDEN_NUMERIC_FRAME, NUMERIC_SCHEMA)
        assert values_of(decoded) == values_of(numeric_relation())

    @pytest.mark.parametrize("relation", [
        numeric_relation(), sample_relation(), Relation(SCHEMA),
        Relation(Schema([("n", "null"), ("t", "text")]), [[None, None], [None, "x"]]),
    ], ids=["numeric", "text", "empty", "null-typed"])
    def test_every_frame_is_columnar(self, relation):
        payload = BinaryCodec().encode(relation)
        assert payload[0] == BinaryCodec.LAYOUT_COLUMNAR
        assert values_of(BinaryCodec().decode(payload, relation.schema)) == values_of(relation)

    def test_unknown_layout_byte_is_rejected(self):
        payload = b"\x00" + BinaryCodec().encode(numeric_relation())[1:]
        with pytest.raises(CastError):
            BinaryCodec().decode(payload, NUMERIC_SCHEMA)

    def test_decode_builds_no_rows_and_native_values(self):
        decoded = BinaryCodec().decode(BinaryCodec().encode(sample_relation()), SCHEMA)
        assert decoded._rows is None and len(decoded) == 3   # nothing materialized yet
        natives = (int, float, str, bool, datetime, type(None))
        for index in range(len(SCHEMA)):
            assert all(type(v) in natives for v in decoded.column_values(index))

    def test_null_heavy_and_all_null_columns(self):
        schema = Schema([("i", "integer"), ("t", "text"), ("f", "float"), ("b", "boolean")])
        relation = Relation(schema, [[None, None, None, None]] * 5
                            + [[7, None, None, True]] + [[None, None, None, None]] * 5)
        decoded = BinaryCodec().decode(BinaryCodec().encode(relation), schema)
        assert values_of(decoded) == values_of(relation)

    def test_unicode_text_roundtrip(self):
        schema = Schema([("t", "text")])
        texts = ["", "ascii", "naïve café", "雪だるま ☃", "a\x00b", "😀 astral 𝄞", None, "tail"]
        relation = Relation(schema, [[t] for t in texts])
        decoded = BinaryCodec().decode(BinaryCodec().encode(relation), schema)
        assert decoded.column_values(0) == texts

    def test_columnar_frame_decoded_into_wider_schema_coerces(self):
        # When a frame's type tag differs from the target schema's column,
        # decode coerces that column, as appending to the relation would.
        int_schema = Schema([("v", "integer")])
        float_schema = Schema([("v", "float")])
        payload = BinaryCodec().encode(Relation(int_schema, [[1], [2]]))
        decoded = BinaryCodec().decode(payload, float_schema)
        assert [row["v"] for row in decoded] == [1.0, 2.0]
        assert all(isinstance(row["v"], float) for row in decoded)

    def test_text_column_holding_other_values_is_rendered(self):
        # Unvalidated result sets can type a column TEXT and fill it with
        # numbers; the frame carries their str(), as the codec always did.
        schema = Schema([("t", "text")])
        relation = Relation(schema, [Row(schema, [v]) for v in (1.5, "x", None, 7)])
        decoded = BinaryCodec().decode(BinaryCodec().encode(relation), schema)
        assert decoded.column_values(0) == ["1.5", "x", None, "7"]


class TestBinarySpecifics:
    def test_binary_size_is_comparable_to_csv_for_numeric_data(self):
        schema = Schema([("i", "integer"), ("v", "float")])
        relation = Relation(schema, [[i, i * 1.5] for i in range(1000)])
        binary = BinaryCodec().encode(relation)
        csv = CsvCodec().encode(relation)
        # The binary frame is fixed-width per value; it must stay within a small
        # constant factor of the text size while avoiding any text parsing.
        assert len(binary) < len(csv) * 2.0

    def test_column_count_mismatch_raises(self):
        relation = Relation(Schema([("a", "integer")]), [[1]])
        payload = BinaryCodec().encode(relation)
        with pytest.raises(CastError):
            BinaryCodec().decode(payload, Schema([("a", "integer"), ("b", "integer")]))


_value_strategy = st.one_of(
    st.none(),
    st.integers(min_value=-(2 ** 31), max_value=2 ** 31),
    st.text(max_size=20),
)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(st.integers(-10**6, 10**6), st.text(max_size=12),
                           st.floats(allow_nan=False, allow_infinity=False, width=32)),
                max_size=20))
def test_property_binary_roundtrip(rows):
    """Property: arbitrary (int, text, float) relations survive the binary codec."""
    schema = Schema([("a", "integer"), ("b", "text"), ("c", "float")])
    relation = Relation(schema, [list(r) for r in rows])
    decoded = BinaryCodec().decode(BinaryCodec().encode(relation), schema)
    assert [tuple(r.values) for r in decoded] == [tuple(r.values) for r in relation]


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(st.integers(-10**6, 10**6),
                           st.text(alphabet=st.characters(blacklist_categories=("Cs", "Cc"),
                                                          blacklist_characters="\\"),
                                   max_size=12)),
                max_size=20))
def test_property_csv_roundtrip(rows):
    """Property: arbitrary (int, text) relations survive the CSV codec."""
    schema = Schema([("a", "integer"), ("b", "text")])
    relation = Relation(schema, [list(r) for r in rows])
    decoded = CsvCodec().decode(CsvCodec().encode(relation), schema)
    assert [tuple(r.values) for r in decoded] == [tuple(r.values) for r in relation]


# ----------------------------------------------------- frames across vector kinds
ALL_TYPES_SCHEMA = Schema([
    ("i", "integer"), ("f", "float"), ("t", "text"), ("b", "boolean"),
    ("ts", "timestamp"), ("n", "null"),
])
_INT64 = (-(2 ** 63), 2 ** 63 - 1)
_all_types_row = st.tuples(
    st.one_of(st.none(), st.integers(*_INT64), st.sampled_from(_INT64)),
    st.one_of(st.none(), st.floats(), st.sampled_from([-0.0, math.nan, math.inf])),
    st.one_of(st.none(), st.text(max_size=6)),
    st.one_of(st.none(), st.booleans()),
    # Whole seconds survive the epoch-float timestamp exactly.
    st.one_of(st.none(), st.integers(0, 4_000_000_000).map(
        lambda s: datetime.fromtimestamp(s, tz=timezone.utc))),
    st.none(),
)


def _exact(value):
    """A value compared by type and bits: -0.0 is not 0.0, NaN equals NaN."""
    return (type(value), value.hex() if isinstance(value, float) else value)


@settings(max_examples=60, deadline=None)
@given(st.lists(_all_types_row, max_size=12))
def test_property_frames_are_identical_across_vector_kinds(rows):
    """Property: a relation over typed vectors (``NumericVector``,
    ``DictVector``, object arrays) encodes to the same bytes as the same
    rows given as values, and decodes to typed numeric columns that read as
    exactly those native values."""
    rows = [list(row) for row in rows]
    by_rows = Relation(ALL_TYPES_SCHEMA, rows)
    by_vectors = Relation.from_columns(ALL_TYPES_SCHEMA, [
        vector_from_values([row[i] for row in rows], col.dtype)
        for i, col in enumerate(ALL_TYPES_SCHEMA)
    ], len(rows))
    payload = BinaryCodec().encode(by_rows)
    assert BinaryCodec().encode(by_vectors) == payload
    decoded = BinaryCodec().decode(payload, ALL_TYPES_SCHEMA)
    for index in (0, 1, 3):   # INTEGER, FLOAT, BOOLEAN
        assert isinstance(decoded.column_vector(index), NumericVector)
    natives = (int, float, str, bool, datetime, type(None))
    assert [[_exact(v) for v in row.values] for row in decoded.rows] == \
        [[_exact(v) for v in row] for row in rows]
    assert all(type(v) in natives for row in decoded.rows for v in row.values)


class TestWideIntegers:
    def test_integers_beyond_int64_travel_as_decimal_text(self):
        schema = Schema([("i", "integer")])
        relation = Relation(schema, [[2 ** 70], [None], [-(2 ** 70)], [3]])
        payload = BinaryCodec().encode(relation)
        assert payload[9] == 7   # the wide-integer tag
        assert BinaryCodec().decode(payload, schema).column_values(0) == \
            [2 ** 70, None, -(2 ** 70), 3]

    def test_an_integer_column_of_floats_beyond_int64_still_refuses(self):
        schema = Schema([("i", "integer")])
        relation = Relation.from_columns(schema, [[1e20]])
        with pytest.raises(OverflowError):
            BinaryCodec().encode(relation)
