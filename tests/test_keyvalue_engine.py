"""Tests for the key-value engine: sorted store, iterators, tablets, text index."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import ObjectNotFoundError
from repro.engines.keyvalue import (
    CountingCombiner,
    FamilyFilterIterator,
    InvertedTextIndex,
    KeyValueEngine,
    ScanRange,
    SortedKeyValueStore,
    SummingCombiner,
    ValueRegexIterator,
    VersioningIterator,
    tokenize,
)
from repro.engines.keyvalue.tablet import TabletManager


class TestSortedStore:
    def test_entries_kept_in_key_order(self):
        store = SortedKeyValueStore()
        store.put("row_c", "f", "q", 1)
        store.put("row_a", "f", "q", 2)
        store.put("row_b", "f", "q", 3)
        assert [e.key.row for e in store.scan()] == ["row_a", "row_b", "row_c"]

    def test_versions_sorted_newest_first(self):
        store = SortedKeyValueStore()
        store.put("r", "f", "q", "old")
        store.put("r", "f", "q", "new")
        values = [e.value for e in store.get_row("r")]
        assert values == ["new", "old"]

    def test_range_scan_and_family_filter(self):
        store = SortedKeyValueStore()
        for i in range(10):
            store.put(f"row_{i:02d}", "meta" if i % 2 else "data", "q", i)
        ranged = list(store.scan(ScanRange("row_03", "row_06")))
        assert [e.key.row for e in ranged] == ["row_03", "row_04", "row_05", "row_06"]
        filtered = list(store.scan(ScanRange(families=("meta",))))
        assert all(e.key.family == "meta" for e in filtered)

    def test_delete(self):
        store = SortedKeyValueStore()
        store.put("r", "a", "q1", 1)
        store.put("r", "b", "q2", 2)
        assert store.delete("r", family="a") == 1
        assert len(store) == 1
        assert store.delete("missing") == 0

    def test_row_count_and_split_point(self):
        store = SortedKeyValueStore()
        for i in range(9):
            store.put(f"row_{i}", "f", "q", i)
        assert store.row_count() == 9
        assert store.split_point() == "row_4"


class TestIterators:
    def make_store(self) -> SortedKeyValueStore:
        store = SortedKeyValueStore()
        for version in range(3):
            store.put("r1", "vitals", "hr", 60 + version)
        store.put("r1", "notes", "n1", "patient very sick")
        store.put("r2", "vitals", "hr", 90)
        return store

    def test_versioning_iterator_keeps_newest(self):
        store = self.make_store()
        entries = list(VersioningIterator(1).apply(store.scan()))
        hr_values = [e.value for e in entries if e.key.qualifier == "hr" and e.key.row == "r1"]
        assert hr_values == [62]

    def test_family_filter_and_regex(self):
        store = self.make_store()
        vitals = list(FamilyFilterIterator(["vitals"]).apply(store.scan()))
        assert all(e.key.family == "vitals" for e in vitals)
        sick = list(ValueRegexIterator("very sick").apply(store.scan()))
        assert len(sick) == 1

    def test_combiners(self):
        store = self.make_store()
        summed = list(SummingCombiner().apply(store.scan(ScanRange(families=("vitals",)))))
        r1 = next(e for e in summed if e.key.row == "r1")
        assert r1.value == 60 + 61 + 62
        counted = list(CountingCombiner(key_fn=lambda k: (k.row,)).apply(store.scan()))
        by_row = {e.key.row: e.value for e in counted}
        assert by_row["r1"] == 4 and by_row["r2"] == 1

    def test_iterator_stack_composes(self):
        store = self.make_store()
        table_engine = KeyValueEngine()
        table_engine.create_table("t")
        for e in store.scan():
            table_engine.put("t", e.key.row, e.key.family, e.key.qualifier, e.value)
        entries = table_engine.scan(
            "t", iterators=[FamilyFilterIterator(["vitals"]), VersioningIterator(1)]
        )
        assert len(entries) == 2  # one newest hr per row


class TestTextIndex:
    def make_index(self) -> InvertedTextIndex:
        index = InvertedTextIndex()
        index.add_document("p1", "n1", "patient very sick today")
        index.add_document("p1", "n2", "remains very sick overnight")
        index.add_document("p1", "n3", "very sick requiring pressors")
        index.add_document("p2", "n1", "recovering well tolerating diet")
        index.add_document("p3", "n1", "complains of chest pain")
        return index

    def test_tokenize_removes_stop_words(self):
        assert tokenize("The patient is very sick") == ["patient", "very", "sick"]

    def test_term_and_boolean_search(self):
        index = self.make_index()
        assert {p.row for p in index.search_term("sick")} == {"p1"}
        both = index.search_all(["chest", "pain"])
        assert [(p.row, p.qualifier) for p in both] == [("p3", "n1")]
        any_hits = index.search_any(["sick", "recovering"])
        assert {p.row for p in any_hits} == {"p1", "p2"}

    def test_phrase_search_requires_adjacency(self):
        index = self.make_index()
        index.add_document("p4", "n1", "sick of waiting, very impatient")  # words present, not adjacent
        assert {p.row for p in index.search_phrase("very sick")} == {"p1"}

    def test_rows_with_min_documents(self):
        index = self.make_index()
        assert index.rows_with_min_documents("very sick", 3) == ["p1"]
        assert index.rows_with_min_documents("very sick", 4) == []

    def test_remove_row(self):
        index = self.make_index()
        removed = index.remove_row("p1")
        assert removed == 3
        assert index.search_phrase("very sick") == []

    def test_document_lookup_and_sizes(self):
        index = self.make_index()
        assert "chest pain" in index.document("p3", "n1")
        assert len(index) == 5
        assert index.vocabulary_size > 5


class TestTablets:
    def test_split_and_balance(self):
        store = SortedKeyValueStore()
        manager = TabletManager("t", split_threshold=10, servers=["s0", "s1"])
        for i in range(25):
            store.put(f"row_{i:03d}", "f", "q", i)
        assert manager.maybe_split(store) is True
        assert len(manager.tablets) == 2
        counts = manager.balance()
        assert sum(counts.values()) == 2
        # Every row is covered by exactly one tablet.
        for i in range(25):
            manager.tablet_for_row(f"row_{i:03d}")

    def test_no_split_below_threshold(self):
        store = SortedKeyValueStore()
        manager = TabletManager("t", split_threshold=1000)
        store.put("a", "f", "q", 1)
        assert manager.maybe_split(store) is False


class TestKeyValueEngine:
    def test_put_scan_get_row(self):
        engine = KeyValueEngine()
        engine.create_table("patients")
        engine.put("patients", "p1", "attr", "age", 64)
        engine.put("patients", "p1", "attr", "race", "white")
        assert engine.get_row("patients", "p1") == {"attr:age": 64, "attr:race": "white"}
        assert len(engine.scan("patients")) == 2

    def test_get_row_returns_the_newest_version_of_each_cell(self):
        engine = KeyValueEngine()
        engine.create_table("notes", text_indexed=True)
        engine.put("notes", "p1", "md", "n1", "very sick")
        engine.put("notes", "p1", "md", "n1", 42)
        engine.put("notes", "p1", "md", "n2", "resting")
        assert engine.get_row("notes", "p1") == {"md:n1": 42, "md:n2": "resting"}

    def test_text_search_requires_indexed_table(self):
        engine = KeyValueEngine()
        engine.create_table("plain")
        with pytest.raises(ObjectNotFoundError):
            engine.text_search("plain", ["anything"])

    def test_text_search_on_indexed_table(self):
        engine = KeyValueEngine()
        engine.create_table("notes", text_indexed=True)
        engine.put("notes", "p1", "doctor", "n1", "patient very sick")
        engine.put("notes", "p1", "doctor", "n2", "patient very sick again")
        engine.put("notes", "p2", "doctor", "n1", "doing fine")
        assert engine.rows_with_min_documents("notes", ["very sick"], 2) == ["p1"]

    def test_export_import_roundtrip(self):
        engine = KeyValueEngine()
        engine.create_table("t")
        engine.put("t", "r1", "f", "q1", "a")
        engine.put("t", "r2", "f", "q1", "b")
        relation = engine.export_relation("t")
        assert relation.schema.names == ["row", "family", "qualifier", "value"]
        other = KeyValueEngine("copy")
        other.import_relation("imported", relation)
        assert other.has_object("imported")

    def test_missing_table_errors(self):
        engine = KeyValueEngine()
        with pytest.raises(ObjectNotFoundError):
            engine.scan("missing")
        with pytest.raises(ObjectNotFoundError):
            engine.drop_object("missing")


@settings(max_examples=30, deadline=None)
@given(st.lists(st.tuples(st.text(alphabet="abcde", min_size=1, max_size=4),
                          st.integers(0, 100)), min_size=1, max_size=60))
def test_property_store_scan_is_sorted(entries):
    """Property: scanning the store always yields keys in non-decreasing row order."""
    store = SortedKeyValueStore()
    for row, value in entries:
        store.put(row, "f", "q", value)
    rows = [e.key.row for e in store.scan()]
    assert rows == sorted(rows)
    assert len(rows) == len(entries)
