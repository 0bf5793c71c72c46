"""The text path against a brute-force scan: index methods, the key-value
engine's overwrite semantics, searches racing puts, and text island queries.

The model keeps one dict of live documents and answers every query by
scanning it, with the semantics the index promises:

* a document matches a phrase when it holds every phrase token as a token
  and the space-joined phrase is a substring of its space-joined tokens;
  the count is the number of such substrings;
* term queries read each term's first token; a phrase (or term) of stop
  words only matches nothing;
* an AND of phrases keeps documents matching each, counting the first;
* ``MIN n`` keeps rows with at least ``n`` (and at least one) matching
  documents per phrase, each phrase through its own documents;
* answers are sorted by (row, qualifier).
"""

from __future__ import annotations

import re
import sys
import threading

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.bigdawg import BigDawg
from repro.engines.keyvalue import KeyValueEngine
from repro.engines.keyvalue.text_index import STOP_WORDS

#: Stop words, a phrase hidden inside other tokens ("every sickness" holds
#: "very sick"), case and punctuation the tokenizer folds away.
_VOCABULARY = ["very", "sick", "every", "sickness", "patient", "pain", "Very", "sick,",
               "the", "of", "a", "ill"]
_ROWS = ["p1", "p2", "p3"]
_CELLS = [("md", "n1"), ("md", "n2"), ("rn", "n1")]
_TEXTS = st.lists(st.sampled_from(_VOCABULARY), max_size=8).map(" ".join)
_WRITES = st.lists(
    st.one_of(
        st.tuples(st.just("put"), st.sampled_from(_ROWS), st.sampled_from(_CELLS), _TEXTS),
        st.tuples(st.just("put"), st.sampled_from(_ROWS), st.sampled_from(_CELLS),
                  st.sampled_from([42, None, 1.5])),
        st.tuples(st.just("remove_row"), st.sampled_from(_ROWS)),
    ),
    max_size=14,
)
_PHRASES = st.sampled_from(
    ["very sick", "sick very", "very", "sick", "patient very sick", "every sickness", "of", "the sick"]
) | st.lists(st.sampled_from(_VOCABULARY), min_size=1, max_size=3).map(" ".join)


def _tokens(text: str) -> list[str]:
    return [word for word in re.findall(r"[a-z0-9]+", text.lower()) if word not in STOP_WORDS]


class _Model:
    """Live documents by (row, qualifier), and every term ever indexed."""

    def __init__(self) -> None:
        self.documents: dict[tuple[str, str], str] = {}
        self.terms: set[str] = set()

    def put(self, row: str, qualifier: str, value) -> None:
        if isinstance(value, str):
            self.documents[(row, qualifier)] = value
            self.terms.update(_tokens(value))
        else:
            self.documents.pop((row, qualifier), None)

    def remove_row(self, row: str) -> int:
        doomed = [key for key in self.documents if key[0] == row]
        for key in doomed:
            del self.documents[key]
        return len(doomed)

    def _scan(self, score) -> list[tuple[str, str, int]]:
        out = []
        for (row, qualifier), text in sorted(self.documents.items()):
            count = score(_tokens(text))
            if count:
                out.append((row, qualifier, count))
        return out

    def search_term(self, term: str):
        first = _tokens(term)[:1]
        return self._scan(lambda tokens: tokens.count(first[0]) if first else 0)

    def search_all(self, terms: list[str]):
        firsts = [tokens[0] for tokens in map(_tokens, terms) if tokens]
        return self._scan(lambda tokens: min(tokens.count(t) for t in firsts) if firsts else 0)

    def search_any(self, terms: list[str]):
        firsts = [tokens[0] for tokens in map(_tokens, terms) if tokens]
        return self._scan(lambda tokens: sum(tokens.count(t) for t in firsts))

    @staticmethod
    def _occurrences(phrase: str, tokens: list[str]) -> int:
        wanted = _tokens(phrase)
        if not wanted or any(t not in tokens for t in wanted):
            return 0
        return " ".join(tokens).count(" ".join(wanted))

    def search_phrases(self, phrases: list[str]):
        def score(tokens: list[str]) -> int:
            if not all(self._occurrences(p, tokens) for p in phrases):
                return 0
            return self._occurrences(phrases[0], tokens)
        return self._scan(score)

    def rows_with_min(self, phrases: list[str], minimum: int) -> list[str]:
        keep = set(_ROWS)
        for phrase in phrases:
            per_row: dict[str, int] = {}
            for row, _qualifier, _count in self.search_phrases([phrase]):
                per_row[row] = per_row.get(row, 0) + 1
            keep &= {row for row, n in per_row.items() if n >= max(minimum, 1)}
        return sorted(keep)


def _postings(postings) -> list[tuple[str, str, int]]:
    return [(p.row, p.qualifier, p.count) for p in postings]


def _deployment() -> tuple[BigDawg, KeyValueEngine]:
    bd = BigDawg()
    engine = KeyValueEngine("accumulo")
    bd.add_engine(engine)
    engine.create_table("notes", text_indexed=True)
    return bd, engine


def _apply(engine: KeyValueEngine, model: _Model, writes) -> None:
    index = engine.table("notes").text_index
    for write in writes:
        if write[0] == "put":
            _kind, row, (family, qualifier), value = write
            engine.put("notes", row, family, qualifier, value)
            model.put(row, f"{family}:{qualifier}", value)
        else:
            assert index.remove_row(write[1]) == model.remove_row(write[1])


def _island_query(phrases: list[str], minimum: int | None) -> str:
    body = " AND ".join(f'"{phrase}"' for phrase in phrases)
    return f"TEXT(SEARCH notes FOR {body}" + (f" MIN {minimum})" if minimum is not None else ")")


@settings(max_examples=150, deadline=None)
@example(writes=[("put", "p1", ("md", "n1"), "patient sick very")], phrases=["patient", "very sick"],
         terms=["sick"], minimum=1)
@example(writes=[("put", "p1", ("md", "n1"), "every sickness very ill sick"),
                 ("put", "p2", ("md", "n1"), "very sick"), ("put", "p2", ("md", "n1"), 42)],
         phrases=["very sick", "sick"], terms=["very", "the"], minimum=1)
@given(writes=_WRITES, phrases=st.lists(_PHRASES, min_size=1, max_size=3),
       terms=st.lists(st.sampled_from(_VOCABULARY), min_size=1, max_size=3),
       minimum=st.integers(0, 3))
def test_index_and_island_match_a_brute_force_scan(writes, phrases, terms, minimum):
    bd, engine = _deployment()
    model = _Model()
    _apply(engine, model, writes)
    index = engine.table("notes").text_index

    assert len(index) == len(model.documents)
    assert index.vocabulary_size == len(model.terms)
    for row in _ROWS:
        for family, qualifier in _CELLS:
            key = (row, f"{family}:{qualifier}")
            assert index.document(*key) == model.documents.get(key)
    for term in _VOCABULARY:
        assert _postings(index.search_term(term)) == model.search_term(term)
    assert _postings(index.search_all(terms)) == model.search_all(terms)
    assert _postings(index.search_any(terms)) == model.search_any(terms)
    for phrase in phrases:
        assert _postings(index.search_phrase(phrase)) == model.search_phrases([phrase])
        assert index.rows_with_min_documents(phrase, minimum) == model.rows_with_min([phrase], minimum)

    found = bd.execute(_island_query(phrases, None))
    assert found.schema.names == ["row", "qualifier", "count"]
    assert [tuple(r.values) for r in found.rows] == model.search_phrases(phrases)
    rows = bd.execute(_island_query(phrases, minimum))
    assert [r["row"] for r in rows.rows] == model.rows_with_min(phrases, minimum)


def test_empty_index_answers_nothing():
    bd, engine = _deployment()
    index = engine.table("notes").text_index
    assert len(index) == 0 and index.vocabulary_size == 0
    assert index.search_term("sick") == [] and index.search_any(["sick"]) == []
    assert index.search_all(["very", "sick"]) == [] and index.search_phrase("very sick") == []
    assert index.rows_with_min_documents("very sick", 0) == []
    assert index.remove_row("p1") == 0
    assert len(bd.execute('TEXT(SEARCH notes FOR "very sick" AND "pain")')) == 0
    assert len(bd.execute('TEXT(SEARCH notes FOR "very sick" MIN 1)')) == 0


class TestOverwrites:
    """The newest version of a cell is its document."""

    def test_overwritten_text_leaves_no_stale_postings(self):
        engine = KeyValueEngine()
        engine.create_table("notes", text_indexed=True)
        engine.put("notes", "p1", "md", "n1", "patient very sick")
        engine.put("notes", "p1", "md", "n1", "resting comfortably")
        index = engine.table("notes").text_index
        assert index.search_term("sick") == []
        assert index.search_all(["very", "sick"]) == []
        assert index.search_phrase("very sick") == []
        assert [(p.row, p.count) for p in index.search_term("resting")] == [("p1", 1)]
        assert index.document("p1", "md:n1") == "resting comfortably"
        assert len(index) == 1

    def test_a_non_text_value_drops_the_document(self):
        engine = KeyValueEngine()
        engine.create_table("notes", text_indexed=True)
        engine.put("notes", "p1", "md", "n1", "patient very sick")
        engine.put("notes", "p1", "md", "n1", 42)
        index = engine.table("notes").text_index
        assert index.search_term("sick") == []
        assert engine.rows_with_min_documents("notes", ["very sick"], 1) == []
        assert index.document("p1", "md:n1") is None
        assert len(index) == 0


@pytest.mark.parametrize("attempt", range(5))
def test_searches_racing_puts_see_every_finished_put(attempt):
    """A writer adds notes, then overwrites them; a reader searches all the
    while (one thread switch every 10 us).  Every put that finished before a
    search started is visible to it — an added note present, an overwritten
    one gone — and no search raises."""
    engine = KeyValueEngine()
    index = engine.create_table("notes", text_indexed=True).text_index
    notes = 4000
    done = {"added": 0, "overwritten": 0}
    failures: list[BaseException] = []

    def writer() -> None:
        try:
            for i in range(notes):
                engine.put("notes", f"p{i:05d}", "md", "n1", "patient very sick")
                done["added"] = i + 1
            for i in range(notes):
                engine.put("notes", f"p{i:05d}", "md", "n1", "resting comfortably")
                done["overwritten"] = i + 1
        except BaseException as error:  # noqa: BLE001 - reported below
            failures.append(error)

    def check(found: set[str], before: dict, after: dict) -> None:
        # In flight during the search: the put numbered by the counter read after it.
        present = range(after["overwritten"] + 1, before["added"])
        indices = {int(row[1:]) for row in found}
        assert len(indices.intersection(present)) == len(present), (before, after)
        assert min(indices, default=notes) >= before["overwritten"], (before, after)
        assert max(indices, default=0) <= after["added"], (before, after)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        thread = threading.Thread(target=writer)
        thread.start()
        searches = 0
        while thread.is_alive() or searches < 10:
            before = dict(done)
            rows = engine.rows_with_min_documents("notes", ["very sick"], 1)
            postings = index.search_phrase("patient very sick")
            after = dict(done)
            check(set(rows), before, after)
            check({p.row for p in postings}, before, after)
            searches += 1
        thread.join()
    finally:
        sys.setswitchinterval(interval)
    assert not failures, failures[0]
    assert engine.rows_with_min_documents("notes", ["very sick"], 1) == []
    assert len(engine.rows_with_min_documents("notes", ["resting comfortably"], 1)) == notes


@pytest.mark.parametrize("phrases", [["very sick"], ["very sick", "patient"], ["sick", "very sick"]])
def test_engine_answers_an_island_query_in_one_call(phrases):
    bd, engine = _deployment()
    engine.put("notes", "p1", "md", "n1", "patient very sick, very sick")
    before = engine.queries_executed
    found = bd.execute(_island_query(phrases, None))
    assert [tuple(r.values) for r in found.rows] == [("p1", "md:n1", found.rows[0]["count"])]
    assert engine.queries_executed == before + 1
