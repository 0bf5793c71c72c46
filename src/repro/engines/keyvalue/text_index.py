"""An inverted text index over key-value entries.

The MIMIC II demo stores doctors' and nurses' notes in the key-value engine
and runs keyword queries such as *"patients with at least three reports saying
'very sick'"* (Section 1.1).  This index maps terms to the (row, qualifier)
cells containing them and supports AND / OR / phrase queries plus per-row
document counting — the primitives the text island builds on.

Layout.  Every indexed document gets a dense integer id in insertion order
and keeps its ``(row, qualifier)``, an integer row id, its raw text, its
normalized text (its tokens joined by one space) and whether it is live.
Each term keeps an append-only numpy buffer of (document id, count) pairs
whose capacity doubles as it fills.  Ids only ever grow, so every posting
vector is sorted.  Overwriting a document or removing its row tombstones the
old id (and new text gets a new id): nothing is ever taken out of a posting
vector.

Queries.  Every query reduces to one primitive: the *candidates* of a set of
terms are the live ids in the intersection of their posting vectors, rarest
first.  A phrase of several tokens is then verified by a substring count on
the normalized text; a one-token phrase is present wherever its posting
says.  An AND of phrases takes one candidate set for all their tokens and
checks each candidate once; ``MIN n`` is a ``bincount`` of the matching
documents' row ids.  Answers are sorted by (row, qualifier) only at the end.

Concurrency.  Writers hold a lock.  A reader takes, under the same lock, the
mutation generation and the length of every vector it will read, then works
on those prefixes without it: a vector that grows is reallocated, and the one
write below a vector's length — a tombstone — records the generation that
wrote it, so a search sees exactly the writes that finished before it.
"""

from __future__ import annotations

import re
import threading
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np


_TOKEN_RE = re.compile(r"[a-z0-9]+")

#: Common English stop words excluded from the index.
STOP_WORDS = frozenset(
    "a an and are as at be by for from has he in is it its of on or that the to was were will with".split()
)

#: Tombstone generation of a live document: later than any real generation.
_LIVE = np.iinfo(np.int64).max
_NO_PAIRS = np.zeros((2, 0), dtype=np.int64)


def tokenize(text: str) -> list[str]:
    """Lower-case word tokens with stop words removed."""
    return [t for t in _TOKEN_RE.findall(text.lower()) if t not in STOP_WORDS]


@dataclass(frozen=True)
class Posting:
    """One occurrence list entry: a document (row, qualifier) and its term count."""

    row: str
    qualifier: str
    count: int


@dataclass(frozen=True)
class DocumentMatches:
    """Matching documents as columns, sorted by (row, qualifier)."""

    rows: list[str]
    qualifiers: list[str]
    counts: list[int]

    def __len__(self) -> int:
        return len(self.rows)

    def postings(self) -> list[Posting]:
        return [Posting(*entry) for entry in zip(self.rows, self.qualifiers, self.counts)]


class _Pairs:
    """Append-only pairs of int64s, stored as two rows whose capacity
    doubles as they fill: a term's (document ids, counts), or per document
    (row id, tombstone generation)."""

    __slots__ = ("data", "size")

    def __init__(self) -> None:
        self.data = np.empty((2, 4), dtype=np.int64)
        self.size = 0

    def append(self, first: int, second: int) -> None:
        size = self.size
        if size == self.data.shape[1]:
            grown = np.empty((2, 2 * size), dtype=np.int64)
            grown[:, :size] = self.data
            self.data = grown
        self.data[0, size] = first
        self.data[1, size] = second
        self.size = size + 1

    def view(self) -> np.ndarray:
        return self.data[:, : self.size]


@dataclass(frozen=True)
class _Snapshot:
    """What one search reads: prefixes of the vectors, taken under the lock."""

    generation: int
    postings: dict[str, np.ndarray]  # term -> rows (doc ids, counts)
    tombstoned: np.ndarray  # per document: generation that tombstoned it, or _LIVE
    doc_rows: np.ndarray  # per document: row id
    rows: int  # row ids handed out

    def candidates(self, terms: Iterable[str]) -> np.ndarray:
        """Ascending live document ids holding every term."""
        lists = sorted((self.postings[term][0] for term in terms), key=len)
        ids = lists[0]
        for other in lists[1:]:
            if not ids.size:
                break
            ids = ids[_contains(other, ids)]
        return ids[self.tombstoned[ids] > self.generation]

    def live(self, term: str) -> tuple[np.ndarray, np.ndarray]:
        """The live part of one term's posting vectors."""
        ids, counts = self.postings[term]
        keep = self.tombstoned[ids] > self.generation
        return ids[keep], counts[keep]


def _contains(sorted_ids: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """Mask of the ``ids`` present in the non-empty sorted vector ``sorted_ids``."""
    at = np.minimum(np.searchsorted(sorted_ids, ids), sorted_ids.size - 1)
    return sorted_ids[at] == ids


class InvertedTextIndex:
    """Term → posting vectors index with boolean and phrase search."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._generation = 0
        self._terms: dict[str, _Pairs] = {}
        # Per document id.
        self._keys: list[tuple[str, str]] = []
        self._texts: list[str] = []
        self._normalized: list[str] = []
        self._docs = _Pairs()  # (row id, tombstone generation)
        # Live document id per (row, qualifier); row ids by first appearance.
        self._live: dict[tuple[str, str], int] = {}
        self._row_ids: dict[str, int] = {}
        self._row_names: list[str] = []

    def __len__(self) -> int:
        """Number of live documents."""
        return len(self._live)

    @property
    def vocabulary_size(self) -> int:
        """Number of distinct terms ever indexed."""
        return len(self._terms)

    # ----------------------------------------------------------------- writes
    def add_document(self, row: str, qualifier: str, text: str) -> None:
        """Index one document (e.g. one clinical note), replacing any earlier
        text of the same (row, qualifier)."""
        tokens = tokenize(text)
        counts: dict[str, int] = {}
        for token in tokens:
            counts[token] = counts.get(token, 0) + 1
        normalized = " ".join(tokens)
        key = (row, qualifier)
        with self._lock:
            self._generation += 1
            self._tombstone(key)
            doc = len(self._keys)
            row_id = self._row_ids.setdefault(row, len(self._row_names))
            if row_id == len(self._row_names):
                self._row_names.append(row)
            self._keys.append(key)
            self._texts.append(text)
            self._normalized.append(normalized)
            self._docs.append(row_id, _LIVE)
            self._live[key] = doc
            for term, count in counts.items():
                postings = self._terms.get(term)
                if postings is None:
                    postings = self._terms[term] = _Pairs()
                postings.append(doc, count)

    def remove_document(self, row: str, qualifier: str) -> bool:
        """Drop one document; returns whether it was indexed."""
        with self._lock:
            self._generation += 1
            return self._tombstone((row, qualifier))

    def remove_row(self, row: str) -> int:
        """Drop all documents belonging to a row. Returns documents removed."""
        with self._lock:
            self._generation += 1
            doomed = [key for key in self._live if key[0] == row]
            for key in doomed:
                self._tombstone(key)
            return len(doomed)

    def _tombstone(self, key: tuple[str, str]) -> bool:
        doc = self._live.pop(key, None)
        if doc is None:
            return False
        self._docs.data[1, doc] = self._generation
        return True

    def _snapshot(self, terms: Iterable[str]) -> _Snapshot:
        with self._lock:
            postings = {}
            for term in terms:
                pairs = self._terms.get(term)
                postings[term] = _NO_PAIRS if pairs is None else pairs.view()
            doc_rows, tombstoned = self._docs.view()
            return _Snapshot(self._generation, postings, tombstoned, doc_rows, len(self._row_names))

    # ------------------------------------------------------------------ search
    def search_term(self, term: str) -> list[Posting]:
        """Documents containing a single term."""
        normalized = tokenize(term)
        if not normalized:
            return []
        return self._postings(*self._snapshot(normalized[:1]).live(normalized[0]))

    def search_all(self, terms: list[str]) -> list[Posting]:
        """Documents containing every term (AND). Count is the minimum term count."""
        normalized = _first_tokens(terms)
        if not normalized:
            return []
        snapshot = self._snapshot(normalized)
        ids = snapshot.candidates(normalized)
        counts = [term_counts[np.searchsorted(term_ids, ids)]
                  for term_ids, term_counts in snapshot.postings.values()]
        return self._postings(ids, np.min(counts, axis=0))

    def search_any(self, terms: list[str]) -> list[Posting]:
        """Documents containing at least one term (OR). Count is the total."""
        normalized = _first_tokens(terms)
        if not normalized:
            return []
        snapshot = self._snapshot(normalized)
        # A term named twice counts twice.
        hits = [snapshot.live(term) for term in normalized]
        ids, inverse = np.unique(np.concatenate([ids for ids, _ in hits]), return_inverse=True)
        totals = np.zeros(ids.size, dtype=np.int64)
        np.add.at(totals, inverse, np.concatenate([counts for _, counts in hits]))
        return self._postings(ids, totals)

    def search_phrase(self, phrase: str) -> list[Posting]:
        """Documents containing the exact phrase; count is its occurrences."""
        return self.documents_with_phrases([phrase]).postings()

    def rows_with_min_documents(self, phrase: str, minimum: int) -> list[str]:
        """Rows (patients) with at least ``minimum`` documents containing the phrase.

        This is the exact shape of the demo's text-analysis query.
        """
        return self.rows_with_phrases([phrase], minimum)

    def documents_with_phrases(self, phrases: Sequence[str]) -> DocumentMatches:
        """Documents containing every phrase; count is the first phrase's
        occurrences.  A phrase of stop words only matches nothing."""
        needles = _needles(phrases)
        if needles is None:
            return DocumentMatches([], [], [])
        terms = list(dict.fromkeys(term for tokens in needles for term in tokens))
        ids = self._snapshot(terms).candidates(terms).tolist()
        first = " ".join(needles[0])
        # A one-token phrase is present wherever its tokens are, so only
        # the first phrase's count and multi-token phrases read the text.
        checks = list(dict.fromkeys(
            " ".join(tokens) for tokens in needles[1:] if len(tokens) > 1))
        texts, keys = self._normalized, self._keys
        hits = []
        for doc in ids:
            text = texts[doc]
            count = text.count(first)
            if count and all(needle in text for needle in checks):
                hits.append((keys[doc], count))
        hits.sort()
        return DocumentMatches([key[0] for key, _ in hits], [key[1] for key, _ in hits],
                               [count for _, count in hits])

    def rows_with_phrases(self, phrases: Sequence[str], minimum: int) -> list[str]:
        """Rows with at least ``minimum`` (and at least one) documents
        containing each phrase — each phrase through its own documents."""
        needles = _needles(phrases)
        if needles is None:
            return []
        distinct = list(dict.fromkeys(tuple(tokens) for tokens in needles))
        snapshot = self._snapshot({term for tokens in distinct for term in tokens})
        texts = self._normalized
        keep = np.ones(snapshot.rows, dtype=np.bool_)
        for tokens in distinct:
            ids = snapshot.candidates(tokens)
            if len(tokens) > 1:
                needle = " ".join(tokens)
                ids = ids[np.array([needle in texts[doc] for doc in ids.tolist()], dtype=np.bool_)]
            keep &= np.bincount(snapshot.doc_rows[ids], minlength=snapshot.rows) >= max(minimum, 1)
        names = self._row_names
        return sorted(names[row] for row in np.flatnonzero(keep).tolist())

    def document(self, row: str, qualifier: str) -> str | None:
        """Fetch the raw text of one indexed document."""
        doc = self._live.get((row, qualifier))
        return None if doc is None else self._texts[doc]

    def _postings(self, ids: np.ndarray, counts: np.ndarray) -> list[Posting]:
        keys = self._keys
        entries = sorted(zip([keys[doc] for doc in ids.tolist()], counts.tolist()))
        return [Posting(row, qualifier, count) for (row, qualifier), count in entries]


def _first_tokens(terms: Iterable[str]) -> list[str]:
    """Each query term's first token; terms of stop words only drop out."""
    return [tokens[0] for tokens in map(tokenize, terms) if tokens]


def _needles(phrases: Sequence[str]) -> list[list[str]] | None:
    """Each phrase's tokens, or None when some phrase (or the list) is empty."""
    needles = [tokenize(phrase) for phrase in phrases]
    return needles if needles and all(needles) else None
