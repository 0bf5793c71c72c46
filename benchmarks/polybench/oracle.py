"""Expected answers computed without this codebase.

SQL answers come from stdlib ``sqlite3`` loaded with the same generated rows,
array answers from numpy on the generated ndarray, text answers from a
pure-Python substring scan of the generated notes, D4M degrees from a dict,
and the write workloads from dict/array models updated as ops are generated.
Nothing here imports ``repro``.

SQLite semantic carve-outs the generated queries stay clear of:

* ``LIKE`` is ASCII case-insensitive in SQLite and case-sensitive in the
  engine — every generated TEXT value and pattern is lower-case.
* SQLite has no BOOLEAN: booleans load as 0/1, and :func:`canonical` maps the
  engine's ``True``/``False`` to 1/0 before comparing.
* ``/`` on two integers truncates in SQLite — no generated query divides.
* ``sum``/``avg`` over an empty input are NULL in both; ``count`` is 0.
* Row order is compared only as a sorted multiset; ``ORDER BY .. LIMIT``
  queries break ties on a unique column so the kept set is determined.
* Floats are compared with 1e-9 relative tolerance (summation order differs).
"""

from __future__ import annotations

import math
import sqlite3
from typing import Any, Iterable, Sequence

import numpy as np

REL_TOL = 1e-9

Rows = list[tuple]


# ------------------------------------------------------------------ comparing
def canonical(rows: Iterable[Sequence[Any]]) -> Rows:
    """Rows as a sorted multiset of plain tuples (bools -> ints, numpy -> python)."""
    out = []
    for row in rows:
        values = []
        for value in row:
            if isinstance(value, np.generic):
                value = value.item()
            values.append(int(value) if isinstance(value, bool) else value)
        out.append(tuple(values))
    out.sort(key=_sort_key)
    return out


def _sort_key(row: tuple) -> tuple:
    # Floats sort on 9 significant digits so last-bit noise cannot reorder rows.
    key = []
    for value in row:
        if value is None:
            key.append((0, 0))
        elif isinstance(value, str):
            key.append((2, value))
        else:
            key.append((1, float(f"{value:.9g}")))
    return tuple(key)


def rows_match(actual: Iterable[Sequence[Any]], expected: Iterable[Sequence[Any]]) -> bool:
    left, right = canonical(actual), canonical(expected)
    if len(left) != len(right):
        return False
    for row_a, row_b in zip(left, right):
        if len(row_a) != len(row_b):
            return False
        for a, b in zip(row_a, row_b):
            if a is None or b is None or isinstance(a, str) or isinstance(b, str):
                if a != b:
                    return False
            elif not math.isclose(a, b, rel_tol=REL_TOL, abs_tol=1e-12):
                return False
    return True


# --------------------------------------------------------------------- SQLite
class SqlOracle:
    """An in-memory SQLite database holding the generated relational rows."""

    def __init__(self) -> None:
        self.db = sqlite3.connect(":memory:", check_same_thread=False)

    def load(self, table: str, columns: Sequence[tuple[str, str]],
             rows: Iterable[Sequence[Any]], index: Sequence[str] = ()) -> None:
        spec = ", ".join(f"{name} {kind}" for name, kind in columns)
        self.db.execute(f"CREATE TABLE {table} ({spec})")
        marks = ", ".join("?" for _ in columns)
        self.db.executemany(f"INSERT INTO {table} VALUES ({marks})", rows)
        for column in index:
            self.db.execute(f"CREATE INDEX idx_{table}_{column} ON {table} ({column})")

    def query(self, sql: str) -> Rows:
        return self.db.execute(sql).fetchall()

    def close(self) -> None:
        self.db.close()


# ----------------------------------------------------------------------- text
def text_search(notes: Sequence[tuple[str, str, str]], phrases: Sequence[str],
                minimum: int | None) -> Rows:
    """The text island's answer by substring scan.

    ``notes`` holds ``(row_key, qualifier, text)``.  Without ``minimum`` the
    answer is one ``(row, qualifier, count)`` per document containing every
    phrase, ``count`` being occurrences of the first phrase; with it, the
    rows having at least ``minimum`` matching documents for every phrase.
    """
    if minimum is not None:
        row_sets = []
        for phrase in phrases:
            per_row: dict[str, int] = {}
            for row, _qualifier, text in notes:
                if phrase in text:
                    per_row[row] = per_row.get(row, 0) + 1
            row_sets.append({row for row, n in per_row.items() if n >= minimum})
        return [(row,) for row in sorted(set.intersection(*row_sets))]
    out = []
    for row, qualifier, text in notes:
        if all(phrase in text for phrase in phrases):
            out.append((row, qualifier, text.count(phrases[0])))
    return out


def d4m_degree(cells: Iterable[tuple[str, str]], rows: Sequence[str], axis: str) -> Rows:
    """Entry counts per row (or column) key over the ``rows`` subset of a
    text-valued associative array."""
    keep = set(rows)
    totals: dict[str, float] = {}
    for row, col in cells:
        if row not in keep:
            continue
        key = row if axis == "rows" else col
        totals[key] = totals.get(key, 0.0) + 1.0
    return sorted(totals.items())


# ---------------------------------------------------------------------- array
def window_stat(segment: np.ndarray, window: int) -> float:
    """max over positions of the trailing ``window``-cell average."""
    best = -math.inf
    for i in range(len(segment)):
        lo = max(0, i - window + 1)
        best = max(best, float(segment[lo:i + 1].mean()))
    return best


def per_signal(values: np.ndarray, lo: int, hi: int) -> Rows:
    """``(signal, avg)`` over the sample range [lo, hi] of a (signal, sample) array."""
    block = values[:, lo:hi + 1]
    return [(s, float(block[s].mean())) for s in range(block.shape[0])]


# ------------------------------------------------------------------ analytics
class AnalyticsOracle:
    """numpy answers for the ``relational_analytics`` query shapes.

    SQLite needs 20-250 ms per query on these tables, more than the run can
    spend checking hundreds of ops, so the full-size run checks against these
    vectorized forms; the smoke test holds them equal to SQLite on every shape.
    """

    def __init__(self, fact: dict[str, np.ndarray], dims_label: Sequence[str],
                 dim_big_weight: np.ndarray) -> None:
        self.f = fact
        self.labels = np.asarray(dims_label, dtype=object)
        self.weight = dim_big_weight

    def answer(self, shape: str, x: float, arg: int) -> Rows:
        f = self.f
        keep = f["value"] > x
        if shape == "filter_aggregate":
            v = f["value"][keep & (f["flag"] == arg)]
            if not v.size:
                return [(0, None, None, None)]
            return [(int(v.size), float(v.sum()), float(v.mean()), float(v.max()))]
        if shape == "group_by":
            return [(k, n, s / n) for k, n, s, _hi in
                    self._reduce(f["grp"][keep], f["value"][keep])]
        if shape == "group_by_multi":
            # grp, flag, bucket and region are all functions of id, so the row
            # id modulo their common period identifies the group.
            code = f["id"][keep] % 1400
            value = f["value"][keep]
            out = []
            for key, n, total, hi in self._reduce(code, value):
                out.append((key % 50, key % 7, key % 4, f"region_{key % 8}",
                            n, total / n, hi))
            return out
        if shape == "join_small":
            label = self.labels[f["grp"][keep]]
            value = f["value"][keep]
            out = []
            for name in sorted(set(label.tolist())):
                v = value[label == name]
                out.append((name, int(v.size), float(v.sum())))
            return out
        if shape in ("join_inner_large", "join_left_outer"):
            fk, value = f["fk"][keep], f["value"][keep]
            matched = fk < len(self.weight)
            if shape == "join_left_outer":
                total = float(value.sum()) if value.size else None
                return [(int(value.size), int(matched.sum()), total)]
            if not matched.any():
                return [(0, None, None)]
            return [(int(matched.sum()), float(value[matched].sum()),
                     float(self.weight[fk[matched]].min()))]
        if shape == "top_n":
            ids, value = f["id"][keep], f["value"][keep]
            order = np.lexsort((ids, -value))[:arg]
            return [(int(ids[i]), float(value[i])) for i in order]
        if shape == "like":
            # LIKE 'region_<arg>%' over region_0..region_7 keeps exactly one region.
            v = f["value"][keep & (f["id"] % 8 == arg)]
            return [(f"region_{arg}", int(v.size), float(v.mean()))] if v.size else []
        raise ValueError(f"unknown analytics shape {shape!r}")

    @staticmethod
    def _reduce(code: np.ndarray, value: np.ndarray) -> list[tuple[int, int, float, float]]:
        keys, inverse = np.unique(code, return_inverse=True)
        counts = np.bincount(inverse)
        sums = np.bincount(inverse, weights=value)
        highs = np.full(len(keys), -np.inf)
        np.maximum.at(highs, inverse, value)
        return [(int(k), int(n), float(s), float(h))
                for k, n, s, h in zip(keys, counts, sums, highs)]


# --------------------------------------------------------------------- models
class SignalTableModel:
    """A ``(signal, sample, value[, label])`` table a client keeps appending to."""

    def __init__(self, values: np.ndarray) -> None:
        signals, samples = values.shape
        self.sums = values.sum(axis=1)
        self.counts = np.full(signals, samples, dtype=np.int64)

    def append(self, signal: int, value: float) -> int:
        """Add one cell to ``signal``; returns the sample index it takes."""
        sample = int(self.counts[signal])
        self.sums[signal] += value
        self.counts[signal] += 1
        return sample

    def averages(self) -> Rows:
        return [(s, float(self.sums[s] / self.counts[s])) for s in range(len(self.sums))]


class VitalsModel:
    """Dict model of the rows one ``durable_mixed`` client owns."""

    def __init__(self, rows: Iterable[tuple]) -> None:
        self.rows: dict[int, tuple] = {}
        self.by_patient: dict[int, set[int]] = {}
        for row in rows:
            self.insert(row)

    def insert(self, row: tuple) -> None:
        self.rows[row[0]] = row
        self.by_patient.setdefault(row[1], set()).add(row[0])

    def set_heart_rate(self, vital_id: int, heart_rate: float) -> None:
        row = self.rows[vital_id]
        self.rows[vital_id] = (row[0], row[1], heart_rate, row[3], row[4])

    def delete(self, vital_id: int) -> None:
        row = self.rows.pop(vital_id)
        self.by_patient[row[1]].discard(vital_id)

    def point(self, vital_id: int) -> Rows:
        row = self.rows.get(vital_id)
        return [row] if row is not None else []

    def patient_summary(self, patient_id: int) -> Rows:
        ids = self.by_patient.get(patient_id, ())
        if not ids:
            return [(0, None, None)]
        rates = [self.rows[i][2] for i in ids]
        return [(len(rates), math.fsum(rates) / len(rates),
                 max(self.rows[i][3] for i in ids))]


def lost_acked_writes(models: Iterable[VitalsModel], table_rows: Iterable[Sequence[Any]]) -> int:
    """Acknowledged writes the table does not reflect: modelled rows missing or
    different, plus rows the model deleted (or never wrote) still present."""
    expected: dict[int, tuple] = {}
    for model in models:
        expected.update(model.rows)
    lost = 0
    seen = set()
    for row in table_rows:
        key = row[0]
        seen.add(key)
        want = expected.get(key)
        if want is None or not rows_match([row], [want]):
            lost += 1
    return lost + sum(1 for key in expected if key not in seen)
