"""Memory-budgeted partitioned (grace/hybrid) hash join with disk spill.

When a join's build side exceeds the engine's ``join_memory_budget``, the
vectorized executor hands both inputs to :func:`partitioned_spill_join`
instead of materializing the build block.  Keys are encoded through an
insertion-ordered dictionary (the row executor's Python ``==``/``hash``
semantics), radix-partitioned with
:func:`~repro.common.keycodes.partition_codes`, and streamed to per-
partition temp files.  Each partition is then joined independently — a
partition whose build run still exceeds the budget re-partitions
recursively, following the hybrid hash join design (arXiv:2112.02480) of
degrading gracefully rather than OOMing.

Output order is the exact in-memory order: every emitted row is tagged with
its global probe row id (matched rows and left/full pads alike live in
exactly one partition run, each run ascending by id), so a K-way merge by id
reproduces the probe-major emission of the in-memory join byte for byte.
Unmatched build rows (right/full) merge the same way by global build row id
into the trailing null-padded batches.
"""

from __future__ import annotations

import heapq
import pickle
import tempfile
from typing import TYPE_CHECKING, Any, Callable, Iterator

import numpy as np

from repro.common.cancellation import current_token
from repro.common.keycodes import partition_codes
from repro.common.schema import ColumnBatch, Schema
from repro.common.vectors import object_view as _object_view, to_list
from repro.observability.tracing import get_tracer

if TYPE_CHECKING:  # pragma: no cover
    from repro.engines.relational.engine import RelationalEngine

#: Recursion floor: partitions smaller than this join in memory even when
#: their estimate still exceeds the budget (they cannot shrink much further).
_MIN_RECURSE_ROWS = 64
_MAX_RECURSE_DEPTH = 3


def approx_batch_bytes(batch: ColumnBatch) -> int:
    """O(1) resident-size estimate for budget checks (per-cell flat cost)."""
    return len(batch) * 16 * max(1, len(batch.columns))


def _approx_run_bytes(rows: int, columns: int) -> int:
    return rows * 16 * max(1, columns)


def _spill_columns(batch: ColumnBatch, rows: np.ndarray) -> list[list]:
    """The given rows of a batch as lists of native Python values: spill
    runs hold (and pickle) plain lists whatever kind the columns were."""
    return [to_list(column) for column in batch.gather(rows).columns]


class IncrementalJoinKeyEncoder:
    """Insertion-ordered dict join-key encoder for the spill path.

    Unlike :class:`~repro.common.keycodes.JoinKeyTable`, which wants the
    whole build side at once, this encoder grows batch by batch, so the
    build stream can be partitioned to disk without being materialized.
    Key equality is Python ``==``/``hash`` (``1 == 1.0 == True``), the row
    executor's semantics; NULL in any key column never matches (code -1).
    """

    def __init__(self) -> None:
        self._map: dict[Any, int] = {}

    def encode(self, key_columns: list, n: int, fit: bool) -> np.ndarray:
        codes = np.empty(n, dtype=np.int64)
        mapping = self._map
        key_columns = [to_list(column) for column in key_columns]
        if len(key_columns) == 1:
            column = key_columns[0]
            for idx in range(n):
                value = column[idx]
                if value is None:
                    codes[idx] = -1
                elif fit:
                    codes[idx] = mapping.setdefault(value, len(mapping))
                else:
                    codes[idx] = mapping.get(value, -1)
        else:
            for idx in range(n):
                values = tuple(column[idx] for column in key_columns)
                if any(value is None for value in values):
                    codes[idx] = -1
                elif fit:
                    codes[idx] = mapping.setdefault(values, len(mapping))
                else:
                    codes[idx] = mapping.get(values, -1)
        return codes


class SpillRun:
    """Append-only spill stream of (ids, codes, columns) chunks on temp disk.

    ``ids`` are global row ids, strictly ascending across a run's lifetime
    (chunks are appended in stream order), which is what lets the final
    merge reproduce in-memory output order without a sort.
    """

    def __init__(self) -> None:
        self._file = tempfile.TemporaryFile()
        self.rows = 0
        self.columns = 0

    def append(
        self, ids: list[int], codes: list[int] | None, columns: list[list]
    ) -> None:
        if not ids:
            return
        self.rows += len(ids)
        self.columns = len(columns)
        pickle.dump((ids, codes, columns), self._file, protocol=pickle.HIGHEST_PROTOCOL)

    def __len__(self) -> int:
        return self.rows

    @property
    def bytes_estimate(self) -> int:
        return _approx_run_bytes(self.rows, self.columns)

    def read_chunks(self) -> Iterator[tuple[list[int], list[int] | None, list[list]]]:
        self._file.seek(0)
        while True:
            try:
                yield pickle.load(self._file)
            except EOFError:
                return

    def close(self) -> None:
        self._file.close()


class _RunCursor:
    """Streaming read position over one spill run, ascending by id."""

    def __init__(self, run: SpillRun) -> None:
        self._chunks = run.read_chunks()
        self._ids: np.ndarray = np.zeros(0, dtype=np.int64)
        self._cols: list[list] = []
        self._pos = 0
        self._advance()

    def _advance(self) -> None:
        while self._pos >= len(self._ids):
            try:
                ids, _codes, cols = next(self._chunks)
            except StopIteration:
                self._ids = np.zeros(0, dtype=np.int64)
                self._cols = []
                self._pos = 0
                self.exhausted = True
                return
            self._ids = np.asarray(ids, dtype=np.int64)
            self._cols = cols
            self._pos = 0
        self.exhausted = False

    @property
    def head(self) -> int:
        return int(self._ids[self._pos])

    def take_upto(self, bound: int | None, sink: list[list]) -> int:
        """Move every buffered row with id < bound (all rows if None) into
        ``sink`` (one list per output column); returns rows taken."""
        taken = 0
        while not self.exhausted:
            if bound is None:
                end = len(self._ids)
            else:
                end = int(np.searchsorted(self._ids, bound))
            if end <= self._pos:
                break
            for out, col in zip(sink, self._cols):
                out.extend(col[self._pos : end])
            taken += end - self._pos
            self._pos = end
            self._advance()
        return taken


def _merge_runs(
    runs: list[SpillRun], n_columns: int, batch_rows: int
) -> Iterator[list[list]]:
    """K-way merge of id-disjoint ascending runs; yields column-list chunks
    of at most ``batch_rows`` rows, globally ascending by id."""
    cursors = []
    for run in runs:
        cursor = _RunCursor(run)
        if not cursor.exhausted:
            cursors.append(cursor)
    heap = [(cursor.head, idx) for idx, cursor in enumerate(cursors)]
    heapq.heapify(heap)
    buffer: list[list] = [[] for _ in range(n_columns)]
    buffered = 0
    while heap:
        _, idx = heapq.heappop(heap)
        cursor = cursors[idx]
        bound = heap[0][0] if heap else None
        buffered += cursor.take_upto(bound, buffer)
        if not cursor.exhausted:
            heapq.heappush(heap, (cursor.head, idx))
        while buffered >= batch_rows:
            yield [col[:batch_rows] for col in buffer]
            buffer = [col[batch_rows:] for col in buffer]
            buffered -= batch_rows
    if buffered:
        yield buffer


def partitioned_spill_join(
    *,
    joined_schema: Schema,
    build_schema: Schema,
    probe_schema: Schema,
    build_batches: Iterator[ColumnBatch],
    probe_batches: Iterator[ColumnBatch],
    build_key_idx: list[int],
    probe_key_idx: list[int],
    residual: Callable[[tuple], bool] | None,
    build_on_left: bool,
    pad_probe: bool,
    track_build: bool,
    batch_rows: int,
    budget: int | None,
    partitions: int,
    engine: "RelationalEngine",
) -> Iterator[ColumnBatch]:
    """Run a hash join without ever materializing the full build side.

    See the module docstring for the algorithm; this generator owns every
    temp file it creates and closes them as soon as their phase completes.
    """
    record_spill = engine.record_spill
    record_build_bytes = engine.record_build_bytes
    n_build = len(build_schema.columns)
    n_probe = len(probe_schema.columns)
    n_out = len(joined_schema.columns)
    encoder = IncrementalJoinKeyEncoder()

    token = current_token()

    # Every spill run the join can own is reachable from these bindings, and
    # all of them are closed by the single ``finally`` at the bottom — so a
    # cancellation raised at any batch boundary, even while the inputs are
    # still being partitioned, leaks no temp files.
    build_runs = [SpillRun() for _ in range(partitions)]
    null_build = SpillRun() if track_build else None
    probe_runs = [SpillRun() for _ in range(partitions)]
    pad_run = SpillRun() if pad_probe else None
    out_runs: list[SpillRun] = []
    unmatched_runs: list[SpillRun] = []

    def _partition_inputs() -> None:
        # --------------------------------------------- partition the build side
        build_total = 0
        for batch in build_batches:
            if token is not None:
                token.check()
            n = len(batch)
            if n == 0:
                continue
            codes = encoder.encode(
                [batch.columns[i] for i in build_key_idx], n, fit=True
            )
            for p, rows in enumerate(partition_codes(codes, partitions)):
                if rows.size:
                    build_runs[p].append(
                        (build_total + rows).tolist(),
                        codes[rows].tolist(),
                        _spill_columns(batch, rows),
                    )
            if null_build is not None:
                null_rows = np.flatnonzero(codes < 0)
                if null_rows.size:
                    null_build.append(
                        (build_total + null_rows).tolist(),
                        None,
                        _spill_columns(batch, null_rows),
                    )
            build_total += n
        record_spill(sum(1 for run in build_runs if len(run)))

        # --------------------------------------------- partition the probe side
        probe_total = 0
        for batch in probe_batches:
            if token is not None:
                token.check()
            n = len(batch)
            if n == 0:
                continue
            codes = encoder.encode(
                [batch.columns[i] for i in probe_key_idx], n, fit=False
            )
            for p, rows in enumerate(partition_codes(codes, partitions)):
                if rows.size:
                    probe_runs[p].append(
                        (probe_total + rows).tolist(),
                        codes[rows].tolist(),
                        _spill_columns(batch, rows),
                    )
            if pad_run is not None:
                # NULL or never-seen keys cannot match any partition: emit
                # their pads directly, already in final output column order.
                misses = np.flatnonzero(codes < 0)
                if misses.size:
                    missed = _spill_columns(batch, misses)
                    pad_cols = [[None] * int(misses.size) for _ in range(n_build)]
                    ordered = pad_cols + missed if build_on_left else missed + pad_cols
                    pad_run.append((probe_total + misses).tolist(), None, ordered)
            probe_total += n

    # ---------------------------------------------------- per-partition joining
    def process(build_run: SpillRun, probe_run: SpillRun, depth: int) -> None:
        tracer = get_tracer()
        if token is not None:
            token.check()
        try:
            if (
                budget is not None
                and build_run.bytes_estimate > budget
                and depth < _MAX_RECURSE_DEPTH
                and len(build_run) > _MIN_RECURSE_ROWS
            ):
                with tracer.span(
                    "join.spill_repartition", kind="operator",
                    depth=depth, build_rows=len(build_run),
                ):
                    _recurse(build_run, probe_run, depth)
                return
            with tracer.span(
                "join.spill_leaf", kind="operator", depth=depth,
                build_rows=len(build_run), probe_rows=len(probe_run),
            ):
                _process_leaf(build_run, probe_run)
        finally:
            build_run.close()
            probe_run.close()

    def _recurse(build_run: SpillRun, probe_run: SpillRun, depth: int) -> None:
        # Codes congruent mod ``partitions**(depth+1)`` landed together; the
        # next digit of the radix splits them further without reloading more
        # than one chunk at a time.
        divisor = partitions ** (depth + 1)
        sub_build = [SpillRun() for _ in range(partitions)]
        sub_probe = [SpillRun() for _ in range(partitions)]
        try:
            for run, subs in ((build_run, sub_build), (probe_run, sub_probe)):
                for ids, codes, cols in run.read_chunks():
                    arr = np.asarray(codes, dtype=np.int64)
                    ids_arr = np.asarray(ids, dtype=np.int64)
                    sub_pid = (arr // divisor) % partitions
                    for p in range(partitions):
                        rows = np.flatnonzero(sub_pid == p)
                        if rows.size:
                            views = [_object_view(col) for col in cols]
                            subs[p].append(
                                ids_arr[rows].tolist(),
                                arr[rows].tolist(),
                                [np.take(view, rows).tolist() for view in views],
                            )
            record_spill(sum(1 for run in sub_build if len(run)))
            for p in range(partitions):
                process(sub_build[p], sub_probe[p], depth + 1)
        finally:
            for run in sub_build + sub_probe:
                run.close()

    def _process_leaf(build_run: SpillRun, probe_run: SpillRun) -> None:
        build_ids: list[int] = []
        build_codes: list[int] = []
        build_cols: list[list] = [[] for _ in range(n_build)]
        for ids, codes, cols in build_run.read_chunks():
            build_ids.extend(ids)
            build_codes.extend(codes)
            for acc, col in zip(build_cols, cols):
                acc.extend(col)
        record_build_bytes(_approx_run_bytes(len(build_ids), n_build))
        codes_arr = np.asarray(build_codes, dtype=np.int64)
        uniq = np.unique(codes_arr)
        local = np.searchsorted(uniq, codes_arr)
        # CSR in (code, build id) order: chunks arrive in build-stream order,
        # so a stable sort by local code keeps global build order per code.
        order = np.argsort(local, kind="stable")
        sorted_rows = order.astype(np.int64, copy=False)
        counts = np.bincount(local, minlength=len(uniq)).astype(np.int64)
        starts = np.zeros(len(uniq), dtype=np.int64)
        if len(uniq) > 1:
            np.cumsum(counts[:-1], out=starts[1:])
        build_views = [_object_view(col) for col in build_cols]
        matched = (
            np.zeros(len(build_ids), dtype=np.bool_) if track_build else None
        )
        out_run = SpillRun()
        # Registered before the probe loop so the outer ``finally`` closes it
        # even when a cancellation interrupts the leaf mid-probe.
        out_runs.append(out_run)
        for ids, codes, cols in probe_run.read_chunks():
            length = len(ids)
            arr = np.asarray(codes, dtype=np.int64)
            ids_arr = np.asarray(ids, dtype=np.int64)
            if len(uniq):
                pos = np.searchsorted(uniq, arr)
                pos_clip = np.minimum(pos, len(uniq) - 1)
                found = uniq[pos_clip] == arr
            else:
                pos_clip = np.zeros(length, dtype=np.int64)
                found = np.zeros(length, dtype=np.bool_)
            hits = np.flatnonzero(found)
            if hits.size:
                codes_h = pos_clip[hits]
                cnts = counts[codes_h]
                total = int(cnts.sum())
            else:
                codes_h = np.zeros(0, dtype=np.int64)
                cnts = np.zeros(0, dtype=np.int64)
                total = 0
            if total:
                probe_rep = np.repeat(hits, cnts)
                seg_start = np.repeat(starts[codes_h], cnts)
                cum = np.cumsum(cnts)
                offsets = np.arange(total, dtype=np.int64) - np.repeat(cum - cnts, cnts)
                rows = sorted_rows[seg_start + offsets]
            else:
                probe_rep = np.zeros(0, dtype=np.int64)
                rows = np.zeros(0, dtype=np.int64)
            probe_views = [_object_view(col) for col in cols]
            cand_build = [np.take(view, rows) for view in build_views]
            cand_probe = [np.take(view, probe_rep) for view in probe_views]
            if residual is not None and total:
                ordered = (
                    cand_build + cand_probe if build_on_left else cand_probe + cand_build
                )
                keep = np.fromiter(
                    (residual(values) for values in zip(*(c.tolist() for c in ordered))),
                    np.bool_,
                    count=total,
                )
                probe_rep = probe_rep[keep]
                rows = rows[keep]
                cand_build = [col[keep] for col in cand_build]
                cand_probe = [col[keep] for col in cand_probe]
            if matched is not None and rows.size:
                matched[rows] = True
            pads = (
                np.flatnonzero(np.bincount(probe_rep, minlength=length) == 0)
                if pad_probe
                else np.zeros(0, dtype=np.int64)
            )
            out_len = int(probe_rep.size + pads.size)
            if not out_len:
                continue
            if pads.size:
                merge_order = np.argsort(
                    np.concatenate([probe_rep, pads]), kind="stable"
                )
                pad_fill = np.full(pads.size, None, dtype=object)
                out_probe = [
                    np.concatenate([kept, np.take(view, pads)])[merge_order]
                    for kept, view in zip(cand_probe, probe_views)
                ]
                out_build = [
                    np.concatenate([kept, pad_fill])[merge_order]
                    for kept in cand_build
                ]
                out_ids = np.concatenate(
                    [ids_arr[probe_rep], ids_arr[pads]]
                )[merge_order]
            else:
                out_probe, out_build = cand_probe, cand_build
                out_ids = ids_arr[probe_rep]
            ordered_cols = (
                out_build + out_probe if build_on_left else out_probe + out_build
            )
            out_run.append(
                out_ids.tolist(), None, [col.tolist() for col in ordered_cols]
            )
        if matched is not None:
            unmatched = np.flatnonzero(~matched)
            if unmatched.size:
                run = SpillRun()
                unmatched_runs.append(run)
                ids_arr = np.asarray(build_ids, dtype=np.int64)
                for start in range(0, int(unmatched.size), batch_rows):
                    chunk = unmatched[start : start + batch_rows]
                    run.append(
                        ids_arr[chunk].tolist(),
                        None,
                        [np.take(view, chunk).tolist() for view in build_views],
                    )

    try:
        _partition_inputs()
        for p in range(partitions):
            process(build_runs[p], probe_runs[p], 0)

        # ------------------------------------------ probe-ordered output merge
        merge_inputs = list(out_runs)
        if pad_run is not None:
            merge_inputs.append(pad_run)
        for cols in _merge_runs(merge_inputs, n_out, batch_rows):
            yield ColumnBatch(joined_schema, cols, len(cols[0]))

        # -------------------------------------- trailing unmatched build rows
        if track_build:
            trailing = list(unmatched_runs)
            if null_build is not None and len(null_build):
                trailing.append(null_build)
            for cols in _merge_runs(trailing, n_build, batch_rows):
                size = len(cols[0])
                probe_pad = ColumnBatch.nulls(probe_schema, size).columns
                ordered = cols + probe_pad if build_on_left else probe_pad + cols
                yield ColumnBatch(joined_schema, ordered, size)
    finally:
        # ``SpillRun.close`` is idempotent, so runs already closed by their
        # per-partition ``process`` call are safely re-closed here.
        for run in build_runs + probe_runs + out_runs + unmatched_runs:
            run.close()
        if pad_run is not None:
            pad_run.close()
        if null_build is not None:
            null_build.close()
