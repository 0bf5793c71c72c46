"""The hash join: the in-memory build/probe kernel, and the memory-budgeted
partitioned (grace/hybrid) join that runs the same kernel one partition at a
time over columnar spill runs.

:class:`HashJoinTable` pins one build block in memory — key codes from
:class:`~repro.common.keycodes.JoinKeyTable`, rows laid out CSR-style — and
resolves whole probe batches against it.  The vectorized executor uses it
directly while the build side fits ``join_memory_budget``.  Over budget it
hands both inputs to :func:`partitioned_spill_join`, which never holds the
build side whole:

* **Routing.**  Each batch is split by a hash of its key *values*
  (:class:`~repro.common.keycodes.PartitionRouter`: array arithmetic on the
  key buffers or dictionary codes; equal keys share a partition, NULL keys
  match nothing) with one gather per column, and the slices go to one
  :class:`SpillRun` per partition.
* **Runs.**  A run is a sequence of chunks in the join's one temp file
  (:class:`SpillFile`), each a global row-id vector plus the columns' typed
  buffers written raw (values and null mask of a ``NumericVector``, codes of
  a ``DictVector`` — its dictionary stays the table's, by reference); only
  a column that is not a typed vector is pickled.  A run buffers at most
  one chunk before writing it, and a chunk is one write and one read.
* **Leaves.**  A partition whose build run still exceeds the budget
  re-partitions on the next hash digit (arXiv:2112.02480: degrade
  gracefully rather than OOM); otherwise its build run becomes a
  :class:`HashJoinTable` and its probe chunks go through ``probe`` — the
  in-memory join, partition by partition.
* **Order.**  Every emitted row carries its global probe row id and lives in
  exactly one output run, ascending; :func:`merge_by_id` interleaves the
  runs a window at a time, which reproduces the in-memory join's
  probe-major emission byte for byte.  Unmatched build rows (right/full)
  merge the same way by build row id into the trailing null-padded batches.
"""

from __future__ import annotations

import os
import pickle
import tempfile
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator

import numpy as np

from repro.common.cancellation import current_token
from repro.common.keycodes import JoinKeyTable, PartitionRouter
from repro.common.schema import ColumnBatch, Schema
from repro.common.vectors import DictVector, NumericVector, to_list
from repro.observability.tracing import get_tracer

if TYPE_CHECKING:  # pragma: no cover
    from repro.engines.relational.engine import RelationalEngine

#: Recursion floor: partitions smaller than this join in memory even when
#: their estimate still exceeds the budget (they cannot shrink much further).
_MIN_RECURSE_ROWS = 64
_MAX_RECURSE_DEPTH = 3
#: Flat per-cell cost of the O(1) resident-size estimates.
_CELL_BYTES = 16


def approx_batch_bytes(batch: ColumnBatch) -> int:
    """O(1) resident-size estimate for budget checks (per-cell flat cost)."""
    return len(batch) * _CELL_BYTES * max(1, len(batch.columns))


@dataclass(frozen=True)
class JoinSpec:
    """What one equi-join is, independent of how much memory it gets."""

    joined_schema: Schema
    build_schema: Schema
    probe_schema: Schema
    build_key_idx: list[int]
    probe_key_idx: list[int]
    #: Compiled non-equi conjuncts over a joined row, if any.
    residual: Callable[[tuple], bool] | None
    build_on_left: bool
    pad_probe: bool  #: left/full: unmatched probe rows are emitted NULL-padded
    track_build: bool  #: right/full: unmatched build rows trail the output

    def ordered(self, build_columns: list, probe_columns: list) -> list:
        """Both sides' columns in joined-schema order."""
        if self.build_on_left:
            return build_columns + probe_columns
        return probe_columns + build_columns


class HashJoinTable:
    """One build block pinned in memory, ready to be probed.

    The build keys are factorized into dense int64 codes and the build row
    ids laid out CSR-style (grouped by code, original order kept within each
    code so match order equals build insertion order); :meth:`probe` then
    resolves a probe batch to build rows with ``np.repeat`` index arithmetic
    and two gathers — no per-row tuples.  Only residual (non-equi)
    conjuncts, if any, run per candidate.  The table is read-only after
    construction, so probes may run on worker threads; the caller applies
    the matched-build rows each probe returns to :attr:`matched`.
    """

    def __init__(self, spec: JoinSpec, build_block: ColumnBatch) -> None:
        self.spec = spec
        self.block = build_block
        self._keys = JoinKeyTable(
            [build_block.columns[i] for i in spec.build_key_idx],
            [spec.build_schema.columns[i].dtype for i in spec.build_key_idx],
            [spec.probe_schema.columns[i].dtype for i in spec.probe_key_idx],
        )
        codes = self._keys.build_codes
        self._counts = np.bincount(codes[codes >= 0], minlength=self._keys.group_count)
        self._starts = np.cumsum(self._counts) - self._counts
        # NULL_CODE rows sort first and belong to no code.
        order = np.argsort(codes, kind="stable")
        self._sorted_rows = order[len(order) - int(self._counts.sum()) :]
        #: Build rows some probe row matched (right/full joins only).
        self.matched = np.zeros(len(build_block), dtype=np.bool_) if spec.track_build else None

    def probe(self, batch: ColumnBatch) -> tuple[np.ndarray, np.ndarray, ColumnBatch | None]:
        """Join one probe batch: ``(build rows matched, the probe row of each
        output row, the joined batch or None when nothing is emitted)``."""
        spec = self.spec
        length = len(batch)
        pcodes = self._keys.probe([batch.columns[i] for i in spec.probe_key_idx])
        hits = np.flatnonzero(pcodes >= 0)
        probe_rep = build_rows = np.zeros(0, dtype=np.int64)
        if hits.size:
            codes_h = pcodes[hits]
            cnts = self._counts[codes_h]
            total = int(cnts.sum())
            probe_rep = np.repeat(hits, cnts)
            seg_start = np.repeat(self._starts[codes_h], cnts)
            cum = np.cumsum(cnts)
            offsets = np.arange(total, dtype=np.int64) - np.repeat(cum - cnts, cnts)
            build_rows = self._sorted_rows[seg_start + offsets]
        if spec.residual is not None and build_rows.size:
            ordered = spec.ordered(
                self.block.gather(build_rows).columns, batch.gather(probe_rep).columns
            )
            keep = np.fromiter(
                map(spec.residual, zip(*map(to_list, ordered))), np.bool_, count=build_rows.size
            )
            probe_rep = probe_rep[keep]
            build_rows = build_rows[keep]
        pads = (
            np.flatnonzero(np.bincount(probe_rep, minlength=length) == 0)
            if spec.pad_probe
            else np.zeros(0, dtype=np.int64)
        )
        out_len = int(probe_rep.size + pads.size)
        if not out_len:
            return build_rows, probe_rep, None
        if pads.size:
            # Unmatched probe rows slot in at their probe position,
            # gathering build row 0 under a pad flag that NULLs it.
            merge_keys = np.concatenate([probe_rep, pads])
            merge_order = np.argsort(merge_keys, kind="stable")
            seq_probe = merge_keys[merge_order]
            seq_build = np.concatenate([build_rows, np.zeros(pads.size, dtype=np.int64)])[
                merge_order
            ]
            is_pad = merge_order >= probe_rep.size
        else:
            seq_probe, seq_build, is_pad = probe_rep, build_rows, None
        columns = spec.ordered(
            self.block.gather(seq_build, is_pad).columns, batch.gather(seq_probe).columns
        )
        return build_rows, seq_probe, ColumnBatch(spec.joined_schema, columns, out_len)


def _numbered(batches: Iterable[ColumnBatch]) -> Iterator[tuple[np.ndarray, ColumnBatch]]:
    """Each non-empty batch of a stream with its rows' global ids."""
    total = 0
    for batch in batches:
        if len(batch):
            yield np.arange(total, total + len(batch), dtype=np.int64), batch
            total += len(batch)


class SpillFile:
    """One join's spill space: a temp file of chunk payloads, appended and
    read back by offset (one ``pwrite`` / ``pread`` per chunk, no seeks, no
    buffer in between).  Space is reclaimed when the join closes the file."""

    def __init__(self) -> None:
        self._file = tempfile.TemporaryFile(buffering=0)
        self._end = 0

    def append(self, payload: bytes) -> int:
        """Write ``payload`` at the end; returns the offset it starts at."""
        offset = self._end
        view = memoryview(payload)
        while view:
            written = os.pwrite(self._file.fileno(), view, self._end)
            self._end += written
            view = view[written:]
        return offset

    def read(self, offset: int, nbytes: int) -> bytes:
        data = os.pread(self._file.fileno(), nbytes, offset)
        while len(data) < nbytes:  # a single pread is capped near 2 GiB
            data += os.pread(self._file.fileno(), nbytes - len(data), offset + len(data))
        return data

    def close(self) -> None:
        self._file.close()


class SpillRun:
    """Append-only run of ``(ids, batch)`` chunks in a join's spill file.

    ``ids`` are global row ids, ascending across the run's lifetime (pieces
    are appended in stream order), which is what lets :func:`merge_by_id`
    restore in-memory output order.  Appended pieces wait in memory until
    they add up to ``chunk_rows`` rows and are then written as one chunk —
    never split, so the rows of one piece always share a chunk — as raw
    buffers; the chunk's place and layout (dtypes, null masks, dictionaries)
    stay in memory.
    """

    def __init__(self, spill: SpillFile, schema: Schema, chunk_rows: int = 1) -> None:
        self._spill = spill
        self._schema = schema
        self._chunk_rows = chunk_rows
        self._pending: list[tuple[np.ndarray, ColumnBatch]] = []
        self._pending_rows = 0
        self._chunks: list[tuple[int, int, int, list]] = []  # rows, offset, bytes, layouts
        self.rows = 0

    def __len__(self) -> int:
        return self.rows

    @property
    def bytes_estimate(self) -> int:
        return self.rows * _CELL_BYTES * max(1, len(self._schema))

    def append(self, ids: np.ndarray, batch: ColumnBatch) -> None:
        if not len(ids):
            return
        self._pending.append((ids, batch))
        self._pending_rows += len(ids)
        self.rows += len(ids)
        if self._pending_rows >= self._chunk_rows:
            self._flush()

    def _flush(self) -> None:
        """Write the pending pieces as one chunk."""
        if not self._pending:
            return
        ids = np.concatenate([ids for ids, _batch in self._pending])
        batch = ColumnBatch.concat(self._schema, [batch for _ids, batch in self._pending])
        self._pending = []
        self._pending_rows = 0
        buffers: list[Any] = [ids]
        layouts = []
        for column in batch.columns:
            if isinstance(column, NumericVector):
                buffers.append(column.values)
                if column.nulls is not None:
                    buffers.append(column.nulls)
                layouts.append((column.values.dtype, column.nulls is not None))
            elif isinstance(column, DictVector):
                buffers.append(column.codes)
                layouts.append(column.dictionary)
            else:
                # TIMESTAMP, integers beyond int64, computed columns:
                # arbitrary Python values have no buffer to write.
                buffers.append(pickle.dumps(to_list(column), protocol=pickle.HIGHEST_PROTOCOL))
                layouts.append(len(buffers[-1]))
        payload = b"".join(buffers)  # 1-D unit-stride arrays: contiguous buffers
        self._chunks.append((len(ids), self._spill.append(payload), len(payload), layouts))

    @property
    def chunk_count(self) -> int:
        """Chunks on disk once the pending one, if any, is written too."""
        self._flush()
        return len(self._chunks)

    def read_chunks(self) -> Iterator[tuple[np.ndarray, ColumnBatch]]:
        """The run's chunks in append order, one resident at a time (the
        vectors are read-only views of the one payload read back)."""
        self._flush()
        for rows, start, nbytes, layouts in self._chunks:
            payload = self._spill.read(start, nbytes)
            offset = 0

            def take(dtype: Any) -> np.ndarray:
                nonlocal offset
                out = np.frombuffer(payload, dtype, rows, offset)
                offset += out.nbytes
                return out

            ids = take(np.int64)
            columns: list[Any] = []
            for layout in layouts:
                if isinstance(layout, tuple):
                    dtype, has_nulls = layout
                    values = take(dtype)
                    columns.append(NumericVector(values, take(np.bool_) if has_nulls else None))
                elif isinstance(layout, np.ndarray):
                    columns.append(DictVector(take(np.int32), layout))
                else:
                    columns.append(pickle.loads(payload[offset : offset + layout]))
                    offset += layout
            yield ids, ColumnBatch(self._schema, columns, rows)


def merge_by_id(runs: list[SpillRun], schema: Schema) -> Iterator[ColumnBatch]:
    """Interleave id-disjoint ascending runs into one stream ascending by id.

    One chunk per run is resident.  Each step takes from every run the rows
    whose id does not exceed the smallest last id among the resident chunks
    that have a successor on disk (everything resident, once none has), so
    no later chunk can hold an id inside the window; the window's pieces are
    concatenated and put in id order by one stable argsort.  Rows sharing an
    id sit in one run, where the sort keeps their order.
    """
    runs = [run for run in runs if len(run)]
    streams = [run.read_chunks() for run in runs]
    on_disk = [run.chunk_count - 1 for run in runs]
    heads = [next(stream) for stream in streams]
    live = list(range(len(runs)))
    while live:
        bound = min((heads[k][0][-1] for k in live if on_disk[k]), default=None)
        ids_taken: list[np.ndarray] = []
        taken: list[ColumnBatch] = []
        for k in list(live):
            ids, batch = heads[k]
            cut = len(ids) if bound is None else int(np.searchsorted(ids, bound, side="right"))
            if cut < len(ids):
                heads[k] = ids[cut:], batch.slice(cut, len(ids))
                ids, batch = ids[:cut], batch.slice(0, cut)
            elif on_disk[k]:
                on_disk[k] -= 1
                heads[k] = next(streams[k])
            else:
                live.remove(k)
            if cut:
                ids_taken.append(ids)
                taken.append(batch)
        window = ColumnBatch.concat(schema, taken)
        if len(taken) > 1:
            window = window.gather(np.argsort(np.concatenate(ids_taken), kind="stable"))
        yield window


def partitioned_spill_join(
    spec: JoinSpec,
    build_batches: Iterable[ColumnBatch],
    probe_batches: Iterable[ColumnBatch],
    *,
    batch_rows: int,
    budget: int,
    engine: "RelationalEngine",
) -> Iterator[ColumnBatch]:
    """Run a hash join without ever materializing the full build side.

    See the module docstring for the algorithm.  Every run lives in the one
    spill file this generator opens and closes in its ``finally`` — so a
    cancellation raised at any batch boundary, even while the inputs are
    still being partitioned, leaks no temp file.
    """
    partitions = engine.join_spill_partitions
    router = PartitionRouter(partitions)
    token = current_token()
    tracer = get_tracer()
    spill = SpillFile()
    out_runs: list[SpillRun] = []
    unmatched_runs: list[SpillRun] = []
    # The build runs' write buffers are resident build rows: together they
    # stay inside the budget.  Probe rows are bounded per batch anyway.
    build_chunk_rows = budget // (_CELL_BYTES * max(1, len(spec.build_schema)) * partitions)
    build_chunk_rows = max(1, min(batch_rows, build_chunk_rows))

    def open_partitions() -> tuple[list[SpillRun], list[SpillRun]]:
        return (
            [SpillRun(spill, spec.build_schema, build_chunk_rows) for _ in range(partitions)],
            [SpillRun(spill, spec.probe_schema, batch_rows) for _ in range(partitions)],
        )

    def partition(
        chunks: Iterable[tuple[np.ndarray, ColumnBatch]],
        build_side: bool, targets: list[SpillRun], depth: int,
    ) -> None:
        # A NULL-keyed row matches nothing: it is kept (anywhere) only when
        # the join type still emits it NULL-padded.
        key_idx = spec.build_key_idx if build_side else spec.probe_key_idx
        keep_nulls = spec.track_build if build_side else spec.pad_probe
        for ids, batch in chunks:
            if token is not None:
                token.check()
            order, bounds = router.order(
                [batch.columns[i] for i in key_idx], ids, depth, keep_nulls
            )
            order = order[: bounds[-1]]
            ids, batch = ids[order], batch.gather(order)
            for run, start, stop in zip(targets, bounds, bounds[1:]):
                if stop > start:
                    run.append(ids[start:stop], batch.slice(start, stop))
        if build_side:
            engine.record_spill(sum(1 for run in targets if len(run)))

    def process(build_run: SpillRun, probe_run: SpillRun, depth: int) -> None:
        if (
            build_run.bytes_estimate > budget
            and depth < _MAX_RECURSE_DEPTH
            and len(build_run) > _MIN_RECURSE_ROWS
        ):
            with tracer.span(
                "join.spill_repartition", kind="operator",
                depth=depth, build_rows=len(build_run),
            ):
                sub_build, sub_probe = open_partitions()
                partition(build_run.read_chunks(), True, sub_build, depth + 1)
                partition(probe_run.read_chunks(), False, sub_probe, depth + 1)
                for build_sub, probe_sub in zip(sub_build, sub_probe):
                    process(build_sub, probe_sub, depth + 1)
        elif (len(build_run) or spec.pad_probe) and (len(probe_run) or spec.track_build):
            with tracer.span(
                "join.spill_leaf", kind="operator", depth=depth,
                build_rows=len(build_run), probe_rows=len(probe_run),
            ):
                join_leaf(build_run, probe_run)

    def join_leaf(build_run: SpillRun, probe_run: SpillRun) -> None:
        build_chunks = list(build_run.read_chunks())
        build_ids = np.concatenate([ids for ids, _batch in build_chunks] or [np.zeros(0, np.int64)])
        build_block = ColumnBatch.concat(spec.build_schema, [batch for _ids, batch in build_chunks])
        engine.record_build_bytes(approx_batch_bytes(build_block))
        table = HashJoinTable(spec, build_block)
        out_run = SpillRun(spill, spec.joined_schema)
        out_runs.append(out_run)
        for ids, batch in probe_run.read_chunks():
            if token is not None:
                token.check()
            build_rows, seq_probe, out = table.probe(batch)
            if table.matched is not None:
                table.matched[build_rows] = True
            if out is not None:
                out_run.append(ids[seq_probe], out)
        if table.matched is not None:
            unmatched = np.flatnonzero(~table.matched)
            unmatched_run = SpillRun(spill, spec.build_schema)
            unmatched_runs.append(unmatched_run)
            unmatched_run.append(build_ids[unmatched], build_block.gather(unmatched))

    try:
        build_runs, probe_runs = open_partitions()
        partition(_numbered(build_batches), True, build_runs, 0)
        partition(_numbered(probe_batches), False, probe_runs, 0)
        for build_run, probe_run in zip(build_runs, probe_runs):
            process(build_run, probe_run, 0)
        yield from merge_by_id(out_runs, spec.joined_schema)
        # Right/full joins always build on the right: the trailing unmatched
        # build rows are NULL-padded on the probe (left) side.
        for window in merge_by_id(unmatched_runs, spec.build_schema):
            probe_pad = ColumnBatch.nulls(spec.probe_schema, len(window)).columns
            yield ColumnBatch(spec.joined_schema, probe_pad + window.columns, len(window))
    finally:
        spill.close()
