"""CLAIM-12 — vectorized batch execution vs row-at-a-time SQL.

BigDAWG's premise is that each island runs its workload "as fast as the
hardware allows".  PR 3 rebuilt the relational engine's SELECT path around
columnar batches and one-time expression compilation; this benchmark
quantifies what that buys over the row-at-a-time reference executor (the
same plan run through ``tests/reference_executor.py``'s ``Executor``, which
the engine itself never reaches) on the engine's hot shapes:

1. **Filter + aggregate** — the bench_claim1/claim8 hot path: a predicate
   over 100k rows feeding global aggregates.  The vectorized path must be at
   least 4x faster.
2. **Group-by** — keyed aggregation over the same table, single-column and
   four-column (the key-encoded numpy group-by), each ≥5x.
3. **Hash joins** — fact-to-dimension equi-joins: the small-dimension shape
   with a residual filter, plus 100k×10k inner and left-outer joins on the
   key-encoded batched hash join, each ≥5x.
4. **Non-equi join** — a 2k×2k ``<`` join on the batched nested loop (the
   shape that used to fall back to the row executor), ≥5x.

Every comparison also asserts the two executors return *byte-identical* results
(same values, same order, same binary encoding), so the speedup never comes
at the price of drifted semantics.

Set ``RUNTIME_BENCH_SMOKE=1`` for the CI-sized run (10k rows, relaxed
speedup floors, same identity assertions).
"""

from __future__ import annotations

import os
import random
import sys
import time

import pytest

from repro.common.schema import Relation
from repro.common.serialization import BinaryCodec
from repro.engines.relational import RelationalEngine

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tests"))
from reference_executor import Executor  # noqa: E402

SMOKE = os.environ.get("RUNTIME_BENCH_SMOKE", "") not in ("", "0")

ROW_COUNT = 10_000 if SMOKE else 100_000
DIM_COUNT = 50
BIG_DIM_COUNT = 1_000 if SMOKE else 10_000
#: fact.fk spreads over a range wider than dim_big's keys, so the outer-join
#: scenario has both matched and (null-padded) unmatched probe rows.
FK_RANGE = BIG_DIM_COUNT + BIG_DIM_COUNT // 5
#: Rows per side of the non-equi join (the reference visits every pair in
#: Python, so this stays far below ROW_COUNT).
NON_EQUI_ROWS = 500 if SMOKE else 2_000
# Best-of-3 in both sizes: a single smoke measurement is too noisy on a
# loaded CI runner to hold even a loose speedup floor.
REPEATS = 3

#: Required vectorized-over-row speedups per workload.  The CI floor is
#: deliberately loose — shared runners are noisy — while the full run holds
#: the paper-style claims: the ISSUE-4 acceptance bar is ≥5x on the join
#: and group-by scenarios at 100k rows.
FLOORS = {
    "filter_aggregate": 1.5 if SMOKE else 4.0,
    "group_by": 1.5 if SMOKE else 5.0,
    "group_by_multi": 1.5 if SMOKE else 5.0,
    "join": 1.2 if SMOKE else 5.0,
    "join_inner_large": 1.2 if SMOKE else 5.0,
    "join_left_outer": 1.2 if SMOKE else 5.0,
    "join_non_equi": 1.5 if SMOKE else 5.0,
}

WORKLOADS = {
    "filter_aggregate": (
        "SELECT count(*) AS n, sum(value) AS s, avg(value) AS a, max(value) AS hi "
        "FROM fact WHERE value > 25.0 AND flag = 3"
    ),
    "group_by": (
        "SELECT grp, count(*) AS n, avg(value) AS a FROM fact GROUP BY grp ORDER BY grp"
    ),
    "group_by_multi": (
        "SELECT grp, flag, bucket, region, count(*) AS n, avg(value) AS a, "
        "max(value) AS hi FROM fact GROUP BY grp, flag, bucket, region"
    ),
    "join": (
        "SELECT d.label, count(*) AS n, sum(f.value) AS s FROM fact f "
        "JOIN dims d ON f.grp = d.grp WHERE f.value > 10.0 GROUP BY d.label ORDER BY d.label"
    ),
    "join_inner_large": (
        "SELECT count(*) AS n, sum(f.value) AS s, min(d.weight) AS lo FROM fact f "
        "JOIN dim_big d ON f.fk = d.fk"
    ),
    "join_left_outer": (
        "SELECT count(*) AS n, count(d.weight) AS matched, sum(f.value) AS s "
        "FROM fact f LEFT JOIN dim_big d ON f.fk = d.fk"
    ),
    "join_non_equi": (
        "SELECT count(*) AS n, sum(f.value) AS s, max(g.value) AS hi "
        f"FROM (SELECT id, value FROM fact WHERE id < {NON_EQUI_ROWS}) f "
        f"JOIN (SELECT id, value FROM fact WHERE id < {NON_EQUI_ROWS}) g "
        "ON f.value < g.value AND f.id <> g.id"
    ),
}


def build_engine() -> RelationalEngine:
    rng = random.Random(1234)
    engine = RelationalEngine("bench")
    engine.execute(
        "CREATE TABLE fact (id INTEGER PRIMARY KEY, grp INTEGER, value FLOAT, "
        "flag INTEGER, bucket INTEGER, region TEXT, fk INTEGER)"
    )
    engine.insert_rows(
        "fact",
        [
            (
                i,
                i % DIM_COUNT,
                rng.random() * 100.0,
                i % 7,
                i % 4,
                f"region_{i % 8}",
                rng.randrange(FK_RANGE),
            )
            for i in range(ROW_COUNT)
        ],
    )
    engine.execute("CREATE TABLE dims (grp INTEGER PRIMARY KEY, label TEXT)")
    engine.insert_rows("dims", [(g, f"segment_{g % 8}") for g in range(DIM_COUNT)])
    engine.execute("CREATE TABLE dim_big (fk INTEGER PRIMARY KEY, weight FLOAT)")
    engine.insert_rows(
        "dim_big", [(k, rng.random() * 10.0) for k in range(BIG_DIM_COUNT)]
    )
    return engine


@pytest.fixture(scope="module")
def engine():
    return build_engine()


def reference_execute(engine: RelationalEngine, query: str) -> Relation:
    """The row baseline: the engine's own plan on the reference executor."""
    return Executor(engine).execute(engine.plan(query))


def time_query(engine: RelationalEngine, query: str, run=None) -> tuple[float, object]:
    """Best-of-REPEATS wall time of ``engine.execute`` (or of ``run``, e.g.
    :func:`reference_execute`) plus the last result."""
    run = run or RelationalEngine.execute
    best = float("inf")
    result = None
    for _ in range(REPEATS):
        started = time.perf_counter()
        result = run(engine, query)
        best = min(best, time.perf_counter() - started)
    return best, result


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_vectorized_speedup(engine, workload):
    query = WORKLOADS[workload]
    vec_seconds, vec_result = time_query(engine, query)
    row_seconds, row_result = time_query(engine, query, reference_execute)

    codec = BinaryCodec()
    assert codec.encode(vec_result) == codec.encode(row_result), (
        f"{workload}: vectorized and reference results must be byte-identical"
    )
    assert engine.fallback_reasons == {}

    speedup = row_seconds / vec_seconds if vec_seconds > 0 else float("inf")
    print(
        f"\n[claim12:{workload}] rows={ROW_COUNT} vectorized={vec_seconds * 1000:.1f}ms "
        f"row={row_seconds * 1000:.1f}ms speedup={speedup:.1f}x (floor {FLOORS[workload]}x)"
    )
    from bench_recording import record_bench

    record_bench(
        "claim12", workload,
        rows=ROW_COUNT,
        vectorized_seconds=vec_seconds,
        row_seconds=row_seconds,
        speedup=speedup,
        floor=FLOORS[workload],
        smoke=SMOKE,
    )
    assert speedup >= FLOORS[workload], (
        f"{workload}: vectorized must be >= {FLOORS[workload]}x faster, got {speedup:.2f}x"
    )


def test_reference_identical_on_edge_shapes(engine):
    """Shapes off the hot path must agree with the reference too."""
    queries = [
        "SELECT count(*) AS n FROM fact WHERE value > 1000.0",  # empty result
        "SELECT f.id FROM fact f LEFT JOIN dims d ON f.grp = d.grp "
        "WHERE f.id < 50 ORDER BY f.id",  # batched outer hash join
        "SELECT f.id, d.fk FROM fact f RIGHT JOIN dim_big d ON f.fk = d.fk "
        "WHERE d.fk < 20 ORDER BY d.fk, f.id",  # trailing null-padded build rows
        "SELECT DISTINCT flag FROM fact ORDER BY flag",
        "SELECT id FROM fact WHERE id = 4242",  # index scan
        "SELECT d.grp, count(*) AS n FROM dims d CROSS JOIN "
        "(SELECT id FROM fact WHERE id < 40) f GROUP BY d.grp ORDER BY d.grp",
        "SELECT d.grp, f.id FROM dims d LEFT JOIN (SELECT id, grp FROM fact WHERE id < 60) f "
        "ON d.grp > f.grp + 40",  # nested-loop outer join
    ]
    for query in queries:
        vec = engine.execute(query)
        row = reference_execute(engine, query)
        assert [r.values for r in vec.rows] == [r.values for r in row.rows], query


def test_explain_has_one_dialect(engine):
    """No mode header and no per-operator path tags: there is one path."""
    plan = engine.explain(WORKLOADS["join_left_outer"])
    assert plan.startswith("Stats(")
    assert "ExecutionMode" not in plan and "[vectorized]" not in plan and "[row" not in plan
    assert any("HashJoin[left" in line for line in plan.splitlines())
    assert "Nested_LoopJoin[inner]" in engine.explain(WORKLOADS["join_non_equi"])


# --------------------------------------------------------------------- ISSUE 5
# Wide-table join (projection pushdown) and high-cardinality group-by
# (streaming two-pass) scenarios, reporting gathered-column counts and peak
# resident rows.

WIDE_PAYLOAD_COLUMNS = 32
WIDE_JOIN_QUERY = (
    "SELECT d.label, count(*) AS n, sum(w.p0) AS s FROM wtab w "
    "JOIN wdim d ON w.fk = d.fk GROUP BY d.label ORDER BY d.label"
)
HIGHCARD_GROUPS = ROW_COUNT // 20
HIGHCARD_QUERY = (
    "SELECT hk, count(*) AS n, sum(value) AS s, avg(value) AS a, "
    "max(value) AS hi FROM htab GROUP BY hk"
)
#: The same groups under four keys (INTEGER x3, TEXT): k1, k2, k3 are hk's
#: decimal digits and tag one of 97 strings, so the key tuple names hk.
HIGHCARD_MULTI_QUERY = (
    "SELECT k1, k2, k3, tag, count(*) AS n, sum(value) AS s, min(value) AS lo "
    "FROM htab GROUP BY k1, k2, k3, tag"
)

#: Wide-join floor: optimized vectorized vs the PR-4 vectorized baseline
#: (optimizer off, every column gathered).  The ISSUE-5 acceptance bar is
#: 1.5x at full size; smoke stays loose for noisy CI runners.
WIDE_JOIN_FLOOR = 1.1 if SMOKE else 1.5


def build_wide_engine(optimize: bool) -> RelationalEngine:
    rng = random.Random(99)
    engine = RelationalEngine("bench_wide")
    engine.optimizer_enabled = optimize
    payload = ", ".join(f"p{i} FLOAT" for i in range(WIDE_PAYLOAD_COLUMNS))
    engine.execute(
        f"CREATE TABLE wtab (id INTEGER PRIMARY KEY, fk INTEGER, {payload})"
    )
    engine.insert_rows(
        "wtab",
        [
            (i, rng.randrange(DIM_COUNT), *[float(i % (j + 7)) for j in range(WIDE_PAYLOAD_COLUMNS)])
            for i in range(ROW_COUNT)
        ],
    )
    engine.execute("CREATE TABLE wdim (fk INTEGER PRIMARY KEY, label TEXT)")
    engine.insert_rows("wdim", [(k, f"seg_{k % 6}") for k in range(DIM_COUNT)])
    return engine


def gathered_join_columns(engine: RelationalEngine, query: str) -> int:
    """Total columns the plan's hash joins pull from their inputs."""
    from repro.engines.relational.optimizer import plan_column_names
    from repro.engines.relational.planner import JoinNode

    total = 0

    def visit(node) -> None:
        nonlocal total
        if isinstance(node, JoinNode):
            for side in (node.left, node.right):
                names = plan_column_names(side, engine)
                total += len(names) if names is not None else 0
        for child in node.children():
            visit(child)

    visit(engine.plan(query))
    return total


def test_wide_join_prunes_columns_and_speeds_up():
    """ISSUE-5 acceptance: the wide join gathers only referenced columns and
    beats the PR-4 vectorized baseline by the floor."""
    optimized = build_wide_engine(optimize=True)
    baseline = build_wide_engine(optimize=False)
    pruned_cols = gathered_join_columns(optimized, WIDE_JOIN_QUERY)
    full_cols = gathered_join_columns(baseline, WIDE_JOIN_QUERY)
    opt_seconds, opt_result = time_query(optimized, WIDE_JOIN_QUERY)
    base_seconds, base_result = time_query(baseline, WIDE_JOIN_QUERY)

    codec = BinaryCodec()
    assert codec.encode(opt_result) == codec.encode(base_result), (
        "pruning must not change results"
    )
    speedup = base_seconds / opt_seconds if opt_seconds > 0 else float("inf")
    print(
        f"\n[claim12:join_wide] rows={ROW_COUNT} payload_cols={WIDE_PAYLOAD_COLUMNS} "
        f"gathered: {full_cols} -> {pruned_cols} columns | optimized={opt_seconds * 1000:.1f}ms "
        f"baseline={base_seconds * 1000:.1f}ms speedup={speedup:.2f}x (floor {WIDE_JOIN_FLOOR}x)"
    )
    from bench_recording import record_bench

    record_bench(
        "claim12", "join_wide",
        rows=ROW_COUNT,
        gathered_columns_baseline=full_cols,
        gathered_columns_optimized=pruned_cols,
        optimized_seconds=opt_seconds,
        baseline_seconds=base_seconds,
        speedup=speedup,
        smoke=SMOKE,
    )
    assert pruned_cols < full_cols, "join must gather fewer columns when optimized"
    assert pruned_cols <= 4, f"expected only key+payload columns, got {pruned_cols}"
    assert optimized.columns_pruned > 0
    assert speedup >= WIDE_JOIN_FLOOR, (
        f"wide join: pruning must be >= {WIDE_JOIN_FLOOR}x over the gather-all "
        f"baseline, got {speedup:.2f}x"
    )


def build_highcard_engine() -> RelationalEngine:
    rng = random.Random(7)
    engine = RelationalEngine("bench_hc")
    engine.execute(
        "CREATE TABLE htab (id INTEGER PRIMARY KEY, hk INTEGER, value FLOAT, "
        "k1 INTEGER, k2 INTEGER, k3 INTEGER, tag TEXT)"
    )
    rows = []
    for i in range(ROW_COUNT):
        hk, value = rng.randrange(HIGHCARD_GROUPS), rng.random() * 50.0
        rows.append((i, hk, value, hk % 10, hk // 10 % 10, hk // 100, f"tag_{hk % 97}"))
    engine.insert_rows("htab", rows)
    return engine


@pytest.mark.parametrize(
    "name, query",
    [("group_by_highcard", HIGHCARD_QUERY), ("group_by_highcard_multi", HIGHCARD_MULTI_QUERY)],
)
def test_streaming_groupby_bounds_peak_resident_rows(name, query):
    """ISSUE-5 acceptance + CI memory guard: the high-cardinality group-by,
    on one key and on four, keeps at most O(batch + groups) rows resident,
    far below the input size.  ``parallelism=1`` pins the reported path
    name on any host."""
    from repro.engines.relational.vectorized import DEFAULT_BATCH_ROWS

    engine = build_highcard_engine()
    engine.parallelism = 1
    stream_seconds, stream_result = time_query(engine, query)
    row_seconds, row_result = time_query(engine, query, reference_execute)

    codec = BinaryCodec()
    assert codec.encode(stream_result) == codec.encode(row_result)
    assert engine.groupby_paths == {"stream": REPEATS}
    peak = engine.peak_groupby_resident_rows
    bound = DEFAULT_BATCH_ROWS + HIGHCARD_GROUPS
    speedup = row_seconds / stream_seconds if stream_seconds > 0 else float("inf")
    print(
        f"\n[claim12:{name}] rows={ROW_COUNT} groups={HIGHCARD_GROUPS} "
        f"peak_resident_rows={peak} (bound {bound}) | "
        f"stream={stream_seconds * 1000:.1f}ms row={row_seconds * 1000:.1f}ms "
        f"speedup_vs_row={speedup:.1f}x"
    )
    from bench_recording import record_bench

    record_bench(
        "claim12", name,
        rows=ROW_COUNT,
        groups=HIGHCARD_GROUPS,
        stream_seconds=stream_seconds,
        row_seconds=row_seconds,
        peak_resident_rows=peak,
        speedup_vs_row=speedup,
        smoke=SMOKE,
    )
    assert peak <= bound, (
        f"streaming group-by peak resident rows {peak} exceeds O(batch+groups) "
        f"bound {bound}"
    )
    assert peak < ROW_COUNT
    floor = 1.5 if SMOKE else 4.0
    assert speedup >= floor, (
        f"high-cardinality streaming group-by must be >= {floor}x over the "
        f"reference executor, got {speedup:.2f}x"
    )


#: Rows of the all-distinct group-by: every row is its own group, far past
#: the key dictionary's sorted-table limit, so how the dictionary grows
#: over a long stream is what this times.
DISTINCT_GROUPS = 100_000 if SMOKE else 1_000_000
DISTINCT_QUERY = "SELECT k, count(*) AS n, sum(v) AS s FROM dtab GROUP BY k"


def build_distinct_engine(dtype: str) -> RelationalEngine:
    """One FLOAT key, or one INTEGER key spread far past a direct-address
    span, with DISTINCT_GROUPS distinct values in shuffled order."""
    keys = list(range(DISTINCT_GROUPS))
    random.Random(11).shuffle(keys)
    engine = RelationalEngine("bench_distinct")
    engine.execute(f"CREATE TABLE dtab (k {dtype}, v FLOAT)")
    engine.insert_rows(
        "dtab",
        [
            (k / 7.0 if dtype == "FLOAT" else k * 1_000_003, float(i % 13))
            for i, k in enumerate(keys)
        ],
    )
    return engine


@pytest.mark.parametrize("dtype", ["FLOAT", "INTEGER"])
def test_streaming_groupby_all_distinct_keys(dtype):
    """A million-key group-by streams: byte-identical to the reference,
    O(batch + groups) peak resident rows, and at the same floor over the
    row executor as the high-cardinality case, so the key dictionary's
    cost stays O(rows) rather than a table copy per batch."""
    from repro.engines.relational.vectorized import DEFAULT_BATCH_ROWS

    engine = build_distinct_engine(dtype)
    engine.parallelism = 1
    stream_seconds, stream_result = time_query(engine, DISTINCT_QUERY)
    # One reference run: it is an order of magnitude slower than the noise.
    started = time.perf_counter()
    row_result = reference_execute(engine, DISTINCT_QUERY)
    row_seconds = time.perf_counter() - started

    codec = BinaryCodec()
    assert codec.encode(stream_result) == codec.encode(row_result)
    assert engine.groupby_paths == {"stream": REPEATS}
    peak = engine.peak_groupby_resident_rows
    speedup = row_seconds / stream_seconds if stream_seconds > 0 else float("inf")
    name = f"group_by_distinct_{dtype.lower()}"
    print(
        f"\n[claim12:{name}] rows=groups={DISTINCT_GROUPS} peak_resident_rows={peak} | "
        f"stream={stream_seconds * 1000:.1f}ms "
        f"({stream_seconds / DISTINCT_GROUPS * 1e6:.2f}us/row) "
        f"row={row_seconds * 1000:.1f}ms speedup_vs_row={speedup:.1f}x"
    )
    from bench_recording import record_bench

    record_bench(
        "claim12", name,
        rows=DISTINCT_GROUPS,
        groups=DISTINCT_GROUPS,
        stream_seconds=stream_seconds,
        row_seconds=row_seconds,
        peak_resident_rows=peak,
        speedup_vs_row=speedup,
        smoke=SMOKE,
    )
    assert peak <= DEFAULT_BATCH_ROWS + DISTINCT_GROUPS
    floor = 1.5 if SMOKE else 4.0
    assert speedup >= floor, (
        f"all-distinct streaming group-by must be >= {floor}x over the "
        f"reference executor, got {speedup:.2f}x"
    )


# --------------------------------------------------------------------- ISSUE 6
# Morsel-driven parallelism: a core-count sweep over the parallel join and
# group-by pipelines, plus a larger-than-budget build that must complete via
# partition spill.  Byte-identity across worker counts and spill paths is
# asserted unconditionally; the >=2x speedup floor at 4 workers only applies
# on machines that actually have >=4 cores and in the full-size run —
# a 1-core CI container cannot observe thread-level speedup.

WORKER_SWEEP = (1, 2, 4)
PARALLEL_SPEEDUP_FLOOR = 2.0
PARALLEL_WORKLOADS = {
    "parallel_join": WORKLOADS["join_inner_large"],
    "parallel_group_by": HIGHCARD_QUERY,
}


def build_parallel_engine(workload: str, workers: int,
                          budget: int | None = None) -> RelationalEngine:
    if workload == "parallel_group_by":
        engine = build_highcard_engine()
    else:
        engine = build_engine()
    engine.parallelism = workers
    engine.join_memory_budget = budget
    return engine


@pytest.mark.parametrize("workload", sorted(PARALLEL_WORKLOADS))
def test_parallel_worker_sweep(workload):
    """ISSUE-6 acceptance: worker count changes latency, never a byte."""
    query = PARALLEL_WORKLOADS[workload]
    codec = BinaryCodec()
    timings: dict[int, float] = {}
    encoded: bytes | None = None
    for workers in WORKER_SWEEP:
        engine = build_parallel_engine(workload, workers)
        seconds, result = time_query(engine, query)
        timings[workers] = seconds
        payload = codec.encode(result)
        if encoded is None:
            encoded = payload
        else:
            assert payload == encoded, (
                f"{workload}: results must be byte-identical at {workers} workers"
            )
    sweep = " ".join(f"w{w}={timings[w] * 1000:.1f}ms" for w in WORKER_SWEEP)
    speedup = timings[1] / timings[4] if timings[4] > 0 else float("inf")
    print(
        f"\n[claim12:{workload}] rows={ROW_COUNT} cores={os.cpu_count()} "
        f"{sweep} speedup_4w={speedup:.2f}x"
    )
    from bench_recording import record_bench

    record_bench(
        "claim12", workload,
        rows=ROW_COUNT,
        cores=os.cpu_count(),
        seconds_by_workers={str(w): timings[w] for w in WORKER_SWEEP},
        speedup_4_workers=speedup,
        smoke=SMOKE,
    )
    if not SMOKE and (os.cpu_count() or 1) >= 4:
        assert speedup >= PARALLEL_SPEEDUP_FLOOR, (
            f"{workload}: 4 workers must be >= {PARALLEL_SPEEDUP_FLOOR}x over "
            f"serial on a >=4-core machine, got {speedup:.2f}x"
        )


#: A join that spills at polybench's budget shape (a quarter of the build
#: side) may cost this many times the same join in memory, no more: the
#: spill path is the in-memory kernel run per partition, not a second
#: algorithm behind a cliff (it cost ~9x before the runs went columnar).
SPILL_OVER_MEMORY_CEILING = 5.0


def test_join_spill_budget_completes_and_matches():
    """ISSUE-6 acceptance + CI spill guard: a join whose build side exceeds
    the memory budget completes via radix-partition spill with results
    byte-identical to the unbudgeted in-memory join — under a budget far
    below the build side (deep recursion) and under a quarter of it (the
    shape polybench runs), where its cost relative to the in-memory join is
    bounded too."""
    query = WORKLOADS["join_inner_large"]
    codec = BinaryCodec()
    unbudgeted = build_parallel_engine("parallel_join", 1, budget=None)
    memory_seconds, expected = time_query(unbudgeted, query)
    assert unbudgeted.partitions_spilled == 0
    quarter = unbudgeted.peak_build_bytes // 4

    # dim_big (the build side) holds BIG_DIM_COUNT rows; a budget of a few
    # hundred bytes is orders of magnitude below it at any size.
    measured = {}
    for budget in (512, quarter):
        budgeted = build_parallel_engine("parallel_join", 1, budget=budget)
        seconds, result = time_query(budgeted, query)
        assert codec.encode(result) == codec.encode(expected), (
            f"spilled join drifted from the in-memory join at a {budget}-byte budget"
        )
        assert budgeted.partitions_spilled > 0, (
            f"the spill path never engaged under a {budget}-byte build budget"
        )
        assert "[spill]" in budgeted.explain(query)
        measured[budget] = (seconds, budgeted)
        print(
            f"\n[claim12:join_spill] rows={ROW_COUNT} build_rows={BIG_DIM_COUNT} "
            f"budget={budget}B spilled_partitions={budgeted.partitions_spilled} "
            f"peak_build_bytes={budgeted.peak_build_bytes} "
            f"spill={seconds * 1000:.1f}ms memory={memory_seconds * 1000:.1f}ms"
        )
    seconds, budgeted = measured[512]
    ratio = measured[quarter][0] / memory_seconds
    from bench_recording import record_bench

    record_bench(
        "claim12", "join_spill",
        rows=ROW_COUNT,
        build_rows=BIG_DIM_COUNT,
        budget_bytes=512,
        spilled_partitions=budgeted.partitions_spilled,
        peak_build_bytes=budgeted.peak_build_bytes,
        spill_seconds=seconds,
        quarter_budget_bytes=quarter,
        quarter_spill_seconds=measured[quarter][0],
        memory_seconds=memory_seconds,
        spill_over_memory_ratio=ratio,
        smoke=SMOKE,
    )
    assert ratio <= SPILL_OVER_MEMORY_CEILING, (
        f"a join spilling at build bytes / 4 cost {ratio:.1f}x the in-memory join "
        f"(ceiling {SPILL_OVER_MEMORY_CEILING}x)"
    )


# --------------------------------------------------------------------- ISSUE 7
# Tracing overhead guard: the observability layer must stay cheap enough to
# leave on.  The same mixed workload runs with the global tracer disabled and
# enabled; enabled must stay within TRACING_OVERHEAD_CEILING of disabled.

TRACING_OVERHEAD_CEILING = 1.3


def test_tracing_overhead_bounded(engine):
    """ISSUE-7 acceptance + CI guard: tracing every operator, morsel and
    span stays within the overhead ceiling of the untraced run."""
    from repro.observability.tracing import Tracer, get_tracer, set_tracer

    queries = [
        WORKLOADS["filter_aggregate"],
        WORKLOADS["group_by"],
        WORKLOADS["join"],
    ]

    def run_all() -> float:
        best = float("inf")
        for _ in range(REPEATS):
            started = time.perf_counter()
            for query in queries:
                engine.execute(query)
            best = min(best, time.perf_counter() - started)
        return best

    previous = get_tracer()
    baseline_seconds = run_all()
    tracer = Tracer(enabled=True)
    set_tracer(tracer)
    try:
        traced_seconds = run_all()
    finally:
        set_tracer(previous)
    assert len(tracer) > 0, "the traced run collected no spans"
    overhead = traced_seconds / baseline_seconds if baseline_seconds > 0 else 1.0
    print(
        f"\n[claim12:tracing_overhead] rows={ROW_COUNT} "
        f"disabled={baseline_seconds * 1000:.1f}ms traced={traced_seconds * 1000:.1f}ms "
        f"overhead={overhead:.2f}x (ceiling {TRACING_OVERHEAD_CEILING}x)"
    )
    from bench_recording import record_bench

    record_bench(
        "claim12", "tracing_overhead",
        rows=ROW_COUNT,
        disabled_seconds=baseline_seconds,
        traced_seconds=traced_seconds,
        overhead=overhead,
        spans=len(tracer),
        smoke=SMOKE,
    )
    assert overhead <= TRACING_OVERHEAD_CEILING, (
        f"tracing overhead {overhead:.2f}x exceeds the "
        f"{TRACING_OVERHEAD_CEILING}x ceiling"
    )
