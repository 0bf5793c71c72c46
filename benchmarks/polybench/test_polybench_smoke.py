"""Smoke test for polybench at toy sizes (seconds, not minutes).

Holds the contract later issues rely on: every metric ``BENCHMARK.json``
declares is emitted (and nothing else), a wrong answer is counted as a
failure, exact-count metrics and op streams repeat for a seed, the numpy
analytics oracle agrees with SQLite, and traced self times are consistent.
"""

from __future__ import annotations

import itertools
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
for path in (os.path.join(ROOT, "src"), HERE):
    if path not in sys.path:
        sys.path.insert(0, path)

pytest.importorskip("repro")   # a checkout holding only the benchmark has nothing to smoke

import catalog  # noqa: E402
import harness  # noqa: E402
import oracle  # noqa: E402
import workloads  # noqa: E402

NAMES = list(workloads.WORKLOADS)

#: Counts the program makes that must repeat exactly for one seed.
EXACT = (
    "engines.relational.morsels_executed", "engines.relational.partitions_spilled",
    "engines.relational.peak_build_bytes", "engines.relational.row_fallback_ops",
    "engines.relational.groupby_stream_frac", "engines.relational.columns_pruned",
    "core.cast.bytes_per_row", "core.cast.chunks_per_cast", "core.cast.peak_chunk_bytes",
    "core.cast.executed_per_refresh", "common.serialization.columnar_frac",
    "runtime.resilience.retries", "runtime.resilience.breaker_refusals",
    "runtime.recovery.intents_replayed", "runtime.recovery.lost_acked_writes",
)


@pytest.fixture(scope="module")
def manifest() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def traced() -> dict:
    """One tiny traced run per workload (each fills layers it never enters
    from the other workloads' tiny replays)."""
    return {name: harness.per_layer_result(name, seed=3, tiny=True) for name in NAMES}


def test_manifest_matches_catalog(manifest):
    assert [w["name"] for w in manifest["workloads"]] == NAMES
    assert {w["name"]: w["why"] for w in manifest["workloads"]} == {
        name: cls.WHY for name, cls in workloads.WORKLOADS.items()}
    assert manifest["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in catalog.END_TO_END]
    assert manifest["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better} for m in catalog.PER_LAYER]
    assert manifest["paths"] == ["benchmarks/polybench"]


@pytest.mark.parametrize("name", NAMES)
def test_end_to_end_metrics_are_exactly_the_declared_ones(manifest, name):
    result = harness.end_to_end_result(name, seed=3, seconds=0.3, tiny=True)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in manifest["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert result["extras"]["retries"] == 0
    if name == "durable_mixed":
        assert result["extras"]["lost_acked_writes"] == 0
        assert result["extras"]["journal_bytes_per_write"] > 0


@pytest.mark.parametrize("name", NAMES)
def test_per_layer_metrics_are_exactly_the_declared_ones(manifest, traced, name):
    result = traced[name]
    assert result["correct"] and result["failed"] == 0
    declared = {m["name"]: m["unit"] for m in manifest["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(v["value"] is not None for v in result["metrics"].values())
    assert result["metrics"]["core.cast.executed_per_refresh"]["value"] == 1.0
    assert result["metrics"]["runtime.recovery.lost_acked_writes"]["value"] == 0


@pytest.mark.parametrize("name", NAMES)
def test_traced_self_times_are_consistent(traced, name):
    recorder = traced[name]["recorder"]
    selfs = recorder.self_times()
    assert all(value >= 0.0 for value in selfs.values())
    roots = {s.op: s for s in recorder.spans if s.name == "op"}
    assert len(roots) == traced[name]["attempted"]
    per_op: dict[int, float] = {}
    for span in recorder.spans:
        if span.op is not None:
            per_op[span.op] = per_op.get(span.op, 0.0) + selfs[span.id]
    for op, total in per_op.items():
        assert total <= roots[op].duration * (1 + 1e-6) + 1e-6
    shares = traced[name]["shares"]
    assert abs(sum(shares.values()) - 1.0) < 1e-9
    assert shares.get("unaccounted", 0.0) < 0.25


def test_traced_replay_enters_the_same_layers_on_every_seed():
    """The other workloads' traced runs borrow these values, so a seed whose
    first ops hold no D4M query (15 was one) must not leave a metric unmeasured."""
    islands = [f"core.islands.{island}.execute_ms" for island in ("array", "text", "d4m")]
    for seed in range(12, 20):
        session = harness.set_up("mimic_serving", seed, tiny=True, repeats=1)
        try:
            values = harness.trace(session, micro_iterations=0)["values"]
        finally:
            harness.tear_down(session)
        assert all(values[name] is not None for name in islands), seed


def test_exact_counts_and_op_streams_repeat_for_a_seed(traced):
    for name in ("relational_analytics", "cross_island_cast"):
        again = harness.per_layer_result(name, seed=3, tiny=True)
        for metric in EXACT:
            assert again["metrics"][metric] == traced[name]["metrics"][metric], metric
    for name, cls in workloads.WORKLOADS.items():
        streams = []
        for _ in range(2):
            workload = cls(11, workloads.TINY[name])
            workload.generate()
            streams.append([(op.kind, op.queries) for op in
                            itertools.islice(workload.ops(0, 2), 60)])
        assert streams[0] == streams[1]
        other = cls(12, workloads.TINY[name])
        other.generate()
        assert [(op.kind, op.queries) for op in
                itertools.islice(other.ops(0, 2), 60)] != streams[0]


def test_a_corrupted_expected_answer_is_a_failure():
    session = harness.set_up("mimic_serving", seed=3, tiny=True, repeats=1)
    try:
        assert harness.count_failures(harness.drive(session, max_ops=10), 0)[0] == 0
        session.workload.answers = [rows + [("bogus",)] for rows in session.workload.answers]
        records = harness.drive(session, max_ops=10)
        failed, notes = harness.count_failures(records, 0)
        assert failed == len(records) and "wrong answer" in notes[0]
    finally:
        harness.tear_down(session)
    # A refresh op that executed no CAST is a failure even with a right answer.
    session = harness.set_up("cross_island_cast", seed=3, tiny=True, repeats=1)
    try:
        records = harness.drive(session, max_ops=10)
        required = sum(r.casts for r in records)
        assert required and harness.count_failures(records, required)[0] == 0
        assert harness.count_failures(records, required - 1)[0] == 1
    finally:
        harness.tear_down(session)


def test_numpy_analytics_oracle_agrees_with_sqlite():
    workload = workloads.RelationalAnalytics(5, workloads.TINY["relational_analytics"])
    workload.generate()
    workload.build_oracle()
    sql = workload.sql_oracle()
    try:
        for op in itertools.islice(workload.ops(0, 2), 28):
            shape, x, arg = op.key
            assert oracle.rows_match(workload.expected(op)[0],
                                     sql.query(workload.sql_for(shape, x, arg))), shape
    finally:
        sql.close()


def test_compare_flags_a_regression(tmp_path, capsys):
    import run

    def results(throughput: float) -> str:
        path = tmp_path / f"r{throughput}.json"
        path.write_text(json.dumps({"runs": [
            {"workload": "mimic_serving", "trace": 0, "metrics": {
                "throughput_ops_s": {"value": throughput, "unit": "1/s"},
                "latency_p50_ms": {"value": 1.0, "unit": "ms"}}}]}))
        return str(path)

    assert run.compare(results(100.0), results(97.0)) == 0
    assert run.compare(results(100.0), results(60.0)) == 1
    out = capsys.readouterr().out
    assert "regressed" in out and "ok" in out
