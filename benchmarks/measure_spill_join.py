"""What a spilled hash join costs next to the same join in memory.

Loads polybench's ``relational_analytics`` tables (its generator, its seed)
into a bare engine and times that workload's two large joins

* unbudgeted (the in-memory hash join),
* under the workload's budget (build bytes / 4), one client,
* under the budget from two client threads at once, counting voluntary
  context switches and sys time per join with ``resource.getrusage`` — and
  the same two threads unbudgeted, for what the in-memory join's numpy calls
  alone hand the GIL back and forth.  (Both counts depend on whether the
  scheduler puts the two threads on one core; ``taskset -c 0`` pins that.)

Run it against any checkout's sources::

    PYTHONPATH=src python benchmarks/measure_spill_join.py [--seed 1] [--joins 20]

Prints one JSON object; nothing is asserted.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent / "polybench"))

from workloads import RelationalAnalytics  # noqa: E402

SHAPES = ("join_inner_large", "join_left_outer")


def queries(workload: RelationalAnalytics, count: int, client: int) -> list[str]:
    # The workload's literal range for the large joins: 10-40 % of fact probes.
    return [
        workload.sql_for(SHAPES[i % 2], f"{60.0 + 30.0 * ((i * 7 + client * 3) % 10) / 10:.3f}", 0)
        for i in range(count)
    ]


def timed(engine, sqls: list[str]) -> list[float]:
    out = []
    for sql in sqls:
        start = time.perf_counter()
        engine.execute(sql)
        out.append((time.perf_counter() - start) * 1e3)
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--joins", type=int, default=20)
    args = parser.parse_args()

    workload = RelationalAnalytics(args.seed)
    workload.generate()
    deployment = workload.deploy(clients=1)
    deployment.runtime.shutdown()
    engine = deployment.engines["relational"]
    engine.task_credits = None
    engine.parallelism = 1
    budget = engine.join_memory_budget
    sqls = queries(workload, args.joins, 0)

    engine.join_memory_budget = None
    timed(engine, sqls[:4])
    memory_ms = timed(engine, sqls)

    engine.join_memory_budget = budget
    timed(engine, sqls[:4])
    spilled_before = engine.partitions_spilled
    spill_ms = timed(engine, sqls)
    spilled = engine.partitions_spilled - spilled_before

    def two_clients() -> dict:
        """Both large joins from two client threads at once: median latency,
        voluntary context switches and sys time per join."""
        per_client: list[list[float]] = [[], []]

        def client(index: int) -> None:
            per_client[index] = timed(engine, queries(workload, args.joins, index))

        threads = [threading.Thread(target=client, args=(i,)) for i in range(2)]
        before = resource.getrusage(resource.RUSAGE_SELF)
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        after = resource.getrusage(resource.RUSAGE_SELF)
        joins = per_client[0] + per_client[1]
        return {
            "join_ms_median": round(statistics.median(joins), 3),
            "voluntary_switches_per_join": round(
                (after.ru_nvcsw - before.ru_nvcsw) / len(joins), 1),
            "sys_ms_per_join": round((after.ru_stime - before.ru_stime) * 1e3 / len(joins), 2),
        }

    spilling = two_clients()
    engine.join_memory_budget = None
    in_memory = two_clients()

    print(json.dumps({
        "seed": args.seed,
        "joins": args.joins,
        "budget_bytes": budget,
        "memory_join_ms_median": round(statistics.median(memory_ms), 3),
        "spilled_join_ms_median": round(statistics.median(spill_ms), 3),
        "spill_over_memory_ratio": round(
            statistics.median(spill_ms) / statistics.median(memory_ms), 2),
        "partitions_spilled_per_join": spilled / args.joins,
        "two_clients_spilling": spilling,
        "two_clients_in_memory": in_memory,
    }, indent=2))


if __name__ == "__main__":
    main()
