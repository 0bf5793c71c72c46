"""polybench — the repo's benchmark: four closed-loop polystore workloads.

The driver's form (one workload, one pass, one JSON object on the last line)::

    python3 benchmarks/polybench/run.py --workload mimic_serving --seed 1 --seconds 15 --trace 0

Everything else is for people::

    run.py --seed 1 [--workload W] [--with-trace] [--out FILE]   # suite + report
    run.py --compare A.json B.json                               # regression table
    run.py --calibrate N [--seed S] [--out FILE]                 # spreads -> bounds
    run.py --glossary                                            # README metric tables

Each workload runs in a fresh child process with ``PYTHONHASHSEED=0``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import catalog  # noqa: E402

CHILD_TIMEOUT_S = 170
RESULT_KEYS = ("correct", "attempted", "failed", "metrics")
MANIFEST = os.path.join(ROOT, "BENCHMARK.json")


def _manifest() -> dict:
    with open(MANIFEST, encoding="utf-8") as handle:
        return json.load(handle)


# ===================================================================== child
def run_stamp(seed: int, seconds: float) -> dict:
    """Where and how this run was measured; ``noisy`` marks a loaded host."""
    import numpy

    import harness
    import workloads

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    sha = "unknown"
    if os.path.exists(os.path.join(ROOT, ".git")):   # a bare checkout has no history
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10).stdout.strip() or sha
        except (OSError, subprocess.SubprocessError):
            pass
    nproc = os.cpu_count() or 1
    load = os.getloadavg()[0]
    clients = harness.client_count()
    return {
        "nproc": nproc, "cpu": cpu, "python": platform.python_version(),
        "numpy": numpy.__version__, "git_sha": sha, "seed": seed, "seconds": seconds,
        "clients": clients, "workers": clients, "parallelism": clients,
        "cache_capacity": workloads.CACHE_CAPACITY,
        "journal_flush_policy": workloads.DurableMixed.FLUSH_POLICY,
        "load_average_1m": load, "noisy": load > nproc / 2,
    }


def child(args: argparse.Namespace) -> int:
    """One workload, one pass, in this process; the result is the last stdout line."""
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"polybench: no program to measure under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import harness

    stamp = run_stamp(args.seed, args.seconds)
    if stamp["noisy"]:
        print(f"polybench: WARNING 1-minute load {stamp['load_average_1m']:.2f} exceeds "
              f"nproc/2 on {stamp['nproc']} cores; this run is marked noisy", file=sys.stderr)
    if args.trace:
        result = harness.per_layer_result(args.workload, args.seed, tiny=args.tiny)
        recorder = result.pop("recorder")
        os.makedirs(harness.RESULTS_DIR, exist_ok=True)
        with open(os.path.join(harness.RESULTS_DIR, f"trace_{args.workload}.json"), "w",
                  encoding="utf-8") as handle:
            json.dump({"workload": args.workload, "stamp": stamp,
                       "spans": recorder.as_json()}, handle)
        result.pop("values")
    else:
        result = harness.end_to_end_result(args.workload, args.seed, args.seconds,
                                           tiny=args.tiny)
    result.update(workload=args.workload, trace=int(args.trace), stamp=stamp)
    print_run(result)
    if args.detail:
        with open(args.detail, "w", encoding="utf-8") as handle:
            json.dump(result, handle)
    print(json.dumps({key: result[key] for key in RESULT_KEYS}))
    return 0


def print_run(result: dict) -> None:
    print(f"== {result['workload']} (seed {result['stamp']['seed']}, "
          f"trace {result['trace']}): {result['attempted']} ops, {result['failed']} failed, "
          f"correct={result['correct']}")
    for name, metric in result["metrics"].items():
        source = result.get("sources", {}).get(name)
        print(f"  {name:45s} {_fmt(metric['value']):>14s} {metric['unit']}"
              + (f"   [{source}]" if source else ""))
    for name, value in result.get("extras", {}).items():
        print(f"  ({name}: {_fmt(value) if isinstance(value, (int, float)) else value})")
    for note in result.get("failure_notes", []):
        print(f"  !! {note}")
    if "shares" in result:
        print_shares(result["workload"], result["shares"], result.get("shares_by_kind", {}))


def print_shares(workload: str, shares: dict, by_kind: dict) -> None:
    print(f"  layer share of op time, {workload}:")
    for layer, share in sorted(shares.items(), key=lambda kv: -kv[1]):
        print(f"    {layer:24s} {share:7.1%}")
    for kind, kind_shares in by_kind.items():
        top = sorted(kind_shares.items(), key=lambda kv: -kv[1])[:4]
        print(f"    [{kind}] " + ", ".join(f"{layer} {share:.0%}" for layer, share in top))


def _fmt(value: float) -> str:
    if isinstance(value, int):
        return str(value)
    return f"{value:.6g}"


# ==================================================================== parent
def spawn(workload: str, seed: int, seconds: int, trace: int, tiny: bool = False,
          quiet: bool = False) -> "dict | None":
    """Run one child to completion, echoing its report unless ``quiet``.

    Returns the child's full result (metrics, extras, stamp, shares) or None
    when it failed or overran."""
    os.makedirs(os.path.join(HERE, "results"), exist_ok=True)
    detail = os.path.join(HERE, "results", f"detail-{os.getpid()}.json")
    command = [sys.executable, os.path.abspath(__file__), "--child", "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
               "--detail", detail]
    if tiny:
        command.append("--tiny")
    env = dict(os.environ, PYTHONHASHSEED="0")
    process = subprocess.Popen(command, env=env, stdout=subprocess.PIPE, text=True)
    try:
        output, _ = process.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        process.kill()
        process.communicate()
        print(f"polybench: {workload} exceeded {CHILD_TIMEOUT_S}s and was stopped",
              file=sys.stderr)
        return None
    if not quiet:
        print(output.rstrip("\n").rsplit("\n", 1)[0])
    if process.returncode != 0:
        return None
    with open(detail, encoding="utf-8") as handle:
        result = json.load(handle)
    os.remove(detail)
    return result


def driver_mode(args: argparse.Namespace) -> int:
    result = spawn(args.workload, args.seed, args.seconds, args.trace, args.tiny)
    if result is None:
        return 1
    print(json.dumps({key: result[key] for key in RESULT_KEYS}))
    return 0


def _workload_names(args: argparse.Namespace, manifest: dict) -> list[str]:
    return [args.workload] if args.workload else [w["name"] for w in manifest["workloads"]]


def _write_runs(path: "str | None", runs: list[dict]) -> None:
    if path:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"runs": runs}, handle, indent=1)


def suite(args: argparse.Namespace) -> int:
    """Every workload (or one), end to end and optionally traced; writes one file."""
    manifest = _manifest()
    seconds = args.seconds or manifest["run_seconds"]
    runs = []
    for name in _workload_names(args, manifest):
        for trace in ([0, 1] if args.with_trace else [0]):
            run = spawn(name, args.seed, seconds, trace, args.tiny)
            if run is None:
                return 1
            runs.append(run)
    _write_runs(args.out, runs)
    return 0 if all(run["correct"] for run in runs) else 1


def _summaries(runs: list[dict]) -> dict[tuple[str, str], dict]:
    """(workload, end-to-end metric) -> median, quartiles and inter-quartile spread."""
    samples: dict[tuple[str, str], list[float]] = {}
    for run in runs:
        if not run["trace"]:
            for name, metric in run["metrics"].items():
                samples.setdefault((run["workload"], name), []).append(metric["value"])
    out = {}
    for key, values in sorted(samples.items()):
        mid = statistics.median(values)
        q1, q3 = mid, mid
        if len(values) > 1:
            q1, _q2, q3 = statistics.quantiles(values, n=4)
        out[key] = {"median": mid, "q1": q1, "q3": q3, "spread": (q3 - q1) / mid}
    return out


def _load_runs(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)["runs"]


def compare(path_a: str, path_b: str) -> int:
    """One row per (workload, end-to-end metric): ok / regressed / unresolved."""
    declared = {m["name"]: m for m in _manifest()["end_to_end"]}
    before, after = _summaries(_load_runs(path_a)), _summaries(_load_runs(path_b))
    regressed = False
    print(f"{'workload':22s} {'metric':18s} {'A':>12s} {'B':>12s} {'diff':>8s} {'bound':>6s}  verdict")
    for key, a in before.items():
        if key not in after or key[1] not in declared:
            continue
        metric, b = declared[key[1]], after[key]
        change = (b["median"] - a["median"]) / a["median"]
        worse = change if metric["better"] == "lower" else -change
        if max(a["spread"], b["spread"]) > metric["bound"]:
            verdict = "unresolved"
        elif worse > metric["bound"]:
            verdict, regressed = "regressed", True
        else:
            verdict = "ok"
        print(f"{key[0]:22s} {key[1]:18s} {a['median']:12.5g} {b['median']:12.5g} "
              f"{change:+8.1%} {metric['bound']:6.0%}  {verdict}")
    return 1 if regressed else 0


def calibrate(args: argparse.Namespace) -> int:
    """Run the suite N times on consecutive seeds; report spreads and propose bounds."""
    manifest = _manifest()
    seconds = args.seconds or manifest["run_seconds"]
    runs = []
    for round_index in range(args.calibrate):
        for name in _workload_names(args, manifest):
            started = time.perf_counter()
            run = spawn(name, args.seed + round_index, seconds, 0, quiet=True)
            if run is None:
                return 1
            runs.append(run)
            print(f"round {round_index + 1}/{args.calibrate} {name}: "
                  f"{time.perf_counter() - started:.1f}s", file=sys.stderr)
    _write_runs(args.out, runs)
    # The starting bounds of the issue are floors; noise can only raise them.
    floors = {"setup_s": 0.20, "latency_p90_ms": 0.15}
    print(f"{'workload':22s} {'metric':18s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
          f"{'spread':>8s} {'proposed':>9s}")
    for (workload, name), s in _summaries(runs).items():
        proposed = min(0.25, max(floors.get(name, 0.10), 1.5 * s["spread"]))
        print(f"{workload:22s} {name:18s} {s['median']:12.5g} {s['q1']:12.5g} {s['q3']:12.5g} "
              f"{s['spread']:8.1%} {proposed:9.0%}")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--with-trace", action="store_true",
                        help="suite mode: also run the traced pass of each workload")
    parser.add_argument("--out", help="suite/calibrate: write every run to this JSON file")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument("--calibrate", type=int, metavar="N")
    parser.add_argument("--glossary", action="store_true")
    parser.add_argument("--tiny", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--detail", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.glossary:
        print(catalog.glossary_markdown())
        return 0
    if args.compare:
        return compare(*args.compare)
    if args.child:
        return child(args)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"polybench: no program to measure under {SRC}", file=sys.stderr)
        return 2
    if args.calibrate:
        return calibrate(args)
    if args.trace is not None and args.workload and args.seconds:
        return driver_mode(args)
    return suite(args)


if __name__ == "__main__":
    sys.exit(main())
