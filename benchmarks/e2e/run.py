"""Socket-to-NDJSON benchmark: one command, every metric by name.

    python3 benchmarks/e2e/run.py --seed 1                  # all workloads -> one JSON
    python3 benchmarks/e2e/run.py --workload wide_rows --seed 1 --seconds 10 --trace 0
    python3 benchmarks/e2e/run.py --compare A.json B.json
    python3 benchmarks/e2e/run.py --smoke

A run builds the pinned corpus, saves it once, starts the real daemon as
a subprocess, drives it over sockets from this one process, checks every
answer and reports the statistics of its least disturbed windows.
``--trace 1`` drives the daemon once more and then replays the same
requests stage by stage in this process for the per-layer split
(layers.py).  README.md here is the glossary.
"""

from __future__ import annotations

import argparse
import atexit
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

REPS = 3
SMOKE_OPS = 200


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def measure(session, workload, seed: int, seconds: float, smoke=False) -> dict:
    """``REPS`` repetitions of the seed's request sequence, ``seconds``
    in all, cut into windows of about a second; returns the end-to-end
    metrics of the quietest third of the windows.

    A repetition starts from a fresh daemon over the saved store (unless
    the workload says its set-up is too dear), so each sees the same
    state and set-up is sampled as often.
    """
    import stats
    from drive import drive, fill_failures, prepare, setup_seconds, windows

    reps = 1 if smoke else REPS
    rep_seconds = seconds / reps
    window_s = rep_seconds / max(round(rep_seconds), 1)
    plan = session.plan(workload, seed, rep_seconds)
    ops = plan.ops[:SMOKE_OPS] if smoke else plan.ops
    setups: list[float] = []
    kernels: list[float] = []
    peaks: list[float] = []
    cut = []
    daemon = None
    try:
        for _ in range(reps):
            if daemon is None:
                began = time.perf_counter()
                daemon = session.daemon(workload)
                prepare(daemon, plan)
                setup_s, kernel_s = setup_seconds(session, daemon, began)
                setups.append(setup_s)
                kernels.append(kernel_s)
            logs, marks = drive(daemon, ops, workload.clients, rep_seconds, window_s)
            cut.extend(windows(logs, marks, window_s))
            peaks.append(daemon.rss_mb())
            if workload.fresh_daemon:
                daemon.stop()
                daemon = None
        if daemon is not None:
            daemon.stop()
            daemon = None
    finally:
        if daemon is not None:
            daemon.kill()
    attempted = failed = 0
    for window in cut:
        window.reads, bad_reads = fill_failures(window.reads)
        window.appends, bad_appends = fill_failures(window.appends)
        attempted += window.ops
        failed += bad_reads + bad_appends
    # The host only ever takes time away, and in episodes: on the boxes this
    # ran on, both vCPUs slow by 10-50 % for seconds at a time, in some hours
    # several times a minute.  Every repetition replays the same sequence, so
    # what the program does shows in all windows alike; the fastest third are
    # the least disturbed, and the wire metrics are theirs, pooled.  Twelve
    # runs in a disturbed hour spread by 12 % with the median over windows
    # and by 3-4 % this way; in a calm hour the two spread alike.
    cut.sort(key=lambda w: w.ops / w.seconds, reverse=True)
    quiet = cut[: max(len(cut) // 3, 1)]
    done = sum(w.ops for w in quiet)
    per_record = session.store_info["store_bytes"] / session.corpus.n_records
    # name: (unit, samples, value if not the samples' median)
    reported = {
        "setup_s": ("s", setups, None),
        "wire_p50_ms": (
            "ms", [stats.percentile(w.reads, 50) / 1e6 for w in cut],
            stats.percentile([ns for w in quiet for ns in w.reads], 50) / 1e6),
        "wire_qps": (
            "1/s", [w.ops / w.seconds for w in cut],
            done / sum(w.seconds for w in quiet)),
        "daemon_cpu_ms_per_req": (
            "ms", [w.cpu_ms / w.ops for w in cut],
            sum(w.cpu_ms for w in quiet) / done),
        "daemon_rss_mb": ("MiB", peaks, None),
        "store_bytes_per_record": ("B", [per_record], None),
    }
    metrics = {}
    for name, (unit, samples, value) in reported.items():
        metrics[name] = {"unit": unit, **stats.summarize(samples)}
        if value is not None:
            metrics[name]["value"] = value
    return {
        "metrics": metrics,
        "setup_kernel_s": stats.median(kernels),
        "attempted": attempted,
        "failed": failed,
        "correct": failed == 0,
    }


# -- reporting ----------------------------------------------------------------


def environment(seed: int, seconds: float, cpu, smoke: bool) -> dict:
    import numpy

    from data import N_RECORDS

    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        sha = "unknown"
    return {
        "seed": seed, "seconds": seconds, "repetitions": 1 if smoke else REPS,
        "smoke": smoke, "records": N_RECORDS, "nproc": os.cpu_count(),
        "pinned_cpu": cpu, "python": platform.python_version(),
        "numpy": numpy.__version__, "git_sha": sha, "platform": platform.platform(),
    }


def print_metrics(title: str, metrics: dict) -> None:
    print(f"-- {title}", file=sys.stderr)
    for name, m in metrics.items():
        extra = ""
        if m.get("n", 1) > 1:
            extra = f"   all {m['n']} samples: q1 {m['q1']:.6g}  q3 {m['q3']:.6g}"
        print(f"   {name:<42} {m['value']:>14.6g} {m['unit']:<6}{extra}", file=sys.stderr)


def compare(path_a: str, path_b: str) -> int:
    import stats

    a, b = (json.loads(Path(p).read_text()) for p in (path_a, path_b))
    if a["env"]["smoke"] or b["env"]["smoke"]:
        print("smoke runs are never comparable", file=sys.stderr)
        return 2
    declared = {m["name"]: m for m in spec()["end_to_end"]}
    worse = 0
    print(f"{'workload':<16}{'metric':<24}{'A':>11}{'[q1':>11}{'q3]':>11}"
          f"{'B':>11}{'[q1':>11}{'q3]':>11}{'bound':>7}  verdict")
    for workload, result in a["workloads"].items():
        other = b["workloads"].get(workload)
        if other is None:
            continue
        for name, left in result.get("end_to_end", {}).items():
            right = other["end_to_end"][name]
            rule = declared[name]
            word = stats.verdict(left, right, rule["better"], rule["bound"])
            worse += word == "worse"
            print(f"{workload:<16}{name:<24}{left['value']:>11.5g}{left['q1']:>11.5g}"
                  f"{left['q3']:>11.5g}{right['value']:>11.5g}{right['q1']:>11.5g}"
                  f"{right['q3']:>11.5g}{rule['bound']:>7.2f}  {word}")
        for name, left in result.get("per_layer", {}).items():
            right = other.get("per_layer", {}).get(name)
            exact = name.startswith("columnstore.") and name.endswith("_per_query")
            if exact and right is not None and left["value"] != right["value"]:
                worse += 1
                print(f"{workload:<16}{name:<24} counts differ: "
                      f"{left['value']} vs {right['value']}")
    return 1 if worse else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one workload (the driver's mode); default all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per workload (default BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0 end-to-end metrics, 1 per-layer metrics; default both")
    parser.add_argument("--smoke", action="store_true",
                        help=f"1 repetition x {SMOKE_OPS} operations; never comparable")
    parser.add_argument("--out", help="results JSON (all-workloads mode)")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args()
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"run.py: no program to measure: {SRC / 'repro'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.compare:
        return compare(*args.compare)
    # Registered before anything imports multiprocessing, so it runs after
    # multiprocessing's own exit handlers, which still want their temp dir.
    work = WORK / f"run-{os.getpid()}"
    atexit.register(shutil.rmtree, work, ignore_errors=True)
    from data import WORKLOADS
    from drive import Session, pin_to_one_cpu

    declared = spec()
    seconds = args.seconds if args.seconds is not None else float(declared["run_seconds"])
    names = [args.workload] if args.workload else [w["name"] for w in declared["workloads"]]
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        print(f"run.py: unknown workload {unknown[0]!r}", file=sys.stderr)
        return 2
    cpu = pin_to_one_cpu()
    work.mkdir(parents=True)
    tempfile.tempdir = str(work)   # the replay's process pool spools its store here
    session = Session(SRC, work)
    if args.workload and args.trace is not None:
        # The driver's mode: one workload, one kind of run, one JSON line.
        if args.trace:
            from layers import trace

            result = trace(session, WORKLOADS[args.workload], args.seed, seconds)
        else:
            result = measure(session, WORKLOADS[args.workload], args.seed, seconds, args.smoke)
        kind = "per_layer" if args.trace else "end_to_end"
        missing = {m["name"] for m in declared[kind]} ^ set(result["metrics"])
        if missing:
            print(f"run.py: BENCHMARK.json {kind} and the run disagree on {sorted(missing)}",
                  file=sys.stderr)
            return 2
        print_metrics(f"{args.workload} seed {args.seed}", result["metrics"])
        print(json.dumps({
            "correct": result["correct"],
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {
                k: {"value": m["value"], "unit": m["unit"]}
                for k, m in result["metrics"].items()
            },
        }))
        return 0 if result["correct"] else 1
    out = Path(args.out) if args.out else WORK / f"results-seed{args.seed}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    document = {
        "benchmark": "e2e",
        "env": environment(args.seed, seconds, cpu, args.smoke),
        "workloads": {},
    }
    correct = True
    for name in names:
        wl = WORKLOADS[name]
        entry: dict = {}
        if args.trace in (None, 0):
            end = measure(session, wl, args.seed, seconds, args.smoke)
            print_metrics(f"{name}: end to end", end["metrics"])
            entry.update(
                end_to_end=end["metrics"],
                **{k: v for k, v in end.items() if k not in ("metrics", "correct")},
            )
            correct &= end["correct"]
        if args.trace in (None, 1) and not args.smoke:
            from layers import trace

            spans_path = out.with_suffix(f".{name}.spans.jsonl")
            layers = trace(session, wl, args.seed, seconds, spans_path)
            print_metrics(f"{name}: per layer", layers["metrics"])
            print(f"   shares of the staged total: {layers['shares']}", file=sys.stderr)
            entry.update(
                per_layer=layers["metrics"], shares=layers["shares"],
                trace_failed=layers["failed"],
            )
            correct &= layers["correct"]
        document["workloads"][name] = entry
    document["correct"] = correct
    out.write_text(json.dumps(document, indent=1) + "\n")
    print(f"results: {out}", file=sys.stderr)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
