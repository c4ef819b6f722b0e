"""relasph benchmark: seeded workloads, end-to-end metrics, per-layer trace.

    python3 bench/run.py --workload table1 --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --workload all --seed 1          # every workload

Each pass of a workload runs in a fresh child interpreter (``child.py``),
one child at a time and no threads: a closed loop with a single caller.
The library's context cache is process-global, so a second pass in the
same process would time cache hits.  Passes repeat until ``--seconds`` is
used up (at least three).  Every pass runs the same deterministic work, so
an item that reads slower in one pass than in another was slowed by the
host, not by the program: like ``timeit``, a run keeps each item's fastest
pass.  ``wall_s`` is the sum of those times (items run back to back, so a
pass's wall time is the sum of its items'), and medians and tails are taken
over them.  ``setup_s`` is the median over at least ``SETUP_SPAWNS`` spawns.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json.  ``--trace 1``
runs one untraced pass and two traced passes (under two different
PYTHONHASHSEED values, whose counts must agree exactly) and prints the
per-layer metrics; see ``tracing.py``.  Every output is checked against
``reference.json``, recorded from the seed library by ``record.py``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Run from the
root of a checkout; the library is imported from its ``src``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

PASS_TIMEOUT_S = 150
# A run keeps each item's fastest of at least this many passes, even when
# that takes longer than --seconds.
MIN_PASSES = 3
# setup_s is the median over at least this many spawns; a run with fewer
# passes adds spawns that set up and exit without running the items.
SETUP_SPAWNS = 9
# Timed passes run under one fixed hash seed, so that every pass of every
# run lays out its string-keyed dicts and sets the same way.
TIMED_HASH_SEED = "0"
TRACE_HASH_SEEDS = ("1", "2")


# -- one pass ------------------------------------------------------------------

def run_pass(workload: str, items: list, trace: bool, tag: str,
             hash_seed: str = TIMED_HASH_SEED, setup_only: bool = False) -> dict:
    """Spawn one child, wait for it, and return its timings and outputs.

    With ``setup_only`` the child exits once it is ready to run the items.
    """
    work = WORK / f"{workload}-{tag}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    job = {"src": str(SRC), "items": items, "trace": trace, "work": str(work),
           "result": str(work / "result.json"), "setup_only": setup_only,
           "spans": str(WORK / f"spans-{workload}-{tag}.json")}
    (work / "job.json").write_text(json.dumps(job))
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    env["PYTHONHASHSEED"] = hash_seed
    with open(work / "stderr.txt", "w") as err:
        spawned = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), str(work / "job.json")],
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err,
            env=env, cwd=str(ROOT))
        try:
            proc.wait(timeout=PASS_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        ended = time.monotonic()
    result = {"rc": proc.returncode, "elapsed_s": ended - spawned}
    try:
        child = json.loads((work / "result.json").read_text())
    except (OSError, ValueError):
        result["crash"] = (work / "stderr.txt").read_text()[-2000:] or \
            f"child exited with {proc.returncode} and no result"
    else:
        result.update(child)
        result["setup_s"] = child["ready_monotonic"] - spawned
        if proc.returncode != 0:
            result["crash"] = f"child exited with {proc.returncode}"
    shutil.rmtree(work, ignore_errors=True)
    return result


def judge(workload: str, items: list, passes: list, ref: dict) -> tuple:
    """(attempted, failed, decided, problems) over every item of every pass."""
    attempted = failed = decided = 0
    problems = []
    for n, p in enumerate(passes):
        attempted += len(items)
        if "crash" in p:
            failed += len(items)
            problems.append(f"pass {n}: {p['crash']}")
            continue
        for item, got in zip(items, p["items"]):
            bad = workloads.check_item(workload, item, got, ref)
            decided += bool(got.get("decided"))
            if bad:
                failed += 1
                problems.append(f"pass {n}: {item['key']}: {'; '.join(bad)}")
    return attempted, failed, decided, problems


# -- statistics ------------------------------------------------------------------

def tail(values: list) -> tuple:
    """(value, label): the highest percentile, in tenths, with at least ten
    values beyond it, but never one below p90; the largest value when no
    percentile from p90 up has ten beyond it (fewer than 100 values).

    Without the p90 floor, 16 values would give p37.5, below the median.
    """
    xs = sorted(values)
    n = len(xs)
    tenths = 1000 * (n - 10) // n
    if tenths < 900:
        return xs[-1], f"largest of {n}"
    rank = -(-tenths * n // 1000)  # nearest rank, ceil(q * n)
    return xs[rank - 1], f"p{tenths / 10:g} of {n}"


def end_to_end(items: list, passes: list, setups: list, attempted: int,
               failed: int, decided: int) -> tuple:
    good = [p for p in passes if "crash" not in p]
    if not good:
        return {}, "every pass crashed"
    per_item = [min(p["items"][i]["seconds"] for p in good)
                for i in range(len(items))]
    tail_ms, tail_label = tail([s * 1000 for s in per_item])
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": math.fsum(per_item),
        "item_p50_ms": statistics.median(per_item) * 1000,
        "item_tail_ms": tail_ms,
        "peak_rss_mb": statistics.median(p["peak_rss_kb"] for p in good) / 1024,
        "decided_share": decided / attempted,
        "correct_share": (attempted - failed) / attempted,
    }
    note = (f"{len(passes)} passes of {len(items)} items; item times are "
            f"each item's fastest pass, wall_s their sum; setup_s is the "
            f"median of {len(setups)} spawns; item_tail_ms is the "
            f"{tail_label}")
    return metrics, note


# -- runs ----------------------------------------------------------------------

def measure(workload: str, items: list, seconds: float, ref: dict) -> dict:
    passes = []
    start = time.monotonic()
    while True:
        p = run_pass(workload, items, False, f"p{len(passes)}")
        passes.append(p)
        if "crash" in p or (len(passes) >= MIN_PASSES and
                            time.monotonic() - start + p["elapsed_s"] > seconds):
            break
    setups = [p["setup_s"] for p in passes if "setup_s" in p]
    while len(setups) < SETUP_SPAWNS and "crash" not in passes[-1]:
        s = run_pass(workload, items, False, f"s{len(setups)}", setup_only=True)
        if "crash" in s:
            passes.append(s)
            break
        setups.append(s["setup_s"])
    attempted, failed, decided, problems = judge(workload, items, passes, ref)
    metrics, note = end_to_end(items, passes, setups, attempted, failed,
                               decided)
    return {"metrics": metrics, "note": note, "attempted": attempted,
            "failed": failed, "problems": problems}


def measure_traced(workload: str, items: list, ref: dict) -> dict:
    plain = run_pass(workload, items, False, "plain")
    traced = [run_pass(workload, items, True, f"traced{h}", hash_seed=h)
              for h in TRACE_HASH_SEEDS]
    passes = [plain, *traced]
    attempted, failed, decided, problems = judge(workload, items, passes, ref)
    if any("crash" in p for p in passes):
        return {"metrics": {}, "note": "a pass crashed", "attempted": attempted,
                "failed": failed, "problems": problems}
    layers = [t["layers"] for t in traced]
    counts = [name for name, unit in tracing.LAYER_METRICS.items()
              if unit == "count"]
    for name in counts:
        if len({lay[name] for lay in layers}) != 1:
            failed += 1
            problems.append(f"{name} differs between PYTHONHASHSEED "
                            f"{' and '.join(TRACE_HASH_SEEDS)}: "
                            f"{[lay[name] for lay in layers]}")
    metrics = {name: statistics.median(lay[name] for lay in layers)
               for name in tracing.LAYER_METRICS
               if name in layers[0]}
    rows = layers[0]["coset.max_rows"]
    grown = (plain["peak_rss_kb"] - plain["rss_ready_kb"]) * 1024
    metrics["coset.rss_per_row_B"] = grown / rows if rows else 0.0
    traced_wall = statistics.median(t["wall_s"] for t in traced)
    metrics["trace.overhead_share"] = (traced_wall - plain["wall_s"]) / plain["wall_s"]
    metrics = {name: metrics[name] for name in tracing.LAYER_METRICS}
    largest = max(((e, item["key"]) for item, got in zip(items, traced[0]["items"])
                   for e in got["enumerations"]), default=None)
    note = ("counts from two traced passes (PYTHONHASHSEED "
            f"{' and '.join(TRACE_HASH_SEEDS)}), times their median; "
            "coset.rss_per_row_B is computed as (peak RSS - RSS after "
            "import) of the untraced pass / largest row count")
    if largest:
        (defined, index, complete), key = largest
        note += (f"; most definitions in one enumeration: {defined} in "
                 f"'{key}', {'index ' + str(index) if complete else 'at the cap'}")
    return {"metrics": metrics, "note": note, "attempted": attempted,
            "failed": failed, "problems": problems}


# -- report ----------------------------------------------------------------------

def machine() -> dict:
    def first(path, key):
        try:
            for line in Path(path).read_text().splitlines():
                if line.startswith(key):
                    return line.split(":", 1)[1].strip()
        except OSError:
            pass
        return "unknown"

    digest = hashlib.sha256()
    for path in sorted((SRC / "relasph").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = "not a git checkout"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"], text=True,
                capture_output=True, timeout=30).stdout.strip() or commit
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {"nproc": os.cpu_count(), "cpu": first("/proc/cpuinfo", "model name"),
            "memory": first("/proc/meminfo", "MemTotal"),
            "python": platform.python_version(), "relasph_commit": commit,
            "relasph_src_sha256": digest.hexdigest()[:16]}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=[*workloads.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="also write the full results as JSON here")
    args = ap.parse_args(argv)
    if not (SRC / "relasph" / "__init__.py").is_file():
        print(f"error: no relasph sources under {SRC}", file=sys.stderr)
        return 2
    ref = workloads.load_reference()
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    if args.trace:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    header = {**machine(), "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "workloads": {}}
    for line in (f"nproc={header['nproc']} cpu={header['cpu']!r} "
                 f"memory={header['memory']!r} python={header['python']}",
                 f"relasph commit={header['relasph_commit']} "
                 f"src sha256={header['relasph_src_sha256']} seed={args.seed}"):
        print("# " + line)
    results = {}
    for name in names:
        items = workloads.make_items(name, args.seed, ref, ROOT)
        header["workloads"][name] = {"cap": workloads.CAPS[name],
                                     "items": len(items), "why": why[name]}
        print(f"# {name}: cap {workloads.CAPS[name]}, {len(items)} items "
              f"per pass; {why[name]}")
        WORK.mkdir(exist_ok=True)
        if args.trace:
            res = measure_traced(name, items, ref)
        else:
            res = measure(name, items, args.seconds, ref)
        results[name] = res
        for metric, value in res["metrics"].items():
            print(f"{name:14s} {metric:32s} {value:14.6g} {units[metric]}")
        print(f"# {name}: {res['note']}; {res['failed']} of "
              f"{res['attempted']} items failed")
        for problem in res["problems"][:10]:
            print(f"# FAILED {problem}", file=sys.stderr)
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())

    metrics = {}
    for name, res in results.items():
        for metric, value in res["metrics"].items():
            key = metric if len(names) == 1 else f"{name}.{metric}"
            metrics[key] = {"value": value, "unit": units[metric]}
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"header": header, "results": results}, indent=1) + "\n")
    print(json.dumps({"correct": failed == 0 and all(
        len(r["metrics"]) == len(units) for r in results.values()),
        "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
