#!/usr/bin/env python3
"""Run one workload over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload store-100k --seeds 1-10
    python3 perfbench/spread.py --workload sweep-small --seeds 1-5 --out spread.json

Runs are sequential, one process at a time, untraced, each for the
run_seconds of BENCHMARK.json. For every metric it prints the
median, the quartiles and the spread (interquartile distance over the
median), next to the bound BENCHMARK.json fixes for it. A spread under a
third of its bound is steady; over the bound the metric cannot tell a
regression of that size from noise.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload, seed, seconds) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=200)
    if proc.returncode != 0:
        raise SystemExit(f"seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(med) if med else float("inf"), "values": values}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    p.add_argument("--out", default=None, help="write the summary as JSON here")
    args = p.parse_args(argv)

    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    seeds = parse_seeds(args.seeds)
    results = []
    for seed in seeds:
        r = run_once(args.workload, seed, seconds)
        results.append(r)
        print(f"seed {seed}: correct={r['correct']} attempted={r['attempted']} "
              f"failed={r['failed']}", flush=True)

    summary = {"workload": args.workload, "seconds": seconds,
               "seeds": seeds, "runs": len(results),
               "all_correct": all(r["correct"] for r in results), "metrics": {}}
    print(f"{'metric':<32} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        s = summarize(values) if len(values) > 1 else {"median": values[0], "q1": values[0],
                                                       "q3": values[0], "spread": 0.0,
                                                       "values": values}
        s["unit"] = results[0]["metrics"][name]["unit"]
        bound = bounds.get(name)
        flag = ""
        if bound is not None:
            s["bound"] = bound
            flag = "OVER" if s["spread"] > bound else ("wide" if s["spread"] > bound / 3 else "")
        summary["metrics"][name] = s
        print(f"{name:<32} {s['median']:12.6g} {s['q1']:12.6g} {s['q3']:12.6g} "
              f"{s['spread']:8.3f} {bound if bound is not None else '':>6} {flag}")
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1))
    return 0 if summary["all_correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
