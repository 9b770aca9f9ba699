#!/usr/bin/env python3
"""segtta benchmark: run one workload once and report it.

    python3 perfbench/run.py --workload sweep-small --seed 1 --seconds 20 --trace 0

Workloads: sweep-small, query-large, store-100k (see perfbench/README.md).
The run generates its inputs from --seed in a child process, then measures
in a second child process so that peak memory covers the workload alone.
It prints a readable report and, as its last line, one JSON object:
end-to-end metrics with --trace 0, per-layer metrics with --trace 1.
Exit status is 0 only when a result was printed.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402

DEADLINE_S = 175.0

# span whose subtree is "one segment" when layer shares are computed
OP_SPAN = {"sweep-small": "inference.segment", "query-large": "cli.main",
           "store-100k": "inference.segment"}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=common.NAMES)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny is the reduced size the self-test uses")
    p.add_argument("--phase", choices=("run", "generate", "measure"), default="run",
                   help=argparse.SUPPRESS)
    p.add_argument("--work", default=None, help=argparse.SUPPRESS)
    return p.parse_args(argv)


def orchestrate(args) -> int:
    if not (common.SRC / "segtta" / "__init__.py").is_file():
        print(f"error: no segtta package under {common.SRC}", file=sys.stderr)
        return 2
    # on SIGTERM, unwind: subprocess.run kills and reaps the running child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    start = time.monotonic()
    work = common.WORK / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    env = common.pin_threads(dict(os.environ))
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--size", args.size, "--work", str(work)]
    try:
        work.mkdir(parents=True, exist_ok=True)
        for phase in ("generate", "measure"):
            left = DEADLINE_S - (time.monotonic() - start)
            # generation output goes to stderr so the last stdout line stays the result
            out = sys.stderr if phase == "generate" else None
            rc = subprocess.run(cmd + ["--phase", phase], env=env, stdout=out,
                                timeout=max(left, 1.0)).returncode
            if rc != 0:
                print(f"error: {phase} phase exited {rc}", file=sys.stderr)
                return rc if rc > 0 else 3
    except subprocess.TimeoutExpired:
        print(f"error: run exceeded {DEADLINE_S:.0f} s", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


def load_library():
    """Import every segtta module so the tracer can find its names."""
    common.pin_threads()
    segtta = common.import_segtta()
    import importlib
    for mod in ("numerics", "support", "retrieval", "adapter", "inference", "fileio",
                "harness", "cli"):
        importlib.import_module(f"segtta.{mod}")
    return segtta


def measure(args) -> int:
    segtta = load_library()
    import workloads
    from tracer import Tracer

    tracer = Tracer(OP_SPAN[args.workload]) if args.trace else None
    m = workloads.Measure(segtta, args.workload, args.size, Path(args.work), args.seed,
                          args.seconds, tracer)
    m.run()
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    ledger = m.ledger
    rescaled = ledger.rescaled()
    end_to_end = m.end_to_end(peak_mb, rescaled)
    raw = m.end_to_end(peak_mb, ledger.raw())
    cal = ledger.cal
    env = common.environment()
    for name, (value, _) in end_to_end.items():
        if not common.finite(value) or value <= 0:
            ledger.fail(f"{name} = {value}")

    lines = [f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
             f"trace={args.trace} size={args.size}",
             f"env: python {env['python']}, numpy {env['numpy']}, {env['blas']}, "
             f"blas_threads={env['blas_threads']} (nproc {env['nproc']})",
             f"why: {workloads.WHY[args.workload]}",
             "calibration: " + ", ".join(
                 f"{k} kernel {common.median(t) * 1e3:.3f} ms median of {len(t)} "
                 f"(reference {common.KERNELS[k][1] * 1e3:.3f} ms)"
                 for k, t in cal.times.items())]
    tails = {"segment_tail_s": rescaled["segment"], "add_tail_ms": rescaled["add"]}
    m.extra["tails"] = {k: common.tail(v) for k, v in tails.items() if v}
    if tracer is None:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in end_to_end.items()}
        lines.append(f"  {'metric':<16} {'rescaled':>12}      {'raw':>12}")
        for k, (v, u) in end_to_end.items():
            t = m.extra["tails"].get(k)
            note = (f"  (p{t['percentile']:g} of {t['samples']} samples, "
                    f"{t['beyond']} beyond)" if t else "")
            lines.append(f"  {k:<16} {v:12.6g} {u:<4} {raw[k][0]:12.6g}{note}")
    else:
        steps = segtta.adapter.TrainConfig().steps
        layer = tracer.layer_metrics(steps)
        overhead = m.extra.get("trace_overhead_pct")
        layer["trace.overhead_pct"] = ((overhead, "%", "ok") if overhead is not None
                                       else (0.0, "%", "unmeasured"))
        metrics = {k: {"value": v, "unit": u} for k, (v, u, _) in layer.items()}
        m.extra["per_layer_status"] = {k: st for k, (_, _, st) in layer.items()}
        for k, (v, u, st) in layer.items():
            shown = f"{v:12.6g} {u}" if st == "ok" else f"{st:>12}"
            lines.append(f"  {k:<30} {shown}")
    rate = ledger.failed / ledger.attempted if ledger.attempted else 1.0
    lines.append(f"  error_rate       {rate:12.6g}  ({ledger.failed} failed of "
                 f"{ledger.attempted} attempted)")
    for problem in ledger.problems:
        lines.append(f"  problem: {problem}")

    result = {"correct": ledger.failed == 0 and ledger.attempted > 0,
              "attempted": max(ledger.attempted, 1), "failed": ledger.failed,
              "metrics": metrics}
    details = {"args": vars(args), "env": env, "result": result,
               "end_to_end": {k: v for k, (v, _) in end_to_end.items()},
               "end_to_end_raw": {k: v for k, (v, _) in raw.items()},
               "calibration_kernel_s": cal.runs,
               "samples": ledger.samples,
               "extra": m.extra, "problems": ledger.problems,
               "trace": tracer.summary() if tracer else None}
    out_dir = common.WORK / "results"
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(details, indent=1, default=str))
    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.phase == "run":
        return orchestrate(args)
    if args.phase == "generate":
        segtta = load_library()
        import workloads
        workloads.generate(segtta, args.workload, args.size, args.seed, Path(args.work))
        return 0
    return measure(args)


if __name__ == "__main__":
    sys.exit(main())
