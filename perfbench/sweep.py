#!/usr/bin/env python3
"""Repeat benchmark runs into a results file, and compare two such files.

    python3 perfbench/sweep.py run --out perfbench/out/base.json --repeats 10
    python3 perfbench/sweep.py compare perfbench/out/base.json perfbench/out/change.json
    python3 perfbench/sweep.py compare perfbench/out/base.json

``run`` calls ``run.py`` once per workload and repeat, one process at a
time, with seed ``--seed0 + repeat``, and records the commit, the seeds, the
repeat count, ``nproc``, the CPU model and the Python and numpy versions.
``compare`` prints, per workload and end-to-end metric, each side's median
and quartiles, the spread (interquartile distance over median) and whether
the second side's median is worse than the first's by more than the bound
in ``BENCHMARK.json``; then the attempted and failed counts per request
kind.  It exits with 1 when a median is worse than its bound, when a run
on either side is not correct, or when the second side fails a larger
share of requests than the first; with 2 when the files differ in run
length, workloads or tracing.  With one file it prints that file's side
only.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def commit() -> tuple[str, bool]:
    try:
        head = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        ).stdout.strip()
        dirty = subprocess.run(
            ["git", "status", "--porcelain", "--untracked-files=no"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown", False
    return head, bool(dirty)


def cpu_model() -> str:
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return platform.processor() or platform.machine()


def sweep(args) -> int:
    head, dirty = commit()
    import numpy as np

    workloads = [w["name"] for w in SPEC["workloads"]]
    seconds = SPEC["run_seconds"]
    meta = {
        "commit": head,
        "dirty": dirty,
        "repeats": args.repeats,
        "seeds": [args.seed0 + i for i in range(args.repeats)],
        "seconds": seconds,
        "trace": args.trace,
        "workloads": workloads,
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "started": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }
    runs = []
    for i in range(args.repeats):
        for workload in workloads:
            seed = args.seed0 + i
            cmd = [*SPEC["command"], "--workload", workload, "--seed", str(seed)]
            cmd += ["--seconds", str(seconds), "--trace", str(args.trace)]
            start = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            wall = time.perf_counter() - start
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or len(lines) < 2:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}", file=sys.stderr)
                return 1
            result = json.loads(lines[-1])
            detail = json.loads(lines[-2])["detail"]
            runs.append({"workload": workload, "seed": seed, "wall_s": wall, "result": result, "detail": detail})
            print(f"{workload} seed {seed}: {wall:.1f} s, correct={result['correct']}", file=sys.stderr)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"meta": meta, "runs": runs}, indent=1))
    return 0


def summary(values: list[float]) -> tuple[float, float, float, float]:
    """(median, q1, q3, spread) with spread = (q3 - q1) / median."""
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def compare(args) -> int:
    sides = [json.loads(Path(p).read_text()) for p in args.files]
    metrics = SPEC["end_to_end"] if not args.per_layer else SPEC["per_layer"]
    workloads = [w["name"] for w in SPEC["workloads"]]
    for k, side in enumerate(sides):
        m = side["meta"]
        print(
            f"side {'AB'[k]}: {args.files[k]}  commit {m['commit'][:12]}{'+' if m['dirty'] else ''}  "
            f"repeats {m['repeats']}  seconds {m['seconds']}  nproc {m['nproc']}  {m['cpu']}  "
            f"python {m['python']}  numpy {m['numpy']}"
        )
    for key in ("seconds", "workloads", "trace"):
        if len({json.dumps(side["meta"][key]) for side in sides}) > 1:
            print(f"the files differ in {key}; they cannot be compared", file=sys.stderr)
            return 2
    regressions = 0
    faults = []
    for workload in workloads:
        print(f"\n[{workload}]")
        print(f"{'metric':32} {'side':4} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>7} {'bound':>6}  verdict")
        meds = []
        for metric in metrics:
            name, bound = metric["name"], metric.get("bound")
            for k, side in enumerate(sides):
                vals = [
                    r["result"]["metrics"][name]["value"]
                    for r in side["runs"]
                    if r["workload"] == workload and name in r["result"]["metrics"]
                ]
                if not vals:
                    continue
                med, q1, q3, spread = summary(vals)
                verdict = ""
                if bound is not None and spread > bound:
                    verdict = "spread above bound"
                if k == 1 and meds and bound is not None:
                    worse = (med - meds[0]) / meds[0]
                    if metric["better"] == "higher":
                        worse = -worse
                    if worse > bound:
                        verdict = f"WORSE by {100 * worse:.1f} %"
                        regressions += 1
                    else:
                        verdict = (verdict + "; " if verdict else "") + f"within bound ({100 * worse:+.1f} % worse)"
                if k == 0:
                    meds = [med]
                bnd = "-" if bound is None else f"{bound:.2f}"
                print(f"{name:32} {'AB'[k]:4} {med:14.6g} {q1:14.6g} {q3:14.6g} {spread:7.3f} {bnd:>6}  {verdict}")
        for k, side in enumerate(sides):
            runs = [r for r in side["runs"] if r["workload"] == workload]
            counts: dict[str, list[int]] = {}
            for r in runs:
                for kind, c in r["detail"]["requests"].items():
                    tot = counts.setdefault(kind, [0, 0])
                    tot[0] += c["attempted"]
                    tot[1] += c["failed"]
            shares = sorted({r["result"]["failed"] / r["result"]["attempted"] for r in runs})
            correct = all(r["result"]["correct"] for r in runs)
            text = "  ".join(f"{kind} {a}/{f}" for kind, (a, f) in counts.items())
            print(f"side {'AB'[k]} attempted/failed: {text}  failed share per run {shares}  correct {correct}")
            if not correct:
                faults.append(f"{workload}: side {'AB'[k]} has incorrect runs")
            if k == 0:
                worst = max(shares, default=0.0)
            elif max(shares, default=0.0) > worst:
                faults.append(f"{workload}: side B fails a larger share of requests than side A")
    print(f"\n{regressions} metric(s) worse than their bound")
    for fault in faults:
        print(fault)
    return 1 if regressions or faults else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    run = sub.add_parser("run", help="repeat runs into a results file")
    run.add_argument("--out", required=True)
    run.add_argument("--repeats", type=int, default=10)
    run.add_argument("--seed0", type=int, default=1)
    run.add_argument("--trace", type=int, choices=(0, 1), default=0)
    run.set_defaults(func=sweep)
    cmp_ = sub.add_parser("compare", help="compare one or two results files")
    cmp_.add_argument("files", nargs="+")
    cmp_.add_argument("--per-layer", action="store_true", help="per-layer metrics of traced sets")
    cmp_.set_defaults(func=compare)
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
