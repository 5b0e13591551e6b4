"""Benchmark of repair-lab: one workload per run, one JSON result line.

Run from the root of a checkout:

    python3 bench/run.py --workload search-q2 --seed 1 --seconds 36 --trace 0

With --trace 0 the result holds the end-to-end metrics, measured untraced;
with --trace 1 it holds the per-layer metrics of a traced run.  The last line
of standard output is {"correct", "attempted", "failed", "metrics"}; the line
before it records the run's settings and machine.  `--workload all` runs every
workload, each in a fresh interpreter, and prints one table of all metrics.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import workloads


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def git_commit(root: Path) -> str:
    """The checked-out commit, read from .git without running git (the
    checkout may not be a repository)."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_one(args, root: Path) -> int:
    spec = workloads.WORKLOADS[args.workload]
    workers = min(2, nproc())
    try:
        workloads.load_program(root)
        if args.trace:
            rec, values = workloads.measure_traced(root, spec, args.seed, workers)
            units = workloads.PER_LAYER_UNITS
        else:
            rec, values = workloads.measure(root, spec, args.seed, args.seconds, workers)
            units = workloads.END_TO_END
    except workloads.ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "workers": workers,
        "nproc": nproc(),
        "python": platform.python_version(),
        "commit": git_commit(root),
        "samples": {kind: len(v) for kind, v in sorted(rec.samples.items())},
        "raw_p50_s": {kind: statistics.median(v) for kind, v in sorted(rec.raw.items())},
    }
    print(json.dumps({"meta": meta}))
    result = {
        "correct": rec.failed == 0 and all(v is not None for v in values.values()),
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


def run_all(args) -> int:
    """Every workload in a fresh interpreter; a table of every metric."""
    ok = True
    print(f"{'workload':<14} {'metric':<32} {'value':>14}  unit")
    for name in workloads.WORKLOADS:
        cmd = [
            sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name:<14} run failed with exit code {proc.returncode}")
            ok = False
            continue
        result = json.loads(lines[-1])
        ok = ok and result["correct"]
        ratio = result["failed"] / result["attempted"]
        print(f"{name:<14} {'failed_ratio':<32} {ratio:>14.6g}  ratio")
        for metric, m in result["metrics"].items():
            value = "none" if m["value"] is None else f"{m['value']:.6g}"
            print(f"{name:<14} {metric:<32} {value:>14}  {m['unit']}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=36)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Worker counts come from --workers alone, never from the environment.
    os.environ.pop("REPAIR_LAB_THREADS", None)
    if args.workload == "all":
        return run_all(args)
    return run_one(args, Path.cwd())


if __name__ == "__main__":
    sys.exit(main())
