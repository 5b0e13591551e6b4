"""Compare a parent checkout with a change on the repair-lab benchmark.

    python3 bench/compare.py PARENT_ROOT CHANGE_ROOT [--workload NAME]

Both roots are checkouts of the repository.  This file's benchmark code runs
against both, so only the program differs.  Per workload it runs 10 pairs of
untraced runs of `run_seconds` each, with seeds 1 to 10, the same seed on
both sides, alternating which side runs first.  Then, per end-to-end metric,
with the bounds from BENCHMARK.json:

- regression: the change's median is worse than the parent's by more than
  the bound;
- gain: the change wins at least 9 of the 10 pairs (ties count for neither
  side) and the medians differ by more than the parent's interquartile range;
- unresolved: the spread (interquartile range over median) of either side
  exceeds the bound, unless every change run reads better than every parent
  run;
- same: anything else.

The times are reference-scaled (see REFERENCE_S in workloads.py), which
divides out a slowdown that the change causes in its own process or on the
whole box.  So each time metric also gets a verdict on the raw medians from
the meta line, and "RAW DISAGREES" marks a metric on which one verdict is a
regression or a gain and the other is not: read the raw figures before
trusting the scaled ones.  The raw figures spread too widely to gate on.

A rise in failed_ratio (failed over attempted operations, all runs summed)
rejects the change.  Prints one row per workload and exits 1 on a regression
or a rise in failed_ratio.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
RUN = HERE / "run.py"
SEEDS = range(1, 11)  # one pair per seed
# The raw time behind each scaled end-to-end metric, as named in the meta line.
RAW_KIND = {"setup_s": "setup", "main_p50_s": "main", "alt_p50_s": "alt", "aux_p50_s": "aux"}
# Verdicts that claim a change; the others claim none.
LEANING = {"regression": "worse", "gain": "better", "better": "better"}


def run(root: Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [
        sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
    ]
    proc = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} failed in {root} with exit code {proc.returncode}")
    result = json.loads(lines[-1])
    result["raw"] = json.loads(lines[-2])["meta"]["raw_p50_s"]
    return result


def spread(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile)."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(parent: list[float], change: list[float], bound: float, lower_is_better: bool):
    sign = 1 if lower_is_better else -1
    p1, pm, p3 = spread(parent)
    c1, cm, c3 = spread(change)
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    if sign * (cm - pm) > bound * pm:
        word = "regression"
    elif wins >= 0.9 * len(parent) and sign * (pm - cm) > p3 - p1:
        word = "gain"
    elif max((p3 - p1) / pm, (c3 - c1) / cm) > bound:
        if lower_is_better:
            all_better = max(change) < min(parent)
        else:
            all_better = min(change) > max(parent)
        word = "better" if all_better else "unresolved"
    else:
        word = "same"
    cell = (
        f"{pm:.4g} [{p1:.4g}-{p3:.4g}] -> {cm:.4g} [{c1:.4g}-{c3:.4g}] "
        f"{(cm - pm) / pm:+.1%} wins {wins}/{len(parent)} {word}"
    )
    return word, cell


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", action="append", help="default: every workload")
    args = parser.parse_args(argv)
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    names = args.workload or [w["name"] for w in bench["workloads"]]
    rejected = False
    for workload in names:
        results = {"parent": [], "change": []}
        for i, seed in enumerate(SEEDS):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                root = args.parent if side == "parent" else args.change
                results[side].append(run(root, workload, seed, seconds))
        ratios = {
            side: sum(r["failed"] for r in rs) / sum(r["attempted"] for r in rs)
            for side, rs in results.items()
        }
        cells = [f"failed_ratio {ratios['parent']:.3g} -> {ratios['change']:.3g}"]
        if ratios["change"] > ratios["parent"]:
            cells[0] += " REJECTED"
            rejected = True
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            lower = metric["better"] == "lower"
            values = {side: [r["metrics"][name]["value"] for r in rs] for side, rs in results.items()}
            word, cell = verdict(values["parent"], values["change"], bound, lower)
            rejected = rejected or word == "regression"
            if name in RAW_KIND:
                raw = {side: [r["raw"][RAW_KIND[name]] for r in rs] for side, rs in results.items()}
                raw_word, raw_cell = verdict(raw["parent"], raw["change"], bound, lower)
                cell += f"; raw {raw_cell}"
                if LEANING.get(word) != LEANING.get(raw_word):
                    cell += " RAW DISAGREES"
            cells.append(f"{name} {cell}")
        print(f"{workload}: " + " | ".join(cells), flush=True)
    return 1 if rejected else 0


if __name__ == "__main__":
    sys.exit(main())
