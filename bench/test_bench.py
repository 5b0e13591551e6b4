"""Tests of the benchmark itself, at tiny sizes.  Run: python3 -m pytest bench"""
import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

TINY_SEARCH = workloads.Search(q=2, ell=2, r=2, expected=4)
TINY_REPAIR = workloads.Repair(q=2, ell=4, k=12, s=1, expected=44)
TINY = pytest.mark.parametrize("spec", [TINY_SEARCH, TINY_REPAIR], ids=["search", "repair"])


@pytest.fixture(autouse=True)
def small_runs(monkeypatch):
    monkeypatch.setattr(workloads, "COSTS_PER_ROUND", 2)
    monkeypatch.setattr(workloads, "SETUP_RUNS", 1)


def declared(kind: str) -> dict[str, str]:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in bench[kind]}


@TINY
def test_untraced_run_emits_every_end_to_end_metric(spec):
    rec, metrics = workloads.measure(ROOT, spec, 3, 0.2, workers=2)
    assert declared("end_to_end") == workloads.END_TO_END
    assert set(metrics) == set(workloads.END_TO_END)
    assert all(value > 0 for value in metrics.values())
    assert rec.attempted > 0 and rec.failed == 0


@TINY
def test_traced_run_emits_every_per_layer_metric(spec):
    rec, metrics = workloads.measure_traced(ROOT, spec, 3, workers=2)
    assert declared("per_layer") == workloads.PER_LAYER_UNITS
    assert set(metrics) == set(workloads.PER_LAYER_UNITS)
    assert all(metrics[f"{layer}.self_s"] > 0 for layer in tracer.LAYERS)
    assert metrics["cli.main.calls"] == 1
    assert rec.attempted > 0 and rec.failed == 0


def test_wrong_expected_minimum_fails_every_operation():
    wrong = dataclasses.replace(TINY_SEARCH, expected=TINY_SEARCH.expected + 1)
    rec, _ = workloads.measure(ROOT, wrong, 3, 0.2, workers=2)
    assert rec.attempted > 0
    assert rec.failed / rec.attempted == 1.0


@TINY
def test_same_seed_gives_identical_call_counts(spec):
    runs = [workloads.measure_traced(ROOT, spec, 7, workers=1)[1] for _ in range(2)]
    counts = [
        {k: v for k, v in m.items() if k.endswith(".calls") or k == "scheme.schemes_built"}
        for m in runs
    ]
    assert counts[0] == counts[1]
    assert counts[0]["fieldmath.mul.calls"] > 0


def test_tracer_restores_the_program():
    pkg = workloads.load_program(ROOT)
    before = (pkg.fieldmath.FieldContext.mul, pkg.scheme.RepairScheme.__dict__["from_dict"])
    with tracer.Tracer(pkg) as tr:
        pkg.fieldmath.FieldContext(2, 3).mul(3, 5)
    assert tr.calls["fieldmath.mul"] >= 1
    assert (pkg.fieldmath.FieldContext.mul, pkg.scheme.RepairScheme.__dict__["from_dict"]) == before


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "search-q2", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_compare_verdicts():
    parent = [1.0 + i / 100 for i in range(10)]
    assert compare.verdict(parent, parent, 0.1, True)[0] == "same"
    assert compare.verdict(parent, [v * 1.3 for v in parent], 0.1, True)[0] == "regression"
    assert compare.verdict(parent, [v * 0.8 for v in parent], 0.1, True)[0] == "gain"
