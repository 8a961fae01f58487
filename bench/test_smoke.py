"""Smoke test of the benchmark at a tiny size.

Run from the root of a checkout: ``python3 -m pytest bench/test_smoke.py``.
Each workload runs in a child interpreter (the benchmark re-imports
ulmkit for every pass) with its batch cut down to a few operations.
"""

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "bench")

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    CONTRACT = json.load(_fh)

TINY = {
    "relation-sweep": {
        "fresh_same": 20,
        "fresh_cross": 6,
        "fresh_large": 2,
        "fresh_p2": 10,
        "repeats": 8,
        "large_trees": ((7, 3, 3),),
    },
    "tree-scaling": {
        "ladder": {2: (4, 5, 16), 3: (3, 4, 11)},
        "pair_up_to": {2: 5, 3: 4},
        "cli_iso": ((2, 5), (3, 3)),
        "order_count_max_size": 2**10,
    },
    "constructions": {
        "stages": 12,
        "table_rows": 150,
        "table_bound": 64,
        "fixed_tables": 2,
        "seeded_tables": 1,
        "alphas": ("w*2",),
        "switching_runs": 1,
        "run_steps": 4,
        "extension_candidates": 8,
        "window": 8,
    },
}

CHILD = """
import json, os, sys
sys.path[:0] = [{bench!r}, os.path.join({root!r}, "src")]
import run, workloads
workload = workloads.WORKLOADS[{name!r}]({sizes!r})
result, lines = run.run_workload(workload, {seed}, 0, {trace}, {out!r})
print(json.dumps({{"result": result, "lines": lines}}))
"""


def tiny_run(name: str, seed: int, trace: bool, out: str) -> dict:
    code = CHILD.format(bench=BENCH, root=ROOT, name=name, sizes=TINY[name], seed=seed, trace=trace, out=out)
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True, timeout=600
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def line(run: dict, prefix: str) -> str:
    return next(x for x in run["lines"] if x.startswith(prefix))


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", list(TINY))
def test_workload_reports_every_metric(name, trace, tmp_path):
    run = tiny_run(name, 1, trace, str(tmp_path))
    result = run["result"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, [x for x in run["lines"] if x.startswith("incorrect")]
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
    declared = CONTRACT["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"])
    if trace:
        assert list(tmp_path.glob(".bench_out/trace-*.json"))


def test_known_failures_are_counted(tmp_path):
    # the pinned Z9+Z9+Z3 query: the closed form disagrees with the game
    run = tiny_run("relation-sweep", 1, False, str(tmp_path))
    disagreements = int(line(run, "failures:").split()[1])
    assert disagreements >= 1
    assert run["result"]["failed"] >= disagreements
    # p=2 above 15 nodes and p=3 above 10 are refused in every pass
    run = tiny_run("tree-scaling", 1, False, str(tmp_path))
    assert line(run, "failures:").startswith("failures: 2 ladder refusals")
    assert run["result"]["correct"] is True


@pytest.mark.parametrize("name", ["relation-sweep", "constructions"])
def test_same_seed_same_verdicts_and_calls(name, tmp_path):
    first = tiny_run(name, 3, True, str(tmp_path))
    again = tiny_run(name, 3, True, str(tmp_path))
    other = tiny_run(name, 4, True, str(tmp_path))
    for prefix in ("input digest", "verdict digest", "calls digest"):
        assert line(first, prefix) == line(again, prefix)
    assert line(first, "input digest") != line(other, "input digest")


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    cmd = CONTRACT["command"] + ["--workload", "relation-sweep", "--seed", "0", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
