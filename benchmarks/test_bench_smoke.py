"""Smoke test of the benchmark in quick mode.

It checks that every metric named in BENCHMARK.json is printed with its unit,
that two traced runs with one seed report identical work counts, and that the
benchmark refuses to run without the library sources.  It checks no timings.

    python3 -m pytest benchmarks/test_bench_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    cmd = SPEC["command"][1:] + list(args)
    return subprocess.run([sys.executable] + cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=170)


def result(workload, trace):
    proc = bench("--workload", workload, "--seed", "7", "--seconds", "0.3",
                 "--trace", str(trace), "--quick")
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(out) == ["attempted", "correct", "failed", "metrics"]
    assert out["correct"] is True, proc.stderr
    assert out["attempted"] >= 1
    return out


def assert_metrics(out, specs):
    assert sorted(out["metrics"]) == sorted(m["name"] for m in specs)
    for spec in specs:
        assert out["metrics"][spec["name"]]["unit"] == spec["unit"]


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_end_to_end_metrics(workload):
    out = result(workload, 0)
    assert out["failed"] == 0
    assert_metrics(out, SPEC["end_to_end"])
    assert all(m["value"] > 0 for m in out["metrics"].values())


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_traced_counts_repeat(workload):
    first, second = result(workload, 1), result(workload, 1)
    assert_metrics(first, SPEC["per_layer"])
    counts = [m["name"] for m in SPEC["per_layer"] if m["unit"] == "count"]
    assert {n: first["metrics"][n]["value"] for n in counts} == {
        n: second["metrics"][n]["value"] for n in counts}
    assert (first["attempted"], first["failed"]) == (second["attempted"], second["failed"])


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "calculus", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
