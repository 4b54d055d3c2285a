"""Smoke tests of the benchmark itself; not part of the pslab test suite.

    python3 -m pytest perfbench/test_smoke.py -q

Runs every workload at a tiny size through run.py, traced and untraced,
and checks that every metric BENCHMARK.json declares prints with its
unit; checks that a missed rate expectation counts as a failed task; and
checks that run.py refuses a directory without pslab sources.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def _run(cwd, *args):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=180)
    return proc


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_prints_with_its_unit(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stderr
    assert result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"], metric["name"]
        assert isinstance(got["value"], (int, float))
        if not trace:
            assert got["value"] > 0, metric["name"]


def test_missed_expectation_counts_as_failure(tmp_path):
    import worker
    import workloads

    tasks = workloads.build("spectral_march", 3, str(tmp_path), tiny=True)
    heat = next(t for t in tasks if t.name == "heat")
    run = worker.Run([heat])
    run.one_pass()
    assert (run.attempted, run.failed) == (1, 0)
    heat.ratefit[heat.ratefit.index("--expect") + 1] = "exponent=-0.9,tol=0.05"
    run.one_pass()
    assert (run.attempted, run.failed) == (2, 1)


def test_refuses_checkout_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "frozen_kernel", "--seed", "1",
                "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
