"""Self-test of the benchmark: every workload at a tiny size.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
# At the seed commit only the two recorded CLI defects fail: two calls of
# each tiny round of fifteen.
EXPECTED_FAILED_RATIO = {"truncations": 0.0, "inventory": 0.0, "sweeps": 0.0, "cli": 2 / 15}


def bench(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_reports_every_metric(workload, trace):
    out = bench(ROOT, "--workload", workload, "--seed", "5", "--seconds", "0",
                "--trace", str(trace), "--tiny")
    assert out.returncode == 0, out.stderr
    res = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    kind = "per_layer" if trace else "end_to_end"
    assert set(res["metrics"]) == {m["name"] for m in SPEC[kind]}
    assert res["correct"]
    assert res["failed"] / res["attempted"] == EXPECTED_FAILED_RATIO[workload]


def test_wrong_expected_value_counts_as_failure(monkeypatch):
    import inproc
    from record import Tally, Tracer

    monkeypatch.setitem(inproc.SUITE_CHECKED, "ends", inproc.SUITE_CHECKED["ends"] + 1)
    wl = inproc.Sweeps(seed=5)
    wl.seeded = {"ends": False}
    tally = Tally()
    wl.run_pass(Tracer(False), tally, [])
    assert (tally.attempted, tally.failed, tally.correct) == (1, 1, False)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", ".work", "__pycache__"))
    out = bench(tmp_path, "--workload", "sweeps", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert out.returncode != 0
    assert out.stdout == ""


def test_every_layer_metric_has_a_prediction():
    predictions = json.loads((HERE / "predictions.json").read_text(encoding="utf-8"))
    predicted = {name for p in predictions["predictions"] for name in p["layer_metrics"]}
    layer = {m["name"] for m in SPEC["per_layer"]}
    diagnostic = {n for n in layer if n.endswith(".self_s") or n.startswith("trace.")}
    assert predicted == layer - diagnostic
