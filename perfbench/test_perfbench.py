"""Self-test of the benchmark harness (not of the package's speed):

    python3 -m pytest -q perfbench

Checks BENCHMARK.json against the benchmark contract, the tracer's self-time
arithmetic, and one untraced and one traced ``train`` run (about a minute):
the result line's schema, metric names and units as listed in BENCHMARK.json,
positive timings, the environment record, and the coverage counts.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_benchmark_json_follows_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    assert SPEC["paths"] == ["perfbench"]
    assert 1 <= SPEC["run_seconds"] <= 60 and isinstance(SPEC["run_seconds"], int)
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0.0 < m["bound"] <= 0.25 and m["better"] in ("lower", "higher")
        assert UNIT.match(m["unit"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"} and UNIT.match(m["unit"])


def test_self_time_is_duration_minus_direct_children():
    tracer = tracing.Tracer()

    def leaf():
        time.sleep(0.02)

    def middle():
        time.sleep(0.01)
        tracer.call("leaf", leaf)
        tracer.call("leaf", leaf)

    tracer.call("root", tracer.call, "middle", middle)
    spans = tracer.summary()
    assert tracer.parents == [-1, 0, 1, 1]
    assert spans["leaf"]["calls"] == 2
    assert spans["middle"]["self_s"] == pytest.approx(
        spans["middle"]["total_s"] - spans["leaf"]["total_s"])
    assert spans["root"]["self_s"] == pytest.approx(
        spans["root"]["total_s"] - spans["middle"]["total_s"])
    assert spans["middle"]["self_s"] >= 0.01


def _run(trace: int, cwd: Path = ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", "--workload", "train", "--seed", "0",
                           "--seconds", "1", "--trace", str(trace)],
                          cwd=cwd, capture_output=True, text=True, timeout=180)


def _result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    return result


def test_untraced_run_reports_every_end_to_end_metric():
    result = _result(_run(0))
    listed = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == listed
    assert all(v["value"] > 0 for v in result["metrics"].values())
    record = json.loads((ROOT / ".perfbench_out/train-seed0-trace0/results.json").read_text())
    env = record["environment"]
    for key in ("git_sha", "python", "numpy", "scipy", "seed", "repeats", "nproc"):
        assert key in env
    assert len(env["openblas"]) == 2 and all(b["num_threads"] for b in env["openblas"])
    assert record["output_sha256"]["model.ckpt"]


def test_traced_run_reports_every_layer_metric_and_full_coverage():
    result = _result(_run(1))
    listed = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == listed
    values = {k: v["value"] for k, v in result["metrics"].items()}
    for span in workloads.EXPECTED_SPANS["train"]:
        assert values[f"{span}.self_s"] > 0, span
    for span, count in workloads.PINNED_CALLS["train"].items():
        assert values[f"{span}.calls"] == count
    record = json.loads((ROOT / ".perfbench_out/train-seed0-trace1/results.json").read_text())
    assert record["coverage"]["ok"], record["coverage"]["problems"]


def test_refuses_to_run_without_the_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(0, cwd=tmp_path)
    assert proc.returncode != 0 and proc.stdout == ""
