"""The benchmark's tracer (perfbench/tracing.py) wraps package functions by
the names its callers look them up under.  A rename, or a path that stops
calling a wrapped function, must fail here and not only in the slow benchmark
self-test."""

import importlib.util
from pathlib import Path

import pytest

from sngp.cli import EXIT_OK, main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TINY = "hidden_width = 8\ndepth = 2\nnum_features = 32\nepochs = 1\nn_per_class = 20\n"


def load_perfbench(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_resolves():
    tracing = load_perfbench("tracing")
    assert tracing.TARGETS
    with tracing.traced(tracing.Tracer()) as missing:
        assert missing == []


@pytest.mark.parametrize("workload", ["score", "compare"])
def test_workload_records_every_expected_span(tmp_path, workload):
    tracing, workloads = load_perfbench("tracing"), load_perfbench("workloads")
    (tmp_path / "run.cfg").write_text(workloads.config_text(workload, 1) + TINY)
    for argv in workloads.setup_calls(workload, 1, tmp_path):
        assert main(argv) == EXIT_OK
    tracer = tracing.Tracer()
    with tracing.traced(tracer):
        for argv in workloads.timed_calls(workload, tmp_path, tmp_path):
            assert tracer.call("cli", main, argv) == EXIT_OK
    calls = {name: row["calls"] for name, row in tracer.summary().items()}
    assert [s for s in workloads.EXPECTED_SPANS[workload] if not calls.get(s)] == []
