"""The benchmark's tracer (perfbench/tracing.py) wraps package functions by
the names its callers look them up under, and its output checks
(perfbench/workloads.py) read the checkpoints and reports.  A rename, a path
that stops calling a wrapped function, or an output the checks cannot read
must fail here and not only in the slow benchmark self-test."""

import importlib.util
import math
from pathlib import Path

import pytest

import sngp.gp_layer
import sngp.linalg
from sngp.cli import EXIT_OK, RunConfig, main, parse_run_config

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


def traced_calls(tmp_path, workload, size=TINY):
    """Calls per span of one traced repeat of ``workload`` at the ``size`` config."""
    tracing, workloads = load_perfbench("tracing"), load_perfbench("workloads")
    (tmp_path / "run.cfg").write_text(workloads.config_text(workload, 1) + size)
    for argv in workloads.setup_calls(workload, 1, tmp_path):
        assert main(argv) == EXIT_OK
    tracer = tracing.Tracer()
    with tracing.traced(tracer):
        for argv in workloads.timed_calls(workload, tmp_path, tmp_path):
            assert tracer.call("cli", main, argv) == EXIT_OK
    return {name: row["calls"] for name, row in tracer.summary().items()}


@pytest.mark.parametrize("workload", ["train", "score", "compare"])
def test_workload_records_every_expected_span(tmp_path, workload):
    calls = traced_calls(tmp_path, workload)
    workloads = load_perfbench("workloads")
    assert [s for s in workloads.EXPECTED_SPANS[workload] if not calls.get(s)] == []


@pytest.mark.parametrize("workload", ["train", "score", "compare"])
def test_workload_outputs_pass_the_benchmark_checks(tmp_path, workload):
    workloads = load_perfbench("workloads")
    (tmp_path / "run.cfg").write_text(workloads.config_text(workload, 1) + TINY)
    for argv in workloads.setup_calls(workload, 1, tmp_path) + workloads.timed_calls(
            workload, tmp_path, tmp_path):
        assert main(argv) == EXIT_OK
    checks, _ = workloads.check_outputs(workload, tmp_path, tmp_path, 1)
    assert [name for name, ok in checks if not ok] == []


def test_score_factors_each_covariance_twice(tmp_path, monkeypatch):
    # spd_inverse factors one diagonal block and one Schur complement.  At
    # 300 features both have 150 rows, above the factor's 64-row leaf, so
    # spd_factor recurses; a recursion through the public name would add
    # spans, or calls the tracer cannot see.
    counts = {"spd_inverse": 0, "public spd_factor": 0}

    def counted(key, fn):
        def call(*args):
            counts[key] += 1
            return fn(*args)
        return call
    monkeypatch.setattr(sngp.gp_layer, "spd_inverse",
                        counted("spd_inverse", sngp.gp_layer.spd_inverse))
    monkeypatch.setattr(sngp.linalg, "spd_factor",
                        counted("public spd_factor", sngp.linalg.spd_factor))
    wide = TINY.replace("num_features = 32", "num_features = 300")
    calls = traced_calls(tmp_path, "score", wide)
    # The untraced set-up's train inverts its saved precision once to check
    # it; the traced surface and eval each build the one covariance of a binary head.
    assert counts == {"spd_inverse": 3, "public spd_factor": 0}
    assert calls["linalg.spd_factor"] == 2 * (counts["spd_inverse"] - 1)


def pinned_train_calls(cfg: RunConfig) -> dict[str, int]:
    """The call counts ``train`` repeats on any seed: one loss per SGD step;
    one power iteration per block and step plus 10 warm-up passes per block;
    one precision update per step of the final epoch; one clamp at build and
    one after training."""
    per_epoch = math.ceil(2 * cfg.n_per_class / cfg.batch_size)
    steps = cfg.epochs * per_epoch
    return {"train.loss_and_grads": steps, "linalg.power_iteration": cfg.depth * (steps + 10),
            "gp_layer.precision_minibatch": per_epoch, "nn.clamp_network": 2}


def test_train_call_counts_follow_the_pinned_formula(tmp_path):
    pinned = load_perfbench("workloads").PINNED_CALLS["train"]
    assert pinned_train_calls(RunConfig()) == pinned
    tiny = pinned_train_calls(parse_run_config(TINY))
    assert tiny == {"train.loss_and_grads": 2, "linalg.power_iteration": 24,
                    "gp_layer.precision_minibatch": 2, "nn.clamp_network": 2}
    calls = traced_calls(tmp_path, "train")
    assert {name: calls.get(name) for name in pinned} == tiny


def test_rows_of_work_reads_the_default_config():
    # The harness reads RunConfig() for its throughput after the timed phase.
    rows_of_work = load_perfbench("workloads").rows_of_work
    assert [rows_of_work(w) for w in ("train", "score", "compare")] == [40_000, 12_500, 85_000]
