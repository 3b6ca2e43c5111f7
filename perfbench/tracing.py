"""Outside-in tracing of the package's layers.

Nothing under ``src/`` knows about tracing.  While a ``traced`` block is
active, each layer function in ``TARGETS`` is replaced, at the place its
callers look it up, by a wrapper that records a span (name, start, end,
parent) and the work counters computed from its arguments.  Two things decide
where to patch:

* ``import sngp.train`` yields the *function* ``train``, because the package
  re-exports it over the submodule, so modules are resolved with
  ``importlib.import_module``.
* A name imported with ``from .x import f`` is looked up in the importing
  module, so ``spectral_normalize`` is patched in ``sngp.nn`` (its caller),
  ``spd_factor`` in ``sngp.gp_layer``, ``predict_batch`` in ``sngp.cli`` and
  so on.  Methods are patched on their class.

A span's self time is its duration minus the time covered by its direct
children; ``cli`` is the root span around each CLI call, so ``cli.self_s`` is
the CLI's own time outside every wrapped layer.
"""

from __future__ import annotations

import functools
import importlib
import os
import statistics
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np

FLOAT_BYTES = 8
# SGD with momentum per parameter element: read g, read and write v, read and write p.
SGD_TOUCHES_PER_ELEMENT = 5


class Tracer:
    """Spans kept in flat in-memory lists, plus named work counters."""

    def __init__(self):
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.counters: dict[str, int] = defaultdict(int)
        self.step_s: list[float] = []
        self._stack = [-1]

    def call(self, name, fn, *args, **kwargs):
        i = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1])
        self.ends.append(0.0)
        self._stack.append(i)
        self.starts.append(perf_counter())
        try:
            return fn(*args, **kwargs)
        finally:
            self.ends[i] = perf_counter()
            self._stack.pop()

    def wrap(self, name, fn, count=None):
        def traced_call(*args, **kwargs):
            result = self.call(name, fn, *args, **kwargs)
            if count is not None:
                count(self.counters, result, *args, **kwargs)
            return result
        return functools.wraps(fn)(traced_call)

    def with_step_clock(self, train_fn):
        """``train`` with a hook that times each step, sgd_update to sgd_update."""
        def train(*args, **kwargs):
            if kwargs.get("hooks") is None:
                last = []

                def hooks(event, _epoch, _step):
                    if event == "sgd_update":
                        now = perf_counter()
                        if last:
                            self.step_s.append(now - last[0])
                        last[:] = [now]
                kwargs["hooks"] = hooks
            return train_fn(*args, **kwargs)
        return functools.wraps(train_fn)(train)

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, total seconds and self seconds."""
        child_s = [0.0] * len(self.names)
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                child_s[parent] += self.ends[i] - self.starts[i]
        out: dict[str, dict] = {}
        for i, name in enumerate(self.names):
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            duration = self.ends[i] - self.starts[i]
            row["calls"] += 1
            row["total_s"] += duration
            row["self_s"] += duration - child_s[i]
        return out

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="ascii") as f:
            f.write("id,parent,name,start_s,end_s\n")
            t0 = self.starts[0] if self.starts else 0.0
            for i, name in enumerate(self.names):
                f.write(f"{i},{self.parents[i]},{name},{self.starts[i] - t0:.9f},"
                        f"{self.ends[i] - t0:.9f}\n")


# -- work counters, computed from array shapes -------------------------------------


def _features(c, _result, layer, h):
    h = np.asarray(h)
    rows = h.shape[0] if h.ndim == 2 else 1
    width = layer.in_dim if layer.input_projection is None else layer.input_projection.shape[0]
    c["gp_layer.features.rows"] += rows
    c["gp_layer.features.flops_computed"] += 2 * rows * width * layer.num_features


def _fisher(prefix):
    def count(c, _result, layer, phi, _probs):
        rows, dim = np.shape(phi)
        c[f"{prefix}.flops_computed"] += 2 * rows * dim * dim * layer.num_classes
    return count


def _variance(c, _result, _layer, phi):
    c["gp_layer.variance.rows"] += np.shape(phi)[0]


def _spd_solve(c, _result, _factor, b):
    shape = np.shape(b)
    cols = shape[1] if len(shape) == 2 else 1
    c["linalg.spd_solve.rhs_cols"] += cols
    c["linalg.spd_solve.flops_computed"] += 2 * shape[0] * shape[0] * cols


def _spectral_normalize(c, sigma, layer):
    c["nn.spectral_normalize.rescales"] += int(sigma > 0.0 and layer.sn_bound < sigma)


def _sgd_step(c, _result, _optimizer, params, grads):
    elements = sum(p.size for name, p in params.items() if name in grads)
    c["nn.sgd_step.bytes"] += SGD_TOUCHES_PER_ELEMENT * FLOAT_BYTES * elements


def _file_bytes(key, path_index):
    def count(c, _result, *args, **_kwargs):
        c[key] += os.path.getsize(args[path_index])
    return count


# (module, attribute path where callers look the layer up, span name, counter)
TARGETS = [
    ("sngp.cli", "train", "train.loop", None),
    ("sngp.baselines", "build_sngp_model", "train.build_model", None),
    ("sngp.train", "loss_and_grads", "train.loss_and_grads", None),
    ("sngp.cli", "predict_batch", "train.predict_batch", None),
    ("sngp.cli", "save_checkpoint", "train.save_checkpoint",
     _file_bytes("train.save_checkpoint.bytes", 1)),
    ("sngp.cli", "load_checkpoint", "train.load_checkpoint", None),
    ("sngp.nn", "ResFfnNetwork.forward", "nn.forward", None),
    ("sngp.nn", "ResFfnNetwork.backward", "nn.backward", None),
    ("sngp.nn", "SgdMomentum.step", "nn.sgd_step", _sgd_step),
    ("sngp.nn", "spectral_normalize", "nn.spectral_normalize", _spectral_normalize),
    ("sngp.train", "clamp_network", "nn.clamp_network", None),
    ("sngp.nn", "power_iteration", "linalg.power_iteration", None),
    ("sngp.gp_layer", "spd_factor", "linalg.spd_factor", None),
    ("sngp.gp_layer", "spd_solve_factored", "linalg.spd_solve", _spd_solve),
    ("sngp.gp_layer", "RffGpLayer.features_with_tape", "gp_layer.features", _features),
    ("sngp.gp_layer", "RffGpLayer.backprop_features", "gp_layer.backprop_features", None),
    ("sngp.gp_layer", "RffGpLayer.update_precision_minibatch", "gp_layer.precision_minibatch",
     _fisher("gp_layer.precision_minibatch")),
    ("sngp.gp_layer", "RffGpLayer.update_precision_exact", "gp_layer.precision_exact",
     _fisher("gp_layer.precision_exact")),
    ("sngp.gp_layer", "RffGpLayer.predictive_variance_batch", "gp_layer.variance", _variance),
    ("sngp.cli", "variance_uncertainty", "baselines.variance_uncertainty", None),
    ("sngp.data", "dataset_to_csv", "data.io", _file_bytes("data.io.bytes", 1)),
    ("sngp.data", "dataset_from_csv", "data.io", _file_bytes("data.io.bytes", 0)),
    ("sngp.data", "surface_to_csv", "data.io", _file_bytes("data.io.bytes", 2)),
] + [("sngp.cli", name, "metrics", None)
     for name in ("ece", "nll", "brier", "auroc", "aupr", "metrics_report")]


def _owner(module: str, path: str):
    owner = importlib.import_module(module)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr


@contextmanager
def traced(tracer: Tracer):
    """Install every wrapper for the duration of the block; yields the targets
    that could not be found, so a renamed layer shows up as a coverage gap."""
    saved, missing = [], []
    try:
        for module, path, name, count in TARGETS:
            try:
                owner, attr = _owner(module, path)
                fn = getattr(owner, attr)
            except (ImportError, AttributeError):
                missing.append(f"{module}.{path}")
                continue
            if name == "train.loop":
                fn_traced = tracer.wrap(name, tracer.with_step_clock(fn), count)
            else:
                fn_traced = tracer.wrap(name, fn, count)
            saved.append((owner, attr, fn))
            setattr(owner, attr, fn_traced)
        yield missing
    finally:
        for owner, attr, fn in reversed(saved):
            setattr(owner, attr, fn)


SELF_TIME_SPANS = ["cli", "train.loop", "train.build_model", "train.loss_and_grads",
                   "train.predict_batch", "train.save_checkpoint", "train.load_checkpoint",
                   "nn.forward", "nn.backward", "nn.sgd_step", "nn.spectral_normalize",
                   "nn.clamp_network", "linalg.power_iteration", "linalg.spd_factor",
                   "linalg.spd_solve", "gp_layer.features", "gp_layer.backprop_features",
                   "gp_layer.precision_minibatch", "gp_layer.precision_exact",
                   "gp_layer.variance", "baselines.variance_uncertainty", "data.io", "metrics"]
CALL_COUNT_SPANS = ["train.loss_and_grads", "nn.spectral_normalize", "nn.clamp_network",
                    "linalg.power_iteration", "linalg.spd_factor", "gp_layer.precision_minibatch"]
COUNTERS = ["train.save_checkpoint.bytes", "data.io.bytes", "linalg.spd_solve.rhs_cols",
            "linalg.spd_solve.flops_computed", "gp_layer.features.rows",
            "gp_layer.features.flops_computed", "gp_layer.precision_minibatch.flops_computed",
            "gp_layer.precision_exact.flops_computed", "gp_layer.variance.rows"]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The per-layer metrics of one traced repeat (every name, zero when unused)."""
    spans = tracer.summary()

    def calls(span):
        return spans.get(span, {}).get("calls", 0)

    m: dict[str, float] = {f"{s}.self_s": spans.get(s, {}).get("self_s", 0.0)
                           for s in SELF_TIME_SPANS}
    m.update({f"{s}.calls": calls(s) for s in CALL_COUNT_SPANS})
    m.update({k: tracer.counters.get(k, 0) for k in COUNTERS})
    m["nn.spectral_normalize.rescale_ratio"] = _ratio(
        tracer.counters.get("nn.spectral_normalize.rescales", 0), calls("nn.spectral_normalize"))
    m["nn.sgd_step.bytes_computed"] = _ratio(tracer.counters.get("nn.sgd_step.bytes", 0),
                                             calls("nn.sgd_step"))
    # A solve that finds its class factor already cached reuses it.
    m["gp_layer.factor_reuse_ratio"] = _ratio(
        max(calls("linalg.spd_solve") - calls("linalg.spd_factor"), 0), calls("linalg.spd_solve"))
    steps_ms = [1e3 * s for s in tracer.step_s]
    if len(steps_ms) >= 100:
        cuts = statistics.quantiles(steps_ms, n=100)
        m["train.step_ms_p50"], m["train.step_ms_p99"] = cuts[49], cuts[98]
    else:
        m["train.step_ms_p50"] = m["train.step_ms_p99"] = 0.0
    return m
