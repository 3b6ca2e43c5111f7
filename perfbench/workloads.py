"""The three workloads: their inputs, their timed CLI calls, the size of the
work they do, the spans they must exercise, and the checks on their outputs.

* ``train``   ``sngp train`` on the default ``RunConfig`` (sngp on two moons,
  width 128, depth 12, 1024 random features, 40 x 32 SGD steps).  Network
  forward/backward, spectral normalization, SGD and the random-feature
  forward/backward do the work; the predictive-variance solve never runs.
* ``score``   the prediction path on a checkpoint trained during set-up:
  ``sngp surface --metric variance`` on a 100 x 100 grid, then ``sngp eval``
  on the two-moons CSV with its OOD rows.  Cholesky factorization, the SPD
  solve with 10k right-hand sides, MC softmax, checkpoint load and CSV
  write; no training code runs.
* ``compare`` ``sngp compare --variants dnn_sn,shallow_gp --dataset
  two_ovals`` with the README's desk-scale settings.  The same layers used
  differently: a dense head with no random features, and a GP head on the
  raw 2-D input with the one-pass exact precision.

The workload seed is written into the config as ``seed`` and ``data_seed``;
the program sees only the generated config and CSV files.
"""

from __future__ import annotations

import hashlib
import math
from pathlib import Path

import numpy as np

WORKLOADS = ("train", "score", "compare")
GRID = "-2.5,3.5,-2,3,100,100"
GRID_ROWS = 100 * 100
COMPARE_VARIANTS = ("dnn_sn", "shallow_gp")
SN_TOLERANCE = 1e-6          # acceptance criterion 4's tolerance on the spectral bound
VARIANCE_RTOL = 1e-6         # surface variance against an independent np.linalg.solve
VARIANCE_SAMPLE_ROWS = 64

# Spans each workload must record at least one call of in a traced repeat.
EXPECTED_SPANS = {
    "train": ["cli", "train.loop", "train.build_model", "train.loss_and_grads", "nn.forward",
              "nn.backward", "nn.sgd_step", "nn.spectral_normalize", "nn.clamp_network",
              "linalg.power_iteration", "gp_layer.features", "gp_layer.backprop_features",
              "gp_layer.precision_minibatch", "train.save_checkpoint"],
    "score": ["cli", "train.load_checkpoint", "train.predict_batch", "nn.forward",
              "gp_layer.features", "gp_layer.variance", "linalg.spd_factor", "linalg.spd_solve",
              "baselines.variance_uncertainty", "data.io", "metrics"],
    "compare": ["cli", "train.loop", "train.build_model", "train.loss_and_grads",
                "train.predict_batch", "nn.forward", "nn.backward", "nn.sgd_step",
                "nn.spectral_normalize", "nn.clamp_network", "linalg.power_iteration",
                "gp_layer.features", "gp_layer.backprop_features", "gp_layer.precision_exact",
                "gp_layer.variance", "linalg.spd_factor", "linalg.spd_solve",
                "baselines.variance_uncertainty", "metrics"],
}
# Call counts that repeat exactly on any seed of the default ``train`` config:
# 40 epochs x 32 minibatches; 12 blocks x (1,280 steps + 10 warm-up passes);
# the final epoch's 32 precision updates; one clamp at build and one after training.
PINNED_CALLS = {"train": {"train.loss_and_grads": 1280, "linalg.power_iteration": 15480,
                          "gp_layer.precision_minibatch": 32, "nn.clamp_network": 2}}


def config_text(workload: str, seed: int) -> str:
    lines = [f"seed = {seed}", f"data_seed = {seed}"]
    if workload == "compare":
        lines += ["precision_exact = true", "use_layer_norm = false"]
    return "\n".join(lines) + "\n"


def setup_calls(workload: str, seed: int, dest: Path) -> list[list[str]]:
    """CLI calls that build a workload's inputs after its config is written."""
    if workload != "score":
        return []
    return [["gen-data", "--dataset", "two_moons", "--seed", str(seed),
             "--out", str(dest / "moons.csv")],
            ["train", "--config", str(dest / "run.cfg"), "--out", str(dest / "model.ckpt")]]


def timed_calls(workload: str, inputs: Path, out: Path) -> list[list[str]]:
    """The CLI calls of one timed repeat, writing into ``out``."""
    cfg = str(inputs / "run.cfg")
    if workload == "train":
        return [["train", "--config", cfg, "--out", str(out / "model.ckpt"),
                 "--report", str(out / "train.txt")]]
    if workload == "score":
        ckpt = str(inputs / "model.ckpt")
        return [["surface", "--checkpoint", ckpt, f"--grid={GRID}", "--metric", "variance",
                 "--out", str(out / "surface.csv")],
                ["eval", "--checkpoint", ckpt, "--data", str(inputs / "moons.csv"),
                 "--out", str(out / "eval.txt")]]
    return [["compare", "--variants", ",".join(COMPARE_VARIANTS), "--dataset", "two_ovals",
             "--config", cfg, "--out", str(out / "table.csv")]]


# Files a repeat writes that must be byte-identical across repeats (the train
# report is not: it carries the loop's wall-clock time).
HASHED_OUTPUTS = {"train": ["model.ckpt"], "score": ["surface.csv", "eval.txt"],
                  "compare": ["table.csv"]}
HASHED_INPUTS = {"train": ["run.cfg"], "score": ["run.cfg", "moons.csv", "model.ckpt"],
                 "compare": ["run.cfg"]}


def sha256s(directory: Path, names: list[str]) -> dict[str, str]:
    return {n: hashlib.sha256((directory / n).read_bytes()).hexdigest()
            for n in names if (directory / n).is_file()}


def rows_of_work(workload: str) -> int:
    """Rows processed by one timed repeat, at the default config's sizes."""
    from sngp.cli import RunConfig
    cfg = RunConfig()
    n_train = 2 * cfg.n_per_class
    n_ood = cfg.n_per_class
    if workload == "train":
        return cfg.epochs * n_train                      # sample-visits
    if workload == "score":
        return GRID_ROWS + n_train + (n_train + n_ood)   # grid + eval rows + OOD-scored rows
    # per variant: sample-visits, predicted rows, OOD-scored rows
    return len(COMPARE_VARIANTS) * (cfg.epochs * n_train + n_train + n_train + n_ood)


# -- output checks --------------------------------------------------------------------


def _key_values(path: Path) -> dict[str, str]:
    out = {}
    for line in path.read_text().splitlines():
        key, sep, value = line.partition("=")
        if sep:
            out[key.strip()] = value.strip()
    return out


def _finite(values) -> bool:
    return all(math.isfinite(v) for v in values)


def _check_train(inputs: Path, out: Path, _seed: int):
    from sngp.train import load_checkpoint
    report = _key_values(out / "train.txt")
    accuracy = float(report["final_train_accuracy"])
    losses = [float(v) for k, v in report.items() if k.startswith("loss_epoch_")]
    model, _ = load_checkpoint(str(out / "model.ckpt"))
    bound = model.network.blocks[0].layer.sn_bound
    sigma = max(float(np.linalg.norm(b.layer.weight, 2)) for b in model.network.blocks)
    checks = [("train report", 0.0 <= accuracy <= 1.0 and len(losses) > 0 and _finite(losses)),
              ("spectral bound", sigma <= bound + SN_TOLERANCE)]
    return checks, {"accuracy": accuracy, "nll": losses[-1]}


def _check_score(inputs: Path, out: Path, seed: int):
    from sngp.data import surface_from_csv
    from sngp.train import load_checkpoint
    points, values = surface_from_csv(str(out / "surface.csv"))
    model, _ = load_checkpoint(str(inputs / "model.ckpt"))
    rows = np.random.default_rng(seed).choice(len(points), VARIANCE_SAMPLE_ROWS, replace=False)
    h, _ = model.hidden(points[rows])
    phi = model.head.rff_features(h)
    expected = np.mean([np.einsum("ij,ji->i", phi, np.linalg.solve(p, phi.T))
                        for p in model.head.precision], axis=0)
    report = {k: float(v) for k, v in _key_values(out / "eval.txt").items()
              if k in ("accuracy", "ece", "nll", "brier", "auroc", "aupr")}
    checks = [("surface values", len(values) == GRID_ROWS and bool(np.all(np.isfinite(values)))
               and bool(np.all(values >= 0.0))),
              ("surface variance vs solve",
               bool(np.allclose(values[rows], expected, rtol=VARIANCE_RTOL, atol=0.0))),
              ("eval report", len(report) == 6 and _finite(report.values())
               and all(0.0 <= report[k] <= 1.0 for k in ("accuracy", "auroc", "aupr")))]
    return checks, report


def _check_compare(inputs: Path, out: Path, _seed: int):
    lines = [ln for ln in (out / "table.csv").read_text().splitlines()
             if ln and not ln.startswith("#")]
    header = lines[0].split(",")
    rows = [dict(zip(header, ln.split(","))) for ln in lines[1:]]
    columns = [c for c in header if c != "variant"]
    table = [{c: float(r[c]) for c in columns} for r in rows]
    checks = [("compare table", [r["variant"] for r in rows] == list(COMPARE_VARIANTS)
               and all(_finite(r.values()) for r in table)
               and all(0.0 <= r[c] <= 1.0 for r in table for c in ("auroc", "aupr")))]
    return checks, {c: float(np.mean([r[c] for r in table])) for c in columns}


_CHECKS = {"train": _check_train, "score": _check_score, "compare": _check_compare}


def check_outputs(workload: str, inputs: Path, out: Path, seed: int):
    """Check one repeat's outputs: ``([(check name, passed)], quality metrics)``.

    Outputs that cannot be read or parsed fail as one check.
    """
    try:
        checks, quality = _CHECKS[workload](inputs, out, seed)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return [(f"{workload} outputs readable ({type(exc).__name__}: {exc})", False)], {}
    return [(name, bool(ok)) for name, ok in checks], quality
