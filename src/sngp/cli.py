"""Command-line surface for reproducible desk-scale experiments.

Subcommands:

    gen-data   write a benchmark dataset CSV
    train      train a model from a key=value config, write checkpoint + report
    surface    evaluate an uncertainty metric over a grid, write CSV (+PGM)
    eval       score a checkpoint on a dataset (accuracy/ECE/NLL/Brier + OOD)
    verify     run the theory / lipschitz / kernel oracle suites
    compare    train several variants on one dataset, emit a metrics CSV

Config files are plain ``key = value`` lines; ``#`` starts a comment.
Unknown keys are rejected; every effective value is echoed into outputs.

Exit codes: 0 ok, 2 usage or input error (running out of memory included),
3 training divergence (a GP head whose precision does not invert included),
4 metric/model incompatibility, 5 verification failure.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import dataclass, fields, replace

import numpy as np

from . import data as data_mod
from . import theory
from .baselines import build_variant, ensemble_predict, train_ensemble, VARIANT_TAGS
from .gp_layer import GpPrediction
from .linalg import NotSpdError, RngState
from .metrics import (PredictionSet, auroc, aupr, brier, dempster_shafer, ece,
                      margin_uncertainty, metrics_report, nll, variance_uncertainty)
from .nn import build_res_ffn, lipschitz_probe, normalize_network, power_iteration
from .train import (ModelSpec, SngpModel, TrainConfig, TrainingDivergedError, TrainReport,
                    load_checkpoint, predict_batch, save_checkpoint, train)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DIVERGED = 3
EXIT_INCOMPATIBLE = 4
EXIT_VERIFY_FAILED = 5

FORMAT_VERSION = 1


class IncompatibleMetricError(ValueError):
    """Requested uncertainty metric does not apply to the loaded model."""


class VerificationFailure(RuntimeError):
    """An oracle suite property failed; message names the first failure."""


@dataclass(frozen=True)
class RunConfig:
    """The run-level keys, plus the model spec and the training settings that
    declare every other config key, each in one section.  A key reads flat
    (``cfg.epochs``) through ``CONFIG_KEYS``.  Each value gets its default
    and its check from its owner alone, when built (``ValueError`` naming the
    key); the layers and data generators it feeds take the values as given."""

    variant: str = "sngp"
    dataset: str = "two_moons"
    n_per_class: int = 500
    noise_sd: float = 0.1
    data_seed: int = 7
    ensemble_size: int = 10
    mc_samples: int = 10
    spec: ModelSpec = ModelSpec()
    train: TrainConfig = TrainConfig()

    def __post_init__(self):
        if self.variant not in VARIANT_TAGS:
            raise ValueError(f"unknown variant {self.variant!r}; expected one of {VARIANT_TAGS}")
        if self.dataset not in DATASETS:
            raise ValueError(f"unknown dataset {self.dataset!r}")
        for name, low in (("n_per_class", 1), ("data_seed", 0), ("ensemble_size", 1),
                          ("mc_samples", 1)):
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be >= {low}, got {getattr(self, name)!r}")
        if not self.noise_sd >= 0.0:  # NaN fails too
            raise ValueError(f"noise_sd must be >= 0, got {self.noise_sd!r}")
        if math.isinf(self.noise_sd):
            raise ValueError(f"noise_sd must be finite, got {self.noise_sd!r}")

    def __getattr__(self, name: str):
        # Non-fields only; reads the key table before ``self``, so copies cannot recurse.
        entry = CONFIG_KEYS.get(name)
        if entry is None or entry[1] == "run":
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        return getattr(getattr(self, entry[1]), name)

    def echo(self) -> dict:
        """Every config key and its effective value, in ``CONFIG_KEYS`` order."""
        return {key: getattr(self, key) for key in CONFIG_KEYS}

    def text(self) -> str:
        """The echo as the ``key = value`` lines that ``parse_run_config`` reads back."""
        return "".join(f"{key} = {value}\n" for key, value in self.echo().items())


DATASETS = ("two_moons", "two_ovals")
# Fields that are not config keys: the two sections, the switches the variant tag sets
# (``build_variant``) and the sizes of the 2-D, two-class data.
_NOT_KEYS = ("spec", "train", "spectral_norm", "gp_head", "identity_hidden", "input_dim",
             "num_classes")
_SECTIONS = (("run", RunConfig), ("spec", ModelSpec), ("train", TrainConfig))
# Config key -> its type and the one section whose fields declare it.
CONFIG_KEYS = {f.name: (f.type, section) for section, cls in _SECTIONS
               for f in fields(cls) if f.name not in _NOT_KEYS}


def _coerce(raw: str, kind: str):
    if kind == "bool":
        low = raw.lower()
        if low in ("true", "1", "yes"):
            return True
        if low in ("false", "0", "no"):
            return False
        raise ValueError(f"expected a boolean, got {raw!r}")
    return {"int": int, "float": float, "str": str}[kind](raw)


def parse_run_config(text: str) -> RunConfig:
    """Parse ``key = value`` lines into a RunConfig, each into its key's section.
    A key may appear once."""
    values = {section: {} for section, _ in _SECTIONS}
    key_lines = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno}: expected key=value, got {line!r}")
        key, raw = (part.strip() for part in line.split("=", 1))
        if key not in CONFIG_KEYS:
            raise ValueError(f"config line {lineno}: unknown key {key!r}")
        if key in key_lines:
            raise ValueError(f"config line {lineno}: key {key!r} is already set "
                             f"on line {key_lines[key]}")
        key_lines[key] = lineno
        kind, section = CONFIG_KEYS[key]
        try:
            values[section][key] = _coerce(raw, kind)
        except ValueError as exc:
            raise ValueError(f"config line {lineno}: {exc}") from exc
    return RunConfig(**values["run"], spec=ModelSpec(**values["spec"]),
                     train=TrainConfig(**values["train"]))


def load_run_config(path: str | None) -> RunConfig:
    if path is None:
        return RunConfig()
    with open(path, "r", encoding="utf-8") as f:
        return parse_run_config(f.read())


def _make_dataset(cfg: RunConfig) -> data_mod.Dataset2D:
    if cfg.dataset == "two_moons":
        return data_mod.gen_two_moons(cfg.n_per_class, cfg.noise_sd, cfg.data_seed)
    return data_mod.gen_two_ovals(cfg.n_per_class, cfg.data_seed)


def _train_variant(tag: str, cfg: RunConfig, ds, out: str | None = None
                   ) -> tuple[list[SngpModel], list[TrainReport]]:
    """The trained models of one variant tag (the members of a deep ensemble,
    else one model) and their reports, finished as SNGP finishes training: each
    GP head inverts its precision into its covariance here, once, for every
    prediction after (``RffGpLayer.covariance``).  Given ``out``, the models are
    saved first, to ``out`` (a deep ensemble's to ``out.member<i>``), since the
    covariance replaces the precision a checkpoint stores.  A precision that does
    not invert raises ``TrainingDivergedError``, after removing every file written."""
    ensemble = tag == "deep_ensemble"
    if ensemble:
        models, reports = train_ensemble(cfg.spec, cfg.ensemble_size, ds.points, ds.labels,
                                         cfg.train)
    else:
        models = [build_variant(tag, cfg.spec)]
        reports = [train(models[0], ds.points, ds.labels, cfg.train)]
    paths = [] if out is None else [f"{out}.member{i}" if ensemble else out
                                    for i in range(len(models))]
    for model, path in zip(models, paths):
        save_checkpoint(model, path, cfg.text())
    try:
        for model in models:
            if model.has_gp_head:
                model.head.covariance()
    except NotSpdError as exc:
        for path in paths:
            os.remove(path)
        raise TrainingDivergedError(f"{exc}; no checkpoint written" if paths
                                    else str(exc)) from None
    return models, reports


# -- models behind one prediction interface --------------------------------------


class LoadedModel:
    """One model or an ensemble, and the run config that trained it, behind one prediction
    interface; a single model predicts through ``predict_batch``, which draws from its seed.

    Its models only predict: a single GP-head model's precision is inverted in place
    (``RffGpLayer.covariance``) by ``_train_variant``, or by a loaded model's first
    prediction, so the head holds its covariance only and can no longer be trained or
    saved.  An ensemble predicts from its members' mean logits alone, so
    ``from_checkpoints`` frees each GP-head member's precision as soon as that member
    is loaded (``RffGpLayer.free_precision``)."""

    def __init__(self, models: list[SngpModel], cfg: RunConfig):
        self.models = models
        self.cfg = cfg
        self.num_classes = models[0].num_classes
        self.is_ensemble = len(models) > 1

    @classmethod
    def from_checkpoints(cls, paths: list[str]) -> "LoadedModel":
        loaded = []
        for path in paths:
            loaded.append(load_checkpoint(path))
            model = loaded[-1][0]
            if len(paths) > 1 and model.has_gp_head:  # before the next member is read
                model.head.free_precision()
        config = loaded[0][1].get("config")
        if not isinstance(config, str):
            raise ValueError(f"checkpoint config must be text, got {type(config).__name__}")
        try:
            cfg = parse_run_config(config)
        except ValueError as exc:  # say which file holds the config
            raise ValueError(f"{paths[0]}: {exc}") from exc
        return cls([m for m, _ in loaded], cfg)

    @property
    def has_gp_head(self) -> bool:
        return (not self.is_ensemble) and self.models[0].has_gp_head

    def predict(self, x: np.ndarray) -> GpPrediction:
        if self.is_ensemble:
            return ensemble_predict(self.models, x)
        return predict_batch(self.models[0], x, mc_samples=self.cfg.mc_samples)

    def native_metric(self) -> str:
        return "variance" if self.has_gp_head else "margin"

    def echo(self, **output) -> dict:
        """``_echo`` of its run config, each model key read from its first model's spec."""
        return _echo(replace(self.cfg, spec=self.models[0].spec), **output)


def _score_fn(loaded: LoadedModel, metric: str):
    """The OOD score of a prediction for ``metric``, checked against the model
    before anything is predicted."""
    if metric == "variance":
        if not loaded.has_gp_head:
            raise IncompatibleMetricError(
                "variance uncertainty requires a single GP-head checkpoint")
        return variance_uncertainty
    if metric == "margin":
        if loaded.num_classes != 2:
            raise IncompatibleMetricError("margin uncertainty requires K = 2")
        return margin_uncertainty
    if metric == "ds":
        if loaded.is_ensemble:
            raise IncompatibleMetricError(
                "logit-magnitude uncertainty needs a single model's logits")
        return lambda pred: dempster_shafer(pred.mean_logits)
    raise IncompatibleMetricError(f"unknown metric {metric!r}")


# -- subcommands ----------------------------------------------------------------


def _echo(cfg: RunConfig, **output) -> dict:
    """What every output writes first, as ``key=value`` lines: the format version,
    the ``output`` entries, then each config key as ``config.<key>`` in key order."""
    return {"format_version": FORMAT_VERSION, **output,
            **{f"config.{k}": v for k, v in cfg.echo().items()}}


def cmd_gen_data(args) -> int:
    ds = _make_dataset(RunConfig(dataset=args.dataset, n_per_class=args.n,
                                 noise_sd=args.noise, data_seed=args.seed))
    meta = {"format_version": FORMAT_VERSION, "dataset": args.dataset, "n_per_class": args.n,
            "noise_sd": args.noise, "seed": args.seed}
    data_mod.dataset_to_csv(ds, args.out, meta=meta)
    print(f"wrote {len(ds.labels)} labeled rows + {len(ds.ood_points)} OOD rows to {args.out}")
    return EXIT_OK


def cmd_train(args) -> int:
    """Train, save and finish the config's variant through ``_train_variant`` (a GP
    head whose precision does not invert leaves no checkpoint: exit 3); the report
    holds the config echo, then each model's training report."""
    cfg = load_run_config(args.config)
    models, reports = _train_variant(cfg.variant, cfg, _make_dataset(cfg), args.out)
    ensemble = cfg.variant == "deep_ensemble"
    print(f"wrote {len(models)} member checkpoints to {args.out}.member*" if ensemble
          else f"wrote checkpoint to {args.out}")
    if args.report:
        with open(args.report, "w", encoding="utf-8") as f:
            f.writelines(f"{k}={v}\n" for k, v in _echo(cfg).items())
            f.writelines(r.as_text() for r in reports)
    for r in reports:
        print(f"seed {r.seed}: final train accuracy {r.final_train_accuracy:.4f} "
              f"in {r.wall_clock_s:.1f}s")
    return EXIT_OK


def _parse_grid(spec: str) -> data_mod.EvalGrid:
    parts = spec.split(",")
    if len(parts) != 6:
        raise ValueError("grid spec must be x1min,x1max,x2min,x2max,nx,ny")
    x1_min, x1_max, x2_min, x2_max = (float(p) for p in parts[:4])
    nx, ny = int(parts[4]), int(parts[5])
    return data_mod.gen_grid((x1_min, x1_max, x2_min, x2_max), (nx, ny))


def cmd_surface(args) -> int:
    loaded = LoadedModel.from_checkpoints(args.checkpoint)
    grid = _parse_grid(args.grid)
    points = grid.points()
    score = _score_fn(loaded, args.metric)
    values = score(loaded.predict(points))
    data_mod.surface_to_csv(points, values, args.out,
                            meta=loaded.echo(metric=args.metric, grid=args.grid))
    if args.pgm:
        data_mod.surface_to_pgm(values, grid, args.pgm, meta={"metric": args.metric})
    print(f"wrote {len(values)} surface rows to {args.out}")
    return EXIT_OK


def _score_model(loaded: LoadedModel, ds: data_mod.Dataset2D, metric: str) -> dict:
    """Accuracy, calibration and OOD ranking from one prediction of the
    labelled rows and one of the OOD rows."""
    bad = ds.labels[(ds.labels < 0) | (ds.labels >= loaded.num_classes)]
    if bad.size:
        raise ValueError(f"label {int(bad[0])} is out of range for a checkpoint with "
                         f"{loaded.num_classes} classes")
    has_ood = len(ds.ood_points) > 0
    if has_ood:
        metric = loaded.native_metric() if metric == "auto" else metric
        score = _score_fn(loaded, metric)
    pred = loaded.predict(ds.points)
    preds = PredictionSet(probs=pred.probs, labels=ds.labels)
    # Class decisions are the MAP rule, untouched by the Monte Carlo shrinkage of
    # the probabilities; an ensemble decides by its mean member probabilities.
    hard_labels = np.argmax(pred.probs if loaded.is_ensemble else pred.mean_logits, axis=1)
    out = {
        "accuracy": float(np.mean(hard_labels == ds.labels)),
        "ece": ece(preds),
        "nll": nll(preds),
        "brier": brier(preds),
    }
    if has_ood:
        scores = np.concatenate([score(pred), score(loaded.predict(ds.ood_points))])
        flags = np.concatenate([np.zeros(len(ds.points), dtype=bool),
                                np.ones(len(ds.ood_points), dtype=bool)])
        out["auroc"] = auroc(scores, flags)
        out["aupr"] = aupr(scores, flags)
        out["ood_metric"] = metric
    return out


def cmd_eval(args) -> int:
    loaded = LoadedModel.from_checkpoints(args.checkpoint)
    ds = data_mod.dataset_from_csv(args.data)
    if args.ood_data:
        ds.ood_points = data_mod.ood_points_from_csv(args.ood_data)
    values = _score_model(loaded, ds, args.uncertainty)
    lines = [f"{k}={v}" for k, v in loaded.echo().items()]
    report = "\n".join(lines) + "\n" + metrics_report(
        {k: v for k, v in values.items() if isinstance(v, float)})
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            f.write(report)
    print(report, end="")
    return EXIT_OK


def cmd_compare(args) -> int:
    cfg = load_run_config(args.config)
    if args.dataset:
        cfg = replace(cfg, dataset=args.dataset)
    variants = [v.strip() for v in args.variants.split(",") if v.strip()]
    if not variants:
        raise ValueError(f"--variants names no variant, got {args.variants!r}")
    for v in variants:
        if v not in VARIANT_TAGS:
            raise ValueError(f"unknown variant {v!r}")
    ds = _make_dataset(cfg)
    rows = []
    for tag in variants:
        try:
            models, _ = _train_variant(tag, cfg, ds)
        except TrainingDivergedError as exc:
            if rows:  # keep the rows of the variants that did train
                _write_table(args.out, cfg, rows)
            raise TrainingDivergedError(f"variant {tag}: {exc}") from None
        loaded = LoadedModel(models, cfg)
        rows.append({"variant": tag, **_score_model(loaded, ds, "auto")})
        del models, loaded  # so that the next variant does not train beside this one
    _write_table(args.out, cfg, rows)
    return EXIT_OK


def _write_table(path: str, cfg: RunConfig, rows: list[dict]) -> None:
    """Write and print the ``compare`` table: the config echo, then one row per variant."""
    columns = ["variant", "accuracy", "ece", "nll", "brier", "auroc", "aupr"]
    lines = [f"# {k}={v}" for k, v in _echo(cfg).items()]
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(
            row[c] if isinstance(row[c], str) else f"{row[c]:.17g}" for c in columns))
    text = "\n".join(lines) + "\n"
    with open(path, "w", encoding="utf-8") as f:
        f.write(text)
    print(text, end="")


# -- verification suites ---------------------------------------------------------


def _check(name: str, ok: bool, failure: str) -> None:
    """Print a suite's ``[PASS]``/``[FAIL]`` line for ``name``; a failed
    property raises ``VerificationFailure`` with ``failure``."""
    print(f"[{'PASS' if ok else 'FAIL'}] {name}")
    if not ok:
        raise VerificationFailure(failure)


def _verify_theory() -> None:
    for k in (2, 3):
        for rule_name in ("brier", "log"):
            rule = theory.brier_rule(k) if rule_name == "brier" else theory.log_rule()
            rule.check_concavity()
            uniform = np.full(k, 1.0 / k)
            mm = theory.minimax_oracle(k, 0.05, rule)
            me = theory.max_entropy_oracle(k, 0.05, rule)
            for name, point in (("minimax", mm), ("max_entropy", me)):
                _check(f"theory.{name}_uniform K={k} rule={rule_name}",
                       np.all(np.abs(point - uniform) <= 0.05 + 1e-12),
                       f"{name} point {point} is not uniform for K={k}, {rule_name}")
            _check(f"theory.minimax_equals_max_entropy K={k} rule={rule_name}",
                   np.allclose(mm, me), f"minimax {mm} != max-entropy {me}")
    rng = RngState(1234).derive("verify_theory")
    for rule_name in ("brier", "log"):
        rule = theory.brier_rule(3) if rule_name == "brier" else theory.log_rule()
        worst = np.inf
        for _ in range(100):
            p = rng.uniform(3, 0.05, 1.0)
            p /= p.sum()
            q = rng.uniform(3, 0.05, 1.0)
            q /= q.sum()
            if np.allclose(p, q):
                continue
            margin = theory.bregman_score(q, p, rule) - theory.bregman_score(p, p, rule)
            worst = min(worst, margin)
        _check(f"theory.strict_propriety rule={rule_name} (min margin {worst:.3g})",
               worst > 0.0, f"propriety margin {worst} <= 0 for {rule_name}")


def _verify_lipschitz() -> None:
    c, depth, width = 0.9, 3, 16
    rng = RngState(99)
    net = build_res_ffn(2, width, depth, rng.derive("net"), dropout_rate=0.0, sn_bound=c)
    for _ in range(200):
        normalize_network(net)
    probe_rng = rng.derive("pairs")
    pairs = [(probe_rng.uniform(2, -3.0, 3.0), probe_rng.uniform(2, -3.0, 3.0))
             for _ in range(1000)]
    lo, hi, _ = lipschitz_probe(net, pairs)
    lower, upper = (1.0 - c) ** depth, (1.0 + c) ** depth
    _check(f"lipschitz.probe_bounds [{lo:.4f}, {hi:.4f}] within [{lower:.4f}, {upper:.4f}]",
           lower <= lo and hi <= upper, f"probe ratios [{lo}, {hi}] escape [{lower}, {upper}]")
    for i, blk in enumerate(net.blocks):
        sigma, _ = power_iteration(blk.layer.weight, iters=500,
                                   u0=rng.derive(f"pi{i}").normal(width))
        _check(f"lipschitz.spectral_norm block{i} sigma={sigma:.6f} <= {c}",
               sigma <= c + 1e-6, f"block {i} spectral norm {sigma} exceeds {c}")


def _verify_kernel() -> None:
    from .gp_layer import KERNEL_ABS_ERROR, RffGpLayer, half_angle_cos_sin
    rng = RngState(4242)
    layer = RffGpLayer(in_dim=2, num_features=4096, num_classes=2, length_scale=1.0,
                       ridge_s=0.001, discount_m=0.999, use_layer_norm=False)
    layer.draw(rng.derive("gp"))
    pair_rng = rng.derive("pairs")
    xs = pair_rng.uniform(200, -2.0, 2.0).reshape(100, 2)
    ys = pair_rng.uniform(200, -2.0, 2.0).reshape(100, 2)
    phi_x = layer.rff_features(xs)
    phi_y = layer.rff_features(ys)
    approx = np.einsum("ij,ij->i", phi_x, phi_y)
    exact = np.exp(-np.sum((xs - ys) ** 2, axis=1) / 2.0)
    frac = float(np.mean(np.abs(approx - exact) <= 0.05))
    _check(f"kernel.rbf_fidelity within 0.05 on {frac:.0%} of pairs", frac >= 0.95,
           f"kernel fidelity only on {frac:.0%} of pairs")
    # The features' cosine and sine against libm, |z| log-spread over [1, 1e12].
    z_rng = rng.derive("half_angle")
    z = np.copysign(10.0 ** z_rng.uniform(4096, 0.0, 12.0), z_rng.uniform(4096, -1.0, 1.0))
    cos_z, sin_z = half_angle_cos_sin(0.5 * z)
    err = max(np.max(np.abs(cos_z - np.cos(z))), np.max(np.abs(sin_z - np.sin(z))))
    _check(f"kernel.half_angle_cos_sin max abs error {err:.2e} <= {KERNEL_ABS_ERROR:.0e} "
           f"for |z| up to 1e12", err <= KERNEL_ABS_ERROR,
           f"half-angle cos/sin off libm by {err:.3g} (> {KERNEL_ABS_ERROR:g})")


def cmd_verify(args) -> int:
    suites = {"theory": _verify_theory, "lipschitz": _verify_lipschitz,
              "kernel": _verify_kernel}
    suites[args.suite]()
    return EXIT_OK


# -- entry point -----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="sngp",
                                     description="Distance-aware classifier workbench")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="write a benchmark dataset CSV")
    p.add_argument("--dataset", required=True, choices=DATASETS)
    p.add_argument("--n", type=int, default=RunConfig.n_per_class, help="points per class")
    p.add_argument("--noise", type=float, default=RunConfig.noise_sd, help="two-moons noise sd")
    p.add_argument("--seed", type=int, default=RunConfig.data_seed)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train", help="train a model per config")
    p.add_argument("--config", help="key=value config file (defaults when omitted)")
    p.add_argument("--out", required=True, help="checkpoint path")
    p.add_argument("--report", help="training report path")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("surface", help="uncertainty surface over a grid")
    p.add_argument("--checkpoint", required=True, nargs="+",
                   help="checkpoint path(s); several paths form an ensemble")
    p.add_argument("--grid", required=True, help="x1min,x1max,x2min,x2max,nx,ny")
    p.add_argument("--metric", required=True, choices=["variance", "margin", "ds"])
    p.add_argument("--out", required=True)
    p.add_argument("--pgm", help="optional PGM heatmap path")
    p.set_defaults(func=cmd_surface)

    p = sub.add_parser("eval", help="score a checkpoint on a dataset")
    p.add_argument("--checkpoint", required=True, nargs="+")
    p.add_argument("--data", required=True, help="dataset CSV")
    p.add_argument("--ood-data", help="dataset CSV of OOD points, used in place of "
                   "--data's -1 rows: its -1 rows, or all its rows if it has none")
    p.add_argument("--uncertainty", default="auto",
                   choices=["auto", "variance", "margin", "ds"])
    p.add_argument("--out", help="report path (also printed)")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("verify", help="run an oracle suite")
    p.add_argument("--suite", required=True, choices=["theory", "lipschitz", "kernel"])
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("compare", help="train variants and emit a metrics CSV")
    p.add_argument("--variants", required=True, help="comma-separated variant tags")
    p.add_argument("--dataset", choices=DATASETS)
    p.add_argument("--config", help="key=value config file")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_compare)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except TrainingDivergedError as exc:
        print(f"error: training diverged: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    except IncompatibleMetricError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INCOMPATIBLE
    except VerificationFailure as exc:
        print(f"error: verification failed: {exc}", file=sys.stderr)
        return EXIT_VERIFY_FAILED
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:  # a size too large for this machine
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
