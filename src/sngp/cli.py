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

Exit codes: 0 ok, 2 usage or input error, 3 training divergence,
4 metric/model incompatibility, 5 verification failure.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, fields

import numpy as np

from . import data as data_mod
from . import theory
from .baselines import (EnsembleModel, build_variant, ensemble_predict, train_ensemble,
                        VARIANT_TAGS)
from .gp_layer import GpPrediction
from .linalg import RngState
from .metrics import (PredictionSet, auroc, aupr, brier, dempster_shafer, ece,
                      margin_uncertainty, metrics_report, nll, variance_uncertainty)
from .nn import build_res_ffn, lipschitz_probe, normalize_network, power_iteration
from .train import (ModelSpec, SngpModel, TrainConfig, TrainingDivergedError,
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


@dataclass
class RunConfig:
    """Flat experiment configuration with documented defaults."""

    variant: str = "sngp"
    dataset: str = "two_moons"
    n_per_class: int = 500
    noise_sd: float = 0.1
    data_seed: int = 7
    hidden_width: int = 128
    depth: int = 12
    activation: str = "relu"
    dropout_rate: float = 0.01
    sn_bound: float = 0.9
    num_features: int = 1024
    length_scale: float = 2.0
    ridge_s: float = 0.001
    discount_m: float = 0.999
    use_layer_norm: bool = True
    ensemble_size: int = 10
    epochs: int = 40
    batch_size: int = 32
    learning_rate: float = 0.05
    momentum: float = 0.9
    l2_beta: float = 0.0
    seed: int = 0
    mc_samples: int = 10
    precision_exact: bool = False

    def echo(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


def _coerce(raw: str, target_type):
    if target_type is bool:
        low = raw.lower()
        if low in ("true", "1", "yes"):
            return True
        if low in ("false", "0", "no"):
            return False
        raise ValueError(f"expected a boolean, got {raw!r}")
    return target_type(raw)


def parse_run_config(text: str) -> RunConfig:
    """Parse ``key = value`` lines into a RunConfig, rejecting unknown keys."""
    known = {f.name: f.type for f in fields(RunConfig)}
    type_map = {"int": int, "float": float, "str": str, "bool": bool}
    values = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno}: expected key=value, got {line!r}")
        key, raw = (part.strip() for part in line.split("=", 1))
        if key not in known:
            raise ValueError(f"config line {lineno}: unknown key {key!r}")
        target = known[key]
        if isinstance(target, str):
            target = type_map[target]
        try:
            values[key] = _coerce(raw, target)
        except ValueError as exc:
            raise ValueError(f"config line {lineno}: {exc}") from exc
    cfg = RunConfig(**values)
    if cfg.variant not in VARIANT_TAGS:
        raise ValueError(f"unknown variant {cfg.variant!r}; expected one of {VARIANT_TAGS}")
    if cfg.dataset not in ("two_moons", "two_ovals"):
        raise ValueError(f"unknown dataset {cfg.dataset!r}")
    return cfg


def load_run_config(path: str | None) -> RunConfig:
    if path is None:
        return RunConfig()
    with open(path, "r", encoding="utf-8") as f:
        return parse_run_config(f.read())


def _make_dataset(cfg: RunConfig) -> data_mod.Dataset2D:
    if cfg.dataset == "two_moons":
        return data_mod.gen_two_moons(cfg.n_per_class, cfg.noise_sd, cfg.data_seed)
    return data_mod.gen_two_ovals(cfg.n_per_class, cfg.data_seed)


def _from_config(cls, cfg: RunConfig):
    """A ``ModelSpec`` or ``TrainConfig`` taking each field the run config
    has under the same name.  A model spec describes the config's 2-D,
    two-class data; the variant tag sets the rest (``build_variant``)."""
    return cls(**{f.name: getattr(cfg, f.name) for f in fields(cls) if hasattr(cfg, f.name)})


# -- models behind one prediction interface --------------------------------------


class LoadedModel:
    """One model, or an ensemble of several, behind a single prediction interface."""

    def __init__(self, models: list[SngpModel], variant: str, config: dict, mc_rng: RngState):
        self.models = models
        self.variant = variant
        self.config = config
        self.num_classes = models[0].num_classes
        self.is_ensemble = len(models) > 1
        self.mc_samples = int(config.get("mc_samples", 10))
        self._mc_rng = mc_rng

    @classmethod
    def from_checkpoints(cls, paths: list[str]) -> "LoadedModel":
        loaded = [load_checkpoint(p) for p in paths]
        header = loaded[0][1]
        return cls([m for m, _ in loaded], header["variant"], header["config"],
                   RngState(0).derive("cli_mc"))

    @property
    def has_gp_head(self) -> bool:
        return (not self.is_ensemble) and self.models[0].has_gp_head

    def predict(self, x: np.ndarray) -> GpPrediction:
        if self.is_ensemble:
            return ensemble_predict(EnsembleModel(members=self.models), x)
        return predict_batch(self.models[0], x, mc_samples=self.mc_samples, rng=self._mc_rng)

    def native_metric(self) -> str:
        return "variance" if self.has_gp_head else "margin"


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


def cmd_gen_data(args) -> int:
    if args.dataset == "two_moons":
        ds = data_mod.gen_two_moons(args.n, args.noise, args.seed)
    else:
        ds = data_mod.gen_two_ovals(args.n, args.seed)
    meta = {"format_version": FORMAT_VERSION, "dataset": args.dataset, "n_per_class": args.n,
            "noise_sd": args.noise, "seed": args.seed}
    data_mod.dataset_to_csv(ds, args.out, meta=meta)
    n_ood = 0 if ds.ood_points is None else len(ds.ood_points)
    print(f"wrote {len(ds.labels)} labeled rows + {n_ood} OOD rows to {args.out}")
    return EXIT_OK


def cmd_train(args) -> int:
    cfg = load_run_config(args.config)
    ds = _make_dataset(cfg)
    spec = _from_config(ModelSpec, cfg)
    tcfg = _from_config(TrainConfig, cfg)
    reports = []
    if cfg.variant == "deep_ensemble":
        ens = train_ensemble(spec, cfg.ensemble_size, ds.points, ds.labels, tcfg)
        for i, member in enumerate(ens.members):
            save_checkpoint(member, f"{args.out}.member{i}", variant="deep_ensemble",
                            config_echo=cfg.echo())
        reports = ens.reports
        print(f"wrote {ens.size} member checkpoints to {args.out}.member*")
    else:
        model = build_variant(cfg.variant, spec)
        reports = [train(model, ds.points, ds.labels, tcfg)]
        save_checkpoint(model, args.out, variant=cfg.variant, config_echo=cfg.echo())
        print(f"wrote checkpoint to {args.out}")
    if args.report:
        with open(args.report, "w", encoding="utf-8") as f:
            f.write(f"format_version={FORMAT_VERSION}\n")
            for r in reports:
                r.config_echo = cfg.echo()  # the full run config, not just the loop knobs
                f.write(r.as_text())
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
    meta = {"format_version": FORMAT_VERSION, "metric": args.metric,
            "variant": loaded.variant, "grid": args.grid}
    meta.update({f"config.{k}": v for k, v in loaded.config.items()})
    data_mod.surface_to_csv(points, values, args.out, meta=meta)
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
    has_ood = ds.ood_points is not None and len(ds.ood_points) > 0
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
        ood_ds = data_mod.dataset_from_csv(args.ood_data)
        ood_points = ood_ds.points if ood_ds.ood_points is None else ood_ds.ood_points
        ds = data_mod.Dataset2D(points=ds.points, labels=ds.labels,
                                ood_points=ood_points, name=ds.name, seed=ds.seed)
    values = _score_model(loaded, ds, args.uncertainty)
    lines = [f"format_version={FORMAT_VERSION}", f"variant={loaded.variant}"]
    for k, v in loaded.config.items():
        lines.append(f"config.{k}={v}")
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
        cfg.dataset = args.dataset
    variants = [v.strip() for v in args.variants.split(",") if v.strip()]
    for v in variants:
        if v not in VARIANT_TAGS:
            raise ValueError(f"unknown variant {v!r}")
    ds = _make_dataset(cfg)
    spec = _from_config(ModelSpec, cfg)
    tcfg = _from_config(TrainConfig, cfg)
    columns = ["variant", "accuracy", "ece", "nll", "brier", "auroc", "aupr"]
    rows = []
    for tag in variants:
        if tag == "deep_ensemble":
            models = train_ensemble(spec, cfg.ensemble_size, ds.points, ds.labels, tcfg).members
        else:
            models = [build_variant(tag, spec)]
            train(models[0], ds.points, ds.labels, tcfg)
        # A fresh stream per variant keeps each row independent of the ones before it.
        loaded = LoadedModel(models, tag, cfg.echo(), RngState(cfg.seed).derive("compare_mc"))
        rows.append({"variant": tag, **_score_model(loaded, ds, "auto")})
    lines = [f"# format_version={FORMAT_VERSION}"]
    lines += [f"# config.{k}={v}" for k, v in cfg.echo().items()]
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(
            row[c] if isinstance(row[c], str) else f"{row[c]:.17g}" for c in columns))
    text = "\n".join(lines) + "\n"
    with open(args.out, "w", encoding="utf-8") as f:
        f.write(text)
    print(text, end="")
    return EXIT_OK


# -- verification suites ---------------------------------------------------------


def _verify_theory(println) -> None:
    for k in (2, 3):
        for rule_name in ("brier", "log"):
            rule = theory.brier_rule(k) if rule_name == "brier" else theory.log_rule()
            rule.check_concavity()
            uniform = np.full(k, 1.0 / k)
            mm = theory.minimax_oracle(k, 0.05, rule)
            me = theory.max_entropy_oracle(k, 0.05, rule)
            for name, point in (("minimax", mm), ("max_entropy", me)):
                ok = np.all(np.abs(point - uniform) <= 0.05 + 1e-12)
                println(f"theory.{name}_uniform K={k} rule={rule_name}", ok)
                if not ok:
                    raise VerificationFailure(
                        f"{name} point {point} is not uniform for K={k}, {rule_name}")
            ok = np.allclose(mm, me)
            println(f"theory.minimax_equals_max_entropy K={k} rule={rule_name}", ok)
            if not ok:
                raise VerificationFailure(f"minimax {mm} != max-entropy {me}")
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
        ok = worst > 0.0
        println(f"theory.strict_propriety rule={rule_name} (min margin {worst:.3g})", ok)
        if not ok:
            raise VerificationFailure(f"propriety margin {worst} <= 0 for {rule_name}")


def _verify_lipschitz(println) -> None:
    c, depth, width = 0.9, 3, 16
    rng = RngState(99)
    net = build_res_ffn(2, width, depth, rng.derive("net"), activation="relu",
                        dropout_rate=0.0, sn_bound=c)
    for _ in range(200):
        normalize_network(net)
    probe_rng = rng.derive("pairs")
    pairs = [(probe_rng.uniform(2, -3.0, 3.0), probe_rng.uniform(2, -3.0, 3.0))
             for _ in range(1000)]
    lo, hi, _ = lipschitz_probe(net, pairs)
    lower, upper = (1.0 - c) ** depth, (1.0 + c) ** depth
    ok = lower <= lo and hi <= upper
    println(f"lipschitz.probe_bounds [{lo:.4f}, {hi:.4f}] within "
            f"[{lower:.4f}, {upper:.4f}]", ok)
    if not ok:
        raise VerificationFailure(f"probe ratios [{lo}, {hi}] escape [{lower}, {upper}]")
    for i, blk in enumerate(net.blocks):
        sigma, _ = power_iteration(blk.layer.weight, iters=500,
                                   u0=rng.derive(f"pi{i}").normal(width))
        ok = sigma <= c + 1e-6
        println(f"lipschitz.spectral_norm block{i} sigma={sigma:.6f} <= {c}", ok)
        if not ok:
            raise VerificationFailure(f"block {i} spectral norm {sigma} exceeds {c}")


def _verify_kernel(println) -> None:
    from .gp_layer import RffGpLayer
    rng = RngState(4242)
    layer = RffGpLayer(in_dim=2, num_features=4096, num_classes=2, rng=rng.derive("gp"),
                       length_scale=1.0, use_layer_norm=False)
    pair_rng = rng.derive("pairs")
    xs = pair_rng.uniform(200, -2.0, 2.0).reshape(100, 2)
    ys = pair_rng.uniform(200, -2.0, 2.0).reshape(100, 2)
    phi_x = layer.rff_features(xs)
    phi_y = layer.rff_features(ys)
    approx = np.einsum("ij,ij->i", phi_x, phi_y)
    exact = np.exp(-np.sum((xs - ys) ** 2, axis=1) / 2.0)
    frac = float(np.mean(np.abs(approx - exact) <= 0.05))
    ok = frac >= 0.95
    println(f"kernel.rbf_fidelity within 0.05 on {frac:.0%} of pairs", ok)
    if not ok:
        raise VerificationFailure(f"kernel fidelity only on {frac:.0%} of pairs")


def cmd_verify(args) -> int:
    def println(name: str, ok: bool):
        print(f"[{'PASS' if ok else 'FAIL'}] {name}")

    suites = {"theory": _verify_theory, "lipschitz": _verify_lipschitz,
              "kernel": _verify_kernel}
    suites[args.suite](println)
    return EXIT_OK


# -- entry point -----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="sngp",
                                     description="Distance-aware classifier workbench")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="write a benchmark dataset CSV")
    p.add_argument("--dataset", required=True, choices=["two_ovals", "two_moons"])
    p.add_argument("--n", type=int, default=500, help="points per class")
    p.add_argument("--noise", type=float, default=0.1, help="two-moons noise sd")
    p.add_argument("--seed", type=int, default=7)
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
    p.add_argument("--ood-data", help="optional separate OOD CSV")
    p.add_argument("--uncertainty", default="auto",
                   choices=["auto", "variance", "margin", "ds"])
    p.add_argument("--out", help="report path (also printed)")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("verify", help="run an oracle suite")
    p.add_argument("--suite", required=True, choices=["theory", "lipschitz", "kernel"])
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("compare", help="train variants and emit a metrics CSV")
    p.add_argument("--variants", required=True, help="comma-separated variant tags")
    p.add_argument("--dataset", choices=["two_moons", "two_ovals"])
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


if __name__ == "__main__":
    sys.exit(main())
