"""Comparison models: deep ensembles, the shallow GP, and the ablations.

Variant tags map onto the two model toggles (spectral normalization on the
hidden layers, GP vs dense output head) plus the identity-hidden-map switch:

    deterministic   dense head, no spectral norm
    deep_ensemble   E independently seeded deterministic models, averaged
    dnn_sn          spectral norm + dense head
    dnn_gp          GP head, no spectral norm
    sngp            spectral norm + GP head
    shallow_gp      GP head directly on the raw inputs (no network at all)

The shallow GP stands in for the gold-standard exact GP; it skips layer
normalization so its uncertainty stays a function of raw input distance.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .gp_layer import GpPrediction, softmax
from .train import (SngpModel, TrainConfig, TrainReport, TrainingDivergedError,
                    build_sngp_model, train)

VARIANT_TAGS = ("deterministic", "deep_ensemble", "shallow_gp", "dnn_gp", "dnn_sn", "sngp")


@dataclass
class EnsembleModel:
    """Independently trained dense-head members sharing one architecture."""

    members: list[SngpModel]
    reports: list[TrainReport] = field(default_factory=list)

    @property
    def size(self) -> int:
        return len(self.members)


@dataclass
class VariantSpec:
    """Architecture and head hyperparameters shared across variants."""

    input_dim: int = 2
    hidden_width: int = 128
    depth: int = 12
    num_classes: int = 2
    activation: str = "relu"
    dropout_rate: float = 0.01
    sn_bound: float = 0.9
    num_features: int = 1024
    length_scale: float = 2.0
    ridge_s: float = 0.001
    discount_m: float = 0.999
    use_layer_norm: bool = True
    ensemble_size: int = 10
    seed: int = 0


def build_variant(tag: str, spec: VariantSpec, seed: int | None = None) -> SngpModel:
    """Instantiate a single model for the given variant tag.

    ``deep_ensemble`` builds one member (a deterministic model); use
    ``train_ensemble`` for the full ensemble.
    """
    if tag not in VARIANT_TAGS:
        raise ValueError(f"unknown variant tag {tag!r}; expected one of {VARIANT_TAGS}")
    seed = spec.seed if seed is None else seed
    gp_head = tag in ("sngp", "dnn_gp", "shallow_gp")
    spectral = tag in ("sngp", "dnn_sn")
    identity = tag == "shallow_gp"
    return build_sngp_model(
        input_dim=spec.input_dim,
        hidden_width=spec.hidden_width,
        depth=spec.depth,
        num_classes=spec.num_classes,
        seed=seed,
        activation=spec.activation,
        dropout_rate=spec.dropout_rate,
        sn_bound=spec.sn_bound,
        spectral_norm=spectral,
        gp_head=gp_head,
        num_features=spec.num_features,
        length_scale=spec.length_scale,
        ridge_s=spec.ridge_s,
        discount_m=spec.discount_m,
        # The shallow variant consumes raw coordinates; normalizing them away
        # would destroy the radial distance signal it exists to demonstrate.
        use_layer_norm=spec.use_layer_norm and not identity,
        identity_hidden=identity,
    )


def train_ensemble(spec: VariantSpec, ensemble_size: int, points: np.ndarray,
                   labels: np.ndarray, config: TrainConfig) -> EnsembleModel:
    """Train E deterministic members with seeds config.seed + 0 .. E - 1."""
    if ensemble_size < 1:
        raise ValueError("ensemble size must be >= 1")
    members, reports = [], []
    for e in range(ensemble_size):
        member_seed = config.seed + e
        model = build_variant("deterministic", spec, seed=member_seed)
        member_config = replace(config, seed=member_seed)
        try:
            reports.append(train(model, points, labels, member_config))
        except TrainingDivergedError as exc:
            raise TrainingDivergedError(f"ensemble member {e} diverged: {exc}") from exc
        members.append(model)
    return EnsembleModel(members=members, reports=reports)


def ensemble_predict(ens: EnsembleModel, x: np.ndarray) -> GpPrediction:
    """Member-averaged prediction for a (batch, d) input: the mean and variance
    of the member logits and the arithmetic mean of the member softmax outputs."""
    logits = np.stack([member.eval_logits(x) for member in ens.members])
    return GpPrediction(mean_logits=logits.mean(axis=0), variance_logits=logits.var(axis=0),
                        probs=softmax(logits).mean(axis=0))
