"""Comparison models: deep ensembles, the shallow GP, and the ablations.

Variant tags map onto the two model toggles (spectral normalization on the
hidden layers, GP vs dense output head) plus the identity-hidden-map switch,
and two of them also fix the GP head's layer norm (``use_layer_norm``, a
config key that is off by default):

    deterministic   dense head, no spectral norm
    deep_ensemble   E independently seeded deterministic models, averaged
    dnn_sn          spectral norm + dense head
    dnn_gp          GP head with its layer norm, no spectral norm
    sngp            spectral norm + GP head (layer norm as the key says)
    shallow_gp      GP head directly on the raw inputs (no network at all),
                    without layer norm

The norm is scale-invariant, so along a ray from the data the features
converge and the variance stops rising.  The shallow GP stands in for the
gold-standard exact GP, so it skips the norm and its uncertainty stays a
function of raw input distance.  ``dnn_gp`` keeps it: with no spectral norm
nothing else bounds its hidden features, and without the norm it diverged at
the default size in every run tried.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .gp_layer import GpPrediction, softmax
from .train import (ModelSpec, SngpModel, TrainConfig, TrainReport, TrainingDivergedError,
                    build_sngp_model, train)


# The model switches each tag sets; every other ModelSpec field comes from the caller.
_VARIANT_SWITCHES = {
    "deterministic": dict(gp_head=False, spectral_norm=False, identity_hidden=False),
    "deep_ensemble": dict(gp_head=False, spectral_norm=False, identity_hidden=False),
    "shallow_gp": dict(gp_head=True, spectral_norm=False, identity_hidden=True,
                       use_layer_norm=False),
    "dnn_gp": dict(gp_head=True, spectral_norm=False, identity_hidden=False,
                   use_layer_norm=True),
    "dnn_sn": dict(gp_head=False, spectral_norm=True, identity_hidden=False),
    "sngp": dict(gp_head=True, spectral_norm=True, identity_hidden=False),
}
VARIANT_TAGS = tuple(_VARIANT_SWITCHES)


def build_variant(tag: str, spec: ModelSpec) -> SngpModel:
    """Instantiate a single model of the spec for the given variant tag.

    ``deep_ensemble`` builds one member (a deterministic model); use
    ``train_ensemble`` for the full ensemble.
    """
    if tag not in VARIANT_TAGS:
        raise ValueError(f"unknown variant tag {tag!r}; expected one of {VARIANT_TAGS}")
    return build_sngp_model(replace(spec, **_VARIANT_SWITCHES[tag]))


def train_ensemble(spec: ModelSpec, ensemble_size: int, points: np.ndarray,
                   labels: np.ndarray, config: TrainConfig
                   ) -> tuple[list[SngpModel], list[TrainReport]]:
    """Train E deterministic members with seeds spec.seed + 0 .. E - 1: (members, reports)."""
    if ensemble_size < 1:
        raise ValueError("ensemble size must be >= 1")
    members, reports = [], []
    for e in range(ensemble_size):
        model = build_variant("deterministic", replace(spec, seed=spec.seed + e))
        try:
            reports.append(train(model, points, labels, config))
        except TrainingDivergedError as exc:
            raise TrainingDivergedError(f"ensemble member {e} diverged: {exc}") from exc
        members.append(model)
    return members, reports


def ensemble_predict(members: list[SngpModel], x: np.ndarray) -> GpPrediction:
    """Member-averaged prediction for a (batch, d) input: the members' mean logits, their
    logit variance averaged over the classes, and the mean of their softmax outputs."""
    logits = np.stack([member.eval_logits(x) for member in members])
    with np.errstate(over="ignore"):  # logits near the float limit give an inf mean or variance
        mean, variance = logits.mean(axis=0), logits.var(axis=0).mean(axis=1)
    return GpPrediction(mean_logits=mean, variance_logits=variance,
                        probs=softmax(logits).mean(axis=0))
