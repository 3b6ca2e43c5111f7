"""Distance-aware classification: a residual network with spectral-normalized
hidden layers and a random-feature Gaussian-process output head, plus the
uncertainty metrics, 2D benchmarks, baselines, and decision-theoretic oracles
used to validate it.  The names below are the public API; everything else
is reached through its submodule."""

from .baselines import build_variant, ensemble_predict, train_ensemble
from .gp_layer import GpPrediction
from .metrics import (auroc, aupr, brier, dempster_shafer, ece, margin_uncertainty, nll,
                      variance_uncertainty)
from .train import ModelSpec, TrainConfig, load_checkpoint, predict_batch, save_checkpoint, train

__version__ = "0.1.0"
