"""Random-Fourier-feature Gaussian-process output layer with a Laplace posterior.

The layer maps a hidden vector ``h`` to features

    phi = sqrt(2 / D) * cos(-(1 / length_scale) * W h' + b)

with ``W`` frozen i.i.d. standard normal and ``b`` frozen Uniform(0, 2*pi);
``h'`` is ``h`` after optional layer normalization and an optional frozen
Gaussian down-projection.  Inner products of these features approximate an
RBF kernel: ``phi(x) . phi(y) ~= exp(-||x - y||^2 / (2 l^2))``.

Class logits are linear in the features, ``g_k = phi . beta_k``, so the model
is a Bayesian linear model in ``beta`` and the Laplace approximation to its
posterior is Gaussian with a closed-form per-class precision

    precision_k = s * I + sum_i p_ik (1 - p_ik) phi_i phi_i^T

accumulated over data (``update_precision_exact``), or tracked with a
discounted moving average during the final training epoch
(``update_precision_minibatch``; previous precision weighted ``m``, fresh
minibatch term weighted ``1 - m``).  A K = 2 head stores one matrix, built
from the class-mean weights, because ``p_0 (1 - p_0) = p_1 (1 - p_1)`` makes
the two per-class matrices equal (``num_precisions``).

Predictive variance for class k is ``phi^T Sigma_k phi`` with the covariance
``Sigma_k = precision_k^{-1} = W_k^T W_k``, where ``W_k`` is the inverse
Cholesky factor from ``linalg.spd_factor``.  Each distinct covariance is
built once, in NumPy matrix products, and cached until the precision changes,
so a batch of variances costs one matrix product per stored precision.

The feature pipeline takes a (batch, in_dim) matrix of hidden rows.  A row
that is not finite, or so large that its layer-norm variance overflows, has no
meaningful features: ``features_with_tape`` raises ``NonFiniteRowError`` (a
``ValueError``) naming the first such row instead of returning NaN features.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import RngState, NotSpdError, spd_factor, spd_solve_factored

LAYER_NORM_EPS = 1e-6


class NonFiniteRowError(ValueError):
    """A row whose hidden features, or a quantity computed from them, are not finite."""

    def __init__(self, row: int, reason: str):
        super().__init__(f"row {row}: {reason}")
        self.row = row
        self.reason = reason


@dataclass
class GpPrediction:
    """Posterior summary of a batch of N inputs, each field (N, K): the mean
    logits, the logit variances and the Monte Carlo predictive probabilities."""

    mean_logits: np.ndarray
    variance_logits: np.ndarray
    probs: np.ndarray


class RffGpLayer:
    """Frozen random-feature frontend plus trainable output weights and
    Laplace precision matrices (``num_precisions`` of them)."""

    def __init__(self, in_dim: int, num_features: int, num_classes: int, rng: RngState,
                 length_scale: float = 2.0, ridge_s: float = 0.001, discount_m: float = 0.999,
                 use_layer_norm: bool = True, projection_dim: int | None = None):
        if not length_scale > 0.0:
            raise ValueError("length_scale must be positive")
        if not ridge_s > 0.0:
            raise ValueError("ridge_s must be positive")
        if not 0.0 <= discount_m < 1.0:
            raise ValueError("discount_m must lie in [0, 1)")
        self.in_dim = in_dim
        self.num_features = num_features
        self.num_classes = num_classes
        self.length_scale = float(length_scale)
        self.ridge_s = float(ridge_s)
        self.discount_m = float(discount_m)
        self.use_layer_norm = use_layer_norm

        if projection_dim is not None:
            self.input_projection = rng.derive("gp_proj").normal_matrix(projection_dim, in_dim)
            feat_in = projection_dim
        else:
            self.input_projection = None
            feat_in = in_dim
        self.w_fixed = rng.derive("gp_w").normal_matrix(num_features, feat_in)
        self.b_fixed = rng.derive("gp_b").uniform(num_features, 0.0, 2.0 * np.pi)
        self.beta = np.zeros((num_classes, num_features))
        self.precision: list[np.ndarray] = []
        self._factors: list | None = None  # cached covariances, see covariances
        self.reset_precision()

    # -- feature pipeline ---------------------------------------------------

    def rff_features(self, h: np.ndarray) -> np.ndarray:
        """(batch, num_features) cosine features of a (batch, in_dim) matrix,
        every entry bounded by sqrt(2 / num_features)."""
        return self.features_with_tape(h)[0]

    def features_with_tape(self, h: np.ndarray) -> tuple[np.ndarray, dict]:
        """Batch features plus the intermediates needed for backprop into h.

        ``h`` must be (batch, in_dim); anything else raises ``ValueError``.
        Raises ``NonFiniteRowError`` for the first row whose hidden features,
        or their layer-norm variance, are not finite; the check itself warns
        about nothing.
        """
        h = np.asarray(h, dtype=np.float64)
        if h.ndim != 2 or h.shape[1] != self.in_dim:
            raise ValueError(f"expected hidden features of shape (batch, {self.in_dim}), "
                             f"got {h.shape}")
        tape: dict = {}
        x = h
        if self.use_layer_norm:
            # A row that is not finite, or whose squares overflow, makes its
            # var NaN or inf; the check below names it instead of warning.
            with np.errstate(over="ignore", invalid="ignore"):
                mu = x.mean(axis=-1, keepdims=True)
                var = x.var(axis=-1, keepdims=True)
            check_rows(np.isfinite(var[:, 0]), h, "layer-norm variance of the hidden features is")
            inv_sd = 1.0 / np.sqrt(var + LAYER_NORM_EPS)
            x = (x - mu) * inv_sd
            tape["ln_out"] = x
            tape["ln_inv_sd"] = inv_sd
        else:
            check_rows(np.isfinite(h).all(axis=1), h, "hidden features are")
        if self.input_projection is not None:
            x = x @ self.input_projection.T
        z = x @ self.w_fixed.T
        z *= -(1.0 / self.length_scale)
        z += self.b_fixed
        tape["z"] = z
        phi = np.cos(z)
        phi *= np.sqrt(2.0 / self.num_features)
        return phi, tape

    def backprop_features(self, tape: dict, grad_phi: np.ndarray) -> np.ndarray:
        """Gradient of the loss w.r.t. the hidden input, given d loss / d phi."""
        dz = -np.sqrt(2.0 / self.num_features) * np.sin(tape["z"]) * grad_phi
        dx = -(1.0 / self.length_scale) * (dz @ self.w_fixed)
        if self.input_projection is not None:
            dx = dx @ self.input_projection
        if self.use_layer_norm:
            y = tape["ln_out"]
            inv_sd = tape["ln_inv_sd"]
            mean_dx = dx.mean(axis=-1, keepdims=True)
            mean_dx_y = (dx * y).mean(axis=-1, keepdims=True)
            dx = (dx - mean_dx - y * mean_dx_y) * inv_sd
        return dx

    def logits(self, phi: np.ndarray) -> np.ndarray:
        """Class logits ``g_k = phi . beta_k`` for a vector or batch of features."""
        phi = np.asarray(phi, dtype=np.float64)
        if phi.shape[-1] != self.num_features:
            raise ValueError(f"expected {self.num_features} features, got {phi.shape[-1]}")
        return phi @ self.beta.T

    # -- Laplace posterior precision -----------------------------------------

    def reset_precision(self) -> None:
        """Set every stored precision to ridge_s * I."""
        eye = np.eye(self.num_features)
        self.precision = [self.ridge_s * eye.copy()
                          for _ in range(num_precisions(self.num_classes))]
        self._factors = None

    def _fisher_terms(self, phi_batch: np.ndarray, probs_batch: np.ndarray) -> list[np.ndarray]:
        """Sums w_i phi_i phi_i^T, symmetrized exactly, one per stored precision:
        w_ik = p_ik (1 - p_ik) per class, or its class mean for one stored matrix."""
        weights = probs_batch * (1.0 - probs_batch)
        if len(self.precision) == 1:
            weights = weights.mean(axis=1, keepdims=True)
        terms = []
        for k in range(weights.shape[1]):
            t = (phi_batch * weights[:, k:k + 1]).T @ phi_batch
            terms.append(0.5 * (t + t.T))
        return terms

    def _check_batch(self, phi_batch: np.ndarray, probs_batch: np.ndarray) -> None:
        if phi_batch.ndim != 2 or phi_batch.shape[1] != self.num_features:
            raise ValueError(f"phi batch must be (M, {self.num_features}), got {phi_batch.shape}")
        if probs_batch.shape != (phi_batch.shape[0], self.num_classes):
            raise ValueError(f"probs batch must be (M, {self.num_classes}), got {probs_batch.shape}")

    def update_precision_minibatch(self, phi_batch: np.ndarray, probs_batch: np.ndarray) -> None:
        """Discounted moving-average update: m * previous + (1 - m) * batch term.

        An empty batch contributes a zero fresh term, i.e. it only scales the
        previous precision by m.
        """
        phi_batch = np.asarray(phi_batch, dtype=np.float64)
        probs_batch = np.asarray(probs_batch, dtype=np.float64)
        self._check_batch(phi_batch, probs_batch)
        terms = self._fisher_terms(phi_batch, probs_batch)
        for p, t in zip(self.precision, terms):
            p *= self.discount_m
            p += (1.0 - self.discount_m) * t
        self._factors = None

    def update_precision_exact(self, phi_all: np.ndarray, probs_all: np.ndarray) -> None:
        """One-pass exact precision: ridge_s * I plus the full-data Fisher term."""
        self.reset_precision()
        phi_all = np.asarray(phi_all, dtype=np.float64)
        probs_all = np.asarray(probs_all, dtype=np.float64)
        self._check_batch(phi_all, probs_all)
        terms = self._fisher_terms(phi_all, probs_all)
        for p, t in zip(self.precision, terms):
            p += t
        self._factors = None

    def covariances(self) -> list[np.ndarray]:
        """Posterior covariance precision^{-1} for each stored precision, built
        once from its inverse Cholesky factor and cached until the precision
        changes."""
        if self._factors is None:
            eye = np.eye(self.num_features)
            try:
                self._factors = [spd_solve_factored(spd_factor(p), eye) for p in self.precision]
            except NotSpdError as exc:
                raise NotSpdError(f"precision matrix lost positive definiteness: {exc}") from exc
        return self._factors

    def predictive_variance_batch(self, phi_batch: np.ndarray) -> np.ndarray:
        """(batch, K) logit variances phi^T precision_k^{-1} phi (each >= 0),
        one matrix product per stored precision."""
        phi_batch = np.asarray(phi_batch, dtype=np.float64)
        columns = [np.einsum("ij,ij->i", phi_batch @ cov, phi_batch)
                   for cov in self.covariances()]
        if len(columns) == 1:
            columns *= self.num_classes
        return np.maximum(np.stack(columns, axis=1), 0.0)


def num_precisions(num_classes: int) -> int:
    """Precision matrices a head of ``num_classes`` classes stores: one per
    class, but one for K = 2, whose two per-class Fisher weights coincide."""
    return 1 if num_classes == 2 else num_classes


def check_rows(finite: np.ndarray, h: np.ndarray, derived: str) -> None:
    """Raise ``NonFiniteRowError`` for the first row not marked ``finite``:
    its hidden features in ``h`` are not finite, or else ``derived`` (what was
    computed from them) is not."""
    if finite.all():
        return
    row = int(np.flatnonzero(~finite)[0])
    what = "hidden features are" if not np.isfinite(h[row]).all() else derived
    raise NonFiniteRowError(row, f"{what} not finite")


def softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - np.max(logits, axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def mc_softmax(mean: np.ndarray, variance: np.ndarray, n_samples: int, rng: RngState) -> np.ndarray:
    """Average softmax(mean + sqrt(variance) * eps) over n_samples normal draws,
    for one (K,) logit vector or an (N, K) batch of them.

    With zero variance this is exactly softmax(mean) for any sample count.
    """
    mean = np.asarray(mean, dtype=np.float64)
    variance = np.asarray(variance, dtype=np.float64)
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    if np.any(variance < 0.0):
        raise ValueError("variance must be nonnegative")
    if not np.any(variance > 0.0):
        return softmax(mean)
    sd = np.sqrt(variance)
    eps = rng.normal(n_samples * mean.size).reshape(n_samples, *mean.shape)
    return softmax(mean + sd * eps).mean(axis=0)
