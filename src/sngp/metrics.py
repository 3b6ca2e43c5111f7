"""Calibration, proper-scoring, and OOD-ranking metrics.

* ``ece``: equal-width binning of the maximum predicted probability into M
  bins (default 15); the score is the bin-count-weighted mean absolute gap
  between per-bin accuracy and per-bin confidence.  Empty bins contribute 0.
* ``nll`` / ``brier``: mean negative log-likelihood (probabilities clipped at
  1e-12) and the mean multiclass quadratic score sum_k (p_k - onehot_k)^2.
* ``auroc``: rank statistic with average ranks across ties, equivalent to
  pair counting with half credit for tied scores.  The ranks are computed in
  NumPy (a stable sort, then each tie group's mean rank); a NaN score makes
  every rank, and so the AUROC, NaN.
* ``aupr``: step integration of the precision-recall curve at the distinct
  score thresholds, OOD treated as the positive class (higher score = more
  OOD).
* OOD scores of a batched ``GpPrediction``, higher meaning more OOD:
  ``variance_uncertainty`` (mean logit variance), ``margin_uncertainty``
  (1 - 2 |p - 0.5|, K = 2 only) and ``dempster_shafer`` of the mean logits,
  K / (K + sum_k exp(logit_k)), in (0, 1) and decreasing as any logit grows,
  computed as a logistic of log K minus a max-shifted log-sum-exp, so no
  finite logit overflows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gp_layer import GpPrediction


@dataclass
class PredictionSet:
    """Aligned predictions for a batch of inputs.

    probs: (N, K) rows on the simplex.  labels: (N,) int class ids.
    """

    probs: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        self.probs = np.asarray(self.probs, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=int)
        if self.probs.ndim != 2 or self.probs.shape[0] != self.labels.shape[0]:
            raise ValueError("probs must be (N, K) aligned with labels")
        row_sums = self.probs.sum(axis=1)
        # Written as "not <=" so that a NaN probability fails the check.
        if not (np.all(np.abs(row_sums - 1.0) <= 1e-9) and np.all(self.probs >= -1e-12)):
            raise ValueError("probs rows must lie on the simplex")


def accuracy(preds: PredictionSet) -> float:
    return float(np.mean(np.argmax(preds.probs, axis=1) == preds.labels))


def ece(preds: PredictionSet, num_bins: int = 15) -> float:
    """Expected calibration error over equal-width confidence bins: the
    count-weighted mean |accuracy - confidence| of the ``ece_bin_table`` rows."""
    n = preds.labels.shape[0]
    return float(sum((cnt / n) * abs(acc - conf)
                     for _, conf, acc, cnt in ece_bin_table(preds, num_bins) if cnt))


def ece_bin_table(preds: PredictionSet, num_bins: int = 15) -> list[tuple[float, float, float, int]]:
    """Reliability table rows (bin_lo, confidence, accuracy, count); empty bins give zeros.

    Bin m covers [m/M, (m+1)/M); confidence exactly 1.0 falls in the last bin.
    """
    if num_bins < 1:
        raise ValueError("num_bins must be >= 1")
    conf = preds.probs.max(axis=1)
    correct = (np.argmax(preds.probs, axis=1) == preds.labels).astype(np.float64)
    idx = np.minimum((conf * num_bins).astype(int), num_bins - 1)
    rows = []
    for m in range(num_bins):
        mask = idx == m
        cnt = int(mask.sum())
        if cnt:
            rows.append((m / num_bins, float(conf[mask].mean()), float(correct[mask].mean()), cnt))
        else:
            rows.append((m / num_bins, 0.0, 0.0, 0))
    return rows


def nll(preds: PredictionSet) -> float:
    p = np.clip(preds.probs[np.arange(len(preds.labels)), preds.labels], 1e-12, None)
    return float(np.mean(-np.log(p)))


def brier(preds: PredictionSet) -> float:
    onehot = np.zeros_like(preds.probs)
    onehot[np.arange(len(preds.labels)), preds.labels] = 1.0
    return float(np.mean(np.sum((preds.probs - onehot) ** 2, axis=1)))


def _check_binary_flags(flags: np.ndarray) -> np.ndarray:
    flags = np.asarray(flags, dtype=bool)
    if flags.all() or not flags.any():
        raise ValueError("need at least one positive and one negative example")
    return flags


def _average_ranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks of the flattened ``x``, each tie group sharing its mean
    rank; all NaN if any value is NaN."""
    x = x.ravel()
    if np.isnan(x).any():
        return np.full(x.size, np.nan)
    order = np.argsort(x, kind="mergesort")
    sorted_x = x[order]
    starts = np.flatnonzero(np.r_[True, sorted_x[1:] != sorted_x[:-1]])
    ends = np.r_[starts[1:], x.size]
    ranks = np.empty(x.size)
    # A group holding sorted positions [s, e) has 1-based ranks s+1 .. e.
    ranks[order] = np.repeat(0.5 * (starts + ends + 1), ends - starts)
    return ranks


def auroc(scores: np.ndarray, ood_flags: np.ndarray) -> float:
    """Area under the ROC curve, ties given half credit via average ranks."""
    scores = np.asarray(scores, dtype=np.float64)
    flags = _check_binary_flags(ood_flags)
    ranks = _average_ranks(scores)
    n_pos = int(flags.sum())
    n_neg = flags.size - n_pos
    rank_sum = float(ranks[flags].sum())
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def aupr(scores: np.ndarray, ood_flags: np.ndarray) -> float:
    """Area under the precision-recall curve by step integration.

    Thresholds sweep the distinct scores from high to low; each recall
    increment contributes its precision, i.e. sum_i (R_i - R_{i-1}) * P_i.
    """
    scores = np.asarray(scores, dtype=np.float64)
    flags = _check_binary_flags(ood_flags)
    order = np.argsort(-scores, kind="stable")
    sorted_scores = scores[order]
    sorted_flags = flags[order].astype(np.float64)
    tp = np.cumsum(sorted_flags)
    fp = np.cumsum(1.0 - sorted_flags)
    # Collapse ties: evaluate only at the last index of each distinct score.
    distinct = np.nonzero(np.diff(sorted_scores, append=-np.inf))[0]
    tp, fp = tp[distinct], fp[distinct]
    n_pos = flags.sum()
    precision = tp / (tp + fp)
    recall = tp / n_pos
    prev_recall = np.concatenate([[0.0], recall[:-1]])
    return float(np.sum((recall - prev_recall) * precision))


def dempster_shafer(logits: np.ndarray) -> np.ndarray:
    """Uncertainty K / (K + sum_k exp(logit_k)) per row of a (..., K) logit
    array, strictly decreasing in each logit."""
    logits = np.asarray(logits, dtype=np.float64)
    if not np.all(np.isfinite(logits)):
        raise ValueError("logits must be finite")
    k = logits.shape[-1]
    # K/(K + e^lse) == sigmoid(log K - lse), stable for any logit magnitude.
    return _logistic(np.log(k) - _log_sum_exp(logits))


def _log_sum_exp(x: np.ndarray) -> np.ndarray:
    """log sum_k exp(x_k) over the last axis as ``top + log1p(rest)``: ``top``
    is the row maximum, so no exp overflows, and ``rest`` sums the shifted
    exps of every other entry, so the max's own 1 costs no precision."""
    top_at = x.argmax(axis=-1)[..., None]
    top = np.take_along_axis(x, top_at, axis=-1)
    with np.errstate(over="ignore"):  # x - top of -inf only feeds exp -> 0
        rest = np.exp(x - top)
    np.put_along_axis(rest, top_at, 0.0, axis=-1)
    return top[..., 0] + np.log1p(rest.sum(axis=-1))


def _logistic(t: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-t)), evaluated through exp(-|t|) <= 1 so it never overflows."""
    e = np.exp(-np.abs(t))
    return np.where(t >= 0.0, 1.0 / (1.0 + e), e / (1.0 + e))


def variance_uncertainty(pred: GpPrediction) -> np.ndarray:
    """Native GP-head uncertainty: the mean posterior logit variance per row."""
    return pred.variance_logits.mean(axis=1)


def margin_uncertainty(pred: GpPrediction) -> np.ndarray:
    """1 - 2 |p - 0.5| per row of a binary prediction: 1 at total ambivalence,
    0 when sure."""
    if pred.probs.shape[-1] != 2:
        raise ValueError("margin uncertainty is defined for K = 2 only")
    return 1.0 - 2.0 * np.abs(pred.probs[:, 0] - 0.5)


def metrics_report(values: dict[str, float]) -> str:
    """Flat ``metric=value`` text block (one pair per line)."""
    return "\n".join(f"{k}={v:.17g}" for k, v in values.items()) + "\n"

