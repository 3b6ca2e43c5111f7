"""Decision-theoretic oracles: Bregman scores, entropies, and minimax witnesses.

A (separable) Bregman scoring rule is generated by a strictly concave
``psi``.  Sign conventions here are normalized so that every rule is a loss
(lower is better) and the propriety/minimax statements below hold literally;
textbook treatments differ by the sign of the generator, so the mapping is
spelled out:

    stored generator      psi (strictly concave on (0, 1))
    pointwise score       L(y, p) = psi'(p_y) + sum_k [psi(p_k) - p_k psi'(p_k)]
    expected score        s(p, p*) = E_{y ~ p*} L(y, p)
                                   = sum_k [(p*_k - p_k) psi'(p_k) + psi(p_k)]
    generalized entropy   H(p) = s(p, p) = sum_k psi(p_k)

    Brier rule   psi(t) = 1/K - t^2      ->  L(y, p) = sum_k (p_k - onehot_k)^2
    log rule     psi(t) = -t log t       ->  L(y, p) = -log p_y

Strict propriety follows from strict concavity: s(p, p*) > s(p*, p*) for
every p != p*.  The brute-force oracles below verify, on an exact simplex
grid, that the minimax prediction inf_p sup_{p*} s(p, p*) and the maximum of
H coincide at the uniform distribution.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

LOG_CLIP = 1e-9

# Enumerating more grid-point pairs than this is refused (the oracles are
# meant for K <= 4 at coarse steps).
MAX_GRID_PAIRS = 40_000_000


@dataclass
class ScoringRule:
    """Named Bregman rule with strictly concave generator ``psi``."""

    name: str
    psi: Callable[[np.ndarray], np.ndarray]
    psi_prime: Callable[[np.ndarray], np.ndarray]

    def check_concavity(self, num_points: int = 99) -> None:
        """Numerically verify strict concavity of psi on (0, 1)."""
        t = np.linspace(0.01, 0.99, num_points)
        h = 0.005
        second_diff = self.psi(t + h) - 2.0 * self.psi(t) + self.psi(t - h)
        if not np.all(second_diff < 0.0):
            raise ValueError(f"generator of rule {self.name!r} is not strictly concave")


def brier_rule(num_classes: int) -> ScoringRule:
    k = float(num_classes)
    return ScoringRule(name="brier",
                       psi=lambda t: 1.0 / k - np.square(t),
                       psi_prime=lambda t: -2.0 * t)


def log_rule() -> ScoringRule:
    def psi(t):
        t = np.clip(t, LOG_CLIP, None)
        return -t * np.log(t)

    def psi_prime(t):
        t = np.clip(t, LOG_CLIP, None)
        return -(np.log(t) + 1.0)

    return ScoringRule(name="log", psi=psi, psi_prime=psi_prime)


def _check_simplex(p: np.ndarray, what: str) -> np.ndarray:
    p = np.asarray(p, dtype=np.float64)
    if np.any(p < -1e-12) or abs(p.sum() - 1.0) > 1e-9:
        raise ValueError(f"{what} must lie on the probability simplex")
    return p


def bregman_score(p: np.ndarray, p_star: np.ndarray, rule: ScoringRule) -> float:
    """Expected pointwise score of prediction ``p`` under outcomes ``y ~ p_star``.

    Strictly proper: for fixed p_star this is minimized over p exactly at
    p = p_star, where it equals the entropy sum_k psi(p_star_k).
    """
    p = _check_simplex(p, "p")
    p_star = _check_simplex(p_star, "p_star")
    return float(np.sum((p_star - p) * rule.psi_prime(p) + rule.psi(p)))


@dataclass
class SimplexGrid:
    """All distributions over K classes with probabilities that are exact
    multiples of ``step``.  Stored as integer counts summing to 1/step, so
    membership and sums are exact."""

    num_classes: int
    step: float
    counts: np.ndarray = field(init=False)
    denominator: int = field(init=False)

    def __post_init__(self):
        n = round(1.0 / self.step)
        if abs(n * self.step - 1.0) > 1e-12:
            raise ValueError(f"step {self.step} does not divide 1")
        self.denominator = n
        self.counts = np.array(list(_compositions(n, self.num_classes)), dtype=np.int64)

    def points(self) -> np.ndarray:
        return self.counts / float(self.denominator)

    def __len__(self) -> int:
        return self.counts.shape[0]


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head, *rest)


class GridTooLargeError(ValueError):
    """The requested simplex-grid game is too large to enumerate."""


def _grids_for_game(num_classes: int, step: float) -> np.ndarray:
    grid = SimplexGrid(num_classes, step)
    pairs = len(grid) ** 2
    if pairs > MAX_GRID_PAIRS:
        raise GridTooLargeError(
            f"grid has {len(grid)} points -> {pairs} pairs to enumerate "
            f"(limit {MAX_GRID_PAIRS}); use a coarser step or fewer classes")
    return grid.points()


def _sup_scores(num_classes: int, step: float, rule: ScoringRule):
    """The game grid and, per grid prediction p, its worst-case expected score
    max_{p*} s(p, p*) over the same grid."""
    pts = _grids_for_game(num_classes, step)
    # s(p, p*) = p* . psi'(p) + sum_k [psi(p_k) - p_k psi'(p_k)]; enumerate the
    # p*-dependent part as a (num_p*, num_p) matrix and take column maxima.
    psi_p = rule.psi(pts)
    psi_prime_p = rule.psi_prime(pts)
    const = np.sum(psi_p - pts * psi_prime_p, axis=1)
    return pts, (pts @ psi_prime_p.T).max(axis=0) + const


def minimax_oracle(num_classes: int, step: float, rule: ScoringRule) -> np.ndarray:
    """Brute-force argmin_p max_{p*} of the expected score over the grid squared.

    The returned grid point is the minimax-optimal prediction; for every
    Bregman rule it is the uniform distribution (up to one grid step).
    """
    pts, sup_scores = _sup_scores(num_classes, step, rule)
    return pts[int(np.argmin(sup_scores))]


def max_entropy_oracle(num_classes: int, step: float, rule: ScoringRule) -> np.ndarray:
    """Grid argmax of the generalized entropy; coincides with the minimax point."""
    pts = _grids_for_game(num_classes, step)
    entropies = rule.psi(pts).sum(axis=1)
    return pts[int(np.argmax(entropies))]
