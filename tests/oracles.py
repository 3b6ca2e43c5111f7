"""Independent reference implementations used only to check the package.

These deliberately avoid the code paths they verify: the Jacobi rotation
eigensolver checks power iteration and spectral normalization, the O(N^2)
pair counter and the rank sum over ``scipy.stats.rankdata`` ranks check the
rank-based AUROC, ``scipy.special`` checks the Dempster-Shafer score, the
central-difference gradient checker checks manual backprop, and the residual
network's float-gate forward and backward check its in-place ReLU blocks bit
for bit.  SciPy is a test dependency only; the package itself is NumPy.

The quantities at the end are reached only by tests: the pointwise score,
entropy, minimax value and mixture predictive of ``sngp.theory``'s scoring
rules, the calibration-bound simulation, and the distance to a point set.
"""

import numpy as np
from scipy.special import expit, logsumexp
from scipy.stats import rankdata

from sngp.linalg import RngState
from sngp.metrics import PredictionSet, ece
from sngp.theory import ScoringRule, _check_simplex, _sup_scores


def jacobi_eigenvalues(a: np.ndarray, tol: float = 1e-14, max_sweeps: int = 100) -> np.ndarray:
    """Eigenvalues of a symmetric matrix by cyclic Jacobi rotations."""
    a = np.array(a, dtype=np.float64)
    n = a.shape[0]
    assert np.allclose(a, a.T, atol=1e-12)
    for _ in range(max_sweeps):
        off = np.sqrt(np.sum(np.tril(a, -1) ** 2))
        if off < tol:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                if abs(a[p, q]) < 1e-300:
                    continue
                theta = (a[q, q] - a[p, p]) / (2.0 * a[p, q])
                t = np.sign(theta) / (abs(theta) + np.sqrt(theta * theta + 1.0))
                if theta == 0.0:
                    t = 1.0
                c = 1.0 / np.sqrt(t * t + 1.0)
                s = t * c
                rot = np.eye(n)
                rot[p, p] = c
                rot[q, q] = c
                rot[p, q] = s
                rot[q, p] = -s
                a = rot.T @ a @ rot
    return np.sort(np.diag(a))


def sigma_max_jacobi(w: np.ndarray) -> float:
    """Largest singular value via Jacobi eigenvalues of w^T w."""
    w = np.asarray(w, dtype=np.float64)
    eigs = jacobi_eigenvalues(w.T @ w)
    return float(np.sqrt(max(eigs[-1], 0.0)))


def auroc_pair_counting(scores: np.ndarray, flags: np.ndarray) -> float:
    """O(N^2) AUROC: fraction of (positive, negative) pairs ranked correctly,
    half credit for ties."""
    pos = scores[flags]
    neg = scores[~flags]
    wins = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                wins += 1.0
            elif p == q:
                wins += 0.5
    return wins / (len(pos) * len(neg))


def auroc_scipy_ranks(scores: np.ndarray, flags: np.ndarray) -> float:
    """Rank-sum (Mann-Whitney) AUROC over SciPy's average ranks; NaN if a
    score is NaN, as SciPy propagates it."""
    ranks = rankdata(scores)
    n_pos = int(flags.sum())
    n_neg = flags.size - n_pos
    return (float(ranks[flags].sum()) - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def dempster_shafer_scipy(logits: np.ndarray) -> np.ndarray:
    """K / (K + sum_k exp(logit_k)) per row, through SciPy's ``logsumexp`` and
    ``expit``."""
    return expit(np.log(logits.shape[-1]) - logsumexp(logits, axis=-1))


def finite_diff_gradients(loss_fn, params: dict[str, np.ndarray],
                          step: float = 1e-5) -> dict[str, np.ndarray]:
    """Central finite differences of a scalar loss over a {name: array} dict.

    Mutates each entry in place around its original value and restores it.
    """
    grads = {}
    for name, p in params.items():
        g = np.zeros_like(p)
        it = np.nditer(p, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = p[idx]
            p[idx] = orig + step
            up = loss_fn()
            p[idx] = orig - step
            down = loss_fn()
            p[idx] = orig
            g[idx] = (up - down) / (2.0 * step)
        grads[name] = g
    return grads


def max_relative_gradient_error(analytic: dict[str, np.ndarray],
                                numeric: dict[str, np.ndarray],
                                floor: float = 1e-6) -> tuple[float, str]:
    """Worst rel error |a - n| / max(|a|, |n|, floor) over all parameters."""
    worst, worst_name = 0.0, ""
    for name in analytic:
        a, n = analytic[name], numeric[name]
        denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), floor)
        rel = np.abs(a - n) / denom
        idx = np.unravel_index(np.argmax(rel), rel.shape)
        if rel[idx] > worst:
            worst, worst_name = float(rel[idx]), f"{name}{idx}"
    return worst, worst_name


def res_ffn_float_gate(net, x: np.ndarray, grad_h: np.ndarray, rng: RngState | None = None
                       ) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """The residual network's hidden features of ``x`` and the gradients of a
    loss whose d/dh is ``grad_h``, computed as the network first did: each
    block's ReLU branch a new array, the dropout mask multiplied into it, and
    its derivative the float gate ``(z > 0).astype(float64)``.  Masks are
    drawn from ``rng`` in block order exactly when the network drops units."""
    proj, layers = net.input_projection, [blk.layer for blk in net.blocks]
    keep = 1.0 - net.dropout_rate
    h = x @ proj.weight.T + proj.bias
    inputs, float_gates, masks = [], [], []
    for layer in layers:
        z = h @ layer.weight.T + layer.bias
        branch = np.maximum(z, 0.0)
        mask = None
        if rng is not None and net.dropout_rate > 0.0:
            mask = rng.bernoulli_mask(z.shape, keep) / keep
            branch = branch * mask
        inputs.append(h)
        float_gates.append((z > 0).astype(np.float64))
        masks.append(mask)
        h = branch + h
    grads, d = {}, grad_h
    for i in range(len(layers) - 1, -1, -1):
        d_branch = d if masks[i] is None else d * masks[i]
        dz = d_branch * float_gates[i]
        grads[f"block{i}.w"] = dz.T @ inputs[i]
        grads[f"block{i}.b"] = dz.sum(axis=0)
        d = d + dz @ layers[i].weight
    grads["proj.w"] = d.T @ x
    grads["proj.b"] = d.sum(axis=0)
    return h, grads


def pointwise_score(y: int, p: np.ndarray, rule: ScoringRule) -> float:
    """Loss of predicting ``p`` when the outcome is class ``y`` (lower better)."""
    p = _check_simplex(p, "p")
    return float(rule.psi_prime(p[y]) + np.sum(rule.psi(p) - p * rule.psi_prime(p)))


def bregman_entropy(p: np.ndarray, rule: ScoringRule) -> float:
    """Generalized entropy sum_k psi(p_k) (Shannon entropy for the log rule)."""
    p = _check_simplex(p, "p")
    return float(np.sum(rule.psi(p)))


def minimax_value(num_classes: int, step: float, rule: ScoringRule) -> float:
    """Value of the grid game at the minimax prediction."""
    return float(_sup_scores(num_classes, step, rule)[1].min())


def mixture_predictive(p_ind: np.ndarray, p_domain: float, num_classes: int) -> np.ndarray:
    """Blend of the in-domain prediction and the uniform distribution.

    Returns p_ind * p_domain + (1/K) * (1 - p_domain), which stays on the
    simplex for any domain probability in [0, 1].
    """
    p_ind = _check_simplex(p_ind, "p_ind")
    if not 0.0 <= p_domain <= 1.0:
        raise ValueError("p_domain must lie in [0, 1]")
    if p_ind.shape[0] != num_classes:
        raise ValueError("p_ind length must equal num_classes")
    return p_ind * p_domain + (1.0 - p_domain) / num_classes


def sample_labels(probs: np.ndarray, rng: RngState) -> np.ndarray:
    """Draw one label per row of a (N, K) probability array."""
    u = rng.uniform(probs.shape[0], 0.0, 1.0)
    cdf = np.cumsum(probs, axis=1)
    labels = (u[:, None] > cdf).sum(axis=1)
    return np.minimum(labels, probs.shape[1] - 1)


def l1_ece_bound_check(model_probs: np.ndarray, true_probs: np.ndarray, n_draws: int,
                       rng: RngState, num_bins: int = 15) -> tuple[float, float, bool]:
    """Simulate the calibration-error-vs-L1 bound on synthetic inputs.

    Labels are drawn y_i ~ true_probs_i (one per row, so n_draws must equal
    the row count).  Returns the empirical ECE of model_probs against those
    labels, the mean |true_probs[y_hat] - model_probs[y_hat]| at the predicted
    class, and whether ECE <= L1 + 3/sqrt(n_draws).
    """
    model_probs = np.asarray(model_probs, dtype=np.float64)
    true_probs = np.asarray(true_probs, dtype=np.float64)
    if model_probs.shape != true_probs.shape:
        raise ValueError("model and true probability arrays must be aligned")
    if model_probs.shape[0] != n_draws:
        raise ValueError("n_draws must equal the number of rows")
    labels = sample_labels(true_probs, rng)
    empirical_ece = ece(PredictionSet(probs=model_probs, labels=labels), num_bins=num_bins)
    y_hat = np.argmax(model_probs, axis=1)
    rows = np.arange(n_draws)
    empirical_l1 = float(np.mean(np.abs(true_probs[rows, y_hat] - model_probs[rows, y_hat])))
    holds = empirical_ece <= empirical_l1 + 3.0 / np.sqrt(n_draws)
    return empirical_ece, empirical_l1, bool(holds)


def min_distance_to_set(points: np.ndarray, reference: np.ndarray) -> np.ndarray:
    """Euclidean distance from each point to its nearest reference point."""
    points = np.asarray(points, dtype=np.float64)
    reference = np.asarray(reference, dtype=np.float64)
    d2 = (np.sum(points**2, axis=1)[:, None] + np.sum(reference**2, axis=1)[None, :]
          - 2.0 * points @ reference.T)
    return np.sqrt(np.maximum(d2.min(axis=1), 0.0))
