"""Independent reference implementations used only to check the package.

These deliberately avoid the code paths they verify: the Jacobi rotation
eigensolver checks power iteration and spectral normalization, the O(N^2)
pair counter and the rank sum over ``scipy.stats.rankdata`` ranks check the
rank-based AUROC, ``scipy.special`` checks the Dempster-Shafer score, and the
central-difference gradient checker checks manual backprop.  SciPy is a test
dependency only; the package itself is NumPy.
"""

import numpy as np
from scipy.special import expit, logsumexp
from scipy.stats import rankdata


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
