"""Random-Fourier-feature Gaussian-process output layer with a Laplace posterior.

The layer maps a hidden vector ``h`` to features

    phi = sqrt(2 / D) * cos(z),    z = -(1 / length_scale) * W h' + b

with ``W`` frozen i.i.d. standard normal and ``b`` frozen Uniform(0, 2*pi);
``h'`` is ``h`` after optional layer normalization and an optional frozen
Gaussian down-projection.  Inner products of these features approximate an
RBF kernel: ``phi(x) . phi(y) ~= exp(-||x - y||^2 / (2 l^2))``.

The cosine, and the sine that backprop needs, come from the half-angle
tangent (``half_angle_cos_sin``): with ``t = tan(z / 2)``,
``cos z = 2 / (1 + t^2) - 1`` and ``sin z = t * 2 / (1 + t^2)``, where
``z / 2`` is formed directly, with the same bits as half of ``z``.  NumPy
vectorizes float64 ``tan`` but may run ``cos`` and ``sin`` as scalar libm
calls: on a (32, 1024) batch on a 2-vCPU AVX-512 host, ``tan`` took 2.9 ns
per element against 31 ns for ``cos`` and 28 ns for ``sin``.  The features
keep ``|phi| <= sqrt(2 / D)`` exactly, and the cosine and sine lie within
``KERNEL_ABS_ERROR`` (5e-16) of ``np.cos`` and ``np.sin`` (3.3e-16 and
2.2e-16 measured there for ``|z|`` from 1 to 1e300).  The feature tape keeps
``sin z`` for backprop.

Class logits are linear in the features, ``g_k = phi . beta_k``, so the model
is a Bayesian linear model in ``beta`` and the Laplace approximation to its
posterior is Gaussian.  As in SNGP, the head keeps one precision for all K
classes, weighting each row by the class mean of its Fisher weights,

    precision = s * I + sum_i w_i phi_i phi_i^T,    w_i = mean_k p_ik (1 - p_ik),

accumulated over data after a ``reset_precision`` (``update_precision_exact``
adds one block of rows' term, so ``train`` resets once and then streams the
training rows through it in blocks), or tracked with a discounted moving
average during the final training epoch (``update_precision_minibatch``;
previous precision weighted ``m``, fresh minibatch term weighted ``1 - m``).
Each term is the symmetric product ``A^T A`` with ``A = sqrt(w) * phi``,
added in place one slab of ``PANEL`` columns at a time (``add_gram``), so
neither update holds a D x D temporary and the precision stays exactly
symmetric; ``reset_precision`` refills the matrix it already holds.  For
K = 2, ``p_0 (1 - p_0) = p_1 (1 - p_1)``, so this is each class's own
precision.

Every class's logit variance is ``phi^T Sigma phi`` with the covariance
``Sigma = precision^{-1}``.  As in SNGP, where the precision is gathered
during training and inverted once for prediction, ``covariance`` builds it on
its first call, by one step of block elimination (``spd_inverse``) in NumPy
matrix products written over the precision itself.  No D x D temporary is
made: the factors and products live in the precision's upper block, which is
never read, so beside the matrix being inverted at most two (D/2, D/2) blocks
are alive (when D is even).  The head then holds the covariance alone and
refuses to update, reset or save its precision, so a model is trained and
saved before it predicts.  A batch of variances is then one
``quadratic_form``: one matrix product per slab of ``PANEL`` columns against
the lower block triangle of ``Sigma``, which is symmetric, at about 5/8 of the
flops of the full ``phi @ Sigma``.

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
PANEL = 256  # columns of each slab of a Fisher term or of a variance product
KERNEL_ABS_ERROR = 5e-16  # bound on |half_angle_cos_sin - (np.cos, np.sin)|


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
    """Frozen random-feature frontend plus trainable output weights and one
    (D, D) Laplace precision matrix shared by the K classes.

    The constructor allocates every array as zeros, to be drawn into by
    ``draw`` or read from a checkpoint.  The hyperparameters are taken as
    given: ``ModelSpec`` checks that ``length_scale`` and ``ridge_s`` are
    positive and finite and that ``discount_m`` lies in (0, 1).
    ``projection_dim = None`` means no down-projection."""

    def __init__(self, in_dim: int, num_features: int, num_classes: int, *,
                 length_scale: float, ridge_s: float, discount_m: float,
                 use_layer_norm: bool, projection_dim: int | None):
        self.in_dim = in_dim
        self.num_features = num_features
        self.num_classes = num_classes
        self.length_scale = float(length_scale)
        self.ridge_s = float(ridge_s)
        self.discount_m = float(discount_m)
        self.use_layer_norm = use_layer_norm

        if projection_dim is not None:
            self.input_projection = np.zeros((projection_dim, in_dim))
            feat_in = projection_dim
        else:
            self.input_projection = None
            feat_in = in_dim
        self.w_fixed = np.zeros((num_features, feat_in))
        self.b_fixed = np.zeros(num_features)
        self.beta = np.zeros((num_classes, num_features))
        # The precision, until ``covariance`` inverts it in place or
        # ``free_precision`` drops it; ``_without_precision`` then says which.
        self._posterior: np.ndarray | None = np.zeros((num_features, num_features))
        self._without_precision: str | None = None

    def draw(self, rng: RngState) -> None:
        """The initial draw: the frozen frontend, in place, from the streams
        ``gp_proj``, ``gp_w`` and ``gp_b`` of ``rng``, and the precision
        replaced by a new ``ridge_s * I``; ``beta`` is left as it is (zero on a
        new layer)."""
        if self.input_projection is not None:
            rng.derive("gp_proj").fill_normal(self.input_projection)
        rng.derive("gp_w").fill_normal(self.w_fixed)
        rng.derive("gp_b").fill_uniform(self.b_fixed, 0.0, 2.0 * np.pi)
        # The ridge is a new array, not the constructor's zeros filled in
        # place: freeing those untouched D x D zeros raises glibc's mmap
        # threshold, so the smaller temporaries of every later step are served
        # from the heap instead of each being mapped and unmapped, and no
        # identity is made beside them.  A fresh default ``sngp train`` took
        # 8k-14k minor page faults this way (10k-16k through a transient
        # ``np.eye``) and ≈424k with ``np.fill_diagonal`` alone, which frees no
        # block (2-vCPU x86-64 host, glibc malloc, NumPy 2.4).
        self._held_precision()  # a head that has predicted is not redrawn
        self._posterior = np.diag(np.full(self.num_features, self.ridge_s))

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
        # z / 2, formed directly: halving is exact, so this is half of z's bits.
        half_z = x @ self.w_fixed.T
        half_z *= -0.5 / self.length_scale
        half_z += 0.5 * self.b_fixed
        phi, tape["sin_z"] = half_angle_cos_sin(half_z)
        phi *= np.sqrt(2.0 / self.num_features)
        return phi, tape

    def backprop_features(self, tape: dict, grad_phi: np.ndarray) -> np.ndarray:
        """Gradient of the loss w.r.t. the hidden input, given d loss / d phi."""
        dz = -np.sqrt(2.0 / self.num_features) * tape["sin_z"] * grad_phi
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

    def _held_precision(self) -> np.ndarray:
        """The (D, D) precision, to be updated and read in place;
        ``ValueError`` once ``covariance`` has inverted it for prediction, or
        ``free_precision`` has dropped it.  So a head that has predicted can
        no longer train or be saved: save it first."""
        if self._without_precision is not None:
            raise ValueError(f"this GP head {self._without_precision}")
        return self._posterior

    @property
    def precision(self) -> list[np.ndarray]:
        """``[precision]``: the one matrix of ``_held_precision``, in a list
        because the benchmark's score check (``perfbench/workloads.py``)
        iterates it."""
        return [self._held_precision()]

    def reset_precision(self) -> None:
        """Set the precision to ridge_s * I, in the array it already holds."""
        p = self._held_precision()
        p.fill(0.0)
        np.fill_diagonal(p, self.ridge_s)

    def _fisher_factor(self, phi_batch: np.ndarray, probs_batch: np.ndarray) -> np.ndarray:
        """For an (M, D) phi and (M, K) probs batch, the (M, D) matrix
        ``A = sqrt(w) * phi`` whose ``A^T A`` is the precision's term
        ``sum_i w_i phi_i phi_i^T``, with the class-mean weight
        ``w_i = mean_k p_ik (1 - p_ik)``."""
        phi_batch = np.asarray(phi_batch, dtype=np.float64)
        probs_batch = np.asarray(probs_batch, dtype=np.float64)
        if phi_batch.ndim != 2 or phi_batch.shape[1] != self.num_features:
            raise ValueError(f"phi batch must be (M, {self.num_features}), got {phi_batch.shape}")
        if probs_batch.shape != (phi_batch.shape[0], self.num_classes):
            raise ValueError(f"probs batch must be (M, {self.num_classes}), got {probs_batch.shape}")
        weights = probs_batch * (1.0 - probs_batch)
        if not np.all(weights >= 0.0):  # NaN fails too
            raise ValueError("probs batch must lie in [0, 1]")
        return phi_batch * np.sqrt(weights.mean(axis=1, keepdims=True))

    def update_precision_minibatch(self, phi_batch: np.ndarray, probs_batch: np.ndarray) -> None:
        """Discounted moving-average update: m * previous + (1 - m) * batch term.

        An empty batch contributes a zero fresh term, i.e. it only scales the
        previous precision by m.
        """
        p = self._held_precision()
        a = self._fisher_factor(phi_batch, probs_batch)
        p *= self.discount_m
        add_gram(p, a, 1.0 - self.discount_m)

    def update_precision_exact(self, phi: np.ndarray, probs: np.ndarray) -> None:
        """Add the Fisher term of one block of rows to the precision.

        The exact precision ``ridge_s * I + sum_i w_i phi_i phi_i^T`` over a
        data set is ``reset_precision`` followed by this call on each block of
        its rows, which is how ``train`` builds it; how the rows are split
        changes the sum only by rounding.
        """
        add_gram(self._held_precision(), self._fisher_factor(phi, probs))

    def covariance(self) -> np.ndarray:
        """Posterior covariance precision^{-1}.  The first call inverts the
        precision in place by ``spd_inverse``, with no D x D temporary, and
        later calls return the same matrix.  The precision is gone
        afterwards, even if the inversion raises, so the updates,
        ``reset_precision`` and saving a checkpoint raise ``ValueError``."""
        if self._without_precision is None:
            precision, self._posterior = self._posterior, None
            self._without_precision = ("holds only its posterior covariance: its precision "
                                       "was inverted in place for prediction")
            try:
                self._posterior = spd_inverse(precision)
            except NotSpdError as exc:
                raise NotSpdError(f"precision matrix lost positive definiteness: {exc}") from exc
        if self._posterior is None:
            raise ValueError(f"this GP head {self._without_precision}")
        return self._posterior

    def free_precision(self) -> None:
        """Drop the precision or covariance, for a head whose variances are
        never read: afterwards the variances, the updates, ``reset_precision``
        and saving a checkpoint raise ``ValueError``."""
        self._posterior = None
        self._without_precision = ("holds neither its precision nor its covariance: it "
                                   "predicts mean logits only")

    def predictive_variance_batch(self, phi_batch: np.ndarray) -> np.ndarray:
        """(batch, K) logit variances phi^T precision^{-1} phi (each >= 0): one
        ``quadratic_form``, the same for every class."""
        phi_batch = np.asarray(phi_batch, dtype=np.float64)
        variance = np.maximum(quadratic_form(self.covariance(), phi_batch), 0.0)
        return np.repeat(variance[:, None], self.num_classes, axis=1)


def half_angle_cos_sin(half_z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(cos z, sin z)`` from ``half_z = z / 2``, which it overwrites (it
    becomes ``sin z``).  With ``t = tan(z / 2)`` and ``r = 2 / (1 + t^2)``,
    ``cos z = r - 1`` and ``sin z = t r``.  Since ``0 <= r <= 2``,
    ``|cos z| <= 1`` holds exactly; both stay within ``KERNEL_ABS_ERROR`` of
    ``np.cos`` and ``np.sin`` (``sngp verify --suite kernel`` checks it up to
    ``|z| = 1e12``)."""
    t = np.tan(half_z, out=half_z)
    r = t * t
    r += 1.0
    np.divide(2.0, r, out=r)
    t *= r
    r -= 1.0
    return r, t


def add_gram(p: np.ndarray, a: np.ndarray, scale: float = 1.0) -> None:
    """``p += scale * a.T @ a`` for a symmetric (D, D) ``p`` and an (M, D)
    ``a``, one slab of ``PANEL`` columns at a time, so no temporary is larger
    than (D, ``PANEL``).  Each slab's diagonal block is one ``syrk`` product
    and its part below that block is added to both triangles, so ``p`` stays
    exactly symmetric, at half the flops of a general product."""
    d = p.shape[1]
    for j in range(0, d, PANEL):
        cols, below = slice(j, j + PANEL), slice(j + PANEL, d)
        block = a[:, cols].T @ a[:, cols]
        t = a[:, below].T @ a[:, cols]
        if scale != 1.0:
            block *= scale
            t *= scale
        p[cols, cols] += block
        p[below, cols] += t
        p[cols, below] += t.T
        del block, t  # so that the next slab is not made beside this one


def quadratic_form(cov: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """``phi_i^T cov phi_i`` for each row of an (N, D) ``phi`` and a symmetric
    (D, D) ``cov``, reading only ``cov``'s lower block triangle.

    Per slab ``J`` of ``PANEL`` columns, ``t = phi_J cov_JJ + 2 sum_{I > J}
    phi_I cov_IJ`` is one matrix product and ``phi_J . t`` adds slab J's
    share, so the off-diagonal blocks are read once instead of twice: at
    D = 1024 that is 5/8 of the flops of ``phi @ cov``.  ``2 phi`` is copied
    once and each slab is halved back in place just before it is used
    (doubling and halving are exact), so no temporary is larger than that
    (N, D) copy and one (N, ``PANEL``) product.
    """
    d = cov.shape[0]
    scaled = 2.0 * phi
    out = np.zeros(phi.shape[0])
    for j in range(0, d, PANEL):
        cols = slice(j, j + PANEL)
        scaled[:, cols] *= 0.5
        t = scaled[:, j:] @ cov[j:, cols]
        out += np.einsum("ij,ij->i", t, phi[:, cols])
        del t  # so that the next slab's product is not made beside this one
    return out


def spd_inverse(p: np.ndarray) -> np.ndarray:
    """Inverse of an SPD (D, D) matrix by one step of block elimination,
    written over ``p``, which it returns.  Only the lower triangle of ``p``
    affects the result, and a ``p`` that is not SPD, or holds NaN or inf
    there, raises ``NotSpdError`` without a warning, with ``p`` partly
    overwritten.

    With ``p = [[A, B^T], [B, C]]`` split at h = D // 2, ``X = A^{-1} B^T`` and
    the Schur complement ``S = C - B X``, the inverse is

        [[A^{-1} - X Sigma_21, Sigma_21^T],
         [Sigma_21,            S^{-1}   ]],   Sigma_21 = -S^{-1} X^T,

    with ``A^{-1}`` and ``S^{-1}`` from their inverse Cholesky factors.  Each
    block goes into ``p`` once the block it replaces has been read for the
    last time: ``A^{-1}`` over ``A``, ``S`` and then ``S^{-1}`` over ``C``,
    ``Sigma_21`` over ``B``.  The upper block ``p[:h, h:]`` is never read, so
    when D is even it holds, in turn, ``A``'s factor, ``B X``, ``S``'s factor
    and ``X Sigma_21``, and at last ``Sigma_21^T``.  Beside ``p`` at most two
    (D/2, D/2) blocks are then alive: ``X`` and the solve's inner product.
    When D is odd that block is not square, and those four are allocated
    instead.
    """
    d = p.shape[0]
    h = d // 2
    spare = p[:h, h:] if d == 2 * h else None
    b = p[h:, :h]  # holds B, then Sigma_21
    corner = p[h:, h:]  # holds C, then S, then Sigma_22
    w_a = spd_factor(p[:h, :h], out=spare)
    # A non-finite or huge B overflows here; S is then not finite and its
    # factorization raises NotSpdError.
    with np.errstate(over="ignore", invalid="ignore"):
        x = spd_solve_factored(w_a, b.T)
        np.matmul(w_a.T, w_a, out=p[:h, :h])
        del w_a
        corner -= np.matmul(b, x, out=spare)
    w_s = spd_factor(corner, out=spare)
    np.matmul(w_s.T, w_s, out=corner)
    del w_s
    s21 = np.matmul(corner, x.T, out=b)
    np.negative(s21, out=s21)
    p[:h, :h] -= np.matmul(x, s21, out=spare)
    p[:h, h:] = s21.T
    return p


def check_rows(finite: np.ndarray, h: np.ndarray, derived: str) -> None:
    """Raise ``NonFiniteRowError`` for the first row not marked ``finite``:
    its hidden features in ``h`` are not finite, or else ``derived`` (what was
    computed from them) is not."""
    if finite.all():
        return
    row = int(np.flatnonzero(~finite)[0])
    what = "hidden features are" if not np.isfinite(h[row]).all() else derived
    raise NonFiniteRowError(row, f"{what} not finite")


def softmax(logits: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Softmax over the last axis, computed in ``out`` (which may be ``logits``)
    when given, else in a new array; both give the same bits."""
    with np.errstate(over="ignore"):  # a spread past the float range gives -inf, whose exp is 0
        z = np.subtract(logits, np.max(logits, axis=-1, keepdims=True), out=out,
                        dtype=np.float64)
    np.exp(z, out=z)
    z /= z.sum(axis=-1, keepdims=True)
    return z


def mc_softmax(mean: np.ndarray, variance: np.ndarray, n_samples: int, rng: RngState) -> np.ndarray:
    """Average softmax(mean + sqrt(variance) * eps) over n_samples normal draws,
    for one (K,) logit vector or an (N, K) batch of them.

    The softmax is taken inside the (n_samples, N, K) buffer of the draws,
    one sample at a time (``softmax(draw, out=draw)``), so beside it and the
    result no temporary is larger than (N, K).  With zero variance this is
    exactly softmax(mean) for any sample count.
    """
    mean = np.asarray(mean, dtype=np.float64)
    variance = np.asarray(variance, dtype=np.float64)
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    if np.any(variance < 0.0):
        raise ValueError("variance must be nonnegative")
    if not np.any(variance > 0.0):
        return softmax(mean)
    draws = rng.normal(n_samples * mean.size).reshape(n_samples, *mean.shape)
    draws *= np.sqrt(variance)
    draws += mean
    for draw in draws:
        softmax(draw, out=draw)
    return draws.mean(axis=0)
