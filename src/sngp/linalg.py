"""Dense linear algebra primitives and deterministic random streams.

Everything downstream (network training, the Gaussian-process head, the
benchmark generators) funnels its numerics through this module so that the
core operations have a single, well-tested home:

* ``spd_factor`` / ``spd_solve_factored`` factor an SPD matrix ``a`` once
  into its inverse Cholesky factor ``W = L^{-1}`` (so ``a^{-1} = W^T W``)
  and solve against it with two matrix products; a matrix that is not SPD
  raises ``NotSpdError`` and a right-hand side of the wrong length
  ``ValueError``.  The factor comes from one 2 x 2 block recursion whose
  work is matrix products, written into a given array (``out``) or a new
  one; only diagonal blocks of at most ``LOWER_INVERSE_LEAF`` rows go to
  NumPy's Cholesky, which runs far below the matrix-product rate at larger
  sizes.
* ``power_iteration`` estimates the largest singular value of a matrix and
  returns the left singular-vector estimate so callers can warm-start the
  next call with a single iteration per training step.
* ``RngState`` is the only source of randomness in the package.  It wraps
  NumPy's PCG64 generator (the documented algorithm; identical seeds give
  bit-identical streams) and supports deriving independent child streams
  from string labels, so e.g. weight initialisation and minibatch shuffling
  never share a stream.

All arrays are 64-bit floats.  Everything here is NumPy, so a process links
one BLAS and runs one BLAS thread pool.
"""

from __future__ import annotations

import hashlib

import numpy as np

# Diagonal blocks up to this size are factored directly; larger ones split in two.
LOWER_INVERSE_LEAF = 64


class NotSpdError(ValueError):
    """Raised when a matrix expected to be SPD fails its Cholesky factorization."""


def spd_factor(a: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Inverse Cholesky factor ``W = L^{-1}`` of an SPD matrix ``a = L L^T``,
    lower triangular, so that ``a^{-1} = W^T W``; factor once for repeated
    ``spd_solve_factored`` calls.  Only the lower triangle of ``a`` is read,
    and an ``a`` that is not SPD, or holds NaN or inf there, raises
    ``NotSpdError`` without a warning.  ``W`` is written into ``out``, an
    (n, n) float64 array or view that does not overlap ``a``, and returned;
    a new array when ``out`` is None.  Either way it has the same bits.

    ``W`` is built by one recursion that never forms ``L``.  With ``a =
    [[A, B^T], [B, C]]`` split at h = n // 2 and ``W_11`` the factor of
    ``A``, ``L_21 = B W_11^T`` and the Schur complement ``S = C - L_21
    L_21^T`` has the factor ``W_22``, and ``W_21 = -W_22 L_21 W_11``.  Only
    blocks of at most ``LOWER_INVERSE_LEAF`` rows reach NumPy's Cholesky and
    inverse, so almost all the work is matrix products.  Each lower-triangle
    entry of ``S`` depends only on lower-triangle entries of ``a``.

    Each ``W_ij`` is written straight into its block of ``out``.  At a level
    of even size, ``S`` and then ``L_21 W_11`` are made in ``out``'s upper
    block, which is zeroed last, so that level allocates only ``L_21``: for
    n a power of two above the leaf, (n/2)^2 + (n/4)^2 + ... < n^2 / 3
    elements beside ``out`` in all, plus leaf-size temporaries.  A level of
    odd size allocates ``S`` and ``L_21 W_11`` too.
    """
    a = np.asarray(a, dtype=np.float64)
    return _inverse_factor(a, np.empty(a.shape) if out is None else out)


def _inverse_factor(a: np.ndarray, out: np.ndarray) -> np.ndarray:
    # The recursion stays off the public name, so a tracer that wraps
    # ``spd_factor`` sees one call per factor.
    n = a.shape[0]
    if n <= LOWER_INVERSE_LEAF:
        try:
            low = np.linalg.cholesky(a)
        except np.linalg.LinAlgError as exc:
            raise NotSpdError(f"matrix is not SPD: {exc}") from exc
        # A NaN or inf in the lower triangle of a reaches the diagonal of L
        # without making the factorization itself fail.
        if not np.isfinite(low.diagonal()).all():
            raise NotSpdError("matrix is not SPD: its Cholesky factor is not finite")
        out[...] = np.tril(np.linalg.inv(low))
        return out
    h = n // 2
    spare = out[:h, h:] if n == 2 * h else None  # square: it holds S, then L_21 W_11
    w11 = _inverse_factor(a[:h, :h], out[:h, :h])
    # A non-finite or huge B overflows here; S is then not finite and a leaf
    # of its factorization raises NotSpdError.
    with np.errstate(over="ignore", invalid="ignore"):
        l21 = a[h:, :h] @ w11.T
        s = np.matmul(l21, l21.T, out=spare)
        np.subtract(a[h:, h:], s, out=s)
    w22 = _inverse_factor(s, out[h:, h:])
    del s
    w21 = np.matmul(w22, np.matmul(l21, w11, out=spare), out=out[h:, :h])
    np.negative(w21, out=w21)
    out[:h, h:] = 0.0
    return out


def spd_solve_factored(factor: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve ``a x = b`` for a vector or (n, m) matrix ``b``, given
    ``factor = spd_factor(a)``: ``x = W^T (W b)``."""
    return factor.T @ (factor @ np.asarray(b, dtype=np.float64))


def power_iteration(w: np.ndarray, iters: int, u0: np.ndarray) -> tuple[float, np.ndarray]:
    """Estimate the largest singular value of ``w`` by alternating power steps.

    One iteration maps ``u -> normalize(w @ normalize(w.T @ u))``, i.e. a
    power-method step for ``w @ w.T``.  The returned ``u`` is the unit-norm
    left singular-vector estimate; persisting it between calls lets a single
    iteration per training step converge over the course of training.

    Args:
        w: (rows, cols) matrix.
        iters: number of iterations, >= 1.
        u0: (rows,) nonzero starting vector.

    Returns:
        (sigma_hat, u): the singular-value estimate and the updated unit vector.
        A zero matrix returns sigma_hat 0.0 with ``u0`` (normalized) unchanged.
    """
    w = np.asarray(w, dtype=np.float64)
    u = np.asarray(u0, dtype=np.float64).copy()
    if iters < 1:
        raise ValueError("iters must be >= 1")
    if w.ndim != 2:
        raise ValueError(f"power_iteration expects a matrix, got shape {w.shape}")
    if u.shape != (w.shape[0],):
        raise ValueError(f"u0 must have length {w.shape[0]}, got {u.shape}")
    # sqrt(x.dot(x)) is what np.linalg.norm computes for a real vector,
    # without its dispatch overhead on this once-per-layer-per-step path.
    u_norm = np.sqrt(u.dot(u))
    if u_norm == 0.0:
        raise ValueError("u0 must be nonzero")
    u /= u_norm

    sigma = 0.0
    for _ in range(iters):
        v = w.T @ u
        v_norm = np.sqrt(v.dot(v))
        if v_norm == 0.0:
            # u is in the left null space (always so for a zero matrix).
            return 0.0, u
        v /= v_norm
        wu = w @ v
        sigma = np.sqrt(wu.dot(wu))
        if sigma == 0.0:
            return 0.0, u
        u = wu / sigma
    return float(sigma), u


def _label_entropy(label: str) -> int:
    # Stable across runs and platforms (unlike hash()).
    digest = hashlib.sha256(label.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


class RngState:
    """Deterministic random stream backed by NumPy's PCG64 generator.

    Identical seeds produce bit-identical streams.  ``derive(label)`` builds a
    child stream whose seed mixes the parent seed with a stable hash of the
    label, so differently-labelled streams are independent for practical
    purposes and insensitive to draw order elsewhere in the program.
    """

    def __init__(self, seed: int, _entropy: tuple[int, ...] = ()):
        self.seed = int(seed)
        self._entropy = _entropy
        self._gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence([self.seed, *_entropy])))

    def derive(self, label: str) -> "RngState":
        """Create an independent child stream keyed by ``label``."""
        return RngState(self.seed, self._entropy + (_label_entropy(label),))

    def normal(self, n: int) -> np.ndarray:
        """Draw ``n`` i.i.d. standard normal values."""
        if n <= 0:
            raise ValueError("n must be positive")
        return self._gen.standard_normal(n)

    def normal_matrix(self, rows: int, cols: int) -> np.ndarray:
        """Draw a (rows, cols) matrix of i.i.d. standard normals (row-major fill)."""
        return self.normal(rows * cols).reshape(rows, cols)

    def fill_normal(self, out: np.ndarray) -> None:
        """Fill a C-contiguous float64 array, in place, with the values
        ``normal(out.size)`` would return, in row-major order."""
        self._gen.standard_normal(out=out)

    def fill_uniform(self, out: np.ndarray, lo: float, hi: float) -> None:
        """Fill a C-contiguous float64 array, in place, with the values
        ``uniform(out.size, lo, hi)`` would return: NumPy draws those as
        ``lo + (hi - lo) * u`` from the same ``u`` in [0, 1)."""
        self._gen.random(out=out)
        out *= hi - lo
        out += lo

    def uniform(self, n: int, lo: float, hi: float) -> np.ndarray:
        """Draw ``n`` i.i.d. uniforms on [lo, hi)."""
        if n <= 0:
            raise ValueError("n must be positive")
        if not lo < hi:
            raise ValueError(f"require lo < hi, got [{lo}, {hi})")
        return self._gen.uniform(lo, hi, size=n)

    def permutation(self, n: int) -> np.ndarray:
        """Random permutation of range(n)."""
        return self._gen.permutation(n)

    def bernoulli_mask(self, shape: tuple[int, ...], keep_prob: float) -> np.ndarray:
        """Float mask of 0/1 draws with P(1) = keep_prob."""
        return (self._gen.random(shape) < keep_prob).astype(np.float64)
