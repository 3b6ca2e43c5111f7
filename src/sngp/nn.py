"""Residual feed-forward hidden mapping with manual backpropagation.

The network is an affine input projection (no activation) followed by
``depth`` residual blocks ``x -> x + dropout(relu(W x + b))``, all at a fixed
hidden width, sharing the network's one dropout rate.
Keeping every residual branch's spectral norm below a bound ``c < 1`` makes
the block stack bi-Lipschitz: distances through the stack are
squeezed/stretched by at most ``(1 - c)^depth`` and ``(1 + c)^depth``.  The
bound is enforced by ``spectral_normalize`` (one warm-started power iteration
per call, rescale only when the estimate exceeds the bound) and checked
empirically by ``lipschitz_probe``.

Gradients are computed by hand in ``backward`` from the tape recorded during
``forward``; parameters and gradients travel as flat ``{name: array}`` dicts.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import RngState, power_iteration


@dataclass
class DenseLayer:
    """Affine layer with persisted spectral-normalization state.

    weight is (out, in); sn_u is the persisted left singular-vector estimate
    used to warm-start power iteration; sn_bound is the spectral-norm cap c,
    taken as given (``ModelSpec`` checks it is positive and finite).  Biases
    are never normalized.
    """

    weight: np.ndarray
    bias: np.ndarray
    sn_u: np.ndarray
    sn_bound: float

    @property
    def out_dim(self) -> int:
        return self.weight.shape[0]

    @property
    def in_dim(self) -> int:
        return self.weight.shape[1]

    @classmethod
    def zeros(cls, in_dim: int, out_dim: int, *, sn_bound: float) -> "DenseLayer":
        """A layer whose arrays are all zeros, to be drawn into or loaded."""
        return cls(weight=np.zeros((out_dim, in_dim)), bias=np.zeros(out_dim),
                   sn_u=np.zeros(out_dim), sn_bound=sn_bound)

    def draw(self, rng: RngState) -> None:
        """The initial draw, in place: a He-scaled normal weight and a random
        unit ``sn_u``; the bias is left as it is (zero on a new layer)."""
        rng.fill_normal(self.weight)
        self.weight *= np.sqrt(2.0 / self.in_dim)
        rng.fill_normal(self.sn_u)
        self.sn_u /= np.linalg.norm(self.sn_u)

    def apply(self, x: np.ndarray) -> np.ndarray:
        out = x @ self.weight.T
        out += self.bias
        return out


@dataclass
class ResidualBlock:
    """A square layer (``ResFfnNetwork.zeros`` makes it square) under a ReLU;
    the dropout rate belongs to the network."""

    layer: DenseLayer


@dataclass
class ForwardTape:
    """Per-minibatch cache of everything backward needs: the input, each
    block's input, its ReLU gate ``W h + b > 0`` (one byte per unit) and its
    dropout mask (None when no units drop)."""

    x_in: np.ndarray
    block_inputs: list[np.ndarray] = field(default_factory=list)
    gates: list[np.ndarray] = field(default_factory=list)
    dropout_masks: list[np.ndarray | None] = field(default_factory=list)


class ResFfnNetwork:
    """Input projection plus ReLU residual blocks of its output width, which
    share its dropout rate (in [0, 1)), taken as given."""

    def __init__(self, input_projection: DenseLayer, blocks: list[ResidualBlock], *,
                 dropout_rate: float):
        self.input_projection = input_projection
        self.blocks = blocks
        self.dropout_rate = dropout_rate

    @classmethod
    def zeros(cls, input_dim: int, hidden_width: int, depth: int, *,
              dropout_rate: float, sn_bound: float) -> "ResFfnNetwork":
        """A network of square blocks whose arrays are all zeros, to be drawn
        into or loaded.  The values are taken as given; ``ModelSpec`` checks them."""
        proj = DenseLayer.zeros(input_dim, hidden_width, sn_bound=sn_bound)
        blocks = [ResidualBlock(layer=DenseLayer.zeros(hidden_width, hidden_width,
                                                       sn_bound=sn_bound))
                  for _ in range(depth)]
        return cls(proj, blocks, dropout_rate=dropout_rate)

    def draw(self, rng: RngState) -> None:
        """The initial draw of every layer, in place, each from its own stream of ``rng``."""
        self.input_projection.draw(rng.derive("proj"))
        for i, blk in enumerate(self.blocks):
            blk.layer.draw(rng.derive(f"block{i}"))

    @property
    def hidden_width(self) -> int:
        return self.input_projection.out_dim

    @property
    def depth(self) -> int:
        return len(self.blocks)

    @property
    def input_dim(self) -> int:
        return self.input_projection.in_dim

    def parameters(self) -> dict[str, np.ndarray]:
        params = {"proj.w": self.input_projection.weight, "proj.b": self.input_projection.bias}
        for i, blk in enumerate(self.blocks):
            params[f"block{i}.w"] = blk.layer.weight
            params[f"block{i}.b"] = blk.layer.bias
        return params

    def forward(self, x: np.ndarray, rng: RngState | None = None,
                keep_tape: bool = True) -> tuple[np.ndarray, ForwardTape | None]:
        """Map a (batch, input_dim) matrix to (batch, width) hidden features.

        Dropout masks (inverted dropout on the residual branch) are drawn from
        ``rng`` exactly when a stream is given and the network's rate is above
        0.  Each block's branch is computed in place over its pre-activation
        ``z``, which nothing else holds: the tape keeps only the gate ``z > 0``.
        With ``keep_tape = False`` the tape is None.
        """
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.input_dim:
            raise ValueError(f"expected input of shape (batch, {self.input_dim}), got {x.shape}")
        keep = 1.0 - self.dropout_rate if rng is not None and self.dropout_rate > 0.0 else None
        h = self.input_projection.apply(x)
        tape = ForwardTape(x_in=x) if keep_tape else None
        for blk in self.blocks:
            z = blk.layer.apply(h)
            mask = None if keep is None else rng.bernoulli_mask(z.shape, keep) / keep
            if tape is not None:
                tape.block_inputs.append(h)
                tape.gates.append(z > 0.0)
                tape.dropout_masks.append(mask)
            np.maximum(z, 0.0, out=z)
            if mask is not None:
                z *= mask
            z += h
            h = z
        return h, tape

    def backward(self, tape: ForwardTape, grad_h: np.ndarray) -> dict[str, np.ndarray]:
        """Reverse-mode gradients of a scalar loss whose d/dh is ``grad_h``."""
        if len(tape.block_inputs) != self.depth:
            raise ValueError("tape does not match this network (stale or foreign tape)")
        if grad_h.shape != (tape.x_in.shape[0], self.hidden_width):
            raise ValueError(f"grad_h has shape {grad_h.shape}, expected "
                             f"({tape.x_in.shape[0]}, {self.hidden_width})")
        grads: dict[str, np.ndarray] = {}
        d = np.asarray(grad_h, dtype=np.float64)
        for i in range(self.depth - 1, -1, -1):
            blk = self.blocks[i]
            d_branch = d
            if tape.dropout_masks[i] is not None:
                d_branch = d_branch * tape.dropout_masks[i]
            dz = d_branch * tape.gates[i]
            grads[f"block{i}.w"] = dz.T @ tape.block_inputs[i]
            grads[f"block{i}.b"] = dz.sum(axis=0)
            d = d + dz @ blk.layer.weight
        grads["proj.w"] = d.T @ tape.x_in
        grads["proj.b"] = d.sum(axis=0)
        return grads


def spectral_normalize(layer: DenseLayer) -> float:
    """One power-iteration step, then rescale the weight if it exceeds the bound.

    Updates ``layer.sn_u`` in place and applies ``w <- c * w / sigma_hat`` only
    when ``c < sigma_hat``; otherwise the weight is left untouched.  Returns
    the sigma estimate from before any rescale.
    """
    sigma, u = power_iteration(layer.weight, iters=1, u0=layer.sn_u)
    layer.sn_u = u
    _rescale_to_bound(layer, sigma)
    return sigma


def _rescale_to_bound(layer: DenseLayer, sigma: float) -> None:
    """``w <- c * w / sigma`` when the bound ``c`` is below the spectral-norm
    estimate ``sigma``; otherwise the weight is left untouched."""
    if sigma > 0.0 and layer.sn_bound < sigma:
        layer.weight *= layer.sn_bound / sigma


def normalize_network(net: ResFfnNetwork) -> None:
    """Spectral-normalize every residual-block layer (projection untouched)."""
    for blk in net.blocks:
        spectral_normalize(blk.layer)


def clamp_network(net: ResFfnNetwork) -> None:
    """Rescale every residual-block layer so its exact spectral norm is at
    most the bound.

    The per-step normalization estimates the norm with a single warm-started
    power iteration, which lags the SGD updates by O(step size); calling this
    once after training removes that residual excess exactly.
    """
    for blk in net.blocks:
        _rescale_to_bound(blk.layer, float(np.linalg.norm(blk.layer.weight, 2)))


def lipschitz_probe(net: ResFfnNetwork,
                    pairs: list[tuple[np.ndarray, np.ndarray]]) -> tuple[float, float, int]:
    """Empirical distance-distortion extremes of the residual stack.

    For each pair (x, x') measures ||h(x) - h(x')|| / ||P(x) - P(x')|| where P
    is the input projection, i.e. the ratio across the residual blocks only,
    which is the regime where the (1 -+ c)^depth bounds apply.  No units drop
    (no dropout stream).  Pairs that coincide after projection are skipped
    and counted.

    Returns:
        (min_ratio, max_ratio, num_skipped)
    """
    xs = np.asarray([p[0] for p in pairs], dtype=np.float64)
    ys = np.asarray([p[1] for p in pairs], dtype=np.float64)
    hx, _ = net.forward(xs, keep_tape=False)
    hy, _ = net.forward(ys, keep_tape=False)
    proj = net.input_projection.apply
    denom = np.linalg.norm(proj(xs) - proj(ys), axis=1)
    moved = denom != 0.0
    if not moved.any():
        raise ValueError("all probe pairs coincided after projection")
    ratios = np.linalg.norm(hx - hy, axis=1)[moved] / denom[moved]
    return float(ratios.min()), float(ratios.max()), int(np.sum(~moved))


class SgdMomentum:
    """Plain SGD with momentum over a {name: array} parameter dict.

    Update rule (documented so tests can hand-unroll it):
        v <- momentum * v + grad
        p <- p - learning_rate * v

    Both values are taken as given; ``TrainConfig`` checks them.
    """

    def __init__(self, learning_rate: float, momentum: float):
        self.learning_rate = learning_rate
        self.momentum = momentum
        self._velocity: dict[str, np.ndarray] = {}

    def step(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray]) -> None:
        for name, p in params.items():
            g = grads.get(name)
            if g is None:
                continue
            v = self._velocity.get(name)
            if v is None:
                v = np.zeros_like(p)
                self._velocity[name] = v
            v *= self.momentum
            v += g
            p -= self.learning_rate * v


def build_res_ffn(input_dim: int, hidden_width: int, depth: int, rng: RngState, *,
                  dropout_rate: float, sn_bound: float) -> ResFfnNetwork:
    """A new network: ``ResFfnNetwork.zeros`` drawn into by ``ResFfnNetwork.draw``."""
    net = ResFfnNetwork.zeros(input_dim, hidden_width, depth,
                              dropout_rate=dropout_rate, sn_bound=sn_bound)
    net.draw(rng)
    return net
