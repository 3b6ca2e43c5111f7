"""Residual feed-forward hidden mapping with manual backpropagation.

The network is an affine input projection (no activation) followed by
``depth`` residual blocks ``x -> x + dropout(act(W x + b))``, all at a fixed
hidden width.  Keeping every residual branch's spectral norm below a bound
``c < 1`` makes the block stack bi-Lipschitz: distances through the stack are
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

ACTIVATIONS = {
    "relu": (lambda z: np.maximum(z, 0.0), lambda z: (z > 0.0).astype(np.float64)),
    "tanh": (np.tanh, lambda z: 1.0 - np.tanh(z) ** 2),
    "linear": (lambda z: z, lambda z: np.ones_like(z)),
}


@dataclass
class DenseLayer:
    """Affine layer with persisted spectral-normalization state.

    weight is (out, in); sn_u is the persisted left singular-vector estimate
    used to warm-start power iteration; sn_bound is the spectral-norm cap c.
    Biases are never normalized.
    """

    weight: np.ndarray
    bias: np.ndarray
    sn_u: np.ndarray
    sn_bound: float = 1.0

    @property
    def out_dim(self) -> int:
        return self.weight.shape[0]

    @property
    def in_dim(self) -> int:
        return self.weight.shape[1]

    def apply(self, x: np.ndarray) -> np.ndarray:
        return x @ self.weight.T + self.bias


def make_dense_layer(in_dim: int, out_dim: int, rng: RngState, sn_bound: float = 1.0) -> DenseLayer:
    """He-scaled normal init for the weight, zero bias, random unit sn_u."""
    scale = np.sqrt(2.0 / in_dim)
    weight = scale * rng.normal_matrix(out_dim, in_dim)
    u = rng.normal(out_dim)
    u /= np.linalg.norm(u)
    return DenseLayer(weight=weight, bias=np.zeros(out_dim), sn_u=u, sn_bound=sn_bound)


@dataclass
class ResidualBlock:
    layer: DenseLayer
    activation: str = "relu"
    dropout_rate: float = 0.0

    def __post_init__(self):
        if self.layer.out_dim != self.layer.in_dim:
            raise ValueError("residual blocks require equal input and output dimension")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError("dropout_rate must lie in [0, 1)")


@dataclass
class ForwardTape:
    """Per-minibatch cache of everything backward needs."""

    x_in: np.ndarray
    proj_out: np.ndarray
    block_inputs: list[np.ndarray] = field(default_factory=list)
    pre_activations: list[np.ndarray] = field(default_factory=list)
    dropout_masks: list[np.ndarray | None] = field(default_factory=list)


class ResFfnNetwork:
    """Input projection plus a stack of equal-width residual blocks."""

    def __init__(self, input_projection: DenseLayer, blocks: list[ResidualBlock]):
        width = input_projection.out_dim
        for blk in blocks:
            if blk.layer.out_dim != width:
                raise ValueError("all residual blocks must match the projection width")
        self.input_projection = input_projection
        self.blocks = blocks

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

    def forward(self, x: np.ndarray, train_mode: bool = False,
                rng: RngState | None = None) -> tuple[np.ndarray, ForwardTape]:
        """Map a (batch, input_dim) matrix to (batch, width) hidden features.

        Dropout masks (inverted dropout on the residual branch) are drawn from
        ``rng`` only when ``train_mode`` is set and a block has a nonzero rate.
        """
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.input_dim:
            raise ValueError(f"expected input of shape (batch, {self.input_dim}), got {x.shape}")
        tape = ForwardTape(x_in=x, proj_out=self.input_projection.apply(x))
        h = tape.proj_out
        for blk in self.blocks:
            act, _ = ACTIVATIONS[blk.activation]
            z = blk.layer.apply(h)
            branch = act(z)
            mask = None
            if train_mode and blk.dropout_rate > 0.0:
                if rng is None:
                    raise ValueError("train-mode forward with dropout requires an rng")
                keep = 1.0 - blk.dropout_rate
                mask = rng.bernoulli_mask(z.shape, keep) / keep
                branch = branch * mask
            tape.block_inputs.append(h)
            tape.pre_activations.append(z)
            tape.dropout_masks.append(mask)
            h = h + branch
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
            _, act_grad = ACTIVATIONS[blk.activation]
            d_branch = d
            if tape.dropout_masks[i] is not None:
                d_branch = d_branch * tape.dropout_masks[i]
            dz = d_branch * act_grad(tape.pre_activations[i])
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
    if not layer.sn_bound > 0.0:
        raise ValueError("sn_bound must be positive")
    sigma, u = power_iteration(layer.weight, iters=1, u0=layer.sn_u)
    layer.sn_u = u
    if sigma > 0.0 and layer.sn_bound < sigma:
        layer.weight *= layer.sn_bound / sigma
    return sigma


def normalize_network(net: ResFfnNetwork) -> None:
    """Spectral-normalize every residual-block layer (projection untouched)."""
    for blk in net.blocks:
        spectral_normalize(blk.layer)


def clamp_spectral_norm(layer: DenseLayer) -> None:
    """Rescale the weight so its exact spectral norm is at most the bound.

    The per-step normalization estimates the norm with a single warm-started
    power iteration, which lags the SGD updates by O(step size); calling this
    once after training removes that residual excess exactly.
    """
    sigma = float(np.linalg.norm(layer.weight, 2))
    if sigma > 0.0 and layer.sn_bound < sigma:
        layer.weight *= layer.sn_bound / sigma


def clamp_network(net: ResFfnNetwork) -> None:
    """Exact spectral-norm clamp of every residual-block layer."""
    for blk in net.blocks:
        clamp_spectral_norm(blk.layer)


def lipschitz_probe(net: ResFfnNetwork,
                    pairs: list[tuple[np.ndarray, np.ndarray]]) -> tuple[float, float, int]:
    """Empirical distance-distortion extremes of the residual stack.

    For each pair (x, x') measures ||h(x) - h(x')|| / ||P(x) - P(x')|| where P
    is the input projection, i.e. the ratio across the residual blocks only,
    which is the regime where the (1 -+ c)^depth bounds apply.  Runs in
    evaluation mode (no dropout).  Pairs that coincide after projection are
    skipped and counted.

    Returns:
        (min_ratio, max_ratio, num_skipped)
    """
    ratios = []
    skipped = 0
    xs = np.asarray([p[0] for p in pairs], dtype=np.float64)
    ys = np.asarray([p[1] for p in pairs], dtype=np.float64)
    hx, tape_x = net.forward(xs, train_mode=False)
    hy, tape_y = net.forward(ys, train_mode=False)
    denom = np.linalg.norm(tape_x.proj_out - tape_y.proj_out, axis=1)
    numer = np.linalg.norm(hx - hy, axis=1)
    for n, d in zip(numer, denom):
        if d == 0.0:
            skipped += 1
        else:
            ratios.append(n / d)
    if not ratios:
        raise ValueError("all probe pairs coincided after projection")
    return float(min(ratios)), float(max(ratios)), skipped


class SgdMomentum:
    """Plain SGD with momentum over a {name: array} parameter dict.

    Update rule (documented so tests can hand-unroll it):
        v <- momentum * v + grad
        p <- p - learning_rate * v
    """

    def __init__(self, learning_rate: float, momentum: float = 0.0):
        if not learning_rate > 0.0:  # NaN fails too
            raise ValueError(f"learning_rate must be positive, got {learning_rate!r}")
        if not 0.0 <= momentum < 1.0:
            raise ValueError("momentum must lie in [0, 1)")
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


def build_res_ffn(input_dim: int, hidden_width: int, depth: int, rng: RngState,
                  activation: str = "relu", dropout_rate: float = 0.0,
                  sn_bound: float = 1.0) -> ResFfnNetwork:
    """Construct a randomly initialized residual feed-forward network."""
    proj = make_dense_layer(input_dim, hidden_width, rng.derive("proj"), sn_bound=sn_bound)
    blocks = [
        ResidualBlock(
            layer=make_dense_layer(hidden_width, hidden_width, rng.derive(f"block{i}"), sn_bound=sn_bound),
            activation=activation,
            dropout_rate=dropout_rate,
        )
        for i in range(depth)
    ]
    return ResFfnNetwork(proj, blocks)
