"""End-to-end training and prediction for the spectral-normalized GP classifier.

A model is a hidden mapping (the residual network, or the identity for the
shallow variant) composed with an output head (the random-feature GP layer,
or a plain dense layer for ablations).  Each minibatch step runs, in order:

    1. SGD-with-momentum update of all trainable parameters,
    2. spectral normalization of every residual layer (when enabled),
    3. during the final epoch, the moving-average precision update using
       evaluation-mode features and the current model probabilities.

The step order is observable through the optional ``hooks`` callback.
Training is bit-reproducible: shuffling, dropout, and initialisation all
draw from independently derived streams of the config seed.

Checkpoint format (binary, version 2, bit-exact round trip):

    bytes 0..7    magic ``SNGPCKPT``
    bytes 8..11   format version, uint32 little-endian
    bytes 12..15  header length in bytes, uint32 little-endian
    header        UTF-8 JSON (sorted keys): ``format_version``, ``variant``
                  tag, ``config`` (the run-config echo), ``model`` (the
                  ``ModelSpec`` fields), ``arrays`` (the manifest
                  [name, shape] in write order) and ``payload_crc32`` (the
                  zlib CRC-32 of the payload bytes)
    payload       the arrays from the manifest, concatenated raw
                  little-endian float64, C order

Loading checks, in order, the magic, the version, the payload length against
the manifest, the CRC, the ``ModelSpec`` field types, and the manifest
against the array names and shapes the spec implies; only then does it build
the model from its spec, so a header cannot make loading allocate more than
its payload holds.
"""

from __future__ import annotations

import json
import math
import time
import zlib
from dataclasses import dataclass, field, fields, asdict
from itertools import chain, zip_longest
from typing import Callable, Iterator

import numpy as np

from .gp_layer import (GpPrediction, NonFiniteRowError, RffGpLayer, check_rows, mc_softmax,
                       num_precisions, softmax)
from .linalg import RngState
from .nn import SgdMomentum, build_res_ffn, clamp_network, normalize_network

CHECKPOINT_MAGIC = b"SNGPCKPT"
CHECKPOINT_VERSION = 2
CHECKPOINT_PREAMBLE_BYTES = 16  # magic, version, header length
DIVERGENCE_LIMIT = 1e6
PREDICT_BLOCK_ROWS = 1024  # rows per network/feature/variance pass at inference


class TrainingDivergedError(RuntimeError):
    """Loss exceeded the divergence guard or became non-finite."""


class DenseHead:
    """Plain affine output layer for the non-GP ablations."""

    def __init__(self, in_dim: int, num_classes: int, rng: RngState):
        scale = np.sqrt(1.0 / in_dim)
        self.weight = scale * rng.normal_matrix(num_classes, in_dim)
        self.bias = np.zeros(num_classes)

    def logits(self, h: np.ndarray) -> np.ndarray:
        return h @ self.weight.T + self.bias


@dataclass
class TrainConfig:
    epochs: int = 40
    batch_size: int = 32
    learning_rate: float = 0.05
    momentum: float = 0.9
    l2_beta: float = 0.0
    seed: int = 0
    precision_exact: bool = False

    def __post_init__(self):
        # Written as ``not x > 0`` and so on, so that NaN fails too.
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if not self.learning_rate > 0.0:
            raise ValueError(f"learning_rate must be positive, got {self.learning_rate!r}")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError(f"momentum must lie in [0, 1), got {self.momentum!r}")
        if not self.l2_beta >= 0.0:
            raise ValueError(f"l2_beta must be >= 0, got {self.l2_beta!r}")


@dataclass
class TrainReport:
    epoch_losses: list[float] = field(default_factory=list)
    final_train_accuracy: float = 0.0
    wall_clock_s: float = 0.0
    seed: int = 0
    config_echo: dict = field(default_factory=dict)

    def as_text(self) -> str:
        lines = [f"seed={self.seed}",
                 f"final_train_accuracy={self.final_train_accuracy:.17g}",
                 f"wall_clock_s={self.wall_clock_s:.3f}"]
        for key in sorted(self.config_echo):
            lines.append(f"config.{key}={self.config_echo[key]}")
        for i, loss in enumerate(self.epoch_losses):
            lines.append(f"loss_epoch_{i}={loss:.17g}")
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class ModelSpec:
    """Every hyperparameter of a model: the hidden mapping, the output head and
    the seed of their initial draws.  ``identity_hidden`` replaces the network
    by the identity (``hidden_width``, ``depth`` and the network settings are
    then unused); ``gp_head = False`` puts a dense layer in place of the GP.
    Each field's type is checked on construction (``TypeError``), so a
    checkpoint header cannot pass a string or a bool where a number belongs.
    Then ``length_scale``, ``ridge_s`` and ``sn_bound`` must be > 0 and
    ``dropout_rate`` and ``discount_m`` in [0, 1) (``ValueError``; NaN fails
    both), so neither a config file nor a header can pass ``nan``."""

    input_dim: int = 2
    hidden_width: int = 128
    depth: int = 12
    num_classes: int = 2
    seed: int = 0
    activation: str = "relu"
    dropout_rate: float = 0.01
    sn_bound: float = 0.9
    spectral_norm: bool = True
    gp_head: bool = True
    num_features: int = 1024
    length_scale: float = 2.0
    ridge_s: float = 0.001
    discount_m: float = 0.999
    use_layer_norm: bool = True
    gp_projection_dim: int | None = None
    identity_hidden: bool = False

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not _SPEC_TYPE_CHECKS[f.type](value):
                raise TypeError(f"ModelSpec.{f.name} must be {f.type}, "
                                f"got {type(value).__name__} {value!r}")
        # Written as ``not x > 0`` so that NaN fails too.
        for name in ("length_scale", "ridge_s", "sn_bound"):
            value = getattr(self, name)
            if not value > 0.0:
                raise ValueError(f"{name} must be positive, got {value!r}")
        for name in ("dropout_rate", "discount_m"):
            value = getattr(self, name)
            if not 0.0 <= value < 1.0:
                raise ValueError(f"{name} must lie in [0, 1), got {value!r}")


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


# Field annotation -> check.  A bool is never taken for a number, and every
# accepted value is one that ``save_checkpoint`` can write as JSON.
_SPEC_TYPE_CHECKS = {
    "int": _is_int,
    "float": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "bool": lambda v: isinstance(v, bool),
    "str": lambda v: isinstance(v, str),
    "int | None": lambda v: v is None or _is_int(v),
}


class SngpModel:
    """Hidden mapping plus output head, built from a ``ModelSpec``.

    The arrays are freshly drawn from ``spec.seed``; ``build_sngp_model``
    also moves a spectral-normalized network inside its bound.
    """

    def __init__(self, spec: ModelSpec):
        if spec.num_classes < 2:
            raise ValueError("need at least two classes")
        rng = RngState(spec.seed)
        if spec.identity_hidden:
            network, width = None, spec.input_dim
        else:
            network = build_res_ffn(spec.input_dim, spec.hidden_width, spec.depth,
                                    rng.derive("net"), activation=spec.activation,
                                    dropout_rate=spec.dropout_rate, sn_bound=spec.sn_bound)
            width = spec.hidden_width
        if spec.gp_head:
            head = RffGpLayer(width, spec.num_features, spec.num_classes, rng.derive("head"),
                              length_scale=spec.length_scale, ridge_s=spec.ridge_s,
                              discount_m=spec.discount_m, use_layer_norm=spec.use_layer_norm,
                              projection_dim=spec.gp_projection_dim)
        else:
            head = DenseHead(width, spec.num_classes, rng.derive("head"))
        self.spec = spec
        self.network = network
        self.head = head
        self.spectral_norm_enabled = spec.spectral_norm
        self.num_classes = spec.num_classes

    @property
    def has_gp_head(self) -> bool:
        return isinstance(self.head, RffGpLayer)

    def hidden(self, x: np.ndarray, train_mode: bool = False, rng: RngState | None = None):
        """Hidden features (batch, width) and the network tape (None for identity)."""
        x = np.asarray(x, dtype=np.float64)
        if self.network is None:
            return x, None
        return self.network.forward(x, train_mode=train_mode, rng=rng)

    def parameters(self) -> dict[str, np.ndarray]:
        params: dict[str, np.ndarray] = {}
        if self.network is not None:
            for name, arr in self.network.parameters().items():
                params[f"net.{name}"] = arr
        if self.has_gp_head:
            params["head.beta"] = self.head.beta
        else:
            params["head.w"] = self.head.weight
            params["head.b"] = self.head.bias
        return params

    def eval_logits(self, x: np.ndarray) -> np.ndarray:
        """Evaluation-mode mean logits for a (batch, d) input, computed in row
        blocks like ``predict_batch``."""
        return self._posterior(x, variance=False)[0]

    def _posterior(self, x: np.ndarray, variance: bool = True
                  ) -> tuple[np.ndarray, np.ndarray | None]:
        """Evaluation-mode mean logits and logit variances of an (N, d) input,
        each (N, K); the variances are zero for a dense head and None when not
        asked for.  Rows pass through the network, the random features and the
        variance ``PREDICT_BLOCK_ROWS`` at a time into the preallocated outputs,
        so the network tape and the (rows, D) features never exceed one block.
        A row holding NaN or inf raises ``ValueError`` naming the first one, and
        so does a finite row whose hidden features, their layer-norm variance
        or its mean logits overflow (``NonFiniteRowError``, counted from the
        input's start); the network and head run under ``np.errstate`` so that
        such a row warns about nothing."""
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2:
            raise ValueError(f"expected an (N, d) input, got shape {x.shape}")
        bad = np.flatnonzero(~np.isfinite(x).all(axis=1))
        if bad.size:
            raise ValueError(f"input row {int(bad[0])} is not finite: {x[bad[0]]}")
        n = x.shape[0]
        means = np.empty((n, self.num_classes))
        variances = np.zeros((n, self.num_classes)) if variance else None
        if variance and self.has_gp_head:
            self.head.covariances()  # built before any feature block is alive
        for lo in range(0, n, PREDICT_BLOCK_ROWS):
            rows = slice(lo, lo + PREDICT_BLOCK_ROWS)
            try:
                with np.errstate(over="ignore", invalid="ignore"):
                    h = self.hidden(x[rows])[0]  # the block's network tape is dropped here
                    phi = self.head.rff_features(h) if self.has_gp_head else h
                    means[rows] = self.head.logits(phi)
                check_rows(np.isfinite(means[rows]).all(axis=1), h, "mean logits are")
            except NonFiniteRowError as exc:
                raise NonFiniteRowError(lo + exc.row, exc.reason) from None
            if variance and self.has_gp_head:
                variances[rows] = self.head.predictive_variance_batch(phi)
        return means, variances


def build_sngp_model(spec: ModelSpec) -> SngpModel:
    """A new model of the spec, ready to train: a spectral-normalized network
    starts inside its bound with warmed-up power-iteration vectors."""
    model = SngpModel(spec)
    if spec.spectral_norm and model.network is not None:
        clamp_network(model.network)
        for _ in range(10):
            normalize_network(model.network)
    return model


def loss_and_grads(model: SngpModel, batch_x: np.ndarray, batch_y: np.ndarray,
                   l2_beta: float = 0.0, l2_scale: float = 1.0,
                   train_mode: bool = True, rng: RngState | None = None
                   ) -> tuple[float, dict[str, np.ndarray]]:
    """Mean cross-entropy (plus the scaled L2 prior on the head weights) and
    exact gradients for every trainable parameter."""
    batch_x = np.asarray(batch_x, dtype=np.float64)
    batch_y = np.asarray(batch_y, dtype=int)
    if np.any(batch_y < 0) or np.any(batch_y >= model.num_classes):
        raise ValueError("labels out of range")
    m = batch_x.shape[0]
    h, tape = model.hidden(batch_x, train_mode=train_mode, rng=rng)

    if model.has_gp_head:
        try:
            phi, gp_tape = model.head.features_with_tape(h)
        except NonFiniteRowError as exc:  # would have made the loss NaN
            raise TrainingDivergedError(f"non-finite features on a batch of {m} samples: "
                                        f"{exc}") from None
        logits = model.head.logits(phi)
        head_weights = model.head.beta
    else:
        logits = model.head.logits(h)
        head_weights = model.head.weight

    # log-softmax keeps the loss exact and unbounded so the divergence guard works
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_probs = shifted - np.log(np.sum(np.exp(shifted), axis=1, keepdims=True))
    probs = np.exp(log_probs)
    loss = float(-np.mean(log_probs[np.arange(m), batch_y]))
    if l2_beta > 0.0:
        loss += l2_beta * 0.5 * float(np.sum(head_weights**2)) / l2_scale
    if not np.isfinite(loss):
        raise TrainingDivergedError(f"non-finite loss on a batch of {m} samples")

    dlogits = probs.copy()
    dlogits[np.arange(m), batch_y] -= 1.0
    dlogits /= m

    grads: dict[str, np.ndarray] = {}
    if model.has_gp_head:
        grads["head.beta"] = dlogits.T @ phi
        if l2_beta > 0.0:
            grads["head.beta"] += (l2_beta / l2_scale) * model.head.beta
        dphi = dlogits @ model.head.beta
        dh = model.head.backprop_features(gp_tape, dphi)
    else:
        grads["head.w"] = dlogits.T @ h
        if l2_beta > 0.0:
            grads["head.w"] += (l2_beta / l2_scale) * model.head.weight
        grads["head.b"] = dlogits.sum(axis=0)
        dh = dlogits @ model.head.weight

    if model.network is not None:
        for name, g in model.network.backward(tape, dh).items():
            grads[f"net.{name}"] = g
    return loss, grads


def train(model: SngpModel, points: np.ndarray, labels: np.ndarray, config: TrainConfig,
          hooks=None) -> TrainReport:
    """Run the two-phase training loop; returns the report, model updated in place.

    ``hooks(event, epoch, step)`` is invoked with events ``sgd_update``,
    ``spectral_norm`` and ``precision_update`` in the order they execute.
    """
    points = np.asarray(points, dtype=np.float64)
    labels = np.asarray(labels, dtype=int)
    n = points.shape[0]
    if n == 0:
        raise ValueError("dataset must be non-empty")
    start = time.perf_counter()
    root = RngState(config.seed)
    shuffle_rng = root.derive("shuffle")
    dropout_rng = root.derive("dropout")
    optimizer = SgdMomentum(config.learning_rate, config.momentum)

    report = TrainReport(seed=config.seed, config_echo=asdict(config))
    step = 0
    for epoch in range(config.epochs):
        collect_precision = (model.has_gp_head and not config.precision_exact
                             and epoch == config.epochs - 1)
        if collect_precision:
            model.head.reset_precision()
        order = shuffle_rng.permutation(n)
        epoch_loss = 0.0
        num_batches = 0
        for lo in range(0, n, config.batch_size):
            idx = order[lo:lo + config.batch_size]
            bx, by = points[idx], labels[idx]
            loss, grads = loss_and_grads(model, bx, by, l2_beta=config.l2_beta,
                                         l2_scale=float(n), train_mode=True, rng=dropout_rng)
            if not np.isfinite(loss) or loss > DIVERGENCE_LIMIT:
                raise TrainingDivergedError(f"loss {loss} at epoch {epoch} step {step}")
            if hooks:
                hooks("sgd_update", epoch, step)
            optimizer.step(model.parameters(), grads)
            if model.spectral_norm_enabled and model.network is not None:
                if hooks:
                    hooks("spectral_norm", epoch, step)
                normalize_network(model.network)
            if collect_precision:
                if hooks:
                    hooks("precision_update", epoch, step)
                model.head.update_precision_minibatch(*_features_and_probs(model, bx))
            epoch_loss += loss
            num_batches += 1
            step += 1
        report.epoch_losses.append(epoch_loss / num_batches)

    if model.spectral_norm_enabled and model.network is not None and config.epochs > 0:
        # The single-iteration estimates lag the last SGD updates; finish with
        # an exact clamp so the spectral bound holds as a certificate.
        clamp_network(model.network)

    if model.has_gp_head and config.precision_exact and config.epochs > 0:
        if hooks:
            hooks("precision_update", config.epochs - 1, step)
        model.head.update_precision_exact(*_features_and_probs(model, points))

    if config.epochs > 0:
        logits = model.eval_logits(points)
        report.final_train_accuracy = float(np.mean(np.argmax(logits, axis=1) == labels))
    report.wall_clock_s = time.perf_counter() - start
    return report


def _features_and_probs(model: SngpModel, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Evaluation-mode random features of ``x`` and the model's probabilities
    on them: the inputs of a precision update."""
    phi = model.head.rff_features(model.hidden(x, train_mode=False)[0])
    return phi, softmax(model.head.logits(phi))


# -- prediction ---------------------------------------------------------------


def predict_batch(model: SngpModel, x: np.ndarray, mc_samples: int = 10,
                  rng: RngState | None = None) -> GpPrediction:
    """Posterior prediction for an (N, d) batch: mean logits, logit variances
    (zero for a dense head) and MC-averaged probabilities, each (N, K).

    The network, features and variances run ``PREDICT_BLOCK_ROWS`` rows at a
    time (``SngpModel._posterior``), so memory is O(block) + O(N K) rather than
    O(N D); the Monte Carlo draws are taken once over all N rows, so they do
    not depend on the block size.  A row holding NaN or inf raises
    ``ValueError`` naming the first such row before anything is computed.
    """
    means, variances = model._posterior(x)
    if rng is None and np.any(variances > 0.0):
        raise ValueError("Monte Carlo averaging over logit noise requires an rng")
    probs = mc_softmax(means, variances, mc_samples, rng)
    return GpPrediction(mean_logits=means, variance_logits=variances, probs=probs)


# -- checkpoints ---------------------------------------------------------------


def _array_layout(spec: ModelSpec) -> Iterator[tuple[str, tuple[int, ...],
                                                   Callable[[SngpModel], np.ndarray]]]:
    """Every array a model of ``spec`` saves, in write order: its name, its
    shape and where it sits on a built model.  The shapes come from the spec
    alone, and lazily, so a header's manifest can be checked against them
    before any model is built."""
    in_dim = spec.input_dim
    if not spec.identity_hidden:
        width = spec.hidden_width
        layers = chain([("net.proj", in_dim, lambda m: m.network.input_projection)],
                       ((f"net.block{i}", width, lambda m, i=i: m.network.blocks[i].layer)
                        for i in range(spec.depth)))
        for prefix, layer_in, layer in layers:
            yield f"{prefix}.w", (width, layer_in), lambda m, layer=layer: layer(m).weight
            yield f"{prefix}.b", (width,), lambda m, layer=layer: layer(m).bias
            yield f"{prefix}.sn_u", (width,), lambda m, layer=layer: layer(m).sn_u
        in_dim = width
    k = spec.num_classes
    if not spec.gp_head:
        yield "head.w", (k, in_dim), lambda m: m.head.weight
        yield "head.b", (k,), lambda m: m.head.bias
        return
    d = spec.num_features
    feat_in = in_dim if spec.gp_projection_dim is None else spec.gp_projection_dim
    yield "head.w_fixed", (d, feat_in), lambda m: m.head.w_fixed
    yield "head.b_fixed", (d,), lambda m: m.head.b_fixed
    yield "head.beta", (k, d), lambda m: m.head.beta
    for j in range(num_precisions(k)):
        yield f"head.precision{j}", (d, d), lambda m, j=j: m.head.precision[j]
    if spec.gp_projection_dim is not None:
        yield "head.input_projection", (feat_in, in_dim), lambda m: m.head.input_projection


def _array_manifest(model: SngpModel) -> list[tuple[str, np.ndarray]]:
    return [(name, get(model)) for name, _, get in _array_layout(model.spec)]


def save_checkpoint(model: SngpModel, path: str, variant: str = "sngp",
                    config_echo: dict | None = None) -> None:
    arrays = _array_manifest(model)
    payload = [np.ascontiguousarray(arr, dtype="<f8").tobytes() for _, arr in arrays]
    crc = 0
    for chunk in payload:
        crc = zlib.crc32(chunk, crc)
    header = {
        "format_version": CHECKPOINT_VERSION,
        "variant": variant,
        "config": config_echo or {},
        "model": asdict(model.spec),
        "arrays": [[name, list(arr.shape)] for name, arr in arrays],
        "payload_crc32": crc,
    }
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as f:
        f.write(CHECKPOINT_MAGIC)
        f.write(np.uint32(CHECKPOINT_VERSION).tobytes())
        f.write(np.uint32(len(header_bytes)).tobytes())
        f.write(header_bytes)
        f.writelines(payload)


def load_checkpoint(path: str) -> tuple[SngpModel, dict]:
    """Read a checkpoint written by ``save_checkpoint``.

    The model is built from the header's ``ModelSpec`` through the same
    constructor as a new one, so its hyperparameters pass the same checks,
    but only after the manifest has matched the arrays the spec implies.
    A file that is not a checkpoint, a header that is not a well-formed
    version-2 header, a payload whose length or CRC-32 differs from the
    header's, or a manifest that is not the spec's raises ``ValueError``.
    """
    with open(path, "rb") as f:
        preamble = f.read(CHECKPOINT_PREAMBLE_BYTES)
        if len(preamble) < CHECKPOINT_PREAMBLE_BYTES:
            raise ValueError(f"not a checkpoint file ({len(preamble)} bytes, shorter than "
                             f"the {CHECKPOINT_PREAMBLE_BYTES}-byte preamble)")
        if preamble[:8] != CHECKPOINT_MAGIC:
            raise ValueError(f"not a checkpoint file (bad magic {preamble[:8]!r})")
        version, header_len = (int(v) for v in np.frombuffer(preamble[8:], dtype="<u4"))
        if version != CHECKPOINT_VERSION:
            raise ValueError(f"unsupported checkpoint version {version}")
        header = json.loads(f.read(header_len).decode("utf-8"))
        payload = f.read()
    try:
        expected = 8 * sum(int(math.prod(shape)) for _, shape in header["arrays"])
        if len(payload) != expected:
            raise ValueError(f"checkpoint payload is {len(payload)} bytes, "
                             f"its manifest needs {expected}")
        crc = zlib.crc32(payload)
        if crc != header["payload_crc32"]:
            raise ValueError(f"checkpoint payload CRC-32 is {crc}, its header "
                             f"records {header['payload_crc32']!r}")
        spec = ModelSpec(**header["model"])
        for want, got in zip_longest(([name, list(shape)] for name, shape, _
                                      in _array_layout(spec)), header["arrays"]):
            if want != got:
                raise ValueError(f"checkpoint array {got} does not match the header's "
                                 f"model, which expects {want}")
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed checkpoint header: {type(exc).__name__}: {exc}") from exc
    model = SngpModel(spec)
    offset = 0
    for _, arr in _array_manifest(model):
        arr[...] = np.frombuffer(payload, dtype="<f8", count=arr.size,
                                 offset=offset).reshape(arr.shape)
        offset += 8 * arr.size
    return model, header
