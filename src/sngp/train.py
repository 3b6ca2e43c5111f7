"""End-to-end training and prediction for the spectral-normalized GP classifier.

A model is a hidden mapping (the residual network, or the identity for the
shallow variant) composed with an output head (the random-feature GP layer,
or a plain dense layer for ablations).  Each minibatch step runs, in order:

    1. SGD-with-momentum update of all trainable parameters,
    2. spectral normalization of every residual layer (when enabled),
    3. during the final epoch, the moving-average precision update using
       evaluation-mode features and the current model probabilities.

A step whose loss passes ``DIVERGENCE_LIMIT``, whose batch holds a row with
non-finite features or logits, or whose spectral normalization overflows
ends training with ``TrainingDivergedError`` naming the epoch and the step;
a row that the evaluation pass after the last step finds non-finite ends it
the same way, naming the row.
The step order is observable through the optional ``hooks`` callback.
Training is bit-reproducible: initialisation, shuffling and dropout all
draw from independently derived streams of the model's seed, ``spec.seed``.

Checkpoint format (binary, version 5, bit-exact round trip):

    bytes 0..7    magic ``SNGPCKPT``
    bytes 8..11   format version, uint32 little-endian
    bytes 12..15  header length in bytes, uint32 little-endian
    header        UTF-8 JSON (sorted keys): ``config`` (the run config as
                  the ``key = value`` text a config file holds), ``model``
                  (the ``ModelSpec`` fields), ``arrays`` (the manifest
                  [name, shape] in write order) and ``payload_crc32`` (the
                  zlib CRC-32 of the payload bytes)
    payload       the arrays from the manifest, concatenated raw
                  little-endian float64, C order

Loading checks, in order, the magic, the version, the header's JSON, the
``ModelSpec`` field types, the manifest against the array names and shapes
the spec implies, and the payload length those shapes give (from the file's
size); only then does it allocate the model's arrays from its spec, so a
header cannot make loading allocate more than its payload holds, nor name a
length the spec does not.  The arrays are allocated as zeros and the payload
is read straight into them, with no initial draw, and its CRC is checked
before the model is returned.
"""

from __future__ import annotations

import json
import math
import os
import sys
import time
import zlib
from dataclasses import dataclass, field, fields, asdict
from itertools import chain, zip_longest
from typing import Callable, Iterator

import numpy as np

from .gp_layer import GpPrediction, NonFiniteRowError, RffGpLayer, check_rows, mc_softmax, softmax
from .linalg import RngState
from .nn import ResFfnNetwork, SgdMomentum, clamp_network, normalize_network

CHECKPOINT_MAGIC = b"SNGPCKPT"
CHECKPOINT_VERSION = 5
CHECKPOINT_PREAMBLE_BYTES = 16  # magic, version, header length
DIVERGENCE_LIMIT = 1e6
PREDICT_BLOCK_ROWS = 256  # rows per network/feature pass: inference, exact precision


class TrainingDivergedError(RuntimeError):
    """Loss exceeded the divergence guard or became non-finite, or the spectral
    normalization of the updated weights overflowed."""


class DenseHead:
    """Plain affine output layer for the non-GP ablations, allocated as zeros."""

    def __init__(self, in_dim: int, num_classes: int):
        self.weight = np.zeros((num_classes, in_dim))
        self.bias = np.zeros(num_classes)

    def draw(self, rng: RngState) -> None:
        """The initial draw, in place: a normal weight scaled by 1 / sqrt(in_dim)."""
        rng.fill_normal(self.weight)
        self.weight *= np.sqrt(1.0 / self.weight.shape[1])

    def logits(self, h: np.ndarray) -> np.ndarray:
        return h @ self.weight.T + self.bias


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 40
    batch_size: int = 32
    learning_rate: float = 0.05
    momentum: float = 0.9
    l2_beta: float = 0.0
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
        for name in ("learning_rate", "l2_beta"):  # only +inf is left to reject
            if math.isinf(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")


@dataclass
class TrainReport:
    epoch_losses: list[float] = field(default_factory=list)
    final_train_accuracy: float = 0.0
    wall_clock_s: float = 0.0
    seed: int = 0

    def as_text(self) -> str:
        lines = [f"seed={self.seed}",
                 f"final_train_accuracy={self.final_train_accuracy:.17g}",
                 f"wall_clock_s={self.wall_clock_s:.3f}"]
        for i, loss in enumerate(self.epoch_losses):
            lines.append(f"loss_epoch_{i}={loss:.17g}")
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class ModelSpec:
    """Every hyperparameter of a model: the hidden mapping (a residual network
    of ReLU blocks), the output head and the seed of their initial draws and
    of the training's shuffle and dropout.
    ``identity_hidden`` replaces the network by the identity (``hidden_width``,
    ``depth`` and the network settings are then unused); ``gp_head = False``
    puts a dense layer in place of the GP.  Each field's type is checked on
    construction (``TypeError``), so a checkpoint header cannot pass a string
    or a bool where a number belongs.  Then ``length_scale``, ``ridge_s`` and
    ``sn_bound`` must be > 0 and finite, ``dropout_rate`` in [0, 1) and
    ``discount_m`` in (0, 1) (``ValueError``; NaN fails each), so neither a
    config file nor a header can pass ``nan`` or ``inf``.  ``seed`` must be
    >= 0 and every size the spec uses one a model can be built with.  Each
    ``ValueError`` names its field.  These are the only checks: the layers
    built from the spec take each value as given."""

    input_dim: int = 2
    hidden_width: int = 128
    depth: int = 12
    num_classes: int = 2
    seed: int = 0
    dropout_rate: float = 0.01
    sn_bound: float = 0.9
    spectral_norm: bool = True
    gp_head: bool = True
    num_features: int = 1024
    length_scale: float = 2.0
    ridge_s: float = 0.001
    discount_m: float = 0.999
    use_layer_norm: bool = False
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
            if not value <= sys.float_info.max:  # inf, or a header's int too large for a float
                raise ValueError(f"{name} must be finite, got {value!r}")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError(f"dropout_rate must lie in [0, 1), got {self.dropout_rate!r}")
        # At 0 the moving average keeps only the last minibatch's Fisher term,
        # of rank at most the batch size: no ridge, so no covariance.
        if not 0.0 < self.discount_m < 1.0:
            raise ValueError(f"discount_m must lie in (0, 1), got {self.discount_m!r}")
        lows = [("seed", 0), ("input_dim", 1), ("num_classes", 2)]
        if not self.identity_hidden:
            lows += [("hidden_width", 1), ("depth", 0)]
        if self.gp_head:
            lows.append(("num_features", 1))
        for name, low in lows:
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be >= {low}, got {getattr(self, name)!r}")


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


# Field annotation -> check.  A bool is never taken for a number, and every
# accepted value is one that ``save_checkpoint`` can write as JSON.
_SPEC_TYPE_CHECKS = {
    "int": _is_int,
    "float": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "bool": lambda v: isinstance(v, bool),
}


class SngpModel:
    """Hidden mapping plus output head of a ``ModelSpec``.

    The constructor allocates every array the spec implies once, as zeros,
    whose pages cost no resident memory until written: ``build_sngp_model``
    draws a new model into them and ``load_checkpoint`` reads a saved one.
    """

    def __init__(self, spec: ModelSpec):
        if spec.identity_hidden:
            network, width = None, spec.input_dim
        else:
            network = ResFfnNetwork.zeros(spec.input_dim, spec.hidden_width, spec.depth,
                                          dropout_rate=spec.dropout_rate, sn_bound=spec.sn_bound)
            width = spec.hidden_width
        if spec.gp_head:
            head = RffGpLayer(width, spec.num_features, spec.num_classes,
                              length_scale=spec.length_scale, ridge_s=spec.ridge_s,
                              discount_m=spec.discount_m, use_layer_norm=spec.use_layer_norm)
        else:
            head = DenseHead(width, spec.num_classes)
        self.spec = spec
        self.network = network
        self.head = head
        self.num_classes = spec.num_classes

    @property
    def has_gp_head(self) -> bool:
        return isinstance(self.head, RffGpLayer)

    def hidden(self, x: np.ndarray, rng: RngState | None = None, keep_tape: bool = True):
        """Hidden features (batch, width) and the network tape (None for
        identity, or when ``keep_tape`` is off because nothing runs backward);
        the network drops units only when given a dropout stream ``rng``."""
        x = np.asarray(x, dtype=np.float64)
        if self.network is None:
            return x, None
        return self.network.forward(x, rng=rng, keep_tape=keep_tape)

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
        asked for.  Each block of ``_evaluate_blocks`` fills its rows of both."""
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2:
            raise ValueError(f"expected an (N, d) input, got shape {x.shape}")
        bad = np.flatnonzero(~np.isfinite(x).all(axis=1))
        if bad.size:
            raise ValueError(f"input row {int(bad[0])} is not finite: {x[bad[0]]}")
        if variance and self.has_gp_head:
            self.head.covariance()  # inverted before any output or feature block is alive
        n = x.shape[0]
        means = np.empty((n, self.num_classes))
        variances = np.zeros((n, self.num_classes)) if variance else None
        for rows, phi, block_means in self._evaluate_blocks(x):
            means[rows] = block_means
            if variance and self.has_gp_head:
                variances[rows] = self.head.predictive_variance_batch(phi)
            del phi, block_means  # so that the next block is not evaluated beside this one
        return means, variances

    def _evaluate_blocks(self, x: np.ndarray) -> Iterator[tuple[slice, np.ndarray, np.ndarray]]:
        """``_evaluate`` of ``x`` ``PREDICT_BLOCK_ROWS`` rows at a time: each
        block's row slice, features and mean logits, so the (rows, D) features
        never exceed one block.  A ``NonFiniteRowError`` counts its row from
        the start of ``x``."""
        for lo in range(0, x.shape[0], PREDICT_BLOCK_ROWS):
            rows = slice(lo, lo + PREDICT_BLOCK_ROWS)
            try:
                yield rows, *self._evaluate(x[rows])
            except NonFiniteRowError as exc:
                raise NonFiniteRowError(lo + exc.row, exc.reason) from None

    def _evaluate(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The evaluation-mode pass behind prediction, both precision updates
        and the final accuracy: the features (``h`` for a dense head) and mean
        logits of an (M, d) input, from the network run with no tape.  A finite
        row whose hidden features, their layer-norm variance or its mean
        logits overflow raises ``NonFiniteRowError`` naming the first one; the
        network and head run under ``np.errstate`` so that such a row warns
        about nothing."""
        with np.errstate(over="ignore", invalid="ignore"):
            h = self.hidden(x, keep_tape=False)[0]
            phi = self.head.rff_features(h) if self.has_gp_head else h
            means = self.head.logits(phi)
        check_rows(np.isfinite(means).all(axis=1), h, "mean logits are")
        return phi, means


def build_sngp_model(spec: ModelSpec) -> SngpModel:
    """A new model of the spec, ready to train: its arrays are drawn in place
    from the streams ``net`` and ``head`` of ``spec.seed``, and a
    spectral-normalized network starts inside its bound with warmed-up
    power-iteration vectors."""
    model = SngpModel(spec)
    rng = RngState(spec.seed)
    if model.network is not None:
        model.network.draw(rng.derive("net"))
    model.head.draw(rng.derive("head"))
    if spec.spectral_norm and model.network is not None:
        clamp_network(model.network)
        for _ in range(10):
            normalize_network(model.network)
    return model


def loss_and_grads(model: SngpModel, batch_x: np.ndarray, batch_y: np.ndarray, *,
                   l2_beta: float, l2_scale: float, rng: RngState | None
                   ) -> tuple[float, dict[str, np.ndarray]]:
    """Mean cross-entropy (plus the L2 prior ``l2_beta / l2_scale`` on the head
    weights; ``TrainConfig`` owns ``l2_beta`` and ``train`` passes the data
    size as ``l2_scale``) and exact gradients for every trainable parameter.
    ``rng`` is the dropout stream, or None for a pass that drops nothing.
    A non-finite row or loss raises ``TrainingDivergedError``, caused by a
    row's ``NonFiniteRowError``; nothing warns."""
    batch_x = np.asarray(batch_x, dtype=np.float64)
    batch_y = np.asarray(batch_y, dtype=int)
    if np.any(batch_y < 0) or np.any(batch_y >= model.num_classes):
        raise ValueError("labels out of range")
    m = batch_x.shape[0]
    gp = model.has_gp_head
    # Both heads are linear in their input phi: the random features or h.
    head_weights = model.head.beta if gp else model.head.weight
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            h, tape = model.hidden(batch_x, rng=rng)
            phi, gp_tape = model.head.features_with_tape(h) if gp else (h, None)
            logits = model.head.logits(phi)
            check_rows(np.isfinite(logits).all(axis=1), h, "logits are")
            # log-softmax keeps the loss exact and unbounded so the divergence guard works
            shifted = logits - logits.max(axis=1, keepdims=True)
            log_probs = shifted - np.log(np.sum(np.exp(shifted), axis=1, keepdims=True))
            loss = float(-np.mean(log_probs[np.arange(m), batch_y]))
            if l2_beta > 0.0:
                loss += l2_beta * 0.5 * float(np.sum(head_weights**2)) / l2_scale
    except NonFiniteRowError as exc:  # would have made the loss NaN
        raise TrainingDivergedError(f"non-finite row in a batch of {m} samples: "
                                    f"{exc}") from exc
    if not np.isfinite(loss):
        raise TrainingDivergedError(f"non-finite loss on a batch of {m} samples")

    dlogits = np.exp(log_probs)
    dlogits[np.arange(m), batch_y] -= 1.0
    dlogits /= m

    # An overflowing gradient makes a parameter non-finite, which the next pass names.
    with np.errstate(over="ignore", invalid="ignore"):
        grad_weights = dlogits.T @ phi
        if l2_beta > 0.0:
            grad_weights += (l2_beta / l2_scale) * head_weights
        dh = dlogits @ head_weights  # d loss / d phi, which is h for the dense head
        if gp:
            grads = {"head.beta": grad_weights}
            dh = model.head.backprop_features(gp_tape, dh)
        else:
            grads = {"head.w": grad_weights, "head.b": dlogits.sum(axis=0)}

        if model.network is not None:
            for name, g in model.network.backward(tape, dh).items():
                grads[f"net.{name}"] = g
    return loss, grads


def train(model: SngpModel, points: np.ndarray, labels: np.ndarray, config: TrainConfig,
          hooks=None) -> TrainReport:
    """Run the two-phase training loop; returns the report, model updated in place.
    The shuffle and the dropout draw from streams of ``model.spec.seed``.

    ``hooks(event, epoch, step)`` is invoked with events ``sgd_update``,
    ``spectral_norm`` and ``precision_update`` in the order they execute.
    """
    points = np.asarray(points, dtype=np.float64)
    labels = np.asarray(labels, dtype=int)
    n = points.shape[0]
    if n == 0:
        raise ValueError("dataset must be non-empty")
    start = time.perf_counter()
    root = RngState(model.spec.seed)
    shuffle_rng = root.derive("shuffle")
    dropout_rng = root.derive("dropout")
    optimizer = SgdMomentum(config.learning_rate, config.momentum)

    report = TrainReport(seed=model.spec.seed)
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
            try:
                loss, grads = loss_and_grads(model, bx, by, l2_beta=config.l2_beta,
                                             l2_scale=float(n), rng=dropout_rng)
                if loss > DIVERGENCE_LIMIT:
                    raise TrainingDivergedError(f"loss {loss}")
                if hooks:
                    hooks("sgd_update", epoch, step)
                with np.errstate(over="ignore", invalid="ignore"):  # named by the next pass
                    optimizer.step(model.parameters(), grads)
                del grads  # so that the next step's gradients are not made beside these
                if model.spec.spectral_norm and model.network is not None:
                    if hooks:
                        hooks("spectral_norm", epoch, step)
                    try:
                        # Weights whose norm overflows come from gradients near
                        # the float64 limit; name that instead of warning.
                        with np.errstate(over="raise", invalid="raise"):
                            normalize_network(model.network)
                    except FloatingPointError as exc:
                        raise TrainingDivergedError(f"spectral normalization: {exc}") from None
                if collect_precision:
                    if hooks:
                        hooks("precision_update", epoch, step)
                    phi, means = model._evaluate(bx)
                    model.head.update_precision_minibatch(phi, softmax(means))
                    del phi, means
            except (TrainingDivergedError, NonFiniteRowError) as exc:
                bad = exc.__cause__ or exc  # names a row by its place in the shuffled batch
                what = (f"dataset row {idx[bad.row]}: {bad.reason}"
                        if isinstance(bad, NonFiniteRowError) else exc)
                raise TrainingDivergedError(f"{what} at epoch {epoch} step {step}") from None
            epoch_loss += loss
            num_batches += 1
            step += 1
        report.epoch_losses.append(epoch_loss / num_batches)
    del optimizer  # its velocity is dead after the last step

    # With no epochs nothing trains, but the pass below still checks every row.
    trained = config.epochs > 0
    if trained and model.spec.spectral_norm and model.network is not None:
        # The single-iteration estimates lag the last SGD updates; finish with
        # an exact clamp so the spectral bound holds as a certificate.
        clamp_network(model.network)
    exact = trained and model.has_gp_head and config.precision_exact
    if exact:
        if hooks:
            hooks("precision_update", config.epochs - 1, step)
        model.head.reset_precision()
    # One evaluation pass over the rows, a block at a time (the Fisher sum is
    # D x D whatever N is), adds the exact precision and counts the accuracy.
    hits = np.empty(n, dtype=bool)
    try:
        for rows, phi, means in model._evaluate_blocks(points):
            if exact:
                model.head.update_precision_exact(phi, softmax(means))
            hits[rows] = np.argmax(means, axis=1) == labels[rows]
            del phi, means  # so that the next block is not evaluated beside this one
    except NonFiniteRowError as exc:  # its row counts from the start of the dataset
        raise TrainingDivergedError(f"dataset row {exc.row}: {exc.reason} "
                                    "after the last step") from None
    report.final_train_accuracy = float(np.mean(hits))
    report.wall_clock_s = time.perf_counter() - start
    return report


# -- prediction ---------------------------------------------------------------


def predict_batch(model: SngpModel, x: np.ndarray, *, mc_samples: int,
                  rng: RngState | None = None) -> GpPrediction:
    """Posterior prediction for an (N, d) batch: mean logits, logit variances
    (zero for a dense head) and MC-averaged probabilities, each (N, K).

    A GP head's first prediction inverts its precision in place
    (``RffGpLayer.covariance``), so the model can no longer be trained or
    saved afterwards: save it first.  The network, features and variances run
    ``PREDICT_BLOCK_ROWS`` rows at a time (``SngpModel._posterior``), so
    memory is O(block) + O(N K) rather than O(N D).  The Monte Carlo draws are
    taken once over all N rows, so they do not depend on the block size, and
    ``mc_softmax`` works inside their one buffer.  On a default-size model,
    beside the model, 10,000 rows peak at most 8 MiB and 40,000 rows at most
    12 MiB (tracemalloc), the first prediction's inversion included.  A row
    holding NaN or inf raises ``ValueError`` naming the first such row before
    anything is computed.
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
    yield "head.w_fixed", (d, in_dim), lambda m: m.head.w_fixed
    yield "head.b_fixed", (d,), lambda m: m.head.b_fixed
    yield "head.beta", (k, d), lambda m: m.head.beta
    yield "head.precision0", (d, d), lambda m: m.head.precision[0]


def _array_manifest(model: SngpModel) -> list[tuple[str, np.ndarray]]:
    return [(name, get(model)) for name, _, get in _array_layout(model.spec)]


def save_checkpoint(model: SngpModel, path: str, config: str = "") -> None:
    """Write ``model`` to ``path`` with ``config``, the text of its run config.
    A GP head that has predicted holds only its covariance
    (``RffGpLayer.covariance``), so a model is saved before it predicts; after
    that, this raises ``ValueError`` before the file is opened."""
    arrays = _array_manifest(model)
    # The model's own arrays (copied only on a host that is not little-endian),
    # so the payload is never held as a second copy in memory.
    payload = [np.ascontiguousarray(arr, dtype="<f8") for _, arr in arrays]
    crc = 0
    for chunk in payload:
        crc = zlib.crc32(chunk, crc)
    header = {
        "config": config,
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

    The model's arrays are allocated from the header's ``ModelSpec`` by the
    ``SngpModel`` constructor that a new model is drawn into, so its
    hyperparameters pass the same checks, but only after the manifest has
    matched the arrays the spec implies and the file's length has matched
    the manifest.  The payload is then read straight into those zero arrays,
    with no initial draw and no identity, so loading holds little more than
    the payload, and its CRC-32 is checked before the model is returned.  A
    file that is not a checkpoint, a header that is not a well-formed
    version-5 header, a manifest that is not the spec's, or a payload whose
    length or CRC-32 differs from the header's raises ``ValueError``.
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
        header_bytes = f.read(header_len)
        payload_len = os.fstat(f.fileno()).st_size - f.tell()
        try:
            header = json.loads(header_bytes.decode("utf-8"))
            spec = ModelSpec(**header["model"])
            expected = 0  # payload bytes, counted from the spec's shapes once each matches
            for want, got in zip_longest(([name, list(shape)] for name, shape, _
                                          in _array_layout(spec)), header["arrays"]):
                if want != got:
                    raise ValueError(f"checkpoint array {got or '(none)'} does not match the "
                                     f"header's model, which expects {want or 'no more arrays'}")
                expected += 8 * math.prod(want[1])
            if payload_len != expected:
                raise ValueError(f"checkpoint payload is {payload_len} bytes, "
                                 f"its manifest needs {expected}")
            recorded_crc = header["payload_crc32"]
        except (KeyError, TypeError, RecursionError) as exc:
            raise ValueError(f"malformed checkpoint header: {type(exc).__name__}: {exc}") from exc
        model = SngpModel(spec)
        crc = 0
        for _, arr in _array_manifest(model):
            if f.readinto(arr) != arr.nbytes:
                raise ValueError("checkpoint payload ended before its manifest's arrays")
            crc = zlib.crc32(arr, crc)
            if sys.byteorder != "little":
                arr.byteswap(inplace=True)
    if crc != recorded_crc:
        raise ValueError(f"checkpoint payload CRC-32 is {crc}, its header "
                         f"records {recorded_crc!r}")
    return model, header
