import tracemalloc
import warnings
import zlib
from dataclasses import asdict, fields

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from sngp.gp_layer import GpPrediction, NonFiniteRowError, RffGpLayer, mc_softmax, softmax
from sngp.linalg import RngState
from sngp.metrics import dempster_shafer, margin_uncertainty, variance_uncertainty
from sngp.train import (PREDICT_BLOCK_ROWS, ModelSpec, SngpModel, TrainConfig, TrainReport,
                        TrainingDivergedError, _array_layout, _array_manifest,
                        build_sngp_model, load_checkpoint, loss_and_grads,
                        predict_batch, save_checkpoint, train)

from headers import rewrite_header
from oracles import finite_diff_gradients, max_relative_gradient_error, sigma_max_jacobi
from test_gp_layer import peak_bytes


def small_model(seed=1, gp_head=True, **kwargs):
    defaults = dict(input_dim=2, hidden_width=8, depth=3, num_classes=2, seed=seed,
                    num_features=32, dropout_rate=0.0, sn_bound=0.9,
                    use_layer_norm=True, length_scale=2.0, gp_head=gp_head)
    defaults.update(kwargs)
    return build_sngp_model(ModelSpec(**defaults))


def toy_batch(seed=2, n=12):
    rng = RngState(seed)
    x = rng.normal_matrix(n, 2)
    y = (rng.uniform(n, 0.0, 1.0) > 0.5).astype(int)
    return x, y


class TestLossAndGrads:
    def test_uniform_logits_give_log_k(self):
        model = small_model()
        model.head.beta[:] = 0.0
        x, y = toy_batch()
        loss, _ = loss_and_grads(model, x, y, l2_beta=0.0, l2_scale=1.0, rng=None)
        assert loss == pytest.approx(np.log(2.0))

    def test_overflowing_features_count_as_divergence(self):
        # Layer norm hides the scale from the loss, so the feature check is
        # what reports a blown-up hidden row, as the non-finite-loss guard did.
        x, y = toy_batch()
        x[4] = 1e300
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(TrainingDivergedError, match="row 4: layer-norm variance"):
                loss_and_grads(small_model(), x, y, l2_beta=0.0, l2_scale=1.0,
                               rng=None)

    def test_saturated_ce_leaves_l2_term(self):
        model = small_model(gp_head=False)
        x, y = toy_batch()
        # force hugely confident correct logits through the dense head bias
        model.head.weight[:] = 0.0
        model.head.bias[:] = 0.0
        h, _ = model.hidden(x)
        for i, label in enumerate(y):
            pass
        model.head.bias[:] = np.array([50.0, -50.0])
        y_forced = np.zeros(len(y), dtype=int)
        l2_beta, l2_scale = 0.3, 2.0
        loss, _ = loss_and_grads(model, x, y_forced, l2_beta=l2_beta, l2_scale=l2_scale,
                                 rng=None)
        l2_term = l2_beta * 0.5 * float(np.sum(model.head.weight**2)) / l2_scale
        assert loss == pytest.approx(l2_term, abs=1e-12)

    def test_full_model_gradient_check(self):
        model = small_model(seed=3)
        model.head.beta[:] = 0.3 * RngState(4).normal_matrix(2, 32)
        x, y = toy_batch(seed=5)

        def loss_fn():
            return loss_and_grads(model, x, y, l2_beta=0.1, l2_scale=10.0,
                                  rng=None)[0]

        _, analytic = loss_and_grads(model, x, y, l2_beta=0.1, l2_scale=10.0,
                                     rng=None)
        numeric = finite_diff_gradients(loss_fn, model.parameters())
        worst, name = max_relative_gradient_error(analytic, numeric)
        assert worst <= 1e-4, f"gradient mismatch at {name}: {worst}"

    def test_gradient_check_across_many_feature_periods(self):
        # A short length scale spreads z = -(1/l) W h' + b over at least ten
        # periods, so the sine kept in the feature tape is checked far beyond
        # the first one.
        model = small_model(seed=3, length_scale=0.05)
        model.head.beta[:] = 0.3 * RngState(4).normal_matrix(2, 32)
        x, y = toy_batch(seed=5)
        h, _ = model.hidden(x)
        _, tape = model.head.features_with_tape(h)
        z = -(tape["ln_out"] @ model.head.w_fixed.T) / 0.05 + model.head.b_fixed
        assert np.ptp(z) >= 10 * 2.0 * np.pi

        def loss_fn():
            return loss_and_grads(model, x, y, l2_beta=0.1, l2_scale=10.0,
                                  rng=None)[0]

        _, analytic = loss_and_grads(model, x, y, l2_beta=0.1, l2_scale=10.0,
                                     rng=None)
        numeric = finite_diff_gradients(loss_fn, model.parameters())
        worst, name = max_relative_gradient_error(analytic, numeric)
        assert worst <= 1e-4, f"gradient mismatch at {name}: {worst}"

    def test_dense_head_gradient_check(self):
        model = small_model(seed=6, gp_head=False)
        x, y = toy_batch(seed=7)

        def loss_fn():
            return loss_and_grads(model, x, y, l2_beta=0.0, l2_scale=1.0, rng=None)[0]

        _, analytic = loss_and_grads(model, x, y, l2_beta=0.0, l2_scale=1.0, rng=None)
        numeric = finite_diff_gradients(loss_fn, model.parameters())
        worst, name = max_relative_gradient_error(analytic, numeric)
        assert worst <= 1e-4, f"gradient mismatch at {name}: {worst}"

    def test_label_range_checked(self):
        model = small_model()
        x, _ = toy_batch()
        with pytest.raises(ValueError):
            loss_and_grads(model, x, np.full(len(x), 5), l2_beta=0.0, l2_scale=1.0, rng=None)


class TestTrainLoop:
    def test_separable_points_reach_full_accuracy(self):
        rng = RngState(8)
        x = np.vstack([rng.normal_matrix(20, 2) * 0.2 + np.array([-2.0, 0.0]),
                       rng.normal_matrix(20, 2) * 0.2 + np.array([2.0, 0.0])])
        y = np.array([0] * 20 + [1] * 20)
        model = small_model(seed=9)
        cfg = TrainConfig(epochs=20, batch_size=8, learning_rate=0.1, momentum=0.9)
        report = train(model, x, y, cfg)
        assert report.final_train_accuracy == 1.0

    def test_epochs_zero_changes_nothing(self):
        model = small_model(seed=11)
        before = {k: v.copy() for k, v in model.parameters().items()}
        x, y = toy_batch()
        cfg = TrainConfig(epochs=0)
        train(model, x, y, cfg)
        for k, v in model.parameters().items():
            assert np.array_equal(v, before[k])
        assert np.array_equal(model.head.precision[0], model.head.ridge_s * np.eye(32))

    def test_spectral_bound_after_training(self):
        x, y = toy_batch(seed=13, n=64)
        model = small_model(seed=14)
        cfg = TrainConfig(epochs=10, batch_size=16, learning_rate=0.1, momentum=0.9)
        train(model, x, y, cfg)
        for blk in model.network.blocks:
            assert sigma_max_jacobi(blk.layer.weight) <= 0.9 + 1e-6

    def test_bit_identical_reruns(self):
        x, y = toy_batch(seed=16, n=40)

        def run():
            model = small_model(seed=17, dropout_rate=0.1)
            cfg = TrainConfig(epochs=5, batch_size=8, learning_rate=0.05, momentum=0.9)
            train(model, x, y, cfg)
            return model

        a, b = run(), run()
        for (ka, va), (kb, vb) in zip(sorted(a.parameters().items()),
                                      sorted(b.parameters().items())):
            assert ka == kb
            assert np.array_equal(va, vb)
        assert np.array_equal(a.head.precision[0], b.head.precision[0])

    def test_model_seed_drives_the_training_streams(self, monkeypatch):
        # Training reads no seed of its own: one spec trains alike, and
        # another spec seed shuffles the rows differently.
        x, y = toy_batch(seed=16, n=40)
        orders = []
        permutation = RngState.permutation

        def record(rng, n):
            orders.append(permutation(rng, n))
            return orders[-1]

        monkeypatch.setattr(RngState, "permutation", record)

        def run(seed):
            model = small_model(seed=seed, dropout_rate=0.1)
            report = train(model, x, y, TrainConfig())
            assert report.seed == seed
            return model, orders[-TrainConfig().epochs:]

        (a, order_a), (b, order_b), (_, order_c) = run(17), run(17), run(18)
        for (ka, va), (kb, vb) in zip(sorted(a.parameters().items()),
                                      sorted(b.parameters().items())):
            assert ka == kb
            assert np.array_equal(va, vb)
        assert all(np.array_equal(p, q) for p, q in zip(order_a, order_b))
        assert not all(np.array_equal(p, q) for p, q in zip(order_a, order_c))

    def test_substep_order_observable(self):
        x, y = toy_batch(seed=19, n=16)
        model = small_model(seed=20)
        events = []

        def hooks(event, epoch, step):
            events.append((step, event))

        cfg = TrainConfig(epochs=2, batch_size=8, learning_rate=0.05)
        train(model, x, y, cfg, hooks=hooks)
        # final epoch steps must run sgd -> spectral_norm -> precision_update
        final_epoch_steps = [e for s, e in events if s >= 2]
        assert final_epoch_steps == ["sgd_update", "spectral_norm", "precision_update"] * 2
        early_steps = [e for s, e in events if s < 2]
        assert early_steps == ["sgd_update", "spectral_norm"] * 2

    def test_divergence_guard(self):
        x, y = toy_batch(seed=22, n=16)
        model = small_model(seed=23)
        cfg = TrainConfig(epochs=3, batch_size=8, learning_rate=1e9)
        with pytest.raises(TrainingDivergedError):
            train(model, x, y, cfg)

    @pytest.mark.parametrize("gp_head", [True, False])
    def test_divergence_names_the_dataset_row(self, gp_head):
        # The shuffled batch holds row 17 at another position; the message
        # names the row of the dataset, and the epoch and step.
        x, y = toy_batch(seed=22, n=24)
        x[17] = 1e300 if gp_head else 1e308
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(TrainingDivergedError,
                               match=r"^dataset row 17: .* not finite at epoch 0 step \d+$"):
                train(small_model(seed=23, gp_head=gp_head), x, y,
                      TrainConfig(epochs=1, batch_size=8))

    def test_empty_dataset_rejected(self):
        model = small_model()
        with pytest.raises(ValueError):
            train(model, np.zeros((0, 2)), np.zeros(0, dtype=int), TrainConfig(epochs=1))

    def test_loss_trajectory_smoothed_non_increasing(self):
        from sngp.data import gen_two_moons
        ds = gen_two_moons(100, 0.1, seed=25)
        model = small_model(seed=26, hidden_width=16, num_features=128)
        cfg = TrainConfig(epochs=15, batch_size=20, learning_rate=0.05, momentum=0.9)
        report = train(model, ds.points, ds.labels, cfg)
        losses = np.array(report.epoch_losses)
        smoothed = np.convolve(losses, np.ones(3) / 3.0, mode="valid")
        assert np.all(np.diff(smoothed) <= 1e-3)


class TestPredict:
    def trained_model(self):
        rng = RngState(28)
        x = np.vstack([rng.normal_matrix(30, 2) * 0.3 + np.array([-1.5, 0.0]),
                       rng.normal_matrix(30, 2) * 0.3 + np.array([1.5, 0.0])])
        y = np.array([0] * 30 + [1] * 30)
        model = small_model(seed=29, use_layer_norm=False)
        cfg = TrainConfig(epochs=15, batch_size=10, learning_rate=0.1, momentum=0.9,
                          precision_exact=True)
        train(model, x, y, cfg)
        return model, x

    def test_probs_sum_to_one(self):
        model, x = self.trained_model()
        pred = predict_batch(model, np.array([[0.3, 0.3]]), mc_samples=10, rng=RngState(31))
        assert abs(pred.probs.sum() - 1.0) <= 1e-9
        assert np.all(pred.variance_logits >= 0.0)

    def test_zero_variance_head_is_plain_softmax(self):
        model = small_model(seed=32, gp_head=False)
        pred = predict_batch(model, np.array([[0.1, -0.2]]), mc_samples=1)
        expected = softmax(model.eval_logits(np.array([[0.1, -0.2]])))
        assert np.allclose(pred.probs, expected)
        assert np.all(pred.variance_logits == 0.0)

    def test_far_field_variance_reverts_to_prior(self):
        # shallow model, feature count well above sample count so the prior
        # dominates away from the data
        rng = RngState(33)
        x = rng.normal_matrix(100, 2)
        y = (x[:, 0] > 0).astype(int)
        model = build_sngp_model(ModelSpec(input_dim=2, hidden_width=0, depth=0, num_classes=2,
                                           seed=34, num_features=2048, identity_hidden=True,
                                           use_layer_norm=False, length_scale=2.0,
                                           gp_head=True, dropout_rate=0.0))
        cfg = TrainConfig(epochs=5, batch_size=25, learning_rate=0.1, momentum=0.9,
                          precision_exact=True)
        train(model, x, y, cfg)
        far = np.array([[100.0 * x.std(), 0.0]])
        pred = predict_batch(model, far, mc_samples=4, rng=RngState(36))
        phi = model.head.rff_features(far)[0]
        prior = float(phi @ phi) / model.head.ridge_s
        assert abs(pred.variance_logits.mean() - prior) / prior <= 0.10

    def test_predict_deterministic_given_seed(self):
        model, _ = self.trained_model()
        a = predict_batch(model, np.array([[0.2, 0.1]]), mc_samples=10, rng=RngState(34))
        b = predict_batch(model, np.array([[0.2, 0.1]]), mc_samples=10, rng=RngState(34))
        assert np.array_equal(a.probs, b.probs)

    def test_uncertainty_summaries(self):
        model, _ = self.trained_model()
        pred = predict_batch(model, np.array([[0.0, 0.0]]), mc_samples=5, rng=RngState(35))
        assert variance_uncertainty(pred)[0] == pytest.approx(pred.variance_logits.mean())
        margin = margin_uncertainty(pred)[0]
        assert 0.0 <= margin <= 1.0

    def test_margin_values(self):
        make = lambda p: GpPrediction(mean_logits=np.zeros((1, 2)),
                                      variance_logits=np.zeros((1, 2)),
                                      probs=np.array([[p, 1.0 - p]]))
        assert margin_uncertainty(make(0.5))[0] == pytest.approx(1.0)
        assert margin_uncertainty(make(1.0))[0] == pytest.approx(0.0)
        assert margin_uncertainty(make(0.75))[0] == pytest.approx(0.5)

    def test_margin_requires_binary(self):
        pred = GpPrediction(mean_logits=np.zeros((1, 3)), variance_logits=np.zeros((1, 3)),
                            probs=np.full((1, 3), 1 / 3))
        with pytest.raises(ValueError):
            margin_uncertainty(pred)

    def test_mc_probs_bit_identical_to_one_block_of_draws(self):
        # predict_batch draws one block of mc_samples * N * K normals, so a
        # seed keeps giving the same probabilities for batch and single inputs.
        model, x = self.trained_model()
        pred = predict_batch(model, x[:7], mc_samples=5, rng=RngState(50))
        means, variances = pred.mean_logits, pred.variance_logits
        assert np.all(variances > 0.0)
        eps = RngState(50).normal(5 * means.size).reshape(5, *means.shape)
        expected = softmax(means[None, :, :] + np.sqrt(variances)[None, :, :] * eps).mean(axis=0)
        assert np.array_equal(pred.probs, expected)
        single = predict_batch(model, x[:1], mc_samples=5, rng=RngState(51))
        assert np.array_equal(single.probs, mc_softmax(single.mean_logits, single.variance_logits,
                                                       5, RngState(51)))

    def test_batch_matches_single(self):
        model, _ = self.trained_model()
        pts = np.array([[0.1, 0.2], [1.0, -0.5]])
        batch = predict_batch(model, pts, mc_samples=3, rng=RngState(36))
        single = predict_batch(model, pts[1:], mc_samples=3, rng=RngState(37))
        assert np.allclose(batch.mean_logits[1], single.mean_logits[0])
        assert np.allclose(batch.variance_logits[1], single.variance_logits[0])
        assert (dempster_shafer(batch.mean_logits)[1]
                == pytest.approx(dempster_shafer(single.mean_logits)[0]))


class TestPredictBlocks:
    """predict_batch runs PREDICT_BLOCK_ROWS rows at a time; whatever N is
    modulo the block, the result is the unblocked computation."""

    @staticmethod
    def fitted(kind):
        if kind == "shallow_gp":
            model = build_sngp_model(ModelSpec(input_dim=2, hidden_width=0, depth=0, seed=60,
                                               num_features=32, identity_hidden=True,
                                               use_layer_norm=False, dropout_rate=0.0))
        else:
            model = small_model(seed=60, gp_head=kind != "dense",
                                num_classes=3 if kind == "per_class_k3" else 2)
        if model.has_gp_head:
            rng = RngState(61)
            model.head.beta[:] = rng.normal_matrix(*model.head.beta.shape)
            phi = model.head.rff_features(model.hidden(2.0 * rng.normal_matrix(40, 2))[0])
            model.head.update_precision_exact(phi, softmax(model.head.logits(phi)))
        return model

    @pytest.mark.parametrize("kind", ["sngp", "per_class_k3", "shallow_gp", "dense"])
    def test_matches_unblocked_reference(self, kind):
        model = self.fitted(kind)
        k = model.num_classes
        b = PREDICT_BLOCK_ROWS
        # Copied before the first prediction inverts the precision in place.
        precision = model.head.precision[0].copy() if model.has_gp_head else None
        for n in (1, b - 1, b, b + 1, 2 * b + 3):
            x = 3.0 * RngState(n).normal_matrix(n, 2)
            pred = predict_batch(model, x, mc_samples=3, rng=RngState(62))
            h = model.hidden(x)[0]
            if model.has_gp_head:
                phi = model.head.rff_features(h)
                means = model.head.logits(phi)
                variance = np.einsum("ij,ji->i", phi, np.linalg.solve(precision, phi.T))
                variances = np.stack([variance] * k, axis=1)
            else:
                means, variances = model.head.logits(h), np.zeros((n, k))
            assert pred.mean_logits.shape == pred.variance_logits.shape == (n, k)
            # Each row's arithmetic is unchanged, but BLAS may pick another kernel
            # for a short block, so the means may differ by a few ulps.
            np.testing.assert_allclose(pred.mean_logits, means, rtol=1e-12, atol=1e-14)
            np.testing.assert_allclose(pred.variance_logits, variances, rtol=1e-10, atol=0.0)
            assert np.array_equal(pred.probs, mc_softmax(pred.mean_logits, pred.variance_logits,
                                                         3, RngState(62)))
            assert np.array_equal(model.eval_logits(x), pred.mean_logits)

    def test_peak_memory_does_not_grow_with_rows(self):
        # Only the (N, K) outputs and the Monte Carlo step grow with N; the
        # network tape and the features are bounded by one block.
        b = PREDICT_BLOCK_ROWS
        model = build_sngp_model(ModelSpec(hidden_width=64, depth=8, num_features=128,
                                           dropout_rate=0.0))
        # The first prediction inverts the precision in place.
        predict_batch(model, np.zeros((1, 2)), mc_samples=10, rng=RngState(0))

        def peak_bytes(n):
            x = RngState(n).normal_matrix(n, 2)
            tracemalloc.start()
            try:
                predict_batch(model, x, mc_samples=10, rng=RngState(1))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        # The Monte Carlo softmax works inside its (S, N, K) draws, so beside
        # them only the three (N, K) outputs and (N, K)-sized temporaries grow.
        grown = (8 * b - 2 * b) * model.num_classes * 8
        outputs, draws = 3 * grown, 10 * grown  # 10 Monte Carlo samples
        assert peak_bytes(8 * b) - peak_bytes(2 * b) < outputs + draws + 2**20

    @staticmethod
    def default_model_peak(rows: int) -> int:
        # Beside the model and its covariance: one block's network pass,
        # features and variance product, the (N, K) outputs and the MC draws.
        model = build_sngp_model(ModelSpec())
        # The first prediction inverts the precision in place.
        predict_batch(model, np.zeros((1, 2)), mc_samples=10, rng=RngState(0))
        x = RngState(3).normal_matrix(rows, 2)
        tracemalloc.start()
        try:
            predict_batch(model, x, mc_samples=10, rng=RngState(1))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_default_model_predicts_10k_rows_within_12_mb(self):
        assert self.default_model_peak(10_000) <= 8 * 2**20

    def test_default_model_predicts_40k_rows_within_12_mb(self):
        assert self.default_model_peak(40_000) <= 12 * 2**20

    def test_non_finite_row_is_named(self):
        x = np.zeros((6, 2))
        x[3, 1] = np.inf
        x[5, 0] = np.nan
        with pytest.raises(ValueError, match="input row 3 is not finite"):
            predict_batch(small_model(seed=63), x, mc_samples=10, rng=RngState(0))

    @pytest.mark.parametrize("magnitude", [1e155, 1e300, 1e306])
    def test_overflowing_row_is_named_across_blocks(self, magnitude):
        # Past the first block, so the row number counts from the input's start.
        b = PREDICT_BLOCK_ROWS
        x = RngState(64).normal_matrix(2 * b + 3, 2)
        x[b + 5] = magnitude
        x[2 * b + 1] = -magnitude
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteRowError, match=f"^row {b + 5}: layer-norm variance"):
                predict_batch(small_model(seed=63), x, mc_samples=10, rng=RngState(0))

    def test_covariance_is_built_before_any_feature_block(self, monkeypatch):
        # The inversion writes over the precision, so the first feature block
        # must see it changed.
        model = self.fitted("sngp")
        precision = model.head.precision[0]
        before = precision.copy()
        seen = []
        features = model.head.rff_features
        monkeypatch.setattr(model.head, "rff_features",
                            lambda h: seen.append(not np.array_equal(precision, before))
                            or features(h))
        predict_batch(model, np.zeros((3, 2)), mc_samples=10, rng=RngState(0))
        assert seen == [True]

    def test_first_prediction_inverts_within_8_mb_and_holds_nothing(self):
        # A default head's covariance takes the place of its 8 MiB precision:
        # no copy is made, and nothing is kept beside it afterwards.
        model = build_sngp_model(ModelSpec())
        x = RngState(3).normal_matrix(PREDICT_BLOCK_ROWS, 2)
        tracemalloc.start()
        try:
            predict_batch(model, x, mc_samples=10, rng=RngState(1))
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20
        assert held < 2**16


class TestExactPrecisionPass:
    """``train`` builds the exact precision ``PREDICT_BLOCK_ROWS`` rows at a time."""

    @pytest.mark.parametrize("num_classes", [2, 3])
    def test_blocks_change_nothing_but_rounding(self, num_classes):
        n = 2 * PREDICT_BLOCK_ROWS + 3
        x = RngState(70).normal_matrix(n, 2)
        y = np.digitize(x[:, 0], np.linspace(-1.0, 1.0, num_classes + 1)[1:-1])
        model = small_model(seed=71, num_classes=num_classes)
        train(model, x, y, TrainConfig(epochs=2, batch_size=32, precision_exact=True))
        head = model.head
        phi = head.rff_features(model.hidden(x)[0])
        probs = softmax(head.logits(phi))
        weights = (probs * (1.0 - probs)).mean(axis=1, keepdims=True)
        p = head.precision[0]
        dense = head.ridge_s * np.eye(head.num_features) + (phi * weights).T @ phi
        # An entry whose sum cancels near zero is held to the matrix's scale.
        np.testing.assert_allclose(p, dense, rtol=1e-12, atol=1e-12 * np.abs(dense).max())
        assert np.array_equal(p, p.T)

    def test_peak_memory_does_not_grow_with_rows(self):
        # The network tape and the (rows, D) features of the exact pass are
        # bounded by one block; only the inputs and the (N, K) outputs grow.
        def peak_bytes(n):
            x = RngState(n).normal_matrix(n, 2)
            y = (x[:, 0] > 0).astype(int)
            model = small_model(seed=73, hidden_width=32, depth=2, num_features=1024)
            tracemalloc.start()
            try:
                train(model, x, y, TrainConfig(epochs=1, batch_size=32, precision_exact=True))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        grown_rows = 8000 - 2000
        inputs_and_outputs = 8 * grown_rows * (2 + 1 + 2)  # x, y and the (N, 2) logits
        assert peak_bytes(8000) - peak_bytes(2000) < inputs_and_outputs + 4 * 2**20


class TestTrainingMemory:
    def test_default_epoch_holds_no_dead_step_or_block(self):
        # Beside the model, a default epoch holds the optimizer's velocity (one
        # copy of the parameters) and one step's gradients (another); the
        # pass after the last step holds one block's cosine and sine, and
        # neither the velocity nor the previous block.
        from sngp.data import gen_two_moons
        ds = gen_two_moons(500, 0.1, seed=7)
        model = build_sngp_model(ModelSpec())
        params = sum(a.nbytes for a in model.parameters().values())
        block = 2 * PREDICT_BLOCK_ROWS * model.spec.num_features * 8
        peak = peak_bytes(lambda: train(model, ds.points, ds.labels, TrainConfig(epochs=1)))
        assert peak <= 2 * params + block


class TestOneEvaluationPass:
    """Prediction, both precision updates and the final accuracy take their
    features and mean logits from one checked pass, ``SngpModel._evaluate``."""

    @staticmethod
    def data(n=2 * PREDICT_BLOCK_ROWS + 3):
        x = RngState(80).normal_matrix(n, 2)
        return x, (x[:, 0] * x[:, 1] > 0).astype(int)

    def test_exact_precision_sends_each_row_through_once_after_training(self, monkeypatch):
        x, y = self.data()
        model = small_model(seed=81)
        sgd_steps, feature_rows, network_rows = [], [], []
        features, forward = model.head.rff_features, model.network.forward
        monkeypatch.setattr(model.head, "rff_features", lambda h: feature_rows.append(
            (len(sgd_steps), len(h))) or features(h))
        monkeypatch.setattr(model.network, "forward", lambda x, **kw: network_rows.append(
            (len(sgd_steps), len(x))) or forward(x, **kw))
        train(model, x, y, TrainConfig(epochs=2, batch_size=64, precision_exact=True),
              hooks=lambda event, *_: sgd_steps.append(event) if event == "sgd_update" else None)
        last = len(sgd_steps)
        blocks = [(last, PREDICT_BLOCK_ROWS), (last, PREDICT_BLOCK_ROWS), (last, 3)]
        assert feature_rows == blocks
        assert [(s, m) for s, m in network_rows if s == last] == blocks

    @pytest.mark.parametrize("precision_exact", [True, False])
    def test_final_accuracy_is_that_of_the_eval_logits(self, precision_exact):
        x, y = self.data()
        model = small_model(seed=82)
        report = train(model, x, y, TrainConfig(epochs=2, batch_size=64,
                                                precision_exact=precision_exact))
        assert 0.0 < report.final_train_accuracy < 1.0
        assert report.final_train_accuracy == np.mean(np.argmax(model.eval_logits(x), 1) == y)

    def test_moving_average_takes_each_minibatch_in_one_update(self, monkeypatch):
        # Minibatches above PREDICT_BLOCK_ROWS are not split into blocks.
        x, y = self.data(600)
        model = small_model(seed=83)
        sizes = []
        update = model.head.update_precision_minibatch
        monkeypatch.setattr(model.head, "update_precision_minibatch",
                            lambda phi, probs: sizes.append((len(phi), len(probs)))
                            or update(phi, probs))
        train(model, x, y, TrainConfig(epochs=2, batch_size=300))
        assert sizes == [(300, 300), (300, 300)]

    def test_features_are_computed_only_inside_the_evaluation_pass(self, monkeypatch):
        depth, inside = [0], []
        evaluate, features = SngpModel._evaluate, RffGpLayer.rff_features

        def counted_evaluate(model, x):
            depth[0] += 1
            try:
                return evaluate(model, x)
            finally:
                depth[0] -= 1

        monkeypatch.setattr(SngpModel, "_evaluate", counted_evaluate)
        monkeypatch.setattr(RffGpLayer, "rff_features",
                            lambda head, h: inside.append(depth[0] == 1) or features(head, h))
        x, y = self.data()
        model = small_model(seed=84)
        train(model, x, y, TrainConfig(epochs=2, batch_size=64))
        predict_batch(model, x, mc_samples=10, rng=RngState(0))
        # The final epoch's 9 minibatches, then 3 blocks after training and 3 to predict.
        assert len(inside) == 9 + 3 + 3 and all(inside)


@pytest.fixture(scope="module")
def far_field_fit():
    """A shallow GP head without layer norm, its exact precision built in
    three blocks, and the radius of its training cloud."""
    x = RngState(75).normal_matrix(2 * PREDICT_BLOCK_ROWS + 3, 2)
    model = build_sngp_model(ModelSpec(input_dim=2, hidden_width=0, depth=0, seed=76,
                                       num_features=1024, identity_hidden=True,
                                       use_layer_norm=False, dropout_rate=0.0))
    train(model, x, (x[:, 0] > 0).astype(int),
          TrainConfig(epochs=3, batch_size=32, precision_exact=True))
    return model, float(np.linalg.norm(x, axis=1).max())


@settings(max_examples=60, deadline=None)
@given(angle=st.floats(0.0, 2.0 * np.pi), length_scales=st.floats(10.0, 1000.0))
def test_variance_far_from_the_data_reverts_to_the_prior(far_field_fit, angle, length_scales):
    # At least 10 length-scales from every training row the kernel is ~0, so
    # the variance is the prior ||phi||^2 / s, short only by the part of phi
    # that the random features' finite D leaves in the data's span (under 5%
    # at D = 1024 on this cloud); the data can never raise it above the prior.
    model, radius = far_field_fit
    head = model.head
    x = (radius + length_scales * head.length_scale) * np.array([[np.cos(angle), np.sin(angle)]])
    variance = predict_batch(model, x, mc_samples=1, rng=RngState(0)).variance_logits[0, 0]
    phi = head.rff_features(x)[0]
    prior = float(phi @ phi) / head.ridge_s
    assert 0.9 * prior <= variance <= prior * (1.0 + 1e-9)


BLOB_CENTERS = 3.0 * np.array([[np.cos(a), np.sin(a)] for a in 2.0 * np.pi * np.arange(3) / 3])


@pytest.mark.parametrize("seed", range(5))
def test_three_blobs_keep_distance_awareness_with_one_precision(seed):
    # A K = 3 head keeps one precision, with the class-mean Fisher weight.
    # Its variance over the prior ||phi||^2 / s stays small on the data and,
    # 10 data radii out in 16 directions, stays as near the prior as the
    # variance of one precision per class (the dense oracle below).  Seeds
    # 0-15 measured a median in-domain ratio of 0.0022-0.0056 and a least far
    # ratio of 0.567-0.715, within 0.002 of the per-class head's.
    rng = RngState(1000 + seed)
    x = np.concatenate([c + 0.5 * rng.normal_matrix(100, 2) for c in BLOB_CENTERS])
    y = np.repeat(np.arange(3), 100)
    model = build_sngp_model(ModelSpec(input_dim=2, hidden_width=32, depth=3, num_classes=3,
                                       num_features=256, use_layer_norm=False, seed=seed))
    train(model, x, y, TrainConfig(epochs=20, batch_size=32, precision_exact=True))
    head = model.head
    fit = head.rff_features(model.hidden(x)[0])
    probs = softmax(head.logits(fit))
    angles = 2.0 * np.pi * np.arange(16) / 16
    far = 10.0 * np.linalg.norm(x, axis=1).max() * np.stack([np.cos(angles), np.sin(angles)], 1)
    phi = head.rff_features(model.hidden(far)[0])
    prior = np.einsum("ij,ij->i", phi, phi) / head.ridge_s
    per_class_far = min(
        np.min(np.einsum("ij,ji->i", phi, np.linalg.solve(
            head.ridge_s * np.eye(256) + (fit * w[:, None]).T @ fit, phi.T)) / prior)
        for w in (probs * (1.0 - probs)).T)
    variances = predict_batch(model, np.concatenate([x, far]), mc_samples=1,
                              rng=RngState(0)).variance_logits
    in_ratio = np.median(variances[:300, 0] / (np.einsum("ij,ij->i", fit, fit) / head.ridge_s))
    far_ratio = np.min(variances[300:, 0] / prior)
    assert in_ratio < 0.01
    assert far_ratio > max(0.5, per_class_far - 0.01)


class TestModelSpec:
    @pytest.mark.parametrize("name, value", [
        ("depth", 2.5), ("depth", True), ("num_features", "64"), ("length_scale", False),
        ("use_layer_norm", "false"), ("use_layer_norm", 1), ("seed", None)])
    def test_wrong_field_type_raises(self, name, value):
        with pytest.raises(TypeError, match=f"ModelSpec.{name} must be"):
            ModelSpec(**{name: value})

    @pytest.mark.parametrize("name, value", [
        ("length_scale", 0.0), ("length_scale", float("nan")), ("ridge_s", -1e-3),
        ("ridge_s", float("nan")), ("sn_bound", float("nan")), ("sn_bound", -1.0),
        ("dropout_rate", 1.0), ("dropout_rate", -0.1), ("dropout_rate", float("nan")),
        ("discount_m", 1.0), ("discount_m", 0.0), ("discount_m", float("nan")),
        ("input_dim", 0),
        ("num_classes", 1), ("hidden_width", 0), ("depth", -1),
        ("num_features", 0), ("seed", -1)])
    def test_out_of_range_hyperparameter_raises(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must"):
            ModelSpec(**{name: value})

    def test_sizes_the_spec_does_not_use_are_not_checked(self):
        # The identity stands in for the network; a dense head has no random features.
        assert build_sngp_model(ModelSpec(identity_hidden=True, hidden_width=0, depth=-1,
                                          use_layer_norm=False,
                                          num_features=8)).network is None
        assert not build_sngp_model(ModelSpec(gp_head=False, num_features=0, hidden_width=4,
                                              depth=1)).has_gp_head

    def test_int_for_float(self):
        assert ModelSpec(length_scale=2).length_scale == 2

    @pytest.mark.parametrize("kwargs", [
        {}, {"gp_head": False}, {"num_classes": 3}, {"gp_head": False, "num_classes": 3},
        {"identity_hidden": True, "use_layer_norm": False}, {"num_classes": 4}])
    def test_layout_shapes_are_the_built_arrays(self, kwargs):
        model = small_model(seed=64, **kwargs)
        layout = [(name, shape) for name, shape, _ in _array_layout(model.spec)]
        assert layout == [(name, arr.shape) for name, arr in _array_manifest(model)]
        if model.has_gp_head:
            # one precision at every K
            assert [name for name, _ in layout if name.startswith("head.precision")] \
                == ["head.precision0"]


SPEC_FIELDS = [f.name for f in fields(ModelSpec)]
ODD_VALUES = st.one_of(st.none(), st.booleans(), st.sampled_from([-1, 0, 3, 400, 10**9, 2**64]),
                       st.integers(), st.floats(), st.text(max_size=5),
                       st.lists(st.integers(0, 4), max_size=2))
SPEC_EDITS = st.lists(st.one_of(
    st.tuples(st.just("set"), st.sampled_from(SPEC_FIELDS), ODD_VALUES),
    st.tuples(st.just("drop"), st.sampled_from(SPEC_FIELDS), st.none()),
    st.tuples(st.just("set"), st.text(min_size=1, max_size=8), ODD_VALUES)),
    min_size=1, max_size=3)


class TestCheckpoint:
    def roundtrip(self, model, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path, "seed = 1\n")
        return load_checkpoint(path)

    def test_gp_model_bit_exact(self, tmp_path):
        model = small_model(seed=38)
        x, y = toy_batch(seed=39, n=24)
        train(model, x, y, TrainConfig(epochs=3, batch_size=8, learning_rate=0.05))
        back, header = self.roundtrip(model, tmp_path)
        assert (tmp_path / "model.ckpt").read_bytes()[8:12] == np.uint32(5).tobytes()
        assert sorted(header) == ["arrays", "config", "model", "payload_crc32"]
        assert header["config"] == "seed = 1\n"
        for (ka, va), (kb, vb) in zip(sorted(model.parameters().items()),
                                      sorted(back.parameters().items())):
            assert ka == kb and np.array_equal(va, vb)
        assert np.array_equal(model.head.precision[0], back.head.precision[0])
        assert np.array_equal(model.head.w_fixed, back.head.w_fixed)
        assert np.array_equal(model.head.b_fixed, back.head.b_fixed)
        pts = np.array([[0.4, -0.4]])
        assert np.array_equal(model.eval_logits(pts), back.eval_logits(pts))

    def test_model_that_has_predicted_is_not_saved(self, tmp_path):
        # Its precision was inverted in place for prediction, so there is
        # nothing left to save.
        model = small_model(seed=38)
        x, y = toy_batch(seed=39, n=24)
        train(model, x, y, TrainConfig(epochs=3, batch_size=8, learning_rate=0.05))
        predict_batch(model, x, mc_samples=10, rng=RngState(0))
        path = tmp_path / "model.ckpt"
        with pytest.raises(ValueError, match="its precision was inverted in place for "
                                             "prediction"):
            save_checkpoint(model, path, "seed = 1\n")
        assert not path.exists()

    def test_save_and_load_hold_no_copy_of_the_payload(self, tmp_path):
        # A default model's payload is ≈11 MB, its precision 8 MB of it.
        path = tmp_path / "model.ckpt"
        model = build_sngp_model(ModelSpec())
        assert peak_bytes(lambda: save_checkpoint(model, path, "seed = 1\n")) < 2 * 2**20
        # Loading reads the payload into arrays allocated as zeros, with no
        # initial draw and no identity, so it holds the payload and little more.
        payload = sum(arr.nbytes for _, arr in _array_manifest(model))
        assert peak_bytes(lambda: load_checkpoint(path)) <= payload + 2**20

    def test_new_model_is_allocated_as_zeros(self):
        # What loading reads into: no initial draw, no identity precision.
        model = SngpModel(ModelSpec(hidden_width=8, depth=2, num_features=32))
        assert all(not arr.any() for _, arr in _array_manifest(model))

    def test_initial_draws_are_pinned(self):
        # The payload CRC-32 of a new model without spectral normalization, so
        # a change in its initial draws (streams, order or arithmetic) fails here.
        model = build_sngp_model(ModelSpec(seed=0, hidden_width=8, depth=2, num_features=32,
                                           spectral_norm=False))
        crc = 0
        for _, arr in _array_manifest(model):
            crc = zlib.crc32(np.ascontiguousarray(arr, dtype="<f8"), crc)
        assert crc == 3066366660

    def test_dense_model_roundtrip(self, tmp_path):
        model = small_model(seed=41, gp_head=False, spectral_norm=False)
        back, header = self.roundtrip(model, tmp_path)
        assert not back.has_gp_head
        assert not back.spec.spectral_norm
        pts = np.array([[0.1, 0.9]])
        assert np.array_equal(model.eval_logits(pts), back.eval_logits(pts))

    def test_identity_hidden_roundtrip(self, tmp_path):
        model = build_sngp_model(ModelSpec(input_dim=2, hidden_width=0, depth=0, num_classes=2,
                                           seed=42, num_features=64, identity_hidden=True,
                                           use_layer_norm=False, gp_head=True,
                                           dropout_rate=0.0))
        back, _ = self.roundtrip(model, tmp_path)
        assert back.network is None
        pts = np.array([[0.3, 0.7]])
        assert np.array_equal(model.eval_logits(pts), back.eval_logits(pts))

    def test_header_holds_the_spec(self, tmp_path):
        model = small_model(seed=49)
        back, header = self.roundtrip(model, tmp_path)
        assert back.spec == model.spec
        assert header["model"] == asdict(model.spec)

    def test_save_twice_byte_identical(self, tmp_path):
        model = small_model(seed=43)
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(model, p1, "seed = 43\n")
        save_checkpoint(model, p2, "seed = 43\n")
        assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize("claim", [{"depth": 400, "hidden_width": 256}, {"depth": 10**9}],
                             ids=["wide_and_deep", "billion_blocks"])
    def test_oversized_header_rejected_before_building(self, tmp_path, claim):
        path = tmp_path / "m.ckpt"
        save_checkpoint(small_model(seed=65, hidden_width=16), path)
        rewrite_header(path, lambda h: h["model"].update(claim))
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="does not match the header's model"):
                load_checkpoint(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20 * 2**20

    @settings(max_examples=50, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(edits=SPEC_EDITS)
    def test_fuzzed_spec_loads_or_raises_value_error(self, tmp_path, edits):
        # The CRC covers the payload only, so the edited header keeps it valid.
        def edit(header):
            for op, key, value in edits:
                if op == "drop":
                    header["model"].pop(key, None)
                else:
                    header["model"][key] = value

        path = tmp_path / "fuzz.ckpt"
        save_checkpoint(small_model(seed=66, hidden_width=4, depth=1, num_features=8), path)
        rewrite_header(path, edit)
        try:
            load_checkpoint(path)
        except ValueError:
            pass

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"NOTACKPT" + b"\x00" * 16)
        with pytest.raises(ValueError, match="magic"):
            load_checkpoint(path)


def test_report_text_contains_config_echo():
    report = TrainReport(epoch_losses=[0.5, 0.4], final_train_accuracy=0.9, seed=7)
    text = report.as_text()
    assert "loss_epoch_1=" in text
    assert "seed=7" in text
