import tracemalloc
import warnings
from dataclasses import asdict, fields

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from sngp.gp_layer import GpPrediction, NonFiniteRowError, mc_softmax, softmax
from sngp.linalg import RngState
from sngp.metrics import dempster_shafer, margin_uncertainty, variance_uncertainty
from sngp.train import (PREDICT_BLOCK_ROWS, ModelSpec, TrainConfig, TrainReport,
                        TrainingDivergedError, _array_layout, _array_manifest,
                        build_sngp_model, load_checkpoint, loss_and_grads,
                        predict_batch, save_checkpoint, train)

from headers import rewrite_header
from oracles import finite_diff_gradients, max_relative_gradient_error, sigma_max_jacobi


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
        loss, _ = loss_and_grads(model, x, y, train_mode=False)
        assert loss == pytest.approx(np.log(2.0))

    def test_overflowing_features_count_as_divergence(self):
        # Layer norm hides the scale from the loss, so the feature check is
        # what reports a blown-up hidden row, as the non-finite-loss guard did.
        x, y = toy_batch()
        x[4] = 1e300
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(TrainingDivergedError, match="row 4: layer-norm variance"):
                loss_and_grads(small_model(), x, y, train_mode=False)

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
                                 train_mode=False)
        l2_term = l2_beta * 0.5 * float(np.sum(model.head.weight**2)) / l2_scale
        assert loss == pytest.approx(l2_term, abs=1e-12)

    def test_full_model_gradient_check(self):
        model = small_model(seed=3)
        model.head.beta[:] = 0.3 * RngState(4).normal_matrix(2, 32)
        x, y = toy_batch(seed=5)

        def loss_fn():
            return loss_and_grads(model, x, y, l2_beta=0.1, l2_scale=10.0,
                                  train_mode=False)[0]

        _, analytic = loss_and_grads(model, x, y, l2_beta=0.1, l2_scale=10.0,
                                     train_mode=False)
        numeric = finite_diff_gradients(loss_fn, model.parameters())
        worst, name = max_relative_gradient_error(analytic, numeric)
        assert worst <= 1e-4, f"gradient mismatch at {name}: {worst}"

    def test_dense_head_gradient_check(self):
        model = small_model(seed=6, gp_head=False)
        x, y = toy_batch(seed=7)

        def loss_fn():
            return loss_and_grads(model, x, y, train_mode=False)[0]

        _, analytic = loss_and_grads(model, x, y, train_mode=False)
        numeric = finite_diff_gradients(loss_fn, model.parameters())
        worst, name = max_relative_gradient_error(analytic, numeric)
        assert worst <= 1e-4, f"gradient mismatch at {name}: {worst}"

    def test_gradient_check_with_head_projection(self):
        model = small_model(seed=8, gp_projection_dim=4)
        model.head.beta[:] = 0.3 * RngState(9).normal_matrix(2, 32)
        x, y = toy_batch(seed=10)

        def loss_fn():
            return loss_and_grads(model, x, y, train_mode=False)[0]

        _, analytic = loss_and_grads(model, x, y, train_mode=False)
        numeric = finite_diff_gradients(loss_fn, model.parameters())
        worst, name = max_relative_gradient_error(analytic, numeric)
        assert worst <= 1e-4, f"gradient mismatch at {name}: {worst}"

    def test_label_range_checked(self):
        model = small_model()
        x, _ = toy_batch()
        with pytest.raises(ValueError):
            loss_and_grads(model, x, np.full(len(x), 5))


class TestTrainLoop:
    def test_separable_points_reach_full_accuracy(self):
        rng = RngState(8)
        x = np.vstack([rng.normal_matrix(20, 2) * 0.2 + np.array([-2.0, 0.0]),
                       rng.normal_matrix(20, 2) * 0.2 + np.array([2.0, 0.0])])
        y = np.array([0] * 20 + [1] * 20)
        model = small_model(seed=9)
        cfg = TrainConfig(epochs=20, batch_size=8, learning_rate=0.1, momentum=0.9, seed=10)
        report = train(model, x, y, cfg)
        assert report.final_train_accuracy == 1.0

    def test_epochs_zero_changes_nothing(self):
        model = small_model(seed=11)
        before = {k: v.copy() for k, v in model.parameters().items()}
        x, y = toy_batch()
        cfg = TrainConfig(epochs=0, seed=12)
        train(model, x, y, cfg)
        for k, v in model.parameters().items():
            assert np.array_equal(v, before[k])
        for p in model.head.precision:
            assert np.array_equal(p, model.head.ridge_s * np.eye(32))

    def test_spectral_bound_after_training(self):
        x, y = toy_batch(seed=13, n=64)
        model = small_model(seed=14)
        cfg = TrainConfig(epochs=10, batch_size=16, learning_rate=0.1, momentum=0.9, seed=15)
        train(model, x, y, cfg)
        for blk in model.network.blocks:
            assert sigma_max_jacobi(blk.layer.weight) <= 0.9 + 1e-6

    def test_bit_identical_reruns(self):
        x, y = toy_batch(seed=16, n=40)

        def run():
            model = small_model(seed=17, dropout_rate=0.1)
            cfg = TrainConfig(epochs=5, batch_size=8, learning_rate=0.05,
                              momentum=0.9, seed=18)
            train(model, x, y, cfg)
            return model

        a, b = run(), run()
        for (ka, va), (kb, vb) in zip(sorted(a.parameters().items()),
                                      sorted(b.parameters().items())):
            assert ka == kb
            assert np.array_equal(va, vb)
        for pa, pb in zip(a.head.precision, b.head.precision):
            assert np.array_equal(pa, pb)

    def test_substep_order_observable(self):
        x, y = toy_batch(seed=19, n=16)
        model = small_model(seed=20)
        events = []

        def hooks(event, epoch, step):
            events.append((step, event))

        cfg = TrainConfig(epochs=2, batch_size=8, learning_rate=0.05, seed=21)
        train(model, x, y, cfg, hooks=hooks)
        # final epoch steps must run sgd -> spectral_norm -> precision_update
        final_epoch_steps = [e for s, e in events if s >= 2]
        assert final_epoch_steps == ["sgd_update", "spectral_norm", "precision_update"] * 2
        early_steps = [e for s, e in events if s < 2]
        assert early_steps == ["sgd_update", "spectral_norm"] * 2

    def test_divergence_guard(self):
        x, y = toy_batch(seed=22, n=16)
        model = small_model(seed=23)
        cfg = TrainConfig(epochs=3, batch_size=8, learning_rate=1e9, seed=24)
        with pytest.raises(TrainingDivergedError):
            train(model, x, y, cfg)

    def test_empty_dataset_rejected(self):
        model = small_model()
        with pytest.raises(ValueError):
            train(model, np.zeros((0, 2)), np.zeros(0, dtype=int), TrainConfig(epochs=1))

    def test_loss_trajectory_smoothed_non_increasing(self):
        from sngp.data import gen_two_moons
        ds = gen_two_moons(100, 0.1, seed=25)
        model = small_model(seed=26, hidden_width=16, num_features=128)
        cfg = TrainConfig(epochs=15, batch_size=20, learning_rate=0.05, momentum=0.9, seed=27)
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
                          seed=30, precision_exact=True)
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
                          seed=35, precision_exact=True)
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
        for n in (1, b - 1, b, b + 1, 2 * b + 3):
            x = 3.0 * RngState(n).normal_matrix(n, 2)
            pred = predict_batch(model, x, mc_samples=3, rng=RngState(62))
            h = model.hidden(x)[0]
            if model.has_gp_head:
                phi = model.head.rff_features(h)
                means = model.head.logits(phi)
                columns = [np.einsum("ij,ji->i", phi, np.linalg.solve(p, phi.T))
                           for p in model.head.precision]
                variances = np.stack(columns * (k // len(columns)), axis=1)
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
        predict_batch(model, np.zeros((1, 2)), rng=RngState(0))  # caches the covariance

        def peak_bytes(n):
            x = RngState(n).normal_matrix(n, 2)
            tracemalloc.start()
            try:
                predict_batch(model, x, rng=RngState(1))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        outputs = 3 * 8 * (8 * b) * model.num_classes
        assert peak_bytes(8 * b) - peak_bytes(2 * b) < outputs + 8 * 2**20

    def test_non_finite_row_is_named(self):
        x = np.zeros((6, 2))
        x[3, 1] = np.inf
        x[5, 0] = np.nan
        with pytest.raises(ValueError, match="input row 3 is not finite"):
            predict_batch(small_model(seed=63), x, rng=RngState(0))

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
                predict_batch(small_model(seed=63), x, rng=RngState(0))

    def test_covariance_is_built_before_any_feature_block(self, monkeypatch):
        model = self.fitted("sngp")
        seen = []
        features = model.head.rff_features
        monkeypatch.setattr(model.head, "rff_features",
                            lambda h: seen.append(model.head._factors is not None) or features(h))
        predict_batch(model, np.zeros((3, 2)), rng=RngState(0))
        assert seen == [True]


class TestModelSpec:
    @pytest.mark.parametrize("name, value", [
        ("depth", 2.5), ("depth", True), ("num_features", "64"), ("length_scale", False),
        ("use_layer_norm", "false"), ("use_layer_norm", 1), ("gp_projection_dim", 4.0),
        ("activation", None)])
    def test_wrong_field_type_raises(self, name, value):
        with pytest.raises(TypeError, match=f"ModelSpec.{name} must be"):
            ModelSpec(**{name: value})

    @pytest.mark.parametrize("name, value", [
        ("length_scale", 0.0), ("length_scale", float("nan")), ("ridge_s", -1e-3),
        ("ridge_s", float("nan")), ("sn_bound", float("nan")), ("sn_bound", -1.0),
        ("dropout_rate", 1.0), ("dropout_rate", -0.1), ("dropout_rate", float("nan")),
        ("discount_m", 1.0), ("discount_m", float("nan"))])
    def test_out_of_range_hyperparameter_raises(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must"):
            ModelSpec(**{name: value})

    def test_int_for_float_and_none_for_projection(self):
        spec = ModelSpec(length_scale=2, gp_projection_dim=None)
        assert spec.length_scale == 2 and spec.gp_projection_dim is None

    @pytest.mark.parametrize("kwargs", [
        {}, {"gp_head": False}, {"num_classes": 3}, {"gp_projection_dim": 4},
        {"identity_hidden": True, "use_layer_norm": False}, {"num_classes": 4}])
    def test_layout_shapes_are_the_built_arrays(self, kwargs):
        model = small_model(seed=64, **kwargs)
        layout = [(name, shape) for name, shape, _ in _array_layout(model.spec)]
        assert layout == [(name, arr.shape) for name, arr in _array_manifest(model)]
        if model.has_gp_head:
            # the spec-only layout and the built head agree on the precision count
            assert (sum(name.startswith("head.precision") for name, _ in layout)
                    == len(model.head.precision))


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
    def roundtrip(self, model, tmp_path, variant="sngp"):
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path, variant=variant, config_echo={"seed": 1})
        return load_checkpoint(path)

    def test_gp_model_bit_exact(self, tmp_path):
        model = small_model(seed=38)
        x, y = toy_batch(seed=39, n=24)
        train(model, x, y, TrainConfig(epochs=3, batch_size=8, seed=40,
                                       learning_rate=0.05))
        back, header = self.roundtrip(model, tmp_path)
        assert header["variant"] == "sngp"
        assert header["format_version"] == 2
        for (ka, va), (kb, vb) in zip(sorted(model.parameters().items()),
                                      sorted(back.parameters().items())):
            assert ka == kb and np.array_equal(va, vb)
        for pa, pb in zip(model.head.precision, back.head.precision):
            assert np.array_equal(pa, pb)
        assert np.array_equal(model.head.w_fixed, back.head.w_fixed)
        assert np.array_equal(model.head.b_fixed, back.head.b_fixed)
        pts = np.array([[0.4, -0.4]])
        assert np.array_equal(model.eval_logits(pts), back.eval_logits(pts))

    def test_dense_model_roundtrip(self, tmp_path):
        model = small_model(seed=41, gp_head=False, spectral_norm=False)
        back, header = self.roundtrip(model, tmp_path, variant="deterministic")
        assert not back.has_gp_head
        assert not back.spectral_norm_enabled
        pts = np.array([[0.1, 0.9]])
        assert np.array_equal(model.eval_logits(pts), back.eval_logits(pts))

    def test_identity_hidden_roundtrip(self, tmp_path):
        model = build_sngp_model(ModelSpec(input_dim=2, hidden_width=0, depth=0, num_classes=2,
                                           seed=42, num_features=64, identity_hidden=True,
                                           use_layer_norm=False, gp_head=True,
                                           dropout_rate=0.0))
        back, _ = self.roundtrip(model, tmp_path, variant="shallow_gp")
        assert back.network is None
        pts = np.array([[0.3, 0.7]])
        assert np.array_equal(model.eval_logits(pts), back.eval_logits(pts))

    def test_head_projection_roundtrip(self, tmp_path):
        model = small_model(seed=44, gp_projection_dim=4)
        back, header = self.roundtrip(model, tmp_path)
        assert header["model"]["gp_projection_dim"] == 4
        assert np.array_equal(model.head.input_projection, back.head.input_projection)
        pts = np.array([[0.6, -0.2]])
        assert np.array_equal(model.eval_logits(pts), back.eval_logits(pts))

    def test_header_holds_the_spec(self, tmp_path):
        model = small_model(seed=49, gp_projection_dim=4)
        back, header = self.roundtrip(model, tmp_path)
        assert back.spec == model.spec
        assert header["model"] == asdict(model.spec)

    def test_save_twice_byte_identical(self, tmp_path):
        model = small_model(seed=43)
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(model, p1, config_echo={"seed": 43})
        save_checkpoint(model, p2, config_echo={"seed": 43})
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
    report = TrainReport(epoch_losses=[0.5, 0.4], final_train_accuracy=0.9, seed=7,
                         config_echo={"epochs": 2, "batch_size": 8})
    text = report.as_text()
    assert "config.epochs=2" in text
    assert "loss_epoch_1=" in text
    assert "seed=7" in text
