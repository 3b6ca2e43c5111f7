from dataclasses import replace

import numpy as np
import pytest
from scipy.stats import spearmanr

from sngp.baselines import VARIANT_TAGS, build_variant, ensemble_predict, train_ensemble
from sngp.data import gen_two_moons, gen_two_ovals
from sngp.gp_layer import softmax
from sngp.linalg import RngState
from sngp.metrics import margin_uncertainty, variance_uncertainty
from sngp.train import ModelSpec, TrainConfig, TrainingDivergedError, predict_batch, train

from oracles import min_distance_to_set


def variance_of(model, x):
    return variance_uncertainty(predict_batch(model, x, mc_samples=1, rng=RngState(0)))


SMALL_SPEC = ModelSpec(hidden_width=8, depth=2, num_features=64, dropout_rate=0.0,
                         use_layer_norm=False, length_scale=2.0, sn_bound=0.9, seed=5)


def toy_data(seed=1, n=30):
    rng = RngState(seed)
    x = np.vstack([rng.normal_matrix(n, 2) * 0.3 + [-1.5, 0.0],
                   rng.normal_matrix(n, 2) * 0.3 + [1.5, 0.0]])
    y = np.array([0] * n + [1] * n)
    return x, y


class TestVariants:
    def test_sngp_toggles(self):
        model = build_variant("sngp", SMALL_SPEC)
        assert model.spec.spectral_norm
        assert model.has_gp_head

    def test_dnn_gp_toggles(self):
        model = build_variant("dnn_gp", SMALL_SPEC)
        assert not model.spec.spectral_norm
        assert model.has_gp_head

    def test_dnn_sn_toggles(self):
        model = build_variant("dnn_sn", SMALL_SPEC)
        assert model.spec.spectral_norm
        assert not model.has_gp_head

    def test_shallow_gp_is_identity_hidden(self):
        model = build_variant("shallow_gp", SMALL_SPEC)
        x = RngState(2).normal_matrix(4, 2)
        h, _ = model.hidden(x)
        assert np.array_equal(h, x)

    def test_deterministic_exposes_ds_score(self):
        from sngp.metrics import dempster_shafer
        model = build_variant("deterministic", SMALL_SPEC)
        logits = model.eval_logits(np.array([[0.1, 0.2]]))[0]
        assert 0.0 < dempster_shafer(logits) < 1.0

    def test_unknown_tag(self):
        with pytest.raises(ValueError, match="unknown variant"):
            build_variant("mc_dropout", SMALL_SPEC)


class TestEnsemble:
    def test_single_member_matches_deterministic_model(self):
        x, y = toy_data()
        cfg = TrainConfig(epochs=5, batch_size=10, learning_rate=0.05, momentum=0.9)
        spec = replace(SMALL_SPEC, seed=11)
        members, _ = train_ensemble(spec, 1, x, y, cfg)
        solo = build_variant("deterministic", spec)
        train(solo, x, y, cfg)
        pts = np.array([[0.2, -0.1], [1.2, 0.4]])
        assert np.array_equal(ensemble_predict(members, pts).probs,
                              softmax(solo.eval_logits(pts)))

    def test_identical_members_average_to_member(self):
        x, y = toy_data(seed=3)
        cfg = TrainConfig(epochs=3, batch_size=10, learning_rate=0.05)
        member = build_variant("deterministic", replace(SMALL_SPEC, seed=12))
        train(member, x, y, cfg)
        pts = np.array([[0.3, 0.3]])
        assert np.allclose(ensemble_predict([member, member, member], pts).probs, softmax(member.eval_logits(pts)))

    def test_three_member_hand_average(self):
        x, y = toy_data(seed=4)
        cfg = TrainConfig(epochs=4, batch_size=10, learning_rate=0.05)
        members, _ = train_ensemble(replace(SMALL_SPEC, seed=13), 3, x, y, cfg)
        pts = RngState(14).normal_matrix(5, 2)
        manual = sum(softmax(m.eval_logits(pts)) for m in members) / 3.0
        assert np.allclose(ensemble_predict(members, pts).probs, manual)
        assert np.allclose(ensemble_predict(members, pts).probs.sum(axis=1), 1.0)

    def test_members_use_consecutive_seeds(self):
        x, y = toy_data(seed=6)
        cfg = TrainConfig(epochs=1, batch_size=10, learning_rate=0.05)
        members, reports = train_ensemble(replace(SMALL_SPEC, seed=20), 3, x, y, cfg)
        assert [r.seed for r in reports] == [20, 21, 22]
        p0 = members[0].parameters()["net.proj.w"]
        p1 = members[1].parameters()["net.proj.w"]
        assert not np.allclose(p0, p1)

    def test_ensemble_accuracy_on_separable_toy(self):
        x, y = toy_data(seed=7)
        cfg = TrainConfig(epochs=10, batch_size=10, learning_rate=0.1, momentum=0.9)
        members, _ = train_ensemble(replace(SMALL_SPEC, seed=21), 3, x, y, cfg)
        probs = ensemble_predict(members, x).probs
        assert np.mean(np.argmax(probs, axis=1) == y) == 1.0

    def test_member_divergence_names_the_member(self):
        from sngp.train import TrainingDivergedError
        x, y = toy_data(seed=8)
        cfg = TrainConfig(epochs=2, batch_size=10, learning_rate=1e9)
        with pytest.raises(TrainingDivergedError, match="member 0"):
            train_ensemble(replace(SMALL_SPEC, seed=22), 2, x, y, cfg)


class TestDirectionalProperty:
    def test_sngp_variance_tracks_distance_better_than_ensemble_margin(self):
        ds = gen_two_moons(200, 0.1, seed=8)
        spec = ModelSpec(hidden_width=16, depth=3, num_features=256, dropout_rate=0.0,
                           use_layer_norm=False, length_scale=2.0, sn_bound=0.9, seed=9)
        cfg = TrainConfig(epochs=20, batch_size=32, learning_rate=0.05, momentum=0.9,
                          precision_exact=True)
        sngp_model = build_variant("sngp", spec)
        train(sngp_model, ds.points, ds.labels, cfg)
        members, _ = train_ensemble(spec, 3, ds.points, ds.labels, cfg)

        lo = ds.points.min(axis=0) - 1.0
        hi = ds.points.max(axis=0) + 1.0
        gx, gy = np.meshgrid(np.linspace(lo[0], hi[0], 40), np.linspace(lo[1], hi[1], 40))
        grid = np.column_stack([gx.ravel(), gy.ravel()])
        dist = min_distance_to_set(grid, ds.points)

        rho_sngp = spearmanr(variance_of(sngp_model, grid), dist).statistic
        rho_ens = spearmanr(margin_uncertainty(ensemble_predict(members, grid)),
                            dist).statistic
        assert rho_sngp > rho_ens

    def test_shallow_gp_monotone_along_rays(self):
        rng = RngState(10)
        cloud = rng.normal_matrix(100, 2)
        labels = (cloud[:, 0] > 0).astype(int)
        spec = ModelSpec(num_features=2048, use_layer_norm=True, length_scale=2.0, seed=11)
        model = build_variant("shallow_gp", spec)
        assert not model.head.use_layer_norm  # raw-input variant skips normalization
        cfg = TrainConfig(epochs=5, batch_size=25, learning_rate=0.1, momentum=0.9,
                          precision_exact=True)
        train(model, cloud, labels, cfg)
        radii = np.linspace(0.5, 5.0, 20)
        for direction in ([1.0, 0.0], [0.0, -1.0], [-0.7071, 0.7071]):
            pts = radii[:, None] * np.asarray(direction)[None, :]
            u = variance_of(model, pts)
            assert spearmanr(u, radii).statistic >= 0.99


class TestDefaultModel:
    @pytest.mark.parametrize("dataset", ["two_moons", "two_ovals"])
    @pytest.mark.parametrize("tag", [
        pytest.param(tag, marks=pytest.mark.xfail(
            strict=True, raises=TrainingDivergedError,
            reason="a default-size network with no spectral norm feeding a dense head "
                   "overflows its loss at epoch 0 step 1"))
        if tag in ("deterministic", "deep_ensemble") else tag for tag in VARIANT_TAGS])
    def test_every_variant_trains_an_epoch_at_the_default_size(self, tag, dataset):
        # Without its layer norm a default-size dnn_gp diverged at epoch 0
        # step 15 or 30 on two ovals (seeds 0 and 1).
        ds = gen_two_moons(500, 0.1, 7) if dataset == "two_moons" else gen_two_ovals(500, 7)
        config = TrainConfig(epochs=1)
        if tag == "deep_ensemble":
            train_ensemble(ModelSpec(), 2, ds.points, ds.labels, config)
        else:
            train(build_variant(tag, ModelSpec()), ds.points, ds.labels, config)

    def test_default_sngp_variance_reverts_to_the_prior_far_from_the_data(self):
        # The ratio of the logit variance to the prior ||phi||^2 / s, at 8
        # directions 10x the largest distance of a training row from the rows'
        # mean, read 0.922-0.965 over seeds 0-19 (0.28-0.54 at seeds 0-7 with
        # the scale-invariant layer norm on).
        ds = gen_two_moons(100, 0.1, 7)
        mean = ds.points.mean(axis=0)
        radius = 10.0 * np.max(np.linalg.norm(ds.points - mean, axis=1))
        angles = np.arange(8) * (np.pi / 4)
        far = mean + radius * np.column_stack([np.cos(angles), np.sin(angles)])
        ratios = {}
        for seed in range(5):
            model = build_variant("sngp", ModelSpec(hidden_width=32, depth=4, num_features=256,
                                                    seed=seed))
            assert not model.head.use_layer_norm
            train(model, ds.points, ds.labels, TrainConfig(epochs=10))
            phi = model.head.rff_features(model.hidden(far, keep_tape=False)[0])
            prior = np.sum(phi ** 2, axis=1) / model.spec.ridge_s
            ratios[seed] = float(np.min(variance_of(model, far) / prior))
        assert {seed: r for seed, r in ratios.items() if not r >= 0.8} == {}
