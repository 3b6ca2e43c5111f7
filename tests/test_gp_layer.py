import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from scipy.stats import spearmanr

import sngp.gp_layer
from sngp.gp_layer import (PANEL, NonFiniteRowError, RffGpLayer, mc_softmax, quadratic_form,
                           softmax, spd_inverse)
from sngp.linalg import NotSpdError, RngState, spd_factor, spd_solve_factored

from test_linalg import peak_bytes, spd_with_condition


def make_layer(in_dim=2, num_features=64, num_classes=2, seed=0, **kwargs):
    defaults = dict(length_scale=1.0, ridge_s=0.001, discount_m=0.999, use_layer_norm=False)
    defaults.update(kwargs)
    layer = RffGpLayer(in_dim, num_features, num_classes, **defaults)
    layer.draw(RngState(seed))
    return layer


class TestRffFeatures:
    def test_cosine_bound(self):
        layer = make_layer(num_features=128)
        phi = layer.rff_features(RngState(1).normal_matrix(1, 2))
        assert np.all(np.abs(phi) <= np.sqrt(2.0 / 128) + 1e-15)

    def test_self_kernel_near_one(self):
        layer = make_layer(num_features=4096, seed=2)
        h = RngState(3).uniform(2, -2.0, 2.0)
        phi = layer.rff_features(h[None, :])[0]
        assert abs(phi @ phi - 1.0) <= 0.05

    def test_rbf_kernel_oracle(self):
        layer = make_layer(num_features=4096, seed=4, length_scale=1.0)
        rng = RngState(5)
        xs = rng.uniform(200, -2.0, 2.0).reshape(100, 2)
        ys = rng.uniform(200, -2.0, 2.0).reshape(100, 2)
        approx = np.einsum("ij,ij->i", layer.rff_features(xs), layer.rff_features(ys))
        exact = np.exp(-np.sum((xs - ys) ** 2, axis=1) / 2.0)
        assert np.all(np.abs(approx - exact) <= 0.05)

    def test_kernel_error_shrinks_with_more_features(self):
        rng = RngState(6)
        xs = rng.uniform(200, -2.0, 2.0).reshape(100, 2)
        ys = rng.uniform(200, -2.0, 2.0).reshape(100, 2)
        exact = np.exp(-np.sum((xs - ys) ** 2, axis=1) / 2.0)
        errors = {}
        for d in (1024, 4096):
            layer = make_layer(num_features=d, seed=7)
            approx = np.einsum("ij,ij->i", layer.rff_features(xs), layer.rff_features(ys))
            errors[d] = np.abs(approx - exact)
        # Monte Carlo rate O(1/sqrt(D)): quadrupling D should halve the mean
        # error, and per-pair errors stay within twice the coarse bound.
        assert errors[4096].mean() < errors[1024].mean()
        bound_1024 = 0.05 * np.sqrt(4096 / 1024)
        assert np.mean(errors[4096] > 2.0 * bound_1024) < 0.05

    def test_length_scale_two_matches_rescaled_kernel(self):
        layer = make_layer(num_features=4096, seed=8, length_scale=2.0)
        rng = RngState(9)
        xs = rng.uniform(100, -2.0, 2.0).reshape(50, 2)
        ys = rng.uniform(100, -2.0, 2.0).reshape(50, 2)
        approx = np.einsum("ij,ij->i", layer.rff_features(xs), layer.rff_features(ys))
        exact = np.exp(-np.sum((xs - ys) ** 2, axis=1) / (2.0 * 4.0))
        assert np.all(np.abs(approx - exact) <= 0.05)

    def test_frozen_fields_are_stable(self):
        layer = make_layer(seed=10)
        w, b = layer.w_fixed.copy(), layer.b_fixed.copy()
        layer.rff_features(RngState(11).normal_matrix(1, 2))
        layer.update_precision_minibatch(np.zeros((0, 64)), np.zeros((0, 2)))
        assert np.array_equal(layer.w_fixed, w)
        assert np.array_equal(layer.b_fixed, b)

    def test_dimension_mismatch(self):
        # Only a (batch, in_dim) matrix passes, not even one row of the right width.
        layer = make_layer()
        for shape in [(2,), (3,), (1, 3)]:
            with pytest.raises(ValueError, match=re.escape(f"(batch, 2), got {shape}")):
                layer.rff_features(np.zeros(shape))

    def test_layer_norm_scale_invariance(self):
        # invariance holds up to the normalization epsilon
        layer = make_layer(in_dim=8, use_layer_norm=True)
        h = RngState(12).normal_matrix(1, 8)
        assert np.allclose(layer.rff_features(h), layer.rff_features(3.0 * h), atol=1e-4)

    @pytest.mark.parametrize("use_layer_norm", [True, False])
    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_hidden_row_is_named(self, use_layer_norm, bad):
        layer = make_layer(in_dim=4, use_layer_norm=use_layer_norm)
        h = RngState(34).normal_matrix(5, 4)
        h[2, 1] = bad
        h[4, 0] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteRowError, match="^row 2: hidden features are not finite"):
                layer.features_with_tape(h)

    @pytest.mark.parametrize("magnitude", [1e155, 1e300, 1.7e308])
    def test_layer_norm_overflow_is_named(self, magnitude):
        layer = make_layer(in_dim=4, use_layer_norm=True)
        h = RngState(35).normal_matrix(3, 4)
        h[1] = [magnitude, -magnitude, 0.0, 1.0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteRowError, match="^row 1: layer-norm variance") as info:
                layer.features_with_tape(h)
        assert info.value.row == 1
        assert isinstance(info.value, ValueError)

    def test_large_finite_rows_without_layer_norm_pass(self):
        layer = make_layer(in_dim=4, use_layer_norm=False)
        phi = layer.rff_features(np.full((2, 4), 1e155))
        assert np.all(np.isfinite(phi))

    def test_feature_tape_matches_plain_features(self):
        for use_layer_norm in (True, False):
            layer = make_layer(in_dim=6, num_features=32, seed=32, use_layer_norm=use_layer_norm)
            h = RngState(33).normal_matrix(4, 6)
            phi_plain = layer.rff_features(h)
            phi_tape, _ = layer.features_with_tape(h)
            assert np.array_equal(phi_plain, phi_tape)

    def test_features_and_tape_sine_match_libm_from_1_to_1e12(self):
        # Hidden rows scaled from 1 to 1e12 put |z| over the same range; the
        # oracle computes z itself, with the layer's products, and calls libm.
        layer = make_layer(num_features=1024, seed=36)
        directions = RngState(37).normal_matrix(8, 2)
        h = np.concatenate([directions * s for s in np.logspace(0, 12, 25)])
        phi, tape = layer.features_with_tape(h)
        z = (h @ layer.w_fixed.T) * -(1.0 / layer.length_scale) + layer.b_fixed
        assert np.abs(z).max() > 1e12
        scale = np.sqrt(2.0 / 1024)
        assert np.abs(phi / scale - np.cos(z)).max() <= 5e-16
        assert np.abs(tape["sin_z"] - np.sin(z)).max() <= 5e-16

    @settings(max_examples=200, deadline=None)
    @given(h=arrays(np.float64, st.tuples(st.integers(1, 4), st.just(4)),
                    elements=st.floats(-1e300, 1e300)),
           use_layer_norm=st.booleans())
    def test_finite_rows_never_exceed_the_cosine_bound(self, h, use_layer_norm):
        # r - 1 lies in [-1, 1] by construction, so the bound holds exactly.
        layer = make_layer(in_dim=4, num_features=128, use_layer_norm=use_layer_norm)
        try:
            phi = layer.rff_features(h)
        except NonFiniteRowError:  # a layer-norm variance that overflows
            assert use_layer_norm
            return
        assert np.all(np.abs(phi) <= np.sqrt(2.0 / 128))


class TestLogits:
    def test_zero_beta(self):
        layer = make_layer()
        phi = layer.rff_features(np.array([[0.1, 0.2]]))[0]
        assert np.array_equal(layer.logits(phi), np.zeros(2))

    def test_coordinate_pick(self):
        layer = make_layer(num_classes=2)
        layer.beta[0, 0] = 1.0
        phi = layer.rff_features(np.array([[0.3, -0.1]]))[0]
        assert layer.logits(phi)[0] == phi[0]

    def test_matches_matvec(self):
        layer = make_layer(seed=13)
        layer.beta[:] = RngState(14).normal_matrix(2, 64)
        phi = layer.rff_features(np.array([[0.5, 0.5]]))[0]
        assert np.allclose(layer.logits(phi), layer.beta @ phi)


class TestPrecision:
    def test_reset_is_ridge_times_identity(self):
        layer = make_layer(num_features=3, ridge_s=0.001)
        layer.reset_precision()
        assert np.array_equal(layer.precision[0], 0.001 * np.eye(3))

    def test_reset_is_spd(self):
        layer = make_layer()
        layer.reset_precision()
        spd_solve_factored(spd_factor(layer.precision[0]), np.ones(64))

    def test_variance_after_reset(self):
        layer = make_layer(ridge_s=0.001)
        phi = layer.rff_features(np.array([[1.0, -1.0]]))
        v = layer.predictive_variance_batch(phi)[0, 0]
        assert np.isclose(v, float(phi[0] @ phi[0]) / 0.001)

    def test_empty_batch_scales_by_discount(self):
        layer = make_layer(num_features=4, discount_m=0.9)
        before = layer.precision[0].copy()
        layer.update_precision_minibatch(np.zeros((0, 4)), np.zeros((0, 2)))
        assert np.allclose(layer.precision[0], 0.9 * before)

    def test_single_sample_outer_product(self):
        layer = make_layer(num_features=3, discount_m=0.0)
        phi = np.array([[1.0, 0.0, 0.0]])
        probs = np.array([[0.5, 0.5]])
        layer.update_precision_minibatch(phi, probs)
        expected = np.zeros((3, 3))
        expected[0, 0] = 0.25
        assert np.allclose(layer.precision[0], expected)

    def test_repeated_batch_converges_to_fisher_geometric_series(self):
        layer = make_layer(num_features=8, discount_m=0.9, seed=15)
        rng = RngState(16)
        phi = rng.normal_matrix(20, 8) * 0.2
        probs = softmax(rng.normal_matrix(20, 2))
        weights = probs * (1.0 - probs)
        fisher = (phi * weights[:, 0:1]).T @ phi
        t = 400
        start = layer.precision[0].copy()
        for _ in range(t):
            layer.update_precision_minibatch(phi, probs)
        # closed form: m^t * start + (1 - m^t) * fisher
        m = 0.9
        expected = m**t * start + (1.0 - m**t) * fisher
        assert np.allclose(layer.precision[0], expected, atol=1e-8)
        assert np.allclose(layer.precision[0], fisher, atol=1e-8)

    def test_exact_empty_is_reset(self):
        layer = make_layer(num_features=4, ridge_s=0.01)
        layer.update_precision_exact(np.zeros((0, 4)), np.zeros((0, 2)))
        assert np.array_equal(layer.precision[0], 0.01 * np.eye(4))

    def test_exact_equals_minibatch_with_zero_discount_plus_ridge(self):
        rng = RngState(17)
        phi = rng.normal_matrix(30, 8) * 0.3
        probs = softmax(rng.normal_matrix(30, 2))
        exact = make_layer(num_features=8, seed=18)
        exact.update_precision_exact(phi, probs)
        moving = make_layer(num_features=8, seed=18, discount_m=0.0)
        moving.reset_precision()
        moving.update_precision_minibatch(phi, probs)
        # zero discount annihilates the ridge reset, leaving the bare Fisher term
        assert np.allclose(exact.precision[0], moving.precision[0] + exact.ridge_s * np.eye(8),
                           atol=1e-10)

    @pytest.mark.parametrize("bad", [1.5, -0.5, np.nan])
    def test_probs_outside_unit_interval_rejected_silently(self, bad):
        layer = make_layer(num_features=4)
        before = layer.precision[0].copy()
        probs = np.array([[0.5, 0.5], [bad, 1.0 - bad]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for update in (layer.update_precision_exact, layer.update_precision_minibatch):
                with pytest.raises(ValueError, match=re.escape("must lie in [0, 1]")):
                    update(np.ones((2, 4)), probs)
        assert np.array_equal(layer.precision[0], before)

    def test_exact_two_samples_hand_accumulated(self):
        layer = make_layer(num_features=2, ridge_s=0.5)
        phi = np.array([[1.0, 0.0], [1.0, 1.0]])
        probs = np.array([[0.5, 0.5], [0.8, 0.2]])
        layer.update_precision_exact(phi, probs)
        w0 = 0.25 * np.outer(phi[0], phi[0]) + 0.16 * np.outer(phi[1], phi[1])
        # p(1-p) is the same for both classes when K = 2, so one precision serves both
        assert len(layer.precision) == 1
        assert np.allclose(layer.precision[0], 0.5 * np.eye(2) + w0)

    def test_symmetry_and_spd_preserved(self):
        layer = make_layer(num_features=16, seed=19)
        rng = RngState(20)
        for _ in range(20):
            m = int(rng.uniform(1, 1.0, 9.0)[0])
            phi = rng.normal_matrix(m, 16)
            probs = softmax(rng.normal_matrix(m, 2))
            layer.update_precision_minibatch(phi, probs)
        p = layer.precision[0]
        assert np.max(np.abs(p - p.T)) <= 1e-12
        assert np.array_equal(p, p.T)
        spd_solve_factored(spd_factor(p), np.ones(16))

    @pytest.mark.parametrize("num_classes", [2, 3])
    @pytest.mark.parametrize("rows", [0, 1, 32, 256])
    def test_panelled_terms_match_the_dense_term(self, rows, num_classes):
        # D = 300 is not a multiple of the panel width, so the last slab is narrow.
        d = 300
        assert d % PANEL != 0
        rng = RngState(22)
        phi = rng.normal_matrix(256, d)[:rows] * 0.05
        probs = softmax(rng.normal_matrix(256, num_classes)[:rows])
        weights = (probs * (1.0 - probs)).mean(axis=1, keepdims=True)
        exact = make_layer(num_features=d, num_classes=num_classes, ridge_s=0.01)
        moving = make_layer(num_features=d, num_classes=num_classes, ridge_s=0.01,
                            discount_m=0.9)
        exact.update_precision_exact(phi, probs)
        moving.update_precision_minibatch(phi, probs)
        a = phi * np.sqrt(weights)
        term = a.T @ a
        for p, dense in ((exact.precision[0], 0.01 * np.eye(d) + term),
                         (moving.precision[0], 0.9 * (0.01 * np.eye(d)) + 0.1 * term)):
            np.testing.assert_allclose(p, dense, rtol=1e-12, atol=1e-12 * np.abs(dense).max())
            assert np.array_equal(p, p.T)

    @pytest.mark.parametrize("num_classes", [2, 3])
    def test_reset_refills_the_same_arrays(self, num_classes):
        layer = make_layer(num_features=40, num_classes=num_classes, ridge_s=0.25)
        held = layer.precision[0]
        rng = RngState(23)
        layer.update_precision_exact(rng.normal_matrix(10, 40),
                                     softmax(rng.normal_matrix(10, num_classes)))
        layer.reset_precision()
        assert layer.precision[0] is held
        assert np.array_equal(held, 0.25 * np.eye(40))

    def test_default_size_reset_and_updates_hold_no_d_by_d_temporary(self):
        # D = 1024: a D x D matrix is 8 MB, a (D, PANEL) slab 2 MB.
        layer = make_layer(in_dim=128, num_features=1024)
        rng = RngState(24)
        phi = layer.rff_features(rng.normal_matrix(256, 128))
        probs = softmax(rng.normal_matrix(256, 2))
        assert peak_bytes(lambda: layer.update_precision_minibatch(phi[:32], probs[:32])) \
            < 5 * 2**20
        assert peak_bytes(lambda: layer.update_precision_exact(phi, probs)) < 5 * 2**20
        assert peak_bytes(layer.reset_precision) < 2**20

    def test_variance_shrinks_with_aligned_data(self):
        # Sherman-Morrison: absorbing data along phi must shrink phi's variance
        layer = make_layer(num_features=8, seed=21)
        phi = layer.rff_features(np.array([[0.4, -0.2]]))
        v_prev = layer.predictive_variance_batch(phi)[0, 0]
        probs = np.array([[0.5, 0.5]])
        for step in range(5):
            # A fresh layer of the same draw: predicting inverted the last one's precision.
            layer = make_layer(num_features=8, seed=21)
            layer.update_precision_exact(np.tile(phi, (10 * (step + 1), 1)),
                                         np.tile(probs, (10 * (step + 1), 1)))
            v = layer.predictive_variance_batch(phi)[0, 0]
            assert v < v_prev
            # Sherman-Morrison closed form for rank-one updates of s I
            n = 10 * (step + 1)
            s = layer.ridge_s
            norm2 = float(phi[0] @ phi[0])
            expected = norm2 / s - (n * 0.25 * norm2**2 / s**2) / (1 + n * 0.25 * norm2 / s)
            assert np.isclose(v, expected, rtol=1e-8)
            v_prev = v

    def test_variance_nonnegative_and_requires_spd(self):
        layer = make_layer(num_features=4)
        phi = np.ones((1, 4))
        assert layer.predictive_variance_batch(phi)[0, 1] >= 0.0
        layer = make_layer(num_features=4)
        layer.precision[0][:] = -np.eye(4)
        with pytest.raises(NotSpdError):
            layer.predictive_variance_batch(phi)

    def test_binary_layer_keeps_one_precision_equal_to_per_class(self):
        rng = RngState(40)
        phi = rng.normal_matrix(50, 16) * 0.3
        probs = softmax(rng.normal_matrix(50, 2))
        layer = make_layer(num_features=16, seed=41, discount_m=0.9)
        assert len(layer.precision) == 1
        for _ in range(3):
            layer.update_precision_minibatch(phi, probs)
        w0 = probs[:, 0] * (1.0 - probs[:, 0])
        t = (phi * w0[:, None]).T @ phi
        per_class = layer.ridge_s * np.eye(16)
        for _ in range(3):
            per_class = 0.9 * per_class + 0.1 * (0.5 * (t + t.T))
        assert np.allclose(layer.precision[0], per_class, rtol=0.0, atol=1e-15)

    @pytest.mark.parametrize("num_classes", [2, 3])
    def test_batch_variance_matches_dense_solve(self, num_classes):
        rng = RngState(42)
        layer = make_layer(num_features=32, num_classes=num_classes, seed=43)
        fit = layer.rff_features(rng.normal_matrix(60, 2))
        layer.update_precision_exact(fit, softmax(rng.normal_matrix(60, num_classes)))
        precision = layer.precision[0].copy()  # predicting inverts it in place
        phi = layer.rff_features(rng.normal_matrix(25, 2) * 2.0)
        variances = layer.predictive_variance_batch(phi)
        assert variances.shape == (25, num_classes)
        single = layer.predictive_variance_batch(phi[3:4])[0]
        expected = np.einsum("ij,ji->i", phi, np.linalg.solve(precision, phi.T))
        for k in range(num_classes):
            assert np.allclose(variances[:, k], expected, rtol=1e-10, atol=0.0)
            assert np.isclose(single[k], variances[3, k], rtol=1e-12, atol=0.0)


class TestCovariance:
    """``covariance`` inverts the precision in place by one step of block
    elimination, split at D // 2; D = 1 and odd D are the split's edges."""

    @pytest.mark.parametrize("num_classes", [2, 3])
    @pytest.mark.parametrize("cond", [10.0, 1e8])
    @pytest.mark.parametrize("d", [1, 2, 3, 127, 128, 129, 1024])
    def test_matches_numpy_inverse(self, d, cond, num_classes):
        layer = make_layer(num_features=d, num_classes=num_classes)
        layer.precision[0][:] = spd_with_condition(d, cond, seed=d)
        inv = np.linalg.inv(layer.precision[0])  # taken before the inversion
        cov = layer.covariance()
        assert cov.shape == (d, d)
        h = d // 2
        # Both inverses are accurate to about cond * eps in norm, as the
        # solves of test_linalg are.
        rtol = 4.0 * cond * np.finfo(np.float64).eps
        assert np.linalg.norm(cov - inv) <= rtol * np.linalg.norm(inv)
        assert np.array_equal(cov[:h, h:], cov[h:, :h].T)

    def test_reads_only_the_lower_triangle(self):
        full, lower = make_layer(num_features=9), make_layer(num_features=9)
        full.precision[0][:] = lower.precision[0][:] = spd_with_condition(9, 100.0, seed=3)
        lower.precision[0][np.triu_indices(9, 1)] = np.nan
        assert np.array_equal(lower.covariance(), full.covariance())

    @pytest.mark.parametrize("value", [np.inf, np.nan, 1e300])
    @pytest.mark.parametrize("row, col", [(1, 0), (6, 1), (7, 5)], ids=["A", "B", "C"])
    def test_bad_precision_raises_not_spd_silently(self, row, col, value):
        # Rows 4-7 and columns 0-3 of the 8 x 8 precision are its B block.
        layer = make_layer(num_features=8)
        layer.precision[0][row, col] = layer.precision[0][col, row] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NotSpdError, match="lost positive definiteness"):
                layer.covariance()

    def test_building_holds_at_most_two_half_blocks_beside_the_precision(self):
        # A default-size head: 128 hidden features, D = 1024, K = 2.  The
        # factors and products live in the precision's unread upper block, so
        # only X = A^{-1} B^T and the solve's inner product are allocated.
        layer = make_layer(in_dim=128, num_features=1024)
        rng = RngState(5)
        phi = layer.rff_features(rng.normal_matrix(200, 128))
        layer.update_precision_exact(phi, softmax(rng.normal_matrix(200, 2)))
        del phi
        block_bytes = 8 * 512 * 512
        assert peak_bytes(layer.covariance) <= 2 * block_bytes + 2**16

    def test_a_three_class_head_holds_one_matrix_and_inverts_it_once(self, monkeypatch):
        # D = 512: the precision is 2 MiB, the frozen frontend and beta 24 KiB.
        d = 512
        rng = RngState(8)
        tracemalloc.start()
        try:
            layer = make_layer(num_features=d, num_classes=3)
            layer.update_precision_exact(layer.rff_features(rng.normal_matrix(64, 2)),
                                         softmax(rng.normal_matrix(64, 3)))
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert 8 * d * d <= held < 2 * 8 * d * d
        inverted = []
        inverse = sngp.gp_layer.spd_inverse
        monkeypatch.setattr(sngp.gp_layer, "spd_inverse",
                            lambda p: inverted.append(p.shape) or inverse(p))
        phi = layer.rff_features(rng.normal_matrix(10, 2))
        for _ in range(2):
            assert layer.predictive_variance_batch(phi).shape == (10, 3)
        assert inverted == [(d, d)]


def fitted_layer(num_classes=2, num_features=64, in_dim=2):
    """A head whose precision holds a Fisher term; equal calls build equal heads."""
    layer = make_layer(in_dim=in_dim, num_features=num_features, num_classes=num_classes)
    rng = RngState(0)
    phi = layer.rff_features(rng.normal_matrix(200, in_dim))
    layer.update_precision_exact(phi, softmax(rng.normal_matrix(200, num_classes)))
    return layer


class TestReleasedPrecision:
    """The first ``covariance`` call releases the precision: it is inverted in
    place, so the head still predicts, but holds nothing it could train or
    save."""

    @pytest.mark.parametrize("num_classes", [2, 3])
    def test_released_variances_equal_the_copied_inverse(self, num_classes):
        layer = fitted_layer(num_classes)
        phi = layer.rff_features(RngState(9).normal_matrix(50, 2) * 2.0)
        held = layer.precision[0]
        copied = spd_inverse(held.copy())
        variances = layer.predictive_variance_batch(phi)
        assert layer.covariance() is held
        assert np.array_equal(layer.covariance(), copied)
        expected = np.maximum(quadratic_form(copied, phi), 0.0)
        for k in range(num_classes):
            assert np.array_equal(variances[:, k], expected)

    def test_second_call_returns_the_same_covariances(self):
        layer = fitted_layer()
        first = layer.covariance()
        expected = first.copy()
        assert layer.covariance() is first
        assert np.array_equal(first, expected)  # not inverted back

    @pytest.mark.parametrize("action", ["update_exact", "update_minibatch", "reset"])
    def test_released_head_cannot_train(self, action):
        layer = fitted_layer()
        expected = layer.covariance().copy()
        phi = layer.rff_features(RngState(2).normal_matrix(8, 2))
        probs = softmax(RngState(3).normal_matrix(8, 2))
        calls = {"update_exact": lambda: layer.update_precision_exact(phi, probs),
                 "update_minibatch": lambda: layer.update_precision_minibatch(phi, probs),
                 "reset": layer.reset_precision}
        with pytest.raises(ValueError, match="holds only its posterior covariance"):
            calls[action]()
        assert np.array_equal(layer.covariance(), expected)

    def test_failed_release_leaves_no_precision(self):
        layer = make_layer(num_features=8)
        layer.precision[0][6, 1] = layer.precision[0][1, 6] = np.inf
        with pytest.raises(NotSpdError, match="lost positive definiteness"):
            layer.covariance()
        for read in (layer.covariance, lambda: layer.precision):
            with pytest.raises(ValueError, match="holds only its posterior covariance"):
                read()

    def test_release_holds_no_dd_temporary(self):
        layer = fitted_layer(num_features=1024, in_dim=128)
        assert peak_bytes(layer.covariance) < 8 * 1024 * 1024


class TestQuadraticForm:
    """``quadratic_form`` reads only the lower block triangle of the
    covariance, one slab of ``PANEL`` columns at a time; D = 1 and the
    sizes around one and two slabs are its edges."""

    @pytest.mark.parametrize("num_classes", [2, 3])
    @pytest.mark.parametrize("d", [1, 2, 255, 256, 257, 300, 1024])
    def test_variance_matches_the_full_product(self, d, num_classes):
        rng = RngState(d)
        layer = make_layer(num_features=d, num_classes=num_classes, seed=d)
        fit = layer.rff_features(rng.normal_matrix(300, 2))
        layer.update_precision_exact(fit, softmax(rng.normal_matrix(300, num_classes)))
        # Rows on the training data and far from it.
        phi = layer.rff_features(rng.normal_matrix(40, 2) * np.linspace(0.5, 4.0, 40)[:, None])
        variances = layer.predictive_variance_batch(phi)
        cov = layer.covariance()
        expected = np.einsum("ij,ij->i", phi @ cov, phi)
        # On the data the variance is a small difference of terms near the
        # prior ||phi||^2 / s, so both sums round relative to the terms'
        # magnitudes, |phi|^T |cov| |phi|; measured at most 4e-16.
        scale = np.einsum("ij,ij->i", np.abs(phi) @ np.abs(cov), np.abs(phi))
        for k in range(num_classes):
            assert np.all(np.abs(variances[:, k] - expected) <= 1e-13 * scale)

    def test_a_block_holds_one_more_block_and_one_slab(self):
        # A default-size block: 256 rows of D = 1024 features, 2 MB.
        cov = spd_with_condition(1024, 100.0, seed=6)
        phi = RngState(7).normal_matrix(256, 1024)
        peak = peak_bytes(lambda: quadratic_form(cov, phi))
        assert peak <= phi.nbytes + 8 * 256 * PANEL + 2**16


class TestSoftmax:
    def test_in_place_gives_the_same_bits(self):
        logits = RngState(29).normal_matrix(50, 3) * 30.0
        expected = softmax(logits)
        assert softmax(logits, out=logits) is logits
        assert np.array_equal(logits, expected)

    def test_spread_past_the_float_range_is_exact_without_a_warning(self):
        # max - min overflows to -inf, whose exp is exactly 0.
        logits = np.array([[9e307, -9e307], [-1.7e308, 1.7e308]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.array_equal(softmax(logits), [[1.0, 0.0], [0.0, 1.0]])


class TestMcSoftmax:
    def test_zero_variance_is_plain_softmax(self):
        mean = np.array([0.2, -1.0, 0.5])
        out = mc_softmax(mean, np.zeros(3), 17, RngState(24))
        assert np.array_equal(out, softmax(mean))

    def test_symmetric_case_near_uniform(self):
        out = mc_softmax(np.zeros(2), np.ones(2), 10_000, RngState(25))
        assert np.all(np.abs(out - 0.5) <= 0.02)

    def test_sums_to_one(self):
        rng = RngState(26)
        for _ in range(10):
            mean = rng.normal(4)
            var = rng.uniform(4, 0.0, 3.0)
            out = mc_softmax(mean, var, 7, rng)
            assert abs(out.sum() - 1.0) <= 1e-12

    def test_deterministic_with_fixed_seed(self):
        mean, var = np.array([0.1, 0.9]), np.array([0.5, 0.2])
        a = mc_softmax(mean, var, 32, RngState(27))
        b = mc_softmax(mean, var, 32, RngState(27))
        assert np.array_equal(a, b)

    def test_batch_rows_use_consecutive_draws(self):
        mean = np.array([[0.1, 0.9, -0.3], [1.0, 0.0, 0.5]])
        var = np.array([[0.5, 0.2, 1.0], [0.0, 0.3, 0.1]])
        out = mc_softmax(mean, var, 6, RngState(28))
        eps = RngState(28).normal(6 * mean.size).reshape(6, 2, 3)
        assert out.shape == (2, 3)
        assert np.array_equal(out, softmax(mean + np.sqrt(var) * eps).mean(axis=0))
        single = mc_softmax(mean[0], var[0], 6, RngState(28))
        assert np.array_equal(single, mc_softmax(mean[:1], var[:1], 6, RngState(28))[0])

    def test_preconditions(self):
        with pytest.raises(ValueError):
            mc_softmax(np.zeros(2), np.zeros(2), 0, RngState(0))
        with pytest.raises(ValueError):
            mc_softmax(np.zeros(2), np.array([-1.0, 0.0]), 1, RngState(0))


class TestDistanceAwareness:
    def test_variance_monotone_along_rays(self):
        rng = RngState(21)
        layer = RffGpLayer(2, 2048, 2, length_scale=2.0, ridge_s=0.001, discount_m=0.999,
                           use_layer_norm=False)
        layer.draw(rng.derive("gp"))
        cloud = rng.derive("cloud").normal(200).reshape(100, 2)
        phi = layer.rff_features(cloud)
        layer.update_precision_exact(phi, softmax(layer.logits(phi)))
        radii = np.linspace(0.5, 5.0, 20)
        for direction in ([1, 0], [0, 1], [-1, 0], [0, -1], [0.7071, 0.7071]):
            pts = radii[:, None] * np.asarray(direction, dtype=float)[None, :]
            v = layer.predictive_variance_batch(layer.rff_features(pts)).mean(axis=1)
            rho = spearmanr(v, radii).statistic
            assert rho >= 0.99, f"ray {direction}: spearman {rho}"
