import re
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.stats import spearmanr

from sngp.gp_layer import PANEL, NonFiniteRowError, RffGpLayer, mc_softmax, softmax
from sngp.linalg import NotSpdError, RngState, spd_factor, spd_solve_factored

from test_linalg import spd_with_condition


def make_layer(in_dim=2, num_features=64, num_classes=2, seed=0, **kwargs):
    defaults = dict(length_scale=1.0, ridge_s=0.001, discount_m=0.999, use_layer_norm=False)
    defaults.update(kwargs)
    return RffGpLayer(in_dim, num_features, num_classes, RngState(seed), **defaults)


def peak_bytes(fn) -> int:
    """The tracemalloc peak of ``fn()`` above what was allocated before it."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


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

    def test_frozen_projection_reduces_feature_input(self):
        layer = make_layer(in_dim=16, num_features=128, projection_dim=4, seed=30)
        assert layer.input_projection.shape == (4, 16)
        assert layer.w_fixed.shape == (128, 4)
        phi = layer.rff_features(RngState(31).normal_matrix(1, 16))
        assert phi.shape == (1, 128)
        assert np.all(np.abs(phi) <= np.sqrt(2.0 / 128) + 1e-15)

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
        for kwargs in ({"use_layer_norm": True}, {"projection_dim": 3},
                       {"use_layer_norm": True, "projection_dim": 3}):
            layer = make_layer(in_dim=6, num_features=32, seed=32, **kwargs)
            h = RngState(33).normal_matrix(4, 6)
            phi_plain = layer.rff_features(h)
            phi_tape, _ = layer.features_with_tape(h)
            assert np.array_equal(phi_plain, phi_tape)


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
        for p in layer.precision:
            assert np.array_equal(p, 0.001 * np.eye(3))

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
        before = [p.copy() for p in layer.precision]
        layer.update_precision_minibatch(np.zeros((0, 4)), np.zeros((0, 2)))
        for b, p in zip(before, layer.precision):
            assert np.allclose(p, 0.9 * b)

    def test_single_sample_outer_product(self):
        layer = make_layer(num_features=3, discount_m=0.0)
        phi = np.array([[1.0, 0.0, 0.0]])
        probs = np.array([[0.5, 0.5]])
        layer.update_precision_minibatch(phi, probs)
        expected = np.zeros((3, 3))
        expected[0, 0] = 0.25
        for p in layer.precision:
            assert np.allclose(p, expected)

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
        for p in layer.precision:
            assert np.array_equal(p, 0.01 * np.eye(4))

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
        for pe, pm in zip(exact.precision, moving.precision):
            assert np.allclose(pe, pm + exact.ridge_s * np.eye(8), atol=1e-10)

    @pytest.mark.parametrize("bad", [1.5, -0.5, np.nan])
    def test_probs_outside_unit_interval_rejected_silently(self, bad):
        layer = make_layer(num_features=4)
        before = [p.copy() for p in layer.precision]
        probs = np.array([[0.5, 0.5], [bad, 1.0 - bad]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for update in (layer.update_precision_exact, layer.update_precision_minibatch):
                with pytest.raises(ValueError, match=re.escape("must lie in [0, 1]")):
                    update(np.ones((2, 4)), probs)
        for b, p in zip(before, layer.precision):
            assert np.array_equal(p, b)

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
        for p in layer.precision:
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
        weights = probs * (1.0 - probs)
        if num_classes == 2:
            weights = weights.mean(axis=1, keepdims=True)
        exact = make_layer(num_features=d, num_classes=num_classes, ridge_s=0.01)
        moving = make_layer(num_features=d, num_classes=num_classes, ridge_s=0.01,
                            discount_m=0.9)
        exact.update_precision_exact(phi, probs)
        moving.update_precision_minibatch(phi, probs)
        for k, (pe, pm) in enumerate(zip(exact.precision, moving.precision)):
            a = phi * np.sqrt(weights[:, k:k + 1])
            term = a.T @ a
            for p, dense in ((pe, 0.01 * np.eye(d) + term),
                             (pm, 0.9 * (0.01 * np.eye(d)) + 0.1 * term)):
                np.testing.assert_allclose(p, dense, rtol=1e-12,
                                           atol=1e-12 * np.abs(dense).max())
                assert np.array_equal(p, p.T)

    @pytest.mark.parametrize("num_classes", [2, 3])
    def test_reset_refills_the_same_arrays(self, num_classes):
        layer = make_layer(num_features=40, num_classes=num_classes, ridge_s=0.25)
        held = list(layer.precision)
        rng = RngState(23)
        layer.update_precision_exact(rng.normal_matrix(10, 40),
                                     softmax(rng.normal_matrix(10, num_classes)))
        layer.covariances()
        layer.reset_precision()
        assert layer._covariances is None
        assert len(layer.precision) == len(held)
        for p, q in zip(layer.precision, held):
            assert p is q
            assert np.array_equal(p, 0.25 * np.eye(40))

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
            layer.reset_precision()  # update_precision_exact adds to the precision
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
        layer.precision[0] = -np.eye(4)
        layer._covariances = None
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
        phi = layer.rff_features(rng.normal_matrix(25, 2) * 2.0)
        variances = layer.predictive_variance_batch(phi)
        assert variances.shape == (25, num_classes)
        single = layer.predictive_variance_batch(phi[3:4])[0]
        for k in range(num_classes):
            p = layer.precision[0 if num_classes == 2 else k]
            expected = np.einsum("ij,ji->i", phi, np.linalg.solve(p, phi.T))
            assert np.allclose(variances[:, k], expected, rtol=1e-10, atol=0.0)
            assert np.isclose(single[k], variances[3, k], rtol=1e-12, atol=0.0)
        assert len(layer.precision) == (1 if num_classes == 2 else num_classes)


class TestCovariance:
    """``covariances`` inverts each stored precision by one step of block
    elimination, split at D // 2; D = 1 and odd D are the split's edges."""

    @pytest.mark.parametrize("num_classes", [2, 3])
    @pytest.mark.parametrize("cond", [10.0, 1e8])
    @pytest.mark.parametrize("d", [1, 2, 3, 127, 128, 129, 1024])
    def test_matches_numpy_inverse(self, d, cond, num_classes):
        layer = make_layer(num_features=d, num_classes=num_classes)
        layer.precision = [spd_with_condition(d, cond, seed=d + j)
                           for j in range(len(layer.precision))]
        covariances = layer.covariances()
        assert len(covariances) == (1 if num_classes == 2 else 3)
        h = d // 2
        for p, cov in zip(layer.precision, covariances):
            inv = np.linalg.inv(p)
            # Both inverses are accurate to about cond * eps in norm, as the
            # solves of test_linalg are.
            rtol = 4.0 * cond * np.finfo(np.float64).eps
            assert np.linalg.norm(cov - inv) <= rtol * np.linalg.norm(inv)
            assert np.array_equal(cov[:h, h:], cov[h:, :h].T)

    def test_reads_only_the_lower_triangle(self):
        layer = make_layer(num_features=9)
        layer.precision = [spd_with_condition(9, 100.0, seed=3)]
        expected = layer.covariances()[0].copy()
        layer.precision[0][np.triu_indices(9, 1)] = np.nan
        layer._covariances = None
        assert np.array_equal(layer.covariances()[0], expected)

    @pytest.mark.parametrize("value", [np.inf, np.nan, 1e300])
    @pytest.mark.parametrize("row, col", [(1, 0), (6, 1), (7, 5)], ids=["A", "B", "C"])
    def test_bad_precision_raises_not_spd_silently(self, row, col, value):
        # Rows 4-7 and columns 0-3 of the 8 x 8 precision are its B block.
        layer = make_layer(num_features=8)
        layer.precision[0][row, col] = layer.precision[0][col, row] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NotSpdError, match="lost positive definiteness"):
                layer.covariances()

    def test_building_holds_at_most_one_and_a_half_more_matrices(self):
        # A default-size head: 128 hidden features, D = 1024, K = 2.
        layer = make_layer(in_dim=128, num_features=1024)
        rng = RngState(5)
        phi = layer.rff_features(rng.normal_matrix(200, 128))
        layer.update_precision_exact(phi, softmax(rng.normal_matrix(200, 2)))
        del phi
        tracemalloc.start()
        try:
            layer.covariances()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        matrix_bytes = 8 * 1024 * 1024
        assert peak <= (1.0 + 1.5) * matrix_bytes  # the covariance plus 1.5 D x D


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
        layer = RffGpLayer(2, 2048, 2, rng.derive("gp"), length_scale=2.0,
                           ridge_s=0.001, use_layer_norm=False)
        cloud = rng.derive("cloud").normal(200).reshape(100, 2)
        phi = layer.rff_features(cloud)
        layer.update_precision_exact(phi, softmax(layer.logits(phi)))
        radii = np.linspace(0.5, 5.0, 20)
        for direction in ([1, 0], [0, 1], [-1, 0], [0, -1], [0.7071, 0.7071]):
            pts = radii[:, None] * np.asarray(direction, dtype=float)[None, :]
            v = layer.predictive_variance_batch(layer.rff_features(pts)).mean(axis=1)
            rho = spearmanr(v, radii).statistic
            assert rho >= 0.99, f"ray {direction}: spearman {rho}"
