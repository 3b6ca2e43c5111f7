import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sngp.linalg import RngState
from sngp.theory import (GridTooLargeError, ScoringRule, SimplexGrid, bregman_score, brier_rule,
                         log_rule, max_entropy_oracle, minimax_oracle)

from oracles import (bregman_entropy, l1_ece_bound_check, minimax_value, mixture_predictive,
                     pointwise_score, sample_labels)


def random_simplex(rng, k):
    p = rng.uniform(k, 0.02, 1.0)
    return p / p.sum()


class TestScoringRules:
    def test_generators_strictly_concave(self):
        brier_rule(2).check_concavity()
        brier_rule(5).check_concavity()
        log_rule().check_concavity()

    def test_convex_generator_rejected(self):
        bad = ScoringRule(name="bad", psi=lambda t: t**2, psi_prime=lambda t: 2 * t)
        with pytest.raises(ValueError, match="concave"):
            bad.check_concavity()

    def test_score_at_truth_is_entropy(self):
        p = np.array([0.3, 0.7])
        rule = brier_rule(2)
        assert bregman_score(p, p, rule) == pytest.approx(bregman_entropy(p, rule))

    def test_uniform_brier_entropy_half(self):
        rule = brier_rule(2)
        assert bregman_entropy(np.array([0.5, 0.5]), rule) == pytest.approx(0.5)

    def test_one_hot_brier_entropy_zero(self):
        rule = brier_rule(2)
        assert bregman_entropy(np.array([1.0, 0.0]), rule) == pytest.approx(0.0)

    def test_uniform_brier_entropy_general_k(self):
        for k in (2, 3, 4, 7):
            rule = brier_rule(k)
            assert bregman_entropy(np.full(k, 1.0 / k), rule) == pytest.approx((k - 1) / k)

    def test_log_entropy_is_shannon(self):
        rule = log_rule()
        assert bregman_entropy(np.full(4, 0.25), rule) == pytest.approx(np.log(4.0))

    def test_brier_pointwise_is_quadratic_score(self):
        rule = brier_rule(3)
        q = np.array([0.2, 0.5, 0.3])
        for y in range(3):
            onehot = np.eye(3)[y]
            assert pointwise_score(y, q, rule) == pytest.approx(np.sum((q - onehot) ** 2))

    def test_log_pointwise_is_log_loss(self):
        q = np.array([0.2, 0.5, 0.3])
        assert pointwise_score(1, q, log_rule()) == pytest.approx(-np.log(0.5))

    def test_expected_score_decomposition_matches_monte_carlo(self):
        rng = RngState(50)
        rule = brier_rule(3)
        p = random_simplex(rng, 3)
        p_star = random_simplex(rng, 3)
        labels = sample_labels(np.tile(p_star, (1_000_000, 1)), rng.derive("mc"))
        mc = np.mean([pointwise_score(int(y), p, rule) for y in labels[:200_000]])
        # expectations also verified exactly below; MC tolerance per sample count
        exact = bregman_score(p, p_star, rule)
        assert abs(mc - exact) <= 1e-2
        exact_sum = sum(p_star[y] * pointwise_score(y, p, rule) for y in range(3))
        assert exact == pytest.approx(exact_sum)

    def test_strict_propriety_margin(self):
        rng = RngState(51)
        for rule in (brier_rule(3), log_rule()):
            for _ in range(100):
                p = random_simplex(rng, 3)
                q = random_simplex(rng, 3)
                if np.allclose(p, q):
                    continue
                margin = bregman_score(q, p, rule) - bregman_score(p, p, rule)
                assert margin > 0.0

    def test_off_simplex_rejected(self):
        with pytest.raises(ValueError):
            bregman_score(np.array([0.7, 0.7]), np.array([0.5, 0.5]), brier_rule(2))


class TestSimplexGrid:
    def test_exact_sums(self):
        grid = SimplexGrid(3, 0.05)
        assert np.all(grid.counts.sum(axis=1) == grid.denominator)

    def test_contains_uniform_when_divisible(self):
        grid = SimplexGrid(4, 0.05)  # denominator 20 divisible by 4
        pts = grid.points()
        assert any(np.allclose(p, 0.25) for p in pts)

    def test_count_formula(self):
        # compositions of n into K parts: C(n + K - 1, K - 1)
        grid = SimplexGrid(3, 0.1)
        assert len(grid) == (12 * 11) // 2  # C(12, 2)

    def test_bad_step(self):
        with pytest.raises(ValueError):
            SimplexGrid(2, 0.03)


class TestMinimaxOracles:
    def test_brier_k2(self):
        assert np.allclose(minimax_oracle(2, 0.05, brier_rule(2)), [0.5, 0.5])

    def test_log_k3_within_one_step(self):
        point = minimax_oracle(3, 0.05, log_rule())
        assert np.all(np.abs(point - 1.0 / 3.0) <= 0.05)

    def test_trivial_three_point_grid(self):
        assert np.allclose(minimax_oracle(2, 0.5, brier_rule(2)), [0.5, 0.5])

    def test_max_entropy_uniform(self):
        assert np.allclose(max_entropy_oracle(2, 0.01, brier_rule(2)), [0.5, 0.5])
        point = max_entropy_oracle(4, 0.05, log_rule())
        assert np.all(np.abs(point - 0.25) <= 0.05)

    def test_oracles_agree_on_all_tested_games(self):
        for k in (2, 3):
            for rule in (brier_rule(k), log_rule()):
                mm = minimax_oracle(k, 0.05, rule)
                me = max_entropy_oracle(k, 0.05, rule)
                assert np.all(np.abs(mm - me) <= 0.05 + 1e-12)

    def test_saddle_value_when_uniform_on_grid(self):
        # sup-inf equals inf-sup at the uniform equalizer point
        for k, rule in ((2, brier_rule(2)), (4, brier_rule(4)), (2, log_rule())):
            value = minimax_value(k, 0.05, rule)
            entropy = bregman_entropy(np.full(k, 1.0 / k), rule)
            assert value == pytest.approx(entropy, abs=1e-12)

    def test_entropy_uniform_beats_one_hot(self):
        rule = brier_rule(3)
        uniform = bregman_entropy(np.full(3, 1 / 3), rule)
        onehot = bregman_entropy(np.array([1.0, 0.0, 0.0]), rule)
        assert uniform > onehot

    def test_grid_too_large_refused(self):
        with pytest.raises(GridTooLargeError, match="pairs"):
            minimax_oracle(4, 0.02, brier_rule(4))


class TestMixture:
    def test_full_trust(self):
        p = np.array([0.9, 0.1])
        assert np.array_equal(mixture_predictive(p, 1.0, 2), p)

    def test_no_trust_is_uniform(self):
        p = np.array([0.9, 0.1])
        assert np.allclose(mixture_predictive(p, 0.0, 2), [0.5, 0.5])

    def test_half_mixture_hand_case(self):
        out = mixture_predictive(np.array([1.0, 0.0]), 0.5, 2)
        assert np.allclose(out, [0.75, 0.25])

    @given(st.floats(0.0, 1.0), st.integers(2, 6))
    @settings(max_examples=100, deadline=None)
    def test_simplex_preserved(self, p_domain, k):
        rng = RngState(52)
        p = random_simplex(rng, k)
        out = mixture_predictive(p, p_domain, k)
        assert abs(out.sum() - 1.0) <= 1e-12
        assert np.all(out >= 0.0)


class TestL1EceBound:
    def test_identical_distributions(self):
        rng = RngState(53)
        n = 100_000
        p = rng.uniform(n, 0.1, 0.9)
        probs = np.column_stack([p, 1.0 - p])
        emp_ece, emp_l1, holds = l1_ece_bound_check(probs, probs, n, rng.derive("draws"))
        assert emp_l1 == 0.0
        assert emp_ece <= 3.0 / np.sqrt(n)
        assert holds

    def test_constructed_overconfidence(self):
        rng = RngState(54)
        n = 100_000
        true_top = rng.uniform(n, 0.55, 0.75)
        truth = np.column_stack([true_top, 1.0 - true_top])
        model_top = np.minimum(true_top + 0.2, 1.0)
        model = np.column_stack([model_top, 1.0 - model_top])
        emp_ece, emp_l1, holds = l1_ece_bound_check(model, truth, n, rng.derive("draws"))
        assert holds
        assert emp_ece == pytest.approx(0.2, abs=0.02)
        assert emp_l1 == pytest.approx(0.2, abs=0.02)

    def test_random_trials_all_hold(self):
        rng = RngState(55)
        n = 100_000
        for trial in range(20):
            t = rng.derive(f"trial{trial}")
            model_top = t.uniform(n, 0.02, 0.98)
            truth_top = t.uniform(n, 0.02, 0.98)
            model = np.column_stack([model_top, 1.0 - model_top])
            truth = np.column_stack([truth_top, 1.0 - truth_top])
            _, _, holds = l1_ece_bound_check(model, truth, n, t.derive("draws"))
            assert holds

    def test_shape_checks(self):
        with pytest.raises(ValueError):
            l1_ece_bound_check(np.full((10, 2), 0.5), np.full((9, 2), 0.5), 10, RngState(0))
        with pytest.raises(ValueError):
            l1_ece_bound_check(np.full((10, 2), 0.5), np.full((10, 2), 0.5), 5, RngState(0))


def test_sample_labels_distribution():
    rng = RngState(56)
    probs = np.tile([0.2, 0.5, 0.3], (50_000, 1))
    labels = sample_labels(probs, rng)
    freq = np.bincount(labels, minlength=3) / len(labels)
    assert np.all(np.abs(freq - [0.2, 0.5, 0.3]) <= 0.01)
