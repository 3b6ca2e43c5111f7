import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sngp.gp_layer import softmax
from sngp.linalg import RngState
from sngp.metrics import (PredictionSet, auroc, aupr, brier, dempster_shafer,
                          ece, ece_bin_table, metrics_report, nll)

from oracles import auroc_pair_counting, auroc_scipy_ranks, dempster_shafer_scipy


def preds_from(probs, labels):
    return PredictionSet(probs=np.asarray(probs, dtype=float),
                         labels=np.asarray(labels, dtype=int))


class TestEce:
    def test_perfectly_confident_and_correct(self):
        ps = preds_from([[1.0, 0.0]] * 5, [0] * 5)
        assert ece(ps) == 0.0

    def test_single_wrong_sample(self):
        assert ece(preds_from([[0.8, 0.2]], [1])) == pytest.approx(0.8)

    def test_calibrated_generator_small_ece(self):
        rng = RngState(42)
        n = 100_000
        p = rng.uniform(n, 0.5, 1.0)
        labels_match = rng.uniform(n, 0.0, 1.0) < p  # accuracy equals confidence
        probs = np.column_stack([p, 1.0 - p])
        labels = np.where(labels_match, 0, 1)
        assert ece(preds_from(probs, labels), num_bins=15) <= 0.02

    def test_permutation_invariance(self):
        rng = RngState(43)
        probs = softmax(rng.normal_matrix(200, 3))
        labels = (rng.uniform(200, 0.0, 3.0)).astype(int)
        base = ece(preds_from(probs, labels))
        perm = rng.permutation(200)
        assert ece(preds_from(probs[perm], labels[perm])) == pytest.approx(base)

    def test_bin_table_shape(self):
        ps = preds_from([[0.9, 0.1], [0.55, 0.45]], [0, 1])
        rows = ece_bin_table(ps, num_bins=10)
        assert len(rows) == 10
        assert sum(r[3] for r in rows) == 2


class TestProperScores:
    def test_uniform_closed_forms(self):
        ps = preds_from(np.full((6, 4), 0.25), [0, 1, 2, 3, 0, 1])
        assert nll(ps) == pytest.approx(np.log(4.0))
        assert brier(ps) == pytest.approx(0.75)

    def test_one_hot_correct(self):
        ps = preds_from([[0.0, 1.0]], [1])
        assert nll(ps) == pytest.approx(0.0)
        assert brier(ps) == pytest.approx(0.0)

    def test_two_sample_hand_case(self):
        probs = np.array([[0.7, 0.3], [0.4, 0.6]])
        ps = preds_from(probs, [0, 0])
        assert nll(ps) == pytest.approx(-(np.log(0.7) + np.log(0.4)) / 2.0)
        hand_brier = ((0.3**2 + 0.3**2) + (0.6**2 + 0.6**2)) / 2.0
        assert brier(ps) == pytest.approx(hand_brier)

    def test_true_conditional_minimizes_expected_brier(self):
        # proper-scoring property: predicting p* beats any fixed alternative
        rng = RngState(44)
        n = 100_000
        p_star = 0.7
        labels = (rng.uniform(n, 0.0, 1.0) > p_star).astype(int)
        truth = np.tile([p_star, 1.0 - p_star], (n, 1))
        other = np.tile([0.55, 0.45], (n, 1))
        assert brier(preds_from(truth, labels)) < brier(preds_from(other, labels))


# Score generators for the rank oracle: (rng, n) -> (n,) scores.
RANK_CASES = {
    "no_ties": lambda rng, n: rng.normal(n),
    "heavy_ties": lambda rng, n: np.floor(rng.uniform(n, 0.0, 4.0)),
    "all_tied": lambda rng, n: np.full(n, 0.3),
    "infinite": lambda rng, n: np.where(rng.uniform(n, 0.0, 1.0) < 0.3,
                                        np.sign(rng.normal(n)) * np.inf,
                                        np.floor(rng.uniform(n, 0.0, 3.0))),
}


class TestRanking:
    def test_perfect_separation(self):
        scores = np.array([0.9, 0.8, 0.1, 0.2])
        flags = np.array([True, True, False, False])
        assert auroc(scores, flags) == 1.0
        assert aupr(scores, flags) == 1.0

    def test_all_tied_is_half(self):
        scores = np.ones(8)
        flags = np.array([True, False] * 4)
        assert auroc(scores, flags) == 0.5

    def test_six_point_hand_case_matches_pair_counting(self):
        scores = np.array([0.1, 0.4, 0.4, 0.6, 0.8, 0.8])
        flags = np.array([False, False, True, False, True, True])
        assert auroc(scores, flags) == pytest.approx(auroc_pair_counting(scores, flags))

    def test_rank_formula_equals_pair_counting_oracle(self):
        rng = RngState(45)
        for _ in range(20):
            n = 200
            scores = np.round(rng.uniform(n, 0.0, 1.0), 2)  # coarse grid forces ties
            flags = rng.uniform(n, 0.0, 1.0) > 0.7
            if flags.all() or not flags.any():
                continue
            assert auroc(scores, flags) == pytest.approx(
                auroc_pair_counting(scores, flags), abs=1e-12)

    @pytest.mark.parametrize("case", sorted(RANK_CASES))
    def test_equals_rank_sum_over_scipy_ranks(self, case):
        rng = RngState(46)
        for _ in range(25):
            scores = RANK_CASES[case](rng, 150)
            flags = rng.uniform(150, 0.0, 1.0) > 0.6
            if flags.all() or not flags.any():
                continue
            assert auroc(scores, flags) == auroc_scipy_ranks(scores, flags)

    def test_all_tied_and_one_per_class(self):
        flags = np.array([True, False])
        for scores, expected in [([0.3, 0.3], 0.5), ([0.9, 0.1], 1.0), ([-np.inf, np.inf], 0.0)]:
            scores = np.array(scores)
            assert auroc(scores, flags) == auroc_scipy_ranks(scores, flags) == expected

    def test_nan_score_gives_nan(self):
        scores = np.array([0.1, np.nan, 0.7, 0.4])
        flags = np.array([False, True, True, False])
        assert np.isnan(auroc(scores, flags))
        assert np.isnan(auroc_scipy_ranks(scores, flags))

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            auroc(np.ones(3), np.array([True, True, True]))
        with pytest.raises(ValueError):
            aupr(np.ones(3), np.array([False, False, False]))

    def test_aupr_prefers_early_positives(self):
        flags = np.array([True, False, False, True])
        good = aupr(np.array([0.9, 0.5, 0.4, 0.8]), flags)
        bad = aupr(np.array([0.2, 0.5, 0.4, 0.1]), flags)
        assert good > bad

    def test_aupr_hand_case(self):
        # order by score: pos, neg, pos, neg -> precisions 1, 1/2, 2/3, 1/2
        scores = np.array([0.9, 0.8, 0.7, 0.6])
        flags = np.array([True, False, True, False])
        expected = 0.5 * 1.0 + 0.5 * (2.0 / 3.0)
        assert aupr(scores, flags) == pytest.approx(expected)


class TestDempsterShafer:
    def test_zero_logits(self):
        assert dempster_shafer(np.zeros(2)) == pytest.approx(0.5)

    def test_large_logits_vanish(self):
        assert dempster_shafer(np.array([800.0, 750.0])) == pytest.approx(0.0, abs=1e-12)

    def test_hand_case(self):
        expected = 2.0 / (2.0 + np.e + np.e**2)
        assert dempster_shafer(np.array([1.0, 2.0])) == pytest.approx(expected)

    @given(st.lists(st.floats(-5, 5), min_size=2, max_size=6))
    @settings(max_examples=50, deadline=None)
    def test_strictly_decreasing_in_each_logit(self, logits):
        # bounded range keeps the perturbation representable in float64
        logits = np.array(logits)
        base = dempster_shafer(logits)
        for k in range(len(logits)):
            bumped = logits.copy()
            bumped[k] += 0.5
            assert dempster_shafer(bumped) < base

    def test_decreasing_even_at_extreme_logits(self):
        logits = np.array([0.0, 33.0])
        bumped = logits + np.array([0.5, 0.0])
        assert dempster_shafer(bumped) <= dempster_shafer(logits)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            dempster_shafer(np.array([np.nan, 0.0]))

    @pytest.mark.parametrize("k", [1, 2, 3, 10])
    def test_matches_scipy_within_4_ulp(self, k):
        rng = RngState(40 + k)
        logits = np.concatenate([scale * rng.normal_matrix(2000, k)
                                 for scale in (1e-3, 1.0, 10.0, 100.0)])
        ours, oracle = dempster_shafer(logits), dempster_shafer_scipy(logits)
        assert np.all(np.abs(ours - oracle) <= 4.0 * np.spacing(oracle))

    def test_limits_at_huge_logits(self):
        big = 1e300
        logits = np.array([[big, big], [-big, -big], [big, -big], [0.0, big], [0.0, -big]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ds = dempster_shafer(logits)
            ds3 = dempster_shafer(np.full((1, 3), -big))
        assert ds.tolist() == [0.0, 1.0, 0.0, 0.0, 2.0 / 3.0]
        assert ds3.tolist() == [1.0]


class TestPredictionSet:
    def test_rejects_off_simplex(self):
        with pytest.raises(ValueError):
            PredictionSet(probs=np.array([[0.7, 0.7]]), labels=np.array([0]))

    @pytest.mark.parametrize("probs", [[[np.nan, 0.5]], [[np.nan, np.nan]],
                                       [[0.5, 0.5], [1.0, np.nan]]])
    def test_rejects_nan_probabilities(self, probs):
        probs = np.array(probs)
        with pytest.raises(ValueError, match="simplex"):
            PredictionSet(probs=probs, labels=np.zeros(len(probs), dtype=int))


def test_metrics_report_format():
    text = metrics_report({"accuracy": 0.5, "ece": 0.125})
    assert "accuracy=0.5\n" in text
    assert text.endswith("ece=0.125\n")
