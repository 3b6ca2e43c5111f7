"""Acceptance gate: one test per release criterion, each printing a
``[PASS]``/``[FAIL]`` line (run with ``pytest tests/test_acceptance.py -v -s``).

The 2D benchmark criteria use a desk-scale configuration: depth-3/width-16
residual network, spectral bound 0.9, 256 random features, length scale 2.0,
head layer normalization off (the raw 2D inputs carry the distance signal),
exact one-pass posterior precision.
"""

import time

import numpy as np
import pytest
from scipy.stats import spearmanr

from sngp.baselines import build_variant, ensemble_predict, train_ensemble
from sngp.cli import main as cli_main
from sngp.data import gen_grid, gen_two_moons
from sngp.gp_layer import RffGpLayer, softmax
from sngp.linalg import RngState
from sngp.metrics import PredictionSet, aupr, ece, margin_uncertainty, variance_uncertainty
from sngp.nn import lipschitz_probe
from sngp.theory import brier_rule, log_rule, max_entropy_oracle, minimax_oracle, bregman_score
from sngp.train import ModelSpec, TrainConfig, build_sngp_model, loss_and_grads, predict_batch, train

from oracles import (finite_diff_gradients, l1_ece_bound_check, max_relative_gradient_error,
                     min_distance_to_set, sigma_max_jacobi)

BENCH_SPEC = ModelSpec(hidden_width=16, depth=3, num_features=256, dropout_rate=0.01,
                         use_layer_norm=False, length_scale=2.0, sn_bound=0.9, seed=0)
BENCH_TRAIN = TrainConfig(epochs=30, batch_size=32, learning_rate=0.05, momentum=0.9,
                          precision_exact=True)


def variance_of(model, x):
    return variance_uncertainty(predict_batch(model, x, mc_samples=1))


def check(name: str, passed: bool, detail: str = ""):
    print(f"[{'PASS' if passed else 'FAIL'}] {name}" + (f"  ({detail})" if detail else ""))
    assert passed, f"{name}: {detail}"


@pytest.fixture(scope="module")
def moons():
    return gen_two_moons(500, 0.1, seed=7)


@pytest.fixture(scope="module")
def trained_sngp(moons):
    model = build_variant("sngp", BENCH_SPEC)
    train(model, moons.points, moons.labels, BENCH_TRAIN)
    return model


def test_criterion_1_kernel_fidelity():
    start = time.perf_counter()
    rng = RngState(4242)
    layer = RffGpLayer(in_dim=2, num_features=4096, num_classes=2, length_scale=1.0,
                       ridge_s=0.001, discount_m=0.999, use_layer_norm=False)
    layer.draw(rng.derive("gp"))
    pair_rng = rng.derive("pairs")
    xs = pair_rng.uniform(200, -2.0, 2.0).reshape(100, 2)
    ys = pair_rng.uniform(200, -2.0, 2.0).reshape(100, 2)
    approx = np.einsum("ij,ij->i", layer.rff_features(xs), layer.rff_features(ys))
    exact = np.exp(-np.sum((xs - ys) ** 2, axis=1) / 2.0)
    frac = float(np.mean(np.abs(approx - exact) <= 0.05))
    elapsed = time.perf_counter() - start
    check("criterion 1: RBF kernel fidelity at 4096 features",
          frac >= 0.95 and elapsed < 5.0,
          f"{frac:.0%} of pairs within 0.05, {elapsed:.2f}s")


def test_criterion_2_laplace_posterior_equivalence():
    start = time.perf_counter()
    rng = RngState(13)
    # negligible ridge: the moving average forgets its initialisation, so the
    # comparison isolates the data term both paths must agree on
    ridge = 1e-9
    kwargs = dict(in_dim=2, num_features=16, num_classes=2, length_scale=2.0,
                  ridge_s=ridge, discount_m=0.999, use_layer_norm=False)
    layer = RffGpLayer(**kwargs)
    layer.draw(RngState(13).derive("gp"))
    pts = rng.derive("data").normal(400).reshape(200, 2)
    layer.beta[:] = 0.5 * rng.derive("beta").normal_matrix(2, 16)
    phi = layer.rff_features(pts)
    probs = softmax(layer.logits(phi))

    exact = RffGpLayer(**kwargs)
    exact.draw(RngState(13).derive("gp"))
    exact.update_precision_exact(phi, probs)

    layer.reset_precision()
    for _ in range(25_000):  # discount^25000 ~ 1e-11: fully converged
        layer.update_precision_minibatch(phi, probs)
    rel = max(np.linalg.norm(a - b) / np.linalg.norm(b)
              for a, b in zip(layer.precision, exact.precision))
    elapsed = time.perf_counter() - start
    check("criterion 2: moving-average precision matches exact one-pass",
          rel <= 1e-6 and elapsed < 5.0,
          f"relative Frobenius error {rel:.2e}, {elapsed:.2f}s")


def test_criterion_3_gradient_correctness():
    start = time.perf_counter()
    model = build_sngp_model(ModelSpec(input_dim=2, hidden_width=8, depth=3, num_classes=2,
                                       seed=3, num_features=32, dropout_rate=0.0, sn_bound=0.9,
                                       spectral_norm=True, use_layer_norm=True,
                                       length_scale=2.0))
    model.head.beta[:] = 0.3 * RngState(4).normal_matrix(2, 32)
    rng = RngState(77)
    x = rng.normal(24).reshape(12, 2)
    y = (rng.uniform(12, 0.0, 1.0) > 0.5).astype(int)

    def loss_fn():
        return loss_and_grads(model, x, y, l2_beta=0.1, l2_scale=10.0, rng=None)[0]

    _, analytic = loss_and_grads(model, x, y, l2_beta=0.1, l2_scale=10.0, rng=None)
    numeric = finite_diff_gradients(loss_fn, model.parameters(), step=1e-5)
    worst, name = max_relative_gradient_error(analytic, numeric)
    n_params = sum(p.size for p in model.parameters().values())
    elapsed = time.perf_counter() - start
    check("criterion 3: full-model gradients match central finite differences",
          worst <= 1e-4 and elapsed < 10.0,
          f"{n_params} parameters, worst rel err {worst:.2e} at {name}, {elapsed:.2f}s")


def test_criterion_4_spectral_bound_and_bilipschitz(trained_sngp):
    c, depth = 0.9, 3
    sigmas = [sigma_max_jacobi(blk.layer.weight) for blk in trained_sngp.network.blocks]
    bound_ok = all(s <= c + 1e-6 for s in sigmas)

    pair_rng = RngState(15).derive("probe")
    pairs = [(pair_rng.uniform(2, -3.0, 3.0), pair_rng.uniform(2, -3.0, 3.0))
             for _ in range(1000)]
    lo, hi, _ = lipschitz_probe(trained_sngp.network, pairs)
    lip_ok = (1.0 - c) ** depth <= lo and hi <= (1.0 + c) ** depth
    check("criterion 4: spectral bound and bi-Lipschitz envelope after training",
          bound_ok and lip_ok,
          f"sigma_max={max(sigmas):.8f} (<= {c + 1e-6}), ratios [{lo:.4f}, {hi:.4f}] "
          f"within [{(1 - c) ** depth:.4f}, {(1 + c) ** depth:.4f}]")


def test_criterion_5_distance_awareness(moons, trained_sngp):
    start = time.perf_counter()

    # (a) variance uncertainty tracks distance to the training set over a grid
    pad = 1.0
    lo_b = moons.points.min(axis=0) - pad
    hi_b = moons.points.max(axis=0) + pad
    grid = gen_grid((lo_b[0], hi_b[0], lo_b[1], hi_b[1]), (100, 100)).points()
    u_grid = variance_of(trained_sngp, grid)
    dist = min_distance_to_set(grid, moons.points)
    rho = spearmanr(u_grid, dist).statistic
    check("criterion 5a: grid Spearman(variance, distance) >= 0.80",
          rho >= 0.80, f"rho = {rho:.3f} on 100x100 grid")

    # (b) held-out OOD cluster vs fresh in-domain test points
    ind_test = gen_two_moons(250, 0.1, seed=99)
    u_ood = variance_of(trained_sngp, moons.ood_points).mean()
    u_ind = variance_of(trained_sngp, ind_test.points).mean()
    ratio = u_ood / u_ind
    check("criterion 5b: mean OOD uncertainty >= 3x mean IND uncertainty",
          ratio >= 3.0, f"ratio = {ratio:.1f}")

    # (c) AUPR for OOD detection beats a 3-member deep ensemble, 3 seeds each
    flags = np.concatenate([np.zeros(len(ind_test.points), dtype=bool),
                            np.ones(len(moons.ood_points), dtype=bool)])
    eval_pts = np.vstack([ind_test.points, moons.ood_points])
    sngp_auprs, ens_auprs = [], []
    for seed in (0, 1, 2):
        spec = ModelSpec(**{**BENCH_SPEC.__dict__, "seed": seed})
        model = build_variant("sngp", spec)
        train(model, moons.points, moons.labels, BENCH_TRAIN)
        sngp_auprs.append(aupr(variance_of(model, eval_pts), flags))
        members, _ = train_ensemble(spec, 3, moons.points, moons.labels, BENCH_TRAIN)
        ens_auprs.append(aupr(margin_uncertainty(ensemble_predict(members, eval_pts)), flags))
    elapsed = time.perf_counter() - start
    check("criterion 5c: SNGP AUPR(OOD) >= deep-ensemble AUPR(OOD) over 3 seeds",
          float(np.mean(sngp_auprs)) >= float(np.mean(ens_auprs)) and elapsed < 300.0,
          f"sngp {np.mean(sngp_auprs):.3f} vs ensemble {np.mean(ens_auprs):.3f}, "
          f"total {elapsed:.0f}s")


def test_criterion_6_minimax_max_entropy_witnesses():
    start = time.perf_counter()
    step = 0.05
    results = []
    for k in (2, 3):
        uniform = np.full(k, 1.0 / k)
        for rule in (brier_rule(k), log_rule()):
            mm = minimax_oracle(k, step, rule)
            me = max_entropy_oracle(k, step, rule)
            ok = (np.all(np.abs(mm - uniform) <= step + 1e-12)
                  and np.all(np.abs(me - uniform) <= step + 1e-12)
                  and np.all(np.abs(mm - me) <= step + 1e-12))
            results.append(ok)
    elapsed = time.perf_counter() - start
    check("criterion 6: minimax = max-entropy = uniform for K in {2,3}, both rules",
          all(results) and elapsed < 30.0, f"{elapsed:.2f}s")


def test_criterion_7_propriety_and_calibration_bound():
    rng = RngState(51)
    worst_margin = np.inf
    for rule in (brier_rule(3), log_rule()):
        for _ in range(100):
            p = rng.uniform(3, 0.02, 1.0)
            p /= p.sum()
            q = rng.uniform(3, 0.02, 1.0)
            q /= q.sum()
            if np.allclose(p, q):
                continue
            worst_margin = min(worst_margin,
                               bregman_score(q, p, rule) - bregman_score(p, p, rule))
    check("criterion 7a: strict-propriety margin positive on 100 random pairs",
          worst_margin > 0.0, f"min margin {worst_margin:.3g}")

    n = 100_000
    trials_ok = 0
    trial_rng = RngState(55)
    for trial in range(20):
        t = trial_rng.derive(f"trial{trial}")
        model_top = t.uniform(n, 0.02, 0.98)
        truth_top = t.uniform(n, 0.02, 0.98)
        model = np.column_stack([model_top, 1.0 - model_top])
        truth = np.column_stack([truth_top, 1.0 - truth_top])
        _, _, holds = l1_ece_bound_check(model, truth, n, t.derive("draws"))
        trials_ok += bool(holds)
    check("criterion 7b: ECE <= L1 bound holds in 20/20 randomized trials",
          trials_ok == 20, f"{trials_ok}/20")

    cal_rng = RngState(42)
    p = cal_rng.uniform(n, 0.5, 1.0)
    labels = np.where(cal_rng.uniform(n, 0.0, 1.0) < p, 0, 1)
    cal_ece = ece(PredictionSet(probs=np.column_stack([p, 1.0 - p]), labels=labels),
                  num_bins=15)
    check("criterion 7c: perfectly calibrated predictor has ECE <= 0.02",
          cal_ece <= 0.02, f"ece = {cal_ece:.4f} at n = 1e5, 15 bins")


def test_criterion_8_reproducibility(tmp_path):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(
        "variant = sngp\ndataset = two_moons\nn_per_class = 60\ndata_seed = 7\n"
        "hidden_width = 16\ndepth = 3\nnum_features = 64\nuse_layer_norm = false\n"
        "epochs = 5\nbatch_size = 20\nlearning_rate = 0.05\nmomentum = 0.9\n"
        "seed = 3\nprecision_exact = true\n")
    c1, c2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    assert cli_main(["train", "--config", str(cfg_path), "--out", str(c1)]) == 0
    assert cli_main(["train", "--config", str(cfg_path), "--out", str(c2)]) == 0
    ckpt_ok = c1.read_bytes() == c2.read_bytes()

    d1, d2 = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["gen-data", "--dataset", "two_ovals", "--n", "40", "--seed", "11"]
    assert cli_main(args + ["--out", str(d1)]) == 0
    assert cli_main(args + ["--out", str(d2)]) == 0
    data_ok = d1.read_bytes() == d2.read_bytes()
    check("criterion 8: byte-identical checkpoints and dataset CSVs",
          ckpt_ok and data_ok)


def test_criterion_9_reversion_to_prior():
    rng = RngState(21)
    model = build_sngp_model(ModelSpec(input_dim=2, hidden_width=0, depth=0, num_classes=2,
                                       seed=34, num_features=2048, identity_hidden=True,
                                       use_layer_norm=False, length_scale=2.0, gp_head=True,
                                       dropout_rate=0.0))
    cloud = rng.derive("cloud").normal(200).reshape(100, 2)  # sigma = 1 point cloud
    labels = (cloud[:, 0] > 0).astype(int)
    cfg = TrainConfig(epochs=5, batch_size=25, learning_rate=0.1, momentum=0.9,
                      precision_exact=True)
    train(model, cloud, labels, cfg)
    far = np.array([[100.0, 0.0]])  # 100 data standard deviations out
    phi = model.head.rff_features(far)
    variance = model.head.predictive_variance_batch(phi)[0]
    prior = float(phi[0] @ phi[0]) / model.head.ridge_s
    deviation = abs(variance - prior) / prior
    check("criterion 9: far-field variance within 10% of the prior",
          deviation <= 0.10, f"deviation {deviation:.1%} at 100 sigma")
