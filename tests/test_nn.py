import numpy as np
import pytest

from sngp.linalg import RngState
from sngp.nn import (DenseLayer, ResidualBlock, ResFfnNetwork, SgdMomentum, build_res_ffn,
                     lipschitz_probe, make_dense_layer, normalize_network, spectral_normalize)

from oracles import finite_diff_gradients, max_relative_gradient_error, sigma_max_jacobi


def zero_block(width: int, activation: str = "relu") -> ResidualBlock:
    layer = DenseLayer(weight=np.zeros((width, width)), bias=np.zeros(width),
                       sn_u=np.ones(width) / np.sqrt(width))
    return ResidualBlock(layer=layer, activation=activation)


class TestForward:
    def test_zero_blocks_reduce_to_projection(self):
        rng = RngState(1)
        proj = make_dense_layer(2, 4, rng)
        net = ResFfnNetwork(proj, [zero_block(4) for _ in range(3)])
        x = rng.normal_matrix(5, 2)
        h, _ = net.forward(x)
        assert np.array_equal(h, proj.apply(x))

    def test_depth_zero(self):
        rng = RngState(2)
        proj = make_dense_layer(2, 4, rng)
        net = ResFfnNetwork(proj, [])
        x = rng.normal_matrix(3, 2)
        h, _ = net.forward(x)
        assert np.array_equal(h, proj.apply(x))

    def test_hand_computed_block(self):
        w = np.array([[1.0, -1.0], [0.5, 2.0]])
        b = np.array([0.1, -0.2])
        proj = DenseLayer(weight=np.eye(2), bias=np.zeros(2), sn_u=np.array([1.0, 0.0]))
        blk = ResidualBlock(layer=DenseLayer(weight=w, bias=b, sn_u=np.array([1.0, 0.0])),
                            activation="relu")
        net = ResFfnNetwork(proj, [blk])
        x = np.array([[1.0, 2.0]])
        h, _ = net.forward(x)
        pre = w @ x[0] + b                       # (-0.9, 4.3)
        expected = x[0] + np.maximum(pre, 0.0)   # (1.0, 6.3)
        assert np.allclose(h[0], expected)

    def test_dimension_mismatch(self):
        net = build_res_ffn(2, 4, 1, RngState(3))
        with pytest.raises(ValueError):
            net.forward(np.zeros((2, 3)))

    def test_dropout_only_in_train_mode(self):
        net = build_res_ffn(2, 8, 2, RngState(4), dropout_rate=0.5)
        x = RngState(5).normal_matrix(4, 2)
        h_eval1, _ = net.forward(x, train_mode=False)
        h_eval2, _ = net.forward(x, train_mode=False)
        assert np.array_equal(h_eval1, h_eval2)
        h_train, _ = net.forward(x, train_mode=True, rng=RngState(6))
        assert not np.allclose(h_train, h_eval1)


class TestBackward:
    def test_zero_upstream(self):
        net = build_res_ffn(2, 4, 2, RngState(7))
        x = RngState(8).normal_matrix(3, 2)
        _, tape = net.forward(x)
        grads = net.backward(tape, np.zeros((3, 4)))
        assert all(np.all(g == 0.0) for g in grads.values())

    def test_scalar_linear_closed_form(self):
        # width-1 linear net: h = p*x + b0 + act(w*(p*x+b0)+b1) with linear act
        proj = DenseLayer(weight=np.array([[2.0]]), bias=np.array([0.5]),
                          sn_u=np.array([1.0]))
        blk = ResidualBlock(layer=DenseLayer(weight=np.array([[3.0]]), bias=np.array([0.0]),
                                             sn_u=np.array([1.0])), activation="linear")
        net = ResFfnNetwork(proj, [blk])
        x = np.array([[1.5]])
        h, tape = net.forward(x)
        # h = (p x + b) * (1 + w) = (2*1.5 + 0.5) * 4 = 14
        assert np.allclose(h, [[14.0]])
        grads = net.backward(tape, np.ones((1, 1)))
        # dh/dw = (p x + b) = 3.5 ; dh/dp = x (1 + w) = 6 ; dh/db0 = 4 ; dh/db1 = 1
        assert np.allclose(grads["block0.w"], [[3.5]])
        assert np.allclose(grads["proj.w"], [[6.0]])
        assert np.allclose(grads["proj.b"], [4.0])
        assert np.allclose(grads["block0.b"], [1.0])

    def test_finite_difference_oracle(self):
        rng = RngState(9)
        net = build_res_ffn(3, 6, 2, rng, activation="tanh")
        x = rng.normal_matrix(5, 3)
        target = rng.normal_matrix(5, 6)

        def loss_fn():
            h, _ = net.forward(x)
            return 0.5 * float(np.sum((h - target) ** 2))

        h, tape = net.forward(x)
        analytic = net.backward(tape, h - target)
        numeric = finite_diff_gradients(loss_fn, net.parameters())
        worst, name = max_relative_gradient_error(analytic, numeric)
        assert worst <= 1e-4, f"gradient mismatch at {name}: {worst}"

    def test_stale_tape_rejected(self):
        net_a = build_res_ffn(2, 4, 2, RngState(10))
        net_b = build_res_ffn(2, 4, 3, RngState(11))
        _, tape = net_a.forward(np.zeros((1, 2)))
        with pytest.raises(ValueError, match="tape"):
            net_b.backward(tape, np.zeros((1, 4)))


class TestSpectralNormalize:
    def test_rescales_above_bound(self):
        layer = DenseLayer(weight=2.0 * np.eye(2), bias=np.zeros(2),
                           sn_u=np.array([1.0, 0.0]), sn_bound=1.0)
        spectral_normalize(layer)
        assert np.allclose(layer.weight, np.eye(2))

    def test_leaves_small_weights_alone(self):
        w = 0.5 * np.eye(2)
        layer = DenseLayer(weight=w.copy(), bias=np.zeros(2),
                           sn_u=np.array([1.0, 0.0]), sn_bound=1.0)
        spectral_normalize(layer)
        assert np.array_equal(layer.weight, w)

    def test_repeated_normalization_meets_bound(self):
        rng = RngState(12)
        layer = make_dense_layer(8, 8, rng, sn_bound=0.9)
        layer.weight *= 3.0
        for _ in range(100):
            spectral_normalize(layer)
        assert sigma_max_jacobi(layer.weight) <= 0.9 + 1e-6

    def test_invalid_bound(self):
        layer = make_dense_layer(2, 2, RngState(13), sn_bound=1.0)
        layer.sn_bound = 0.0
        with pytest.raises(ValueError):
            spectral_normalize(layer)


class TestLipschitzProbe:
    def test_zero_residuals_give_unit_ratio(self):
        rng = RngState(14)
        proj = make_dense_layer(2, 4, rng)
        net = ResFfnNetwork(proj, [zero_block(4) for _ in range(2)])
        pairs = [(rng.normal(2), rng.normal(2)) for _ in range(20)]
        lo, hi, skipped = lipschitz_probe(net, pairs)
        assert skipped == 0
        assert abs(lo - 1.0) <= 1e-12 and abs(hi - 1.0) <= 1e-12

    def test_proposition_bounds_hold(self):
        c, depth = 0.9, 3
        rng = RngState(15)
        net = build_res_ffn(2, 8, depth, rng, sn_bound=c)
        for _ in range(200):
            normalize_network(net)
        pair_rng = rng.derive("pairs")
        pairs = [(pair_rng.uniform(2, -3, 3), pair_rng.uniform(2, -3, 3)) for _ in range(1000)]
        lo, hi, _ = lipschitz_probe(net, pairs)
        assert lo >= (1.0 - c) ** depth
        assert hi <= (1.0 + c) ** depth

    def test_linear_single_block_exact_ratio(self):
        # h(x) = x + 0.5 x = 1.5 x so every ratio is exactly 1.5
        proj = DenseLayer(weight=np.eye(2), bias=np.zeros(2), sn_u=np.array([1.0, 0.0]))
        blk = ResidualBlock(layer=DenseLayer(weight=0.5 * np.eye(2), bias=np.zeros(2),
                                             sn_u=np.array([1.0, 0.0])), activation="linear")
        net = ResFfnNetwork(proj, [blk])
        rng = RngState(16)
        pairs = [(rng.normal(2), rng.normal(2)) for _ in range(10)]
        lo, hi, _ = lipschitz_probe(net, pairs)
        assert abs(lo - 1.5) <= 1e-12 and abs(hi - 1.5) <= 1e-12

    def test_coincident_pairs_skipped(self):
        net = build_res_ffn(2, 4, 1, RngState(17))
        x = np.array([0.3, -0.4])
        _, _, skipped = lipschitz_probe(net, [(x, x.copy()), (x, x + 1.0)])
        assert skipped == 1


class TestSgdMomentum:
    def test_zero_gradient_no_change(self):
        params = {"w": np.array([1.0, 2.0])}
        SgdMomentum(0.1, 0.9).step(params, {"w": np.zeros(2)})
        assert np.array_equal(params["w"], [1.0, 2.0])

    def test_vanilla_step_is_definition(self):
        params = {"w": np.array([1.0])}
        SgdMomentum(0.1, 0.0).step(params, {"w": np.array([2.0])})
        assert np.allclose(params["w"], [1.0 - 0.1 * 2.0])

    def test_momentum_matches_hand_unrolled_recurrence(self):
        # v1 = g, p1 = p0 - lr g ; v2 = mu g + g, p2 = p1 - lr (1 + mu) g
        lr, mu, g = 0.1, 0.9, 2.0
        params = {"w": np.array([1.0])}
        opt = SgdMomentum(lr, mu)
        opt.step(params, {"w": np.array([g])})
        opt.step(params, {"w": np.array([g])})
        expected = 1.0 - lr * g - lr * (1.0 + mu) * g
        assert np.allclose(params["w"], [expected])

    @pytest.mark.parametrize("lr", [0.0, float("nan")])
    def test_rejects_learning_rate_that_is_not_positive(self, lr):
        with pytest.raises(ValueError, match="learning_rate must be positive"):
            SgdMomentum(lr, 0.9)


def test_deterministic_construction():
    a = build_res_ffn(2, 8, 3, RngState(18))
    b = build_res_ffn(2, 8, 3, RngState(18))
    for (na, pa), (nb, pb) in zip(sorted(a.parameters().items()),
                                  sorted(b.parameters().items())):
        assert na == nb
        assert np.array_equal(pa, pb)
