import numpy as np
import pytest

from sngp.linalg import RngState
from sngp.nn import (DenseLayer, ResidualBlock, ResFfnNetwork, SgdMomentum, build_res_ffn,
                     lipschitz_probe, normalize_network, spectral_normalize)

from oracles import (finite_diff_gradients, max_relative_gradient_error, res_ffn_float_gate,
                     sigma_max_jacobi)

# The network settings of tests that need no particular ones; the layers take no defaults.
PLAIN_NET = dict(dropout_rate=0.0, sn_bound=1.0)
NO_DROPOUT = dict(dropout_rate=0.0)


def drawn_layer(in_dim: int, out_dim: int, rng: RngState, sn_bound: float) -> DenseLayer:
    layer = DenseLayer.zeros(in_dim, out_dim, sn_bound=sn_bound)
    layer.draw(rng)
    return layer


def zero_block(width: int) -> ResidualBlock:
    layer = DenseLayer(weight=np.zeros((width, width)), bias=np.zeros(width),
                       sn_u=np.ones(width) / np.sqrt(width), sn_bound=1.0)
    return ResidualBlock(layer=layer)


class TestForward:
    def test_zero_blocks_reduce_to_projection(self):
        rng = RngState(1)
        proj = drawn_layer(2, 4, rng, sn_bound=1.0)
        net = ResFfnNetwork(proj, [zero_block(4) for _ in range(3)], **NO_DROPOUT)
        x = rng.normal_matrix(5, 2)
        h, _ = net.forward(x)
        assert np.array_equal(h, proj.apply(x))

    def test_depth_zero(self):
        rng = RngState(2)
        proj = drawn_layer(2, 4, rng, sn_bound=1.0)
        net = ResFfnNetwork(proj, [], **NO_DROPOUT)
        x = rng.normal_matrix(3, 2)
        h, _ = net.forward(x)
        assert np.array_equal(h, proj.apply(x))

    def test_hand_computed_block(self):
        w = np.array([[1.0, -1.0], [0.5, 2.0]])
        b = np.array([0.1, -0.2])
        proj = DenseLayer(weight=np.eye(2), bias=np.zeros(2), sn_u=np.array([1.0, 0.0]),
                          sn_bound=1.0)
        blk = ResidualBlock(layer=DenseLayer(weight=w, bias=b, sn_u=np.array([1.0, 0.0]),
                                             sn_bound=1.0))
        net = ResFfnNetwork(proj, [blk], **NO_DROPOUT)
        x = np.array([[1.0, 2.0]])
        h, _ = net.forward(x)
        pre = w @ x[0] + b                       # (-0.9, 4.3)
        expected = x[0] + np.maximum(pre, 0.0)   # (1.0, 6.3)
        assert np.allclose(h[0], expected)

    def test_dimension_mismatch(self):
        net = build_res_ffn(2, 4, 1, RngState(3), **PLAIN_NET)
        with pytest.raises(ValueError):
            net.forward(np.zeros((2, 3)))

    def test_dropout_only_with_a_stream(self):
        net = build_res_ffn(2, 8, 2, RngState(4), dropout_rate=0.5, sn_bound=1.0)
        x = RngState(5).normal_matrix(4, 2)
        h_eval1, _ = net.forward(x, rng=None)
        h_eval2, _ = net.forward(x, rng=None)
        assert np.array_equal(h_eval1, h_eval2)
        h_train, _ = net.forward(x, rng=RngState(6))
        assert not np.allclose(h_train, h_eval1)

    def test_the_stream_alone_decides_dropout(self):
        # The network owns the rate; a pass drops units exactly when it is
        # given a stream, and each stream's draw repeats.
        x = RngState(5).normal_matrix(6, 2)
        net = build_res_ffn(2, 16, 3, RngState(4), dropout_rate=0.4, sn_bound=1.0)
        rate_zero = build_res_ffn(2, 16, 3, RngState(4), **PLAIN_NET)
        assert np.array_equal(net.parameters()["block2.w"], rate_zero.parameters()["block2.w"])
        plain = rate_zero.forward(x)[0]
        assert np.array_equal(net.forward(x)[0], plain)
        assert np.array_equal(net.forward(x)[0], plain)
        dropped = net.forward(x, rng=RngState(6))[0]
        assert not np.array_equal(dropped, plain)
        assert np.array_equal(net.forward(x, rng=RngState(6))[0], dropped)
        assert not np.array_equal(net.forward(x, rng=RngState(7))[0], dropped)
        assert np.array_equal(rate_zero.forward(x, rng=RngState(6))[0], plain)

    @pytest.mark.parametrize("with_stream", [False, True])
    def test_forward_without_tape_gives_the_same_bits(self, with_stream):
        # Taped or not, the ReLU, dropout and residual sum run in place.
        x = RngState(8).normal_matrix(6, 2)
        x_before = x.copy()
        for dropout_rate in (0.0, 0.3):
            net = build_res_ffn(2, 16, 4, RngState(7), dropout_rate=dropout_rate, sn_bound=1.0)
            h_tape, tape = net.forward(x, rng=RngState(9) if with_stream else None)
            h_bare, bare = net.forward(x, rng=RngState(9) if with_stream else None,
                                       keep_tape=False)
            assert len(tape.block_inputs) == 4 and bare is None
            assert np.array_equal(h_tape, h_bare), dropout_rate
        assert np.array_equal(x, x_before)

    @pytest.mark.parametrize("with_stream", [False, True])
    @pytest.mark.parametrize("dropout_rate", [0.0, 0.3])
    def test_tape_holds_what_each_block_computed(self, dropout_rate, with_stream):
        # Each block's branch and residual sum are formed in place over its
        # pre-activation, so no write may reach an array the tape holds for backward.
        net = build_res_ffn(2, 16, 4, RngState(7), dropout_rate=dropout_rate, sn_bound=1.0)
        h, tape = net.forward(RngState(8).normal_matrix(6, 2),
                              rng=RngState(9) if with_stream else None)
        outputs = tape.block_inputs[1:] + [h]
        for blk, x_in, gate, mask, x_out in zip(net.blocks, tape.block_inputs,
                                                tape.gates, tape.dropout_masks, outputs):
            assert (mask is not None) == (with_stream and dropout_rate > 0.0)
            z = blk.layer.apply(x_in)
            assert gate.dtype == np.bool_ and np.array_equal(gate, z > 0.0)
            branch = np.maximum(z, 0.0) if mask is None else np.maximum(z, 0.0) * mask
            assert np.array_equal(x_out, x_in + branch)

    @pytest.mark.parametrize("taped", [False, True])
    @pytest.mark.parametrize("with_stream", [False, True])
    @pytest.mark.parametrize("dropout_rate", [0.0, 0.3])
    def test_matches_the_float_gate_reference_bit_for_bit(self, dropout_rate, with_stream,
                                                          taped):
        # The reference keeps the pre-activations, a float gate and a copied
        # branch; the network's in-place body and byte gate give the same bits.
        net = build_res_ffn(2, 16, 4, RngState(7), dropout_rate=dropout_rate, sn_bound=1.0)
        x = RngState(8).normal_matrix(6, 2)
        grad_h = RngState(10).normal_matrix(6, 16)
        stream = (lambda: RngState(9)) if with_stream else (lambda: None)
        h_ref, grads_ref = res_ffn_float_gate(net, x, grad_h, rng=stream())
        h, tape = net.forward(x, rng=stream(), keep_tape=taped)
        assert np.array_equal(h, h_ref)
        if taped:
            grads = net.backward(tape, grad_h)
            assert sorted(grads) == sorted(grads_ref)
            assert all(np.array_equal(grads[name], grads_ref[name]) for name in grads)


class TestBackward:
    def test_zero_upstream(self):
        net = build_res_ffn(2, 4, 2, RngState(7), **PLAIN_NET)
        x = RngState(8).normal_matrix(3, 2)
        _, tape = net.forward(x)
        grads = net.backward(tape, np.zeros((3, 4)))
        assert all(np.all(g == 0.0) for g in grads.values())

    def test_scalar_linear_closed_form(self):
        # width-1 net: h = p*x + b0 + relu(w*(p*x+b0)+b1); the pre-activation
        # 10.5 is positive, where the block is linear
        proj = DenseLayer(weight=np.array([[2.0]]), bias=np.array([0.5]),
                          sn_u=np.array([1.0]), sn_bound=1.0)
        blk = ResidualBlock(layer=DenseLayer(weight=np.array([[3.0]]), bias=np.array([0.0]),
                                             sn_u=np.array([1.0]), sn_bound=1.0))
        net = ResFfnNetwork(proj, [blk], **NO_DROPOUT)
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
        # ReLU has a kink at 0, so the rows are those whose pre-activations all
        # lie clear of it, far beyond what a difference step moves them.
        rng = RngState(9)
        net = build_res_ffn(3, 6, 2, rng, **PLAIN_NET)
        candidates = rng.normal_matrix(40, 3)
        h, margin = net.input_projection.apply(candidates), np.inf
        for blk in net.blocks:
            z = blk.layer.apply(h)
            margin = np.minimum(margin, np.abs(z).min(axis=1))
            h = h + np.maximum(z, 0.0)
        x = candidates[margin > 0.05][:5]
        assert x.shape == (5, 3)
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
        net_a = build_res_ffn(2, 4, 2, RngState(10), **PLAIN_NET)
        net_b = build_res_ffn(2, 4, 3, RngState(11), **PLAIN_NET)
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
        layer = drawn_layer(8, 8, rng, sn_bound=0.9)
        layer.weight *= 3.0
        for _ in range(100):
            spectral_normalize(layer)
        assert sigma_max_jacobi(layer.weight) <= 0.9 + 1e-6


class TestLipschitzProbe:
    def test_zero_residuals_give_unit_ratio(self):
        rng = RngState(14)
        proj = drawn_layer(2, 4, rng, sn_bound=1.0)
        net = ResFfnNetwork(proj, [zero_block(4) for _ in range(2)], **NO_DROPOUT)
        pairs = [(rng.normal(2), rng.normal(2)) for _ in range(20)]
        lo, hi, skipped = lipschitz_probe(net, pairs)
        assert skipped == 0
        assert abs(lo - 1.0) <= 1e-12 and abs(hi - 1.0) <= 1e-12

    def test_proposition_bounds_hold(self):
        c, depth = 0.9, 3
        rng = RngState(15)
        net = build_res_ffn(2, 8, depth, rng, dropout_rate=0.0, sn_bound=c)
        for _ in range(200):
            normalize_network(net)
        pair_rng = rng.derive("pairs")
        pairs = [(pair_rng.uniform(2, -3, 3), pair_rng.uniform(2, -3, 3)) for _ in range(1000)]
        lo, hi, _ = lipschitz_probe(net, pairs)
        assert lo >= (1.0 - c) ** depth
        assert hi <= (1.0 + c) ** depth

    def test_linear_single_block_exact_ratio(self):
        # At positive inputs the pre-activation 0.5 x is positive, so the block
        # is linear: h(x) = x + 0.5 x = 1.5 x and every ratio is exactly 1.5
        proj = DenseLayer(weight=np.eye(2), bias=np.zeros(2), sn_u=np.array([1.0, 0.0]),
                          sn_bound=1.0)
        blk = ResidualBlock(layer=DenseLayer(weight=0.5 * np.eye(2), bias=np.zeros(2),
                                             sn_u=np.array([1.0, 0.0]), sn_bound=1.0))
        net = ResFfnNetwork(proj, [blk], **NO_DROPOUT)
        rng = RngState(16)
        pairs = [(rng.uniform(2, 0.1, 3.0), rng.uniform(2, 0.1, 3.0)) for _ in range(10)]
        lo, hi, _ = lipschitz_probe(net, pairs)
        assert abs(lo - 1.5) <= 1e-12 and abs(hi - 1.5) <= 1e-12

    def test_coincident_pairs_skipped(self):
        net = build_res_ffn(2, 4, 1, RngState(17), **PLAIN_NET)
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


def test_deterministic_construction():
    a = build_res_ffn(2, 8, 3, RngState(18), **PLAIN_NET)
    b = build_res_ffn(2, 8, 3, RngState(18), **PLAIN_NET)
    for (na, pa), (nb, pb) in zip(sorted(a.parameters().items()),
                                  sorted(b.parameters().items())):
        assert na == nb
        assert np.array_equal(pa, pb)
