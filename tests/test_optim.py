import numpy as np
import pytest

from rosa.adapters import full_init, ia3_init, rosa_init
from rosa.errors import ContractViolationError, InvalidInputError, ShapeError
from rosa.network import (Activation, DenseLayer, GradientSet, Mlp, backward,
                          build_mlp, forward, mse_loss, mse_loss_and_gradient,
                          mse_loss_gradient)
from rosa.optim import AdamW
from rosa.training import TrainConfig, adapt_network

from oracles import LoopAdamW, adamw_reference


def single_layer_net(w, bias=None) -> Mlp:
    w = np.asarray(w, dtype=np.float64)
    b = np.zeros(w.shape[0]) if bias is None else np.asarray(bias, dtype=np.float64)
    return Mlp(layers=[DenseLayer(adapter=full_init(w), bias=b,
                                  activation=Activation.IDENTITY)])


def grads_for(net: Mlp, seed: int) -> GradientSet:
    rng = np.random.default_rng(seed)
    out = []
    for layer in net.layers:
        d = {name: rng.standard_normal(arr.shape)
             for name, arr in layer.adapter.trainable_arrays().items()}
        d["bias"] = rng.standard_normal(layer.bias.shape)
        out.append(d)
    return GradientSet(layers=out)


class TestAdamWAgainstReference:
    def test_trajectory_matches(self):
        rng = np.random.default_rng(1)
        w0 = rng.standard_normal((3, 4))
        net = single_layer_net(w0)
        opt = AdamW(learning_rate=0.01)
        grad_seq = [rng.standard_normal((3, 4)) for _ in range(7)]
        for g in grad_seq:
            gs = GradientSet(layers=[{"w": g, "bias": np.zeros(3)}])
            opt.step(net, gs)
        want = adamw_reference(w0, grad_seq, lr=0.01)
        assert np.allclose(net.layers[0].adapter.w, want, atol=1e-14)

    def test_zero_decay_leaves_stationary_point(self):
        # With zero gradients and no decay the parameter must not move.
        net = single_layer_net([[3.0]])
        opt = AdamW(learning_rate=0.1)
        for _ in range(3):
            opt.step(net, GradientSet(layers=[{"w": np.zeros((1, 1)),
                                               "bias": np.zeros(1)}]))
        assert net.layers[0].adapter.w[0, 0] == 3.0

    def test_state_separate_per_parameter(self):
        rng = np.random.default_rng(3)
        net = single_layer_net(rng.standard_normal((2, 3)), bias=[1.0, -1.0])
        opt = AdamW(learning_rate=0.01)
        g_w = rng.standard_normal((2, 3))
        bias0 = net.layers[0].bias.copy()
        opt.step(net, GradientSet(layers=[{"w": g_w, "bias": np.zeros(2)}]))
        # Zero bias gradient: bias stays put even though w moved.
        assert np.array_equal(net.layers[0].bias, bias0)
        assert not np.allclose(net.layers[0].adapter.w, 0.0)


class TestMomentReset:
    def test_reset_restarts_bias_correction(self):
        rng = np.random.default_rng(4)
        w0 = rng.standard_normal((2, 2))
        net = single_layer_net(w0)
        opt = AdamW(learning_rate=0.01)
        pre = [rng.standard_normal((2, 2)) for _ in range(4)]
        post = [rng.standard_normal((2, 2)) for _ in range(3)]
        for g in pre:
            opt.step(net, GradientSet(layers=[{"w": g, "bias": np.zeros(2)}]))
        snapshot = net.layers[0].adapter.w.copy()
        opt.reset_moments(0, ("w",))
        for g in post:
            opt.step(net, GradientSet(layers=[{"w": g, "bias": np.zeros(2)}]))
        # After the reset the remaining updates must look like a fresh run
        # started from the snapshot.
        want = adamw_reference(snapshot, post, lr=0.01)
        assert np.allclose(net.layers[0].adapter.w, want, atol=1e-14)

    def test_without_reset_history_persists(self):
        rng = np.random.default_rng(5)
        w0 = rng.standard_normal((2, 2))
        net = single_layer_net(w0)
        opt = AdamW(learning_rate=0.01)
        pre = [rng.standard_normal((2, 2)) for _ in range(4)]
        post = [rng.standard_normal((2, 2)) for _ in range(3)]
        for g in pre:
            opt.step(net, GradientSet(layers=[{"w": g, "bias": np.zeros(2)}]))
        snapshot = net.layers[0].adapter.w.copy()
        for g in post:
            opt.step(net, GradientSet(layers=[{"w": g, "bias": np.zeros(2)}]))
        fresh = adamw_reference(snapshot, post, lr=0.01)
        assert not np.allclose(net.layers[0].adapter.w, fresh, atol=1e-10)

    def test_reset_unknown_key_is_noop(self):
        opt = AdamW(learning_rate=0.01)
        opt.reset_moments(3, ("a", "b"))


class TestAlignment:
    def test_missing_key_rejected(self):
        net = single_layer_net([[1.0]])
        bad = GradientSet(layers=[{"w": np.zeros((1, 1))}])
        with pytest.raises(ContractViolationError):
            AdamW(0.1).step(net, bad)

    def test_extra_key_rejected(self):
        net = single_layer_net([[1.0]])
        bad = GradientSet(layers=[{"w": np.zeros((1, 1)), "bias": np.zeros(1),
                                   "extra": np.zeros(1)}])
        with pytest.raises(ContractViolationError):
            AdamW(0.1).step(net, bad)

    def test_shape_mismatch_rejected(self):
        net = single_layer_net([[1.0, 2.0]])
        bad = GradientSet(layers=[{"w": np.zeros((2, 2)), "bias": np.zeros(1)}])
        with pytest.raises(ContractViolationError):
            AdamW(0.1).step(net, bad)

    def test_layer_count_mismatch_rejected(self):
        net = single_layer_net([[1.0]])
        with pytest.raises(ContractViolationError):
            AdamW(0.1).step(net, GradientSet(layers=[]))


class TestHyperparamValidation:
    # The recipe's beta1, beta2, epsilon and weight_decay are constants, not
    # keywords: passing one is a TypeError, whatever its value.
    @pytest.mark.parametrize("kwargs", [
        {"learning_rate": -1.0},
        {"learning_rate": 0.01, "beta1": 1.0},
        {"learning_rate": 0.01, "beta2": -0.1},
        {"learning_rate": 0.01, "epsilon": 0.0},
        {"learning_rate": 0.01, "weight_decay": -0.5},
        {"learning_rate": float("inf")},
        {"learning_rate": float("nan")},
        {"learning_rate": 0.01, "epsilon": float("inf")},
        {"learning_rate": 0.01, "epsilon": float("nan")},
        {"learning_rate": 0.01, "weight_decay": float("inf")},
        {"learning_rate": 0.01, "weight_decay": float("nan")},
    ])
    def test_rejected(self, kwargs):
        error = TypeError if len(kwargs) > 1 else InvalidInputError
        with pytest.raises(error):
            AdamW(**kwargs)


def test_adamw_updates_rosa_pair_in_place():
    rng = np.random.default_rng(6)
    ad = rosa_init(rng.standard_normal((4, 4)), rank=2, rng=rng)
    net = Mlp(layers=[DenseLayer(adapter=ad, bias=np.zeros(4),
                                 activation=Activation.IDENTITY)])
    a_before = ad.a.copy()
    b_before = ad.b.copy()
    opt = AdamW(learning_rate=0.01)
    opt.step(net, grads_for(net, 7))
    assert not np.allclose(ad.a, a_before)
    assert not np.allclose(ad.b, b_before)
    # The optimizer must mutate the arrays the adapter owns, not replace them.
    assert net.layers[0].adapter is ad


def rosa_bias_net(seed: int) -> Mlp:
    """Two-layer rosa net with non-zero biases."""
    rng = np.random.default_rng(seed)
    base = build_mlp([6, 8, 5], rng)
    net = adapt_network(base, TrainConfig(method="rosa", rank=2, epochs=1), rng)
    for layer in net.layers:
        layer.bias += rng.standard_normal(layer.bias.shape)
    return net


def net_arrays(net: Mlp) -> list[np.ndarray]:
    return [arr for layer in net.layers
            for arr in (*layer.adapter.trainable_arrays().values(), layer.bias)]


class TestFlatAdamWAgainstLoop:
    # Resets between steps leave the keys on different step counts, so the
    # bias corrections split into several runs, not all of them adjacent.
    RESETS = {3: [(0, ("a", "b"))], 5: [(1, ("a",)), (0, ("bias",))],
              6: [(1, ("b", "bias"))]}

    @pytest.mark.parametrize("with_resets", [False, True])
    def test_bitwise_equal(self, with_resets):
        flat_net, loop_net = rosa_bias_net(11), rosa_bias_net(11)
        flat, loop = AdamW(0.03), LoopAdamW(0.03)
        for step in range(9):
            for layer_index, names in (self.RESETS.get(step, ())
                                       if with_resets else ()):
                flat.reset_moments(layer_index, names)
                loop.reset_moments(layer_index, names)
            grads = grads_for(flat_net, 100 + step)
            flat.step(flat_net, grads)
            loop.step(loop_net, grads)
            for got, want in zip(net_arrays(flat_net), net_arrays(loop_net)):
                assert np.array_equal(got, want), f"step {step}"

    def test_bitwise_equal_on_backward_gradients(self):
        # Gradients from backward arrive in its own key order.
        rng = np.random.default_rng(12)
        x = rng.standard_normal((6, 10))
        y = rng.standard_normal((5, 10))
        flat_net, loop_net = rosa_bias_net(12), rosa_bias_net(12)
        flat, loop = AdamW(learning_rate=0.01), LoopAdamW(learning_rate=0.01)
        for step in range(6):
            if step == 3:
                flat.reset_moments(1, ("a", "b"))
                loop.reset_moments(1, ("a", "b"))
            for net, opt in ((flat_net, flat), (loop_net, loop)):
                pred, cache = forward(net, x)
                opt.step(net, backward(net, cache, mse_loss_gradient(pred, y)))
        for got, want in zip(net_arrays(flat_net), net_arrays(loop_net)):
            assert np.array_equal(got, want)

    def test_key_order_does_not_matter(self):
        first, second = rosa_bias_net(13), rosa_bias_net(13)
        opt_first, opt_second = AdamW(0.01), AdamW(0.01)
        for step in range(3):
            grads = grads_for(first, 200 + step)
            reordered = GradientSet(layers=[dict(reversed(list(d.items())))
                                            for d in grads.layers])
            opt_first.step(first, grads)
            opt_second.step(second, reordered if step % 2 else grads)
        for got, want in zip(net_arrays(first), net_arrays(second)):
            assert np.array_equal(got, want)


class TestFlatLayout:
    def test_biases_follow_matrix_keys(self):
        # A factorize event resets every layer's (a, b) together: with the
        # biases last, those keys form one run of equal step counts.
        opt = AdamW(learning_rate=0.01)
        net = rosa_bias_net(15)
        opt.step(net, grads_for(net, 0))
        keys = [(i, name) for i, name, _, _ in opt._flat.layout]
        assert keys == [(0, "a"), (0, "b"), (1, "a"), (1, "b"),
                        (0, "bias"), (1, "bias")]

    def test_other_network_shape_rejected(self):
        opt = AdamW(learning_rate=0.01)
        net = rosa_bias_net(14)
        opt.step(net, grads_for(net, 0))
        other = single_layer_net(np.ones((2, 3)))
        with pytest.raises(ContractViolationError):
            opt.step(other, grads_for(other, 1))

    def test_same_keys_new_shape_rejected(self):
        opt = AdamW(learning_rate=0.01)
        net = single_layer_net(np.ones((2, 3)))
        opt.step(net, grads_for(net, 0))
        wider = single_layer_net(np.ones((2, 4)))
        with pytest.raises(ContractViolationError):
            opt.step(wider, grads_for(wider, 1))

    def test_different_keys_rejected(self):
        opt = AdamW(learning_rate=0.01)
        net = single_layer_net(np.ones((2, 2)))
        opt.step(net, grads_for(net, 0))
        for ad in (rosa_init(np.eye(2), rank=1, rng=np.random.default_rng(0)),
                   ia3_init(np.eye(2))):
            swapped = Mlp(layers=[DenseLayer(adapter=ad, bias=np.zeros(2),
                                             activation=Activation.IDENTITY)])
            with pytest.raises(ContractViolationError):
                opt.step(swapped, grads_for(swapped, 1))


def with_layer(grads: GradientSet, i: int, **changes) -> GradientSet:
    """grads with layer i's entries replaced; a None value drops the key."""
    layers = [dict(d) for d in grads.layers]
    layers[i].update(changes)
    layers[i] = {k: g for k, g in layers[i].items() if g is not None}
    return GradientSet(layers=layers)


# The bad calls on a rosa_bias_net (layers 8x6 and 5x8, rank 2). A gradient
# case edits the net's own gradients, so it is bad on any step. A network
# case steps another network with its own well-formed gradients, so it is
# bad only against the layout an earlier step fixed; it shares the arrays
# of the layers it keeps.
GRADIENT_CASES = {
    "fewer_gradient_layers": lambda g: GradientSet(layers=g.layers[:1]),
    "missing_key": lambda g: with_layer(g, 1, bias=None),
    "extra_key": lambda g: with_layer(g, 0, extra=np.zeros(8)),
    "renamed_key": lambda g: with_layer(g, 0, a=None, w=g.layers[0]["a"]),
    "gradient_shape": lambda g: with_layer(g, 1, b=np.zeros((2, 9))),
}
NETWORK_CASES = {
    "fewer_layers": lambda net: Mlp(layers=net.layers[:1]),
    "more_layers": lambda net: Mlp(
        layers=[*net.layers, *single_layer_net(np.ones((5, 5))).layers]),
    "other_keys": lambda net: Mlp(layers=[net.layers[0], *single_layer_net(
        net.layers[1].adapter.effective_weight(), net.layers[1].bias).layers]),
    "other_shapes": lambda net: adapt_network(
        build_mlp([6, 8, 5], np.random.default_rng(0)),
        TrainConfig(method="rosa", rank=3, epochs=1), np.random.default_rng(0)),
    "copy": lambda net: net.copy(),
}


class TestRejectedStepChangesNothing:
    """A step that raises ContractViolationError leaves every parameter, the
    moments, the step counts and the network version as they were, and
    the next valid step matches an optimizer that never saw the bad call."""

    KWARGS = dict(learning_rate=0.03)

    def check(self, steps_before: int, bad_call):
        net, twin_net = rosa_bias_net(16), rosa_bias_net(16)
        opt, twin = AdamW(**self.KWARGS), AdamW(**self.KWARGS)
        for step in range(steps_before):
            if step == 1:
                opt.reset_moments(0, ("a", "b"))
                twin.reset_moments(0, ("a", "b"))
            opt.step(net, grads_for(net, 300 + step))
            twin.step(twin_net, grads_for(twin_net, 300 + step))
        bad_net, bad_grads = bad_call(net)
        nets = (net, bad_net) if bad_net is not net else (net,)
        before = [[a.copy() for a in net_arrays(n)] for n in nets]
        versions = [n.version for n in nets]
        flat = opt._flat
        state = None if flat is None else (flat.m.copy(), flat.v.copy(), list(flat.t))
        with pytest.raises(ContractViolationError):
            opt.step(bad_net, bad_grads)
        for n, arrays, version in zip(nets, before, versions):
            assert all(np.array_equal(a, b) for a, b in zip(net_arrays(n), arrays))
            assert n.version == version
        if state is None:
            assert opt._flat is None
        else:
            assert opt._flat is flat
            assert np.array_equal(flat.m, state[0])
            assert np.array_equal(flat.v, state[1])
            assert flat.t == state[2]
        opt.step(net, grads_for(net, 500))
        twin.step(twin_net, grads_for(twin_net, 500))
        for got, want in zip(net_arrays(net), net_arrays(twin_net)):
            assert np.array_equal(got, want)
        for name in ("m", "v", "t"):
            assert np.array_equal(getattr(opt._flat, name), getattr(twin._flat, name))

    @pytest.mark.parametrize("steps_before", [0, 3])
    @pytest.mark.parametrize("case", GRADIENT_CASES)
    def test_bad_gradients(self, case, steps_before):
        self.check(steps_before,
                   lambda net: (net, GRADIENT_CASES[case](grads_for(net, 400))))

    @pytest.mark.parametrize("case", NETWORK_CASES)
    def test_other_network(self, case):
        def bad_call(net):
            other = NETWORK_CASES[case](net)
            return other, grads_for(other, 400)

        self.check(3, bad_call)


@pytest.mark.parametrize("shape", [(1, 1), (3, 5), (64, 64), (4, 1000)])
def test_fused_loss_bitwise(shape):
    rng = np.random.default_rng(sum(shape))
    for scale in (1e-6, 1.0, 1e6):
        pred = scale * rng.standard_normal(shape)
        target = rng.standard_normal(shape)
        d = pred - target
        loss, grad = mse_loss_and_gradient(pred, target)
        assert repr(loss) == repr(float(np.mean(d * d)))
        assert np.array_equal(grad, 2 * d / d.size)
        assert repr(mse_loss(pred, target)) == repr(loss)
        assert np.array_equal(mse_loss_gradient(pred, target), grad)


def test_fused_loss_shape_mismatch():
    with pytest.raises(ShapeError):
        mse_loss_and_gradient(np.zeros((2, 3)), np.zeros((3, 2)))
