from dataclasses import dataclass

import numpy as np
import pytest

from rosa.adapters import full_init, ia3_init, lora_init, rosa_init
from rosa.errors import ContractViolationError, InvalidInputError, ShapeError
from rosa.network import (
    Activation,
    DenseLayer,
    Mlp,
    backward,
    build_mlp,
    forward,
    mse_loss,
    mse_loss_gradient,
    predict,
)
from rosa.optim import AdamW

from oracles import dense_forward, finite_difference_gradients


def rng_for(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def mixed_net(seed: int) -> Mlp:
    """4 -> 6 -> 5 -> 3 net with a different adapter on every layer."""
    rng = rng_for(seed)
    dims = [(6, 4), (5, 6), (3, 5)]
    builders = [
        lambda w: rosa_init(w, rank=2, rng=rng),
        lambda w: lora_init(w, rank=2, rng=rng),
        lambda w: ia3_init(w),
    ]
    layers = []
    for i, ((out_d, in_d), build) in enumerate(zip(dims, builders)):
        w = rng.standard_normal((out_d, in_d))
        act = Activation.RELU if i < 2 else Activation.IDENTITY
        layers.append(DenseLayer(adapter=build(w),
                                 bias=0.1 * rng.standard_normal(out_d),
                                 activation=act))
    return Mlp(layers=layers)


def perturb_all(net: Mlp, seed: int, scale: float = 0.3) -> None:
    rng = rng_for(seed)
    for layer in net.layers:
        for arr in layer.adapter.trainable_arrays().values():
            arr += scale * rng.standard_normal(arr.shape)
        layer.bias += scale * rng.standard_normal(layer.bias.shape)


class TestBuildMlp:
    def test_dims_and_activations(self):
        net = build_mlp([4, 8, 8, 2], rng_for(0))
        assert net.in_dim == 4
        assert net.layers[-1].out_dim == 2
        assert [l.activation for l in net.layers] == [
            Activation.RELU, Activation.RELU, Activation.IDENTITY]

    def test_zero_biases(self):
        net = build_mlp([3, 5, 2], rng_for(1))
        assert all(not l.bias.any() for l in net.layers)

    def test_too_few_dims(self):
        with pytest.raises(InvalidInputError):
            build_mlp([7], rng_for(2))

    def test_no_layers_rejected(self):
        with pytest.raises(InvalidInputError, match="at least one layer"):
            Mlp(layers=[])

    def test_he_scale(self):
        net = build_mlp([200, 300], rng_for(3))
        w = net.layers[0].adapter.w
        assert w.std() == pytest.approx(np.sqrt(2.0 / 200), rel=0.05)


class TestForward:
    def test_matches_dense_materialization(self):
        net = mixed_net(4)
        perturb_all(net, 5)
        x = rng_for(6).standard_normal((4, 11))
        got, _ = forward(net, x)
        assert np.allclose(got, dense_forward(net, x), atol=1e-12)

    def test_predict_equals_forward_output(self):
        net = mixed_net(7)
        x = rng_for(8).standard_normal((4, 3))
        assert np.array_equal(predict(net, x), forward(net, x)[0])

    def test_relu_clamps(self):
        layer = DenseLayer(adapter=full_init(np.array([[1.0]])),
                           bias=np.zeros(1), activation=Activation.RELU)
        net = Mlp(layers=[layer])
        out, _ = forward(net, np.array([[-2.0, 3.0]]))
        assert np.array_equal(out, [[0.0, 3.0]])

    def test_wrong_rows_rejected(self):
        with pytest.raises(ShapeError):
            forward(mixed_net(9), np.ones((5, 2)))

    def test_nonfinite_input_rejected(self):
        with pytest.raises(InvalidInputError):
            forward(mixed_net(10), np.full((4, 2), np.nan))


class TestLoss:
    def test_zero_at_match(self):
        p = rng_for(11).standard_normal((3, 4))
        assert mse_loss(p, p.copy()) == 0.0

    def test_hand_value(self):
        pred = np.array([[1.0, 2.0]])
        target = np.zeros((1, 2))
        assert mse_loss(pred, target) == pytest.approx(2.5)

    def test_gradient_matches_difference_quotient(self):
        pred = rng_for(12).standard_normal((2, 3))
        target = rng_for(13).standard_normal((2, 3))
        g = mse_loss_gradient(pred, target)
        h = 1e-6
        bump = np.zeros_like(pred)
        bump[1, 2] = h
        fd = (mse_loss(pred + bump, target) - mse_loss(pred - bump, target)) / (2 * h)
        assert g[1, 2] == pytest.approx(fd, rel=1e-6)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            mse_loss(np.ones((2, 2)), np.ones((2, 3)))


def relu_margin(net: Mlp, x) -> float:
    """Smallest |pre-activation| in the hidden layers.

    Finite differences cross the kink when this is comparable to the probe
    step, so data draws keep a healthy margin.
    """
    _, cache = forward(net, x)
    margins = []
    for layer, rec in zip(net.layers, cache.records):
        if layer.activation is Activation.RELU:
            margins.append(float(np.abs(rec["z"]).min()))
    return min(margins) if margins else np.inf


def draw_clear_of_kinks(net: Mlp, in_dim: int, cols: int, seed: int,
                        margin: float = 1e-3):
    """Deterministically find an input batch with no pre-activation near zero."""
    for attempt in range(50):
        x = rng_for(seed + 1000 * attempt).standard_normal((in_dim, cols))
        if relu_margin(net, x) > margin:
            return x
    raise AssertionError("no kink-free batch found; widen the search")


class TestBackwardAgainstFiniteDifferences:
    def check(self, net: Mlp, x, y, rel: float = 1e-6):
        pred, cache = forward(net, x)
        grads = backward(net, cache, mse_loss_gradient(pred, y))
        ref = finite_difference_gradients(net, x, y)
        assert len(grads.layers) == len(ref)
        for got, want in zip(grads.layers, ref):
            assert set(got) == set(want)
            for name in got:
                scale = max(np.linalg.norm(want[name]), 1e-8)
                err = np.linalg.norm(got[name] - want[name]) / scale
                assert err <= rel, f"{name}: rel err {err:.2e}"

    @pytest.mark.parametrize("method", ["rosa", "lora", "ia3", "ft"])
    def test_single_method_net(self, method):
        rng = rng_for(20)
        layers = []
        for out_d, in_d, act in [(6, 4, Activation.RELU),
                                 (3, 6, Activation.IDENTITY)]:
            w = rng.standard_normal((out_d, in_d))
            if method == "rosa":
                ad = rosa_init(w, rank=2, rng=rng)
            elif method == "lora":
                ad = lora_init(w, rank=2, rng=rng)
            elif method == "ia3":
                ad = ia3_init(w)
            else:
                ad = full_init(w)
            layers.append(DenseLayer(adapter=ad,
                                     bias=0.1 * rng.standard_normal(out_d),
                                     activation=act))
        net = Mlp(layers=layers)
        perturb_all(net, 21, scale=0.2)
        x = draw_clear_of_kinks(net, 4, 5, seed=22)
        y = rng_for(23).standard_normal((3, 5))
        self.check(net, x, y)

    def test_mixed_net(self):
        net = mixed_net(24)
        perturb_all(net, 25, scale=0.2)
        x = draw_clear_of_kinks(net, 4, 6, seed=26)
        y = rng_for(27).standard_normal((3, 6))
        self.check(net, x, y)

    def test_lora_a_gradient_zero_at_init(self):
        # With b = 0 the correction path contributes nothing, so a's
        # gradient vanishes identically on the first backward pass.
        rng = rng_for(28)
        w = rng.standard_normal((4, 4))
        net = Mlp(layers=[DenseLayer(adapter=lora_init(w, rank=2, rng=rng),
                                     bias=np.zeros(4),
                                     activation=Activation.IDENTITY)])
        x = rng.standard_normal((4, 5))
        y = rng.standard_normal((4, 5))
        pred, cache = forward(net, x)
        grads = backward(net, cache, mse_loss_gradient(pred, y))
        assert not grads.layers[0]["a"].any()
        assert grads.layers[0]["b"].any()


class TestCacheDiscipline:
    def test_stale_cache_rejected(self):
        net = mixed_net(30)
        x = rng_for(31).standard_normal((4, 3))
        y = rng_for(32).standard_normal((3, 3))
        pred, cache = forward(net, x)
        grads = backward(net, cache, mse_loss_gradient(pred, y))
        AdamW(net, 0.1).step(net, grads)
        with pytest.raises(ContractViolationError):
            backward(net, cache, mse_loss_gradient(pred, y))

    def test_fresh_cache_accepted_after_step(self):
        net = mixed_net(33)
        x = rng_for(34).standard_normal((4, 3))
        y = rng_for(35).standard_normal((3, 3))
        pred, cache = forward(net, x)
        AdamW(net, 0.1).step(net, backward(net, cache, mse_loss_gradient(pred, y)))
        pred2, cache2 = forward(net, x)
        backward(net, cache2, mse_loss_gradient(pred2, y))

    def test_cache_of_another_net_rejected(self):
        # A copy has the same version, so only the net itself tells them apart.
        net = mixed_net(42)
        x = rng_for(43).standard_normal((4, 3))
        y = rng_for(44).standard_normal((3, 3))
        pred, cache = forward(net, x)
        other = net.copy()
        other.layers[0].bias += 1.0
        assert other.version == net.version
        with pytest.raises(ContractViolationError):
            backward(other, cache, mse_loss_gradient(pred, y))
        backward(net, cache, mse_loss_gradient(pred, y))

    def test_output_grad_shape_checked(self):
        net = mixed_net(36)
        _, cache = forward(net, rng_for(37).standard_normal((4, 3)))
        with pytest.raises(ShapeError):
            backward(net, cache, np.ones((3, 9)))


class TestCopy:
    def test_copy_is_deep(self):
        net = mixed_net(38)
        dup = net.copy()
        dup.layers[0].adapter.a += 1.0
        dup.layers[0].bias += 1.0
        x = rng_for(39).standard_normal((4, 2))
        assert not np.allclose(predict(net, x), predict(dup, x))

    def test_copy_preserves_outputs(self):
        net = mixed_net(40)
        x = rng_for(41).standard_normal((4, 2))
        assert np.array_equal(predict(net, x), predict(net.copy(), x))


@dataclass
class ColumnScale:
    """A test-local fifth adapter kind: frozen w times a trainable scale per
    input unit. It implements only the protocol that forward, backward and
    the optimizer use, and nothing in rosa knows it."""

    w: np.ndarray
    s: np.ndarray

    @property
    def shape(self):
        return self.w.shape

    def forward_cached(self, x):
        return self.w @ (self.s[:, None] * x), {"x": x}

    def backward(self, rec, dz, need_dx):
        wt_dz = self.w.T @ dz
        grads = {"s": (wt_dz * rec["x"]).sum(axis=1)}
        return grads, self.s[:, None] * wt_dz if need_dx else None

    def trainable_arrays(self):
        return {"s": self.s}


def column_scale_net(seed: int) -> Mlp:
    """4 -> 6 -> 5 -> 3: a rosa layer, then two ColumnScale layers."""
    rng = rng_for(seed)
    layers = [DenseLayer(adapter=rosa_init(rng.standard_normal((6, 4)), rank=2,
                                           rng=rng),
                         bias=0.1 * rng.standard_normal(6),
                         activation=Activation.RELU)]
    for (out_d, in_d), act in [((5, 6), Activation.RELU),
                               ((3, 5), Activation.IDENTITY)]:
        ad = ColumnScale(w=rng.standard_normal((out_d, in_d)),
                         s=1.0 + 0.2 * rng.standard_normal(in_d))
        layers.append(DenseLayer(adapter=ad, bias=0.1 * rng.standard_normal(out_d),
                                 activation=act))
    return Mlp(layers=layers)


class TestAdapterProtocol:
    def test_new_kind_gradients_match_finite_differences(self):
        net = column_scale_net(60)
        x = draw_clear_of_kinks(net, 4, 6, seed=61)
        y = rng_for(62).standard_normal((3, 6))
        TestBackwardAgainstFiniteDifferences().check(net, x, y)

    def test_new_kind_trains_with_adamw(self):
        net = column_scale_net(63)
        x = rng_for(64).standard_normal((4, 32))
        y = rng_for(65).standard_normal((3, 32))
        start = [layer.adapter.s.copy() for layer in net.layers[1:]]
        opt = AdamW(net, learning_rate=1e-2)
        losses = []
        for _ in range(200):
            pred, cache = forward(net, x)
            losses.append(mse_loss(pred, y))
            opt.step(net, backward(net, cache, mse_loss_gradient(pred, y)))
        assert losses[-1] < 0.5 * losses[0]
        for layer, before in zip(net.layers[1:], start):
            assert not np.array_equal(layer.adapter.s, before)
