"""Column-batched MLP on adapter layers, with hand-written gradients.

Inputs are d x batch matrices (one sample per column). forward returns the
output together with a cache holding, per layer, the record its adapter's
forward_cached returned plus the pre-activation "z"; backward hands each
record back to its adapter and produces gradients for trainable parameters
only. Layers never branch on their adapter's kind (see rosa.adapters).
The cache carries its network and that network's version counter, and any
parameter mutation is expected to bump it, so gradients can never be
computed from stale activations or from another network's.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .adapters import Adapter, full_init
from .errors import ContractViolationError, InvalidInputError, ShapeError
from .linalg import Array


class Activation(Enum):
    IDENTITY = "identity"
    RELU = "relu"

    def apply(self, z: Array) -> Array:
        if self is Activation.RELU:
            return np.maximum(z, 0.0)
        return z


@dataclass
class DenseLayer:
    adapter: Adapter
    bias: Array
    activation: Activation

    @property
    def out_dim(self) -> int:
        return self.adapter.shape[0]

    @property
    def in_dim(self) -> int:
        return self.adapter.shape[1]


@dataclass
class Mlp:
    layers: list[DenseLayer]
    version: int = 0

    def __post_init__(self):
        if not self.layers:
            raise InvalidInputError("an Mlp needs at least one layer")

    @property
    def in_dim(self) -> int:
        return self.layers[0].in_dim

    @property
    def out_dim(self) -> int:
        return self.layers[-1].out_dim

    def bump(self) -> None:
        """Mark parameters as changed, invalidating outstanding caches."""
        self.version += 1

    def copy(self) -> "Mlp":
        return copy.deepcopy(self)


@dataclass
class ForwardCache:
    net: Mlp
    version: int
    records: list[dict[str, Array]]


@dataclass
class GradientSet:
    """Per-layer gradients, keyed like each adapter's trainable_arrays plus 'bias'."""

    layers: list[dict[str, Array]]


def build_mlp(dims: list[int], rng: np.random.Generator) -> Mlp:
    """Fully-trainable MLP with He-scaled Gaussian weights and zero biases.

    Hidden layers use ReLU; the last layer is linear.
    """
    if len(dims) < 2:
        raise InvalidInputError(f"need at least input and output dims, got {dims}")
    layers = []
    for i in range(len(dims) - 1):
        fan_in, fan_out = dims[i], dims[i + 1]
        w = rng.normal(0.0, np.sqrt(2.0 / fan_in), size=(fan_out, fan_in))
        act = Activation.RELU if i < len(dims) - 2 else Activation.IDENTITY
        layers.append(DenseLayer(adapter=full_init(w), bias=np.zeros(fan_out),
                                 activation=act))
    return Mlp(layers=layers)


def forward(net: Mlp, x) -> tuple[Array, ForwardCache]:
    """Run the network on a d x batch input; also return the backward cache."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise InvalidInputError(f"input must be 2-D (features x batch), got ndim={x.ndim}")
    if x.shape[0] != net.in_dim:
        raise ShapeError("input rows do not match network input dim",
                         (net.in_dim, -1), x.shape)
    if not np.all(np.isfinite(x)):
        raise InvalidInputError("input contains non-finite entries")
    records = []
    h = x
    for layer in net.layers:
        out, rec = layer.adapter.forward_cached(h)
        z = out + layer.bias[:, None]
        rec["z"] = z
        records.append(rec)
        h = layer.activation.apply(z)
    return h, ForwardCache(net=net, version=net.version, records=records)


def predict(net: Mlp, x) -> Array:
    out, _ = forward(net, x)
    return out


def mse_loss(pred, target) -> float:
    """Mean squared error over all entries of the batch."""
    return mse_loss_and_gradient(np.asarray(pred, dtype=np.float64),
                                 np.asarray(target, dtype=np.float64))[0]


def mse_loss_gradient(pred, target) -> Array:
    """Gradient of mse_loss with respect to pred: 2 (pred - target) / size."""
    return mse_loss_and_gradient(np.asarray(pred, dtype=np.float64),
                                 np.asarray(target, dtype=np.float64))[1]


def mse_loss_and_gradient(pred: Array, target: Array) -> tuple[float, Array]:
    """mse_loss and mse_loss_gradient of two arrays from one difference."""
    if pred.shape != target.shape:
        raise ShapeError("prediction and target shapes differ",
                         pred.shape, target.shape)
    diff = pred - target
    # The reduction np.mean makes, without its Python-level wrapper.
    loss = float(np.add.reduce(diff * diff, axis=None) / diff.size)
    return loss, 2.0 * diff / pred.size


def backward(net: Mlp, cache: ForwardCache, output_grad) -> GradientSet:
    """Reverse-mode gradients for every trainable parameter.

    output_grad is the loss gradient with respect to the network output,
    shaped like that output. Frozen arrays get no gradient entry at all,
    and no gradient with respect to the network input is computed: the
    first layer stops at its parameter gradients.
    """
    if cache.net is not net:
        raise ContractViolationError("forward cache belongs to another network")
    if cache.version != net.version:
        raise ContractViolationError(
            f"forward cache is stale: cache version {cache.version}, "
            f"network version {net.version}"
        )
    if len(cache.records) != len(net.layers):
        raise ContractViolationError(
            f"cache has {len(cache.records)} layer records for "
            f"{len(net.layers)} layers"
        )
    g = np.asarray(output_grad, dtype=np.float64)
    last_z = cache.records[-1]["z"]
    if g.shape != last_z.shape:
        raise ShapeError("output gradient does not match network output",
                         last_z.shape, g.shape)
    per_layer: list[dict[str, Array] | None] = [None] * len(net.layers)
    for i in reversed(range(len(net.layers))):
        layer = net.layers[i]
        rec = cache.records[i]
        z = rec["z"]
        if layer.activation is Activation.RELU:
            dz = g * (z > 0.0)
        else:
            dz = g
        grads, g = layer.adapter.backward(rec, dz, i > 0)
        grads["bias"] = dz.sum(axis=1)
        per_layer[i] = grads
    return GradientSet(layers=per_layer)  # type: ignore[arg-type]
