"""AdamW over a network's trainable parameters.

AdamW updates a network's trainable adapter arrays and biases in place
from the GradientSet produced by backward, and bumps the network version
so stale caches are rejected. It keeps its moments for the whole network
in one flat vector each. The first step fixes their layout from the
network: each layer's trainable arrays in protocol order, then every bias.
Each step checks the network and its gradients against that layout and
gathers them in one pass. A key's slice and step count are reset when
that layer's trainable subspace is re-sampled.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ContractViolationError, InvalidInputError
from .linalg import Array
from .network import GradientSet, Mlp


@dataclass
class _FlatState:
    """AdamW state for a whole network: one flat vector per quantity.

    layout holds (layer, name, shape, slice) per key: every layer's
    trainable arrays in protocol order, then every layer's bias, so the
    keys a factorize event resets lie next to each other. layers is the
    network's layer count; t holds each key's step count. g and u are
    scratch, g for the flat gradient and u for the update; u_views are u's
    per-key slices shaped like the parameters.
    """

    layout: tuple
    layers: int
    t: list
    m: Array
    v: Array
    g: Array
    u: Array
    u_views: list

    @classmethod
    def allocate(cls, net: Mlp) -> "_FlatState":
        keys = [(i, name, p) for i, layer in enumerate(net.layers)
                for name, p in layer.adapter.trainable_arrays().items()]
        keys += [(i, "bias", layer.bias) for i, layer in enumerate(net.layers)]
        layout, start = [], 0
        for i, name, p in keys:
            layout.append((i, name, p.shape, slice(start, start + p.size)))
            start += p.size
        u = np.zeros(start)
        return cls(
            layout=tuple(layout), layers=len(net.layers), t=[0] * len(layout),
            m=np.zeros(start), v=np.zeros(start), g=np.zeros(start), u=u,
            u_views=[u[sl].reshape(shape) for _, _, shape, sl in layout],
        )


@dataclass
class AdamW:
    """Adam with decoupled weight decay and bias-corrected moments.

    Decay is applied directly to the parameter (p *= 1 - lr * wd) before
    the Adam update, so it never enters the moment estimates. With
    beta1 = beta2 = 0 and weight_decay = 0 a step reduces to plain SGD
    scaled by g / (|g| + epsilon).

    The first step fixes the layout of one flat moment pair over every
    trainable array of the network; each array keeps its own step count for
    the bias correction. One optimizer serves one network: a step whose
    network or gradients differ from that layout raises
    ContractViolationError before anything changes.
    """

    learning_rate: float
    beta1: float = 0.9
    beta2: float = 0.98
    epsilon: float = 1e-6
    weight_decay: float = 0.0
    _flat: _FlatState | None = field(default=None, init=False, repr=False,
                                     compare=False)

    def __post_init__(self):
        for name in ("learning_rate", "epsilon"):
            value = getattr(self, name)
            if not 0.0 < value < np.inf:
                raise InvalidInputError(f"{name} must be finite and > 0, got {value}")
        for name in ("beta1", "beta2"):
            value = getattr(self, name)
            if not 0.0 <= value < 1.0:
                raise InvalidInputError(f"{name} must be in [0, 1), got {value}")
        if not 0.0 <= self.weight_decay < np.inf:
            raise InvalidInputError(
                f"weight_decay must be finite and >= 0, got {self.weight_decay}")

    # step and reset_moments stay defined on this class: perfbench/spans.py wraps them here.
    def step(self, net: Mlp, grads: GradientSet) -> None:
        st = self._flat or _FlatState.allocate(net)
        if not len(grads.layers) == len(net.layers) == st.layers:
            raise ContractViolationError(
                f"gradient set covers {len(grads.layers)} layers, network has "
                f"{len(net.layers)}, optimizer layout has {st.layers}"
            )
        arrays = [{**layer.adapter.trainable_arrays(), "bias": layer.bias}
                  for layer in net.layers]
        params, flat_grads = [], []
        for i, name, shape, _ in st.layout:
            p, g = arrays[i].get(name), grads.layers[i].get(name)
            if p is None or g is None or not p.shape == g.shape == shape:
                raise ContractViolationError(
                    f"layer {i} '{name}': parameter {getattr(p, 'shape', 'missing')}, "
                    f"gradient {getattr(g, 'shape', 'missing')}, optimizer layout "
                    f"{shape}; one optimizer serves one network"
                )
            params.append(p)
            flat_grads.append(g)
        # Every layout key was found in both, so equal counts mean equal keys.
        n = len(st.layout)
        if sum(map(len, arrays)) != n or sum(map(len, grads.layers)) != n:
            raise ContractViolationError(
                f"trainable keys {[sorted(a) for a in arrays]} and gradient keys "
                f"{[sorted(g) for g in grads.layers]} do not both match the "
                f"optimizer layout's {n} keys; one optimizer serves one network"
            )
        self._flat = st
        st.t = ts = [t + 1 for t in st.t]
        m, v, g, u = st.m, st.v, st.g, st.u
        b1, b2, lr = self.beta1, self.beta2, self.learning_rate
        np.concatenate(flat_grads, axis=None, out=g)
        # Element by element: m = b1*m + (1-b1)*g, v = b2*v + (1-b2)*(g*g),
        # u = (lr*(m/c1)) / (sqrt(v/c2) + eps), with the bias corrections
        # c1 = 1 - b1**t and c2 = 1 - b2**t taken per run of adjacent keys
        # that share a step count t. u is scratch for the moment updates;
        # once m and v have read g, g holds lr*(m/c1).
        m *= b1
        m += np.multiply(g, 1.0 - b1, out=u)
        v *= b2
        np.multiply(g, g, out=u)
        u *= 1.0 - b2
        v += u
        start = 0
        for k, t in enumerate(ts):
            if k + 1 < len(ts) and ts[k + 1] == t:
                continue
            run = slice(start, st.layout[k][3].stop)
            np.divide(m[run], 1.0 - b1 ** t, out=g[run])
            np.divide(v[run], 1.0 - b2 ** t, out=u[run])
            start = run.stop
        g *= lr
        np.sqrt(u, out=u)
        u += self.epsilon
        np.divide(g, u, out=u)
        decay = 1.0 - lr * self.weight_decay
        for p, update in zip(params, st.u_views):
            if self.weight_decay > 0.0:
                p *= decay
            p -= update
        net.bump()

    def reset_moments(self, layer_index: int, names: tuple[str, ...]) -> None:
        """Zero the moments and step count of the named parameters of one layer.

        Used when a subspace re-sample makes the accumulated statistics
        meaningless. Unknown keys are ignored (nothing accumulated yet).
        """
        st = self._flat
        for k, (i, name, _, sl) in enumerate(st.layout if st else ()):
            if i == layer_index and name in names:
                st.m[sl] = 0.0
                st.v[sl] = 0.0
                st.t[k] = 0
