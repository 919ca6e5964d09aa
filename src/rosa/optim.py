"""First-order optimizers over a network's trainable parameters.

Both optimizers walk the GradientSet produced by backward, update the
matching adapter arrays in place, and bump the network version so stale
caches are rejected. AdamW keeps its moments for the whole network in one
flat vector each, laid out per (layer index, parameter name) at the first
step; a key's slice and step count can be reset when that layer's
trainable subspace is re-sampled.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ContractViolationError, InvalidInputError
from .linalg import Array
from .network import GradientSet, Mlp


def _aligned_items(net: Mlp, grads: GradientSet) -> list[tuple[tuple[int, str], Array, Array]]:
    """(key, param, grad) triples in gradient order; raises on any mismatch.

    A layer's gradient keys equal its trainable keys plus 'bias' when there
    are as many of them and each one names a trainable array.
    """
    if len(grads.layers) != len(net.layers):
        raise ContractViolationError(
            f"gradient set covers {len(grads.layers)} layers, "
            f"network has {len(net.layers)}"
        )
    items = []
    for i, (layer, layer_grads) in enumerate(zip(net.layers, grads.layers)):
        params = layer.adapter.trainable_arrays()
        if len(layer_grads) != len(params) + 1:
            raise _key_mismatch(i, layer_grads, params)
        for name, g in layer_grads.items():
            p = layer.bias if name == "bias" else params.get(name)
            if p is None:
                raise _key_mismatch(i, layer_grads, params)
            if p.shape != g.shape:
                raise ContractViolationError(
                    f"layer {i} parameter '{name}': shape {p.shape} "
                    f"vs gradient {g.shape}"
                )
            items.append(((i, name), p, g))
    return items


def _key_mismatch(i: int, layer_grads: dict, params: dict) -> ContractViolationError:
    return ContractViolationError(
        f"layer {i}: gradient keys {sorted(layer_grads)} do not match "
        f"trainable keys {sorted([*params, 'bias'])}"
    )


@dataclass
class Sgd:
    learning_rate: float

    def __post_init__(self):
        if not self.learning_rate > 0.0:
            raise InvalidInputError(f"learning_rate must be > 0, got {self.learning_rate}")

    def step(self, net: Mlp, grads: GradientSet) -> None:
        for _, p, g in _aligned_items(net, grads):
            p -= self.learning_rate * g
        net.bump()


@dataclass
class _FlatState:
    """AdamW state for a whole network: one flat vector per quantity.

    layout holds (layer, name, shape, slice) per key in the first step's
    gradient order; t holds each key's step count. g, s and u are scratch
    for the flat gradient, a temporary and the update; u_views are u's
    per-key slices shaped like the parameters.
    """

    layout: tuple
    index: dict
    t: list
    sizes: Array
    m: Array
    v: Array
    g: Array
    s: Array
    u: Array
    u_views: list

    @classmethod
    def allocate(cls, items) -> "_FlatState":
        layout, start = [], 0
        for (i, name), _, g in items:
            layout.append((i, name, g.shape, slice(start, start + g.size)))
            start += g.size
        u = np.zeros(start)
        return cls(
            layout=tuple(layout),
            index={(i, name): k for k, (i, name, _, _) in enumerate(layout)},
            t=[0] * len(layout),
            sizes=np.array([sl.stop - sl.start for *_, sl in layout]),
            m=np.zeros(start), v=np.zeros(start), g=np.zeros(start),
            s=np.zeros(start), u=u,
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
    trainable array; each array keeps its own step count for the bias
    correction. One optimizer serves one network: a later step whose
    parameters differ from that layout raises ContractViolationError.
    """

    learning_rate: float
    beta1: float = 0.9
    beta2: float = 0.98
    epsilon: float = 1e-6
    weight_decay: float = 0.0
    _flat: _FlatState | None = field(default=None, init=False, repr=False,
                                     compare=False)

    def __post_init__(self):
        if not self.learning_rate > 0.0:
            raise InvalidInputError(f"learning_rate must be > 0, got {self.learning_rate}")
        for name in ("beta1", "beta2"):
            value = getattr(self, name)
            if not 0.0 <= value < 1.0:
                raise InvalidInputError(f"{name} must be in [0, 1), got {value}")
        if not self.epsilon > 0.0:
            raise InvalidInputError(f"epsilon must be > 0, got {self.epsilon}")
        if self.weight_decay < 0.0:
            raise InvalidInputError(f"weight_decay must be >= 0, got {self.weight_decay}")

    def _corrections(self, st: _FlatState):
        """(1 - beta1**t, 1 - beta2**t): scalars when every key shares t,
        else one value per flat element."""
        ts = st.t
        if ts.count(ts[0]) == len(ts):
            return 1.0 - self.beta1 ** ts[0], 1.0 - self.beta2 ** ts[0]
        return (np.array([1.0 - self.beta1 ** t for t in ts]).repeat(st.sizes),
                np.array([1.0 - self.beta2 ** t for t in ts]).repeat(st.sizes))

    # step and reset_moments stay defined on this class: perfbench/spans.py wraps them here.
    def step(self, net: Mlp, grads: GradientSet) -> None:
        items = _aligned_items(net, grads)
        if self._flat is None:
            self._flat = _FlatState.allocate(items)
        st = self._flat
        if len(items) != len(st.layout):
            raise ContractViolationError(
                f"step has {len(items)} parameters, optimizer layout has "
                f"{len(st.layout)}; one optimizer serves one network"
            )
        params = [None] * len(st.layout)
        flat_grads = [None] * len(st.layout)
        for key, p, g in items:
            k = st.index.get(key)
            if k is None or st.layout[k][2] != g.shape:
                raise ContractViolationError(
                    f"parameter {key} with shape {g.shape} is not in the "
                    f"optimizer layout; one optimizer serves one network"
                )
            params[k] = p
            flat_grads[k] = g
        st.t = [t + 1 for t in st.t]
        c1, c2 = self._corrections(st)
        m, v, g, s, u = st.m, st.v, st.g, st.s, st.u
        b1, b2, lr = self.beta1, self.beta2, self.learning_rate
        np.concatenate(flat_grads, axis=None, out=g)
        # Element by element: m = b1*m + (1-b1)*g, v = b2*v + (1-b2)*(g*g),
        # u = (lr*(m/c1)) / (sqrt(v/c2) + eps).
        m *= b1
        m += np.multiply(g, 1.0 - b1, out=s)
        v *= b2
        np.multiply(g, g, out=s)
        s *= 1.0 - b2
        v += s
        np.divide(m, c1, out=s)
        s *= lr
        np.divide(v, c2, out=u)
        np.sqrt(u, out=u)
        u += self.epsilon
        np.divide(s, u, out=u)
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
        for name in names:
            k = None if st is None else st.index.get((layer_index, name))
            if k is not None:
                sl = st.layout[k][3]
                st.m[sl] = 0.0
                st.v[sl] = 0.0
                st.t[k] = 0
