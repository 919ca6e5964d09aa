"""Plain-NumPy floors and computed operation counts.

A floor is the same arithmetic as a package call, written as straight-line
NumPy with no validation, dataclasses or dict bookkeeping. The package's
time over the floor is what its Python layers cost.

Operation counts are computed from array shapes, not measured: matrix
products count 2*m*k*n flops, element-wise work is left out of the network
counts, AdamW counts 12 flops per trainable element, and SVD uses the
Golub-Van Loan estimates for the thin R-SVD. Bytes assume every array is
read or written once, eight bytes per float64 entry.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

ADAMW_FLOPS_PER_ELEMENT = 12
ADAMW_BYTES_PER_ELEMENT = 7 * 8  # read p, g, m, v; write p, m, v


def layer_forward_flops(kind: str, m: int, n: int, r: int, cols: int) -> int:
    flops = 2 * m * n * cols
    if kind in ("RosaAdapter", "LoraAdapter"):
        flops += 2 * r * n * cols + 2 * m * r * cols
    return flops


def layer_backward_flops(kind: str, m: int, n: int, r: int, cols: int) -> int:
    if kind in ("RosaAdapter", "LoraAdapter"):
        return 2 * m * n * cols + 4 * m * r * cols + 6 * n * r * cols
    return 4 * m * n * cols


def _layer_weight_entries(kind: str, m: int, n: int, r: int) -> int:
    if kind in ("RosaAdapter", "LoraAdapter"):
        return m * n + r * (m + n)
    return m * n


def forward_flops(shape) -> int:
    cols, layers = shape
    return sum(layer_forward_flops(k, m, n, r, cols) for k, m, n, r in layers)


def backward_flops(shape) -> int:
    cols, layers = shape
    return sum(layer_backward_flops(k, m, n, r, cols) for k, m, n, r in layers)


def forward_bytes(shape) -> int:
    """Weights and input read, pre-activation and activation written."""
    cols, layers = shape
    return 8 * sum(_layer_weight_entries(k, m, n, r) + n * cols + 2 * m * cols
                   for k, m, n, r in layers)


def backward_bytes(shape) -> int:
    """Upstream gradient, cached input and pre-activation and weights read;
    parameter gradients and the input gradient written."""
    cols, layers = shape
    total = 0
    for k, m, n, r in layers:
        trainable = (r * (m + n) if k in ("RosaAdapter", "LoraAdapter")
                     else m * n) + m
        total += (2 * m * cols + n * cols + _layer_weight_entries(k, m, n, r)
                  + trainable + n * cols)
    return 8 * total


def svd_flops(m: int, n: int) -> int:
    """Thin SVD with both factors, R-SVD estimate 6 m n^2 + 20 n^3 (m >= n)."""
    m, n = max(m, n), min(m, n)
    return 6 * m * n * n + 20 * n ** 3


def svd_bytes(m: int, n: int) -> int:
    """Input read; u, sigma and v written."""
    k = min(m, n)
    return 8 * (m * n + m * k + k + n * k)


def _median_time(fn, repeats: int = 7, block_s: float = 0.02) -> float:
    """Median over `repeats` blocks of about `block_s` seconds of the mean
    time of one call."""
    start = perf_counter()
    fn()
    inner = max(1, int(block_s / (perf_counter() - start)))
    blocks = []
    for _ in range(repeats):
        start = perf_counter()
        for _ in range(inner):
            fn()
        blocks.append((perf_counter() - start) / inner)
    return statistics.median(blocks)


def _step_fn(dims: tuple[int, ...], rank: int | None, cols: int, seed: int):
    """Straight-line forward, loss, backward and in-place AdamW for an MLP
    with ReLU hidden layers. rank None trains full matrices; otherwise each
    layer trains a rank-`rank` pair a @ b on top of a frozen host matrix."""
    rng = np.random.default_rng(seed)
    hosts, params = [], []
    for n, m in zip(dims[:-1], dims[1:]):
        w = rng.normal(0.0, np.sqrt(2.0 / n), size=(m, n))
        if rank is None:
            hosts.append(None)
            params.append([w, np.zeros(m)])
        else:
            hosts.append(w)
            params.append([rng.normal(0.0, 0.1, size=(m, rank)),
                           rng.normal(0.0, 0.1, size=(rank, n)), np.zeros(m)])
    moments = [[(np.zeros_like(p), np.zeros_like(p)) for p in layer]
               for layer in params]
    x = rng.normal(size=(dims[0], cols))
    y = rng.normal(size=(dims[-1], cols))
    last = len(params) - 1
    lr, b1, b2, eps = 1e-6, 0.9, 0.98, 1e-6
    t = 0

    def step():
        nonlocal t
        xs, zs = [], []
        h = x
        for i, (host, layer) in enumerate(zip(hosts, params)):
            xs.append(h)
            if host is None:
                z = layer[0] @ h + layer[1][:, None]
            else:
                z = host @ h + layer[0] @ (layer[1] @ h) + layer[2][:, None]
            zs.append(z)
            h = np.maximum(z, 0.0) if i < last else z
        diff = h - y
        float(np.mean(diff * diff))
        g = 2.0 * diff / diff.size
        grads = [None] * len(params)
        for i in range(last, -1, -1):
            dz = g * (zs[i] > 0.0) if i < last else g
            host, layer, x_in = hosts[i], params[i], xs[i]
            if host is None:
                grads[i] = [dz @ x_in.T, dz.sum(axis=1)]
                g = layer[0].T @ dz
            else:
                a, b = layer[0], layer[1]
                at_dz = a.T @ dz
                grads[i] = [dz @ (b @ x_in).T, at_dz @ x_in.T, dz.sum(axis=1)]
                g = host.T @ dz + b.T @ at_dz
        t += 1
        c1, c2 = 1.0 - b1 ** t, 1.0 - b2 ** t
        for layer, layer_grads, layer_moments in zip(params, grads, moments):
            for p, gr, (mo, ve) in zip(layer, layer_grads, layer_moments):
                mo *= b1
                mo += (1.0 - b1) * gr
                ve *= b2
                ve += (1.0 - b2) * (gr * gr)
                p -= lr * (mo / c1) / (np.sqrt(ve / c2) + eps)

    return step


def step_floor_s(dims: tuple[int, ...], ranks: tuple, cols: int) -> float:
    """Mean floor step time over an equal-weight mix of adapter ranks
    (None meaning full fine-tuning), as the grid mixes its entries."""
    times = [_median_time(_step_fn(dims, r, cols, seed))
             for seed, r in enumerate(ranks)]
    return statistics.fmean(times)


def svd_floor_s(m: int, n: int) -> float:
    a = np.random.default_rng(1).normal(size=(m, n))
    return _median_time(lambda: np.linalg.svd(a, full_matrices=False))


def lstsq_floor_s(n: int, d: int, p: int) -> float:
    rng = np.random.default_rng(2)
    x = rng.normal(size=(n, d))
    y = rng.normal(size=(n, p))
    return _median_time(lambda: np.linalg.lstsq(x, y, rcond=None))
