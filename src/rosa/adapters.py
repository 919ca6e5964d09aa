"""Adapter states for dense weight matrices.

Three ways to parameterize an m x n layer weight around a pretrained matrix:

* RosaAdapter: a frozen host w_fixed plus a trainable low-rank a @ b. With
  a sampling scheme, (a, b) span a sampled slice of the current weight's
  singular directions and are re-factorized periodically (ROSA). With
  scheme None it is LoRA: Gaussian a, zero b, never re-sampled.
* Ia3Adapter: frozen w rescaled per output unit by a trainable vector.
* FullyTrainable: the whole matrix is trainable (the reference point).

Every kind speaks one protocol, so the network, optimizer, checkpoint and
training loop never ask which kind a layer is: shape, forward(x),
effective_weight(), trainable_arrays(); forward_cached(x) ->
(out before bias, record for backward); backward(rec, dz, need_dx) ->
(grads keyed like trainable_arrays(), input gradient or None); record() ->
(meta, tensors) and the classmethod from_record(meta, fetch), the layer's
checkpoint record both ways. KINDS maps a record's kind to its class.

An adapter holds only what its forward pass reads; none keeps a copy of the
weight it started from. Drift is measured against a snapshot the caller
keeps (run_training keeps the net at initialization).

Adapters own their arrays and are mutated only by their training loop
(single-writer). Forward passes never materialize the effective weight;
analysis helpers (effective_weight, RosaAdapter.product) may.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, RankTooLargeError, ShapeError
from .linalg import (Array, SamplingScheme, SvdFactors, as_matrix,
                     sample_indices, svd)

_SCHEMES = [s.value for s in SamplingScheme]


class _CheckedForward:
    def forward(self, x) -> Array:
        """The layer output before bias, for a checked n x batch input."""
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[0] != self.shape[1]:
            raise ShapeError("input batch does not match weight", self.shape,
                             x.shape)
        return self.forward_cached(x)[0]


@dataclass
class RosaAdapter(_CheckedForward):
    """Weight split w_fixed + a @ b; only a and b receive gradients.

    With a scheme, a is m x r (scaled left singular vectors, columns
    u_i * sigma_i) and b is r x n (transposed right singular vectors);
    factorize() merges the current split and re-draws the trainable slice
    from a fresh decomposition, leaving the effective weight unchanged.
    scheme None is LoRA: the pair is never re-sampled and w_fixed stays the
    pretrained matrix.
    """

    w_fixed: Array
    a: Array
    b: Array
    rank: int
    scheme: SamplingScheme | None

    @property
    def shape(self) -> tuple[int, int]:
        return self.w_fixed.shape

    def forward_cached(self, x: Array) -> tuple[Array, dict]:
        bx = self.b @ x
        return self.w_fixed @ x + self.a @ bx, {"x": x, "bx": bx}

    def backward(self, rec: dict, dz: Array, need_dx: bool):
        at_dz = self.a.T @ dz
        grads = {"a": dz @ rec["bx"].T, "b": at_dz @ rec["x"].T}
        dx = self.w_fixed.T @ dz + self.b.T @ at_dz if need_dx else None
        return grads, dx

    def effective_weight(self) -> Array:
        return self.w_fixed + self.a @ self.b

    def product(self) -> Array:
        """a @ b. For LoRA this is exactly the drift from the pretrained
        matrix, free of the cancellation noise of (w + ab) - w."""
        return self.a @ self.b

    def trainable_arrays(self) -> dict[str, Array]:
        return {"a": self.a, "b": self.b}

    def factorize(self, rng: np.random.Generator | None = None,
                  factors: SvdFactors | None = None) -> None:
        """Merge the split, decompose, re-sample the trainable slice.

        factors, when given, must be the svd of effective_weight(), taken
        by the caller (training takes a group of layers' at once with
        svd_each); otherwise it is computed here. Post: effective_weight()
        is unchanged up to roundoff. RANDOM scheme consumes from rng.
        """
        merged = self.effective_weight()
        if factors is None:
            factors = svd(merged)
        idx = sample_indices(self.rank, factors.sigma.size, self.scheme, rng)
        self.a = factors.u[:, idx] * factors.sigma[idx]
        self.b = factors.v[:, idx].T
        self.w_fixed = merged - self.a @ self.b

    def record(self) -> tuple[dict, dict[str, Array]]:
        factors = {"a": self.a, "b": self.b}
        if self.scheme is None:
            return ({"kind": "lora", "rank": self.rank},
                    {"w_frozen": self.w_fixed, **factors})
        return ({"kind": "rosa", "rank": self.rank, "scheme": self.scheme.value},
                {"w_fixed": self.w_fixed, **factors})

    @classmethod
    def from_record(cls, meta: dict, fetch) -> "RosaAdapter":
        lora = meta["kind"] == "lora"
        w_fixed = fetch("w_frozen" if lora else "w_fixed")
        m, n = w_fixed.shape
        rank, scheme = meta.get("rank"), meta.get("scheme")
        if type(rank) is not int or not 1 <= rank <= min(m, n):
            raise fetch.error(f"rank {rank!r} is not an integer in "
                              f"[1, {min(m, n)}] for an {m} x {n} weight")
        if not lora and scheme not in _SCHEMES:
            raise fetch.error(f"has unknown scheme {scheme!r}")
        return cls(w_fixed=w_fixed, a=fetch("a", (m, rank)),
                   b=fetch("b", (rank, n)), rank=rank,
                   scheme=None if lora else SamplingScheme(scheme))


@dataclass
class Ia3Adapter(_CheckedForward):
    """Frozen weight with one trainable scale per output unit."""

    w_frozen: Array
    scale: Array

    @property
    def shape(self) -> tuple[int, int]:
        return self.w_frozen.shape

    def forward_cached(self, x: Array) -> tuple[Array, dict]:
        lin = self.w_frozen @ x
        return self.scale[:, None] * lin, {"lin": lin}

    def backward(self, rec: dict, dz: Array, need_dx: bool):
        grads = {"scale": (dz * rec["lin"]).sum(axis=1)}
        dx = self.w_frozen.T @ (self.scale[:, None] * dz) if need_dx else None
        return grads, dx

    def effective_weight(self) -> Array:
        return self.scale[:, None] * self.w_frozen

    def trainable_arrays(self) -> dict[str, Array]:
        return {"scale": self.scale}

    def record(self) -> tuple[dict, dict[str, Array]]:
        return {"kind": "ia3"}, {"w_frozen": self.w_frozen, "scale": self.scale}

    @classmethod
    def from_record(cls, meta: dict, fetch) -> "Ia3Adapter":
        w_frozen = fetch("w_frozen")
        return cls(w_frozen=w_frozen, scale=fetch("scale", w_frozen.shape[:1]))


@dataclass
class FullyTrainable(_CheckedForward):
    """No adapter: the matrix itself is the trainable parameter."""

    w: Array

    @property
    def shape(self) -> tuple[int, int]:
        return self.w.shape

    def forward_cached(self, x: Array) -> tuple[Array, dict]:
        return self.w @ x, {"x": x}

    def backward(self, rec: dict, dz: Array, need_dx: bool):
        return {"w": dz @ rec["x"].T}, self.w.T @ dz if need_dx else None

    def effective_weight(self) -> Array:
        return self.w

    def trainable_arrays(self) -> dict[str, Array]:
        return {"w": self.w}

    def record(self) -> tuple[dict, dict[str, Array]]:
        return {"kind": "full"}, {"w": self.w}

    @classmethod
    def from_record(cls, meta: dict, fetch) -> "FullyTrainable":
        return cls(w=fetch("w"))


Adapter = RosaAdapter | Ia3Adapter | FullyTrainable

# Checkpoint record kind -> class. LoRA files keep their own kind.
KINDS = {"rosa": RosaAdapter, "lora": RosaAdapter, "ia3": Ia3Adapter,
         "full": FullyTrainable}


def _check_rank(rank: int, m: int, n: int) -> None:
    if rank < 1:
        raise InvalidInputError(f"rank must be >= 1, got {rank}")
    if rank > min(m, n):
        raise RankTooLargeError(
            f"rank {rank} exceeds min{(m, n)} = {min(m, n)}"
        )


def rosa_init(w, rank: int, scheme: SamplingScheme = SamplingScheme.RANDOM,
              rng: np.random.Generator | None = None, *,
              subtract_at_init: bool = True) -> RosaAdapter:
    """Build a RosaAdapter around w.

    The first factorization happens here, so (a, b) start as a genuine
    slice of w's singular directions and w_fixed = w - a @ b.
    subtract_at_init=False keeps w_fixed = w while still installing the
    decomposed (a, b), so the adapter starts at w + a @ b; that variant
    exists for the init-only ablation.
    """
    w = as_matrix(w, "w")
    m, n = w.shape
    _check_rank(rank, m, n)
    adapter = RosaAdapter(
        w_fixed=w.copy(),
        a=np.zeros((m, rank)),
        b=np.zeros((rank, n)),
        rank=rank,
        scheme=scheme,
    )
    adapter.factorize(rng)
    if not subtract_at_init:
        adapter.w_fixed = w.copy()
    return adapter


def lora_init(w, rank: int, rng: np.random.Generator) -> RosaAdapter:
    """Build a LoRA adapter (scheme None): a ~ Gaussian(0, 1/rank), b = 0.

    The zero b makes the correction vanish at init, so the adapted layer
    reproduces w exactly on the first forward pass.
    """
    w = as_matrix(w, "w")
    m, n = w.shape
    _check_rank(rank, m, n)
    a = rng.normal(0.0, np.sqrt(1.0 / rank), size=(m, rank))
    return RosaAdapter(w_fixed=w.copy(), a=a, b=np.zeros((rank, n)), rank=rank,
                       scheme=None)


def ia3_init(w) -> Ia3Adapter:
    """Build an Ia3Adapter with all scales at one (identity rescaling)."""
    w = as_matrix(w, "w")
    return Ia3Adapter(w_frozen=w.copy(), scale=np.ones(w.shape[0]))


def full_init(w) -> FullyTrainable:
    w = as_matrix(w, "w")
    return FullyTrainable(w=w.copy())


def trainable_reduction(m: int, n: int, rank: int) -> float:
    """Factor by which the low-rank split shrinks the trainable matrix count.

    Full matrix has m * n entries; the split trains rank * (m + n). Biases
    are excluded on both sides of the ratio.
    """
    if m < 1 or n < 1:
        raise InvalidInputError(f"dimensions must be positive, got {(m, n)}")
    _check_rank(rank, m, n)
    return (m * n) / (rank * (m + n))


def matrix_param_count(adapter: Adapter) -> int:
    """Trainable entries in the adapter's matrix parameters (bias excluded)."""
    return sum(arr.size for arr in adapter.trainable_arrays().values())
