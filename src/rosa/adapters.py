"""Adapter states for dense weight matrices.

Four ways to parameterize an m x n layer weight around a pretrained matrix:

* RosaAdapter: w_fixed + a @ b where (a, b) span a sampled slice of the
  current weight's singular directions, re-factorized periodically.
* LoraAdapter: frozen w plus a trainable low-rank correction a @ b.
* Ia3Adapter: frozen w rescaled per output unit by a trainable vector.
* FullyTrainable: the whole matrix is trainable (the reference point).

Adapters own their arrays and are mutated only by their training loop
(single-writer). Forward passes never materialize the effective weight;
analysis helpers (effective_weight, residual) may.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInputError, RankTooLargeError, ShapeError
from .linalg import (Array, SamplingScheme, SvdFactors, as_matrix,
                     sample_indices, svd)


def _check_input_columns(x, n: int, w_shape: tuple) -> Array:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] != n:
        raise ShapeError("input batch does not match weight", w_shape, x.shape)
    return x


@dataclass
class RosaAdapter:
    """Weight split w_fixed + a @ b with a periodically re-sampled subspace.

    a is m x r (scaled left singular vectors, columns u_i * sigma_i), b is
    r x n (transposed right singular vectors). Only a and b receive
    gradients. factorize() merges the current split and re-draws the
    trainable slice from a fresh decomposition, leaving the effective
    weight unchanged.
    """

    w_fixed: Array
    a: Array
    b: Array
    rank: int
    scheme: SamplingScheme
    w_original: Array
    steps_since_factorize: int = 0

    @property
    def shape(self) -> tuple[int, int]:
        return self.w_fixed.shape

    def forward(self, x) -> Array:
        x = _check_input_columns(x, self.shape[1], self.shape)
        return self.w_fixed @ x + self.a @ (self.b @ x)

    def effective_weight(self) -> Array:
        return self.w_fixed + self.a @ self.b

    def residual(self) -> Array:
        """Total drift of the effective weight from the original matrix."""
        return self.effective_weight() - self.w_original

    def trainable_arrays(self) -> dict[str, Array]:
        return {"a": self.a, "b": self.b}

    def factorize(self, rng: np.random.Generator | None = None,
                  factors: SvdFactors | None = None) -> None:
        """Merge the split, decompose, re-sample the trainable slice.

        factors, when given, must be svd(effective_weight()) taken by the
        caller (training takes every layer's at once with svd_each);
        otherwise the decomposition is taken here. Post: effective_weight()
        is unchanged up to roundoff and steps_since_factorize is 0. RANDOM
        scheme consumes from rng.
        """
        merged = self.effective_weight()
        if factors is None:
            factors = svd(merged)
        idx = sample_indices(self.rank, factors.rank_bound, self.scheme, rng)
        self.a = factors.u[:, idx] * factors.sigma[idx]
        self.b = factors.v[:, idx].T
        self.w_fixed = merged - self.a @ self.b
        self.steps_since_factorize = 0


@dataclass
class LoraAdapter:
    """Frozen weight plus trainable a @ b, zero at initialization."""

    w_frozen: Array
    a: Array
    b: Array
    rank: int

    @property
    def shape(self) -> tuple[int, int]:
        return self.w_frozen.shape

    def forward(self, x) -> Array:
        x = _check_input_columns(x, self.shape[1], self.shape)
        return self.w_frozen @ x + self.a @ (self.b @ x)

    def effective_weight(self) -> Array:
        return self.w_frozen + self.a @ self.b

    def residual(self) -> Array:
        # Exactly a @ b by construction; computing it directly avoids the
        # cancellation noise of (w + ab) - w.
        return self.a @ self.b

    def trainable_arrays(self) -> dict[str, Array]:
        return {"a": self.a, "b": self.b}


@dataclass
class Ia3Adapter:
    """Frozen weight with one trainable scale per output unit."""

    w_frozen: Array
    scale: Array

    @property
    def shape(self) -> tuple[int, int]:
        return self.w_frozen.shape

    def forward(self, x) -> Array:
        x = _check_input_columns(x, self.shape[1], self.shape)
        return self.scale[:, None] * (self.w_frozen @ x)

    def effective_weight(self) -> Array:
        return self.scale[:, None] * self.w_frozen

    def residual(self) -> Array:
        return (self.scale - 1.0)[:, None] * self.w_frozen

    def trainable_arrays(self) -> dict[str, Array]:
        return {"scale": self.scale}


@dataclass
class FullyTrainable:
    """No adapter: the matrix itself is the trainable parameter."""

    w: Array
    w_original: Array = field(repr=False)

    @property
    def shape(self) -> tuple[int, int]:
        return self.w.shape

    def forward(self, x) -> Array:
        x = _check_input_columns(x, self.shape[1], self.shape)
        return self.w @ x

    def effective_weight(self) -> Array:
        return self.w

    def residual(self) -> Array:
        return self.w - self.w_original

    def trainable_arrays(self) -> dict[str, Array]:
        return {"w": self.w}


Adapter = RosaAdapter | LoraAdapter | Ia3Adapter | FullyTrainable


def _check_rank(rank: int, m: int, n: int) -> None:
    if rank < 1:
        raise InvalidInputError(f"rank must be >= 1, got {rank}")
    if rank > min(m, n):
        raise RankTooLargeError(
            f"rank {rank} exceeds min{(m, n)} = {min(m, n)}"
        )


def rosa_init(w, rank: int, scheme: SamplingScheme = SamplingScheme.RANDOM,
              rng: np.random.Generator | None = None, *,
              factorize_at_init: bool = True,
              subtract_at_init: bool = True) -> RosaAdapter:
    """Build a RosaAdapter around w.

    By default the first factorization happens here, so (a, b) start as a
    genuine slice of w's singular directions and w_fixed = w - a @ b.
    factorize_at_init=False instead leaves a = b = 0 until the schedule
    fires. subtract_at_init=False keeps w_fixed = w while still installing
    the decomposed (a, b), so the adapter starts at w + a @ b; that variant
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
        w_original=w.copy(),
    )
    if factorize_at_init:
        adapter.factorize(rng)
        if not subtract_at_init:
            adapter.w_fixed = w.copy()
    return adapter


def lora_init(w, rank: int, rng: np.random.Generator) -> LoraAdapter:
    """Build a LoraAdapter: a ~ Gaussian(0, 1/rank) entries, b = 0.

    The zero b makes the correction vanish at init, so the adapted layer
    reproduces w exactly on the first forward pass.
    """
    w = as_matrix(w, "w")
    m, n = w.shape
    _check_rank(rank, m, n)
    a = rng.normal(0.0, np.sqrt(1.0 / rank), size=(m, rank))
    return LoraAdapter(w_frozen=w.copy(), a=a, b=np.zeros((rank, n)), rank=rank)


def ia3_init(w) -> Ia3Adapter:
    """Build an Ia3Adapter with all scales at one (identity rescaling)."""
    w = as_matrix(w, "w")
    return Ia3Adapter(w_frozen=w.copy(), scale=np.ones(w.shape[0]))


def full_init(w) -> FullyTrainable:
    w = as_matrix(w, "w")
    return FullyTrainable(w=w.copy(), w_original=w.copy())


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
