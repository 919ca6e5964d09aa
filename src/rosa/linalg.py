"""Dense linear-algebra kernels.

Thin deterministic SVD, the leading right singular subspace from a Gram
eigendecomposition, a thin QR whose q is one compact-WY GEMM over
geqrf's reflectors, singular values, numerical rank, and the index-subset
sampling used to pick singular directions. All functions take and return
float64 ndarrays and never mutate their inputs. svd_each takes the SVDs of
several matrices on concurrent threads, as many as _worker_count() allows,
with the same bytes as one svd call per matrix; _worker_count() is the one
reader of the CPU budget, for these threads and a grid's processes alike.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import InvalidInputError, RankTooLargeError

Array = np.ndarray

class SamplingScheme(Enum):
    """How to choose which singular directions become trainable."""

    RANDOM = "random"
    TOP = "top"
    BOTTOM = "bottom"


def as_matrix(w, name: str = "matrix") -> Array:
    """Validate and convert to a finite float64 2-D array."""
    arr = np.asarray(w, dtype=np.float64)
    if arr.ndim != 2:
        raise InvalidInputError(f"{name} must be 2-D, got ndim={arr.ndim}")
    if arr.size == 0:
        raise InvalidInputError(f"{name} must be non-empty, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise InvalidInputError(f"{name} contains non-finite entries")
    return arr


@dataclass(frozen=True)
class SvdFactors:
    """Thin SVD of an m x n matrix.

    u has orthonormal columns (m x k), sigma is non-negative and sorted in
    descending order (k,), v has orthonormal columns (n x k), with
    k = min(m, n). The factorization satisfies w = u @ diag(sigma) @ v.T.
    """

    u: Array
    sigma: Array
    v: Array


def svd(w) -> SvdFactors:
    """Thin SVD with a deterministic sign convention.

    Each column of u is flipped so that its largest-magnitude entry is
    positive; ties pick the lowest row index. The paired column of v flips
    with it, so the product is unchanged. Identical input bytes give
    identical output bytes. One matrix through svd_each: no thread starts.
    """
    return svd_each([w])[0]


def leading_right_vectors(w, rank: int) -> Array:
    """Orthonormal basis (n x rank) of the top-`rank` right singular
    subspace of an m x n matrix w, for 1 <= rank <= min(m, n).

    The eigenvectors of the `rank` largest eigenvalues of the n x n Gram
    matrix w.T @ w, largest first, instead of a full svd. Squaring the
    spectrum costs accuracy: the subspace is off by about
    eps * sigma_1^2 / (sigma_rank^2 - sigma_rank+1^2), and directions
    below about 1e-8 * sigma_1 (under 1e-16 of ||w||_F^2) are not
    resolved. Column signs are unspecified. Identical input bytes give
    identical output bytes.
    """
    w = as_matrix(w, "w")
    if rank < 1:
        raise InvalidInputError(f"rank must be >= 1, got {rank}")
    if rank > min(w.shape):
        raise RankTooLargeError(f"rank {rank} exceeds min{w.shape}")
    # eigh sorts eigenvalues ascending.
    return np.linalg.eigh(w.T @ w)[1][:, :-rank - 1:-1]


def thin_qr(x) -> tuple[Array, Array]:
    """(q, r) of an n x d matrix x with n >= d: q is n x d with orthonormal
    columns, r is d x d upper triangular, and x = q @ r.

    One LAPACK geqrf (np.linalg.qr's "raw" mode) gives r, bitwise equal to
    np.linalg.qr(x, mode="r"), and the Householder reflectors
    I - tau_i v_i v_i^T. Their product is I - V T V^T in compact WY form,
    with T the d x d upper-triangular factor LAPACK's dlarft builds, so
    q = [I_d; 0] - V (T V[:d]^T) is one GEMM, where np.linalg.qr's
    reduced mode runs dorgqr. The reflectors are the same, so q matches
    the reduced mode's to roundoff, signs included.
    """
    x = as_matrix(x, "x")
    n, d = x.shape
    if d > n:
        raise InvalidInputError(f"x must have at least as many rows as "
                                f"columns, got shape {x.shape}")
    h, tau = np.linalg.qr(x, mode="raw")
    # h is d x n; its transpose holds r on and above the diagonal and the
    # reflectors v_i below it, whose unit diagonal LAPACK leaves implied.
    v = h.T
    r = np.triu(v[:d])
    v[:d] = np.tril(v[:d], -1) + np.eye(d)
    gram = v.T @ v
    # dlarft, forward and columnwise; column i is right where tau_i == 0.
    t = np.zeros((d, d))
    for i in range(d):
        t[:i, i] = -tau[i] * (t[:i, :i] @ gram[:i, i])
        t[i, i] = tau[i]
    q = v @ -(t @ v[:d].T)
    q[:d] += np.eye(d)
    return q, r


def _canonical(u: Array, s: Array, vt: Array) -> SvdFactors:
    """SvdFactors in svd's sign convention from np.linalg.svd's fresh
    arrays, flipped in place. LAPACK's gesdd returns sigma non-increasing,
    so the columns keep its order; v is the transposed view of vt."""
    v = vt.T
    # argmax returns the first maximum, which is the lowest-row tie rule.
    # Multiplying by exactly -1.0 or 1.0 gives the same bytes as negating
    # the flipped columns one by one.
    lead = np.argmax(np.abs(u), axis=0)
    sign = np.where(u[lead, np.arange(s.size)] < 0, -1.0, 1.0)
    u *= sign
    v *= sign
    return SvdFactors(u=u, sigma=s, v=v)


# Read by OpenBLAS (the BLAS of NumPy's wheels) or MKL when NumPy loads it;
# with none set, either runs one thread per CPU.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                     "OMP_NUM_THREADS")


def _worker_count() -> int:
    """Processes or threads the CPUs take at once without oversubscription.

    The CPUs in this process's affinity mask divided by the BLAS threads of
    each, as the first BLAS variable set to a positive ASCII integer says;
    1 without an affinity mask or such a variable. Two workers that each
    run a BLAS thread per CPU are slower than one. svd_each's threads and
    a grid's processes both come from a call here, so one patch of
    rosa.linalg._worker_count sets the budget of both.
    """
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        return 1
    for var in _BLAS_THREAD_VARS:
        value = os.environ.get(var, "").strip()
        if value.isascii() and value.isdigit() and int(value) > 0:
            return max(1, cpus // int(value))
    return 1


def svd_each(ws) -> list[SvdFactors]:
    """[svd(w) for w in ws], byte for byte, on up to _worker_count() threads.

    The calling thread and min(len(ws), _worker_count()) - 1 threads
    started here take the matrices round-robin; np.linalg.svd releases the
    GIL while LAPACK runs. Zero or one matrix reads no budget. The extra
    threads run only np.linalg.svd and are joined before this returns or
    raises. A failure raises the first failing matrix's error, in input order.
    """
    mats = [as_matrix(w, "w") for w in ws]
    k = min(len(mats), _worker_count()) if len(mats) > 1 else 1
    raw: list = [None] * len(mats)
    errors: list = [None] * len(mats)

    def share(first: int) -> None:
        for i in range(first, len(mats), k):
            try:
                raw[i] = np.linalg.svd(mats[i], full_matrices=False)
            except Exception as exc:
                errors[i] = exc
                return

    started = []
    try:
        for first in range(1, k):
            thread = threading.Thread(target=share, args=(first,))
            thread.start()
            started.append(thread)
        share(0)
    finally:
        for thread in started:
            thread.join()
    for exc in errors:
        if exc is not None:
            raise exc
    return [_canonical(*factors) for factors in raw]


def singular_values(w) -> Array:
    """Singular values only, descending. Cheaper than a full svd call."""
    return np.linalg.svd(as_matrix(w, "w"), compute_uv=False)


def numerical_rank(w) -> int:
    """Count singular values above 1e-8 times the largest one.

    The matrices ranked are drifts: differences of effective weights, whose
    roundoff sits far below 1e-8 of the largest singular value.
    """
    s = singular_values(w)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.count_nonzero(s > 1e-8 * s[0]))


def sample_indices(count: int, bound: int, scheme: SamplingScheme,
                   rng: np.random.Generator | None = None) -> Array:
    """Pick `count` distinct indices from range(bound) under a scheme.

    RANDOM draws uniformly without replacement and needs `rng`. TOP takes
    the first `count` indices, BOTTOM the last `count`. The result is always
    sorted ascending so downstream slices are canonical.
    """
    if count < 1:
        raise InvalidInputError(f"count must be >= 1, got {count}")
    if count > bound:
        raise RankTooLargeError(f"cannot take {count} indices from a pool of {bound}")
    if scheme is SamplingScheme.TOP:
        idx = np.arange(count)
    elif scheme is SamplingScheme.BOTTOM:
        idx = np.arange(bound - count, bound)
    elif scheme is SamplingScheme.RANDOM:
        if rng is None:
            raise InvalidInputError("scheme RANDOM requires an rng")
        idx = np.sort(rng.choice(bound, size=count, replace=False))
    else:
        raise InvalidInputError(f"unknown sampling scheme {scheme!r}")
    return idx.astype(np.int64)
