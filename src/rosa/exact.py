"""Closed-form solvers for rank-constrained linear regression.

Setting: data x (n x d, full column rank), targets y (n x p), and a
starting weight w0 (d x p). We study additive corrections a @ b of rank at
most r to the weight, judged by the squared Frobenius data error
||x (w0 + a b) - y||_F^2.

Everything here reduces to the residual-after-least-squares matrix

    e = x @ (w_ls - w0),   w_ls = argmin_w ||x w - y||_F^2,

whose singular value spectrum controls what any rank-r correction can do:
the best single correction keeps the top r directions of e, the part of
the error no rank-r correction can remove is the tail sum of squared
singular values, and greedy repetition of the rank-r solve removes r
singular directions per round until e is exhausted.

x = QR with orthonormal Q gives ||x m||_F = ||R m||_F for every m, so x @ m
and the d x p matrix R @ m share singular values and right singular
vectors. Each x is factored once: construction takes R and the thin Q
from geqrf's reflectors and one WY product (linalg.thin_qr) and checks
the column rank from the singular values of R, and each problem solves
least squares once, as w_ls = R^-1 Q^T y (RegressionProblem.x_q, .x_r,
.w_ls). Every spectrum and every greedy round works on R @ m instead of
the n x p matrix x @ m, and so does every data error: x @ w_ls - y is
orthogonal to the range of x, so ||x w - y||_F^2 = ||R (w - w_ls)||_F^2
plus the irreducible error, which each problem computes once.

Each problem decomposes its residual R @ (w_ls - w0) once with svd
(RegressionProblem.residual_factors): the residual spectrum, the
closed-form optimum at every rank and the first greedy round all read it.
A greedy round forms R (w_ls - w) once for its new weight w: its squared
norm prices the round. No round leaves the row space of e, so the next
round takes its top-r right singular subspace from the k x k Gram
eigendecomposition (linalg.leading_right_vectors) of R (w_ls - w) B, with
B the first k = max(rank(e), r) right singular vectors of e, not a full
svd. B drops only what residual_rank counts as zero; the subspace is off
by about eps * sigma_1^2 / (sigma_r^2 - sigma_r+1^2), blind below about
1e-8 * sigma_1, where under 1e-16 of the squared error lies, far below
the suite's 1e-12 convergence test. The off-range noisy variant of a
problem projects its draw off the range of x as z - Q (Q^T z) and shares
its base's factors and residual decomposition, since the noise moves none
of them. least_squares, the general lstsq route, is kept for callers
outside the suite.

These functions are pure: they never mutate their arguments and two calls
with identical inputs return identical arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (InvalidInputError, NumericError, RankTooLargeError,
                     ShapeError, SingularMatrixError)
from .linalg import (Array, SvdFactors, as_matrix, leading_right_vectors,
                     singular_values, svd, thin_qr)

# Singular values of the residual matrix below this relative threshold are
# treated as exact zeros when predicting how many greedy rounds remain.
RESIDUAL_RANK_TOL = 1e-9


@dataclass(frozen=True)
class RegressionProblem:
    """One linear adaptation instance: minimize ||x (w0 + a b) - y||_F^2.

    x must have full column rank. Construction factors x = QR from geqrf's
    reflectors and one WY product (linalg.thin_qr; x_q is the orthonormal
    n x d factor, x_r the upper-triangular d x d one, both read-only) and
    checks the rank on the singular values of R, which are those of x; a
    violation raises SingularMatrixError naming the offending singular
    value. The cached values below assume x, y and w0 are not mutated
    after construction.
    """

    x: Array
    y: Array
    w0: Array
    x_q: Array = field(init=False, repr=False, compare=False)
    x_r: Array = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        x = as_matrix(self.x, "x")
        y = as_matrix(self.y, "y")
        w0 = as_matrix(self.w0, "w0")
        if y.shape[0] != x.shape[0]:
            raise ShapeError("x and y disagree on sample count", x.shape, y.shape)
        if w0.shape != (x.shape[1], y.shape[1]):
            raise ShapeError("w0 does not map x-features to y-targets",
                             (x.shape[1], y.shape[1]), w0.shape)
        if x.shape[1] > x.shape[0]:
            raise SingularMatrixError(
                f"x has more columns than rows ({x.shape}), cannot have "
                f"full column rank"
            )
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "w0", w0)
        q, r = thin_qr(x)
        object.__setattr__(self, "x_q", _read_only(q))
        object.__setattr__(self, "x_r", _read_only(r))
        s = singular_values(r)
        if s[0] == 0.0 or s[-1] <= 1e-10 * s[0]:
            raise SingularMatrixError(
                f"x is column-rank deficient: sigma_min={s[-1]:.6e} "
                f"against sigma_max={s[0]:.6e}"
            )

    @cached_property
    def w_ls(self) -> Array:
        """Least-squares weight argmin_w ||x w - y||_F^2, solved once as
        R^-1 Q^T y."""
        return _read_only(np.linalg.solve(self.x_r, self.x_q.T @ self.y))

    @cached_property
    def residual_factors(self) -> SvdFactors:
        """Read-only svd of R @ (w_ls - w0), which has the sigma and v of
        e = x @ (w_ls - w0); x_q @ u is e's left factor."""
        factors = svd(self.x_r @ (self.w_ls - self.w0))
        for a in (factors.u, factors.sigma, factors.v):
            _read_only(a)
        return factors

    @cached_property
    def y_norm(self) -> float:
        """||y||_F, the scale residual_rank and the greedy slack read."""
        return float(np.linalg.norm(self.y))

    @cached_property
    def irreducible(self) -> float:
        """||x w_ls - y||_F^2, the error floor shared by every weight."""
        return _squared_norm(self.x @ self.w_ls - self.y)

    def _with_off_range_targets(self, y: Array) -> RegressionProblem:
        """Problem on the same x and w0 with targets y, sharing the factors.

        y - self.y must be orthogonal to the range of x. Then w_ls, x_q,
        x_r and residual_factors carry over unchanged and x needs no second
        rank check, so __post_init__ is skipped; the new problem computes
        only its own irreducible error and, when read, its own y_norm.
        """
        y = as_matrix(y, "y")
        new = object.__new__(type(self))
        new.__dict__.update(x=self.x, y=y, w0=self.w0, x_q=self.x_q,
                            x_r=self.x_r, w_ls=self.w_ls,
                            residual_factors=self.residual_factors,
                            irreducible=_squared_norm(self.x @ self.w_ls - y))
        return new


def _squared_norm(m: Array) -> float:
    return float(np.vdot(m, m))


def _read_only(a: Array) -> Array:
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class RosaTrace:
    """Record of the greedy exact iteration.

    weights[t] is the weight after t rounds (weights[0] is w0), errors[t]
    the matching squared data error. predicted_rounds gives the round count
    at which the error must hit its floor.
    """

    weights: list[Array]
    errors: list[float]


def least_squares(x, y) -> Array:
    """Minimizer of ||x w - y||_F^2 for full-column-rank x."""
    x = as_matrix(x, "x")
    y = as_matrix(y, "y")
    w, _, rank, _ = np.linalg.lstsq(x, y, rcond=None)
    if rank < x.shape[1]:
        raise SingularMatrixError(
            f"x is column-rank deficient: lstsq rank {rank} < {x.shape[1]}"
        )
    return w


def data_error(problem: RegressionProblem, w: Array) -> float:
    """Squared Frobenius error ||x w - y||_F^2 of a d x p weight w.

    Computed as ||R (w - w_ls)||_F^2 plus the irreducible error, which is
    exact because x @ w_ls - y is orthogonal to the range of x.
    """
    if np.shape(w) != problem.w0.shape:
        raise ShapeError("w does not map x-features to y-targets",
                         problem.w0.shape, np.shape(w))
    return _squared_norm(problem.x_r @ (w - problem.w_ls)) + problem.irreducible


def irreducible_error(problem: RegressionProblem) -> float:
    """Error floor shared by every weight: the off-range part of y."""
    return problem.irreducible


def _check_correction_rank(problem: RegressionProblem, rank: int) -> None:
    if rank < 1:
        raise InvalidInputError(f"rank must be >= 1, got {rank}")
    d, p = problem.w0.shape
    if rank > min(d, p):
        raise RankTooLargeError(
            f"rank {rank} exceeds the admissible budget "
            f"min(d={d}, p={p}) = {min(d, p)}"
        )


def rrr_optimum(problem: RegressionProblem, rank: int) -> tuple[Array, Array]:
    """Best rank-`rank` correction in closed form.

    Returns (a, b) with a of shape (d, rank) and b of shape (rank, p) such
    that w0 + a @ b minimizes the data error over all corrections of rank
    at most `rank`. The construction projects the least-squares move
    w_ls - w0 onto the top right-singular directions of the residual
    matrix e = x @ (w_ls - w0):

        a = (w_ls - w0) @ v_r,   b = v_r.T,

    with v_r the leading `rank` right singular vectors of e.
    """
    _check_correction_rank(problem, rank)
    v_r = problem.residual_factors.v[:, :rank]
    return (problem.w_ls - problem.w0) @ v_r, v_r.T


def achieved_error(problem: RegressionProblem, a: Array, b: Array) -> float:
    """Data error of the corrected weight w0 + a @ b.

    a must be d x r and b r x p; any other pair raises ShapeError rather
    than broadcasting against w0.
    """
    d, p = problem.w0.shape
    a_shape, b_shape = np.shape(a), np.shape(b)
    if (len(a_shape) != 2 or len(b_shape) != 2 or a_shape[0] != d
            or b_shape[1] != p or a_shape[1] != b_shape[0]):
        raise ShapeError("a @ b is not a d x p correction", a_shape, b_shape)
    return data_error(problem, problem.w0 + a @ b)


def lora_error_lower_bound(problem: RegressionProblem, rank: int) -> float:
    """Tail spectral energy no rank-`rank` correction can remove.

    Equals sum of sigma_i(e)^2 for i > rank, with e the residual matrix of
    the problem, whose thin svd has min(d, p) values. Any correction of
    rank at most `rank` leaves at least this much error above the
    irreducible floor, and the closed-form optimum meets it exactly.
    """
    _check_correction_rank(problem, rank)
    s = problem.residual_factors.sigma
    return float(np.sum(s[rank:] ** 2))


def residual_rank(problem: RegressionProblem) -> int:
    """Numerical rank of the residual matrix e = x @ (w_ls - w0).

    A singular value counts if it clears RESIDUAL_RANK_TOL relative to the
    larger of sigma_max(e) and the Frobenius norm of y. The second anchor
    keeps an all-roundoff residual (problem already solved by w0) at rank
    zero instead of promoting its noise floor to full rank. Both anchors
    scale with the data, so scaling y and w0 together keeps the rank.
    """
    s = problem.residual_factors.sigma
    cutoff = RESIDUAL_RANK_TOL * max(s[0], problem.y_norm)
    return int(np.count_nonzero(s > cutoff))


def predicted_rounds(problem: RegressionProblem, rank: int) -> int:
    """ceil(rank(e) / rank): greedy rounds needed to exhaust the residual."""
    _check_correction_rank(problem, rank)
    return math.ceil(residual_rank(problem) / rank)


def rosa_exact_iterate(problem: RegressionProblem, rank: int,
                       max_steps: int) -> RosaTrace:
    """Greedy repetition of the closed-form rank-`rank` solve.

    Round t re-roots the problem at the current weight and applies the
    closed-form rank-`rank` solve from there, so each round removes the
    `rank` strongest remaining singular directions of the residual. Round
    0 reads the problem's residual svd; each later round takes the top
    `rank` right singular subspace of its own residual R (w_ls - w) with
    leading_right_vectors, within the problem's first
    max(residual_rank, rank) right singular vectors: each move lies in
    the row space of the residual it acts on, so no residual leaves their
    span (accuracy in the module docstring). Errors are non-increasing; a
    violation beyond roundoff, or a non-finite error, raises NumericError.
    The trace stops after max_steps rounds regardless of convergence.
    """
    _check_correction_rank(problem, rank)
    if max_steps < 0:
        raise InvalidInputError(f"max_steps must be >= 0, got {max_steps}")
    s = residual_rank(problem)
    w = problem.w0.copy()
    weights = [w]
    errors = [data_error(problem, w)]
    slack = 1e-12 * max(errors[0], problem.y_norm ** 2)
    # w starts at w0, so round 0 reads the problem's residual decomposition.
    # gap = R (w_ls - w) prices each round as data_error would (its sign
    # flip is exact) and is the next round's residual.
    basis = problem.residual_factors.v[:, :max(s, rank)]
    v_r = basis[:, :rank]
    for step in range(max_steps):
        if step:
            v_r = basis @ leading_right_vectors(gap @ basis, rank)
        w = w + ((problem.w_ls - w) @ v_r) @ v_r.T
        gap = problem.x_r @ (problem.w_ls - w)
        err = _squared_norm(gap) + problem.irreducible
        if not math.isfinite(err):
            raise NumericError(
                f"greedy error is not finite after round {len(errors)}: {err}"
            )
        if err > errors[-1] + slack:
            raise NumericError(
                f"greedy error increased: {errors[-1]:.6e} -> {err:.6e}"
            )
        weights.append(w)
        errors.append(err)
    return RosaTrace(weights=weights, errors=errors)


def realizable_instance(n: int, d: int, p: int, residual_rank: int,
                        seed: int) -> RegressionProblem:
    """Random instance whose optimal move w* - w0 has a known exact rank.

    x has i.i.d. Gaussian entries (full column rank almost surely, and
    checked), w* = w0 + delta with delta built from orthonormal factors and
    well-separated singular values in [1, 2], and y = x @ w* exactly. The
    residual matrix then has rank exactly residual_rank and zero error is
    attainable.
    """
    if n < d:
        raise InvalidInputError(f"need n >= d for full column rank, got n={n}, d={d}")
    if not 0 <= residual_rank <= min(d, p):
        raise InvalidInputError(
            f"residual_rank must be in [0, min(d={d}, p={p})], got {residual_rank}"
        )
    if seed < 0:
        raise InvalidInputError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, d))
    w0 = rng.standard_normal((d, p))
    w_star = w0.copy()
    if residual_rank > 0:
        qu, _ = np.linalg.qr(rng.standard_normal((d, residual_rank)))
        qv, _ = np.linalg.qr(rng.standard_normal((p, residual_rank)))
        gains = np.geomspace(2.0, 1.0, residual_rank)
        w_star = w0 + (qu * gains) @ qv.T
    return RegressionProblem(x=x, y=x @ w_star, w0=w0)


def with_off_range_noise(problem: RegressionProblem, scale: float,
                         seed: int) -> RegressionProblem:
    """Copy of the problem with targets pushed off the range of x.

    Adds scale times the component of a Gaussian draw orthogonal to the
    columns of x, which raises the irreducible error without moving the
    least-squares weight. The component is z - Q (Q^T z), with Q the
    problem's own orthonormal factor. The copy shares the problem's x, w0,
    Q and R factors, least-squares weight and residual decomposition.
    """
    if not 0.0 <= scale < np.inf:
        raise InvalidInputError(f"scale must be finite and >= 0, got {scale}")
    if seed < 0:
        raise InvalidInputError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    z = rng.standard_normal(problem.y.shape)
    q = problem.x_q
    off_range = z - q @ (q.T @ z)
    return problem._with_off_range_targets(problem.y + scale * off_range)
