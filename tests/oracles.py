"""Independent reference routes used only by the tests.

Everything here recomputes a quantity by a path the library does not share:
plain Jacobi rotations instead of LAPACK, modified Gram-Schmidt instead of
an orthonormal basis from the SVD, central finite differences instead of
reverse mode, batched gradient descent instead of the closed form. Slow and
simple on purpose; shapes stay small in the tests that call these. The
module also holds the helpers only tests need: random_instance,
reconstruct, assert_svd_contract and no_layer_checkpoint.
"""

import json
import struct

import numpy as np

from rosa.checkpoint import FORMAT_VERSION, MAGIC
from rosa.errors import InvalidInputError, SingularMatrixError
from rosa.exact import RegressionProblem, data_error, least_squares
from rosa.linalg import SvdFactors, as_matrix
from rosa.network import Mlp, forward, mse_loss


def jacobi_singular_values(w) -> np.ndarray:
    """Singular values of w from cyclic Jacobi sweeps on w.T @ w.

    Rotates out the largest off-diagonal entries of the Gram matrix until
    the off-diagonal mass is negligible, then takes square roots of the
    diagonal. Quadratic convergence makes a few dozen sweeps plenty for the
    matrix sizes the tests use.
    """
    w = np.asarray(w, dtype=np.float64)
    g = w.T @ w
    n = g.shape[0]
    for _ in range(60):
        off = np.sum(g * g) - np.sum(np.diag(g) ** 2)
        if off <= 1e-28 * max(1.0, float(np.trace(g)) ** 2):
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                scale = np.sqrt(abs(g[p, p]) * abs(g[q, q])) + 1.0
                if abs(g[p, q]) <= 1e-18 * scale:
                    continue
                theta = (g[q, q] - g[p, p]) / (2.0 * g[p, q])
                if theta == 0.0:
                    t = 1.0
                elif abs(theta) > 1e150:
                    # theta^2 would overflow; the rotation is tiny anyway.
                    t = 1.0 / (2.0 * theta)
                else:
                    t = np.sign(theta) / (abs(theta) + np.sqrt(theta * theta + 1.0))
                c = 1.0 / np.sqrt(t * t + 1.0)
                s = t * c
                rot = np.eye(n)
                rot[p, p] = c
                rot[q, q] = c
                rot[p, q] = s
                rot[q, p] = -s
                g = rot.T @ g @ rot
    eigs = np.clip(np.diag(g), 0.0, None)
    return np.sort(np.sqrt(eigs))[::-1]


def loop_sign_convention(u, s, vt) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The svd sign convention applied column by column to raw LAPACK output.

    Takes (u, s, vt) as np.linalg.svd returns them, sorts by descending s
    (stable), and flips each column of u whose largest-magnitude entry is
    negative, together with the paired column of v. np.argmax picks the
    lowest row index on a magnitude tie. Returns (u, s, v).
    """
    order = np.argsort(-np.asarray(s), kind="stable")
    u = np.array(u, dtype=np.float64)[:, order]
    s = np.array(s, dtype=np.float64)[order]
    v = np.array(vt, dtype=np.float64).T[:, order]
    for j in range(s.size):
        lead = int(np.argmax(np.abs(u[:, j])))
        if u[lead, j] < 0:
            u[:, j] = -u[:, j]
            v[:, j] = -v[:, j]
    return u, s, v


def gram_schmidt_projection(x) -> np.ndarray:
    """Projector onto the column space of x via modified Gram-Schmidt.

    Orthogonalizes twice per column for numerical hygiene; columns that
    collapse to roundoff are dropped, so a rank-deficient x still yields the
    projector onto its actual range.
    """
    x = np.asarray(x, dtype=np.float64)
    basis: list[np.ndarray] = []
    for j in range(x.shape[1]):
        v = x[:, j].copy()
        for _ in range(2):
            for q in basis:
                v -= (q @ v) * q
        norm = np.linalg.norm(v)
        if norm > 1e-12 * max(1.0, np.linalg.norm(x[:, j])):
            basis.append(v / norm)
    if not basis:
        return np.zeros((x.shape[0], x.shape[0]))
    q = np.stack(basis, axis=1)
    return q @ q.T


# Relative threshold under which a singular value is treated as zero when
# deciding the column rank of x for projection_onto_range.
_RANK_DEFICIENCY_TOL = 1e-10


def projection_onto_range(x) -> np.ndarray:
    """Orthogonal projector onto the column span of x, from its thin SVD.

    x must have full column rank; otherwise SingularMatrixError names the
    offending singular value. The projector is symmetric and idempotent up
    to roundoff.
    """
    x = as_matrix(x, "x")
    if x.shape[1] > x.shape[0]:
        raise SingularMatrixError(
            f"x has more columns than rows ({x.shape}), cannot have full column rank"
        )
    u, s, _ = np.linalg.svd(x, full_matrices=False)
    if s[0] == 0.0 or s[-1] <= _RANK_DEFICIENCY_TOL * s[0]:
        raise SingularMatrixError(
            f"x is column-rank deficient: sigma_min={s[-1]:.6e} "
            f"against sigma_max={s[0]:.6e}"
        )
    return u @ u.T


def finite_difference_gradients(net: Mlp, x, y, h: float = 1e-5) -> list[dict]:
    """Central-difference loss gradients for every trainable entry.

    Matches the layout of backward()'s GradientSet: one dict per layer,
    keyed by the adapter's trainable array names plus 'bias'. Mutates each
    parameter in place and restores it, so the network is unchanged on
    return.
    """

    def loss() -> float:
        pred, _ = forward(net, x)
        return mse_loss(pred, y)

    out = []
    for layer in net.layers:
        arrays = dict(layer.adapter.trainable_arrays())
        arrays["bias"] = layer.bias
        grads = {}
        for name, arr in arrays.items():
            # Index through unravel_index rather than a flattened view:
            # reshape(-1) on an F-ordered array hands back a copy, and
            # perturbing a copy measures nothing.
            g = np.zeros(arr.shape)
            for k in range(arr.size):
                idx = np.unravel_index(k, arr.shape)
                saved = arr[idx]
                arr[idx] = saved + h
                up = loss()
                arr[idx] = saved - h
                down = loss()
                arr[idx] = saved
                g[idx] = (up - down) / (2.0 * h)
            grads[name] = g
        out.append(grads)
    return out


def gd_rank_limited(problem: RegressionProblem, rank: int, *, restarts: int = 20,
                    iters: int = 2000, seed: int = 0,
                    init_scale: float = 0.1) -> tuple[float, float]:
    """Plain gradient descent on the rank-limited correction, batched restarts.

    Minimizes ||x (w0 + a @ b) - y||_F^2 over a (d x rank) and b (rank x p)
    from `restarts` random initializations at once. Returns
    (best_final_error, best_ever_error); the second also scans every
    intermediate iterate, since any visited point is a feasible certificate.
    """
    rng = np.random.default_rng(seed)
    x, y, w0 = problem.x, problem.y, problem.w0
    d, p = w0.shape
    base = x @ w0 - y
    a = init_scale * rng.standard_normal((restarts, d, rank))
    b = init_scale * rng.standard_normal((restarts, rank, p))
    sig_max = float(np.linalg.norm(x, 2))
    lr = 0.25 / sig_max**2

    def errors() -> np.ndarray:
        r = base[None, :, :] + (x[None, :, :] @ a) @ b
        return np.sum(r * r, axis=(1, 2))

    # The loss is only quadratic in each factor separately, so a step size
    # safe for one factor can still blow up once the other grows; the odd
    # restart diverges to inf/nan. fmin keeps each restart's finite history
    # (every visited finite point is a valid certificate) and the final
    # reduction skips anything that went non-finite.
    with np.errstate(over="ignore", invalid="ignore"):
        best_ever = errors()
        for _ in range(iters):
            r = base[None, :, :] + (x[None, :, :] @ a) @ b
            g = 2.0 * (x.T[None, :, :] @ r)
            ga = g @ np.transpose(b, (0, 2, 1))
            gb = np.transpose(a, (0, 2, 1)) @ g
            a = a - lr * ga
            b = b - lr * gb
            np.fmin(best_ever, errors(), out=best_ever)
        final = errors()
    finite = final[np.isfinite(final)]
    best_final = float(finite.min()) if finite.size else float("inf")
    return best_final, float(best_ever.min())


def truncated_move_weights(problem: RegressionProblem, rank: int,
                           steps: int) -> list[np.ndarray]:
    """Weights from projecting the least-squares move onto leading directions.

    Step t keeps the top t * rank right singular directions of the residual
    matrix e = x @ (w_ls - w0), all taken from one global decomposition.
    Greedy re-rooting should land on the same sequence because removing the
    leading block leaves the next block on top.
    """
    w_ls = least_squares(problem.x, problem.y)
    move = w_ls - problem.w0
    e = problem.x @ move
    _, _, vt = np.linalg.svd(e, full_matrices=False)
    out = [problem.w0.copy()]
    for t in range(1, steps + 1):
        k = min(t * rank, vt.shape[0])
        v = vt[:k].T
        out.append(problem.w0 + move @ (v @ v.T))
    return out


def direct_greedy_weights(problem: RegressionProblem, rank: int,
                          steps: int) -> list[np.ndarray]:
    """Greedy re-rooting with every round's SVD taken of the n x p matrix.

    Round t decomposes x @ (w_ls - w) itself, left factor and all, with
    w_ls from lstsq, and adds the move projected onto its top `rank` right
    singular directions.
    """
    w_ls = least_squares(problem.x, problem.y)
    out = [problem.w0.copy()]
    for _ in range(steps):
        move = w_ls - out[-1]
        _, _, vt = np.linalg.svd(problem.x @ move, full_matrices=False)
        v = vt[:rank].T
        out.append(out[-1] + move @ (v @ v.T))
    return out


def adamw_reference(param, grad_seq, *, lr: float, beta1: float = 0.9,
                    beta2: float = 0.98, eps: float = 1e-6,
                    wd: float = 0.0) -> np.ndarray:
    """Straight-line AdamW on a single tensor, no state dict, no aliasing.

    Bias-corrected moments, decay applied to the parameter itself so it
    never contaminates the moment estimates.
    """
    p = np.array(param, dtype=np.float64, copy=True)
    m = np.zeros_like(p)
    v = np.zeros_like(p)
    for t, g in enumerate(grad_seq, start=1):
        g = np.asarray(g, dtype=np.float64)
        m = beta1 * m + (1.0 - beta1) * g
        v = beta2 * v + (1.0 - beta2) * g * g
        m_hat = m / (1.0 - beta1**t)
        v_hat = v / (1.0 - beta2**t)
        p = p * (1.0 - lr * wd)
        p = p - lr * m_hat / (np.sqrt(v_hat) + eps)
    return p


class LoopAdamW:
    """AdamW with one (m, v, t) entry per (layer, name), updated parameter
    by parameter; the same arithmetic as rosa.optim.AdamW, element by
    element, without its flat buffers."""

    def __init__(self, learning_rate: float, beta1: float = 0.9,
                 beta2: float = 0.98, epsilon: float = 1e-6,
                 weight_decay: float = 0.0):
        self.learning_rate = learning_rate
        self.beta1 = beta1
        self.beta2 = beta2
        self.epsilon = epsilon
        self.weight_decay = weight_decay
        self.state = {}

    def step(self, net: Mlp, grads) -> None:
        for i, layer_grads in enumerate(grads.layers):
            params = dict(net.layers[i].adapter.trainable_arrays())
            params["bias"] = net.layers[i].bias
            for name, g in layer_grads.items():
                key, p = (i, name), params[name]
                m, v, t = self.state.get(key) or (np.zeros_like(p), np.zeros_like(p), 0)
                t += 1
                m = self.beta1 * m + (1.0 - self.beta1) * g
                v = self.beta2 * v + (1.0 - self.beta2) * (g * g)
                self.state[key] = (m, v, t)
                m_hat = m / (1.0 - self.beta1 ** t)
                v_hat = v / (1.0 - self.beta2 ** t)
                if self.weight_decay > 0.0:
                    p *= 1.0 - self.learning_rate * self.weight_decay
                p -= self.learning_rate * m_hat / (np.sqrt(v_hat) + self.epsilon)
        net.bump()

    def reset_moments(self, layer_index: int, names) -> None:
        for name in names:
            self.state.pop((layer_index, name), None)


def dense_forward(net: Mlp, x) -> np.ndarray:
    """Forward pass that materializes every effective weight first.

    The library's layer forwards are factored (w @ x plus a @ (b @ x) and
    so on); this route collapses each adapter to a single dense matrix and
    applies it, which checks the factored arithmetic against the one-matrix
    semantics it claims.
    """
    h = np.asarray(x, dtype=np.float64)
    for layer in net.layers:
        w = layer.adapter.effective_weight()
        h = layer.activation.apply(w @ h + layer.bias[:, None])
    return h


def reference_error_floor(problem: RegressionProblem, rank: int) -> float:
    """Tail-energy bound recomputed from scratch for cross-checking.

    Builds the projector onto range(x) by Gram-Schmidt, forms the residual
    matrix explicitly, and sums squared tail singular values from the
    Jacobi route. Shares no code with the library's bound.
    """
    proj = gram_schmidt_projection(problem.x)
    e = proj @ problem.y - problem.x @ problem.w0
    s = jacobi_singular_values(e)
    s = s[: min(problem.w0.shape)]
    return float(np.sum(s[rank:] ** 2))


def assert_error_matches(problem: RegressionProblem, w: np.ndarray,
                         expected: float, rel: float) -> None:
    got = data_error(problem, w)
    assert abs(got - expected) <= rel * max(abs(expected), 1.0), (
        f"error {got!r} differs from expected {expected!r}"
    )


def random_instance(n: int, d: int, p: int, seed: int) -> RegressionProblem:
    """Fully generic instance: x, y, w0 all i.i.d. Gaussian.

    Generic targets sit off the range of x, so the irreducible error is
    positive and the residual matrix has full admissible rank min(d, p)
    almost surely.
    """
    if n < d:
        raise InvalidInputError(f"need n >= d for full column rank, got n={n}, d={d}")
    rng = np.random.default_rng(seed)
    return RegressionProblem(x=rng.standard_normal((n, d)),
                             y=rng.standard_normal((n, p)),
                             w0=rng.standard_normal((d, p)))


def reconstruct(factors: SvdFactors) -> np.ndarray:
    """u @ diag(sigma) @ v.T of a thin SVD."""
    return (factors.u * factors.sigma) @ factors.v.T


def assert_svd_contract(factors: SvdFactors, w) -> None:
    """The SvdFactors contract for a thin SVD of the m x n matrix w.

    u is m x k, sigma (k,) non-negative and non-increasing, v n x k, with
    k = min(m, n); u and v have orthonormal columns, and u diag(sigma) v^T
    gives w back within roundoff.
    """
    w = np.asarray(w)
    (m, n), k = w.shape, min(w.shape)
    assert factors.u.shape == (m, k)
    assert factors.sigma.shape == (k,)
    assert factors.v.shape == (n, k)
    assert np.all(factors.sigma >= 0.0)
    assert np.all(np.diff(factors.sigma) <= 0.0)
    scale = max(float(factors.sigma[0]), np.finfo(float).tiny)
    assert np.allclose(reconstruct(factors), w, rtol=0.0,
                       atol=1e-13 * max(m, n) * scale)
    assert np.allclose(factors.u.T @ factors.u, np.eye(k), rtol=0.0, atol=1e-12)
    assert np.allclose(factors.v.T @ factors.v, np.eye(k), rtol=0.0, atol=1e-12)


def no_layer_checkpoint() -> bytes:
    """A checkpoint file whose meta lists no layers and that holds no
    tensors; Mlp refuses an empty layer list, so no encoder writes one."""
    meta = json.dumps({"layers": []}).encode()
    return (MAGIC + struct.pack("<I", FORMAT_VERSION)
            + struct.pack("<I", len(meta)) + meta + struct.pack("<I", 0))
