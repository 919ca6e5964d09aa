import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import rosa.linalg
from rosa.errors import InvalidInputError, ShapeError, SingularMatrixError
from rosa.linalg import (
    SamplingScheme,
    as_matrix,
    leading_right_vectors,
    numerical_rank,
    sample_indices,
    singular_values,
    svd,
    svd_each,
    thin_qr,
)

from oracles import (assert_svd_contract, gram_schmidt_projection,
                     jacobi_singular_values, loop_sign_convention,
                     projection_onto_range, reconstruct)

SHAPES = [(3, 3), (5, 3), (3, 5), (7, 7), (8, 2), (2, 8)]


def rng_for(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


class TestAsMatrix:
    def test_accepts_lists(self):
        m = as_matrix([[1, 2], [3, 4]])
        assert m.dtype == np.float64
        assert m.shape == (2, 2)

    def test_rejects_vector(self):
        with pytest.raises(InvalidInputError):
            as_matrix(np.ones(4))

    def test_rejects_nan(self):
        with pytest.raises(InvalidInputError):
            as_matrix(np.array([[1.0, np.nan]]))

    def test_rejects_inf(self):
        with pytest.raises(InvalidInputError):
            as_matrix(np.array([[np.inf], [0.0]]))


class TestSvdBasics:
    def test_diagonal_matrix(self):
        f = svd(np.diag([3.0, 2.0, 1.0]))
        assert np.allclose(f.sigma, [3.0, 2.0, 1.0])
        assert np.allclose(f.u, np.eye(3))
        assert np.allclose(f.v, np.eye(3))

    def test_reconstruct_identity(self):
        w = rng_for(0).standard_normal((6, 4))
        f = svd(w)
        assert np.allclose(reconstruct(f), w, atol=1e-12)

    def test_sigma_descending_nonnegative(self):
        f = svd(rng_for(1).standard_normal((5, 5)))
        assert np.all(f.sigma[:-1] >= f.sigma[1:])
        assert np.all(f.sigma >= 0.0)

    def test_orthonormal_factors(self):
        f = svd(rng_for(2).standard_normal((7, 3)))
        assert np.allclose(f.u.T @ f.u, np.eye(3), atol=1e-12)
        assert np.allclose(f.v.T @ f.v, np.eye(3), atol=1e-12)

    def test_rank_bound(self):
        assert svd(np.ones((4, 6))).rank_bound == 4


class TestSignConvention:
    def test_largest_entry_positive(self):
        f = svd(rng_for(3).standard_normal((6, 6)))
        for j in range(6):
            col = f.u[:, j]
            assert col[np.argmax(np.abs(col))] > 0.0

    def test_mixed_sign_column_normalized(self):
        # u's only column is +-(1, -1)/sqrt(2) up to roundoff. Whichever
        # entry wins on magnitude (ulp differences break the visual tie),
        # the winner must come out positive and the product unchanged.
        f = svd(np.array([[1.0], [-1.0]]))
        col = f.u[:, 0]
        assert col[np.argmax(np.abs(col))] > 0.0
        assert np.allclose(reconstruct(f), [[1.0], [-1.0]])

    def test_negative_diagonal_flips(self):
        f = svd(np.diag([-2.0, 1.0]))
        # Raw LAPACK would hand back u with a -1 somewhere; the convention
        # pushes every sign into v.
        assert np.allclose(f.u, np.eye(2))
        assert np.allclose(f.sigma, [2.0, 1.0])
        assert np.allclose(f.v, np.diag([-1.0, 1.0]))
        assert np.allclose(reconstruct(f), np.diag([-2.0, 1.0]))

    @pytest.mark.parametrize("shape", [(6, 6), (9, 4), (4, 9), (64, 64)])
    def test_matches_loop_oracle_bitwise(self, shape):
        w = rng_for(5).standard_normal(shape)
        u, s, v = loop_sign_convention(*np.linalg.svd(w, full_matrices=False))
        f = svd(w)
        assert np.array_equal(f.u, u)
        assert np.array_equal(f.sigma, s)
        assert np.array_equal(f.v, v)

    def test_magnitude_tie_lowest_row_wins(self, monkeypatch):
        # Hand-made "LAPACK output" with exact magnitude ties in both
        # columns: column 0 leads with +0.5 at row 0 (kept), column 1 with
        # -0.6 at row 0 (flipped), although row 1 holds the same magnitude
        # with the opposite sign.
        u = np.array([[0.5, -0.6], [-0.5, 0.6], [0.1, 0.2]])
        s = np.array([2.0, 1.0])
        vt = np.array([[0.6, 0.8], [-0.8, 0.6]])
        monkeypatch.setattr(np.linalg, "svd",
                            lambda w, full_matrices: (u.copy(), s.copy(), vt.copy()))
        f = svd(np.ones((3, 2)))
        want_u, want_s, want_v = loop_sign_convention(u, s, vt)
        assert np.array_equal(f.u, want_u)
        assert np.array_equal(f.sigma, want_s)
        assert np.array_equal(f.v, want_v)
        assert np.array_equal(f.u[:2], [[0.5, 0.6], [-0.5, -0.6]])
        assert np.array_equal(f.v[:, 1], [0.8, -0.6])

    def test_repeatable_bitwise(self):
        w = rng_for(4).standard_normal((5, 4))
        f1, f2 = svd(w), svd(w.copy())
        assert np.array_equal(f1.u, f2.u)
        assert np.array_equal(f1.sigma, f2.sigma)
        assert np.array_equal(f1.v, f2.v)


def factors_equal(got, want) -> bool:
    return (np.array_equal(got.u, want.u) and np.array_equal(got.sigma, want.sigma)
            and np.array_equal(got.v, want.v))


def marked(value: float, shape=(4, 3)) -> np.ndarray:
    """A matrix whose [0, 0] entry names it for a patched np.linalg.svd."""
    w = np.ones(shape)
    w[0, 0] = value
    return w


class TestSvdEach:
    # Square, tall, wide, and two with exact singular-value ties (identity
    # and a signed permutation with repeated magnitudes).
    MATRICES = [
        rng_for(30).standard_normal((7, 7)),
        rng_for(31).standard_normal((9, 4)),
        rng_for(32).standard_normal((3, 8)),
        np.eye(5),
        np.array([[0.0, -2.0, 0.0], [2.0, 0.0, 0.0], [0.0, 0.0, -2.0]]),
    ]

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_bytes_match_svd(self, monkeypatch, workers):
        monkeypatch.setattr(rosa.linalg, "_worker_count", lambda: workers)
        got = svd_each(self.MATRICES)
        assert len(got) == len(self.MATRICES)
        for factors, w in zip(got, self.MATRICES):
            assert factors_equal(factors, svd(w))

    def test_many_threads_fast_switching(self, monkeypatch):
        # More threads than cores, switching as often as the interpreter
        # allows: each slot of the result must hold its own matrix's factors.
        ws = [rng_for(40 + i).standard_normal((6, 4)) for i in range(48)]
        want = [svd(w) for w in ws]
        monkeypatch.setattr(rosa.linalg, "_worker_count", lambda: 8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = svd_each(ws)
        finally:
            sys.setswitchinterval(interval)
        assert all(factors_equal(g, w) for g, w in zip(got, want))

    @pytest.mark.parametrize("count, workers", [(1, 3), (2, 3), (3, 2),
                                                (5, 2), (4, 1), (0, 2)])
    def test_threads_at_most_min_of_matrices_and_workers(self, monkeypatch,
                                                        count, workers):
        real = np.linalg.svd
        callers = set()
        lock = threading.Lock()

        def recording(w, full_matrices):
            with lock:
                callers.add(threading.get_ident())
            return real(w, full_matrices=full_matrices)

        monkeypatch.setattr(np.linalg, "svd", recording)
        monkeypatch.setattr(rosa.linalg, "_worker_count", lambda: workers)
        start = threading.active_count()
        got = svd_each(self.MATRICES[:count] * 2)
        assert len(got) == 2 * count
        assert len(callers) <= min(2 * count, workers)
        if workers == 1:
            assert callers <= {threading.get_ident()}
        assert threading.active_count() == start

    def test_rejects_bad_input(self):
        with pytest.raises(InvalidInputError):
            svd_each([np.ones((2, 2)), np.array([[np.nan]])])

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_error_of_first_failing_matrix_reraised(self, monkeypatch, workers):
        real = np.linalg.svd

        def failing(w, full_matrices):
            if w[0, 0] in (1.0, 2.0):
                raise np.linalg.LinAlgError(f"matrix {int(w[0, 0])} failed")
            return real(w, full_matrices=full_matrices)

        monkeypatch.setattr(np.linalg, "svd", failing)
        monkeypatch.setattr(rosa.linalg, "_worker_count", lambda: workers)
        start = threading.active_count()
        with pytest.raises(np.linalg.LinAlgError, match="matrix 1 failed"):
            svd_each([marked(0.0), marked(1.0), marked(3.0)])
        assert threading.active_count() == start
        with pytest.raises(np.linalg.LinAlgError, match="matrix 1 failed"):
            svd_each([marked(0.0), marked(1.0), marked(2.0)])
        assert threading.active_count() == start

    def test_interrupt_joins_threads(self, monkeypatch):
        real = np.linalg.svd
        caller = threading.get_ident()
        interrupted = threading.Event()

        def interrupting(w, full_matrices):
            if threading.get_ident() == caller:
                interrupted.set()
                raise KeyboardInterrupt
            # The other thread is still at work when the interrupt comes.
            assert interrupted.wait(timeout=10)
            return real(w, full_matrices=full_matrices)

        monkeypatch.setattr(np.linalg, "svd", interrupting)
        monkeypatch.setattr(rosa.linalg, "_worker_count", lambda: 3)
        start = threading.active_count()
        with pytest.raises(KeyboardInterrupt):
            svd_each([marked(0.0), marked(1.0), marked(2.0)])
        assert threading.active_count() == start

    def test_no_budget_read_and_no_thread_below_two_matrices(self,
                                                             monkeypatch):
        # svd is svd_each of one matrix; neither it nor svd_each of zero or
        # one matrix reads the budget or starts a thread, even at 3.
        reads, started = [], []
        start = threading.Thread.start

        def budget():
            reads.append(3)
            return 3

        def recording_start(thread):
            started.append(thread)
            start(thread)

        monkeypatch.setattr(rosa.linalg, "_worker_count", budget)
        monkeypatch.setattr(threading.Thread, "start", recording_start)
        w = self.MATRICES[0]
        assert factors_equal(svd(w), svd_each([w])[0])
        assert svd_each([]) == []
        assert reads == [] and started == []
        # Two matrices read the budget once and start one thread.
        svd_each([w, w])
        assert len(reads) == 1 and len(started) == 1


def planted(shape, sigma, seed: int) -> np.ndarray:
    """u diag(sigma) v.T with random orthonormal u and v; len(sigma) may be
    below min(shape), giving an exact-zero tail."""
    rng = rng_for(seed)
    u, _ = np.linalg.qr(rng.standard_normal((shape[0], len(sigma))))
    v, _ = np.linalg.qr(rng.standard_normal((shape[1], len(sigma))))
    return (u * sigma) @ v.T


LRV_CASES = {
    "tall": ((12, 5), np.geomspace(3.0, 1.0, 5)),
    "square": ((6, 6), np.geomspace(3.0, 1.0, 6)),
    "wide": ((4, 9), np.geomspace(3.0, 1.0, 4)),
    "tall_zero_tail": ((12, 6), np.geomspace(3.0, 1.0, 3)),
    "wide_zero_tail": ((5, 9), np.geomspace(3.0, 1.0, 2)),
}


class TestLeadingRightVectors:
    @pytest.mark.parametrize("case", LRV_CASES)
    def test_projector_matches_svd(self, case):
        shape, sigma = LRV_CASES[case]
        w = planted(shape, sigma, seed=sum(shape))
        _, _, vt = np.linalg.svd(w, full_matrices=False)
        for rank in range(1, len(sigma) + 1):
            basis = leading_right_vectors(w, rank)
            assert basis.shape == (shape[1], rank)
            assert np.allclose(basis.T @ basis, np.eye(rank), rtol=0.0,
                               atol=1e-12)
            assert np.allclose(basis @ basis.T, vt[:rank].T @ vt[:rank],
                               rtol=0.0, atol=1e-10)

    def test_repeatable_bitwise_and_input_untouched(self):
        w = rng_for(12).standard_normal((20, 8))
        before = w.copy()
        got = leading_right_vectors(w, 3)
        assert np.array_equal(w, before)
        assert np.array_equal(got, leading_right_vectors(w.copy(), 3))

    @pytest.mark.parametrize("bad", [
        np.array([[1.0, np.nan], [0.0, 1.0]]),
        np.array([[np.inf, 0.0], [0.0, 1.0]]),
        np.zeros((0, 3)),
        np.array([1.0, 2.0]),
    ], ids=["nan", "inf", "empty", "vector"])
    def test_rejects_bad_input(self, bad):
        with pytest.raises(InvalidInputError):
            leading_right_vectors(bad, 1)

    @pytest.mark.parametrize("shape, rank", [((5, 3), 0), ((5, 3), 4),
                                             ((3, 5), 4), ((4, 4), -1)])
    def test_rejects_rank_outside_budget(self, shape, rank):
        with pytest.raises(InvalidInputError, match="rank"):
            leading_right_vectors(np.ones(shape), rank)


def qr_case(name: str) -> np.ndarray:
    rng = rng_for(len(name))
    if name == "tall":
        return rng.standard_normal((50, 8))
    if name == "bench":
        return rng.standard_normal((2000, 128))
    if name == "square":
        return rng.standard_normal((7, 7))
    if name == "one_column":
        return rng.standard_normal((9, 1))
    if name == "cond_1e8":
        return planted((60, 12), np.geomspace(1.0, 1e-8, 12), seed=1)
    if name == "cond_1e10":
        return planted((60, 12), np.geomspace(1.0, 1e-10, 12), seed=2)
    if name == "identity_columns":
        return np.eye(6)[:, :3]
    if name == "upper_trapezoidal":
        return np.triu(rng.standard_normal((7, 4)))
    raise KeyError(name)


QR_CASES = ["tall", "bench", "square", "one_column", "cond_1e8", "cond_1e10",
            "identity_columns", "upper_trapezoidal"]


class TestThinQr:
    @pytest.mark.parametrize("case", QR_CASES)
    def test_factors(self, case):
        x = qr_case(case)
        n, d = x.shape
        q, r = thin_qr(x)
        assert q.shape == (n, d) and r.shape == (d, d)
        assert np.array_equal(r, np.linalg.qr(x, mode="r"))
        assert np.abs(q.T @ q - np.eye(d)).max() <= 1e-14
        assert np.abs(q @ r - x).max() <= 1e-13 * np.abs(x).max()
        # Same reflectors as the reduced mode, so the same column signs.
        assert np.abs(q - np.linalg.qr(x, mode="reduced")[0]).max() <= 1e-14

    @pytest.mark.parametrize("case", ["identity_columns", "upper_trapezoidal"])
    def test_zero_tau_inputs(self, case):
        x = qr_case(case)
        _, tau = np.linalg.qr(x, mode="raw")
        assert np.any(tau == 0.0)
        q, r = thin_qr(x)
        assert np.allclose(q @ r, x, rtol=0.0, atol=1e-15)

    def test_input_untouched(self):
        x = qr_case("tall")
        before = x.copy()
        thin_qr(x)
        assert np.array_equal(x, before)

    @pytest.mark.parametrize("bad", [
        np.ones((3, 5)),
        np.array([[1.0, np.nan], [0.0, 1.0], [1.0, 1.0]]),
        np.array([[np.inf], [0.0]]),
        np.array([1.0, 2.0]),
    ], ids=["wide", "nan", "inf", "vector"])
    def test_rejects_bad_input(self, bad):
        with pytest.raises(InvalidInputError):
            thin_qr(bad)


class TestSingularValuesAgainstJacobi:
    """Cross-check the LAPACK route against slow Jacobi rotations."""

    @pytest.mark.parametrize("shape", SHAPES)
    def test_random_matrices(self, shape):
        w = rng_for(shape[0] * 10 + shape[1]).standard_normal(shape)
        ours = singular_values(w)
        ref = jacobi_singular_values(w)
        k = min(shape)
        assert ours.shape == (k,)
        scale = max(ref[0], 1.0)
        assert np.allclose(ours, ref[:k], atol=1e-10 * scale)

    def test_rank_deficient(self):
        u = rng_for(9).standard_normal((6, 2))
        v = rng_for(10).standard_normal((2, 5))
        ours = singular_values(u @ v)
        ref = jacobi_singular_values(u @ v)
        # The Gram route squares the matrix, so its zero singular values
        # surface as sqrt(eigen noise) ~ 1e-8 * sigma_1. Compare loosely
        # overall and strictly on the direct route's tail.
        assert np.allclose(ours, ref[:5], atol=1e-7 * max(ref[0], 1.0))
        assert np.all(ours[2:] < 1e-10 * ours[0])


class TestNumericalRank:
    def test_exact_low_rank(self):
        w = np.outer([1.0, 2.0, 3.0], [4.0, 5.0])
        assert numerical_rank(w) == 1

    def test_threshold_is_relative(self):
        # 1e-3 / 1e6 = 1e-9 sits below the 1e-8 cutoff, 1e-1 / 1e6 = 1e-7 above.
        assert numerical_rank(np.diag([1e6, 1e-3])) == 1
        assert numerical_rank(np.diag([1e6, 1e-1])) == 2

    def test_zero_matrix(self):
        assert numerical_rank(np.zeros((3, 4))) == 0

    def test_full_rank(self):
        assert numerical_rank(rng_for(11).standard_normal((5, 5))) == 5


class TestEckartYoung:
    """Truncating the decomposition is the best low-rank approximation."""

    @pytest.mark.parametrize("rank", [1, 2, 3])
    def test_truncation_error_equals_tail_energy(self, rank):
        w = rng_for(12).standard_normal((6, 5))
        f = svd(w)
        approx = (f.u[:, :rank] * f.sigma[:rank]) @ f.v[:, :rank].T
        gap = np.linalg.norm(w - approx) ** 2
        tail = float(np.sum(f.sigma[rank:] ** 2))
        assert gap == pytest.approx(tail, rel=1e-10)

    def test_no_random_candidate_beats_truncation(self):
        w = rng_for(13).standard_normal((6, 5))
        f = svd(w)
        rank = 2
        approx = (f.u[:, :rank] * f.sigma[:rank]) @ f.v[:, :rank].T
        best = np.linalg.norm(w - approx)
        rng = rng_for(14)
        for _ in range(50):
            a = rng.standard_normal((6, rank))
            b = rng.standard_normal((rank, 5))
            assert np.linalg.norm(w - a @ b) >= best - 1e-12


class TestSampleIndices:
    def test_top_takes_leading(self):
        assert list(sample_indices(3, 8, SamplingScheme.TOP, None)) == [0, 1, 2]

    def test_bottom_takes_trailing(self):
        assert list(sample_indices(3, 8, SamplingScheme.BOTTOM, None)) == [5, 6, 7]

    def test_random_sorted_unique_in_range(self):
        idx = sample_indices(4, 10, SamplingScheme.RANDOM, rng_for(15))
        assert len(set(idx.tolist())) == 4
        assert list(idx) == sorted(idx.tolist())
        assert idx.min() >= 0 and idx.max() < 10

    def test_random_requires_rng(self):
        with pytest.raises(InvalidInputError):
            sample_indices(2, 5, SamplingScheme.RANDOM, None)

    def test_count_exceeding_bound_rejected(self):
        with pytest.raises(InvalidInputError):
            sample_indices(6, 5, SamplingScheme.TOP, None)

    def test_full_draw_is_everything(self):
        idx = sample_indices(5, 5, SamplingScheme.RANDOM, rng_for(16))
        assert list(idx) == [0, 1, 2, 3, 4]


class TestProjection:
    @pytest.mark.parametrize("shape", [(6, 2), (8, 5), (4, 4)])
    def test_matches_gram_schmidt(self, shape):
        x = rng_for(shape[0] * 3 + shape[1]).standard_normal(shape)
        p = projection_onto_range(x)
        assert np.allclose(p, gram_schmidt_projection(x), atol=1e-10)

    def test_idempotent_and_symmetric(self):
        p = projection_onto_range(rng_for(17).standard_normal((7, 3)))
        assert np.allclose(p @ p, p, atol=1e-12)
        assert np.allclose(p, p.T, atol=1e-12)

    def test_fixes_range_kills_complement(self):
        x = rng_for(18).standard_normal((6, 2))
        p = projection_onto_range(x)
        assert np.allclose(p @ x, x, atol=1e-12)
        # A vector orthogonal to both columns maps to zero.
        z = rng_for(19).standard_normal(6)
        z -= x @ np.linalg.lstsq(x, z, rcond=None)[0]
        assert np.allclose(p @ z, 0.0, atol=1e-10)

    def test_wide_matrix_rejected(self):
        with pytest.raises(SingularMatrixError):
            projection_onto_range(np.ones((2, 5)))

    def test_rank_deficient_rejected(self):
        x = np.ones((5, 2))
        with pytest.raises(SingularMatrixError):
            projection_onto_range(x)


@settings(deadline=None, max_examples=60)
@given(seed=st.integers(0, 10**6), shape=st.sampled_from(SHAPES))
def test_svd_invariants(seed, shape):
    w = np.random.default_rng(seed).standard_normal(shape)
    f = svd(w)
    k = min(shape)
    assert f.sigma.shape == (k,)
    assert np.all(np.diff(f.sigma) <= 1e-12)
    assert np.allclose(reconstruct(f), w, atol=1e-10 * max(1.0, f.sigma[0]))
    assert np.allclose(f.u.T @ f.u, np.eye(k), atol=1e-10)
    assert np.allclose(f.v.T @ f.v, np.eye(k), atol=1e-10)


@settings(deadline=None, max_examples=40)
@given(seed=st.integers(0, 10**6), count=st.integers(1, 6))
def test_random_sampling_always_valid(seed, count):
    bound = 6
    idx = sample_indices(count, bound, SamplingScheme.RANDOM,
                         np.random.default_rng(seed))
    assert len(idx) == count
    assert len(set(idx.tolist())) == count
    assert all(0 <= i < bound for i in idx)


CONTRACT_SHAPES = [(128, 64), (64, 128), (128, 128), (9, 4), (3, 8), (1, 5)]


@pytest.mark.parametrize("workers", [None, 1, 2])
def test_svd_contract(monkeypatch, workers):
    # workers None is svd itself, one matrix at a time.
    ws = [rng_for(50 + i).standard_normal(shape)
          for i, shape in enumerate(CONTRACT_SHAPES)]
    ws += [np.eye(4), np.zeros((3, 2)), np.ones((4, 6))]
    if workers is None:
        got = [svd(w) for w in ws]
    else:
        monkeypatch.setattr(rosa.linalg, "_worker_count", lambda: workers)
        got = svd_each(ws)
    for factors, w in zip(got, ws):
        assert_svd_contract(factors, w)


def test_svd_rejects_bad_input():
    with pytest.raises(InvalidInputError):
        svd(np.array([1.0, 2.0]))


def test_shape_error_carries_both_shapes():
    err = ShapeError("mismatch", (2, 3), (4, 5))
    assert err.left == (2, 3)
    assert err.right == (4, 5)
