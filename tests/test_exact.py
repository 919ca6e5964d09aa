import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import math

import rosa.exact
import rosa.experiments
from rosa.errors import (
    InvalidInputError,
    NumericError,
    RankTooLargeError,
    ShapeError,
    SingularMatrixError,
)
from rosa.exact import (
    RegressionProblem,
    achieved_error,
    data_error,
    irreducible_error,
    least_squares,
    lora_error_lower_bound,
    predicted_rounds,
    realizable_instance,
    residual_rank,
    rosa_exact_iterate,
    rrr_optimum,
    with_off_range_noise,
)
from rosa.experiments import run_theorem_suite
from rosa.linalg import SvdFactors, singular_values

from oracles import (
    assert_svd_contract,
    direct_greedy_weights,
    gd_rank_limited,
    gram_schmidt_projection,
    projection_onto_range,
    random_instance,
    reference_error_floor,
    truncated_move_weights,
)


def rng_for(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


class TestProblemValidation:
    def test_shapes_must_chain(self):
        with pytest.raises(InvalidInputError):
            RegressionProblem(x=np.ones((5, 3)), y=np.ones((4, 2)),
                              w0=np.ones((3, 2)))

    def test_w0_must_match(self):
        with pytest.raises(InvalidInputError):
            RegressionProblem(x=np.ones((5, 3)), y=np.ones((5, 2)),
                              w0=np.ones((2, 2)))

    def test_rank_deficient_x_rejected(self):
        x = np.ones((6, 2))
        with pytest.raises(SingularMatrixError):
            RegressionProblem(x=x, y=np.ones((6, 1)), w0=np.ones((2, 1)))

    def test_properties(self):
        p = random_instance(10, 4, 3, seed=0)
        assert p.w0.shape == (4, 3)
        assert min(p.w0.shape) == 3
        with pytest.raises(RankTooLargeError,
                           match=r"^rank 4 exceeds the admissible budget "
                                 r"min\(d=4, p=3\) = 3$"):
            predicted_rounds(p, 4)


class TestLeastSquares:
    def test_matches_normal_equations(self):
        p = random_instance(15, 5, 3, seed=1)
        w = least_squares(p.x, p.y)
        want = np.linalg.solve(p.x.T @ p.x, p.x.T @ p.y)
        assert np.allclose(w, want, atol=1e-10)

    def test_exact_on_realizable(self):
        p = realizable_instance(20, 6, 4, residual_rank=3, seed=2)
        w = least_squares(p.x, p.y)
        assert data_error(p, w) <= 1e-18 * data_error(p, p.w0)

    def test_rank_deficient_rejected(self):
        x = np.ones((5, 3))
        x[:, 2] = x[:, 0] + x[:, 1]
        with pytest.raises(SingularMatrixError):
            least_squares(x, np.ones((5, 1)))


class TestIrreducibleError:
    def test_zero_when_realizable(self):
        p = realizable_instance(18, 5, 3, residual_rank=2, seed=3)
        assert irreducible_error(p) <= 1e-16

    def test_matches_projector_route(self):
        p = random_instance(12, 4, 3, seed=4)
        proj = gram_schmidt_projection(p.x)
        off_range = p.y - proj @ p.y
        want = float(np.sum(off_range**2))
        assert irreducible_error(p) == pytest.approx(want, rel=1e-10)

    def test_invariant_under_w0(self):
        p1 = random_instance(12, 4, 3, seed=5)
        p2 = RegressionProblem(x=p1.x, y=p1.y, w0=np.zeros((4, 3)))
        assert irreducible_error(p1) == pytest.approx(irreducible_error(p2),
                                                      rel=1e-12)


class TestClosedFormOptimum:
    """rrr_optimum against independent gradient descent."""

    @pytest.mark.parametrize("rank", [1, 2, 3])
    def test_gd_agrees_on_small_instance(self, rank):
        p = random_instance(12, 6, 4, seed=5)
        a, b = rrr_optimum(p, rank)
        exact = achieved_error(p, a, b)
        best_final, best_ever = gd_rank_limited(p, rank, restarts=20,
                                               iters=2000, seed=0)
        # Descent from the best restart reaches the closed form, and no
        # visited point undercuts it beyond roundoff.
        assert best_final == pytest.approx(exact, rel=1e-9)
        assert best_ever >= exact - 1e-9 * exact

    def test_correction_shape_and_rank(self):
        p = random_instance(14, 7, 5, seed=6)
        a, b = rrr_optimum(p, 2)
        assert a.shape == (7, 2)
        assert b.shape == (2, 5)
        assert np.linalg.matrix_rank(a @ b) <= 2

    def test_rank_budget_recovers_least_squares(self):
        p = random_instance(14, 7, 5, seed=7)
        a, b = rrr_optimum(p, 5)
        w_ls = least_squares(p.x, p.y)
        assert np.allclose(p.w0 + a @ b, w_ls, atol=1e-9)

    def test_rank_too_large_rejected(self):
        p = random_instance(10, 4, 3, seed=8)
        with pytest.raises(RankTooLargeError):
            rrr_optimum(p, 4)
        with pytest.raises(InvalidInputError):
            rrr_optimum(p, 0)


class TestErrorFloor:
    @pytest.mark.parametrize("seed", [10, 11, 12])
    def test_achieved_meets_bound(self, seed):
        p = random_instance(13, 6, 5, seed=seed)
        for rank in (1, 2, 4):
            a, b = rrr_optimum(p, rank)
            above_floor = achieved_error(p, a, b) - irreducible_error(p)
            bound = lora_error_lower_bound(p, rank)
            assert above_floor == pytest.approx(bound, rel=1e-9)

    @pytest.mark.parametrize("seed", [13, 14])
    def test_matches_gram_schmidt_jacobi_route(self, seed):
        p = random_instance(11, 5, 4, seed=seed)
        for rank in (1, 3):
            ours = lora_error_lower_bound(p, rank)
            ref = reference_error_floor(p, rank)
            assert ours == pytest.approx(ref, rel=1e-8)

    def test_monotone_in_rank(self):
        p = random_instance(12, 6, 6, seed=15)
        bounds = [lora_error_lower_bound(p, r) for r in range(1, 7)]
        assert all(x >= y - 1e-12 for x, y in zip(bounds, bounds[1:]))
        assert bounds[-1] <= 1e-9 * bounds[0]


class TestResidualRankAndRounds:
    def test_planted_rank_recovered(self):
        for planted in (1, 3, 5):
            p = realizable_instance(25, 8, 6, residual_rank=planted, seed=16)
            assert residual_rank(p) == planted

    def test_solved_problem_has_rank_zero(self):
        base = realizable_instance(20, 6, 4, residual_rank=3, seed=17)
        w_ls = least_squares(base.x, base.y)
        solved = RegressionProblem(x=base.x, y=base.y, w0=w_ls)
        assert residual_rank(solved) == 0
        assert predicted_rounds(solved, 2) == 0

    def test_round_counts(self):
        p = realizable_instance(25, 8, 6, residual_rank=5, seed=18)
        assert predicted_rounds(p, 1) == 5
        assert predicted_rounds(p, 2) == 3
        assert predicted_rounds(p, 5) == 1
        assert predicted_rounds(p, 6) == 1

    @pytest.mark.parametrize("scale", [1e-12, 1.0, 1e12])
    def test_rank_does_not_depend_on_units(self, scale):
        # y and w0 scaled together: the same problem in other units.
        base = realizable_instance(200, 16, 8, residual_rank=4, seed=0)
        p = RegressionProblem(x=base.x, y=base.y * scale, w0=base.w0 * scale)
        assert residual_rank(p) == 4
        assert [predicted_rounds(p, r) for r in (1, 2, 3, 4)] == [4, 2, 2, 1]
        for rank in (1, 2):
            steps = predicted_rounds(p, rank) + 1
            trace = rosa_exact_iterate(p, rank, steps)
            ref = direct_greedy_weights(p, rank, steps)
            for t, (got, want) in enumerate(zip(trace.weights, ref)):
                assert np.allclose(got, want, rtol=0.0, atol=1e-10 * scale), t
            assert trace.errors[steps - 1] <= 1e-20 * trace.errors[0]


class TestGreedyIteration:
    def test_matches_single_decomposition_route(self):
        # Re-rooting every round must equal truncating the one global move.
        p = realizable_instance(22, 7, 5, residual_rank=4, seed=19)
        trace = rosa_exact_iterate(p, rank=1, max_steps=5)
        ref = truncated_move_weights(p, rank=1, steps=5)
        for t, (got, want) in enumerate(zip(trace.weights, ref)):
            scale = max(1.0, float(np.abs(want).max()))
            assert np.allclose(got, want, atol=1e-8 * scale), f"step {t}"

    def test_matches_on_generic_instance(self):
        p = random_instance(16, 6, 4, seed=20)
        trace = rosa_exact_iterate(p, rank=2, max_steps=3)
        ref = truncated_move_weights(p, rank=2, steps=3)
        for got, want in zip(trace.weights, ref):
            assert np.allclose(got, want, atol=1e-8)

    def test_converges_at_predicted_round(self):
        p = realizable_instance(30, 10, 6, residual_rank=6, seed=21)
        trace = rosa_exact_iterate(p, rank=2, max_steps=4)
        assert predicted_rounds(p, 2) == 3
        start = trace.errors[0]
        assert trace.errors[3] <= 1e-12 * start
        assert trace.errors[2] > 1e-6 * start

    def test_rank_one_walks_every_direction(self):
        p = realizable_instance(20, 6, 5, residual_rank=4, seed=22)
        trace = rosa_exact_iterate(p, rank=1, max_steps=6)
        assert predicted_rounds(p, 1) == 4
        start = trace.errors[0]
        # Strict progress each round until exhaustion, then flat at zero.
        for t in range(4):
            assert trace.errors[t + 1] < trace.errors[t] * 0.999
        assert trace.errors[4] <= 1e-12 * start
        assert trace.errors[6] <= 1e-12 * start

    def test_plateau_at_irreducible(self):
        base = realizable_instance(24, 8, 5, residual_rank=3, seed=23)
        noisy = with_off_range_noise(base, scale=0.7, seed=24)
        floor = irreducible_error(noisy)
        assert floor > 1e-3
        trace = rosa_exact_iterate(noisy, rank=1, max_steps=6)
        assert trace.errors[-1] == pytest.approx(floor, rel=1e-9)

    def test_zero_steps(self):
        p = random_instance(10, 4, 3, seed=25)
        trace = rosa_exact_iterate(p, rank=1, max_steps=0)
        assert len(trace.weights) == 1
        assert trace.errors == [data_error(p, p.w0)]

    def test_negative_steps_rejected(self):
        p = random_instance(10, 4, 3, seed=26)
        with pytest.raises(InvalidInputError):
            rosa_exact_iterate(p, rank=1, max_steps=-1)

    @pytest.mark.parametrize("max_steps", [1, 3])
    def test_non_finite_error_raises_numeric_error(self, monkeypatch, max_steps):
        # A NaN singular basis makes the round's error NaN, which compares
        # False against the monotonicity guard; it must still be caught.
        svd = rosa.exact.svd

        def nan_v(w):
            f = svd(w)
            return SvdFactors(u=f.u, sigma=f.sigma, v=np.full_like(f.v, np.nan))

        monkeypatch.setattr(rosa.exact, "svd", nan_v)
        p = random_instance(10, 4, 3, seed=26)
        with pytest.raises(NumericError, match="not finite"):
            rosa_exact_iterate(p, rank=2, max_steps=max_steps)

    def test_non_finite_basis_in_later_round_raises(self, monkeypatch):
        # Round 0 reads the problem's svd; a NaN basis from a later round's
        # leading_right_vectors must trip the same guard.
        monkeypatch.setattr(rosa.exact, "leading_right_vectors",
                            lambda w, rank: np.full((w.shape[1], rank), np.nan))
        p = random_instance(10, 4, 3, seed=26)
        with pytest.raises(NumericError, match="not finite after round 2"):
            rosa_exact_iterate(p, rank=1, max_steps=3)

    @pytest.mark.parametrize("rank", [1, 2])
    def test_converges_at_predicted_round_over_wide_gains(self, rank):
        # Planted gains over four orders of magnitude: the Gram route must
        # still resolve the weakest direction and finish on schedule.
        rng = rng_for(27)
        n, d, p, k = 60, 12, 8, 5
        x = rng.standard_normal((n, d))
        w0 = rng.standard_normal((d, p))
        qu, _ = np.linalg.qr(rng.standard_normal((d, k)))
        qv, _ = np.linalg.qr(rng.standard_normal((p, k)))
        move = (qu * np.geomspace(1.0, 1e-4, k)) @ qv.T
        prob = RegressionProblem(x=x, y=x @ (w0 + move), w0=w0)
        t_pred = predicted_rounds(prob, rank)
        assert t_pred == math.ceil(k / rank)
        trace = rosa_exact_iterate(prob, rank, t_pred + 2)
        start = trace.errors[0]
        assert trace.errors[t_pred - 1] > 1e-10 * start
        assert all(e <= 1e-12 * start for e in trace.errors[t_pred:])

    def test_builds_no_problem(self, monkeypatch):
        p = realizable_instance(22, 7, 5, residual_rank=4, seed=19)
        built = []
        post_init = RegressionProblem.__post_init__

        def counting(self):
            built.append(self)
            post_init(self)

        monkeypatch.setattr(RegressionProblem, "__post_init__", counting)
        rosa_exact_iterate(p, rank=1, max_steps=6)
        assert built == []


class TestCachedFactors:
    def test_no_least_squares_call(self, monkeypatch):
        # w_ls comes from the QR taken at construction, not from lstsq.
        calls = []
        solve = rosa.exact.least_squares
        lstsq = np.linalg.lstsq

        def counting(x, y):
            calls.append("least_squares")
            return solve(x, y)

        def counting_lstsq(*args, **kwargs):
            calls.append("lstsq")
            return lstsq(*args, **kwargs)

        monkeypatch.setattr(rosa.exact, "least_squares", counting)
        monkeypatch.setattr(np.linalg, "lstsq", counting_lstsq)
        p = realizable_instance(22, 7, 5, residual_rank=4, seed=34)
        rrr_optimum(p, 2)
        irreducible_error(p)
        lora_error_lower_bound(p, 2)
        predicted_rounds(p, 2)
        rosa_exact_iterate(p, rank=2, max_steps=3)
        with_off_range_noise(p, scale=1.0, seed=35)
        assert calls == []

    def test_values_match_direct_routes(self):
        p = random_instance(15, 6, 4, seed=35)
        assert np.allclose(p.w_ls, least_squares(p.x, p.y), rtol=1e-12,
                           atol=1e-14)
        r = p.x_r
        assert r.shape == (6, 6)
        assert np.array_equal(r, np.triu(r))
        assert np.allclose(r.T @ r, p.x.T @ p.x, atol=1e-10)
        direct = singular_values(p.x @ (p.w_ls - p.w0))
        sigma = p.residual_factors.sigma
        assert sigma.shape == (4,)
        assert np.allclose(sigma, direct, rtol=1e-12, atol=0.0)

    def test_q_factor(self):
        p = random_instance(15, 6, 4, seed=38)
        q = p.x_q
        assert q.shape == (15, 6)
        assert np.allclose(q.T @ q, np.eye(6), rtol=0.0, atol=1e-14)
        assert np.allclose(q @ p.x_r, p.x, rtol=0.0, atol=1e-13)
        assert np.array_equal(p.x_r, np.linalg.qr(p.x, mode="r"))

    def test_ill_conditioned_matches_lstsq(self):
        # cond(x) = 1e8: both routes lose about cond * eps of the planted
        # weight; the QR route may lose no more than lstsq does.
        rng = rng_for(39)
        n, d, p = 60, 12, 5
        u, _ = np.linalg.qr(rng.standard_normal((n, d)))
        v, _ = np.linalg.qr(rng.standard_normal((d, d)))
        x = (u * np.geomspace(1.0, 1e-8, d)) @ v.T
        w_star = rng.standard_normal((d, p))
        prob = RegressionProblem(x=x, y=x @ w_star, w0=np.zeros((d, p)))
        assert np.isclose(np.linalg.cond(x), 1e8, rtol=1e-6)

        def rel_error(w):
            return np.linalg.norm(w - w_star) / np.linalg.norm(w_star)

        lstsq_error = rel_error(least_squares(x, prob.y))
        assert lstsq_error < 1e-6
        assert rel_error(prob.w_ls) <= 10.0 * lstsq_error

    def test_wide_targets_keep_budget(self):
        # p > d: R @ move is d x p, so the spectrum has d entries, the
        # admissible budget, where x @ move would add p - d roundoff zeros.
        p = random_instance(20, 4, 7, seed=36)
        assert p.residual_factors.sigma.shape == (4,)
        a, b = rrr_optimum(p, 4)
        assert np.allclose(p.w0 + a @ b, p.w_ls, atol=1e-9)
        assert lora_error_lower_bound(p, 4) == 0.0

    def test_cached_arrays_read_only(self):
        p = random_instance(10, 4, 3, seed=37)
        for arr in (p.w_ls, p.x_q, p.x_r, p.residual_factors.sigma):
            with pytest.raises(ValueError):
                arr[0] = 0.0


def direct_error(problem: RegressionProblem, w) -> float:
    r = problem.x @ w - problem.y
    return float(np.sum(r * r))


class TestDataErrorFromR:
    INSTANCES = {
        "random": lambda: random_instance(30, 6, 4, seed=40),
        "realizable": lambda: realizable_instance(30, 6, 4, residual_rank=3,
                                                  seed=41),
        "wide": lambda: random_instance(30, 4, 9, seed=42),
    }

    @pytest.mark.parametrize("kind", sorted(INSTANCES))
    @pytest.mark.parametrize("where", ["w0", "w_ls", "random"])
    def test_matches_direct_product(self, kind, where):
        p = self.INSTANCES[kind]()
        w = {"w0": p.w0, "w_ls": p.w_ls,
             "random": rng_for(43).standard_normal(p.w0.shape)}[where]
        floor = 1e-14 * float(np.sum(p.y ** 2))
        assert np.isclose(data_error(p, w), direct_error(p, w),
                          rtol=1e-12, atol=floor)

    @pytest.mark.parametrize("shape", [(1, 4), (4,), (4, 6)])
    def test_wrong_weight_shape_rejected(self, shape):
        p = random_instance(30, 6, 4, seed=45)
        with pytest.raises(ShapeError):
            data_error(p, np.ones(shape))

    @pytest.mark.parametrize("a_shape, b_shape", [
        ((1, 2), (2, 4)),   # a @ b is 1 x p, would broadcast over w0
        ((6, 2), (2, 1)),   # a @ b is d x 1, would broadcast over w0
        ((6, 2), (3, 4)),   # inner sizes disagree
        ((6,), (4,)),       # vectors, not factors
    ])
    def test_mismatched_factors_rejected(self, a_shape, b_shape):
        p = random_instance(30, 6, 4, seed=46)
        with pytest.raises(ShapeError):
            achieved_error(p, np.ones(a_shape), np.ones(b_shape))


class TestNoiseInjection:
    def test_shares_base_factors(self):
        base = random_instance(14, 5, 4, seed=47)
        noisy = with_off_range_noise(base, scale=2.0, seed=48)
        assert noisy.x is base.x
        assert noisy.w0 is base.w0
        assert noisy.x_q is base.x_q
        assert noisy.x_r is base.x_r
        assert noisy.w_ls is base.w_ls
        assert noisy.residual_factors.sigma is base.residual_factors.sigma

    def test_no_second_rank_check(self, monkeypatch):
        base = realizable_instance(20, 6, 4, residual_rank=2, seed=49)
        predicted_rounds(base, 1)  # the suite reads the base spectrum first
        calls = []
        post_init = RegressionProblem.__post_init__
        spectrum = rosa.exact.singular_values

        def counting_post_init(self):
            calls.append("post_init")
            post_init(self)

        def counting_spectrum(w):
            calls.append("singular_values")
            return spectrum(w)

        monkeypatch.setattr(RegressionProblem, "__post_init__", counting_post_init)
        monkeypatch.setattr(rosa.exact, "singular_values", counting_spectrum)
        noisy = with_off_range_noise(base, scale=1.0, seed=50)
        predicted_rounds(noisy, 1)
        assert calls == []

    def test_y_norm_is_not_shared(self):
        base = random_instance(14, 5, 4, seed=55)
        base_norm = base.y_norm  # cached before the copy is made
        noisy = with_off_range_noise(base, scale=2.0, seed=56)
        assert base_norm == np.linalg.norm(base.y)
        assert noisy.y_norm == np.linalg.norm(noisy.y) != base_norm

    def test_shared_weight_is_noisy_least_squares(self):
        base = random_instance(14, 5, 4, seed=51)
        noisy = with_off_range_noise(base, scale=3.0, seed=52)
        assert np.allclose(noisy.w_ls, least_squares(noisy.x, noisy.y),
                           rtol=0.0, atol=1e-10)

    def test_noise_is_off_range(self):
        base = random_instance(14, 5, 4, seed=53)
        noisy = with_off_range_noise(base, scale=2.0, seed=54)
        proj = projection_onto_range(base.x)
        assert np.allclose(proj @ (noisy.y - base.y), 0.0, atol=1e-10)
        assert not np.allclose(noisy.y, base.y)

    def test_noisy_error_matches_direct_product(self):
        base = realizable_instance(20, 6, 4, residual_rank=2, seed=55)
        noisy = with_off_range_noise(base, scale=1.0, seed=56)
        for w in (noisy.w0, noisy.w_ls, rng_for(57).standard_normal((6, 4))):
            assert np.isclose(data_error(noisy, w), direct_error(noisy, w),
                              rtol=1e-12, atol=0.0)

    def test_non_finite_noise_rejected(self):
        base = random_instance(10, 4, 3, seed=58)
        with pytest.raises(InvalidInputError):
            with_off_range_noise(base, scale=float("inf"), seed=59)

    @pytest.mark.parametrize("scale", [float("nan"), float("inf")],
                             ids=["nan", "inf"])
    def test_non_finite_scale_named(self, scale):
        base = random_instance(10, 4, 3, seed=58)
        with pytest.raises(InvalidInputError, match="scale must be finite"):
            with_off_range_noise(base, scale=scale, seed=59)

    def test_least_squares_weight_unmoved(self):
        base = random_instance(14, 5, 4, seed=27)
        noisy = with_off_range_noise(base, scale=2.0, seed=28)
        w1 = least_squares(base.x, base.y)
        w2 = least_squares(noisy.x, noisy.y)
        assert np.allclose(w1, w2, atol=1e-8)

    def test_floor_rises(self):
        base = realizable_instance(20, 6, 4, residual_rank=2, seed=29)
        noisy = with_off_range_noise(base, scale=1.0, seed=30)
        assert irreducible_error(noisy) > irreducible_error(base) + 1.0

    def test_negative_scale_rejected(self):
        with pytest.raises(InvalidInputError):
            with_off_range_noise(random_instance(10, 4, 3, seed=31), -0.1, 32)


class TestDecompositionCount:
    """svd, leading_right_vectors and singular_values calls, counted where
    rosa.exact looks them up."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = []
        for name in ("svd", "leading_right_vectors", "singular_values"):
            def counting(*args, fn=getattr(rosa.exact, name), name=name):
                calls.append(name)
                return fn(*args)

            monkeypatch.setattr(rosa.exact, name, counting)
        return calls

    @pytest.fixture
    def solve_shapes(self, monkeypatch, calls):
        """Shapes of the matrices leading_right_vectors receives."""
        shapes = []
        counted = rosa.exact.leading_right_vectors

        def recording(w, rank):
            shapes.append(np.shape(w))
            return counted(w, rank)

        monkeypatch.setattr(rosa.exact, "leading_right_vectors", recording)
        return shapes

    def test_theorem_suite(self, monkeypatch, calls, solve_shapes):
        built, traces = [], []
        post_init = RegressionProblem.__post_init__
        iterate = rosa.experiments.rosa_exact_iterate

        def counting_post_init(self):
            built.append(self)
            post_init(self)

        def counting_iterate(problem, rank, max_steps):
            before, shapes_before = len(calls), len(solve_shapes)
            trace = iterate(problem, rank, max_steps)
            width = max(residual_rank(problem), rank)
            traces.append((calls[before:], len(trace.errors) - 1,
                           solve_shapes[shapes_before:],
                           (problem.w0.shape[0], width)))
            return trace

        monkeypatch.setattr(RegressionProblem, "__post_init__", counting_post_init)
        monkeypatch.setattr(rosa.experiments, "rosa_exact_iterate",
                            counting_iterate)
        report = run_theorem_suite()
        assert report["all_ok"]
        assert len(built) == 1
        assert len(traces) == len(report["cases"]) + 1
        # Round 0 of every trace reads its problem's decomposition; each
        # later round takes one leading_right_vectors and nothing else, on
        # its residual in the d x max(s, rank) basis of the problem's
        # residual row space, never on the d x p residual itself.
        assert all(during == ["leading_right_vectors"] * (rounds - 1)
                   for during, rounds, _, _ in traces)
        assert all(shapes == [want] * (rounds - 1)
                   for _, rounds, shapes, want in traces)
        assert all(want[1] < built[0].w0.shape[1] for *_, want in traces)
        # One residual svd for the base problem, none for the noisy copy,
        # which shares it.
        assert calls.count("svd") == 1
        assert calls.count("leading_right_vectors") == sum(
            r - 1 for _, r, _, _ in traces)
        # Singular values only for the rank check at construction.
        assert calls.count("singular_values") == len(built)

    def test_theorem_suite_factors_x_once(self, monkeypatch):
        # x's thin Q comes from thin_qr's WY product, once for the base
        # problem (the noisy copy shares it), never from the reduced mode.
        factored, reduced = [], []
        thin = rosa.exact.thin_qr
        qr = np.linalg.qr

        def counting_thin_qr(x):
            factored.append(np.shape(x))
            return thin(x)

        def counting_qr(a, mode="reduced"):
            if mode == "reduced":
                reduced.append(np.shape(a))
            return qr(a, mode=mode)

        monkeypatch.setattr(rosa.exact, "thin_qr", counting_thin_qr)
        monkeypatch.setattr(np.linalg, "qr", counting_qr)
        report = run_theorem_suite()
        assert report["all_ok"]
        assert factored == [(40, 16)]
        assert (40, 16) not in reduced

    @pytest.mark.parametrize("rank, width", [(1, 3), (3, 3), (8, 8)])
    def test_basis_widens_to_rank(self, solve_shapes, rank, width):
        # A rank-3 residual: the basis holds its 3 directions, widened to
        # `rank` columns when the round is wider than the residual.
        prob = realizable_instance(30, 10, 9, residual_rank=3, seed=66)
        rosa_exact_iterate(prob, rank, max_steps=3)
        assert solve_shapes == [(10, width)] * 2

    def test_problem_decomposes_residual_once(self, calls):
        base = realizable_instance(20, 6, 4, residual_rank=3, seed=63)
        calls.clear()  # the rank check at construction
        for rank in (1, 2, 3):
            predicted_rounds(base, rank)
            rrr_optimum(base, rank)
            lora_error_lower_bound(base, rank)
        noisy = with_off_range_noise(base, scale=1.0, seed=64)
        predicted_rounds(noisy, 1)
        rrr_optimum(noisy, 2)
        lora_error_lower_bound(noisy, 2)
        rosa_exact_iterate(noisy, rank=3, max_steps=1)
        assert calls == ["svd"]


SHAPES = {"tall": (30, 8, 5), "square": (30, 6, 6), "wide": (30, 4, 9)}


class TestRightFactorRoute:
    """Residuals decomposed as R @ move, with R the triangular factor of x,
    against the SVD of the n x p matrix x @ move itself."""

    @pytest.mark.parametrize("shape", [*SHAPES.values(), (300, 128, 64)],
                             ids=[*SHAPES, "bench"])
    def test_residual_factors_contract(self, shape):
        n, d, p = shape
        prob = realizable_instance(n, d, p, residual_rank=min(d, p) - 1, seed=65)
        factors = prob.residual_factors
        move = prob.w_ls - prob.w0
        assert_svd_contract(factors, prob.x_r @ move)
        # x_q @ u is the left factor of e = x @ move itself.
        e = prob.x @ move
        assert np.allclose((prob.x_q @ factors.u * factors.sigma) @ factors.v.T,
                           e, rtol=0.0, atol=1e-12 * np.abs(e).max())
        for a in (factors.u, factors.sigma, factors.v):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 0.0

    @pytest.mark.parametrize("kind", ["random", "realizable"])
    @pytest.mark.parametrize("shape", SHAPES.values(), ids=SHAPES)
    def test_projector_matches_direct_svd(self, shape, kind):
        n, d, p = shape
        budget = min(d, p)
        prob = (random_instance(n, d, p, seed=60) if kind == "random" else
                realizable_instance(n, d, p, residual_rank=budget - 1, seed=61))
        _, sigma, vt = np.linalg.svd(prob.x @ (prob.w_ls - prob.w0),
                                     full_matrices=False)
        # Ranks whose projector is well defined: sigma_r is no roundoff
        # value and clears sigma_r+1.
        ranks = [r for r in range(1, budget + 1)
                 if sigma[r - 1] > 1e-8 * sigma[0]
                 and (r == sigma.size or sigma[r - 1] > 1.05 * sigma[r])]
        assert len(ranks) >= budget - 1
        for r in ranks:
            _, b = rrr_optimum(prob, r)
            assert np.allclose(b.T @ b, vt[:r].T @ vt[:r], rtol=0.0, atol=1e-10)
        assert np.allclose(prob.residual_factors.sigma, sigma[:budget],
                           rtol=1e-12, atol=1e-12 * sigma[0])

    @pytest.mark.parametrize("shape", [*SHAPES.values(), (300, 128, 64)],
                             ids=[*SHAPES, "bench"])
    def test_greedy_matches_direct_route(self, shape):
        n, d, p = shape
        budget = min(d, p)
        prob = realizable_instance(n, d, p, residual_rank=budget - 1, seed=62)
        for rank in (1, 2):
            steps = predicted_rounds(prob, rank) + 1
            trace = rosa_exact_iterate(prob, rank, steps)
            ref = direct_greedy_weights(prob, rank, steps)
            scale = float(np.abs(prob.w_ls).max())
            for t, (got, want) in enumerate(zip(trace.weights, ref)):
                assert np.allclose(got, want, rtol=0.0, atol=1e-10 * scale), t
                assert np.isclose(trace.errors[t], direct_error(prob, want),
                                  rtol=1e-9, atol=1e-12 * trace.errors[0])

    ROW_SPACE_CASES = {
        "full_rank": (lambda: random_instance(60, 10, 6, seed=67), (1, 4)),
        "rank3": (lambda: realizable_instance(60, 10, 9, residual_rank=3,
                                              seed=68), (4, 8)),
        "solved": (lambda: realizable_instance(60, 10, 6, residual_rank=0,
                                               seed=69), (1, 3)),
        "wide": (lambda: random_instance(60, 5, 9, seed=70), (1, 2)),
        "noisy": (lambda: with_off_range_noise(
            realizable_instance(60, 10, 6, residual_rank=4, seed=71),
            scale=0.5, seed=72), (1, 3)),
    }

    @pytest.mark.parametrize("case", ROW_SPACE_CASES)
    def test_row_space_rounds_match_direct_route(self, case):
        # Later rounds solve inside the row space of the problem's residual;
        # the direct route decomposes each round's n x p residual in full.
        make, ranks = self.ROW_SPACE_CASES[case]
        prob = make()
        scale = float(np.abs(prob.w_ls).max())
        for rank in ranks:
            steps = predicted_rounds(prob, rank) + 2
            trace = rosa_exact_iterate(prob, rank, steps)
            ref = direct_greedy_weights(prob, rank, steps)
            for t, (got, want) in enumerate(zip(trace.weights, ref)):
                assert np.allclose(got, want, rtol=0.0, atol=1e-10 * scale), t
                assert np.isclose(trace.errors[t], direct_error(prob, want),
                                  rtol=1e-9, atol=1e-12 * max(trace.errors[0], 1.0))

    @pytest.mark.parametrize("d, p, residual, ranks", [
        (16, 8, 6, (1, 2, 3, 6)), (8, 8, 5, (1, 2, 5)), (6, 12, 5, (1, 2, 5)),
    ], ids=["tall", "square", "wide"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_suite_round_counts(self, d, p, residual, ranks, seed):
        report = run_theorem_suite(n=40, d=d, p=p, residual_rank=residual,
                                   ranks=ranks, seed=seed)
        assert report["all_ok"]
        rounds = [math.ceil(residual / r) for r in ranks]
        assert [c["t_predicted"] for c in report["cases"]] == rounds
        assert [c["observed_step"] for c in report["cases"]] == rounds


class TestInstanceFactories:
    def test_realizable_rejects_bad_rank(self):
        with pytest.raises(InvalidInputError):
            realizable_instance(10, 4, 3, residual_rank=4, seed=0)

    def test_needs_enough_samples(self):
        with pytest.raises(InvalidInputError):
            realizable_instance(3, 4, 2, residual_rank=1, seed=0)
        with pytest.raises(InvalidInputError):
            random_instance(3, 4, 2, seed=0)

    def test_negative_seed_rejected(self):
        with pytest.raises(InvalidInputError, match="seed"):
            realizable_instance(10, 4, 3, residual_rank=2, seed=-1)
        base = realizable_instance(10, 4, 3, residual_rank=2, seed=0)
        with pytest.raises(InvalidInputError, match="seed"):
            with_off_range_noise(base, 1.0, -1)

    def test_deterministic(self):
        p1 = realizable_instance(12, 5, 3, residual_rank=2, seed=33)
        p2 = realizable_instance(12, 5, 3, residual_rank=2, seed=33)
        assert np.array_equal(p1.x, p2.x)
        assert np.array_equal(p1.y, p2.y)
        assert np.array_equal(p1.w0, p2.w0)


@settings(deadline=None, max_examples=25)
@given(seed=st.integers(0, 10**6), rank=st.integers(1, 3))
def test_greedy_errors_never_increase(seed, rank):
    p = random_instance(12, 5, 4, seed=seed)
    trace = rosa_exact_iterate(p, rank=rank, max_steps=4)
    slack = 1e-12 * max(trace.errors[0], 1.0)
    for before, after in zip(trace.errors, trace.errors[1:]):
        assert after <= before + slack


@settings(deadline=None, max_examples=25)
@given(seed=st.integers(0, 10**6))
def test_floor_identity_property(seed):
    p = random_instance(11, 5, 3, seed=seed)
    rank = 1 + seed % 3
    a, b = rrr_optimum(p, rank)
    above = achieved_error(p, a, b) - irreducible_error(p)
    bound = lora_error_lower_bound(p, rank)
    assert above == pytest.approx(bound, rel=1e-8, abs=1e-10)


