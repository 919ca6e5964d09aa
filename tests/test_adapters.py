import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rosa.adapters import (
    full_init,
    ia3_init,
    lora_init,
    matrix_param_count,
    rosa_init,
    trainable_reduction,
)
from rosa.errors import InvalidInputError, RankTooLargeError, ShapeError
from rosa.linalg import SamplingScheme, numerical_rank, svd
from rosa.network import Activation, DenseLayer, Mlp, forward


def rng_for(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


class TestRosaInit:
    def test_top_slice_of_diagonal(self):
        # diag(3, 2, 1) has singular directions along the axes, so the TOP
        # rank-1 slice must be exactly the strongest one.
        ad = rosa_init(np.diag([3.0, 2.0, 1.0]), rank=1, scheme=SamplingScheme.TOP)
        assert np.allclose(ad.a, [[3.0], [0.0], [0.0]], atol=1e-12)
        assert np.allclose(ad.b, [[1.0, 0.0, 0.0]], atol=1e-12)
        assert np.allclose(ad.w_fixed, np.diag([0.0, 2.0, 1.0]), atol=1e-12)

    def test_effective_weight_preserved(self):
        w = rng_for(0).standard_normal((8, 5))
        ad = rosa_init(w, rank=3, rng=rng_for(1))
        assert np.allclose(ad.effective_weight(), w, atol=1e-12)

    def test_additive_variant_keeps_host_weight(self):
        w = rng_for(4).standard_normal((5, 5))
        ad = rosa_init(w, rank=2, rng=rng_for(5), subtract_at_init=False)
        assert np.array_equal(ad.w_fixed, w)
        # Effective weight now carries the slice on top of the intact w.
        drift = ad.effective_weight() - w
        assert np.linalg.norm(drift) > 0.1

    def test_original_weight_recorded(self):
        # The adapter keeps no copy of its start weight; the caller's kept
        # copy is the drift reference, and building the adapter leaves it be.
        w = rng_for(6).standard_normal((6, 3))
        w0 = w.copy()
        ad = rosa_init(w, rank=2, rng=rng_for(7))
        assert np.array_equal(w0, w)
        assert np.allclose(ad.effective_weight() - w0, 0.0, atol=1e-12)
        assert not hasattr(ad, "w_original")

    def test_rank_too_large(self):
        with pytest.raises(RankTooLargeError):
            rosa_init(np.ones((3, 4)), rank=4)

    def test_nonfinite_rejected(self):
        with pytest.raises(InvalidInputError):
            rosa_init(np.array([[np.nan, 0.0], [0.0, 1.0]]), rank=1)


class TestFactorize:
    def test_preserves_forward(self):
        w = rng_for(8).standard_normal((7, 6))
        ad = rosa_init(w, rank=2, rng=rng_for(9))
        ad.a += 0.3 * rng_for(10).standard_normal(ad.a.shape)
        ad.b += 0.3 * rng_for(11).standard_normal(ad.b.shape)
        x = rng_for(12).standard_normal((6, 20))
        before = ad.forward_cached(x)[0]
        ad.factorize(rng_for(13), svd(ad.effective_weight()))
        assert np.allclose(ad.forward_cached(x)[0], before, atol=1e-10)

    def test_installs_fresh_slice(self):
        # After training moved (a, b), the re-sampled slice comes from the
        # merged matrix's decomposition, orthonormal rows in b.
        ad = rosa_init(rng_for(17).standard_normal((6, 6)), rank=2, rng=rng_for(18))
        ad.a += rng_for(19).standard_normal(ad.a.shape)
        ad.factorize(rng_for(20), svd(ad.effective_weight()))
        assert np.allclose(ad.b @ ad.b.T, np.eye(2), atol=1e-10)

    def test_top_scheme_needs_no_rng(self):
        ad = rosa_init(rng_for(24).standard_normal((5, 5)), rank=2,
                       scheme=SamplingScheme.TOP)
        before = ad.effective_weight()
        ad.factorize(None, svd(ad.effective_weight()))
        assert np.allclose(ad.effective_weight(), before, atol=1e-10)
        assert np.allclose(ad.b @ ad.b.T, np.eye(2), atol=1e-10)


class TestLora:
    def test_starts_at_host_weight(self):
        w = rng_for(25).standard_normal((6, 4))
        ad = lora_init(w, rank=2, rng=rng_for(26))
        x = rng_for(27).standard_normal((4, 9))
        assert np.array_equal(ad.forward_cached(x)[0], w @ x)
        assert not ad.b.any()

    def test_residual_is_exact_product(self):
        ad = lora_init(rng_for(28).standard_normal((5, 5)), rank=2, rng=rng_for(29))
        ad.b[:] = rng_for(30).standard_normal(ad.b.shape)
        assert np.array_equal(ad.product(), ad.a @ ad.b)

    def test_residual_rank_capped_by_construction(self):
        ad = lora_init(rng_for(31).standard_normal((10, 10)), rank=3, rng=rng_for(32))
        ad.a[:] = rng_for(33).standard_normal(ad.a.shape)
        ad.b[:] = rng_for(34).standard_normal(ad.b.shape)
        assert numerical_rank(ad.product()) <= 3

    def test_init_scale(self):
        # Entries of a are Gaussian with variance 1/rank; check the sample
        # std loosely on a big draw.
        ad = lora_init(np.zeros((400, 10)), rank=4, rng=rng_for(35))
        assert ad.a.std() == pytest.approx(np.sqrt(0.25), rel=0.1)

    def test_trainable_arrays(self):
        ad = lora_init(np.ones((4, 4)), rank=1, rng=rng_for(36))
        assert set(ad.trainable_arrays()) == {"a", "b"}


class TestIa3:
    def test_forward_matches_per_unit_loop(self):
        w = rng_for(37).standard_normal((5, 3))
        ad = ia3_init(w)
        ad.scale[:] = rng_for(38).standard_normal(5)
        x = rng_for(39).standard_normal((3, 6))
        got = ad.forward_cached(x)[0]
        base = w @ x
        for i in range(5):
            assert np.allclose(got[i], ad.scale[i] * base[i], atol=1e-14)

    def test_identity_at_init(self):
        w = rng_for(40).standard_normal((4, 4))
        ad = ia3_init(w)
        x = rng_for(41).standard_normal((4, 5))
        assert np.allclose(ad.forward_cached(x)[0], w @ x, atol=1e-14)

    def test_effective_weight_scales_rows(self):
        w = rng_for(42).standard_normal((3, 4))
        ad = ia3_init(w)
        ad.scale[:] = [2.0, -1.0, 0.5]
        assert np.allclose(ad.effective_weight(), ad.scale[:, None] * w, atol=1e-14)

    def test_trainable_arrays(self):
        assert set(ia3_init(np.ones((2, 2))).trainable_arrays()) == {"scale"}


class TestFullyTrainable:
    def test_forward(self):
        w = rng_for(43).standard_normal((4, 6))
        ad = full_init(w)
        x = rng_for(44).standard_normal((6, 3))
        assert np.array_equal(ad.forward_cached(x)[0], w @ x)

    def test_residual_tracks_drift(self):
        w = rng_for(45).standard_normal((3, 3))
        w0 = w.copy()
        ad = full_init(w)
        ad.w += 1.0
        assert np.allclose(ad.effective_weight() - w0, np.ones((3, 3)), atol=1e-14)
        assert np.array_equal(w, w0)


def one_layer_net(adapter) -> Mlp:
    return Mlp(layers=[DenseLayer(adapter=adapter, bias=np.zeros(3),
                                  activation=Activation.IDENTITY)])


class TestShapeChecks:
    # network.forward checks the input once for every adapter kind.
    @pytest.mark.parametrize("build", [
        lambda w: rosa_init(w, rank=1, rng=rng_for(0)),
        lambda w: lora_init(w, rank=1, rng=rng_for(0)),
        lambda w: ia3_init(w),
        lambda w: full_init(w),
    ])
    def test_wrong_input_rows(self, build):
        net = one_layer_net(build(np.ones((3, 4))))
        with pytest.raises(ShapeError):
            forward(net, np.ones((5, 2)))

    def test_vector_input_rejected(self):
        with pytest.raises(InvalidInputError, match="2-D"):
            forward(one_layer_net(full_init(np.ones((3, 4)))), np.ones(4))


class TestParamAccounting:
    def test_reduction_exact_case(self):
        assert trainable_reduction(768, 768, 8) == 48.0

    def test_reduction_formula(self):
        assert trainable_reduction(64, 32, 4) == (64 * 32) / (4 * 96)

    def test_reduction_rejects_bad_rank(self):
        with pytest.raises(RankTooLargeError):
            trainable_reduction(4, 4, 5)
        with pytest.raises(InvalidInputError):
            trainable_reduction(4, 4, 0)

    def test_matrix_param_count(self):
        rank = 3
        ad = rosa_init(rng_for(46).standard_normal((10, 6)), rank=rank, rng=rng_for(47))
        assert matrix_param_count(ad) == rank * (10 + 6)
        assert matrix_param_count(ia3_init(np.ones((7, 5)))) == 7
        assert matrix_param_count(full_init(np.ones((7, 5)))) == 35
        lora = lora_init(np.ones((9, 4)), rank=2, rng=rng_for(48))
        assert matrix_param_count(lora) == 2 * (9 + 4)


class TestDriftRankContrast:
    """Re-sampling lets updates leave the initial slice; a frozen pair cannot."""

    def test_two_cycles_exceed_rank_budget(self):
        w = rng_for(49).standard_normal((8, 8))
        w0 = w.copy()
        ad = rosa_init(w, rank=2, rng=rng_for(50))
        updates = rng_for(51)
        for cycle in range(3):
            ad.a += 0.5 * updates.standard_normal(ad.a.shape)
            ad.b += 0.5 * updates.standard_normal(ad.b.shape)
            ad.factorize(rng_for(60 + cycle), svd(ad.effective_weight()))
        assert numerical_rank(ad.effective_weight() - w0) > 2

    def test_frozen_pair_stays_within_budget(self):
        w = rng_for(52).standard_normal((8, 8))
        ad = lora_init(w, rank=2, rng=rng_for(53))
        updates = rng_for(54)
        for _ in range(3):
            ad.a += 0.5 * updates.standard_normal(ad.a.shape)
            ad.b += 0.5 * updates.standard_normal(ad.b.shape)
        assert numerical_rank(ad.product()) <= 2


@settings(deadline=None, max_examples=50)
@given(seed=st.integers(0, 10**6), m=st.integers(2, 9), n=st.integers(2, 9),
       data=st.data())
def test_factorize_identity_property(seed, m, n, data):
    rank = data.draw(st.integers(1, min(m, n)))
    rng = np.random.default_rng(seed)
    ad = rosa_init(rng.standard_normal((m, n)), rank=rank, rng=rng)
    ad.a += rng.standard_normal(ad.a.shape)
    ad.b += rng.standard_normal(ad.b.shape)
    before = ad.effective_weight()
    ad.factorize(rng, svd(ad.effective_weight()))
    scale = max(1.0, np.abs(before).max())
    assert np.allclose(ad.effective_weight(), before, atol=1e-9 * scale)


@settings(deadline=None, max_examples=30)
@given(seed=st.integers(0, 10**6))
def test_rosa_slice_reproduces_host_weight(seed):
    rng = np.random.default_rng(seed)
    w = rng.standard_normal((6, 5))
    ad = rosa_init(w, rank=2, rng=rng)
    x = rng.standard_normal((5, 4))
    assert np.allclose(ad.forward_cached(x)[0], w @ x, atol=1e-10)
