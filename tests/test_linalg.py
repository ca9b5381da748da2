import math

import numpy as np
import pytest

from oracles import ref_rel_norm
from unicp.linalg import (
    BLOCK,
    EPS_NORM,
    frob,
    rel_l2,
    rel_l2_at_most,
    sq_norm,
)
from unicp.model import AttentionWeights, attention


def attention_map(scores):
    """`model.attention`'s map for a square score matrix.

    With x = I, W_k = I and W_q = scores * sqrt(L), the kernel's scaled
    scores are `scores` up to the last bit of the scaling.
    """
    scores = np.asarray(scores, dtype=np.float64)
    eye = np.eye(scores.shape[-1])
    w = AttentionWeights(w_q=scores * np.sqrt(scores.shape[-1]), w_k=eye, w_v=eye, w_o=eye)
    _, amap = attention(eye, w)
    return amap


class TestSoftmaxRows:
    """The row softmax `model.attention` builds its map with."""

    def test_uniform_under_equal_logits(self):
        out = attention_map(np.zeros((3, 3)))
        assert np.allclose(out, np.full((3, 3), 1.0 / 3.0), atol=1e-15)

    def test_single_column_gives_ones(self):
        for score in (3.0, -7.0, 0.0):
            assert np.array_equal(attention_map([[score]]), np.ones((1, 1)))

    def test_log_weights_closed_form(self):
        out = attention_map(np.log(np.array([[1.0, 2.0, 3.0]] * 3)))
        assert np.allclose(out, np.array([[1 / 6, 2 / 6, 3 / 6]] * 3), atol=1e-12)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(3)
        out = attention_map(rng.standard_normal((13, 13)) * 20)
        assert np.abs(out.sum(axis=1) - 1.0).max() < 1e-12
        assert out.min() > 0.0

    def test_large_scores_stay_finite(self):
        rng = np.random.default_rng(7)
        scores = rng.standard_normal((9, 9)) * 1e4
        out = attention_map(scores)
        assert np.all(np.isfinite(out))
        assert np.abs(out.sum(axis=1) - 1.0).max() < 1e-12
        assert np.array_equal(out.argmax(axis=1), scores.argmax(axis=1))

    def test_shift_invariance(self):
        rng = np.random.default_rng(4)
        m = rng.standard_normal((8, 8))
        shifted = m + rng.standard_normal((8, 1))
        assert np.abs(attention_map(m) - attention_map(shifted)).max() < 1e-12


class TestRelL2:
    def test_identical_inputs(self):
        x = np.arange(6.0).reshape(2, 3)
        assert rel_l2(x, x) == 0.0

    def test_doubling(self):
        x = np.array([[3.0, 4.0]])
        assert rel_l2(2 * x, x) == pytest.approx(1.0, abs=1e-15)

    def test_crafted_perturbation_matches_direct_norms(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((4, 4))
        e = rng.standard_normal((4, 4)) * 0.3
        expected = float(np.sqrt(np.sum((x + e - x) ** 2)) / np.sqrt(np.sum(x ** 2)))
        assert rel_l2(x + e, x) == pytest.approx(expected, rel=1e-14)

    def test_zero_reference_uses_floor(self):
        x = np.ones((2, 2))
        assert rel_l2(x, np.zeros((2, 2))) == pytest.approx(frob(x) / EPS_NORM)

    @pytest.mark.parametrize("shape", [(3, 3), (2, 64, 64)], ids=["small", "one-block"])
    def test_up_to_block_is_the_one_dot_formula(self, shape):
        rng = np.random.default_rng(8)
        a, b = rng.random(shape), rng.random(shape)
        assert a.size <= BLOCK
        d, r = (a - b).ravel(), b.ravel()
        assert rel_l2(a, b) == math.sqrt(d @ d) / max(math.sqrt(r @ r), EPS_NORM)

    @pytest.mark.parametrize("shape", [(4, 256, 256), (3, 233, 101), (BLOCK + 1,)],
                             ids=["whole-blocks", "ragged", "one-past"])
    def test_blocked_matches_oracle(self, shape):
        rng = np.random.default_rng(9)
        b = rng.random(shape)
        a = b + rng.standard_normal(shape) * 1e-3
        assert a.size > BLOCK
        assert rel_l2(a, b) == pytest.approx(ref_rel_norm(a, b), rel=1e-14, abs=0)

    def test_zero_reference_above_block_uses_floor(self):
        x = np.ones(BLOCK + 5)
        assert rel_l2(x, np.zeros_like(x)) == pytest.approx(frob(x) / EPS_NORM, rel=1e-14)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="rel_l2 shape mismatch"):
            rel_l2(np.ones((2, 2)), np.ones((3, 2)))


class TestRelL2AtMost:
    """The decide's threshold test gives the decision `rel_l2(a, b) <= delta`
    gives, bit for bit, also where it stops early."""

    @pytest.mark.parametrize("size", [1, BLOCK, BLOCK + 1, 5 * BLOCK + 3],
                             ids=["one", "block", "block-plus-one", "five-blocks-ragged"])
    @pytest.mark.parametrize("case", ["random", "zero-reference", "nan"])
    def test_equals_rel_l2_at_delta_and_one_ulp_around_it(self, size, case):
        rng = np.random.default_rng(size)
        b = rng.standard_normal(size)
        a = b + rng.standard_normal(size) * 0.1
        if case == "zero-reference":
            b = np.zeros(size)
        if case == "nan":
            a[size // 2] = np.nan
        exact = rel_l2(a, b)
        rr = sq_norm(b)
        deltas = [exact, math.nextafter(exact, -math.inf), math.nextafter(exact, math.inf),
                  0.0, math.inf]
        for delta in deltas:
            assert rel_l2_at_most(a, b, delta, rr) is (exact <= delta), delta
        if case != "nan":
            assert rel_l2_at_most(a, b, exact, rr)
            assert not rel_l2_at_most(a, b, math.nextafter(exact, -math.inf), rr)

    def test_sq_norm_is_the_square_of_the_reference_norm(self):
        b = np.random.default_rng(10).standard_normal((3, BLOCK + 7))
        assert sq_norm(b) == pytest.approx(frob(b) ** 2, rel=1e-14)
        assert sq_norm(np.zeros(4)) == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="rel_l2 shape mismatch"):
            rel_l2_at_most(np.ones((2, 2)), np.ones((3, 2)), 1.0, 4.0)
