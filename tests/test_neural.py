import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cardlab.neural import (
    AdamState,
    Dense2,
    adam_step,
    init_dense2,
    init_params,
    masked_mean_pool,
    masked_mean_pool_backward,
    mlp2_backward,
    mlp2_forward,
    sigmoid,
)

from helpers import grad_check, masked_sigmoid


class TestInit:
    def test_deterministic(self):
        a = init_params([5, 3], 4, seed=1)
        b = init_params([5, 3], 4, seed=1)
        for pa, pb in zip(a, b):
            np.testing.assert_array_equal(pa.w1, pb.w1)
            np.testing.assert_array_equal(pa.w2, pb.w2)

    def test_seeds_differ(self):
        a = init_params([5], 4, seed=1)[0]
        b = init_params([5], 4, seed=2)[0]
        assert not np.array_equal(a.w1, b.w1)

    def test_support_bound(self):
        p = init_params([9], 16, seed=3)[0]
        assert np.abs(p.w1).max() <= 1.0 / 3.0
        assert np.abs(p.w2).max() <= 0.25
        assert not p.b1.any() and not p.b2.any()

    def test_out_dims(self):
        mods = init_params([7, 7], 4, seed=0, out_dims=[4, 1])
        assert mods[0].out_dim == 4 and mods[1].out_dim == 1


class TestMlp2:
    def test_zero_params_give_zero(self):
        p = Dense2(np.zeros((3, 4)), np.zeros(4), np.zeros((4, 4)), np.zeros(4))
        out, _ = mlp2_forward(np.ones(3), p)
        np.testing.assert_array_equal(out, np.zeros(4))

    def test_identity_propagation(self):
        # Identity weights and nonnegative input pass straight through ReLU.
        p = Dense2(np.eye(3), np.zeros(3), np.eye(3), np.zeros(3))
        x = np.array([0.5, 2.0, 0.0])
        out, _ = mlp2_forward(x, p)
        np.testing.assert_allclose(out, x)

    def test_dimension_mismatch(self):
        p = Dense2(np.zeros((3, 4)), np.zeros(4), np.zeros((4, 4)), np.zeros(4))
        with pytest.raises(ValueError):
            mlp2_forward(np.ones(5), p)

    def test_batched_equals_single(self):
        rng = np.random.default_rng(4)
        p = init_dense2(6, 5, 5, rng)
        x = rng.normal(size=(7, 3, 6))
        batched, _ = mlp2_forward(x, p)
        for i in range(7):
            for j in range(3):
                single, _ = mlp2_forward(x[i, j], p)
                np.testing.assert_allclose(batched[i, j], single, rtol=1e-12)

    def test_finite_difference_jacobian(self):
        rng = np.random.default_rng(5)
        p = init_dense2(4, 4, 4, rng)
        x0 = rng.normal(size=4)
        h = 1e-6
        out0, _ = mlp2_forward(x0, p)
        jac_fd = np.zeros((4, 4))
        for j in range(4):
            xp, xm = x0.copy(), x0.copy()
            xp[j] += h
            xm[j] -= h
            op, _ = mlp2_forward(xp, p)
            om, _ = mlp2_forward(xm, p)
            jac_fd[:, j] = (op - om) / (2 * h)
        # Analytic Jacobian rows via backward with unit cotangents.
        for i in range(4):
            d_out = np.zeros(4)
            d_out[i] = 1.0
            _, cache = mlp2_forward(x0, p)
            dx, _ = mlp2_backward(d_out, cache, p)
            denom = np.maximum(np.abs(jac_fd[i]), 1e-6)
            assert (np.abs(dx - jac_fd[i]) / denom).max() <= 1e-4

    @pytest.mark.parametrize("final", ["relu", "sigmoid"])
    def test_backward_leaves_cache_unchanged(self, final):
        # Forward and backward work in place; backward must write into no
        # cache array, so a second call on the same cache gives the same bytes.
        rng = np.random.default_rng(7)
        p = init_dense2(6, 5, 4, rng)
        out, cache = mlp2_forward(rng.normal(size=(7, 3, 6)), p, final=final)
        d_out = rng.normal(size=out.shape)
        arrays = {"x": cache.x, "h": cache.h, "out": cache.out, "d_out": d_out}
        before = {k: a.tobytes() for k, a in arrays.items()}
        dx1, g1 = mlp2_backward(d_out, cache, p)
        dx2, g2 = mlp2_backward(d_out, cache, p)
        assert {k: a.tobytes() for k, a in arrays.items()} == before
        assert dx1.tobytes() == dx2.tobytes()
        for field in ("w1", "b1", "w2", "b2"):
            assert getattr(g1, field).tobytes() == getattr(g2, field).tobytes()


class TestSigmoid:
    """`sigmoid` equals the sign-split reference (tests/helpers.py) byte for
    byte."""

    def test_every_size_up_to_4097(self):
        rng = np.random.default_rng(0)
        for n in range(1, 4098):
            x = rng.normal(scale=8.0, size=n)
            assert sigmoid(x).tobytes() == masked_sigmoid(x).tobytes(), n

    def test_extreme_values(self):
        x = np.array(
            [0.0, -0.0, 800.0, -800.0, 1e-300, -1e-300, 5e-324, -5e-324, 36.0, -36.0]
        )
        y = sigmoid(x)
        assert y.tobytes() == masked_sigmoid(x).tobytes()
        assert y[0] == y[1] == 0.5 and y[2] == 1.0 and y[3] == 0.0
        assert np.isfinite(y).all()

    @pytest.mark.parametrize("n", [1, 2, 7, 256, 1001])
    def test_column_shapes(self, n):
        x = np.random.default_rng(n).normal(scale=3.0, size=(n, 1))
        y = sigmoid(x)
        assert y.shape == (n, 1)
        assert y.tobytes() == masked_sigmoid(x).tobytes()


class TestMaskedMeanPool:
    def test_hand_average(self):
        rows = np.array([[1.0, 0.0], [0.0, 1.0]])
        np.testing.assert_allclose(masked_mean_pool(rows, np.ones(2)), [0.5, 0.5])

    def test_padding_ignored(self):
        rows = np.array([[1.0, 0.0], [0.0, 1.0], [9.0, 9.0]])
        mask = np.array([1.0, 1.0, 0.0])
        np.testing.assert_allclose(masked_mean_pool(rows, mask), [0.5, 0.5])

    def test_single_row_identity(self):
        rows = np.array([[3.0, 4.0]])
        np.testing.assert_allclose(masked_mean_pool(rows, np.ones(1)), [3.0, 4.0])

    def test_all_zero_mask_rejected(self):
        with pytest.raises(ValueError):
            masked_mean_pool(np.ones((2, 3)), np.zeros(2))

    @given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=4))
    @settings(max_examples=40, deadline=None)
    def test_permutation_and_zero_padding_invariance(self, n_rows, n_pad):
        rng = np.random.default_rng(n_rows * 10 + n_pad)
        rows = rng.normal(size=(n_rows, 3))
        base = masked_mean_pool(rows, np.ones(n_rows))
        perm = rng.permutation(n_rows)
        permuted = masked_mean_pool(rows[perm], np.ones(n_rows))
        np.testing.assert_allclose(permuted, base, rtol=1e-6, atol=1e-12)
        padded_rows = np.vstack([rows, np.zeros((n_pad, 3))])
        mask = np.r_[np.ones(n_rows), np.zeros(n_pad)]
        np.testing.assert_allclose(
            masked_mean_pool(padded_rows, mask), base, rtol=1e-6, atol=1e-12
        )

    def test_backward_matches_finite_differences(self):
        rng = np.random.default_rng(6)
        rows = rng.normal(size=(4, 3))
        mask = np.array([1.0, 1.0, 0.0, 1.0])
        d_pooled = rng.normal(size=3)
        analytic = masked_mean_pool_backward(d_pooled, mask)
        h = 1e-6
        for i in range(4):
            for j in range(3):
                rp, rm = rows.copy(), rows.copy()
                rp[i, j] += h
                rm[i, j] -= h
                fp = masked_mean_pool(rp, mask) @ d_pooled
                fm = masked_mean_pool(rm, mask) @ d_pooled
                np.testing.assert_allclose(
                    analytic[i, j], (fp - fm) / (2 * h), atol=1e-8
                )


class TestAdam:
    def _params(self, value):
        return {"w": np.full(3, value)}

    def test_first_step_magnitude(self):
        params = self._params(0.0)
        state = AdamState.init_like(params)
        adam_step(params, {"w": np.ones(3)}, state, lr=0.001)
        np.testing.assert_allclose(params["w"], -0.001 / (1.0 + 1e-8))

    def test_zero_gradient_no_move(self):
        params = self._params(1.5)
        state = AdamState.init_like(params)
        adam_step(params, {"w": np.zeros(3)}, state, lr=0.1)
        np.testing.assert_array_equal(params["w"], np.full(3, 1.5))

    def test_bitwise_deterministic_trajectory(self):
        rng = np.random.default_rng(7)
        grads = [rng.normal(size=3) for _ in range(20)]

        def run():
            params = self._params(0.3)
            state = AdamState.init_like(params)
            for g in grads:
                adam_step(params, {"w": g}, state, lr=0.01)
            return params["w"]

        np.testing.assert_array_equal(run(), run())

    def test_nonfinite_gradient_fails_fast(self):
        params = self._params(0.0)
        state = AdamState.init_like(params)
        with pytest.raises(ValueError, match="w"):
            adam_step(params, {"w": np.array([1.0, np.nan, 0.0])}, state, lr=0.01)


class TestGradCheck:
    def test_quadratic_loss(self):
        rng = np.random.default_rng(8)
        point = rng.normal(size=300)
        err = grad_check(lambda p: 0.5 * float(p @ p), point.copy(), point)
        assert err <= 1e-6

    def test_detects_wrong_gradient(self):
        rng = np.random.default_rng(9)
        point = rng.normal(size=50) + 3.0
        err = grad_check(lambda p: 0.5 * float(p @ p), 2.0 * point, point)
        assert err > 0.1
