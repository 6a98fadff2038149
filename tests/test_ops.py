import zlib

import numpy as np
import pytest

from promptseg.autograd import DegenerateBatchError, ShapeError, Tape, Tensor, shadow_precision
from promptseg.autograd import ops
from promptseg.autograd.tensor import add, broadcast_to_batch, current_dtype, mul, reshape

from conftest import check_gradients, rel_err, scale, sum_all


def project(out, r):
    """Reduce an op output to a scalar with a fixed projection array."""
    return sum_all(mul(out, Tensor(r)))


def bn_stats(c):
    """Fresh batch-norm running statistics: mean 0, variance 1."""
    return np.zeros(c, current_dtype()), np.ones(c, current_dtype())


class TestConv2d:
    def test_scalar_kernel_doubles_input(self):
        x = Tensor(np.ones((1, 1, 3, 3), np.float32))
        w = Tensor(np.full((1, 1, 1, 1), 2.0, np.float32))
        b = Tensor(np.zeros(1, np.float32))
        out = ops.conv2d(x, w, b, stride=1, padding=0)
        np.testing.assert_array_equal(out.data, np.full((1, 1, 3, 3), 2.0, np.float32))

    @pytest.mark.parametrize("k,stride,padding,size", [
        (1, 2, 0, 8), (3, 1, 1, 7), (5, 2, 2, 9),
        (3, 2, 0, 8),  # the last window stops one pixel short of the edge
    ])
    def test_matches_direct_loop_over_windows(self, rng, k, stride, padding, size):
        x0 = rng.normal(size=(2, 3, size, size))
        w0 = rng.normal(size=(4, 3, k, k))
        b0 = rng.normal(size=(4,))
        out = ops.conv2d(Tensor(x0), Tensor(w0), Tensor(b0), stride=stride, padding=padding)
        xp = np.pad(x0, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
        oh = (size + 2 * padding - k) // stride + 1
        ref = np.empty((2, 4, oh, oh))
        for i in range(oh):
            for j in range(oh):
                win = xp[:, :, i * stride : i * stride + k, j * stride : j * stride + k]
                ref[:, :, i, j] = np.einsum("bchw,ochw->bo", win, w0) + b0
        assert out.shape == ref.shape
        np.testing.assert_allclose(out.data, ref, rtol=1e-4, atol=1e-4)

    def test_output_shape_arithmetic(self, rng):
        x = Tensor(rng.normal(size=(2, 3, 8, 8)).astype(np.float32))
        w = Tensor(rng.normal(size=(4, 3, 3, 3)).astype(np.float32))
        b = Tensor(np.zeros(4, np.float32))
        out = ops.conv2d(x, w, b, stride=2, padding=1)
        assert out.shape == (2, 4, 4, 4)

    def test_stride2_kernel5_halves_64(self, rng):
        x = Tensor(rng.normal(size=(1, 3, 64, 64)).astype(np.float32))
        w = Tensor(rng.normal(size=(2, 3, 5, 5)).astype(np.float32) * 0.1)
        b = Tensor(np.zeros(2, np.float32))
        assert ops.conv2d(x, w, b, stride=2, padding=2).shape == (1, 2, 32, 32)

    def test_channel_mismatch_raises(self, rng):
        x = Tensor(np.zeros((1, 3, 4, 4), np.float32))
        w = Tensor(np.zeros((2, 4, 3, 3), np.float32))
        b = Tensor(np.zeros(2, np.float32))
        with pytest.raises(ShapeError):
            ops.conv2d(x, w, b)

    def test_kernel_larger_than_padded_input_raises(self):
        x = Tensor(np.zeros((1, 1, 3, 3), np.float32))
        w = Tensor(np.zeros((1, 1, 5, 5), np.float32))
        b = Tensor(np.zeros(1, np.float32))
        with pytest.raises(ShapeError):
            ops.conv2d(x, w, b, stride=1, padding=0)

    def test_gradients(self, rng):
        x0 = rng.normal(size=(2, 3, 6, 6))
        w0 = rng.normal(size=(4, 3, 3, 3))
        b0 = rng.normal(size=(4,))
        r = rng.normal(size=(2, 4, 3, 3))
        check_gradients(
            lambda x, w, b: project(ops.conv2d(x, w, b, stride=2, padding=1), r),
            [x0, w0, b0],
        )


class TestBatchNorm2d:
    def _layer(self, c, dtype=np.float32):
        gamma = Tensor(np.ones(c, dtype), requires_grad=True)
        beta = Tensor(np.zeros(c, dtype), requires_grad=True)
        return gamma, beta, bn_stats(c)

    def test_already_normalized_input_passes_through(self, rng):
        x0 = rng.normal(size=(4, 3, 8, 8)).astype(np.float32)
        x0 -= x0.mean(axis=(0, 2, 3), keepdims=True)
        x0 /= x0.std(axis=(0, 2, 3), keepdims=True)
        gamma, beta, state = self._layer(3)
        out = ops.batch_norm2d(Tensor(x0), gamma, beta, *state, training=True)
        assert np.max(np.abs(out.data - x0)) < 1e-4

    def test_constant_channel_maps_to_beta(self):
        x = Tensor(np.full((2, 2, 3, 3), 5.0, np.float32))
        gamma = Tensor(np.ones(2, np.float32))
        beta = Tensor(np.array([0.25, -1.0], np.float32))
        out = ops.batch_norm2d(x, gamma, beta, *bn_stats(2), training=True)
        np.testing.assert_allclose(out.data[:, 0], 0.25, atol=1e-5)
        np.testing.assert_allclose(out.data[:, 1], -1.0, atol=1e-5)

    def test_train_output_statistics(self, rng):
        x = Tensor(rng.normal(2.0, 3.0, size=(4, 5, 8, 8)).astype(np.float32))
        gamma, beta, state = self._layer(5)
        out = ops.batch_norm2d(x, gamma, beta, *state, training=True)
        mean = out.data.mean(axis=(0, 2, 3))
        var = out.data.var(axis=(0, 2, 3))
        assert np.max(np.abs(mean)) < 1e-4
        assert np.max(np.abs(var - 1.0)) < 1e-4

    def test_running_stats_update_and_eval_use(self, rng):
        x0 = rng.normal(1.0, 2.0, size=(8, 2, 4, 4)).astype(np.float32)
        gamma, beta, (running_mean, running_var) = self._layer(2)
        ops.batch_norm2d(Tensor(x0), gamma, beta, running_mean, running_var, training=True)
        n = 8 * 4 * 4
        expect_mean = 0.1 * x0.mean(axis=(0, 2, 3))
        expect_var = 0.9 + 0.1 * x0.var(axis=(0, 2, 3)) * n / (n - 1)
        np.testing.assert_allclose(running_mean, expect_mean, rtol=1e-5)
        np.testing.assert_allclose(running_var, expect_var, rtol=1e-5)
        # eval mode must use them and leave them untouched
        before = running_mean.copy()
        out = ops.batch_norm2d(Tensor(x0), gamma, beta, running_mean, running_var,
                               training=False)
        expected = (x0 - running_mean[:, None, None]) / np.sqrt(
            running_var[:, None, None] + ops.BN_EPS
        )
        np.testing.assert_allclose(out.data, expected, rtol=1e-4, atol=1e-5)
        np.testing.assert_array_equal(before, running_mean)

    def test_single_value_batch_raises(self):
        x = Tensor(np.zeros((1, 3, 1, 1), np.float32))
        gamma, beta, state = self._layer(3)
        with pytest.raises(DegenerateBatchError):
            ops.batch_norm2d(x, gamma, beta, *state, training=True)

    def test_gradients_train_mode(self, rng):
        x0 = rng.normal(size=(3, 2, 4, 4))
        g0 = rng.normal(1.0, 0.2, size=(2,))
        b0 = rng.normal(size=(2,))
        r = rng.normal(size=(3, 2, 4, 4))

        def loss(x, gamma, beta):
            return project(ops.batch_norm2d(x, gamma, beta, *bn_stats(2), training=True), r)

        check_gradients(loss, [x0, g0, b0], tol=2e-3)

    def test_gradients_eval_mode(self, rng):
        x0 = rng.normal(size=(2, 2, 3, 3))
        g0 = rng.normal(1.0, 0.2, size=(2,))
        b0 = rng.normal(size=(2,))
        r = rng.normal(size=(2, 2, 3, 3))
        with shadow_precision():
            running_mean, running_var = bn_stats(2)
            running_mean += np.asarray([0.3, -0.2])
            running_var *= np.asarray([1.5, 0.7])

            def loss(x, gamma, beta):
                return project(ops.batch_norm2d(x, gamma, beta, running_mean, running_var,
                                                training=False), r)

            check_gradients(loss, [x0, g0, b0])


class TestActivations:
    def test_pointwise_values(self):
        x = Tensor(np.array([-1.0, 0.0, 2.0], np.float32))
        np.testing.assert_array_equal(ops.relu(x).data, [0.0, 0.0, 2.0])
        assert ops.tanh(x).data[1] == 0.0

    def test_softmax_symmetry(self):
        out = ops.softmax(Tensor(np.zeros((1, 2), np.float32)), axis=-1)
        np.testing.assert_allclose(out.data, [[0.5, 0.5]], atol=1e-7)

    def test_softmax_rows_sum_to_one_and_positive(self, rng):
        for _ in range(20):
            x = Tensor(rng.normal(0, 5, size=(4, 7)).astype(np.float32))
            out = ops.softmax(x, axis=1).data
            np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-6)
            assert (out > 0).all()

    def test_softmax_stable_under_large_logits(self):
        x = Tensor(np.array([[1000.0, 1000.0]], np.float32))
        np.testing.assert_allclose(ops.softmax(x, axis=1).data, [[0.5, 0.5]], atol=1e-6)


class TestLinear:
    def test_identity(self, rng):
        x0 = rng.normal(size=(3, 4)).astype(np.float32)
        out = ops.linear(Tensor(x0), Tensor(np.eye(4, dtype=np.float32)), Tensor(np.zeros(4, np.float32)))
        np.testing.assert_allclose(out.data, x0, rtol=1e-6)

    def test_hand_sum(self):
        x = Tensor(np.array([[1.0, 2.0]], np.float32))
        w = Tensor(np.array([[1.0], [1.0]], np.float32))
        b = Tensor(np.zeros(1, np.float32))
        assert ops.linear(x, w, b).data[0, 0] == 3.0

    def test_dim_mismatch(self):
        with pytest.raises(ShapeError):
            ops.linear(Tensor(np.zeros((2, 3), np.float32)),
                       Tensor(np.zeros((4, 5), np.float32)),
                       Tensor(np.zeros(5, np.float32)))


class TestPoolAndUpsample:
    def test_pool_constant(self):
        x = Tensor(np.full((2, 3, 4, 5), 1.5, np.float32))
        out = ops.adaptive_avg_pool_to_1(x)
        assert out.shape == (2, 3, 1, 1)
        np.testing.assert_allclose(out.data, 1.5, rtol=1e-6)

    def test_pool_mean_example(self):
        x = Tensor(np.array([[[[1.0, 3.0], [5.0, 7.0]]]], np.float32))
        assert ops.adaptive_avg_pool_to_1(x).data[0, 0, 0, 0] == 4.0

    def test_pool_gradient_is_uniform(self, rng):
        x = Tensor(rng.normal(size=(1, 1, 3, 4)).astype(np.float32), requires_grad=True)
        with Tape() as tape:
            loss = sum_all(ops.adaptive_avg_pool_to_1(x))
        tape.backward(loss)
        np.testing.assert_allclose(x.grad, 1.0 / 12.0, rtol=1e-6)

    def test_upsample_constant(self):
        x = Tensor(np.full((1, 2, 3, 3), 0.7, np.float32))
        out = ops.bilinear_upsample(x, 8, 8)
        np.testing.assert_allclose(out.data, 0.7, rtol=1e-6)

    def test_upsample_1x1(self):
        x = Tensor(np.full((1, 1, 1, 1), 4.25, np.float32))
        out = ops.bilinear_upsample(x, 4, 4)
        np.testing.assert_array_equal(out.data, np.full((1, 1, 4, 4), 4.25, np.float32))

    def test_upsample_matches_reference_interpolator(self, rng):
        # Independent scalar-loop oracle for half-pixel-center bilinear resize.
        def reference(plane, oh, ow):
            h, w = plane.shape
            out = np.zeros((oh, ow))
            for i in range(oh):
                for j in range(ow):
                    sy = min(max((i + 0.5) * h / oh - 0.5, 0.0), h - 1.0)
                    sx = min(max((j + 0.5) * w / ow - 0.5, 0.0), w - 1.0)
                    y0, x0 = int(np.floor(sy)), int(np.floor(sx))
                    y1, x1 = min(y0 + 1, h - 1), min(x0 + 1, w - 1)
                    fy, fx = sy - y0, sx - x0
                    out[i, j] = (
                        plane[y0, x0] * (1 - fy) * (1 - fx)
                        + plane[y0, x1] * (1 - fy) * fx
                        + plane[y1, x0] * fy * (1 - fx)
                        + plane[y1, x1] * fy * fx
                    )
            return out

        plane = rng.normal(size=(2, 2))
        with shadow_precision():
            out = ops.bilinear_upsample(Tensor(plane[None, None]), 4, 4)
        np.testing.assert_allclose(out.data[0, 0], reference(plane, 4, 4), rtol=1e-10)
        plane = rng.normal(size=(5, 7))
        with shadow_precision():
            out = ops.bilinear_upsample(Tensor(plane[None, None]), 13, 11)
        np.testing.assert_allclose(out.data[0, 0], reference(plane, 13, 11), rtol=1e-10)

    def test_upsample_rejects_shrinking(self):
        with pytest.raises(ShapeError):
            ops.bilinear_upsample(Tensor(np.zeros((1, 1, 8, 8), np.float32)), 4, 4)


class TestNormalize:
    def test_three_four_five(self):
        plane = np.zeros((1, 1, 2, 2), np.float32)
        plane[0, 0] = [[3.0, 4.0], [0.0, 0.0]]
        out = ops.l2_normalize(plane, (2, 3))
        np.testing.assert_allclose(out[0, 0], [[0.6, 0.8], [0.0, 0.0]], rtol=1e-6)

    def test_zero_plane_stays_zero(self):
        out = ops.l2_normalize(np.zeros((2, 3, 4, 4), np.float32), (2, 3))
        np.testing.assert_array_equal(out, 0.0)

    def test_unit_norms_on_random_input(self, rng):
        x = rng.normal(size=(3, 4, 6, 6)).astype(np.float32) * 10
        out = ops.l2_normalize(x, (2, 3))
        norms = np.sqrt((out * out).sum(axis=(2, 3)))
        np.testing.assert_allclose(norms, 1.0, atol=1e-5)

    def test_idempotent(self, rng):
        x = rng.normal(size=(2, 3, 5, 5)).astype(np.float32)
        once = ops.l2_normalize(x, (2, 3))
        twice = ops.l2_normalize(once, (2, 3))
        assert np.max(np.abs(once - twice)) < 1e-6

    def test_whole_tensor_variant(self, rng):
        x = rng.normal(size=(2, 3, 4, 4)).astype(np.float32) * 3
        out = ops.l2_normalize(x, (1, 2, 3))
        norms = np.sqrt((out * out).sum(axis=(1, 2, 3)))
        np.testing.assert_allclose(norms, 1.0, atol=1e-5)


class TestCrossEntropy:
    def test_uniform_logits(self):
        logits = Tensor(np.zeros((2, 4, 3, 3), np.float32))
        target = np.zeros((2, 3, 3), np.int64)
        loss = ops.cross_entropy(logits, target)
        assert abs(loss.item() - np.log(4.0)) < 1e-6

    def test_saturated_margin(self):
        logits = np.zeros((1, 4, 2, 2), np.float32)
        logits[0, 2] = 30.0
        target = np.full((1, 2, 2), 2, np.int64)
        assert ops.cross_entropy(Tensor(logits), target).item() < 1e-9

    def test_target_out_of_range(self):
        logits = Tensor(np.zeros((1, 3, 2, 2), np.float32))
        with pytest.raises(ValueError):
            ops.cross_entropy(logits, np.full((1, 2, 2), 7, np.int64))

    def test_gradient(self, rng):
        logits0 = rng.normal(size=(2, 4, 3, 3))
        target = rng.integers(0, 4, size=(2, 3, 3))
        check_gradients(lambda t: ops.cross_entropy(t, target), [logits0])


class TestStructuralOps:
    def test_embed_places_block(self, rng):
        block = rng.normal(size=(1, 2, 2, 3)).astype(np.float32)
        out = ops.embed2d(Tensor(block), 6, 7, 1, 2)
        assert out.shape == (1, 2, 6, 7)
        np.testing.assert_array_equal(out.data[:, :, 1:3, 2:5], block)
        total = np.abs(out.data).sum()
        np.testing.assert_allclose(total, np.abs(block).sum(), rtol=1e-6)

    def test_embed_out_of_bounds(self):
        with pytest.raises(ShapeError):
            ops.embed2d(Tensor(np.zeros((1, 1, 4, 4), np.float32)), 5, 5, 2, 0)

    def test_slice_axis1_values_and_bounds(self, rng):
        x = rng.normal(size=(2, 4, 3)).astype(np.float32)
        out = ops.slice_axis1(Tensor(x), 1, 3)
        np.testing.assert_array_equal(out.data, x[:, 1:3])
        with pytest.raises(ShapeError):
            ops.slice_axis1(Tensor(x), 3, 3)
        with pytest.raises(ShapeError):
            ops.slice_axis1(Tensor(x), 0, 5)

    def test_bilinear_scores_hand_value(self):
        q = Tensor(np.array([[1.0, 2.0]], np.float32))
        k = Tensor(np.array([[[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]], np.float32))
        np.testing.assert_allclose(ops.bilinear_scores(q, k).data, [[1.0, 2.0, 3.0]], rtol=1e-6)

    def test_weighted_sum_selects_with_onehot(self, rng):
        stack = rng.normal(size=(2, 3, 1, 4, 4)).astype(np.float32)
        w = np.zeros((2, 3), np.float32)
        w[0, 1] = 1.0
        w[1, 2] = 1.0
        out = ops.weighted_sum(Tensor(w), stack)
        np.testing.assert_allclose(out.data[0], stack[0, 1], rtol=1e-6)
        np.testing.assert_allclose(out.data[1], stack[1, 2], rtol=1e-6)

    def test_broadcast_to_batch(self, rng):
        x = Tensor(rng.normal(size=(1, 2, 3, 3)).astype(np.float32), requires_grad=True)
        with Tape() as tape:
            y = broadcast_to_batch(x, 4)
            loss = sum_all(y)
        assert y.shape == (4, 2, 3, 3)
        tape.backward(loss)
        np.testing.assert_allclose(x.grad, 4.0, rtol=1e-6)


def _gradcheck_registry(rng):
    """One entry per differentiable op: returns (loss builder, leaf arrays)."""

    def conv_case():
        x = rng.normal(size=(2, 2, 5, 5))
        w = rng.normal(size=(3, 2, 3, 3))
        b = rng.normal(size=(3,))
        r = rng.normal(size=(2, 3, 3, 3))
        return lambda x_, w_, b_: project(ops.conv2d(x_, w_, b_, 2, 1), r), [x, w, b]

    def bn_case():
        x = rng.normal(size=(3, 2, 3, 3))
        g = rng.normal(1.0, 0.3, size=(2,))
        b = rng.normal(size=(2,))
        r = rng.normal(size=(3, 2, 3, 3))

        def loss(x_, g_, b_):
            return project(ops.batch_norm2d(x_, g_, b_, *bn_stats(2), True), r)

        return loss, [x, g, b]

    def act_case(fn):
        def make():
            x = rng.normal(size=(4, 5))
            # keep values off the relu kink so finite differences stay valid
            x += 0.05 * np.sign(x)
            r = rng.normal(size=(4, 5))
            return lambda x_: project(fn(x_), r), [x]

        return make

    def softmax_case():
        x = rng.normal(0, 3, size=(3, 6))
        r = rng.normal(size=(3, 6))
        return lambda x_: project(ops.softmax(x_, axis=1), r), [x]

    def linear_case():
        x = rng.normal(size=(3, 4))
        w = rng.normal(size=(4, 2))
        b = rng.normal(size=(2,))
        r = rng.normal(size=(3, 2))
        return lambda x_, w_, b_: project(ops.linear(x_, w_, b_), r), [x, w, b]

    def pool_case():
        x = rng.normal(size=(2, 3, 4, 4))
        r = rng.normal(size=(2, 3, 1, 1))
        return lambda x_: project(ops.adaptive_avg_pool_to_1(x_), r), [x]

    def upsample_case():
        x = rng.normal(size=(1, 2, 3, 4))
        r = rng.normal(size=(1, 2, 7, 9))
        return lambda x_: project(ops.bilinear_upsample(x_, 7, 9), r), [x]

    def ce_case():
        x = rng.normal(size=(2, 3, 3, 3))
        t = rng.integers(0, 3, size=(2, 3, 3))
        return lambda x_: ops.cross_entropy(x_, t), [x]

    def embed_case():
        x = rng.normal(size=(2, 2, 2, 3))
        r = rng.normal(size=(2, 2, 5, 6))
        return lambda x_: project(ops.embed2d(x_, 5, 6, 1, 2), r), [x]

    def scores_case():
        q = rng.normal(size=(3, 4))
        k = rng.normal(size=(3, 2, 4))
        r = rng.normal(size=(3, 2))
        return lambda q_, k_: project(ops.bilinear_scores(q_, k_), r), [q, k]

    def slice_case():
        x = rng.normal(size=(2, 5, 3))
        r = rng.normal(size=(2, 2, 3))
        return lambda x_: project(ops.slice_axis1(x_, 1, 3), r), [x]

    def wsum_case():
        w = rng.normal(size=(2, 3))
        stack = rng.normal(size=(2, 3, 1, 3, 3))
        r = rng.normal(size=(2, 1, 3, 3))
        return lambda w_: project(ops.weighted_sum(w_, stack), r), [w]

    def elementwise_case():
        a = rng.normal(size=(1, 3, 1))
        b = rng.normal(size=(2, 3, 4))
        r = rng.normal(size=(2, 3, 4))

        def loss(a_, b_):
            return project(add(mul(a_, b_), scale(b_, 0.5)), r)

        return loss, [a, b]

    def reshape_case():
        x = rng.normal(size=(2, 6))
        r = rng.normal(size=(3, 4))
        return lambda x_: project(reshape(x_, (3, 4)), r), [x]

    return {
        "conv2d": conv_case,
        "batch_norm2d": bn_case,
        "relu": act_case(ops.relu),
        "tanh": act_case(ops.tanh),
        "softmax": softmax_case,
        "linear": linear_case,
        "adaptive_avg_pool_to_1": pool_case,
        "bilinear_upsample": upsample_case,
        "cross_entropy": ce_case,
        "embed2d": embed_case,
        "bilinear_scores": scores_case,
        "slice_axis1": slice_case,
        "weighted_sum": wsum_case,
        "elementwise": elementwise_case,
        "reshape": reshape_case,
    }


OP_NAMES = sorted(_gradcheck_registry(np.random.default_rng(0)).keys())


@pytest.mark.parametrize("op_name", OP_NAMES)
def test_gradients_match_finite_differences_20_random(op_name):
    rng = np.random.default_rng(zlib.crc32(op_name.encode()))
    registry = _gradcheck_registry(rng)
    for trial in range(20):
        make_loss, leaves = registry[op_name]()
        check_gradients(make_loss, leaves, tol=1e-3, eps=1e-3, max_coords=24,
                        rng=np.random.default_rng(trial))


def test_composite_net_gradient_at_f32(rng):
    """conv -> bn -> relu -> pool -> linear -> CE, checked in plain float32."""
    x0 = rng.normal(size=(2, 2, 6, 6)).astype(np.float32)
    convw = (rng.normal(size=(3, 2, 3, 3)) * 0.4).astype(np.float32)
    convb = np.zeros(3, np.float32)
    g0 = np.ones(3, np.float32)
    b0 = np.zeros(3, np.float32)
    linw = (rng.normal(size=(3, 4)) * 0.5).astype(np.float32)
    linb = np.zeros(4, np.float32)
    target = rng.integers(0, 4, size=2)

    leaves = [Tensor(a.copy(), requires_grad=True) for a in (x0, convw, convb, g0, b0, linw, linb)]

    def forward():
        x, cw, cb, gamma, beta, lw, lb = leaves
        h = ops.conv2d(x, cw, cb, stride=1, padding=1)
        h = ops.batch_norm2d(h, gamma, beta, *bn_stats(3), training=True)
        h = ops.relu(h)
        h = ops.adaptive_avg_pool_to_1(h)
        h = reshape(h, (2, 3))
        h = ops.linear(h, lw, lb)
        # per-image logits as a 1x1 map: cross_entropy takes (B, K, H, W)
        return ops.cross_entropy(reshape(h, (2, 4, 1, 1)), target[:, None, None])

    with Tape() as tape:
        loss = forward()
    tape.backward(loss)

    from conftest import numeric_grad

    check_rng = np.random.default_rng(9)
    for leaf in leaves:
        coords = None
        if leaf.data.size > 20:
            coords = sorted(check_rng.choice(leaf.data.size, 20, replace=False).tolist())
        num = numeric_grad(lambda: forward().item(), leaf, eps=1e-2, coords=coords)
        sel = slice(None) if coords is None else coords
        a = leaf.grad.reshape(-1)[sel]
        n = num.reshape(-1)[sel]
        # atol floors the comparison where the true gradient is ~0 (e.g. conv
        # bias ahead of train-mode batch norm) and f32 FD noise dominates
        np.testing.assert_allclose(a, n, rtol=1e-2, atol=1e-4)
