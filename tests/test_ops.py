import contextlib
import inspect
import tracemalloc
import zlib

import numpy as np
import pytest

from promptseg.autograd import (
    DegenerateBatchError,
    ShapeError,
    Tape,
    Tensor,
    no_grad,
    shadow_precision,
)
from promptseg.autograd import ops
from promptseg.autograd.layers import (
    BatchNorm2d,
    Conv2d,
    ConvBn,
    conv_bn,
    freeze,
    load_tensor_arrays,
    tensor_arrays,
)
from promptseg.autograd.tensor import add, current_dtype, reshape
from promptseg.fusion import collect_prompts, fuse_prompts
from promptseg.prompts import SIDES, BorderTemplate, FullTemplate, StylePromptGenerator
from promptseg.seeding import stream

from conftest import (
    check_gradients,
    conv_bn_reference,
    mul,
    sum_all,
    vary_bn_state,
)


def project(out, r):
    """Reduce an op output to a scalar with a fixed projection array."""
    return sum_all(mul(out, Tensor(r)))


def bn_stats(c):
    """Fresh batch-norm running statistics: mean 0, variance 1."""
    return np.zeros(c, current_dtype()), np.ones(c, current_dtype())


WINDOW_CASES = [
    (1, 2, 0, 8), (3, 1, 1, 7), (5, 2, 2, 9),
    (3, 2, 0, 8),  # the last window stops one pixel short of the edge
    (3, 2, 1, 8), (1, 1, 0, 5),  # with (5, 2, 2) and (3, 1, 1): every conv the configs build
    (3, 3, 1, 10), (5, 3, 1, 9),  # stride 3; the last window stops short
    (4, 2, 1, 9), (2, 1, 0, 6),  # even kernels
    (2, 3, 0, 7), (1, 3, 0, 7),  # k < s: phases no tap reads
    (3, 2, 2, 4), (1, 1, 1, 4),  # padding about the size of the input
]
# input channels on either side of ops.PIXEL_MAJOR_CHANNELS: lattice and pixel-major columns
WIDTHS = [3, 16]


class TestConv2d:
    def test_scalar_kernel_doubles_input(self):
        x = Tensor(np.ones((1, 1, 3, 3), np.float32))
        w = Tensor(np.full((1, 1, 1, 1), 2.0, np.float32))
        b = Tensor(np.zeros(1, np.float32))
        out = ops.conv2d(x, w, b, stride=1, padding=0)
        np.testing.assert_array_equal(out.data, np.full((1, 1, 3, 3), 2.0, np.float32))

    @staticmethod
    def _check_against_loop(rng, k, stride, padding, size, batch, c_in):
        """conv2d's output and gradients against a float64 loop over windows;
        returns the tape and the input tensor."""
        x0 = rng.normal(size=(batch, c_in, size, size))
        w0 = rng.normal(size=(4, c_in, k, k))
        b0 = rng.normal(size=(4,))
        x, w, b = (Tensor(a, requires_grad=True) for a in (x0, w0, b0))
        with Tape() as tape:
            out = ops.conv2d(x, w, b, stride=stride, padding=padding)
            g = rng.normal(size=out.shape)
            tape.backward(out, g)
        xp = np.pad(x0, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
        oh = (size + 2 * padding - k) // stride + 1
        ref = np.empty((batch, 4, oh, oh))
        gxp, gw = np.zeros_like(xp), np.zeros_like(w0)
        for i in range(oh):
            for j in range(oh):
                at = np.s_[:, :, i * stride : i * stride + k, j * stride : j * stride + k]
                ref[:, :, i, j] = np.einsum("bchw,ochw->bo", xp[at], w0) + b0
                gw += np.einsum("bo,bchw->ochw", g[:, :, i, j], xp[at])
                gxp[at] += np.einsum("bo,ochw->bchw", g[:, :, i, j], w0)
        assert out.shape == ref.shape
        np.testing.assert_allclose(out.data, ref, rtol=1e-4, atol=1e-4)
        gx = gxp[:, :, padding : padding + size, padding : padding + size]
        np.testing.assert_allclose(x.grad, gx, rtol=1e-4, atol=1e-4)
        np.testing.assert_allclose(w.grad, gw, rtol=1e-4, atol=1e-4)
        np.testing.assert_allclose(b.grad, g.sum(axis=(0, 2, 3)), rtol=1e-4, atol=1e-4)
        return tape, x

    @staticmethod
    def _kept(tape):
        """The arrays the last conv2d's backward closure keeps, by name (its
        input tensors aside)."""
        nonlocals = inspect.getclosurevars(tape._nodes[-1].backward_fn).nonlocals
        return {name: v for name, v in nonlocals.items() if isinstance(v, np.ndarray)}

    @pytest.mark.parametrize("k,stride,padding,size", WINDOW_CASES)
    def test_matches_direct_loop_over_windows(self, rng, k, stride, padding, size):
        for c_in in WIDTHS:
            self._check_against_loop(rng, k, stride, padding, size, batch=2, c_in=c_in)

    @pytest.mark.parametrize("k,stride,padding,size", WINDOW_CASES)
    def test_one_image_blocks_match_direct_loop(self, rng, monkeypatch, k, stride, padding, size):
        monkeypatch.setattr(ops, "COLUMN_BUDGET", 1)  # every image is its own block
        for c_in in WIDTHS:
            self._check_against_loop(rng, k, stride, padding, size, batch=3, c_in=c_in)

    def test_forward_peak_stays_within_the_column_budget(self, rng):
        # the whole batch's columns would be 33 MB: 64 * 16*5*5 * 18*18 floats
        x = Tensor(rng.normal(size=(64, 16, 32, 32)).astype(np.float32))
        w = Tensor(rng.normal(size=(32, 16, 5, 5)).astype(np.float32))
        b = Tensor(np.zeros(32, np.float32))
        tracemalloc.start()
        try:
            with no_grad():
                out = ops.conv2d(x, w, b, stride=2, padding=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < ops.COLUMN_BUDGET + x.data.nbytes + out.data.nbytes

    @pytest.mark.parametrize("k,stride,padding,size", [(5, 2, 2, 9), (3, 3, 1, 10), (1, 2, 0, 8)])
    def test_single_image_matches_direct_loop(self, rng, k, stride, padding, size):
        self._check_against_loop(rng, k, stride, padding, size, batch=1, c_in=3)

    @staticmethod
    def _looped_columns(x, k, stride, padding, ah, aw):
        """The columns built tap by tap: each phase's lattice copied into its
        tap's row, every other tap's row a shifted copy of it, tail zeroed."""
        b, c_in = x.shape[:2]
        n = b * ah * aw
        cols = np.zeros((c_in, k, k, n), x.dtype)
        for a, c, cells, pixels in ops._phases(x.shape, k, stride, padding, ah, aw):
            cols[:, a, c].reshape(c_in, b, ah, aw)[cells] = x.transpose(1, 0, 2, 3)[pixels]
        for ki, kj in np.ndindex(k, k):
            if off := (ki // stride) * aw + kj // stride:
                cols[:, ki, kj, : n - off] = cols[:, ki % stride, kj % stride, off:]
        return cols.reshape(c_in * k * k, n)

    @pytest.mark.parametrize("k,stride,padding,size", WINDOW_CASES)
    def test_columns_bit_equal_to_tap_by_tap(self, rng, k, stride, padding, size):
        # _columns copies each phase's taps at once (an unpadded 1x1 kernel takes
        # every s-th pixel); the reference copies them tap by tap
        x = rng.normal(size=(2, 3, size, size)).astype(np.float32)
        out = (size + 2 * padding - k) // stride + 1
        ah = out - 1 - (-k // stride)
        got = ops._columns(x, k, stride, padding, ah, ah)
        assert got.tobytes() == self._looped_columns(x, k, stride, padding, ah, ah).tobytes()

    @pytest.mark.parametrize("k,stride,padding,size", WINDOW_CASES)
    def test_pixel_columns_bit_equal_to_window_by_window(self, rng, k, stride, padding, size):
        x = rng.normal(size=(2, 16, size, size)).astype(np.float32)
        out = (size + 2 * padding - k) // stride + 1
        xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
        ref = np.stack([xp[i, :, r * stride : r * stride + k, c * stride : c * stride + k]
                        .transpose(1, 2, 0).reshape(-1)
                        for i, r, c in np.ndindex(2, out, out)])
        got = ops._pixel_columns(x, k, stride, padding, out, out)
        assert got.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("c_in,k,layout", [
        (16, 5, "pixel"), (16, 3, "pixel"), (15, 3, "lattice"), (3, 5, "lattice"),
        (16, 1, "lattice"),
    ])
    def test_layout_follows_the_input_width(self, rng, monkeypatch, c_in, k, layout):
        calls = []
        for name in ("_columns", "_pixel_columns"):
            def spy(*args, _name=name, _real=getattr(ops, name)):
                calls.append(_name)
                return _real(*args)
            monkeypatch.setattr(ops, name, spy)
        x = Tensor(rng.normal(size=(2, c_in, 8, 8)).astype(np.float32), requires_grad=True)
        w = Tensor(rng.normal(size=(4, c_in, k, k)).astype(np.float32), requires_grad=True)
        b = Tensor(np.zeros(4, np.float32), requires_grad=True)
        with Tape() as tape:
            out = ops.conv2d(x, w, b, stride=2, padding=k // 2)
            tape.backward(out, np.ones(out.shape, np.float32))
        # the forward and the weight gradient build the same layout; the input
        # gradient builds no columns
        assert calls == 2 * ["_pixel_columns" if layout == "pixel" else "_columns"]

    @staticmethod
    def _forward_peak(rng, x_shape, w_shape):
        """The traced peak of one 5x5 stride-2 forward, and its output."""
        x = Tensor(rng.normal(size=x_shape).astype(np.float32))
        w = Tensor(rng.normal(size=w_shape).astype(np.float32))
        b = Tensor(np.zeros(w_shape[0], np.float32))
        tracemalloc.start()
        try:
            with no_grad():
                out = ops.conv2d(x, w, b, stride=2, padding=2)
            return tracemalloc.get_traced_memory()[1], out
        finally:
            tracemalloc.stop()

    def test_output_is_allocated_after_the_columns_are_freed(self, rng):
        # one block at batch 8 (the oracle's first stage): the peak holds the
        # columns and the GEMM result, then the GEMM result and the output,
        # never all three
        peak, out = self._forward_peak(rng, (8, 3, 64, 64), (16, 3, 5, 5))
        lattice_cells = 8 * 34 * 34
        columns, gemm = 3 * 25 * lattice_cells * 4, 16 * lattice_cells * 4
        assert columns + gemm <= peak < columns + gemm + out.data.nbytes // 2

    def test_pixel_major_output_is_allocated_after_the_columns_are_freed(self, rng):
        # one block at batch 8 (the encoder's second stage): the peak holds the
        # padded copy and the columns over exactly the output cells, then the
        # GEMM result and the output, never the output with the columns
        peak, out = self._forward_peak(rng, (8, 16, 32, 32), (32, 16, 5, 5))
        columns, padded = 8 * 16 * 16 * 25 * 16 * 4, 8 * 36 * 36 * 16 * 4
        assert columns + padded <= peak < columns + padded + out.data.nbytes // 2

    def test_1x1_stride1_single_image_columns_are_a_view(self, rng):
        _, x = self._check_against_loop(rng, 1, 1, 0, 5, batch=1, c_in=3)
        assert np.shares_memory(ops._columns(x.data, 1, 1, 0, 5, 5), x.data)

    def test_1x1_stride2_input_gradient_zeroes_one_phase(self, rng):
        # a 1x1 kernel reads one stride phase: forward plus input gradient peak
        # below the input gradient and the four phase lattices of stride 2
        x = Tensor(rng.normal(size=(8, 32, 32, 32)).astype(np.float32), requires_grad=True)
        w = Tensor(rng.normal(size=(8, 32, 1, 1)).astype(np.float32))
        b = Tensor(np.zeros(8, np.float32))
        g = np.ones((8, 8, 16, 16), np.float32)
        tracemalloc.start()
        try:
            with Tape() as tape:
                ops.conv2d(x, w, b, stride=2)
            gx = tape._nodes[-1].backward_fn(g)[0]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        lattice = 32 * 8 * 16 * 16 * 4
        assert peak < gx.nbytes + 4 * lattice

    def test_1x1_stride1_input_gradient_builds_no_lattice(self, rng):
        # the column gradient goes straight into the input gradient: forward
        # plus input gradient peak below the two of them and a phase lattice,
        # each the input's size
        x = Tensor(rng.normal(size=(8, 32, 32, 32)).astype(np.float32), requires_grad=True)
        w = Tensor(rng.normal(size=(8, 32, 1, 1)).astype(np.float32))
        b = Tensor(np.zeros(8, np.float32))
        g = np.ones((8, 8, 32, 32), np.float32)
        tracemalloc.start()
        try:
            with Tape() as tape:
                ops.conv2d(x, w, b)
            gx = tape._nodes[-1].backward_fn(g)[0]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * gx.nbytes

    def test_trainable_weight_keeps_no_columns(self, rng):
        for c_in in WIDTHS:
            x = Tensor(rng.normal(size=(2, c_in, 16, 16)).astype(np.float32), requires_grad=True)
            w = Tensor(rng.normal(size=(4, c_in, 5, 5)).astype(np.float32), requires_grad=True)
            b = Tensor(np.zeros(4, np.float32), requires_grad=True)
            with Tape() as tape:
                ops.conv2d(x, w, b, stride=2, padding=2)
            kept = self._kept(tape)  # the weight gradient rebuilds them from the input
            assert set(kept) == {"wmat"} and np.shares_memory(kept["wmat"], w.data)

    def test_frozen_weight_returns_only_the_input_gradient(self, rng):
        x = Tensor(rng.normal(size=(2, 3, 6, 6)).astype(np.float32), requires_grad=True)
        w = Tensor(rng.normal(size=(4, 3, 3, 3)).astype(np.float32))
        b = Tensor(np.zeros(4, np.float32))
        with Tape() as tape:
            out = ops.conv2d(x, w, b, stride=2, padding=1)
        kept = self._kept(tape)  # nothing beyond a view of the weight
        assert set(kept) == {"wmat"} and np.shares_memory(kept["wmat"], w.data)
        gx, gw, gb = tape._nodes[-1].backward_fn(np.ones_like(out.data))
        assert gw is None and gb is None
        assert gx.shape == x.shape

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
        for c_in in WIDTHS:
            x0 = rng.normal(size=(2, c_in, 6, 6))
            w0 = rng.normal(size=(4, c_in, 3, 3))
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
        out = ops.batch_norm2d(Tensor(x0), gamma, beta, *state)
        assert np.max(np.abs(out.data - x0)) < 1e-4

    def test_constant_channel_maps_to_beta(self):
        x = Tensor(np.full((2, 2, 3, 3), 5.0, np.float32))
        gamma = Tensor(np.ones(2, np.float32))
        beta = Tensor(np.array([0.25, -1.0], np.float32))
        out = ops.batch_norm2d(x, gamma, beta, *bn_stats(2))
        np.testing.assert_allclose(out.data[:, 0], 0.25, atol=1e-5)
        np.testing.assert_allclose(out.data[:, 1], -1.0, atol=1e-5)

    def test_train_output_statistics(self, rng):
        x = Tensor(rng.normal(2.0, 3.0, size=(4, 5, 8, 8)).astype(np.float32))
        gamma, beta, state = self._layer(5)
        out = ops.batch_norm2d(x, gamma, beta, *state)
        mean = out.data.mean(axis=(0, 2, 3))
        var = out.data.var(axis=(0, 2, 3))
        assert np.max(np.abs(mean)) < 1e-4
        assert np.max(np.abs(var - 1.0)) < 1e-4

    def test_running_stats_update_and_eval_use(self, rng):
        x0 = rng.normal(1.0, 2.0, size=(8, 2, 4, 4)).astype(np.float32)
        bn = BatchNorm2d(2)
        ops.batch_norm2d(Tensor(x0), bn.gamma, bn.beta, bn.running_mean, bn.running_var)
        n = 8 * 4 * 4
        expect_mean = 0.1 * x0.mean(axis=(0, 2, 3))
        expect_var = 0.9 + 0.1 * x0.var(axis=(0, 2, 3)) * n / (n - 1)
        np.testing.assert_allclose(bn.running_mean, expect_mean, rtol=1e-5)
        np.testing.assert_allclose(bn.running_var, expect_var, rtol=1e-5)
        # eval mode (folded into an identity 1x1 conv) must use them and
        # leave them untouched
        conv = Conv2d(2, 2, 1, rng)
        conv.weight.data[...] = np.eye(2, dtype=np.float32)[:, :, None, None]
        before = bn.running_mean.copy(), bn.running_var.copy()
        out = conv_bn(conv, bn, Tensor(x0), training=False)
        expected = (x0 - bn.running_mean[:, None, None]) / np.sqrt(
            bn.running_var[:, None, None] + ops.BN_EPS
        )
        np.testing.assert_allclose(out.data, expected, rtol=1e-4, atol=1e-5)
        np.testing.assert_array_equal(before[0], bn.running_mean)
        np.testing.assert_array_equal(before[1], bn.running_var)

    def test_single_value_batch_raises(self):
        x = Tensor(np.zeros((1, 3, 1, 1), np.float32))
        gamma, beta, state = self._layer(3)
        with pytest.raises(DegenerateBatchError):
            ops.batch_norm2d(x, gamma, beta, *state)

    def test_gradients_train_mode(self, rng):
        x0 = rng.normal(size=(3, 2, 4, 4))
        g0 = rng.normal(1.0, 0.2, size=(2,))
        b0 = rng.normal(size=(2,))
        r = rng.normal(size=(3, 2, 4, 4))

        def loss(x, gamma, beta):
            return project(ops.batch_norm2d(x, gamma, beta, *bn_stats(2)), r)

        check_gradients(loss, [x0, g0, b0], tol=2e-3)


class TestConvBn:
    """``layers.conv_bn``: batch statistics in training mode, one folded
    convolution in eval mode."""

    @staticmethod
    def _pair(rng, kernel=3):
        """A 3 -> 4 channel pair with a non-zero bias and non-trivial BN state."""
        pair = ConvBn(3, 4, kernel, stream(0, "conv-bn"))
        pair.conv.bias.data[...] = rng.normal(0.0, 0.5, 4)
        vary_bn_state(pair.bn, rng)
        return pair

    @pytest.mark.parametrize("kernel,size", [(1, 6), (3, 7), (5, 8)])
    def test_eval_matches_float64_conv_then_batch_norm(self, rng, kernel, size):
        pair = self._pair(rng, kernel=kernel)
        x = rng.normal(size=(2, 3, size, size)).astype(np.float32)
        out = conv_bn(pair.conv, pair.bn, Tensor(x), training=False)
        ref = conv_bn_reference(pair.conv, pair.bn, x)
        np.testing.assert_allclose(out.data, ref, rtol=1e-4, atol=1e-4)
        np.testing.assert_array_equal(pair(Tensor(x), training=False).data,
                                      np.maximum(out.data, 0))

    def test_eval_input_gradient_matches_finite_differences(self, rng):
        with shadow_precision():
            pair = self._pair(rng)
        freeze(pair.tensors())
        r = rng.normal(size=(2, 4, 3, 3))
        check_gradients(
            lambda x: project(conv_bn(pair.conv, pair.bn, x, training=False), r),
            [rng.normal(size=(2, 3, 6, 6))],
        )

    def test_training_mode_is_conv_then_batch_norm(self, rng):
        pair, twin = self._pair(rng), ConvBn(3, 4, 3, stream(0, "conv-bn"))
        load_tensor_arrays(twin.tensors(), tensor_arrays(pair.tensors()))
        stats_before = pair.bn.running_mean.copy(), pair.bn.running_var.copy()
        x0 = rng.normal(size=(4, 3, 8, 8)).astype(np.float32)
        xs = [Tensor(x0, requires_grad=True) for _ in range(2)]
        g = rng.normal(size=(4, 4, 4, 4)).astype(np.float32)
        outs = []
        for fn in (lambda: conv_bn(pair.conv, pair.bn, xs[0], training=True),
                   lambda: ops.batch_norm2d(twin.conv(xs[1]), twin.bn.gamma, twin.bn.beta,
                                            twin.bn.running_mean, twin.bn.running_var)):
            with Tape() as tape:
                outs.append(fn())
                tape.backward(outs[-1], g)
        np.testing.assert_array_equal(outs[0].data, outs[1].data)
        np.testing.assert_array_equal(xs[0].grad, xs[1].grad)
        for name, t in pair.tensors().items():
            other = twin.tensors()[name]
            if isinstance(t, Tensor):
                np.testing.assert_array_equal(t.grad, other.grad, err_msg=name)
            else:
                np.testing.assert_array_equal(t, other, err_msg=name)
        assert not np.array_equal(pair.bn.running_mean, stats_before[0])
        assert not np.array_equal(pair.bn.running_var, stats_before[1])

    @pytest.mark.parametrize("trainable", ["conv.weight", "conv.bias", "bn.gamma", "bn.beta"])
    def test_eval_refuses_a_trainable_parameter_under_a_tape(self, rng, trainable):
        pair = self._pair(rng)
        freeze(pair.tensors())
        pair.tensors()[trainable].requires_grad = True
        x = Tensor(rng.normal(size=(2, 3, 6, 6)).astype(np.float32))
        with Tape():
            with pytest.raises(RuntimeError, match="no parameter gradients"):
                pair(x, training=False)
            with no_grad():
                pair(x, training=False)  # nothing records here
        pair(x, training=False)  # nor here
        freeze(pair.tensors())
        with Tape():
            pair(x, training=False)


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
        out = plane / ops.l2_norms(plane, (2, 3))
        np.testing.assert_allclose(out[0, 0], [[0.6, 0.8], [0.0, 0.0]], rtol=1e-6)

    def test_zero_plane_stays_zero(self):
        x = np.zeros((2, 3, 4, 4), np.float32)
        out = x / ops.l2_norms(x, (2, 3))
        np.testing.assert_array_equal(out, 0.0)

    def test_unit_norms_on_random_input(self, rng):
        x = rng.normal(size=(3, 4, 6, 6)).astype(np.float32) * 10
        out = x / ops.l2_norms(x, (2, 3))
        norms = np.sqrt((out * out).sum(axis=(2, 3)))
        np.testing.assert_allclose(norms, 1.0, atol=1e-5)

    def test_idempotent(self, rng):
        x = rng.normal(size=(2, 3, 5, 5)).astype(np.float32)
        once = x / ops.l2_norms(x, (2, 3))
        twice = once / ops.l2_norms(once, (2, 3))
        assert np.max(np.abs(once - twice)) < 1e-6

    def test_whole_tensor_variant(self, rng):
        x = rng.normal(size=(2, 3, 4, 4)).astype(np.float32) * 3
        out = x / ops.l2_norms(x, (1, 2, 3))
        norms = np.sqrt((out * out).sum(axis=(1, 2, 3)))
        np.testing.assert_allclose(norms, 1.0, atol=1e-5)

    @pytest.mark.parametrize("axes", [(2, 3), (1, 2, 3)])
    def test_a_planes_norm_does_not_depend_on_its_batch(self, rng, axes):
        # stored norms stand in for a batch's own: each sample alone is bit-equal
        x = rng.normal(size=(5, 3, 64, 64)).astype(np.float32)
        whole = ops.l2_norms(x, axes)
        for i in range(len(x)):
            assert whole[i : i + 1].tobytes() == ops.l2_norms(x[i : i + 1], axes).tobytes()


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

    @staticmethod
    def _formula(logits, target, g):
        """The loss and gradient as computed before the normalizer was kept:
        exp and its sum again in the backward, the target through
        take_along_axis and put_along_axis."""
        b, k, h, w = logits.shape
        x3, t2, n = logits.reshape(b, k, h * w), target.reshape(b, 1, h * w), b * h * w
        m = x3.max(axis=1, keepdims=True)
        z = x3 - m
        lse = np.log(np.exp(z).sum(axis=1)) + m[:, 0]
        loss = (lse - np.take_along_axis(x3, t2, axis=1)[:, 0]).sum() / n
        p = np.exp(z - np.log(np.exp(z).sum(axis=1, keepdims=True)))
        np.put_along_axis(p, t2, np.take_along_axis(p, t2, axis=1) - 1.0, axis=1)
        p *= g / n
        return np.asarray(loss), p.reshape(logits.shape)

    @pytest.mark.parametrize("shadow", [False, True])
    def test_bit_equal_to_the_formula(self, rng, shadow):
        logits = (rng.normal(size=(8, 6, 16, 16)) * 4).astype(current_dtype())
        target = rng.integers(0, 6, size=(8, 16, 16))
        with shadow_precision() if shadow else contextlib.nullcontext():
            x = Tensor(logits, requires_grad=True)
            with Tape() as tape:
                loss = ops.cross_entropy(x, target)
            tape.backward(loss)
            want_loss, want_grad = self._formula(x.data, target, np.ones((), x.data.dtype))
        assert x.data.dtype == (np.float64 if shadow else np.float32)
        assert loss.data.tobytes() == want_loss.tobytes()
        assert x.grad.tobytes() == want_grad.tobytes()


class TestStructuralOps:
    def test_bilinear_scores_hand_value(self):
        q = Tensor(np.array([[1.0, 2.0]], np.float32))
        k = Tensor(np.array([[[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]], np.float32))
        np.testing.assert_allclose(ops.bilinear_scores(q, k).data, [[1.0, 2.0, 3.0]], rtol=1e-6)


def _gradcheck_registry(rng):
    """One entry per differentiable op: returns (loss builder, leaf arrays)."""

    def conv_case(k=3, stride=2, padding=1, size=5):
        def make():
            x = rng.normal(size=(2, 2, size, size))
            w = rng.normal(size=(3, 2, k, k))
            b = rng.normal(size=(3,))
            out = (size + 2 * padding - k) // stride + 1
            r = rng.normal(size=(2, 3, out, out))
            return lambda x_, w_, b_: project(ops.conv2d(x_, w_, b_, stride, padding), r), [x, w, b]

        return make

    def bn_case():
        x = rng.normal(size=(3, 2, 3, 3))
        g = rng.normal(1.0, 0.3, size=(2,))
        b = rng.normal(size=(2,))
        r = rng.normal(size=(3, 2, 3, 3))

        def loss(x_, g_, b_):
            return project(ops.batch_norm2d(x_, g_, b_, *bn_stats(2)), r)

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

    def scores_case():
        q = rng.normal(size=(3, 4))
        k = rng.normal(size=(3, 2, 4))
        r = rng.normal(size=(3, 2))
        return lambda q_, k_: project(ops.bilinear_scores(q_, k_), r), [q, k]

    def canvas_case(coeffs):
        def make():
            t = BorderTemplate(7, 2, "normal", rng)
            alpha = [rng.normal(size=(3, 4, 3))] if coeffs else []
            r = rng.normal(size=(3 if coeffs else 2, 3, 7, 7))

            def loss(*leaves):
                for side, leaf in zip(SIDES, leaves):
                    setattr(t, side, leaf)
                return project(t.assemble(*leaves[4:], batch=2), r)

            return loss, [getattr(t, side).data for side in SIDES] + alpha

        return make

    def fuse_case(variants, per_channel=True):
        def make():
            gens = [StylePromptGenerator(f"s{i}", v, size=8, pad=2, depth=2,
                                         init="normal", seed=int(rng.integers(1 << 16)))
                    for i, v in enumerate(variants)]
            lows = [None if v in ("border", "full") else
                    rng.normal(size=(2, 4, 3) if v == "a_border" else (2, 3, 1, 1))
                    for v in variants]
            supports = [gen.support(low) for gen, low in zip(gens, lows)]
            norms = collect_prompts(gens, supports, 2, per_channel)[1]
            r = rng.normal(size=(2, 3, 8, 8))
            w = rng.normal(size=(2, len(variants)))
            return lambda w_: project(fuse_prompts(w_, gens, supports, norms), r), [w]

        return make

    def add_case():
        a = rng.normal(size=(2, 3, 4))
        b = rng.normal(size=(2, 3, 4))
        r = rng.normal(size=(2, 3, 4))
        return lambda a_, b_: project(add(a_, b_), r), [a, b]

    def full_case(pixel_map):
        def make():
            t = FullTemplate(7, "normal", rng)
            m = [rng.normal(size=(3, 3, 7, 7))] if pixel_map else []
            r = rng.normal(size=(3, 3, 7, 7))

            def loss(canvas, *leaves):
                t.canvas = canvas
                return project(t.assemble(*leaves, batch=3), r)

            return loss, [t.canvas.data] + m

        return make

    def reshape_case():
        x = rng.normal(size=(2, 6))
        r = rng.normal(size=(3, 4))
        return lambda x_: project(reshape(x_, (3, 4)), r), [x]

    return {
        "conv2d": conv_case(),
        "conv2d_k5_s2_p2": conv_case(5, 2, 2, 7),
        "conv2d_k3_s1_p1": conv_case(3, 1, 1, 5),
        "batch_norm2d": bn_case,
        "relu": act_case(ops.relu),
        "tanh": act_case(ops.tanh),
        "softmax": softmax_case,
        "linear": linear_case,
        "adaptive_avg_pool_to_1": pool_case,
        "bilinear_upsample": upsample_case,
        "cross_entropy": ce_case,
        "border_canvas": canvas_case(coeffs=False),
        "border_canvas_coeffs": canvas_case(coeffs=True),
        "bilinear_scores": scores_case,
        "fuse_prompts_border": fuse_case(["border", "border"]),
        "fuse_prompts_border_coeffs": fuse_case(["a_border", "a_border", "border"]),
        "fuse_prompts_full_map": fuse_case(["a_full", "full"]),
        "fuse_prompts_per_sample": fuse_case(["a_border", "a_full"], per_channel=False),
        "add": add_case,
        "full_canvas": full_case(pixel_map=False),
        "full_canvas_map": full_case(pixel_map=True),
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
        h = ops.batch_norm2d(h, gamma, beta, *bn_stats(3))
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
