"""Differentiable network ops built on the tape in ``tensor``.

Convolution is lowered to one BLAS matmul (im2col): a strided sliding-window
view of the padded input, transposed to (B, OH, OW, C, k, k) and reshaped,
gives the column matrix in a single copy.  Its backward scatters column
gradients back with k*k strided slice additions in a fixed loop order, so
results are bit-reproducible on repeated runs.  Bilinear upsampling is a pair
of precomputed interpolation matrices applied as batched matmuls.
"""

from functools import lru_cache

import numpy as np

from .tensor import (
    DegenerateBatchError,
    ShapeError,
    Tensor,
    apply_op,
    guard_finite,
)


def _as_tensor(x, name):
    if not isinstance(x, Tensor):
        raise TypeError(f"{name} must be a Tensor")
    return x


# ---------------------------------------------------------------------------
# convolution

def _col2im(dcols, xp_shape, k, stride, out_h, out_w):
    dxp = np.zeros(xp_shape, dtype=dcols.dtype)
    for ki in range(k):
        for kj in range(k):
            dxp[:, :, ki : ki + stride * out_h : stride,
                kj : kj + stride * out_w : stride] += dcols[:, :, ki, kj]
    return dxp


def conv2d(x, weight, bias, stride=1, padding=0):
    """2-D convolution, NCHW input, OIHW weight, square kernel.

    Output spatial size is floor((H + 2*padding - k) / stride) + 1.
    """
    _as_tensor(x, "x"), _as_tensor(weight, "weight"), _as_tensor(bias, "bias")
    if x.ndim != 4:
        raise ShapeError(f"conv2d input must be 4-D NCHW, got {x.shape}")
    if weight.ndim != 4 or weight.shape[2] != weight.shape[3]:
        raise ShapeError(f"conv2d weight must be (out, in, k, k), got {weight.shape}")
    b, c_in, h, w = x.shape
    c_out, c_in_w, k, _ = weight.shape
    if c_in != c_in_w:
        raise ShapeError(f"conv2d channel mismatch: input {c_in}, weight {c_in_w}")
    if bias.shape != (c_out,):
        raise ShapeError(f"conv2d bias must be ({c_out},), got {bias.shape}")
    if stride < 1 or padding < 0:
        raise ShapeError("conv2d needs stride >= 1 and padding >= 0")
    out_h = (h + 2 * padding - k) // stride + 1
    out_w = (w + 2 * padding - k) // stride + 1
    if out_h < 1 or out_w < 1 or h + 2 * padding < k:
        raise ShapeError(f"conv2d kernel {k} does not fit input {h}x{w} with padding {padding}")

    if padding:
        xp = np.pad(x.data, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    else:
        xp = x.data
    # rows: every output position, columns: the receptive field.  The window
    # view is strided over xp itself; the reshape is the only copy.
    windows = np.lib.stride_tricks.sliding_window_view(xp, (k, k), axis=(2, 3))
    windows = windows[:, :, ::stride, ::stride].transpose(0, 2, 3, 1, 4, 5)
    cols = windows.reshape(b * out_h * out_w, c_in * k * k)
    wmat = weight.data.reshape(c_out, -1)
    out = cols @ wmat.T
    if not weight.requires_grad:
        cols = None  # only the weight gradient reads the columns
    out += bias.data
    out = np.ascontiguousarray(out.reshape(b, out_h, out_w, c_out).transpose(0, 3, 1, 2))

    def backward_fn(g):
        g2 = g.transpose(0, 2, 3, 1).reshape(-1, c_out)
        gw = (g2.T @ cols).reshape(weight.shape) if weight.requires_grad else None
        gb = g2.sum(axis=0) if bias.requires_grad else None
        gx = None
        if x.requires_grad:
            dcols = (g2 @ wmat).reshape(b, out_h, out_w, c_in, k, k).transpose(0, 3, 4, 5, 1, 2)
            dxp = _col2im(np.ascontiguousarray(dcols), xp.shape, k, stride, out_h, out_w)
            gx = dxp[:, :, padding : padding + h, padding : padding + w] if padding else dxp
        return gx, gw, gb

    return apply_op("conv2d", out, (x, weight, bias), backward_fn)


# ---------------------------------------------------------------------------
# batch norm

BN_MOMENTUM = 0.1
BN_EPS = 1e-5


def batch_norm2d(x, gamma, beta, running_mean, running_var, training):
    """Per-channel batch norm over (B, H, W).

    Train mode normalizes with biased batch statistics and updates the
    running arrays in place with momentum (unbiased variance, the usual
    convention).  Eval mode uses the running statistics and mutates nothing.
    """
    _as_tensor(x, "x")
    if x.ndim != 4:
        raise ShapeError(f"batch_norm2d input must be 4-D NCHW, got {x.shape}")
    b, c, h, w = x.shape
    if gamma.shape != (c,) or beta.shape != (c,):
        raise ShapeError(f"batch_norm2d affine params must be ({c},)")
    if training:
        n = b * h * w
        if n < 2:
            raise DegenerateBatchError(
                f"batch_norm2d train mode needs at least 2 values per channel, got {n}"
            )
        mean = x.data.mean(axis=(0, 2, 3))
        var = x.data.var(axis=(0, 2, 3))
        inv = 1.0 / np.sqrt(var + BN_EPS)
        xhat = (x.data - mean[:, None, None]) * inv[:, None, None]
        m = BN_MOMENTUM
        running_mean += m * (mean.astype(running_mean.dtype) - running_mean)
        unbiased = var * (n / (n - 1))
        running_var += m * (unbiased.astype(running_var.dtype) - running_var)
    else:
        inv = 1.0 / np.sqrt(running_var + BN_EPS)
        inv = inv.astype(x.data.dtype)
        xhat = (x.data - running_mean.astype(x.data.dtype)[:, None, None]) * inv[:, None, None]
    out = gamma.data[:, None, None] * xhat + beta.data[:, None, None]

    def backward_fn(g):
        ggamma = (g * xhat).sum(axis=(0, 2, 3)) if gamma.requires_grad else None
        gbeta = g.sum(axis=(0, 2, 3)) if beta.requires_grad else None
        gx = None
        if x.requires_grad:
            if training:
                n = b * h * w
                gsum = g.sum(axis=(0, 2, 3))
                gxhat = (g * xhat).sum(axis=(0, 2, 3))
                gx = (gamma.data * inv / n)[:, None, None] * (
                    n * g - gsum[:, None, None] - xhat * gxhat[:, None, None]
                )
            else:
                gx = g * (gamma.data * inv)[:, None, None]
        return gx, ggamma, gbeta

    return apply_op("batch_norm2d", out, (x, gamma, beta), backward_fn)


# ---------------------------------------------------------------------------
# activations

def relu(x):
    _as_tensor(x, "x")
    mask = x.data > 0

    def backward_fn(g):
        return (g * mask,)

    return apply_op("relu", x.data * mask, (x,), backward_fn)


def tanh(x):
    _as_tensor(x, "x")
    out = np.tanh(x.data)

    def backward_fn(g):
        return (g * (1.0 - out * out),)

    return apply_op("tanh", out, (x,), backward_fn)


def softmax(x, axis=-1):
    _as_tensor(x, "x")
    z = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(z)
    out = e / e.sum(axis=axis, keepdims=True)

    def backward_fn(g):
        dot = (g * out).sum(axis=axis, keepdims=True)
        return (out * (g - dot),)

    return apply_op("softmax", out, (x,), backward_fn)


# ---------------------------------------------------------------------------
# linear algebra

def linear(x, weight, bias):
    """Affine map of row vectors: (B, D_in) @ (D_in, D_out) + (D_out,)."""
    _as_tensor(x, "x")
    if x.ndim != 2 or weight.ndim != 2 or x.shape[1] != weight.shape[0]:
        raise ShapeError(f"linear mismatch: x {x.shape}, weight {weight.shape}")
    if bias.shape != (weight.shape[1],):
        raise ShapeError(f"linear bias must be ({weight.shape[1]},), got {bias.shape}")
    out = x.data @ weight.data + bias.data

    def backward_fn(g):
        gx = g @ weight.data.T if x.requires_grad else None
        gw = x.data.T @ g if weight.requires_grad else None
        gb = g.sum(axis=0) if bias.requires_grad else None
        return gx, gw, gb

    return apply_op("linear", out, (x, weight, bias), backward_fn)


def adaptive_avg_pool_to_1(x):
    """Mean over the spatial grid: (B, C, H, W) -> (B, C, 1, 1)."""
    _as_tensor(x, "x")
    if x.ndim != 4:
        raise ShapeError(f"adaptive_avg_pool_to_1 input must be 4-D, got {x.shape}")
    b, c, h, w = x.shape
    out = x.data.mean(axis=(2, 3), keepdims=True)

    def backward_fn(g):
        return (np.broadcast_to(g / (h * w), x.shape).copy(),)

    return apply_op("adaptive_avg_pool_to_1", out, (x,), backward_fn)


@lru_cache(maxsize=64)
def _interp_matrix(n_in, n_out):
    """Row-stochastic 1-D bilinear interpolation matrix (half-pixel centers)."""
    m = np.zeros((n_out, n_in), dtype=np.float64)
    scale = n_in / n_out
    for i in range(n_out):
        src = (i + 0.5) * scale - 0.5
        src = min(max(src, 0.0), n_in - 1.0)
        i0 = int(np.floor(src))
        i1 = min(i0 + 1, n_in - 1)
        f = src - i0
        m[i, i0] += 1.0 - f
        m[i, i1] += f
    return m


def bilinear_upsample(x, out_h, out_w):
    """Bilinear resize of (B, C, h, w) up to (B, C, out_h, out_w)."""
    _as_tensor(x, "x")
    if x.ndim != 4:
        raise ShapeError(f"bilinear_upsample input must be 4-D, got {x.shape}")
    b, c, h, w = x.shape
    if out_h < h or out_w < w:
        raise ShapeError(f"bilinear_upsample only enlarges: {h}x{w} -> {out_h}x{out_w}")
    mh = _interp_matrix(h, out_h).astype(x.data.dtype)
    mw = _interp_matrix(w, out_w).astype(x.data.dtype)
    flat = x.data.reshape(b * c, h, w)
    out = (mh[None] @ flat @ mw.T[None]).reshape(b, c, out_h, out_w)

    def backward_fn(g):
        gflat = g.reshape(b * c, out_h, out_w)
        gx = (mh.T[None] @ gflat @ mw[None]).reshape(b, c, h, w)
        return (gx,)

    return apply_op("bilinear_upsample", out, (x,), backward_fn)


# ---------------------------------------------------------------------------
# normalization and losses

def l2_normalize(x, axes, eps=1e-8):
    """Plain array ``x`` scaled to unit L2 norm over ``axes``: (2, 3) for each
    (b, c) plane of (B, C, H, W), (1, 2, 3) for each sample.  Prompts are
    normalized as constants, so nothing here is recorded on a tape."""
    norms = np.sqrt((x * x).sum(axis=axes, keepdims=True))
    out = x / np.maximum(norms, eps)
    guard_finite(out, "l2_normalize")
    return out


def cross_entropy(logits, target):
    """Mean cross-entropy of (B, K, H, W) raw logits against (B, H, W) integer targets."""
    _as_tensor(logits, "logits")
    target = np.asarray(target)
    if not np.issubdtype(target.dtype, np.integer):
        raise TypeError("cross_entropy target must be an integer array")
    if logits.ndim != 4:
        raise ShapeError(f"cross_entropy logits must be 4-D, got {logits.shape}")
    b, k, h, w = logits.shape
    if target.shape != (b, h, w):
        raise ShapeError(f"target shape {target.shape} does not match logits {logits.shape}")
    x3 = logits.data.reshape(b, k, h * w)
    t2 = target.reshape(b, 1, h * w)
    if t2.min() < 0 or t2.max() >= k:
        raise ValueError(f"cross_entropy target out of range for {k} classes")
    n = b * h * w

    m = x3.max(axis=1, keepdims=True)
    z = x3 - m
    lse = np.log(np.exp(z).sum(axis=1)) + m[:, 0]
    picked = np.take_along_axis(x3, t2, axis=1)[:, 0]
    loss = np.asarray((lse - picked).sum() / n)

    def backward_fn(g):
        p = np.exp(z - np.log(np.exp(z).sum(axis=1, keepdims=True)))
        np.put_along_axis(p, t2, np.take_along_axis(p, t2, axis=1) - 1.0, axis=1)
        p *= g.reshape(()) / n
        return (p.reshape(logits.shape),)

    return apply_op("cross_entropy", loss, (logits,), backward_fn)


# ---------------------------------------------------------------------------
# prompt-specific structural ops

def embed2d(x, out_h, out_w, row, col):
    """Paste (B, C, h, w) into a zero canvas of (B, C, out_h, out_w) at (row, col)."""
    _as_tensor(x, "x")
    if x.ndim != 4:
        raise ShapeError(f"embed2d input must be 4-D, got {x.shape}")
    b, c, h, w = x.shape
    if row < 0 or col < 0 or row + h > out_h or col + w > out_w:
        raise ShapeError(
            f"embed2d block {h}x{w} at ({row}, {col}) exceeds canvas {out_h}x{out_w}"
        )
    out = np.zeros((b, c, out_h, out_w), dtype=x.data.dtype)
    out[:, :, row : row + h, col : col + w] = x.data

    def backward_fn(g):
        return (np.ascontiguousarray(g[:, :, row : row + h, col : col + w]),)

    return apply_op("embed2d", out, (x,), backward_fn)


def slice_axis1(x, start, stop):
    """Take ``x[:, start:stop]``; the gradient zero-pads the dropped slots."""
    _as_tensor(x, "x")
    if x.ndim < 2:
        raise ShapeError(f"slice_axis1 input must be at least 2-D, got {x.shape}")
    if not 0 <= start < stop <= x.shape[1]:
        raise ShapeError(f"slice_axis1 range [{start}, {stop}) invalid for axis of {x.shape[1]}")
    out = np.ascontiguousarray(x.data[:, start:stop])

    def backward_fn(g):
        gx = np.zeros_like(x.data)
        gx[:, start:stop] = g
        return (gx,)

    return apply_op("slice_axis1", out, (x,), backward_fn)


def bilinear_scores(q, keys):
    """Row-wise dot products: (B, d) x (B, n, d) -> (B, n)."""
    _as_tensor(q, "q"), _as_tensor(keys, "keys")
    if q.ndim != 2 or keys.ndim != 3 or q.shape[0] != keys.shape[0] or q.shape[1] != keys.shape[2]:
        raise ShapeError(f"bilinear_scores mismatch: q {q.shape}, keys {keys.shape}")
    out = np.einsum("bd,bnd->bn", q.data, keys.data)

    def backward_fn(g):
        gq = np.einsum("bn,bnd->bd", g, keys.data) if q.requires_grad else None
        gk = np.einsum("bn,bd->bnd", g, q.data) if keys.requires_grad else None
        return gq, gk

    return apply_op("bilinear_scores", out, (q, keys), backward_fn)


def weighted_sum(weights, stack):
    """Blend a constant prompt stack (B, n, C, H, W) with weights (B, n).

    The stack is plain data by design: gradients flow only into the weights.
    """
    _as_tensor(weights, "weights")
    stack = np.asarray(stack)
    if weights.ndim != 2 or stack.ndim != 5 or stack.shape[:2] != weights.shape:
        raise ShapeError(f"weighted_sum mismatch: weights {weights.shape}, stack {stack.shape}")
    out = np.einsum("bn,bnchw->bchw", weights.data, stack)

    def backward_fn(g):
        return (np.einsum("bchw,bnchw->bn", g, stack),)

    return apply_op("weighted_sum", out, (weights,), backward_fn)
