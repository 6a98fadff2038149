"""Differentiable network ops built on the tape in ``tensor``.

Convolution is lowered to BLAS matmuls (im2col) in one of two column layouts,
chosen from the input's channel count (``conv2d`` states the rule).
Pixel-major columns hold one row per output pixel, one strided copy of the
zero-padded channels-last input, so the GEMM covers exactly the output cells.
Lattice columns, which narrow (RGB) inputs and 1x1 kernels keep, work on the
stride-phase lattice: tap (ki, kj) reads stride phase (ki % s, kj % s) of the
padded input shifted by (ki // s, kj // s), so a phase's taps are one strided
copy of its zero-tailed lattice (an unpadded 1x1 kernel's columns are its one
phase) and the output is cropped from the lattice.  The forward runs one
matmul per block of whole images whose columns fit ``COLUMN_BUDGET`` bytes, so
its peak memory does not grow with the batch.
The input gradient runs on the lattice in both layouts (an unpadded 1x1
kernel's writes its one phase's pixels directly): it adds each tap's row of
the column gradient back into its phase in a fixed loop order, so results are
bit-reproducible on repeated runs.
Batch norm is training-mode only: ``layers.conv_bn`` folds eval mode into
the conv.  Bilinear upsampling is a pair of precomputed interpolation
matrices applied as batched matmuls.
"""

from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .tensor import DegenerateBatchError, ShapeError, Tensor, apply_op


def _as_tensor(x, name):
    if not isinstance(x, Tensor):
        raise TypeError(f"{name} must be a Tensor")
    return x


# ---------------------------------------------------------------------------
# convolution

COLUMN_BUDGET = 8 << 20  # bytes of forward columns (and lattice or padded copy) per block of images
PIXEL_MAJOR_CHANNELS = 16  # inputs at least this wide take pixel-major columns (kernels above 1)


def _phases(x_shape, k, stride, padding, ah, aw):
    """[(a, c, lattice cells, input pixels)] per stride phase a tap reads: phase (a, c)
    is the padded input's rows a, a+s, ... and columns c, c+s, ... as a (C, B, ah, aw) lattice."""
    def spans(r0, size, cells):  # lattice cell t holds input row r0 + s*t
        t0, t1 = len(range(r0, 0, stride)), min(cells, len(range(r0, size, stride)))
        return slice(t0, t1), slice(r0 + stride * t0, r0 + stride * t1, stride)

    rows, cols = ([spans(a - padding, size, cells) for a in range(min(stride, k))]
                  for size, cells in ((x_shape[2], ah), (x_shape[3], aw)))
    return [(a, c, np.s_[:, :, ti, tj], np.s_[:, :, ri, rj])
            for a, (ti, ri) in enumerate(rows) for c, (tj, rj) in enumerate(cols)]


def _columns(x, k, stride, padding, ah, aw):
    """(C*k*k, B*ah*aw) columns of a (B, C, H, W) array, rows in the weight's (c, ki, kj) order:
    tap (ki, kj)'s row is the lattice of phase (ki % s, kj % s) shifted by (ki // s, kj // s)."""
    b, c_in = x.shape[:2]
    n = b * ah * aw
    xt = x.transpose(1, 0, 2, 3)
    if k == 1 and not padding:  # the input's one phase is its own lattice
        return xt[:, :, ::stride, ::stride].reshape(c_in, n)
    cols = np.empty((c_in, k, k, n), x.dtype)
    for a, c, cells, pixels in _phases(x.shape, k, stride, padding, ah, aw):
        # taps (a + s*i, c + s*j) read the phase's zero-tailed lattice from cell i*aw + j on
        p, q = len(range(a, k, stride)), len(range(c, k, stride))
        lattice = np.zeros((c_in, n + (p - 1) * aw + q - 1), x.dtype)
        lattice[:, :n].reshape(c_in, b, ah, aw)[cells] = xt[pixels]
        s0, s1 = lattice.strides
        cols[:, a::stride, c::stride] = as_strided(
            lattice, (c_in, p, q, n), (s0, aw * s1, s1, s1), writeable=False)
        del lattice  # one phase's lattice at a time
    return cols.reshape(c_in * k * k, n)


def _pixel_columns(x, k, stride, padding, oh, ow):
    """(B*oh*ow, k*k*C) columns of a (B, C, H, W) array, one row per output pixel,
    columns in (ki, kj, c) order: one copy of a strided view of the padded input."""
    b, c_in, h, w = x.shape
    xp = np.zeros((b, h + 2 * padding, w + 2 * padding, c_in), x.dtype)
    xp[:, padding : padding + h, padding : padding + w] = x.transpose(0, 2, 3, 1)
    s0, s1, s2, s3 = xp.strides
    windows = as_strided(xp, (b, oh, ow, k, k, c_in),
                         (s0, stride * s1, stride * s2, s1, s2, s3), writeable=False)
    return windows.reshape(b * oh * ow, k * k * c_in)


def conv2d(x, weight, bias, stride=1, padding=0):
    """2-D convolution, NCHW input, OIHW weight, square kernel.

    Output spatial size is floor((H + 2*padding - k) / stride) + 1.

    Inputs of at least ``PIXEL_MAJOR_CHANNELS`` channels under k > 1 take
    pixel-major columns (``_pixel_columns``); the rest keep the lattice
    (``_columns``), which computes (OH + ceil(k/s) - 1) x (OW + ceil(k/s) - 1)
    cells per image, yet on 3-channel inputs its long row copies, one strided
    copy per stride phase, measured faster than pixel-major runs of k*C floats.
    An unpadded 1x1 kernel's lattice columns are every s-th pixel, no copy at
    stride 1 on one image.  The weight gradient rebuilds the forward's
    columns; the input gradient runs on the lattice, except an unpadded 1x1
    kernel's, which writes every s-th pixel.

    The forward runs in blocks of whole images, as many as fit their columns
    (and the lattice or padded copy they are built from) into
    ``COLUMN_BUDGET`` bytes, one at least, each writing its output cells into
    the output.  The budget counts bytes because an image's columns grow with
    its channels, kernel and lattice.  Only the forward is blocked: inference
    batches grow with the request, while the batches a backward runs on (8
    in training) stay under it, so the backward builds whole-batch columns.
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

    # output (i, j) is lattice cell (i, j); the lattice adds the ceil(k/s) - 1
    # cells the last taps reach, and its other cells are computed and cropped
    ah, aw = out_h - 1 - (-k // stride), out_w - 1 - (-k // stride)
    n = b * ah * aw
    wmat = weight.data.reshape(c_out, -1)
    pixel = c_in >= PIXEL_MAJOR_CHANNELS and k > 1
    if pixel:  # an image's columns and its padded copy
        wpix = weight.data.transpose(2, 3, 1, 0).reshape(-1, c_out)
        image = wpix.shape[0] * out_h * out_w + c_in * (h + 2 * padding) * (w + 2 * padding)
    else:  # an image's columns and, for k > 1, one phase lattice at a time
        image = (wmat.shape[1] + c_in) * ah * aw
    per = max(1, COLUMN_BUDGET // (image * x.data.itemsize))
    out = None
    for i in range(0, max(b, 1), per):  # an empty batch runs one empty block
        block = x.data[i : i + per]
        if pixel:
            res = _pixel_columns(block, k, stride, padding, out_h, out_w) @ wpix
            res += bias.data
            res = res.reshape(len(block), out_h, out_w, c_out).transpose(0, 3, 1, 2)
        else:
            res = (wmat @ _columns(block, k, stride, padding, ah, aw)).reshape(c_out, len(block), ah, aw)
            res += bias.data[:, None, None, None]
            res = res[..., :out_h, :out_w].transpose(1, 0, 2, 3)
        if out is None:  # allocated once the first block's columns are freed
            out = np.empty((b, c_out, out_h, out_w), res.dtype)
        out[i : i + per] = res

    def backward_fn(g):
        gt = g.transpose(1, 0, 2, 3)
        if ah == out_h:  # k <= s: the lattice is the output grid, nothing was cropped
            glat = gt.reshape(c_out, n)
        else:
            glat = np.zeros((c_out, b, ah, aw), g.dtype)  # cropped cells get no gradient
            glat[:, :, :out_h, :out_w] = gt
            glat = glat.reshape(c_out, n)
        # the tape keeps no columns: the weight gradient rebuilds them
        gw = None
        if weight.requires_grad and pixel:
            gw = (gt.reshape(c_out, -1) @ _pixel_columns(x.data, k, stride, padding, out_h, out_w)
                  ).reshape(c_out, k, k, c_in).transpose(0, 3, 1, 2)
        elif weight.requires_grad:
            gw = (glat @ _columns(x.data, k, stride, padding, ah, aw).T).reshape(weight.shape)
        gb = gt.reshape(c_out, -1).sum(axis=1) if bias.requires_grad else None
        gx = None
        if x.requires_grad and k == 1 and not padding:  # the one tap's row is every s-th pixel
            gx = np.zeros(x.shape, glat.dtype)
            gx[:, :, ::stride, ::stride] = (wmat.T @ glat).reshape(c_in, b, ah, aw).transpose(1, 0, 2, 3)
        elif x.requires_grad:
            # each tap's row added back into its phase's lattice in a fixed
            # order, then each phase's cells copied to their pixels
            dcols = (wmat.T @ glat).reshape(c_in, k, k, n)
            phases = min(stride, k)  # the phases a tap reads
            lattices = np.zeros((phases, phases, c_in, n), dcols.dtype)
            for ki, kj in np.ndindex(k, k):
                off = (ki // stride) * aw + kj // stride
                lattices[ki % stride, kj % stride, :, off:] += dcols[:, ki, kj, : n - off]
            gx = np.zeros(x.shape, dcols.dtype)
            for a, c, cells, pixels in _phases(x.shape, k, stride, padding, ah, aw):
                gx.transpose(1, 0, 2, 3)[pixels] = lattices[a, c].reshape(c_in, b, ah, aw)[cells]
        return gx, gw, gb

    return apply_op("conv2d", out, (x, weight, bias), backward_fn)


# ---------------------------------------------------------------------------
# batch norm

BN_MOMENTUM = 0.1
BN_EPS = 1e-5


def batch_norm2d(x, gamma, beta, running_mean, running_var):
    """Training-mode batch norm per channel over (B, H, W): biased batch
    statistics, and the running arrays updated in place with momentum
    (unbiased variance, the usual convention).  With fixed statistics batch
    norm is an affine map, which ``layers.conv_bn`` folds into its conv."""
    _as_tensor(x, "x")
    if x.ndim != 4:
        raise ShapeError(f"batch_norm2d input must be 4-D NCHW, got {x.shape}")
    b, c, h, w = x.shape
    if gamma.shape != (c,) or beta.shape != (c,):
        raise ShapeError(f"batch_norm2d affine params must be ({c},)")
    n = b * h * w
    if n < 2:
        raise DegenerateBatchError(f"batch_norm2d needs at least 2 values per channel, got {n}")
    mean = x.data.mean(axis=(0, 2, 3))
    var = x.data.var(axis=(0, 2, 3))
    inv = 1.0 / np.sqrt(var + BN_EPS)
    xhat = (x.data - mean[:, None, None]) * inv[:, None, None]
    m = BN_MOMENTUM
    running_mean += m * (mean.astype(running_mean.dtype) - running_mean)
    unbiased = var * (n / (n - 1))
    running_var += m * (unbiased.astype(running_var.dtype) - running_var)
    out = gamma.data[:, None, None] * xhat + beta.data[:, None, None]

    def backward_fn(g):
        gsum = g.sum(axis=(0, 2, 3))  # the beta gradient
        gxhat = (g * xhat).sum(axis=(0, 2, 3))  # the gamma gradient
        gx = None
        if x.requires_grad:
            gx = (gamma.data * inv / n)[:, None, None] * (
                n * g - gsum[:, None, None] - xhat * gxhat[:, None, None])
        return gx, gxhat if gamma.requires_grad else None, gsum if beta.requires_grad else None

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

def l2_norms(x, axes, eps=1e-8):
    """L2 norms (at least ``eps``, kept dims) of plain array ``x`` over ``axes``,
    each reduced block whatever the others: fusion reduces a prompt's
    (B, C, pieces) piece norms over (2,) per channel or (1, 2) per sample.
    Prompts are normalized as constants: no tape."""
    return np.maximum(np.sqrt((x * x).sum(axis=axes, keepdims=True)), eps)


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
    log_s = np.log(np.exp(z).sum(axis=1))  # per-pixel normalizer, kept for the backward
    # flat index of each pixel's target logit in (b, k, h*w)
    at = (np.arange(b)[:, None] * k + t2[:, 0]) * (h * w) + np.arange(h * w)
    loss = np.asarray((log_s + m[:, 0] - np.take(x3, at)).sum() / n)

    def backward_fn(g):
        p = np.exp(z - log_s[:, None])
        p.reshape(-1)[at] -= 1.0
        p *= g.reshape(()) / n
        return (p.reshape(logits.shape),)

    return apply_op("cross_entropy", loss, (logits,), backward_fn)


# ---------------------------------------------------------------------------
# attention

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
