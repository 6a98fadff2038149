import struct
import zlib

import numpy as np
import pytest

from promptseg.autograd import Tape, Tensor, shadow_precision
from promptseg.autograd.tensor import apply_op
from promptseg.checkpoint import save_checkpoint
from promptseg.scenes import CLASS_COUNT


def sum_all(a):
    """Scalar sum of a tensor: the loss the tape tests differentiate."""
    def backward_fn(g):
        return (np.full_like(a.data, g.reshape(())),)

    return apply_op("sum_all", a.data.sum(keepdims=False).reshape(()), (a,), backward_fn)


def scale(a, s):
    """``a`` times the constant ``s``."""
    s = float(s)

    def backward_fn(g):
        return (g * s,)

    return apply_op("scale", a.data * s, (a,), backward_fn)


def mul(a, b):
    """Elementwise product of two tensors of one shape."""
    assert a.shape == b.shape, (a.shape, b.shape)

    def backward_fn(g):
        return g * b.data, g * a.data

    return apply_op("mul", a.data * b.data, (a, b), backward_fn)


def vary_bn_state(bn, rng):
    """Give a ``BatchNorm2d`` non-trivial affine parameters and running
    statistics, in its own dtypes."""
    c = bn.gamma.shape[0]
    bn.gamma.data[...] = rng.normal(1.0, 0.3, c)
    bn.beta.data[...] = rng.normal(0.0, 0.5, c)
    bn.running_mean[...] = rng.normal(0.0, 0.5, c)
    bn.running_var[...] = rng.uniform(0.3, 2.0, c)


def conv_bn_reference(conv, bn, x):
    """Float64 conv (a loop over output positions) then batch norm on the
    running statistics: the unfolded eval-mode pair."""
    w, b = (np.asarray(t.data, np.float64) for t in (conv.weight, conv.bias))
    p, st, k = conv.padding, conv.stride, w.shape[2]
    xp = np.pad(np.asarray(x, np.float64), ((0, 0), (0, 0), (p, p), (p, p)))
    oh, ow = ((n + 2 * p - k) // st + 1 for n in x.shape[2:])
    out = np.empty((x.shape[0], w.shape[0], oh, ow))
    for i in range(oh):
        for j in range(ow):
            window = xp[:, :, i * st : i * st + k, j * st : j * st + k]
            out[:, :, i, j] = np.einsum("bchw,ochw->bo", window, w) + b
    mean, var, gamma, beta = (np.asarray(a, np.float64)[:, None, None] for a in (
        bn.running_mean, bn.running_var, bn.gamma.data, bn.beta.data))
    return (out - mean) / np.sqrt(var + 1e-5) * gamma + beta


def rel_err(analytic, numeric):
    analytic = np.asarray(analytic, dtype=np.float64)
    numeric = np.asarray(numeric, dtype=np.float64)
    denom = max(np.max(np.abs(numeric)), 1e-12)
    return np.max(np.abs(analytic - numeric)) / denom


def numeric_grad(fn, leaf, eps=1e-4, coords=None):
    """Central finite differences of scalar fn() w.r.t. leaf.data, in place.

    ``coords`` optionally restricts the sweep to a subset of flat indices.
    """
    flat = leaf.data.reshape(-1)
    grad = np.zeros_like(flat)
    idx = range(flat.size) if coords is None else coords
    for j in idx:
        saved = flat[j]
        flat[j] = saved + eps
        fp = fn()
        flat[j] = saved - eps
        fm = fn()
        flat[j] = saved
        grad[j] = (fp - fm) / (2.0 * eps)
    return grad.reshape(leaf.data.shape)


def check_gradients(make_loss, leaf_arrays, tol=1e-3, eps=1e-4, max_coords=None, rng=None):
    """Compare tape gradients of a scalar loss against finite differences.

    ``make_loss`` maps freshly wrapped leaves to a scalar Tensor; the check
    runs in float64 shadow precision so the FD oracle is clean.
    """
    with shadow_precision():
        leaves = [Tensor(np.asarray(a, dtype=np.float64), requires_grad=True) for a in leaf_arrays]
        with Tape() as tape:
            loss = make_loss(*leaves)
        tape.backward(loss)
        errs = []
        for leaf in leaves:
            assert leaf.grad is not None, "leaf did not receive a gradient"
            coords = None
            if max_coords is not None and leaf.data.size > max_coords:
                r = rng if rng is not None else np.random.default_rng(0)
                coords = sorted(r.choice(leaf.data.size, size=max_coords, replace=False).tolist())
            num = numeric_grad(lambda: make_loss(*leaves).item(), leaf, eps=eps, coords=coords)
            if coords is None:
                errs.append(rel_err(leaf.grad, num))
            else:
                flat_a = leaf.grad.reshape(-1)[coords]
                flat_n = num.reshape(-1)[coords]
                errs.append(rel_err(flat_a, flat_n))
        worst = max(errs)
        assert worst < tol, f"gradient mismatch: rel err {worst:.3e} >= {tol}"
        return worst


def sgwd_v1(samples) -> bytes:
    """``samples`` in the retired SGWD v1 domain layout: magic, version and
    count, then per sample H, W, K as u32, the f32 image and the u8 mask,
    then a CRC32 of everything before it."""
    parts = [b"SGWD", struct.pack("<II", 1, len(samples))]
    for s in samples:
        parts += [struct.pack("<III", *s.mask.shape, CLASS_COUNT),
                  s.image.astype("<f4").tobytes(), s.mask.astype(np.uint8).tobytes()]
    body = b"".join(parts)
    return body + struct.pack("<I", zlib.crc32(body))


def save_counted_domain(path, samples):
    """``samples`` saved as the DOMN table that also held one class count per
    sample, the layout before the world had one label space."""
    save_checkpoint(path, "DOMN", {
        "images": np.stack([s.image for s in samples]),
        "masks": np.stack([s.mask for s in samples], dtype=np.float32),
        "class_counts": np.full(len(samples), CLASS_COUNT, np.float32)})


def save_empty_domain(path, size=16):
    """A valid DOMN table of zero images, which no domain writer produces."""
    save_checkpoint(path, "DOMN", {"images": np.zeros((0, 3, size, size), np.float32),
                                   "masks": np.zeros((0, size, size), np.float32)})


def pretrained(samples, **kw):
    """A SegModel drawn from the oracle's init stream and pretrained on
    ``samples`` under ``OracleConfig(**kw)``: (model, losses)."""
    from promptseg.config import OracleConfig
    from promptseg.oracle import SegModel, pretrain_oracle
    from promptseg.seeding import stream

    o = OracleConfig(**kw)
    model = SegModel(6, stream(o.seed, "oracle-init"), o.widths, o.kernel)
    return model, pretrain_oracle(model, samples, o)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture(scope="session")
def base_world():
    """Reference base-style train/val scenes shared by oracle-dependent modules."""
    from promptseg.datasets import DomainSpec, make_domain
    from promptseg.scenes import SceneSpec

    train = make_domain(DomainSpec(name="base", scene=SceneSpec(seed=100), count=128))
    val = make_domain(DomainSpec(name="base_val", scene=SceneSpec(seed=101), count=16))
    return train, val


@pytest.fixture(scope="session")
def base_oracle(base_world):
    """Oracle pretrained once per session with the reference recipe."""
    from promptseg.oracle import OracleHandle

    train, _ = base_world
    model, losses = pretrained(train, iters=1500, seed=5)
    return model, OracleHandle(model), losses


def tiny_experiment(**kw):
    """A drastically shrunk experiment config for plumbing tests."""
    from promptseg.config import (
        ApfConfig,
        DataConfig,
        ExperimentConfig,
        OracleConfig,
        SpgConfig,
    )

    base = dict(
        data=DataConfig(size=16, base_train=10, base_val=3, styled_train=5,
                        styled_val=3, target_val=3),
        oracle=OracleConfig(iters=40, batch=4, widths=(8, 12, 16), kernel=3),
        spg=SpgConfig(iters=4, batch=4, pad=3, depth=4, meta_iters=4),
        apf=ApfConfig(iters=6, batch=4, embed_dim=8),
        seeds=(0,),
        out_dir="",
    )
    base.update(kw)
    return ExperimentConfig(**base).validate()
