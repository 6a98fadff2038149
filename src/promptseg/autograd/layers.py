"""Thin layer containers: parameters plus a forward call.

Initialization follows Kaiming-normal fan-in scaling for convolutions
(std = sqrt(2 / fan_in), zero biases) and 1/sqrt(fan_in) for linear maps.
Every initializer takes an explicit numpy Generator so construction is
reproducible from a seed.

Every model is a ``Module``, and one rule names its state: ``tensors()``
walks the module's attributes in assignment order.  A ``Tensor`` or array
is named by itself, a sub-module prefixes its own table with ``name.``, and
a list of modules numbers its items ``name0.``, ``name1.`` and so on;
nothing else is state.  That table is the checkpoint layout and what the
seal fingerprints hash (``fingerprint()``).  Its trainable parameters are the ``Tensor``
entries; batch-norm running statistics are plain arrays and fall outside.
A conv and its batch norm run as one pair, ``conv_bn``, whose eval mode
folds the norm into the conv: it is for inference, with no parameter gradients.
"""

import hashlib

import numpy as np

from . import ops
from .tensor import Tensor, active_tape, current_dtype


class Module:
    def tensors(self, prefix=""):
        """Every state tensor and array, named by the attribute path to it."""
        out = {}
        for name, value in vars(self).items():
            if isinstance(value, (Tensor, np.ndarray)):
                out[prefix + name] = value
            elif isinstance(value, Module):
                out.update(value.tensors(f"{prefix}{name}."))
            elif isinstance(value, list):
                for i, item in enumerate(value):
                    out.update(item.tensors(f"{prefix}{name}{i}."))
        return out

    def fingerprint(self):
        """The hash of ``tensors()`` (``fingerprint_tensors``)."""
        return fingerprint_tensors(self.tensors())


def fingerprint_tensors(tensors) -> int:
    """64-bit content hash over named arrays (names, shapes, and bytes)."""
    h = hashlib.blake2b(digest_size=8)
    for name in sorted(tensors):
        arr = tensors[name]
        data = arr.data if isinstance(arr, Tensor) else arr
        a = np.ascontiguousarray(data, dtype="<f4")
        h.update(name.encode())
        h.update(repr(a.shape).encode())
        h.update(a.tobytes())
    return int.from_bytes(h.digest(), "little")


class Conv2d(Module):
    def __init__(self, c_in, c_out, kernel, rng, stride=1, padding=0):
        std = np.sqrt(2.0 / (c_in * kernel * kernel))
        self.weight = Tensor(rng.normal(0.0, std, (c_out, c_in, kernel, kernel)), requires_grad=True)
        self.bias = Tensor(np.zeros(c_out), requires_grad=True)
        self.stride = stride
        self.padding = padding

    def __call__(self, x):
        return ops.conv2d(x, self.weight, self.bias, self.stride, self.padding)


class BatchNorm2d(Module):
    def __init__(self, channels):
        self.gamma = Tensor(np.ones(channels), requires_grad=True)
        self.beta = Tensor(np.zeros(channels), requires_grad=True)
        self.running_mean = np.zeros(channels, dtype=current_dtype())
        self.running_var = np.ones(channels, dtype=current_dtype())


def conv_bn(conv, bn, x, training):
    """bn(conv(x)).  Training mode normalizes with batch statistics and
    updates the running ones.  Eval mode is one conv with weight w*s and bias
    (b - mean)*s + beta, s = gamma / sqrt(var + eps), folded from the live
    weights on every call; it gives no parameter gradients, so it refuses a
    recording tape while a parameter of the pair is trainable."""
    if training:
        return ops.batch_norm2d(conv(x), bn.gamma, bn.beta, bn.running_mean, bn.running_var)
    params = (conv.weight, conv.bias, bn.gamma, bn.beta)
    if active_tape() is not None and any(t.requires_grad for t in params):
        raise RuntimeError("eval-mode conv_bn gives no parameter gradients; freeze the pair")
    s = bn.gamma.data / np.sqrt(bn.running_var + ops.BN_EPS)
    weight = Tensor._raw(conv.weight.data * s[:, None, None, None])
    bias = Tensor._raw((conv.bias.data - bn.running_mean) * s + bn.beta.data)
    return ops.conv2d(x, weight, bias, conv.stride, conv.padding)


class Linear(Module):
    def __init__(self, d_in, d_out, rng):
        std = 1.0 / np.sqrt(d_in)
        self.weight = Tensor(rng.normal(0.0, std, (d_in, d_out)), requires_grad=True)
        self.bias = Tensor(np.zeros(d_out), requires_grad=True)

    def __call__(self, x):
        return ops.linear(x, self.weight, self.bias)


def parameters(tensors):
    """The ``Tensor`` entries of a name->Tensor/array table, in table order."""
    return [t for t in tensors.values() if isinstance(t, Tensor)]


def freeze(tensors):
    """Take a module's parameters off every tape: gradients stop at them."""
    for t in parameters(tensors):
        t.requires_grad = False


class ConvBn(Module):
    """relu(bn(conv(x))) with a stride-2 conv, padded to halve H and W."""

    def __init__(self, c_in, c_out, kernel, rng):
        self.conv = Conv2d(c_in, c_out, kernel, rng, stride=2, padding=kernel // 2)
        self.bn = BatchNorm2d(c_out)

    def __call__(self, x, training):
        return ops.relu(conv_bn(self.conv, self.bn, x, training))


def conv_bn_stages(widths, kernel, rng):
    """``ConvBn`` stages from RGB through ``widths``."""
    return [ConvBn(c_in, c_out, kernel, rng)
            for c_in, c_out in zip((3,) + tuple(widths), widths)]


def run_stages(stages, x, training):
    """``x`` through every stage in turn."""
    for stage in stages:
        x = stage(x, training)
    return x


def tensor_arrays(tensors):
    """Map a name->Tensor/array dict to plain f32 arrays (for serialization)."""
    out = {}
    for name, t in tensors.items():
        arr = t.data if isinstance(t, Tensor) else t
        out[name] = np.asarray(arr, dtype=np.float32)
    return out


def load_tensor_arrays(tensors, arrays):
    """Copy named f32 arrays back into a name->Tensor/array dict, in place."""
    for name, t in tensors.items():
        if name not in arrays:
            raise KeyError(f"missing tensor {name!r}")
        src = arrays[name]
        dst = t.data if isinstance(t, Tensor) else t
        if src.shape != dst.shape:
            raise ValueError(f"tensor {name!r} shape {src.shape} != expected {dst.shape}")
        dst[...] = src.astype(dst.dtype)
