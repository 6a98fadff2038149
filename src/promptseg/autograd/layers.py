"""Thin layer containers: parameters plus a forward call.

Initialization follows Kaiming-normal fan-in scaling for convolutions
(std = sqrt(2 / fan_in), zero biases) and 1/sqrt(fan_in) for linear maps.
Every initializer takes an explicit numpy Generator so construction is
reproducible from a seed.

A module names its state in a ``tensors()`` table, which is also the
checkpoint layout.  Its trainable parameters are the ``Tensor`` entries of
that table; batch-norm running statistics are plain arrays and fall outside.
"""

import numpy as np

from . import ops
from .tensor import Tensor


class Conv2d:
    def __init__(self, c_in, c_out, kernel, rng, stride=1, padding=0):
        std = np.sqrt(2.0 / (c_in * kernel * kernel))
        self.weight = Tensor(rng.normal(0.0, std, (c_out, c_in, kernel, kernel)), requires_grad=True)
        self.bias = Tensor(np.zeros(c_out), requires_grad=True)
        self.stride = stride
        self.padding = padding

    def __call__(self, x):
        return ops.conv2d(x, self.weight, self.bias, self.stride, self.padding)

    def tensors(self, prefix):
        return {f"{prefix}.weight": self.weight, f"{prefix}.bias": self.bias}


class BatchNorm2d:
    def __init__(self, channels):
        self.gamma = Tensor(np.ones(channels), requires_grad=True)
        self.beta = Tensor(np.zeros(channels), requires_grad=True)
        self.state = ops.BnState(channels)

    def __call__(self, x, training):
        return ops.batch_norm2d(x, self.gamma, self.beta, self.state, training)

    def tensors(self, prefix):
        return {
            f"{prefix}.gamma": self.gamma,
            f"{prefix}.beta": self.beta,
            f"{prefix}.running_mean": self.state.running_mean,
            f"{prefix}.running_var": self.state.running_var,
        }


class Linear:
    def __init__(self, d_in, d_out, rng):
        std = 1.0 / np.sqrt(d_in)
        self.weight = Tensor(rng.normal(0.0, std, (d_in, d_out)), requires_grad=True)
        self.bias = Tensor(np.zeros(d_out), requires_grad=True)

    def __call__(self, x):
        return ops.linear(x, self.weight, self.bias)

    def tensors(self, prefix):
        return {f"{prefix}.weight": self.weight, f"{prefix}.bias": self.bias}


def parameters(tensors):
    """The ``Tensor`` entries of a name->Tensor/array table, in table order."""
    return [t for t in tensors.values() if isinstance(t, Tensor)]


def freeze(tensors):
    """Take a module's parameters off every tape: gradients stop at them."""
    for t in parameters(tensors):
        t.requires_grad = False


def conv_bn_stages(widths, kernel, rng):
    """Stride-2 conv-BN pairs from RGB through ``widths``, padded to halve H and W."""
    stages, c_in = [], 3
    for c_out in widths:
        conv = Conv2d(c_in, c_out, kernel, rng, stride=2, padding=kernel // 2)
        stages.append((conv, BatchNorm2d(c_out)))
        c_in = c_out
    return stages


def run_stages(stages, x, training):
    """relu(bn(conv(x))) through every stage."""
    for conv, bn in stages:
        x = ops.relu(bn(conv(x), training))
    return x


def stage_tensors(stages):
    """The stages' tensors named ``stage{i}.conv.*`` and ``stage{i}.bn.*``."""
    out = {}
    for i, (conv, bn) in enumerate(stages):
        out.update(conv.tensors(f"stage{i}.conv"))
        out.update(bn.tensors(f"stage{i}.bn"))
    return out


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
