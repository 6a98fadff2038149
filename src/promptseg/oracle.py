"""The frozen segmentation model and its sealed handle.

The model is a small encoder-decoder CNN: three conv-bn-relu stages with
stride 2 (widths 16, 32, 64, 5x5 kernels), a 1x1 conv to class logits at 1/8
resolution, and bilinear upsampling back to the input size.  After
pretraining it is sealed behind ``OracleHandle``, whose surface is prediction
and input-gradient only: both take and return plain numpy arrays, so no
caller tape can reach through the boundary, and internal weights never
receive gradients.
"""

import hashlib

import numpy as np

from .autograd import Tape, Tensor, no_grad
from .autograd import ops
from .autograd.layers import (
    Conv2d,
    Module,
    conv_bn_stages,
    freeze,
    load_tensor_arrays,
    parameters,
    run_stages,
    tensor_arrays,
)
from .autograd.optim import AdamW, MultiStepLr
from .checkpoint import load_checkpoint, loader, save_checkpoint
from .seeding import stream
from .train import fit


class SegModel(Module):
    """Encoder-decoder segmentation network over (B, 3, H, W) with H, W % 8 == 0."""

    def __init__(self, class_count, rng, widths=(16, 32, 64), kernel=5):
        self.class_count = class_count
        self.widths = tuple(widths)
        self.kernel = kernel
        self.stage = conv_bn_stages(self.widths, kernel, rng)
        self.head = Conv2d(self.widths[-1], class_count, 1, rng)

    def forward(self, x, training=False):
        _, _, h_in, w_in = x.shape
        if h_in % 8 or w_in % 8:
            raise ValueError(f"spatial dims must be divisible by 8, got {h_in}x{w_in}")
        logits = self.head(run_stages(self.stage, x, training))
        return ops.bilinear_upsample(logits, h_in, w_in)

    def parameter_count(self):
        return sum(t.size for t in parameters(self.tensors()))


def pretrain_oracle(samples, iters, seed, batch_size=8, lr=5e-3,
                    widths=(16, 32, 64), kernel=5):
    """Cross-entropy training of a fresh SegModel on the base domain.

    Returns (model, per-iteration losses).  A non-finite loss aborts
    immediately via the op-level finite guard.
    """
    if not samples:
        raise ValueError("base domain is empty")
    model = SegModel(samples[0].class_count, stream(seed, "oracle-init"), widths, kernel)
    opt = AdamW(parameters(model.tensors()))

    def step(xb, yb):
        with Tape() as tape:
            loss = ops.cross_entropy(model.forward(Tensor(xb), training=True), yb)
        tape.backward(loss)
        return loss.item()

    losses = fit(samples, step, opt, MultiStepLr(lr), stream(seed, "oracle-batches"),
                 iters, batch_size, "oracle pretrain")
    return model, losses


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


class OracleHandle:
    """Sealed model: exposes prediction and input-gradient, nothing else.

    Inputs and outputs are plain numpy arrays.  Internal parameters have
    requires_grad off, so backward passes reach the input only.
    """

    def __init__(self, model: SegModel):
        freeze(model.tensors())
        self._model = model
        self._fingerprint = fingerprint_tensors(model.tensors())

    @property
    def fingerprint(self) -> int:
        return self._fingerprint

    @property
    def class_count(self) -> int:
        return self._model.class_count

    def current_fingerprint(self) -> int:
        """Recompute from live weights; equals ``fingerprint`` while sealed."""
        return fingerprint_tensors(self._model.tensors())

    def _check_input(self, x):
        x = np.asarray(x, dtype=np.float32)
        if x.ndim != 4 or x.shape[1] != 3:
            raise ValueError(f"expected (B, 3, H, W) input, got {x.shape}")
        if x.shape[2] % 8 or x.shape[3] % 8:
            raise ValueError(f"spatial dims must be divisible by 8, got {x.shape[2]}x{x.shape[3]}")
        if not np.all(np.isfinite(x)):
            raise ValueError("input contains non-finite values")
        return x

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Eval-mode logits (B, K, H, W)."""
        x = self._check_input(x)
        with no_grad():
            return self._model.forward(Tensor(x), training=False).data

    def predict_mask(self, x: np.ndarray) -> np.ndarray:
        return self.predict(x).argmax(axis=1).astype(np.uint8)

    def input_grad(self, x: np.ndarray, target: np.ndarray):
        """Cross-entropy loss and its gradient with respect to the input only."""
        x = self._check_input(x)
        target = np.asarray(target)
        xt = Tensor(x, requires_grad=True)
        with Tape() as tape:
            logits = self._model.forward(xt, training=False)
            loss = ops.cross_entropy(logits, target)
        tape.backward(loss)
        return loss.item(), xt.grad


def save_oracle(path, model: SegModel):
    save_checkpoint(path, "ORCL", tensor_arrays(model.tensors()))


@loader
def load_oracle(path) -> SegModel:
    _, arrays = load_checkpoint(path, expect_kind="ORCL")
    widths, kernel, k = _infer_arch(arrays)
    model = SegModel(k, stream(0, "load"), widths, kernel)
    if set(arrays) != set(model.tensors()):
        raise ValueError(f"records do not match a {len(widths)}-stage model")
    load_tensor_arrays(model.tensors(), arrays)
    return model


def _infer_arch(arrays):
    widths = []
    i = 0
    while f"stage{i}.conv.weight" in arrays:
        widths.append(arrays[f"stage{i}.conv.weight"].shape[0])
        i += 1
    kernel = arrays["stage0.conv.weight"].shape[2]
    k = arrays["head.weight"].shape[0]
    return tuple(widths), kernel, k
