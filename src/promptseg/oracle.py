"""The frozen segmentation model and its sealed handle.

The model is a small encoder-decoder CNN: three conv-bn-relu stages with
stride 2 (widths 16, 32, 64, 5x5 kernels), a 1x1 conv to class logits at 1/8
resolution, and bilinear upsampling back to the input size.  After
pretraining it is sealed behind ``OracleHandle``, whose surface is prediction
and input-gradient only: both take and return plain numpy arrays, so no
caller tape can reach through the boundary, and internal weights never
receive gradients.
"""

import numpy as np

from .autograd import Tape, Tensor, no_grad
from .autograd import ops
from .autograd.layers import (
    Conv2d,
    Module,
    conv_bn_stages,
    fingerprint_tensors,
    freeze,
    parameters,
    run_stages,
    tensor_arrays,
)
from .autograd.optim import AdamW, MultiStepLr
from .checkpoint import load_module, save_checkpoint
from .scenes import CHANNELS
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


def pretrain_oracle(model, samples, o):
    """Cross-entropy training of ``model`` on the base domain.

    ``o`` is the config section (iters, batch, lr, seed).  Returns the
    per-iteration losses.  A non-finite loss aborts immediately via the
    op-level finite guard.
    """
    opt = AdamW(parameters(model.tensors()))

    def step(_, xb, yb):
        with Tape() as tape:
            loss = ops.cross_entropy(model.forward(Tensor(xb), training=True), yb)
        tape.backward(loss)
        return loss.item()

    return fit(samples, step, opt, MultiStepLr(o.lr), stream(o.seed, "oracle-batches"),
               o.iters, o.batch, "oracle pretrain")


class OracleHandle:
    """Sealed model: exposes prediction and input-gradient, nothing else.

    Inputs and outputs are plain numpy arrays.  Internal parameters have
    requires_grad off, so backward passes reach the input only.  ``queries``
    counts the calls and images of each kind of query that reached the model.
    """

    def __init__(self, model: SegModel):
        freeze(model.tensors())
        self._model = model
        self._fingerprint = fingerprint_tensors(model.tensors())
        self.queries = {q: {"calls": 0, "images": 0} for q in ("predict", "input_grad")}

    @property
    def fingerprint(self) -> int:
        return self._fingerprint

    @property
    def class_count(self) -> int:
        return self._model.class_count

    def current_fingerprint(self) -> int:
        """Recompute from live weights; equals ``fingerprint`` while sealed."""
        return fingerprint_tensors(self._model.tensors())

    def _check_input(self, x, query):
        x = np.asarray(x, dtype=np.float32)
        if x.ndim != 4 or x.shape[1] != CHANNELS:
            raise ValueError(f"expected (B, {CHANNELS}, H, W) input, got {x.shape}")
        if x.shape[2] % 8 or x.shape[3] % 8:
            raise ValueError(f"spatial dims must be divisible by 8, got {x.shape[2]}x{x.shape[3]}")
        if not np.all(np.isfinite(x)):
            raise ValueError("input contains non-finite values")
        self.queries[query]["calls"] += 1
        self.queries[query]["images"] += x.shape[0]
        return x

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Eval-mode logits (B, K, H, W)."""
        x = self._check_input(x, "predict")
        with no_grad():
            return self._model.forward(Tensor(x), training=False).data

    def predict_mask(self, x: np.ndarray) -> np.ndarray:
        return self.predict(x).argmax(axis=1).astype(np.uint8)

    def input_grad(self, x: np.ndarray, target: np.ndarray):
        """Cross-entropy loss and its gradient with respect to the input only."""
        x = self._check_input(x, "input_grad")
        target = np.asarray(target)
        xt = Tensor(x, requires_grad=True)
        with Tape() as tape:
            logits = self._model.forward(xt, training=False)
            loss = ops.cross_entropy(logits, target)
        tape.backward(loss)
        return loss.item(), xt.grad


def save_oracle(path, model: SegModel):
    save_checkpoint(path, "ORCL", tensor_arrays(model.tensors()))


def load_oracle(path, model: SegModel):
    """Fill ``model``, built from the config, from an oracle checkpoint."""
    load_module(path, "ORCL", model)
