"""Per-style visual prompt generators.

Each style owns a generator built from a learnable template plus, in the
adaptive variants, a compact convolutional modulator that rescales the
template per input.  Training never opens the segmentation model: the only
gradient entering a generator is the input gradient handed back by the
sealed handle, chained into the local tape.

Variants:
  border    fixed border template, input-independent
  a_border  border template modulated per side and channel by the input
  full      fixed full-canvas template
  a_full    full-canvas template reweighted by an upsampled pixel map
"""

import dataclasses

import numpy as np

from .autograd import Tape, Tensor
from .autograd import ops
from .autograd.layers import (
    BatchNorm2d,
    Conv2d,
    Module,
    load_tensor_arrays,
    parameters,
    tensor_arrays,
)
from .autograd.optim import MultiStepLr, SgdMomentum
from .autograd.tensor import ShapeError, add, broadcast_to_batch, mul, reshape
from .checkpoint import load_checkpoint, loader, pack_tag, save_checkpoint, unpack_tag
from .seeding import mix_seed, stream
from .train import fit

VARIANTS = ("border", "a_border", "full", "a_full")
INIT_STRATEGIES = ("zero", "uniform", "normal", "meta")
SIDES = ("top", "bottom", "left", "right")


def _init_values(shape, strategy, rng):
    if strategy == "zero":
        return np.zeros(shape, np.float32)
    if strategy == "uniform":
        return rng.uniform(0.0, 1.0, shape).astype(np.float32)
    if strategy in ("normal", "meta"):  # meta starts from the normal draw
        return rng.normal(0.0, 0.1, shape).astype(np.float32)
    raise ValueError(f"unknown init strategy {strategy!r}")


class BorderTemplate(Module):
    """Four learnable edge strips, the attributes ``top``, ``bottom``, ``left``
    and ``right``; the assembled canvas has an exactly zero center.

    Top and bottom span the full width; left and right cover only the middle
    rows, so the corners belong to the horizontal strips.
    """

    def __init__(self, channels, height, width, pad, strategy, rng):
        if pad <= 0 or 2 * pad >= min(height, width):
            raise ShapeError(f"pad {pad} does not fit a {height}x{width} canvas")
        self.channels = channels
        self.height = height
        self.width = width
        self.pad = pad
        mid = height - 2 * pad
        for name, shape in zip(SIDES, [(pad, width)] * 2 + [(mid, pad)] * 2):
            values = _init_values((channels,) + shape, strategy, rng)
            setattr(self, name, Tensor(values, requires_grad=True))

    def _placements(self):
        h, w, p = self.height, self.width, self.pad
        return {"top": (0, 0), "bottom": (h - p, 0), "left": (p, 0), "right": (p, w - p)}

    def assemble(self, alpha=None, batch=1):
        """Canvas (B, C, H, W) from the four strips, optionally side/channel scaled.

        ``alpha`` is a (B, 4, C) tensor of raw modulation coefficients in side
        order top, bottom, left, right; None means the bare template.
        """
        if alpha is not None:
            if alpha.ndim != 3 or alpha.shape[1] != 4 or alpha.shape[2] != self.channels:
                raise ShapeError(f"alpha must be (B, 4, {self.channels}), got {alpha.shape}")
            batch = alpha.shape[0]
        canvas = None
        for i, name in enumerate(SIDES):
            strip = getattr(self, name)
            block = reshape(strip, (1,) + strip.shape)
            if alpha is None:
                block = broadcast_to_batch(block, batch)
            else:
                coeff = reshape(ops.slice_axis1(alpha, i, i + 1), (batch, self.channels, 1, 1))
                block = mul(block, coeff)
            row, col = self._placements()[name]
            piece = ops.embed2d(block, self.height, self.width, row, col)
            canvas = piece if canvas is None else add(canvas, piece)
        return canvas


class FullTemplate(Module):
    """A single learnable canvas covering the whole image."""

    def __init__(self, channels, height, width, strategy, rng):
        self.channels = channels
        self.height = height
        self.width = width
        self.canvas = Tensor(
            _init_values((channels, height, width), strategy, rng), requires_grad=True
        )

    def assemble(self, pixel_map=None, batch=1):
        """Canvas (B, C, H, W), optionally reweighted by a (B, C, H, W) pixel map."""
        canvas = reshape(self.canvas, (1,) + self.canvas.shape)
        if pixel_map is None:
            return broadcast_to_batch(canvas, batch)
        return mul(canvas, pixel_map)


class ModulatorBlock(Module):
    """Stride-2 residual block: Conv-BN-ReLU-Conv-BN plus a projection shortcut."""

    def __init__(self, c_in, c_out, rng):
        self.conv1 = Conv2d(c_in, c_out, 3, rng, stride=2, padding=1)
        self.bn1 = BatchNorm2d(c_out)
        self.conv2 = Conv2d(c_out, c_out, 3, rng, stride=1, padding=1)
        self.bn2 = BatchNorm2d(c_out)
        self.proj = Conv2d(c_in, c_out, 1, rng, stride=2, padding=0)
        self.proj_bn = BatchNorm2d(c_out)

    def __call__(self, x, training):
        main = self.bn2(self.conv2(ops.relu(self.bn1(self.conv1(x), training))), training)
        return ops.relu(add(main, self.proj_bn(self.proj(x), training)))


class ModulatorNetwork(Module):
    """Three stride-2 blocks (d, 2d, 4d channels) and a 1x1 head.

    mode "coeffs": head emits 4C channels, pooled to per-side per-channel
    coefficients (B, 4, C).  mode "map": head emits C channels, upsampled
    back to the input resolution for pixel-level reweighting.  Coefficients
    are raw linear outputs; no squashing is applied.  The pass is split in
    two, ``low_res`` then ``expand``, so that a caller can keep the small
    low-resolution result and skip the network on a batch it has seen.
    """

    def __init__(self, in_channels, out_channels, depth, mode, rng):
        if mode not in ("coeffs", "map"):
            raise ValueError(f"unknown modulator mode {mode!r}")
        self.mode = mode
        self.out_channels = out_channels
        widths = (depth, 2 * depth, 4 * depth)
        # one attribute, named ``block``, so the table reads block0., block1., ...
        self.block = [ModulatorBlock(c_in, c_out, rng)
                      for c_in, c_out in zip((in_channels,) + widths, widths)]
        head_out = 4 * out_channels if mode == "coeffs" else out_channels
        self.head = Conv2d(widths[-1], head_out, 1, rng)

    def backbone(self, x, training):
        """The 1/8-resolution feature map feeding the head."""
        for block in self.block:
            x = block(x, training)
        return x

    def low_res(self, x, training=False):
        """Everything below the input resolution: the (B, 4, C) coefficients
        in mode "coeffs", the (B, C, H/8, W/8) head map in mode "map"."""
        if x.ndim != 4:
            raise ShapeError(f"modulator input must be 4-D, got {x.shape}")
        b, _, h, w = x.shape
        if h % 8 or w % 8:
            raise ShapeError(f"modulator input dims must be divisible by 8, got {h}x{w}")
        feats = self.head(self.backbone(x, training))
        if self.mode == "coeffs":
            pooled = ops.adaptive_avg_pool_to_1(feats)
            return reshape(pooled, (b, 4, self.out_channels))
        return feats

    def expand(self, low, height, width):
        """``low_res``'s output at the input resolution: coefficients pass
        through, a map is upsampled to ``height`` x ``width``."""
        if self.mode == "coeffs":
            return low
        return ops.bilinear_upsample(low, height, width)


class StylePromptGenerator(Module):
    """One style's prompt generator: template, variant, and optional modulator."""

    def __init__(self, style, variant="a_border", channels=3, height=64, width=64,
                 pad=6, depth=8, init="normal", seed=0):
        if variant not in VARIANTS:
            raise ValueError(f"unknown variant {variant!r}")
        if init not in INIT_STRATEGIES:
            raise ValueError(f"unknown init strategy {init!r}")
        self.style = style
        self.variant = variant
        self.channels = channels
        self.height = height
        self.width = width
        self.pad = pad
        self.depth = depth
        self.init = init
        rng = stream(seed, "spg", style, variant)
        if variant in ("border", "a_border"):
            self.template = BorderTemplate(channels, height, width, pad, init, rng)
        else:
            self.template = FullTemplate(channels, height, width, init, rng)
        if variant == "a_border":
            self.modulator = ModulatorNetwork(channels, channels, depth, "coeffs", rng)
        elif variant == "a_full":
            self.modulator = ModulatorNetwork(channels, channels, depth, "map", rng)
        else:
            self.modulator = None

    def _check_input(self, x):
        if x.ndim != 4 or x.shape[1:] != (self.channels, self.height, self.width):
            raise ShapeError(
                f"generator expects (B, {self.channels}, {self.height}, {self.width}), "
                f"got {x.shape}"
            )

    def modulate(self, x, training=False):
        """The modulator's low-resolution output for a batch (see
        ``ModulatorNetwork.low_res``); None for the fixed variants."""
        if not isinstance(x, Tensor):
            x = Tensor(np.asarray(x, np.float32))
        self._check_input(x)
        return None if self.modulator is None else self.modulator.low_res(x, training)

    def prompt(self, low, batch):
        """The prompts of a batch of ``batch`` from its ``modulate`` output."""
        coeff = None if low is None else self.modulator.expand(low, self.height, self.width)
        return self.template.assemble(coeff, batch)

    def generate(self, x, training=False):
        """The style prompt for a batch, shaped like the batch itself."""
        return self.prompt(self.modulate(x, training), x.shape[0])


def attach_prompt(x, prompt):
    """x' = x + P.  No clamping: the attachment stays linear in the prompt."""
    if not isinstance(x, Tensor):
        x = Tensor(np.asarray(x, np.float32))
    if x.shape != prompt.shape:
        raise ShapeError(f"prompt shape {prompt.shape} does not match input {x.shape}")
    return add(x, prompt)


# milestone epochs {150, 180, 210} of a 240-epoch run, kept as fractions so
# the schedule shape survives any iteration budget
MILESTONE_FRACS = (150 / 240, 180 / 240, 210 / 240)
GAMMA = 0.1


def _spg_schedule(spg):
    milestones = tuple(sorted({int(f * spg.iters) for f in MILESTONE_FRACS}))
    return MultiStepLr(spg.lr, milestones, GAMMA)


def train_spg(gen, samples, oracle, spg, seed=0):
    """Optimize one generator against the sealed oracle on its stylized domain.

    ``spg`` is the config section (iters, batch, lr, momentum).  Per
    iteration: batch, generate, attach, ask the oracle for the input
    gradient, chain it into the local tape, momentum step.  Returns the
    per-iteration loss curve.
    """
    opt = SgdMomentum(parameters(gen.tensors()), spg.momentum)

    def step(xb, yb):
        with Tape() as tape:
            prompted = attach_prompt(xb, gen.generate(xb, training=True))
        loss, grad_x = oracle.input_grad(prompted.data, yb)
        tape.backward(prompted, seed=grad_x)
        return loss

    return fit(samples, step, opt, _spg_schedule(spg), stream(seed, "spg-batches", gen.style),
               spg.iters, spg.batch, f"spg[{gen.style}]")


def meta_pretrain(generators, style_subsets, oracle, spg, seed=0):
    """Short per-style warmup pass shared by all generators before main training.

    Each generator runs the ordinary training loop for ``spg.meta_iters``
    iterations on its own style subset.  Zero iterations is a no-op by
    construction.
    """
    warm = dataclasses.replace(spg, iters=spg.meta_iters)
    for style, gen in generators.items():
        train_spg(gen, style_subsets[style], oracle, warm, seed=mix_seed(seed, "meta"))
    return generators


def save_generator(path, gen):
    arrays = tensor_arrays(gen.tensors())
    arrays["meta.variant"] = pack_tag(gen.variant)
    arrays["meta.init"] = pack_tag(gen.init)
    arrays["meta.style"] = pack_tag(gen.style)
    arrays["meta.dims"] = np.array(
        [gen.channels, gen.height, gen.width, gen.pad, gen.depth], np.float32
    )
    save_checkpoint(path, "SPGN", arrays)


@loader
def load_generator(path):
    _, arrays = load_checkpoint(path, expect_kind="SPGN")
    channels, height, width, pad, depth = (int(v) for v in arrays["meta.dims"])
    gen = StylePromptGenerator(
        unpack_tag(arrays["meta.style"]),
        unpack_tag(arrays["meta.variant"]),
        channels, height, width, pad, depth,
        init=unpack_tag(arrays["meta.init"]),
    )
    load_tensor_arrays(gen.tensors(), arrays)
    return gen
