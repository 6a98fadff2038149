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

A generator works on square RGB images: its template holds the canvas
``size``, and every channel count is ``scenes.CHANNELS``.  Each template
assembles its canvas in one tape op (``border_canvas`` or
``full_canvas``), which SPG trains through, and describes the same canvas as
``support`` pieces: a strip's or the canvas's values at a place, with a
per-image scale.  Fusion reads the pieces (``paint``), so a border prompt's
empty center is never stored; the whole canvases are built only for the
shared encoder, which reads images.  Init ``meta`` draws the ``normal``
template; its warm-up, ``spg.meta_iters`` iterations of ``train_spg``, runs
in ``pipeline.stage_spg`` right before that generator's main training.
"""

import numpy as np

from .autograd import Tape, Tensor
from .autograd import ops
from .autograd.layers import (
    BatchNorm2d,
    Conv2d,
    Module,
    conv_bn,
    parameters,
    run_stages,
    tensor_arrays,
)
from .autograd.optim import MultiStepLr, SgdMomentum
from .autograd.tensor import ShapeError, add, apply_op, reshape
from .checkpoint import load_module, save_checkpoint
from .scenes import CHANNELS
from .seeding import stream
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


def span(top, left, values):
    """The index of a piece's pixels, ``values`` at (``top``, ``left``), in a canvas."""
    return np.s_[..., top : top + values.shape[-2], left : left + values.shape[-1]]


def paint(canvas, pieces, coeff=None):
    """Add a template's ``support`` pieces into ``canvas`` (B, C, H, W) and
    return it.  A piece (top, left, values, scale) adds its (C, h, w) values,
    or (B, C, h, w) ones, at (top, left), times its (B, C) scale and the
    (B, C) or (B, 1) ``coeff`` (None stands for 1 in both)."""
    for top, left, values, scale in pieces:
        k = coeff if scale is None else scale if coeff is None else coeff * scale
        canvas[span(top, left, values)] += values if k is None else values * k[:, :, None, None]
    return canvas


class BorderTemplate(Module):
    """Four learnable edge strips of a ``size`` x ``size`` canvas, the
    attributes ``top``, ``bottom``, ``left`` and ``right``; the assembled
    canvas has an exactly zero center.

    Top and bottom span the full width; left and right cover only the middle
    rows, so the corners belong to the horizontal strips.
    """

    def __init__(self, size, pad, strategy, rng):
        if pad <= 0 or 2 * pad >= size:
            raise ShapeError(f"pad {pad} does not fit a {size}x{size} canvas")
        self.size = size
        self.pad = pad
        mid = size - 2 * pad
        for name, shape in zip(SIDES, [(pad, size)] * 2 + [(mid, pad)] * 2):
            values = _init_values((CHANNELS,) + shape, strategy, rng)
            setattr(self, name, Tensor(values, requires_grad=True))

    def support(self, alpha=None):
        """The canvas as ``paint`` pieces, one per strip in side order: the
        strip's (C, h, w) values at its corner, scaled by its (B, C)
        coefficients ``alpha[:, side]`` (None: the bare template).  ``alpha``
        is a plain (B, 4, C) array.  The center is in no piece."""
        s, p = self.size, self.pad
        corners = [(0, 0), (s - p, 0), (p, 0), (p, s - p)]
        return [(r, c, s.data, None if alpha is None else alpha[:, i])
                for i, (s, (r, c)) in enumerate(zip(self.strips(), corners))]

    def strips(self):
        return [getattr(self, name) for name in SIDES]

    def assemble(self, alpha=None, batch=1):
        """Canvas (B, C, H, W) from the four strips, optionally side/channel scaled.

        ``alpha`` is a (B, 4, C) tensor of raw modulation coefficients in side
        order top, bottom, left, right; None means the bare template.  One op
        writes the scaled strips into one canvas.
        """
        if alpha is not None:
            if alpha.ndim != 3 or alpha.shape[1:] != (4, CHANNELS):
                raise ShapeError(f"alpha must be (B, 4, {CHANNELS}), got {alpha.shape}")
            batch = alpha.shape[0]
        strips = self.strips()
        pieces = self.support(None if alpha is None else alpha.data)
        # disjoint strips: painted onto zeros, the canvas is their exact sum
        canvas = paint(np.zeros((batch, CHANNELS, self.size, self.size), strips[0].data.dtype),
                       pieces)

        def backward_fn(g):
            gs = [np.ascontiguousarray(g[span(*piece[:3])]) for piece in pieces]
            grads = [gi.sum(axis=0) if scale is None else (gi * scale[:, :, None, None]).sum(axis=0)
                     for gi, (*_, scale) in zip(gs, pieces)]
            if alpha is not None:
                grads.append(np.zeros_like(alpha.data))
                for i, (gi, strip) in enumerate(zip(gs, strips)):
                    grads[4][:, i] += (gi * strip.data).sum(axis=(2, 3))
            return grads

        inputs = strips if alpha is None else strips + [alpha]
        return apply_op("border_canvas", canvas, tuple(inputs), backward_fn)


class FullTemplate(Module):
    """A single learnable ``size`` x ``size`` canvas covering the whole image."""

    def __init__(self, size, strategy, rng):
        self.size = size
        self.canvas = Tensor(_init_values((CHANNELS, size, size), strategy, rng),
                             requires_grad=True)

    def support(self, pixel_map=None):
        """The canvas as one ``paint`` piece: the (C, H, W) template, or its
        product with a plain (B, C, H, W) pixel map."""
        canvas = self.canvas.data
        return [(0, 0, canvas if pixel_map is None else canvas * pixel_map, None)]

    def assemble(self, pixel_map=None, batch=1):
        """Canvas (B, C, H, W), optionally reweighted by a (B, C, H, W) pixel
        map.  One op copies the template to every image or scales it."""
        canvas = self.canvas
        if pixel_map is None:
            out = np.ascontiguousarray(np.broadcast_to(canvas.data, (batch,) + canvas.shape))

            def backward_fn(g):
                return (g.sum(axis=0),)

            return apply_op("full_canvas", out, (canvas,), backward_fn)
        if pixel_map.ndim != 4 or pixel_map.shape[1:] != canvas.shape:
            raise ShapeError(f"pixel map must be (B, {CHANNELS}, {self.size}, {self.size}), "
                             f"got {pixel_map.shape}")

        def backward_fn(g):
            return (g * pixel_map.data).sum(axis=0), g * canvas.data

        return apply_op("full_canvas", canvas.data * pixel_map.data, (canvas, pixel_map),
                        backward_fn)


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
        main = ops.relu(conv_bn(self.conv1, self.bn1, x, training))
        main = conv_bn(self.conv2, self.bn2, main, training)
        return ops.relu(add(main, conv_bn(self.proj, self.proj_bn, x, training)))


class ModulatorNetwork(Module):
    """Three stride-2 blocks (d, 2d, 4d channels) over RGB and a 1x1 head.

    C is ``CHANNELS``.  mode "coeffs": head emits 4C channels, pooled to
    per-side per-channel coefficients (B, 4, C).  mode "map": head emits C
    channels, upsampled back to the input resolution for pixel-level
    reweighting.  Coefficients
    are raw linear outputs; no squashing is applied.  The pass is split in
    two, ``low_res`` then ``expand``, so that a caller can keep the small
    low-resolution result and skip the network on a batch it has seen.
    """

    def __init__(self, depth, mode, rng):
        if mode not in ("coeffs", "map"):
            raise ValueError(f"unknown modulator mode {mode!r}")
        self.mode = mode
        widths = (depth, 2 * depth, 4 * depth)
        # one attribute, named ``block``, so the table reads block0., block1., ...
        self.block = [ModulatorBlock(c_in, c_out, rng)
                      for c_in, c_out in zip((CHANNELS,) + widths, widths)]
        self.head = Conv2d(widths[-1], 4 * CHANNELS if mode == "coeffs" else CHANNELS, 1, rng)

    def low_res(self, x, training=False):
        """Everything below the input resolution: the (B, 4, C) coefficients
        in mode "coeffs", the (B, C, H/8, W/8) head map in mode "map"."""
        if x.ndim != 4:
            raise ShapeError(f"modulator input must be 4-D, got {x.shape}")
        b, _, h, w = x.shape
        if h % 8 or w % 8:
            raise ShapeError(f"modulator input dims must be divisible by 8, got {h}x{w}")
        feats = self.head(run_stages(self.block, x, training))
        if self.mode == "coeffs":
            pooled = ops.adaptive_avg_pool_to_1(feats)
            return reshape(pooled, (b, 4, CHANNELS))
        return feats

    def expand(self, low, size):
        """``low_res``'s output at the input resolution: coefficients pass
        through, a map is upsampled to ``size`` x ``size``."""
        if self.mode == "coeffs":
            return low
        return ops.bilinear_upsample(low, size, size)


class StylePromptGenerator(Module):
    """One style's prompt generator for ``size`` x ``size`` images: template,
    variant, and optional modulator."""

    def __init__(self, style, variant="a_border", size=64, pad=6, depth=8, init="normal",
                 seed=0):
        if variant not in VARIANTS:
            raise ValueError(f"unknown variant {variant!r}")
        if init not in INIT_STRATEGIES:
            raise ValueError(f"unknown init strategy {init!r}")
        self.style = style
        rng = stream(seed, "spg", style, variant)
        if variant in ("border", "a_border"):
            self.template = BorderTemplate(size, pad, init, rng)
        else:
            self.template = FullTemplate(size, init, rng)
        mode = {"a_border": "coeffs", "a_full": "map"}.get(variant)
        self.modulator = None if mode is None else ModulatorNetwork(depth, mode, rng)

    def _check_input(self, x):
        size = self.template.size
        if x.ndim != 4 or x.shape[1:] != (CHANNELS, size, size):
            raise ShapeError(f"generator expects (B, {CHANNELS}, {size}, {size}), got {x.shape}")

    def modulate(self, x, training=False):
        """The modulator's low-resolution output for a batch (see
        ``ModulatorNetwork.low_res``); None for the fixed variants."""
        if not isinstance(x, Tensor):
            x = Tensor(np.asarray(x, np.float32))
        self._check_input(x)
        return None if self.modulator is None else self.modulator.low_res(x, training)

    def support(self, low):
        """The prompts of a batch as its template's ``paint`` pieces, from its
        ``modulate`` output as a plain array (None for a fixed variant)."""
        if low is None:
            return self.template.support()
        return self.template.support(self.modulator.expand(Tensor(low), self.template.size).data)

    def generate(self, x, training=False):
        """The style prompt for a batch, shaped like the batch itself."""
        low = self.modulate(x, training)
        coeff = None if low is None else self.modulator.expand(low, self.template.size)
        return self.template.assemble(coeff, x.shape[0])


def attach_prompt(x, prompt):
    """x' = x + P.  No clamping: the attachment stays linear in the prompt."""
    if not isinstance(x, Tensor):
        x = Tensor(np.asarray(x, np.float32))
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

    def step(_, xb, yb):
        with Tape() as tape:
            prompted = attach_prompt(xb, gen.generate(xb, training=True))
        loss, grad_x = oracle.input_grad(prompted.data, yb)
        tape.backward(prompted, seed=grad_x)
        return loss

    return fit(samples, step, opt, _spg_schedule(spg), stream(seed, "spg-batches", gen.style),
               spg.iters, spg.batch, f"spg[{gen.style}]")


def save_generator(path, gen):
    save_checkpoint(path, "SPGN", tensor_arrays(gen.tensors()))


def load_generator(path, gen):
    """Fill ``gen``, built from the config, from a generator checkpoint."""
    load_module(path, "SPGN", gen)
