"""Adaptive fusion of style prompts.

At inference nobody announces the test style, so the n per-style prompts are
blended: a frozen shared encoder, a copy of the oracle's stages, embeds the
input and every normalized prompt, two small linear heads map those
embeddings to a query and keys, and the resulting attention row is squashed
through tanh(softmax(.)) into fusion weights.  Only the two heads ever
train; encoder, generators, and the segmentation oracle stay byte-identical
through the whole phase (``pipeline.run_arms`` checks all three).

So a sample's frozen half of the pass never changes.  Training and
evaluation keep it in a table, one row per sample (``FrozenTable``): a batch
computes the rows it is first to draw as one group, and later steps and arms
gather them.  A row keeps its group's bits (on some BLAS kernels a GEMM row's
bits follow its slot in the call and the call's size, not the other rows);
the arms of a seed draw the same batches, so their order does not matter.

The blend itself never builds a prompt canvas: ``fuse_prompts`` mixes the
templates' support (a border template's four strips, a full template's one
canvas) with the weights over the norms, which come from the same support.
A (B, n, C, H, W) stack of whole normalized prompts exists only as the
encoder's input (``collect_prompts``), where fresh prompt rows are embedded:
a table row's first fill, or a call without table rows.  A call builds each
generator's support once and hands it to both.  C is ``scenes.CHANNELS``;
the canvas size is the generators' template's.
"""

import copy

import numpy as np

from .autograd import Tape, Tensor, no_grad
from .autograd import ops
from .autograd.layers import (
    Linear,
    Module,
    freeze,
    parameters,
    run_stages,
    tensor_arrays,
)
from .autograd.optim import AdamW, CosineWarmRestarts
from .autograd.tensor import ShapeError, apply_op, guard_finite, reshape
from .checkpoint import load_module, loader, pack_u64, save_checkpoint, unpack_u64
from .datasets import stack_images
from .prompts import attach_prompt, paint, span
from .scenes import CHANNELS
from .seeding import stream
from .train import fit


class SharedEncoder(Module):
    """Frozen feature extractor: conv-bn-relu ``stages`` (``ConvBn``), then a pool.

    The same weights embed images and prompts.  Batch norm always runs on
    stored running statistics, so encoding is a pure function.
    """

    def __init__(self, stages):
        self.stage = stages
        freeze(self.tensors())
        self.tables = None  # (key, tables) of frozen_tables

    @classmethod
    def from_seg_model(cls, model):
        """Reuse the segmentation model's encoder stages (copied, then frozen)."""
        return cls(copy.deepcopy(model.stage))

    @property
    def feature_dim(self):
        return self.stage[-1].conv.weight.shape[0]

    def encode(self, x):
        """Feature vector (B, D) for images or prompts alike."""
        if not isinstance(x, Tensor):
            x = Tensor(np.asarray(x, np.float32))
        if x.ndim != 4 or x.shape[1] != CHANNELS:
            raise ShapeError(f"encoder expects (B, {CHANNELS}, H, W), got {x.shape}")
        pooled = ops.adaptive_avg_pool_to_1(run_stages(self.stage, x, training=False))
        return reshape(pooled, (x.shape[0], self.feature_dim))


class FusionHeads(Module):
    """The only trainable pieces of the fusion stage: W_x for the input
    embedding, W_p for prompt embeddings."""

    def __init__(self, feature_dim=64, embed_dim=32, seed=0):
        rng = stream(seed, "apf-heads")
        self.embed_dim = embed_dim
        self.wx = Linear(feature_dim, embed_dim, rng)
        self.wp = Linear(feature_dim, embed_dim, rng)


class FrozenTable:
    """The frozen rows of a list of samples, which it holds.  A row fills by
    section, each on first use: "base" holds the image embedding and each
    generator's modulator output (None for a fixed variant), a ``per_channel``
    setting the prompt embeddings and norms, "mask" the oracle's uint8
    baseline, the only part at the input's resolution."""

    def __init__(self, samples):
        self.samples, self.sections = samples, {}  # section -> (filled rows, parts)

    def rows(self, section, idx, compute):
        """The parts of ``section`` at rows ``idx``; ``compute(group)`` first makes
        those of the rows it lacks, as one group in order of first draw."""
        filled, parts = self.sections.setdefault(section, (np.zeros(len(self.samples), bool), []))
        if group := [i for i in dict.fromkeys(idx.tolist()) if not filled[i]]:
            for j, a in enumerate(compute(np.array(group))):
                if j == len(parts):
                    parts.append(a if a is None else np.empty(filled.shape + a.shape[1:], a.dtype))
                if a is not None:
                    parts[j][group] = a
            filled[group] = True
        return [part if part is None else part[idx] for part in parts]

    def gather(self, idx, generators, enc, per_channel):
        """(image embeddings, modulator outputs, prompt embeddings, norms) of rows ``idx``."""
        def base(group):
            return _base_rows(stack_images(self.samples, group), generators, enc)

        def prompt(group):
            lows = self.rows("base", group, base)[1:]
            supports = [gen.support(low) for gen, low in zip(generators, lows)]
            return _prompt_rows(generators, supports, len(group), enc, per_channel)

        image_emb, *lows = self.rows("base", idx, base)
        return (image_emb, lows, *self.rows(per_channel, idx, prompt))


def frozen_tables(enc, generators, oracle):
    """The function from a list of samples to its ``FrozenTable``, found by
    the identity of every sample.  The tables hang off the encoder and hold
    one set of frozen weights, named by the fingerprints of the encoder, of
    every generator and of the oracle: other weights replace them with none."""
    key = (enc.fingerprint(), tuple(g.fingerprint() for g in generators), oracle.fingerprint)
    if enc.tables is None or enc.tables[0] != key:
        enc.tables = key, {}
    tables = enc.tables[1]
    return lambda samples: tables.setdefault(tuple(map(id, samples)), FrozenTable(samples))


def _base_rows(x, generators, enc):
    """[image embeddings, each generator's modulator output] of images ``x``."""
    with no_grad():
        lows = [gen.modulate(x) for gen in generators]
        return [enc.encode(x).data] + [low if low is None else low.data for low in lows]


def _prompt_rows(generators, supports, batch, enc, per_channel):
    """A batch's (B, n, D) prompt embeddings and its norms."""
    prompts, norms = collect_prompts(generators, supports, batch, per_channel)
    with no_grad():
        emb = enc.encode(prompts.reshape((-1,) + prompts.shape[2:])).data
    return emb.reshape(prompts.shape[:2] + emb.shape[1:]), norms


def _norms(pieces, batch, per_channel):
    """A prompt's (B, C) L2 norms per channel, or (B, 1) per sample, from its
    ``paint`` pieces: the norm of the pieces' own norms, so no canvas is read."""
    parts = []
    for *_, values, scale in pieces:
        own = np.sqrt((values * values).sum(axis=(-2, -1)))  # (C,) or (B, C)
        parts.append(np.broadcast_to(own if scale is None else np.abs(scale) * own,
                                     (batch, own.shape[-1])))
    return ops.l2_norms(np.stack(parts, axis=-1), (2,) if per_channel else (1, 2))[..., 0]


def collect_prompts(generators, supports, batch, per_channel=True):
    """A batch's prompts from its generators' ``support`` pieces, each divided
    by its L2 norm into one (B, n, C, H, W) stack, and the (B, n, C or 1)
    norms, per channel or per sample.  Only the encoder reads whole canvases:
    this runs where it embeds fresh prompt rows."""
    if not generators:
        raise ValueError("no generators given")
    norms = np.stack([_norms(pieces, batch, per_channel) for pieces in supports], axis=1)
    size = generators[0].template.size
    stack = np.zeros((batch, len(generators), CHANNELS, size, size), norms.dtype)
    for i, pieces in enumerate(supports):
        paint(stack[:, i], pieces, 1 / norms[:, i])
    guard_finite(stack, "collect_prompts")
    return stack, norms


def fuse_prompts(weights, generators, supports, norms):
    """P_fused = sum_i w[:, i] * P_i / norm_i for (B, n) weights, from the
    generators' ``support`` pieces, so no prompt canvas is built.  A piece
    counts times w / norm and its own scale; the pieces at one place (a border
    template's side, say) mix in one batched matmul over their m generators.
    The prompts are constants: the gradient flows into the weights only."""
    w = weights.data
    if w.ndim != 2 or w.shape[1] != len(generators) or norms.shape[:2] != w.shape:
        raise ShapeError(f"fuse_prompts mismatch: weights {w.shape}, {len(generators)} "
                         f"generators, norms {norms.shape}")
    b, c, size = len(w), CHANNELS, generators[0].template.size
    groups = {}  # (top, left, values shape) -> [(generator index, values, scale)]
    for i, pieces in enumerate(supports):
        for top, left, values, scale in pieces:
            groups.setdefault((top, left) + values.shape, []).append((i, values, scale))
    out = np.zeros((b, c, size, size), np.result_type(w, norms))
    ones, mixes = np.ones((b, c), out.dtype), []
    for (top, left, *_), members in groups.items():
        idx, values, scales = zip(*members)
        idx, at = list(idx), span(top, left, values[0])
        units = (np.stack([ones if s is None else s for s in scales], axis=-1)
                 / np.moveaxis(norms[:, idx], 1, -1))  # (B, C, m)
        values = np.stack(values, axis=-3)
        *lead, rows, cols = values.shape
        values = values.reshape(lead + [rows * cols])  # ([B,] C, m, h*w)
        out[at] += ((w[:, None, idx] * units)[:, :, None] @ values).reshape(out[at].shape)
        mixes.append((at, idx, values, units))

    def backward_fn(g):
        gw = np.zeros_like(w)
        for at, idx, values, units in mixes:
            dots = (g[at].reshape(b, c, 1, values.shape[-1]) @ np.swapaxes(values, -1, -2))[:, :, 0]
            gw[:, idx] += (dots * units).sum(axis=1)  # a generator is once in a group
        return (gw,)

    return apply_op("fuse_prompts", out, (weights,), backward_fn)


def attention_scores(heads, image_emb, prompt_emb):
    """Cross-attention row per sample: the query from the (B, D) image
    embeddings, one key per prompt of the (B, n, D) prompt embeddings."""
    keys = heads.wp(reshape(prompt_emb, (-1, prompt_emb.shape[2])))
    keys = reshape(keys, prompt_emb.shape[:2] + (heads.embed_dim,))
    return ops.bilinear_scores(heads.wx(image_emb), keys)


def fusion_weights(scores, use_softmax=True, use_tanh=True):
    """w = tanh(softmax(A)) over the prompt axis; flags expose the ablations."""
    w = ops.softmax(scores, axis=1) if use_softmax else scores
    return ops.tanh(w) if use_tanh else w


def fusion_forward(x, generators, enc, heads, per_channel=True,
                   use_softmax=True, use_tanh=True, rows=None):
    """The full fusion pass; training and inference share this exact path.

    ``rows`` are the batch's frozen rows (``FrozenTable.gather``); without
    them the frozen half is computed afresh.  Returns (prompted input,
    fusion weights).
    """
    x = np.asarray(x, np.float32)
    if rows is None:
        image_emb, *lows = _base_rows(x, generators, enc)
    else:
        image_emb, lows, prompt_emb, norms = rows
    supports = [gen.support(low) for gen, low in zip(generators, lows)]  # once a call
    if rows is None:
        prompt_emb, norms = _prompt_rows(generators, supports, len(x), enc, per_channel)
    scores = attention_scores(heads, Tensor(image_emb), Tensor(prompt_emb))
    weights = fusion_weights(scores, use_softmax, use_tanh)
    fused = fuse_prompts(weights, generators, supports, norms)
    return attach_prompt(x, fused), weights


def infer(x, generators, enc, heads, oracle, per_channel=True,
          use_softmax=True, use_tanh=True, return_weights=False, rows=None):
    """Fused-prompt prediction: argmax class mask for each input.  Without
    ``rows``, the inputs' frozen rows, no table is read or filled."""
    with no_grad():
        prompted, weights = fusion_forward(
            x, generators, enc, heads, per_channel, use_softmax, use_tanh, rows
        )
    mask = oracle.predict_mask(prompted.data)
    if return_weights:
        return mask, weights.data.copy()
    return mask


def _apf_schedule(apf):
    t0 = max(1, int(apf.iters * apf.restart_frac))
    return CosineWarmRestarts(apf.lr, apf.min_lr, t0, apf.t_mult)


def train_apf(heads, samples, generators, enc, oracle, apf, seed=0):
    """Optimize W_x and W_p against the sealed oracle on source images.

    ``apf`` is the config section: budget, optimizer and schedule settings
    plus the three fusion flags.  Everything else is frozen: prompts enter
    as constants, the encoder records nothing on the tape, and the oracle
    only hands back input gradients; each step gathers the frozen half from
    the samples' table (``frozen_tables``).  Returns the loss curve.
    """
    opt = AdamW(parameters(heads.tensors()), betas=apf.betas)
    table = frozen_tables(enc, generators, oracle)(samples)

    def step(idx, xb, yb):
        rows = table.gather(idx, generators, enc, apf.per_channel)
        with Tape() as tape:
            prompted, _ = fusion_forward(xb, generators, enc, heads, apf.per_channel,
                                         apf.use_softmax, apf.use_tanh, rows)
        loss, grad_x = oracle.input_grad(prompted.data, yb)
        tape.backward(prompted, seed=grad_x)
        return loss

    return fit(samples, step, opt, _apf_schedule(apf), stream(seed, "apf-batches"),
               apf.iters, apf.batch, "apf")


def save_heads(path, heads, encoder_fingerprint):
    arrays = tensor_arrays(heads.tensors())
    arrays["meta.encoder_fp"] = pack_u64(encoder_fingerprint)
    save_checkpoint(path, "APFH", arrays)


@loader
def load_heads(path, heads):
    """Fill ``heads``, built from the config, from a heads checkpoint; returns
    the fingerprint of the encoder they were trained against."""
    arrays = load_module(path, "APFH", heads, ("meta.encoder_fp",))
    return unpack_u64(arrays["meta.encoder_fp"])
