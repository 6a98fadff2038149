"""Adaptive fusion of style prompts.

At inference nobody announces the test style, so the n per-style prompts are
blended: a frozen shared encoder embeds the input and every normalized
prompt, two small linear heads map those embeddings to a query and keys,
and the resulting attention row is squashed through tanh(softmax(.)) into
fusion weights.  Only the two heads ever train; encoder, generators, and
the segmentation oracle stay byte-identical through the whole phase.

So for a given batch the frozen half of the pass (image embeddings,
modulator outputs, prompt embeddings) is a pure function of the batch's
bytes.  Training and evaluation keep it in a memo keyed by those bytes: the
arms of an ablation draw the same batches and are evaluated on the same
domains, so the arms after the first reuse what the first computed, the
sealed oracle's baseline mask of an evaluated batch included.  Keying by the
whole batch, not by sample, keeps reuse exact: on some BLAS kernels a
sample's results depend on the batch it sits in.
"""

import hashlib

import numpy as np

from .autograd import Tape, Tensor, no_grad
from .autograd import ops
from .autograd.layers import (
    Linear,
    Module,
    conv_bn_stages,
    freeze,
    load_tensor_arrays,
    parameters,
    run_stages,
    tensor_arrays,
)
from .autograd.optim import AdamW, CosineWarmRestarts
from .autograd.tensor import ShapeError, reshape
from .checkpoint import load_checkpoint, loader, pack_u64, save_checkpoint, unpack_u64
from .oracle import fingerprint_tensors
from .prompts import attach_prompt
from .seeding import stream
from .train import fit


class SharedEncoder(Module):
    """Frozen feature extractor: three stride-2 conv-bn-relu stages, then a pool.

    The same weights embed images and prompts.  Batch norm always runs on
    stored running statistics, so encoding is a pure function.
    """

    def __init__(self, rng, widths=(16, 32, 64), kernel=5):
        self.widths = tuple(widths)
        self.kernel = kernel
        self.stage = conv_bn_stages(self.widths, kernel, rng)
        freeze(self.tensors())
        self.memo = None  # the FrozenMemo last filled (frozen_memo)

    @classmethod
    def from_seg_model(cls, model):
        """Reuse the segmentation model's encoder stages (copied, then frozen)."""
        enc = cls(stream(0, "enc-shell"), model.widths, model.kernel)
        load_tensor_arrays(enc.tensors(), tensor_arrays(model.tensors()))
        return enc

    @property
    def feature_dim(self):
        return self.widths[-1]

    def encode(self, x):
        """Feature vector (B, D) for images or prompts alike."""
        if not isinstance(x, Tensor):
            x = Tensor(np.asarray(x, np.float32))
        if x.ndim != 4 or x.shape[1] != 3:
            raise ShapeError(f"encoder expects (B, 3, H, W), got {x.shape}")
        pooled = ops.adaptive_avg_pool_to_1(run_stages(self.stage, x, training=False))
        return reshape(pooled, (x.shape[0], self.feature_dim))

    def fingerprint(self):
        return fingerprint_tensors(self.tensors())


class FusionHeads(Module):
    """The only trainable pieces of the fusion stage: W_x for the input
    embedding, W_p for prompt embeddings."""

    def __init__(self, feature_dim=64, embed_dim=32, seed=0):
        rng = stream(seed, "apf-heads")
        self.feature_dim = feature_dim
        self.embed_dim = embed_dim
        self.wx = Linear(feature_dim, embed_dim, rng)
        self.wp = Linear(feature_dim, embed_dim, rng)


class FrozenBatch:
    """The frozen half of one batch's fusion pass, each part computed on first use.

    ``lows`` holds every generator's low-resolution modulator output
    (``StylePromptGenerator.modulate``), ``image_emb`` the (B, D) image
    embeddings and ``prompt_emb`` the (B * n, D) prompt embeddings per
    ``per_channel`` setting; an evaluated batch also keeps ``mask``, the sealed
    oracle's uint8 (B, H, W) baseline.  Only that has the input's resolution.
    """

    def __init__(self):
        self.lows = []
        self.image_emb = None
        self.prompt_emb = {}
        self.mask = None

    def baseline_mask(self, oracle, x):
        if self.mask is None:
            self.mask = oracle.predict_mask(x)
        return self.mask

    def image_embedding(self, enc, x):
        if self.image_emb is None:
            self.image_emb = enc.encode(x)
        return self.image_emb

    def prompt_embedding(self, enc, prompts, per_channel):
        if per_channel not in self.prompt_emb:
            b, n = prompts.shape[:2]
            flat = prompts.reshape((b * n,) + prompts.shape[2:])
            self.prompt_emb[per_channel] = enc.encode(flat)
        return self.prompt_emb[per_channel]


class FrozenMemo:
    """One ``FrozenBatch`` per distinct batch, for the frozen weights in ``key``."""

    def __init__(self, key):
        self.key = key
        self.batches = {}

    def batch(self, x):
        digest = hashlib.blake2b(x.tobytes(), digest_size=16).digest()
        return self.batches.setdefault((x.shape, digest), FrozenBatch())


def frozen_memo(enc, generators, oracle):
    """The memo that ``enc`` holds for ``generators`` and ``oracle``.

    Kept on the encoder, it lives as long as the encoder does.  It holds one
    set of frozen weights, named by the fingerprints of the encoder, of every
    generator and of the oracle: other weights replace it with an empty memo.
    """
    key = (enc.fingerprint(), tuple(fingerprint_tensors(g.tensors()) for g in generators),
           oracle.fingerprint)
    if enc.memo is None or enc.memo.key != key:
        enc.memo = FrozenMemo(key)
    return enc.memo


def collect_prompts(generators, x, per_channel=True, lows=None):
    """Generate and L2-normalize every style prompt; a plain (B, n, C, H, W) stack.

    Returned as raw data on purpose: downstream gradients flow into the
    fusion weights, never back into the generators.  ``lows`` is the
    batch's list of modulator outputs (``FrozenBatch.lows``): filled when
    empty, reused when not.
    """
    if not generators:
        raise ValueError("no generators given")
    x = np.asarray(x, np.float32)
    axes = (2, 3) if per_channel else (1, 2, 3)
    lows = [] if lows is None else lows
    with no_grad():
        if not lows:
            lows.extend(gen.modulate(x) for gen in generators)
        stack = [ops.l2_normalize(gen.prompt(low, x.shape[0]).data, axes)
                 for gen, low in zip(generators, lows)]
    return np.stack(stack, axis=1)


def attention_scores(heads, image_emb, prompt_emb, n):
    """Cross-attention row per sample: the query from the (B, D) image
    embeddings, one key per row of the (B * n, D) prompt embeddings."""
    query = heads.wx(image_emb)
    keys = reshape(heads.wp(prompt_emb), (image_emb.shape[0], n, heads.embed_dim))
    return ops.bilinear_scores(query, keys)


def fusion_weights(scores, use_softmax=True, use_tanh=True):
    """w = tanh(softmax(A)) over the prompt axis; flags expose the ablations."""
    w = ops.softmax(scores, axis=1) if use_softmax else scores
    return ops.tanh(w) if use_tanh else w


def fusion_forward(x, generators, enc, heads, per_channel=True,
                   use_softmax=True, use_tanh=True, frozen=None):
    """The full fusion pass; training and inference share this exact path.

    ``frozen`` is the batch's entry in a ``FrozenMemo``: the frozen results
    it holds are reused, the ones it lacks are computed into it.  Without
    one the frozen half is computed afresh.  Returns (prompted input,
    fusion weights).
    """
    x = np.asarray(x, np.float32)
    frozen = FrozenBatch() if frozen is None else frozen
    prompts = collect_prompts(generators, x, per_channel, frozen.lows)
    scores = attention_scores(heads, frozen.image_embedding(enc, x),
                              frozen.prompt_embedding(enc, prompts, per_channel), prompts.shape[1])
    weights = fusion_weights(scores, use_softmax, use_tanh)
    fused = ops.weighted_sum(weights, prompts)  # P_fused = sum_i w[:, i] * P_i
    return attach_prompt(x, fused), weights


def infer(x, generators, enc, heads, oracle, per_channel=True,
          use_softmax=True, use_tanh=True, return_weights=False, frozen=None):
    """Fused-prompt prediction: argmax class mask for each input.

    Without ``frozen`` (a ``FrozenMemo`` entry) no memo is read or filled."""
    with no_grad():
        prompted, weights = fusion_forward(
            x, generators, enc, heads, per_channel, use_softmax, use_tanh, frozen
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
    only hands back input gradients.  The frozen half of each step comes
    from the encoder's memo (``frozen_memo``), so a later call on the same
    frozen weights and batches skips it.  Returns the per-iteration loss
    curve.
    """
    opt = AdamW(parameters(heads.tensors()), betas=apf.betas)
    memo = frozen_memo(enc, generators, oracle)

    def step(xb, yb):
        with Tape() as tape:
            prompted, _ = fusion_forward(xb, generators, enc, heads, apf.per_channel,
                                         apf.use_softmax, apf.use_tanh, memo.batch(xb))
        loss, grad_x = oracle.input_grad(prompted.data, yb)
        tape.backward(prompted, seed=grad_x)
        return loss

    return fit(samples, step, opt, _apf_schedule(apf), stream(seed, "apf-batches"),
               apf.iters, apf.batch, "apf")


def save_heads(path, heads, encoder_fingerprint):
    arrays = tensor_arrays(heads.tensors())
    arrays["meta.embed_dim"] = np.array([heads.embed_dim], np.float32)
    arrays["meta.encoder_fp"] = pack_u64(encoder_fingerprint)
    save_checkpoint(path, "APFH", arrays)


@loader
def load_heads(path):
    """Returns (heads, fingerprint of the encoder they were trained against)."""
    _, arrays = load_checkpoint(path, expect_kind="APFH")
    (embed_dim,) = (int(v) for v in arrays["meta.embed_dim"])
    heads = FusionHeads(arrays["wx.weight"].shape[0], embed_dim)
    load_tensor_arrays(heads.tensors(), arrays)
    return heads, unpack_u64(arrays["meta.encoder_fp"])
