"""Fusion stage: shared encoder, attention heads, weight squashing, blending."""

import dataclasses
import itertools

import numpy as np
import pytest

from promptseg.autograd import Tape, Tensor, no_grad, shadow_precision
from promptseg.autograd.layers import conv_bn_stages, tensor_arrays
from promptseg.autograd.tensor import ShapeError, reshape
from promptseg.errors import FormatError
from promptseg.config import ApfConfig, ExperimentConfig
from promptseg import fusion
from promptseg.fusion import (
    FusionHeads,
    SharedEncoder,
    _apf_schedule,
    attention_scores,
    collect_prompts,
    frozen_tables,
    fuse_prompts,
    fusion_forward,
    fusion_weights,
    infer,
    load_heads,
    save_heads,
    train_apf,
)
from promptseg.datasets import DomainSpec, make_domain
from promptseg.oracle import OracleHandle, SegModel
from promptseg.pipeline import stage_eval
from promptseg.prompts import VARIANTS, ModulatorNetwork, StylePromptGenerator, save_generator
from promptseg.scenes import SceneSpec
from promptseg.seeding import stream

from conftest import rel_err

TANH1 = float(np.tanh(1.0))


def toy_oracle(seed=0, classes=4):
    model = SegModel(classes, stream(seed, "toy-oracle"), widths=(4, 6, 8), kernel=3)
    return model, OracleHandle(model)


def random_encoder(seed):
    """A frozen encoder with random weights drawn from its own seed stream."""
    return SharedEncoder(conv_bn_stages((4, 6, 8), 3, stream(seed, "enc-random")))


def toy_setup(n=3, size=16, variant="border", seed=0):
    model, handle = toy_oracle(seed)
    enc = SharedEncoder.from_seg_model(model)
    gens = [
        StylePromptGenerator(f"s{i}", variant, size=size, pad=3,
                             depth=8, seed=seed + i)
        for i in range(n)
    ]
    heads = FusionHeads(feature_dim=enc.feature_dim, embed_dim=8, seed=seed)
    rng = np.random.default_rng(seed + 99)
    x = rng.uniform(0.0, 1.0, (2, 3, size, size)).astype(np.float32)
    return model, handle, enc, gens, heads, x


def modulated(gens, x):
    """The plain modulator outputs of images ``x`` (None for a fixed variant)."""
    with no_grad():
        return [None if low is None else low.data for low in (g.modulate(x) for g in gens)]


def supports(gens, lows):
    """Each generator's ``support`` pieces from its modulator output."""
    return [gen.support(low) for gen, low in zip(gens, lows)]


def prompt_stack(gens, x, per_channel=True):
    """``collect_prompts``' stack for images ``x``, the modulators run afresh."""
    return collect_prompts(gens, supports(gens, modulated(gens, x)), len(x), per_channel)[0]


def encoded_scores(enc, heads, x, prompts):
    """Attention scores of images ``x`` and a prompt stack, both encoded afresh."""
    b, n = prompts.shape[:2]
    flat = prompts.reshape((b * n,) + prompts.shape[2:])
    return attention_scores(heads, enc.encode(x), reshape(enc.encode(flat), (b, n, -1)))


def clone_state(obj):
    return {k: v.copy() for k, v in tensor_arrays(obj.tensors()).items()}


def states_equal(a, b):
    return set(a) == set(b) and all(a[k].tobytes() == b[k].tobytes() for k in a)


class TestSharedEncoder:
    def test_from_seg_model_copies_stage_weights(self):
        model, _ = toy_oracle()
        enc = SharedEncoder.from_seg_model(model)
        src = tensor_arrays(model.tensors())
        for name, arr in tensor_arrays(enc.tensors()).items():
            assert np.array_equal(arr, src[name])

    def test_copy_is_independent_of_the_model(self):
        model, _ = toy_oracle()
        enc = SharedEncoder.from_seg_model(model)
        before = tensor_arrays(model.tensors())["stage0.conv.weight"].copy()
        enc.stage[0].conv.weight.data += 1.0
        assert np.array_equal(
            tensor_arrays(model.tensors())["stage0.conv.weight"], before
        )

    def test_encoder_params_are_frozen(self):
        enc = random_encoder(0)
        for t in enc.tensors().values():
            if isinstance(t, Tensor):
                assert not t.requires_grad

    def test_encode_shape_and_determinism(self, rng):
        enc = random_encoder(3)
        x = rng.uniform(0, 1, (5, 3, 16, 16)).astype(np.float32)
        with no_grad():
            a = enc.encode(x)
            b = enc.encode(x)
        assert a.shape == (5, 8)
        assert np.array_equal(a.data, b.data)

    def test_encode_is_pure(self, rng):
        # eval-mode batch norm must not update running statistics
        enc = random_encoder(3)
        before = clone_state(enc)
        with no_grad():
            enc.encode(rng.uniform(0, 1, (4, 3, 16, 16)).astype(np.float32))
        assert states_equal(before, clone_state(enc))

    def test_random_is_seed_reproducible(self):
        a = random_encoder(7)
        b = random_encoder(7)
        c = random_encoder(8)
        assert states_equal(clone_state(a), clone_state(b))
        assert not states_equal(clone_state(a), clone_state(c))

    def test_encode_rejects_bad_shapes(self):
        enc = random_encoder(0)
        with pytest.raises(ShapeError):
            enc.encode(np.zeros((2, 1, 16, 16), np.float32))
        with pytest.raises(ShapeError):
            enc.encode(np.zeros((3, 16, 16), np.float32))

    def test_fingerprint_tracks_weights(self):
        a = random_encoder(0)
        b = random_encoder(0)
        assert a.fingerprint() == b.fingerprint()
        b.stage[0].conv.weight.data[0, 0, 0, 0] += 1.0
        assert a.fingerprint() != b.fingerprint()


class TestCollectPrompts:
    def test_stack_shape_and_plainness(self):
        _, _, _, gens, _, x = toy_setup(n=3)
        stack = prompt_stack(gens, x)
        assert type(stack) is np.ndarray
        assert stack.shape == (2, 3, 3, 16, 16)

    def test_channel_norms_are_unit(self):
        _, _, _, gens, _, x = toy_setup(n=4, variant="a_border")
        stack = prompt_stack(gens, x, per_channel=True)
        norms = np.linalg.norm(stack.reshape(2, 4, 3, -1), axis=3)
        assert np.all(np.abs(norms - 1.0) < 1e-5)

    def test_whole_tensor_norms_are_unit(self):
        _, _, _, gens, _, x = toy_setup(n=2)
        stack = prompt_stack(gens, x, per_channel=False)
        norms = np.linalg.norm(stack.reshape(2, 2, -1), axis=2)
        assert np.all(np.abs(norms - 1.0) < 1e-5)
        chan = np.linalg.norm(stack.reshape(2, 2, 3, -1), axis=3)
        assert not np.all(np.abs(chan - 1.0) < 1e-5)

    def test_zero_prompt_survives_normalization(self):
        # the epsilon guard must return zeros, not NaN
        _, _, _, _, _, x = toy_setup()
        gen = StylePromptGenerator("z", "border", size=16, pad=3,
                                  init="zero")
        stack = prompt_stack([gen], x)
        assert np.all(stack == 0.0)

    def test_empty_generator_list_rejected(self):
        _, _, _, _, _, x = toy_setup()
        with pytest.raises(ValueError):
            collect_prompts([], [], len(x))


class TestAttentionScores:
    def test_score_shape(self):
        _, _, enc, gens, heads, x = toy_setup(n=3)
        prompts = prompt_stack(gens, x)
        with no_grad():
            scores = encoded_scores(enc, heads, x, prompts)
        assert scores.shape == (2, 3)

    def test_zero_query_head_gives_zero_scores(self):
        _, _, enc, gens, heads, x = toy_setup(n=3)
        heads.wx.weight.data[...] = 0.0
        heads.wx.bias.data[...] = 0.0
        prompts = prompt_stack(gens, x)
        with no_grad():
            scores = encoded_scores(enc, heads, x, prompts)
        assert np.all(scores.data == 0.0)

    def test_duplicate_generators_give_equal_columns(self):
        _, _, enc, gens, heads, x = toy_setup(n=2)
        prompts = prompt_stack([gens[0], gens[0], gens[1]], x)
        # the duplicated prompts are bit-equal; their encodings need not be:
        # the GEMM does not promise that a row's result is independent of its
        # position in the batch, so the columns agree to float32 rounding
        assert np.array_equal(prompts[:, 0], prompts[:, 1])
        with no_grad():
            scores = encoded_scores(enc, heads, x, prompts)
        np.testing.assert_allclose(scores.data[:, 0], scores.data[:, 1], rtol=1e-5, atol=1e-6)

    def test_head_gradients_match_finite_differences(self):
        with shadow_precision():
            _, _, enc, gens, heads, x = toy_setup(n=2, size=8)
            gens = [StylePromptGenerator(f"s{i}", "border", size=8,
                                         pad=2, seed=i) for i in range(2)]
            prompts = prompt_stack(gens, x[:, :, :8, :8])
            xs = x[:, :, :8, :8]

            def loss_value():
                with Tape():
                    s = encoded_scores(enc, heads, xs, prompts)
                    return float((s.data ** 2).sum())

            # L = sum(s^2); seed the backward with dL/ds = 2s
            with Tape() as tape:
                s = encoded_scores(enc, heads, xs, prompts)
            tape.backward(s, seed=2.0 * s.data)
            for leaf in (heads.wx.weight, heads.wp.weight):
                flat = leaf.data.reshape(-1)
                num = np.zeros(4)
                coords = [0, 1, flat.size // 2, flat.size - 1]
                for k, j in enumerate(coords):
                    saved = flat[j]
                    flat[j] = saved + 1e-5
                    fp = loss_value()
                    flat[j] = saved - 1e-5
                    fm = loss_value()
                    flat[j] = saved
                    num[k] = (fp - fm) / 2e-5
                assert rel_err(leaf.grad.reshape(-1)[coords], num) < 1e-3


class TestFusionWeights:
    def test_single_prompt_weight_is_tanh_one(self):
        scores = Tensor(np.array([[3.7]], np.float32))
        w = fusion_weights(scores)
        expected = np.tanh(np.asarray(1.0, np.float32))
        assert w.data[0, 0] == expected

    def test_uniform_scores_give_tanh_quarter(self):
        scores = Tensor(np.zeros((3, 4), np.float32))
        w = fusion_weights(scores)
        assert np.allclose(w.data, np.tanh(0.25), atol=1e-7)

    def test_matches_manual_softmax_tanh(self, rng):
        raw = rng.normal(0, 3, (5, 4)).astype(np.float32)
        w = fusion_weights(Tensor(raw.copy()))
        e = np.exp(raw - raw.max(axis=1, keepdims=True))
        manual = np.tanh(e / e.sum(axis=1, keepdims=True))
        assert np.allclose(w.data, manual, atol=1e-6)

    def test_range_and_row_sums(self, rng):
        raw = rng.normal(0, 5, (64, 6)).astype(np.float32)
        pre = fusion_weights(Tensor(raw.copy()), use_tanh=False)
        assert np.all(np.abs(pre.data.sum(axis=1) - 1.0) < 1e-6)
        w = fusion_weights(Tensor(raw.copy()))
        assert np.all(w.data > 0.0)
        assert np.all(w.data <= TANH1 + 1e-7)

    def test_shift_invariance(self, rng):
        raw = rng.normal(0, 2, (4, 5)).astype(np.float32)
        a = fusion_weights(Tensor(raw.copy()))
        b = fusion_weights(Tensor(raw + 10.0))
        assert np.allclose(a.data, b.data, atol=1e-6)

    def test_flag_combinations(self, rng):
        raw = rng.normal(0, 1, (3, 4)).astype(np.float32)
        no_sm = fusion_weights(Tensor(raw.copy()), use_softmax=False)
        assert np.allclose(no_sm.data, np.tanh(raw), atol=1e-7)
        no_tanh = fusion_weights(Tensor(raw.copy()), use_tanh=False)
        e = np.exp(raw - raw.max(axis=1, keepdims=True))
        assert np.allclose(no_tanh.data, e / e.sum(axis=1, keepdims=True), atol=1e-6)
        neither = fusion_weights(Tensor(raw.copy()), use_softmax=False, use_tanh=False)
        assert np.array_equal(neither.data, raw)


def fuse_setup(variants, per_channel=True, size=16):
    """Generators of ``variants``, their support pieces for two random
    images, and the prompt stack and norms ``collect_prompts`` gives them."""
    gens = [StylePromptGenerator(f"s{i}", v, size=size, pad=3, depth=8, seed=i)
            for i, v in enumerate(variants)]
    x = np.random.default_rng(7).uniform(0.0, 1.0, (2, 3, size, size)).astype(np.float32)
    sup = supports(gens, modulated(gens, x))
    stack, norms = collect_prompts(gens, sup, len(x), per_channel)
    return gens, sup, stack, norms


class TestFusePrompts:
    def test_one_hot_selects_single_prompt(self):
        gens, sup, stack, norms = fuse_setup(["a_border", "a_full", "border"])
        w = np.zeros((2, 3), np.float32)
        w[:, 1] = 1.0
        fused = fuse_prompts(Tensor(w), gens, sup, norms)
        np.testing.assert_allclose(fused.data, stack[:, 1], atol=1e-7)

    def test_one_hot_selects_per_row(self):
        gens, sup, stack, norms = fuse_setup(["a_border"] * 3)
        w = np.zeros((2, 3), np.float32)
        w[0, 1] = w[1, 2] = 1.0
        fused = fuse_prompts(Tensor(w), gens, sup, norms)
        np.testing.assert_allclose(fused.data[0], stack[0, 1], atol=1e-7)
        np.testing.assert_allclose(fused.data[1], stack[1, 2], atol=1e-7)

    def test_zero_weights_give_zero(self):
        gens, sup, _, norms = fuse_setup(["a_border", "a_full", "full"])
        fused = fuse_prompts(Tensor(np.zeros((2, 3), np.float32)), gens, sup, norms)
        assert np.all(fused.data == 0.0)

    def test_linear_in_weights(self, rng):
        gens, sup, _, norms = fuse_setup(["a_border", "border", "a_full", "full"])
        w = rng.uniform(0, 1, (2, 4)).astype(np.float32)
        once = fuse_prompts(Tensor(w.copy()), gens, sup, norms)
        twice = fuse_prompts(Tensor(2.0 * w), gens, sup, norms)
        assert np.array_equal(twice.data, 2.0 * once.data)

    def test_matches_explicit_sum(self, rng):
        # the sum over the stack of whole normalized canvases, per variant
        # and for a list that mixes border and full templates, both norms
        for variants, per_channel in itertools.product(
                [[v] * 3 for v in VARIANTS] + [["a_border", "a_full", "a_border"]], [True, False]):
            gens, sup, stack, norms = fuse_setup(variants, per_channel)
            w = rng.uniform(0, 1, (2, 3)).astype(np.float32)
            fused = fuse_prompts(Tensor(w.copy()), gens, sup, norms)
            manual = sum(w[:, i, None, None, None] * stack[:, i] for i in range(3))
            np.testing.assert_allclose(fused.data, manual, rtol=0, atol=1e-6)

    @pytest.mark.parametrize("variant", ["border", "a_border"])
    def test_border_prompt_is_zero_off_the_ring(self, rng, variant):
        gens, sup, _, norms = fuse_setup([variant] * 3)
        fused = fuse_prompts(Tensor(rng.uniform(0.5, 1, (2, 3))), gens, sup, norms)
        assert np.all(fused.data[:, :, 3:-3, 3:-3] == 0.0)
        assert np.all(fused.data[:, :, :3] != 0.0)

    def test_rejects_weights_of_another_shape(self):
        gens, sup, _, norms = fuse_setup(["a_border"] * 3)
        with pytest.raises(ShapeError):
            fuse_prompts(Tensor(np.ones((2, 2), np.float32)), gens, sup, norms)


class TestFusionForward:
    def test_matches_step_by_step_composition(self):
        _, _, enc, gens, heads, x = toy_setup(n=3, variant="a_border")
        with no_grad():
            prompted, weights = fusion_forward(x, gens, enc, heads)
            sup = supports(gens, modulated(gens, x))
            manual_prompts, norms = collect_prompts(gens, sup, len(x))
            scores = encoded_scores(enc, heads, x, manual_prompts)
            manual_w = fusion_weights(scores)
            manual = x + fuse_prompts(manual_w, gens, sup, norms).data
        assert np.array_equal(weights.data, manual_w.data)
        assert np.array_equal(prompted.data, manual)

    @pytest.mark.parametrize("per_channel", [True, False])
    def test_table_rows_give_the_fresh_pass(self, per_channel):
        # a pool whose rows are computed as one group, then gathered in
        # another order: the pass equals one computed afresh on that order
        _, handle, enc, gens, heads, _ = toy_setup(n=3, variant="a_border")
        gens[1] = StylePromptGenerator("s1", "a_full", size=16, depth=8, seed=1)
        dom = make_domain(DomainSpec(name="toy", scene=SceneSpec(seed=43, height=16, width=16),
                                     count=4))
        table = frozen_tables(enc, gens, handle)(dom)
        table.gather(np.arange(4), gens, enc, per_channel)
        idx = np.array([2, 0, 3, 1])
        rows = table.gather(idx, gens, enc, per_channel)
        x = np.stack([dom[i].image for i in idx])
        with no_grad():
            got = fusion_forward(x, gens, enc, heads, per_channel, rows=rows)
            want = fusion_forward(x, gens, enc, heads, per_channel)
            _, lows, _, stored = rows
            norms = collect_prompts(gens, supports(gens, lows), 4, per_channel)[1]
        assert np.array_equal(norms, stored)  # a prompt's norm is its own
        for a, b in zip(got, want):
            np.testing.assert_allclose(a.data, b.data, rtol=1e-5, atol=1e-6)

    def test_table_rows_build_no_prompt_stack(self, monkeypatch):
        # once a table holds a batch's rows, a training step reads them and
        # mixes the fused prompt on the support: no prompt canvas is built
        _, handle, enc, gens, heads, _ = toy_setup(n=3, variant="a_border")
        dom = make_domain(DomainSpec(name="toy", scene=SceneSpec(seed=43, height=16, width=16),
                                     count=4))
        table = frozen_tables(enc, gens, handle)(dom)
        table.gather(np.arange(4), gens, enc, True)

        def stacked(*args):
            raise AssertionError("a (B, n, C, H, W) prompt stack was built")

        monkeypatch.setattr(fusion, "collect_prompts", stacked)
        idx = np.array([3, 1, 2, 0])
        rows = table.gather(idx, gens, enc, True)
        with Tape() as tape:
            prompted, _ = fusion_forward(np.stack([dom[i].image for i in idx]), gens, enc,
                                         heads, rows=rows)
        tape.backward(prompted, seed=np.ones_like(prompted.data))
        assert heads.wx.weight.grad is not None

    def test_a_call_without_rows_builds_each_support_once(self, monkeypatch):
        # the encoder's prompt stack and the blend read one support per
        # generator: an a_full support holds an upsampled map times the canvas
        _, handle, enc, gens, heads, x = toy_setup(n=3, variant="a_full")
        calls = []
        for gen in gens:
            monkeypatch.setattr(gen, "support", lambda low, gen=gen, support=gen.support:
                                calls.append(gen.style) or support(low))
        infer(x, gens, enc, heads, handle)
        assert calls == [gen.style for gen in gens]

    def test_single_generator_reduces_to_tanh_one_attachment(self):
        model, handle, enc, gens, heads, x = toy_setup(n=1)
        got = infer(x, gens[:1], enc, heads, handle)
        with no_grad():
            p = prompt_stack(gens[:1], x)[:, 0]
        w1 = np.tanh(np.asarray(1.0, np.float32))
        manual = handle.predict_mask(x + w1 * p)
        assert np.array_equal(got, manual)

    def test_generator_order_permutes_weights(self):
        _, _, enc, gens, heads, x = toy_setup(n=3, variant="a_border")
        perm = [2, 0, 1]
        with no_grad():
            _, w_a = fusion_forward(x, gens, enc, heads)
            _, w_b = fusion_forward(x, [gens[i] for i in perm], enc, heads)
        assert np.allclose(w_b.data, w_a.data[:, perm], atol=1e-6)

    def test_permuted_generators_fuse_to_same_input(self):
        _, _, enc, gens, heads, x = toy_setup(n=3, variant="a_border")
        with no_grad():
            a, _ = fusion_forward(x, gens, enc, heads)
            b, _ = fusion_forward(x, [gens[i] for i in [1, 2, 0]], enc, heads)
        assert np.allclose(a.data, b.data, atol=1e-5)

    def test_infer_returns_valid_mask_and_weights(self):
        model, handle, enc, gens, heads, x = toy_setup(n=3)
        mask, w = infer(x, gens, enc, heads, handle, return_weights=True)
        assert mask.shape == (2, 16, 16)
        assert mask.dtype.kind in "iu"
        assert np.all((mask >= 0) & (mask < 4))
        assert w.shape == (2, 3)
        assert np.all((w > 0) & (w <= TANH1 + 1e-7))

    def test_infer_on_an_empty_batch(self):
        for variant in VARIANTS:
            _, handle, enc, gens, heads, x = toy_setup(n=3, variant=variant)
            mask, w = infer(x[:0], gens, enc, heads, handle, return_weights=True)
            assert mask.shape == (0, 16, 16) and mask.dtype == np.uint8
            assert w.shape == (0, 3)


class TestEndToEndGradient:
    def test_seeded_backward_matches_fd_of_prompted_input(self):
        """The chain d(prompted)/d(heads) is what the seeded backward computes.

        The training loop backpropagates an externally supplied cotangent
        through the fusion pass.  Checking <g, prompted(W)> against finite
        differences for a fixed random g validates exactly that mechanism;
        the cotangent the sealed model actually supplies is covered by its
        own input-gradient test.
        """
        with shadow_precision():
            model, handle, enc, gens, heads, _ = toy_setup(n=2, size=8)
            gens = [StylePromptGenerator(f"s{i}", "border", size=8,
                                         pad=2, seed=i) for i in range(2)]
            rng = np.random.default_rng(5)
            x = rng.uniform(0, 1, (2, 3, 8, 8))
            g = rng.normal(0, 1, (2, 3, 8, 8))

            def surrogate():
                with no_grad():
                    prompted, _ = fusion_forward(x, gens, enc, heads)
                return float((g * prompted.data).sum())

            with Tape() as tape:
                prompted, _ = fusion_forward(x, gens, enc, heads)
            tape.backward(prompted, seed=g)

            for leaf in (heads.wx.weight, heads.wp.weight, heads.wx.bias):
                flat = leaf.data.reshape(-1)
                coords = [0, flat.size // 2, flat.size - 1]
                num = np.zeros(len(coords))
                for k, j in enumerate(coords):
                    saved = flat[j]
                    flat[j] = saved + 1e-5
                    fp = surrogate()
                    flat[j] = saved - 1e-5
                    fm = surrogate()
                    flat[j] = saved
                    num[k] = (fp - fm) / 2e-5
                assert rel_err(leaf.grad.reshape(-1)[coords], num) < 1e-3


@pytest.fixture(scope="module")
def apf_smoke():
    """A short training run on a toy world, shared by the mechanism tests."""
    model, handle = toy_oracle(classes=6)
    enc = SharedEncoder.from_seg_model(model)
    gens = [StylePromptGenerator(f"s{i}", "border", size=16, pad=3,
                                 seed=i) for i in range(2)]
    heads = FusionHeads(feature_dim=enc.feature_dim, embed_dim=8, seed=0)
    dom = make_domain(DomainSpec(name="toy", scene=SceneSpec(seed=40, height=16, width=16),
                                 count=12))
    before = {
        "heads": clone_state(heads),
        "enc": clone_state(enc),
        "gens": [clone_state(g) for g in gens],
        "fp": handle.fingerprint,
    }
    losses = train_apf(heads, dom, gens, enc, handle,
                       ApfConfig(iters=30, batch=4, lr=1e-2), seed=3)
    return handle, enc, gens, heads, before, losses


class TestTrainApf:
    def test_loss_curve_is_finite(self, apf_smoke):
        _, _, _, _, _, losses = apf_smoke
        assert len(losses) == 30
        assert np.all(np.isfinite(losses))

    def test_only_heads_move(self, apf_smoke):
        handle, enc, gens, heads, before, _ = apf_smoke
        assert not states_equal(before["heads"], clone_state(heads))
        assert states_equal(before["enc"], clone_state(enc))
        for snap, g in zip(before["gens"], gens):
            assert states_equal(snap, clone_state(g))

    def test_oracle_fingerprint_unchanged(self, apf_smoke):
        handle, _, _, _, before, _ = apf_smoke
        assert handle.fingerprint == before["fp"]

    def test_empty_source_rejected(self):
        _, handle, enc, gens, heads, _ = toy_setup(n=2)
        with pytest.raises(ValueError):
            train_apf(heads, [], gens, enc, handle, ApfConfig(iters=1))

    def test_schedule_restarts(self):
        sched = _apf_schedule(ApfConfig(iters=800, lr=1e-3, min_lr=1e-5))
        assert sched.lr_at(0) == pytest.approx(1e-3)
        # lr decays within the first period of 100 steps, then jumps back
        assert sched.lr_at(99) < 2e-4
        assert sched.lr_at(100) == pytest.approx(1e-3)
        assert sched.lr_at(299) < sched.lr_at(150)

    def test_bad_hyper_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig(apf=ApfConfig(iters=-1)).validate()
        with pytest.raises(ValueError):
            ExperimentConfig(apf=ApfConfig(lr=0.0)).validate()


class TestHeadsPersistence:
    def test_round_trip_is_bitwise(self, tmp_path):
        _, _, enc, _, heads, _ = toy_setup(n=2)
        path = tmp_path / "heads.ckpt"
        save_heads(path, heads, enc.fingerprint())
        loaded = FusionHeads(feature_dim=enc.feature_dim, embed_dim=8, seed=1)
        assert not states_equal(clone_state(heads), clone_state(loaded))
        assert load_heads(path, loaded) == enc.fingerprint()
        assert states_equal(clone_state(heads), clone_state(loaded))

    def test_wrong_kind_rejected(self, tmp_path):
        gen = StylePromptGenerator("s", "border", size=16, pad=3)
        path = tmp_path / "gen.ckpt"
        save_generator(path, gen)
        with pytest.raises(FormatError):
            load_heads(path, FusionHeads(feature_dim=4, embed_dim=8))


FUSION_ARMS = [(pc, sm, th) for pc in (True, False) for sm in (True, False)
               for th in (True, False)]


@pytest.fixture(scope="module")
def memo_world():
    """A toy oracle and a 32 px source pool."""
    model, handle = toy_oracle(classes=6)
    dom = make_domain(DomainSpec(name="toy", scene=SceneSpec(seed=41, height=32, width=32),
                                 count=12))
    return model, handle, dom


def memo_gens():
    """One generator per kind of memo entry: ``a_border`` keeps (B, 4, C)
    coefficients, ``a_full`` a (B, C, H/8, W/8) map, ``border`` nothing."""
    return [StylePromptGenerator(f"s{i}", v, size=32, pad=3, depth=4, seed=i)
            for i, v in enumerate(("a_border", "a_full", "border"))]


def train_arm(world, enc, gens, arm, iters=5):
    """Heads of one fusion arm trained on ``enc``; returns their state."""
    _, handle, dom = world
    heads = FusionHeads(feature_dim=enc.feature_dim, embed_dim=8, seed=0)
    apf = ApfConfig(iters=iters, batch=4, lr=1e-2, per_channel=arm[0],
                    use_softmax=arm[1], use_tanh=arm[2])
    train_apf(heads, dom, gens, enc, handle, apf, seed=3)
    return clone_state(heads)


def the_table(enc):
    """The one table the encoder holds."""
    (table,) = enc.tables[1].values()
    return table


def table_parts(table):
    """{section: (filled rows, [(per-row shape, dtype) or None per part])}."""
    return {name: (filled.copy(), [None if a is None else (a.shape[1:], a.dtype) for a in parts])
            for name, (filled, parts) in table.sections.items()}


def table_arrays(enc):
    """Every array the encoder's tables hold."""
    return [a for table in enc.tables[1].values() for _, parts in table.sections.values()
            for a in parts if a is not None]


@pytest.fixture
def call_counts(monkeypatch):
    """Calls of the encoder and the modulators by name, and the rows encoded."""
    counts = {"encode": 0, "low_res": 0, "rows": 0}

    def counting(owner, name):
        real = getattr(owner, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            if name == "encode":
                counts["rows"] += len(args[1])
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    counting(SharedEncoder, "encode")
    counting(ModulatorNetwork, "low_res")
    return counts


class TestFrozenMemo:
    """The tables of frozen rows that fusion training fills."""

    def test_arm_heads_do_not_depend_on_earlier_arms(self, memo_world):
        model = memo_world[0]
        gens = memo_gens()
        alone = [train_arm(memo_world, SharedEncoder.from_seg_model(model), gens, arm)
                 for arm in FUSION_ARMS]
        for order in (FUSION_ARMS, FUSION_ARMS[::-1]):
            enc = SharedEncoder.from_seg_model(model)
            shared = {arm: train_arm(memo_world, enc, gens, arm) for arm in order}
            for arm, state in zip(FUSION_ARMS, alone):
                assert states_equal(shared[arm], state), arm

    def test_each_drawn_row_is_encoded_once(self, memo_world, call_counts):
        enc = SharedEncoder.from_seg_model(memo_world[0])
        gens = memo_gens()
        train_arm(memo_world, enc, gens, (True, True, True), iters=2)
        picker = stream(3, "apf-batches")  # train_apf's draws
        drawn = {int(i) for _ in range(2) for i in picker.integers(0, 12, size=4)}
        assert len(drawn) < 12  # never the whole pool
        # one image row and one prompt row per generator, per distinct sample
        assert call_counts["rows"] == (1 + len(gens)) * len(drawn)
        filled, _ = table_parts(the_table(enc))["base"]
        assert set(np.flatnonzero(filled)) == drawn

    def test_second_arm_skips_the_frozen_path(self, memo_world, call_counts):
        enc = SharedEncoder.from_seg_model(memo_world[0])
        train_arm(memo_world, enc, memo_gens(), (True, True, True))
        assert call_counts["encode"] > 0 and call_counts["low_res"] > 0
        call_counts.update(encode=0, low_res=0)
        # equal weights in new generator objects: the tables are keyed by content
        train_arm(memo_world, enc, memo_gens(), (True, False, True))
        assert call_counts["encode"] == call_counts["low_res"] == 0

    def test_changed_weights_invalidate_the_memo(self, memo_world, call_counts):
        enc = SharedEncoder.from_seg_model(memo_world[0])
        gens = memo_gens()
        arm = (True, True, True)
        train_arm(memo_world, enc, gens, arm)
        for weight in (gens[0].modulator.head.weight, enc.stage[0].conv.weight):
            weight.data[0, 0, 0, 0] = 0.5
            call_counts.update(encode=0, low_res=0)
            train_arm(memo_world, enc, gens, arm, iters=1)
            # fresh rows: images and prompts encoded, both modulators run
            assert call_counts["encode"] == call_counts["low_res"] == 2
            filled, _ = table_parts(the_table(enc))["base"]
            assert filled.sum() == len(set(stream(3, "apf-batches").integers(0, 12, size=4)))
        # a different generator set starts its own tables too
        call_counts.update(encode=0, low_res=0)
        train_arm(memo_world, enc, gens[:2], arm, iters=1)
        assert call_counts["encode"] == call_counts["low_res"] == 2

    def test_memo_holds_nothing_at_input_resolution(self, memo_world):
        model, handle, dom = memo_world
        enc = SharedEncoder.from_seg_model(model)
        gens = memo_gens()
        heads = FusionHeads(feature_dim=enc.feature_dim, embed_dim=8, seed=0)
        x = np.stack([s.image for s in dom])
        infer(x, gens, enc, heads, handle)
        assert enc.tables is None
        for arm in FUSION_ARMS[:2] + FUSION_ARMS[4:6]:
            train_arm(memo_world, enc, gens, arm)
        parts = table_parts(the_table(enc))
        # the image embedding and 2 modulator outputs (``border`` has none),
        # then the prompt embeddings and norms per ``per_channel`` setting
        assert {name: len([p for p in held if p]) for name, (_, held) in parts.items()} == {
            "base": 3, True: 2, False: 2}
        assert all(32 not in a.shape[1:] for a in table_arrays(enc))
        infer(x, gens, enc, heads, handle)
        assert repr(table_parts(the_table(enc))) == repr(parts)

    def test_memo_size_at_the_default_config(self):
        # the largest table the default pool can fill: a_full maps and both
        # prompt normalizations, scaled from the rows drawn to the 320 samples
        cfg = ExperimentConfig()
        size = cfg.data.size
        model = SegModel(6, stream(0, "memo-size"), widths=cfg.oracle.widths,
                         kernel=cfg.oracle.kernel)
        enc = SharedEncoder.from_seg_model(model)
        gens = [StylePromptGenerator(f"s{i}", "a_full", size=size,
                                     pad=cfg.spg.pad, depth=cfg.spg.depth, seed=i)
                for i in range(4)]
        dom = make_domain(DomainSpec(name="toy", scene=SceneSpec(seed=42, height=size,
                                                                 width=size), count=16))
        for per_channel in (True, False):
            apf = dataclasses.replace(cfg.apf, iters=2, per_channel=per_channel)
            heads = FusionHeads(feature_dim=enc.feature_dim, embed_dim=apf.embed_dim)
            train_apf(heads, dom, gens, enc, OracleHandle(model), apf)
        per_row = sum(a.nbytes for a in table_arrays(enc)) / len(dom)
        pool = 4 * cfg.data.styled_train + cfg.data.styled_train
        assert per_row * pool < 2e6


def eval_gens():
    """``memo_gens`` plus a ``full`` generator: one per report style."""
    gens = memo_gens() + [StylePromptGenerator("s3", "full", size=32,
                                               pad=3, depth=4, seed=3)]
    return {f"s{i}": g for i, g in enumerate(gens)}


def eval_arm(world, enc, gens, arm, seed=0, domains=None):
    """``stage_eval`` of one fusion arm with fresh heads, on the pool or on ``domains``."""
    _, handle, dom = world
    domains = {"toy": dom} if domains is None else domains
    cfg = ExperimentConfig(apf=ApfConfig(per_channel=arm[0], use_softmax=arm[1],
                                         use_tanh=arm[2]))
    heads = FusionHeads(feature_dim=enc.feature_dim, embed_dim=8, seed=seed)
    return stage_eval(cfg, domains, gens, enc, heads, handle, 0, tuple(domains))


class TestEvalMemo:
    """Evaluation reads and fills the same tables."""

    def test_second_arm_runs_only_its_heads(self, memo_world, call_counts):
        handle, dom = memo_world[1:]
        domains = {"toy": dom, "toy_head": dom[:5]}
        enc = SharedEncoder.from_seg_model(memo_world[0])
        eval_arm(memo_world, enc, eval_gens(), (True, True, True), domains=domains)
        assert call_counts["encode"] > 0 and call_counts["low_res"] > 0
        call_counts.update(encode=0, low_res=0)
        before = handle.queries["predict"]["calls"]
        eval_arm(memo_world, enc, eval_gens(), (True, False, True), seed=1, domains=domains)
        assert call_counts["encode"] == call_counts["low_res"] == 0
        # the baselines come from the tables: only the fused predictions run
        assert handle.queries["predict"]["calls"] == before + len(domains)

    def test_reused_results_equal_fresh_ones(self, memo_world):
        model = memo_world[0]
        enc = SharedEncoder.from_seg_model(model)
        eval_arm(memo_world, enc, eval_gens(), (True, True, True))
        for arm in FUSION_ARMS:
            shared = eval_arm(memo_world, enc, eval_gens(), arm, seed=1)
            fresh = eval_arm(memo_world, SharedEncoder.from_seg_model(model),
                             eval_gens(), arm, seed=1)
            # repr is exact for floats and equal for NaN
            assert repr(shared) == repr(fresh), arm

    def test_a_second_world_gets_its_own_rows(self, memo_world, call_counts):
        # same domain name, same frozen weights, other samples
        model = memo_world[0]
        other = make_domain(DomainSpec(name="toy", scene=SceneSpec(seed=44, height=32, width=32),
                                       count=12))
        enc = SharedEncoder.from_seg_model(model)
        eval_arm(memo_world, enc, eval_gens(), (True, True, True))
        call_counts.update(encode=0, low_res=0)
        shared = eval_arm(memo_world, enc, eval_gens(), (True, True, True),
                          domains={"toy": other})
        assert call_counts["encode"] > 0 and call_counts["low_res"] > 0
        fresh = eval_arm(memo_world, SharedEncoder.from_seg_model(model), eval_gens(),
                         (True, True, True), domains={"toy": other})
        assert repr(shared) == repr(fresh)
        assert len(enc.tables[1]) == 2

    def test_infer_without_an_entry_leaves_the_memo_alone(self, memo_world):
        model, handle, dom = memo_world
        enc = SharedEncoder.from_seg_model(model)
        gens = eval_gens()
        eval_arm(memo_world, enc, gens, (True, True, True))
        tables = enc.tables
        table = the_table(enc)
        held = [id(a) for _, parts in table.sections.values() for a in parts]
        parts = repr(table_parts(table))
        heads = FusionHeads(feature_dim=enc.feature_dim, embed_dim=8, seed=0)
        x = np.stack([s.image for s in dom])
        for batch in (x, x[:4]):
            infer(batch, list(gens.values()), enc, heads, handle, per_channel=False)
        assert enc.tables is tables and the_table(enc) is table
        assert [id(a) for _, parts in table.sections.values() for a in parts] == held
        assert repr(table_parts(table)) == parts

    def test_eval_entry_adds_the_baseline_mask(self, memo_world):
        model, _, dom = memo_world
        enc = SharedEncoder.from_seg_model(model)
        gens = eval_gens()
        arm = (True, True, True)
        train_arm(memo_world, enc, list(gens.values()), arm, iters=1)
        trained = table_parts(the_table(enc))
        assert set(trained) == {"base", True} and not trained["base"][0].all()
        eval_arm(memo_world, enc, gens, arm)
        evaluated = table_parts(the_table(enc))
        # the pool's table again: every row now, and one uint8 (H, W) mask each
        assert set(evaluated) == {"base", True, "mask"}
        assert all(filled.all() for filled, _ in evaluated.values())
        assert [evaluated[s][1] for s in ("base", True)] == [trained[s][1] for s in ("base", True)]
        assert evaluated["mask"][1] == [((32, 32), np.dtype(np.uint8))]
