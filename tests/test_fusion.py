"""Fusion stage: shared encoder, attention heads, weight squashing, blending."""

import dataclasses

import numpy as np
import pytest

from promptseg.autograd import Tape, Tensor, no_grad, shadow_precision
from promptseg.autograd import ops
from promptseg.autograd.layers import tensor_arrays
from promptseg.autograd.tensor import ShapeError
from promptseg.errors import FormatError
from promptseg.config import ApfConfig, ExperimentConfig
from promptseg.fusion import (
    FrozenBatch,
    FusionHeads,
    SharedEncoder,
    _apf_schedule,
    attention_scores,
    collect_prompts,
    fusion_forward,
    fusion_weights,
    infer,
    load_heads,
    save_heads,
    train_apf,
)
from promptseg.datasets import DomainSpec, make_domain
from promptseg.oracle import OracleHandle, SegModel
from promptseg.prompts import ModulatorNetwork, StylePromptGenerator, save_generator
from promptseg.scenes import SceneSpec
from promptseg.seeding import stream

from conftest import rel_err

TANH1 = float(np.tanh(1.0))


def toy_oracle(seed=0, classes=4):
    model = SegModel(classes, stream(seed, "toy-oracle"), widths=(4, 6, 8), kernel=3)
    return model, OracleHandle(model)


def random_encoder(seed):
    """A frozen encoder with random weights drawn from its own seed stream."""
    return SharedEncoder(stream(seed, "enc-random"), widths=(4, 6, 8), kernel=3)


def toy_setup(n=3, size=16, variant="border", seed=0):
    model, handle = toy_oracle(seed)
    enc = SharedEncoder.from_seg_model(model)
    gens = [
        StylePromptGenerator(f"s{i}", variant, height=size, width=size, pad=3,
                             depth=8, seed=seed + i)
        for i in range(n)
    ]
    heads = FusionHeads(feature_dim=enc.feature_dim, embed_dim=8, seed=seed)
    rng = np.random.default_rng(seed + 99)
    x = rng.uniform(0.0, 1.0, (2, 3, size, size)).astype(np.float32)
    return model, handle, enc, gens, heads, x


def encoded_scores(enc, heads, x, prompts):
    """Attention scores of images ``x`` and a prompt stack, both encoded afresh."""
    b, n = prompts.shape[:2]
    flat = prompts.reshape((b * n,) + prompts.shape[2:])
    return attention_scores(heads, enc.encode(x), enc.encode(flat))


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
        stack = collect_prompts(gens, x)
        assert type(stack) is np.ndarray
        assert stack.shape == (2, 3, 3, 16, 16)

    def test_channel_norms_are_unit(self):
        _, _, _, gens, _, x = toy_setup(n=4, variant="a_border")
        stack = collect_prompts(gens, x, per_channel=True)
        norms = np.linalg.norm(stack.reshape(2, 4, 3, -1), axis=3)
        assert np.all(np.abs(norms - 1.0) < 1e-5)

    def test_whole_tensor_norms_are_unit(self):
        _, _, _, gens, _, x = toy_setup(n=2)
        stack = collect_prompts(gens, x, per_channel=False)
        norms = np.linalg.norm(stack.reshape(2, 2, -1), axis=2)
        assert np.all(np.abs(norms - 1.0) < 1e-5)
        chan = np.linalg.norm(stack.reshape(2, 2, 3, -1), axis=3)
        assert not np.all(np.abs(chan - 1.0) < 1e-5)

    def test_zero_prompt_survives_normalization(self):
        # the epsilon guard must return zeros, not NaN
        _, _, _, _, _, x = toy_setup()
        gen = StylePromptGenerator("z", "border", height=16, width=16, pad=3,
                                  init="zero")
        stack = collect_prompts([gen], x)
        assert np.all(stack == 0.0)

    def test_empty_generator_list_rejected(self):
        _, _, _, _, _, x = toy_setup()
        with pytest.raises(ValueError):
            collect_prompts([], x)


class TestAttentionScores:
    def test_score_shape(self):
        _, _, enc, gens, heads, x = toy_setup(n=3)
        prompts = collect_prompts(gens, x)
        with no_grad():
            scores = encoded_scores(enc, heads, x, prompts)
        assert scores.shape == (2, 3)

    def test_zero_query_head_gives_zero_scores(self):
        _, _, enc, gens, heads, x = toy_setup(n=3)
        heads.wx.weight.data[...] = 0.0
        heads.wx.bias.data[...] = 0.0
        prompts = collect_prompts(gens, x)
        with no_grad():
            scores = encoded_scores(enc, heads, x, prompts)
        assert np.all(scores.data == 0.0)

    def test_duplicate_generators_give_equal_columns(self):
        _, _, enc, gens, heads, x = toy_setup(n=2)
        prompts = collect_prompts([gens[0], gens[0], gens[1]], x)
        with no_grad():
            scores = encoded_scores(enc, heads, x, prompts)
        assert np.array_equal(scores.data[:, 0], scores.data[:, 1])

    def test_head_gradients_match_finite_differences(self):
        with shadow_precision():
            _, _, enc, gens, heads, x = toy_setup(n=2, size=8)
            gens = [StylePromptGenerator(f"s{i}", "border", height=8, width=8,
                                         pad=2, seed=i) for i in range(2)]
            prompts = collect_prompts(gens, x[:, :, :8, :8])
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


class TestFusePrompts:
    def test_one_hot_selects_single_prompt(self, rng):
        stack = rng.normal(0, 1, (2, 3, 3, 4, 4)).astype(np.float32)
        w = np.zeros((2, 3), np.float32)
        w[:, 1] = 1.0
        fused = ops.weighted_sum(Tensor(w), stack)
        assert np.allclose(fused.data, stack[:, 1], atol=1e-7)

    def test_zero_weights_give_zero(self, rng):
        stack = rng.normal(0, 1, (2, 3, 3, 4, 4)).astype(np.float32)
        fused = ops.weighted_sum(Tensor(np.zeros((2, 3), np.float32)), stack)
        assert np.all(fused.data == 0.0)

    def test_linear_in_weights(self, rng):
        stack = rng.normal(0, 1, (2, 4, 3, 4, 4)).astype(np.float32)
        w = rng.uniform(0, 1, (2, 4)).astype(np.float32)
        once = ops.weighted_sum(Tensor(w.copy()), stack)
        twice = ops.weighted_sum(Tensor(2.0 * w), stack)
        assert np.array_equal(twice.data, 2.0 * once.data)

    def test_matches_explicit_sum(self, rng):
        stack = rng.normal(0, 1, (2, 3, 3, 4, 4)).astype(np.float32)
        w = rng.uniform(0, 1, (2, 3)).astype(np.float32)
        fused = ops.weighted_sum(Tensor(w.copy()), stack)
        manual = sum(w[:, i, None, None, None] * stack[:, i] for i in range(3))
        assert np.allclose(fused.data, manual, atol=1e-6)


class TestFusionForward:
    def test_matches_step_by_step_composition(self):
        _, _, enc, gens, heads, x = toy_setup(n=3, variant="a_border")
        frozen = FrozenBatch()
        with no_grad():
            prompted, weights = fusion_forward(x, gens, enc, heads, frozen=frozen)
            # the stack fusion_forward fused, rebuilt from the batch's
            # modulator outputs, against one generated step by step
            prompts = collect_prompts(gens, x, lows=frozen.lows)
            manual_prompts = collect_prompts(gens, x)
            scores = encoded_scores(enc, heads, x, manual_prompts)
            manual_w = fusion_weights(scores)
            manual = x + ops.weighted_sum(manual_w, manual_prompts).data
        assert np.array_equal(prompts, manual_prompts)
        assert np.array_equal(weights.data, manual_w.data)
        assert np.array_equal(prompted.data, manual)

    def test_single_generator_reduces_to_tanh_one_attachment(self):
        model, handle, enc, gens, heads, x = toy_setup(n=1)
        got = infer(x, gens[:1], enc, heads, handle)
        with no_grad():
            p = collect_prompts(gens[:1], x)[:, 0]
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
            gens = [StylePromptGenerator(f"s{i}", "border", height=8, width=8,
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
    gens = [StylePromptGenerator(f"s{i}", "border", height=16, width=16, pad=3,
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
        loaded, fp = load_heads(path)
        assert fp == enc.fingerprint()
        assert states_equal(clone_state(heads), clone_state(loaded))

    def test_wrong_kind_rejected(self, tmp_path):
        gen = StylePromptGenerator("s", "border", height=16, width=16, pad=3)
        path = tmp_path / "gen.ckpt"
        save_generator(path, gen)
        with pytest.raises(FormatError):
            load_heads(path)


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
    return [StylePromptGenerator(f"s{i}", v, height=32, width=32, pad=3, depth=4, seed=i)
            for i, v in enumerate(("a_border", "a_full", "border"))]


def train_arm(world, enc, gens, arm, iters=5):
    """Heads of one fusion arm trained on ``enc``; returns their state."""
    _, handle, dom = world
    heads = FusionHeads(feature_dim=enc.feature_dim, embed_dim=8, seed=0)
    apf = ApfConfig(iters=iters, batch=4, lr=1e-2, per_channel=arm[0],
                    use_softmax=arm[1], use_tanh=arm[2])
    train_apf(heads, dom, gens, enc, handle, apf, seed=3)
    return clone_state(heads)


def memo_arrays(memo):
    """Every array the memo holds, over all its batches."""
    parts = [t for b in memo.batches.values()
             for t in b.lows + [b.image_emb] + list(b.prompt_emb.values())]
    return [t.data for t in parts if t is not None]


@pytest.fixture
def call_counts(monkeypatch):
    """Counts of encoder and modulator calls, by name."""
    counts = {"encode": 0, "low_res": 0}

    def counting(owner, name):
        real = getattr(owner, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    counting(SharedEncoder, "encode")
    counting(ModulatorNetwork, "low_res")
    return counts


class TestFrozenMemo:
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

    def test_second_arm_skips_the_frozen_path(self, memo_world, call_counts):
        enc = SharedEncoder.from_seg_model(memo_world[0])
        train_arm(memo_world, enc, memo_gens(), (True, True, True))
        assert call_counts["encode"] > 0 and call_counts["low_res"] > 0
        call_counts.update(encode=0, low_res=0)
        # equal weights in new generator objects: the memo is keyed by content
        train_arm(memo_world, enc, memo_gens(), (True, False, True))
        assert call_counts == {"encode": 0, "low_res": 0}

    def test_changed_weights_invalidate_the_memo(self, memo_world, call_counts):
        enc = SharedEncoder.from_seg_model(memo_world[0])
        gens = memo_gens()
        arm = (True, True, True)
        train_arm(memo_world, enc, gens, arm)
        for weight in (gens[0].modulator.head.weight, enc.stage[0].conv.weight):
            weight.data[0, 0, 0, 0] = 0.5
            call_counts.update(encode=0, low_res=0)
            train_arm(memo_world, enc, gens, arm, iters=1)
            assert call_counts == {"encode": 2, "low_res": 2}
            assert len(enc.memo.batches) == 1
        # a different generator set starts its own memo too
        call_counts.update(encode=0, low_res=0)
        train_arm(memo_world, enc, gens[:2], arm, iters=1)
        assert call_counts == {"encode": 2, "low_res": 2}

    def test_memo_holds_nothing_at_input_resolution(self, memo_world):
        model, handle, dom = memo_world
        enc = SharedEncoder.from_seg_model(model)
        gens = memo_gens()
        heads = FusionHeads(feature_dim=enc.feature_dim, embed_dim=8, seed=0)
        x = np.stack([s.image for s in dom])
        infer(x, gens, enc, heads, handle)
        assert enc.memo is None
        for arm in FUSION_ARMS[:2] + FUSION_ARMS[4:6]:
            train_arm(memo_world, enc, gens, arm)
        entries = len(enc.memo.batches)
        arrays = memo_arrays(enc.memo)
        # per batch: 2 modulator outputs, image and 2 prompt embeddings
        assert len(arrays) == 5 * entries
        assert all(32 not in a.shape for a in arrays)
        infer(x, gens, enc, heads, handle)
        assert len(enc.memo.batches) == entries

    def test_memo_size_at_the_default_config(self):
        # the largest memo the default world can fill: a_full maps and both
        # prompt normalizations, scaled from two batches to the full budget
        cfg = ExperimentConfig()
        size = cfg.data.size
        model = SegModel(6, stream(0, "memo-size"), widths=cfg.oracle.widths,
                         kernel=cfg.oracle.kernel)
        enc = SharedEncoder.from_seg_model(model)
        gens = [StylePromptGenerator(f"s{i}", "a_full", height=size, width=size,
                                     pad=cfg.spg.pad, depth=cfg.spg.depth, seed=i)
                for i in range(4)]
        dom = make_domain(DomainSpec(name="toy", scene=SceneSpec(seed=42, height=size,
                                                                 width=size), count=16))
        for per_channel in (True, False):
            apf = dataclasses.replace(cfg.apf, iters=2, per_channel=per_channel)
            heads = FusionHeads(feature_dim=enc.feature_dim, embed_dim=apf.embed_dim)
            train_apf(heads, dom, gens, enc, OracleHandle(model), apf)
        per_batch = sum(a.nbytes for a in memo_arrays(enc.memo)) / len(enc.memo.batches)
        assert per_batch * cfg.apf.iters < 25e6
