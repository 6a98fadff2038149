import dataclasses
import re

import numpy as np
import pytest

from promptseg import pipeline
from promptseg.autograd import Tape, Tensor, no_grad, shadow_precision
from promptseg.autograd.tensor import ShapeError
from promptseg.config import ExperimentConfig, SpgConfig
from promptseg.datasets import DomainSpec, make_domain
from promptseg.errors import FormatError, KindMismatchError
from promptseg.oracle import OracleHandle, SegModel
from promptseg.prompts import (
    BorderTemplate,
    FullTemplate,
    ModulatorBlock,
    ModulatorNetwork,
    StylePromptGenerator,
    _spg_schedule,
    attach_prompt,
    load_generator,
    save_generator,
    train_spg,
)
from promptseg.autograd.layers import parameters, run_stages, tensor_arrays
from promptseg.scenes import SceneSpec
from promptseg.seeding import stream
from promptseg.styles import style_presets

from conftest import conv_bn_reference, numeric_grad, rel_err, tiny_experiment, vary_bn_state


def border_template(strategy, seed, size=64, pad=6):
    """A fresh border template drawn with the named strategy."""
    return BorderTemplate(size, pad, strategy, stream(seed, "template", strategy))


@pytest.fixture(scope="module")
def styled_subset():
    """A small stylized training subset for loop-level tests."""
    return make_domain(
        DomainSpec(
            name="cool_dim",
            scene=SceneSpec(seed=131),
            count=16,
            style_seed=12,
            style_mean=style_presets()["cool_dim"],
        )
    )


class TestInitStrategies:
    def test_zero_is_all_zero(self):
        t = border_template("zero", seed=1)
        assert all(not np.any(s.data) for s in t.tensors().values())

    def test_normal_std_in_window(self):
        # larger dims push the parameter count past 1e4 so the window is tight
        t = border_template("normal", seed=2, size=128, pad=8)
        flat = np.concatenate([s.data.ravel() for s in t.tensors().values()])
        assert flat.size >= 10_000
        assert 0.08 < flat.std() < 0.12
        assert abs(flat.mean()) < 0.01

    def test_uniform_mean_in_window(self):
        t = border_template("uniform", seed=3, size=128, pad=8)
        flat = np.concatenate([s.data.ravel() for s in t.tensors().values()])
        assert 0.45 < flat.mean() < 0.55
        assert flat.min() >= 0.0 and flat.max() <= 1.0

    def test_meta_draws_like_normal_until_pretrained(self):
        t = border_template("meta", seed=4, size=128, pad=8)
        flat = np.concatenate([s.data.ravel() for s in t.tensors().values()])
        assert 0.08 < flat.std() < 0.12

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError):
            border_template("xavier", seed=0)


class TestBorderTemplate:
    def test_center_is_exactly_zero(self):
        t = border_template("normal", seed=5)
        canvas = t.assemble(None, batch=2)
        assert canvas.shape == (2, 3, 64, 64)
        assert not np.any(canvas.data[:, :, 6:58, 6:58])

    def test_center_zero_under_modulation(self, rng):
        t = border_template("normal", seed=6)
        alpha = Tensor(rng.normal(size=(3, 4, 3)).astype(np.float32))
        canvas = t.assemble(alpha)
        assert canvas.shape == (3, 3, 64, 64)
        assert not np.any(canvas.data[:, :, 6:58, 6:58])

    def test_canvas_sum_equals_side_sum(self):
        t = border_template("normal", seed=7)
        canvas = t.assemble(None, batch=1)
        total = sum(float(s.data.sum()) for s in t.tensors().values())
        np.testing.assert_allclose(canvas.data.sum(), total, rtol=1e-5)

    def test_disassemble_recovers_modulated_sides(self, rng):
        t = border_template("normal", seed=8)
        alpha = rng.normal(size=(2, 4, 3)).astype(np.float32)
        canvas = t.assemble(Tensor(alpha))
        c, p = canvas.data, t.pad
        back = {"top": c[..., :p, :], "bottom": c[..., 64 - p:, :],
                "left": c[..., p:64 - p, :p], "right": c[..., p:64 - p, 64 - p:]}
        for i, name in enumerate(("top", "bottom", "left", "right")):
            expect = getattr(t, name).data[None] * alpha[:, i, :, None, None]
            np.testing.assert_array_equal(back[name], expect)

    def test_identity_and_zero_modulation(self):
        t = border_template("normal", seed=9)
        plain = t.assemble(None, batch=2)
        ones = t.assemble(Tensor(np.ones((2, 4, 3), np.float32)))
        np.testing.assert_array_equal(ones.data, plain.data)
        zeros = t.assemble(Tensor(np.zeros((2, 4, 3), np.float32)))
        assert not np.any(zeros.data)

    def test_single_channel_doubles_alone(self):
        t = border_template("normal", seed=10)
        alpha = np.ones((1, 4, 3), np.float32)
        alpha[:, :, 1] = 2.0
        mod = t.assemble(Tensor(alpha)).data
        ref = t.assemble(None, batch=1).data
        np.testing.assert_array_equal(mod[:, 1], 2.0 * ref[:, 1])
        np.testing.assert_array_equal(mod[:, [0, 2]], ref[:, [0, 2]])

    def test_bad_pad_rejected(self):
        with pytest.raises(ShapeError):
            BorderTemplate(64, 32, "zero", stream(0, "t"))

    def test_bad_alpha_shape_rejected(self):
        t = border_template("zero", seed=0)
        with pytest.raises(ShapeError):
            t.assemble(Tensor(np.zeros((1, 4, 5), np.float32)))


class TestModulator:
    def test_coefficient_shape(self, rng):
        m = ModulatorNetwork(depth=8, mode="coeffs", rng=stream(0, "m"))
        x = Tensor(rng.normal(size=(2, 3, 64, 64)).astype(np.float32))
        out = m.low_res(x)
        assert out.shape == (2, 4, 3)
        assert m.expand(out, 64) is out

    def test_backbone_is_eighth_resolution(self, rng):
        m = ModulatorNetwork(depth=8, mode="coeffs", rng=stream(0, "m"))
        x = Tensor(rng.normal(size=(2, 3, 64, 64)).astype(np.float32))
        feats = run_stages(m.block, x, training=False)
        assert feats.shape == (2, 32, 8, 8)

    def test_map_mode_matches_input_resolution(self, rng):
        m = ModulatorNetwork(depth=4, mode="map", rng=stream(0, "m"))
        x = Tensor(rng.normal(size=(2, 3, 16, 16)).astype(np.float32))
        low = m.low_res(x)
        assert low.shape == (2, 3, 2, 2)
        assert m.expand(low, 16).shape == (2, 3, 16, 16)

    def test_rejects_unaligned_input(self, rng):
        m = ModulatorNetwork(depth=4, mode="coeffs", rng=stream(0, "m"))
        with pytest.raises(ShapeError):
            m.low_res(Tensor(np.zeros((1, 3, 12, 12), np.float32)))

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            ModulatorNetwork(depth=4, mode="pool", rng=stream(0, "m"))

    def test_eval_block_matches_float64_conv_then_batch_norm(self, rng):
        block = ModulatorBlock(3, 4, stream(0, "block"))
        for conv, bn in ((block.conv1, block.bn1), (block.conv2, block.bn2),
                         (block.proj, block.proj_bn)):
            conv.bias.data[...] = rng.normal(0.0, 0.5, conv.bias.shape)
            vary_bn_state(bn, rng)
        x = rng.normal(size=(2, 3, 8, 8)).astype(np.float32)
        out = block(Tensor(x), training=False)
        main = np.maximum(conv_bn_reference(block.conv1, block.bn1, x), 0.0)
        main = conv_bn_reference(block.conv2, block.bn2, main)
        ref = np.maximum(main + conv_bn_reference(block.proj, block.proj_bn, x), 0.0)
        np.testing.assert_allclose(out.data, ref, rtol=1e-4, atol=1e-4)

    def test_parameter_gradients_match_finite_differences(self, rng):
        # batch-norm curvature makes f32 differencing too noisy; build the
        # network in f64 shadow precision for a clean comparison
        with shadow_precision():
            m = ModulatorNetwork(depth=4, mode="coeffs", rng=stream(1, "fd"))
            x = Tensor(rng.normal(size=(2, 3, 8, 8)))
        r = rng.normal(size=(2, 4, 3))

        def run():
            out = m.low_res(x, training=True)
            return float((out.data * r).sum())

        with Tape() as tape:
            out = m.low_res(x, training=True)
            tape.backward(out, seed=r)

        for name in ("block0.conv1.weight", "head.weight"):
            leaf = m.tensors()[name]
            coords = sorted(rng.choice(leaf.size, min(20, leaf.size), replace=False).tolist())
            num = numeric_grad(run, leaf, eps=1e-4, coords=coords)
            a = leaf.grad.reshape(-1)[coords]
            n = num.reshape(-1)[coords]
            assert rel_err(a, n) < 1e-3, name


class TestGeneratorVariants:
    def test_border_ignores_input(self, rng):
        gen = StylePromptGenerator("s", "border", seed=1)
        a = gen.generate(rng.uniform(0, 1, (2, 3, 64, 64)).astype(np.float32))
        b = gen.generate(rng.uniform(0, 1, (2, 3, 64, 64)).astype(np.float32))
        np.testing.assert_array_equal(a.data, b.data)

    def test_adaptive_border_depends_on_input(self, rng):
        gen = StylePromptGenerator("s", "a_border", seed=1)
        a = gen.generate(rng.uniform(0, 1, (1, 3, 64, 64)).astype(np.float32))
        b = gen.generate(rng.uniform(0, 1, (1, 3, 64, 64)).astype(np.float32))
        assert not np.array_equal(a.data, b.data)

    def test_adaptive_border_center_zero_for_any_input(self, rng):
        gen = StylePromptGenerator("s", "a_border", seed=2)
        for _ in range(3):
            p = gen.generate(rng.uniform(0, 1, (2, 3, 64, 64)).astype(np.float32))
            assert not np.any(p.data[:, :, 6:58, 6:58])

    def test_full_is_template_broadcast(self, rng):
        gen = StylePromptGenerator("s", "full", seed=3)
        x = rng.uniform(0, 1, (2, 3, 64, 64)).astype(np.float32)
        p = gen.generate(x)
        np.testing.assert_array_equal(p.data[0], gen.template.canvas.data)
        np.testing.assert_array_equal(p.data[1], gen.template.canvas.data)

    def test_bad_pixel_map_shape_rejected(self):
        t = FullTemplate(16, "zero", stream(0, "t"))
        for shape in ((1, 3, 16, 8), (3, 16, 16), (2, 1, 16, 16)):
            with pytest.raises(ShapeError):
                t.assemble(Tensor(np.zeros(shape, np.float32)))

    def test_adaptive_full_covers_center(self, rng):
        gen = StylePromptGenerator("s", "a_full", seed=4)
        x = rng.uniform(0, 1, (1, 3, 64, 64)).astype(np.float32)
        p = gen.generate(x)
        assert p.shape == (1, 3, 64, 64)
        assert np.any(p.data[:, :, 20:40, 20:40])

    def test_prompt_linear_in_template(self, rng):
        # doubling the template doubles the prompt bit-exactly (same input)
        x = rng.uniform(0, 1, (2, 3, 64, 64)).astype(np.float32)
        gen = StylePromptGenerator("s", "a_border", seed=5)
        before = gen.generate(x).data.copy()
        for side in gen.template.tensors().values():
            side.data *= 2.0
        np.testing.assert_array_equal(gen.generate(x).data, 2.0 * before)

    def test_parameter_counts_frozen(self):
        counts = {
            v: sum(t.size for t in parameters(StylePromptGenerator("s", v).tensors()))
            for v in ("border", "a_border", "full", "a_full")
        }
        assert counts == {"border": 4176, "a_border": 23812, "full": 12288, "a_full": 31627}

    def test_bad_variant_and_input_shape(self, rng):
        with pytest.raises(ValueError):
            StylePromptGenerator("s", "ring")
        gen = StylePromptGenerator("s", "border")
        with pytest.raises(ShapeError):
            gen.generate(np.zeros((1, 3, 32, 32), np.float32))


class TestAttach:
    def test_zero_prompt_is_identity(self, rng):
        x = rng.uniform(0, 1, (2, 3, 8, 8)).astype(np.float32)
        out = attach_prompt(x, Tensor(np.zeros_like(x)))
        np.testing.assert_array_equal(out.data, x)

    def test_attach_then_detach_round_trip(self, rng):
        x = rng.uniform(0, 1, (2, 3, 8, 8)).astype(np.float32)
        p = rng.normal(size=(2, 3, 8, 8)).astype(np.float32)
        back = attach_prompt(attach_prompt(x, Tensor(p)).data, Tensor(-p))
        np.testing.assert_allclose(back.data, x, atol=1e-6)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            attach_prompt(np.zeros((1, 3, 8, 8), np.float32),
                          Tensor(np.zeros((1, 3, 4, 4), np.float32)))


class TestEndToEndGradient:
    def test_template_and_modulator_grads_through_sealed_oracle(self, rng):
        oracle = OracleHandle(SegModel(4, stream(9, "toy"), widths=(4, 6, 8)))
        gen = StylePromptGenerator("s", "a_border", size=8,
                                   pad=2, depth=4, seed=2)
        xb = rng.uniform(0.2, 0.8, (2, 3, 8, 8)).astype(np.float32)
        yb = rng.integers(0, 4, (2, 8, 8))

        with Tape() as tape:
            prompt = gen.generate(xb, training=True)
            prompted = attach_prompt(xb, prompt)
        _, grad_x = oracle.input_grad(prompted.data, yb)
        tape.backward(prompted, seed=grad_x)

        def run():
            p = gen.generate(xb, training=True)
            return oracle.input_grad(xb + p.data, yb)[0]

        named = gen.tensors()
        for name in ("template.top", "template.left", "modulator.head.weight"):
            leaf = named[name]
            coords = sorted(rng.choice(leaf.size, min(24, leaf.size), replace=False).tolist())
            num = numeric_grad(run, leaf, eps=1e-2, coords=coords)
            a = leaf.grad.reshape(-1)[coords]
            n = num.reshape(-1)[coords]
            assert rel_err(a, n) < 1e-2, name


@pytest.fixture(scope="module")
def tiny_world():
    """The tiny experiment's domains and its sealed oracle."""
    cfg = tiny_experiment()
    domains = pipeline.stage_data(cfg)
    return cfg, domains, pipeline.stage_oracle(cfg, domains)[1]


def spg_arrays(cfg, domains, oracle, **spg):
    """{style: {name: bytes}} of the generators ``stage_spg`` trains for seed 0
    under ``cfg`` with the ``spg`` fields replaced."""
    cfg = dataclasses.replace(cfg, spg=dataclasses.replace(cfg.spg, **spg))
    gens = pipeline.stage_spg(cfg, domains, oracle, 0)
    return {style: {k: v.tobytes() for k, v in tensor_arrays(gen.tensors()).items()}
            for style, gen in gens.items()}


class TestTrainSpg:
    def test_loss_decreases_and_oracle_untouched(self, base_oracle, styled_subset):
        _, oracle, _ = base_oracle
        before = oracle.fingerprint
        gen = StylePromptGenerator("cool_dim", "a_border", seed=3)
        init_bytes = {k: v.tobytes() for k, v in tensor_arrays(gen.tensors()).items()}
        hyper = SpgConfig(iters=40, batch=8, lr=0.1)
        losses = train_spg(gen, styled_subset, oracle, hyper, seed=7)
        assert len(losses) == 40
        assert np.mean(losses[-10:]) < np.mean(losses[:10])
        assert oracle.current_fingerprint() == before
        moved = [k for k, v in tensor_arrays(gen.tensors()).items()
                 if v.tobytes() != init_bytes[k]]
        assert any(k.startswith("template.") for k in moved)
        assert any(k.startswith("modulator.") for k in moved)

    def test_fixed_border_variant_trains_too(self, base_oracle, styled_subset):
        _, oracle, _ = base_oracle
        gen = StylePromptGenerator("cool_dim", "border", seed=4)
        losses = train_spg(gen, styled_subset, oracle, SpgConfig(iters=40, batch=8, lr=0.1), seed=8)
        assert np.mean(losses[-10:]) < np.mean(losses[:10])

    def test_meta_pretrain_zero_iters_is_noop(self, tiny_world):
        # init meta draws the normal template, so with no warm-up every
        # generator stage_spg trains is bit-equal to init normal's
        cfg, domains, oracle = tiny_world
        gens = {init: spg_arrays(cfg, domains, oracle, init=init, meta_iters=0)
                for init in ("meta", "normal")}
        assert gens["meta"] == gens["normal"]

    def test_meta_pretrain_moves_parameters(self, tiny_world):
        # with the main training off, the warm-up alone moves every generator
        cfg, domains, oracle = tiny_world
        cold, warm = (spg_arrays(cfg, domains, oracle, init="meta", iters=0, meta_iters=n)
                      for n in (0, 4))
        assert cold.keys() == warm.keys() == set(pipeline.STYLE_NAMES)
        for style in cold:
            assert cold[style] != warm[style], style

    def test_schedule_steps_down_at_milestone_fractions(self):
        sched = _spg_schedule(SpgConfig(iters=240, lr=1.0))
        assert sched.lr_at(149) == 1.0
        assert sched.lr_at(150) == pytest.approx(0.1)
        assert sched.lr_at(180) == pytest.approx(0.01)
        assert sched.lr_at(210) == pytest.approx(0.001)

    def test_empty_domain_and_bad_hyper_rejected(self, base_oracle):
        _, oracle, _ = base_oracle
        gen = StylePromptGenerator("s", "border")
        with pytest.raises(ValueError):
            train_spg(gen, [], oracle, SpgConfig())
        with pytest.raises(ValueError):
            ExperimentConfig(spg=SpgConfig(lr=0.0)).validate()


class TestPersistence:
    def test_round_trip_preserves_everything(self, tmp_path, rng):
        gen = StylePromptGenerator("warm_hazy", "a_border", init="meta", seed=6)
        path = tmp_path / "gen.ckpt"
        save_generator(path, gen)
        # a generator built as the config builds it, with another seed's weights
        back = StylePromptGenerator("warm_hazy", "a_border", init="meta", seed=7)
        load_generator(path, back)
        orig = tensor_arrays(gen.tensors())
        for name, arr in tensor_arrays(back.tensors()).items():
            np.testing.assert_array_equal(arr, orig[name])
        x = rng.uniform(0, 1, (2, 3, 64, 64)).astype(np.float32)
        with no_grad():
            np.testing.assert_array_equal(back.generate(x).data, gen.generate(x).data)

    def test_wrong_kind_rejected(self, tmp_path):
        from promptseg.checkpoint import save_checkpoint

        path = tmp_path / "not_a_generator.ckpt"
        save_checkpoint(path, "ORCL", {"a": np.zeros(2, np.float32)})
        with pytest.raises(KindMismatchError):
            load_generator(path, StylePromptGenerator("s", "border"))

    def test_file_that_describes_itself_rejected(self, tmp_path):
        # the layout before the config became the one description of a
        # generator: its tensors plus meta.* records, under a valid CRC
        from promptseg.checkpoint import save_checkpoint

        gen = StylePromptGenerator("warm_hazy", "a_border")
        tags = {"meta.variant": "a_border", "meta.init": "normal", "meta.style": "warm_hazy"}
        arrays = tensor_arrays(gen.tensors())
        arrays |= {k: np.frombuffer(v.encode(), np.uint8).astype(np.float32)
                   for k, v in tags.items()}
        arrays["meta.dims"] = np.array([3, 64, 64, 6, 8], np.float32)
        path = tmp_path / "spg_warm_hazy.ckpt"
        save_checkpoint(path, "SPGN", arrays)
        with pytest.raises(FormatError, match=re.escape(f"{path}: not the configured SPGN "
                                                        "module: extra records") + ".*meta.dims"):
            load_generator(path, StylePromptGenerator("warm_hazy", "a_border"))

    def test_other_variant_rejected(self, tmp_path):
        path = tmp_path / "gen.ckpt"
        save_generator(path, StylePromptGenerator("s", "a_border"))
        with pytest.raises(FormatError):
            load_generator(path, StylePromptGenerator("s", "a_full"))
