import numpy as np
import pytest

from promptseg.autograd import Tensor
from promptseg.autograd import ops
from promptseg.autograd.layers import parameters
from promptseg.datasets import DomainSpec, make_domain, stack_images, stack_masks
from promptseg.metrics import miou
from promptseg.oracle import (
    OracleHandle,
    SegModel,
    load_oracle,
    save_oracle,
)
from promptseg.scenes import SceneSpec
from promptseg.seeding import stream

from conftest import numeric_grad, pretrained, rel_err


def tiny_domain(seed, count=16, size=64):
    spec = DomainSpec(name="base", scene=SceneSpec(seed=seed, height=size, width=size), count=count)
    return make_domain(spec)


@pytest.fixture(scope="module")
def trained(base_world, base_oracle):
    """The session-trained oracle with its world, in this module's tuple layout.

    The shared budget (128 scenes, 1500 iterations) is the reference recipe
    that the val-mIoU threshold below was frozen against.
    """
    train, val = base_world
    model, handle, losses = base_oracle
    return model, handle, train, val, losses


class TestSegModel:
    def test_output_shape_matches_input(self, rng):
        model = SegModel(6, stream(0, "t"))
        x = Tensor(rng.uniform(0, 1, (2, 3, 32, 32)).astype(np.float32))
        out = model.forward(x, training=True)
        assert out.shape == (2, 6, 32, 32)

    def test_rejects_unaligned_dims(self, rng):
        model = SegModel(6, stream(0, "t"))
        x = Tensor(np.zeros((1, 3, 30, 32), np.float32))
        with pytest.raises(ValueError):
            model.forward(x)

    def test_parameter_count_scale(self):
        model = SegModel(6, stream(0, "t"))
        n = sum(t.size for t in parameters(model.tensors()))
        assert 50_000 < n < 80_000  # the design point is a ~60k-parameter CNN


class TestPretrain:
    def test_zero_iters_returns_untrained_model_at_chance(self):
        val = tiny_domain(7, count=6)
        model, losses = pretrained(val, iters=0, seed=1)
        assert losses == []
        handle = OracleHandle(model)
        pred = handle.predict_mask(stack_images(val))
        _, mean = miou(pred, stack_masks(val), 6)
        assert mean < 0.35  # untrained output is near chance

    def test_same_seed_same_fingerprint(self):
        train = tiny_domain(8, count=8)
        a, _ = pretrained(train, iters=20, seed=3)
        b, _ = pretrained(train, iters=20, seed=3)
        assert OracleHandle(a).fingerprint == OracleHandle(b).fingerprint

    def test_different_seed_different_fingerprint(self):
        train = tiny_domain(8, count=8)
        a, _ = pretrained(train, iters=5, seed=3)
        b, _ = pretrained(train, iters=5, seed=4)
        assert OracleHandle(a).fingerprint != OracleHandle(b).fingerprint

    def test_loss_decreases_and_val_miou_high(self, trained):
        model, handle, train, val, losses = trained
        assert np.mean(losses[-20:]) < 0.5 * np.mean(losses[:20])
        pred = handle.predict_mask(stack_images(val))
        _, mean = miou(pred, stack_masks(val), 6)
        assert mean >= 0.80

    def test_empty_domain_rejected(self):
        with pytest.raises(ValueError):
            pretrained([], iters=1, seed=0)


class TestHandle:
    def test_predict_shape_and_determinism(self, trained, rng):
        _, handle, _, val, _ = trained
        x = stack_images(val[:2])
        a = handle.predict(x)
        b = handle.predict(x)
        assert a.shape == (2, 6, 64, 64)
        assert a.tobytes() == b.tobytes()

    def test_fingerprint_stable_over_many_calls(self, trained, rng):
        _, handle, _, val, _ = trained
        x = stack_images(val[:1])
        y = stack_masks(val[:1])
        before = handle.fingerprint
        for _ in range(50):
            handle.predict(x)
            handle.input_grad(x, y)
        assert handle.current_fingerprint() == before

    def test_input_grad_shape_and_loss_consistency(self, trained):
        _, handle, _, val, _ = trained
        x = stack_images(val[:2])
        y = stack_masks(val[:2])
        loss, grad = handle.input_grad(x, y)
        assert grad.shape == x.shape
        logits = handle.predict(x)
        ref = ops.cross_entropy(Tensor(logits), y).item()
        assert abs(loss - ref) < 1e-6

    def test_input_grad_matches_finite_differences(self, rng):
        # untrained tiny model keeps this cheap; contract is the same
        model = SegModel(4, stream(3, "fd"), widths=(4, 6, 8))
        handle = OracleHandle(model)
        x = rng.uniform(0.2, 0.8, (1, 3, 8, 8)).astype(np.float32).astype(np.float64)
        y = rng.integers(0, 4, (1, 8, 8))
        _, grad = handle.input_grad(x, y)

        leaf = Tensor(x.astype(np.float32), requires_grad=True)
        coords = sorted(rng.choice(x.size, 40, replace=False).tolist())
        num = numeric_grad(lambda: handle.input_grad(leaf.data, y)[0], leaf, eps=1e-2, coords=coords)
        a = grad.reshape(-1)[coords]
        n = num.reshape(-1)[coords]
        assert rel_err(a, n) < 1e-2

    def test_rejects_bad_input(self, trained):
        _, handle, _, _, _ = trained
        with pytest.raises(ValueError):
            handle.predict(np.zeros((1, 3, 30, 30), np.float32))
        bad = np.full((1, 3, 32, 32), np.nan, np.float32)
        with pytest.raises(ValueError):
            handle.predict(bad)

    def test_queries_count_calls_and_images(self):
        model = SegModel(4, stream(3, "queries"), widths=(4, 6, 8))
        handle = OracleHandle(model)
        x = np.zeros((3, 3, 8, 8), np.float32)
        handle.predict(x)
        handle.predict_mask(x[:2])
        handle.input_grad(x[:1], np.zeros((1, 8, 8), np.int64))
        with pytest.raises(ValueError):
            handle.predict(np.zeros((1, 3, 7, 8), np.float32))
        assert handle.queries == {"predict": {"calls": 2, "images": 5},
                                  "input_grad": {"calls": 1, "images": 1}}

    def test_predict_reads_the_live_running_variance(self):
        # eval mode folds batch norm into the conv on every call: a changed
        # running statistic changes the next prediction, no stale fold is kept
        model = SegModel(4, stream(4, "fold"), widths=(4, 6, 8))
        handle = OracleHandle(model)
        x = np.random.default_rng(0).uniform(0, 1, (2, 3, 16, 16)).astype(np.float32)
        before = handle.predict(x)
        model.stage[1].bn.running_var[2] *= 4.0
        after = handle.predict(x)
        assert not np.array_equal(before, after)
        model.stage[1].bn.running_var[2] /= 4.0
        np.testing.assert_array_equal(handle.predict(x), before)

    def test_params_receive_no_gradients(self, trained):
        model, handle, _, val, _ = trained
        handle.input_grad(stack_images(val[:1]), stack_masks(val[:1]))
        assert all(t.grad is None for t in parameters(model.tensors()))


class TestPersistence:
    def test_round_trip_preserves_fingerprint_and_outputs(self, tmp_path, trained):
        model, handle, _, val, _ = trained
        path = tmp_path / "oracle.ckpt"
        save_oracle(path, model)
        # a model built as the config builds it, from another draw of weights
        back = SegModel(model.class_count, stream(1, "shell"), model.widths, model.kernel)
        assert OracleHandle(back).fingerprint != handle.fingerprint
        load_oracle(path, back)
        assert OracleHandle(back).fingerprint == handle.fingerprint
        x = stack_images(val[:2])
        assert OracleHandle(back).predict(x).tobytes() == handle.predict(x).tobytes()

    def test_rejects_wrong_kind(self, tmp_path, trained):
        from promptseg.checkpoint import save_checkpoint
        from promptseg.errors import KindMismatchError

        model = trained[0]
        path = tmp_path / "other.ckpt"
        save_checkpoint(path, "SPGN", {"a": np.zeros(3, np.float32)})
        with pytest.raises(KindMismatchError):
            load_oracle(path, SegModel(model.class_count, stream(1, "shell"),
                                       model.widths, model.kernel))

    def test_rejects_another_architecture(self, tmp_path, trained):
        # the config builds the model: a file of other widths is refused, not
        # taken as a description of the model to build
        from promptseg.errors import FormatError

        model = trained[0]
        path = tmp_path / "oracle.ckpt"
        save_oracle(path, model)
        narrow = SegModel(model.class_count, stream(1, "shell"),
                          tuple(w // 2 for w in model.widths), model.kernel)
        with pytest.raises(FormatError, match="oracle.ckpt"):
            load_oracle(path, narrow)
