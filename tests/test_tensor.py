import gc
import weakref

import numpy as np
import pytest

from promptseg.autograd import (
    NonFiniteError,
    ShapeError,
    Tape,
    Tensor,
    no_grad,
    shadow_precision,
)
from promptseg.autograd.tensor import add, mul

from conftest import scale, sum_all


class TestTapeMechanics:
    def test_sum_gradient_is_ones(self, rng):
        x = Tensor(rng.normal(size=(3, 4)).astype(np.float32), requires_grad=True)
        with Tape() as tape:
            loss = sum_all(x)
        tape.backward(loss)
        np.testing.assert_array_equal(x.grad, np.ones((3, 4), np.float32))

    def test_quadratic_gradient_is_x(self, rng):
        data = rng.normal(size=(5,)).astype(np.float32)
        x = Tensor(data, requires_grad=True)
        with Tape() as tape:
            loss = scale(sum_all(mul(x, x)), 0.5)
        tape.backward(loss)
        np.testing.assert_allclose(x.grad, data, rtol=1e-6)

    def test_second_backward_accumulates(self, rng):
        x = Tensor(rng.normal(size=(4,)).astype(np.float32), requires_grad=True)
        with Tape() as tape:
            loss = sum_all(x)
        tape.backward(loss)
        tape.backward(loss)
        np.testing.assert_array_equal(x.grad, 2.0 * np.ones(4, np.float32))

    def test_nonscalar_backward_requires_seed(self, rng):
        x = Tensor(rng.normal(size=(3,)).astype(np.float32), requires_grad=True)
        with Tape() as tape:
            y = mul(x, x)
        with pytest.raises(ShapeError):
            tape.backward(y)

    def test_seeded_backward_chains_external_gradient(self, rng):
        # The pattern used to stitch a gradient obtained elsewhere onto this tape.
        data = rng.normal(size=(3,)).astype(np.float32)
        seed = rng.normal(size=(3,)).astype(np.float32)
        x = Tensor(data, requires_grad=True)
        with Tape() as tape:
            y = scale(x, 2.0)
        tape.backward(y, seed=seed)
        np.testing.assert_allclose(x.grad, 2.0 * seed, rtol=1e-6)

    def test_shared_subexpression_accumulates_through_graph(self, rng):
        data = rng.normal(size=(3,)).astype(np.float32)
        x = Tensor(data, requires_grad=True)
        with Tape() as tape:
            y = mul(x, x)
            loss = sum_all(add(y, y))
        tape.backward(loss)
        np.testing.assert_allclose(x.grad, 4.0 * data, rtol=1e-6)

    def test_no_tape_means_no_graph(self, rng):
        x = Tensor(rng.normal(size=(3,)).astype(np.float32), requires_grad=True)
        y = mul(x, x)
        assert y.requires_grad is False

    def test_no_grad_suspends_recording(self, rng):
        x = Tensor(rng.normal(size=(3,)).astype(np.float32), requires_grad=True)
        with Tape() as tape:
            with no_grad():
                y = mul(x, x)
            z = sum_all(x)
        assert y.requires_grad is False
        tape.backward(z)
        np.testing.assert_array_equal(x.grad, np.ones(3, np.float32))

    def test_dropping_the_tape_frees_the_graph(self, rng):
        # no tensor refers back to its tape, so reference counting alone
        # frees a step's activations once the tape and outputs are gone
        x = Tensor(rng.normal(size=(3,)).astype(np.float32), requires_grad=True)
        gc.disable()
        try:
            with Tape() as tape:
                y = mul(x, x)
                loss = sum_all(y)
            tape.backward(loss)
            activation = weakref.ref(y.data)
            del tape, y, loss
            assert activation() is None
        finally:
            gc.enable()
        np.testing.assert_allclose(x.grad, 2.0 * x.data, rtol=1e-6)

    def test_constant_inputs_are_not_recorded(self, rng):
        c = Tensor(rng.normal(size=(3,)).astype(np.float32))
        with Tape() as tape:
            y = mul(c, c)
        assert y.requires_grad is False
        assert len(tape._nodes) == 0

    def test_backward_needs_an_output_of_this_tape(self, rng):
        # a leaf, trainable or not, and another tape's output all raise;
        # none of them leaves a gradient behind
        x = Tensor(rng.normal(size=(3,)).astype(np.float32), requires_grad=True)
        with Tape() as other:
            foreign = sum_all(mul(x, x))
        with Tape() as tape:
            sum_all(x)
        for output in (x, Tensor(np.ones(3, np.float32)), foreign):
            with pytest.raises(RuntimeError, match="not produced on this tape"):
                tape.backward(output, seed=np.ones(output.shape, np.float32))
        assert x.grad is None
        other.backward(foreign)
        np.testing.assert_allclose(x.grad, 2.0 * x.data, rtol=1e-6)


class TestNumericPolicy:
    def test_non_finite_forward_raises(self):
        x = Tensor(np.full(4, 1e30, np.float32), requires_grad=True)
        with np.errstate(over="ignore"), pytest.raises(NonFiniteError):
            mul(x, x)

    def test_default_storage_is_float32(self):
        t = Tensor(np.zeros(3, np.float64))
        assert t.data.dtype == np.float32

    def test_shadow_precision_switches_to_float64(self):
        with shadow_precision():
            t = Tensor(np.zeros(3, np.float32))
            assert t.data.dtype == np.float64
        assert Tensor(np.zeros(3)).data.dtype == np.float32

    def test_repeated_run_is_bit_identical(self):
        def run():
            r = np.random.default_rng(7)
            x = Tensor(r.normal(size=(6,)).astype(np.float32), requires_grad=True)
            with Tape() as tape:
                loss = sum_all(mul(x, x))
            tape.backward(loss)
            return x.grad.copy()

        a, b = run(), run()
        assert a.tobytes() == b.tobytes()


class TestBroadcasting:
    def test_broadcast_add_reduces_gradient(self, rng):
        a = Tensor(rng.normal(size=(1, 3, 1, 1)).astype(np.float32), requires_grad=True)
        b = Tensor(rng.normal(size=(2, 3, 4, 4)).astype(np.float32), requires_grad=True)
        with Tape() as tape:
            loss = sum_all(add(a, b))
        tape.backward(loss)
        assert a.grad.shape == (1, 3, 1, 1)
        np.testing.assert_allclose(a.grad, np.full((1, 3, 1, 1), 32.0), rtol=1e-6)
        assert b.grad.shape == (2, 3, 4, 4)

    def test_incompatible_shapes_raise(self, rng):
        a = Tensor(np.zeros((2, 3), np.float32))
        b = Tensor(np.zeros((4, 5), np.float32))
        with pytest.raises(ShapeError):
            add(a, b)
