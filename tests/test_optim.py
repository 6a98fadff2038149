import numpy as np
import pytest

from promptseg.autograd import Tensor
from promptseg.autograd.optim import AdamW, CosineWarmRestarts, MultiStepLr, SgdMomentum


class TestSgdMomentum:
    def test_single_step_analytic(self):
        w = Tensor(np.array([1.0], np.float32), requires_grad=True)
        w.grad = np.array([1.0], np.float32)
        opt = SgdMomentum([w], momentum=0.9)
        opt.step(lr=0.1)
        np.testing.assert_allclose(w.data, [0.9], rtol=1e-6)
        np.testing.assert_allclose(opt.velocity[0], [1.0], rtol=1e-6)

    def test_second_step_compounds_velocity(self):
        w = Tensor(np.array([1.0], np.float32), requires_grad=True)
        opt = SgdMomentum([w], momentum=0.9)
        for _ in range(2):
            w.grad = np.array([1.0], np.float32)
            opt.step(lr=0.1)
        # v2 = 0.9*1 + 1 = 1.9; w = 0.9 - 0.19
        np.testing.assert_allclose(w.data, [0.71], rtol=1e-6)

    def test_none_grad_skips_param(self):
        w = Tensor(np.array([2.0], np.float32), requires_grad=True)
        opt = SgdMomentum([w])
        opt.step(lr=0.5)
        np.testing.assert_array_equal(w.data, [2.0])


class TestAdamW:
    def test_single_step_hand_value(self):
        # g=1, betas=(0.5, 0.999): m_hat = v_hat = 1, so the update is
        # lr / (1 + eps) and the weight lands at ~0.9999.
        w = Tensor(np.array([1.0], np.float32), requires_grad=True)
        w.grad = np.array([1.0], np.float32)
        opt = AdamW([w], betas=(0.5, 0.999), eps=1e-8)
        opt.step(lr=1e-4)
        expected = 1.0 - 1e-4 / (1.0 + 1e-8)
        np.testing.assert_allclose(w.data, [expected], rtol=1e-7)

    def test_zero_grad_zero_decay_leaves_params(self):
        w = Tensor(np.array([3.0], np.float32), requires_grad=True)
        w.grad = np.zeros(1, np.float32)
        opt = AdamW([w])
        for _ in range(3):
            opt.step(lr=1e-2)
        np.testing.assert_array_equal(w.data, [3.0])

    def test_step_count_increases(self):
        w = Tensor(np.array([1.0], np.float32), requires_grad=True)
        opt = AdamW([w])
        w.grad = np.ones(1, np.float32)
        opt.step(1e-3)
        opt.step(1e-3)
        assert opt.t == 2


class TestMultiStep:
    def test_paper_milestones(self):
        sched = MultiStepLr(1e-4, milestones=(150, 180, 210), gamma=0.1)
        assert sched.lr_at(0) == pytest.approx(1e-4)
        assert sched.lr_at(149) == pytest.approx(1e-4)
        assert sched.lr_at(160) == pytest.approx(1e-5)
        assert sched.lr_at(200) == pytest.approx(1e-6)
        assert sched.lr_at(239) == pytest.approx(1e-7)

    def test_non_increasing(self):
        sched = MultiStepLr(1.0, milestones=(3, 7, 9), gamma=0.5)
        values = [sched.lr_at(s) for s in range(15)]
        assert all(a >= b for a, b in zip(values, values[1:]))
        assert all(v > 0 for v in values)

    def test_negative_step_rejected(self):
        with pytest.raises(ValueError):
            MultiStepLr(1.0).lr_at(-1)


class TestCosineWarmRestarts:
    def test_restart_boundary_returns_base(self):
        sched = CosineWarmRestarts(1e-4, min_lr=1e-5, t0=10, t_mult=3)
        assert sched.lr_at(0) == pytest.approx(1e-4)
        # periods: [0,10), [10,40), [40,130)
        assert sched.lr_at(10) == pytest.approx(1e-4)
        assert sched.lr_at(40) == pytest.approx(1e-4)

    def test_midpoint_is_average(self):
        sched = CosineWarmRestarts(2e-3, min_lr=4e-4, t0=8, t_mult=1)
        assert sched.lr_at(4) == pytest.approx((2e-3 + 4e-4) / 2, abs=1e-9)
        sched = CosineWarmRestarts(1e-4, min_lr=1e-5, t0=10, t_mult=3)
        assert sched.lr_at(25) == pytest.approx((1e-4 + 1e-5) / 2, abs=1e-9)

    def test_bounded_between_min_and_base(self):
        sched = CosineWarmRestarts(1e-2, min_lr=1e-4, t0=4, t_mult=2)
        for s in range(200):
            lr = sched.lr_at(s)
            assert 1e-4 - 1e-12 <= lr <= 1e-2 + 1e-12
            assert lr > 0

    def test_tmult_one_cycles(self):
        sched = CosineWarmRestarts(1.0, min_lr=0.0, t0=6, t_mult=1)
        assert sched.lr_at(0) == sched.lr_at(6) == sched.lr_at(12) == pytest.approx(1.0)
