"""Optimizers and learning-rate schedules.

Both optimizers mutate parameter ``.data`` in place and keep per-parameter
state arrays in the order the parameters were given, so a fixed parameter
order makes updates bit-reproducible.
"""

import math
from dataclasses import dataclass

import numpy as np


class SgdMomentum:
    """Heavy-ball SGD: v <- momentum * v + g; w <- w - lr * v."""

    def __init__(self, params, momentum=0.9):
        self.params = list(params)
        self.momentum = momentum
        self.velocity = [None] * len(self.params)

    def step(self, lr):
        for i, p in enumerate(self.params):
            if p.grad is None:
                continue
            v = self.velocity[i]
            if v is None:
                v = p.grad.copy()
            else:
                v *= self.momentum
                v += p.grad
            self.velocity[i] = v
            p.data -= lr * v

    def zero_grad(self):
        for p in self.params:
            p.grad = None


class AdamW:
    """Adam with bias-corrected moments and no weight decay."""

    def __init__(self, params, betas=(0.9, 0.999), eps=1e-8):
        self.params = list(params)
        self.betas = betas
        self.eps = eps
        self.t = 0
        self.m = [None] * len(self.params)
        self.v = [None] * len(self.params)

    def step(self, lr):
        b1, b2 = self.betas
        self.t += 1
        c1 = 1.0 - b1 ** self.t
        c2 = 1.0 - b2 ** self.t
        for i, p in enumerate(self.params):
            g = p.grad
            if g is None:
                continue
            if self.m[i] is None:
                self.m[i] = ((1.0 - b1) * g).astype(p.data.dtype)
                self.v[i] = ((1.0 - b2) * g * g).astype(p.data.dtype)
            else:
                self.m[i] *= b1
                self.m[i] += (1.0 - b1) * g
                self.v[i] *= b2
                self.v[i] += (1.0 - b2) * g * g
            p.data -= lr * (self.m[i] / c1) / (np.sqrt(self.v[i] / c2) + self.eps)

    def zero_grad(self):
        for p in self.params:
            p.grad = None


@dataclass(frozen=True)
class MultiStepLr:
    """Piecewise-constant decay: base_lr * gamma ** (#milestones <= step)."""

    base_lr: float
    milestones: tuple = ()
    gamma: float = 0.1

    def lr_at(self, step):
        if step < 0:
            raise ValueError("step must be non-negative")
        passed = sum(1 for m in self.milestones if m <= step)
        return self.base_lr * self.gamma ** passed


@dataclass(frozen=True)
class CosineWarmRestarts:
    """Cosine annealing with warm restarts.

    Period i spans t0 * t_mult**i steps; at each restart the rate jumps back
    to base_lr and decays along a half cosine toward min_lr.
    """

    base_lr: float
    min_lr: float = 0.0
    t0: int = 1
    t_mult: int = 1

    def lr_at(self, step):
        if step < 0:
            raise ValueError("step must be non-negative")
        if self.t0 < 1 or self.t_mult < 1:
            raise ValueError("t0 and t_mult must be >= 1")
        t_cur, period = step, self.t0
        while t_cur >= period:
            t_cur -= period
            period *= self.t_mult
        return self.min_lr + (self.base_lr - self.min_lr) * 0.5 * (
            1.0 + math.cos(math.pi * t_cur / period)
        )
