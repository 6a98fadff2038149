"""The one training loop behind oracle pretraining, SPG and APF.

Each stage differs only in what a step computes, so each passes a ``step``
closure that takes a batch's sample indices, images and masks, records its
forward pass, leaves gradients on the optimizer's parameters and returns the
batch loss.  Batch order, schedule, update and logging live here once.
"""

import logging

from .datasets import stack_images, stack_masks

log = logging.getLogger(__name__)


def fit(samples, step, opt, schedule, picker, iters, batch, label):
    """Run ``iters`` steps on batches drawn by ``picker``; returns the loss curve."""
    if not samples:
        raise ValueError(f"{label}: training set is empty")
    losses = []
    for it in range(iters):
        idx = picker.integers(0, len(samples), size=batch)
        losses.append(step(idx, stack_images(samples, idx), stack_masks(samples, idx)))
        opt.step(schedule.lr_at(it))
        opt.zero_grad()
        if it % max(1, iters // 5) == 0:
            log.info("%s %d/%d loss %.4f", label, it, iters, losses[-1])
    return losses
