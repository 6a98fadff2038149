"""The one module rule: every state table is read off the module's attributes.

The table of a module is its checkpoint layout, its optimizer's parameter
list and what the seal fingerprints hash, so a name, a shape or a place in
the order that moves changes every artifact.  ``TABLES`` pins the tables of
every model at their default sizes, as recorded before the rule replaced
the hand-written tables.
"""

import numpy as np
import pytest

from promptseg.autograd import Tensor
from promptseg.autograd.layers import BatchNorm2d, Conv2d, Module, conv_bn_stages, parameters
from promptseg.fusion import FusionHeads, SharedEncoder
from promptseg.oracle import SegModel
from promptseg.prompts import VARIANTS, StylePromptGenerator
from promptseg.scenes import CHANNELS
from promptseg.seeding import stream

TABLES = {
    "SegModel": [
        ("stage0.conv.weight", (16, 3, 5, 5)), ("stage0.conv.bias", (16,)),
        ("stage0.bn.gamma", (16,)), ("stage0.bn.beta", (16,)), ("stage0.bn.running_mean", (16,)),
        ("stage0.bn.running_var", (16,)), ("stage1.conv.weight", (32, 16, 5, 5)),
        ("stage1.conv.bias", (32,)), ("stage1.bn.gamma", (32,)), ("stage1.bn.beta", (32,)),
        ("stage1.bn.running_mean", (32,)), ("stage1.bn.running_var", (32,)),
        ("stage2.conv.weight", (64, 32, 5, 5)), ("stage2.conv.bias", (64,)),
        ("stage2.bn.gamma", (64,)), ("stage2.bn.beta", (64,)), ("stage2.bn.running_mean", (64,)),
        ("stage2.bn.running_var", (64,)), ("head.weight", (6, 64, 1, 1)), ("head.bias", (6,)),
    ],
    "SharedEncoder": [
        ("stage0.conv.weight", (16, 3, 5, 5)), ("stage0.conv.bias", (16,)),
        ("stage0.bn.gamma", (16,)), ("stage0.bn.beta", (16,)), ("stage0.bn.running_mean", (16,)),
        ("stage0.bn.running_var", (16,)), ("stage1.conv.weight", (32, 16, 5, 5)),
        ("stage1.conv.bias", (32,)), ("stage1.bn.gamma", (32,)), ("stage1.bn.beta", (32,)),
        ("stage1.bn.running_mean", (32,)), ("stage1.bn.running_var", (32,)),
        ("stage2.conv.weight", (64, 32, 5, 5)), ("stage2.conv.bias", (64,)),
        ("stage2.bn.gamma", (64,)), ("stage2.bn.beta", (64,)), ("stage2.bn.running_mean", (64,)),
        ("stage2.bn.running_var", (64,)),
    ],
    "FusionHeads": [
        ("wx.weight", (64, 32)), ("wx.bias", (32,)), ("wp.weight", (64, 32)), ("wp.bias", (32,)),
    ],
    "border": [
        ("template.top", (3, 6, 64)), ("template.bottom", (3, 6, 64)),
        ("template.left", (3, 52, 6)), ("template.right", (3, 52, 6)),
    ],
    "a_border": [
        ("template.top", (3, 6, 64)), ("template.bottom", (3, 6, 64)),
        ("template.left", (3, 52, 6)), ("template.right", (3, 52, 6)),
        ("modulator.block0.conv1.weight", (8, 3, 3, 3)), ("modulator.block0.conv1.bias", (8,)),
        ("modulator.block0.bn1.gamma", (8,)), ("modulator.block0.bn1.beta", (8,)),
        ("modulator.block0.bn1.running_mean", (8,)), ("modulator.block0.bn1.running_var", (8,)),
        ("modulator.block0.conv2.weight", (8, 8, 3, 3)), ("modulator.block0.conv2.bias", (8,)),
        ("modulator.block0.bn2.gamma", (8,)), ("modulator.block0.bn2.beta", (8,)),
        ("modulator.block0.bn2.running_mean", (8,)), ("modulator.block0.bn2.running_var", (8,)),
        ("modulator.block0.proj.weight", (8, 3, 1, 1)), ("modulator.block0.proj.bias", (8,)),
        ("modulator.block0.proj_bn.gamma", (8,)), ("modulator.block0.proj_bn.beta", (8,)),
        ("modulator.block0.proj_bn.running_mean", (8,)),
        ("modulator.block0.proj_bn.running_var", (8,)),
        ("modulator.block1.conv1.weight", (16, 8, 3, 3)), ("modulator.block1.conv1.bias", (16,)),
        ("modulator.block1.bn1.gamma", (16,)), ("modulator.block1.bn1.beta", (16,)),
        ("modulator.block1.bn1.running_mean", (16,)), ("modulator.block1.bn1.running_var", (16,)),
        ("modulator.block1.conv2.weight", (16, 16, 3, 3)), ("modulator.block1.conv2.bias", (16,)),
        ("modulator.block1.bn2.gamma", (16,)), ("modulator.block1.bn2.beta", (16,)),
        ("modulator.block1.bn2.running_mean", (16,)), ("modulator.block1.bn2.running_var", (16,)),
        ("modulator.block1.proj.weight", (16, 8, 1, 1)), ("modulator.block1.proj.bias", (16,)),
        ("modulator.block1.proj_bn.gamma", (16,)), ("modulator.block1.proj_bn.beta", (16,)),
        ("modulator.block1.proj_bn.running_mean", (16,)),
        ("modulator.block1.proj_bn.running_var", (16,)),
        ("modulator.block2.conv1.weight", (32, 16, 3, 3)), ("modulator.block2.conv1.bias", (32,)),
        ("modulator.block2.bn1.gamma", (32,)), ("modulator.block2.bn1.beta", (32,)),
        ("modulator.block2.bn1.running_mean", (32,)), ("modulator.block2.bn1.running_var", (32,)),
        ("modulator.block2.conv2.weight", (32, 32, 3, 3)), ("modulator.block2.conv2.bias", (32,)),
        ("modulator.block2.bn2.gamma", (32,)), ("modulator.block2.bn2.beta", (32,)),
        ("modulator.block2.bn2.running_mean", (32,)), ("modulator.block2.bn2.running_var", (32,)),
        ("modulator.block2.proj.weight", (32, 16, 1, 1)), ("modulator.block2.proj.bias", (32,)),
        ("modulator.block2.proj_bn.gamma", (32,)), ("modulator.block2.proj_bn.beta", (32,)),
        ("modulator.block2.proj_bn.running_mean", (32,)),
        ("modulator.block2.proj_bn.running_var", (32,)), ("modulator.head.weight", (12, 32, 1, 1)),
        ("modulator.head.bias", (12,)),
    ],
    "full": [
        ("template.canvas", (3, 64, 64)),
    ],
    "a_full": [
        ("template.canvas", (3, 64, 64)), ("modulator.block0.conv1.weight", (8, 3, 3, 3)),
        ("modulator.block0.conv1.bias", (8,)), ("modulator.block0.bn1.gamma", (8,)),
        ("modulator.block0.bn1.beta", (8,)), ("modulator.block0.bn1.running_mean", (8,)),
        ("modulator.block0.bn1.running_var", (8,)),
        ("modulator.block0.conv2.weight", (8, 8, 3, 3)), ("modulator.block0.conv2.bias", (8,)),
        ("modulator.block0.bn2.gamma", (8,)), ("modulator.block0.bn2.beta", (8,)),
        ("modulator.block0.bn2.running_mean", (8,)), ("modulator.block0.bn2.running_var", (8,)),
        ("modulator.block0.proj.weight", (8, 3, 1, 1)), ("modulator.block0.proj.bias", (8,)),
        ("modulator.block0.proj_bn.gamma", (8,)), ("modulator.block0.proj_bn.beta", (8,)),
        ("modulator.block0.proj_bn.running_mean", (8,)),
        ("modulator.block0.proj_bn.running_var", (8,)),
        ("modulator.block1.conv1.weight", (16, 8, 3, 3)), ("modulator.block1.conv1.bias", (16,)),
        ("modulator.block1.bn1.gamma", (16,)), ("modulator.block1.bn1.beta", (16,)),
        ("modulator.block1.bn1.running_mean", (16,)), ("modulator.block1.bn1.running_var", (16,)),
        ("modulator.block1.conv2.weight", (16, 16, 3, 3)), ("modulator.block1.conv2.bias", (16,)),
        ("modulator.block1.bn2.gamma", (16,)), ("modulator.block1.bn2.beta", (16,)),
        ("modulator.block1.bn2.running_mean", (16,)), ("modulator.block1.bn2.running_var", (16,)),
        ("modulator.block1.proj.weight", (16, 8, 1, 1)), ("modulator.block1.proj.bias", (16,)),
        ("modulator.block1.proj_bn.gamma", (16,)), ("modulator.block1.proj_bn.beta", (16,)),
        ("modulator.block1.proj_bn.running_mean", (16,)),
        ("modulator.block1.proj_bn.running_var", (16,)),
        ("modulator.block2.conv1.weight", (32, 16, 3, 3)), ("modulator.block2.conv1.bias", (32,)),
        ("modulator.block2.bn1.gamma", (32,)), ("modulator.block2.bn1.beta", (32,)),
        ("modulator.block2.bn1.running_mean", (32,)), ("modulator.block2.bn1.running_var", (32,)),
        ("modulator.block2.conv2.weight", (32, 32, 3, 3)), ("modulator.block2.conv2.bias", (32,)),
        ("modulator.block2.bn2.gamma", (32,)), ("modulator.block2.bn2.beta", (32,)),
        ("modulator.block2.bn2.running_mean", (32,)), ("modulator.block2.bn2.running_var", (32,)),
        ("modulator.block2.proj.weight", (32, 16, 1, 1)), ("modulator.block2.proj.bias", (32,)),
        ("modulator.block2.proj_bn.gamma", (32,)), ("modulator.block2.proj_bn.beta", (32,)),
        ("modulator.block2.proj_bn.running_mean", (32,)),
        ("modulator.block2.proj_bn.running_var", (32,)), ("modulator.head.weight", (3, 32, 1, 1)),
        ("modulator.head.bias", (3,)),
    ],
}


def build(name):
    if name == "SegModel":
        return SegModel(6, stream(0, "tables"))
    if name == "SharedEncoder":
        return SharedEncoder(conv_bn_stages(CHANNELS, (16, 32, 64), 5, stream(0, "tables")))
    if name == "FusionHeads":
        return FusionHeads()
    return StylePromptGenerator("s", name)


class TestStateTables:
    @pytest.mark.parametrize("name", ["SegModel", "SharedEncoder", "FusionHeads", *VARIANTS])
    def test_names_shapes_and_order(self, name):
        table = build(name).tensors()
        assert [(k, v.shape) for k, v in table.items()] == TABLES[name]

    @pytest.mark.parametrize("name", ["SegModel", "SharedEncoder", "FusionHeads", *VARIANTS])
    def test_only_running_statistics_are_plain_arrays(self, name):
        table = build(name).tensors()
        arrays = [k for k, v in table.items() if not isinstance(v, Tensor)]
        assert arrays == [k for k in table if k.endswith((".running_mean", ".running_var"))]
        assert len(parameters(table)) == len(table) - len(arrays)


class Toy(Module):
    def __init__(self, rng):
        self.width = 4
        self.tag = "toy"
        self.widths = (1, 2)
        self.cache = None
        self.scale = Tensor(np.ones(2), requires_grad=True)
        self.count = np.zeros(3)
        self.conv = Conv2d(1, 2, 1, rng)
        self.layer = [BatchNorm2d(2), Conv2d(2, 2, 1, rng)]


class TestModuleRule:
    def test_walks_attributes_in_assignment_order(self):
        toy = Toy(stream(0, "toy"))
        assert list(toy.tensors()) == [
            "scale", "count", "conv.weight", "conv.bias",
            "layer0.gamma", "layer0.beta", "layer0.running_mean", "layer0.running_var",
            "layer1.weight", "layer1.bias",
        ]

    def test_entries_are_the_live_objects(self):
        toy = Toy(stream(0, "toy"))
        table = toy.tensors("toy.")
        assert table["toy.scale"] is toy.scale
        assert table["toy.count"] is toy.count
        assert table["toy.layer0.running_var"] is toy.layer[0].running_var
        assert table["toy.conv.weight"] is toy.conv.weight
