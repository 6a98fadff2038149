"""Golden digests: the byte contract pinned across commits.

``TestDeterminism`` compares two runs of the same code, so it cannot notice
a change that moves every run the same way.  This module compares one run of
the miniature experiment against values recorded from an earlier commit: a
refactor that keeps the contract leaves every number here unchanged.

The values were recorded under CPython 3.11 with numpy 2.4.6 and its bundled
scipy-openblas 0.3.31.  At this module's tiny shapes the BLAS thread count
does not matter; at the default config's shapes it does (one thread and two
write different SPG and APF checkpoints), so nothing here pins those.  The
float32 GEMMs round differently on each OpenBLAS kernel, so there is one
table per kernel ("core"), which the library picks at run time from the CPU
or from ``OPENBLAS_CORETYPE``.  The SkylakeX (AVX-512) table was recorded
natively, the Haswell (AVX2) one with ``OPENBLAS_CORETYPE=Haswell`` on the
same host.
A core with no table fails here with its name: record the values on the
parent commit with that core before judging a change against them.

The report files are made through ``cli.main``, as a user makes them, so
the formatting the CLI applies falls under the contract too.  Left out:
``config.json`` embeds the output directory, and ``report_meta.json`` holds
the wall clock.
"""

import ctypes
import glob
import hashlib
import os

import numpy as np
import pytest
from conftest import tiny_experiment

from promptseg.cli import main
from promptseg.config import config_hash, save_config
from promptseg.pipeline import ablate, run_dir_for

RUN_HASH = "54c87d710bb8981f"

# per OpenBLAS core: run-all artifact and attention-report digests, the fusion
# ablation's table files and the three ablations' arm means
GOLDEN = {
    "SkylakeX": {
        "run": {
            "attention.csv": "2571b271cef388ad0b10e24efa1436eb",
            "attention_report.csv": "530e53cda7ca42410d5dfac09dbf262f",
            "data/base_train.dom": "69378c55fff60dd85efa5aaa3d64ca7c",
            "data/base_val.dom": "a02f87bea161a5be5538cbda784defb6",
            "data/cool_dim_train.dom": "e758b3e23ad4afcbebc9d6c2923c64d2",
            "data/cool_dim_val.dom": "c7f5d5152fd1502704aa7429390e2429",
            "data/dusk_val.dom": "2dace8e1f99100749d75e11c3b42ee33",
            "data/green_bright_train.dom": "16e2cc16bc9a5a96631a389523f27ebd",
            "data/green_bright_val.dom": "8e062c9ecec1540084c5f350edddd630",
            "data/high_contrast_train.dom": "7202d1f758d8afd673466fe1e3a35799",
            "data/high_contrast_val.dom": "5331a034cbb930a4d058f6a4d451c02c",
            "data/snow_glare_val.dom": "1188968fc8c96c784431ab8f46718c80",
            "data/warm_hazy_train.dom": "60b64da21bc67d07e340a9d29f828468",
            "data/warm_hazy_val.dom": "552fe7d28450020f0d6442a3b02c3ba0",
            "oracle.ckpt": "a8d4e1fed3a482c81b4b093edcbd5540",
            "report.csv": "11f24f30fe87eb416abb7945dfd8627c",
            "seed0/apf.ckpt": "1b3e52f3f88ab95eb4d071cdeea0bcaa",
            "seed0/spg_cool_dim.ckpt": "dd6695de993500797cdf8049593337ec",
            "seed0/spg_green_bright.ckpt": "cd5cbe8edc06ccca7918f81c9298cb0f",
            "seed0/spg_high_contrast.ckpt": "c4043e462f665ebb4c66afc251b586de",
            "seed0/spg_warm_hazy.ckpt": "209e8b7b6769e660f428ef848817d8c8",
            "seed1/apf.ckpt": "030c56cacdb1ba598532345ae6f0ff62",
            "seed1/spg_cool_dim.ckpt": "759afa23d6941c9dd27a9224428d8bd8",
            "seed1/spg_green_bright.ckpt": "9dac73968ebe02ca12c3a1b3da623dbd",
            "seed1/spg_high_contrast.ckpt": "0cad5ec1a44de9766fba949453767fa7",
            "seed1/spg_warm_hazy.ckpt": "702b7c316edebdb67989df9243ea8987",
        },
        "fusion_tables": {
            "ablate_fusion.csv": "98869da424ba21e4ef535e6dab745c4c",
            "ablate_fusion.md": "0cf024518e520083f7566c5ec55621c2",
        },
        "fusion": {
            "pn+softmax+tanh": 0.11387821344514118,
            "pn+softmax": 0.11387821344514118,
            "pn+tanh": 0.10604036315383356,
            "pn": 0.1012717808222521,
            "softmax+tanh": 0.12564004622256278,
            "softmax": 0.12564004622256278,
            "tanh": 0.11559417543653716,
            "none": 0.10929245725856102,
        },
        "init": {
            "zero": 0.11387821344514118,
            "uniform": 0.09623817403151129,
            "normal": 0.10618982472172062,
            "meta": 0.10664379258957665,
        },
        "generators": {
            "border": 0.11200691056968676,
            "a_border": 0.11387821344514118,
            "full": 0.11621500277249232,
            "a_full": 0.11219741331310865,
        },
    },
    "Haswell": {
        "run": {
            "attention.csv": "48e0d352e089ced6f83890edceb5f122",
            "attention_report.csv": "ecf53f2012afd0dfbbe034facc028873",
            "data/base_train.dom": "69378c55fff60dd85efa5aaa3d64ca7c",
            "data/base_val.dom": "a02f87bea161a5be5538cbda784defb6",
            "data/cool_dim_train.dom": "e758b3e23ad4afcbebc9d6c2923c64d2",
            "data/cool_dim_val.dom": "c7f5d5152fd1502704aa7429390e2429",
            "data/dusk_val.dom": "2dace8e1f99100749d75e11c3b42ee33",
            "data/green_bright_train.dom": "16e2cc16bc9a5a96631a389523f27ebd",
            "data/green_bright_val.dom": "8e062c9ecec1540084c5f350edddd630",
            "data/high_contrast_train.dom": "7202d1f758d8afd673466fe1e3a35799",
            "data/high_contrast_val.dom": "5331a034cbb930a4d058f6a4d451c02c",
            "data/snow_glare_val.dom": "1188968fc8c96c784431ab8f46718c80",
            "data/warm_hazy_train.dom": "60b64da21bc67d07e340a9d29f828468",
            "data/warm_hazy_val.dom": "552fe7d28450020f0d6442a3b02c3ba0",
            "oracle.ckpt": "a65f59d18a74c64c612fb2db80ac1376",
            "report.csv": "0c0930af2c28f7cd063c0b80654d4da5",
            "seed0/apf.ckpt": "973f1dc2673775a63dad40505d60c285",
            "seed0/spg_cool_dim.ckpt": "d4d4b944a3298b0627fe6be92cc6995c",
            "seed0/spg_green_bright.ckpt": "2c39e8fc38aec5f19afe091df54799de",
            "seed0/spg_high_contrast.ckpt": "db99f2b58798806fa7362251c565c30e",
            "seed0/spg_warm_hazy.ckpt": "b67a5997429f4b50d38da9a8d1fb97eb",
            "seed1/apf.ckpt": "d510daa9882f6f7615e3f66ab5b2be37",
            "seed1/spg_cool_dim.ckpt": "af56c712e7ec9027bbb51609282f5045",
            "seed1/spg_green_bright.ckpt": "a29f4016e25bf1cbcaf035809df3f817",
            "seed1/spg_high_contrast.ckpt": "e1f99f252f5c0af05a449b10fae622e1",
            "seed1/spg_warm_hazy.ckpt": "68324e11e87a5dc4520b68fcf7994ce8",
        },
        "fusion_tables": {
            "ablate_fusion.csv": "a9c0b62cd286e208ed7c39e78c159dd5",
            "ablate_fusion.md": "a5a07816abb07c403f2d8fc1a5b25609",
        },
        "fusion": {
            "pn+softmax+tanh": 0.12074827546899725,
            "pn+softmax": 0.12048860681891961,
            "pn+tanh": 0.105026093871812,
            "pn": 0.10795537425786965,
            "softmax+tanh": 0.12583135382273872,
            "softmax": 0.12583135382273872,
            "tanh": 0.10484532950564977,
            "none": 0.11008397000623818,
        },
        "init": {
            "zero": 0.12074827546899725,
            "uniform": 0.10967623160237136,
            "normal": 0.10634265267061868,
            "meta": 0.10598157180370335,
        },
        "generators": {
            "border": 0.11072064282070468,
            "a_border": 0.12074827546899725,
            "full": 0.11725177179722635,
            "a_full": 0.1110982893212625,
        },
    },
}


def openblas_core():
    """The kernel name numpy's bundled OpenBLAS picked, or None if not found."""
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "libscipy_openblas*")):
        corename = ctypes.CDLL(path).scipy_openblas_get_corename64_
        corename.restype = ctypes.c_char_p
        return corename().decode()
    return None


def golden(table):
    core = openblas_core()
    if core not in GOLDEN:
        pytest.fail(f"no golden values recorded for OpenBLAS core {core!r}; "
                    f"tables exist for {sorted(GOLDEN)}")
    return GOLDEN[core][table]


def _digest(path):
    with open(path, "rb") as f:
        return hashlib.blake2b(f.read(), digest_size=16).hexdigest()


REPORTS = ("report.csv", "attention.csv", "attention_report.csv")


def _cli(tmp_path, cfg, *argv):
    """Run one ``promptseg`` command on ``cfg``, saved as a config file."""
    path = str(tmp_path / "config.json")
    save_config(path, cfg)
    assert main(["--config", path, *argv]) == 0


def _contract_files(run_dir):
    """{relative path: digest} for the reports, checkpoints and datasets."""
    out = {}
    for dirpath, _, files in os.walk(run_dir):
        for name in files:
            rel = os.path.relpath(os.path.join(dirpath, name), run_dir)
            rel = rel.replace(os.sep, "/")
            if rel.endswith((".ckpt", ".dom")) or rel in REPORTS:
                out[rel] = _digest(os.path.join(dirpath, name))
    return out


class TestGoldenRun:
    def test_run_all_artifacts_match_recorded_digests(self, tmp_path):
        cfg = tiny_experiment(seeds=(0, 1), out_dir=str(tmp_path / "runs"))
        _cli(tmp_path, cfg, "run-all")
        _cli(tmp_path, cfg, "attention-report")
        run_dir = run_dir_for(cfg)
        assert config_hash(cfg) == RUN_HASH
        assert os.path.basename(run_dir) == RUN_HASH
        assert _contract_files(run_dir) == golden("run")


class TestGoldenAblations:
    def test_fusion_table_files_match_recorded_digests(self, tmp_path):
        cfg = tiny_experiment(out_dir=str(tmp_path / "runs"))
        _cli(tmp_path, cfg, "ablate", "--suite", "fusion")
        run_dir = run_dir_for(cfg)
        files = ("ablate_fusion.csv", "ablate_fusion.md")
        got = {name: _digest(os.path.join(run_dir, name)) for name in files}
        assert got == golden("fusion_tables")

    def test_fusion_arm_means(self):
        assert ablate(tiny_experiment(), "fusion").arm_means() == golden("fusion")

    def test_init_arm_means(self):
        assert ablate(tiny_experiment(), "init").arm_means() == golden("init")

    def test_generators_arm_means(self):
        assert ablate(tiny_experiment(), "generators").arm_means() == golden("generators")
