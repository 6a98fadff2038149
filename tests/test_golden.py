"""Golden digests: the byte contract pinned across commits.

``TestDeterminism`` compares two runs of the same code, so it cannot notice
a change that moves every run the same way.  This module compares one run of
the miniature experiment against values recorded from an earlier commit: a
refactor that keeps the contract leaves every number here unchanged.

The values were recorded under CPython 3.11 with numpy 2.4.6 and its bundled
scipy-openblas 0.3.31; the BLAS thread count does not matter.  The float32
GEMMs round differently on each OpenBLAS kernel, so there is one table per
kernel ("core"), which the library picks at run time from the CPU or from
``OPENBLAS_CORETYPE``.  The SkylakeX (AVX-512) table was recorded natively,
the Haswell (AVX2) one with ``OPENBLAS_CORETYPE=Haswell`` on the same host.
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
            "attention.csv": "1a9a81004e03c289571e532d38270044",
            "attention_report.csv": "915dc6bca02244b7c6fe87680de7d821",
            "data/base_train.dom": "0e0e942de547e34d390e75028794284f",
            "data/base_val.dom": "c70ff75c1c8c4c53836edf5d4b6544f9",
            "data/cool_dim_train.dom": "9d04c9685b7011762ee382721cc89a3a",
            "data/cool_dim_val.dom": "e770dfa3d730aadcfe176b126f074768",
            "data/dusk_val.dom": "6ce82a3f23a033766d4d5b339d98df36",
            "data/green_bright_train.dom": "0cf49ab7447d7942ec542749a4d00b93",
            "data/green_bright_val.dom": "f368f7d5e58d6a828f0255f2cda0be68",
            "data/high_contrast_train.dom": "65e406a49927ae2aaebe4f5724f5c22b",
            "data/high_contrast_val.dom": "6a7aad3a9da9d9dc05d8a498a538a1da",
            "data/snow_glare_val.dom": "0b31b34c92a3aff30a2ada834c045d1f",
            "data/warm_hazy_train.dom": "36df879d6f3c29aba2791526bcd96dec",
            "data/warm_hazy_val.dom": "426551271dc382a507efd67d2d4aaffc",
            "oracle.ckpt": "705dc21e991a9ae80862b1caec8b5e57",
            "report.csv": "5bfcf7330c6acae79e3dbde8f72073b0",
            "seed0/apf.ckpt": "a7b529333b2391a10df875a3ebb1180d",
            "seed0/spg_cool_dim.ckpt": "bf0df2824d2cf1a49f81a8a5cfa2d551",
            "seed0/spg_green_bright.ckpt": "35ea9c8c0c77b5b96f3e13a77c1f206d",
            "seed0/spg_high_contrast.ckpt": "cb97c6948668ff192aab270c5488d78d",
            "seed0/spg_warm_hazy.ckpt": "45a2f2bdf47a6ff79ae1fb16c92d085d",
            "seed1/apf.ckpt": "b381fca3d436f2b46798d8b9182a6629",
            "seed1/spg_cool_dim.ckpt": "ce05e17c9533ff5cf6f0611157d44f1a",
            "seed1/spg_green_bright.ckpt": "fa60a32a65701ce4de360c4d614b6f53",
            "seed1/spg_high_contrast.ckpt": "89a9406311f397c960f9035fd076c6fa",
            "seed1/spg_warm_hazy.ckpt": "7c28dbd089e8367ba5cc1a891e337009",
        },
        "fusion_tables": {
            "ablate_fusion.csv": "7b5e6eea980390649fc4c8e797108baa",
            "ablate_fusion.md": "4509024956814e3b91d2ab7ec1d054ed",
        },
        "fusion": {
            "pn+softmax+tanh": 0.11601995027000148,
            "pn+softmax": 0.11571896745694762,
            "pn+tanh": 0.10066538628828747,
            "pn": 0.11226972363936313,
            "softmax+tanh": 0.1261755253205985,
            "softmax": 0.1261755253205985,
            "tanh": 0.10961306221079264,
            "none": 0.1151991738212961,
        },
        "init": {
            "zero": 0.11601995027000148,
            "uniform": 0.0987809356053361,
            "normal": 0.10618982472172062,
            "meta": 0.10664379258957665,
        },
        "generators": {
            "border": 0.11165881365644756,
            "a_border": 0.11601995027000148,
            "full": 0.11568762413264869,
            "a_full": 0.11262954439027556,
        },
    },
    "Haswell": {
        "run": {
            "attention.csv": "582959d7c843ad3b2fb227aa0cb99d52",
            "attention_report.csv": "94e286fdefcef0f455cb7fceca4589d2",
            "data/base_train.dom": "0e0e942de547e34d390e75028794284f",
            "data/base_val.dom": "c70ff75c1c8c4c53836edf5d4b6544f9",
            "data/cool_dim_train.dom": "9d04c9685b7011762ee382721cc89a3a",
            "data/cool_dim_val.dom": "e770dfa3d730aadcfe176b126f074768",
            "data/dusk_val.dom": "6ce82a3f23a033766d4d5b339d98df36",
            "data/green_bright_train.dom": "0cf49ab7447d7942ec542749a4d00b93",
            "data/green_bright_val.dom": "f368f7d5e58d6a828f0255f2cda0be68",
            "data/high_contrast_train.dom": "65e406a49927ae2aaebe4f5724f5c22b",
            "data/high_contrast_val.dom": "6a7aad3a9da9d9dc05d8a498a538a1da",
            "data/snow_glare_val.dom": "0b31b34c92a3aff30a2ada834c045d1f",
            "data/warm_hazy_train.dom": "36df879d6f3c29aba2791526bcd96dec",
            "data/warm_hazy_val.dom": "426551271dc382a507efd67d2d4aaffc",
            "oracle.ckpt": "dc05ff28d2df09bd75ad7f98d2441dd7",
            "report.csv": "f6158b7800f3327305c8973291758bdd",
            "seed0/apf.ckpt": "011b348e1378427375eee439c5209452",
            "seed0/spg_cool_dim.ckpt": "95a488e638891b54ddb30cf84cf4040d",
            "seed0/spg_green_bright.ckpt": "59eb90393dd91e98434d5b8896309c95",
            "seed0/spg_high_contrast.ckpt": "aba45f0924cd626bba22ccbb20167316",
            "seed0/spg_warm_hazy.ckpt": "691f1ab42c4045fe662c0a3224325f48",
            "seed1/apf.ckpt": "3df92c67dd6fd8fb0f7a240abb760744",
            "seed1/spg_cool_dim.ckpt": "321648fdae14f310e94f57da2e5ecdca",
            "seed1/spg_green_bright.ckpt": "914f6f6ca47c996a5f1033999ccb2855",
            "seed1/spg_high_contrast.ckpt": "3e3c5ea443aa17c8957d8871bba061b6",
            "seed1/spg_warm_hazy.ckpt": "f5deea300b447b8a10b5d90e59020bce",
        },
        "fusion_tables": {
            "ablate_fusion.csv": "fce6236162a1bf30d154c0dad0c6a13b",
            "ablate_fusion.md": "a6035026e104ad8fe126874a326130af",
        },
        "fusion": {
            "pn+softmax+tanh": 0.11643885529847225,
            "pn+softmax": 0.11643885529847225,
            "pn+tanh": 0.10577768362224002,
            "pn": 0.10846344308696015,
            "softmax+tanh": 0.12599748630535018,
            "softmax": 0.12599748630535018,
            "tanh": 0.10530200931144328,
            "none": 0.1129293737993873,
        },
        "init": {
            "zero": 0.11643885529847225,
            "uniform": 0.0987809356053361,
            "normal": 0.10632530313539187,
            "meta": 0.10664379258957665,
        },
        "generators": {
            "border": 0.10780331126020956,
            "a_border": 0.11643885529847225,
            "full": 0.11555190194422284,
            "a_full": 0.11230217714595524,
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
