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
            "attention.csv": "b2b43f6eefbd635b9c15c87f248b6a53",
            "attention_report.csv": "fc6ffd35a2df26782b58ed02d5c4c174",
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
            "oracle.ckpt": "c1f267b1a47af7f555bff850924abe69",
            "report.csv": "2af56fbee52e51f14be49d68914841a3",
            "seed0/apf.ckpt": "8958f3f2919231f74b3f6c48b449f929",
            "seed0/spg_cool_dim.ckpt": "a8ec9b00ce2cd151c2afe7ff8717a346",
            "seed0/spg_green_bright.ckpt": "27f7f3daf73474b34fac5e302bab6ac9",
            "seed0/spg_high_contrast.ckpt": "67adf9cba3d018b3ef521ef4d9528c52",
            "seed0/spg_warm_hazy.ckpt": "dad2b32e3b099813bdeb35266ed4f2e7",
            "seed1/apf.ckpt": "265c7ce947053b38394a9bee398c94c7",
            "seed1/spg_cool_dim.ckpt": "29d78ffe18f5afcbb7781de343044bd9",
            "seed1/spg_green_bright.ckpt": "265703b83f268dd44fc689076e350fe6",
            "seed1/spg_high_contrast.ckpt": "ede34c4d0df27f2b1a4d3bba5f24332b",
            "seed1/spg_warm_hazy.ckpt": "0676c768d3072e633ed0310ff118a612",
        },
        "fusion_tables": {
            "ablate_fusion.csv": "29e008cf4f00d9247daea7e2af0324c9",
            "ablate_fusion.md": "154b434e09224462b1524cea35d0925d",
        },
        "fusion": {
            "pn+softmax+tanh": 0.11867928787600932,
            "pn+softmax": 0.11867928787600932,
            "pn+tanh": 0.09996535115430782,
            "pn": 0.11172680420221467,
            "softmax+tanh": 0.12523038874650685,
            "softmax": 0.12505357191574704,
            "tanh": 0.10513592203152883,
            "none": 0.11709777315744299,
        },
        "init": {
            "zero": 0.11867928787600932,
            "uniform": 0.0987809356053361,
            "normal": 0.10701998117489712,
            "meta": 0.10664379258957665,
        },
        "generators": {
            "border": 0.10840086179455391,
            "a_border": 0.11867928787600932,
            "full": 0.12137256034571545,
            "a_full": 0.1115440769973333,
        },
    },
    "Haswell": {
        "run": {
            "attention.csv": "a8354decc0d7a3e24dce855f8600d2d0",
            "attention_report.csv": "5f709bc54f99dce7d1d3b91359410cfd",
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
            "oracle.ckpt": "d35f941c57f581305c470ad2333c4f7f",
            "report.csv": "a4716abd77c5ea8d8c1b40e9e81c5fb2",
            "seed0/apf.ckpt": "0ffa5217549d51a983267c86c6a6af07",
            "seed0/spg_cool_dim.ckpt": "075b1ac00b699765f5edcd00a14963c6",
            "seed0/spg_green_bright.ckpt": "c429b0aeeb112e9bdc174ef59a366f45",
            "seed0/spg_high_contrast.ckpt": "13d73c5277460e5ba6df29ef312e7d3d",
            "seed0/spg_warm_hazy.ckpt": "dca33b1539b0c06dff6eb09fb6d797f4",
            "seed1/apf.ckpt": "90936069a56782ac1b30e64352c4c170",
            "seed1/spg_cool_dim.ckpt": "491d5f1c43492423b676a5019525b21d",
            "seed1/spg_green_bright.ckpt": "63b88714e09ebc3e83b262bb5cef8887",
            "seed1/spg_high_contrast.ckpt": "86386200ae997394a51c1b04af880e50",
            "seed1/spg_warm_hazy.ckpt": "d937f81bcf1fa70106bd11a0861a8ca8",
        },
        "fusion_tables": {
            "ablate_fusion.csv": "417ece30d8ef33c7248d12c092968f70",
            "ablate_fusion.md": "df675c0eae3cb7b51761749b7b7b91ae",
        },
        "fusion": {
            "pn+softmax+tanh": 0.11976762035334335,
            "pn+softmax": 0.11976762035334335,
            "pn+tanh": 0.09389900953661034,
            "pn": 0.10818657757880672,
            "softmax+tanh": 0.1269507550632873,
            "softmax": 0.1267567606223411,
            "tanh": 0.10581423645087061,
            "none": 0.11432879847316604,
        },
        "init": {
            "zero": 0.11976762035334335,
            "uniform": 0.11221899317619617,
            "normal": 0.10618982472172062,
            "meta": 0.10664379258957665,
        },
        "generators": {
            "border": 0.11662645167629329,
            "a_border": 0.11976762035334335,
            "full": 0.116550025814331,
            "a_full": 0.11251514739168307,
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
