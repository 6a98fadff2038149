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
``tools/golden.py`` computes the running core's table through ``measure``
and prints it in this file's format; with ``--check`` it lists what moved.

The report files are made through ``cli.main``, as a user makes them, so
the formatting the CLI applies falls under the contract too.  Left out:
``config.json`` embeds the output directory, and ``report_meta.json`` holds
the wall clock.
"""

import hashlib
import os

import pytest
from conftest import tiny_experiment

from promptseg.cli import main
from promptseg.config import config_hash, save_config
from promptseg.pipeline import ablate, blas_info, run_dir_for

RUN_HASH = "54c87d710bb8981f"

# per OpenBLAS core: run-all artifact and attention-report digests, the fusion
# ablation's table files and the three ablations' arm means
GOLDEN = {
    "SkylakeX": {
        "run": {
            "attention.csv": "3241af092b0308bcc6ce0c70fc165162",
            "attention_report.csv": "530e53cda7ca42410d5dfac09dbf262f",
            "data/base_train.dom": "7a8c9f0bfc6b54f72bc2833f2c53f0b4",
            "data/base_val.dom": "9ea765fb8a9b3726bf5e179eae23dc15",
            "data/cool_dim_train.dom": "0d731f27657afadac11bd61b869d443a",
            "data/cool_dim_val.dom": "839c3ff584c7d9061dfb5cb58d66e019",
            "data/dusk_val.dom": "9620e2161fa66b6b6c282ae11b485402",
            "data/green_bright_train.dom": "f515c348af4862fb00030eecf278baef",
            "data/green_bright_val.dom": "6ffe999e9abff1c692a8d1346588218a",
            "data/high_contrast_train.dom": "16217fdd6b4f5ec84e0920dd430b7de7",
            "data/high_contrast_val.dom": "9b1e48c71c82c832b319685542f79fd9",
            "data/snow_glare_val.dom": "ea5a3c1cba854c59560ecde3dc8493d7",
            "data/warm_hazy_train.dom": "280ebc9a6b953d10c5d7b545c5f5bb0c",
            "data/warm_hazy_val.dom": "7c379e258da5cdabb05370c39e597cfa",
            "oracle.ckpt": "a8d4e1fed3a482c81b4b093edcbd5540",
            "report.csv": "11f24f30fe87eb416abb7945dfd8627c",
            "seed0/apf.ckpt": "b408dfbf860640d6f0985401b64bdaa5",
            "seed0/spg_cool_dim.ckpt": "0d185d0dd4493134df2d163624b754cc",
            "seed0/spg_green_bright.ckpt": "99ce30499628f47e2c740501d0c7ccf6",
            "seed0/spg_high_contrast.ckpt": "c253f8ea32b712b1425f726c431f70c8",
            "seed0/spg_warm_hazy.ckpt": "ef125507cb3c94c38e181483dc122bae",
            "seed1/apf.ckpt": "9fbd072c001dcc53349c6a0e2573aa75",
            "seed1/spg_cool_dim.ckpt": "d035f15327eed51155ca1e6423dc0f6e",
            "seed1/spg_green_bright.ckpt": "379911e2e517a6ce15aca495012aafc5",
            "seed1/spg_high_contrast.ckpt": "537faa520cd6fb705c5d6599aadf2d5a",
            "seed1/spg_warm_hazy.ckpt": "73795b9bfb596b4ef1909f0855b45f12",
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
            "attention.csv": "2a9663e25d61db0a2d45bf1c55d0908b",
            "attention_report.csv": "ecf53f2012afd0dfbbe034facc028873",
            "data/base_train.dom": "7a8c9f0bfc6b54f72bc2833f2c53f0b4",
            "data/base_val.dom": "9ea765fb8a9b3726bf5e179eae23dc15",
            "data/cool_dim_train.dom": "0d731f27657afadac11bd61b869d443a",
            "data/cool_dim_val.dom": "839c3ff584c7d9061dfb5cb58d66e019",
            "data/dusk_val.dom": "9620e2161fa66b6b6c282ae11b485402",
            "data/green_bright_train.dom": "f515c348af4862fb00030eecf278baef",
            "data/green_bright_val.dom": "6ffe999e9abff1c692a8d1346588218a",
            "data/high_contrast_train.dom": "16217fdd6b4f5ec84e0920dd430b7de7",
            "data/high_contrast_val.dom": "9b1e48c71c82c832b319685542f79fd9",
            "data/snow_glare_val.dom": "ea5a3c1cba854c59560ecde3dc8493d7",
            "data/warm_hazy_train.dom": "280ebc9a6b953d10c5d7b545c5f5bb0c",
            "data/warm_hazy_val.dom": "7c379e258da5cdabb05370c39e597cfa",
            "oracle.ckpt": "a65f59d18a74c64c612fb2db80ac1376",
            "report.csv": "0c0930af2c28f7cd063c0b80654d4da5",
            "seed0/apf.ckpt": "9d1811872bee37805502d1ccc4276a32",
            "seed0/spg_cool_dim.ckpt": "174da4113559e992ef91610b04f3e16a",
            "seed0/spg_green_bright.ckpt": "5b93ac443c3068a1aca2c7eab16c368c",
            "seed0/spg_high_contrast.ckpt": "5b2c33e763a01c64ab772f18b09a4813",
            "seed0/spg_warm_hazy.ckpt": "ef9a7ca29434f3fc1dca8e5c9d79efc1",
            "seed1/apf.ckpt": "74aef06016d5b14ecd0e292e6a2296a5",
            "seed1/spg_cool_dim.ckpt": "6bb554372e18c7cddb8470c2f0f6e438",
            "seed1/spg_green_bright.ckpt": "e35617653ef4bf5a3c2bd48a428136f7",
            "seed1/spg_high_contrast.ckpt": "94baeb27db4492f79731aab3768f1b66",
            "seed1/spg_warm_hazy.ckpt": "74804092b80104a7399f0401a6f57152",
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


def golden(table):
    core = blas_info()["core"]
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


def run_config(tmp_path):
    return tiny_experiment(seeds=(0, 1), out_dir=str(tmp_path / "runs"))


def run_digests(tmp_path):
    """{file: digest} of a two-seed ``run-all`` and its attention report."""
    cfg = run_config(tmp_path)
    _cli(tmp_path, cfg, "run-all")
    _cli(tmp_path, cfg, "attention-report")
    return _contract_files(run_dir_for(cfg))


def fusion_table_digests(tmp_path):
    """{file: digest} of the fusion ablation's table files."""
    cfg = tiny_experiment(out_dir=str(tmp_path / "runs"))
    _cli(tmp_path, cfg, "ablate", "--suite", "fusion")
    run_dir = run_dir_for(cfg)
    return {name: _digest(os.path.join(run_dir, name))
            for name in ("ablate_fusion.csv", "ablate_fusion.md")}


SUITES = ("fusion", "init", "generators")


def measure(tmp_path):
    """Every table of ``GOLDEN`` as the running kernel computes it, in its order."""
    (tmp_path / "run").mkdir()
    (tmp_path / "tables").mkdir()
    tables = {"run": dict(sorted(run_digests(tmp_path / "run").items())),
              "fusion_tables": fusion_table_digests(tmp_path / "tables")}
    return tables | {suite: ablate(tiny_experiment(), suite).arm_means() for suite in SUITES}


class TestGoldenRun:
    def test_run_all_artifacts_match_recorded_digests(self, tmp_path):
        cfg = run_config(tmp_path)
        assert config_hash(cfg) == RUN_HASH
        assert os.path.basename(run_dir_for(cfg)) == RUN_HASH
        assert run_digests(tmp_path) == golden("run")


class TestGoldenAblations:
    def test_fusion_table_files_match_recorded_digests(self, tmp_path):
        assert fusion_table_digests(tmp_path) == golden("fusion_tables")

    def test_fusion_arm_means(self):
        assert ablate(tiny_experiment(), "fusion").arm_means() == golden("fusion")

    def test_init_arm_means(self):
        assert ablate(tiny_experiment(), "init").arm_means() == golden("init")

    def test_generators_arm_means(self):
        assert ablate(tiny_experiment(), "generators").arm_means() == golden("generators")
