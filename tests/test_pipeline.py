"""End-to-end orchestration tests on a miniature world.

Everything here runs a drastically shrunk configuration: the point is the
plumbing (layout, report shape, determinism, suite structure), not metric
quality, so budgets are a handful of iterations.
"""

import dataclasses
import json
import os
import re
import shutil

import numpy as np
import pytest
from conftest import sgwd_v1, tiny_experiment

from promptseg import pipeline
from promptseg.autograd.layers import parameters
from promptseg.cli import ablation_tables
from promptseg.config import SpgConfig, config_hash, load_config
from promptseg.datasets import domain_digest, make_domain
from promptseg.errors import StageError
from promptseg.fusion import SharedEncoder
from promptseg.pipeline import (
    STYLE_NAMES,
    TARGET_NAMES,
    ablate,
    blas_info,
    domain_specs,
    eval_domains,
    load_seed_artifacts,
    report_columns,
    run_dir_for,
    run_pipeline,
    write_csv,
)


tiny_config = tiny_experiment


def tree_bytes(root, skip=()):
    """{relative path: content} for every file under root."""
    out = {}
    for dirpath, _, files in os.walk(root):
        for name in files:
            path = os.path.join(dirpath, name)
            rel = os.path.relpath(path, root)
            if rel in skip:
                continue
            with open(path, "rb") as f:
                out[rel] = f.read()
    return out


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("run")
    cfg = tiny_config(seeds=(0, 1), out_dir=str(root))
    report = run_pipeline(cfg)
    return cfg, report, run_dir_for(cfg)


class TestDomainSpecs:
    def test_all_domains_present(self):
        specs = domain_specs(tiny_config())
        expected = {"base_train", "base_val"}
        expected |= {f"{s}_{p}" for s in STYLE_NAMES for p in ("train", "val")}
        expected |= {f"{t}_val" for t in TARGET_NAMES}
        assert set(specs) == expected

    def test_styled_twins_share_scenes(self):
        specs = domain_specs(tiny_config())
        base = specs["base_train"]
        for s in STYLE_NAMES:
            styled = specs[f"{s}_train"]
            assert styled.scene == base.scene
            assert styled.style_mean is not None

    def test_targets_use_fresh_scenes(self):
        specs = domain_specs(tiny_config())
        seen = {specs["base_train"].scene.seed, specs["base_val"].scene.seed}
        for t in TARGET_NAMES:
            assert specs[f"{t}_val"].scene.seed not in seen

    def test_eval_domain_names(self):
        names = eval_domains(tiny_config())
        assert names[0] == "base_val"
        assert len(names) == 1 + len(STYLE_NAMES) + len(TARGET_NAMES)


class TestRunLayout:
    def test_run_dir_is_config_hash(self, tiny_run):
        cfg, _, run_dir = tiny_run
        assert os.path.basename(run_dir) == config_hash(cfg)

    def test_expected_files(self, tiny_run):
        cfg, _, run_dir = tiny_run
        for rel in ("config.json", "oracle.ckpt", "report.csv",
                    "attention.csv", "report_meta.json"):
            assert os.path.exists(os.path.join(run_dir, rel)), rel
        for name in domain_specs(cfg):
            assert os.path.exists(os.path.join(run_dir, "data", f"{name}.dom"))
        for seed in cfg.seeds:
            seed_dir = os.path.join(run_dir, f"seed{seed}")
            assert os.path.exists(os.path.join(seed_dir, "apf.ckpt"))
            for s in STYLE_NAMES:
                assert os.path.exists(os.path.join(seed_dir, f"spg_{s}.ckpt"))

    def test_saved_config_round_trips(self, tiny_run):
        cfg, _, run_dir = tiny_run
        assert load_config(os.path.join(run_dir, "config.json")) == cfg

    def test_meta_has_wall_clock_and_fingerprint(self, tiny_run):
        _, _, run_dir = tiny_run
        with open(os.path.join(run_dir, "report_meta.json")) as f:
            meta = json.load(f)
        assert set(meta) == {"config_hash", "wall_clock_sec", "oracle_fingerprint",
                             "seal_checks", "oracle_queries", "stage_queries",
                             "stage_seconds", "blas"}
        assert meta["wall_clock_sec"] > 0
        stages = meta["stage_seconds"]
        assert list(stages) == sorted(pipeline.STAGES)  # sort_keys
        assert all(sec >= 0 for sec in stages.values())
        assert sum(stages.values()) <= meta["wall_clock_sec"] + 0.005  # rounding
        totals = meta["oracle_queries"]
        assert set(totals) == {"predict", "input_grad"}
        # the stages that query the oracle split its totals between them:
        # training asks for input gradients only, evaluation for predictions
        split = meta["stage_queries"]
        assert list(split) == ["eval", "train-apf", "train-spg"]  # sort_keys
        for query, counts in totals.items():
            for key, n in counts.items():
                assert sum(split[stage][query][key] for stage in split) == n, (query, key)
        for stage in ("train-spg", "train-apf"):
            assert split[stage]["predict"] == {"calls": 0, "images": 0}
            assert split[stage]["input_grad"]["calls"] > 0
        assert split["eval"]["input_grad"] == {"calls": 0, "images": 0}
        assert split["eval"]["predict"]["calls"] > 0
        # after the oracle, then after SPG, APF and eval for each of 2 seeds
        assert meta["seal_checks"] == 1 + 2 * 3


class TestReport:
    def test_one_row_per_domain_and_seed(self, tiny_run):
        cfg, report, _ = tiny_run
        names = eval_domains(cfg)
        assert len(report.rows) == len(names) * len(cfg.seeds)
        seen = {(r["domain"], r["seed"]) for r in report.rows}
        assert seen == {(n, s) for n in names for s in cfg.seeds}

    def test_rows_carry_all_columns(self, tiny_run):
        _, report, _ = tiny_run
        for row in report.rows:
            assert set(row) == set(report_columns())

    def test_csv_matches_report(self, tiny_run):
        cfg, report, run_dir = tiny_run
        with open(os.path.join(run_dir, "report.csv")) as f:
            lines = f.read().splitlines()
        assert lines[0] == ",".join(report_columns())
        assert len(lines) == 1 + len(report.rows)

    def test_attention_covers_styles(self, tiny_run):
        cfg, report, _ = tiny_run
        names = eval_domains(cfg)
        assert len(report.attention) == len(names) * len(cfg.seeds) * len(STYLE_NAMES)
        for cell in report.attention:
            assert 0.0 <= cell["mean_weight"] <= 1.0

    def test_target_mean_uses_target_rows_only(self, tiny_run):
        cfg, report, _ = tiny_run
        names = {f"{t}_val" for t in TARGET_NAMES}
        for column in ("sage_miou", "baseline_miou"):
            per_seed = report.target_means(column)[""]
            assert list(per_seed) == list(cfg.seeds)
            for seed, mean in per_seed.items():
                assert mean == pytest.approx(np.mean(
                    [r[column] for r in report.rows
                     if r["domain"] in names and r["seed"] == seed]))
            manual = np.mean([r[column] for r in report.rows
                              if r["domain"] in names])
            assert report.arm_means(column)[""] == pytest.approx(manual)


class TestArtifactLoading:
    def test_round_trip_per_seed(self, tiny_run):
        cfg, _, run_dir = tiny_run
        model, oracle, enc, gens, heads = load_seed_artifacts(cfg, run_dir, 0)
        assert set(gens) == set(STYLE_NAMES)
        assert oracle.fingerprint == oracle.current_fingerprint()

    def test_missing_oracle_names_the_stage(self, tmp_path):
        cfg = tiny_config(out_dir=str(tmp_path))
        with pytest.raises(StageError, match="pretrain-oracle"):
            load_seed_artifacts(cfg, str(tmp_path / "nothing"), 0)

    def test_missing_generators_named(self, tiny_run, tmp_path):
        cfg, _, run_dir = tiny_run
        partial = tmp_path / "partial"
        partial.mkdir()
        shutil.copy(os.path.join(run_dir, "oracle.ckpt"),
                    partial / "oracle.ckpt")
        with pytest.raises(StageError, match="train-spg"):
            load_seed_artifacts(cfg, str(partial), 0)

    def test_heads_of_another_encoder_refused(self, tiny_run, tmp_path):
        # seed 0's generators and heads copied beside an oracle trained with
        # another oracle.seed: the loader of a finished run and stage_apf
        # both refuse the heads rather than fuse through the wrong encoder
        cfg, _, run_dir = tiny_run
        other = dataclasses.replace(
            cfg, oracle=dataclasses.replace(cfg.oracle, seed=cfg.oracle.seed + 1))
        domains = pipeline.stage_data(other)
        model, oracle, _ = pipeline.stage_oracle(other, domains, str(tmp_path))
        sdir = str(tmp_path / "seed0")
        shutil.copytree(os.path.join(run_dir, "seed0"), sdir)
        mismatch = r"apf\.ckpt: fusion heads were trained against a different encoder"
        with pytest.raises(StageError, match=mismatch):
            load_seed_artifacts(other, str(tmp_path), 0)
        gens = pipeline.stage_spg(other, domains, oracle, 0, sdir)
        enc = SharedEncoder.from_seg_model(model)
        with pytest.raises(StageError, match=mismatch):
            pipeline.stage_apf(other, domains, gens, enc, oracle, 0, sdir)


class TestEvaluateRun:
    def test_one_oracle_load_and_a_seal_check_per_stage(self, tiny_run, monkeypatch):
        # a finished run is evaluated through run_arms: the oracle loads once
        # for every seed, each stage is seal-checked, and the rows are the run's
        cfg, report, run_dir = tiny_run
        loads = []
        load_oracle = pipeline.load_oracle
        monkeypatch.setattr(pipeline, "load_oracle",
                            lambda path, model: loads.append(path) or load_oracle(path, model))
        results = pipeline.evaluate_run(cfg, run_dir)
        assert loads == [os.path.join(run_dir, "oracle.ckpt")]
        assert results.seal_checks == 1 + 3 * len(cfg.seeds)
        assert results.oracle_queries["predict"]["calls"] > 0
        assert results.rows == report.rows


    def test_meta_records_the_blas_kernel(self, tiny_run):
        # the float32 bits of a run depend on the OpenBLAS kernel and threads
        _, _, run_dir = tiny_run
        with open(os.path.join(run_dir, "report_meta.json")) as f:
            blas = json.load(f)["blas"]
        assert blas == blas_info()
        assert isinstance(blas["core"], str) and blas["core"]
        assert isinstance(blas["threads"], int) and blas["threads"] >= 1


class TestDeterminism:
    # each run gets its own root, so the second trains rather than loading
    # the first's artifacts; config.json embeds the root, and wall clock
    # lives in report_meta.json, the one file outside the byte contract
    def test_repeat_run_identical_bytes(self, tmp_path):
        trees = []
        for root in ("a", "b"):
            cfg = tiny_config(out_dir=str(tmp_path / root))
            run_pipeline(cfg)
            trees.append(tree_bytes(run_dir_for(cfg),
                                    skip=("config.json", "report_meta.json")))
        first, second = trees
        assert first.keys() == second.keys()
        for rel in first:
            assert first[rel] == second[rel], rel

    def test_meta_differs_only_in_wall_clock(self, tmp_path):
        metas = []
        for root in ("a", "b"):
            cfg = tiny_config(out_dir=str(tmp_path / root))
            run_pipeline(cfg)
            with open(os.path.join(run_dir_for(cfg), "report_meta.json")) as f:
                meta = json.load(f)
            meta.pop("wall_clock_sec")
            meta["stage_seconds"] = sorted(meta["stage_seconds"])  # the stages, not times
            metas.append(meta)
        assert metas[0] == metas[1]

    def test_hash_ignores_out_dir(self, tmp_path):
        a = tiny_config(out_dir=str(tmp_path / "a"))
        b = tiny_config(out_dir=str(tmp_path / "b"))
        assert config_hash(a) == config_hash(b)
        # the seed list picks runs of one experiment, it is not its identity
        assert config_hash(a) == config_hash(tiny_config(seeds=(7,)))
        assert config_hash(a) != config_hash(tiny_config(
            oracle=dataclasses.replace(a.oracle, seed=a.oracle.seed + 1)))

    def test_resume_trains_only_what_is_missing(self, tiny_run, tmp_path,
                                                monkeypatch):
        # a run stopped before seed 1's heads were saved: the rerun loads the
        # oracle and generators, trains those heads alone, and ends byte-equal
        # to the uninterrupted run
        cfg, _, run_dir = tiny_run
        cfg = dataclasses.replace(cfg, out_dir=str(tmp_path / "copy"))
        shutil.copytree(os.path.dirname(run_dir), cfg.out_dir)
        os.remove(os.path.join(run_dir_for(cfg), "seed1", "apf.ckpt"))
        calls = {}

        def counted(name, fn):
            def call(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return fn(*args, **kwargs)
            return call

        for name in ("pretrain_oracle", "train_spg", "train_apf"):
            monkeypatch.setattr(pipeline, name, counted(name, getattr(pipeline, name)))
        run_pipeline(cfg)
        assert calls == {"train_apf": 1}
        skip = ("config.json", "report_meta.json")
        resumed = tree_bytes(run_dir_for(cfg), skip=skip)
        whole = tree_bytes(run_dir, skip=skip)
        assert resumed.keys() == whole.keys()
        for rel in whole:
            assert resumed[rel] == whole[rel], rel


class TestStageErrors:
    def test_failure_reports_stage_name(self, monkeypatch):
        # an error raised inside a stage surfaces wrapped with its name
        def diverged(*args, **kwargs):
            raise RuntimeError("generator diverged")

        monkeypatch.setattr(pipeline, "train_spg", diverged)
        with pytest.raises(StageError, match="train-spg"):
            run_pipeline(tiny_config(out_dir=""))

    @pytest.mark.parametrize("frozen", ["encoder", "oracle", "generator"])
    def test_weight_drift_fails_the_seal_check(self, monkeypatch, frozen):
        # a stage that writes into frozen weights is caught right after it;
        # a seed's generators are frozen from the end of train-spg on
        train = pipeline.stage_apf

        def drifting(cfg, domains, gens, enc, oracle, *rest):
            heads = train(cfg, domains, gens, enc, oracle, *rest)
            module = {"encoder": enc, "oracle": oracle._model,
                      "generator": gens[STYLE_NAMES[-1]]}[frozen]
            parameters(module.tensors())[0].data.flat[0] += 1.0
            return heads

        monkeypatch.setattr(pipeline, "stage_apf", drifting)
        with pytest.raises(StageError, match=f"'train-apf' changed the .*{frozen}"):
            run_pipeline(tiny_config(out_dir=""))

    @pytest.mark.parametrize("attr, stage", [("stage_oracle", "pretrain-oracle"),
                                             ("stage_spg", "train-spg"),
                                             ("stage_apf", "train-apf")])
    def test_training_stage_that_reads_a_target_domain_fails(self, monkeypatch, attr, stage):
        # a training stage sees the *_train domains only: one that reads a
        # target domain fails, naming itself and the domain
        train = getattr(pipeline, attr)

        def peeking(cfg, domains, *rest):
            len(domains["dusk_val"])
            return train(cfg, domains, *rest)

        monkeypatch.setattr(pipeline, attr, peeking)
        cfg = tiny_config(out_dir="")
        with pytest.raises(StageError, match=f"'{stage}' read domain 'dusk_val'"):
            pipeline.run_arms(cfg, {"": cfg}, last=stage)

    def test_old_domain_file_is_named(self, tmp_path):
        # a run directory from before domains became checkpoint tables
        cfg = tiny_config(out_dir=str(tmp_path))
        path = tmp_path / "data" / "base_val.dom"
        path.parent.mkdir()
        path.write_bytes(sgwd_v1(make_domain(domain_specs(cfg)["base_val"])))
        with pytest.raises(StageError, match=re.escape(str(path))):
            pipeline.stage_data(cfg, str(tmp_path))

    def test_bad_config_fails_before_any_stage(self, monkeypatch):
        # pad cannot fit the 16px canvas: rejected before data is generated
        calls = []
        monkeypatch.setattr(pipeline, "stage_data", lambda *a: calls.append(a))
        cfg = dataclasses.replace(
            tiny_config(out_dir=""), spg=SpgConfig(iters=4, batch=4, pad=8, depth=4))
        with pytest.raises(ValueError, match="pad"):
            run_pipeline(cfg)
        assert calls == []


def ablate_and_digest_world(cfg, suite):
    """``ablate`` plus a digest of every domain of the world it built."""
    built = []
    stage_data = pipeline.stage_data
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pipeline, "stage_data",
                   lambda *a: built.append(stage_data(*a)) or built[-1])
        results = ablate(cfg, suite)
    (domains,) = built
    return results, {name: domain_digest(s) for name, s in domains.items()}


@pytest.fixture(scope="module")
def suite_cfg():
    return tiny_config()


@pytest.fixture(scope="module")
def init_suite(suite_cfg):
    return ablate_and_digest_world(suite_cfg, "init")


@pytest.fixture(scope="module")
def generators_suite(suite_cfg):
    return ablate_and_digest_world(suite_cfg, "generators")


@pytest.fixture(scope="module")
def fusion_suite(suite_cfg):
    return ablate(suite_cfg, "fusion")


class TestAblationSuites:
    def test_generator_suite_structure(self, suite_cfg, generators_suite):
        results, _ = generators_suite
        per_seed, means = results.target_means(), results.arm_means()
        assert list(per_seed) == ["border", "a_border", "full", "a_full"]
        assert list(means) == list(per_seed)
        for arm, vals in per_seed.items():
            assert set(vals) == set(suite_cfg.seeds)
            assert means[arm] == pytest.approx(np.mean(list(vals.values())))

    def test_init_suite_structure(self, suite_cfg, init_suite):
        results, digests = init_suite
        assert list(results.arm_means()) == ["zero", "uniform", "normal", "meta"]
        assert set(digests) == set(domain_specs(suite_cfg))

    def test_fusion_suite_has_eight_arms(self, fusion_suite):
        names = list(fusion_suite.arm_means())
        assert len(names) == 8
        assert "pn+softmax+tanh" in names
        assert "none" in names
        assert "pn+tanh" in names

    def test_fusion_arms_share_the_baseline(self, suite_cfg, fusion_suite):
        # per target domain one baseline prediction and one fused one per arm
        calls = len(TARGET_NAMES) * (1 + 8)
        assert fusion_suite.oracle_queries["predict"] == {
            "calls": calls, "images": calls * suite_cfg.data.target_val}

    @pytest.mark.parametrize("suite, sets_per_seed", [("fusion", 1), ("init", 4)])
    def test_arms_with_equal_spg_share_generators(self, suite_cfg, monkeypatch,
                                                  suite, sets_per_seed):
        # fusion arms differ only in apf, so one set of generators per seed;
        # init arms differ in spg, so one set per arm, and seeds run in order
        seeds = []
        stage_spg = pipeline.stage_spg
        monkeypatch.setattr(pipeline, "stage_spg",
                            lambda *a: seeds.append(a[3]) or stage_spg(*a))
        ablate(dataclasses.replace(suite_cfg, seeds=(0, 1)), suite)
        assert seeds == [0] * sets_per_seed + [1] * sets_per_seed

    def test_tables_render(self, init_suite, tmp_path):
        results, _ = init_suite
        columns, rows, md = ablation_tables(results)
        lines = md.strip().splitlines()
        assert len(lines) == 2 + len(results.arm_means())
        assert lines[0].startswith("| arm |")
        csv_path = tmp_path / "t.csv"
        write_csv(str(csv_path), rows, columns)
        body = csv_path.read_text().splitlines()
        assert body[0] == "arm,seed0,mean"
        assert len(body) == 1 + len(results.arm_means())

    def test_suite_shares_one_world(self, init_suite, generators_suite):
        (a, a_digests), (b, b_digests) = init_suite, generators_suite
        assert a.oracle_fingerprint == b.oracle_fingerprint
        assert a_digests == b_digests


def styled_alignment(cfg, attention) -> dict:
    """For each styled val domain: does its own style win the attention row?

    Returns {style: count of seeds where argmax mean weight lands on the
    matching generator}.
    """
    wins = {}
    for style in STYLE_NAMES:
        domain = f"{style}_val"
        count = 0
        for seed in cfg.seeds:
            weights = {a["style"]: a["mean_weight"] for a in attention
                       if a["domain"] == domain and a["seed"] == seed}
            if max(weights, key=weights.get) == style:
                count += 1
        wins[style] = count
    return wins


class TestAttentionAnalysis:
    def test_report_matrix_shape(self, tiny_run):
        cfg, report, _ = tiny_run
        rows = report.attention_means(eval_domains(cfg))
        assert len(rows) == len(eval_domains(cfg)) * len(STYLE_NAMES)
        by_domain = {}
        for r in rows:
            by_domain.setdefault(r["domain"], []).append(r["mean_weight"])
        for name, weights in by_domain.items():
            assert len(weights) == len(STYLE_NAMES)

    def test_alignment_counts_bounded(self, tiny_run):
        cfg, report, _ = tiny_run
        counts = styled_alignment(cfg, report.attention)
        assert set(counts) == set(STYLE_NAMES)
        for style, n in counts.items():
            assert 0 <= n <= len(cfg.seeds)
