"""Command-line interface tests, driven through ``main(argv)``.

A module-scoped staged run exercises the training commands once; the
reporting commands then read from it.  All on the miniature config.
"""

import dataclasses
import json
import os
import shutil

import numpy as np
import pytest
from conftest import save_counted_domain, save_empty_domain, sgwd_v1, tiny_experiment

from promptseg import pipeline
from promptseg.checkpoint import load_checkpoint, save_checkpoint
from promptseg.cli import main
from promptseg.config import save_config
from promptseg.datasets import domain_digest, load_domain, save_domain
from promptseg.oracle import OracleHandle
from promptseg.pipeline import STYLE_NAMES, eval_domains, run_dir_for, seed_dir
from promptseg.scenes import CLASS_COUNT


@pytest.fixture(scope="module")
def staged(tmp_path_factory):
    """Config file plus a run brought to the fully trained state via the CLI."""
    root = tmp_path_factory.mktemp("cli")
    cfg = tiny_experiment(out_dir=str(root / "runs"))
    cfg_path = str(root / "config.json")
    save_config(cfg_path, cfg)
    argv = ["--config", cfg_path]
    assert main(argv + ["gen-data"]) == 0
    assert main(argv + ["pretrain-oracle"]) == 0
    assert main(argv + ["train-spg"]) == 0
    assert main(argv + ["train-apf"]) == 0
    return cfg, cfg_path, run_dir_for(cfg)


class TestStagedCommands:
    def test_layout_after_staged_run(self, staged):
        cfg, _, run_dir = staged
        assert os.path.exists(os.path.join(run_dir, "data", "base_val.dom"))
        assert os.path.exists(os.path.join(run_dir, "oracle.ckpt"))
        seed_dir = os.path.join(run_dir, "seed0")
        for s in STYLE_NAMES:
            assert os.path.exists(os.path.join(seed_dir, f"spg_{s}.ckpt"))
        assert os.path.exists(os.path.join(seed_dir, "apf.ckpt"))

    def test_eval_prints_domain_rows(self, staged, capsys):
        _, cfg_path, _ = staged
        assert main(["--config", cfg_path, "eval"]) == 0
        out = capsys.readouterr().out
        assert "base_val" in out and "dusk_val" in out
        assert "baseline" in out and "fused" in out

    def test_eval_single_domain(self, staged, capsys):
        _, cfg_path, _ = staged
        assert main(["--config", cfg_path, "eval", "--domain", "base_val"]) == 0
        out = capsys.readouterr().out
        assert "base_val" in out
        assert "dusk_val" not in out

    def test_eval_unknown_domain_fails(self, staged, capsys):
        _, cfg_path, _ = staged
        assert main(["--config", cfg_path, "eval", "--domain", "nope"]) == 1
        assert "unknown domain" in capsys.readouterr().err

    def test_infer_writes_mask_payload(self, staged, tmp_path):
        cfg, cfg_path, run_dir = staged
        src = os.path.join(run_dir, "data", "base_val.dom")
        out_path = str(tmp_path / "pred.dom")
        assert main(["--config", cfg_path, "infer",
                     "--input", src, "--out", out_path]) == 0
        inputs = load_domain(src)
        preds = load_domain(out_path)
        assert len(preds) == len(inputs)
        for before, after in zip(inputs, preds):
            assert np.array_equal(after.image, before.image)
            assert after.mask.shape == before.mask.shape
            assert after.mask.max() < CLASS_COUNT

    def test_infer_overflowing_pixel_is_an_error(self, staged, tmp_path, capsys):
        # finite, so the loader accepts it, but the first conv overflows
        cfg, cfg_path, run_dir = staged
        samples = load_domain(os.path.join(run_dir, "data", "base_val.dom"))
        samples[0].image[0, 0, 0] = 3e38
        src = str(tmp_path / "huge.dom")
        save_domain(src, samples)
        assert main(["--config", cfg_path, "infer", "--input", src,
                     "--out", str(tmp_path / "pred.dom")]) == 1
        assert "non-finite" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "pred.dom")

    def test_infer_of_an_old_domain_file_is_an_error(self, staged, tmp_path, capsys):
        # a domain saved before domains became checkpoint tables
        cfg, cfg_path, run_dir = staged
        src = tmp_path / "old.dom"
        src.write_bytes(sgwd_v1(load_domain(os.path.join(run_dir, "data", "base_val.dom"))))
        assert main(["--config", cfg_path, "infer", "--input", str(src),
                     "--out", str(tmp_path / "pred.dom")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(src) in err
        assert not os.path.exists(tmp_path / "pred.dom")

    def test_infer_of_a_domain_with_class_counts_is_an_error(self, staged, tmp_path, capsys):
        # a domain table saved with one class count per sample
        cfg, cfg_path, run_dir = staged
        src = tmp_path / "counted.dom"
        save_counted_domain(src, load_domain(os.path.join(run_dir, "data", "base_val.dom")))
        assert main(["--config", cfg_path, "infer", "--input", str(src),
                     "--out", str(tmp_path / "pred.dom")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(src) in err
        assert not os.path.exists(tmp_path / "pred.dom")

    def test_infer_of_a_domain_of_no_images_is_an_error(self, staged, tmp_path, capsys):
        _, cfg_path, _ = staged
        src = str(tmp_path / "empty.dom")
        save_empty_domain(src)
        assert main(["--config", cfg_path, "infer", "--input", src,
                     "--out", str(tmp_path / "pred.dom")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and src in err
        assert not os.path.exists(tmp_path / "pred.dom")

    def test_infer_of_a_missing_file_is_an_error(self, staged, tmp_path, capsys):
        _, cfg_path, _ = staged
        src = str(tmp_path / "absent.dom")
        assert main(["--config", cfg_path, "infer", "--input", src,
                     "--out", str(tmp_path / "pred.dom")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and src in err
        assert not os.path.exists(tmp_path / "pred.dom")

    def test_infer_color_ppm_output(self, staged, tmp_path):
        cfg, cfg_path, run_dir = staged
        src = os.path.join(run_dir, "data", "base_val.dom")
        out_path = str(tmp_path / "pred.dom")
        color_dir = str(tmp_path / "colored")
        assert main(["--config", cfg_path, "infer",
                     "--input", src, "--out", out_path,
                     "--color", color_dir]) == 0
        preds = load_domain(out_path)
        files = sorted(os.listdir(color_dir))
        assert len(files) == len(preds)
        with open(os.path.join(color_dir, files[0]), "rb") as f:
            blob = f.read()
        h, w = preds[0].mask.shape
        header = f"P6 {w} {h} 255\n".encode()
        assert blob.startswith(header)
        assert len(blob) == len(header) + 3 * h * w

    def test_attention_report_csv(self, staged, capsys):
        _, cfg_path, run_dir = staged
        assert main(["--config", cfg_path, "attention-report"]) == 0
        out = capsys.readouterr().out
        assert "cool_dim" in out
        path = os.path.join(run_dir, "attention_report.csv")
        with open(path) as f:
            lines = f.read().splitlines()
        assert lines[0] == "domain,style,mean_weight"


class TestDamagedArtifacts:
    def test_corrupt_oracle_fails_without_retraining(self, staged, tmp_path,
                                                     capsys):
        # a checkpoint that no longer decodes ends the command; training a
        # fresh oracle over it would hide the damage
        cfg, _, run_dir = staged
        runs = tmp_path / "runs"
        shutil.copytree(cfg.out_dir, runs)
        cfg_path = str(tmp_path / "config.json")
        save_config(cfg_path, dataclasses.replace(cfg, out_dir=str(runs)))
        path = os.path.join(str(runs), os.path.basename(run_dir), "oracle.ckpt")
        with open(path, "rb") as f:
            blob = bytearray(f.read())
        blob[len(blob) // 2] ^= 0xFF
        with open(path, "wb") as f:
            f.write(blob)
        assert main(["--config", cfg_path, "train-apf"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and path in err
        with open(path, "rb") as f:
            assert f.read() == blob

    def test_corrupt_domain_fails_eval(self, staged, tmp_path, capsys):
        # a saved domain that no longer decodes is an error, never rendered over
        cfg, _, run_dir = staged
        runs = tmp_path / "runs"
        shutil.copytree(cfg.out_dir, runs)
        cfg_path = str(tmp_path / "config.json")
        save_config(cfg_path, dataclasses.replace(cfg, out_dir=str(runs)))
        path = os.path.join(str(runs), os.path.basename(run_dir), "data", "dusk_val.dom")
        with open(path, "rb") as f:
            blob = bytearray(f.read())
        blob[len(blob) // 2] ^= 0xFF
        with open(path, "wb") as f:
            f.write(blob)
        assert main(["--config", cfg_path, "eval"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and path in err
        with open(path, "rb") as f:
            assert f.read() == blob


    def test_generator_in_the_old_layout_fails_eval(self, staged, tmp_path, capsys):
        # a generator saved before checkpoints held weights only also
        # described itself in meta.* records: eval refuses it, naming the file
        cfg, _, run_dir = staged
        runs = tmp_path / "runs"
        shutil.copytree(cfg.out_dir, runs)
        cfg_path = str(tmp_path / "config.json")
        save_config(cfg_path, dataclasses.replace(cfg, out_dir=str(runs)))
        path = os.path.join(str(runs), os.path.basename(run_dir), "seed0",
                            f"spg_{STYLE_NAMES[0]}.ckpt")
        _, arrays = load_checkpoint(path)
        arrays["meta.dims"] = np.array([3, cfg.data.size, cfg.data.size,
                                        cfg.spg.pad, cfg.spg.depth], np.float32)
        save_checkpoint(path, "SPGN", arrays)
        assert main(["--config", cfg_path, "eval"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and path in err


class TestStagedData:
    def test_commands_after_gen_data_render_nothing(self, tmp_path, monkeypatch):
        # gen-data saves every domain; later commands load them back
        cfg = tiny_experiment(out_dir=str(tmp_path / "runs"))
        cfg_path = str(tmp_path / "config.json")
        save_config(cfg_path, cfg)
        assert main(["--config", cfg_path, "gen-data"]) == 0
        calls = []
        render = pipeline.make_domain
        monkeypatch.setattr(pipeline, "make_domain",
                            lambda spec: calls.append(spec.name) or render(spec))
        assert main(["--config", cfg_path, "train-apf"]) == 0
        assert main(["--config", cfg_path, "eval"]) == 0
        assert calls == []

    def test_each_training_command_stops_at_its_stage(self, tmp_path, capsys):
        cfg = tiny_experiment(out_dir=str(tmp_path / "runs"))
        cfg_path = str(tmp_path / "config.json")
        save_config(cfg_path, cfg)
        run_dir = run_dir_for(cfg)
        seed_dir = os.path.join(run_dir, "seed0")
        spgs = sorted(f"spg_{s}.ckpt" for s in STYLE_NAMES)
        assert main(["--config", cfg_path, "gen-data"]) == 0
        assert sorted(os.listdir(run_dir)) == ["config.json", "data"]
        assert main(["--config", cfg_path, "pretrain-oracle"]) == 0
        assert sorted(os.listdir(run_dir)) == ["config.json", "data", "oracle.ckpt"]
        assert main(["--config", cfg_path, "train-spg"]) == 0
        assert sorted(os.listdir(seed_dir)) == spgs
        assert main(["--config", cfg_path, "train-apf"]) == 0
        assert sorted(os.listdir(seed_dir)) == ["apf.ckpt"] + spgs
        assert sorted(os.listdir(run_dir)) == ["config.json", "data", "oracle.ckpt", "seed0"]
        assert capsys.readouterr().out.splitlines() == [
            f"{command} -> {run_dir}"
            for command in ("gen-data", "pretrain-oracle", "train-spg", "train-apf")]

    def test_eval_of_an_untrained_run_renders_nothing(self, tmp_path, capsys):
        # the missing checkpoint is reported before any domain is rendered
        cfg = tiny_experiment(out_dir=str(tmp_path / "runs"))
        cfg_path = str(tmp_path / "config.json")
        save_config(cfg_path, cfg)
        assert main(["--config", cfg_path, "eval"]) == 1
        assert "run pretrain-oracle first" in capsys.readouterr().err
        assert not os.path.exists(run_dir_for(cfg))

    def test_only_missing_domains_are_rendered(self, tmp_path, monkeypatch):
        cfg = tiny_experiment(out_dir=str(tmp_path / "runs"))
        run_dir = run_dir_for(cfg)
        saved = pipeline.stage_data(cfg, run_dir)
        path = os.path.join(run_dir, "data", "dusk_val.dom")
        with open(path, "rb") as f:
            blob = f.read()
        os.remove(path)
        calls = []
        render = pipeline.make_domain
        monkeypatch.setattr(pipeline, "make_domain",
                            lambda spec: calls.append(spec.name) or render(spec))
        domains = pipeline.stage_data(cfg, run_dir)
        assert calls == ["dusk_val"]
        with open(path, "rb") as f:
            assert f.read() == blob
        digests = {n: domain_digest(s) for n, s in domains.items()}
        assert digests == {n: domain_digest(s) for n, s in saved.items()}

    def test_only_missing_generators_are_trained(self, tmp_path, monkeypatch):
        # generators share no state: the one whose checkpoint is gone trains
        # alone and comes back byte for byte; the others load
        cfg = tiny_experiment(out_dir=str(tmp_path / "runs"))
        domains = pipeline.stage_data(cfg)
        _, oracle, _ = pipeline.stage_oracle(cfg, domains)
        sdir = seed_dir(run_dir_for(cfg), 0)
        pipeline.stage_spg(cfg, domains, oracle, 0, sdir)
        path = os.path.join(sdir, "spg_cool_dim.ckpt")
        with open(path, "rb") as f:
            blob = f.read()
        os.remove(path)
        calls = []
        train = pipeline.train_spg
        monkeypatch.setattr(pipeline, "train_spg",
                            lambda gen, *a, **k: calls.append(gen.style) or train(gen, *a, **k))
        pipeline.stage_spg(cfg, domains, oracle, 0, sdir)
        assert calls == ["cool_dim"]
        with open(path, "rb") as f:
            assert f.read() == blob


class TestRunAll:
    def test_run_all_and_seed_override(self, tmp_path, capsys):
        cfg = tiny_experiment(out_dir=str(tmp_path / "runs"))
        cfg_path = str(tmp_path / "config.json")
        save_config(cfg_path, cfg)
        assert main(["--config", cfg_path, "--seed", "1", "run-all"]) == 0
        out = capsys.readouterr().out
        assert "target mIoU" in out
        run_dir = run_dir_for(cfg)
        # beside it, the fused gain over the source styles' validation rows,
        # the rows a recipe is chosen on
        with open(os.path.join(run_dir, "report.csv")) as f:
            header, *lines = [line.strip().split(",") for line in f]
        rows = [dict(zip(header, line)) for line in lines]
        gains = [float(r["sage_miou"]) - float(r["baseline_miou"]) for r in rows
                 if r["domain"] in {f"{s}_val" for s in STYLE_NAMES}]
        assert len(gains) == len(STYLE_NAMES)
        printed = next(line for line in out.splitlines() if line.startswith("source-style mIoU"))
        gain = float(printed.split("(")[1].split(")")[0])
        assert gain == pytest.approx(np.mean(gains), abs=5e-5 + 1e-6)
        # the hash leaves the seed list out: --seed 1 fills seed1/ of the
        # config's own run directory
        assert os.listdir(str(tmp_path / "runs")) == [os.path.basename(run_dir)]
        seed_dirs = [d for d in os.listdir(run_dir) if d.startswith("seed")]
        assert seed_dirs == ["seed1"]

    def test_seed_narrows_reports_within_one_run(self, tmp_path, capsys):
        # after a two-seed run-all, --seed picks seeds of that same run
        cfg = tiny_experiment(seeds=(0, 1), out_dir=str(tmp_path / "runs"))
        cfg_path = str(tmp_path / "config.json")
        save_config(cfg_path, cfg)
        assert main(["--config", cfg_path, "run-all"]) == 0
        run_dir = run_dir_for(cfg)
        capsys.readouterr()
        assert main(["--config", cfg_path, "--seed", "0", "eval"]) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert len(rows) == len(eval_domains(cfg))
        assert {line.split()[1] for line in rows} == {"0"}
        src = os.path.join(run_dir, "data", "base_val.dom")
        out_path = str(tmp_path / "pred.dom")
        assert main(["--config", cfg_path, "--seed", "1", "infer",
                     "--input", src, "--out", out_path]) == 0
        assert len(load_domain(out_path)) == len(load_domain(src))
        assert os.listdir(str(tmp_path / "runs")) == [os.path.basename(run_dir)]

    def test_in_memory_run_names_no_report(self, tmp_path, monkeypatch, capsys):
        # an empty out_dir keeps the run in memory: no report path is printed
        monkeypatch.delenv("PROMPTSEG_OUT", raising=False)
        monkeypatch.chdir(tmp_path)
        save_config("config.json", tiny_experiment(out_dir=""))
        assert main(["--config", "config.json", "run-all"]) == 0
        out = capsys.readouterr().out
        assert "target mIoU" in out and "report ->" not in out
        assert os.listdir(tmp_path) == ["config.json"]

    def test_seeds_list_override(self, tmp_path):
        cfg = tiny_experiment(out_dir=str(tmp_path / "runs"))
        cfg_path = str(tmp_path / "config.json")
        save_config(cfg_path, cfg)
        assert main(["--config", cfg_path, "--seed", "0,1", "run-all"]) == 0
        hashed = os.listdir(str(tmp_path / "runs"))[0]
        root = str(tmp_path / "runs" / hashed)
        assert os.path.isdir(os.path.join(root, "seed0"))
        assert os.path.isdir(os.path.join(root, "seed1"))


class TestPretrainOracle:
    def test_zero_iteration_oracle(self, tmp_path, capsys):
        cfg = tiny_experiment(out_dir=str(tmp_path / "runs"))
        cfg = dataclasses.replace(cfg, oracle=dataclasses.replace(cfg.oracle, iters=0))
        cfg_path = str(tmp_path / "config.json")
        save_config(cfg_path, cfg)
        assert main(["-v", "--config", cfg_path, "pretrain-oracle"]) == 0
        run_dir = run_dir_for(cfg)
        assert capsys.readouterr().out == f"pretrain-oracle -> {run_dir}\n"
        assert os.path.exists(os.path.join(run_dir, "oracle.ckpt"))


def drift_oracle_after(monkeypatch, stage):
    """Make ``pipeline.<stage>`` write into the sealed oracle's weights after it runs."""
    run = getattr(pipeline, stage)

    def drifting(*args, **kwargs):
        out = run(*args, **kwargs)
        oracle = next(a for a in args if isinstance(a, OracleHandle))
        oracle._model.stage[0].conv.weight.data[0, 0, 0, 0] += 1.0
        return out

    monkeypatch.setattr(pipeline, stage, drifting)


class TestSealCheck:
    @pytest.mark.parametrize("command,stage", [("train-spg", "stage_spg"),
                                               ("train-apf", "stage_apf")])
    def test_weight_drift_fails_the_command(self, tmp_path, monkeypatch, capsys,
                                            command, stage):
        # a stage that writes into the sealed oracle's weights is caught
        # right after it, as in run-all
        drift_oracle_after(monkeypatch, stage)
        cfg = tiny_experiment(out_dir=str(tmp_path / "runs"))
        cfg_path = str(tmp_path / "config.json")
        save_config(cfg_path, cfg)
        assert main(["--config", cfg_path, command]) == 1
        err = capsys.readouterr().err
        assert f"stage '{command}' changed the sealed oracle's weights" in err

    @pytest.mark.parametrize("command", ["eval", "attention-report"])
    def test_drift_during_eval_fails_a_report(self, staged, monkeypatch, capsys,
                                              command):
        # the reports of a trained run evaluate through the same checked chain
        _, cfg_path, _ = staged
        drift_oracle_after(monkeypatch, "stage_eval")
        assert main(["--config", cfg_path, command]) == 1
        err = capsys.readouterr().err
        assert "stage 'eval' changed the sealed oracle's weights" in err


class TestAblateCommand:
    def test_fusion_suite_emits_tables(self, tmp_path, capsys):
        cfg = tiny_experiment(out_dir=str(tmp_path / "runs"))
        cfg_path = str(tmp_path / "config.json")
        save_config(cfg_path, cfg)
        assert main(["--config", cfg_path, "ablate", "--suite", "fusion"]) == 0
        out = capsys.readouterr().out
        assert "| arm |" in out
        run_dir = run_dir_for(cfg)
        with open(os.path.join(run_dir, "ablate_fusion.csv")) as f:
            lines = f.read().splitlines()
        assert len(lines) == 1 + 8
        assert os.path.exists(os.path.join(run_dir, "ablate_fusion.md"))


class TestResolution:
    @pytest.mark.parametrize("argv", [
        ["train-spg", "--style", "cool_dim"],
        ["train-spg", "--variant", "full"],
        ["train-spg", "--init", "zero"],
        ["train-apf", "--no-pn"],
        ["train-apf", "--no-softmax"],
        ["train-apf", "--no-tanh"],
    ], ids=lambda argv: argv[1])
    def test_config_sections_have_no_flag_overrides(self, argv, tmp_path):
        # a training command takes its experiment from the config alone: a
        # flag that changed it would train in a run no later command opens
        cfg = tiny_experiment(out_dir=str(tmp_path / "runs"))
        cfg_path = str(tmp_path / "config.json")
        save_config(cfg_path, cfg)
        with pytest.raises(SystemExit) as exit_info:
            main(["--config", cfg_path] + argv)
        assert exit_info.value.code == 2
        assert not os.path.exists(cfg.out_dir)

    def test_env_var_sets_output_root(self, tmp_path, monkeypatch):
        monkeypatch.setenv("PROMPTSEG_OUT", str(tmp_path / "envroot"))
        cfg = tiny_experiment()
        cfg_path = str(tmp_path / "config.json")
        save_config(cfg_path, cfg)
        assert main(["--config", cfg_path, "gen-data"]) == 0
        roots = os.listdir(str(tmp_path / "envroot"))
        assert len(roots) == 1

    def test_out_flag_beats_env_var(self, tmp_path, monkeypatch):
        monkeypatch.setenv("PROMPTSEG_OUT", str(tmp_path / "envroot"))
        cfg = tiny_experiment()
        cfg_path = str(tmp_path / "config.json")
        save_config(cfg_path, cfg)
        assert main(["--config", cfg_path, "--out", str(tmp_path / "flagroot"),
                     "gen-data"]) == 0
        assert os.path.isdir(str(tmp_path / "flagroot"))
        assert not os.path.isdir(str(tmp_path / "envroot"))

    def test_bad_config_reports_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["--config", str(bad), "gen-data"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_missing_config_reports_error(self, tmp_path, capsys):
        path = str(tmp_path / "missing.json")
        assert main(["--config", path, "eval"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and path in err

    def test_unknown_config_key_reports_error(self, tmp_path, capsys):
        cfg = tiny_experiment()
        path = tmp_path / "cfg.json"
        payload = json.loads(open_config_text(cfg))
        payload["mystery"] = 1
        path.write_text(json.dumps(payload))
        assert main(["--config", str(path), "gen-data"]) == 1
        assert "mystery" in capsys.readouterr().err

    @pytest.mark.parametrize("payload, key", [
        ({"spg": 5}, "spg"),
        ({"seeds": 3}, "seeds"),
        ({"oracle": {"widths": 7}}, "oracle.widths"),
        ({"oracle": {"widths": ["a"]}}, "oracle.widths"),
        ({"oracle": {"widths": [16.5, 32, 64]}}, "oracle.widths"),
        # json reads NaN and Infinity; validation refuses them before any compute
        ({"apf": {"lr": float("nan")}}, "apf.lr"),
        ({"oracle": {"lr": float("inf")}}, "oracle.lr"),
        ({"spg": {"momentum": float("nan")}}, "spg.momentum"),
        ({"data": {"jitter": {"haze": float("nan")}}}, "data.jitter.haze"),
    ])
    def test_malformed_config_reports_error(self, tmp_path, capsys, payload, key):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(payload))
        out = tmp_path / "runs"
        assert main(["--config", str(path), "--out", str(out), "gen-data"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and key in err
        assert not out.exists()  # nothing was rendered


def open_config_text(cfg):
    from promptseg.config import to_json

    return to_json(cfg)
