"""End-to-end orchestration: data, oracle, prompt training, fusion, reports.

This module alone lays a run out as ``<out>/<confighash>/``: datasets and
the oracle shared across seeds, one subdirectory per seed for the trained
prompt artifacts.  A stage handed a directory loads what it holds and trains,
and saves, only what is missing.  Every emitted number is a pure function of
(config, seed); wall-clock time goes to a side file outside that contract.
"""

import dataclasses
import functools
import itertools
import json
import logging
import os
import time
from dataclasses import dataclass

import numpy as np

from .checkpoint import atomic_open
from .config import ExperimentConfig, config_hash, save_config
from .datasets import DomainSpec, load_domain, make_domain, save_domain
from .errors import StageError
from .fusion import (
    FusionHeads,
    SharedEncoder,
    infer,
    load_heads,
    save_heads,
    train_apf,
)
from .metrics import miou
from .oracle import OracleHandle, load_oracle, pretrain_oracle, save_oracle
from .prompts import (
    INIT_STRATEGIES,
    VARIANTS,
    StylePromptGenerator,
    load_generator,
    meta_pretrain,
    save_generator,
    train_spg,
)
from .scenes import SceneSpec
from .styles import TARGET_STYLES, style_presets

log = logging.getLogger(__name__)

STYLE_NAMES = tuple(style_presets())
TARGET_NAMES = tuple(TARGET_STYLES)
TARGET_DOMAINS = tuple(f"{t}_val" for t in TARGET_NAMES)
CLASS_COUNT = 6


@dataclass
class Results:
    """What a run measured, before formatting: the one result type.

    ``cells`` holds one ``(arm, seed, rows, attention)`` tuple per trained
    pair, seed-major: ``rows`` one dict per evaluated domain (baseline and
    fused mIoU plus per-class IoU), ``attention`` one per (domain, style)
    with the mean fusion weight.  A plain run has one arm, named "".  Every
    report is derived from the cells or from ``target_means``.
    """

    cells: list
    oracle_fingerprint: int
    seal_checks: int = 0

    @property
    def rows(self) -> list:
        return [r for _, _, rows, _ in self.cells for r in rows]

    @property
    def attention(self) -> list:
        return [a for _, _, _, attention in self.cells for a in attention]

    def target_means(self, column="sage_miou") -> dict:
        """{arm: {seed: mean of ``column`` over the TARGET_DOMAINS rows}}."""
        means = {}
        for arm, seed, rows, _ in self.cells:
            vals = [r[column] for r in rows if r["domain"] in TARGET_DOMAINS]
            means.setdefault(arm, {})[seed] = float(np.mean(vals))
        return means

    def arm_means(self, column="sage_miou") -> dict:
        """{arm: mean of its ``target_means`` over seeds, in run order}."""
        return {arm: float(np.mean(list(per_seed.values())))
                for arm, per_seed in self.target_means(column).items()}

    def attention_means(self, names) -> list:
        """Mean fusion weight per (domain, style) over every cell, ``names`` in order."""
        attention, out = self.attention, []
        for name in names:
            for style in STYLE_NAMES:
                vals = [a["mean_weight"] for a in attention
                        if a["domain"] == name and a["style"] == style]
                out.append({"domain": name, "style": style,
                            "mean_weight": float(np.mean(vals))})
        return out


def _stage(name):
    """Decorator: failures inside a stage abort with the stage name attached."""

    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            except StageError:
                raise
            except Exception as e:
                raise StageError(f"stage {name!r} failed: {e}") from e

        return run

    return wrap


def domain_specs(cfg: ExperimentConfig) -> dict:
    """Every domain of the synthetic world, keyed by report name.

    Styled twins restyle the very scenes of the base split, so masks match
    pixel for pixel; targets combine held-out styles with fresh scenes.
    """
    d = cfg.data
    presets = style_presets()
    scene_tr = SceneSpec(seed=d.scene_train_seed, height=d.size, width=d.size)
    scene_val = SceneSpec(seed=d.scene_val_seed, height=d.size, width=d.size)
    scene_tgt = SceneSpec(seed=d.scene_target_seed, height=d.size, width=d.size)
    specs = {
        "base_train": DomainSpec("base_train", scene_tr, d.base_train),
        "base_val": DomainSpec("base_val", scene_val, d.base_val),
    }
    for s in STYLE_NAMES:
        specs[f"{s}_train"] = DomainSpec(
            f"{s}_train", scene_tr, d.styled_train,
            style_seed=d.style_train_seed, style_mean=presets[s],
            style_jitter=d.jitter,
        )
        specs[f"{s}_val"] = DomainSpec(
            f"{s}_val", scene_val, d.styled_val,
            style_seed=d.style_val_seed, style_mean=presets[s],
            style_jitter=d.jitter,
        )
    for t in TARGET_NAMES:
        specs[f"{t}_val"] = DomainSpec(
            f"{t}_val", scene_tgt, d.target_val,
            style_seed=d.style_target_seed, style_mean=TARGET_STYLES[t],
            style_jitter=d.jitter,
        )
    return specs


def run_dir_for(cfg) -> str:
    """``<out>/<confighash>``: where every artifact of ``cfg`` lives."""
    return os.path.join(cfg.out_dir, config_hash(cfg))


def open_run(cfg) -> str:
    """The run directory of ``cfg``, with ``config.json`` saved in it."""
    run_dir = run_dir_for(cfg)
    save_config(os.path.join(run_dir, "config.json"), cfg)
    return run_dir


def seed_dir(run_dir, seed) -> str:
    """Per-seed subdirectory holding the generators and fusion heads."""
    return os.path.join(run_dir, f"seed{seed}")


@_stage("gen-data")
def stage_data(cfg, run_dir=None) -> dict:
    """Every domain: loaded from ``run_dir/data`` where saved there, else
    rendered (and saved there, given ``run_dir``)."""
    domains = {}
    for name, spec in domain_specs(cfg).items():
        path = None if run_dir is None else os.path.join(run_dir, "data", f"{name}.dom")
        if path is not None and os.path.exists(path):
            domains[name] = load_domain(path)
            continue
        domains[name] = make_domain(spec)
        if path is not None:
            save_domain(path, domains[name])
    return domains


@_stage("pretrain-oracle")
def stage_oracle(cfg, domains, run_dir=None):
    """Pretrain the frozen segmentation model on clean base scenes."""
    path = None if run_dir is None else os.path.join(run_dir, "oracle.ckpt")
    if path is not None and os.path.exists(path):
        model = load_oracle(path)
        return model, OracleHandle(model), []
    o = cfg.oracle
    model, losses = pretrain_oracle(
        domains["base_train"], iters=o.iters, seed=o.seed,
        batch_size=o.batch, lr=o.lr, widths=o.widths, kernel=o.kernel,
    )
    if path is not None:
        save_oracle(path, model)
    return model, OracleHandle(model), losses


@_stage("train-spg")
def stage_spg(cfg, domains, oracle, seed, seed_dir=None, only=None) -> dict:
    """Train one generator per style against the sealed oracle.

    ``only`` restricts per-style training to a single named style; the
    shared warm start still covers every style so the result matches the
    full run bit for bit.  Loaded when ``seed_dir`` holds all those requested.
    """
    names = STYLE_NAMES if only is None else (only,)
    paths = {} if seed_dir is None else {
        name: os.path.join(seed_dir, f"spg_{name}.ckpt") for name in names}
    if paths and all(os.path.exists(p) for p in paths.values()):
        return {name: load_generator(p) for name, p in paths.items()}
    s = cfg.spg
    d = cfg.data
    gens = {
        name: StylePromptGenerator(
            name, s.variant, height=d.size, width=d.size,
            pad=s.pad, depth=s.depth, init=s.init, seed=seed,
        )
        for name in STYLE_NAMES
    }
    subsets = {name: domains[f"{name}_train"] for name in STYLE_NAMES}
    if s.init == "meta":
        meta_pretrain(gens, subsets, oracle, s, seed=seed)
    for name in names:
        train_spg(gens[name], subsets[name], oracle, s, seed=seed)
        if paths:
            save_generator(paths[name], gens[name])
    return gens if only is None else {only: gens[only]}


@_stage("train-apf")
def stage_apf(cfg, domains, gens, enc, oracle, seed, seed_dir=None):
    """Train the fusion heads; everything else stays frozen."""
    path = None if seed_dir is None else os.path.join(seed_dir, "apf.ckpt")
    if path is not None and os.path.exists(path):
        return _load_checked_heads(path, enc)
    a = cfg.apf
    source = list(domains["base_train"])
    if a.mix_styled:
        # stylized twins of the source join the pool, one style's worth of
        # base originals kept so the clean domain stays represented
        source = [x for s in STYLE_NAMES for x in domains[f"{s}_train"]]
        source += list(domains["base_train"])[: cfg.data.styled_train]
    heads = FusionHeads(feature_dim=enc.feature_dim, embed_dim=a.embed_dim,
                        seed=seed)
    train_apf(heads, source, list(gens.values()), enc, oracle, a, seed=seed)
    if path is not None:
        save_heads(path, heads, enc.fingerprint())
    return heads


def _load_checked_heads(path, enc):
    """Heads saved at ``path``, refused unless trained against ``enc``."""
    heads, enc_fp = load_heads(path)
    if enc_fp != enc.fingerprint():
        raise StageError(f"{path}: fusion heads were trained against a "
                         "different encoder (fingerprint mismatch)")
    return heads


def eval_domains(cfg) -> tuple:
    """Names of the validation domains a report covers."""
    return ("base_val",) + tuple(f"{s}_val" for s in STYLE_NAMES) + TARGET_DOMAINS


@_stage("eval")
def stage_eval(cfg, domains, gens, enc, heads, oracle, seed, names=None) -> tuple:
    """Baseline and fused mIoU plus attention statistics per val domain."""
    a = cfg.apf
    gen_list = list(gens.values())
    rows, attention = [], []
    for name in (eval_domains(cfg) if names is None else names):
        samples = domains[name]
        xs = np.stack([x.image for x in samples])
        ys = np.stack([x.mask for x in samples])
        base_iou, base_mean = miou(oracle.predict_mask(xs), ys, CLASS_COUNT)
        pred, weights = infer(
            xs, gen_list, enc, heads, oracle, per_channel=a.per_channel,
            use_softmax=a.use_softmax, use_tanh=a.use_tanh, return_weights=True,
        )
        fused_iou, fused_mean = miou(pred, ys, CLASS_COUNT)
        row = {"domain": name, "seed": seed,
               "baseline_miou": base_mean, "sage_miou": fused_mean}
        for c in range(CLASS_COUNT):
            row[f"iou_{c}"] = fused_iou[c]
            row[f"baseline_iou_{c}"] = base_iou[c]
        rows.append(row)
        for i, style in enumerate(STYLE_NAMES):
            attention.append({"domain": name, "seed": seed, "style": style,
                              "mean_weight": float(weights[:, i].mean())})
    return rows, attention


def _fmt(value):
    return f"{value:.6f}" if isinstance(value, float) else str(value)


def write_csv(path, rows, columns):
    with atomic_open(path) as f:
        f.write(",".join(columns) + "\n")
        for row in rows:
            f.write(",".join(_fmt(row[c]) for c in columns) + "\n")


def report_columns():
    cols = ["domain", "seed", "baseline_miou", "sage_miou"]
    cols += [f"iou_{c}" for c in range(CLASS_COUNT)]
    cols += [f"baseline_iou_{c}" for c in range(CLASS_COUNT)]
    return cols


class SealCheck:
    """The runtime seal check, called after a stage with the stage's name.

    It compares the live weights of the oracle and of the encoder with their
    fingerprints when the check was built; a change raises ``StageError``
    naming the stage.  ``passed`` counts the checks that held.
    """

    def __init__(self, oracle, enc):
        self.oracle, self.enc = oracle, enc
        self.enc_fingerprint = enc.fingerprint()
        self.passed = 0

    def __call__(self, stage):
        if self.oracle.current_fingerprint() != self.oracle.fingerprint:
            raise StageError(f"stage {stage!r} changed the sealed oracle's weights")
        if self.enc.fingerprint() != self.enc_fingerprint:
            raise StageError(f"stage {stage!r} changed the frozen encoder's weights")
        self.passed += 1


def run_arms(cfg, arms, run_dir=None, names=None):
    """Train and evaluate every (seed, arm) pair on one world.

    The world (domains, oracle, encoder) is built once from ``cfg``; ``arms``
    maps a name to a config that differs from ``cfg`` only in its ``spg`` or
    ``apf`` section.  Within a seed, arms with equal ``spg`` sections share
    one set of generators.  Artifacts go under ``run_dir``, which only a
    one-arm run should pass; a rerun loads what it holds, so it resumes.

    After every stage from the oracle's on, ``SealCheck`` checks that the
    oracle and the encoder kept their weights.  ``Results`` holds one cell
    per pair and the number of seal checks passed.
    """
    domains = stage_data(cfg, run_dir)
    model, oracle, _ = stage_oracle(cfg, domains, run_dir)
    enc = SharedEncoder.from_seg_model(model)
    check_seal = SealCheck(oracle, enc)
    check_seal("pretrain-oracle")
    cells = []
    for seed in cfg.seeds:
        log.info("seed %d", seed)
        sdir = None if run_dir is None else seed_dir(run_dir, seed)
        shared = {}
        for arm, arm_cfg in arms.items():
            if arm_cfg.spg not in shared:
                shared[arm_cfg.spg] = stage_spg(arm_cfg, domains, oracle, seed, sdir)
                check_seal("train-spg")
            gens = shared[arm_cfg.spg]
            heads = stage_apf(arm_cfg, domains, gens, enc, oracle, seed, sdir)
            check_seal("train-apf")
            rows, attention = stage_eval(arm_cfg, domains, gens, enc, heads,
                                         oracle, seed, names)
            check_seal("eval")
            cells.append((arm, seed, rows, attention))
    return Results(cells, oracle.fingerprint, check_seal.passed)


def run_pipeline(cfg: ExperimentConfig) -> Results:
    """The full experiment: every stage, every seed, reports on disk.

    An empty ``cfg.out_dir`` keeps everything in memory.
    """
    cfg.validate()
    t0 = time.time()
    run_dir = open_run(cfg) if cfg.out_dir else None
    results = run_arms(cfg, {"": cfg}, run_dir)
    if run_dir is not None:
        write_csv(os.path.join(run_dir, "report.csv"), results.rows,
                  report_columns())
        write_csv(os.path.join(run_dir, "attention.csv"), results.attention,
                  ["domain", "seed", "style", "mean_weight"])
        meta = {"config_hash": config_hash(cfg),
                "wall_clock_sec": round(time.time() - t0, 3),
                "oracle_fingerprint": results.oracle_fingerprint,
                "seal_checks": results.seal_checks}
        with atomic_open(os.path.join(run_dir, "report_meta.json")) as f:
            json.dump(meta, f, indent=2, sort_keys=True)
            f.write("\n")
    return results


# ---------------------------------------------------------------------------
# reporting: load a finished run or fail

def _saved(directory, name, stage):
    """Path of ``name`` in ``directory``, which ``stage`` must have written."""
    path = os.path.join(directory, name)
    if not os.path.exists(path):
        raise StageError(f"no checkpoint at {path}; run {stage} first")
    return path


def load_seed_artifacts(cfg, run_dir, seed):
    """Rehydrate (model, oracle, enc, gens, heads) from a finished run."""
    model = load_oracle(_saved(run_dir, "oracle.ckpt", "pretrain-oracle"))
    oracle = OracleHandle(model)
    enc = SharedEncoder.from_seg_model(model)
    sdir = seed_dir(run_dir, seed)
    gens = {name: load_generator(_saved(sdir, f"spg_{name}.ckpt", "train-spg"))
            for name in STYLE_NAMES}
    heads = _load_checked_heads(_saved(sdir, "apf.ckpt", "train-apf"), enc)
    return model, oracle, enc, gens, heads


def evaluate_run(cfg, run_dir, names=None) -> Results:
    """A finished run evaluated again, every seed, ``names`` or all domains.

    Every seed's artifacts load before the data, so a run that is not
    trained fails before anything is rendered into its directory.
    """
    arts = {seed: load_seed_artifacts(cfg, run_dir, seed) for seed in cfg.seeds}
    domains = stage_data(cfg, run_dir)
    cells = []
    for seed, (_, oracle, enc, gens, heads) in arts.items():
        cells.append(("", seed, *stage_eval(cfg, domains, gens, enc, heads,
                                            oracle, seed, names)))
    return Results(cells, oracle.fingerprint)


# ---------------------------------------------------------------------------
# ablation suites

def _arm(cfg, section, **changes):
    """``cfg`` with fields of one config section replaced."""
    return dataclasses.replace(
        cfg, **{section: dataclasses.replace(getattr(cfg, section), **changes)})


# suite name -> {arm name: arm config}, in table order.  Prompt shape and
# template init train their own generators per arm; the 2^3 fusion-flag
# arms leave ``spg`` alone, so they share one set of generators per seed,
# and holding the prompts fixed makes that comparison exact.
SUITES = {
    "generators": lambda cfg: {v: _arm(cfg, "spg", variant=v) for v in VARIANTS},
    "init": lambda cfg: {s: _arm(cfg, "spg", init=s) for s in INIT_STRATEGIES},
    "fusion": lambda cfg: {
        "+".join(t for t, on in zip(("pn", "softmax", "tanh"), f) if on) or "none":
        _arm(cfg, "apf", per_channel=f[0], use_softmax=f[1], use_tanh=f[2])
        for f in itertools.product((True, False), repeat=3)},
}


def ablate(cfg, suite) -> Results:
    """Every arm of one suite, on one world, evaluated on the target domains."""
    return run_arms(cfg, SUITES[suite](cfg), names=TARGET_DOMAINS)
