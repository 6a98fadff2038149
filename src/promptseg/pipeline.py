"""End-to-end orchestration: data, oracle, prompt training, fusion, reports.

This module alone lays a run out as ``<out>/<confighash>/``: datasets and
the oracle shared across seeds, one subdirectory per seed for the trained
prompt artifacts.  A stage handed a directory loads what it holds and trains,
and saves, only what is missing.  Every emitted number is a pure function of
(config, seed); wall-clock time goes to a side file outside that contract.
"""

import ctypes
import dataclasses
import functools
import glob
import itertools
import json
import logging
import os
import time
from dataclasses import dataclass

import numpy as np

from .checkpoint import atomic_open
from .config import ExperimentConfig, config_hash, save_config
from .datasets import DomainSpec, load_domain, make_domain, save_domain, stack_images, stack_masks
from .errors import StageError
from .fusion import (
    FusionHeads,
    SharedEncoder,
    frozen_tables,
    infer,
    load_heads,
    save_heads,
    train_apf,
)
from .metrics import miou
from .oracle import OracleHandle, SegModel, load_oracle, pretrain_oracle, save_oracle
from .prompts import (
    INIT_STRATEGIES,
    VARIANTS,
    StylePromptGenerator,
    load_generator,
    save_generator,
    train_spg,
)
from .scenes import CLASS_COUNT, SceneSpec
from .seeding import mix_seed, stream
from .styles import TARGET_STYLES, style_presets

log = logging.getLogger(__name__)

STYLE_NAMES = tuple(style_presets())
TARGET_NAMES = tuple(TARGET_STYLES)
TARGET_DOMAINS = tuple(f"{t}_val" for t in TARGET_NAMES)
# the source styles' validation rows: a recipe is chosen on these, never on the targets
SOURCE_DOMAINS = tuple(f"{s}_val" for s in STYLE_NAMES)
# the chain of a run, in order; a stage's name is also its CLI command
STAGES = ("gen-data", "pretrain-oracle", "train-spg", "train-apf", "eval")


@dataclass
class Results:
    """What a run measured, before formatting: the one result type.

    ``cells`` holds one ``(arm, seed, rows, attention)`` tuple per trained
    pair, seed-major: ``rows`` one dict per evaluated domain (baseline and
    fused mIoU plus per-class IoU), ``attention`` one per (domain, style)
    with the mean fusion weight.  A plain run has one arm, named "".  Every
    report is derived from the cells or from ``target_means``.
    ``oracle_queries`` is the oracle's ``OracleHandle.queries`` at the end
    and ``stage_queries`` splits them by stage; ``stage_seconds`` is the wall
    time summed per stage of ``STAGES``, which no byte contract covers.
    """

    cells: list
    oracle_fingerprint: int
    seal_checks: int
    oracle_queries: dict
    stage_queries: dict
    stage_seconds: dict

    @property
    def rows(self) -> list:
        return [r for _, _, rows, _ in self.cells for r in rows]

    @property
    def attention(self) -> list:
        return [a for _, _, _, attention in self.cells for a in attention]

    def target_means(self, column="sage_miou", names=TARGET_DOMAINS) -> dict:
        """{arm: {seed: mean of ``column`` over the rows of domains ``names``}}."""
        means = {}
        for arm, seed, rows, _ in self.cells:
            vals = [r[column] for r in rows if r["domain"] in names]
            means.setdefault(arm, {})[seed] = float(np.mean(vals))
        return means

    def arm_means(self, column="sage_miou", names=TARGET_DOMAINS) -> dict:
        """{arm: mean of its ``target_means`` over seeds, in run order}."""
        return {arm: float(np.mean(list(per_seed.values())))
                for arm, per_seed in self.target_means(column, names).items()}

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


class TrainingDomains(dict):
    """The ``*_train`` domains of a world, as a training stage sees them:
    reading any other raises ``StageError`` naming the stage and the domain,
    so no validation or target image can reach training."""

    def __init__(self, stage, domains):
        super().__init__((name, d) for name, d in domains.items() if name.endswith("_train"))
        self.stage = stage

    def __missing__(self, name):
        raise StageError(f"stage {self.stage!r} read domain {name!r}; "
                         "a training stage sees the *_train domains only")


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
    o = cfg.oracle
    model = SegModel(CLASS_COUNT, stream(o.seed, "oracle-init"), o.widths, o.kernel)
    if path is not None and os.path.exists(path):
        load_oracle(path, model)
        return model, OracleHandle(model), []
    losses = pretrain_oracle(model, domains["base_train"], o)
    if path is not None:
        save_oracle(path, model)
    return model, OracleHandle(model), losses


@_stage("train-spg")
def stage_spg(cfg, domains, oracle, seed, seed_dir=None) -> dict:
    """Train one generator per style against the sealed oracle; a style's is
    loaded where ``seed_dir`` holds its checkpoint.  Generators share no
    state, so one trained alone has the bits of one trained with the rest."""
    s, gens = cfg.spg, {}
    for name in STYLE_NAMES:
        gen = gens[name] = StylePromptGenerator(name, s.variant, cfg.data.size, s.pad, s.depth,
                                                s.init, seed)
        path = None if seed_dir is None else os.path.join(seed_dir, f"spg_{name}.ckpt")
        if path is not None and os.path.exists(path):
            load_generator(path, gen)
            continue
        subset = domains[f"{name}_train"]
        if s.init == "meta":  # a short warm-up on the same subset first
            train_spg(gen, subset, oracle, dataclasses.replace(s, iters=s.meta_iters),
                      seed=mix_seed(seed, "meta"))
        train_spg(gen, subset, oracle, s, seed=seed)
        if path is not None:
            save_generator(path, gen)
    return gens


@_stage("train-apf")
def stage_apf(cfg, domains, gens, enc, oracle, seed, seed_dir=None):
    """Train the fusion heads; everything else stays frozen."""
    path = None if seed_dir is None else os.path.join(seed_dir, "apf.ckpt")
    a = cfg.apf
    heads = FusionHeads(feature_dim=enc.feature_dim, embed_dim=a.embed_dim, seed=seed)
    if path is not None and os.path.exists(path):
        if load_heads(path, heads) != enc.fingerprint():
            raise StageError(f"{path}: fusion heads were trained against a "
                             "different encoder (fingerprint mismatch)")
        return heads
    source = list(domains["base_train"])
    if a.mix_styled:
        # stylized twins of the source join the pool, one style's worth of
        # base originals kept so the clean domain stays represented
        source = [x for s in STYLE_NAMES for x in domains[f"{s}_train"]]
        source += list(domains["base_train"])[: cfg.data.styled_train]
    train_apf(heads, source, list(gens.values()), enc, oracle, a, seed=seed)
    if path is not None:
        save_heads(path, heads, enc.fingerprint())
    return heads


def eval_domains(cfg) -> tuple:
    """Names of the validation domains a report covers."""
    return ("base_val",) + SOURCE_DOMAINS + TARGET_DOMAINS


@_stage("eval")
def stage_eval(cfg, domains, gens, enc, heads, oracle, seed, names=None) -> tuple:
    """Baseline and fused mIoU plus attention statistics per val domain; the
    frozen rows, baseline mask too, come from the domain's table, as one group."""
    a = cfg.apf
    gen_list = list(gens.values())
    table_of = frozen_tables(enc, gen_list, oracle)
    rows, attention = [], []
    for name in (eval_domains(cfg) if names is None else names):
        samples = domains[name]
        table, idx = table_of(samples), np.arange(len(samples))
        xs, ys = stack_images(samples), stack_masks(samples)
        base_iou, base_mean = miou(table.rows("mask", idx, lambda group: [
            oracle.predict_mask(xs[group])])[0], ys, CLASS_COUNT)
        pred, weights = infer(
            xs, gen_list, enc, heads, oracle, per_channel=a.per_channel,
            use_softmax=a.use_softmax, use_tanh=a.use_tanh, return_weights=True,
            rows=table.gather(idx, gen_list, enc, a.per_channel),
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


def run_arms(cfg, arms, run_dir=None, names=None, last="eval"):
    """Train and evaluate every (seed, arm) pair on one world.

    The world (domains, oracle, encoder) is built once from ``cfg``; ``arms``
    maps a name to a config that differs from ``cfg`` only in its ``spg`` or
    ``apf`` section.  Within a seed, arms with equal ``spg`` sections share
    one set of generators.  Artifacts go under ``run_dir``, which only a
    one-arm run should pass; a rerun loads what it holds, so it resumes.
    It stops after stage ``last`` of ``STAGES``: a run stopped before
    "train-spg" has no cells, and a cell short of "eval" has no rows.

    The training stages see only the ``*_train`` domains (``TrainingDomains``).
    After every stage from the oracle's on, the runtime seal check compares
    the live weights of the oracle and of the encoder with their
    fingerprints at build, and those of each seed's generators with theirs
    when "train-spg" returned them; a change raises ``StageError`` naming
    the stage.
    ``Results`` holds one cell per pair, the number of seal checks passed,
    the oracle's query counts (in all and per stage) and each stage's seconds.
    """
    if last not in STAGES:
        raise ValueError(f"unknown stage {last!r}; choose from {', '.join(STAGES)}")
    done = STAGES[:STAGES.index(last) + 1]
    seconds, queries, oracle, enc = {}, {}, None, None

    def run(name, stage, *args):
        before = {} if oracle is None else {q: dict(c) for q, c in oracle.queries.items()}
        t0 = time.perf_counter()
        out = stage(*args)
        seconds[name] = seconds.get(name, 0.0) + time.perf_counter() - t0
        for query, counts in before.items():
            split = queries.setdefault(name, {}).setdefault(query, dict.fromkeys(counts, 0))
            split.update({k: split[k] + n - counts[k] for k, n in oracle.queries[query].items()})
        if enc is not None:
            check_seal(name)
        return out

    domains = run("gen-data", stage_data, cfg, run_dir)
    if last == "gen-data":
        return Results([], None, 0, {}, queries, seconds)
    train = {stage: TrainingDomains(stage, domains)
             for stage in ("pretrain-oracle", "train-spg", "train-apf")}
    model, oracle, _ = run("pretrain-oracle", stage_oracle, cfg, train["pretrain-oracle"], run_dir)
    enc = SharedEncoder.from_seg_model(model)
    seal_checks = 0
    # (what, its live fingerprint, its fingerprint when sealed)
    sealed = [("sealed oracle", oracle.current_fingerprint, oracle.fingerprint),
              ("frozen encoder", enc.fingerprint, enc.fingerprint())]

    def check_seal(stage):
        nonlocal seal_checks
        for what, live, fingerprint in sealed:
            if live() != fingerprint:
                raise StageError(f"stage {stage!r} changed the {what}'s weights")
        seal_checks += 1

    check_seal("pretrain-oracle")
    cells = []
    for seed in cfg.seeds if "train-spg" in done else ():
        log.info("seed %d", seed)
        sdir = None if run_dir is None else seed_dir(run_dir, seed)
        shared = {}
        for arm, arm_cfg in arms.items():
            if arm_cfg.spg not in shared:
                shared[arm_cfg.spg] = run("train-spg", stage_spg, arm_cfg, train["train-spg"],
                                          oracle, seed, sdir)
                sealed.extend((f"frozen {name} generator", gen.fingerprint, gen.fingerprint())
                              for name, gen in shared[arm_cfg.spg].items())
            gens = shared[arm_cfg.spg]
            rows, attention = [], []
            if "train-apf" in done:
                heads = run("train-apf", stage_apf, arm_cfg, train["train-apf"], gens, enc,
                            oracle, seed, sdir)
            if "eval" in done:
                rows, attention = run("eval", stage_eval, arm_cfg, domains,
                                      gens, enc, heads, oracle, seed, names)
            cells.append((arm, seed, rows, attention))
    return Results(cells, oracle.fingerprint, seal_checks, oracle.queries, queries, seconds)


def blas_info():
    """The kernel ("core") and thread count of numpy's bundled OpenBLAS, both
    None where it cannot be asked: the float32 GEMMs round per kernel."""
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "libscipy_openblas*")):
        lib = ctypes.CDLL(path)
        core, threads = lib.scipy_openblas_get_corename64_, lib.scipy_openblas_get_num_threads64_
        core.argtypes, core.restype = [], ctypes.c_char_p
        threads.argtypes, threads.restype = [], ctypes.c_int
        return {"core": core().decode(), "threads": threads()}
    return {"core": None, "threads": None}


def run_pipeline(cfg: ExperimentConfig) -> Results:
    """The full experiment: every stage, every seed, reports on disk.

    An empty ``cfg.out_dir`` keeps everything in memory.
    """
    cfg.validate()
    t0 = time.perf_counter()  # the clock of stage_seconds, which never steps back
    run_dir = open_run(cfg) if cfg.out_dir else None
    results = run_arms(cfg, {"": cfg}, run_dir)
    if run_dir is not None:
        write_csv(os.path.join(run_dir, "report.csv"), results.rows,
                  report_columns())
        write_csv(os.path.join(run_dir, "attention.csv"), results.attention,
                  ["domain", "seed", "style", "mean_weight"])
        meta = {"config_hash": config_hash(cfg),
                "wall_clock_sec": round(time.perf_counter() - t0, 3),
                "oracle_fingerprint": results.oracle_fingerprint,
                "seal_checks": results.seal_checks,
                "oracle_queries": results.oracle_queries,
                "stage_queries": results.stage_queries,
                "stage_seconds": {name: round(sec, 3)
                                  for name, sec in results.stage_seconds.items()},
                "blas": blas_info()}
        with atomic_open(os.path.join(run_dir, "report_meta.json")) as f:
            json.dump(meta, f, indent=2, sort_keys=True)
            f.write("\n")
    return results


# ---------------------------------------------------------------------------
# reporting: load a finished run or fail

def _require_trained(run_dir, seeds):
    """Fail, naming the stage to run, unless every checkpoint of ``seeds`` is saved."""
    needed = {os.path.join(run_dir, "oracle.ckpt"): "pretrain-oracle"}
    for sdir in (seed_dir(run_dir, seed) for seed in seeds):
        needed |= {os.path.join(sdir, f"spg_{n}.ckpt"): "train-spg" for n in STYLE_NAMES}
        needed[os.path.join(sdir, "apf.ckpt")] = "train-apf"
    for path, stage in needed.items():
        if not os.path.exists(path):
            raise StageError(f"no checkpoint at {path}; run {stage} first")


def load_seed_artifacts(cfg, run_dir, seed):
    """Rehydrate (model, oracle, enc, gens, heads) from a finished run."""
    _require_trained(run_dir, (seed,))
    model, oracle, _ = stage_oracle(cfg, None, run_dir)
    enc = SharedEncoder.from_seg_model(model)
    sdir = seed_dir(run_dir, seed)
    gens = stage_spg(cfg, None, oracle, seed, sdir)
    heads = stage_apf(cfg, None, gens, enc, oracle, seed, sdir)
    return model, oracle, enc, gens, heads


def evaluate_run(cfg, run_dir, names=None) -> Results:
    """A finished run evaluated again, every seed, ``names`` or all domains.

    A run that is not trained fails before anything is rendered into its
    directory; ``run_arms`` then loads every artifact and checks the seal.
    """
    _require_trained(run_dir, cfg.seeds)
    return run_arms(cfg, {"": cfg}, run_dir, names)


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
