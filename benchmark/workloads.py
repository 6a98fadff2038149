"""The three benchmark workloads, driven through promptseg's public functions.

Every workload has the same shape, which ``harness`` times:

- ``prepare`` builds fixtures that a user would already have (untimed);
- ``setup`` is the set-up a user waits for before the work starts (timed
  and repeated).  It returns the state the units use, a digest that every
  repetition must reproduce, and the checks it ran;
- ``inputs(i)`` renders the caller's inputs for unit ``i`` (untimed);
- ``unit(state, i, inputs)`` is one unit of timed work.  It returns a
  ``Unit`` whose ``key`` names its inputs (equal keys must give equal
  digests), its output digest, its operation count and the numbers the
  summary needs, plus the correctness checks it ran.

Inputs are a pure function of the workload seed: the seed moves the scene
and style streams of the world and is the pipeline's training seed.
"""

import dataclasses
import hashlib
import math
import os
import pickle
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field

import numpy as np

from promptseg import config, datasets, fusion, metrics, oracle, pipeline, prompts
from promptseg.scenes import SceneSpec
from promptseg.seeding import mix_seed, stream
from promptseg.styles import TARGET_STYLES


@dataclass(frozen=True)
class Budget:
    """How much work one unit does: the reference recipe cut by ``factor``."""

    base: config.ExperimentConfig = config.default_config()
    # every training stage's iteration budget is cut by this one factor, so
    # the stages keep their shares of a default run-all
    factor: float = 1 / 40
    max_request: int = 16
    setup_reps: int = 3

    def iters(self, n):
        return max(1, round(n * self.factor))

    def config(self, seed):
        b = self.base
        d = b.data
        shift = 1000 * seed
        data = dataclasses.replace(
            d,
            scene_train_seed=d.scene_train_seed + shift,
            scene_val_seed=d.scene_val_seed + shift,
            scene_target_seed=d.scene_target_seed + shift,
            style_train_seed=d.style_train_seed + shift,
            style_val_seed=d.style_val_seed + shift,
            style_target_seed=d.style_target_seed + shift,
        )
        return dataclasses.replace(
            b,
            data=data,
            oracle=dataclasses.replace(b.oracle, iters=self.iters(b.oracle.iters)),
            spg=dataclasses.replace(b.spg, iters=self.iters(b.spg.iters),
                                    meta_iters=self.iters(b.spg.meta_iters)),
            apf=dataclasses.replace(b.apf, iters=self.iters(b.apf.iters)),
            seeds=(seed,),
            out_dir="",
        ).validate()


@dataclass
class Unit:
    key: object
    digest: str
    ops: int
    stats: dict
    checks: list = field(default_factory=list)  # (name, ok, detail)
    # filled in by the harness
    window: tuple = ()  # perf_counter start and end
    wall: float = 0.0  # seconds
    scaled: float = 0.0  # seconds at reference host speed


TARGET_DOMAINS = tuple(f"{t}_val" for t in pipeline.TARGET_NAMES)


def _digest(*chunks):
    h = hashlib.blake2b(digest_size=16)
    for chunk in chunks:
        h.update(chunk if isinstance(chunk, bytes) else repr(chunk).encode())
    return h.hexdigest()


def _row_digest(rows):
    return _digest(*[sorted(r.items()) for r in rows])


def _gen_fingerprints(gens):
    return tuple(oracle.fingerprint_tensors(g.tensors()) for g in gens.values())


def _seal_checks(orc, enc, enc_fp):
    return [
        ("oracle sealed", orc.current_fingerprint() == orc.fingerprint,
         "live oracle weights hash to the sealed fingerprint"),
        ("encoder frozen", enc.fingerprint() == enc_fp,
         "encoder fingerprint unchanged"),
    ]


def _miou_checks(rows):
    means = [r[k] for r in rows for k in ("baseline_miou", "sage_miou")]
    values = [r[k] for r in rows for k in r if k.startswith(("iou_", "baseline_iou_"))]
    ok = (all(math.isfinite(v) and 0.0 <= v <= 1.0 for v in means)
          and all(math.isnan(v) or 0.0 <= v <= 1.0 for v in values))
    return [("mIoU in [0, 1]", ok, f"{len(means)} means, {len(values)} values")]


def _target_gain(rows):
    tgt = [r for r in rows if r["domain"] in TARGET_DOMAINS]
    return float(np.mean([r["sage_miou"] - r["baseline_miou"] for r in tgt]))


def _timed(stats, name, fn, *args):
    t0 = time.perf_counter()
    out = fn(*args)
    stats[name] = time.perf_counter() - t0
    return out


class TrainPipeline:
    """One seed of the ``run-all`` chain, artifacts written as run-all does."""

    name = "train-pipeline"
    min_units = 1

    def __init__(self, seed, budget, tmp):
        self.seed = seed
        self.cfg = budget.config(seed)
        self.tmp = tmp

    def prepare(self):
        pass

    def setup(self):
        """Render the world once; every chain must rebuild it byte for byte."""
        digests = {name: datasets.domain_digest(datasets.make_domain(spec))
                   for name, spec in pipeline.domain_specs(self.cfg).items()}
        return digests, _digest(sorted(digests.items())), []

    def inputs(self, i):
        return None

    def unit(self, world_digests, i, _):
        cfg, seed = self.cfg, self.seed
        stats = {}
        run_dir = tempfile.mkdtemp(dir=self.tmp)
        seed_dir = os.path.join(run_dir, f"seed{seed}")
        os.makedirs(seed_dir)
        try:
            domains = _timed(stats, "data_s", pipeline.stage_data, cfg, run_dir)
            model, orc, losses = _timed(stats, "oracle_s", pipeline.stage_oracle,
                                        cfg, domains, run_dir)
            enc = fusion.SharedEncoder.from_seg_model(model)
            enc_fp = enc.fingerprint()
            gens = _timed(stats, "spg_s", pipeline.stage_spg, cfg, domains, orc,
                          seed, seed_dir)
            heads = _timed(stats, "apf_s", pipeline.stage_apf, cfg, domains, gens,
                           enc, orc, seed, seed_dir)
            rows, attention = _timed(stats, "eval_s", pipeline.stage_eval, cfg,
                                     domains, gens, enc, heads, orc, seed)
            report = os.path.join(run_dir, "report.csv")
            att = os.path.join(run_dir, "attention.csv")
            pipeline.write_csv(report, rows, pipeline.report_columns())
            pipeline.write_csv(att, attention, ["domain", "seed", "style",
                                                "mean_weight"])
            with open(report, "rb") as f, open(att, "rb") as g:
                digest = _digest(f.read(), g.read())
        finally:
            shutil.rmtree(run_dir)
        digests = {n: datasets.domain_digest(s) for n, s in domains.items()}
        stats.update(
            oracle_iters=cfg.oracle.iters,
            spg_iters=cfg.spg.iters * len(gens),
            apf_iters=cfg.apf.iters,
            eval_images=sum(len(domains[n]) for n in pipeline.eval_domains(cfg)),
            gain=_target_gain(rows),
        )
        checks = [("world reproducible", digests == world_digests,
                   "stage_data rebuilds the set-up world byte for byte"),
                  ("losses finite", all(map(math.isfinite, losses)),
                   f"{len(losses)} oracle losses")]
        checks += _seal_checks(orc, enc, enc_fp) + _miou_checks(rows)
        return Unit(key=0, digest=digest, ops=5, stats=stats, checks=checks)

    @staticmethod
    def summary(units):
        def rate(count, secs):
            return statistics.median(u.stats[count] / u.stats[secs] for u in units)

        return {
            "oracle_iters_per_s": (rate("oracle_iters", "oracle_s"), "1/s", ""),
            "spg_iters_per_s": (rate("spg_iters", "spg_s"), "1/s", ""),
            "apf_iters_per_s": (rate("apf_iters", "apf_s"), "1/s", ""),
            "eval_images_per_s": (rate("eval_images", "eval_s"), "1/s", ""),
            "target_miou_gain": (statistics.median(u.stats["gain"] for u in units),
                                 "mIoU", "fused minus baseline, target domains"),
        }


ARMS = tuple((pn, sm, th) for pn in (True, False) for sm in (True, False)
             for th in (True, False))


def arm_name(arm):
    return "+".join(tag for tag, on in zip(("pn", "softmax", "tanh"), arm) if on) or "none"


class FusionAblate:
    """``ablate_fusion`` for one seed: 8 fusion arms on shared generators."""

    name = "fusion-ablate"
    min_units = len(ARMS)

    def __init__(self, seed, budget, tmp):
        self.seed = seed
        self.cfg = budget.config(seed)
        self.tmp = tmp

    def prepare(self):
        pass

    def setup(self):
        """World, oracle and the four generators the arms share."""
        cfg = self.cfg
        domains = pipeline.stage_data(cfg)
        model, orc, _ = pipeline.stage_oracle(cfg, domains)
        enc = fusion.SharedEncoder.from_seg_model(model)
        gens = pipeline.stage_spg(cfg, domains, orc, self.seed)
        fp = (orc.fingerprint, enc.fingerprint(), _gen_fingerprints(gens))
        state = {"domains": domains, "oracle": orc, "enc": enc, "gens": gens,
                 "fingerprints": fp}
        return state, _digest(fp), []

    def inputs(self, i):
        return None

    def unit(self, state, i, _):
        arm = ARMS[i % len(ARMS)]
        cfg = dataclasses.replace(self.cfg, apf=dataclasses.replace(
            self.cfg.apf, per_channel=arm[0], use_softmax=arm[1], use_tanh=arm[2]))
        domains, orc, enc, gens = (state[k] for k in ("domains", "oracle", "enc", "gens"))
        enc_fp = state["fingerprints"][1]
        stats = {}
        heads = _timed(stats, "apf_s", pipeline.stage_apf, cfg, domains, gens,
                       enc, orc, self.seed)
        rows, _ = _timed(stats, "eval_s", pipeline.stage_eval, cfg, domains, gens,
                         enc, heads, orc, self.seed, TARGET_DOMAINS)
        stats.update(apf_iters=cfg.apf.iters, gain=_target_gain(rows))
        checks = _seal_checks(orc, enc, enc_fp) + _miou_checks(rows)
        checks.append(("generators frozen",
                       _gen_fingerprints(gens) == state["fingerprints"][2],
                       "arms share unchanged generators"))
        digest = _digest(arm, _row_digest(rows),
                         oracle.fingerprint_tensors(heads.tensors()))
        return Unit(key=arm, digest=digest, ops=2, stats=stats, checks=checks)

    @staticmethod
    def summary(units):
        by_arm = {}
        for u in units:
            by_arm.setdefault(u.key, u.stats["gain"])
        return {
            "apf_iters_per_s": (statistics.median(
                u.stats["apf_iters"] / u.stats["apf_s"] for u in units), "1/s", ""),
            "target_miou_gain": (float(np.mean(list(by_arm.values()))), "mIoU",
                                 f"fused minus baseline, mean of {len(by_arm)} arms"),
        }


def train_artifacts(cfg, seed, run_dir):
    """Train an oracle, generators and heads and save them as run-all lays them out."""
    seed_dir = os.path.join(run_dir, f"seed{seed}")
    os.makedirs(seed_dir, exist_ok=True)
    domains = pipeline.stage_data(cfg)
    model, orc, _ = pipeline.stage_oracle(cfg, domains, run_dir)
    enc = fusion.SharedEncoder.from_seg_model(model)
    gens = pipeline.stage_spg(cfg, domains, orc, seed, seed_dir)
    pipeline.stage_apf(cfg, domains, gens, enc, orc, seed, seed_dir)


# The child reads (cfg, seed, run_dir) pickled on its stdin.
_TRAIN_CHILD = """
import pickle, sys
sys.path[:0] = {paths!r}
import workloads
workloads.train_artifacts(*pickle.load(sys.stdin.buffer))
"""


def train_artifacts_in_child(cfg, seed, run_dir, timeout=150):
    """``train_artifacts`` in a child process, so this process's peak memory is its own.

    The child is a plain interpreter started and waited for here (killed
    and reaped on timeout), so nothing it starts outlives the call.
    """
    import promptseg

    paths = [os.path.dirname(os.path.abspath(__file__)),
             os.path.dirname(os.path.dirname(os.path.abspath(promptseg.__file__)))]
    subprocess.run([sys.executable, "-c", _TRAIN_CHILD.format(paths=paths)],
                   input=pickle.dumps((cfg, seed, run_dir)), check=True,
                   timeout=timeout)


class FusedInfer:
    """Deployment: a closed loop of one caller sending fresh target images."""

    name = "fused-infer"
    min_units = 1

    def __init__(self, seed, budget, tmp):
        self.seed = seed
        self.cfg = budget.config(seed)
        self.tmp = tmp
        self.max_request = budget.max_request

    def _domain(self, tag, index, count):
        d = self.cfg.data
        target = pipeline.TARGET_NAMES[index % len(pipeline.TARGET_NAMES)]
        scene = SceneSpec(seed=mix_seed(self.seed, "bench-scenes", tag, index),
                          height=d.size, width=d.size)
        spec = datasets.DomainSpec(f"{tag}{index}", scene, count,
                                   style_seed=mix_seed(self.seed, "bench-styles", tag, index),
                                   style_mean=TARGET_STYLES[target],
                                   style_jitter=d.jitter)
        return datasets.make_domain(spec)

    def _probe_request(self):
        return self._domain("probe", 0, self.max_request)

    def _infer(self, arts, xs):
        a = self.cfg.apf
        _, orc, enc, gens, heads = arts
        return fusion.infer(xs, list(gens.values()), enc, heads, orc,
                            per_channel=a.per_channel, use_softmax=a.use_softmax,
                            use_tanh=a.use_tanh)

    def prepare(self):
        run_dir = tempfile.mkdtemp(dir=self.tmp)
        try:
            train_artifacts_in_child(self.cfg, self.seed, run_dir)
            self.arts = pipeline.load_seed_artifacts(self.cfg, run_dir, self.seed)
        finally:
            shutil.rmtree(run_dir)
        probe = self._probe_request()
        self.probe_masks = self._infer(self.arts, np.stack([s.image for s in probe]))

    def setup(self):
        """Save every artifact through ``checkpoint``, load it back, serve a probe."""
        model, orc, enc, gens, heads = self.arts
        run_dir = tempfile.mkdtemp(dir=self.tmp)
        try:
            seed_dir = os.path.join(run_dir, f"seed{self.seed}")
            os.makedirs(seed_dir)
            oracle.save_oracle(os.path.join(run_dir, "oracle.ckpt"), model)
            for name, gen in gens.items():
                prompts.save_generator(os.path.join(seed_dir, f"spg_{name}.ckpt"), gen)
            fusion.save_heads(os.path.join(seed_dir, "apf.ckpt"), heads,
                              enc.fingerprint())
            arts = pipeline.load_seed_artifacts(self.cfg, run_dir, self.seed)
        finally:
            shutil.rmtree(run_dir)
        probe = self._probe_request()
        masks = self._infer(arts, np.stack([s.image for s in probe]))
        _, probe_miou = metrics.miou(masks, np.stack([s.mask for s in probe]),
                                     orc.class_count)
        checks = [
            ("checkpoint round trip", np.array_equal(masks, self.probe_masks)
             and arts[1].fingerprint == orc.fingerprint,
             "reloaded artifacts predict the probe exactly as the originals"),
            ("mIoU in [0, 1]", math.isfinite(probe_miou) and 0.0 <= probe_miou <= 1.0,
             f"probe mIoU {probe_miou:.4f}"),
        ]
        state = {"arts": arts, "enc_fp": arts[2].fingerprint()}
        return state, _digest(masks.tobytes(), arts[1].fingerprint), checks

    def inputs(self, i):
        """Round ``i``: request sizes 1..max_request in a seeded order, fresh scenes."""
        sizes = stream(self.seed, "bench-requests", i).permutation(self.max_request) + 1
        samples = self._domain("round", i, int(sizes.sum()))
        images = np.stack([s.image for s in samples])
        bounds = np.cumsum(sizes)[:-1]
        return np.split(images, bounds)

    def unit(self, state, i, requests):
        arts = state["arts"]
        latencies, masks = [], []
        for xs in requests:
            t0 = time.perf_counter()
            mask = self._infer(arts, xs)
            latencies.append(time.perf_counter() - t0)
            masks.append(mask)
        k = arts[1].class_count
        valid = all(m.shape == (len(x),) + x.shape[2:] and m.max() < k
                    for m, x in zip(masks, requests))
        checks = _seal_checks(arts[1], arts[2], state["enc_fp"])
        checks.append(("masks well-formed", valid, f"{len(masks)} replies"))
        stats = {"latencies": latencies, "images": sum(len(x) for x in requests)}
        digest = _digest(*[m.tobytes() for m in masks])
        return Unit(key=i, digest=digest, ops=len(requests), stats=stats,
                    checks=checks)

    @staticmethod
    def summary(units):
        lat = sorted(t for u in units for t in u.stats["latencies"])
        images = sum(u.stats["images"] for u in units)
        pct, beyond = tail_percentile(len(lat))
        return {
            "infer_images_per_s": (images / sum(lat), "1/s", ""),
            "infer_ms_p50": (1e3 * statistics.median(lat), "ms",
                             f"{len(lat)} requests"),
            "infer_ms_tail": (1e3 * float(np.percentile(lat, pct)), "ms",
                              f"p{pct:g}, {beyond} of {len(lat)} requests beyond"),
        }


TAIL_LADDER = (99.9, 99, 95, 90, 75, 50)


def tail_percentile(n):
    """Highest percentile on the ladder with at least ten samples beyond it."""
    for pct in TAIL_LADDER:
        beyond = math.floor(n * (1 - pct / 100) + 1e-9)
        if beyond >= 10:
            return pct, beyond
    return 50, n // 2


WORKLOADS = {w.name: w for w in (TrainPipeline, FusionAblate, FusedInfer)}
