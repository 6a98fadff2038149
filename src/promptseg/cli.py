"""Command-line front end.

All subcommands read the same JSON experiment config (``--config``, falling
back to built-in defaults) and write|into ``<out>/<confighash>/``.  The
output root comes from ``--out``, the PROMPTSEG_OUT environment variable,
or the config, in that order of precedence; ``--seed`` narrows the run to a
single seed.
"""

import argparse
import dataclasses
import logging
import os
import sys

import numpy as np

from .checkpoint import atomic_open
from .config import config_hash, default_config, load_config, save_config
from .datasets import Sample, load_domain, save_domain
from .errors import FormatError, StageError
from .fusion import SharedEncoder, infer
from .oracle import load_oracle, seal
from .pipeline import (
    STYLE_NAMES,
    MetricsReport,
    ablate_fusion,
    ablate_generators,
    ablate_init,
    attention_report,
    eval_domains,
    load_seed_artifacts,
    run_dir_for,
    run_pipeline,
    stage_apf,
    stage_data,
    stage_eval,
    stage_oracle,
    stage_spg,
    target_mean,
    write_csv,
)
from .prompts import load_generator
from .scenes import PALETTE

log = logging.getLogger("promptseg")


def build_parser():
    p = argparse.ArgumentParser(
        prog="promptseg",
        description="Style prompts and adaptive fusion for a frozen segmenter",
    )
    p.add_argument("--config", help="experiment config file (JSON)")
    p.add_argument("--out", help="output root (default: $PROMPTSEG_OUT or config)")
    p.add_argument("--seed", type=int, help="run only this seed")
    p.add_argument("-v", "--verbose", action="store_true")
    sub = p.add_subparsers(dest="command", required=True)

    sub.add_parser("gen-data", help="render every domain to disk")
    sub.add_parser("pretrain-oracle", help="train and freeze the base model")

    spg = sub.add_parser("train-spg", help="train per-style prompt generators")
    spg.add_argument("--style", choices=STYLE_NAMES, help="one style only")
    spg.add_argument("--variant", help="prompt shape override")
    spg.add_argument("--init", help="template init override")

    apf = sub.add_parser("train-apf", help="train the fusion heads")
    apf.add_argument("--no-pn", action="store_true",
                     help="skip prompt normalization")
    apf.add_argument("--no-softmax", action="store_true")
    apf.add_argument("--no-tanh", action="store_true")

    ev = sub.add_parser("eval", help="evaluate a trained run")
    ev.add_argument("--domain", help="single validation domain")

    inf = sub.add_parser("infer", help="predict masks for a dataset file")
    inf.add_argument("--input", required=True, help="dataset payload to read")
    inf.add_argument("--out", dest="out_file", required=True,
                     help="dataset payload to write (predicted masks)")
    inf.add_argument("--color", metavar="DIR",
                     help="also write palette-colored masks as PPM images")

    ab = sub.add_parser("ablate", help="run a comparison suite")
    ab.add_argument("--suite", required=True,
                    choices=("generators", "init", "fusion"))

    sub.add_parser("attention-report", help="per-domain fusion-weight table")

    run = sub.add_parser("run-all", help="full pipeline, all stages and seeds")
    run.add_argument("--seeds", help="comma-separated seed list override")
    return p


def resolve_config(args):
    cfg = load_config(args.config) if args.config else default_config()
    out = args.out or os.environ.get("PROMPTSEG_OUT")
    if out:
        cfg = dataclasses.replace(cfg, out_dir=out)
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seeds=(args.seed,))
    if getattr(args, "seeds", None):
        seeds = tuple(int(s) for s in args.seeds.split(","))
        cfg = dataclasses.replace(cfg, seeds=seeds)
    return cfg.validate()


def _run_dir(cfg, create=True):
    run_dir = run_dir_for(cfg)
    if create:
        os.makedirs(run_dir, exist_ok=True)
        save_config(os.path.join(run_dir, "config.json"), cfg)
    return run_dir


def ensure_oracle(cfg, domains, run_dir, retrain=False):
    """Load the frozen model for this run, training it first if absent.

    Flag overrides change the config hash and therefore the run directory,
    so a staged invocation like ``train-apf --no-tanh`` rebuilds its own
    prerequisites there rather than picking up mismatched artifacts.
    """
    path = os.path.join(run_dir, "oracle.ckpt")
    if os.path.exists(path) and not retrain:
        model = load_oracle(path)
        return model, seal(model)
    model, oracle, losses = stage_oracle(cfg, domains, run_dir)
    log.info("oracle trained: final loss %.4f", losses[-1])
    return model, oracle


def ensure_gens(cfg, domains, oracle, run_dir, seed, retrain=False):
    seed_dir = os.path.join(run_dir, f"seed{seed}")
    paths = {n: os.path.join(seed_dir, f"spg_{n}.ckpt") for n in STYLE_NAMES}
    if all(os.path.exists(p) for p in paths.values()) and not retrain:
        return {n: load_generator(p) for n, p in paths.items()}
    os.makedirs(seed_dir, exist_ok=True)
    return stage_spg(cfg, domains, oracle, seed, seed_dir)


def cmd_gen_data(cfg, args):
    run_dir = _run_dir(cfg)
    domains = stage_data(cfg, run_dir)
    print(f"{len(domains)} domains -> {os.path.join(run_dir, 'data')}")


def cmd_pretrain_oracle(cfg, args):
    run_dir = _run_dir(cfg)
    domains = stage_data(cfg, None)
    model, oracle = ensure_oracle(cfg, domains, run_dir, retrain=True)
    print(f"oracle: {oracle.parameter_count} params, "
          f"fingerprint {oracle.fingerprint:#x}")


def cmd_train_spg(cfg, args):
    if args.variant:
        cfg = dataclasses.replace(
            cfg, spg=dataclasses.replace(cfg.spg, variant=args.variant))
    if args.init:
        cfg = dataclasses.replace(
            cfg, spg=dataclasses.replace(cfg.spg, init=args.init))
    cfg.validate()
    run_dir = _run_dir(cfg)
    domains = stage_data(cfg, None)
    model, oracle = ensure_oracle(cfg, domains, run_dir)
    for seed in cfg.seeds:
        if args.style:
            seed_dir = os.path.join(run_dir, f"seed{seed}")
            os.makedirs(seed_dir, exist_ok=True)
            gens = stage_spg(cfg, domains, oracle, seed, seed_dir,
                             only=args.style)
        else:
            gens = ensure_gens(cfg, domains, oracle, run_dir, seed,
                               retrain=True)
        print(f"seed {seed}: trained {', '.join(gens)}")


def cmd_train_apf(cfg, args):
    apf = dataclasses.replace(
        cfg.apf,
        per_channel=cfg.apf.per_channel and not args.no_pn,
        use_softmax=cfg.apf.use_softmax and not args.no_softmax,
        use_tanh=cfg.apf.use_tanh and not args.no_tanh,
    )
    cfg = dataclasses.replace(cfg, apf=apf)
    run_dir = _run_dir(cfg)
    domains = stage_data(cfg, None)
    model, oracle = ensure_oracle(cfg, domains, run_dir)
    enc = SharedEncoder.from_seg_model(model)
    for seed in cfg.seeds:
        seed_dir = os.path.join(run_dir, f"seed{seed}")
        gens = ensure_gens(cfg, domains, oracle, run_dir, seed)
        stage_apf(cfg, domains, gens, enc, oracle, seed, seed_dir)
        print(f"seed {seed}: fusion heads -> {os.path.join(seed_dir, 'apf.ckpt')}")


def cmd_eval(cfg, args):
    run_dir = _run_dir(cfg, create=False)
    domains = stage_data(cfg, None)
    names = eval_domains(cfg)
    if args.domain:
        if args.domain not in names:
            raise StageError(f"unknown domain {args.domain!r}; "
                             f"choose from {', '.join(names)}")
        names = (args.domain,)
    print(f"{'domain':<20} {'seed':>4} {'baseline':>9} {'fused':>9}")
    for seed in cfg.seeds:
        _, oracle, enc, gens, heads = load_seed_artifacts(cfg, run_dir, seed)
        rows, _ = stage_eval(cfg, domains, gens, enc, heads, oracle, seed)
        for row in rows:
            if row["domain"] in names:
                print(f"{row['domain']:<20} {seed:>4} "
                      f"{row['baseline_miou']:>9.4f} {row['sage_miou']:>9.4f}")


def write_ppm(path, rgb):
    """Binary PPM from a (3, H, W) float image in [0, 1]; no image libs."""
    arr = (np.clip(rgb, 0.0, 1.0) * 255.0).round().astype(np.uint8)
    _, h, w = arr.shape
    with open(path, "wb") as f:
        f.write(f"P6 {w} {h} 255\n".encode())
        f.write(arr.transpose(1, 2, 0).tobytes())


def cmd_infer(cfg, args):
    run_dir = _run_dir(cfg, create=False)
    seed = cfg.seeds[0]
    _, oracle, enc, gens, heads = load_seed_artifacts(cfg, run_dir, seed)
    samples = load_domain(args.input)
    xs = np.stack([s.image for s in samples])
    a = cfg.apf
    pred = infer(xs, list(gens.values()), enc, heads, oracle,
                 per_channel=a.per_channel, use_softmax=a.use_softmax,
                 use_tanh=a.use_tanh)
    out = [Sample(image=s.image, mask=pred[i].astype(np.uint8),
                  class_count=oracle.class_count)
           for i, s in enumerate(samples)]
    save_domain(args.out_file, out)
    print(f"{len(out)} masks -> {args.out_file}")
    if args.color:
        os.makedirs(args.color, exist_ok=True)
        for i, s in enumerate(out):
            colored = PALETTE[s.mask].transpose(2, 0, 1)
            write_ppm(os.path.join(args.color, f"mask_{i:04d}.ppm"), colored)
        print(f"{len(out)} colored masks -> {args.color}")


def cmd_ablate(cfg, args):
    suite = {"generators": ablate_generators, "init": ablate_init,
             "fusion": ablate_fusion}[args.suite]
    table = suite(cfg)
    run_dir = _run_dir(cfg)
    csv_path = os.path.join(run_dir, f"ablate_{args.suite}.csv")
    table.to_csv(csv_path)
    md = table.to_markdown()
    with atomic_open(os.path.join(run_dir, f"ablate_{args.suite}.md")) as f:
        f.write(md)
    print(md, end="")
    print(f"-> {csv_path}")


def cmd_attention_report(cfg, args):
    run_dir = _run_dir(cfg, create=False)
    domains = stage_data(cfg, None)
    attention = []
    for seed in cfg.seeds:
        _, oracle, enc, gens, heads = load_seed_artifacts(cfg, run_dir, seed)
        _, att = stage_eval(cfg, domains, gens, enc, heads, oracle, seed)
        attention.extend(att)
    report = MetricsReport(config_hash=config_hash(cfg), rows=[],
                           attention=attention)
    rows = attention_report(cfg, report)
    path = os.path.join(run_dir, "attention_report.csv")
    write_csv(path, rows, ["domain", "style", "mean_weight"])
    print(f"{'domain':<20}" + "".join(f"{s:>16}" for s in STYLE_NAMES))
    for name in eval_domains(cfg):
        vals = [r["mean_weight"] for r in rows if r["domain"] == name]
        print(f"{name:<20}" + "".join(f"{v:>16.4f}" for v in vals))
    print(f"-> {path}")


def cmd_run_all(cfg, args):
    report = run_pipeline(cfg)
    print(f"report -> {os.path.join(run_dir_for(cfg), 'report.csv')}")
    base, fused = target_mean(report, "baseline_miou"), target_mean(report)
    print(f"target mIoU: baseline {base:.4f}, fused {fused:.4f} "
          f"({fused - base:+.4f})  [{report.wall_clock:.0f}s]")


COMMANDS = {
    "gen-data": cmd_gen_data,
    "pretrain-oracle": cmd_pretrain_oracle,
    "train-spg": cmd_train_spg,
    "train-apf": cmd_train_apf,
    "eval": cmd_eval,
    "infer": cmd_infer,
    "ablate": cmd_ablate,
    "attention-report": cmd_attention_report,
    "run-all": cmd_run_all,
}


def main(argv=None):
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        cfg = resolve_config(args)
        COMMANDS[args.command](cfg, args)
    except (StageError, FormatError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
