"""Command-line front end.

All subcommands read the same JSON experiment config (``--config``, falling
back to built-in defaults) and work in ``<out>/<confighash>/``, laid out by
``pipeline``, reusing what training commands saved there.  The output root
comes from ``--out``, the PROMPTSEG_OUT environment variable, or the config,
in that order of precedence; ``--seed`` narrows the run to the listed seeds.
"""

import argparse
import dataclasses
import logging
import os
import sys
import time

import numpy as np

from .autograd import NonFiniteError
from .checkpoint import atomic_open
from .config import default_config, load_config
from .datasets import Sample, load_domain, save_domain
from .errors import FormatError, StageError
from .fusion import infer
from .pipeline import (
    SOURCE_DOMAINS,
    STAGES,
    STYLE_NAMES,
    SUITES,
    TARGET_DOMAINS,
    ablate,
    eval_domains,
    evaluate_run,
    load_seed_artifacts,
    open_run,
    run_arms,
    run_dir_for,
    run_pipeline,
    write_csv,
)
from .scenes import PALETTE


def seed_list(text):
    """``0`` or ``0,2``: the seeds to run."""
    return tuple(int(s) for s in text.split(","))


def build_parser():
    p = argparse.ArgumentParser(
        prog="promptseg",
        description="Style prompts and adaptive fusion for a frozen segmenter",
    )
    p.add_argument("--config", help="experiment config file (JSON)")
    p.add_argument("--out", help="output root (default: $PROMPTSEG_OUT or config)")
    p.add_argument("--seed", type=seed_list,
                   help="run only these seeds, e.g. 0 or 0,2")
    p.add_argument("-v", "--verbose", action="store_true")
    sub = p.add_subparsers(dest="command", required=True)

    sub.add_parser("gen-data", help="render every domain to disk")
    sub.add_parser("pretrain-oracle", help="train and freeze the base model")

    sub.add_parser("train-spg", help="train per-style prompt generators")
    sub.add_parser("train-apf", help="train the fusion heads")

    ev = sub.add_parser("eval", help="evaluate a trained run")
    ev.add_argument("--domain", help="single validation domain")

    inf = sub.add_parser("infer", help="predict masks for a domain file")
    inf.add_argument("--input", required=True, help="domain file (.dom) to read")
    inf.add_argument("--out", dest="out_file", required=True,
                     help="domain file to write (predicted masks)")
    inf.add_argument("--color", metavar="DIR",
                     help="also write palette-colored masks as PPM images")

    ab = sub.add_parser("ablate", help="run a comparison suite")
    ab.add_argument("--suite", required=True, choices=SUITES)

    sub.add_parser("attention-report", help="per-domain fusion-weight table")
    sub.add_parser("run-all", help="full pipeline, all stages and seeds")
    return p


def resolve_config(args):
    cfg = load_config(args.config) if args.config else default_config()
    out = args.out or os.environ.get("PROMPTSEG_OUT")
    if out:
        cfg = dataclasses.replace(cfg, out_dir=out)
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seeds=args.seed)
    return cfg.validate()


def cmd_stage(cfg, args):
    """gen-data to train-apf: the run's chain stopped after the command's stage."""
    run_dir = open_run(cfg)
    run_arms(cfg, {"": cfg}, run_dir, last=args.command)
    print(f"{args.command} -> {run_dir}")


def cmd_eval(cfg, args):
    names = eval_domains(cfg)
    if args.domain:
        if args.domain not in names:
            raise StageError(f"unknown domain {args.domain!r}; "
                             f"choose from {', '.join(names)}")
        names = (args.domain,)
    results = evaluate_run(cfg, run_dir_for(cfg), names)
    print(f"{'domain':<20} {'seed':>4} {'baseline':>9} {'fused':>9}")
    for row in results.rows:
        print(f"{row['domain']:<20} {row['seed']:>4} "
              f"{row['baseline_miou']:>9.4f} {row['sage_miou']:>9.4f}")


def write_ppm(path, rgb):
    """Binary PPM from a (3, H, W) float image in [0, 1]; no image libs."""
    arr = (np.clip(rgb, 0.0, 1.0) * 255.0).round().astype(np.uint8)
    _, h, w = arr.shape
    with atomic_open(path, "wb") as f:
        f.write(f"P6 {w} {h} 255\n".encode())
        f.write(arr.transpose(1, 2, 0).tobytes())


def cmd_infer(cfg, args):
    _, oracle, enc, gens, heads = load_seed_artifacts(cfg, run_dir_for(cfg),
                                                      cfg.seeds[0])
    samples = load_domain(args.input)
    xs = np.stack([s.image for s in samples])
    a = cfg.apf
    # a finite but huge pixel can overflow a layer: guard_finite reports it
    with np.errstate(over="ignore", invalid="ignore"):
        pred = infer(xs, list(gens.values()), enc, heads, oracle,
                     per_channel=a.per_channel, use_softmax=a.use_softmax,
                     use_tanh=a.use_tanh)
    out = [Sample(s.image, pred[i].astype(np.uint8)) for i, s in enumerate(samples)]
    save_domain(args.out_file, out)
    print(f"{len(out)} masks -> {args.out_file}")
    if args.color:
        for i, s in enumerate(out):
            colored = PALETTE[s.mask].transpose(2, 0, 1)
            write_ppm(os.path.join(args.color, f"mask_{i:04d}.ppm"), colored)
        print(f"{len(out)} colored masks -> {args.color}")


def ablation_tables(results):
    """(columns, rows, markdown) of an ablation: fused target mIoU per arm,
    one column per seed, then the mean over seeds."""
    per_seed, means = results.target_means(), results.arm_means()
    seeds = sorted(next(iter(per_seed.values())))
    columns = ["arm"] + [f"seed{k}" for k in seeds] + ["mean"]
    rows = [{"arm": arm, **{f"seed{k}": vals[k] for k in seeds}, "mean": means[arm]}
            for arm, vals in per_seed.items()]
    head = ["arm"] + [f"seed {k}" for k in seeds] + ["mean"]
    lines = ["| " + " | ".join(head) + " |", "|" + "|".join("---" for _ in head) + "|"]
    for row in rows:
        cells = [row["arm"]] + [f"{row[c]:.4f}" for c in columns[1:]]
        lines.append("| " + " | ".join(cells) + " |")
    return columns, rows, "\n".join(lines) + "\n"


def cmd_ablate(cfg, args):
    columns, rows, md = ablation_tables(ablate(cfg, args.suite))
    run_dir = open_run(cfg)
    csv_path = os.path.join(run_dir, f"ablate_{args.suite}.csv")
    write_csv(csv_path, rows, columns)
    with atomic_open(os.path.join(run_dir, f"ablate_{args.suite}.md")) as f:
        f.write(md)
    print(md, end="")
    print(f"-> {csv_path}")


def cmd_attention_report(cfg, args):
    run_dir = run_dir_for(cfg)
    rows = evaluate_run(cfg, run_dir).attention_means(eval_domains(cfg))
    path = os.path.join(run_dir, "attention_report.csv")
    write_csv(path, rows, ["domain", "style", "mean_weight"])
    print(f"{'domain':<20}" + "".join(f"{s:>16}" for s in STYLE_NAMES))
    for name in eval_domains(cfg):
        vals = [r["mean_weight"] for r in rows if r["domain"] == name]
        print(f"{name:<20}" + "".join(f"{v:>16.4f}" for v in vals))
    print(f"-> {path}")


def cmd_run_all(cfg, args):
    t0 = time.perf_counter()
    results = run_pipeline(cfg)
    if cfg.out_dir:  # an empty one keeps the run in memory
        print(f"report -> {os.path.join(run_dir_for(cfg), 'report.csv')}")
    lines = []  # the source styles' rows first: a recipe is chosen on them
    for label, names in (("source-style", SOURCE_DOMAINS), ("target", TARGET_DOMAINS)):
        base, fused = (results.arm_means(c, names)[""] for c in ("baseline_miou", "sage_miou"))
        lines.append(f"{label} mIoU: baseline {base:.4f}, fused {fused:.4f} ({fused - base:+.4f})")
    print("\n".join(lines) + f"  [{time.perf_counter() - t0:.0f}s]")


COMMANDS = {
    **dict.fromkeys(STAGES[:-1], cmd_stage),
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
    except (StageError, FormatError, ValueError, NonFiniteError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
