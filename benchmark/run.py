"""promptseg benchmark: one workload per process, or every workload in turn.

One run, from the root of a source checkout:

    python3 benchmark/run.py --workload train-pipeline --seed 0 --seconds 25 --trace 0

prints the metrics with their units, one line per correctness check, and as
its last line a JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics`` (end-to-end metrics with ``--trace 0``, per-layer metrics with
``--trace 1``).  It exits 1 when a check fails or an operation raises, and 2
when the checkout has no ``src/promptseg`` to measure.

Without ``--workload`` it runs every workload in a fresh process for each
seed of ``--seeds`` (plus one traced run per workload), prints the median
and quartile spread of every metric, and with ``--record FILE`` writes the
runs, the summary and the environment to FILE as JSON.
"""

import argparse
import ctypes
import glob
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def environment():
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(np),
        "nproc": os.cpu_count(),
    }


def _blas_threads(np):
    """Threads the bundled OpenBLAS will use, or None if it cannot be asked."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def result_line(ledger, metrics):
    correct = ledger.failed == 0 and bool(metrics)
    return json.dumps({
        "correct": correct,
        "attempted": max(ledger.attempted, 1),
        "failed": ledger.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })


def run_one(args):
    import harness

    tmp = harness.tmp_root(ROOT)
    run_tmp = os.path.join(tmp, f"{args.workload}-{os.getpid()}")
    os.makedirs(run_tmp)
    try:
        ledger, metrics, lines, digest = harness.run(
            args.workload, args.seed, args.seconds, bool(args.trace), run_tmp)
    finally:
        shutil.rmtree(run_tmp, ignore_errors=True)
        if not os.listdir(tmp):
            os.rmdir(tmp)
    for line in harness.report(args.workload, args.seed, args.seconds,
                               args.trace, ledger, metrics, lines, environment()):
        print(line)
    print(f"digest {digest}")
    line = result_line(ledger, metrics)
    print(line, flush=True)
    return 0 if json.loads(line)["correct"] else 1


def _quartile_spread(values):
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / abs(med) if med else float("inf")


def run_all(args):
    from workloads import WORKLOADS

    names = list(WORKLOADS)
    first, last = (int(x) for x in args.seeds.split("-"))
    runs, ok = [], True
    for name in names:
        for seed in range(first, last + 1):
            runs.append(_child(name, seed, args.seconds, 0))
        runs.append(_child(name, first, args.seconds, 1))
    summary = {}
    for name in names:
        for trace in (0, 1):
            mine = [r for r in runs if r["workload"] == name and r["trace"] == trace]
            ok &= all(r["result"] and r["result"]["correct"] for r in mine)
            values = {}
            for r in mine:
                for key, m in (r["result"] or {}).get("metrics", {}).items():
                    values.setdefault(key, []).append(m["value"])
            for key, vals in values.items():
                summary[f"{name}/{key}"] = {
                    "median": statistics.median(vals),
                    "spread": _quartile_spread(vals),
                    "runs": len(vals),
                }
                if trace == 0:
                    print(f"{name:<15} {key:<16} median {statistics.median(vals):12.6g}"
                          f"  quartile spread {_quartile_spread(vals):7.2%}"
                          f"  ({len(vals)} runs)")
    if args.record:
        with open(args.record, "w") as f:
            json.dump({"environment": environment(), "seconds": args.seconds,
                       "seeds": args.seeds, "summary": summary, "runs": runs},
                      f, indent=1, sort_keys=True)
            f.write("\n")
    return 0 if ok else 1


def _child(name, seed, seconds, trace):
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    print(f"{name} seed {seed} trace {trace}: exit {proc.returncode}", flush=True)
    if proc.returncode:
        sys.stdout.write(proc.stdout + proc.stderr)
    return {"workload": name, "seed": seed, "trace": trace,
            "exit": proc.returncode, "result": result, "report": lines[:-1]}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="run one workload in this process")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seeds", default="0-9",
                        help="seed range A-B for the every-workload mode")
    parser.add_argument("--record", help="write the every-workload summary here")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "promptseg", "__init__.py")):
        print(f"error: no promptseg sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import promptseg

    if not os.path.abspath(promptseg.__file__).startswith(SRC + os.sep):
        print(f"error: promptseg resolved to {promptseg.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    if args.workload:
        from workloads import WORKLOADS

        if args.workload not in WORKLOADS:
            parser.error(f"unknown workload {args.workload!r}; "
                         f"choose from {', '.join(WORKLOADS)}")
        return run_one(args)
    return run_all(args)


if __name__ == "__main__":
    sys.exit(main())
