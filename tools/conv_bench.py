"""Microbenchmark of ``ops.conv2d`` on the convolutions of the default config.

The shapes are recorded, not listed: one forward pass of the default
oracle (``SegModel``) and of one ``a_border`` prompt generator runs with
``ops.conv2d`` wrapped, at the default image size and batch.  For each
distinct (input, weight, stride, padding) it then times three passes, each
the median of ``--repeats`` runs after one warm-up:

  fwd         forward only, no tape
  fwd+dx      forward and input gradient, frozen weight (the sealed oracle's
              ``input_grad``)
  fwd+dx+dw   forward and every gradient, trainable weight (training)

Each pass also runs once more, untimed, under ``tracemalloc`` for its
traced peak in MB (a separate run, so the tracing does not touch the
timings).  Each shape also names the column layout its forward built
(``layout``: "pixel" for ``ops._pixel_columns``, else "lattice").  It prints
one JSON object: the per-shape medians in ms with their sums, and the
per-shape peaks with their maximum.
Run it from the root of a source checkout:

    PYTHONPATH=src python3 tools/conv_bench.py [--repeats 30] [--batch 8]
"""

import argparse
import json
import time
import tracemalloc

import numpy as np

from promptseg.autograd import Tape, Tensor, no_grad
from promptseg.autograd import ops
from promptseg.config import ExperimentConfig
from promptseg.oracle import SegModel
from promptseg.prompts import StylePromptGenerator
from promptseg.scenes import CLASS_COUNT
from promptseg.seeding import stream


def default_shapes(batch):
    """[(x shape, weight shape, stride, padding)] of the default models, in call order."""
    cfg = ExperimentConfig()
    size, o, spg = cfg.data.size, cfg.oracle, cfg.spg
    seen = []
    real = ops.conv2d

    def record(x, weight, bias, stride=1, padding=0):
        key = (x.shape, weight.shape, stride, padding)
        if key not in seen:
            seen.append(key)
        return real(x, weight, bias, stride, padding)

    x = Tensor(np.zeros((batch, 3, size, size), np.float32))
    ops.conv2d = record
    try:
        with no_grad():
            SegModel(CLASS_COUNT, stream(0, "bench"), o.widths, o.kernel).forward(x)
            StylePromptGenerator("bench", "a_border", size, spg.pad, spg.depth).modulate(x)
    finally:
        ops.conv2d = real
    return seen


def median_ms(fn, repeats):
    fn()
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return 1e3 * float(np.median(times))


def traced_peak_mb(fn):
    """The peak of the memory that one run of ``fn`` allocates, in MB."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def built_layout(fn):
    """"pixel" if one run of ``fn`` builds pixel-major columns, else "lattice"."""
    real, seen = ops._pixel_columns, []
    ops._pixel_columns = lambda *args: seen.append(True) or real(*args)
    try:
        fn()
    finally:
        ops._pixel_columns = real
    return "pixel" if seen else "lattice"


def passes(x_shape, w_shape, stride, padding, rng):
    x0 = rng.normal(size=x_shape).astype(np.float32)
    w0 = (rng.normal(size=w_shape) * 0.1).astype(np.float32)
    b0 = rng.normal(size=w_shape[:1]).astype(np.float32)

    def fwd():
        ops.conv2d(Tensor(x0), Tensor(w0), Tensor(b0), stride, padding)

    def grads(trainable):
        def run():
            x = Tensor(x0, requires_grad=True)
            w, b = Tensor(w0, requires_grad=trainable), Tensor(b0, requires_grad=trainable)
            with Tape() as tape:
                out = ops.conv2d(x, w, b, stride, padding)
            tape.backward(out, np.ones(out.shape, np.float32))
        return run

    return {"fwd": fwd, "fwd+dx": grads(False), "fwd+dx+dw": grads(True)}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=30)
    parser.add_argument("--batch", type=int, default=8)
    args = parser.parse_args(argv)
    rng = np.random.default_rng(0)
    rows, totals, peaks = [], {}, {}
    for x_shape, w_shape, stride, padding in default_shapes(args.batch):
        row = {"x": list(x_shape), "weight": list(w_shape), "stride": stride, "padding": padding}
        timed = passes(x_shape, w_shape, stride, padding, rng)
        row["layout"] = built_layout(timed["fwd"])
        for name, fn in timed.items():
            row[name + "_ms"] = round(median_ms(fn, args.repeats), 3)
            row[name + "_peak_mb"] = round(traced_peak_mb(fn), 3)
            totals[name + "_ms"] = round(totals.get(name + "_ms", 0.0) + row[name + "_ms"], 3)
            peaks[name + "_peak_mb"] = max(peaks.get(name + "_peak_mb", 0.0), row[name + "_peak_mb"])
        rows.append(row)
    print(json.dumps({"batch": args.batch, "repeats": args.repeats, "shapes": len(rows),
                      "total": totals, "max_peak": peaks, "per_shape": rows}, indent=1))


if __name__ == "__main__":
    main()
