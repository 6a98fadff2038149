"""Span tracing around the public calls into promptseg's modules.

A ``Tracer`` swaps selected functions and methods for timing wrappers while
it is active and puts the originals back when it exits; nothing under
``src/`` knows about it.  A function is wrapped under every module name that
binds it, because callers look it up there: ``pipeline`` imports
``train_apf`` and ``infer`` by name, so patching ``fusion.train_apf`` alone
would miss every call the pipeline makes.  Methods are wrapped on their
class, which covers every caller.

Each wrapped call records a span (name, start, end, parent) in memory.  Self
time is a span's duration minus the part of it its child spans cover.  A few
counts are computed from call arguments instead of measured: convolution
FLOPs and im2col bytes from tensor shapes, checkpoint megabytes from file
sizes, and how many encoder input rows repeat bytes already encoded earlier
in the run (the share a content-keyed cache could skip).
"""

import hashlib
import os
import sys
import time
from collections import Counter
from contextlib import contextmanager

import numpy as np

MODULES = ("pipeline", "datasets", "checkpoint", "oracle", "prompts", "fusion",
           "metrics", "autograd")

# (span name, metric prefix, time unit, calls metric or None).  A prefix with
# unit "s" reports total seconds, one with unit "ms" the mean per call; both
# also get a ``_self`` twin.
TIMED = (
    ("datasets.make_domain", "datasets.make_domain", "s", None),
    ("checkpoint.save", "checkpoint.save", "s", None),
    ("checkpoint.load", "checkpoint.load", "s", None),
    ("pipeline.stage_data", "pipeline.stage_data", "s", None),
    ("pipeline.stage_oracle", "pipeline.stage_oracle", "s", None),
    ("pipeline.stage_spg", "pipeline.stage_spg", "s", None),
    ("pipeline.stage_apf", "pipeline.stage_apf", "s", None),
    ("pipeline.stage_eval", "pipeline.stage_eval", "s", None),
    ("oracle.input_grad", "oracle.input_grad", "ms", "oracle.input_grad_calls"),
    ("oracle.predict", "oracle.predict", "ms", "oracle.predict_calls"),
    ("prompts.generate", "prompts.generate", "ms", "prompts.generate_calls"),
    ("fusion.encode", "fusion.encode", "ms", "fusion.encode_calls"),
    ("fusion.collect_prompts", "fusion.collect_prompts", "ms", None),
    ("fusion.train_apf", "fusion.train_apf", "s", None),
    ("fusion.infer", "fusion.infer", "ms", "fusion.infer_calls"),
    ("autograd.conv2d", "autograd.conv2d_fwd", "s", "autograd.conv2d_calls"),
    ("autograd.batch_norm2d", "autograd.batch_norm2d_fwd", "s", None),
    ("autograd.backward", "autograd.backward", "s", "autograd.backward_calls"),
    ("autograd.optim_step", "autograd.optim_step", "s", None),
    ("metrics.miou", "metrics.miou", "s", None),
)

class Span:
    __slots__ = ("name", "start", "end", "parent")

    def __init__(self, name, start, end, parent=-1):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent


def self_times(spans):
    """Each span's duration minus the union of its children's intervals."""
    children = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s.parent >= 0:
            children[s.parent].append(i)
    out = []
    for i, s in enumerate(spans):
        covered, reach = 0.0, s.start
        for j in sorted(children[i], key=lambda j: spans[j].start):
            lo = max(spans[j].start, reach)
            hi = min(spans[j].end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(s.end - s.start - covered)
    return out


def coverage(spans, windows):
    """Share of the windows' total length that top-level spans cover."""
    total = sum(end - start for start, end in windows)
    covered = 0.0
    for s in spans:
        if s.parent < 0:
            for start, end in windows:
                covered += max(0.0, min(s.end, end) - max(s.start, start))
    return covered / total if total > 0 else 0.0


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _array(x):
    return np.asarray(getattr(x, "data", x))


class Tracer:
    """Context manager: wraps promptseg's public calls and records spans."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._stack = []
        self._seen_rows = set()
        self._paused = False
        self._restore = []

    # -- installation ------------------------------------------------------

    def _targets(self):
        from promptseg import (checkpoint, datasets, fusion, metrics, oracle,
                               pipeline, prompts)
        from promptseg.autograd import ops, optim, tensor

        return (
            ("datasets.make_domain", datasets, "make_domain", self._count_images),
            ("checkpoint.save", checkpoint, "save_checkpoint", self._count_file),
            ("checkpoint.load", checkpoint, "load_checkpoint", self._count_file),
            ("pipeline.stage_data", pipeline, "stage_data", None),
            ("pipeline.stage_oracle", pipeline, "stage_oracle", None),
            ("pipeline.stage_spg", pipeline, "stage_spg", None),
            ("pipeline.stage_apf", pipeline, "stage_apf", None),
            ("pipeline.stage_eval", pipeline, "stage_eval", None),
            ("oracle.input_grad", oracle.OracleHandle, "input_grad", None),
            ("oracle.predict", oracle.OracleHandle, "predict", None),
            ("prompts.generate", prompts.StylePromptGenerator, "generate", None),
            ("fusion.encode", fusion.SharedEncoder, "encode", self._count_rows),
            ("fusion.collect_prompts", fusion, "collect_prompts", None),
            ("fusion.train_apf", fusion, "train_apf", None),
            ("fusion.infer", fusion, "infer", None),
            ("autograd.conv2d", ops, "conv2d", self._count_conv),
            ("autograd.batch_norm2d", ops, "batch_norm2d", None),
            ("autograd.backward", tensor.Tape, "backward", None),
            ("autograd.optim_step", optim.AdamW, "step", None),
            ("autograd.optim_step", optim.SgdMomentum, "step", None),
            ("metrics.miou", metrics, "miou", None),
        )

    def __enter__(self):
        for name, owner, attr, count in self._targets():
            original = owner.__dict__[attr]
            wrapper = self._wrap(name, original, count)
            if isinstance(owner, type):
                homes = [owner]
            else:
                homes = [m for key, m in list(sys.modules.items())
                         if key.split(".")[0] == "promptseg"
                         and getattr(m, attr, None) is original]
            for home in homes:
                setattr(home, attr, wrapper)
                self._restore.append((home, attr, original))
        return self

    def __exit__(self, exc_type, exc, tb):
        for home, attr, original in reversed(self._restore):
            setattr(home, attr, original)
        self._restore.clear()
        return False

    @contextmanager
    def paused(self):
        """Calls inside the block run unrecorded (e.g. rendering a caller's inputs)."""
        saved = self._paused
        self._paused = True
        try:
            yield
        finally:
            self._paused = saved

    def _wrap(self, name, fn, count):
        """``fn`` timed as span ``name``; ``count(args, kwargs)`` runs after
        a call that returned, outside the span."""
        module = name.split(".")[0]
        spans, stack, counts = self.spans, self._stack, self.counts

        def traced(*args, **kwargs):
            if self._paused:
                return fn(*args, **kwargs)
            index = len(spans)
            span = Span(name, time.perf_counter(), None,
                        stack[-1] if stack else -1)
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                counts[f"{module}.failed"] += 1
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if count is not None:
                count(args, kwargs)
            return result

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = fn.__doc__
        return traced

    # -- computed counts ---------------------------------------------------

    def _count_images(self, args, kwargs):
        self.counts["datasets.images"] += _arg(args, kwargs, 0, "spec").count

    def _count_file(self, args, kwargs):
        self.counts["checkpoint.bytes"] += os.path.getsize(_arg(args, kwargs, 0, "path"))

    def _count_rows(self, args, kwargs):
        x = np.ascontiguousarray(_array(_arg(args, kwargs, 1, "x")))
        for row in x.reshape(x.shape[0], -1):
            key = hashlib.blake2b(row.tobytes(), digest_size=16).digest()
            if key in self._seen_rows:
                self.counts["fusion.encode_repeats"] += 1
            else:
                self._seen_rows.add(key)
            self.counts["fusion.encode_rows"] += 1

    def _count_conv(self, args, kwargs):
        x = _array(_arg(args, kwargs, 0, "x"))
        weight = _array(_arg(args, kwargs, 1, "weight"))
        stride = _arg(args, kwargs, 3, "stride", 1)
        padding = _arg(args, kwargs, 4, "padding", 0)
        b, c_in, h, w = x.shape
        c_out, _, k, _ = weight.shape
        out_h = (h + 2 * padding - k) // stride + 1
        out_w = (w + 2 * padding - k) // stride + 1
        positions = b * out_h * out_w
        self.counts["autograd.conv2d_flop"] += 2 * positions * c_out * c_in * k * k
        self.counts["autograd.im2col_bytes"] += positions * c_in * k * k * x.itemsize

    # -- results -----------------------------------------------------------

    def layer_metrics(self):
        """Every per-layer metric as name -> (value, unit)."""
        selfs = self_times(self.spans)
        total, own, calls = Counter(), Counter(), Counter()
        for span, self_time in zip(self.spans, selfs):
            total[span.name] += span.end - span.start
            own[span.name] += self_time
            calls[span.name] += 1
        out = {}
        for span_name, prefix, unit, calls_name in TIMED:
            if unit == "s":
                out[f"{prefix}_s"] = (total[span_name], "s")
                out[f"{prefix}_self_s"] = (own[span_name], "s")
            else:
                n = max(calls[span_name], 1)
                out[f"{prefix}_ms"] = (1e3 * total[span_name] / n, "ms")
                out[f"{prefix}_self_ms"] = (1e3 * own[span_name] / n, "ms")
            if calls_name is not None:
                out[calls_name] = (calls[span_name], "count")
        c = self.counts
        rows = c["fusion.encode_rows"]
        out["datasets.images"] = (c["datasets.images"], "count")
        out["checkpoint.mb"] = (c["checkpoint.bytes"] / 1e6, "MB")
        out["fusion.encode_rows"] = (rows, "count")
        out["fusion.encode_repeat_frac"] = (
            c["fusion.encode_repeats"] / rows if rows else 0.0, "fraction")
        out["autograd.conv2d_gflop"] = (c["autograd.conv2d_flop"] / 1e9, "GFLOP-computed")
        out["autograd.im2col_mb"] = (c["autograd.im2col_bytes"] / 1e6, "MB-computed")
        for module in MODULES:
            out[f"{module}.failed"] = (c[f"{module}.failed"], "count")
        return out
