"""Times one workload in this process and checks its outputs.

Untraced (``trace=False``) a run reports the end-to-end metrics:

- ``setup_s``: median of ``Budget.setup_reps`` set-ups;
- ``wall_s``: median wall time of one unit of work (a run-all chain, one
  fusion arm, or one round of requests);
- ``peak_rss_mb``: ``getrusage`` peak of this process, set-up included;

and prints the workload's own metrics beside them.  Units repeat until the
next one would overrun ``seconds`` (at least ``min_units`` of them).
``setup_s`` and ``wall_s`` are in seconds at the reference host speed (see
``SpeedProbe``); the raw seconds are printed beside them.

Traced (``trace=True``) a run first times units untraced for half the
budget, then replays the same units, set-up included, under a ``Tracer``.
The replay must give the same digests; the wall-time ratio of the two
passes is the tracing overhead.
"""

import ctypes
import gc
import hashlib
import os
import resource
import statistics
import sys
import time
import traceback

import numpy as np

from tracing import Tracer, coverage
from workloads import WORKLOADS, Budget


class Ledger:
    """Counts operations and checks; a failure of either marks the run incorrect."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.checks = {}  # name -> [passed, total, last failing detail]

    def ops(self, n, failed=0):
        self.attempted += n
        self.failed += failed

    def check(self, name, ok, detail=""):
        entry = self.checks.setdefault(name, [0, 0, ""])
        entry[1] += 1
        self.ops(1, 0 if ok else 1)
        if ok:
            entry[0] += 1
        else:
            entry[2] = detail

    def lines(self):
        out = []
        for name, (passed, total, detail) in self.checks.items():
            status = "ok" if passed == total else f"FAIL ({detail})"
            out.append(f"check {name}: {passed}/{total} {status}")
        return out


class SpeedProbe:
    """Times a fixed numpy kernel to gauge how fast the host runs right now.

    On a shared 2-vCPU Xeon VM (2.0 GHz, numpy 2.4.6 with OpenBLAS 0.3.31)
    the other tenants slow whole stretches of a run, tens of seconds long,
    by up to a third, and CPU time slows with wall time.  The kernel mixes
    the three kinds of work promptseg does: a two-thread GEMM, a large
    elementwise pass and a loop of tiny numpy calls.  It slows with the
    work, so a time scaled by ``REFERENCE_S`` over the kernel time read just
    before and after it stays put.  Over 15 s windows of a noisy stretch the
    quartile spread of oracle training fell from 26 % raw to 4 % scaled, and
    that of rendering a domain from 38 % to 12 %.  The kernel is numpy only,
    so a change to promptseg moves the work and not the kernel.
    """

    REFERENCE_S = 0.030  # kernel time on that VM, rounded

    def __init__(self):
        rng = np.random.default_rng(0)
        self._a = rng.standard_normal((8192, 400), dtype=np.float32)
        self._b = rng.standard_normal((400, 32), dtype=np.float32)
        self._x = rng.standard_normal((8, 16, 64, 64), dtype=np.float32)
        self._v = rng.standard_normal(16, dtype=np.float32)
        self.readings = []

    def _kernel(self):
        for _ in range(6):
            _ = self._a @ self._b
            _ = np.maximum(self._x * 1.01 + 0.5, 0.0).sum()
        v = self._v
        for _ in range(3000):
            v = np.tanh(v * 0.5 + 0.1)

    def read(self):
        """Median of three kernel timings; kept in ``readings``."""
        reps = []
        for _ in range(3):
            t0 = time.perf_counter()
            self._kernel()
            reps.append(time.perf_counter() - t0)
        self.readings.append(statistics.median(reps))
        return self.readings[-1]

    def scale(self, before, after):
        """Factor to reference speed for work done between two readings."""
        return self.REFERENCE_S / ((before + after) / 2)


class Failed(Exception):
    """An operation raised; the run cannot go on."""


def _attempt(ledger, fn, *args):
    try:
        return fn(*args)
    except Exception as e:
        ledger.ops(1, 1)
        traceback.print_exc(file=sys.stderr)
        raise Failed(f"{getattr(fn, '__name__', fn)}: {e}") from e


def _setup(wl, ledger):
    t0 = time.perf_counter()
    state, digest, checks = _attempt(ledger, wl.setup)
    secs = time.perf_counter() - t0
    ledger.ops(1)
    for check in checks:
        ledger.check(*check)
    return state, digest, secs


def _unit(wl, state, i, ledger, tracer=None):
    if tracer is None:
        inputs = _attempt(ledger, wl.inputs, i)
    else:
        with tracer.paused():
            inputs = _attempt(ledger, wl.inputs, i)
    t0 = time.perf_counter()
    unit = _attempt(ledger, wl.unit, state, i, inputs)
    t1 = time.perf_counter()
    ledger.ops(unit.ops)
    for check in unit.checks:
        ledger.check(*check)
    unit.window = (t0, t1)
    unit.wall = t1 - t0
    return unit


def _units(wl, state, seconds, ledger, probe=None):
    """Run units until the next one would end after ``seconds``.

    With a probe, each unit's ``scaled`` wall is at reference host speed.
    """
    units = []
    start = time.perf_counter()
    before = probe.read() if probe else None
    while True:
        collect()  # garbage of the last unit must not land in this one
        unit = _unit(wl, state, len(units), ledger)
        if probe:
            after = probe.read()
            unit.scaled = unit.wall * probe.scale(before, after)
            before = after
        units.append(unit)
        elapsed = time.perf_counter() - start
        typical = statistics.median(u.wall for u in units)
        if len(units) >= wl.min_units and elapsed + typical > seconds:
            return units


def _same_inputs_same_outputs(wl, state, units, ledger):
    """Units with equal keys must give equal digests; force one repeat if none."""
    by_key = {}
    for u in units:
        by_key.setdefault(u.key, set()).add(u.digest)
    if len(by_key) == len(units):
        again = _unit(wl, state, 0, ledger)
        by_key[again.key].add(again.digest)
    ledger.check("same inputs, same outputs",
                 all(len(d) == 1 for d in by_key.values()),
                 f"{len(units)} units over {len(by_key)} distinct inputs")


def _malloc_trim():
    try:
        return ctypes.CDLL(None).malloc_trim
    except (OSError, AttributeError):  # not glibc
        return None


_MALLOC_TRIM = _malloc_trim()


def collect():
    """Free the garbage of earlier work and hand free heap pages back to the OS.

    Without the trim, how much of a unit's memory fits in pages the set-up
    freed depends on the seed's allocation history, and the peak RSS of
    fusion-ablate spread by 9 % over ten seeds; with it, by under 1 %.
    """
    gc.collect()
    if _MALLOC_TRIM is not None:
        _MALLOC_TRIM(0)


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run(name, seed, seconds, trace, tmp, budget=None):
    """Run one workload; returns (ledger, metrics, report lines, digest).

    ``metrics`` maps name -> (value, unit).  It holds the end-to-end metrics
    untraced and the per-layer metrics traced; it is empty when an
    operation raised.
    """
    budget = budget or Budget()
    wl = WORKLOADS[name](seed, budget, tmp)
    ledger = Ledger()
    lines = []
    try:
        _attempt(ledger, wl.prepare)
        ledger.ops(1)
        if trace:
            metrics, digest = _traced(wl, seconds, ledger, lines)
        else:
            metrics, digest = _untraced(wl, budget, seconds, ledger, lines)
    except Failed as e:
        lines.append(f"FAILED: {e}")
        return ledger, {}, lines, None
    return ledger, metrics, lines, digest


def _run_digest(units):
    return hashlib.blake2b("|".join(u.digest for u in units).encode(),
                           digest_size=16).hexdigest()


def _untraced(wl, budget, seconds, ledger, lines):
    probe = SpeedProbe()
    digests, raw, scaled = set(), [], []
    before = probe.read()
    state = None
    for _ in range(budget.setup_reps):
        state = None  # the previous set-up's memory goes first
        collect()
        state, digest, secs = _setup(wl, ledger)
        after = probe.read()
        digests.add(digest)
        raw.append(secs)
        scaled.append(secs * probe.scale(before, after))
        before = after
    ledger.check("set-up reproducible", len(digests) == 1, f"{len(raw)} set-ups")
    units = _units(wl, state, seconds, ledger, probe)
    _same_inputs_same_outputs(wl, state, units, ledger)
    metrics = {
        "setup_s": (statistics.median(scaled), "s"),
        "wall_s": (statistics.median(u.scaled for u in units), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    lines.append(_fmt("setup_s raw", statistics.median(raw), "s",
                      f"median of {len(raw)} set-ups"))
    lines.append(_fmt("wall_s raw", statistics.median(u.wall for u in units), "s",
                      f"median of {len(units)} units: "
                      + " ".join(f"{u.wall:.2f}" for u in units)))
    lines.append(_fmt("host speed", probe.REFERENCE_S / statistics.median(
        probe.readings), "x reference", f"{len(probe.readings)} kernel readings"))
    for key, (value, unit, note) in wl.summary(units).items():
        lines.append(_fmt(key, value, unit, note))
    return metrics, _run_digest(units)


def _traced(wl, seconds, ledger, lines):
    state, _, _ = _setup(wl, ledger)
    plain = _units(wl, state, seconds / 2, ledger)
    state = None
    collect()
    with Tracer() as tracer:
        state, _, _ = _setup(wl, ledger)
        traced = []
        for i in range(len(plain)):
            collect()
            traced.append(_unit(wl, state, i, ledger, tracer))
    ledger.check("tracing leaves outputs unchanged",
                 [u.digest for u in plain] == [u.digest for u in traced],
                 f"{len(plain)} units compared")
    metrics = tracer.layer_metrics()
    if wl.name == "fused-infer":
        n = metrics["autograd.backward_calls"][0]
        ledger.check("inference records no tape", n == 0,
                     f"{n} backward calls while serving")
    overhead = (statistics.median(u.wall for u in traced)
                / statistics.median(u.wall for u in plain) - 1)
    metrics["trace.overhead_frac"] = (overhead, "fraction")
    metrics["trace.top_coverage"] = (
        coverage(tracer.spans, [u.window for u in traced]), "fraction")
    metrics["trace.spans"] = (len(tracer.spans), "count")
    lines.append(f"{len(plain)} units untraced, then the same {len(traced)} traced")
    return metrics, _run_digest(traced)


def _fmt(name, value, unit, note=""):
    text = f"{name:<34} {value:>14.6g} {unit}"
    return f"{text:<58} {note}".rstrip()


def report(name, seed, seconds, trace, ledger, metrics, lines, env):
    """Human-readable lines for one run (the JSON result line comes after)."""
    out = [f"workload {name}  seed {seed}  seconds {seconds}  trace {int(trace)}",
           "env " + "  ".join(f"{k}={v}" for k, v in env.items())]
    for key, (value, unit) in metrics.items():
        out.append(_fmt(key, value, unit))
    out += lines
    frac = ledger.failed / max(ledger.attempted, 1)
    out.append(_fmt("failed_frac", frac, "fraction",
                    f"{ledger.failed} of {ledger.attempted} operations"))
    out += ledger.lines()
    out.append("no wait-time metrics: nothing in promptseg queues or retries")
    return out


def tmp_root(root):
    path = os.path.join(root, ".bench_tmp")
    os.makedirs(path, exist_ok=True)
    return path
