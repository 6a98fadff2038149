"""Tests of the benchmark itself, run at a tiny size.

    python -m pytest benchmark/tests
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

import harness
from promptseg import config, fusion, pipeline
from tracing import Span, Tracer, coverage, self_times
from workloads import WORKLOADS, Budget

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def tiny_budget():
    base = config.default_config()
    data = dataclasses.replace(base.data, size=32, base_train=8, base_val=2,
                               styled_train=4, styled_val=2, target_val=2)
    return Budget(base=dataclasses.replace(base, data=data), factor=1 / 500,
                  max_request=3, setup_reps=2)


def run_tiny(name, trace, tmp_path, seed=3):
    ledger, metrics, lines, digest = harness.run(
        name, seed, 0, trace, str(tmp_path), tiny_budget())
    assert ledger.failed == 0, "\n".join(lines + ledger.lines())
    return metrics, digest


def test_workloads_match_the_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("name", list(WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_present_with_its_unit(name, trace, tmp_path):
    metrics, _ = run_tiny(name, trace, tmp_path)
    expected = {m["name"]: m["unit"] for m in
                SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: unit for k, (_, unit) in metrics.items()} == expected
    if not trace:
        assert all(value > 0 for value, _ in metrics.values())


def test_traced_run_sees_calls_bound_by_name(tmp_path):
    # pipeline imports train_apf and infer by name; the tracer must catch
    # the calls made through those bindings and restore them afterwards
    original = (pipeline.train_apf, pipeline.infer, fusion.infer)
    metrics, _ = run_tiny("train-pipeline", True, tmp_path)
    assert metrics["fusion.train_apf_s"][0] > 0
    assert metrics["fusion.infer_calls"][0] > 0
    assert metrics["oracle.input_grad_calls"][0] > 0
    assert metrics["trace.top_coverage"][0] >= 0.9
    assert (pipeline.train_apf, pipeline.infer, fusion.infer) == original


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_tracing_leaves_digests_unchanged(name, tmp_path):
    _, plain = run_tiny(name, False, tmp_path)
    _, again = run_tiny(name, False, tmp_path)
    _, traced = run_tiny(name, True, tmp_path)
    assert plain == again == traced


def test_seed_changes_the_inputs(tmp_path):
    _, a = run_tiny("fused-infer", False, tmp_path, seed=3)
    _, b = run_tiny("fused-infer", False, tmp_path, seed=4)
    assert a != b


def test_fused_infer_records_no_tape(tmp_path):
    metrics, _ = run_tiny("fused-infer", True, tmp_path)
    assert metrics["autograd.backward_calls"][0] == 0
    assert metrics["fusion.infer_calls"][0] > 0
    assert metrics["fusion.encode_repeat_frac"][0] == 0


def test_self_time_on_a_hand_built_tree():
    spans = [
        Span("root", 0.0, 10.0),
        Span("a", 1.0, 4.0, parent=0),
        Span("b", 3.0, 6.0, parent=0),  # overlaps a: the union counts once
        Span("a.child", 2.0, 3.0, parent=1),
        Span("other", 11.0, 12.0),
    ]
    assert self_times(spans) == pytest.approx([5.0, 2.0, 3.0, 1.0, 1.0])
    # top-level spans cover [0, 10] and [11, 12] of the windows
    assert coverage(spans, [(0.0, 10.0), (10.0, 12.0)]) == pytest.approx(11 / 12)


def test_tracer_counts_a_failure_and_restores():
    from promptseg.autograd import ops

    original = ops.conv2d
    with Tracer() as tracer:
        with pytest.raises(TypeError):
            ops.conv2d(None, None, None)
    assert ops.conv2d is original
    assert tracer.counts["autograd.failed"] == 1
    assert [s.name for s in tracer.spans] == ["autograd.conv2d"]


def test_tail_percentile_keeps_ten_samples_beyond():
    from workloads import tail_percentile

    assert tail_percentile(144) == (90, 14)
    assert tail_percentile(1000) == (99, 10)
    assert tail_percentile(200) == (95, 10)


def test_refuses_a_directory_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(os.path.join(ROOT, path), tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    cmd = [sys.executable, *SPEC["command"][1:], "--workload", "fused-infer",
           "--seed", "0", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 2
    assert '"correct"' not in proc.stdout
