"""Tests of the benchmark itself: tracer arithmetic, patch hygiene, outputs."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import types
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import harness  # noqa: E402
import layers  # noqa: E402
import reference  # noqa: E402
from synthstab import kernels  # noqa: E402
from tracer import PatchPoint, Span, Tracer, self_times, summarize  # noqa: E402
import workloads  # noqa: E402
from workloads import TINY, WORKLOADS, Tally  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_self_time_on_hand_built_tree():
    spans = [
        Span("root", 0.0, 10.0, -1),
        Span("a", 1.0, 4.0, 0),
        Span("leaf", 2.0, 3.0, 1),
        Span("b", 3.5, 6.0, 0),  # overlaps a: covered time is the union
        Span("a", 7.0, 9.0, 0),
        Span("a", 7.5, 8.0, 4),  # re-entrant: not counted twice inclusive
    ]
    # root: 10 s minus the union [1, 6] + [7, 9] of its children.
    assert self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 2.5, 1.5, 0.5])
    stats = summarize(spans)
    assert stats["a"].calls == 3
    assert stats["a"].total_s == pytest.approx(5.0)
    assert stats["a"].self_s == pytest.approx(4.0)
    assert stats["root"].self_s == pytest.approx(3.0)


def test_tracer_records_nesting_and_restores_on_error():
    ticks = iter(range(100))
    mod = types.SimpleNamespace()

    def inner(x):
        return x + 1

    def outer(x):
        return mod.inner(x) * 2

    def boom():
        raise RuntimeError("boom")

    mod.inner, mod.outer, mod.boom = inner, outer, boom
    tracer = Tracer(clock=lambda: float(next(ticks)))
    tracer.install(
        [
            PatchPoint(mod, "inner", "m.inner"),
            PatchPoint(mod, "outer", "m.outer"),
            PatchPoint(mod, "boom", "m.boom"),
        ]
    )
    try:
        assert mod.outer(1) == 4
        with pytest.raises(RuntimeError):
            mod.boom()
    finally:
        tracer.restore()
    assert (mod.inner, mod.outer, mod.boom) == (inner, outer, boom)
    names = [(s.name, s.parent) for s in tracer.spans]
    assert names == [("m.outer", -1), ("m.inner", 0), ("m.boom", -1)]
    assert [(s.start, s.end) for s in tracer.spans] == [(0, 3), (1, 2), (4, 5)]


def test_patched_functions_restored_after_traced_run():
    points = layers.patch_points(layers.Capture())
    before = [vars(p.owner)[p.attr] for p in points]
    harness.run("stabilize_bm", 0, 1.0, True, TINY)
    after = [vars(p.owner)[p.attr] for p in points]
    assert all(a is b for a, b in zip(before, after))


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tiny_run_emits_every_named_metric(workload):
    end_to_end = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    for trace, expected in ((False, end_to_end), (True, per_layer)):
        summary = harness.run(workload, 3, 0.5, trace, TINY).summary()
        assert set(summary) == {"correct", "attempted", "failed", "metrics"}
        assert summary["attempted"] >= 1
        got = {k: v["unit"] for k, v in summary["metrics"].items()}
        assert got == expected
        assert all(np.isfinite(v["value"]) for v in summary["metrics"].values())


def test_workloads_listed_in_benchmark_json():
    assert [w["name"] for w in BENCH["workloads"]] == list(WORKLOADS)


def test_references_agree_with_kernels_and_catch_a_wrong_value():
    rng = np.random.default_rng(5)
    a = rng.integers(0, 256, size=(24, 24)).astype(np.int16)
    b = np.roll(a, (1, -2), axis=(0, 1))
    seed = rng.integers(-2, 3, size=(3, 3))
    args = (a, b, 8, seed, -seed, 2)
    vol = kernels.sad_volume(*args)
    assert reference.check_sad_volume(args, vol, kernels.INVALID_SAD, rng, 500) == []
    bad = vol.copy()
    bad[reference.sad_offsets_in_bounds(a.shape, 8, seed, -seed, 2)] += 1
    assert reference.check_sad_volume(args, bad, kernels.INVALID_SAD, rng) != []

    tex = rng.random((20, 30))
    m = np.array([[0.9, 0.2, 1.3], [-0.1, 1.1, -0.7]])
    out = kernels.affine_bilinear(tex, m, 17, 23)
    assert reference.check_affine_bilinear((tex, m, 17, 23), out) == []
    nudged = (np.nextafter(out[0], 2.0), out[1])
    assert reference.check_affine_bilinear((tex, m, 17, 23), nudged) != []


def test_recorded_values_gate_accuracy_and_report_fields():
    tally = Tally()
    harness._check_accuracy({"err": (1.0, "px", 9)}, {"err": 1.0}, tally)
    assert tally.check_failures == 0
    harness._check_accuracy({"err": (1.001, "px", 9)}, {"err": 1.0}, tally)
    assert tally.check_failures == 1
    rows = {"distortion": "0.5", "success": "true"}
    assert workloads._rows_match(rows, {"distortion": "0.5000000001", "success": "true"})
    assert not workloads._rows_match(rows, {"distortion": "0.5001", "success": "true"})
    assert not workloads._rows_match(rows, {"distortion": "0.5", "success": "false"})


def test_blockmatch_check_fails_on_wrong_estimates():
    wl = WORKLOADS["stabilize_bm"]
    clip = wl.setup(3, TINY, Tally())[0]
    est, warnings, result = wl.op(clip, TINY)
    shifted = [replace(e, tx=e.tx + 1.0) for e in est]
    tally = Tally()
    wl.check(clip, (shifted, warnings, result), None, tally, None)
    assert tally.check_failures == 1


def test_run_without_sources_fails_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    skip = shutil.ignore_patterns("out", "__pycache__")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=skip)
    proc = subprocess.run(
        [sys.executable, *BENCH["command"][1:], "--workload", "train_small",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
