"""Tests for the thread map and for the flow loops that run on it.

Every threaded result is compared with the same call whose ``pmap``
is a plain in-order list map, the serial reference.
"""

from __future__ import annotations

import os
import threading
import time

import numpy as np
import pytest

from synthstab import estimator, metrics, parallel, stabilizer
from synthstab.generate import GenerateConfig, make_video
from synthstab.parallel import pmap


def serial_map(fn, items):
    return [fn(x) for x in items]


@pytest.fixture
def four_cpus(monkeypatch):
    """Let ``pmap`` use four threads whatever the host has."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)


# ---------------------------------------------------------------------------
# pmap
# ---------------------------------------------------------------------------


def test_pmap_preserves_order(four_cpus):
    # Later items finish first.
    def slow_square(i):
        time.sleep(0.005 * (8 - i))
        return i * i

    assert pmap(slow_square, range(8)) == [i * i for i in range(8)]
    assert pmap(slow_square, []) == []


def test_pmap_runs_items_concurrently(four_cpus):
    # Two items meet at the barrier only if they run at the same time.
    barrier = threading.Barrier(2, timeout=10)
    assert pmap(lambda i: barrier.wait() >= 0, range(2)) == [True, True]


def test_pmap_reraises_the_first_failing_item(four_cpus):
    def fail_some(i):
        if i in (2, 4):
            time.sleep(0.05 if i == 2 else 0.0)
            raise ValueError(f"item {i}")
        return i

    with pytest.raises(ValueError, match="item 2"):
        pmap(fail_some, range(6))


def _no_pool(*args, **kwargs):
    raise AssertionError("a pool was started")


def test_pmap_runs_inline_on_one_cpu(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(parallel, "ThreadPoolExecutor", _no_pool)
    threads = pmap(lambda i: threading.current_thread(), range(5))
    assert threads == [threading.main_thread()] * 5


def test_pmap_falls_back_to_cpu_count(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    monkeypatch.setattr(parallel, "ThreadPoolExecutor", _no_pool)
    assert parallel.usable_cpus() == 1
    assert pmap(lambda i: -i, range(3)) == [0, -1, -2]


# ---------------------------------------------------------------------------
# Threaded flow loops against the serial reference
# ---------------------------------------------------------------------------


def _clip(layers, style, n_frames=12, seed=3):
    cfg = GenerateConfig(
        n_videos=1,
        n_frames=n_frames,
        width=128,
        height=128,
        seed=seed,
        n_layers=layers,
        texture_style=style,
    )
    return make_video(cfg, 0)


def _with_flat_frame(frames, index):
    """A copy of ``frames`` with frame ``index`` replaced by a flat grey one."""
    out = list(frames)
    out[index] = np.full_like(frames[index], 128)
    return out


def _threaded_and_serial(monkeypatch, module, call):
    threaded = call()
    with monkeypatch.context() as m:
        m.setattr(module, "pmap", serial_map)
        serial = call()
    return threaded, serial


CLIPS = [(1, "mixed", None), (2, "random", None), (1, "mixed", 5), (2, "random", 1)]


@pytest.mark.parametrize("layers, style, flat", CLIPS)
def test_blockmatch_estimates_match_serial(monkeypatch, four_cpus, layers, style, flat):
    frames = _clip(layers, style).frames
    if flat is not None:
        frames = _with_flat_frame(frames, flat)
    (est, warn), (ref_est, ref_warn) = _threaded_and_serial(
        monkeypatch, estimator, lambda: estimator.estimate_sequence(frames, "blockmatch")
    )
    assert est == ref_est
    assert warn == ref_warn
    if flat is not None:
        # Both pairs touching the flat frame fall back to identity, in order.
        assert [w.split(":")[0] for w in warn] == [f"pair {flat - 1}", f"pair {flat}"]


def _oracle_stabilized(layers, style):
    clip = _clip(layers, style, seed=5)
    est, _ = estimator.estimate_sequence(clip.frames, "oracle", marks=clip.marks)
    return clip.frames, stabilizer.stabilize_video(clip.frames, est)


@pytest.mark.parametrize("layers, style, flat", CLIPS)
def test_evaluate_report_matches_serial(monkeypatch, four_cpus, layers, style, flat):
    original, res = _oracle_stabilized(layers, style)
    stabilized = res.frames if flat is None else _with_flat_frame(res.frames, flat)
    report, ref = _threaded_and_serial(
        monkeypatch,
        metrics,
        lambda: metrics.evaluate(original, stabilized, res.applied, res.crop),
    )
    assert report.rows() == ref.rows()
    assert report.warnings == ref.warnings
    if flat is not None:
        assert [w.split(":")[:2] for w in report.warnings[:2]] == [
            ["stabilized", f" pair {flat - 1}"],
            ["stabilized", f" pair {flat}"],
        ]
        assert report.warnings[-1].startswith(f"frame {flat}: distortion skipped")
