"""One benchmark run: set-up, a closed loop of operations, checks, metrics.

Load is one operation in flight at a time from this single process
(a closed loop).  An untraced run (``trace=False``) reports the
end-to-end metrics, with times scaled to nominal machine speed (see
``calibrate.py``) and the times as measured printed beside them.  A
traced run times each of the workload's inputs untraced and then
traced, reports the per-layer metrics from the traced operations and
the set-up, the tracing overhead (traced minus untraced seconds, as
measured), and re-checks sampled kernel calls against the
brute-force references.
"""

from __future__ import annotations

import json
import resource
import statistics
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from calibrate import speed
from layers import ACCURACY_METRICS, Capture, layer_metrics, patch_points
from tracer import Tracer, summarize
from workloads import FULL, GOLDEN_TOL, WORKLOADS, Sizes, Tally

HERE = Path(__file__).resolve().parent
GOLDEN_PATH = HERE / "golden.json"


@dataclass
class RunResult:
    """Reported metrics as name -> (value, unit, sample count), plus the tally.

    ``details`` are printed for people but are not part of the result.
    """

    metrics: dict[str, tuple[float, str, int]]
    tally: Tally
    details: dict[str, tuple[float, str, int]] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)
    spans: list = field(default_factory=list)
    firsts: list = field(default_factory=list)

    def summary(self) -> dict:
        """The result object printed as the last line of the run."""
        return {
            "correct": self.tally.check_failures == 0,
            "attempted": self.tally.attempted,
            "failed": self.tally.failed,
            "metrics": {
                k: {"value": v, "unit": u} for k, (v, u, _) in self.metrics.items()
            },
        }


def golden_sizes(sizes: Sizes) -> dict:
    """The sizes a recorded value depends on."""
    out = asdict(sizes)
    del out["setup_repeats"]
    return out


def load_golden(workload: str, seed: int, sizes: Sizes) -> dict | None:
    """Values recorded for this workload and seed at these sizes, if any."""
    if not GOLDEN_PATH.is_file():
        return None
    data = json.loads(GOLDEN_PATH.read_text())
    if data["sizes"] != golden_sizes(sizes):
        return None
    return data["seeds"].get(str(seed), {}).get(workload)


def _check_accuracy(accuracy: dict, golden: dict | None, tally: Tally) -> None:
    """Accuracy may not be worse than the value recorded for this seed."""
    for name, (value, _, _) in accuracy.items():
        if golden is not None and name in golden:
            ref = golden[name]
            tally.check(
                value <= ref * (1.0 + GOLDEN_TOL),
                f"{name} {value!r} is worse than the recorded {ref!r}",
            )


def _timed(fn, *args):
    t0 = time.perf_counter()
    out = fn(*args)
    return time.perf_counter() - t0, out


def run(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    sizes: Sizes = FULL,
) -> RunResult:
    wl = WORKLOADS[workload]
    tally = Tally()
    golden = load_golden(workload, seed, sizes)
    notes = [f"recorded values: {'checked' if golden else 'none for this seed and size'}"]
    if trace:
        return _traced_run(wl, seed, sizes, tally, golden, notes)

    # Every timed step is preceded by a speed reading of the machine, and
    # its time is reported both as measured and scaled to nominal speed.
    speed(wl.conv_share)  # warm-up: the first reading pays one-off costs
    setup_times, speeds = [], []
    items = None
    for _ in range(sizes.setup_repeats):
        speeds.append(speed(wl.conv_share))
        dt, got = _timed(wl.setup, seed, sizes, tally if items is None else Tally())
        setup_times.append(dt)
        if items is None:
            items = got
        else:
            tally.check(wl.same_inputs(items, got), "set-up is not deterministic")

    times, rates = [], []

    def step(k: int, first):
        # The output is checked and dropped at once, so memory does not
        # grow with the number of operations that fit in the budget.
        speeds.append(speed(wl.conv_share))
        dt, out = _timed(wl.op, items[k], sizes)
        times.append(dt)
        rates.append(wl.rate(dt, out, sizes))
        return wl.check(items[k], out, first, tally, golden)

    start = time.perf_counter()
    firsts = [step(k, None) for k in range(len(items))]
    # Keep cycling over the inputs while another operation of typical
    # length still fits in the time budget.
    typical = statistics.median(times)
    i = 0
    while time.perf_counter() - start + typical <= seconds:
        step(i % len(items), firsts[i % len(items)])
        i += 1

    n_set = sizes.setup_repeats
    op_speeds = speeds[n_set:]
    scaled = [r / v for r, v in zip(rates, op_speeds) if r is not None]
    raw = [r for r in rates if r is not None]
    metrics = {
        "throughput": (statistics.median(scaled), "items/s", len(scaled)),
        "setup_s": (
            statistics.median(t * v for t, v in zip(setup_times, speeds)), "s", n_set
        ),
    }
    # ru_maxrss is in KiB on Linux.
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics["peak_rss_mb"] = (rss, "MB", 1)
    notes.append(
        f"throughput is {wl.throughput_alias} ({wl.item}s/s); "
        f"{len(times)} operations over {len(items)} inputs, "
        f"seconds each: {' '.join(f'{dt:.3f}' for dt in times)}"
    )
    accuracy = wl.accuracy(firsts)
    _check_accuracy(accuracy, golden, tally)
    details = {
        "throughput_as_measured": (statistics.median(raw), "items/s", len(raw)),
        "setup_s_as_measured": (statistics.median(setup_times), "s", n_set),
        "machine_speed": (statistics.median(speeds), "x nominal", len(speeds)),
        **accuracy,
    }
    return RunResult(metrics, tally, details, notes, firsts=firsts)


def _traced_run(wl, seed, sizes, tally, golden, notes) -> RunResult:
    tracer = Tracer()
    capture = Capture()
    points = patch_points(capture)
    tracer.install(points)
    try:
        items = wl.setup(seed, sizes, tally)
    finally:
        tracer.restore()

    # Warm up on one input, then time each input untraced and traced
    # back to back, so slow drift of the machine hits both alike.
    wl.op(items[0], sizes)
    untraced_s = traced_s = 0.0
    firsts = []
    for item in items:
        dt, out = _timed(wl.op, item, sizes)
        untraced_s += dt
        firsts.append(wl.check(item, out, None, tally, golden))
        tracer.install(points)
        try:
            dt, out = _timed(wl.op, item, sizes)
        finally:
            tracer.restore()
        traced_s += dt
        wl.check(item, out, firsts[-1], tally, golden)

    rechecked = capture.recheck(np.random.default_rng(seed))
    for name, errors in rechecked:
        tally.check(not errors, f"{name}: {'; '.join(errors)}")
    n_checked = len(rechecked)
    n_bad = sum(1 for _, errors in rechecked if errors)

    metrics = {k: (v, u, 1) for k, (v, u) in layer_metrics(summarize(tracer.spans)).items()}
    accuracy = wl.accuracy(firsts)
    _check_accuracy(accuracy, golden, tally)
    for name, key, unit in ACCURACY_METRICS:
        value, _, n = accuracy.get(key, (0.0, unit, 0))
        metrics[name] = (value, unit, n)
    metrics["trace.overhead_s"] = (traced_s - untraced_s, "s", 1)
    metrics["trace.overhead_frac"] = ((traced_s - untraced_s) / untraced_s, "frac", 1)
    metrics["trace.rechecked_calls"] = (n_checked, "count", 1)
    notes.append(
        f"untraced {untraced_s:.3f} s, traced {traced_s:.3f} s over {len(items)} inputs; "
        f"{n_checked} kernel calls re-checked against the reference, {n_bad} differ"
    )
    return RunResult(metrics, tally, {}, notes, tracer.spans)
