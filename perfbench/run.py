"""Benchmark for synthstab: one seeded workload per run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload stabilize_bm --seed 0 --seconds 20 --trace 0

Workloads: ``stabilize_bm``, ``evaluate_oracle``, ``train_small``
(see ``workloads.py`` for what each measures and why).  With
``--trace 0`` the run prints the end-to-end metrics, its timings
scaled to nominal machine speed (see ``calibrate.py``); with
``--trace 1`` it prints the per-layer metrics of a traced pass, the
tracing overhead, and writes the spans under ``perfbench/out/``.

Human-readable lines come first: every metric with its unit and
sample count, the failures, and a ``record:`` line describing the
machine and software.  The last line is the JSON result.  The package
is imported from ``src/`` of the same checkout; without it the run
exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def cap_threads() -> int:
    """Cap BLAS/OpenMP threads at the usable CPU count; call before numpy loads."""
    n = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        cur = os.environ.get(var, "")
        if not (cur.isdigit() and 0 < int(cur) <= n):
            os.environ[var] = str(n)
    return n


def git_commit() -> str:
    """HEAD of the checkout read from ``.git`` directly; ``unknown`` outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_record(seed: int, workload: str, trace: bool, nproc: int) -> dict:
    import numpy as np
    import scipy

    from synthstab import kernels

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "commit": git_commit(),
        "nproc": nproc,
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ[v] for v in THREAD_VARS},
        "kernel_backend": kernels.backend_name(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    nproc = cap_threads()
    if not (SRC / "synthstab" / "__init__.py").is_file():
        print(f"error: no synthstab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import synthstab

    if Path(synthstab.__file__).resolve().parent != SRC / "synthstab":
        print(f"error: synthstab loaded from {synthstab.__file__}", file=sys.stderr)
        return 2

    import harness
    import layers
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        known = ", ".join(WORKLOADS)
        print(f"error: unknown workload {args.workload!r}; one of {known}", file=sys.stderr)
        return 2
    trace = bool(args.trace)
    result = harness.run(args.workload, args.seed, args.seconds, trace)

    for name, (value, unit, n) in {**result.metrics, **result.details}.items():
        hint = f"  -> {layers.moves(name)}" if trace else ""
        print(f"{name:40s} {value:>14.6g} {unit:18s} n={n}{hint}")
    tally = result.tally
    print(f"{'fail_frac':40s} {tally.failed / tally.attempted:>14.6g} "
          f"{'failed/attempted':18s} {tally.failed}/{tally.attempted}")
    for reason in tally.reasons[:20]:
        print(f"failure: {reason}")
    for note in result.notes:
        print(f"note: {note}")
    print("record: " + json.dumps(run_record(args.seed, args.workload, trace, nproc)))
    if trace:
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        spans = [[s.name, s.start, s.end, s.parent, s.counts] for s in result.spans]
        path = out_dir / f"spans-{args.workload}-seed{args.seed}.json"
        path.write_text(json.dumps(spans))
        print(f"note: {len(spans)} spans written to {path.relative_to(ROOT)}")
    print(json.dumps(result.summary()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
