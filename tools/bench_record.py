"""Write the benchmark's medians to a committed ``BENCH_<commit>.json``.

Usage, from the root of a checkout:

    python3 tools/bench_record.py --seeds 11 12 13

Runs ``perfbench/run.py --trace 0`` once per workload and seed, one
run at a time, for every workload of ``BENCHMARK.json`` at its
``run_seconds``, and reads the ``record:`` line and the final JSON line
of each.  The file written at the root of the checkout holds, per
workload, the median of every end-to-end metric over the seeds, the
failures against attempts, each run's values, and the run record
(commit, machine, software) shared by all runs.  ``<commit>`` is the
short hash the runs report.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "perfbench" / "run.py"
BENCHMARK = ROOT / "BENCHMARK.json"
# Fields of the run record that differ from run to run.
PER_RUN = ("workload", "seed", "trace")


def parse_run(stdout: str) -> tuple[dict, dict]:
    """The ``record:`` line and the final JSON result of one run."""
    lines = stdout.strip().splitlines()
    records = [ln[len("record: "):] for ln in lines if ln.startswith("record: ")]
    if not lines or len(records) != 1:
        raise ValueError("run output lacks one record: line and a final JSON line")
    return json.loads(records[0]), json.loads(lines[-1])


def summarize(runs: list[tuple[dict, dict]]) -> dict:
    """Per-workload medians and the shared run record of parsed runs."""
    shared = {k: v for k, v in runs[0][0].items() if k not in PER_RUN}
    for record, _ in runs:
        mine = {k: v for k, v in record.items() if k not in PER_RUN}
        if mine != shared:
            raise ValueError(f"run records disagree: {mine} vs {shared}")
    by_workload: dict[str, list[dict]] = {}
    for record, result in runs:
        by_workload.setdefault(record["workload"], []).append({"seed": record["seed"], **result})
    workloads = {}
    for workload, results in by_workload.items():
        units = {name: m["unit"] for name, m in results[0]["metrics"].items()}
        workloads[workload] = {
            "median": {
                name: {
                    "value": statistics.median(r["metrics"][name]["value"] for r in results),
                    "unit": unit,
                }
                for name, unit in units.items()
            },
            "fail_frac": sum(r["failed"] for r in results) / sum(r["attempted"] for r in results),
            "correct": all(r["correct"] for r in results),
            "runs": results,
        }
    return {"record": shared, "workloads": workloads}


def commands(bench: dict, seeds: list[int]) -> list[list[str]]:
    """One ``run.py`` command per workload of ``bench`` and seed, at its run length."""
    return [
        [sys.executable, str(RUN), "--workload", w["name"], "--seed", str(seed),
         "--seconds", str(bench["run_seconds"]), "--trace", "0"]
        for w in bench["workloads"]
        for seed in seeds
    ]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    args = parser.parse_args(argv)

    bench = json.loads(BENCHMARK.read_text())
    runs = []
    for cmd in commands(bench, args.seeds):
        print("running: " + " ".join(cmd[1:]), flush=True)
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode
        runs.append(parse_run(proc.stdout))
    summary = {"seconds": bench["run_seconds"], **summarize(runs)}
    path = ROOT / f"BENCH_{summary['record']['commit'][:7]}.json"
    path.write_text(json.dumps(summary, indent=1) + "\n")
    for workload, entry in summary["workloads"].items():
        values = ", ".join(f"{k} {v['value']:.6g} {v['unit']}" for k, v in entry["median"].items())
        print(f"{workload}: {values}; fail_frac {entry['fail_frac']:.3g}")
    print(f"wrote {path.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
