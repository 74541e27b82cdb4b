"""Tests for the parsing and summary of tools/bench_record.py."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_record.py"
_SPEC = importlib.util.spec_from_file_location("bench_record", _PATH)
bench_record = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_record)


def _output(workload, seed, throughput, failed=0, commit="abc1234def"):
    record = {"workload": workload, "seed": seed, "trace": False, "commit": commit, "nproc": 2}
    result = {
        "correct": True,
        "attempted": 10,
        "failed": failed,
        "metrics": {"throughput": {"value": throughput, "unit": "items/s"}},
    }
    return "\n".join(
        [
            "throughput   1.0 items/s n=3",
            "record: " + json.dumps(record),
            json.dumps(result),
        ]
    )


def test_parse_run_reads_record_and_final_result():
    record, result = bench_record.parse_run(_output("evaluate_oracle", 3, 57.5))
    assert record["seed"] == 3 and record["commit"] == "abc1234def"
    assert result["metrics"]["throughput"]["value"] == 57.5


def test_parse_run_rejects_output_without_record():
    with pytest.raises(ValueError):
        bench_record.parse_run('{"correct": true}')


def test_summarize_takes_medians_per_workload():
    runs = [
        bench_record.parse_run(_output("evaluate_oracle", s, v, failed=f))
        for s, v, f in ((1, 50.0, 0), (2, 70.0, 1), (3, 60.0, 0))
    ]
    runs.append(bench_record.parse_run(_output("train_small", 1, 400.0)))
    summary = bench_record.summarize(runs)
    assert summary["record"] == {"commit": "abc1234def", "nproc": 2}
    ev = summary["workloads"]["evaluate_oracle"]
    assert ev["median"]["throughput"] == {"value": 60.0, "unit": "items/s"}
    assert ev["fail_frac"] == pytest.approx(1 / 30)
    assert [r["seed"] for r in ev["runs"]] == [1, 2, 3]
    assert summary["workloads"]["train_small"]["median"]["throughput"]["value"] == 400.0


def test_summarize_rejects_runs_from_different_commits():
    runs = [
        bench_record.parse_run(_output("evaluate_oracle", 1, 50.0)),
        bench_record.parse_run(_output("evaluate_oracle", 2, 50.0, commit="fff")),
    ]
    with pytest.raises(ValueError):
        bench_record.summarize(runs)


def test_commands_cover_every_benchmark_workload_at_its_run_length():
    bench = json.loads((_PATH.parent.parent / "BENCHMARK.json").read_text())
    cmds = bench_record.commands(bench, [11, 12])
    names = [w["name"] for w in bench["workloads"]]
    assert [(c[c.index("--workload") + 1], c[c.index("--seed") + 1]) for c in cmds] == [
        (n, s) for n in names for s in ("11", "12")
    ]
    assert all(c[c.index("--seconds") + 1] == str(bench["run_seconds"]) for c in cmds)
    assert all(c[-2:] == ["--trace", "0"] for c in cmds)
