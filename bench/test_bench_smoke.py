"""Smoke test of the benchmark itself, at tiny sizes.

    python3 -m pytest bench -q

Each workload runs once traced (``--smoke``): every metric named in
``BENCHMARK.json`` must be printed with its unit, the final JSON line
must carry the per-layer set, and every verdict must match the oracle.
The span recorder and the comparison rule are checked directly.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from bench.compare import verdict
from bench.spans import SpanRecorder

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "-m", "bench", "--seed", "3", "--seconds", "0.3", "--smoke", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=120,
    )


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_prints_every_metric_and_verdicts_correctly(workload):
    proc = _bench("--workload", workload, "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    *lines, last = proc.stdout.strip().splitlines()
    result = json.loads(last)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    units = {name: unit for name, _, unit in (l.split() for l in lines if l[0] != "#")}
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert units.get(metric["name"]) == metric["unit"], metric["name"]
    assert list(result["metrics"]) == [m["name"] for m in SPEC["per_layer"]]


def test_untraced_run_reports_end_to_end_metrics():
    proc = _bench("--workload", SPEC["workloads"][0]["name"], "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", SPEC["workloads"][0]["name"], "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())


class _Layer:
    def outer(self, inner):
        return inner()

    def inner(self):
        return 1


def test_spans_split_self_time_and_report_missing_layers():
    obj = _Layer()
    recorder = SpanRecorder()
    assert recorder.hook("outer", obj, "outer")
    assert recorder.hook("inner", obj, "inner")
    assert not recorder.hook("gone", obj, "no_such.method")
    assert obj.outer(obj.inner) == 1
    recorder.remove()
    assert "outer" not in vars(obj) and obj.inner() == 1
    assert recorder.calls == {"outer": 1, "inner": 1}
    assert recorder.self_ns["outer"] + recorder.self_ns["inner"] == recorder.covered_ns
    assert recorder.missing == ["gone"]


def test_comparison_rule():
    parent = [100.0 + i for i in range(10)]
    assert verdict(parent, [p + 20 for p in parent], better="higher", bound=0.1) == "gain"
    assert verdict(parent, [p - 20 for p in parent], better="higher", bound=0.1) == "REGRESSION"
    assert verdict(parent, parent, better="higher", bound=0.1) == "same"
    noisy = [50.0, 150.0] * 5
    assert verdict(noisy, noisy, better="higher", bound=0.1) == "unresolved"
    assert (
        verdict(parent, [p + 20 for p in parent], better="higher", bound=0.1, claimable=False)
        == "same"
    )
    share = [0.0585] * 10
    assert verdict(share, share, better="lower", bound=0) == "same"
    assert verdict(share, [0.0586] * 10, better="lower", bound=0) == "REGRESSION"
