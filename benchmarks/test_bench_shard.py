"""Benchmark: the sharded fleet vs. one monitor core.

Acceptance criteria of the sharding subsystem:

* draining 96 devices' traffic through a
  ``FleetMonitor(n_shards=4)`` is at least **2x** the drain throughput
  of a one-partition ``FleetMonitor`` over the same submissions, with **bitwise
  identical** verdicts (same predictions, entropies and accept
  decisions per (device, seq)) and identical merged report rows;
* ``snapshot()`` → pickle → ``restore()`` of a half-drained sharded
  fleet resumes with identical subsequent verdicts.

Measured numbers are printed and written to ``BENCH_shard.json``
(uploaded as a CI artifact by the ``bench-shard`` job).
"""

from __future__ import annotations

import json
import pickle
import time
from pathlib import Path

import numpy as np
import pytest

from repro.experiments import ExperimentConfig, ExperimentContext
from repro.fleet import (
    BackpressurePolicy,
    FleetMonitor,
    FleetWindowSampler,
)
from repro.fleet.engine import batch_verdict_key
from repro.fleet.report import device_report_key
from repro.hmd.apps import DVFS_KNOWN_BENIGN, DVFS_KNOWN_MALWARE, DVFS_UNKNOWN
from repro.ml import RandomForestClassifier
from repro.sim.workloads import FleetPopulation
from repro.uncertainty import TrustedHMD

RESULTS_PATH = Path(__file__).resolve().parent.parent / "BENCH_shard.json"
_results: dict = {}

N_DEVICES = 96
N_SHARDS = 4
WINDOWS_PER_DEVICE = 40
BATCH_SIZE = 256
REPEATS = 5


@pytest.fixture(scope="module")
def shard_setup():
    config = ExperimentConfig(dvfs_scale=0.25, hpc_scale=0.05, n_estimators=60)
    context = ExperimentContext(config)
    dataset = context.dataset("dvfs")
    hmd = TrustedHMD(
        RandomForestClassifier(n_estimators=60, random_state=7),
        threshold=0.40,
    ).fit(dataset.train.X, dataset.train.y)
    population = FleetPopulation(
        DVFS_KNOWN_BENIGN,
        DVFS_KNOWN_MALWARE,
        DVFS_UNKNOWN,
        malware_fraction=0.08,
        zero_day_fraction=0.05,
        random_state=7,
    )
    devices = population.sample(N_DEVICES)
    sampler = FleetWindowSampler(dataset, devices, random_state=7)
    arrivals = list(sampler.rounds(WINDOWS_PER_DEVICE))
    return hmd, devices, arrivals


def _drive(monitor, devices, arrivals):
    monitor.register_fleet(devices)
    for device_id, window in arrivals:
        monitor.submit(device_id, window)
    t0 = time.perf_counter()
    batches = monitor.drain()
    return batches, time.perf_counter() - t0


def test_bench_sharded_drain_speedup(shard_setup):
    """Gate: K-shard drain >= 2x one monitor, verdicts bitwise equal."""
    hmd, devices, arrivals = shard_setup
    policy = BackpressurePolicy(max_pending=len(arrivals) + 1)

    single_elapsed, sharded_elapsed = np.inf, np.inf
    single_batches = sharded_batches = None
    single_report = sharded_report = None
    # Interleave the repeats so host noise hits both paths alike and
    # take the best of each (same discipline as the other benches).
    for _ in range(REPEATS):
        monitor = FleetMonitor(hmd, batch_size=BATCH_SIZE, policy=policy)
        batches, elapsed = _drive(monitor, devices, arrivals)
        if elapsed < single_elapsed:
            single_elapsed = elapsed
        single_batches, single_report = batches, monitor.report()

        sharded = FleetMonitor(
            hmd, n_shards=N_SHARDS, batch_size=BATCH_SIZE, policy=policy
        )
        batches, elapsed = _drive(sharded, devices, arrivals)
        if elapsed < sharded_elapsed:
            sharded_elapsed = elapsed
        sharded_batches, sharded_report = batches, sharded.report()

    n = len(arrivals)
    speedup = single_elapsed / sharded_elapsed
    verdicts_identical = batch_verdict_key(sharded_batches) == batch_verdict_key(
        single_batches
    )
    reports_identical = device_report_key(sharded_report) == device_report_key(
        single_report
    )
    print(
        f"\nshard bench: {N_DEVICES} devices x {WINDOWS_PER_DEVICE} windows, "
        f"K={N_SHARDS}, batch={BATCH_SIZE}\n"
        f"  single : {single_elapsed * 1e3:8.1f} ms "
        f"({n / single_elapsed:8.0f} windows/sec)\n"
        f"  sharded: {sharded_elapsed * 1e3:8.1f} ms "
        f"({n / sharded_elapsed:8.0f} windows/sec)\n"
        f"  speedup: {speedup:8.1f}x   verdicts identical: "
        f"{verdicts_identical}   reports identical: {reports_identical}"
    )
    _results["sharded_drain"] = {
        "n_devices": N_DEVICES,
        "n_windows": n,
        "n_shards": N_SHARDS,
        "batch_size": BATCH_SIZE,
        "single_sec": single_elapsed,
        "sharded_sec": sharded_elapsed,
        "single_wps": n / single_elapsed,
        "sharded_wps": n / sharded_elapsed,
        "speedup": speedup,
        "verdicts_identical": verdicts_identical,
        "reports_identical": reports_identical,
    }

    assert verdicts_identical, "sharded verdicts drifted from the single path"
    assert reports_identical, "merged report drifted from the single path"
    assert speedup >= 2.0, f"sharded drain only {speedup:.1f}x"


def test_bench_snapshot_restore_resumes(shard_setup):
    """Gate: checkpoint mid-stream, restore, identical verdicts after."""
    hmd, devices, arrivals = shard_setup
    policy = BackpressurePolicy(max_pending=len(arrivals) + 1)

    fleet = FleetMonitor(
        hmd, n_shards=N_SHARDS, batch_size=BATCH_SIZE, policy=policy
    )
    fleet.register_fleet(devices)
    half = len(arrivals) // 2
    for device_id, window in arrivals[:half]:
        fleet.submit(device_id, window)
    fleet.drain(max_batches=1)  # checkpoint with a live backlog

    t0 = time.perf_counter()
    blob = pickle.dumps(fleet.snapshot())
    snapshot_elapsed = time.perf_counter() - t0
    t0 = time.perf_counter()
    restored = FleetMonitor.restore(hmd, pickle.loads(blob))
    restore_elapsed = time.perf_counter() - t0

    for monitor in (fleet, restored):
        for device_id, window in arrivals[half:]:
            monitor.submit(device_id, window)
    tail = fleet.drain()
    tail_restored = restored.drain()
    identical = batch_verdict_key(tail_restored) == batch_verdict_key(tail)
    reports_identical = device_report_key(restored.report()) == device_report_key(
        fleet.report()
    )
    print(
        f"\nsnapshot/restore: {len(blob)} bytes, snapshot "
        f"{snapshot_elapsed * 1e3:.1f} ms, restore "
        f"{restore_elapsed * 1e3:.1f} ms, resumed verdicts identical: "
        f"{identical}"
    )
    _results["snapshot_restore"] = {
        "snapshot_bytes": len(blob),
        "snapshot_sec": snapshot_elapsed,
        "restore_sec": restore_elapsed,
        "resumed_verdicts_identical": identical,
        "reports_identical": reports_identical,
    }

    assert identical, "restored fleet produced different verdicts"
    assert reports_identical, "restored fleet report drifted"


def teardown_module(module):
    """Persist whatever was measured, even on partial runs."""
    if _results:
        RESULTS_PATH.write_text(json.dumps(_results, indent=2) + "\n")
        print(f"\nwrote {RESULTS_PATH}")
