"""Benchmark: the multi-process worker backend vs. in-process sharding.

Acceptance criteria of the process-per-shard backend:

* draining 96 devices' traffic through a K=4
  ``WorkerShardedFleetMonitor`` is at least **1.5x** the in-process
  ``FleetMonitor(n_shards=4)`` drain over the same submissions — *on a
  multi-core host*: the speedup comes from true parallelism, so the
  throughput assertion only arms when ``os.cpu_count() >= 4`` (the
  equivalence assertions below are unconditional);
* verdicts AND merged report rows are **bitwise identical** to the
  single-monitor reference, process boundary or not;
* killing a worker mid-stream (SIGKILL) and letting the supervisor
  restart it yields a verdict stream identical to an uninterrupted
  run.

Measured numbers are printed and written to ``BENCH_shard_mp.json``
(uploaded as a CI artifact by the ``bench-shard-mp`` job).
"""

from __future__ import annotations

import json
import os
import signal
import time
from pathlib import Path

import numpy as np
import pytest

from repro.experiments import ExperimentConfig, ExperimentContext
from repro.fleet import (
    BackpressurePolicy,
    FleetMonitor,
    FleetWindowSampler,
    WorkerShardedFleetMonitor,
)
from repro.fleet.engine import batch_verdict_key
from repro.fleet.report import device_report_key
from repro.hmd.apps import DVFS_KNOWN_BENIGN, DVFS_KNOWN_MALWARE, DVFS_UNKNOWN
from repro.ml import RandomForestClassifier
from repro.sim.workloads import FleetPopulation
from repro.uncertainty import TrustedHMD

RESULTS_PATH = Path(__file__).resolve().parent.parent / "BENCH_shard_mp.json"
_results: dict = {}

N_DEVICES = 96
N_SHARDS = 4
WINDOWS_PER_DEVICE = 40
BATCH_SIZE = 256
REPEATS = 3
MULTI_CORE = (os.cpu_count() or 1) >= 4


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


def test_bench_worker_drain(shard_setup):
    """Gate: K-process drain >= 1.5x in-process (multi-core hosts),
    verdicts and reports bitwise identical everywhere."""
    hmd, devices, arrivals = shard_setup
    policy = BackpressurePolicy(max_pending=len(arrivals) + 1)

    single = FleetMonitor(hmd, batch_size=BATCH_SIZE, policy=policy)
    single_batches, _ = _drive(single, devices, arrivals)
    single_report = single.report()

    inproc_elapsed, worker_elapsed = np.inf, np.inf
    worker_batches = None
    worker_report = None
    # Interleave the repeats so host noise hits both paths alike and
    # take the best of each (same discipline as the other benches).
    # Workers are reused across repeats — process startup is deployment
    # cost, not per-drain cost.
    with WorkerShardedFleetMonitor(
        hmd,
        n_shards=N_SHARDS,
        batch_size=BATCH_SIZE,
        policy=policy,
        mp_context="fork",
    ) as worker_fleet:
        for repeat in range(REPEATS):
            inproc = FleetMonitor(
                hmd, n_shards=N_SHARDS, batch_size=BATCH_SIZE, policy=policy
            )
            _, elapsed = _drive(inproc, devices, arrivals)
            inproc_elapsed = min(inproc_elapsed, elapsed)

            batches, elapsed = _drive(worker_fleet, devices, arrivals)
            if elapsed < worker_elapsed:
                worker_elapsed = elapsed
            if repeat == 0:
                # Equivalence is judged on the first drain: later
                # repeats continue the per-device sequence counters, so
                # their (device, seq) keys can't line up with the
                # once-driven single-monitor reference.
                worker_batches = batches
                worker_report = worker_fleet.report()

    n = len(arrivals)
    speedup = inproc_elapsed / worker_elapsed
    verdicts_identical = batch_verdict_key(worker_batches) == batch_verdict_key(
        single_batches
    )
    reports_identical = device_report_key(worker_report) == device_report_key(
        single_report
    )
    print(
        f"\nworker bench: {N_DEVICES} devices x {WINDOWS_PER_DEVICE} windows, "
        f"K={N_SHARDS}, batch={BATCH_SIZE}, cpus={os.cpu_count()}\n"
        f"  in-process : {inproc_elapsed * 1e3:8.1f} ms "
        f"({n / inproc_elapsed:8.0f} windows/sec)\n"
        f"  K processes: {worker_elapsed * 1e3:8.1f} ms "
        f"({n / worker_elapsed:8.0f} windows/sec)\n"
        f"  speedup: {speedup:8.2f}x (gate {'armed' if MULTI_CORE else 'off: single-core host'})"
        f"   verdicts identical: {verdicts_identical}"
        f"   reports identical: {reports_identical}"
    )
    _results["worker_drain"] = {
        "n_devices": N_DEVICES,
        "n_windows": n,
        "n_shards": N_SHARDS,
        "batch_size": BATCH_SIZE,
        "cpu_count": os.cpu_count(),
        "inprocess_sec": inproc_elapsed,
        "worker_sec": worker_elapsed,
        "inprocess_wps": n / inproc_elapsed,
        "worker_wps": n / worker_elapsed,
        "speedup_vs_inprocess": speedup,
        "throughput_gate_armed": MULTI_CORE,
        "verdicts_identical": verdicts_identical,
        "reports_identical": reports_identical,
    }

    assert verdicts_identical, "worker verdicts drifted from the single path"
    assert reports_identical, "merged report drifted from the single path"
    if MULTI_CORE:
        assert speedup >= 1.5, f"multi-process drain only {speedup:.2f}x"


def test_bench_kill_and_resume(shard_setup):
    """Gate: SIGKILL a worker mid-stream; the supervisor restarts it,
    re-ships the unconsumed blocks, and the merged verdict stream is
    identical to an uninterrupted run."""
    hmd, devices, arrivals = shard_setup
    policy = BackpressurePolicy(max_pending=len(arrivals) + 1)

    reference = FleetMonitor(
        hmd, n_shards=N_SHARDS, batch_size=BATCH_SIZE, policy=policy
    )
    reference_batches, _ = _drive(reference, devices, arrivals)

    with WorkerShardedFleetMonitor(
        hmd,
        n_shards=N_SHARDS,
        batch_size=BATCH_SIZE,
        policy=policy,
        mp_context="fork",
    ) as fleet:
        fleet.register_fleet(devices)
        for device_id, window in arrivals:
            fleet.submit(device_id, window)
        results = []
        killed = False
        t0 = time.perf_counter()
        while True:
            result = fleet.process_batch()
            if result is None:
                break
            results.append(result)
            if not killed:
                os.kill(fleet.handles[0].proc.pid, signal.SIGKILL)
                killed = True
        elapsed = time.perf_counter() - t0
        report = fleet.report()

    identical = batch_verdict_key(results) == batch_verdict_key(
        reference_batches
    )
    reports_identical = device_report_key(report) == device_report_key(
        reference.report()
    )
    print(
        f"\nkill-and-resume: worker 0 SIGKILLed after round 1, "
        f"drained {len(results)} rounds in {elapsed * 1e3:.1f} ms, "
        f"verdicts identical: {identical}, reports identical: "
        f"{reports_identical}"
    )
    _results["kill_and_resume"] = {
        "rounds": len(results),
        "drain_sec": elapsed,
        "verdicts_identical": identical,
        "reports_identical": reports_identical,
    }

    assert killed
    assert identical, "kill-and-resume verdicts drifted"
    assert reports_identical, "kill-and-resume report drifted"


def teardown_module(module):
    """Persist whatever was measured, even on partial runs."""
    if _results:
        RESULTS_PATH.write_text(json.dumps(_results, indent=2) + "\n")
        print(f"\nwrote {RESULTS_PATH}")
