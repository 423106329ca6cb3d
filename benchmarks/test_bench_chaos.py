"""Benchmark: a seeded chaos campaign vs. the fault-free worker fleet.

Acceptance criteria of the chaos-hardened fleet (seed configurable via
``CHAOS_SEED`` so CI can sweep a matrix):

* a seeded kill+hang+corrupt campaign against a K=4
  ``WorkerShardedFleetMonitor`` produces **bitwise identical**
  non-quarantined verdicts to the fault-free run over the same
  submissions — restarts, replays and reships included;
* **zero windows silently lost**: every admitted window is accounted
  for (:func:`account_windows` comes back empty);
* drain throughput under chaos stays at least **0.7x** the fault-free
  baseline — degradation is graceful, not a collapse.  The workload is
  deliberately larger than the other worker benches so fixed recovery
  costs (respawn, replay, the hang stall) amortize the way they do in
  a real deployment; like those benches the throughput gate only arms
  on a multi-core host, while the equivalence and accounting
  assertions are unconditional.  (Poison-window quarantine has its own
  bitwise tests in ``tests/fleet/test_resilience.py`` — bisection's
  probe restarts are intentionally expensive and not part of the
  steady-degradation gate.)

Measured numbers are printed and written to ``BENCH_chaos.json``
(uploaded as a CI artifact by the ``chaos`` job and merged into the
bench trajectory).
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from repro.experiments import ExperimentConfig, ExperimentContext
from repro.fleet import (
    BackpressurePolicy,
    FaultPlan,
    FleetWindowSampler,
    WorkerShardedFleetMonitor,
    account_windows,
)
from repro.fleet.engine import batch_verdict_key, batch_window_keys
from repro.hmd.apps import DVFS_KNOWN_BENIGN, DVFS_KNOWN_MALWARE, DVFS_UNKNOWN
from repro.ml import RandomForestClassifier
from repro.sim.workloads import FleetPopulation
from repro.uncertainty import TrustedHMD

pytestmark = pytest.mark.chaos

RESULTS_PATH = Path(__file__).resolve().parent.parent / "BENCH_chaos.json"
_results: dict = {}

N_DEVICES = 96
N_SHARDS = 4
WINDOWS_PER_DEVICE = 2000
BATCH_SIZE = 256
REPEATS = 3
SEED = int(os.environ.get("CHAOS_SEED", "7"))
MULTI_CORE = (os.cpu_count() or 1) >= 4
THROUGHPUT_FLOOR = 0.7


@pytest.fixture(scope="module")
def chaos_setup():
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


def test_bench_chaos_campaign(chaos_setup):
    """Gate: seeded kill+hang+corrupt campaign — equivalent verdicts,
    exact accounting, graceful throughput."""
    hmd, devices, arrivals = chaos_setup
    policy = BackpressurePolicy(max_pending=len(arrivals) + 1)
    plan = FaultPlan.generate(
        SEED,
        n_shards=N_SHARDS,
        crashes=3,
        hangs=1,
        slows=2,
        corruptions=2,
        horizon=40,
        slow_seconds=0.01,
        hang_seconds=0.03,  # a stall, recovered within the heartbeat
    )

    clean_elapsed, chaos_elapsed = np.inf, np.inf
    clean_batches = chaos_batches = None
    chaos_report = None
    quarantined: set = set()
    restarts = 0
    # Interleaved best-of repeats, same discipline as the worker bench.
    # The fault-free fleet is reused across repeats (startup is
    # deployment cost); the chaos fleet is rebuilt each repeat so the
    # life-indexed fault schedule re-fires identically every time.
    with WorkerShardedFleetMonitor(
        hmd,
        n_shards=N_SHARDS,
        batch_size=BATCH_SIZE,
        policy=policy,
        mp_context="fork",
    ) as clean_fleet:
        for repeat in range(REPEATS):
            batches, elapsed = _drive(clean_fleet, devices, arrivals)
            clean_elapsed = min(clean_elapsed, elapsed)
            if repeat == 0:
                clean_batches = batches

            with WorkerShardedFleetMonitor(
                hmd,
                n_shards=N_SHARDS,
                batch_size=BATCH_SIZE,
                policy=policy,
                mp_context="fork",
                worker_timeout=5.0,
                chaos=plan,
            ) as chaos_fleet:
                batches, elapsed = _drive(chaos_fleet, devices, arrivals)
                chaos_elapsed = min(chaos_elapsed, elapsed)
                if repeat == 0:
                    chaos_batches = batches
                    chaos_report = chaos_fleet.report()
                    quarantined = chaos_fleet.quarantine.keys()
                    restarts = sum(
                        r.total_restarts for r in chaos_report.shard_health
                    )

    n = len(arrivals)
    ratio = clean_elapsed / chaos_elapsed
    verdicts_identical = batch_verdict_key(chaos_batches) == batch_verdict_key(
        clean_batches
    )
    missing = account_windows(
        batch_window_keys(clean_batches),
        batch_window_keys(chaos_batches),
        quarantined,
    )
    print(
        f"\nchaos bench: seed={SEED}, {N_DEVICES} devices x "
        f"{WINDOWS_PER_DEVICE} windows, K={N_SHARDS}, "
        f"batch={BATCH_SIZE}, cpus={os.cpu_count()}\n"
        f"  campaign   : {plan.counts()} (restarts observed: {restarts})\n"
        f"  fault-free : {clean_elapsed * 1e3:8.1f} ms "
        f"({n / clean_elapsed:8.0f} windows/sec)\n"
        f"  under chaos: {chaos_elapsed * 1e3:8.1f} ms "
        f"({n / chaos_elapsed:8.0f} windows/sec)\n"
        f"  throughput ratio: {ratio:5.2f}x "
        f"(floor {THROUGHPUT_FLOOR}x, gate "
        f"{'armed' if MULTI_CORE else 'off: single-core host'})\n"
        f"  verdicts identical: {verdicts_identical}   "
        f"quarantined: {sorted(quarantined)}   lost: {len(missing)}"
    )
    _results["chaos_campaign"] = {
        "seed": SEED,
        "n_devices": N_DEVICES,
        "n_windows": n,
        "n_shards": N_SHARDS,
        "batch_size": BATCH_SIZE,
        "cpu_count": os.cpu_count(),
        "campaign": plan.counts(),
        "restarts_observed": restarts,
        "fault_free_sec": clean_elapsed,
        "chaos_sec": chaos_elapsed,
        "fault_free_wps": n / clean_elapsed,
        "chaos_wps": n / chaos_elapsed,
        "throughput_ratio": ratio,
        "throughput_floor": THROUGHPUT_FLOOR,
        "throughput_gate_armed": MULTI_CORE,
        "verdicts_identical": verdicts_identical,
        "n_quarantined": len(quarantined),
        "windows_lost": len(missing),
    }

    assert verdicts_identical, "chaos verdicts drifted from fault-free run"
    assert not missing, f"windows silently lost under chaos: {missing[:5]}"
    assert not quarantined, "no poison scheduled, nothing may be quarantined"
    if MULTI_CORE:
        assert ratio >= THROUGHPUT_FLOOR, (
            f"chaos drain degraded to {ratio:.2f}x of fault-free "
            f"(floor {THROUGHPUT_FLOOR}x)"
        )


def teardown_module(module):
    """Persist whatever was measured, even on partial runs."""
    if _results:
        RESULTS_PATH.write_text(json.dumps(_results, indent=2) + "\n")
        print(f"\nwrote {RESULTS_PATH}")
