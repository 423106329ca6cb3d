"""Benchmark: batched fleet inference vs. the sequential online loop.

Acceptance criteria of the fleet engine:

* on a 64-device simulated fleet, the batched FleetMonitor sustains at
  least 5x the windows/sec of the sequential per-window OnlineMonitor
  loop (in practice the gap is 1-2 orders of magnitude — the batch
  amortises the per-call Python overhead of every ensemble member);
* batched verdicts are **bitwise identical** to sequential ones: every
  stage of the pipeline (scaling, per-row tree routing, vote
  histograms, entropy) is row-independent, so batch composition cannot
  change results;
* ``snapshot()`` → pickle → ``restore()`` of a half-drained fleet
  resumes with identical verdicts and device report rows.

The gate runs through ``run_fleet`` — the same harness the
``python -m repro.experiments fleet`` runner uses — so the benchmark
and the experiment can never measure different things.  The
checkpoint numbers are written to ``BENCH_fleet.json``.
"""

from __future__ import annotations

import pickle
import time
from pathlib import Path

import pytest

from repro.experiments import ExperimentConfig, ExperimentContext
from repro.experiments.fleet import run_fleet
from repro.fleet import BackpressurePolicy, FleetMonitor, FleetWindowSampler
from repro.fleet.engine import batch_verdict_key
from repro.fleet.report import device_report_key
from repro.hmd.apps import DVFS_KNOWN_BENIGN, DVFS_KNOWN_MALWARE, DVFS_UNKNOWN
from repro.ml import RandomForestClassifier
from repro.sim import FleetPopulation
from repro.uncertainty import TrustedHMD

RESULTS_PATH = Path(__file__).resolve().parent.parent / "BENCH_fleet.json"
_results: dict = {}

N_DEVICES = 64
ROUNDS = 30
BATCH_SIZE = 256


@pytest.fixture(scope="module")
def fleet_context():
    config = ExperimentConfig(dvfs_scale=0.25, n_estimators=60)
    return ExperimentContext(config)


@pytest.fixture(scope="module")
def fleet_traffic(fleet_context):
    """A fitted HMD, the device population and one pass of its traffic."""
    dataset = fleet_context.dataset("dvfs")
    hmd = TrustedHMD(
        RandomForestClassifier(n_estimators=60, random_state=7),
        threshold=0.40,
    ).fit(dataset.train.X, dataset.train.y)
    devices = FleetPopulation(
        DVFS_KNOWN_BENIGN,
        DVFS_KNOWN_MALWARE,
        DVFS_UNKNOWN,
        malware_fraction=0.08,
        zero_day_fraction=0.05,
        random_state=7,
    ).sample(N_DEVICES)
    sampler = FleetWindowSampler(dataset, devices, random_state=7)
    return hmd, devices, list(sampler.rounds(ROUNDS))


def test_bench_fleet_throughput_and_equivalence(fleet_context):
    result = run_fleet(
        context=fleet_context,
        n_devices=N_DEVICES,
        windows_per_device=ROUNDS,
        batch_size=BATCH_SIZE,
    )
    print(
        f"\nfleet bench: {result.n_devices} devices, {result.n_windows} windows\n"
        f"  sequential: {result.sequential_wps:10.0f} windows/sec\n"
        f"  batched:    {result.batched_wps:10.0f} windows/sec "
        f"(batch={result.batch_size})\n"
        f"  speedup:    {result.speedup:10.1f}x"
    )

    # --- acceptance: >= 5x throughput ------------------------------
    assert result.speedup >= 5.0, f"batched speedup only {result.speedup:.1f}x"

    # --- acceptance: bitwise-identical verdicts --------------------
    assert result.verdicts_identical
    assert result.n_shed == 0  # the bench queue is sized to shed nothing


def test_bench_fleet_scaling_with_batch_size(fleet_traffic):
    """Throughput grows monotonically-ish with batch size (reported)."""
    hmd, devices, arrivals = fleet_traffic
    n_windows = len(arrivals)

    print(f"\nfleet batch-size sweep ({n_windows} windows):")
    throughputs = {}
    for batch_size in (1, 16, 64, 256):
        fleet = FleetMonitor(
            hmd,
            batch_size=batch_size,
            policy=BackpressurePolicy(max_pending=n_windows + 1),
        )
        fleet.register_fleet(devices)
        t0 = time.perf_counter()
        for device_id, window in arrivals:
            fleet.submit(device_id, window)
        fleet.drain()
        elapsed = time.perf_counter() - t0
        throughputs[batch_size] = n_windows / elapsed
        print(f"  batch={batch_size:4d}: {throughputs[batch_size]:10.0f} windows/sec")
    assert throughputs[256] > throughputs[1]


def test_bench_snapshot_restore_resumes(fleet_traffic):
    """Gate: checkpoint mid-stream, restore, identical verdicts after."""
    hmd, devices, arrivals = fleet_traffic
    policy = BackpressurePolicy(max_pending=len(arrivals) + 1)

    fleet = FleetMonitor(hmd, batch_size=BATCH_SIZE, policy=policy)
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
