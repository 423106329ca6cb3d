"""Benchmark: the telemetry plane's overhead budget.

Acceptance criteria of the observability subsystem:

* draining 96 devices' traffic through a
  ``FleetMonitor(batch_size=1024)`` with full telemetry on (metrics registry, production-rate 1/1024
  tracer) sustains at least **0.97x** the uninstrumented drain's
  throughput — on a multi-core host; the gate only arms when
  ``os.cpu_count() >= 4`` (equivalence assertions are unconditional);
* verdicts are **bitwise identical** with telemetry on and off —
  instrumentation observes the stream, it never touches it;
* the per-row ``submit`` of the same traffic is timed with telemetry on
  and off and recorded in µs/window (no gate: a trajectory entry);
* the deterministic trace sampler decides in well under a microsecond
  per window, and a fully populated registry snapshot renders in
  single-digit milliseconds — both cheap enough to leave on.

Drains and submits are medians of interleaved repeats
(:func:`conftest.time_interleaved`).  Measured numbers are printed and
written to ``BENCH_obs.json`` (uploaded as a CI artifact by the
``bench-obs`` job).
"""

from __future__ import annotations

import os
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import time_interleaved
from repro.experiments import ExperimentConfig, ExperimentContext
from repro.fleet import BackpressurePolicy, FleetMonitor, FleetWindowSampler
from repro.fleet.engine import batch_verdict_key
from repro.hmd.apps import DVFS_KNOWN_BENIGN, DVFS_KNOWN_MALWARE, DVFS_UNKNOWN
from repro.ml import RandomForestClassifier
from repro.obs import MetricsRegistry, TraceContext, TraceSampler
from repro.sim.workloads import FleetPopulation
from repro.uncertainty import TrustedHMD

RESULTS_PATH = Path(__file__).resolve().parent.parent / "BENCH_obs.json"
_results: dict = {}

N_DEVICES = 96
WINDOWS_PER_DEVICE = 40
BATCH_SIZE = 1024
REPEATS = 15
OVERHEAD_GATE = 0.97
MULTI_CORE = (os.cpu_count() or 1) >= 4


@pytest.fixture(scope="module")
def obs_setup():
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


def _monitor(hmd, devices, policy, instrumented: bool) -> FleetMonitor:
    telemetry = (
        {"telemetry": True, "tracer": TraceContext(TraceSampler(rate=1024, seed=7))}
        if instrumented
        else {}
    )
    monitor = FleetMonitor(hmd, batch_size=BATCH_SIZE, policy=policy, **telemetry)
    monitor.register_fleet(devices)
    return monitor


def test_bench_telemetry_overhead(obs_setup):
    """Gate: fully instrumented drain >= 0.97x uninstrumented
    (multi-core hosts), verdicts bitwise identical everywhere; the
    per-row submit is timed with telemetry on and off alongside."""
    hmd, devices, arrivals = obs_setup
    policy = BackpressurePolicy(max_pending=len(arrivals) + 1)
    # One monitor per timed side: a drain empties the queue its setup
    # filled, a submit fills the queue its setup drained.
    drain_plain, drain_instr, submit_plain, submit_instr = (
        _monitor(hmd, devices, policy, instrumented)
        for instrumented in (False, True, False, True)
    )
    first_batches = {}

    def submit(monitor):
        def run():
            for device_id, window in arrivals:
                monitor.submit(device_id, window)

        return run

    def drain(monitor):
        def run():
            first_batches.setdefault(id(monitor), monitor.drain())

        return run

    plain_t, instr_t, plain_submit_t, instr_submit_t = time_interleaved(
        drain(drain_plain),
        drain(drain_instr),
        submit(submit_plain),
        submit(submit_instr),
        setup=(
            submit(drain_plain),
            submit(drain_instr),
            submit_plain.drain,
            submit_instr.drain,
        ),
        repeats=REPEATS,
    )
    plain_elapsed, instr_elapsed = plain_t.median, instr_t.median
    plain_batches = first_batches[id(drain_plain)]
    instr_batches = first_batches[id(drain_instr)]
    instr_report = drain_instr.report()

    n = len(arrivals)
    ratio = plain_elapsed / instr_elapsed  # instrumented / plain throughput
    plain_submit_us = plain_submit_t.median / n * 1e6
    instr_submit_us = instr_submit_t.median / n * 1e6
    verdicts_identical = batch_verdict_key(instr_batches) == batch_verdict_key(
        plain_batches
    )
    counters = (instr_report.telemetry or {}).get("counters", {})
    print(
        f"\nobs bench: {N_DEVICES} devices x {WINDOWS_PER_DEVICE} windows, "
        f"batch={BATCH_SIZE}, cpus={os.cpu_count()}, "
        f"medians of {REPEATS} interleaved repeats\n"
        f"  uninstrumented: {plain_elapsed * 1e3:8.1f} ms "
        f"({n / plain_elapsed:8.0f} windows/sec)\n"
        f"  instrumented  : {instr_elapsed * 1e3:8.1f} ms "
        f"({n / instr_elapsed:8.0f} windows/sec)\n"
        f"  throughput ratio: {ratio:.3f}x "
        f"(gate {'armed' if MULTI_CORE else 'off: single-core host'} "
        f"at {OVERHEAD_GATE}x)   verdicts identical: {verdicts_identical}\n"
        f"  per-row submit: {plain_submit_us:.2f} us/window uninstrumented, "
        f"{instr_submit_us:.2f} us/window instrumented"
    )
    _results["telemetry_overhead"] = {
        "n_devices": N_DEVICES,
        "n_windows": n,
        "batch_size": BATCH_SIZE,
        "cpu_count": os.cpu_count(),
        "repeats": REPEATS,
        "uninstrumented_sec": plain_elapsed,
        "instrumented_sec": instr_elapsed,
        "uninstrumented": plain_t.as_dict(),
        "instrumented": instr_t.as_dict(),
        "uninstrumented_wps": n / plain_elapsed,
        "instrumented_wps": n / instr_elapsed,
        "throughput_ratio": ratio,
        "overhead_gate": OVERHEAD_GATE,
        "throughput_gate_armed": MULTI_CORE,
        "verdicts_identical": verdicts_identical,
        "windows_drained": counters.get("fleet_windows_drained_total"),
        "submit_us_per_window_uninstrumented": plain_submit_us,
        "submit_us_per_window_instrumented": instr_submit_us,
        "submit_uninstrumented": plain_submit_t.as_dict(),
        "submit_instrumented": instr_submit_t.as_dict(),
    }

    assert verdicts_identical, "telemetry changed the verdict stream"
    # The instrumented drain really did count its own traffic (its
    # registry accumulates over the warm-up and every repeat).
    assert counters.get("fleet_windows_drained_total", 0) >= n
    if MULTI_CORE:
        assert ratio >= OVERHEAD_GATE, (
            f"telemetry overhead exceeds budget: {ratio:.3f}x < "
            f"{OVERHEAD_GATE}x uninstrumented throughput"
        )


def test_bench_sampler_cost():
    """Gate: the per-window trace-sampling decision costs < 1 µs
    (amortised over block-level sampling, the only way the hot path
    calls it)."""
    sampler = TraceSampler(rate=1024, seed=7)
    seqs = np.arange(100_000, dtype=np.int64)
    sampler.sample_block("dev-0000", seqs)  # warm the device-hash cache
    best = np.inf
    for _ in range(5):
        t0 = time.perf_counter()
        picked = sampler.sample_block("dev-0000", seqs)
        best = min(best, time.perf_counter() - t0)
    per_window = best / len(seqs)
    print(
        f"\nsampler: {len(seqs)} windows in {best * 1e3:.2f} ms "
        f"({per_window * 1e9:.1f} ns/window), "
        f"{int(np.count_nonzero(picked))} sampled at 1/{sampler.rate}"
    )
    _results["sampler_cost"] = {
        "n_windows": len(seqs),
        "best_sec": best,
        "ns_per_window": per_window * 1e9,
        "rate": sampler.rate,
    }
    assert per_window < 1e-6, f"sampler too slow: {per_window * 1e9:.0f} ns/window"


def test_bench_snapshot_latency():
    """Gate: a fully populated registry snapshots in < 10 ms (cheap
    enough to export from the drain loop)."""
    registry = MetricsRegistry()
    rng = np.random.default_rng(7)
    for i in range(24):
        registry.counter(f"fleet_counter_{i}_total").inc(int(rng.integers(1e6)))
    for i in range(8):
        registry.gauge(f"fleet_gauge_{i}").set(float(rng.random()))
    for i in range(6):
        registry.histogram(f"fleet_hist_{i}_seconds").observe_many(
            rng.exponential(0.01, size=10_000)
        )
    best = np.inf
    for _ in range(50):
        t0 = time.perf_counter()
        snapshot = registry.snapshot()
        best = min(best, time.perf_counter() - t0)
    print(
        f"\nsnapshot: {len(snapshot['counters'])} counters, "
        f"{len(snapshot['gauges'])} gauges, "
        f"{len(snapshot['histograms'])} histograms in {best * 1e6:.1f} µs"
    )
    _results["snapshot_latency"] = {
        "n_counters": len(snapshot["counters"]),
        "n_gauges": len(snapshot["gauges"]),
        "n_histograms": len(snapshot["histograms"]),
        "best_sec": best,
    }
    assert best < 1e-2, f"snapshot too slow: {best * 1e3:.1f} ms"
