"""Benchmark: the vectorized simulator backend vs. the per-step reference.

Acceptance criteria of the batched simulation subsystem:

* the fleet-scale **DVFS signature stage** — activity windows in, DVFS
  governor/thermal simulation, windowed feature extraction out — must
  run at least **10x** the per-window reference path over a ≥ 48-device
  fleet workload, with **bitwise identical** states, temperatures and
  feature rows;
* a **million-window dataset build** (activity generation → DVFS
  simulation → features, chunked through the batched kernels) must
  complete, producing one finite feature row per window;
* the remaining batched stages (fleet activity generation, HPC counter
  synthesis) stay bitwise identical to their references; their speedups
  are reported as context.  They share the reference's sequential RNG
  draws — which *is* most of their reference cost — so their headroom
  is structurally bounded and they carry no 10x gate.

Measured numbers are printed and written to ``BENCH_sim.json``
(uploaded as a CI artifact by the ``bench-sim`` job).
"""

from __future__ import annotations

import time
from pathlib import Path

import numpy as np
import pytest

from repro.hmd.apps import DVFS_KNOWN_BENIGN, DVFS_KNOWN_MALWARE, DVFS_UNKNOWN
from repro.hmd.features import DvfsFeatureExtractor
from repro.sim import (
    ActivityBatch,
    FleetPopulation,
    FleetTraceGenerator,
    HpcSimulator,
    SocSimulator,
)

RESULTS_PATH = Path(__file__).resolve().parent.parent / "BENCH_sim.json"
_results: dict = {}

N_DEVICES = 48
ROUNDS = 20
WINDOW_STEPS = 240
REPEATS = 4

MILLION = 1_000_000
BUILD_WINDOW_STEPS = 40
BUILD_CHUNK = 25_000


@pytest.fixture(scope="module")
def fleet_batch():
    """One contiguous fleet workload tensor: 48 devices x 20 rounds."""
    population = FleetPopulation(
        DVFS_KNOWN_BENIGN,
        DVFS_KNOWN_MALWARE,
        DVFS_UNKNOWN,
        malware_fraction=0.08,
        zero_day_fraction=0.05,
        random_state=7,
    )
    fleet = FleetTraceGenerator(population.sample(N_DEVICES), random_state=7)
    windows = [
        batch.window(i)
        for _, batch in fleet.stream_batch(ROUNDS, WINDOW_STEPS)
        for i in range(batch.n_windows)
    ]
    return ActivityBatch.from_traces(windows)


def test_bench_dvfs_signature_stage(fleet_batch):
    """Gate: batched DVFS simulation + featurization >= 10x, bitwise."""
    extractor = DvfsFeatureExtractor()
    n = fleet_batch.n_windows
    assert n == N_DEVICES * ROUNDS

    reference_elapsed, batched_elapsed = np.inf, np.inf
    X_ref = X_fast = None
    states_ref = states_fast = None
    temps_ref = temps_fast = None
    # Interleave the repeats so host noise hits both paths alike and
    # take the best of each (same discipline as the other benches).
    for _ in range(REPEATS):
        soc = SocSimulator(random_state=11)
        t0 = time.perf_counter()
        traces = [soc.run(w) for w in fleet_batch.windows()]
        rows = [extractor.extract(trace) for trace in traces]
        elapsed = time.perf_counter() - t0
        reference_elapsed = min(reference_elapsed, elapsed)
        X_ref = np.stack(rows)
        states_ref = np.stack([t.states for t in traces])
        temps_ref = np.stack([t.temperature_c for t in traces])

        soc = SocSimulator(random_state=11)
        t0 = time.perf_counter()
        dvfs = soc.run_batch(fleet_batch)
        X_fast = extractor.extract_windows(dvfs.as_trace(), WINDOW_STEPS)
        elapsed = time.perf_counter() - t0
        batched_elapsed = min(batched_elapsed, elapsed)
        states_fast = dvfs.states
        temps_fast = dvfs.temperature_c

    speedup = reference_elapsed / batched_elapsed
    states_identical = np.array_equal(states_ref, states_fast)
    temps_identical = np.array_equal(temps_ref, temps_fast)
    features_identical = np.array_equal(X_ref, X_fast)
    print(
        f"\ndvfs signature stage: {N_DEVICES} devices x {ROUNDS} rounds "
        f"({n} windows of {WINDOW_STEPS} steps)\n"
        f"  reference: {reference_elapsed * 1e3:8.1f} ms "
        f"({reference_elapsed / n * 1e6:7.1f} us/window)\n"
        f"  batched  : {batched_elapsed * 1e3:8.1f} ms "
        f"({batched_elapsed / n * 1e6:7.1f} us/window)\n"
        f"  speedup  : {speedup:8.1f}x   states identical: {states_identical}"
        f"   temps identical: {temps_identical}"
        f"   features identical: {features_identical}"
    )
    _results["dvfs_signature_stage"] = {
        "n_devices": N_DEVICES,
        "n_windows": n,
        "window_steps": WINDOW_STEPS,
        "reference_sec": reference_elapsed,
        "batched_sec": batched_elapsed,
        "reference_wps": n / reference_elapsed,
        "batched_wps": n / batched_elapsed,
        "speedup": speedup,
        "states_identical": states_identical,
        "temps_identical": temps_identical,
        "features_identical": features_identical,
    }

    assert states_identical, "batched DVFS states drifted from the reference"
    assert temps_identical, "batched temperatures drifted from the reference"
    assert features_identical, "batched features drifted from the reference"
    assert speedup >= 10.0, f"dvfs signature stage only {speedup:.1f}x"


def test_bench_generation_and_hpc_context(fleet_batch):
    """Context rows: fleet generation and HPC synthesis, bitwise-gated.

    Both stages spend most of their reference time in the sequential
    RNG draws the bitwise contract forces the batched path to replay,
    so only modest speedups are structurally possible; they are
    reported, not gated at 10x.
    """
    # -- fleet activity generation ------------------------------------
    population = FleetPopulation(
        DVFS_KNOWN_BENIGN,
        DVFS_KNOWN_MALWARE,
        DVFS_UNKNOWN,
        malware_fraction=0.08,
        zero_day_fraction=0.05,
        random_state=3,
    )
    devices = population.sample(N_DEVICES)
    rounds = 6

    reference_elapsed, batched_elapsed = np.inf, np.inf
    reference_events = batched_events = None
    for _ in range(REPEATS):
        fleet = FleetTraceGenerator(devices, random_state=3)
        t0 = time.perf_counter()
        reference_events = list(fleet.stream_reference(rounds, WINDOW_STEPS))
        reference_elapsed = min(reference_elapsed, time.perf_counter() - t0)

        fleet = FleetTraceGenerator(devices, random_state=3)
        t0 = time.perf_counter()
        batched_events = list(fleet.stream_batch(rounds, WINDOW_STEPS))
        batched_elapsed = min(batched_elapsed, time.perf_counter() - t0)

    flat = [
        (device, batch.window(i))
        for emitting, batch in batched_events
        for i, device in enumerate(emitting)
    ]
    generation_identical = len(flat) == len(reference_events) and all(
        fd.device_id == sd.device_id
        and np.array_equal(ft.cpu_demand, st.cpu_demand)
        and np.array_equal(ft.phase_id, st.phase_id)
        for (sd, st), (fd, ft) in zip(reference_events, flat)
    )
    generation_speedup = reference_elapsed / batched_elapsed
    n_gen = len(reference_events)
    print(
        f"\nfleet generation: {N_DEVICES} devices x {rounds} rounds\n"
        f"  reference: {reference_elapsed * 1e3:8.1f} ms   "
        f"batched: {batched_elapsed * 1e3:8.1f} ms   "
        f"speedup: {generation_speedup:.2f}x   "
        f"identical: {generation_identical}"
    )
    _results["fleet_generation"] = {
        "n_devices": N_DEVICES,
        "n_windows": n_gen,
        "reference_sec": reference_elapsed,
        "batched_sec": batched_elapsed,
        "speedup": generation_speedup,
        "traces_identical": generation_identical,
    }

    # -- HPC counter synthesis ----------------------------------------
    reference_elapsed, batched_elapsed = np.inf, np.inf
    counters_ref = counters_fast = None
    for _ in range(REPEATS):
        hpc = HpcSimulator(random_state=5)
        t0 = time.perf_counter()
        counters_ref = np.stack(
            [hpc.run(w).counters for w in fleet_batch.windows()]
        )
        reference_elapsed = min(reference_elapsed, time.perf_counter() - t0)

        hpc = HpcSimulator(random_state=5)
        t0 = time.perf_counter()
        counters_fast = hpc.run_batch(fleet_batch).counters
        batched_elapsed = min(batched_elapsed, time.perf_counter() - t0)

    hpc_identical = np.array_equal(counters_ref, counters_fast)
    hpc_speedup = reference_elapsed / batched_elapsed
    print(
        f"hpc synthesis: {fleet_batch.n_windows} windows\n"
        f"  reference: {reference_elapsed * 1e3:8.1f} ms   "
        f"batched: {batched_elapsed * 1e3:8.1f} ms   "
        f"speedup: {hpc_speedup:.2f}x   identical: {hpc_identical}"
    )
    _results["hpc_synthesis"] = {
        "n_windows": fleet_batch.n_windows,
        "reference_sec": reference_elapsed,
        "batched_sec": batched_elapsed,
        "speedup": hpc_speedup,
        "counters_identical": hpc_identical,
    }

    assert generation_identical, "batched fleet stream drifted from reference"
    assert hpc_identical, "batched HPC counters drifted from reference"


def test_bench_million_window_build():
    """Gate: a million-window training corpus builds end to end."""
    specs = list(DVFS_KNOWN_BENIGN) + list(DVFS_KNOWN_MALWARE)
    from repro.sim import WorkloadGenerator

    generator = WorkloadGenerator(random_state=0)
    soc = SocSimulator(random_state=1)
    extractor = DvfsFeatureExtractor()

    X = None
    y = np.empty(MILLION, dtype=np.int8)
    n_chunks = MILLION // BUILD_CHUNK
    t0 = time.perf_counter()
    for chunk in range(n_chunks):
        spec = specs[chunk % len(specs)]
        activity = generator.generate_batch(spec, BUILD_CHUNK, BUILD_WINDOW_STEPS)
        dvfs = soc.run_batch(activity)
        rows = extractor.extract_windows(dvfs.as_trace(), BUILD_WINDOW_STEPS)
        if X is None:
            X = np.empty((MILLION, rows.shape[1]), dtype=np.float32)
        start = chunk * BUILD_CHUNK
        X[start : start + BUILD_CHUNK] = rows
        y[start : start + BUILD_CHUNK] = spec.label
    elapsed = time.perf_counter() - t0

    wps = MILLION / elapsed
    print(
        f"\nmillion-window build: {MILLION} windows of {BUILD_WINDOW_STEPS} "
        f"steps in {elapsed:.1f} s ({wps:,.0f} windows/sec), "
        f"X {X.shape} {X.dtype} ({X.nbytes / 1e6:.0f} MB)"
    )
    _results["million_window_build"] = {
        "n_windows": MILLION,
        "window_steps": BUILD_WINDOW_STEPS,
        "chunk_windows": BUILD_CHUNK,
        "elapsed_sec": elapsed,
        "windows_per_sec": wps,
        "n_features": int(X.shape[1]),
        "feature_mb": X.nbytes / 1e6,
    }

    assert X.shape[0] == MILLION
    assert np.isfinite(X[:: MILLION // 997]).all()  # finite on a stride sample
    assert 0 < y.sum() < MILLION  # both classes present
