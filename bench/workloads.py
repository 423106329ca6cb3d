"""The two fleet workloads: seeded inputs, model, monitor, one pass.

Every workload is closed-loop: one *pass* submits a fixed set of
windows from 256 devices and then drains the monitor, and the harness
times passes one by one.  ``--seed`` draws the traffic:
the simulated traces or the sampled feature rows each device emits.
The deployment — the trained detector and the device population (who
runs which app, in which cohort) — uses a fixed seed, so every seed
measures the same forest on the same fleet and only the windows vary.
The *reference pass* is the traffic drawn from that fixed seed; its
withheld shares are the same on every run, whatever ``--seed`` is.

Why each workload exists (which layer it stresses) is in
``BENCHMARK.json`` and ``bench/README.md``.  Everything here uses the
public API of ``repro``; correctness is judged against
``TrustedHMD.analyze`` on the same rows, never against a reference
path.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.data.builders import (
    DVFS_WINDOW_STEPS,
    build_dvfs_dataset,
    build_hpc_dataset,
    clear_dataset_cache,
)
from repro.fleet import BackpressurePolicy, FleetMonitor, FleetWindowSampler
from repro.hmd.apps import (
    DVFS_KNOWN_BENIGN,
    DVFS_KNOWN_MALWARE,
    DVFS_UNKNOWN,
    HPC_KNOWN_BENIGN,
    HPC_KNOWN_MALWARE,
    HPC_UNKNOWN,
)
from repro.hmd.features import DvfsFeatureExtractor
from repro.ml import RandomForestClassifier
from repro.sim.power import SocSimulator
from repro.sim.trace import DvfsTrace
from repro.sim.workloads import FleetPopulation, FleetTraceGenerator
from repro.uncertainty import TrustedHMD

BATCH_SIZE = 256
DEPLOYMENT_SEED = 7
THRESHOLD = 0.40
SETUP_PHASES = ("data", "simulate", "fit", "compile", "monitor", "warmup")


@dataclass(frozen=True)
class Size:
    """Scale knobs; ``FULL`` is the benchmark, ``SMOKE`` the quick test."""

    n_devices: int
    dvfs_scale: float
    hpc_scale: float
    n_estimators: int
    dvfs_windows: int   # windows per device per pass, DVFS workload
    hpc_windows: int    # windows per device per pass, HPC workload


FULL = Size(256, 0.5, 0.1, 100, 16, 32)
SMOKE = Size(32, 0.1, 0.02, 10, 4, 8)


class Phases:
    """Wall time of each named set-up phase."""

    def __init__(self):
        self.seconds = dict.fromkeys(SETUP_PHASES, 0.0)

    @contextmanager
    def __call__(self, name: str):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.seconds[name] += time.perf_counter() - start


@dataclass
class Fleet:
    """A built workload: devices, model, traffic and how to drive it.

    ``offer(monitor)`` submits one pass — ``per_device`` windows from
    every device — and returns how many were admitted;
    ``oracle_rows()`` gives that pass's feature rows and device ids in
    submission order, and ``reference_rows()`` the same for the
    reference pass (the oracle's inputs, built outside the timed
    set-up);
    ``hooks(monitor)`` lists ``(layer, object, method path)`` spans.
    """

    hmd: TrustedHMD
    devices: tuple
    per_device: int
    oracle_rows: Callable
    reference_rows: Callable
    offer: Callable
    hooks: Callable

    @property
    def n_windows(self) -> int:
        """Windows offered per pass."""
        return self.per_device * len(self.devices)

    def new_monitor(self):
        """A monitor with the fleet registered."""
        # Room for a whole pass: a closed loop must never shed.
        policy = BackpressurePolicy(max_pending=self.n_windows)
        monitor = FleetMonitor(self.hmd, batch_size=BATCH_SIZE, policy=policy)
        monitor.register_fleet(self.devices)
        return monitor

    def run_pass(self, monitor) -> tuple[int, list]:
        """One closed-loop pass: submit everything, then drain."""
        admitted = self.offer(monitor)
        return admitted, monitor.drain()


def _population(catalog, n_devices: int) -> tuple:
    benign, malware, zero_day = catalog
    return FleetPopulation(
        benign,
        malware,
        zero_day,
        malware_fraction=0.08,
        zero_day_fraction=0.05,
        random_state=DEPLOYMENT_SEED,
    ).sample(n_devices)


def _fit(X, y, size: Size, *, grower: str, n_components=None) -> TrustedHMD:
    return TrustedHMD(
        RandomForestClassifier(
            n_estimators=size.n_estimators, random_state=DEPLOYMENT_SEED, grower=grower
        ),
        threshold=THRESHOLD,
        n_components=n_components,
    ).fit(X, y)


def _arrivals(dataset, devices, seed: int, per_device: int) -> list:
    sampler = FleetWindowSampler(dataset, devices, random_state=seed)
    return list(sampler.rounds(per_device))


def _arrival_rows(arrivals):
    """Rows and device ids of a round-robin row pass, as submitted."""
    return (
        np.vstack([row for _, row in arrivals]),
        np.array([device_id for device_id, _ in arrivals]),
    )


def _monitor_hooks(monitor, admit: str) -> list[tuple]:
    return [
        ("fleet.admit", monitor, admit),
        ("fleet.scatter", monitor, "process_batch"),
        ("fleet.take", monitor, "queue.take"),
        ("uncertainty.trust", monitor, "hmd.analyze"),
        ("ml.backend", monitor, "hmd.estimator_.member_votes"),
    ]


def _device_traces(devices, n_windows: int, seed: int) -> list[DvfsTrace]:
    """Per device, ``n_windows`` independent 240-step sessions back to back."""
    generator = FleetTraceGenerator(devices, random_state=seed)
    soc = SocSimulator(random_state=seed + 1)
    rounds = [
        soc.run_batch(batch)
        for _, batch in generator.stream_batch(n_windows, DVFS_WINDOW_STEPS)
    ]
    states = np.stack([r.states for r in rounds], axis=1)
    temperature = np.stack([r.temperature_c for r in rounds], axis=1)
    first = rounds[0]
    n_steps = n_windows * DVFS_WINDOW_STEPS
    return [
        DvfsTrace(
            states=states[d].reshape(n_steps, first.n_channels),
            frequencies_mhz=first.frequencies_mhz,
            channel_names=first.channel_names,
            temperature_c=temperature[d].reshape(n_steps),
            dt=first.dt,
            name=first.names[d],
        )
        for d in range(len(devices))
    ]


def build_dvfs_trace_ingest(seed: int, size: Size, phase: Phases) -> Fleet:
    with phase("data"):
        dataset = build_dvfs_dataset(seed=DEPLOYMENT_SEED, scale=size.dvfs_scale)
        devices = _population(
            (DVFS_KNOWN_BENIGN, DVFS_KNOWN_MALWARE, DVFS_UNKNOWN), size.n_devices
        )
    with phase("simulate"):
        traces = _device_traces(devices, size.dvfs_windows, seed)
    with phase("fit"):
        hmd = _fit(dataset.train.X, dataset.train.y, size, grower="exact")
    with phase("compile"):
        hmd.compile(mode="float64")
    extractor = DvfsFeatureExtractor()
    ids = [device.device_id for device in devices]

    def offer(monitor) -> int:
        return sum(
            monitor.submit_many(
                device_id, extractor.extract_windows(trace, DVFS_WINDOW_STEPS)
            )
            for device_id, trace in zip(ids, traces)
        )

    def hooks(monitor):
        return [("hmd.features", extractor, "extract_windows")] + _monitor_hooks(
            monitor, "submit_many"
        )

    def rows(device_traces):
        return (
            np.vstack(
                [extractor.extract_windows(t, DVFS_WINDOW_STEPS) for t in device_traces]
            ),
            np.repeat(ids, size.dvfs_windows),
        )

    return Fleet(
        hmd=hmd,
        devices=devices,
        per_device=size.dvfs_windows,
        oracle_rows=lambda: rows(traces),
        reference_rows=lambda: rows(
            _device_traces(devices, size.dvfs_windows, DEPLOYMENT_SEED)
        ),
        offer=offer,
        hooks=hooks,
    )


def build_hpc_rows_quantized(seed: int, size: Size, phase: Phases) -> Fleet:
    with phase("data"):
        dataset = build_hpc_dataset(seed=DEPLOYMENT_SEED, scale=size.hpc_scale)
        devices = _population(
            (HPC_KNOWN_BENIGN, HPC_KNOWN_MALWARE, HPC_UNKNOWN), size.n_devices
        )
        arrivals = _arrivals(dataset, devices, seed, size.hpc_windows)
    with phase("fit"):
        hmd = _fit(
            dataset.train.X, dataset.train.y, size, grower="hist", n_components=0.95
        )
    with phase("compile"):
        hmd.compile(mode="quantized")

    def offer(monitor) -> int:
        submit = monitor.submit
        return sum(submit(device_id, row) for device_id, row in arrivals)

    return Fleet(
        hmd=hmd,
        devices=devices,
        per_device=size.hpc_windows,
        oracle_rows=lambda: _arrival_rows(arrivals),
        reference_rows=lambda: _arrival_rows(
            _arrivals(dataset, devices, DEPLOYMENT_SEED, size.hpc_windows)
        ),
        offer=offer,
        hooks=lambda monitor: _monitor_hooks(monitor, "submit"),
    )


BUILDERS = {
    "dvfs_trace_ingest": build_dvfs_trace_ingest,
    "hpc_rows_quantized": build_hpc_rows_quantized,
}


def build(name: str, seed: int, size: Size, phase: Phases) -> Fleet:
    """Build a workload from scratch (dataset memo cleared first)."""
    clear_dataset_cache()
    return BUILDERS[name](seed, size, phase)
