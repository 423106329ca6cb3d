"""Ingest-path experiment: raw traces → features → fleet verdicts.

The fleet experiment (:mod:`repro.experiments.fleet`) measures the
*vote* path — its windows are pre-featurised.  This runner measures the
**whole ingest front** the monitor→flag→retrain loop actually pays per
device: raw DVFS trace in, windowed feature extraction, bulk submission
into the fleet queue, batched verdicts out.

The same simulated device traces travel twice:

* **reference path** — per-window feature extraction
  (:meth:`~repro.hmd.features.DvfsFeatureExtractor.extract_windows_reference`)
  and one :meth:`~repro.fleet.FleetMonitor.submit` call per window: the
  ingest front as it stood after PR 3;
* **batched path** — whole-tensor
  :meth:`~repro.hmd.features.DvfsFeatureExtractor.extract_windows` and
  one zero-copy :meth:`~repro.fleet.FleetMonitor.submit_many` block per
  device.

Feature extraction is bitwise identical between the paths, and every
downstream stage is row-independent, so the verdicts must match
bitwise — the runner checks that alongside the throughput ratio.

    python -m repro.experiments ingest
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..fleet import FleetMonitor
from ..fleet.engine import batch_verdict_key
from ..hmd.features import DvfsFeatureExtractor
from ..ml.validation import check_random_state
from ..obs import JsonlExporter, summarize_snapshot
from ..sim.batch import ActivityBatch
from ..sim.power import SocSimulator
from ..sim.trace import DvfsTrace
from ..sim.workloads import _generate_batch
from .common import (
    ExperimentConfig,
    ExperimentContext,
    fleet_scenario,
    format_table,
)

__all__ = ["IngestResult", "run_ingest"]


@dataclass(frozen=True)
class IngestResult:
    """Throughput + equivalence summary of the trace→verdict experiment."""

    n_devices: int
    n_windows: int
    window_steps: int
    batch_size: int
    reference_wps: float
    batched_wps: float
    features_identical: bool
    verdicts_identical: bool
    n_flagged: int
    mode: str = "float64"
    telemetry_text: str | None = None

    @property
    def speedup(self) -> float:
        """Batched trace→verdict throughput over the per-window path."""
        return self.batched_wps / self.reference_wps if self.reference_wps else 0.0

    def as_text(self) -> str:
        """Render the ingest throughput table."""
        table = format_table(
            ["ingest path", "windows/sec"],
            [
                ["per-window extract + per-row submit", self.reference_wps],
                ["batched extract + bulk submit", self.batched_wps],
            ],
        )
        text = (
            f"Ingest front — {self.n_devices} devices, {self.n_windows} "
            f"windows of {self.window_steps} steps (batch={self.batch_size}, "
            f"mode={self.mode})\n"
            f"{table}\n"
            f"speedup: {self.speedup:.1f}x   "
            f"features identical: {self.features_identical}   "
            f"verdicts identical: {self.verdicts_identical}\n"
            f"flagged: {self.n_flagged}"
        )
        if self.telemetry_text is not None:
            text += f"\n\ntelemetry\n{self.telemetry_text}"
        return text


def _device_traces(
    devices, window_steps: int, windows_per_device: int, seed: int
) -> list[tuple[str, DvfsTrace]]:
    """One raw multi-window DVFS trace per device.

    Runs on the batched simulator backend: workload generation is
    grouped by spec and the whole fleet's governor/thermal scan is one
    tensor pass, with one RNG stream per device — bitwise identical to
    the per-device reference loop
    (``WorkloadGenerator(seed * 100 + d).generate`` followed by
    ``SocSimulator(seed + 1).run``).
    """
    devices = list(devices)
    n_steps = windows_per_device * window_steps
    batch = ActivityBatch.empty(
        len(devices), n_steps, 0.05, (d.spec.name for d in devices)
    )
    groups: dict[int, list[int]] = {}
    for pos, device in enumerate(devices):
        groups.setdefault(id(device.spec), []).append(pos)
    for positions in groups.values():
        spec = devices[positions[0]].spec
        rngs = [check_random_state(seed * 100 + p) for p in positions]
        batch.scatter(
            np.asarray(positions), _generate_batch(spec, rngs, n_steps, 0.05)
        )
    soc = SocSimulator(random_state=seed + 1)
    dvfs = soc.run_batch(
        batch, rngs=[check_random_state(seed + 1) for _ in devices]
    )
    return [
        (device.device_id, dvfs.window(i)) for i, device in enumerate(devices)
    ]


def run_ingest(
    config: ExperimentConfig | None = None,
    context: ExperimentContext | None = None,
    *,
    n_devices: int = 48,
    windows_per_device: int = 8,
    batch_size: int = 256,
    quantized: bool = False,
    telemetry: bool = False,
    telemetry_out=None,
) -> IngestResult:
    """Screen raw device traces through both ingest fronts.

    ``quantized`` selects the ``TrustedHMD.compile`` mode: the uint8
    bin-code kernel (a hist-grown ensemble behind the float64 front)
    instead of the float64 one.  Both paths run the same mode, so the
    bitwise verdict-equivalence check stays meaningful in either.

    ``telemetry`` runs the batched front with a live metrics registry
    and renders its snapshot after the throughput table — the verdict
    equivalence check then doubles as the telemetry-neutrality check;
    ``telemetry_out`` additionally appends the snapshot to that JSONL
    path on exit (implies ``telemetry``).
    """
    telemetry = telemetry or telemetry_out is not None
    mode = "quantized" if quantized else "float64"
    ctx = context if context is not None else ExperimentContext(config)
    scenario = fleet_scenario(
        ctx, n_devices=n_devices, windows_per_device=windows_per_device, mode=mode
    )
    hmd, policy, n_windows = scenario.hmd, scenario.policy, scenario.n_windows
    window_steps = scenario.dataset.metadata.get("window_steps", 240)
    traces = _device_traces(
        scenario.devices, window_steps, windows_per_device, seed=ctx.config.seed
    )
    extractor = DvfsFeatureExtractor()

    # -- reference: per-window extraction, per-row submission ----------
    reference = FleetMonitor(hmd, batch_size=batch_size, policy=policy)
    t0 = time.perf_counter()
    reference_features = {}
    for device_id, trace in traces:
        X = extractor.extract_windows_reference(trace, window_steps)
        reference_features[device_id] = X
        for row in X:
            reference.submit(device_id, row)
    reference_batches = reference.drain()
    reference_elapsed = time.perf_counter() - t0

    # -- batched: whole-tensor extraction, bulk block submission -------
    batched = FleetMonitor(
        hmd, batch_size=batch_size, policy=policy, telemetry=telemetry or None
    )
    t0 = time.perf_counter()
    batched_features = {}
    for device_id, trace in traces:
        X = extractor.extract_windows(trace, window_steps)
        batched_features[device_id] = X
        batched.submit_many(device_id, X)
    batched_batches = batched.drain()
    batched_elapsed = time.perf_counter() - t0

    features_identical = all(
        np.array_equal(reference_features[d], batched_features[d])
        for d, _ in traces
    )
    verdicts_identical = (
        batch_verdict_key(reference_batches) == batch_verdict_key(batched_batches)
    )
    telemetry_text = None
    if telemetry:
        snapshot = batched.metrics.snapshot()
        telemetry_text = summarize_snapshot(snapshot)
        if telemetry_out is not None:
            with JsonlExporter(telemetry_out) as exporter:
                exporter.export(snapshot)
    return IngestResult(
        n_devices=n_devices,
        n_windows=n_windows,
        window_steps=window_steps,
        batch_size=batch_size,
        reference_wps=n_windows / max(reference_elapsed, 1e-9),
        batched_wps=n_windows / max(batched_elapsed, 1e-9),
        features_identical=features_identical,
        verdicts_identical=verdicts_identical,
        n_flagged=batched.stats.n_flagged,
        mode=mode,
        telemetry_text=telemetry_text,
    )
