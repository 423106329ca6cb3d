"""Sharded fleet experiment (beyond-paper extension).

Stands up the same simulated device fleet twice — behind a
one-partition :class:`~repro.fleet.engine.FleetMonitor` and behind a
``FleetMonitor(n_shards=K)`` (K device-hash routed partition cores
sharing one read-only compiled HMD) — and reports the
drain-throughput ratio, bitwise verdict equivalence, merged-report
consistency, the exactly-once window audit and a mid-stream
checkpoint/restore round trip.

    python -m repro.experiments shard
"""

from __future__ import annotations

import pickle
import time
from dataclasses import dataclass

from ..fleet import FleetMonitor, account_windows
from ..fleet.engine import batch_verdict_key, batch_window_keys
from ..fleet.report import device_report_key
from ..obs import JsonlExporter, summarize_snapshot
from .common import (
    ExperimentConfig,
    ExperimentContext,
    fleet_scenario,
    format_table,
    resolve_mode,
)

__all__ = ["ShardResult", "run_shard"]


@dataclass(frozen=True)
class ShardResult:
    """Throughput + equivalence summary of the sharding experiment."""

    n_devices: int
    n_windows: int
    n_shards: int
    batch_size: int
    single_wps: float
    sharded_wps: float
    verdicts_identical: bool
    reports_identical: bool
    restore_identical: bool
    windows_lost: int
    n_flagged: int
    n_shed: int
    report_text: str
    mode: str = "float64"
    telemetry_text: str | None = None

    @property
    def speedup(self) -> float:
        """K-partition drain windows/sec over the one-partition monitor's."""
        return self.sharded_wps / self.single_wps if self.single_wps else 0.0

    def as_text(self) -> str:
        """Render the throughput table and the merged fleet dashboard."""
        rows = [
            ["FleetMonitor (K=1)", self.single_wps],
            [f"FleetMonitor (K={self.n_shards})", self.sharded_wps],
        ]
        table = format_table(["mode", "drain windows/sec"], rows)
        rendered = (
            f"Sharded fleet — {self.n_devices} devices, "
            f"{self.n_windows} windows, batch={self.batch_size}, "
            f"mode={self.mode}\n{table}\n"
            f"speedup: {self.speedup:.1f}x   "
            f"verdicts identical: {self.verdicts_identical}   "
            f"reports identical: {self.reports_identical}\n"
            f"snapshot→restore resumes identically: {self.restore_identical}   "
            f"windows lost: {self.windows_lost}\n"
            f"flagged={self.n_flagged}  shed={self.n_shed}\n\n"
            f"{self.report_text}"
        )
        if self.telemetry_text is not None:
            rendered += f"\n\ntelemetry\n{self.telemetry_text}"
        return rendered


def run_shard(
    config: ExperimentConfig | None = None,
    context: ExperimentContext | None = None,
    *,
    n_devices: int = 96,
    windows_per_device: int = 30,
    n_shards: int = 4,
    batch_size: int = 256,
    dtype: str = "float64",
    quantized: bool = False,
    telemetry: bool = False,
    telemetry_out=None,
) -> ShardResult:
    """Drain the same fleet traffic through one partition vs. K.

    ``dtype``/``quantized`` select the inference precision (all
    monitors run the same mode, so the equivalence checks remain
    bitwise).  ``telemetry`` drains the sharded monitor with a live
    metrics registry — the equivalence checks against the
    uninstrumented one-partition monitor then double as the
    telemetry-neutrality check — and renders its snapshot after the
    report; ``telemetry_out`` additionally appends it to
    that JSONL path on exit (implies ``telemetry``).
    """
    telemetry = telemetry or telemetry_out is not None
    mode = resolve_mode(dtype, quantized)
    ctx = context if context is not None else ExperimentContext(config)
    # One trusted HMD shared by every core.
    scenario = fleet_scenario(
        ctx, n_devices=n_devices, windows_per_device=windows_per_device, mode=mode
    )
    hmd, devices, policy = scenario.hmd, scenario.devices, scenario.policy
    arrivals = scenario.arrivals()

    def drive(monitor):
        monitor.register_fleet(devices)
        for device_id, window in arrivals:
            monitor.submit(device_id, window)
        t0 = time.perf_counter()
        batches = monitor.drain()
        return batches, time.perf_counter() - t0

    single = FleetMonitor(hmd, batch_size=batch_size, policy=policy)
    single_batches, single_elapsed = drive(single)

    sharded = FleetMonitor(
        hmd,
        n_shards=n_shards,
        batch_size=batch_size,
        policy=policy,
        telemetry=telemetry or None,
    )
    sharded_batches, sharded_elapsed = drive(sharded)

    verdicts_identical = batch_verdict_key(sharded_batches) == batch_verdict_key(
        single_batches
    )
    sharded_report = sharded.report()
    submitted, seq = set(), {}
    for device_id, _ in arrivals:
        seq[device_id] = seq.get(device_id, -1) + 1
        submitted.add((device_id, seq[device_id]))
    windows_lost = len(
        account_windows(
            submitted,
            batch_window_keys(sharded_batches),
            sharded.quarantine.keys(),
            shed=sharded_report.n_shed,
        )
    )
    reports_identical = device_report_key(sharded_report) == device_report_key(
        single.report()
    )

    # Checkpoint/restore: snapshot a half-drained fleet, restore it
    # from pickled bytes, and check the remaining drains agree.
    probe = FleetMonitor(
        hmd, n_shards=n_shards, batch_size=batch_size, policy=policy
    )
    probe.register_fleet(devices)
    for device_id, window in arrivals:
        probe.submit(device_id, window)
    probe.drain(max_batches=1)
    restored = FleetMonitor.restore(
        hmd, pickle.loads(pickle.dumps(probe.snapshot()))
    )
    restore_identical = batch_verdict_key(restored.drain()) == batch_verdict_key(
        probe.drain()
    )

    telemetry_text = None
    if telemetry:
        telemetry_text = summarize_snapshot(sharded_report.telemetry)
        if telemetry_out is not None:
            with JsonlExporter(telemetry_out) as exporter:
                exporter.export(sharded_report.telemetry)

    n_windows = len(arrivals)
    return ShardResult(
        n_devices=n_devices,
        n_windows=n_windows,
        n_shards=n_shards,
        batch_size=batch_size,
        single_wps=n_windows / max(single_elapsed, 1e-9),
        sharded_wps=n_windows / max(sharded_elapsed, 1e-9),
        verdicts_identical=verdicts_identical,
        reports_identical=reports_identical,
        restore_identical=restore_identical,
        windows_lost=windows_lost,
        n_flagged=sharded.stats.n_flagged,
        n_shed=sharded_report.n_shed,
        report_text=sharded_report.as_text(max_rows=10),
        mode=mode,
        telemetry_text=telemetry_text,
    )
