"""Sharded fleet experiment (beyond-paper extension).

Stands up the same simulated device fleet twice — behind a
one-partition :class:`~repro.fleet.engine.FleetMonitor` and behind a
``FleetMonitor(n_shards=K)`` (K device-hash routed partition cores
sharing one read-only compiled HMD) — and reports the
drain-throughput ratio, bitwise verdict equivalence, merged-report
consistency, and a mid-stream checkpoint/restore round trip.  With
``--processes K`` the drain also runs through the multi-process
:class:`~repro.fleet.workers.WorkerShardedFleetMonitor` backend and the
in-process and multi-process numbers print side by side.  Adding
``--chaos SEED`` replays the same traffic once more under a seeded
fault-injection campaign (worker kills, hangs, slow drains, shm
corruption) and reports whether the degraded drain stayed bitwise
equivalent and lost nothing.

    python -m repro.experiments shard
    python -m repro.experiments shard --processes 4
    python -m repro.experiments shard --processes 4 --chaos 7
"""

from __future__ import annotations

import pickle
import time
from dataclasses import dataclass

from ..fleet import (
    FaultPlan,
    FleetMonitor,
    WorkerShardedFleetMonitor,
    account_windows,
)
from ..fleet.engine import batch_verdict_key, batch_window_keys
from ..fleet.report import device_report_key
from ..obs import JsonlExporter, merge_snapshots, summarize_snapshot
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
    n_flagged: int
    n_shed: int
    report_text: str
    n_processes: int | None = None
    mp_wps: float | None = None
    mp_verdicts_identical: bool | None = None
    mp_reports_identical: bool | None = None
    mode: str = "float64"
    chaos_seed: int | None = None
    chaos_wps: float | None = None
    chaos_counts: dict | None = None
    chaos_restarts: int | None = None
    chaos_verdicts_identical: bool | None = None
    chaos_windows_lost: int | None = None
    telemetry_text: str | None = None

    @property
    def speedup(self) -> float:
        """K-partition drain windows/sec over the one-partition monitor's."""
        return self.sharded_wps / self.single_wps if self.single_wps else 0.0

    @property
    def mp_speedup(self) -> float:
        """Multi-process drain windows/sec over the in-process sharded."""
        if self.mp_wps is None or not self.sharded_wps:
            return 0.0
        return self.mp_wps / self.sharded_wps

    @property
    def chaos_ratio(self) -> float:
        """Chaos-campaign drain throughput over the fault-free mp drain."""
        if self.chaos_wps is None or not self.mp_wps:
            return 0.0
        return self.chaos_wps / self.mp_wps

    def as_text(self) -> str:
        """Render the throughput table and the merged fleet dashboard."""
        rows = [
            ["FleetMonitor (K=1)", self.single_wps],
            [f"FleetMonitor (K={self.n_shards})", self.sharded_wps],
        ]
        if self.mp_wps is not None:
            rows.append(
                [
                    f"WorkerShardedFleetMonitor (K={self.n_processes} procs)",
                    self.mp_wps,
                ]
            )
        if self.chaos_wps is not None:
            rows.append(
                [
                    f"  + chaos campaign (seed {self.chaos_seed})",
                    self.chaos_wps,
                ]
            )
        table = format_table(["mode", "drain windows/sec"], rows)
        text = (
            f"Sharded fleet — {self.n_devices} devices, "
            f"{self.n_windows} windows, batch={self.batch_size}, "
            f"mode={self.mode}\n{table}\n"
            f"speedup: {self.speedup:.1f}x   "
            f"verdicts identical: {self.verdicts_identical}   "
            f"reports identical: {self.reports_identical}\n"
            f"snapshot→restore resumes identically: {self.restore_identical}\n"
        )
        if self.mp_wps is not None:
            text += (
                f"multi-process vs in-process: {self.mp_speedup:.1f}x   "
                f"verdicts identical: {self.mp_verdicts_identical}   "
                f"reports identical: {self.mp_reports_identical}\n"
            )
        if self.chaos_wps is not None:
            text += (
                f"chaos campaign {self.chaos_counts} "
                f"(restarts: {self.chaos_restarts}): "
                f"{self.chaos_ratio:.2f}x fault-free throughput   "
                f"verdicts identical: {self.chaos_verdicts_identical}   "
                f"windows lost: {self.chaos_windows_lost}\n"
            )
        rendered = (
            f"{text}"
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
    processes: int | None = None,
    chaos: int | None = None,
    dtype: str = "float64",
    quantized: bool = False,
    telemetry: bool = False,
    telemetry_out=None,
) -> ShardResult:
    """Drain the same fleet traffic through one partition vs. K.

    With ``processes`` set, the same traffic is additionally drained
    through a :class:`WorkerShardedFleetMonitor` with that many shard
    worker processes, and the in-process vs multi-process drains print
    side by side.  ``chaos`` (requires ``processes``) replays the
    worker drain under a :meth:`FaultPlan.generate` campaign derived
    from that seed and reports degraded throughput, equivalence and
    window accounting.  ``dtype``/``quantized`` select the inference
    precision (all monitors run the same mode, so the equivalence
    checks remain bitwise).  ``telemetry`` drains the sharded (and
    worker) monitors with live metrics registries — the equivalence
    checks against the uninstrumented one-partition monitor then double as
    the telemetry-neutrality check — and renders the merged snapshot
    after the report; ``telemetry_out`` additionally appends it to
    that JSONL path on exit (implies ``telemetry``).
    """
    telemetry = telemetry or telemetry_out is not None
    if chaos is not None and processes is None:
        raise ValueError("chaos requires processes (the faults are injected "
                         "into the worker backend).")
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
    reports_identical = device_report_key(sharded_report) == device_report_key(
        single.report()
    )
    telemetry_snapshots = (
        [sharded_report.telemetry] if sharded_report.telemetry else []
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

    n_processes = None
    mp_wps = None
    mp_verdicts_identical = None
    mp_reports_identical = None
    chaos_wps = None
    chaos_counts = None
    chaos_restarts = None
    chaos_verdicts_identical = None
    chaos_windows_lost = None
    if processes is not None:
        with WorkerShardedFleetMonitor(
            hmd,
            n_shards=processes,
            batch_size=batch_size,
            policy=policy,
            telemetry=telemetry or None,
        ) as worker_fleet:
            mp_batches, mp_elapsed = drive(worker_fleet)
            mp_verdicts_identical = batch_verdict_key(
                mp_batches
            ) == batch_verdict_key(single_batches)
            mp_report = worker_fleet.report()
            mp_reports_identical = device_report_key(
                mp_report
            ) == device_report_key(single.report())
            if mp_report.telemetry:
                telemetry_snapshots.append(mp_report.telemetry)
        n_processes = processes
        mp_wps = len(arrivals) / max(mp_elapsed, 1e-9)

        if chaos is not None:
            plan = FaultPlan.generate(
                chaos,
                n_shards=processes,
                crashes=3,
                hangs=1,
                slows=2,
                corruptions=2,
                horizon=max(
                    2, len(arrivals) // (processes * batch_size)
                ),
                slow_seconds=0.01,
                hang_seconds=0.03,
            )
            with WorkerShardedFleetMonitor(
                hmd,
                n_shards=processes,
                batch_size=batch_size,
                policy=policy,
                chaos=plan,
            ) as chaos_fleet:
                chaos_batches, chaos_elapsed = drive(chaos_fleet)
                chaos_verdicts_identical = batch_verdict_key(
                    chaos_batches
                ) == batch_verdict_key(mp_batches)
                chaos_windows_lost = len(
                    account_windows(
                        batch_window_keys(mp_batches),
                        batch_window_keys(chaos_batches),
                        chaos_fleet.quarantine.keys(),
                    )
                )
                chaos_restarts = sum(
                    r.total_restarts for r in chaos_fleet.shard_health()
                )
            chaos_counts = plan.counts()
            chaos_wps = len(arrivals) / max(chaos_elapsed, 1e-9)

    telemetry_text = None
    if telemetry:
        merged_snapshot = merge_snapshots(telemetry_snapshots)
        telemetry_text = summarize_snapshot(merged_snapshot)
        if telemetry_out is not None:
            with JsonlExporter(telemetry_out) as exporter:
                exporter.export(merged_snapshot)

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
        n_flagged=sharded.stats.n_flagged,
        n_shed=sharded_report.n_shed,
        report_text=sharded_report.as_text(max_rows=10),
        n_processes=n_processes,
        mp_wps=mp_wps,
        mp_verdicts_identical=mp_verdicts_identical,
        mp_reports_identical=mp_reports_identical,
        mode=mode,
        chaos_seed=chaos,
        chaos_wps=chaos_wps,
        chaos_counts=chaos_counts,
        chaos_restarts=chaos_restarts,
        chaos_verdicts_identical=chaos_verdicts_identical,
        chaos_windows_lost=chaos_windows_lost,
        telemetry_text=telemetry_text,
    )
