"""Fleet-scale monitoring experiment (beyond-paper extension).

Stands up a simulated device fleet on the DVFS domain, screens the same
traffic twice — sequentially through the paper's
:class:`~repro.uncertainty.online.OnlineMonitor` (one ensemble pass per
window) and batched through the
:class:`~repro.fleet.engine.FleetMonitor` (one vectorised pass per
batch) — and reports the throughput ratio, verdict equivalence, the
exactly-once window audit, a mid-stream checkpoint/restore round trip
and the fleet dashboard view.

    python -m repro.experiments fleet
"""

from __future__ import annotations

import pickle
import time
from dataclasses import dataclass

import numpy as np

from ..fleet import FleetMonitor, account_windows, batched_verdicts_equal_sequential
from ..fleet.engine import batch_verdict_key, batch_window_keys
from ..fleet.report import device_report_key
from ..uncertainty.online import ForensicQueue, OnlineMonitor
from .common import ExperimentConfig, ExperimentContext, fleet_scenario, format_table

__all__ = ["FleetResult", "run_fleet"]


@dataclass(frozen=True)
class FleetResult:
    """Throughput + equivalence summary of the fleet experiment."""

    n_devices: int
    n_windows: int
    batch_size: int
    sequential_wps: float
    batched_wps: float
    verdicts_identical: bool
    restore_identical: bool
    windows_lost: int
    n_flagged: int
    n_malware_alerts: int
    n_shed: int
    report_text: str

    @property
    def speedup(self) -> float:
        """Batched windows/sec over sequential windows/sec."""
        return self.batched_wps / self.sequential_wps if self.sequential_wps else 0.0

    def as_text(self) -> str:
        """Render the throughput table and the fleet dashboard."""
        table = format_table(
            ["mode", "windows/sec"],
            [
                ["sequential (OnlineMonitor)", self.sequential_wps],
                [f"batched (FleetMonitor, batch={self.batch_size})", self.batched_wps],
            ],
        )
        return (
            f"Fleet monitoring — {self.n_devices} devices, "
            f"{self.n_windows} windows\n{table}\n"
            f"speedup: {self.speedup:.1f}x   "
            f"verdicts identical: {self.verdicts_identical}\n"
            f"snapshot→restore resumes identically: {self.restore_identical}   "
            f"windows lost: {self.windows_lost}\n"
            f"flagged={self.n_flagged}  alerts={self.n_malware_alerts}  "
            f"shed={self.n_shed}\n\n{self.report_text}"
        )


def _resume_state(fleet: FleetMonitor) -> tuple:
    """Drift state (PH statistic bits included) and quarantine accounting."""
    drift, quarantine = fleet.drift.observe([]), fleet.quarantine
    return drift, drift.ph_statistic.hex(), quarantine.keys(), quarantine.total_quarantined


def run_fleet(
    config: ExperimentConfig | None = None,
    context: ExperimentContext | None = None,
    *,
    n_devices: int = 64,
    windows_per_device: int = 30,
    batch_size: int = 256,
) -> FleetResult:
    """Screen a simulated fleet sequentially vs. batched.

    The batched drain is also audited exactly once (every submitted
    window verdicted, quarantined or shed), and a second monitor (drift
    on, one NaN window quarantined) is snapshotted after one round,
    restored from pickled bytes and must finish the drain with the same
    verdicts, device rows, drift state and quarantine.
    """
    ctx = context if context is not None else ExperimentContext(config)
    # One trusted HMD shared by the fleet, row-independent end to end,
    # so batched results are bitwise reproducible against the
    # sequential path.
    scenario = fleet_scenario(
        ctx, n_devices=n_devices, windows_per_device=windows_per_device
    )
    hmd = scenario.hmd
    arrivals = scenario.arrivals()

    # -- sequential baseline: one ensemble pass per window -------------
    sequential = OnlineMonitor(hmd, queue=ForensicQueue())
    t0 = time.perf_counter()
    seq_verdicts = [
        (device_id, sequential.observe(window)) for device_id, window in arrivals
    ]
    sequential_elapsed = time.perf_counter() - t0

    # -- batched fleet engine: one vectorised pass per batch -----------
    fleet = FleetMonitor(hmd, batch_size=batch_size, policy=scenario.policy)
    fleet.register_fleet(scenario.devices)
    t0 = time.perf_counter()
    for device_id, window in arrivals:
        fleet.submit(device_id, window)
    batches = fleet.drain()
    batched_elapsed = time.perf_counter() - t0

    identical = batched_verdicts_equal_sequential(batches, seq_verdicts)
    report = fleet.report()
    submitted, seq = set(), {}
    for device_id, _ in arrivals:
        seq[device_id] = seq.get(device_id, -1) + 1
        submitted.add((device_id, seq[device_id]))
    windows_lost = len(
        account_windows(
            submitted,
            batch_window_keys(batches),
            fleet.quarantine.keys(),
            shed=report.n_shed,
        )
    )

    # -- checkpoint/restore: snapshot a half-drained fleet -------------
    reference = hmd.predictive_entropy(scenario.dataset.test.X)  # held-out known
    probe = FleetMonitor(
        hmd, batch_size=batch_size, policy=scenario.policy, drift_reference=reference
    )
    probe.register_fleet(scenario.devices)
    probe.submit(arrivals[0][0], np.full(len(arrivals[0][1]), np.nan))
    for device_id, window in arrivals:
        probe.submit(device_id, window)
    probe.drain(max_batches=1)
    restored = FleetMonitor.restore(hmd, pickle.loads(pickle.dumps(probe.snapshot())))
    restore_identical = (
        batch_verdict_key(restored.drain()) == batch_verdict_key(probe.drain())
        and device_report_key(restored.report()) == device_report_key(probe.report())
        and _resume_state(restored) == _resume_state(probe)
    )

    n_windows = len(arrivals)
    return FleetResult(
        n_devices=n_devices,
        n_windows=n_windows,
        batch_size=batch_size,
        sequential_wps=n_windows / max(sequential_elapsed, 1e-9),
        batched_wps=n_windows / max(batched_elapsed, 1e-9),
        verdicts_identical=identical,
        restore_identical=restore_identical,
        windows_lost=windows_lost,
        n_flagged=fleet.stats.n_flagged,
        n_malware_alerts=fleet.stats.n_malware_alerts,
        n_shed=report.n_shed,
        report_text=report.as_text(max_rows=10),
    )
