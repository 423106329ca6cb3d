"""Aggregation views over fleet monitoring state.

The fleet engine answers two different questions for two different
consumers: the SOC dashboard wants *which devices need attention right
now* (infected, drifting, rate-limited), operations wants *is the core
keeping up* (throughput, queue depth, shed volume).  Both read the same
:class:`FleetReport` snapshot.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..formatting import format_table
from ..obs.metrics import histogram_percentile

__all__ = [
    "DeviceReport",
    "FleetReport",
    "device_report_key",
]


@dataclass(frozen=True)
class DeviceReport:
    """Snapshot of one device's monitoring state."""

    device_id: str
    cohort: str
    n_seen: int
    n_flagged: int
    n_malware_alerts: int
    n_shed: int
    n_pending: int
    rejection_rate: float
    alert_rate: float
    recent_entropy: float


@dataclass(frozen=True)
class FleetReport:
    """Fleet-wide snapshot: per-device rows plus global counters."""

    devices: tuple[DeviceReport, ...]
    n_seen: int
    n_accepted: int
    n_flagged: int
    n_malware_alerts: int
    n_shed: int
    n_pending: int
    n_batches: int
    mean_entropy: float
    drift_status: str | None
    # Lifetime count of windows pulled into the monitor's quarantine
    # store (:class:`~repro.fleet.resilience.QuarantineStore`).
    n_quarantined: int = 0
    # Telemetry section: the monitor's
    # :meth:`~repro.obs.metrics.MetricsRegistry.snapshot`, ``None`` when
    # telemetry is off (the common case; reports stay cheap).
    telemetry: dict | None = field(default=None, compare=False)

    @property
    def n_devices(self) -> int:
        """Number of registered devices."""
        return len(self.devices)

    @property
    def rejection_rate(self) -> float:
        """Fleet-wide fraction of windows withheld as uncertain."""
        return self.n_flagged / self.n_seen if self.n_seen else 0.0

    def infected_devices(self, *, min_alert_rate: float = 0.5, min_seen: int = 5):
        """Devices whose accepted windows are mostly malware verdicts."""
        return tuple(
            d
            for d in self.devices
            if d.n_seen >= min_seen and d.alert_rate >= min_alert_rate
        )

    def most_uncertain_devices(self, k: int = 5):
        """Top-``k`` devices by recent mean entropy (drift candidates)."""
        ranked = sorted(self.devices, key=lambda d: -d.recent_entropy)
        return tuple(ranked[: max(0, k)])

    def shed_devices(self):
        """Devices that lost windows to backpressure, most-shed first."""
        shed = [d for d in self.devices if d.n_shed > 0]
        return tuple(sorted(shed, key=lambda d: -d.n_shed))

    def as_text(self, *, max_rows: int = 20) -> str:
        """Fixed-width dashboard rendering of the snapshot."""
        header = (
            f"Fleet report — {self.n_devices} devices, {self.n_seen} windows "
            f"({self.n_batches} batches)\n"
            f"  accepted={self.n_accepted}  flagged={self.n_flagged} "
            f"({self.rejection_rate:.1%})  alerts={self.n_malware_alerts}  "
            f"shed={self.n_shed}  pending={self.n_pending}  "
            f"mean_entropy={self.mean_entropy:.3f}"
        )
        if self.drift_status is not None:
            header += f"  drift={self.drift_status}"
        if self.n_quarantined:
            header += f"  quarantined={self.n_quarantined}"
        if self.telemetry:
            header += "\n" + _telemetry_line(self.telemetry)
        ranked = sorted(
            self.devices, key=lambda d: (-d.alert_rate, -d.recent_entropy)
        )[:max_rows]
        table = format_table(
            ["device", "cohort", "seen", "flagged", "alerts", "shed",
             "rej_rate", "alert_rate", "recent_H"],
            [
                [d.device_id, d.cohort, d.n_seen, d.n_flagged,
                 d.n_malware_alerts, d.n_shed, d.rejection_rate,
                 d.alert_rate, d.recent_entropy]
                for d in ranked
            ],
        )
        suffix = (
            f"\n({self.n_devices - len(ranked)} more devices not shown)"
            if self.n_devices > len(ranked)
            else ""
        )
        return f"{header}\n{table}{suffix}"


def _telemetry_line(telemetry: dict) -> str:
    """One-line telemetry digest for :meth:`FleetReport.as_text`."""
    counters = telemetry.get("counters", {})
    parts = [
        f"{label}={counters[name]}"
        for label, name in (
            ("admitted", "fleet_windows_admitted_total"),
            ("drained", "fleet_windows_drained_total"),
            ("shed", "fleet_windows_shed_total"),
        )
        if name in counters
    ]
    verdict = telemetry.get("histograms", {}).get("fleet_verdict_seconds")
    if verdict and verdict.get("count"):
        parts.append(
            "verdict_ms p50/p95="
            f"{histogram_percentile(verdict, 50) * 1e3:.2f}/"
            f"{histogram_percentile(verdict, 95) * 1e3:.2f}"
        )
    return "  telemetry: " + (
        "  ".join(parts) if parts else "(no instruments)"
    )


def device_report_key(report: FleetReport) -> dict[str, tuple]:
    """Index a report's device rows as ``device_id -> stats tuple``.

    The single definition of what "identical device rows" means for
    equivalence checks across batch sizes and restores, shared by the
    benchmark acceptance gate and the test suite (the same role :func:`~repro.fleet.engine.batch_verdict_key`
    plays for verdicts).
    """
    return {
        d.device_id: (
            d.cohort,
            d.n_seen,
            d.n_flagged,
            d.n_malware_alerts,
            d.n_shed,
            d.rejection_rate,
            d.alert_rate,
            d.recent_entropy,
        )
        for d in report.devices
    }
