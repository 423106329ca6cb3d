"""Live terminal fleet dashboard: message-driven state, pure rendering.

Follows the gridworks-scada admin TUI shape (SNIPPETS.md snippet 3): a
widget owns a state table, *messages* carry every state change, and the
view is re-rendered from state — never mutated in place.  Here the
"widget" is :class:`Dashboard`, the messages are the small frozen
dataclasses below (posted by whatever drives the monitor: the
``dashboard`` experiment runner, a test, a service loop), and the view
is :meth:`Dashboard.render` — a **pure function to a string**, so
frames are testable headless and the live loop is just
``print(ansi_frame(dashboard.render()))`` on a cadence.

No curses dependency: plain ANSI clear-and-home redraws, degrading to
sequential frame prints on dumb terminals.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from ..formatting import format_table
from .metrics import histogram_percentile
from .tracing import STAGES

__all__ = [
    "Dashboard",
    "MetricsUpdate",
    "ReportUpdate",
    "TraceUpdate",
    "ansi_frame",
    "sparkline",
]

SPARK_CHARS = "▁▂▃▄▅▆▇█"
ANSI_CLEAR = "\x1b[2J\x1b[H"


def sparkline(values, width: int = 16) -> str:
    """Render a value series as a fixed-height unicode sparkline."""
    vals = [float(v) for v in values][-width:]
    if not vals:
        return ""
    lo, hi = min(vals), max(vals)
    span = hi - lo
    if span <= 0:
        return SPARK_CHARS[0] * len(vals)
    top = len(SPARK_CHARS) - 1
    return "".join(
        SPARK_CHARS[int(round((v - lo) / span * top))] for v in vals
    )


def ansi_frame(text: str) -> str:
    """Wrap a frame for in-place terminal redraw (clear + home)."""
    return ANSI_CLEAR + text


# -- messages ----------------------------------------------------------


@dataclass(frozen=True)
class ReportUpdate:
    """A fresh :class:`~repro.fleet.report.FleetReport` snapshot."""

    report: object
    ts: float


@dataclass(frozen=True)
class MetricsUpdate:
    """A registry snapshot (the fleet's telemetry view)."""

    snapshot: dict


@dataclass(frozen=True)
class TraceUpdate:
    """A :meth:`~repro.obs.tracing.TraceContext.summary` dict."""

    summary: dict


# -- the dashboard -----------------------------------------------------


class Dashboard:
    """Fleet state accumulated from messages, rendered on demand."""

    def __init__(self, *, history: int = 32):
        self.history = int(history)
        self.report = None
        self.snapshot: dict = {}
        self.trace: dict | None = None
        self._device_trends: dict[str, deque] = {}
        self.n_frames = 0
        self.n_messages = 0

    # -- message intake ------------------------------------------------

    def post(self, message) -> None:
        """Fold one state-change message into the dashboard."""
        self.n_messages += 1
        if isinstance(message, ReportUpdate):
            self.report = message.report
            for device in message.report.devices:
                trend = self._device_trends.setdefault(
                    device.device_id, deque(maxlen=self.history)
                )
                trend.append(float(device.rejection_rate))
        elif isinstance(message, MetricsUpdate):
            self.snapshot = message.snapshot
        elif isinstance(message, TraceUpdate):
            self.trace = message.summary
        else:
            raise TypeError(f"unknown dashboard message: {message!r}")

    # -- rendering -----------------------------------------------------

    def render(self, *, max_devices: int = 8, spark_width: int = 16) -> str:
        """One full frame as a plain string (headless-safe, no TTY)."""
        self.n_frames += 1
        sections = [self._header()]
        if self.report is not None and self.report.devices:
            sections.append(self._device_table(max_devices, spark_width))
        if self.trace:
            sections.append(self._latency_table())
        counters = self._counters_line()
        if counters:
            sections.append(counters)
        return "\n\n".join(sections)

    def _header(self) -> str:
        report = self.report
        if report is None:
            return f"fleet dashboard — frame {self.n_frames} · waiting for traffic"
        return (
            f"fleet dashboard — frame {self.n_frames} · "
            f"{report.n_devices} devices · {report.n_seen} seen · "
            f"{report.n_flagged} flagged ({report.rejection_rate:.1%}) · "
            f"{report.n_malware_alerts} alerts · "
            f"pending {report.n_pending} · shed {report.n_shed}"
        )

    def _device_table(self, max_devices: int, spark_width: int) -> str:
        ranked = sorted(
            self.report.devices,
            key=lambda d: (-d.alert_rate, -d.rejection_rate, -d.recent_entropy),
        )[:max_devices]
        table = format_table(
            ["device", "cohort", "seen", "alerts", "flag%", "flag trend"],
            [
                [
                    d.device_id,
                    d.cohort,
                    d.n_seen,
                    d.n_malware_alerts,
                    f"{d.rejection_rate:.1%}",
                    sparkline(
                        self._device_trends.get(d.device_id, ()), spark_width
                    ),
                ]
                for d in ranked
            ],
        )
        hidden = self.report.n_devices - len(ranked)
        if hidden > 0:
            table += f"\n({hidden} more devices not shown)"
        return table

    def _latency_table(self) -> str:
        rows = [
            [
                name,
                f"{stats['p50'] * 1e3:.2f}",
                f"{stats['p95'] * 1e3:.2f}",
                f"{stats['p99'] * 1e3:.2f}",
                stats["n"],
            ]
            for name, stats in self.trace.get("transitions", {}).items()
        ]
        total = self.trace.get("total")
        if total:
            rows.append(
                [
                    "total",
                    f"{total['p50'] * 1e3:.2f}",
                    f"{total['p95'] * 1e3:.2f}",
                    f"{total['p99'] * 1e3:.2f}",
                    total["n"],
                ]
            )
        title = (
            f"stage latencies — 1/{self.trace.get('rate', '?')} sampled, "
            f"{self.trace.get('n_completed', 0)} spans, stages: "
            + "→".join(self.trace.get("stages", []))
        )
        if not rows:
            return title + "\n(no completed spans yet)"
        return title + "\n" + format_table(
            ["transition", "p50_ms", "p95_ms", "p99_ms", "n"], rows
        )

    def _counters_line(self) -> str:
        counters = self.snapshot.get("counters", {}) if self.snapshot else {}
        if not counters:
            return ""
        shown = [
            ("admitted", "fleet_windows_admitted_total"),
            ("shed", "fleet_windows_shed_total"),
            ("drained", "fleet_windows_drained_total"),
            ("flagged", "fleet_windows_flagged_total"),
            ("quarantined", "fleet_windows_quarantined_total"),
            ("retrains", "fleet_retrain_refits_total"),
        ]
        parts = [
            f"{label}={counters[name]}"
            for label, name in shown
            if name in counters
        ]
        hists = self.snapshot.get("histograms", {})
        verdict = hists.get("fleet_verdict_seconds")
        if verdict:
            parts.append(
                f"verdict_p50={histogram_percentile(verdict, 50) * 1e3:.2f}ms"
            )
        return "counters: " + "  ".join(parts) if parts else ""
