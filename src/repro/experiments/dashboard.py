"""Live fleet dashboard experiment (beyond-paper extension).

Stands up a small simulated fleet behind a telemetry-enabled
:class:`~repro.fleet.engine.FleetMonitor` and drives the traffic
through it in slices,
posting a message burst into :class:`~repro.obs.Dashboard` after each
slice and rendering a frame.  On a TTY the frames redraw in place
(plain ANSI clear-and-home, no curses); headless, the frames are
captured as strings on the result, which is what makes the dashboard
snapshot-testable without a terminal.

    python -m repro.experiments dashboard
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass

from ..fleet import FleetMonitor
from ..obs import (
    Dashboard,
    MetricsUpdate,
    ReportUpdate,
    TraceContext,
    TraceSampler,
    TraceUpdate,
    ansi_frame,
)
from .common import ExperimentConfig, ExperimentContext, fleet_scenario

__all__ = ["DashboardResult", "run_dashboard"]


@dataclass(frozen=True)
class DashboardResult:
    """Captured dashboard frames plus the drive summary."""

    n_devices: int
    n_windows: int
    n_frames: int
    n_messages: int
    n_flagged: int
    n_spans: int
    frames: tuple[str, ...]

    @property
    def final_frame(self) -> str:
        """The last rendered frame (the steady-state view)."""
        return self.frames[-1] if self.frames else ""

    def as_text(self) -> str:
        """The final frame with a one-line drive summary on top."""
        return (
            f"Dashboard drive — {self.n_devices} "
            f"devices, {self.n_windows} windows, "
            f"{self.n_frames} frames from {self.n_messages} messages, "
            f"{self.n_spans} trace spans\n\n{self.final_frame}"
        )


def _drive(
    monitor,
    tracer: TraceContext,
    dashboard: Dashboard,
    devices,
    arrivals,
    *,
    frames: int,
    refresh: float,
    live: bool,
    stream=None,
) -> list[str]:
    """Feed the traffic in ``frames`` slices, rendering after each."""
    out = stream if stream is not None else sys.stdout
    monitor.register_fleet(devices)
    slices = max(1, int(frames))
    per_slice = max(1, (len(arrivals) + slices - 1) // slices)
    rendered: list[str] = []
    for start in range(0, len(arrivals), per_slice):
        for device_id, window in arrivals[start : start + per_slice]:
            monitor.submit(device_id, window)
        monitor.drain()
        report = monitor.report()
        dashboard.post(ReportUpdate(report=report, ts=time.monotonic()))
        if report.telemetry:
            dashboard.post(MetricsUpdate(snapshot=report.telemetry))
        dashboard.post(TraceUpdate(summary=tracer.summary()))
        frame = dashboard.render()
        rendered.append(frame)
        if live:
            out.write(ansi_frame(frame) + "\n")
            out.flush()
            if refresh > 0:
                time.sleep(refresh)
    return rendered


def run_dashboard(
    config: ExperimentConfig | None = None,
    context: ExperimentContext | None = None,
    *,
    n_devices: int = 48,
    windows_per_device: int = 12,
    batch_size: int = 256,
    frames: int = 6,
    refresh: float = 0.0,
    trace_rate: int = 8,
    live: bool | None = None,
    stream=None,
    quantized: bool = False,
) -> DashboardResult:
    """Drive a telemetry-enabled fleet and capture dashboard frames.

    ``live`` defaults to "stdout is a TTY"; pass ``False`` (or any
    non-TTY ``stream``) for headless capture — the returned
    :class:`DashboardResult` carries every rendered frame either way.
    ``trace_rate`` oversamples spans relative to the production 1/1024
    default so short demo drives still populate the latency table.
    """
    mode = "quantized" if quantized else "float64"
    ctx = context if context is not None else ExperimentContext(config)
    scenario = fleet_scenario(
        ctx, n_devices=n_devices, windows_per_device=windows_per_device, mode=mode
    )
    hmd, devices, policy = scenario.hmd, scenario.devices, scenario.policy
    arrivals = scenario.arrivals()

    tracer = TraceContext(TraceSampler(rate=trace_rate, seed=ctx.config.seed))
    dashboard = Dashboard()
    if live is None:
        live = stream is None and sys.stdout.isatty()

    monitor = FleetMonitor(
        hmd,
        batch_size=batch_size,
        policy=policy,
        telemetry=True,
        tracer=tracer,
    )
    rendered = _drive(
        monitor, tracer, dashboard, devices, arrivals,
        frames=frames, refresh=refresh, live=live, stream=stream,
    )

    return DashboardResult(
        n_devices=n_devices,
        n_windows=len(arrivals),
        n_frames=len(rendered),
        n_messages=dashboard.n_messages,
        n_flagged=monitor.stats.n_flagged,
        n_spans=tracer.n_completed,
        frames=tuple(rendered),
    )
