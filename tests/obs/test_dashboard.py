"""Tests for the live dashboard: message folding and headless frames.

The dashboard is a pure function from posted messages to a rendered
string, so every test here runs without a TTY: deterministic message
sequences produce deterministic frames, snapshot-asserted below, and
the experiment runner drives a real fleet and checks the captured
frames.
"""

import io

import pytest

from repro.experiments import run_dashboard
from repro.fleet.report import DeviceReport, FleetReport
from repro.obs import (
    Dashboard,
    MetricsUpdate,
    ReportUpdate,
    TraceUpdate,
    ansi_frame,
    sparkline,
)

pytestmark = pytest.mark.obs


class TestPrimitives:
    def test_sparkline_spans_the_range(self):
        line = sparkline([0, 1, 2, 3, 4, 5, 6, 7])
        assert line == "▁▂▃▄▅▆▇█"

    def test_sparkline_flat_and_empty(self):
        assert sparkline([3, 3, 3]) == "▁▁▁"
        assert sparkline([]) == ""

    def test_sparkline_truncates_to_width(self):
        assert len(sparkline(range(100), width=16)) == 16

    def test_ansi_frame_prefixes_clear(self):
        assert ansi_frame("x").endswith("x")
        assert ansi_frame("x").startswith("\x1b[")


def _device(device_id="dev-0000", cohort="benign", **kw):
    defaults = dict(
        n_seen=10, n_flagged=2, n_malware_alerts=0, n_shed=0, n_pending=0,
        rejection_rate=0.2, alert_rate=0.0, recent_entropy=0.1,
    )
    defaults.update(kw)
    return DeviceReport(device_id=device_id, cohort=cohort, **defaults)


def _report(devices, **kw):
    defaults = dict(
        n_seen=sum(d.n_seen for d in devices),
        n_accepted=sum(d.n_seen - d.n_flagged for d in devices),
        n_flagged=sum(d.n_flagged for d in devices),
        n_malware_alerts=sum(d.n_malware_alerts for d in devices),
        n_shed=0, n_pending=0, n_batches=2, mean_entropy=0.15,
        drift_status=None,
    )
    defaults.update(kw)
    return FleetReport(devices=tuple(devices), **defaults)


class TestDashboardState:
    def test_waiting_frame(self):
        frame = Dashboard().render()
        assert "waiting for traffic" in frame

    def test_unknown_message_raises(self):
        with pytest.raises(TypeError):
            Dashboard().post("not a message")

    def test_device_trends_accumulate(self):
        dashboard = Dashboard(history=4)
        for rate in (0.1, 0.2, 0.3, 0.4, 0.5):
            dashboard.post(ReportUpdate(
                report=_report([_device(rejection_rate=rate)]), ts=0.0,
            ))
        trend = dashboard._device_trends["dev-0000"]
        assert list(trend) == [0.2, 0.3, 0.4, 0.5]  # bounded history


class TestFrameSnapshot:
    """Deterministic messages → exact frame (headless, no TTY)."""

    def _loaded_dashboard(self):
        dashboard = Dashboard()
        dashboard.post(ReportUpdate(
            report=_report([
                _device("dev-0000", "malware", n_malware_alerts=8,
                        alert_rate=0.8),
                _device("dev-0001", "benign"),
            ]),
            ts=12.0,
        ))
        dashboard.post(MetricsUpdate(snapshot={
            "counters": {
                "fleet_windows_admitted_total": 192,
                "fleet_windows_drained_total": 192,
                "fleet_windows_flagged_total": 12,
            },
            "gauges": {},
            "histograms": {},
        }))
        dashboard.post(TraceUpdate(summary={
            "n_sampled": 3, "n_completed": 3, "n_pending": 0, "rate": 64,
            "stages": ["ingest", "queue", "verdict", "scatter"],
            "transitions": {
                "ingest→queue": {"p50": 0.001, "p95": 0.002, "p99": 0.002,
                                 "n": 3},
            },
            "total": {"p50": 0.004, "p95": 0.005, "p99": 0.006, "n": 3},
        }))
        return dashboard

    def test_frame_snapshot(self):
        raw = self._loaded_dashboard().render()
        frame = "\n".join(line.rstrip() for line in raw.splitlines())
        expected = """\
fleet dashboard — frame 1 · 2 devices · 20 seen · 4 flagged (20.0%) · 8 alerts · pending 0 · shed 0

device    cohort   seen  alerts  flag%  flag trend
--------  -------  ----  ------  -----  ----------
dev-0000  malware  10    8       20.0%  ▁
dev-0001  benign   10    0       20.0%  ▁

stage latencies — 1/64 sampled, 3 spans, stages: ingest→queue→verdict→scatter
transition    p50_ms  p95_ms  p99_ms  n
------------  ------  ------  ------  -
ingest→queue  1.00    2.00    2.00    3
total         4.00    5.00    6.00    3

counters: admitted=192  drained=192  flagged=12"""
        assert frame == expected

    def test_frames_are_pure_state_renders(self):
        dashboard = self._loaded_dashboard()
        first = dashboard.render()
        second = dashboard.render()
        # Only the frame counter moves between renders of the same state.
        assert second == first.replace("frame 1", "frame 2")

    def test_message_count_tracked(self):
        assert self._loaded_dashboard().n_messages == 3


class TestRunnerBackends:
    """The experiment runner renders live frames from real fleets."""

    def test_inprocess_backend_frames(self, small_context):
        result = run_dashboard(
            context=small_context, n_devices=12, windows_per_device=6,
            frames=2, live=False,
        )
        assert result.n_frames == 2
        assert result.n_spans > 0
        final = result.final_frame
        assert "fleet dashboard" in final
        assert f"{result.n_windows} seen" in final
        assert "stage latencies" in final
        assert "ingest→queue" in final
        assert "counters:" in final

    def test_live_mode_writes_ansi_frames_to_stream(self, small_context):
        stream = io.StringIO()
        result = run_dashboard(
            context=small_context, n_devices=8, windows_per_device=4,
            frames=2, live=True, stream=stream,
        )
        out = stream.getvalue()
        assert out.count("\x1b[2J\x1b[H") == result.n_frames
        assert "fleet dashboard" in out
