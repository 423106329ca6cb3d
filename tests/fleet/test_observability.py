"""Tests for the fleet's telemetry integration.

The contract the telemetry plane must keep: instrumentation observes
the stream without touching it (verdicts bitwise identical with
telemetry on and off — a column of the equivalence matrix in
``test_verdict_path``), the counters account for the traffic, and the
rendered report stays aligned whatever the device ids look like.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.fleet import BackpressurePolicy, FleetMonitor, FleetRetrainer
from repro.fleet.engine import _SWEEP_BYTES
from repro.fleet.report import DeviceReport, FleetReport
from repro.ml import RandomForestClassifier, _native
from repro.obs import MetricsRegistry
from repro.obs.metrics import NULL_REGISTRY, _NullCounter, _NullGauge, _NullHistogram
from repro.uncertainty import TrustedHMD
from tests.conftest import make_blobs

pytestmark = pytest.mark.obs


@pytest.fixture(scope="module")
def fitted_hmd():
    X, y = make_blobs(n_per_class=120, separation=4.0, seed=70)
    hmd = TrustedHMD(
        RandomForestClassifier(n_estimators=20, random_state=0),
        threshold=0.4,
    ).fit(X, y)
    return X, hmd


def _arrivals(X, n_devices=8, rounds=16, seed=1):
    rng = np.random.default_rng(seed)
    return [
        (f"dev-{d:03d}", X[rng.integers(len(X))])
        for _ in range(rounds)
        for d in range(n_devices)
    ]


def _drive(monitor, arrivals):
    for device_id, _ in arrivals:
        monitor.register(device_id)
    for device_id, window in arrivals:
        monitor.submit(device_id, window)
    return monitor.drain()


class TestTelemetryNeutrality:
    def test_counters_account_for_the_traffic(self, fitted_hmd):
        X, hmd = fitted_hmd
        arrivals = _arrivals(X)
        monitor = FleetMonitor(hmd, batch_size=32, telemetry=True)
        _drive(monitor, arrivals)
        for device_id, window in arrivals[:10]:
            monitor.submit(device_id, window)
        report = monitor.report()
        counters = report.telemetry["counters"]
        assert counters["fleet_windows_admitted_total"] == len(arrivals) + 10
        assert counters["fleet_windows_drained_total"] == len(arrivals)
        assert counters["fleet_windows_flagged_total"] == monitor.stats.n_flagged
        assert counters["fleet_scatter_rows_total"] == len(arrivals)
        gauges = report.telemetry["gauges"]
        assert gauges["fleet_queue_depth"] == monitor.pending == 10
        assert gauges["fleet_arena_blocks"] == monitor.queue.arena_blocks > 0
        # One verdict pass per sweep: the 4-round backlog fits one.
        rounds = counters["fleet_batches_total"]
        per_sweep = max(1, _SWEEP_BYTES // (32 * 8 * X.shape[1]))
        verdict = report.telemetry["histograms"]["fleet_verdict_seconds"]
        assert rounds == len(arrivals) // 32 == 4
        assert verdict["count"] == -(-rounds // per_sweep) == 1

    @pytest.mark.parametrize("kernel", ["loaded", "numpy"])
    def test_native_kernel_gauge(self, fitted_hmd, kernel, request):
        """``fleet_native_kernel`` reads which kernel counts the votes."""
        if kernel == "numpy":
            request.getfixturevalue("numpy_kernel")
        X, hmd = fitted_hmd
        monitor = FleetMonitor(hmd, batch_size=32, telemetry=True)
        _drive(monitor, _arrivals(X, rounds=2))
        gauges = monitor.report().telemetry["gauges"]
        assert gauges["fleet_native_kernel"] == int(_native.library() is not None)
        if kernel == "numpy":
            assert gauges["fleet_native_kernel"] == 0

    def test_shed_windows_counted(self, fitted_hmd):
        X, hmd = fitted_hmd
        arrivals = _arrivals(X, n_devices=4, rounds=12)
        monitor = FleetMonitor(
            hmd,
            batch_size=16,
            policy=BackpressurePolicy(max_pending=8, shed="drop_newest"),
            telemetry=True,
        )
        _drive(monitor, arrivals)
        counters = monitor.metrics.snapshot()["counters"]
        assert counters["fleet_windows_shed_total"] == monitor.queue.total_shed > 0
        assert (
            counters["fleet_windows_admitted_total"]
            + counters["fleet_windows_shed_total"]
            == len(arrivals)
        )

    def test_disabled_monitor_reports_no_telemetry(self, fitted_hmd):
        X, hmd = fitted_hmd
        monitor = FleetMonitor(hmd, batch_size=32)
        _drive(monitor, _arrivals(X, rounds=2))
        assert monitor.report().telemetry is None

    def test_retrain_steps_counted(self, fitted_hmd):
        X, hmd = fitted_hmd
        y = np.zeros(len(X), dtype=int)
        monitor = FleetMonitor(hmd, batch_size=32, telemetry=True)
        retrainer = FleetRetrainer(
            monitor, lambda cluster: 1, X, y, min_batch=5, random_state=0
        )
        rng = np.random.default_rng(0)
        novel = rng.normal(size=(40, X.shape[1])) * 0.4
        novel[:, 2] += 10.0
        for i, window in enumerate(novel):
            monitor.submit(f"dev-{i % 4}", window)
        retrainer.drain()
        counters = monitor.metrics.snapshot()["counters"]
        assert counters["fleet_retrain_steps_total"] >= 1
        if retrainer.loop.n_retrains:
            assert counters["fleet_retrain_refits_total"] >= 1
            assert counters["fleet_retrain_windows_labelled_total"] > 0


class TestPerRowIngress:
    @pytest.mark.parametrize(
        "policy",
        [
            BackpressurePolicy(),
            BackpressurePolicy(max_pending=8, shed="drop_newest"),
            BackpressurePolicy(max_pending=8, shed="drop_oldest"),
            BackpressurePolicy(max_pending_per_device=1),
            BackpressurePolicy(max_pending_per_device=1, shed="drop_newest"),
        ],
        ids=["uncongested", "drop_newest", "drop_oldest", "device_cap", "device_refuse"],
    )
    def test_telemetry_off_submit_calls_no_instrument(
        self, fitted_hmd, policy, monkeypatch
    ):
        """With telemetry off, per-row ``submit`` (registration, shedding,
        eviction and arena compaction included) calls no instrument:
        the null instruments are patched to raise."""
        X, hmd = fitted_hmd
        monitor = FleetMonitor(hmd, batch_size=32, policy=policy)

        def refuse(*args, **kwargs):
            raise AssertionError("an instrument was called with telemetry off")

        for kind, names in (
            (_NullCounter, ("inc",)),
            (_NullGauge, ("set",)),
            (_NullHistogram, ("observe", "observe_many")),
        ):
            for name in names:
                monkeypatch.setattr(kind, name, refuse)
        with pytest.raises(AssertionError):
            NULL_REGISTRY.counter("probe").inc()  # the patch bites
        # 3 devices x 1,100 rows: a cap of one evicts enough rows to
        # trigger the arena's compaction.
        admitted = sum(
            monitor.submit(f"dev-{i % 3}", X[i % len(X)]) for i in range(1_100)
        )
        shed = monitor.queue.total_shed
        if policy == BackpressurePolicy():
            assert (admitted, shed) == (1_100, 0)
        else:
            assert shed > 0
        if policy.max_pending_per_device == 1 and policy.shed == "drop_oldest":
            # The 1,100 rows written would span two blocks uncompacted.
            assert monitor.queue.arena_blocks == 1


def _device(device_id, n_seen=10, n_flagged=1):
    return DeviceReport(
        device_id=device_id,
        cohort="benign",
        n_seen=n_seen,
        n_flagged=n_flagged,
        n_malware_alerts=0,
        n_shed=0,
        n_pending=0,
        rejection_rate=n_flagged / n_seen,
        alert_rate=0.0,
        recent_entropy=0.1,
    )


def _one_device_report(device_id, *, telemetry=None, n_quarantined=0):
    device = _device(device_id)
    return FleetReport(
        devices=(device,),
        n_seen=device.n_seen,
        n_accepted=device.n_seen - device.n_flagged,
        n_flagged=device.n_flagged,
        n_malware_alerts=0,
        n_shed=0,
        n_pending=0,
        n_batches=1,
        mean_entropy=0.2,
        drift_status=None,
        n_quarantined=n_quarantined,
        telemetry=telemetry,
    )


def _telemetry(counter, hist_values=()):
    registry = MetricsRegistry()
    registry.counter("fleet_windows_drained_total").inc(counter)
    if hist_values:
        registry.histogram("fleet_verdict_seconds").observe_many(
            list(hist_values)
        )
    return registry.snapshot()


class TestReportRendering:
    def test_long_device_ids_stay_aligned(self):
        long_row = _one_device_report("edge-site-ams-rack12-device-0042")
        report = replace(
            long_row, devices=long_row.devices + _one_device_report("d0").devices
        )
        text = report.as_text()
        table_lines = [
            line
            for line in text.splitlines()
            if line.startswith(("device", "-", "edge", "d0"))
        ]
        # Header, rule and both data rows all pad to the same width —
        # the long id widens every row, it never breaks alignment.
        assert len(table_lines) == 4
        assert len({len(line) for line in table_lines}) == 1

    def test_quarantined_rendered_only_when_nonzero(self):
        assert "quarantined=" not in _one_device_report("dev-a").as_text()
        assert "quarantined=3" in _one_device_report(
            "dev-a", n_quarantined=3
        ).as_text()

    def test_telemetry_digest_line(self):
        report = _one_device_report(
            "dev-a", telemetry=_telemetry(12, (0.005, 0.01))
        )
        text = report.as_text()
        assert "telemetry: " in text
        assert "drained=12" in text
        assert "verdict_ms p50/p95=" in text
