"""Tests for the batched fleet inference engine."""

import numpy as np
import pytest

from repro.fleet import (
    BackpressurePolicy,
    FleetFlaggedSample,
    FleetMonitor,
)
from repro.ml import RandomForestClassifier
from repro.uncertainty import MonitorStats, OnlineMonitor, TrustedHMD
from repro.uncertainty.online import ForensicQueue
from tests.conftest import make_blobs


@pytest.fixture(scope="module")
def fitted_hmd():
    X, y = make_blobs(n_per_class=120, separation=4.0, seed=70)
    hmd = TrustedHMD(
        RandomForestClassifier(n_estimators=20, random_state=0),
        threshold=0.4,
    ).fit(X, y)
    return X, y, hmd


def _arrivals(X, n_devices=6, rounds=10, seed=1):
    """Round-robin (device_id, window) arrival list from sample rows."""
    rng = np.random.default_rng(seed)
    events = []
    for _ in range(rounds):
        for d in range(n_devices):
            events.append((f"dev-{d}", X[rng.integers(len(X))]))
    return events


class TestVerdictFold:
    def test_fold_matches_per_device_reference(self, fitted_hmd):
        """The dense-index fold equals folding each device's rows alone."""
        X, y, hmd = fitted_hmd
        arrivals = _arrivals(X, n_devices=7, rounds=9, seed=4)
        fleet = FleetMonitor(hmd, batch_size=13)
        for device_id, window in arrivals:
            fleet.submit(device_id, window)
        batches = fleet.drain()
        for device_id, state in fleet.devices.items():
            rows = [b.for_device(device_id) for b in batches]
            expected = MonitorStats()
            for part in rows:
                expected.record_verdicts(
                    part["predictions"], part["entropy"], part["accepted"]
                )
            assert state.stats == expected
            recent = np.concatenate([part["entropy"] for part in rows])
            np.testing.assert_array_equal(
                state.entropy_recent.values(), recent[-fleet.entropy_window :]
            )
        assert sum(s.n_seen for s in fleet.devices.values()) == len(arrivals)

    def test_flagged_rows_stage_until_read(self, fitted_hmd):
        """Flagged rows stay columnar until forensics is read, and a
        full stage keeps only the newest ``maxlen`` rows, so the
        forensic cap keeps holding while the lifetime count does not
        lose the rows it dropped."""
        X, y, hmd = fitted_hmd
        saddle = 0.5 * (X[y == 0].mean(axis=0) + X[y == 1].mean(axis=0))
        fleet = FleetMonitor(
            hmd, batch_size=8, forensics=ForensicQueue(maxlen=20)
        )
        fleet.submit_many("dev-a", np.tile(saddle, (8, 1)))
        fleet.process_batch()
        assert fleet._stage.rows == 8  # staged, nothing materialised yet
        fleet.submit_many("dev-a", np.tile(saddle, (40, 1)))
        fleet.drain()
        assert fleet._stage.rows == fleet._stage.queue.maxlen == 20
        assert len(fleet._stage.queue) == 0  # still nothing materialised
        assert len(fleet.forensics) == 20
        assert fleet._stage.rows == 0
        assert fleet.forensics.total_flagged == fleet.stats.n_flagged == 48


class TestFleetMonitor:
    def test_requires_fitted_hmd(self):
        with pytest.raises(ValueError):
            FleetMonitor(TrustedHMD(RandomForestClassifier(n_estimators=3)))

    def test_batched_equals_sequential(self, fitted_hmd):
        """Core correctness: batch composition never changes verdicts."""
        X, y, hmd = fitted_hmd
        arrivals = _arrivals(X, n_devices=6, rounds=10)

        sequential = OnlineMonitor(hmd)
        seq_verdicts = [(d, sequential.observe(w)) for d, w in arrivals]

        fleet = FleetMonitor(hmd, batch_size=17)  # odd size: spans devices
        for device_id, window in arrivals:
            fleet.submit(device_id, window)
        batches = fleet.drain()

        keyed = {}
        for batch in batches:
            for j, device_id in enumerate(batch.device_ids):
                keyed[(device_id, int(batch.seqs[j]))] = (
                    batch.predictions[j],
                    batch.entropy[j],
                    bool(batch.accepted[j]),
                )
        assert len(keyed) == len(arrivals)

        counter = {}
        for device_id, verdict in seq_verdicts:
            seq = counter.get(device_id, 0)
            counter[device_id] = seq + 1
            pred, entropy, accepted = keyed[(device_id, seq)]
            assert pred == verdict.predictions[0]
            assert entropy == verdict.entropy[0]  # bitwise
            assert accepted == bool(verdict.accepted[0])

        assert fleet.stats.n_seen == sequential.stats.n_seen
        assert fleet.stats.n_flagged == sequential.stats.n_flagged
        assert fleet.stats.n_malware_alerts == sequential.stats.n_malware_alerts
        assert fleet.stats.entropy_sum == pytest.approx(
            sequential.stats.entropy_sum
        )

    def test_batch_sizes_partition_queue(self, fitted_hmd):
        X, _, hmd = fitted_hmd
        fleet = FleetMonitor(hmd, batch_size=8)
        fleet.submit_many("dev-0", X[:20])
        assert fleet.pending == 20
        results = fleet.drain()
        assert [len(r) for r in results] == [8, 8, 4]
        assert fleet.pending == 0
        assert fleet.n_batches == 3

    def test_flagged_samples_are_device_tagged(self, fitted_hmd):
        X, _, hmd = fitted_hmd
        fleet = FleetMonitor(hmd, batch_size=16)
        # The inter-class saddle point is maximally uncertain.
        contested = np.zeros((12, X.shape[1]))
        fleet.submit_many("dev-sus", contested)
        fleet.drain()
        assert len(fleet.forensics) > 0
        flagged = fleet.forensics.drain()
        assert all(isinstance(s, FleetFlaggedSample) for s in flagged)
        assert all(s.device_id == "dev-sus" for s in flagged)
        seqs = [s.seq for s in flagged]
        assert seqs == sorted(seqs)

    def test_backpressure_sheds_and_reports(self, fitted_hmd):
        X, _, hmd = fitted_hmd
        fleet = FleetMonitor(
            hmd,
            batch_size=8,
            policy=BackpressurePolicy(max_pending=10, shed="drop_oldest"),
        )
        admitted = fleet.submit_many("dev-0", X[:25])
        # drop_oldest admits every new window but evicts stale ones.
        assert admitted == 25
        assert fleet.pending == 10
        fleet.drain()
        report = fleet.report()
        assert report.n_shed == 15
        assert report.n_seen == 10
        (shed_dev,) = report.shed_devices()
        assert shed_dev.device_id == "dev-0"
        assert shed_dev.n_shed == 15

    def test_per_device_isolation_under_load(self, fitted_hmd):
        X, _, hmd = fitted_hmd
        fleet = FleetMonitor(
            hmd,
            batch_size=64,
            policy=BackpressurePolicy(max_pending=100, max_pending_per_device=5),
        )
        fleet.submit_many("noisy", X[:50])
        fleet.submit_many("calm", X[:3])
        assert fleet.queue.pending("noisy") == 5
        assert fleet.queue.pending("calm") == 3
        fleet.drain()
        report = fleet.report()
        by_id = {d.device_id: d for d in report.devices}
        assert by_id["noisy"].n_seen == 5
        assert by_id["noisy"].n_shed == 45
        assert by_id["calm"].n_seen == 3
        assert by_id["calm"].n_shed == 0

    def test_drift_monitor_fed_by_batches(self, fitted_hmd):
        X, y, hmd = fitted_hmd
        reference = hmd.predictive_entropy(X)
        fleet = FleetMonitor(hmd, batch_size=16, drift_reference=reference)
        fleet.submit_many("dev-0", X[:32])
        fleet.drain()
        report = fleet.report()
        assert report.drift_status in ("stable", "warning", "drift")

    def test_report_aggregates(self, fitted_hmd):
        X, y, hmd = fitted_hmd
        fleet = FleetMonitor(hmd, batch_size=32)
        fleet.register("dev-mal", cohort="malware")
        fleet.submit_many("dev-mal", X[y == 1][:15])
        fleet.register("dev-ben", cohort="benign")
        fleet.submit_many("dev-ben", X[y == 0][:15])
        fleet.drain()
        report = fleet.report()
        assert report.n_devices == 2
        assert report.n_seen == 30
        by_id = {d.device_id: d for d in report.devices}
        assert by_id["dev-mal"].cohort == "malware"
        assert by_id["dev-mal"].alert_rate > by_id["dev-ben"].alert_rate
        infected = report.infected_devices(min_alert_rate=0.5, min_seen=5)
        assert [d.device_id for d in infected] == ["dev-mal"]
        text = report.as_text()
        assert "dev-mal" in text and "Fleet report" in text

    def test_bulk_and_rowwise_submission_equivalent(self, fitted_hmd):
        """submit_many produces the same verdicts as per-row submits."""
        X, _, hmd = fitted_hmd
        bulk = FleetMonitor(hmd, batch_size=16)
        rowwise = FleetMonitor(hmd, batch_size=16)
        for d in range(3):
            block = X[d * 15 : (d + 1) * 15]
            bulk.submit_many(f"dev-{d}", block)
            for row in block:
                rowwise.submit(f"dev-{d}", row)
        bulk_batches = bulk.drain()
        row_batches = rowwise.drain()
        assert len(bulk_batches) == len(row_batches)
        for b, r in zip(bulk_batches, row_batches):
            assert b.device_ids.tolist() == list(r.device_ids)
            assert np.array_equal(b.seqs, r.seqs)
            assert np.array_equal(b.predictions, r.predictions)
            assert np.array_equal(b.entropy, r.entropy)  # bitwise
            assert np.array_equal(b.accepted, r.accepted)
        assert bulk.stats.n_flagged == rowwise.stats.n_flagged

    def test_for_device_vectorized_mask(self, fitted_hmd):
        X, _, hmd = fitted_hmd
        fleet = FleetMonitor(hmd, batch_size=32)
        fleet.submit_many("a", X[:5])
        fleet.submit_many("b", X[5:8])
        (batch,) = fleet.drain()
        view = batch.for_device("a")
        assert view["seqs"].tolist() == [0, 1, 2, 3, 4]
        assert len(view["predictions"]) == 5
        assert batch.for_device("missing")["seqs"].size == 0

    def test_ragged_block_rejected_at_ingress(self, fitted_hmd):
        X, _, hmd = fitted_hmd
        fleet = FleetMonitor(hmd, batch_size=4)
        with pytest.raises(ValueError, match="features"):
            fleet.submit_many("dev-0", np.zeros((3, X.shape[1] + 1)))
        assert fleet.pending == 0

    def test_empty_queue_returns_none(self, fitted_hmd):
        _, _, hmd = fitted_hmd
        fleet = FleetMonitor(hmd)
        assert fleet.process_batch() is None
        assert fleet.drain() == []

    def test_ragged_window_rejected_at_ingress(self, fitted_hmd):
        X, _, hmd = fitted_hmd
        fleet = FleetMonitor(hmd, batch_size=4)
        fleet.submit("dev-0", X[0])
        with pytest.raises(ValueError, match="features"):
            fleet.submit("dev-0", np.zeros(X.shape[1] + 2))
        # The well-formed window already queued still processes fine.
        assert len(fleet.drain()) == 1

    def test_equivalence_helper_detects_mismatch(self, fitted_hmd):
        from repro.fleet import batched_verdicts_equal_sequential

        X, _, hmd = fitted_hmd
        arrivals = _arrivals(X, n_devices=3, rounds=4)
        sequential = OnlineMonitor(hmd)
        seq_verdicts = [(d, sequential.observe(w)) for d, w in arrivals]
        fleet = FleetMonitor(hmd, batch_size=5)
        for device_id, window in arrivals:
            fleet.submit(device_id, window)
        batches = fleet.drain()
        assert batched_verdicts_equal_sequential(batches, seq_verdicts)
        # Dropping one sequential verdict must break equivalence.
        assert not batched_verdicts_equal_sequential(batches, seq_verdicts[:-1])

    def test_rejected_window_registers_no_device(self, fitted_hmd):
        """A window rejected at ingress leaves no phantom device behind
        in the device table, the report or a snapshot."""
        X, _, hmd = fitted_hmd
        fleet = FleetMonitor(hmd, batch_size=4)
        fleet.submit("dev-0", X[0])
        with pytest.raises(ValueError, match="features"):
            fleet.submit("ghost", np.zeros(X.shape[1] - 1))
        with pytest.raises(ValueError, match="features"):
            fleet.submit_many("ghost2", np.zeros((2, X.shape[1] + 1)))
        assert set(fleet.devices) == {"dev-0"}
        assert [d.device_id for d in fleet.report().devices] == ["dev-0"]
        snapshot = fleet.snapshot()
        assert [d["device_id"] for d in snapshot["devices"]] == ["dev-0"]
        assert list(snapshot["seq"]) == ["dev-0"]


# Blocks of (device, rows): uncongested blocks, blocks that trip the
# per-device cap and blocks that trip the global cap.
_ADMISSION_BLOCKS = [("a", 3), ("b", 2), ("a", 4), ("c", 6), ("b", 1), ("a", 2), ("c", 3)]


class TestAdmission:
    @pytest.mark.parametrize("max_pending", [7, 1000], ids=["tight", "loose"])
    @pytest.mark.parametrize("per_device", [3, None], ids=["device_cap", "no_device_cap"])
    @pytest.mark.parametrize("shed", ["drop_oldest", "drop_newest"])
    def test_block_and_row_submits_equivalent(
        self, fitted_hmd, shed, per_device, max_pending
    ):
        """Per-row ``submit`` and block ``submit_many`` of the same rows
        admit, shed and count exactly alike under every policy."""
        X, _, hmd = fitted_hmd
        policy = BackpressurePolicy(
            max_pending=max_pending, max_pending_per_device=per_device, shed=shed
        )
        rowwise, bulk = (
            FleetMonitor(hmd, policy=policy, telemetry=True) for _ in range(2)
        )
        rows = iter(range(len(X)))
        admitted_rowwise = admitted_bulk = 0
        for device_id, n in _ADMISSION_BLOCKS:
            block = X[[next(rows) for _ in range(n)]]
            admitted_rowwise += sum(rowwise.submit(device_id, row) for row in block)
            admitted_bulk += bulk.submit_many(device_id, block)
        assert admitted_rowwise == admitted_bulk
        taken = [monitor.queue.take(1000) for monitor in (rowwise, bulk)]
        assert taken[0].device_ids.tolist() == taken[1].device_ids.tolist()
        assert taken[0].seqs.tolist() == taken[1].seqs.tolist()
        np.testing.assert_array_equal(taken[0].features, taken[1].features)
        assert rowwise.queue.shed_by_device == bulk.queue.shed_by_device
        counters = [monitor.metrics.snapshot()["counters"] for monitor in (rowwise, bulk)]
        for name in ("fleet_windows_admitted_total", "fleet_windows_shed_total"):
            assert counters[0][name] == counters[1][name]
        if max_pending == 7 or per_device is not None:
            assert rowwise.queue.total_shed > 0  # the bound actually bit
