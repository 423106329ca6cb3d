"""Tests for the fleet's verdict path, equivalence matrix and checkpoints.

The load-bearing guarantees, in the order the module builds them up:

1. :class:`PublishedHmd` verdicts (the count-table verdict function)
   are bitwise identical to ``TrustedHMD.analyze`` (fuzzed over
   ensemble kinds, sizes, depths and class counts);
2. :class:`FleetMonitor` gives every window ``TrustedHMD.analyze``'s
   verdict in every cell of one matrix (batch size x compile mode x
   telemetry), and monitors that differ only in batch size are
   indistinguishable: identical verdicts, device report rows, shed
   counts and forensic streams — fuzzed over device counts and
   backpressure policies;
3. snapshot/restore keeps all of the above mid-stream, and a
   ``repro.fleet.sharded/1`` checkpoint written with several device-hash
   partitions restores into the one device table.
"""

import dataclasses
import pickle

import numpy as np
import pytest

from repro.fleet import BackpressurePolicy, FleetMonitor, FleetRetrainer, PublishedHmd
from repro.fleet.engine import SNAPSHOT_SCHEMA, batch_verdict_key
from repro.fleet.report import device_report_key
from repro.fleet.state import RingBuffer
from repro.ml import BaggingClassifier, RandomForestClassifier
from repro.obs import TraceContext, TraceSampler
from repro.uncertainty import MonitorStats, TrustedHMD
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


def _arrivals(X, n_devices, rounds, seed=1):
    rng = np.random.default_rng(seed)
    events = []
    for _ in range(rounds):
        for d in range(n_devices):
            events.append((f"dev-{d:03d}", X[rng.integers(len(X))]))
    return events


def _drive(monitor, arrivals, *, register=True):
    if register:
        for device_id, _ in arrivals:
            monitor.register(device_id)
    for device_id, window in arrivals:
        monitor.submit(device_id, window)
    return monitor.drain()


def _forensic_stream(queue):
    return [
        (s.device_id, s.seq, s.prediction, s.entropy, s.step)
        for s in queue.snapshot()
    ]


def three_class_blobs(n_per_class=60, seed=5):
    """Three Gaussian blobs in 4-D: a model the count tables cannot serve."""
    rng = np.random.default_rng(seed)
    X = np.vstack(
        [rng.normal(loc, 1.0, size=(n_per_class, 4)) for loc in (0.0, 3.0, 6.0)]
    )
    return X, np.repeat([0, 1, 2], n_per_class)


class TestPublishedHmd:
    @pytest.mark.parametrize(
        "ensemble",
        [
            RandomForestClassifier(n_estimators=15, random_state=0),
            RandomForestClassifier(
                n_estimators=9, bootstrap=False, grower="hist", random_state=1
            ),
            BaggingClassifier(n_estimators=7, random_state=2),
            RandomForestClassifier(
                n_estimators=5, max_depth=1, random_state=3
            ),  # stumps
        ],
    )
    def test_bitwise_identical_to_analyze(self, ensemble):
        X, y = make_blobs(n_per_class=100, separation=2.0, seed=11)
        hmd = TrustedHMD(ensemble, threshold=0.35).fit(X, y)
        published = PublishedHmd(hmd)
        rng = np.random.default_rng(0)
        for n in (1, 3, 100, 257, 600):
            Xq = X[rng.integers(len(X), size=n)]
            reference = hmd.analyze(Xq)
            predictions, entropy, accepted = published.verdict(Xq)
            np.testing.assert_array_equal(predictions, reference.predictions)
            np.testing.assert_array_equal(entropy, reference.entropy)
            np.testing.assert_array_equal(accepted, reference.accepted)

    def test_bitwise_identical_with_pca_front(self):
        X, y = make_blobs(n_per_class=100, separation=2.0, seed=12)
        hmd = TrustedHMD(
            RandomForestClassifier(n_estimators=10, random_state=0),
            threshold=0.35,
            n_components=2,
        ).fit(X, y)
        published = PublishedHmd(hmd)
        reference = hmd.analyze(X)
        predictions, entropy, accepted = published.verdict(X)
        np.testing.assert_array_equal(predictions, reference.predictions)
        np.testing.assert_array_equal(entropy, reference.entropy)
        np.testing.assert_array_equal(accepted, reference.accepted)

    def test_staleness_detection(self, fitted_hmd):
        X, y, _ = fitted_hmd
        hmd = TrustedHMD(
            RandomForestClassifier(n_estimators=8, random_state=0),
            threshold=0.4,
        ).fit(X, y)
        published = PublishedHmd(hmd)
        assert published.is_current()
        hmd.with_threshold(0.2)
        assert not published.is_current()
        republished = PublishedHmd(hmd)
        assert republished.is_current()
        hmd.fit(X, y)  # rebuilds estimators_
        assert not republished.is_current()

    def test_requires_fitted(self):
        with pytest.raises(ValueError):
            PublishedHmd(TrustedHMD(RandomForestClassifier(n_estimators=3)))

    def test_fleet_refuses_model_without_count_tables(self):
        X, y = three_class_blobs()
        hmd = TrustedHMD(
            RandomForestClassifier(n_estimators=12, random_state=0),
            threshold=0.6,
        ).fit(X, y)
        with pytest.raises(ValueError, match="OnlineMonitor"):
            PublishedHmd(hmd)
        with pytest.raises(ValueError, match="3 classes"):
            FleetMonitor(hmd)


MATRIX_MODES = ("float64", "quantized")


@pytest.fixture(scope="module")
def mode_hmds():
    """One fitted HMD per compile mode (quantized on a hist forest)."""
    X, y = make_blobs(n_per_class=120, separation=4.0, seed=70)
    hmds = {}
    for mode in MATRIX_MODES:
        hmds[mode] = TrustedHMD(
            RandomForestClassifier(
                n_estimators=15,
                random_state=0,
                grower="hist" if mode == "quantized" else "exact",
            ),
            threshold=0.4,
        ).fit(X, y)
        hmds[mode].compile(mode=mode)
    return X, hmds


class TestEquivalenceMatrix:
    """The same window gets the same verdict in every cell: batch size
    (round composition: one row, rounds that split devices, whole
    rounds) x compile mode x telemetry on/off, each checked against
    ``TrustedHMD.analyze`` on the same rows."""

    @pytest.mark.parametrize("telemetry", [False, True], ids=["plain", "telemetry"])
    @pytest.mark.parametrize("mode", MATRIX_MODES)
    @pytest.mark.parametrize("batch_size", [1, 7, 64])
    def test_verdicts_match_analyze(self, mode_hmds, batch_size, mode, telemetry):
        X, hmds = mode_hmds
        hmd = hmds[mode]
        arrivals = _arrivals(X, n_devices=13, rounds=20)
        policy = BackpressurePolicy(max_pending=len(arrivals) + 1)
        observe = (
            {"telemetry": True, "tracer": TraceContext(TraceSampler(rate=4))}
            if telemetry
            else {}
        )
        monitor = FleetMonitor(hmd, batch_size=batch_size, policy=policy, **observe)
        keyed = batch_verdict_key(_drive(monitor, arrivals))

        reference = hmd.analyze(np.vstack([window for _, window in arrivals]))
        expected, seqs = {}, {}
        for row, (device_id, _) in enumerate(arrivals):
            seq = seqs[device_id] = seqs.get(device_id, -1) + 1
            expected[(device_id, seq)] = (
                reference.predictions[row],
                reference.entropy[row],
                bool(reference.accepted[row]),
            )
        assert keyed == expected

        baseline = FleetMonitor(hmd, batch_size=64, policy=policy)
        _drive(baseline, arrivals)
        assert device_report_key(monitor.report()) == device_report_key(
            baseline.report()
        )


class TestBatchSizeEquivalence:
    """A monitor at ``batch_size`` and one at four times it (the round
    size four partitions of that batch size once fused) serve the same
    traffic indistinguishably."""

    @pytest.mark.parametrize(
        "n_devices,rounds,batch_size", [(1, 30, 16), (7, 11, 8), (37, 6, 64)]
    )
    def test_fuzz_device_counts_and_batch_sizes(
        self, fitted_hmd, n_devices, rounds, batch_size
    ):
        X, y, hmd = fitted_hmd
        arrivals = _arrivals(X, n_devices=n_devices, rounds=rounds, seed=7)
        small = FleetMonitor(hmd, batch_size=batch_size)
        large = FleetMonitor(hmd, batch_size=4 * batch_size)
        small_batches = _drive(small, arrivals)
        large_batches = _drive(large, arrivals)
        assert batch_verdict_key(large_batches) == batch_verdict_key(small_batches)
        assert device_report_key(large.report()) == device_report_key(small.report())

    def test_report_totals_match(self, fitted_hmd):
        X, y, hmd = fitted_hmd
        arrivals = _arrivals(X, n_devices=24, rounds=15, seed=3)
        small = FleetMonitor(hmd, batch_size=32)
        large = FleetMonitor(hmd, batch_size=128)
        _drive(small, arrivals)
        _drive(large, arrivals)
        reference, report = small.report(), large.report()
        assert report.n_devices == reference.n_devices
        assert report.n_seen == reference.n_seen
        assert report.n_accepted == reference.n_accepted
        assert report.n_flagged == reference.n_flagged
        assert report.n_malware_alerts == reference.n_malware_alerts
        assert report.n_shed == reference.n_shed
        assert report.n_pending == reference.n_pending == 0
        # The fleet entropy sum adds one partial sum per round.
        assert report.mean_entropy == pytest.approx(reference.mean_entropy, abs=1e-12)
        assert large.stats.n_seen == small.stats.n_seen
        assert large.stats.n_flagged == small.stats.n_flagged

    def test_forensic_streams_identical(self, fitted_hmd):
        X, y, hmd = fitted_hmd
        arrivals = _arrivals(X, n_devices=9, rounds=25, seed=5)
        small = FleetMonitor(hmd, batch_size=48)
        large = FleetMonitor(hmd, batch_size=144)
        _drive(small, arrivals)
        _drive(large, arrivals)
        # Rows fold in admission order whatever the round size, so the
        # streams agree in order and in steps.
        reference = _forensic_stream(small.forensics)
        assert reference
        assert _forensic_stream(large.forensics) == reference

    def test_per_device_caps_shed_identically(self, fitted_hmd):
        X, y, hmd = fitted_hmd
        policy = BackpressurePolicy(max_pending=10_000, max_pending_per_device=6)
        arrivals = _arrivals(X, n_devices=11, rounds=30, seed=9)
        small = FleetMonitor(hmd, batch_size=64, policy=policy)
        large = FleetMonitor(hmd, batch_size=256, policy=policy)
        small_batches = _drive(small, arrivals)
        large_batches = _drive(large, arrivals)
        assert small.queue.shed_by_device
        assert large.queue.shed_by_device == small.queue.shed_by_device
        assert batch_verdict_key(large_batches) == batch_verdict_key(small_batches)

    @pytest.mark.parametrize("shed", ["drop_oldest", "drop_newest"])
    def test_drop_modes_with_interleaved_drains(self, fitted_hmd, shed):
        """Backpressure fuzz: submit/drain interleave, caps tripping."""
        X, y, hmd = fitted_hmd
        policy = BackpressurePolicy(
            max_pending=10_000, max_pending_per_device=4, shed=shed
        )
        arrivals = _arrivals(X, n_devices=8, rounds=24, seed=13)
        results = {}
        for batch_size in (32, 96):
            monitor = FleetMonitor(hmd, batch_size=batch_size, policy=policy)
            batches = []
            for i, (device_id, window) in enumerate(arrivals):
                monitor.submit(device_id, window)
                if i % 40 == 39:
                    result = monitor.process_batch()
                    if result is not None:
                        batches.append(result)
            batches.extend(monitor.drain())
            results[batch_size] = batches
        # The per-device caps keep at most 32 rows queued between
        # rounds, so both round sizes drain the same rows mid-stream.
        assert batch_verdict_key(results[96]) == batch_verdict_key(results[32])

    def test_submit_many_block_path(self, fitted_hmd):
        X, y, hmd = fitted_hmd
        rng = np.random.default_rng(2)
        small = FleetMonitor(hmd, batch_size=50)
        large = FleetMonitor(hmd, batch_size=200)
        blocks = {
            f"dev-{d:03d}": X[rng.integers(len(X), size=12)] for d in range(17)
        }
        for monitor in (small, large):
            for device_id, windows in blocks.items():
                assert monitor.submit_many(device_id, windows) == 12
        assert batch_verdict_key(large.drain()) == batch_verdict_key(small.drain())


class TestMonitorApi:
    def test_submit_process_report(self, fitted_hmd):
        X, y, hmd = fitted_hmd
        monitor = FleetMonitor(hmd, batch_size=16)
        assert monitor.pending == 0
        assert monitor.process_batch() is None
        monitor.register("dev-a", cohort="benign")
        assert monitor.submit("dev-a", X[0])
        assert monitor.pending == 1
        with pytest.raises(ValueError):
            monitor.submit("dev-a", X[0][:-1])  # ragged window
        result = monitor.process_batch()
        assert result.device_ids.tolist() == ["dev-a"]
        assert monitor.report().devices[0].cohort == "benign"

    def test_requires_fitted_hmd(self):
        with pytest.raises(ValueError):
            FleetMonitor(TrustedHMD(RandomForestClassifier(n_estimators=3)))


def _zero_day(seed, n, d):
    """A tight novel cluster far outside the training distribution."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d)) * 0.4
    X[:, 1] += 10.0
    return X


class TestRetrainIntegration:
    def test_retrain_republishes(self, fitted_hmd):
        X, y, _ = fitted_hmd
        hmd = TrustedHMD(
            RandomForestClassifier(
                n_estimators=10, random_state=0, grower="hist"
            ),
            threshold=0.40,
        ).fit(X, y)
        monitor = FleetMonitor(hmd, batch_size=96)
        retrainer = FleetRetrainer(
            monitor, labeler=lambda cluster: 1, X_train=X, y_train=y,
            min_batch=8,
        )
        epoch_before = monitor.published
        # A zero-day cluster: high-entropy windows flood the forensic
        # stream and trigger warm retrains mid-drain.
        for i, window in enumerate(_zero_day(seed=21, n=80, d=X.shape[1])):
            monitor.submit(f"dev-{i % 6:03d}", window)
        outcomes = retrainer.drain()
        assert any(outcome.retrained for outcome in outcomes)
        assert len(monitor.forensics) == 0  # fully triaged
        monitor.submit("dev-000", X[0])
        monitor.process_batch()
        # The monitor republished the shared view after the warm refit.
        assert monitor.published is not epoch_before
        assert monitor.published.is_current()

    def test_post_retrain_verdicts_match_analyze(self, fitted_hmd):
        """After a warm refit or a threshold change, verdicts track analyze.

        The monitor caches vote-count tables; each change lands between
        two batches, and the next batch must serve the new model.
        """
        X, y, _ = fitted_hmd
        hmd = TrustedHMD(
            RandomForestClassifier(
                n_estimators=10, random_state=0, grower="hist"
            ),
            threshold=0.4,
        ).fit(X, y)
        # Midpoints between the classes: members disagree, so entropies
        # spread across the thresholds used below.
        probe = 0.5 * (X[y == 0][:30] + X[y == 1][:30])
        monitor = FleetMonitor(hmd, batch_size=64)
        monitor.submit_many("dev-a", probe)
        monitor.process_batch()  # tables built for the original fit
        for change in (
            lambda: hmd.partial_refit(X[:40], y[:40]),
            lambda: hmd.with_threshold(0.8),
        ):
            before = hmd.analyze(probe)
            change()
            monitor.submit_many("dev-a", probe)
            result = monitor.process_batch()
            reference = hmd.analyze(probe)
            assert not (
                np.array_equal(reference.entropy, before.entropy)
                and np.array_equal(reference.accepted, before.accepted)
            )
            np.testing.assert_array_equal(result.predictions, reference.predictions)
            np.testing.assert_array_equal(result.entropy, reference.entropy)
            np.testing.assert_array_equal(result.accepted, reference.accepted)
            assert result.threshold == reference.threshold


    def test_republish_without_count_tables_takes_no_rows(self, fitted_hmd):
        """A retrain that adds a third class stops the fleet before a take.

        The warm refit picks the new label up, so the model loses its
        count tables; the next round refuses to publish it, and every
        queued window is still pending.
        """
        X, y, _ = fitted_hmd
        hmd = TrustedHMD(
            RandomForestClassifier(
                n_estimators=10, random_state=0, grower="hist"
            ),
            threshold=0.4,
        ).fit(X, y)
        monitor = FleetMonitor(hmd, batch_size=8)
        monitor.submit_many("dev-a", X[:20])
        monitor.process_batch()
        assert monitor.pending == 12
        hmd.partial_refit(X[:30], np.full(30, 2))
        assert len(hmd.classes_) == 3
        with pytest.raises(ValueError, match="3 classes"):
            monitor.drain()
        assert monitor.pending == 12
        assert monitor.stats.n_seen == 8


def schema1_checkpoint(X):
    """A ``repro.fleet.sharded/1`` checkpoint spelled out field by field.

    One shard, two registered devices and a three-row backlog in the
    arena queue format (``"kind": "shard"``) — the payload shape sharded
    and worker checkpoints have carried since the schema was tagged.
    """
    policy = {"max_pending": 64, "max_pending_per_device": None, "shed": "drop_oldest"}
    forensics = {"samples": (), "maxlen": 100, "total_flagged": 0}
    devices = [
        {
            "device_id": device_id,
            "cohort": "benign",
            "stats": MonitorStats().snapshot(),
            "last_step": -1,
            "entropy_recent": RingBuffer(8).snapshot(),
        }
        for device_id in ("dev-a", "dev-b")
    ]
    shard = {
        "batch_size": 16,
        "entropy_window": 8,
        "devices": devices,
        "seq": {"dev-a": 2, "dev-b": 1},
        "step": 0,
        "n_batches": 0,
        "stats": MonitorStats().snapshot(),
        "queue": {
            "kind": "shard",
            "policy": policy,
            "device_ids": np.array(["dev-a", "dev-b", "dev-a"]),
            "seqs": np.array([0, 0, 1], dtype=np.int64),
            "features": np.array(X[:3], dtype=float),
            "shed_by_device": {},
        },
        "forensics": forensics,
    }
    return {
        "schema": "repro.fleet.sharded/1",
        "n_shards": 1,
        "batch_size": 16,
        "entropy_window": 8,
        "n_batches": 0,
        "policy": policy,
        "shards": [shard],
        "forensics": forensics,
    }


def assert_schema1_resumes(fleet, hmd, X):
    """The hand-built checkpoint's backlog drains to analyze's verdicts."""
    assert fleet.pending == 3
    keyed = batch_verdict_key(fleet.drain())
    reference = hmd.analyze(X[:3])
    for row, key in enumerate([("dev-a", 0), ("dev-b", 0), ("dev-a", 1)]):
        assert keyed[key] == (
            reference.predictions[row],
            reference.entropy[row],
            bool(reference.accepted[row]),
        )
    assert fleet.submit("dev-a", X[3])  # sequence counters carried over
    assert fleet.drain()[0].seqs.tolist() == [2]
    assert fleet.report().n_seen == 4


def parent_table_checkpoint(X):
    """A ``repro.fleet.sharded/1`` checkpoint with live per-device state.

    Written field by field as the per-object device table wrote it:
    ``DeviceState.snapshot()`` dicts — one with a rotated full entropy
    ring, one with a partial ring — and a ``seq`` dict, next to a
    one-row backlog.
    """
    state = schema1_checkpoint(X)
    state["entropy_window"] = 4
    shard = state["shards"][0]
    shard["entropy_window"] = 4
    shard["devices"] = [
        {
            "device_id": "dev-a",
            "cohort": "malware",
            "stats": {
                "n_seen": 11,
                "n_accepted": 7,
                "n_flagged": 4,
                "n_malware_alerts": 5,
                "entropy_sum": 3.1415926535897927,
            },
            "last_step": 17,
            "entropy_recent": {
                "capacity": 4,
                "data": np.array([0.7, 0.1 + 0.2, 1.0 / 3.0, 0.25]),
                "head": 2,
                "size": 4,
            },
        },
        {
            "device_id": "dev-b",
            "cohort": "unknown",
            "stats": {
                "n_seen": 2,
                "n_accepted": 2,
                "n_flagged": 0,
                "n_malware_alerts": 0,
                "entropy_sum": 0.30000000000000004,
            },
            "last_step": 16,
            "entropy_recent": {
                "capacity": 4,
                "data": np.array([0.1, 0.2, 0.0, 0.0]),
                "head": 2,
                "size": 2,
            },
        },
    ]
    shard["seq"] = {"dev-a": 12, "dev-b": 2}
    shard["step"] = 18
    shard["stats"] = {
        "n_seen": 13,
        "n_accepted": 9,
        "n_flagged": 4,
        "n_malware_alerts": 5,
        "entropy_sum": 3.4415926535897925,
    }
    shard["queue"]["device_ids"] = np.array(["dev-b"])
    shard["queue"]["seqs"] = np.array([1], dtype=np.int64)
    shard["queue"]["features"] = np.array(X[:1], dtype=float)
    return state


def assert_payloads_equal(left, right, path="state"):
    """Deep equality of snapshot payloads; arrays and floats bit for bit."""
    if dataclasses.is_dataclass(left):
        assert type(left) is type(right), path
        assert_payloads_equal(vars(left), vars(right), path)
    elif isinstance(left, dict):
        assert isinstance(right, dict) and set(left) == set(right), path
        for key in left:
            assert_payloads_equal(left[key], right[key], f"{path}[{key!r}]")
    elif isinstance(left, (list, tuple)):
        assert len(left) == len(right), path
        for i, (a, b) in enumerate(zip(left, right)):
            assert_payloads_equal(a, b, f"{path}[{i}]")
    elif isinstance(left, np.ndarray):
        right = np.asarray(right)
        assert left.tolist() == right.tolist(), path
        if left.dtype.kind == "f":
            assert left.tobytes() == right.astype(left.dtype).tobytes(), path
    elif isinstance(left, float):
        assert type(right) is float and left.hex() == right.hex(), path
    else:
        assert type(left) is type(right) and left == right, path


class TestSnapshotVersioning:
    """Restore rejects stale, foreign or inconsistent checkpoints."""

    def test_snapshot_carries_schema_tag(self, fitted_hmd):
        _, _, hmd = fitted_hmd
        fleet = FleetMonitor(hmd)
        assert fleet.snapshot()["schema"] == SNAPSHOT_SCHEMA

    def test_rejects_unversioned_payload(self, fitted_hmd):
        _, _, hmd = fitted_hmd
        state = FleetMonitor(hmd).snapshot()
        del state["schema"]
        with pytest.raises(ValueError, match="snapshot schema"):
            FleetMonitor.restore(hmd, state)

    def test_rejects_foreign_schema(self, fitted_hmd):
        _, _, hmd = fitted_hmd
        state = FleetMonitor(hmd).snapshot()
        state["schema"] = "repro.fleet.sharded/999"
        with pytest.raises(ValueError, match="repro.fleet.sharded/999"):
            FleetMonitor.restore(hmd, state)

    def test_rejects_non_dict_payload(self, fitted_hmd):
        _, _, hmd = fitted_hmd
        with pytest.raises(ValueError, match="must be a dict"):
            FleetMonitor.restore(hmd, [1, 2, 3])

    def test_rejects_truncated_payload(self, fitted_hmd):
        _, _, hmd = fitted_hmd
        state = FleetMonitor(hmd).snapshot()
        del state["shards"]
        with pytest.raises(ValueError, match="missing required keys"):
            FleetMonitor.restore(hmd, state)

    def test_rejects_shard_count_mismatch(self, fitted_hmd):
        _, _, hmd = fitted_hmd
        state = FleetMonitor(hmd).snapshot()
        state["n_shards"] = 2
        with pytest.raises(ValueError, match="mismatched"):
            FleetMonitor.restore(hmd, state)

    def test_rejects_incompatible_policy(self, fitted_hmd):
        _, _, hmd = fitted_hmd
        state = FleetMonitor(hmd).snapshot()
        state["policy"]["no_such_knob"] = 1
        with pytest.raises(ValueError, match="BackpressurePolicy"):
            FleetMonitor.restore(hmd, state)

    @pytest.mark.parametrize(
        "mutation", ["no_device_row", "counter_not_above", "no_seq_entry"]
    )
    def test_rejects_backlog_without_counter(self, fitted_hmd, monkeypatch, mutation):
        """A queued row whose device has no row, no ``seq`` counter or a
        counter not above the row's seq is refused before anything is
        built: restored, the next submit would reuse a queued key."""
        X, _, hmd = fitted_hmd
        state = schema1_checkpoint(X)
        shard = state["shards"][0]
        if mutation == "no_device_row":
            shard["devices"] = shard["devices"][:1]
            del shard["seq"]["dev-b"]
        elif mutation == "counter_not_above":
            shard["seq"]["dev-a"] = 1
        else:
            del shard["seq"]["dev-a"]

        def built(*args, **kwargs):
            raise AssertionError("restore built a monitor")

        monkeypatch.setattr(FleetMonitor, "__init__", built)
        with pytest.raises(ValueError, match="fleet snapshot"):
            FleetMonitor.restore(hmd, state)


class TestSnapshotRestore:
    def test_parent_device_table_payload_round_trips(self, fitted_hmd):
        """Per-object device records restore into the columnar table,
        re-snapshot to the same payload and keep their counters."""
        X, y, hmd = fitted_hmd
        state = parent_table_checkpoint(X)
        fleet = FleetMonitor.restore(hmd, pickle.loads(pickle.dumps(state)))
        assert_payloads_equal(fleet.snapshot(), state)
        rows = {d["device_id"]: d for d in state["shards"][0]["devices"]}
        assert fleet.devices["dev-a"].recent_entropy == np.mean(
            rows["dev-a"]["entropy_recent"]["data"]
        )
        for index in range(len(fleet.table)):
            row = fleet.table.row(index)
            assert_payloads_equal(row, rows[row["device_id"]])
        assert fleet.pending == 1
        assert fleet.submit("dev-a", X[1])
        keyed = batch_verdict_key(fleet.drain())
        assert set(keyed) == {("dev-b", 1), ("dev-a", 12)}

    def test_restores_hand_built_schema1_checkpoint(self, fitted_hmd):
        X, y, hmd = fitted_hmd
        state = pickle.loads(pickle.dumps(schema1_checkpoint(X)))
        assert_schema1_resumes(FleetMonitor.restore(hmd, state), hmd, X)

    def test_snapshot_matches_schema1_shape(self, fitted_hmd):
        """What this build writes has the hand-built checkpoint's keys."""
        X, y, hmd = fitted_hmd
        fleet = FleetMonitor(hmd, batch_size=16)
        fleet.submit_many("dev-a", X[:2])
        state, pinned = fleet.snapshot(), schema1_checkpoint(X)
        assert set(state) == set(pinned)
        assert set(state["shards"][0]) == set(pinned["shards"][0])
        assert set(state["shards"][0]["queue"]) == set(pinned["shards"][0]["queue"])
        assert state["shards"][0]["queue"]["kind"] == "shard"

    def test_restore_refuses_segment_queue_payload(self, fitted_hmd):
        """A shard payload holding the retired segment queue fails with
        a ValueError naming the format."""
        X, y, hmd = fitted_hmd
        monitor = FleetMonitor(hmd, batch_size=8)
        monitor.submit_many("dev-a", X[:2])
        state = monitor.snapshot()
        shard = state["shards"][0]
        shard["queue"] = {
            "kind": "fleet",
            "policy": shard["queue"]["policy"],
            "segments": [
                {"device_id": "dev-a", "seqs": np.arange(2), "features": X[:2]}
            ],
            "shed_by_device": {},
        }
        with pytest.raises(ValueError, match="'fleet'.*segments"):
            FleetMonitor.restore(hmd, state)

    def test_mid_stream_resume_identical_verdicts(self, fitted_hmd):
        X, y, hmd = fitted_hmd
        arrivals = _arrivals(X, n_devices=10, rounds=20, seed=31)
        half = len(arrivals) // 2

        continuous = FleetMonitor(hmd, batch_size=32)
        for device_id, window in arrivals[:half]:
            continuous.submit(device_id, window)
        first_half = continuous.drain(max_batches=3)  # leave a backlog

        checkpoint = pickle.loads(pickle.dumps(continuous.snapshot()))
        restored = FleetMonitor.restore(hmd, checkpoint)
        assert restored.pending == continuous.pending
        assert device_report_key(restored.report()) == device_report_key(
            continuous.report()
        )
        assert _forensic_stream(restored.forensics) == _forensic_stream(
            continuous.forensics
        )

        for monitor in (continuous, restored):
            for device_id, window in arrivals[half:]:
                monitor.submit(device_id, window)
        tail_original = continuous.drain()
        tail_restored = restored.drain()
        assert batch_verdict_key(tail_restored) == batch_verdict_key(
            tail_original
        )
        assert device_report_key(restored.report()) == device_report_key(
            continuous.report()
        )

    def test_flag_storm_stays_bounded(self, fitted_hmd):
        """Columnar staging must not defeat the forensic memory cap."""
        X, y, hmd = fitted_hmd
        monitor = FleetMonitor(hmd, batch_size=64, forensics=ForensicQueue(maxlen=40))
        # Every zero-day window gets flagged: a flag storm.
        storm = _zero_day(seed=3, n=400, d=X.shape[1])
        for i, window in enumerate(storm):
            monitor.submit(f"dev-{i % 4:03d}", window)
        monitor.drain()
        assert monitor._stage.rows <= monitor._stage.queue.maxlen
        assert len(monitor.forensics) <= 40
        assert monitor.forensics.total_flagged == monitor.stats.n_flagged
        assert monitor.stats.n_flagged > 40  # the cap actually bit

    def test_single_monitor_snapshot_roundtrip(self, fitted_hmd):
        X, y, hmd = fitted_hmd
        arrivals = _arrivals(X, n_devices=5, rounds=8, seed=33)
        policy = BackpressurePolicy(max_pending=60, shed="drop_newest")
        monitor = FleetMonitor(hmd, batch_size=16, policy=policy)
        for device_id, window in arrivals:
            monitor.submit(device_id, window)
        monitor.drain(max_batches=1)
        restored = FleetMonitor.restore(
            hmd, pickle.loads(pickle.dumps(monitor.snapshot()))
        )
        assert restored.pending == monitor.pending
        assert restored.policy == restored.queue.policy == policy
        original = monitor.drain()
        copy = restored.drain()
        assert batch_verdict_key(copy) == batch_verdict_key(original)
        assert device_report_key(restored.report()) == device_report_key(monitor.report())


STAT_KEYS = ("n_seen", "n_accepted", "n_flagged", "n_malware_alerts", "entropy_sum")


def _table_row(device_id, cohort, stats, last_step, ring, head, size):
    """One device-table row in ``DeviceState.snapshot()`` form (window 4)."""
    return {
        "device_id": device_id,
        "cohort": cohort,
        "stats": dict(zip(STAT_KEYS, stats)),
        "last_step": last_step,
        "entropy_recent": {
            "capacity": 4, "data": np.array(ring), "head": head, "size": size
        },
    }


def _partition(rows, seq, step, stats, backlog, features, shed):
    """One partition payload; ``backlog`` is ``[(device_id, seq)]``."""
    return {
        "batch_size": 16,
        "entropy_window": 4,
        "devices": rows,
        "seq": seq,
        "step": step,
        "n_batches": 0,
        "stats": dict(zip(STAT_KEYS, stats)),
        "queue": {
            "kind": "shard",
            "policy": MERGE_POLICY,
            "device_ids": np.array([device for device, _ in backlog]),
            "seqs": np.array([seq for _, seq in backlog], dtype=np.int64),
            "features": np.array(features, dtype=float),
            "shed_by_device": shed,
        },
        "forensics": {"samples": (), "maxlen": 100, "total_flagged": 0},
    }


MERGE_POLICY = {"max_pending": 64, "max_pending_per_device": None, "shed": "drop_oldest"}
# Dyadic entropies: every sum below is exact in any order.
ROW_A = _table_row("dev-a", "malware", (6, 4, 2, 3, 1.5), 9, [0.25, 0.5, 0.125, 0.375], 2, 4)
ROW_C = _table_row("dev-c", "benign", (4, 4, 0, 0, 0.5), 7, [0.125] * 4, 0, 4)
ROW_B = _table_row("dev-b", "unknown", (3, 2, 1, 0, 0.75), 7, [0.25, 0.25, 0.25, 0.0], 3, 3)
ROW_D = _table_row("dev-d", "malware", (5, 5, 0, 5, 0.625), 6, [0.125, 0.25, 0.125, 0.125], 1, 4)


def _merge_checkpoint(partitions):
    return {
        "schema": "repro.fleet.sharded/1",
        "n_shards": len(partitions),
        "batch_size": 16,
        "entropy_window": 4,
        "n_batches": 7,
        "policy": MERGE_POLICY,
        "shards": partitions,
        "forensics": {"samples": (), "maxlen": 100, "total_flagged": 3},
    }


def two_partition_checkpoint(rows):
    """A K=2 checkpoint of four devices, written the way a monitor with
    two device-hash partitions wrote it: interleaved backlogs, shed
    counts and full and partial entropy rings on both partitions."""
    return _merge_checkpoint(
        [
            _partition(
                [ROW_A, ROW_C], {"dev-a": 9, "dev-c": 5}, 10, (10, 8, 2, 3, 2.0),
                [("dev-a", 7), ("dev-c", 4), ("dev-a", 8)], rows[[0, 1, 2]],
                {"dev-a": 1},
            ),
            _partition(
                [ROW_B, ROW_D], {"dev-b": 5, "dev-d": 7}, 8, (8, 7, 1, 5, 1.375),
                [("dev-d", 5), ("dev-b", 4), ("dev-d", 6)], rows[[3, 4, 5]],
                {"dev-b": 1},
            ),
        ]
    )


def merged_checkpoint(rows):
    """The pinned one-partition form of :func:`two_partition_checkpoint`.

    Before the partitions were deleted this was exactly what restoring
    the K=2 checkpoint, rebalancing it onto one partition and
    snapshotting wrote.
    """
    return _merge_checkpoint(
        [
            _partition(
                [ROW_A, ROW_C, ROW_B, ROW_D],
                {"dev-a": 9, "dev-c": 5, "dev-b": 5, "dev-d": 7},
                10,
                (18, 15, 3, 8, 3.375),
                [("dev-a", 7), ("dev-a", 8), ("dev-c", 4), ("dev-b", 4),
                 ("dev-d", 5), ("dev-d", 6)],
                rows[[0, 2, 1, 4, 3, 5]],
                {"dev-a": 1, "dev-b": 1},
            )
        ]
    )


class TestPartitionMerge:
    def test_two_partition_checkpoint_restores_as_merged(self, fitted_hmd):
        """A K=2 checkpoint restores into the one table exactly as its
        pinned merged form does: same payload on re-snapshot, then the
        same verdicts, device rows, counters and forensic steps after a
        further drain."""
        X, y, hmd = fitted_hmd
        # Half the backlog is zero-day traffic, so the drain flags rows
        # and the forensic steps show where the step counter resumed.
        rows = np.vstack([X[:3], _zero_day(seed=5, n=3, d=X.shape[1])])
        pinned = merged_checkpoint(rows)
        merged = FleetMonitor.restore(
            hmd, pickle.loads(pickle.dumps(two_partition_checkpoint(rows)))
        )
        assert_payloads_equal(merged.snapshot(), pinned)
        reference = FleetMonitor.restore(hmd, pickle.loads(pickle.dumps(pinned)))

        extra = _zero_day(seed=6, n=4, d=X.shape[1])
        drains = []
        for monitor in (merged, reference):
            for i, window in enumerate(extra):
                monitor.submit(("dev-b", "dev-e")[i % 2], window)
            drains.append(monitor.drain())
        assert batch_verdict_key(drains[0]) == batch_verdict_key(drains[1])
        assert device_report_key(merged.report()) == device_report_key(
            reference.report()
        )
        assert_payloads_equal(merged.stats.snapshot(), reference.stats.snapshot())
        stream = _forensic_stream(merged.forensics)
        assert stream == _forensic_stream(reference.forensics)
        assert stream and min(step for *_, step in stream) > 10
        assert_payloads_equal(merged.snapshot(), reference.snapshot())
