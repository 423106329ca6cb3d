"""Tests for the fleet's verdict path and equivalence matrix.

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
3. a retrain republishes the verdict parts, and post-retrain verdicts
   still match ``TrustedHMD.analyze``.

Checkpoints are tested in ``test_snapshot.py``; the drop modes under
interleaved submit/drain in ``test_sharding.py``.
"""

import numpy as np
import pytest

from repro.fleet import BackpressurePolicy, FleetMonitor, FleetRetrainer, PublishedHmd
from repro.fleet.engine import batch_verdict_key
from repro.fleet.report import device_report_key
from repro.ml import BaggingClassifier, RandomForestClassifier
from repro.obs import TraceContext, TraceSampler
from repro.uncertainty import TrustedHMD
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
