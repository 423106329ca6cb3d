"""Pickle and snapshot round-trip tests for deployment persistence.

A deployed HMD must survive serialisation: the operator trains once,
ships the model to devices, and loads it there.  Every public estimator
(and the full TrustedHMD pipeline) must pickle and produce identical
predictions after loading.  The fleet layer adds checkpoint/restore of
*live monitoring state* — queues, device states, forensic backlogs —
via ``snapshot()``/``restore()`` helpers, covered here as well.
"""

import pickle

import numpy as np
import pytest

from repro.fleet import DeviceState, FleetMonitor, FleetQueue, RingBuffer
from repro.ml import (
    PCA,
    BaggingClassifier,
    DecisionTreeClassifier,
    KMeans,
    LinearSVC,
    LogisticRegression,
    RandomForestClassifier,
    SVC,
    StandardScaler,
)
from repro.uncertainty import TrustedHMD
from repro.uncertainty.online import (
    FlaggedSample,
    ForensicQueue,
    MonitorStats,
)
from tests.conftest import make_blobs
from tests.oracles.queue_policy import admit


@pytest.fixture(scope="module")
def data():
    return make_blobs(n_per_class=80, seed=90)


ESTIMATORS = [
    DecisionTreeClassifier(max_depth=4, random_state=0),
    RandomForestClassifier(n_estimators=8, random_state=0),
    BaggingClassifier(n_estimators=5, random_state=0),
    LogisticRegression(),
    LinearSVC(),
    SVC(max_iter=30, random_state=0),
]


@pytest.mark.parametrize(
    "estimator", ESTIMATORS, ids=[type(e).__name__ for e in ESTIMATORS]
)
def test_classifier_pickle_roundtrip(estimator, data):
    X, y = data
    estimator.fit(X, y)
    loaded = pickle.loads(pickle.dumps(estimator))
    np.testing.assert_array_equal(loaded.predict(X), estimator.predict(X))


def test_transformer_pickle_roundtrip(data):
    X, _ = data
    for transformer in (StandardScaler().fit(X), PCA(n_components=2).fit(X)):
        loaded = pickle.loads(pickle.dumps(transformer))
        np.testing.assert_allclose(loaded.transform(X), transformer.transform(X))


def test_kmeans_pickle_roundtrip(data):
    X, _ = data
    km = KMeans(n_clusters=2, random_state=0).fit(X)
    loaded = pickle.loads(pickle.dumps(km))
    np.testing.assert_array_equal(loaded.predict(X), km.predict(X))


def test_trusted_hmd_pickle_roundtrip(data):
    X, y = data
    hmd = TrustedHMD(
        RandomForestClassifier(n_estimators=10, random_state=0), threshold=0.4
    ).fit(X, y)
    loaded = pickle.loads(pickle.dumps(hmd))
    original = hmd.analyze(X)
    restored = loaded.analyze(X)
    np.testing.assert_array_equal(restored.predictions, original.predictions)
    np.testing.assert_allclose(restored.entropy, original.entropy)
    np.testing.assert_array_equal(restored.accepted, original.accepted)


# -- fleet state snapshot()/restore() round-trips ---------------------------


class TestRingBufferSnapshot:
    def test_roundtrip_exact(self):
        buffer = RingBuffer(8)
        buffer.extend(np.arange(13.0))  # wrapped: rotation matters
        restored = RingBuffer.restore(
            pickle.loads(pickle.dumps(buffer.snapshot()))
        )
        np.testing.assert_array_equal(restored.values(), buffer.values())
        assert restored.mean() == buffer.mean()  # bit-exact, not approx
        restored.push(99.0)
        buffer.push(99.0)
        np.testing.assert_array_equal(restored.values(), buffer.values())

    def test_partial_fill(self):
        buffer = RingBuffer(16)
        buffer.extend([1.0, 2.0, 3.0])
        restored = RingBuffer.restore(buffer.snapshot())
        assert len(restored) == 3
        np.testing.assert_array_equal(restored.values(), [1.0, 2.0, 3.0])


class TestMonitorStatsSnapshot:
    def test_roundtrip(self):
        stats = MonitorStats()
        stats.record_verdicts(
            np.array([0, 1, 1]),
            np.array([0.1, 0.9, 0.2]),
            np.array([True, False, True]),
        )
        restored = MonitorStats.restore(
            pickle.loads(pickle.dumps(stats.snapshot()))
        )
        assert restored == stats


class TestDeviceStateSnapshot:
    def test_roundtrip(self):
        state = DeviceState(device_id="dev-7", cohort="zero_day")
        entropy = np.array([0.3, 0.1, 0.8])
        state.stats.record_verdicts(
            np.array([1, 0, 1]), entropy, np.array([True, True, False])
        )
        state.entropy_recent.extend(entropy)
        state.last_step = 42
        restored = DeviceState.restore(
            pickle.loads(pickle.dumps(state.snapshot()))
        )
        assert restored.device_id == "dev-7"
        assert restored.cohort == "zero_day"
        assert restored.last_step == 42
        assert restored.stats == state.stats
        assert restored.recent_entropy == state.recent_entropy
        np.testing.assert_array_equal(
            restored.entropy_recent.values(), state.entropy_recent.values()
        )


class TestForensicQueueSnapshot:
    def test_roundtrip(self):
        queue = ForensicQueue(maxlen=50)
        for step in range(5):
            queue.push(
                FlaggedSample(
                    features=np.full(3, float(step)),
                    prediction=step % 2,
                    entropy=0.5 + step,
                    step=step,
                )
            )
        queue.drain(2)  # partial consumption before the checkpoint
        restored = ForensicQueue.restore(
            pickle.loads(pickle.dumps(queue.snapshot())),
            maxlen=queue.maxlen,
            total_flagged=queue.total_flagged,
        )
        assert len(restored) == len(queue)
        assert restored.total_flagged == queue.total_flagged
        assert restored.maxlen == queue.maxlen
        for a, b in zip(restored.snapshot(), queue.snapshot()):
            assert (a.prediction, a.entropy, a.step) == (
                b.prediction,
                b.entropy,
                b.step,
            )

    def test_restore_default_counter(self):
        restored = ForensicQueue.restore(
            [
                FlaggedSample(
                    features=np.zeros(2), prediction=0, entropy=0.1, step=1
                )
            ]
        )
        assert restored.total_flagged == 1


class TestFleetQueueSnapshot:
    def test_roundtrip_preserves_order_and_sheds(self):
        from repro.fleet import BackpressurePolicy

        queue = FleetQueue(
            BackpressurePolicy(max_pending=6, shed="drop_oldest")
        )
        for seq in range(4):
            admit(queue, "a", np.full(2, float(seq)), seq)
        queue.submit_block(
            "b", np.arange(6.0).reshape(3, 2), np.arange(3)
        )
        admit(queue, "c", np.ones(2), 0)  # sheds a's oldest
        restored = FleetQueue.restore(
            pickle.loads(pickle.dumps(queue.snapshot()))
        )
        assert len(restored) == len(queue)
        assert restored.shed_by_device == queue.shed_by_device
        original = queue.take(100)
        copy = restored.take(100)
        assert copy.device_ids.tolist() == original.device_ids.tolist()
        assert copy.seqs.tolist() == original.seqs.tolist()
        np.testing.assert_array_equal(copy.features, original.features)


def test_fleet_monitor_snapshot_restores_against_pickled_hmd(data):
    """The full persistence story: pickle the model, snapshot the state."""
    X, y = data
    hmd = TrustedHMD(
        RandomForestClassifier(n_estimators=8, random_state=0), threshold=0.4
    ).fit(X, y)
    monitor = FleetMonitor(hmd, batch_size=16)
    for i in range(40):
        monitor.submit(f"dev-{i % 4}", X[i])
    monitor.drain(max_batches=1)  # leave a backlog mid-stream

    model_blob = pickle.dumps(hmd)
    state_blob = pickle.dumps(monitor.snapshot())
    restored = FleetMonitor.restore(
        pickle.loads(model_blob), pickle.loads(state_blob)
    )
    original = monitor.drain()
    copy = restored.drain()
    assert len(copy) == len(original)
    for a, b in zip(copy, original):
        np.testing.assert_array_equal(a.predictions, b.predictions)
        np.testing.assert_array_equal(a.entropy, b.entropy)
        np.testing.assert_array_equal(a.accepted, b.accepted)
