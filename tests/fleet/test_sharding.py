"""Tests for the sharded fleet subsystem.

The load-bearing guarantees, in the order the module builds them up:

1. :class:`ShardRouter` assignments are stable and rebalance plans are
   deterministic and minimal;
2. :class:`FleetQueue` (the arena queue every shard runs) reproduces
   the plain-list policy oracle (``tests.oracles.queue_policy``)
   operation for operation (fuzzed over submit/submit_block/take
   interleavings and every shed mode);
3. :class:`PublishedHmd` verdicts (the count-table verdict function)
   are bitwise identical to ``TrustedHMD.analyze`` (fuzzed over
   ensemble kinds, sizes, depths and class counts);
4. :class:`FleetMonitor` gives every window ``TrustedHMD.analyze``'s
   verdict in every cell of one matrix (partition count x compile mode
   x telemetry), and a K-partition monitor is indistinguishable from a
   one-partition one over the same traffic: identical device report
   rows and forensic streams — fuzzed over partition counts, device
   counts and backpressure policies;
5. snapshot/restore and rebalance keep all of the above mid-stream.
"""

import dataclasses
import pickle

import numpy as np
import pytest

from repro.fleet import (
    BackpressurePolicy,
    FleetMonitor,
    FleetQueue,
    FleetRetrainer,
    PublishedHmd,
    ShardRouter,
    WindowBatch,
)
from repro.fleet.engine import batch_verdict_key
from repro.fleet.report import device_report_key
from repro.fleet.sharding import SNAPSHOT_SCHEMA
from repro.fleet.state import RingBuffer
from repro.ml import BaggingClassifier, RandomForestClassifier
from repro.obs import TraceContext, TraceSampler
from repro.uncertainty import MonitorStats, TrustedHMD
from tests.conftest import make_blobs
from tests.oracles.queue_policy import POLICIES, PolicyModel, admit, random_ops, replay


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
        (s.device_id, s.seq, s.prediction, s.entropy) for s in queue.snapshot()
    ]


class TestShardRouter:
    def test_assignment_stable_and_in_range(self):
        router = ShardRouter(5)
        ids = [f"device-{i}" for i in range(200)]
        first = [router.shard_of(d) for d in ids]
        assert all(0 <= s < 5 for s in first)
        assert [ShardRouter(5).shard_of(d) for d in ids] == first

    def test_spreads_devices(self):
        router = ShardRouter(4)
        spread = router.spread(f"device-{i}" for i in range(400))
        assert set(spread) == {0, 1, 2, 3}
        assert all(len(v) > 40 for v in spread.values())

    def test_invalid_shard_count(self):
        with pytest.raises(ValueError):
            ShardRouter(0)

    def test_rebalance_plan_lists_only_moves(self):
        router = ShardRouter(4)
        ids = [f"device-{i}" for i in range(100)]
        plan = router.plan_rebalance(ids, 6)
        new_router = ShardRouter(6)
        for device_id in ids:
            old, new = router.shard_of(device_id), new_router.shard_of(device_id)
            if old != new:
                assert plan[device_id] == (old, new)
            else:
                assert device_id not in plan

    def test_rebalance_plan_deterministic(self):
        ids = [f"device-{i}" for i in range(50)]
        assert ShardRouter(3).plan_rebalance(ids, 7) == ShardRouter(
            3
        ).plan_rebalance(ids, 7)


class TestShardQueue:
    """The arena queue every partition runs, against the policy oracle."""

    @pytest.mark.parametrize("policy_idx", range(len(POLICIES)))
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_fleet_queue_semantics(self, policy_idx, seed):
        """Same ops → same takes, same sheds, same pending, row for row."""
        policy = POLICIES[policy_idx]
        rng = np.random.default_rng(1000 * policy_idx + seed)
        ops = random_ops(rng, n_devices=6, n_ops=120)
        model, queue = PolicyModel(policy), FleetQueue(policy)
        reference, ref_admitted = replay(model, ops)
        actual, actual_admitted = replay(queue, ops)
        assert actual == reference
        assert actual_admitted == ref_admitted
        assert queue.shed_by_device == model.shed_by_device
        # Drain the rest and compare the tails too.
        assert replay(queue, [("take", 10_000)]) == replay(model, [("take", 10_000)])

    def test_shed_accounting_matches(self):
        policy = BackpressurePolicy(max_pending=100, max_pending_per_device=3)
        reference, shard_queue = PolicyModel(policy), FleetQueue(policy)
        for queue in (reference, shard_queue):
            for seq in range(10):
                admit(queue, "chatty", np.zeros(3) + seq, seq)
            admit(queue, "quiet", np.ones(3), 0)
        assert shard_queue.shed_by_device == reference.shed_by_device
        assert shard_queue.pending("chatty") == reference.pending("chatty")
        assert shard_queue.pending("quiet") == reference.pending("quiet")
        assert len(shard_queue) == len(reference)
        assert shard_queue.total_shed == reference.total_shed

    def test_take_returns_indexed_batch(self):
        queue = FleetQueue()
        queue.submit_block("a", np.arange(8.0).reshape(2, 4), [0, 1])
        admit(queue, "b", np.zeros(4), 0)
        batch = queue.take(3)
        assert isinstance(batch, WindowBatch)
        assert batch.device_ids.tolist() == ["a", "a", "b"]
        assert batch.device_index.tolist() == [0, 0, 1]
        assert batch.seqs.tolist() == [0, 1, 0]

    def test_uncongested_take_is_zero_copy(self):
        queue = FleetQueue()
        queue.submit_block("a", np.arange(12.0).reshape(3, 4), [0, 1, 2])
        batch = queue.take(2)
        assert batch.features.base is not None  # a view of the arena

    def test_ragged_rows_rejected(self):
        queue = FleetQueue()
        admit(queue, "a", np.zeros(4), 0)
        with pytest.raises(ValueError):
            admit(queue, "a", np.zeros(5), 1)

    def test_take_validates_n(self):
        with pytest.raises(ValueError):
            FleetQueue().take(0)

    def test_extract_device_moves_rows(self):
        queue = FleetQueue()
        queue.submit_block("a", np.ones((3, 2)), [0, 1, 2])
        queue.submit_block("b", np.full((2, 2), 2.0), [0, 1])
        admit(queue, "a", np.full(2, 3.0), 3)
        features, seqs = queue.extract_device("a")
        assert seqs.tolist() == [0, 1, 2, 3]
        assert features.shape == (4, 2)
        assert queue.pending("a") == 0
        assert queue.total_shed == 0  # moved, not shed
        remaining = queue.take(10)
        assert remaining.device_ids.tolist() == ["b", "b"]

    def test_drained_devices_release_eviction_lookups(self):
        """Under a per-device cap, consumed rows must not pin arena
        blocks once every device has drained."""
        policy = BackpressurePolicy(max_pending=10_000, max_pending_per_device=32)
        queue = FleetQueue(policy)
        for d in range(100):
            queue.submit_block(
                f"dev-{d}", np.full((16, 3), float(d)), np.arange(16)
            )
        assert queue.arena_blocks == 2
        while len(queue):
            queue.take(64)
        assert queue.arena_blocks <= 1
        assert queue._dead_count == 0
        assert all(queue.pending(f"dev-{d}") == 0 for d in range(100))
        assert queue.shed_by_device == {}

    def test_snapshot_restore_roundtrip(self):
        policy = BackpressurePolicy(max_pending=50, max_pending_per_device=8)
        queue = FleetQueue(policy)
        rng = np.random.default_rng(3)
        ops = random_ops(rng, n_devices=4, n_ops=60)
        replay(queue, ops)
        restored = FleetQueue.restore(pickle.loads(pickle.dumps(queue.snapshot())))
        assert len(restored) == len(queue)
        assert restored.shed_by_device == queue.shed_by_device
        original = queue.take(10_000)
        copy = restored.take(10_000)
        assert copy.device_ids.tolist() == original.device_ids.tolist()
        assert copy.seqs.tolist() == original.seqs.tolist()
        np.testing.assert_array_equal(copy.features, original.features)


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
            FleetMonitor(hmd, n_shards=2)


MATRIX_MODES = ("float64", "float32", "quantized")


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
    """The same window gets the same verdict in every in-process cell:
    partition count x compile mode x telemetry on/off, each checked
    against ``TrustedHMD.analyze`` on the same rows."""

    @pytest.mark.parametrize("telemetry", [False, True], ids=["plain", "telemetry"])
    @pytest.mark.parametrize("mode", MATRIX_MODES)
    @pytest.mark.parametrize("n_shards", [1, 2, 3])
    def test_verdicts_match_analyze(self, mode_hmds, n_shards, mode, telemetry):
        X, hmds = mode_hmds
        hmd = hmds[mode]
        arrivals = _arrivals(X, n_devices=13, rounds=20)
        policy = BackpressurePolicy(max_pending=len(arrivals) + 1)
        observe = (
            {"telemetry": True, "tracer": TraceContext(TraceSampler(rate=4))}
            if telemetry
            else {}
        )
        monitor = FleetMonitor(
            hmd, n_shards=n_shards, batch_size=64, policy=policy, **observe
        )
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


class TestShardedEquivalence:
    @pytest.mark.parametrize(
        "n_devices,rounds,batch_size", [(1, 30, 16), (7, 11, 8), (37, 6, 64)]
    )
    def test_fuzz_device_counts_and_batch_sizes(
        self, fitted_hmd, n_devices, rounds, batch_size
    ):
        X, y, hmd = fitted_hmd
        arrivals = _arrivals(X, n_devices=n_devices, rounds=rounds, seed=7)
        single = FleetMonitor(hmd, batch_size=batch_size)
        sharded = FleetMonitor(
            hmd, n_shards=4, batch_size=batch_size
        )
        single_batches = _drive(single, arrivals)
        sharded_batches = _drive(sharded, arrivals)
        assert batch_verdict_key(sharded_batches) == batch_verdict_key(
            single_batches
        )
        assert device_report_key(sharded.report()) == device_report_key(single.report())

    def test_merged_report_consistency(self, fitted_hmd):
        X, y, hmd = fitted_hmd
        arrivals = _arrivals(X, n_devices=24, rounds=15, seed=3)
        single = FleetMonitor(hmd, batch_size=32)
        sharded = FleetMonitor(hmd, n_shards=4, batch_size=32)
        _drive(single, arrivals)
        _drive(sharded, arrivals)
        reference, merged = single.report(), sharded.report()
        assert merged.n_devices == reference.n_devices
        assert merged.n_seen == reference.n_seen
        assert merged.n_accepted == reference.n_accepted
        assert merged.n_flagged == reference.n_flagged
        assert merged.n_malware_alerts == reference.n_malware_alerts
        assert merged.n_shed == reference.n_shed
        assert merged.n_pending == reference.n_pending == 0
        assert merged.mean_entropy == pytest.approx(
            reference.mean_entropy, abs=1e-12
        )
        assert device_report_key(merged) == device_report_key(reference)
        # Facade-level merged stats mirror the single monitor's.
        assert sharded.stats.n_seen == single.stats.n_seen
        assert sharded.stats.n_flagged == single.stats.n_flagged

    def test_forensic_streams_identical(self, fitted_hmd):
        X, y, hmd = fitted_hmd
        arrivals = _arrivals(X, n_devices=9, rounds=25, seed=5)
        single = FleetMonitor(hmd, batch_size=48)
        sharded = FleetMonitor(hmd, n_shards=3, batch_size=48)
        _drive(single, arrivals)
        _drive(sharded, arrivals)
        reference = _forensic_stream(single.forensics)
        merged = _forensic_stream(sharded.forensics)
        # Same flagged windows with identical verdicts; global order may
        # interleave differently across shards, per-device order must not.
        assert sorted(merged) == sorted(reference)
        for device_id in {s[0] for s in reference}:
            assert [s for s in merged if s[0] == device_id] == [
                s for s in reference if s[0] == device_id
            ]

    def test_per_device_caps_shed_identically(self, fitted_hmd):
        X, y, hmd = fitted_hmd
        policy = BackpressurePolicy(max_pending=10_000, max_pending_per_device=6)
        arrivals = _arrivals(X, n_devices=11, rounds=30, seed=9)
        single = FleetMonitor(hmd, batch_size=64, policy=policy)
        sharded = FleetMonitor(
            hmd, n_shards=4, batch_size=64, policy=policy
        )
        single_batches = _drive(single, arrivals)
        sharded_batches = _drive(sharded, arrivals)
        merged_shed = {}
        for shard in sharded.shards:
            merged_shed.update(shard.queue.shed_by_device)
        assert merged_shed == single.queue.shed_by_device
        assert batch_verdict_key(sharded_batches) == batch_verdict_key(
            single_batches
        )

    @pytest.mark.parametrize("shed", ["drop_oldest", "drop_newest"])
    def test_drop_modes_with_interleaved_drains(self, fitted_hmd, shed):
        """Backpressure fuzz: submit/drain interleave, caps tripping."""
        X, y, hmd = fitted_hmd
        policy = BackpressurePolicy(
            max_pending=10_000, max_pending_per_device=4, shed=shed
        )
        arrivals = _arrivals(X, n_devices=8, rounds=24, seed=13)
        single = FleetMonitor(hmd, batch_size=32, policy=policy)
        sharded = FleetMonitor(hmd, n_shards=3, batch_size=32, policy=policy)
        results = {}
        for name, monitor in (("single", single), ("sharded", sharded)):
            batches = []
            for i, (device_id, window) in enumerate(arrivals):
                monitor.submit(device_id, window)
                if i % 40 == 39:
                    result = monitor.process_batch()
                    if result is not None:
                        batches.append(result)
            batches.extend(monitor.drain())
            results[name] = batches
        # Per-device caps see identical per-device pressure in both
        # topologies even mid-drain, so sheds and verdicts agree.
        assert batch_verdict_key(results["sharded"]) == batch_verdict_key(
            results["single"]
        )

    def test_submit_many_block_path(self, fitted_hmd):
        X, y, hmd = fitted_hmd
        rng = np.random.default_rng(2)
        single = FleetMonitor(hmd, batch_size=50)
        sharded = FleetMonitor(hmd, n_shards=4, batch_size=50)
        blocks = {
            f"dev-{d:03d}": X[rng.integers(len(X), size=12)] for d in range(17)
        }
        for monitor in (single, sharded):
            for device_id, windows in blocks.items():
                assert monitor.submit_many(device_id, windows) == 12
        assert batch_verdict_key(sharded.drain()) == batch_verdict_key(
            single.drain()
        )

    def test_facade_api_parity(self, fitted_hmd):
        X, y, hmd = fitted_hmd
        sharded = FleetMonitor(hmd, n_shards=2, batch_size=16)
        assert sharded.pending == 0
        assert sharded.process_batch() is None
        sharded.register("dev-a", cohort="benign")
        assert sharded.submit("dev-a", X[0])
        assert sharded.pending == 1
        with pytest.raises(ValueError):
            sharded.submit("dev-a", X[0][:-1])  # ragged window
        result = sharded.process_batch()
        assert result.device_ids.tolist() == ["dev-a"]
        assert sharded.report().devices[0].cohort == "benign"

    def test_requires_fitted_hmd(self):
        with pytest.raises(ValueError):
            FleetMonitor(
                TrustedHMD(RandomForestClassifier(n_estimators=3)), n_shards=4
            )


def _zero_day(seed, n, d):
    """A tight novel cluster far outside the training distribution."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d)) * 0.4
    X[:, 1] += 10.0
    return X


class TestRetrainIntegration:
    def test_sharded_retrain_republishes(self, fitted_hmd):
        X, y, _ = fitted_hmd
        hmd = TrustedHMD(
            RandomForestClassifier(
                n_estimators=10, random_state=0, grower="hist"
            ),
            threshold=0.40,
        ).fit(X, y)
        sharded = FleetMonitor(hmd, n_shards=3, batch_size=32)
        retrainer = FleetRetrainer(
            sharded, labeler=lambda cluster: 1, X_train=X, y_train=y,
            min_batch=8,
        )
        epoch_before = sharded.published
        # A zero-day cluster: high-entropy windows flood the forensic
        # stream and trigger warm retrains mid-drain.
        for i, window in enumerate(_zero_day(seed=21, n=80, d=X.shape[1])):
            sharded.submit(f"dev-{i % 6:03d}", window)
        outcomes = retrainer.drain()
        assert any(outcome.retrained for outcome in outcomes)
        assert len(sharded.forensics) == 0  # fully triaged
        sharded.submit("dev-000", X[0])
        sharded.process_batch()
        # The monitor republished the shared view after the warm refit.
        assert sharded.published is not epoch_before
        assert sharded.published.is_current()

    @pytest.mark.parametrize(
        "make_monitor",
        [
            pytest.param(lambda hmd: FleetMonitor(hmd, batch_size=64), id="single"),
            pytest.param(
                lambda hmd: FleetMonitor(hmd, n_shards=2, batch_size=64),
                id="sharded",
            ),
        ],
    )
    def test_post_retrain_verdicts_match_single(self, fitted_hmd, make_monitor):
        """After a warm refit or a threshold change, verdicts track analyze.

        Both monitors cache vote-count tables; each change lands between
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
        monitor = make_monitor(hmd)
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
        fleet = FleetMonitor(hmd, n_shards=2)
        assert fleet.snapshot()["schema"] == SNAPSHOT_SCHEMA

    def test_rejects_unversioned_payload(self, fitted_hmd):
        _, _, hmd = fitted_hmd
        state = FleetMonitor(hmd, n_shards=2).snapshot()
        del state["schema"]
        with pytest.raises(ValueError, match="snapshot schema"):
            FleetMonitor.restore(hmd, state)

    def test_rejects_foreign_schema(self, fitted_hmd):
        _, _, hmd = fitted_hmd
        state = FleetMonitor(hmd, n_shards=2).snapshot()
        state["schema"] = "repro.fleet.sharded/999"
        with pytest.raises(ValueError, match="repro.fleet.sharded/999"):
            FleetMonitor.restore(hmd, state)

    def test_rejects_non_dict_payload(self, fitted_hmd):
        _, _, hmd = fitted_hmd
        with pytest.raises(ValueError, match="must be a dict"):
            FleetMonitor.restore(hmd, [1, 2, 3])

    def test_rejects_truncated_payload(self, fitted_hmd):
        _, _, hmd = fitted_hmd
        state = FleetMonitor(hmd, n_shards=2).snapshot()
        del state["shards"]
        with pytest.raises(ValueError, match="missing required keys"):
            FleetMonitor.restore(hmd, state)

    def test_rejects_shard_count_mismatch(self, fitted_hmd):
        _, _, hmd = fitted_hmd
        state = FleetMonitor(hmd, n_shards=3).snapshot()
        state["n_shards"] = 2
        with pytest.raises(ValueError, match="mismatched"):
            FleetMonitor.restore(hmd, state)

    def test_rejects_incompatible_policy(self, fitted_hmd):
        _, _, hmd = fitted_hmd
        state = FleetMonitor(hmd, n_shards=2).snapshot()
        state["policy"]["no_such_knob"] = 1
        with pytest.raises(ValueError, match="BackpressurePolicy"):
            FleetMonitor.restore(hmd, state)


class TestSnapshotRestore:
    def test_parent_device_table_payload_round_trips(self, fitted_hmd):
        """Per-object device records restore into the columnar table,
        re-snapshot to the same payload and survive two rebalances."""
        X, y, hmd = fitted_hmd
        state = parent_table_checkpoint(X)
        fleet = FleetMonitor.restore(hmd, pickle.loads(pickle.dumps(state)))
        assert_payloads_equal(fleet.snapshot(), state)
        rows = {d["device_id"]: d for d in state["shards"][0]["devices"]}
        assert fleet.devices["dev-a"].recent_entropy == np.mean(
            rows["dev-a"]["entropy_recent"]["data"]
        )
        fleet.rebalance(3)
        fleet.rebalance(2)
        for shard in fleet.shards:
            for index in range(len(shard)):
                row = shard.row(index)
                assert_payloads_equal(row, rows[row["device_id"]])
        moved = fleet.snapshot()
        assert sorted(
            (name, seq) for s in moved["shards"] for name, seq in s["seq"].items()
        ) == [("dev-a", 12), ("dev-b", 2)]
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
        fleet = FleetMonitor(hmd, n_shards=1, batch_size=16)
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

        continuous = FleetMonitor(hmd, n_shards=3, batch_size=32)
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

    def test_restore_preserves_policy_through_rebalance(self, fitted_hmd):
        """The monitor policy survives restore — and a later rebalance
        builds its new shard queues with the original bounds."""
        X, y, hmd = fitted_hmd
        policy = BackpressurePolicy(max_pending=7, shed="drop_newest")
        fleet = FleetMonitor(hmd, n_shards=2, batch_size=8, policy=policy)
        fleet.submit_many("dev-a", X[:3])
        restored = FleetMonitor.restore(
            hmd, pickle.loads(pickle.dumps(fleet.snapshot()))
        )
        assert restored.policy == policy
        restored.rebalance(3)
        for shard in restored.shards:
            assert shard.queue.policy == policy

    def test_restore_rejects_mismatched_router(self, fitted_hmd):
        X, y, hmd = fitted_hmd
        fleet = FleetMonitor(hmd, n_shards=2, batch_size=8)
        state = fleet.snapshot()
        with pytest.raises(ValueError):
            FleetMonitor.restore(hmd, state, router=ShardRouter(5))

    def test_flag_storm_stays_bounded(self, fitted_hmd):
        """Columnar staging must not defeat the forensic memory cap."""
        X, y, hmd = fitted_hmd
        from repro.uncertainty.online import ForensicQueue

        sharded = FleetMonitor(
            hmd,
            n_shards=2,
            batch_size=64,
            forensics=ForensicQueue(maxlen=40),
        )
        # Every zero-day window gets flagged: a flag storm.
        storm = _zero_day(seed=3, n=400, d=X.shape[1])
        for i, window in enumerate(storm):
            sharded.submit(f"dev-{i % 4:03d}", window)
        sharded.drain()
        assert sharded._stage.rows <= sharded._stage.queue.maxlen
        assert len(sharded.forensics) <= 40
        assert sharded.forensics.total_flagged == sharded.stats.n_flagged
        assert sharded.stats.n_flagged > 40  # the cap actually bit

    def test_single_monitor_snapshot_roundtrip(self, fitted_hmd):
        X, y, hmd = fitted_hmd
        arrivals = _arrivals(X, n_devices=5, rounds=8, seed=33)
        monitor = FleetMonitor(hmd, batch_size=16)
        for device_id, window in arrivals:
            monitor.submit(device_id, window)
        monitor.drain(max_batches=1)
        restored = FleetMonitor.restore(
            hmd, pickle.loads(pickle.dumps(monitor.snapshot()))
        )
        assert restored.pending == monitor.pending
        original = monitor.drain()
        copy = restored.drain()
        assert batch_verdict_key(copy) == batch_verdict_key(original)
        assert device_report_key(restored.report()) == device_report_key(monitor.report())


class TestRebalance:
    def test_rebalance_preserves_verdicts(self, fitted_hmd):
        X, y, hmd = fitted_hmd
        arrivals = _arrivals(X, n_devices=12, rounds=16, seed=41)
        half = len(arrivals) // 2

        single = FleetMonitor(hmd, batch_size=32)
        sharded = FleetMonitor(hmd, n_shards=2, batch_size=32)
        for monitor in (single, sharded):
            for device_id, window in arrivals[:half]:
                monitor.submit(device_id, window)
        single_batches = single.drain(max_batches=2)
        sharded_batches = sharded.drain(max_batches=2)

        plan = sharded.rebalance(5)
        assert sharded.n_shards == 5
        assert all(new < 5 for _, new in plan.values())

        for monitor in (single, sharded):
            for device_id, window in arrivals[half:]:
                monitor.submit(device_id, window)
        single_batches += single.drain()
        sharded_batches += sharded.drain()
        assert batch_verdict_key(sharded_batches) == batch_verdict_key(
            single_batches
        )
        assert device_report_key(sharded.report()) == device_report_key(single.report())

    def test_rebalance_moves_backlog_and_state(self, fitted_hmd):
        X, y, hmd = fitted_hmd
        sharded = FleetMonitor(hmd, n_shards=2, batch_size=8)
        for d in range(8):
            sharded.submit_many(f"dev-{d:03d}", X[:5])
        pending_before = sharded.pending
        sharded.rebalance(4)
        assert sharded.pending == pending_before
        for shard_id, shard in enumerate(sharded.shards):
            for device_id in shard.devices:
                assert sharded.router.shard_of(device_id) == shard_id
        # Per-device seq counters moved with their devices.
        assert sharded.submit_many("dev-000", X[:2]) == 2
        batches = sharded.drain()
        seqs = np.concatenate(
            [b.seqs[b.device_ids == "dev-000"] for b in batches]
        )
        assert sorted(seqs.tolist()) == list(range(7))
