"""Tests for the multi-process shard worker backend.

Three layers, bottom up:

1. :mod:`repro.fleet.shm` — the block-slot ring round-trips batches
   and vote counts bitwise, and a model mapped from a shared
   publication counts votes bitwise like the parent's;
2. snapshot versioning — :meth:`FleetMonitor.restore` (and the
   worker backend's) reject stale, foreign or inconsistent checkpoints
   before touching any state;
3. :class:`WorkerShardedFleetMonitor` — indistinguishable from the
   single monitor and the in-process facade over the same traffic
   (verdicts, reports, forensics, backpressure counters), through
   SIGKILL mid-drain, hung-worker heartbeats, republish-on-retrain and
   checkpoint round trips in both directions.

The process-spawning tests carry the ``mp`` marker (deselect with
``-m "not mp"`` on constrained runners) and use the ``fork`` start
method for speed; one smoke test covers the default ``spawn`` path.
"""

import os
import signal

import numpy as np
import pytest

from repro.fleet import (
    BackpressurePolicy,
    FaultPlan,
    FleetMonitor,
    ShardHealth,
    ShardRouter,
    WorkerShardedFleetMonitor,
)
from repro.fleet.engine import batch_verdict_key
from repro.fleet.resilience import FaultEvent
from repro.fleet.report import device_report_key
from repro.fleet.sharding import SNAPSHOT_SCHEMA, PublishedHmd
from repro.fleet.shm import ShmBlockRing, _unlink, map_publication, publish_model
from repro.ml import RandomForestClassifier
from repro.uncertainty import TrustedHMD
from tests.conftest import make_blobs
from tests.fleet.test_sharding import (
    assert_schema1_resumes,
    schema1_checkpoint,
    three_class_blobs,
)

mp_mark = pytest.mark.mp


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
    return [
        (f"dev-{d:03d}", X[rng.integers(len(X))])
        for _ in range(rounds)
        for d in range(n_devices)
    ]


def _feed(monitor, arrivals):
    for device_id, _ in arrivals:
        monitor.register(device_id)
    for device_id, window in arrivals:
        monitor.submit(device_id, window)


def _forensic_stream(queue):
    return [
        (s.device_id, s.seq, s.prediction, s.entropy) for s in queue.snapshot()
    ]


# ---------------------------------------------------------------------------
# Shared-memory primitives
# ---------------------------------------------------------------------------


class TestShmBlockRing:
    def test_round_trips_blocks_bitwise(self):
        rng = np.random.default_rng(0)
        ring = ShmBlockRing(n_slots=3, capacity=8, n_features=5)
        try:
            attached = ShmBlockRing.attach(ring.spec())
            features = rng.normal(size=(6, 5))
            dev = rng.integers(0, 4, size=6)
            seqs = rng.integers(0, 100, size=6)
            n = ring.write_block(1, features, dev, seqs)
            assert n == 6
            slot = attached.slot(1)
            np.testing.assert_array_equal(slot["features"][:n], features)
            np.testing.assert_array_equal(slot["dev"][:n], dev)
            np.testing.assert_array_equal(slot["seqs"][:n], seqs)
            # Counts written through the attached mapping come back
            # through the owner as a fresh copy — once sealed with the
            # result checksum the worker would stamp.
            slot["counts"][:n] = seqs
            attached.seal_results(1, n)
            counts = ring.read_results(1, n)
            np.testing.assert_array_equal(counts, seqs)
            assert counts.dtype == np.int64
            slot["counts"][:n] = 0  # the copy must not alias the slot
            np.testing.assert_array_equal(counts, seqs)
            del slot  # views pin the mapping; drop before closing
            attached.close()
        finally:
            ring.close()

    def test_slots_are_independent(self):
        ring = ShmBlockRing(n_slots=2, capacity=4, n_features=2)
        try:
            a = np.ones((4, 2))
            b = np.full((4, 2), 7.0)
            ring.write_block(0, a, np.zeros(4, int), np.arange(4))
            ring.write_block(1, b, np.ones(4, int), np.arange(4))
            np.testing.assert_array_equal(ring.slot(0)["features"], a)
            np.testing.assert_array_equal(ring.slot(1)["features"], b)
        finally:
            ring.close()


def _assert_expands_to_analyze(published, counts, hmd, X):
    """The parent's tables turn mapped counts into ``analyze``, bitwise."""
    reference = hmd.analyze(X)
    predictions, entropy, accepted = published.tables.expand(counts)
    np.testing.assert_array_equal(predictions, reference.predictions)
    np.testing.assert_array_equal(entropy, reference.entropy)
    np.testing.assert_array_equal(accepted, reference.accepted)


class TestModelPublication:
    def test_mapped_tables_verdicts_bitwise(self, fitted_hmd):
        X, _, hmd = fitted_hmd
        published = PublishedHmd(hmd)
        header, segment = publish_model(published, generation=3)
        mapped = map_publication(header)
        try:
            assert mapped.generation == 3
            for n in (1, 37, 400):
                Xq = X[:n]
                counts = mapped.counts(Xq)
                np.testing.assert_array_equal(counts, published.counts(Xq))
                _assert_expands_to_analyze(published, counts, hmd, Xq)
        finally:
            mapped.close()
            segment.close()
            _unlink(segment)

    def test_mapped_pca_front_verdicts_bitwise(self):
        X, y = make_blobs(n_per_class=100, separation=2.0, seed=12)
        hmd = TrustedHMD(
            RandomForestClassifier(n_estimators=10, random_state=0),
            threshold=0.35,
            n_components=2,
        ).fit(X, y)
        published = PublishedHmd(hmd)
        header, segment = publish_model(published)
        mapped = map_publication(header)
        try:
            counts = mapped.counts(X)
            np.testing.assert_array_equal(counts, published.counts(X))
            _assert_expands_to_analyze(published, counts, hmd, X)
        finally:
            mapped.close()
            segment.close()
            _unlink(segment)


    def test_refuses_model_without_count_tables_before_spawning(
        self, monkeypatch
    ):
        X, y = three_class_blobs()
        hmd = TrustedHMD(
            RandomForestClassifier(n_estimators=12, random_state=0),
            threshold=0.8,
        ).fit(X, y)
        spawned = []
        monkeypatch.setattr(
            WorkerShardedFleetMonitor, "_spawn_process", spawned.append
        )
        with pytest.raises(ValueError, match="OnlineMonitor"):
            WorkerShardedFleetMonitor(hmd, n_shards=2, mp_context="fork")
        assert spawned == []


# ---------------------------------------------------------------------------
# Snapshot versioning
# ---------------------------------------------------------------------------


class TestSnapshotVersioning:
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

    def test_worker_restore_validates_before_spawning(self, fitted_hmd):
        _, _, hmd = fitted_hmd
        with pytest.raises(ValueError, match="snapshot schema"):
            WorkerShardedFleetMonitor.restore(hmd, {"schema": "bogus"})

    def test_worker_restore_checks_router_before_spawning(
        self, fitted_hmd, monkeypatch
    ):
        _, _, hmd = fitted_hmd
        state = FleetMonitor(hmd, n_shards=2).snapshot()
        spawned = []
        monkeypatch.setattr(
            WorkerShardedFleetMonitor,
            "_spawn_process",
            lambda self, handle: spawned.append(handle.shard_id),
        )
        with pytest.raises(ValueError, match="router has 3 shards"):
            WorkerShardedFleetMonitor.restore(
                hmd, state, router=ShardRouter(3), mp_context="fork"
            )
        assert spawned == []

    def test_worker_restore_checks_queue_kind_before_spawning(
        self, fitted_hmd, monkeypatch
    ):
        """A retired queue payload is refused before any worker starts
        (and before any shm segment is mapped)."""
        _, _, hmd = fitted_hmd
        state = FleetMonitor(hmd, n_shards=2).snapshot()
        state["shards"][1]["queue"] = {
            "kind": "fleet",
            "policy": state["shards"][1]["queue"]["policy"],
            "segments": [],
            "shed_by_device": {},
        }
        spawned = []
        monkeypatch.setattr(
            WorkerShardedFleetMonitor,
            "_spawn_process",
            lambda self, handle: spawned.append(handle.shard_id),
        )
        with pytest.raises(ValueError, match="'fleet'.*segments"):
            WorkerShardedFleetMonitor.restore(hmd, state, mp_context="fork")
        assert spawned == []


# ---------------------------------------------------------------------------
# The multi-process facade
# ---------------------------------------------------------------------------


def _worker_fleet(hmd, **kwargs):
    kwargs.setdefault("mp_context", "fork")
    return WorkerShardedFleetMonitor(hmd, **kwargs)


@mp_mark
class TestWorkerEquivalence:
    def test_matches_single_monitor_and_inprocess_facade(self, fitted_hmd):
        X, _, hmd = fitted_hmd
        arrivals = _arrivals(X, n_devices=12, rounds=8)
        single = FleetMonitor(hmd, batch_size=64)
        _feed(single, arrivals)
        single_results = single.drain()
        inproc = FleetMonitor(hmd, n_shards=3, batch_size=64)
        _feed(inproc, arrivals)
        inproc_results = inproc.drain()
        with _worker_fleet(hmd, n_shards=3, batch_size=64) as fleet:
            _feed(fleet, arrivals)
            results = fleet.drain()
            key = batch_verdict_key(results)
            assert key == batch_verdict_key(single_results)
            assert key == batch_verdict_key(inproc_results)
            report = device_report_key(fleet.report())
            assert report == device_report_key(single.report())
            assert report == device_report_key(inproc.report())
            assert sorted(_forensic_stream(fleet.forensics)) == sorted(
                _forensic_stream(single.forensics)
            )
            merged = fleet.stats
            assert (merged.n_seen, merged.n_flagged) == (
                single.stats.n_seen,
                single.stats.n_flagged,
            )

    def test_pipelined_drain_matches_process_batch(self, fitted_hmd):
        X, _, hmd = fitted_hmd
        arrivals = _arrivals(X, n_devices=10, rounds=12, seed=3)
        with _worker_fleet(
            hmd, n_shards=2, batch_size=32, pipeline_depth=3
        ) as deep:
            _feed(deep, arrivals)
            deep_results = deep.drain()
        with _worker_fleet(
            hmd, n_shards=2, batch_size=32, pipeline_depth=1
        ) as shallow:
            _feed(shallow, arrivals)
            shallow_results = []
            while True:
                result = shallow.process_batch()
                if result is None:
                    break
                shallow_results.append(result)
        assert batch_verdict_key(deep_results) == batch_verdict_key(
            shallow_results
        )

    def test_backpressure_counters_track_parent_queues(self, fitted_hmd):
        X, _, hmd = fitted_hmd
        policy = BackpressurePolicy(
            max_pending=64, max_pending_per_device=6, shed="drop_oldest"
        )
        arrivals = _arrivals(X, n_devices=8, rounds=20, seed=4)
        reference = FleetMonitor(
            hmd, n_shards=2, batch_size=32, policy=policy
        )
        _feed(reference, arrivals)
        with _worker_fleet(
            hmd, n_shards=2, batch_size=32, policy=policy
        ) as fleet:
            _feed(fleet, arrivals)
            assert fleet.pending == reference.pending
            # Reports before any drain: shed/pending come from the
            # parent queues, verdict counters are all zero.
            assert device_report_key(fleet.report()) == device_report_key(
                reference.report()
            )
            fleet.drain()
            reference.drain()
            assert device_report_key(fleet.report()) == device_report_key(
                reference.report()
            )

    def test_max_batches_caps_the_drain(self, fitted_hmd):
        X, _, hmd = fitted_hmd
        with _worker_fleet(hmd, n_shards=2, batch_size=16) as fleet:
            _feed(fleet, _arrivals(X, n_devices=6, rounds=40, seed=5))
            results = fleet.drain(max_batches=2)
            assert len(results) == 2
            assert fleet.pending > 0

    def test_spawn_context_smoke(self, fitted_hmd):
        X, _, hmd = fitted_hmd
        arrivals = _arrivals(X, n_devices=6, rounds=4, seed=6)
        single = FleetMonitor(hmd, batch_size=64)
        _feed(single, arrivals)
        reference = single.drain()
        with WorkerShardedFleetMonitor(
            hmd, n_shards=2, batch_size=64, mp_context="spawn"
        ) as fleet:
            _feed(fleet, arrivals)
            assert batch_verdict_key(fleet.drain()) == batch_verdict_key(
                reference
            )

    def test_rebalance_is_explicitly_unsupported(self, fitted_hmd):
        _, _, hmd = fitted_hmd
        with _worker_fleet(hmd, n_shards=2) as fleet:
            with pytest.raises(NotImplementedError, match="snapshot"):
                fleet.rebalance(4)


@mp_mark
class TestSupervision:
    def test_sigkill_mid_drain_resumes_identically(self, fitted_hmd):
        X, _, hmd = fitted_hmd
        arrivals = _arrivals(X, n_devices=16, rounds=30, seed=2)
        reference = FleetMonitor(hmd, n_shards=3, batch_size=64)
        _feed(reference, arrivals)
        reference_results = reference.drain()
        with _worker_fleet(
            hmd,
            n_shards=3,
            batch_size=64,
            worker_timeout=30,
        ) as fleet:
            _feed(fleet, arrivals)
            results = []
            killed = False
            while True:
                result = fleet.process_batch()
                if result is None:
                    break
                results.append(result)
                if len(results) == 2 and not killed:
                    os.kill(fleet.handles[1].proc.pid, signal.SIGKILL)
                    killed = True
            assert killed
            assert batch_verdict_key(results) == batch_verdict_key(
                reference_results
            )
            assert device_report_key(fleet.report()) == device_report_key(
                reference.report()
            )
            assert sorted(_forensic_stream(fleet.forensics)) == sorted(
                _forensic_stream(reference.forensics)
            )

    def test_heartbeat_restarts_dead_worker(self, fitted_hmd):
        X, _, hmd = fitted_hmd
        arrivals = _arrivals(X, n_devices=8, rounds=6, seed=7)
        single = FleetMonitor(hmd, batch_size=64)
        _feed(single, arrivals)
        reference = single.drain()
        with _worker_fleet(hmd, n_shards=2, batch_size=64) as fleet:
            assert fleet.heartbeat() == []
            os.kill(fleet.handles[0].proc.pid, signal.SIGKILL)
            assert fleet.heartbeat() == [0]
            assert fleet.heartbeat() == []
            # The replacement worker serves traffic with no state loss.
            _feed(fleet, arrivals)
            assert batch_verdict_key(fleet.drain()) == batch_verdict_key(
                reference
            )

    def test_gives_up_after_max_restarts(self, fitted_hmd):
        _, _, hmd = fitted_hmd
        with _worker_fleet(
            hmd, n_shards=1, max_restarts=1, worker_timeout=5
        ) as fleet:
            handle = fleet.handles[0]
            with pytest.raises(RuntimeError, match="giving up"):
                for _ in range(4):
                    os.kill(handle.proc.pid, signal.SIGKILL)
                    handle.proc.join(timeout=5)
                    fleet.heartbeat()
                    # A successful restart resets the failure budget, so
                    # keep killing until two failures land back to back.

    def test_restart_storm_fails_over_mid_pipelined_drain(self, fitted_hmd):
        # A shard crashing on the first block of every incarnation trips
        # the circuit breaker while pipelined epochs are still in flight
        # on every shard; the parent must verdict the dead shard's blocks
        # with zero lost or duplicated verdicts.
        X, _, hmd = fitted_hmd
        arrivals = _arrivals(X, n_devices=24, rounds=10, seed=21)
        reference = FleetMonitor(hmd, n_shards=4, batch_size=32)
        _feed(reference, arrivals)
        ref_results = reference.drain()
        storm = FaultPlan(
            events=tuple(
                FaultEvent(shard_id=1, life=life, block=0, kind="crash")
                for life in range(8)
            )
        )
        with _worker_fleet(
            hmd, n_shards=4, batch_size=32, pipeline_depth=3,
            max_restarts=1, chaos=storm,
        ) as fleet:
            _feed(fleet, arrivals)
            results = fleet.drain()
            assert batch_verdict_key(results) == batch_verdict_key(
                ref_results
            )
            health = {r.shard_id: r.health for r in fleet.shard_health()}
            assert health[1] is ShardHealth.DEAD
            assert all(
                health[s] is not ShardHealth.DEAD for s in (0, 2, 3)
            )
            assert device_report_key(fleet.report()) == device_report_key(
                reference.report()
            )

    def test_republish_on_retrain_propagates_without_restart(self):
        X, y = make_blobs(n_per_class=120, separation=4.0, seed=71)
        hmd = TrustedHMD(
            RandomForestClassifier(n_estimators=20, random_state=0),
            threshold=0.4,
        ).fit(X, y)
        arrivals = _arrivals(X, n_devices=10, rounds=6, seed=8)
        reference = FleetMonitor(hmd, n_shards=2, batch_size=64)
        with _worker_fleet(hmd, n_shards=2, batch_size=64) as fleet:
            _feed(reference, arrivals)
            _feed(fleet, arrivals)
            assert batch_verdict_key(reference.drain()) == batch_verdict_key(
                fleet.drain()
            )
            pids = [handle.proc.pid for handle in fleet.handles]
            # Warm retrain: both facades see the same refreshed model.
            hmd.fit(X[::2], y[::2])
            tail = _arrivals(X, n_devices=10, rounds=6, seed=9)
            _feed(reference, tail)
            _feed(fleet, tail)
            assert batch_verdict_key(reference.drain()) == batch_verdict_key(
                fleet.drain()
            )
            assert fleet._generation == 1
            # Same processes throughout — republish, not restart.
            assert [handle.proc.pid for handle in fleet.handles] == pids
            assert device_report_key(fleet.report()) == device_report_key(
                reference.report()
            )


@mp_mark
class TestWorkerCheckpointing:
    def _driven_fleet(self, hmd, X):
        fleet = _worker_fleet(hmd, n_shards=3, batch_size=64)
        _feed(fleet, _arrivals(X, n_devices=12, rounds=10, seed=10))
        fleet.drain()
        # Leave a live backlog so the checkpoint carries queued rows.
        _feed(fleet, _arrivals(X, n_devices=12, rounds=2, seed=11))
        return fleet

    def test_round_trips_between_both_backends(self, fitted_hmd):
        X, _, hmd = fitted_hmd
        tail = _arrivals(X, n_devices=12, rounds=4, seed=12)
        with self._driven_fleet(hmd, X) as fleet:
            state = fleet.snapshot()
            assert state["schema"] == SNAPSHOT_SCHEMA
        inproc = FleetMonitor.restore(hmd, state)
        _feed(inproc, tail)
        inproc_results = inproc.drain()
        with WorkerShardedFleetMonitor.restore(
            hmd, state, mp_context="fork"
        ) as resumed:
            _feed(resumed, tail)
            assert batch_verdict_key(resumed.drain()) == batch_verdict_key(
                inproc_results
            )
            assert device_report_key(resumed.report()) == device_report_key(
                inproc.report()
            )

    def test_snapshot_carries_devices_registered_since_last_block(
        self, fitted_hmd
    ):
        # Devices registered after the last shipped block must be in the
        # snapshot (with their cohorts), exactly like the in-process one.
        X, _, hmd = fitted_hmd

        def snapshot_after_late_registrations(fleet):
            for d in range(8):
                fleet.register(f"dev-{d:03d}", cohort="benign")
            for d in range(4):
                fleet.submit_many(f"dev-{d:03d}", X[3 * d : 3 * d + 3])
            fleet.drain()
            for d in range(8, 12):
                fleet.register(f"dev-{d:03d}", cohort="malware")
            return fleet.snapshot()

        inproc = snapshot_after_late_registrations(
            FleetMonitor(hmd, n_shards=2, batch_size=16)
        )
        with _worker_fleet(hmd, n_shards=2, batch_size=16) as fleet:
            state = snapshot_after_late_registrations(fleet)
        assert sum(len(shard["devices"]) for shard in state["shards"]) == 12
        assert device_report_key(
            FleetMonitor.restore(hmd, state).report()
        ) == device_report_key(FleetMonitor.restore(hmd, inproc).report())

    def test_restores_hand_built_schema1_checkpoint(self, fitted_hmd):
        X, _, hmd = fitted_hmd
        with WorkerShardedFleetMonitor.restore(
            hmd, schema1_checkpoint(X), mp_context="fork"
        ) as fleet:
            assert_schema1_resumes(fleet, hmd, X)

    def test_inprocess_checkpoint_restores_into_workers(self, fitted_hmd):
        X, _, hmd = fitted_hmd
        arrivals = _arrivals(X, n_devices=10, rounds=8, seed=13)
        tail = _arrivals(X, n_devices=10, rounds=4, seed=14)
        source = FleetMonitor(hmd, n_shards=2, batch_size=64)
        _feed(source, arrivals)
        source.drain()
        _feed(source, tail[:20])
        state = source.snapshot()
        _feed(source, tail[20:])
        reference = source.drain()
        with WorkerShardedFleetMonitor.restore(
            hmd, state, mp_context="fork"
        ) as resumed:
            _feed(resumed, tail[20:])
            assert batch_verdict_key(resumed.drain()) == batch_verdict_key(
                reference
            )
            assert device_report_key(resumed.report()) == device_report_key(
                source.report()
            )

    def test_checkpoint_barrier_races_republish(self):
        # Snapshot taken between a warm retrain and the republish that
        # propagates it: the state was built under the old model
        # generation, and the restored fleet must resume on the new one.
        X, y = make_blobs(n_per_class=120, separation=4.0, seed=72)
        hmd = TrustedHMD(
            RandomForestClassifier(n_estimators=20, random_state=0),
            threshold=0.4,
        ).fit(X, y)
        arrivals = _arrivals(X, n_devices=12, rounds=8, seed=22)
        tail = _arrivals(X, n_devices=12, rounds=4, seed=23)
        reference = FleetMonitor(hmd, n_shards=2, batch_size=32)
        with _worker_fleet(
            hmd, n_shards=2, batch_size=32, pipeline_depth=3,
        ) as fleet:
            _feed(reference, arrivals)
            _feed(fleet, arrivals)
            ref_head = reference.drain(max_batches=4)
            head = fleet.drain(max_batches=4)
            assert batch_verdict_key(head) == batch_verdict_key(ref_head)
            hmd.fit(X[::2], y[::2])  # republish pending, not yet shipped
            state = fleet.snapshot()
            ref_tail = reference.drain()
            assert batch_verdict_key(fleet.drain()) == batch_verdict_key(
                ref_tail
            )
        # The checkpoint predates the republish; restoring it against
        # the retrained model must publish the new generation and stay
        # equivalent to an in-process restore of the same state.
        inproc = FleetMonitor.restore(hmd, state)
        _feed(inproc, tail)
        inproc_results = inproc.drain()
        with WorkerShardedFleetMonitor.restore(
            hmd, state, mp_context="fork"
        ) as resumed:
            _feed(resumed, tail)
            assert batch_verdict_key(resumed.drain()) == batch_verdict_key(
                inproc_results
            )
            assert device_report_key(resumed.report()) == device_report_key(
                inproc.report()
            )

    def test_restore_from_checkpoint_taken_during_rebalance(
        self, fitted_hmd
    ):
        # The in-process facade rebalances with a live backlog; the
        # snapshot taken mid-rebalance (migrated devices, split queues)
        # must restore into the worker backend and keep verdicts
        # identical to the source continuing in process.
        X, _, hmd = fitted_hmd
        arrivals = _arrivals(X, n_devices=12, rounds=8, seed=24)
        tail = _arrivals(X, n_devices=12, rounds=4, seed=25)
        source = FleetMonitor(hmd, n_shards=2, batch_size=64)
        _feed(source, arrivals)
        source.drain()
        _feed(source, tail[:24])  # backlog straddles the rebalance
        moves = source.rebalance(3)
        assert moves  # the checkpoint really is mid-migration
        state = source.snapshot()
        _feed(source, tail[24:])
        reference = source.drain()
        with WorkerShardedFleetMonitor.restore(
            hmd, state, mp_context="fork"
        ) as resumed:
            _feed(resumed, tail[24:])
            assert batch_verdict_key(resumed.drain()) == batch_verdict_key(
                reference
            )
            assert device_report_key(resumed.report()) == device_report_key(
                source.report()
            )
