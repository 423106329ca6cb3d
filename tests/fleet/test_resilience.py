"""Tests for deterministic fault injection and fleet degradation.

Two layers:

1. unit tests over the resilience vocabulary — :class:`FaultPlan`
   determinism and pickling, the shm ring's request/result checksum
   lifecycle, the bounded :class:`QuarantineStore`, the exactly-once
   window audit and the report/health rendering;
2. process-spawning chaos campaigns (``mp`` + ``chaos`` markers):
   seeded kill/hang/corrupt schedules, poison-window quarantine with
   bisection, crash-storm failover to parent-side verdicts (and the
   snapshot taken after one) and the atexit sweep that reaps owned
   segments on abnormal supervisor teardown.

Every campaign asserts the chaos-hardening contract: non-quarantined
verdicts bitwise identical to a fault-free in-process run, and zero
windows silently lost (``account_windows`` comes back empty).
"""

import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.fleet import (
    FaultPlan,
    FleetMonitor,
    QuarantinedWindow,
    QuarantineStore,
    ShardHealth,
    ShardHealthReport,
    WorkerShardedFleetMonitor,
    account_windows,
)
from repro.fleet.engine import batch_verdict_key, batch_window_keys
from repro.fleet.report import device_report_key
from repro.fleet.resilience import FaultEvent
from repro.fleet import shm
from repro.fleet.shm import ShmBlockRing, ShmIntegrityError
from repro.ml import RandomForestClassifier
from repro.uncertainty import TrustedHMD
from tests.conftest import make_blobs

mp_mark = pytest.mark.mp
chaos_mark = pytest.mark.chaos


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


@pytest.fixture(scope="module")
def reference_run(fitted_hmd):
    """Fault-free in-process drain of the canonical chaos traffic."""
    X, _, hmd = fitted_hmd
    arrivals = _arrivals(X, n_devices=24, rounds=12)
    ref = FleetMonitor(hmd, n_shards=4, batch_size=64)
    _feed(ref, arrivals)
    results = ref.drain()
    return {
        "arrivals": arrivals,
        "verdicts": batch_verdict_key(results),
        "report": device_report_key(ref.report()),
        "submitted": batch_window_keys(results),
    }


def _chaos_fleet(hmd, plan, **kwargs):
    kwargs.setdefault("mp_context", "fork")
    kwargs.setdefault("worker_timeout", 3.0)
    return WorkerShardedFleetMonitor(
        hmd, n_shards=4, batch_size=64, chaos=plan, **kwargs
    )


# ---------------------------------------------------------------------------
# FaultPlan: deterministic schedules
# ---------------------------------------------------------------------------


class TestFaultPlan:
    def test_generate_is_deterministic(self):
        a = FaultPlan.generate(11, n_shards=4, corruptions=3)
        b = FaultPlan.generate(11, n_shards=4, corruptions=3)
        assert a.events == b.events
        assert a.corrupt == b.corrupt
        assert a.counts() == b.counts()

    def test_different_seeds_differ(self):
        a = FaultPlan.generate(11, n_shards=4, crashes=4, slows=4)
        b = FaultPlan.generate(12, n_shards=4, crashes=4, slows=4)
        assert a.events != b.events

    def test_counts_summarise_campaign(self):
        plan = FaultPlan.generate(
            0, n_shards=2, crashes=3, hangs=1, slows=2, corruptions=2,
            poison=[("dev-000", 5)],
        )
        counts = plan.counts()
        assert counts["crash"] == 3
        assert counts["hang"] == 1
        assert counts["slow"] == 2
        # Corruption sites are a set; collisions may dedupe below the
        # requested count but never exceed it.
        assert 1 <= counts["corrupt"] <= 2
        assert counts["poison"] == 1

    def test_pickle_round_trip(self):
        plan = FaultPlan.generate(
            7, n_shards=4, poison=[("dev-003", 2)], hang_seconds=1.5
        )
        clone = pickle.loads(pickle.dumps(plan))
        assert clone.seed == plan.seed
        assert clone.events == plan.events
        assert clone.corrupt == plan.corrupt
        assert clone.poison == plan.poison
        assert clone.hang_seconds == plan.hang_seconds

    def test_events_key_on_shard_life_block(self):
        event = FaultEvent(shard_id=1, life=0, block=3, kind="crash")
        plan = FaultPlan(events=(event,))
        assert plan.worker_event(1, 0, 3) is event
        assert plan.worker_event(1, 1, 3) is None  # next incarnation
        assert plan.worker_event(0, 0, 3) is None

    def test_rejects_unknown_fault_kind(self):
        bad = FaultEvent(shard_id=0, life=0, block=0, kind="meltdown")
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultPlan(events=(bad,))

    def test_poison_rows_maps_through_registry(self):
        plan = FaultPlan(poison=[("dev-b", 7), ("dev-c", 9)])
        names = ["dev-a", "dev-b", "dev-c"]
        dev = np.array([0, 1, 2, 1])
        seqs = np.array([7, 7, 9, 8])
        assert plan.poison_rows(names, dev, seqs) == [1, 2]
        assert FaultPlan().poison_rows(names, dev, seqs) == []

    def test_should_corrupt_keys_on_shard_and_epoch(self):
        plan = FaultPlan(corrupt=[(2, 5)])
        assert plan.should_corrupt(2, 5)
        assert not plan.should_corrupt(2, 6)
        assert not plan.should_corrupt(1, 5)


# ---------------------------------------------------------------------------
# Shm ring integrity checksums
# ---------------------------------------------------------------------------


class TestRingIntegrity:
    def _ring(self):
        return ShmBlockRing(n_slots=2, capacity=8, n_features=4)

    def test_checksum_lifecycle(self):
        rng = np.random.default_rng(3)
        ring = self._ring()
        try:
            n = ring.write_block(
                0,
                rng.normal(size=(5, 4)),
                rng.integers(0, 3, size=5),
                rng.integers(0, 50, size=5),
            )
            assert ring.verify_block(0, n)
            ring.corrupt_slot(0)
            assert not ring.verify_block(0, n)
            # Result column: sealed reads pass, unsealed / tampered fail.
            slot = ring.slot(0)
            slot["counts"][:n] = 1
            with pytest.raises(ShmIntegrityError):
                ring.read_results(0, n)  # never sealed
            ring.seal_results(0, n)
            counts = ring.read_results(0, n)
            assert counts.tolist() == [1] * n
            assert counts.dtype == np.int64
            slot["counts"][0] = 9  # tamper after sealing
            with pytest.raises(ShmIntegrityError):
                ring.read_results(0, n)
            del slot
        finally:
            ring.close()

    def test_corruption_is_slot_local(self):
        rng = np.random.default_rng(4)
        ring = self._ring()
        try:
            for index in (0, 1):
                ring.write_block(
                    index,
                    rng.normal(size=(6, 4)),
                    rng.integers(0, 3, size=6),
                    rng.integers(0, 50, size=6),
                )
            ring.corrupt_slot(0)
            assert not ring.verify_block(0, 6)
            assert ring.verify_block(1, 6)
            # Rewriting the corrupted slot restamps its checksum.
            ring.write_block(
                0,
                rng.normal(size=(6, 4)),
                rng.integers(0, 3, size=6),
                rng.integers(0, 50, size=6),
            )
            assert ring.verify_block(0, 6)
        finally:
            ring.close()

    def test_owned_segment_registry(self):
        before = set(shm._OWNED)
        ring = self._ring()
        name = ring.name
        assert name in shm._OWNED
        attached = ShmBlockRing.attach(ring.spec())
        attached.close()  # non-owner close must not touch the registry
        assert name in shm._OWNED
        ring.close()
        assert name not in shm._OWNED
        assert shm._OWNED == before


# ---------------------------------------------------------------------------
# Quarantine store and the exactly-once audit
# ---------------------------------------------------------------------------


def _window(i):
    return QuarantinedWindow(
        device_id=f"dev-{i:03d}",
        seq=i,
        features=np.zeros(3),
        shard_id=0,
        epoch=i,
        reason="test",
    )


class TestQuarantineStore:
    def test_bounded_with_lifetime_accounting(self):
        store = QuarantineStore(maxlen=4)
        for i in range(10):
            store.push(_window(i))
        assert len(store) == 4
        assert store.total_quarantined == 10
        retained = [w.seq for w in store.snapshot()]
        assert retained == [6, 7, 8, 9]  # oldest evicted first
        # Keys survive eviction — accounting never loses a window.
        assert store.keys() == {(f"dev-{i:03d}", i) for i in range(10)}

    def test_account_windows_flags_silent_loss(self):
        submitted = {("dev-a", 0), ("dev-a", 1), ("dev-b", 0)}
        verdicts = {("dev-a", 0)}
        quarantined = {("dev-b", 0)}
        assert account_windows(submitted, verdicts, quarantined) == [
            ("dev-a", 1)
        ]
        assert account_windows(submitted, verdicts, quarantined, shed=1) == []
        assert account_windows(submitted, submitted, set()) == []


# ---------------------------------------------------------------------------
# Health and report rendering
# ---------------------------------------------------------------------------


class TestHealthRendering:
    def test_health_report_as_text(self):
        row = ShardHealthReport(
            shard_id=2,
            health=ShardHealth.DEGRADED,
            restarts=1,
            total_restarts=3,
            heartbeat_age=0.25,
        )
        assert row.as_text() == (
            "shard 2: degraded  restarts=3  heartbeat_age=0.2s"
        )


# ---------------------------------------------------------------------------
# Chaos campaigns (process-spawning)
# ---------------------------------------------------------------------------


@mp_mark
@chaos_mark
class TestChaosCampaigns:
    def test_kill_hang_corrupt_campaign_is_equivalent(
        self, fitted_hmd, reference_run
    ):
        _, _, hmd = fitted_hmd
        plan = FaultPlan.generate(
            7, n_shards=4, crashes=3, hangs=1, slows=2, corruptions=2,
            horizon=10, hang_seconds=1.5,
        )
        with _chaos_fleet(hmd, plan) as fleet:
            _feed(fleet, reference_run["arrivals"])
            results = fleet.drain()
            assert batch_verdict_key(results) == reference_run["verdicts"]
            report = fleet.report()
            assert device_report_key(report) == reference_run["report"]
            missing = account_windows(
                reference_run["submitted"],
                batch_window_keys(results),
                fleet.quarantine.keys(),
            )
            assert not missing, f"silently lost windows: {missing[:5]}"
            # The campaign actually fired: restarts are visible in the
            # health rows and the rendered report.
            assert sum(r.total_restarts for r in report.shard_health) >= 1
            text = report.as_text()
            assert "shard" in text and "restarts" in text
            assert "healthy" in text or "degraded" in text or "dead" in text

    def test_poison_windows_quarantined_exactly(
        self, fitted_hmd, reference_run
    ):
        _, _, hmd = fitted_hmd
        poison = [("dev-003", 2), ("dev-011", 7)]
        plan = FaultPlan(seed=0, poison=poison)
        with _chaos_fleet(hmd, plan) as fleet:
            _feed(fleet, reference_run["arrivals"])
            results = fleet.drain()
            quarantined = fleet.quarantine.keys()
            assert quarantined == set(poison)
            assert account_windows(
                reference_run["submitted"],
                batch_window_keys(results),
                quarantined,
            ) == []
            # Bisection kept every healthy row: the surviving verdicts
            # are bitwise identical to the fault-free run, and only the
            # poison keys are absent.
            verdicts = batch_verdict_key(results)
            for key, value in verdicts.items():
                assert reference_run["verdicts"][key] == value
            assert (
                set(reference_run["verdicts"]) - set(verdicts) == quarantined
            )
            report = fleet.report()
            assert report.n_quarantined == len(poison)
            assert f"quarantined={len(poison)}" in report.as_text()
            for window in fleet.quarantine.snapshot():
                assert (window.device_id, window.seq) in quarantined
                assert "bisection" in window.reason

    def test_crash_storm_fails_over_to_survivors(
        self, fitted_hmd, reference_run
    ):
        _, _, hmd = fitted_hmd
        # Shard 1 crashes on its first block of every incarnation: the
        # breaker must open and the parent verdict the shard's rounds.
        events = tuple(
            FaultEvent(shard_id=1, life=life, block=0, kind="crash")
            for life in range(8)
        )
        plan = FaultPlan(seed=0, events=events)
        with _chaos_fleet(hmd, plan, max_restarts=2) as fleet:
            _feed(fleet, reference_run["arrivals"])
            results = fleet.drain()
            assert batch_verdict_key(results) == reference_run["verdicts"]
            report = fleet.report()
            health = {r.shard_id: r.health for r in report.shard_health}
            assert health[1] is ShardHealth.DEAD
            assert health[0] is not ShardHealth.DEAD
            assert device_report_key(report) == reference_run["report"]
            assert account_windows(
                reference_run["submitted"],
                batch_window_keys(results),
                set(),
            ) == []
            # The degraded fleet keeps draining, shard 1 in the parent.
            for device_id, window in reference_run["arrivals"][:48]:
                fleet.submit(device_id, window)
            more = fleet.drain()
            assert sum(len(r.seqs) for r in more) == 48

    def test_snapshot_after_failover_restores_exactly(
        self, fitted_hmd, reference_run
    ):
        # A failover must leave the fleet snapshot describing the same
        # devices on the same shards: restored with the default router,
        # it keeps every device's row and sequence counter, and the tail
        # verdicts match a fault-free fleet's.
        X, _, hmd = fitted_hmd
        tail = _arrivals(X, n_devices=24, rounds=4, seed=31)
        reference = FleetMonitor(hmd, n_shards=4, batch_size=64)
        _feed(reference, reference_run["arrivals"])
        reference.drain()
        _feed(reference, tail)
        ref_tail = batch_verdict_key(reference.drain())
        events = tuple(
            FaultEvent(shard_id=1, life=life, block=0, kind="crash")
            for life in range(8)
        )
        plan = FaultPlan(seed=0, events=events)
        with _chaos_fleet(hmd, plan, max_restarts=2) as fleet:
            _feed(fleet, reference_run["arrivals"])
            fleet.drain()
            health = {r.shard_id: r.health for r in fleet.shard_health()}
            assert health[1] is ShardHealth.DEAD
            state = fleet.snapshot()
        restored = FleetMonitor.restore(hmd, state)
        _feed(restored, tail)
        assert batch_verdict_key(restored.drain()) == ref_tail
        report = restored.report()
        assert report.n_devices == 24
        assert device_report_key(report) == device_report_key(reference.report())

    def test_hung_worker_restarted_and_replayed(
        self, fitted_hmd, reference_run
    ):
        _, _, hmd = fitted_hmd
        # A genuine hang — far longer than the heartbeat timeout — on
        # shard 0's first incarnation.  The supervisor must declare the
        # worker dead, restart it and replay; verdicts stay identical.
        plan = FaultPlan(
            events=(FaultEvent(shard_id=0, life=0, block=1, kind="hang"),),
            hang_seconds=60.0,
        )
        with _chaos_fleet(hmd, plan, worker_timeout=1.0) as fleet:
            _feed(fleet, reference_run["arrivals"])
            results = fleet.drain()
            assert batch_verdict_key(results) == reference_run["verdicts"]
            report = fleet.report()
            restarts = {
                r.shard_id: r.total_restarts for r in report.shard_health
            }
            assert restarts[0] >= 1

    def test_breaker_raises_without_survivors(self, fitted_hmd):
        X, _, hmd = fitted_hmd
        # Single shard, crash on every incarnation's first block: no
        # other live worker, so the breaker must surface the failure
        # instead of spinning forever.
        events = tuple(
            FaultEvent(shard_id=0, life=life, block=0, kind="crash")
            for life in range(8)
        )
        plan = FaultPlan(events=events)
        fleet = WorkerShardedFleetMonitor(
            hmd, n_shards=1, batch_size=64, mp_context="fork",
            worker_timeout=3.0, max_restarts=2, chaos=plan,
        )
        try:
            _feed(fleet, _arrivals(X, n_devices=6, rounds=2))
            with pytest.raises(RuntimeError, match="giving up"):
                fleet.drain()
        finally:
            fleet.close()


# ---------------------------------------------------------------------------
# Abnormal-teardown segment reaping (satellite: shm leak fix)
# ---------------------------------------------------------------------------


_LEAK_SCRIPT = """
import sys
from repro.fleet.shm import ShmBlockRing, publish_model
from repro.fleet.sharding import PublishedHmd
from repro.ml import RandomForestClassifier
from repro.uncertainty import TrustedHMD
from tests.conftest import make_blobs

X, y = make_blobs(n_per_class=40, separation=4.0, seed=0)
hmd = TrustedHMD(
    RandomForestClassifier(n_estimators=5, random_state=0), threshold=0.4
).fit(X, y)
ring = ShmBlockRing(n_slots=2, capacity=8, n_features=X.shape[1])
header, segment = publish_model(PublishedHmd(hmd))
print(ring.name)
print(header["segment"])
sys.exit(0)  # abnormal teardown: neither close() nor unlink() ran
"""


@mp_mark
class TestAbnormalTeardown:
    def test_atexit_sweep_reaps_owned_segments(self):
        from multiprocessing import shared_memory

        proc = subprocess.run(
            [sys.executable, "-c", _LEAK_SCRIPT],
            capture_output=True,
            text=True,
            cwd=Path(__file__).resolve().parents[2],  # this checkout's root
            env={"PYTHONPATH": "src:.", "PATH": "/usr/bin:/bin"},
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        names = proc.stdout.split()
        assert len(names) == 2
        for name in names:
            with pytest.raises(FileNotFoundError):
                segment = shared_memory.SharedMemory(name=name)
                segment.close()  # unreachable unless the sweep failed
