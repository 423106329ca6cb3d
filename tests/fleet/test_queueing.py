"""Tests for the arena ingress queue and backpressure/shedding policy."""

import pickle

import numpy as np
import pytest

from repro.fleet import BackpressurePolicy, FleetQueue, WindowBatch
from tests.oracles.queue_policy import POLICIES, PolicyModel, admit, random_ops, replay


def _submit(queue, device="dev-0", seq=0):
    return admit(queue, device, np.zeros(3), seq)


class TestBackpressurePolicy:
    def test_defaults_valid(self):
        policy = BackpressurePolicy()
        assert policy.max_pending == 4096
        assert policy.shed == "drop_oldest"

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_pending": 0},
            {"max_pending_per_device": 0},
            {"shed": "explode"},
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            BackpressurePolicy(**kwargs)


class TestFleetQueue:
    def test_fifo_order(self):
        queue = FleetQueue()
        for i in range(5):
            assert _submit(queue, seq=i)
        batch = queue.take(3)
        assert isinstance(batch, WindowBatch)
        assert batch.seqs.tolist() == [0, 1, 2]
        assert len(queue) == 2

    def test_drop_newest_refuses_when_full(self):
        queue = FleetQueue(BackpressurePolicy(max_pending=2, shed="drop_newest"))
        assert _submit(queue, seq=0)
        assert _submit(queue, seq=1)
        assert not _submit(queue, seq=2)
        assert queue.total_shed == 1
        assert queue.take(10).seqs.tolist() == [0, 1]

    def test_drop_oldest_evicts_stalest(self):
        queue = FleetQueue(BackpressurePolicy(max_pending=2, shed="drop_oldest"))
        _submit(queue, device="a", seq=0)
        _submit(queue, device="b", seq=0)
        assert _submit(queue, device="c", seq=0)  # evicts a's window
        assert queue.total_shed == 1
        assert queue.shed_by_device == {"a": 1}
        assert queue.take(10).device_ids.tolist() == ["b", "c"]

    def test_per_device_cap_protects_fleet(self):
        policy = BackpressurePolicy(max_pending=100, max_pending_per_device=3)
        queue = FleetQueue(policy)
        for seq in range(10):
            _submit(queue, device="chatty", seq=seq)
        _submit(queue, device="quiet", seq=0)
        # Chatty device capped at 3 (its oldest shed), quiet unaffected.
        assert queue.pending("chatty") == 3
        assert queue.pending("quiet") == 1
        assert queue.shed_by_device["chatty"] == 7
        batch = queue.take(10)
        chatty_seqs = batch.seqs[batch.device_ids == "chatty"]
        assert chatty_seqs.tolist() == [7, 8, 9]  # freshest survive

    def test_per_device_cap_drop_newest(self):
        policy = BackpressurePolicy(
            max_pending=100, max_pending_per_device=2, shed="drop_newest"
        )
        queue = FleetQueue(policy)
        assert _submit(queue, seq=0)
        assert _submit(queue, seq=1)
        assert not _submit(queue, seq=2)
        assert queue.take(10).seqs.tolist() == [0, 1]

    def test_pending_counts_stay_consistent(self):
        queue = FleetQueue(BackpressurePolicy(max_pending=4, shed="drop_oldest"))
        for seq in range(8):
            _submit(queue, device=f"d{seq % 2}", seq=seq)
        assert len(queue) == 4
        assert queue.pending("d0") + queue.pending("d1") == 4
        queue.take(2)
        assert len(queue) == 2
        assert queue.pending("d0") + queue.pending("d1") == 2

    def test_take_requires_positive(self):
        with pytest.raises(ValueError):
            FleetQueue().take(0)

    def test_take_empty_queue(self):
        batch = FleetQueue().take(5)
        assert len(batch) == 0
        assert batch.features.shape[0] == 0


class TestBulkIngress:
    def _block(self, m, device="dev-0", start_seq=0, d=3):
        features = np.arange(m * d, dtype=float).reshape(m, d)
        return device, features, np.arange(start_seq, start_seq + m)

    def test_block_admitted_whole(self):
        queue = FleetQueue()
        device, features, seqs = self._block(6)
        assert queue.submit_block(device, features, seqs) == 6
        assert len(queue) == 6
        assert queue.pending(device) == 6

    def test_block_take_is_zero_copy_slice(self):
        """A batch served from one arena block is a view of it (no copy)."""
        queue = FleetQueue()
        device, features, seqs = self._block(8)
        queue.submit_block(device, features, seqs)
        batch = queue.take(5)
        rest = queue.take(3)
        assert batch.features.base is not None
        assert np.shares_memory(batch.features, rest.features.base)
        np.testing.assert_array_equal(batch.features, features[:5])
        assert batch.seqs.tolist() == [0, 1, 2, 3, 4]
        assert set(batch.device_ids.tolist()) == {device}

    def test_take_spans_blocks_in_admission_order(self):
        queue = FleetQueue()
        queue.submit_block(*self._block(3, device="a"))
        _submit(queue, device="b", seq=0)
        queue.submit_block(*self._block(2, device="c"))
        batch = queue.take(10)
        assert batch.device_ids.tolist() == ["a", "a", "a", "b", "c", "c"]
        assert batch.seqs.tolist() == [0, 1, 2, 0, 0, 1]
        assert batch.features.shape == (6, 3)

    def test_block_overflow_falls_back_to_policy(self):
        queue = FleetQueue(BackpressurePolicy(max_pending=4, shed="drop_oldest"))
        device, features, seqs = self._block(10)
        admitted = queue.submit_block(device, features, seqs)
        assert admitted == 10  # drop_oldest admits all, evicting stale rows
        assert len(queue) == 4
        assert queue.take(10).seqs.tolist() == [6, 7, 8, 9]

    def test_block_drop_newest_truncates(self):
        queue = FleetQueue(BackpressurePolicy(max_pending=4, shed="drop_newest"))
        device, features, seqs = self._block(10)
        assert queue.submit_block(device, features, seqs) == 4
        assert queue.shed_by_device[device] == 6
        assert queue.take(10).seqs.tolist() == [0, 1, 2, 3]

    def test_block_seq_length_mismatch(self):
        queue = FleetQueue()
        with pytest.raises(ValueError):
            queue.submit_block("d", np.zeros((3, 2)), np.arange(2))



class TestSegmentHousekeeping:
    """Storage bounds of the arena's blocks (its storage segments)."""

    def test_no_unbounded_segment_growth(self):
        """Long-running submit/take cycles must not leak arena blocks."""
        queue = FleetQueue()
        for seq in range(3000):
            _submit(queue, device="d", seq=seq)
            queue.take(1)
        assert len(queue) == 0
        assert len(queue._blocks) <= 1

    def test_drained_device_releases_segments(self):
        """Devices that upload once under a per-device cap and go quiet
        must not pin arena blocks after a full drain."""
        queue = FleetQueue(BackpressurePolicy(max_pending_per_device=512))
        for d in range(5):
            for seq in range(300):
                _submit(queue, device=f"dev-{d}", seq=seq)
        queue.take(1500)
        assert len(queue) == 0
        assert all(queue.pending(f"dev-{d}") == 0 for d in range(5))
        assert queue._dead_count == 0
        assert queue.arena_blocks <= 1

    def test_no_growth_under_global_eviction(self):
        queue = FleetQueue(BackpressurePolicy(max_pending=2, shed="drop_oldest"))
        for seq in range(5000):
            _submit(queue, device="d", seq=seq)
        assert len(queue) == 2
        assert len(queue._blocks) <= 2
        assert queue.take(10).seqs.tolist() == [4998, 4999]

    def test_segments_compact_under_stalled_consumer(self):
        """Per-device-cap evictions must not grow the arena while stalled."""
        policy = BackpressurePolicy(max_pending=4096, max_pending_per_device=8)
        queue = FleetQueue(policy)
        for seq in range(100_000):
            _submit(queue, device="chatty", seq=seq)
        assert len(queue) == 8
        assert len(queue._blocks) <= 2
        assert queue.shed_by_device == {"chatty": 100_000 - 8}
        assert queue.take(10).seqs.tolist() == list(range(99_992, 100_000))


class TestDeadStorageCompaction:
    def test_mostly_dead_segment_releases_prefix_storage(self):
        """A capped device's shed history must not pin block memory.

        Per-device shedding kills a big submitted block's rows front to
        back in place; once dead rows dominate, the arena is rebuilt
        from its live rows.
        """
        policy = BackpressurePolicy(max_pending=8192, max_pending_per_device=2048)
        queue = FleetQueue(policy)
        block = np.arange(2048 * 3, dtype=float).reshape(2048, 3)
        queue.submit_block("d", block, np.arange(2048))
        # Each new submit sheds the block's oldest live row in place.
        for seq in range(2048, 2048 + 2100):
            _submit(queue, device="d", seq=seq)
        assert queue._dead_count <= max(len(queue), 1024)
        assert len(queue._blocks) <= 3
        # Shedding semantics unchanged: freshest rows survive, in order.
        taken = queue.take(8192)
        assert taken.seqs.tolist() == list(range(2100, 4148))
        assert queue.shed_by_device == {"d": 2100}

    def test_small_segments_not_copied(self):
        """Compaction must not churn on small debris (copy cost > win)."""
        policy = BackpressurePolicy(max_pending=4096, max_pending_per_device=8)
        queue = FleetQueue(policy)
        queue.submit_block("d", np.zeros((16, 3)), np.arange(16))
        block = queue._blocks[0]
        for seq in range(16, 24):
            _submit(queue, device="d", seq=seq)
        # 16 dead rows stay in place: far below one block's worth.
        assert queue._blocks[0] is block
        assert queue._dead_count == 16
        assert queue.pending("d") == 8
        assert queue.shed_by_device == {"d": 16}

    def test_take_reclaims_dead_segments_without_submits(self):
        """A consumer-only phase must still reclaim eviction debris."""
        policy = BackpressurePolicy(max_pending=4096, max_pending_per_device=1)
        queue = FleetQueue(policy)
        # Interleave two devices so per-device eviction kills mid-queue
        # rows (device "a" rows die behind live "b" rows).
        for seq in range(600):
            _submit(queue, device="a", seq=seq)
            _submit(queue, device="b", seq=seq)
        assert len(queue) == 2
        # Producer stops; only takes happen from here on.
        assert queue.take(1).seqs.tolist() == [599]
        assert queue.take(1).seqs.tolist() == [599]
        assert len(queue) == 0
        assert len(queue._blocks) <= 1
        assert queue._dead_count == 0

    def test_fully_evicted_devices_leave_no_storage(self):
        """Devices fully evicted by the global bound leave nothing queued
        and no dead rows behind."""
        queue = FleetQueue(BackpressurePolicy(max_pending=2, max_pending_per_device=4))
        for d in range(100):
            _submit(queue, device=f"dev-{d}", seq=0)
        # 98 devices were fully evicted by the global bound.
        assert [d for d in range(100) if queue.pending(f"dev-{d}")] == [98, 99]
        assert queue.shed_by_device == {f"dev-{d}": 1 for d in range(98)}
        assert queue._dead_count == 0
        assert queue.arena_blocks == 1


class TestArenaQueue:
    """The arena queue against the plain-list policy oracle."""

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
        reference, arena_queue = PolicyModel(policy), FleetQueue(policy)
        for queue in (reference, arena_queue):
            for seq in range(10):
                admit(queue, "chatty", np.zeros(3) + seq, seq)
            admit(queue, "quiet", np.ones(3), 0)
        assert arena_queue.shed_by_device == reference.shed_by_device
        assert arena_queue.pending("chatty") == reference.pending("chatty")
        assert arena_queue.pending("quiet") == reference.pending("quiet")
        assert len(arena_queue) == len(reference)
        assert arena_queue.total_shed == reference.total_shed

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
