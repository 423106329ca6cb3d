"""Tests for fleet checkpoints: ``FleetMonitor.snapshot``/``restore``.

The load-bearing guarantees:

1. restore refuses a stale, foreign, truncated or inconsistent payload
   before anything is built, and a ``repro.fleet.sharded/1`` payload
   with several partitions;
2. a one-partition schema-1 checkpoint restores through a rename and
   re-snapshots as the pinned schema-2 payload;
3. snapshot → pickle → restore → continue is an unbroken run, bit for
   bit: verdicts, device rows, forensics, the drift detector and the
   quarantine, so the exactly-once audit balances across the restore.
"""

import dataclasses
import pickle

import numpy as np
import pytest

from repro.fleet import BackpressurePolicy, FleetMonitor, account_windows
from repro.fleet.engine import SNAPSHOT_SCHEMA, batch_verdict_key, batch_window_keys
from repro.fleet.report import device_report_key
from repro.fleet.state import RingBuffer
from repro.uncertainty import MonitorStats
from repro.uncertainty.online import ForensicQueue
from tests.fleet.test_verdict_path import (  # noqa: F401 (fitted_hmd is a fixture)
    _arrivals,
    _forensic_stream,
    _zero_day,
    fitted_hmd,
)


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


def schema2_form(state):
    """The pinned schema-2 payload of a one-partition schema-1 checkpoint.

    The partition's table keys sit at the top level next to the
    monitor's, the vestigial partition keys are gone, the quarantine is
    empty and drift is off.
    """
    shard = state["shards"][0]
    return {
        "schema": SNAPSHOT_SCHEMA,
        "batch_size": state["batch_size"],
        "entropy_window": state["entropy_window"],
        "n_batches": state["n_batches"],
        "policy": state["policy"],
        "forensics": state["forensics"],
        "devices": shard["devices"],
        "seq": shard["seq"],
        "step": shard["step"],
        "stats": shard["stats"],
        "queue": shard["queue"],
        "quarantine": {"maxlen": 256, "total_quarantined": 0, "windows": (), "keys": []},
        "drift": None,
    }


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
        del state["devices"]
        with pytest.raises(ValueError, match="missing required keys"):
            FleetMonitor.restore(hmd, state)

    def test_refuses_multi_partition_schema1(self, fitted_hmd, monkeypatch):
        """A schema-1 checkpoint with two partitions is refused, naming
        the count and the way to convert it, before anything is built."""
        X, _, hmd = fitted_hmd
        state = schema1_checkpoint(X)
        state["shards"].append(dict(state["shards"][0], devices=[], seq={}))
        state["n_shards"] = 2

        def built(*args, **kwargs):
            raise AssertionError("restore built a monitor")

        monkeypatch.setattr(FleetMonitor, "__init__", built)
        with pytest.raises(ValueError, match="2 partitions.*snapshot it again"):
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
        assert_payloads_equal(fleet.snapshot(), schema2_form(state))
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

    def test_snapshot_matches_schema2_shape(self, fitted_hmd):
        """What this build writes has the pinned schema-2 payload's keys."""
        X, y, hmd = fitted_hmd
        fleet = FleetMonitor(hmd, batch_size=16)
        fleet.submit_many("dev-a", X[:2])
        state, pinned = fleet.snapshot(), schema2_form(schema1_checkpoint(X))
        assert set(state) == set(pinned)
        assert set(state["queue"]) == set(pinned["queue"])
        assert set(state["quarantine"]) == set(pinned["quarantine"])
        assert state["queue"]["kind"] == "shard"

    def test_restore_refuses_segment_queue_payload(self, fitted_hmd):
        """A payload holding the retired segment queue fails with a
        ValueError naming the format, in schema 2 and in schema 1."""
        X, y, hmd = fitted_hmd
        monitor = FleetMonitor(hmd, batch_size=8)
        monitor.submit_many("dev-a", X[:2])
        schema2, schema1 = monitor.snapshot(), schema1_checkpoint(X)
        for state, table in ((schema2, schema2), (schema1, schema1["shards"][0])):
            table["queue"] = {
                "kind": "fleet",
                "policy": table["queue"]["policy"],
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


def _outbreak_traffic(X):
    """Known traffic from ten devices with a NaN window early and a
    zero-day burst in the first 256 rows; returns the arrivals."""
    arrivals = _arrivals(X, n_devices=10, rounds=50, seed=41)
    burst = _zero_day(seed=8, n=100, d=X.shape[1])
    for i, window in enumerate(burst, start=120):
        arrivals[i] = (arrivals[i][0], window)
    arrivals[5] = (arrivals[5][0], np.full(X.shape[1], np.nan))
    return arrivals


class TestResumeLosesNothing:
    @pytest.mark.parametrize("batch_size", [1, 7, 256])
    def test_drift_and_quarantine_survive_restore(self, fitted_hmd, batch_size):
        """A checkpoint taken mid-outbreak, with a quarantined window and
        a live backlog, resumes as an unbroken run: verdicts, device
        rows, the drift detector bit for bit, and the quarantine, so the
        exactly-once audit balances across the restore."""
        X, _, hmd = fitted_hmd
        arrivals = _outbreak_traffic(X)
        half = 300
        monitors = [
            FleetMonitor(
                hmd,
                batch_size=batch_size,
                policy=BackpressurePolicy(max_pending=len(arrivals) + 1),
                drift_reference=hmd.analyze(X).entropy,
            )
            for _ in range(2)
        ]
        heads = []
        for monitor in monitors:
            for device_id, window in arrivals[:half]:
                monitor.submit(device_id, window)
            heads.append(monitor.drain(max_batches=max(1, 260 // batch_size)))
        continuous, stopped = monitors
        assert stopped.pending > 0
        assert stopped.quarantine.total_quarantined == 1
        assert stopped.drift.observe([]).status == "drift"  # an alarm in progress

        restored = FleetMonitor.restore(hmd, pickle.loads(pickle.dumps(stopped.snapshot())))
        tails = []
        for monitor in (continuous, restored):
            for device_id, window in arrivals[half:]:
                monitor.submit(device_id, window)
            tails.append(monitor.drain())

        assert batch_verdict_key(heads[1] + tails[1]) == batch_verdict_key(
            heads[0] + tails[0]
        )
        assert device_report_key(restored.report()) == device_report_key(
            continuous.report()
        )
        assert restored.report().drift_status == continuous.report().drift_status
        left, right = restored.drift.observe([]), continuous.drift.observe([])
        for field in dataclasses.fields(left):
            assert getattr(left, field.name) == getattr(right, field.name), field.name
        assert left.ph_statistic.hex() == right.ph_statistic.hex()
        assert left.recent_mean.hex() == right.recent_mean.hex()
        assert restored.quarantine.keys() == continuous.quarantine.keys()
        assert (
            restored.quarantine.total_quarantined
            == continuous.quarantine.total_quarantined
        )

        submitted, seq = set(), {}
        for device_id, _ in arrivals:
            seq[device_id] = seq.get(device_id, -1) + 1
            submitted.add((device_id, seq[device_id]))
        verdicts = batch_window_keys(heads[1] + tails[1])
        assert account_windows(submitted, verdicts, restored.quarantine.keys()) == []
