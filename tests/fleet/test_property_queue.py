"""Property test: the arena queue equals the plain-list policy oracle.

``FleetQueue`` decides which rows are still queued by one rule — a
device's live rows are its admission ordinals ``[floor, tail)`` — and
every removal (take, global eviction, per-device eviction) only raises
``floor``.  ``tests.oracles.queue_policy.PolicyModel``
keeps the same policy as a list with no storage tricks.  Hypothesis
draws an operation sequence — row and block submits, takes and a
snapshot→restore — over every policy in ``POLICIES`` and requires every
return value, pending count, shed tally and snapshot payload to agree
after every operation.  A second property binds a live registry and
requires the queue's admitted and shed counters and its depth and arena
gauges to read the oracle's totals after every operation.
"""

import pickle

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fleet import FleetQueue
from repro.obs import MetricsRegistry
from tests.oracles.queue_policy import POLICIES, PolicyModel, admit

DEVICES = [f"d{i}" for i in range(5)]
N_FEATURES = 3

# Blocks weigh double and run up to 40 rows so sequences overrun the
# global bounds (20 and 30) as well as the per-device ones.
BLOCK = st.tuples(st.just("block"), st.sampled_from(DEVICES), st.integers(1, 40))
OPS = st.one_of(
    st.tuples(st.just("row"), st.sampled_from(DEVICES)),
    BLOCK,
    BLOCK,
    st.tuples(st.just("take"), st.integers(1, 20)),
    st.tuples(st.just("restore")),
)


def _rows(device, start, m):
    base = 100.0 * DEVICES.index(device) + start
    return base + np.arange(m * N_FEATURES, dtype=float).reshape(m, N_FEATURES)


def _batch(batch):
    return batch.device_ids.tolist(), batch.seqs.tolist(), batch.features.tolist()


def _assert_same(queue, model):
    assert len(queue) == len(model)
    assert queue.shed_by_device == model.shed_by_device
    assert queue.total_shed == model.total_shed
    assert [queue.pending(d) for d in DEVICES] == [model.pending(d) for d in DEVICES]
    state = queue.snapshot()
    assert state["device_ids"].tolist() == [d for d, _, _ in model.rows]
    assert state["seqs"].tolist() == [s for _, s, _ in model.rows]
    assert state["features"].tolist() == [x.tolist() for _, _, x in model.rows]


@settings(max_examples=150, deadline=None)
@given(policy=st.sampled_from(POLICIES), ops=st.lists(OPS, min_size=1, max_size=60))
def test_queue_matches_policy_oracle(policy, ops):
    queue, model = FleetQueue(policy), PolicyModel(policy)
    seqs = dict.fromkeys(DEVICES, 0)
    for op in ops:
        kind = op[0]
        if kind == "row":
            device = op[1]
            row = _rows(device, seqs[device], 1)[0]
            assert admit(queue, device, row, seqs[device]) == admit(
                model, device, row, seqs[device]
            )
            seqs[device] += 1
        elif kind == "block":
            _, device, m = op
            rows, block_seqs = _rows(device, seqs[device], m), np.arange(m) + seqs[device]
            assert queue.submit_block(device, rows, block_seqs) == model.submit_block(
                device, rows, block_seqs
            )
            seqs[device] += m
        elif kind == "take":
            assert _batch(queue.take(op[1])) == _batch(model.take(op[1]))
        else:
            queue = FleetQueue.restore(pickle.loads(pickle.dumps(queue.snapshot())))
        _assert_same(queue, model)
    assert _batch(queue.take(10_000)) == _batch(model.take(10_000))


def _assert_telemetry(registry, queue, model, admitted):
    snapshot = registry.snapshot()
    counters, gauges = snapshot["counters"], snapshot["gauges"]
    assert counters["fleet_windows_admitted_total"] == admitted
    assert counters["fleet_windows_shed_total"] == model.total_shed
    assert gauges["fleet_queue_depth"] == len(model)
    assert gauges["fleet_arena_blocks"] == queue.arena_blocks


@settings(max_examples=150, deadline=None)
@given(policy=st.sampled_from(POLICIES), ops=st.lists(OPS, min_size=1, max_size=60))
def test_queue_telemetry_matches_policy_oracle(policy, ops):
    registry = MetricsRegistry()
    queue, model = FleetQueue(policy), PolicyModel(policy)
    queue.bind_metrics(registry)
    seqs = dict.fromkeys(DEVICES, 0)
    admitted = 0
    for op in ops:
        kind = op[0]
        if kind == "row":
            device = op[1]
            row = _rows(device, seqs[device], 1)[0]
            admitted += admit(queue, device, row, seqs[device])
            model.admit_row(device, row, seqs[device])
            seqs[device] += 1
        elif kind == "block":
            _, device, m = op
            rows, block_seqs = _rows(device, seqs[device], m), np.arange(m) + seqs[device]
            admitted += queue.submit_block(device, rows, block_seqs)
            model.submit_block(device, rows, block_seqs)
            seqs[device] += m
        elif kind == "take":
            queue.take(op[1])
            model.take(op[1])
        else:
            # A restored backlog is not admitted again: the counters
            # carry on from the registry, the gauges read the new queue.
            queue = FleetQueue.restore(pickle.loads(pickle.dumps(queue.snapshot())))
            queue.bind_metrics(registry)
        _assert_telemetry(registry, queue, model, admitted)
