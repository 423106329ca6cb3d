"""The backpressure policy as a plain list, one row at a time.

:class:`PolicyModel` is the reference the arena queue
(:class:`repro.fleet.FleetQueue`) is fuzzed against: every rule of
:class:`~repro.fleet.BackpressurePolicy` spelled out over a list of ``(device, seq, row)`` with no storage tricks.  It
offers the queue's own admission surface (``register_device``,
``admit_row``, ``submit_block``), so :func:`admit` and :func:`replay`
drive either one.
"""

import numpy as np

from repro.fleet import BackpressurePolicy, WindowBatch

# Unbounded, global-only, per-device-only and both bounds, in both
# shed modes.
POLICIES = [
    BackpressurePolicy(),
    BackpressurePolicy(max_pending=20, shed="drop_oldest"),
    BackpressurePolicy(max_pending=20, shed="drop_newest"),
    BackpressurePolicy(max_pending=500, max_pending_per_device=5),
    BackpressurePolicy(max_pending=500, max_pending_per_device=5, shed="drop_newest"),
    BackpressurePolicy(max_pending=30, max_pending_per_device=4, shed="drop_oldest"),
]


def admit(queue, device, row, seq):
    """Admit one window for ``device`` through the per-row admission."""
    return queue.admit_row(
        queue.register_device(device), np.asarray(row, dtype=float).ravel(), int(seq)
    )


class PolicyModel:
    """The backpressure policy as a plain list of ``(device, seq, row)``."""

    def __init__(self, policy):
        self.policy = policy
        self.rows = []
        self.shed_by_device = {}

    def __len__(self):
        return len(self.rows)

    @property
    def total_shed(self):
        return sum(self.shed_by_device.values())

    def pending(self, device=None):
        if device is None:
            return len(self.rows)
        return sum(1 for d, _, _ in self.rows if d == device)

    def register_device(self, device):
        return device

    def _shed(self, device):
        self.shed_by_device[device] = self.shed_by_device.get(device, 0) + 1

    def admit_row(self, device, row, seq):
        cap = self.policy.max_pending_per_device
        drop_newest = self.policy.shed == "drop_newest"
        while cap is not None and self.pending(device) >= cap:
            if drop_newest:
                self._shed(device)
                return False
            oldest = next(i for i, row in enumerate(self.rows) if row[0] == device)
            self._shed(self.rows.pop(oldest)[0])
        while len(self.rows) >= self.policy.max_pending:
            if drop_newest:
                self._shed(device)
                return False
            self._shed(self.rows.pop(0)[0])
        self.rows.append((device, int(seq), np.asarray(row, dtype=float)))
        return True

    def submit_block(self, device, features, seqs):
        return sum(
            self.admit_row(device, features[i], seqs[i]) for i in range(len(seqs))
        )

    def take(self, n):
        taken, self.rows = self.rows[:n], self.rows[n:]
        return WindowBatch(
            device_ids=np.array([d for d, _, _ in taken]),
            seqs=np.array([s for _, s, _ in taken], dtype=np.int64),
            features=np.vstack([x for _, _, x in taken]) if taken else np.empty((0, 0)),
            device_index=np.empty(0, dtype=np.int64),
        )


def random_ops(rng, n_devices, n_ops):
    """A random interleaving of row submits, block submits and takes."""
    ops = []
    seqs = {f"d{i}": 0 for i in range(n_devices)}
    for _ in range(n_ops):
        kind = rng.integers(3)
        device = f"d{rng.integers(n_devices)}"
        if kind == 0:
            ops.append(("submit", device, seqs[device]))
            seqs[device] += 1
        elif kind == 1:
            m = int(rng.integers(1, 9))
            ops.append(("block", device, seqs[device], m))
            seqs[device] += m
        else:
            ops.append(("take", int(rng.integers(1, 17))))
    return ops


def replay(queue, ops, n_features=4):
    """Run an op list; return the take stream and admission results."""
    taken, admitted = [], []
    for op in ops:
        if op[0] == "submit":
            _, device, seq = op
            features = np.full(n_features, float(seq) + hash(device) % 7)
            admitted.append(admit(queue, device, features, seq))
        elif op[0] == "block":
            _, device, start, m = op
            features = np.arange(m * n_features, dtype=float).reshape(
                m, n_features
            ) + start
            admitted.append(
                queue.submit_block(device, features, np.arange(start, start + m))
            )
        else:
            batch = queue.take(op[1])
            taken.extend(
                (str(batch.device_ids[i]), int(batch.seqs[i]))
                for i in range(len(batch))
            )
            taken.append(("features-sum", float(batch.features.sum())))
    return taken, admitted
