"""Sharded fleet: device-hash routed monitor cores behind one facade.

Large DAQ systems scale ingest horizontally — the KM3NeT Control Unit
coordinates many acquisition nodes behind one control plane, the CMS
HGCAL prototype fans thousands of channels across parallel readout
units into one merged event stream.  This module is that deployment
shape for the fleet engine:

* :class:`ShardRouter` — a stable device-id hash assigns every device
  to exactly one shard (and yields a deterministic rebalance map when
  the shard count changes);
* :class:`ShardQueue` — each shard's ingress: an arena-backed queue
  holding rows in contiguous blocks (a take is a zero-copy slice in
  the common case) with *exactly* the
  :class:`~repro.fleet.queueing.FleetQueue` backpressure semantics;
* :class:`FleetShard` — one :class:`~repro.fleet.engine.FleetMonitor`
  (its own queue, device table, forensic queue) plus the fast verdict
  scatter the fused drain uses;
* :class:`PublishedHmd` — the record of the shared HMD's verdict parts
  (fused front, compiled forest, vote-count tables) that every shard
  verdicts through in one round, republished after a retrain;
* :class:`ShardedFleetMonitor` — the facade.  Same API as a single
  ``FleetMonitor`` (``submit``/``submit_many``/``process_batch``/
  ``drain``/``report``), so runners and examples swap in without
  call-site changes.

Why sharding is faster *and* identical
--------------------------------------

Every per-window computation is row-independent, so partitioning the
stream by device and fusing each round's shard batches into one
inference pass cannot change any verdict — the benchmark gate asserts
bitwise identity against the unsharded monitor, and both run the same
:func:`~repro.uncertainty.trust.count_table_verdict`.  Throughput comes
from two structural effects, not from cutting corners:

1. a fused round verdicts up to ``K x batch_size`` rows in one pass,
   amortising the per-pass front, encode and traversal set-up;
2. routing fans out over each shard's dense integer device index
   (bincount + one stable argsort) instead of fleet-wide string ids,
   and each shard's batches concentrate on ``1/K`` of the devices.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import asdict, dataclass, replace

import numpy as np

from ..obs.metrics import NULL_REGISTRY, merge_snapshots, resolve_registry
from ..uncertainty.drift import EntropyDriftMonitor
from ..uncertainty.online import ForensicQueue, MonitorStats
from ..uncertainty.trust import TrustedHMD, count_table_verdict
from .engine import FleetBatchResult, FleetFlaggedSample, FleetMonitor
from .queueing import BackpressurePolicy, WindowBatch, WindowRequest
from .report import FleetReport, merge_reports

__all__ = [
    "ShardRouter",
    "ShardQueue",
    "IndexedWindowBatch",
    "PublishedHmd",
    "FleetShard",
    "ShardedFleetMonitor",
    "SNAPSHOT_SCHEMA",
]

# Version tag stamped into every ShardedFleetMonitor.snapshot() payload.
# restore() refuses anything else: a checkpoint from a different schema
# generation (or a payload that was never a fleet snapshot at all) fails
# loudly up front instead of corrupting worker state halfway through a
# supervised restart.  Bump the suffix when the payload shape changes.
SNAPSHOT_SCHEMA = "repro.fleet.sharded/1"


# ---------------------------------------------------------------------------
# Routing
# ---------------------------------------------------------------------------


def _fnv1a_32(text: str) -> int:
    """FNV-1a 32-bit hash — stable across runs, platforms and pythons.

    ``hash(str)`` is salted per process, so it would re-deal the whole
    fleet on every restart; a fixed algebraic hash keeps a device on
    the same shard for the lifetime of the deployment.
    """
    h = 0x811C9DC5
    for byte in text.encode("utf-8"):
        h ^= byte
        h = (h * 0x01000193) & 0xFFFFFFFF
    return h


class ShardRouter:
    """Stable device-id → shard-id assignment."""

    def __init__(self, n_shards: int):
        if n_shards < 1:
            raise ValueError(f"n_shards must be >= 1; got {n_shards}.")
        self.n_shards = n_shards
        self._cache: dict[str, int] = {}
        # Failover state: shards whose hash bucket is remapped onto the
        # surviving shards.  Empty for the lifetime of a healthy fleet,
        # so the hot path pays one falsy check.
        self._disabled: set[int] = set()
        self._alive: list[int] = []

    def shard_of(self, device_id: str) -> int:
        """The shard owning this device (deterministic, memoised)."""
        shard = self._cache.get(device_id)
        if shard is None:
            shard = _fnv1a_32(device_id) % self.n_shards
            if self._disabled and shard in self._disabled:
                # Deterministic second hop: the dead shard's bucket is
                # re-dealt over the survivors by the same device hash,
                # so any process that knows the disabled set computes
                # the same assignment (including unseen devices).
                shard = self._alive[_fnv1a_32(device_id) % len(self._alive)]
            self._cache[device_id] = shard
        return shard

    @property
    def disabled(self) -> frozenset:
        """Shards currently excluded from routing (failed over)."""
        return frozenset(self._disabled)

    def disable(self, shard_id: int) -> list[int]:
        """Exclude a dead shard from routing; returns the survivors.

        Every cached assignment is dropped so devices previously routed
        to the dead shard (and to survivors that may re-deal if another
        shard dies later) resolve against the new alive set.
        """
        if not 0 <= shard_id < self.n_shards:
            raise ValueError(f"shard_id {shard_id} out of range.")
        self._disabled.add(int(shard_id))
        self._alive = [
            s for s in range(self.n_shards) if s not in self._disabled
        ]
        if not self._alive:
            raise ValueError("cannot disable the last live shard.")
        self._cache.clear()
        return list(self._alive)

    def spread(self, device_ids) -> dict[int, list[str]]:
        """Group device ids by their assigned shard."""
        assignment: dict[int, list[str]] = {}
        for device_id in device_ids:
            assignment.setdefault(self.shard_of(device_id), []).append(device_id)
        return assignment

    def plan_rebalance(
        self, device_ids, new_n_shards: int
    ) -> dict[str, tuple[int, int]]:
        """Deterministic move map for a shard-count change.

        Returns ``{device_id: (old_shard, new_shard)}`` for exactly the
        devices whose assignment changes; unaffected devices are
        omitted.  The map depends only on the device ids and the two
        shard counts, never on submission history.
        """
        new_router = type(self)(new_n_shards)
        plan: dict[str, tuple[int, int]] = {}
        for device_id in device_ids:
            old, new = self.shard_of(device_id), new_router.shard_of(device_id)
            if old != new:
                plan[device_id] = (old, new)
        return plan


# ---------------------------------------------------------------------------
# Arena-backed shard ingress queue
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IndexedWindowBatch(WindowBatch):
    """A :class:`WindowBatch` carrying dense per-queue device indices.

    ``device_index[i]`` is the queue-local integer id of the device of
    row ``i`` — what the shard's verdict scatter groups on (bincount on
    small ints) instead of re-deriving groups from the string ids.
    """

    device_index: np.ndarray = None  # (n,) int64


_BLOCK_ROWS = 1024


class _ArenaBlock:
    """One contiguous slab of queued rows (feature matrix + metadata)."""

    __slots__ = ("x", "dev", "seqs", "filled", "head", "dead", "n_dead")

    def __init__(self, n_features: int):
        self.x = np.empty((_BLOCK_ROWS, n_features), dtype=np.float64)
        self.dev = np.empty(_BLOCK_ROWS, dtype=np.int64)
        self.seqs = np.empty(_BLOCK_ROWS, dtype=np.int64)
        self.filled = 0     # rows written
        self.head = 0       # rows consumed (from the front)
        self.dead = None    # lazily allocated tombstone mask
        self.n_dead = 0     # tombstones in [head, filled)


class ShardQueue:
    """Bounded ingress queue storing rows in contiguous arena blocks.

    Drop-in compatible with :class:`~repro.fleet.queueing.FleetQueue`
    (same submit/take/pending/shed API, same policy semantics — the
    equivalence is fuzz-tested operation for operation), but organised
    for the sharded drain's hot path:

    * rows live in fixed-size contiguous blocks, so an uncongested
      ``take`` returns zero-copy slices instead of re-stacking
      per-submission segments;
    * each row carries a dense integer device index, so downstream
      routing is integer bincount arithmetic, not string grouping;
    * per-device eviction tombstones rows in place (a lazily allocated
      mask per block) rather than splitting storage.
    """

    def __init__(self, policy: BackpressurePolicy | None = None):
        self.policy = policy if policy is not None else BackpressurePolicy()
        self._blocks: deque[_ArenaBlock] = deque()
        self._n_features: int | None = None
        self._index: dict[str, int] = {}
        self._names: list[str] = []
        self._names_arr: np.ndarray | None = None
        self._pending_dev = np.zeros(8, dtype=np.int64)
        self._n_pending = 0
        # (block, pos) lookup per device, for per-device eviction; only
        # maintained when the policy actually has a per-device cap.
        self._dev_rows: dict[int, deque] | None = (
            {} if self.policy.max_pending_per_device is not None else None
        )
        self.shed_by_device: dict[str, int] = {}
        self.bind_metrics(NULL_REGISTRY)

    def bind_metrics(self, registry) -> None:
        """Bind admission/shed/occupancy instruments to a registry.

        Same instrument set as :meth:`FleetQueue.bind_metrics` plus the
        arena-occupancy gauge (contiguous blocks currently allocated) —
        the shard queue's own capacity signal.
        """
        self._m_admitted = registry.counter(
            "fleet_windows_admitted_total", "windows accepted into the queue"
        )
        self._m_shed = registry.counter(
            "fleet_windows_shed_total", "windows dropped by backpressure"
        )
        self._m_depth = registry.gauge(
            "fleet_queue_depth", "windows currently queued"
        )
        self._m_arena = registry.gauge(
            "fleet_arena_blocks", "arena blocks currently allocated"
        )

    # -- registry ------------------------------------------------------

    def register_device(self, device_id: str) -> int:
        """Dense integer index for a device (created on first sight)."""
        index = self._index.get(device_id)
        if index is None:
            index = len(self._names)
            self._index[device_id] = index
            self._names.append(device_id)
            self._names_arr = None
            if index >= len(self._pending_dev):
                grown = np.zeros(2 * len(self._pending_dev), dtype=np.int64)
                grown[: len(self._pending_dev)] = self._pending_dev
                self._pending_dev = grown
        return index

    def device_name(self, index: int) -> str:
        """Device id for a dense index."""
        return self._names[index]

    def names_array(self) -> np.ndarray:
        """The registry as a numpy unicode array (cached)."""
        if self._names_arr is None or len(self._names_arr) != len(self._names):
            self._names_arr = np.asarray(self._names)
        return self._names_arr

    # -- accounting ----------------------------------------------------

    def __len__(self) -> int:
        return self._n_pending

    @property
    def total_shed(self) -> int:
        """Windows dropped by backpressure since construction."""
        return sum(self.shed_by_device.values())

    def pending(self, device_id: str | None = None) -> int:
        """Queued windows, shard-wide or for one device."""
        if device_id is None:
            return self._n_pending
        index = self._index.get(device_id)
        return int(self._pending_dev[index]) if index is not None else 0

    def _shed(self, device_id: str, n: int = 1) -> None:
        self.shed_by_device[device_id] = self.shed_by_device.get(device_id, 0) + n
        self._m_shed.inc(n)

    # -- shedding ------------------------------------------------------

    def _evict_oldest(self) -> None:
        """Shed the stalest live row in the whole arena."""
        while self._blocks:
            block = self._blocks[0]
            while block.head < block.filled:
                position = block.head
                block.head += 1
                if block.dead is not None and block.dead[position]:
                    block.n_dead -= 1
                    continue
                index = int(block.dev[position])
                self._pending_dev[index] -= 1
                self._n_pending -= 1
                self._shed(self._names[index])
                if self._dev_rows is not None:
                    self._trim_dev_rows(index)
                return
            if block.filled == _BLOCK_ROWS:
                self._blocks.popleft()
            else:
                return  # open block, nothing live behind it

    def _evict_device_oldest(self, index: int, device_id: str) -> None:
        """Tombstone the stalest live row of one device."""
        rows = self._dev_rows.get(index)
        while rows:
            block, position = rows.popleft()
            if position < block.head:
                continue  # already consumed by a take — stale entry
            if block.dead is None:
                block.dead = np.zeros(_BLOCK_ROWS, dtype=bool)
            block.dead[position] = True
            block.n_dead += 1
            self._pending_dev[index] -= 1
            self._n_pending -= 1
            self._shed(device_id)
            return
        raise RuntimeError(
            f"eviction bookkeeping lost rows for device {device_id!r}."
        )

    # -- ingress -------------------------------------------------------

    def _open_block(self) -> _ArenaBlock:
        if not self._blocks or self._blocks[-1].filled == _BLOCK_ROWS:
            self._blocks.append(_ArenaBlock(self._n_features))
        return self._blocks[-1]

    def _admit_rows(
        self, dev: np.ndarray, features: np.ndarray, seqs: np.ndarray
    ) -> None:
        """Append rows verbatim (no policy) and update the counters."""
        m = len(seqs)
        if m == 0:
            return
        if self._n_features is None:
            self._n_features = features.shape[1]
        elif features.shape[1] != self._n_features:
            raise ValueError(
                f"rows have {features.shape[1]} features; this queue "
                f"holds {self._n_features}-feature windows."
            )
        # Account the incoming rows first: the stale-entry sweep below
        # compares lookup sizes against *post-admit* backlogs (reading
        # the pre-admit count would re-trigger a full-deque rebuild on
        # nearly every append of a large block — quadratic bulk ingress).
        counts = np.bincount(dev, minlength=len(self._pending_dev))
        self._pending_dev[: len(counts)] += counts
        self._n_pending += m
        written = 0
        while written < m:
            block = self._open_block()
            k = min(m - written, _BLOCK_ROWS - block.filled)
            stop = block.filled + k
            block.x[block.filled : stop] = features[written : written + k]
            block.dev[block.filled : stop] = dev[written : written + k]
            block.seqs[block.filled : stop] = seqs[written : written + k]
            if self._dev_rows is not None:
                for position in range(block.filled, stop):
                    self._dev_rows.setdefault(
                        int(block.dev[position]), deque()
                    ).append((block, position))
            block.filled = stop
            written += k
        if self._dev_rows is not None:
            # One sweep check per device per admission: entries consumed
            # by takes must not pin dead blocks for a busy device.
            for index in np.flatnonzero(counts):
                rows = self._dev_rows.get(int(index))
                if rows is not None and len(rows) > 2 * self._pending_dev[index] + 64:
                    self._dev_rows[int(index)] = deque(
                        (b, p) for b, p in rows if p >= b.head
                    )
        self._m_admitted.inc(m)
        self._m_depth.set(self._n_pending)
        self._m_arena.set(len(self._blocks))

    def submit(self, request: WindowRequest) -> bool:
        """Enqueue one window; returns False when *it* was shed.

        Exactly :meth:`FleetQueue.submit` semantics, including the
        possibility of a True return that shed an older window.
        """
        index = self.register_device(request.device_id)
        per_device_cap = self.policy.max_pending_per_device
        if per_device_cap is not None:
            while self._pending_dev[index] >= per_device_cap:
                if self.policy.shed == "drop_newest":
                    self._shed(request.device_id)
                    return False
                self._evict_device_oldest(index, request.device_id)

        while self._n_pending >= self.policy.max_pending:
            if self.policy.shed == "drop_newest":
                self._shed(request.device_id)
                return False
            self._evict_oldest()

        features = np.atleast_2d(np.asarray(request.features, dtype=float))
        self._admit_rows(
            np.asarray([index], dtype=np.int64),
            features,
            np.asarray([request.seq], dtype=np.int64),
        )
        return True

    def submit_block(
        self, device_id: str, features: np.ndarray, seqs: np.ndarray
    ) -> int:
        """Enqueue a stack of windows from one device at once.

        Uncongested blocks are bulk-copied into the arena with no
        per-row Python; a block that would trip a bound is replayed
        row-wise for exact :meth:`submit` shedding semantics.
        """
        features = np.atleast_2d(np.asarray(features, dtype=float))
        seqs = np.asarray(seqs, dtype=np.int64)
        m = len(seqs)
        if features.shape[0] != m:
            raise ValueError(
                f"features has {features.shape[0]} rows but {m} seqs were given."
            )
        if m == 0:
            return 0
        index = self.register_device(device_id)

        cap = self.policy.max_pending_per_device
        fits_device = cap is None or self._pending_dev[index] + m <= cap
        fits_global = self._n_pending + m <= self.policy.max_pending
        if fits_device and fits_global:
            self._admit_rows(np.full(m, index, dtype=np.int64), features, seqs)
            return m

        admitted = 0
        for i in range(m):
            admitted += self.submit(
                WindowRequest(
                    device_id=device_id, features=features[i], seq=int(seqs[i])
                )
            )
        return admitted

    # -- egress --------------------------------------------------------

    def take(self, n: int) -> IndexedWindowBatch:
        """Dequeue up to ``n`` live rows in admission order.

        The common case (front rows without tombstones, one block)
        returns pure array views of the arena — no copies, no per-row
        objects.
        """
        if n < 1:
            raise ValueError(f"n must be >= 1; got {n}.")
        parts: list[tuple[_ArenaBlock, int, int]] = []
        need = n
        while need > 0 and self._blocks:
            block = self._blocks[0]
            while (
                block.head < block.filled
                and block.dead is not None
                and block.dead[block.head]
            ):
                block.dead[block.head] = False
                block.n_dead -= 1
                block.head += 1
            if block.head == block.filled:
                if block.filled == _BLOCK_ROWS:
                    self._blocks.popleft()
                    continue
                break  # drained open block — nothing queued behind it
            start = block.head
            limit = min(start + need, block.filled)
            if block.n_dead:
                tombstones = np.flatnonzero(block.dead[start:limit])
                stop = start + int(tombstones[0]) if len(tombstones) else limit
            else:
                stop = limit
            parts.append((block, start, stop))
            block.head = stop
            need -= stop - start

        if not parts:
            return _EMPTY_INDEXED_BATCH

        if len(parts) == 1:
            block, start, stop = parts[0]
            dev = block.dev[start:stop]
            seqs = block.seqs[start:stop]
            features = block.x[start:stop]
        else:
            dev = np.concatenate([b.dev[i:j] for b, i, j in parts])
            seqs = np.concatenate([b.seqs[i:j] for b, i, j in parts])
            features = np.vstack([b.x[i:j] for b, i, j in parts])

        counts = np.bincount(dev, minlength=len(self._pending_dev))
        self._pending_dev[: len(counts)] -= counts
        self._n_pending -= len(seqs)
        self._m_depth.set(self._n_pending)
        self._m_arena.set(len(self._blocks))
        if self._dev_rows is not None:
            # Trim the consumed entries off the eviction lookups now:
            # take consumes in FIFO order, so they sit at the deque
            # fronts, and a quiet device's last take would otherwise
            # leave stale entries pinning dead arena blocks forever.
            for index in np.flatnonzero(counts):
                self._trim_dev_rows(int(index))
        return IndexedWindowBatch(
            device_ids=self.names_array().take(dev),
            seqs=seqs,
            features=features,
            device_index=dev,
        )

    def _trim_dev_rows(self, index: int) -> None:
        """Drop consumed entries from the front of a device's lookup."""
        rows = self._dev_rows.get(index)
        if rows is None:
            return
        while rows and rows[0][1] < rows[0][0].head:
            rows.popleft()
        if not rows:
            del self._dev_rows[index]

    # -- rebalancing / persistence -------------------------------------

    def extract_device(self, device_id: str) -> tuple[np.ndarray, np.ndarray]:
        """Remove one device's queued rows (moved, not shed)."""
        index = self._index.get(device_id)
        if index is None or self._pending_dev[index] == 0:
            return np.empty((0, 0)), np.empty(0, dtype=np.int64)
        features, seqs = [], []
        for block in self._blocks:
            live = block.dev[block.head : block.filled] == index
            if block.dead is not None:
                live &= ~block.dead[block.head : block.filled]
            rows = np.flatnonzero(live) + block.head
            if not len(rows):
                continue
            features.append(block.x[rows])
            seqs.append(block.seqs[rows])
            if block.dead is None:
                block.dead = np.zeros(_BLOCK_ROWS, dtype=bool)
            block.dead[rows] = True
            block.n_dead += len(rows)
        moved = sum(len(s) for s in seqs)
        self._n_pending -= moved
        self._pending_dev[index] = 0
        if self._dev_rows is not None:
            self._dev_rows.pop(index, None)
        if not seqs:
            return np.empty((0, 0)), np.empty(0, dtype=np.int64)
        return np.vstack(features), np.concatenate(seqs)

    def snapshot(self) -> dict:
        """Plain-data state: live rows in admission order + counters."""
        device_ids, seqs, features = [], [], []
        for block in self._blocks:
            live = np.ones(block.filled - block.head, dtype=bool)
            if block.dead is not None:
                live &= ~block.dead[block.head : block.filled]
            rows = np.flatnonzero(live) + block.head
            if not len(rows):
                continue
            device_ids.append(self.names_array().take(block.dev[rows]))
            seqs.append(block.seqs[rows])
            features.append(block.x[rows])
        return {
            "kind": "shard",
            "policy": asdict(self.policy),
            "device_ids": (
                np.concatenate(device_ids) if device_ids else np.empty(0, "<U1")
            ),
            "seqs": (
                np.concatenate(seqs) if seqs else np.empty(0, dtype=np.int64)
            ),
            "features": np.vstack(features) if features else np.empty((0, 0)),
            "shed_by_device": dict(self.shed_by_device),
        }

    @classmethod
    def restore(cls, state: dict) -> "ShardQueue":
        """Rebuild a queue from :meth:`snapshot` output (no re-shedding)."""
        queue = cls(BackpressurePolicy(**state["policy"]))
        device_ids = np.asarray(state["device_ids"])
        if len(device_ids):
            dev = np.asarray(
                [queue.register_device(str(d)) for d in device_ids],
                dtype=np.int64,
            )
            queue._admit_rows(
                dev,
                np.atleast_2d(np.asarray(state["features"], dtype=float)),
                np.asarray(state["seqs"], dtype=np.int64),
            )
        queue.shed_by_device = dict(state["shed_by_device"])
        return queue


_EMPTY_INDEXED_BATCH = IndexedWindowBatch(
    device_ids=np.empty(0, dtype="<U1"),
    seqs=np.empty(0, dtype=np.int64),
    features=np.empty((0, 0)),
    device_index=np.empty(0, dtype=np.int64),
)


# ---------------------------------------------------------------------------
# The shared read-only compiled model view
# ---------------------------------------------------------------------------

class PublishedHmd:
    """The shared HMD's verdict parts, published to every shard.

    A record of what :func:`~repro.uncertainty.trust.count_table_verdict`
    needs — the fused front, the compiled forest (one node tensor that
    all shards share with zero copies) and the vote-count tables — as
    :meth:`TrustedHMD.verdict_parts` built them, plus the verdict key
    they were built under.  Holding the parts fixed for a whole fused
    round keeps every shard on one model generation; :meth:`is_current`
    turns stale after a (warm) retrain, a threshold change or a compile
    mode switch, and the facade republishes.

    Models without count tables (more than two classes, no flat or
    quantized forest) publish no parts and verdict through
    ``hmd.analyze``.
    """

    def __init__(self, hmd: TrustedHMD):
        if not hasattr(hmd, "estimator_"):
            raise ValueError("hmd must be fitted before publishing.")
        self.hmd = hmd
        parts = hmd.verdict_parts()
        self.key = hmd.verdict_key()
        self.front, self.backend, self.tables = parts or (None, None, None)
        self.classes = np.asarray(hmd.classes_)
        self.threshold = float(hmd.policy_.threshold)
        self.compile_mode = hmd.compile_mode

    @classmethod
    def from_parts(
        cls, *, front, backend, tables, classes, threshold: float
    ) -> "PublishedHmd":
        """A *detached* record around already-built parts.

        How a shard worker rebuilds the parent's publication around
        shared-memory mappings (see :mod:`repro.fleet.shm`): the same
        arrays, so the same verdicts.  There is no ``hmd`` behind it,
        so its currency is the publication generation, managed by
        whoever shipped it.
        """
        view = cls.__new__(cls)
        view.hmd = None
        view.key = None
        view.front, view.backend, view.tables = front, backend, tables
        view.classes = np.asarray(classes)
        view.threshold = float(threshold)
        view.compile_mode = "detached"
        return view

    @property
    def entropy_table(self):
        """The entropy per vote count, or ``None`` without count tables."""
        return None if self.tables is None else self.tables.entropy

    def is_current(self) -> bool:
        """False once the HMD refit, changed threshold, or switched mode.

        A detached record never self-reports stale.
        """
        return self.hmd is None or self.hmd.is_current_key(self.key)

    def verdict(self, X) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(predictions, entropy, accepted)`` for a stacked batch."""
        if self.tables is None:
            verdict = self.hmd.analyze(X)
            return verdict.predictions, verdict.entropy, verdict.accepted
        return count_table_verdict(self.front, self.backend, self.tables, X)


# ---------------------------------------------------------------------------
# One shard
# ---------------------------------------------------------------------------


class FleetShard:
    """One monitor core of the sharded fleet.

    Wraps a full :class:`FleetMonitor` — its own :class:`ShardQueue`,
    device-state table, counters and forensic queue — so every
    single-monitor behaviour (reference batch path, reporting,
    snapshotting) is available per shard.  The facade's fused drain
    bypasses ``process_batch`` and instead feeds verdicts in through
    :meth:`scatter`, which reproduces the engine's routing semantics
    exactly (same ``DeviceState.record`` calls, same flagged-sample
    objects) from a dense integer grouping pass.
    """

    def __init__(
        self, shard_id: int, monitor: FleetMonitor, *, stage_flagged: bool = True
    ):
        self.shard_id = shard_id
        self.monitor = monitor
        # Columnar staging of flagged rows: the fused drain appends
        # plain arrays here; FlaggedSample objects materialise lazily
        # when the forensic stream is actually read (triage time).
        # A worker-process shard runs with staging off — its feature
        # views live in a recycled shared-memory slot, so the *parent*
        # stages flagged rows from its own retained copies instead.
        self.stage_flagged = stage_flagged
        self._staged_flagged: list[tuple] = []

    @property
    def queue(self) -> ShardQueue:
        """The shard's ingress queue."""
        return self.monitor.queue

    def take_staged_flagged(self) -> list[tuple]:
        """Hand the staged flagged-row blocks to the facade (cleared)."""
        staged = self._staged_flagged
        self._staged_flagged = []
        return staged

    def scatter(
        self,
        batch: IndexedWindowBatch,
        predictions: np.ndarray,
        entropy: np.ndarray,
        accepted: np.ndarray,
    ) -> None:
        """Fan one fused round's verdict slice back into shard state.

        Equivalent to :meth:`FleetMonitor._route` — the equivalence
        fuzz suite asserts identical device states, counters and
        forensic streams — but grouped on the batch's dense device
        indices (one bincount + one stable argsort over small ints).
        """
        monitor = self.monitor
        n = len(batch)
        base_step = monitor._step
        monitor._step += n
        accepted = np.asarray(accepted, dtype=bool)
        monitor.stats.record_verdicts(predictions, entropy, accepted)

        # Per-device grouping on dense integer indices: one bincount
        # per counter and a single stable argsort replace the string
        # unique + per-device numpy reductions of the generic route.
        # Counts are exact integers, and each device's entropy sum uses
        # the same np.sum over the same ordered slice as
        # MonitorStats.record_verdicts would — state stays bitwise
        # identical to the unsharded monitor's.
        dev = batch.device_index
        group_sizes = np.bincount(dev)
        accepted_per = np.bincount(
            dev, weights=accepted, minlength=len(group_sizes)
        )
        alerts_per = np.bincount(
            dev, weights=accepted & (predictions == 1), minlength=len(group_sizes)
        )
        order = np.argsort(dev, kind="stable")
        entropy_ordered = entropy[order]
        present = np.flatnonzero(group_sizes)
        stops = np.cumsum(group_sizes[present])
        start = 0
        for g, index in enumerate(present):
            stop = stops[g]
            state = monitor.devices[self.queue.device_name(int(index))]
            device_entropy = entropy_ordered[start:stop]
            stats = state.stats
            n_device = int(group_sizes[index])
            n_accepted = int(accepted_per[index])
            stats.n_seen += n_device
            stats.n_accepted += n_accepted
            stats.n_flagged += n_device - n_accepted
            stats.n_malware_alerts += int(alerts_per[index])
            stats.entropy_sum += float(np.sum(device_entropy))
            state.entropy_recent.extend(device_entropy)
            state.last_step = max(
                state.last_step, base_step + int(order[stop - 1]) + 1
            )
            start = stop

        if not self.stage_flagged:
            return
        flagged = np.flatnonzero(~accepted)
        if len(flagged):
            # Stage columnar: fancy-indexed rows are fresh copies, so
            # the arena blocks underneath are not pinned by the stage.
            self._staged_flagged.append(
                (
                    batch.features[flagged],
                    predictions[flagged],
                    entropy[flagged],
                    base_step + flagged + 1,
                    batch.device_ids[flagged],
                    batch.seqs[flagged],
                )
            )


# ---------------------------------------------------------------------------
# The facade
# ---------------------------------------------------------------------------


class ShardedFleetMonitor:
    """K monitor cores behind a device-hash router, one merged view.

    Drop-in for :class:`FleetMonitor`: the ingress API (``register``,
    ``submit``, ``submit_many``), the processing API (``process_batch``,
    ``drain``), and the egress API (``report``, ``stats``,
    ``forensics``) all keep their signatures, so experiment runners,
    examples and the :class:`~repro.fleet.retrain.FleetRetrainer` swap
    in without call-site changes.

    One :meth:`process_batch` is a *fused round*: up to ``batch_size``
    rows from every shard's queue are stacked and routed through the
    shared :class:`PublishedHmd` in a single pass, then each shard's
    slice is scattered back to its own device table, and each shard's
    flagged windows drain into the facade's merged forensic queue (per
    device still in submission-sequence order).  Verdicts are bitwise
    identical to an unsharded monitor over the same traffic.

    Backpressure bounds apply per shard: ``max_pending_per_device``
    semantics are *exactly* those of the single monitor (a device lives
    on one shard), while the global ``max_pending`` bounds each shard's
    queue individually — fleet-total capacity is ``K x max_pending``.

    Parameters mirror :class:`FleetMonitor`, plus ``n_shards`` /
    ``router``.  ``telemetry`` follows the same contract as the single
    monitor's; each shard core gets its *own* registry (per-shard queue
    gauges must not overwrite each other), and :meth:`report` folds all
    of them — plus the facade's fused-round instruments — through the
    associative :func:`~repro.obs.metrics.merge_snapshots`.
    """

    def __init__(
        self,
        hmd: TrustedHMD,
        *,
        n_shards: int = 4,
        batch_size: int = 256,
        policy: BackpressurePolicy | None = None,
        forensics: ForensicQueue | None = None,
        drift_reference=None,
        entropy_window: int = 128,
        router: ShardRouter | None = None,
        telemetry=None,
        tracer=None,
    ):
        if not hasattr(hmd, "estimator_"):
            raise ValueError("hmd must be fitted before fleet monitoring.")
        self.hmd = hmd
        self.router = router if router is not None else ShardRouter(n_shards)
        self.batch_size = batch_size
        self.policy = policy if policy is not None else BackpressurePolicy()
        self.entropy_window = entropy_window
        self.metrics = resolve_registry(telemetry)
        self.tracer = tracer
        self._obs_on = self.metrics.enabled or tracer is not None
        self._m_rounds = self.metrics.counter(
            "fleet_batches_total", "fused inference rounds run"
        )
        self._m_drained = self.metrics.counter(
            "fleet_windows_drained_total", "windows given a verdict"
        )
        self._m_verdict = self.metrics.histogram(
            "fleet_verdict_seconds", "fused verdict-pass latency per round"
        )
        self._m_scatter_rows = self.metrics.counter(
            "fleet_scatter_rows_total", "verdict rows fanned back to shards"
        )
        self._m_flagged = self.metrics.counter(
            "fleet_windows_flagged_total", "windows withheld as uncertain"
        )
        self._m_scatter = self.metrics.histogram(
            "fleet_scatter_seconds", "verdict scatter latency per round"
        )
        self.shards = [
            FleetShard(
                shard_id,
                FleetMonitor(
                    hmd,
                    batch_size=batch_size,
                    forensics=ForensicQueue(),
                    entropy_window=entropy_window,
                    queue=ShardQueue(self.policy),
                    telemetry=self.metrics.enabled or None,
                    tracer=tracer,
                ),
            )
            for shard_id in range(self.router.n_shards)
        ]
        self._forensics = forensics if forensics is not None else ForensicQueue()
        self._staged_flagged: list[tuple] = []
        self._staged_rows = 0
        # Flush the columnar stage into the bounded queue before it can
        # outgrow the queue's own memory cap: staging defers per-row
        # object creation, it must not defeat maxlen under a flag storm.
        self._stage_limit = min(self._forensics.maxlen, 8192)
        self.drift = (
            EntropyDriftMonitor(drift_reference)
            if drift_reference is not None
            else None
        )
        self.n_batches = 0
        self.published = PublishedHmd(hmd)

    @property
    def n_shards(self) -> int:
        """Number of monitor cores behind the router."""
        return len(self.shards)

    # -- ingress -------------------------------------------------------

    def shard_for(self, device_id: str) -> FleetShard:
        """The shard owning a device."""
        return self.shards[self.router.shard_of(device_id)]

    def register(self, device_id: str, *, cohort: str = "unknown"):
        """Idempotently create the device's state on its home shard."""
        return self.shard_for(device_id).monitor.register(
            device_id, cohort=cohort
        )

    def register_fleet(self, devices) -> None:
        """Register a whole device population across the shards."""
        for device in devices:
            self.register(device.device_id, cohort=device.cohort)

    def submit(self, device_id: str, window) -> bool:
        """Route one window to its device's shard."""
        return self.shard_for(device_id).monitor.submit(device_id, window)

    def submit_many(self, device_id: str, windows) -> int:
        """Route a block of windows to its device's shard."""
        return self.shard_for(device_id).monitor.submit_many(device_id, windows)

    @property
    def pending(self) -> int:
        """Windows currently queued across all shards."""
        return sum(len(shard.queue) for shard in self.shards)

    @property
    def stats(self) -> MonitorStats:
        """Merged fleet-wide counters (computed from the shards)."""
        merged = MonitorStats()
        for shard in self.shards:
            merged.merge(shard.monitor.stats)
        return merged

    # -- fused inference rounds ----------------------------------------

    def _ensure_published(self) -> PublishedHmd:
        if not self.published.is_current():
            # One recompile per retrain/threshold change; the new view
            # is shared by every shard from this round on.
            self.published = PublishedHmd(self.hmd)
        return self.published

    def _collect_flagged(self) -> None:
        """Pull each shard's flagged output into the facade's stage.

        Shards are visited in id order and each preserves flag order,
        so the merged stream is deterministic and per-device
        submission-sequence ordered.  Rows stay columnar here — the
        per-row :class:`FleetFlaggedSample` objects materialise only
        when the :attr:`forensics` stream is actually read (triage
        time), keeping analyst bookkeeping out of the drain hot loop.
        """
        for shard in self.shards:
            if shard._staged_flagged:
                for block in shard.take_staged_flagged():
                    self._staged_flagged.append(block)
                    self._staged_rows += len(block[-1])
            queue = shard.monitor.forensics
            if len(queue):
                # Reference-path pushes (someone drove the shard's own
                # process_batch) merge as ready-made samples.
                samples = queue.drain()
                self._staged_flagged.append(samples)
                self._staged_rows += len(samples)
        if self._staged_rows >= self._stage_limit:
            self._flush_staged()

    def _flush_staged(self) -> None:
        """Materialise staged flagged rows into the bounded queue."""
        if self._staged_flagged:
            staged, self._staged_flagged = self._staged_flagged, []
            self._staged_rows = 0
            for block in staged:
                if isinstance(block, list):  # reference-path samples
                    self._forensics.push_many(block)
                    continue
                features, predictions, entropy, steps, device_ids, seqs = block
                self._forensics.push_many(
                    FleetFlaggedSample(
                        features=features[i],
                        prediction=int(predictions[i]),
                        entropy=float(entropy[i]),
                        step=int(steps[i]),
                        device_id=str(device_ids[i]),
                        seq=int(seqs[i]),
                    )
                    for i in range(len(seqs))
                )

    @property
    def forensics(self) -> ForensicQueue:
        """The merged triage stream (flushes staged flagged rows)."""
        self._flush_staged()
        return self._forensics

    def process_batch(self) -> FleetBatchResult | None:
        """One fused round: up to ``batch_size`` rows *per shard*.

        Returns the merged verdict batch (rows grouped by shard id, per
        device in submission order), or ``None`` when every queue is
        empty.
        """
        published = self._ensure_published()
        parts: list[tuple[FleetShard, IndexedWindowBatch]] = []
        for shard in self.shards:
            if len(shard.queue):
                batch = shard.queue.take(self.batch_size)
                if len(batch):
                    parts.append((shard, batch))
        if not parts:
            return None

        if self._obs_on:
            if self.tracer is not None:
                for _, batch in parts:
                    self.tracer.stamp_rows(batch.device_ids, batch.seqs, "queue")
            t0 = time.perf_counter()
        if len(parts) == 1:
            features = parts[0][1].features
        else:
            features = np.vstack([batch.features for _, batch in parts])
        predictions, entropy, accepted = published.verdict(features)
        if self._obs_on:
            t1 = time.perf_counter()
            self._m_verdict.observe(t1 - t0)
            self._m_rounds.inc()
            self._m_drained.inc(len(predictions))
            self._m_flagged.inc(int(np.count_nonzero(~np.asarray(accepted, dtype=bool))))
            if self.tracer is not None:
                for _, batch in parts:
                    self.tracer.stamp_rows(batch.device_ids, batch.seqs, "verdict")

        offset = 0
        for shard, batch in parts:
            stop = offset + len(batch)
            shard.scatter(
                batch,
                predictions[offset:stop],
                entropy[offset:stop],
                accepted[offset:stop],
            )
            offset = stop
        if self._obs_on:
            self._m_scatter.observe(time.perf_counter() - t1)
            self._m_scatter_rows.inc(len(predictions))
            if self.tracer is not None:
                for _, batch in parts:
                    self.tracer.complete_rows(batch.device_ids, batch.seqs, "scatter")
        self._collect_flagged()
        if self.drift is not None:
            self.drift.observe(entropy)
        self.n_batches += 1

        if len(parts) == 1:
            device_ids = parts[0][1].device_ids
            seqs = parts[0][1].seqs
        else:
            device_ids = np.concatenate([b.device_ids for _, b in parts])
            seqs = np.concatenate([b.seqs for _, b in parts])
        return FleetBatchResult(
            device_ids=device_ids,
            seqs=seqs,
            predictions=predictions,
            entropy=entropy,
            accepted=accepted,
            threshold=published.threshold,
        )

    def drain(self, max_batches: int | None = None) -> list[FleetBatchResult]:
        """Run fused rounds until every shard queue is empty."""
        results: list[FleetBatchResult] = []
        while max_batches is None or len(results) < max_batches:
            result = self.process_batch()
            if result is None:
                break
            results.append(result)
        return results

    # -- egress --------------------------------------------------------

    def report(self) -> FleetReport:
        """Merged fleet view over all shards' device tables."""
        report = merge_reports(
            (shard.monitor.report() for shard in self.shards),
            n_batches=self.n_batches,
            drift_status=self.drift.observe([]).status if self.drift else None,
        )
        if self.metrics.enabled:
            # Fold the facade's fused-round instruments into the merged
            # per-shard telemetry (merge_snapshots is associative, so
            # order does not matter).
            snapshots = [self.metrics.snapshot()]
            if report.telemetry:
                snapshots.append(report.telemetry)
            report = replace(report, telemetry=merge_snapshots(snapshots))
        return report

    # -- rebalancing ---------------------------------------------------

    def rebalance(self, n_shards: int) -> dict[str, tuple[int, int]]:
        """Change the shard count, migrating device state and backlogs.

        Every moved device takes its :class:`DeviceState`, sequence
        counter, shed history and queued windows (in order) to its new
        shard, so subsequent verdicts are unchanged.  Returns the
        router's deterministic move map ``{device: (old, new)}``.
        """
        self._collect_flagged()
        device_ids = [
            device_id
            for shard in self.shards
            for device_id in shard.monitor.devices
        ]
        plan = self.router.plan_rebalance(device_ids, n_shards)
        new_router = type(self.router)(n_shards)
        # Seed every new core's step counter past all the old ones, so
        # post-rebalance flagged-sample steps and last_step keep
        # advancing monotonically (mirrors what snapshot/restore keep).
        step_seed = max(
            (shard.monitor._step for shard in self.shards), default=0
        )
        new_shards = [
            FleetShard(
                shard_id,
                FleetMonitor(
                    self.hmd,
                    batch_size=self.batch_size,
                    forensics=ForensicQueue(),
                    entropy_window=self.entropy_window,
                    queue=ShardQueue(self.policy),
                    telemetry=self.metrics.enabled or None,
                    tracer=self.tracer,
                ),
            )
            for shard_id in range(n_shards)
        ]
        for shard in new_shards:
            shard.monitor._step = step_seed
        for shard in self.shards:
            monitor = shard.monitor
            for device_id, state in monitor.devices.items():
                target = new_shards[new_router.shard_of(device_id)].monitor
                target.devices[device_id] = state
                target._seq[device_id] = monitor._seq[device_id]
                target.stats.merge(state.stats)
                shed = monitor.queue.shed_by_device.get(device_id, 0)
                if shed:
                    target.queue.shed_by_device[device_id] = shed
                features, seqs = monitor.queue.extract_device(device_id)
                if len(seqs):
                    # Direct admission: these rows already passed the
                    # backpressure policy once — a migration must move
                    # them, never re-shed them.
                    index = target.queue.register_device(device_id)
                    target.queue._admit_rows(
                        np.full(len(seqs), index, dtype=np.int64),
                        features,
                        seqs,
                    )
        self.router = new_router
        self.shards = new_shards
        return plan

    # -- persistence ---------------------------------------------------

    def snapshot(self) -> dict:
        """Checkpoint the full sharded fleet (model excluded).

        Per-shard monitor snapshots (queue backlogs, device states,
        counters) plus the router/policy configuration and the merged
        forensic backlog — what :meth:`restore` needs to resume
        mid-stream with identical subsequent verdicts.  As with
        :meth:`FleetMonitor.snapshot`, the fitted HMD and the optional
        drift monitor's accumulated detector statistics travel
        separately (model pickle / fresh ``drift_reference``).
        """
        return {
            "schema": SNAPSHOT_SCHEMA,
            "n_shards": self.n_shards,
            "batch_size": self.batch_size,
            "entropy_window": self.entropy_window,
            "n_batches": self.n_batches,
            "policy": asdict(self.policy),
            "shards": [shard.monitor.snapshot() for shard in self.shards],
            "forensics": {
                "samples": self.forensics.snapshot(),
                "maxlen": self.forensics.maxlen,
                "total_flagged": self.forensics.total_flagged,
            },
        }

    @staticmethod
    def _validate_snapshot(state: dict) -> None:
        """Reject stale, foreign or internally inconsistent checkpoints.

        A restore that starts applying a bad payload can leave a fleet
        (or a supervised worker restarting from it) half-built, so every
        structural check happens before any state is touched.
        """
        if not isinstance(state, dict):
            raise ValueError(
                f"fleet snapshot must be a dict; got {type(state).__name__}."
            )
        schema = state.get("schema")
        if schema != SNAPSHOT_SCHEMA:
            raise ValueError(
                f"unsupported fleet snapshot schema {schema!r}; this build "
                f"restores {SNAPSHOT_SCHEMA!r} checkpoints only. Re-snapshot "
                "with the current code (old unversioned payloads predate "
                "supervised worker restarts and cannot be trusted)."
            )
        missing = [
            key
            for key in (
                "n_shards",
                "batch_size",
                "entropy_window",
                "n_batches",
                "policy",
                "shards",
                "forensics",
            )
            if key not in state
        ]
        if missing:
            raise ValueError(
                f"fleet snapshot is missing required keys {missing}; "
                "the checkpoint is truncated or corrupt."
            )
        if len(state["shards"]) != state["n_shards"]:
            raise ValueError(
                f"fleet snapshot declares {state['n_shards']} shards but "
                f"carries {len(state['shards'])} shard payloads; refusing "
                "a mismatched checkpoint."
            )
        try:
            BackpressurePolicy(**state["policy"])
        except TypeError as error:
            raise ValueError(
                f"fleet snapshot policy {state['policy']!r} does not match "
                f"this build's BackpressurePolicy: {error}"
            ) from None

    @classmethod
    def restore(
        cls,
        hmd: TrustedHMD,
        state: dict,
        *,
        drift_reference=None,
        router: ShardRouter | None = None,
    ) -> "ShardedFleetMonitor":
        """Rebuild a sharded fleet from :meth:`snapshot` output.

        As with :meth:`FleetMonitor.restore`, the fitted HMD travels
        separately; restoring against a warm-retrained model is
        supported and simply publishes the refreshed view.  The facade
        policy is restored too, so a later :meth:`rebalance` builds its
        new queues with the original bounds; a fleet that was built
        with a custom ``router`` must pass an equivalent one here (the
        router is configuration, not serialisable state).
        """
        cls._validate_snapshot(state)
        forensic_state = state["forensics"]
        fleet = cls(
            hmd,
            n_shards=state["n_shards"],
            batch_size=state["batch_size"],
            entropy_window=state["entropy_window"],
            policy=BackpressurePolicy(**state["policy"]),
            forensics=ForensicQueue.restore(
                forensic_state["samples"],
                maxlen=forensic_state["maxlen"],
                total_flagged=forensic_state["total_flagged"],
            ),
            drift_reference=drift_reference,
            router=router,
        )
        if fleet.router.n_shards != state["n_shards"]:
            raise ValueError(
                f"router has {fleet.router.n_shards} shards but the "
                f"snapshot holds {state['n_shards']}."
            )
        fleet.n_batches = int(state["n_batches"])
        fleet.shards = [
            FleetShard(
                shard_id,
                FleetMonitor.restore(hmd, shard_state, queue_cls=ShardQueue),
            )
            for shard_id, shard_state in enumerate(state["shards"])
        ]
        return fleet
