"""Multiplexing queue with explicit backpressure for the fleet engine.

Production DAQ systems facing many sensor streams (the KM3NeT Control
Unit, the CMS HGCAL DAQ prototype) converge on the same ingress shape:
a bounded central queue in front of the batched processing core, with a
*shedding* policy that decides what happens when producers outrun the
core.  This module is that ingress: window submissions from all devices
land in one :class:`FleetQueue`, bounded globally and per device, and
overload is resolved by policy rather than by unbounded memory growth.
A :class:`~repro.fleet.engine.FleetMonitor` runs one.

Two shedding modes are provided:

* ``"drop_oldest"`` — evict the stalest queued window to admit the new
  one (freshness wins; the natural choice for monitoring, where a new
  signature supersedes an old one from the same device);
* ``"drop_newest"`` — refuse the incoming window (arrival order wins;
  the classic bounded-mailbox behaviour).

Every shed window is attributed to its device so the fleet report can
show *who* is being rate-limited.

Storage is an **arena** of contiguous 1024-row blocks.  Each row
carries a dense integer device index next to its sequence number, so
an uncongested :meth:`FleetQueue.take` returns zero-copy slices of one
block, and the verdict fold downstream groups rows with integer
``bincount`` arithmetic instead of string grouping.  Each row also
carries its device's admission ordinal, and one rule says which rows
are still queued: a device's live rows are exactly the ordinals
``[floor, tail)``.  Admission issues ``tail`` and bumps it; takes and
global and per-device eviction only raise ``floor``.  Each is kept in
the form its hot user wants: ``tail`` as plain Python ints, which the
per-row admission reads and bumps, and ``floor`` as an int64 array,
which every take raises with one ``bincount``.  A
row left behind its device's floor is dead storage, skipped by the
next pass over it; once dead rows outnumber the live rows the arena is
rebuilt from the live rows, so storage stays bounded by the backlog,
never by the shed volume.
"""

from __future__ import annotations

from collections import deque
from dataclasses import asdict, dataclass

import numpy as np

from ..obs.metrics import NULL_REGISTRY

__all__ = ["WindowBatch", "BackpressurePolicy", "FleetQueue"]

_SHED_MODES = ("drop_oldest", "drop_newest")


@dataclass(frozen=True)
class WindowBatch:
    """One dequeued batch, pre-stacked for the vectorised vote path.

    ``features`` rows, ``device_ids``, ``seqs`` and ``device_index``
    are aligned and in admission order.  ``device_index[i]`` is the
    queue-local dense integer id of row ``i``'s device — what the
    verdict fold groups on.
    """

    device_ids: np.ndarray    # (n,) unicode device ids
    seqs: np.ndarray          # (n,) per-device submission sequence numbers
    features: np.ndarray      # (n, n_features) stacked windows
    device_index: np.ndarray  # (n,) int64 dense device ids

    def __len__(self) -> int:
        return len(self.seqs)

    def __getitem__(self, rows) -> "WindowBatch":
        """The batch's ``rows`` (a slice or a boolean mask), still aligned."""
        return WindowBatch(
            device_ids=self.device_ids[rows],
            seqs=self.seqs[rows],
            features=self.features[rows],
            device_index=self.device_index[rows],
        )


_EMPTY_BATCH = WindowBatch(
    device_ids=np.empty(0, dtype="<U1"),
    seqs=np.empty(0, dtype=np.int64),
    features=np.empty((0, 0)),
    device_index=np.empty(0, dtype=np.int64),
)


@dataclass(frozen=True)
class BackpressurePolicy:
    """Bounds and shedding behaviour of the ingress queue.

    Parameters
    ----------
    max_pending:
        Global cap on queued windows across all devices.
    max_pending_per_device:
        Per-device cap (``None`` disables the per-device bound).  Keeps
        one chatty or replaying device from starving the rest of the
        fleet even when the global queue has headroom.
    shed:
        ``"drop_oldest"`` or ``"drop_newest"`` (see module docstring).
    """

    max_pending: int = 4096
    max_pending_per_device: int | None = None
    shed: str = "drop_oldest"

    def __post_init__(self) -> None:
        if self.max_pending < 1:
            raise ValueError(f"max_pending must be >= 1; got {self.max_pending}.")
        if self.max_pending_per_device is not None and self.max_pending_per_device < 1:
            raise ValueError(
                "max_pending_per_device must be >= 1 or None; "
                f"got {self.max_pending_per_device}."
            )
        if self.shed not in _SHED_MODES:
            raise ValueError(f"shed must be one of {_SHED_MODES}; got {self.shed!r}.")




_BLOCK_ROWS = 1024


class _ArenaBlock:
    """One contiguous slab of queued rows (feature matrix + metadata)."""

    __slots__ = ("x", "dev", "ords", "seqs", "filled", "head")

    def __init__(self, n_features: int):
        self.x = np.empty((_BLOCK_ROWS, n_features), dtype=np.float64)
        self.dev = np.empty(_BLOCK_ROWS, dtype=np.int64)
        self.ords = np.empty(_BLOCK_ROWS, dtype=np.int64)  # device ordinal
        self.seqs = np.empty(_BLOCK_ROWS, dtype=np.int64)
        self.filled = 0     # rows written
        self.head = 0       # rows consumed (from the front)


def _ranks(dev: np.ndarray) -> np.ndarray:
    """Each row's rank among the rows of its own device, in order."""
    order = np.argsort(dev, kind="stable")
    grouped = dev[order]
    ranks = np.empty(len(dev), dtype=np.int64)
    ranks[order] = np.arange(len(dev)) - np.searchsorted(grouped, grouped)
    return ranks


class FleetQueue:
    """Bounded FIFO of windows stored in contiguous arena blocks.

    * rows live in fixed-size blocks, so an uncongested ``take``
      returns zero-copy slices;
    * each row carries a dense integer device index
      (:meth:`register_device`), so downstream routing is integer
      arithmetic;
    * each row carries its device's admission ordinal, and a device's
      live rows are exactly the ordinals ``[floor, tail)``: every
      removal raises ``floor``, and a row is dead iff its ordinal is
      below its device's floor.
    """

    def __init__(self, policy: BackpressurePolicy | None = None):
        self.policy = policy if policy is not None else BackpressurePolicy()
        self._blocks: deque[_ArenaBlock] = deque()
        self._n_features: int | None = None
        # Device id -> dense index: the one device registry.  Read it
        # freely; add to it only through register_device.
        self.indices: dict[str, int] = {}
        self._names: list[str] = []
        self._names_arr: np.ndarray | None = None
        # Per dense device index: the live rows are ordinals [floor, tail).
        # floor is an array with spare capacity (takes raise it with one
        # bincount); tail holds one plain int per registered device (the
        # per-row admission bumps it).
        self._floor = np.zeros(8, dtype=np.int64)
        self._tail: list[int] = []
        self._n_pending = 0
        self._dead_count = 0    # unconsumed rows behind their device's floor
        self.shed_by_device: dict[str, int] = {}
        self.bind_metrics(NULL_REGISTRY)

    def bind_metrics(self, registry) -> None:
        """Bind admission/shed/occupancy instruments to a registry.

        With a disabled registry (telemetry off) no instrument is ever
        called: every hook sits behind one ``registry.enabled`` flag, so
        the per-row admission pays one attribute test and nothing else.
        With telemetry on, a block admission or a take costs one counter
        add and two gauge sets, and so does each per-row admission: the
        counters and the depth and arena gauges read the queue exactly
        after every call, not once per batch.  Binding publishes the
        queue's current depth and arena size.
        """
        self._metrics_on = registry.enabled
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
        if self._metrics_on:
            self._m_depth.set(self._n_pending)
            self._m_arena.set(len(self._blocks))

    # -- registry ------------------------------------------------------

    def register_device(self, device_id: str) -> int:
        """Dense integer index for a device (created on first sight)."""
        index = self.indices.get(device_id)
        if index is None:
            index = len(self._names)
            self.indices[device_id] = index
            self._names.append(device_id)
            self._tail.append(0)
            self._names_arr = None
            if index >= len(self._floor):
                grow = np.zeros(len(self._floor), dtype=np.int64)
                self._floor = np.concatenate([self._floor, grow])
        return index

    def device_name(self, index: int) -> str:
        """Device id for a dense index."""
        return self._names[index]

    def names_array(self) -> np.ndarray:
        """The registry as a numpy unicode array (cached)."""
        if self._names_arr is None or len(self._names_arr) != len(self._names):
            self._names_arr = np.asarray(self._names)
        return self._names_arr

    @property
    def names(self) -> list[str]:
        """Device ids by dense index.  The list only ever grows (one
        append per registration), so a cache keyed on it stays valid for
        the indices it has seen; read it, never change it."""
        return self._names

    @property
    def n_features(self) -> int | None:
        """Features per queued window (``None`` before the first admission)."""
        return self._n_features

    # -- accounting ----------------------------------------------------

    def __len__(self) -> int:
        return self._n_pending

    @property
    def arena_blocks(self) -> int:
        """Arena blocks currently allocated."""
        return len(self._blocks)

    @property
    def total_shed(self) -> int:
        """Windows dropped by backpressure since construction."""
        return sum(self.shed_by_device.values())

    def pending(self, device_id: str | None = None) -> int:
        """Queued windows, queue-wide or for one device."""
        if device_id is None:
            return self._n_pending
        index = self.indices.get(device_id)
        if index is None:
            return 0
        return self._tail[index] - int(self._floor[index])

    def _shed(self, device_id: str) -> None:
        self.shed_by_device[device_id] = self.shed_by_device.get(device_id, 0) + 1
        if self._metrics_on:
            self._m_shed.inc(1)

    # -- liveness ------------------------------------------------------

    def _live_rows(self, block: _ArenaBlock) -> np.ndarray:
        """Positions of a block's unconsumed live rows, in admission order."""
        rows = np.arange(block.head, block.filled)
        return rows[block.ords[rows] >= self._floor[block.dev[rows]]]

    def _live(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(dev, seqs, features)`` of every live row, admission order."""
        dev, seqs, features = [], [], []
        for block in self._blocks:
            rows = self._live_rows(block)
            if len(rows):
                dev.append(block.dev[rows])
                seqs.append(block.seqs[rows])
                features.append(block.x[rows])
        if not seqs:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty, np.empty((0, 0))
        return np.concatenate(dev), np.concatenate(seqs), np.vstack(features)

    def _compact(self) -> None:
        """Rebuild the arena from its live rows once dead rows dominate.

        Per-device shedding under a stalled consumer leaves dead rows
        that no take ever reaches; without the rebuild the arena would
        keep every shed row.  The threshold (more dead rows than live
        ones, and at least one block's worth) makes the rebuild cost
        amortised O(1) per dead row.
        """
        if self._dead_count <= max(self._n_pending, _BLOCK_ROWS):
            return
        dev, seqs, features = self._live()
        self._blocks = deque()
        self._dead_count = 0
        self._tail = self._floor[: len(self._tail)].tolist()  # re-issues the same ordinals
        self._append_rows(dev, self._issue(dev), features, seqs)
        if self._metrics_on:
            self._m_arena.set(len(self._blocks))

    # -- shedding ------------------------------------------------------

    def _evict_oldest(self) -> None:
        """Shed the stalest live row in the whole arena."""
        while self._blocks:
            block = self._blocks[0]
            while block.head < block.filled:
                position = block.head
                block.head += 1
                index = int(block.dev[position])
                if block.ords[position] < self._floor[index]:
                    self._dead_count -= 1
                    continue
                self._floor[index] += 1
                self._n_pending -= 1
                self._shed(self._names[index])
                return
            if block.filled == _BLOCK_ROWS:
                self._blocks.popleft()
            else:
                return  # open block, nothing live behind it

    def _evict_device_oldest(self, index: int) -> None:
        """Shed one device's stalest row: its floor moves past it."""
        self._floor[index] += 1
        self._dead_count += 1
        self._n_pending -= 1
        self._shed(self._names[index])
        self._compact()

    # -- ingress -------------------------------------------------------

    def _issue(self, dev: np.ndarray) -> np.ndarray:
        """Device ordinals for rows of many devices, in admission order.

        Each row gets its device's tail plus its rank among that
        device's rows, and each tail moves past them.
        """
        counts = np.bincount(dev)
        present = np.flatnonzero(counts).tolist()
        first = np.zeros(len(counts), dtype=np.int64)
        tail = self._tail
        first[present] = [tail[i] for i in present]
        for i, n in zip(present, counts[present].tolist()):
            tail[i] += n
        return first[dev] + _ranks(dev)

    def _append_rows(
        self,
        dev: np.ndarray,
        ords: np.ndarray,
        features: np.ndarray,
        seqs: np.ndarray,
    ) -> None:
        """Write issued rows into the arena tail."""
        m = len(seqs)
        written = 0
        while written < m:
            if not self._blocks or self._blocks[-1].filled == _BLOCK_ROWS:
                self._blocks.append(_ArenaBlock(self._n_features))
            block = self._blocks[-1]
            k = min(m - written, _BLOCK_ROWS - block.filled)
            stop = block.filled + k
            block.x[block.filled : stop] = features[written : written + k]
            block.dev[block.filled : stop] = dev[written : written + k]
            block.ords[block.filled : stop] = ords[written : written + k]
            block.seqs[block.filled : stop] = seqs[written : written + k]
            block.filled = stop
            written += k

    def _admit_rows(
        self,
        dev: np.ndarray,
        ords: np.ndarray,
        features: np.ndarray,
        seqs: np.ndarray,
    ) -> None:
        """Append width-checked, issued rows verbatim (no policy) and
        update the counters."""
        m = len(seqs)
        self._n_pending += m
        self._append_rows(dev, ords, features, seqs)
        if self._metrics_on:
            self._admitted(m)

    def _check_width(self, n_features: int) -> None:
        if self._n_features is None:
            self._n_features = n_features
        elif n_features != self._n_features:
            raise ValueError(
                f"rows have {n_features} features; this queue "
                f"holds {self._n_features}-feature windows."
            )

    def _admitted(self, m: int) -> None:
        self._m_admitted.inc(m)
        self._m_depth.set(self._n_pending)
        self._m_arena.set(len(self._blocks))

    def admit_row(self, index: int, row: np.ndarray, seq: int) -> bool:
        """Admit one 1-D window under its dense device index; False when shed.

        The one per-row admission (the monitor's per-row submit, a
        congested :meth:`submit_block`): the policy runs, then the row
        is written straight into the arena tail.  A True return may
        still have shed an older window (in ``"drop_oldest"`` mode);
        check :attr:`shed_by_device`.  An uncongested admission is
        plain-int bookkeeping around the row copy (the floor, an array,
        is read only under a per-device cap), and with telemetry off no
        instrument is called.
        """
        if len(row) != self._n_features:
            self._check_width(len(row))
        policy = self.policy
        cap = policy.max_pending_per_device
        if cap is not None:
            while self._tail[index] - self._floor[index] >= cap:
                if policy.shed == "drop_newest":
                    self._shed(self._names[index])
                    return False
                self._evict_device_oldest(index)
        while self._n_pending >= policy.max_pending:
            if policy.shed == "drop_newest":
                self._shed(self._names[index])
                return False
            self._evict_oldest()
        blocks = self._blocks
        if not blocks or blocks[-1].filled == _BLOCK_ROWS:
            blocks.append(_ArenaBlock(self._n_features))
        block = blocks[-1]
        position = block.filled
        tail = self._tail
        ordinal = tail[index]
        block.x[position] = row
        block.dev[position] = index
        block.ords[position] = ordinal
        block.seqs[position] = seq
        block.filled = position + 1
        tail[index] = ordinal + 1
        self._n_pending += 1
        if self._metrics_on:
            self._admitted(1)
        return True

    def submit_block(
        self, device_id: str, features: np.ndarray, seqs: np.ndarray
    ) -> int:
        """Enqueue a stack of windows from one device at once.

        Uncongested blocks are bulk-copied into the arena with no
        per-row Python; a block that would trip a bound is replayed
        row-wise, so shedding semantics are exactly those of ``m``
        sequential :meth:`admit_row` calls.  Returns the admitted count.
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
        fits_device = (
            cap is None or self._tail[index] - self._floor[index] + m <= cap
        )
        fits_global = self._n_pending + m <= self.policy.max_pending
        if fits_device and fits_global:
            self._check_width(features.shape[1])
            start = self._tail[index]
            self._tail[index] = start + m
            self._admit_rows(
                np.full(m, index, dtype=np.int64),
                np.arange(start, start + m, dtype=np.int64),
                features,
                seqs,
            )
            return m

        return sum(self.admit_row(index, features[i], int(seqs[i])) for i in range(m))

    # -- egress --------------------------------------------------------

    def take(self, n: int) -> WindowBatch:
        """Dequeue up to ``n`` live rows in admission order.

        With no dead rows in the arena (the common case) a batch from
        one block is pure array views of it — no copies, no per-row
        objects.
        """
        if n < 1:
            raise ValueError(f"n must be >= 1; got {n}.")
        parts: list[tuple[_ArenaBlock, slice | np.ndarray]] = []
        need = n
        while need > 0 and self._blocks:
            block = self._blocks[0]
            start = block.head
            if self._dead_count:
                live = self._live_rows(block)[:need]
                k = len(live)
                stop = int(live[-1]) + 1 if k == need else block.filled
                self._dead_count -= stop - start - k
                rows = slice(start, stop) if k == stop - start else live
            else:
                stop = min(start + need, block.filled)
                k, rows = stop - start, slice(start, stop)
            block.head = stop
            if k:
                parts.append((block, rows))
                need -= k
            if stop == block.filled:
                if block.filled < _BLOCK_ROWS:
                    break  # drained the open block — nothing queued behind it
                self._blocks.popleft()

        if not parts:
            return _EMPTY_BATCH

        if len(parts) == 1:
            block, rows = parts[0]
            dev = block.dev[rows]
            seqs = block.seqs[rows]
            features = block.x[rows]
        else:
            dev = np.concatenate([b.dev[r] for b, r in parts])
            seqs = np.concatenate([b.seqs[r] for b, r in parts])
            features = np.vstack([b.x[r] for b, r in parts])

        # Takes consume each device's oldest live rows, so its floor
        # simply moves up by the rows taken.
        self._floor += np.bincount(dev, minlength=len(self._floor))
        self._n_pending -= len(seqs)
        if self._metrics_on:
            self._m_depth.set(self._n_pending)
            self._m_arena.set(len(self._blocks))
        return WindowBatch(
            device_ids=self.names_array().take(dev),
            seqs=seqs,
            features=features,
            device_index=dev,
        )

    # -- persistence ---------------------------------------------------

    def snapshot(self) -> dict:
        """Plain-data state: live rows in admission order + counters.

        The ``kind`` tag names the arena format, so :meth:`restore` can
        refuse payloads written by an older queue layout.  Ordinals are
        not stored: a restore re-issues them from each row's rank
        within its device.
        """
        dev, seqs, features = self._live()
        return {
            "kind": "shard",
            "policy": asdict(self.policy),
            "device_ids": (
                self.names_array().take(dev) if len(dev) else np.empty(0, "<U1")
            ),
            "seqs": seqs,
            "features": features,
            "shed_by_device": dict(self.shed_by_device),
        }

    @staticmethod
    def check_snapshot(state: dict) -> None:
        """Refuse a payload of a retired queue format (``ValueError``)."""
        kind = state.get("kind")
        if kind != "shard":
            raise ValueError(
                f"unsupported queue snapshot kind {kind!r}: this build "
                "restores arena-queue payloads (kind 'shard') only. A "
                "'fleet' payload holds 'segments' from the retired "
                "segment queue; replay its windows through submit instead."
            )

    @classmethod
    def restore(cls, state: dict, names=()) -> "FleetQueue":
        """Rebuild a queue from :meth:`snapshot` output (no re-shedding).

        ``names`` are registered first, in order, so dense indices can
        follow an owner's device table rather than the backlog.
        """
        cls.check_snapshot(state)
        queue = cls(BackpressurePolicy(**state["policy"]))
        for name in names:
            queue.register_device(name)
        device_ids = np.asarray(state["device_ids"])
        if len(device_ids):
            dev = np.asarray(
                [queue.register_device(str(d)) for d in device_ids],
                dtype=np.int64,
            )
            features = np.atleast_2d(np.asarray(state["features"], dtype=float))
            queue._check_width(features.shape[1])
            queue._admit_rows(
                dev,
                queue._issue(dev),
                features,
                np.asarray(state["seqs"], dtype=np.int64),
            )
        queue.shed_by_device = dict(state["shed_by_device"])
        return queue
