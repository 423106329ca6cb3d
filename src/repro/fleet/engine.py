"""The fleet-scale batched streaming inference engine.

:class:`FleetMonitor` is the central processing core the ROADMAP's
"millions of monitored devices" deployment needs.  Where
:class:`~repro.uncertainty.online.OnlineMonitor` screens one device's
windows, the fleet monitor multiplexes windows from *many* devices
through one bounded ingress queue and amortises the expensive part —
the ensemble vote pass — across fixed-size batches:

1. devices :meth:`~FleetMonitor.submit` windows — one row straight
   into the arena tail, or a whole block via
   :meth:`~FleetMonitor.submit_many` in one bulk copy; the monitor's
   :class:`~repro.fleet.queueing.FleetQueue` applies the backpressure
   policy;
2. a *round* verdicts up to ``batch_size`` rows:
   :meth:`~FleetMonitor.process_batch` runs one, and
   :meth:`~FleetMonitor.drain` runs the backlog in *sweeps* of as many
   whole rounds as fit a fixed byte budget.  A sweep takes its rows in
   one go, moves any row with NaN or infinite features into the
   monitor's :class:`~repro.fleet.resilience.QuarantineStore`, and runs
   a **single** vectorised pass over the rest through the monitor's
   :class:`PublishedHmd` (fused front, one native walk, vote-count
   table lookups);
3. each round's verdicts fold back on its dense device indices into
   the monitor's columnar device table (bincounts and one ring scatter,
   no per-device Python), flagged rows stage columnar for the
   forensic queue, and the entropy stream feeds an optional drift
   monitor;
4. a :class:`~repro.fleet.retrain.FleetRetrainer` triages the forensic
   queue between batches, collects analyst labels and warm-refits the
   shared HMD, and the next round republishes the verdict parts —
   the paper's monitor → flag → label → retrain loop, in process.

Because every per-window computation in the pipeline is row-independent
(element-wise scaling, per-row tree routing, per-row vote histograms),
batched verdicts are *bitwise identical* to sequential per-window ones
whatever the batch size — batching changes throughput, never results.
The benchmark ``benchmarks/test_bench_fleet.py`` asserts both
properties.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass

import numpy as np

from ..ml.backend import native_traversal
from ..obs.metrics import resolve_registry
from ..uncertainty.drift import EntropyDriftMonitor
from ..uncertainty.online import FlaggedSample, ForensicQueue, MonitorStats
from ..uncertainty.trust import TrustedHMD, TrustedVerdict, vote_counts
from .queueing import BackpressurePolicy, FleetQueue, WindowBatch
from .report import DeviceReport, FleetReport
from .resilience import QuarantinedWindow, QuarantineStore
from .state import DeviceState

__all__ = [
    "FleetFlaggedSample",
    "FleetBatchResult",
    "FleetMonitor",
    "PublishedHmd",
    "SNAPSHOT_SCHEMA",
    "batch_verdict_key",
    "batch_window_keys",
    "batched_verdicts_equal_sequential",
]

# Version tag of every FleetMonitor.snapshot() payload.  restore() reads
# a one-partition schema-1 payload through one rename and refuses any
# other tag up front.  Bump the suffix when the payload shape changes.
SNAPSHOT_SCHEMA = "repro.fleet.table/2"
_SCHEMA_1 = "repro.fleet.sharded/1"
_TABLE_KEYS = ("devices", "seq", "step", "stats", "queue")
_SNAPSHOT_KEYS = ("batch_size", "entropy_window", "n_batches", "policy", "forensics",
                  *_TABLE_KEYS, "quarantine", "drift")

# A window of this dtype, 1-D, is admitted without conversion.
_F64 = np.dtype(np.float64)

# Taken feature bytes per sweep: whole rounds up to this budget (at
# least one) share one vote count.  2 MB is 34 rounds of 256 30-feature
# rows, so the bench's 8,192-row hpc backlog is one sweep; a 512 KB
# budget (8 rounds) read no faster there.
_SWEEP_BYTES = 2 << 20


class PublishedHmd:
    """The shared HMD's verdict parts: the monitor's one verdict path.

    A record of what :func:`~repro.uncertainty.trust.vote_counts`
    needs — the fused front, the compiled forest and the vote-count
    tables — as :meth:`TrustedHMD.verdict_parts` built them, plus the
    verdict key they were built under.  Holding the parts fixed for a
    whole round keeps it on one model generation; :meth:`is_current`
    turns stale after a (warm) retrain, a threshold change or a compile
    mode switch, and the monitor republishes.

    Only models with count tables (a binary ensemble compiled to a flat
    or quantized forest) can be published; anything else raises
    ``ValueError`` and is served by ``hmd.analyze`` or
    :class:`~repro.uncertainty.online.OnlineMonitor`.
    """

    def __init__(self, hmd: TrustedHMD):
        if not hasattr(hmd, "estimator_"):
            raise ValueError("hmd must be fitted before publishing.")
        parts = hmd.verdict_parts()
        if parts is None:
            raise ValueError(
                "the fleet serves binary forests with vote-count tables; "
                f"this model ({len(hmd.classes_)} classes, "
                f"{type(hmd.ensemble_).__name__}) has none. Serve it with "
                "OnlineMonitor or hmd.analyze."
            )
        self.hmd = hmd
        self.key = hmd.verdict_key()
        self.front, self.backend, self.tables = parts
        self.threshold = float(hmd.policy_.threshold)
        self.compile_mode = hmd.compile_mode

    def is_current(self) -> bool:
        """False once the HMD refit, changed threshold, or switched mode."""
        return self.hmd.is_current_key(self.key)

    def counts(self, X) -> np.ndarray:
        """Each row's second-class vote count for a stacked batch."""
        return vote_counts(
            self.front, self.backend, self.tables.leaf_is_second, X
        )

    def verdict(self, X) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(predictions, entropy, accepted)`` for a stacked batch."""
        return self.tables.expand(self.counts(X))


@dataclass(frozen=True)
class FleetFlaggedSample(FlaggedSample):
    """A withheld signature window, attributed to its device."""

    device_id: str = ""
    seq: int = -1


class FlaggedStage:
    """The newest ``maxlen`` flagged rows, columnar, in front of a forensic queue.

    Rows pushed off the stage's ring only count in ``total_flagged``.
    :class:`FleetFlaggedSample` objects are built when the queue is read
    (:meth:`flush`: ``FleetMonitor.forensics`` or a snapshot), never
    during a drain.
    """

    def __init__(self, queue: ForensicQueue):
        self.queue = queue
        self.columns: list[np.ndarray] | None = None  # allocated on first add
        self.head = self.rows = self.dropped = 0

    def add(self, batch, predictions, entropy, accepted, base_step: int) -> int:
        """Copy a batch's withheld rows into the stage; returns their count."""
        flagged = np.flatnonzero(~np.asarray(accepted, dtype=bool))
        k, cap = len(flagged), self.queue.maxlen
        if k == 0:
            return 0
        values = (
            batch.features[flagged],
            predictions[flagged],
            entropy[flagged],
            base_step + flagged + 1,
            batch.device_ids[flagged],
            batch.seqs[flagged],
        )
        if self.columns is None:
            dtypes = (np.float64, np.int64, np.float64, np.int64, "<U1", np.int64)
            self.columns = [
                np.empty((cap,) + v.shape[1:], dtype) for v, dtype in zip(values, dtypes)
            ]
        if values[4].dtype.itemsize > self.columns[4].dtype.itemsize:
            self.columns[4] = self.columns[4].astype(values[4].dtype)
        at = (self.head + np.arange(max(0, k - cap), k)) % cap
        for column, value in zip(self.columns, values):
            column[at] = value[k - len(at) :]
        self.dropped += max(0, self.rows + k - cap)
        self.rows = min(self.rows + k, cap)
        self.head = (self.head + k) % cap
        return k

    def flush(self) -> ForensicQueue:
        """Build the staged rows into the queue, oldest first; returns it."""
        if self.rows:
            at = (self.head - self.rows + np.arange(self.rows)) % self.queue.maxlen
            features, *rest = (column[at] for column in self.columns)
            self.queue.total_flagged += self.dropped
            # Field order: features, prediction, entropy, step, device_id, seq.
            self.queue.push_many(
                FleetFlaggedSample(*fields)
                for fields in zip(features, *(column.tolist() for column in rest))
            )
        self.head = self.rows = self.dropped = 0
        return self.queue

    def snapshot(self) -> dict:
        """The forensic queue's checkpoint payload (staged rows included)."""
        queue = self.flush()
        return {
            "samples": queue.snapshot(),
            "maxlen": queue.maxlen,
            "total_flagged": queue.total_flagged,
        }


@dataclass(frozen=True)
class FleetBatchResult:
    """Verdicts of one batched inference pass, still device-addressed."""

    device_ids: np.ndarray      # (n,) unicode device ids
    seqs: np.ndarray            # per-device submission sequence numbers
    predictions: np.ndarray
    entropy: np.ndarray
    accepted: np.ndarray
    threshold: float

    def __len__(self) -> int:
        return len(self.predictions)

    def for_device(self, device_id: str) -> dict[str, np.ndarray]:
        """This batch's verdict arrays restricted to one device."""
        mask = np.asarray(self.device_ids) == device_id
        return {
            "seqs": self.seqs[mask],
            "predictions": self.predictions[mask],
            "entropy": self.entropy[mask],
            "accepted": self.accepted[mask],
        }


def batch_verdict_key(batches) -> dict:
    """Index batch results as ``(device_id, seq) -> verdict tuple``.

    The single definition of how device-addressed verdicts are keyed
    for equivalence checks (:func:`batched_verdicts_equal_sequential`,
    the ``ingest`` runner).
    """
    keyed = {}
    for batch in batches:
        for j, device_id in enumerate(batch.device_ids):
            keyed[(str(device_id), int(batch.seqs[j]))] = (
                batch.predictions[j],
                batch.entropy[j],
                bool(batch.accepted[j]),
            )
    return keyed


def batch_window_keys(batches) -> set:
    """The ``(device_id, seq)`` keys a drain produced verdicts for.

    The accounting half of :func:`batch_verdict_key`: the
    exactly-once audit (:func:`~repro.fleet.resilience.account_windows`)
    checks that every admitted window's key shows up here, in the
    quarantine store, or in the shed counters — never silently lost.
    """
    return set(batch_verdict_key(batches))


def batched_verdicts_equal_sequential(
    batches: list[FleetBatchResult],
    sequential_verdicts: list[tuple[str, TrustedVerdict]],
) -> bool:
    """Bitwise equivalence of batched vs. per-window sequential results.

    ``sequential_verdicts`` holds ``(device_id, verdict)`` pairs from
    screening the same windows one at a time, in submission order per
    device.  This is the single definition of the engine's equivalence
    guarantee, shared by the ``fleet`` experiment runner and the
    benchmark acceptance gate.
    """
    keyed = batch_verdict_key(batches)
    if len(keyed) != len(sequential_verdicts):
        return False
    counters: dict[str, int] = {}
    for device_id, verdict in sequential_verdicts:
        seq = counters.get(device_id, 0)
        counters[device_id] = seq + 1
        entry = keyed.get((device_id, seq))
        if entry is None:
            return False
        pred, entropy, accepted = entry
        if (
            pred != verdict.predictions[0]
            or entropy != verdict.entropy[0]     # bitwise float equality
            or accepted != bool(verdict.accepted[0])
        ):
            return False
    return True


def _validate_snapshot(state) -> dict:
    """Reject stale, foreign or internally inconsistent checkpoints.

    A restore that starts applying a bad payload can leave a fleet
    half-built, so every structural check happens before any state is
    touched.  Returns the schema-2 payload (a schema-1 one migrated).
    """
    if not isinstance(state, dict):
        raise ValueError(
            f"fleet snapshot must be a dict; got {type(state).__name__}."
        )
    if state.get("schema") == _SCHEMA_1:
        state = _from_schema_1(state)
    schema = state.get("schema")
    if schema != SNAPSHOT_SCHEMA:
        raise ValueError(
            f"unsupported fleet snapshot schema {schema!r}; this build "
            f"restores {SNAPSHOT_SCHEMA!r} and one-partition {_SCHEMA_1!r} "
            "checkpoints only. Re-snapshot with the current code (old "
            "unversioned payloads cannot be trusted)."
        )
    missing = [key for key in _SNAPSHOT_KEYS if key not in state]
    if missing:
        raise ValueError(
            f"fleet snapshot is missing required keys {missing}; "
            "the checkpoint is truncated or corrupt."
        )
    FleetQueue.check_snapshot(state["queue"])
    _check_backlog(state)
    try:
        BackpressurePolicy(**state["policy"])
    except TypeError as error:
        raise ValueError(
            f"fleet snapshot policy {state['policy']!r} does not match "
            f"this build's BackpressurePolicy: {error}"
        ) from None
    return state


def _from_schema_1(state: dict) -> dict:
    """A one-partition ``repro.fleet.sharded/1`` payload, renamed to schema 2.

    The partition's table keys move to the top level (its other keys
    were written for shape only).  Schema 1 carried no quarantine and
    no drift detector: the quarantine starts empty and drift is off.
    """
    shards = state.get("shards", ())
    if len(shards) != 1 or state.get("n_shards") != 1:
        raise ValueError(
            f"fleet snapshot has {len(shards)} partitions; this build "
            "restores one-partition checkpoints only. Restore it with a "
            "build from before snapshot schema 2 and snapshot it again."
        )
    flat = {k: v for k, v in state.items() if k not in ("n_shards", "shards")}
    flat.update({key: shards[0][key] for key in _TABLE_KEYS if key in shards[0]})
    flat.update(
        schema=SNAPSHOT_SCHEMA,
        quarantine=_quarantine_payload(QuarantineStore()),
        drift=None,
    )
    return flat


def _quarantine_payload(store: QuarantineStore) -> dict:
    """The quarantine's checkpoint: its bound, count, windows and keys."""
    return {
        "maxlen": store.maxlen,
        "total_quarantined": store.total_quarantined,
        "windows": store.snapshot(),
        "keys": sorted(store.keys()),
    }


def _check_backlog(state: dict) -> None:
    """Refuse a checkpoint whose backlog a restore cannot keep apart.

    Every device row needs a ``seq`` counter, and every queued row needs
    its device's row and a counter above the row's seq: otherwise the
    device's next submit reuses a ``(device_id, seq)`` key still queued.
    """
    seq = state["seq"]
    rows = {device["device_id"] for device in state["devices"]}
    missing = sorted(rows - seq.keys())
    if missing:
        raise ValueError(
            f"fleet snapshot has device rows without a seq counter: {missing}."
        )
    queue = state["queue"]
    names, inverse = np.unique(
        np.asarray(queue["device_ids"]).astype(str), return_inverse=True
    )
    last = np.full(len(names), -1, dtype=np.int64)
    np.maximum.at(last, inverse, np.asarray(queue["seqs"], dtype=np.int64))
    for name, top in zip(names.tolist(), last.tolist()):
        if name not in rows:
            raise ValueError(
                f"fleet snapshot queues windows of {name!r}, which has no "
                "device row; refusing an inconsistent checkpoint."
            )
        if seq[name] <= top:
            raise ValueError(
                f"fleet snapshot queues seq {top} of {name!r} but its seq "
                f"counter is {seq[name]}; a later submit would reuse the key."
            )


class _DeviceTable:
    """The monitor's ingress queue, step counter, counters and device table.

    The device table is columnar, indexed by the queue's dense device
    index: one array per :class:`MonitorStats` counter, ``last_step``
    and the entropy rings as one ``(devices, entropy_window)`` array
    with head and size columns.  ``seq``, the next sequence number of
    each device, is a list of plain ints, because the per-row submit
    reads and bumps it and nothing reads it vectorised.
    :class:`DeviceState` records are views built on read (:meth:`row`).
    """

    # The MonitorStats counters (field order), then each column's start value.
    _STATS = ("n_seen", "n_accepted", "n_flagged", "n_malware_alerts", "entropy_sum")
    _COLUMNS = dict.fromkeys(_STATS, 0) | {
        "entropy_sum": 0.0, "last_step": -1, "ring_head": 0, "ring_size": 0
    }

    def __init__(self, policy: BackpressurePolicy, entropy_window: int):
        self.queue = FleetQueue(policy)
        self.entropy_window = entropy_window
        self.cohorts: list[str] = []
        self.step = 0
        self.stats = MonitorStats()
        self.seq: list[int] = []
        self._grow(0)

    def register(self, device_id: str, cohort: str = "unknown") -> int:
        """Idempotently create a device's row; returns its dense index."""
        index = self.queue.register_device(device_id)
        if index >= len(self.cohorts):
            if index >= len(self.seq):
                self._grow(max(8, 2 * (index + 1)))
            self.cohorts.extend(["unknown"] * (index + 1 - len(self.cohorts)))
        if cohort != "unknown" and self.cohorts[index] == "unknown":
            self.cohorts[index] = cohort
        return index

    def _grow(self, capacity: int) -> None:
        """Extend every column to ``capacity`` rows (new rows at their start value)."""
        self.seq += [0] * (capacity - len(self.seq))
        for name, fill in self._COLUMNS.items():
            old = getattr(self, name, np.full(0, fill))
            setattr(self, name, np.append(old, np.full(capacity - len(old), fill)))
        old = getattr(self, "ring", np.zeros((0, self.entropy_window)))
        self.ring = np.vstack([old, np.zeros((capacity - len(old), self.entropy_window))])

    def __len__(self) -> int:
        return len(self.cohorts)

    def row(self, index: int) -> dict:
        """Row ``index`` in :meth:`DeviceState.snapshot` form (built on read)."""
        return {
            "device_id": self.queue.device_name(index),
            "cohort": self.cohorts[index],
            "stats": {name: getattr(self, name)[index].item() for name in self._STATS},
            "last_step": int(self.last_step[index]),
            "entropy_recent": {
                "capacity": self.entropy_window,
                "data": self.ring[index].copy(),
                "head": int(self.ring_head[index]),
                "size": int(self.ring_size[index]),
            },
        }

    @property
    def devices(self) -> dict[str, DeviceState]:
        """Every device's state by id, in registration order (views)."""
        return {
            self.queue.device_name(i): DeviceState.restore(self.row(i))
            for i in range(len(self))
        }

    def load(self, row: dict, seq: int) -> None:
        """Write a :meth:`row` payload and its sequence counter into the table."""
        index = self.register(row["device_id"], row["cohort"])
        for name, value in row["stats"].items():
            getattr(self, name)[index] = value
        ring = row["entropy_recent"]
        self.seq[index], self.last_step[index] = int(seq), row["last_step"]
        self.ring[index], self.ring_head[index], self.ring_size[index] = (
            ring["data"], ring["head"], ring["size"]
        )

    def _fold(
        self,
        device_index: np.ndarray,
        predictions: np.ndarray,
        entropy: np.ndarray,
        accepted: np.ndarray,
    ) -> int:
        """Fold verdicts into the counters and the device table.

        The one place device counters change, called only from
        :meth:`FleetMonitor._verdict_rounds` (once per round), with no loop
        over devices: bincounts, one stable argsort and one ring
        scatter.  Each device's entropy sum is the pairwise sum of its
        ordered segment (``sum(axis=1)`` over the gathered segments of
        each distinct length), and ring slots follow
        :meth:`~repro.fleet.state.RingBuffer.extend`, so state is
        bitwise independent of batching.  Returns the
        step counter before the batch.
        """
        n = len(entropy)
        base_step = self.step
        self.step += n
        # dtype=bool: ~ on an int 0/1 mask would invert bitwise, not logically.
        accepted = np.asarray(accepted, dtype=bool)
        self.stats.record_verdicts(predictions, entropy, accepted)

        group_sizes = np.bincount(device_index)
        present = np.flatnonzero(group_sizes)
        sizes = group_sizes[present]
        n_accepted = np.bincount(device_index, weights=accepted)[present].astype(np.int64)
        alerts = np.bincount(device_index, weights=accepted & (predictions == 1))
        self.n_seen[present] += sizes
        self.n_accepted[present] += n_accepted
        self.n_flagged[present] += sizes - n_accepted
        self.n_malware_alerts[present] += alerts[present].astype(np.int64)

        order = np.argsort(device_index, kind="stable")
        ordered = entropy[order]
        stops = np.cumsum(sizes)
        starts = stops - sizes
        self.last_step[present] = np.maximum(
            self.last_step[present], base_step + order[stops - 1] + 1
        )
        sums = np.empty(len(present), dtype=ordered.dtype)
        for length in np.flatnonzero(np.bincount(sizes)):
            chosen = np.flatnonzero(sizes == length)
            sums[chosen] = ordered[starts[chosen, None] + np.arange(length)].sum(axis=1)
        self.entropy_sum[present] += sums

        # A segment of at least `window` rows keeps its newest from slot 0.
        window = self.entropy_window
        head = self.ring_head[present]
        rank = np.arange(n) - np.repeat(starts, sizes)
        length = np.repeat(sizes, sizes)
        wrapped = (np.repeat(head, sizes) + rank) % window
        position = np.where(length >= window, rank - (length - window), wrapped)
        kept = position >= 0
        self.ring[device_index[order][kept], position[kept]] = ordered[kept]
        full = sizes >= window
        self.ring_head[present] = np.where(full, 0, (head + sizes) % window)
        self.ring_size[present] = np.minimum(self.ring_size[present] + sizes, window)
        return base_step


class FleetMonitor:
    """Multiplex many device streams through one batched trusted HMD.

    The one in-process engine: one ingress queue, one columnar device
    table and one set of counters.  A *round* verdicts up to
    ``batch_size`` queued rows and folds them back into the device
    table; :meth:`process_batch` runs one.  :meth:`drain` runs rounds in
    *sweeps*: one take of as many whole rounds as fit 2 MB of features
    (the bench's 8,192-row hpc backlog is one sweep of 32 rounds), one
    pass through the shared :class:`PublishedHmd` for all of them, then
    the folds round by round.  A large call walks the forest at a
    lower cost per row: the node table stays warm across rows and the
    Python wrappers are paid once (hpc's uint8 walk: 0.89x the per-row
    cost of 256 rows at 8,192).  Rounds, their results and every
    counter are those of a :meth:`process_batch` loop, bit for bit, and
    verdicts are bitwise identical for every batch size.

    Parameters
    ----------
    hmd:
        A *fitted* :class:`TrustedHMD` with vote-count tables (a binary
        compiled forest); any other model raises ``ValueError``.
    batch_size:
        Windows per vectorised ensemble pass.
    policy:
        Backpressure policy of the ingress queue (default: 4096 deep,
        shed-oldest); ``max_pending`` bounds the whole fleet.
    forensics:
        Forensic queue receiving flagged windows; created when omitted.
    drift_reference:
        Optional entropy sample of held-out known traffic; the fleet's
        entropy stream is then watched by an :class:`EntropyDriftMonitor`.
    entropy_window:
        Capacity of each device's recent-entropy ring.
    telemetry:
        ``True`` for a fresh :class:`~repro.obs.metrics.MetricsRegistry`,
        a registry to share, or ``None``/``False`` (default) for the
        no-op one; the ingress queue counts into it too.  Verdicts are
        bitwise identical either way.
    tracer:
        Optional :class:`~repro.obs.tracing.TraceContext` recording
        sampled window-lifecycle spans (ingest→queue→verdict→scatter).

    A taken row with NaN or infinite features is never verdicted: it
    moves into :attr:`quarantine` (reason ``"non-finite"``) and the rest
    of its batch is verdicted as usual.
    """

    def __init__(
        self,
        hmd: TrustedHMD,
        *,
        batch_size: int = 256,
        policy: BackpressurePolicy | None = None,
        forensics: ForensicQueue | None = None,
        drift_reference=None,
        entropy_window: int = 128,
        telemetry=None,
        tracer=None,
    ):
        if not hasattr(hmd, "estimator_"):
            raise ValueError("hmd must be fitted before fleet monitoring.")
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1; got {batch_size}.")
        if entropy_window < 1:
            raise ValueError(f"entropy_window must be >= 1; got {entropy_window}.")
        self.hmd = hmd
        self.batch_size = batch_size
        self.policy = policy if policy is not None else BackpressurePolicy()
        self.entropy_window = entropy_window
        self._stage = FlaggedStage(
            forensics if forensics is not None else ForensicQueue()
        )
        self.drift = (
            EntropyDriftMonitor(drift_reference)
            if drift_reference is not None
            else None
        )
        self.n_batches = 0
        self.metrics = resolve_registry(telemetry)
        self.tracer = tracer
        # One flag guards every per-round observation so the
        # uninstrumented hot path pays a single attribute test.
        self._obs_on = self.metrics.enabled or tracer is not None
        self._m_batches = self.metrics.counter(
            "fleet_batches_total", "rounds verdicted"
        )
        self._m_drained = self.metrics.counter(
            "fleet_windows_drained_total", "windows verdicted"
        )
        self._m_flagged = self.metrics.counter(
            "fleet_windows_flagged_total", "windows withheld as uncertain"
        )
        self._m_verdict = self.metrics.histogram(
            "fleet_verdict_seconds", "verdict-pass latency per sweep"
        )
        self._m_scatter = self.metrics.histogram(
            "fleet_scatter_seconds", "verdict scatter latency per round"
        )
        self._m_scatter_rows = self.metrics.counter(
            "fleet_scatter_rows_total", "verdict rows folded into device state"
        )
        self.quarantine = QuarantineStore()
        self.quarantine.bind_metrics(self.metrics)
        self.table = _DeviceTable(self.policy, entropy_window)
        self.table.queue.bind_metrics(self.metrics)
        # Publishing compiles the HMD, so the first batch of live
        # traffic does not pay the one-off flattening cost.
        self.published = PublishedHmd(hmd)

    # -- ingress -------------------------------------------------------

    def register(self, device_id: str, *, cohort: str = "unknown") -> DeviceState:
        """Idempotently create the device's table row; a view of it."""
        table = self.table
        return DeviceState.restore(table.row(table.register(device_id, cohort)))

    def register_fleet(self, devices) -> None:
        """Register a whole :class:`FleetDevice` population at once."""
        for device in devices:
            self.table.register(device.device_id, device.cohort)

    def _admission(self, device_id: str, n_features: int) -> int:
        """Validate a submission's width first (so a rejected window
        registers nothing), then the device's dense index: one dict
        lookup for a known device."""
        expected = getattr(self.hmd, "n_features_in_", None)
        if expected is not None and n_features != expected:
            # Reject at ingress: a ragged window admitted here would
            # poison the whole batch at stack time.
            raise ValueError(
                f"windows from {device_id!r} have {n_features} features; "
                f"the fleet HMD expects {expected}."
            )
        index = self.table.queue.indices.get(device_id)
        return self.table.register(device_id) if index is None else index

    def submit(self, device_id: str, window) -> bool:
        """Enqueue one window straight into the arena tail; False when shed.

        The per-row ingress: a 1-D float64 ndarray is used as it is,
        anything else goes through ``np.asarray(window, dtype=float).ravel()``
        first.  The sequence number is a plain int, and the queue's
        :meth:`FleetQueue.admit_row` does the rest.
        """
        if type(window) is not np.ndarray or window.ndim != 1 or window.dtype is not _F64:
            window = np.asarray(window, dtype=float).ravel()
        index = self._admission(device_id, len(window))
        table = self.table
        seq = table.seq[index]
        table.seq[index] = seq + 1
        if self.tracer is not None:
            self.tracer.begin(device_id, seq)
        return table.queue.admit_row(index, window, seq)

    def submit_many(self, device_id: str, windows) -> int:
        """Enqueue a stack of windows as one block; returns how many were admitted.

        Validation, registration and sequence numbering happen once per
        block, which lands in the arena in one bulk copy.
        """
        windows = np.ascontiguousarray(
            np.atleast_2d(np.asarray(windows, dtype=float))
        )
        if windows.size == 0:
            return 0
        index = self._admission(device_id, windows.shape[1])
        table = self.table
        start = table.seq[index]
        table.seq[index] = start + len(windows)
        seqs = np.arange(start, start + len(windows), dtype=np.int64)
        if self.tracer is not None:
            self.tracer.begin_block(device_id, seqs)
        return table.queue.submit_block(device_id, windows, seqs)

    @property
    def queue(self) -> FleetQueue:
        """The ingress queue."""
        return self.table.queue

    @property
    def pending(self) -> int:
        """Windows currently queued."""
        return len(self.table.queue)

    @property
    def devices(self) -> dict[str, DeviceState]:
        """Every device's state by id (views built on read)."""
        return self.table.devices

    @property
    def stats(self) -> MonitorStats:
        """Fleet-wide counters."""
        return self.table.stats

    # -- inference rounds ----------------------------------------------

    def _ensure_published(self) -> PublishedHmd:
        if not self.published.is_current():
            # One recompile per retrain/threshold/mode change; the new
            # parts serve every round from this one on.
            self.published = PublishedHmd(self.hmd)
        return self.published

    def process_batch(self) -> FleetBatchResult | None:
        """One round: verdict up to ``batch_size`` queued rows.

        A sweep of one round (:meth:`_sweep`).  The round's verdicts
        (per device in submission order), or ``None`` when the queue is
        empty.  A round whose taken rows were all quarantined takes
        again.
        """
        results = self._sweep(1)
        return results[0] if results else None

    def drain(self, max_batches: int | None = None) -> list[FleetBatchResult]:
        """Run rounds until the queue is empty (or ``max_batches`` rounds).

        Rounds run in sweeps (:meth:`_sweep`): each takes as many whole
        rounds as fit the sweep's byte budget and verdicts them in one
        pass, then folds them back round by round.  The rounds, their
        boundaries and every verdict and counter are those of a
        :meth:`process_batch` loop, bit for bit; only the number of
        verdict passes differs.
        """
        results: list[FleetBatchResult] = []
        while max_batches is None or len(results) < max_batches:
            swept = self._sweep(
                None if max_batches is None else max_batches - len(results)
            )
            if not swept:
                break
            results += swept
        return results

    def _sweep(self, max_rounds: int | None) -> list[FleetBatchResult]:
        """Verdict whole rounds in one pass; their results, in order.

        One ``take`` of up to R rounds of ``batch_size`` rows, where R
        is the number of rounds whose features fit :data:`_SWEEP_BYTES`
        (at least one, at most ``max_rounds``).  The take is cut into
        rounds at the boundaries a :meth:`process_batch` loop has:
        consecutive ``batch_size`` rows.  Each round's rows with NaN or
        infinite features move into the quarantine (a float kernel's
        NaN compare and the bin search disagree on them, so no compile
        mode has a verdict for them).  The finite rows of all rounds go
        through **one** vote count (fused front and native walk) and
        one table expansion.  Then each round, in order, folds into the
        device table, stages its withheld rows and feeds the drift
        monitor, exactly as a round on its own would.  A round left
        empty yields no result; a sweep whose rounds were all empty
        takes again, so ``[]`` means the queue is empty.
        """
        published = self._ensure_published()
        queue, size = self.table.queue, self.batch_size
        row_bytes = 8 * (queue.n_features or 1)
        rounds = max(1, _SWEEP_BYTES // (size * row_bytes))
        if max_rounds is not None:
            rounds = min(rounds, max_rounds)
        while True:
            batch = queue.take(rounds * size)
            n = len(batch)
            if not n:
                return []
            cuts = np.arange(0, n + size, size).clip(max=n)
            finite = np.isfinite(batch.features).all(axis=1)
            if not finite.all():
                self._quarantine(batch, ~finite)
                batch = batch[finite]
                cuts = np.concatenate([[0], np.cumsum(finite)])[cuts]
            if len(batch):
                return self._verdict_rounds(batch, cuts, published)

    def _quarantine(self, batch: WindowBatch, rows: np.ndarray) -> None:
        """Move a taken batch's masked rows into the quarantine store."""
        for i in np.flatnonzero(rows):
            self.quarantine.push(
                QuarantinedWindow(
                    device_id=str(batch.device_ids[i]),
                    seq=int(batch.seqs[i]),
                    features=batch.features[i].copy(),
                    reason="non-finite",
                )
            )

    def _verdict_rounds(
        self, batch: WindowBatch, cuts: np.ndarray, published: PublishedHmd
    ) -> list[FleetBatchResult]:
        """Verdict a sweep's finite rows in one pass, then fold each round.

        Round ``r`` is rows ``cuts[r]:cuts[r + 1]`` of ``batch``.  The
        vote counts come from one :meth:`PublishedHmd.counts` call and
        are expanded once through the publication's tables; each
        non-empty round then folds into the device table (one
        :meth:`_DeviceTable._fold`, so counters and rings take the same
        bits as a round on its own), stages its withheld rows and feeds
        its entropies to the drift monitor.
        """
        obs, tracer = self._obs_on, self.tracer
        if obs:
            if tracer is not None:
                traced = tracer.sampled_rows(
                    batch.device_ids, batch.seqs, batch.device_index,
                    self.table.queue.names,
                )
                tracer.stamp_rows(batch.device_ids, batch.seqs, "queue", rows=traced)
            t0 = time.perf_counter()
        counts = published.counts(batch.features)
        if obs:
            self._m_verdict.observe(time.perf_counter() - t0)
            if tracer is not None:
                tracer.stamp_rows(batch.device_ids, batch.seqs, "verdict", rows=traced)
        predictions, entropy, accepted = published.tables.expand(counts)
        results = []
        for a, b in zip(cuts[:-1].tolist(), cuts[1:].tolist()):
            if a == b:
                continue
            part = batch[a:b]
            verdicts = predictions[a:b], entropy[a:b], accepted[a:b]
            if obs:
                t1 = time.perf_counter()
                self._m_batches.inc()
                self._m_drained.inc(b - a)
            base_step = self.table._fold(part.device_index, *verdicts)
            self._m_flagged.inc(self._stage.add(part, *verdicts, base_step))
            if obs:
                self._m_scatter.observe(time.perf_counter() - t1)
                self._m_scatter_rows.inc(b - a)
            if self.drift is not None:
                self.drift.observe(verdicts[1])
            self.n_batches += 1
            results.append(
                FleetBatchResult(
                    device_ids=part.device_ids,
                    seqs=part.seqs,
                    predictions=verdicts[0],
                    entropy=verdicts[1],
                    accepted=verdicts[2],
                    threshold=published.threshold,
                )
            )
        if obs and tracer is not None:
            tracer.complete_rows(batch.device_ids, batch.seqs, "scatter", rows=traced)
        return results

    @property
    def forensics(self) -> ForensicQueue:
        """The triage stream (builds the staged flagged rows into it)."""
        return self._stage.flush()

    # -- egress --------------------------------------------------------

    def report(self) -> FleetReport:
        """Aggregate the current state into one report view."""
        stats, queue = self.stats, self.table.queue
        device_reports = tuple(
            DeviceReport(
                device_id=state.device_id,
                cohort=state.cohort,
                n_seen=state.n_seen,
                n_flagged=state.n_flagged,
                n_malware_alerts=state.n_malware_alerts,
                n_shed=queue.shed_by_device.get(state.device_id, 0),
                n_pending=queue.pending(state.device_id),
                rejection_rate=state.rejection_rate,
                alert_rate=state.alert_rate,
                recent_entropy=state.recent_entropy,
            )
            for state in self.devices.values()
        )
        telemetry = None
        if self.metrics.enabled:
            self.metrics.gauge("fleet_queue_depth").set(self.pending)
            self.metrics.gauge(
                "fleet_native_kernel",
                "1 when vote counting runs the native kernel, 0 for numpy",
            ).set(int(native_traversal()))
            self.metrics.gauge("fleet_arena_blocks").set(queue.arena_blocks)
            telemetry = self.metrics.snapshot()
        return FleetReport(
            devices=device_reports,
            n_seen=stats.n_seen,
            n_accepted=stats.n_accepted,
            n_flagged=stats.n_flagged,
            n_malware_alerts=stats.n_malware_alerts,
            n_shed=queue.total_shed,
            n_pending=self.pending,
            n_batches=self.n_batches,
            mean_entropy=stats.mean_entropy,
            drift_status=self.drift.observe([]).status if self.drift else None,
            n_quarantined=self.quarantine.total_quarantined,
            telemetry=telemetry,
        )

    # -- persistence ---------------------------------------------------

    def snapshot(self) -> dict:
        """Checkpoint the full fleet (model excluded), schema 2.

        One flat payload: the policy, the forensic backlog, the device
        table rows in :meth:`DeviceState.snapshot` form with their
        ``seq`` counters, the step counter and counters, the queue
        backlog, the quarantine (windows, keys and lifetime count) and
        the drift detector's state (``None`` when drift is off).  That
        is what :meth:`restore` needs to resume mid-stream as if never
        stopped.  The fitted HMD is not included: it is a trained
        artifact with its own lifecycle, and a snapshot restores against
        a warm-retrained model too.
        """
        table = self.table
        return {
            "schema": SNAPSHOT_SCHEMA,
            "batch_size": self.batch_size,
            "entropy_window": self.entropy_window,
            "n_batches": self.n_batches,
            "policy": asdict(self.policy),
            "devices": [table.row(i) for i in range(len(table))],
            "seq": {table.queue.device_name(i): table.seq[i] for i in range(len(table))},
            "step": table.step,
            "stats": table.stats.snapshot(),
            "queue": table.queue.snapshot(),
            "forensics": self._stage.snapshot(),
            "quarantine": _quarantine_payload(self.quarantine),
            "drift": None if self.drift is None else self.drift.snapshot(),
        }

    @classmethod
    def restore(cls, hmd: TrustedHMD, state: dict) -> "FleetMonitor":
        """Rebuild a fleet from :meth:`snapshot` output.

        ``hmd`` is the separately persisted model (a newer warm-retrained
        one works: verdicts then come from it, as for a monitor that
        stayed up through the retrain).  The restored monitor watches
        drift exactly when the snapshotted one did.  A one-partition
        schema-1 checkpoint is read through a rename; one with several
        partitions is refused.  Every structural check runs before
        anything is built (a retired queue format, or a queued row
        without its device's row and a ``seq`` counter above it, raises
        ``ValueError``).
        """
        state = _validate_snapshot(state)
        fleet = cls(
            hmd,
            batch_size=state["batch_size"],
            entropy_window=state["entropy_window"],
            policy=BackpressurePolicy(**state["policy"]),
            forensics=ForensicQueue.restore(**state["forensics"]),
        )
        fleet.n_batches = int(state["n_batches"])
        if state["drift"] is not None:
            fleet.drift = EntropyDriftMonitor.restore(state["drift"])
        held = state["quarantine"]
        fleet.quarantine = QuarantineStore(
            maxlen=held["maxlen"], total_quarantined=held["total_quarantined"],
            _items=list(held["windows"]), _keys=set(held["keys"]),
        )
        fleet.quarantine.bind_metrics(fleet.metrics)
        table = fleet.table
        names = [device["device_id"] for device in state["devices"]]
        table.queue = FleetQueue.restore(state["queue"], names)
        for device in state["devices"]:
            table.load(device, state["seq"][device["device_id"]])
        table.step = int(state["step"])
        table.stats = MonitorStats.restore(state["stats"])
        # Bound after the backlog is in, so it is not counted as admitted.
        table.queue.bind_metrics(fleet.metrics)
        return fleet
