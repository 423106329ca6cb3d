"""The fleet-scale batched streaming inference engine.

:class:`FleetMonitor` is the central processing core the ROADMAP's
"millions of monitored devices" deployment needs.  Where
:class:`~repro.uncertainty.online.OnlineMonitor` screens one device's
windows, the fleet monitor multiplexes windows from *many* devices
through bounded ingress queues and amortises the expensive part — the
ensemble vote pass — across fixed-size batches:

1. devices :meth:`~FleetMonitor.submit` signature windows — or whole
   feature-matrix blocks via :meth:`~FleetMonitor.submit_many`, which
   validates once and bulk-copies the block into the arena; a stable
   device hash (:class:`~repro.fleet.sharding.ShardRouter`) picks the
   device's partition, whose :class:`~repro.fleet.queueing.FleetQueue`
   applies the backpressure policy (bounded global and per-device
   depth, shed-oldest/newest);
2. :meth:`~FleetMonitor.process_batch` takes up to ``batch_size``
   windows from every partition as pre-stacked
   :class:`~repro.fleet.queueing.WindowBatch` es and runs a **single**
   vectorised pass through the monitor's
   :class:`~repro.fleet.sharding.PublishedHmd` — one fused front
   transform, one routing sweep over all members, and three vote-count
   table lookups for the whole round;
3. verdicts are folded back out on each batch's dense device indices
   (one ``bincount`` per counter and one stable argsort): partition
   counters, per-device ring-buffered state, flagged windows staged
   columnar for the forensic queue (tagged with their device), and the
   entropy stream into an optional fleet drift monitor;
4. the forensic queue feeds back into the model: a
   :class:`~repro.fleet.retrain.FleetRetrainer` triages it between
   batches, collects analyst labels and warm-refits the shared HMD
   (histogram-grown ensembles refit from their binned buffer and
   recompile the flat vote backend in-place), and the next round
   republishes the verdict parts, closing the paper's monitor → flag →
   label → retrain loop in-process.

Because every per-window computation in the pipeline is row-independent
(element-wise scaling, per-row tree routing, per-row vote histograms),
batched verdicts are *bitwise identical* to sequential per-window ones
whatever the batch size or partition count — batching changes
throughput, never results.  The benchmark
``benchmarks/test_bench_fleet.py`` asserts both properties.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass

import numpy as np

from ..obs.metrics import resolve_registry
from ..uncertainty.drift import EntropyDriftMonitor
from ..uncertainty.online import FlaggedSample, ForensicQueue, MonitorStats
from ..uncertainty.trust import TrustedHMD, TrustedVerdict
from .queueing import BackpressurePolicy, FleetQueue, WindowBatch, WindowRequest
from .report import DeviceReport, FleetReport
from .sharding import SNAPSHOT_SCHEMA, PublishedHmd, ShardRouter
from .state import DeviceState, RingBuffer

__all__ = [
    "FleetFlaggedSample",
    "FleetBatchResult",
    "FleetMonitor",
    "batch_verdict_key",
    "batch_window_keys",
    "batched_verdicts_equal_sequential",
]


@dataclass(frozen=True)
class FleetFlaggedSample(FlaggedSample):
    """A withheld signature window, attributed to its device."""

    device_id: str = ""
    seq: int = -1


class FlaggedStage:
    """Flagged rows staged columnar in front of a bounded forensic queue.

    The verdict fold appends plain array blocks here; the per-row
    :class:`FleetFlaggedSample` objects materialise only when the queue
    is read (:meth:`flush`, triage time), keeping analyst bookkeeping
    out of the drain hot loop.  Owners flush once ``limit`` rows —
    ``min(maxlen, 8192)`` — are staged, so a flag storm cannot outgrow
    the queue's own memory cap.
    """

    def __init__(self, queue: ForensicQueue):
        self.queue = queue
        self.blocks: list[tuple] = []
        self.rows = 0
        self.limit = min(queue.maxlen, 8192)

    def add(self, batch, predictions, entropy, accepted, base_step: int) -> int:
        """Stage a batch's withheld rows columnar; returns their count.

        Fancy-indexed rows are fresh copies, so the stage never pins
        the arena blocks (or shared-memory slots) underneath.
        """
        flagged = np.flatnonzero(~np.asarray(accepted, dtype=bool))
        if len(flagged):
            self.blocks.append(
                (
                    batch.features[flagged],
                    predictions[flagged],
                    entropy[flagged],
                    base_step + flagged + 1,
                    batch.device_ids[flagged],
                    batch.seqs[flagged],
                )
            )
            self.rows += len(flagged)
        return len(flagged)

    def flush(self) -> ForensicQueue:
        """Materialise every staged row into the queue; returns it."""
        blocks, self.blocks, self.rows = self.blocks, [], 0
        for features, predictions, entropy, steps, device_ids, seqs in blocks:
            self.queue.push_many(
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
        return self.queue

    def snapshot(self) -> dict:
        """The forensic queue's checkpoint payload (staged rows included)."""
        queue = self.flush()
        return {
            "samples": queue.snapshot(),
            "maxlen": queue.maxlen,
            "total_flagged": queue.total_flagged,
        }

    @staticmethod
    def restore_queue(payload: dict) -> ForensicQueue:
        """The forensic queue a :meth:`snapshot` payload describes."""
        return ForensicQueue.restore(
            payload["samples"],
            maxlen=payload["maxlen"],
            total_flagged=payload["total_flagged"],
        )


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
    for equivalence checks, shared by
    :func:`batched_verdicts_equal_sequential` and the ``ingest``
    experiment runner.
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

    The accounting half of :func:`batch_verdict_key`: chaos and
    failover tests audit that every admitted window's key shows up
    here, in the quarantine store, or in the shed counters — never
    silently lost.
    """
    return {
        (str(device_id), int(batch.seqs[j]))
        for batch in batches
        for j, device_id in enumerate(batch.device_ids)
    }


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


def _validate_snapshot(state: dict) -> None:
    """Reject stale, foreign or internally inconsistent checkpoints.

    A restore that starts applying a bad payload can leave a fleet
    half-built, so every structural check happens before any state is
    touched (and before a worker backend spawns anything).
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


class _Partition:
    """One device-hash partition of a :class:`FleetMonitor`.

    The per-device half of the engine: the ingress queue, the device
    table, per-device sequence counters, the step counter and the
    partition's counters.  Rounds, the forensic stage, drift watching,
    telemetry and checkpoints belong to the monitor; a partition folds
    verdicts into its devices (:meth:`_fold`).
    """

    __slots__ = ("queue", "entropy_window", "devices", "seq", "step", "stats")

    def __init__(self, policy: BackpressurePolicy, entropy_window: int):
        self.queue = FleetQueue(policy)
        self.entropy_window = entropy_window
        self.devices: dict[str, DeviceState] = {}
        self.seq: dict[str, int] = {}
        self.step = 0
        self.stats = MonitorStats()

    def register(self, device_id: str, cohort: str = "unknown") -> DeviceState:
        """Idempotently create the state record for a device."""
        state = self.devices.get(device_id)
        if state is None:
            state = DeviceState(
                device_id=device_id,
                cohort=cohort,
                entropy_recent=RingBuffer(self.entropy_window),
            )
            self.devices[device_id] = state
            self.seq[device_id] = 0
        elif cohort != "unknown" and state.cohort == "unknown":
            state.cohort = cohort
        return state

    def _fold(
        self,
        device_index: np.ndarray,
        predictions: np.ndarray,
        entropy: np.ndarray,
        accepted: np.ndarray,
    ) -> int:
        """Fold verdicts into the partition counters and device state.

        The one place :class:`DeviceState` counters change from a
        verdict batch, called only from :meth:`FleetMonitor._fold_round`,
        on every backend.  Rows are grouped on their dense queue device
        indices: one bincount per counter and a single stable argsort.
        Counts are exact integers, and each device's entropy sum is the
        same ``np.sum`` over the same ordered slice that
        :meth:`MonitorStats.record_verdicts` would take, so state is
        bitwise independent of how rows are batched or partitioned.
        Returns the step counter before the batch.
        """
        n = len(entropy)
        base_step = self.step
        self.step += n
        # dtype=bool: ~ on an int 0/1 mask would invert bitwise, not logically.
        accepted = np.asarray(accepted, dtype=bool)
        self.stats.record_verdicts(predictions, entropy, accepted)

        group_sizes = np.bincount(device_index)
        accepted_per = np.bincount(
            device_index, weights=accepted, minlength=len(group_sizes)
        )
        alerts_per = np.bincount(
            device_index,
            weights=accepted & (predictions == 1),
            minlength=len(group_sizes),
        )
        order = np.argsort(device_index, kind="stable")
        entropy_ordered = entropy[order]
        present = np.flatnonzero(group_sizes)
        stops = np.cumsum(group_sizes[present])
        start = 0
        for g, index in enumerate(present):
            stop = stops[g]
            state = self.devices[self.queue.device_name(int(index))]
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
        return base_step


class FleetMonitor:
    """Multiplex many device streams through one batched trusted HMD.

    The one in-process engine.  Devices are hash-routed onto
    ``n_shards`` partition cores (each its own ingress queue, device
    table and counters); one :meth:`process_batch` is a *fused round*
    that stacks up to ``batch_size`` rows from every partition and
    verdicts them in a single pass through the shared
    :class:`~repro.fleet.sharding.PublishedHmd`, then folds each
    partition's slice back into its own devices while the flagged
    windows stage on the monitor's forensic queue (per device still in
    submission-sequence order).  Verdicts are bitwise identical for
    every partition count.

    Backpressure bounds apply per partition: ``max_pending_per_device``
    semantics do not depend on ``n_shards`` (a device lives on one
    partition), while ``max_pending`` bounds each partition's queue
    individually — fleet-total capacity is ``n_shards x max_pending``.

    Parameters
    ----------
    hmd:
        A *fitted* :class:`TrustedHMD` shared by the whole fleet.
    n_shards:
        Device-hash partitions behind the router (default 1).
    batch_size:
        Windows per partition per vectorised ensemble pass.
    policy:
        Ingress backpressure policy of every partition queue (defaults
        to a 4096-deep shed-oldest queue).
    forensics:
        Forensic queue receiving flagged windows (shared with analyst
        tooling); created when omitted.
    drift_reference:
        Optional entropy sample from held-out known traffic; when
        given, the fleet-wide entropy stream is watched by an
        :class:`EntropyDriftMonitor` (campaign-level shift detection).
    entropy_window:
        Ring-buffer capacity of each device's recent-entropy view.
    router:
        A :class:`~repro.fleet.sharding.ShardRouter` to use instead of
        a fresh ``ShardRouter(n_shards)``; it sets the partition count.
    telemetry:
        ``True`` for a fresh per-monitor
        :class:`~repro.obs.metrics.MetricsRegistry`, an explicit
        registry to share one, or ``None``/``False`` (default) for the
        zero-cost no-op registry.  Every partition queue counts into
        it.  Purely observational: verdicts are bitwise identical
        either way.
    tracer:
        Optional :class:`~repro.obs.tracing.TraceContext` recording
        sampled window-lifecycle spans (ingest→queue→verdict→scatter on
        this in-process path).
    """

    # Why this backend cannot repartition live (None: it can).
    _rebalance_refusal: str | None = None

    def __init__(
        self,
        hmd: TrustedHMD,
        *,
        n_shards: int = 1,
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
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1; got {batch_size}.")
        if entropy_window < 1:
            raise ValueError(f"entropy_window must be >= 1; got {entropy_window}.")
        self.hmd = hmd
        self.router = router if router is not None else ShardRouter(n_shards)
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
            "fleet_batches_total", "vectorised verdict passes"
        )
        self._m_drained = self.metrics.counter(
            "fleet_windows_drained_total", "windows verdicted"
        )
        self._m_flagged = self.metrics.counter(
            "fleet_windows_flagged_total", "windows withheld as uncertain"
        )
        self._m_verdict = self.metrics.histogram(
            "fleet_verdict_seconds", "verdict-pass latency per round"
        )
        self._m_scatter = self.metrics.histogram(
            "fleet_scatter_seconds", "verdict scatter latency per round"
        )
        self._m_scatter_rows = self.metrics.counter(
            "fleet_scatter_rows_total", "verdict rows folded into device state"
        )
        self._install(
            [
                _Partition(self.policy, entropy_window)
                for _ in range(self.router.n_shards)
            ]
        )
        # Publishing compiles the HMD, so the first batch of live
        # traffic does not pay the one-off flattening cost.
        self.published = PublishedHmd(hmd)

    def _install(self, shards: list[_Partition]) -> None:
        """Make ``shards`` the partitions; their queues count into the registry.

        Binding after any restore or migration keeps rows that were
        already admitted once from counting as admissions again.
        """
        for shard in shards:
            shard.queue.bind_metrics(self.metrics)
        self.shards = shards

    @property
    def n_shards(self) -> int:
        """Number of device-hash partitions."""
        return len(self.shards)

    # -- ingress -------------------------------------------------------

    def register(self, device_id: str, *, cohort: str = "unknown") -> DeviceState:
        """Idempotently create the device's state on its partition."""
        return self.shards[self.router.shard_of(device_id)].register(
            device_id, cohort
        )

    def register_fleet(self, devices) -> None:
        """Register a whole :class:`FleetDevice` population at once."""
        for device in devices:
            self.register(device.device_id, cohort=device.cohort)

    def submit(self, device_id: str, window) -> bool:
        """Enqueue one signature window; False when shed by backpressure."""
        shard = self.shards[self.router.shard_of(device_id)]
        shard.register(device_id)
        window = np.asarray(window, dtype=float).ravel()
        n_features = getattr(self.hmd, "n_features_in_", None)
        if n_features is not None and window.shape != (n_features,):
            # Reject at ingress: a ragged window admitted here would
            # poison the whole batch at stack time.
            raise ValueError(
                f"window from {device_id!r} has {window.shape[0]} features; "
                f"the fleet HMD expects {n_features}."
            )
        seq = shard.seq[device_id]
        shard.seq[device_id] = seq + 1
        if self.tracer is not None:
            self.tracer.begin(device_id, seq)
        return shard.queue.submit(
            WindowRequest(device_id=device_id, features=window, seq=seq)
        )

    def submit_many(self, device_id: str, windows) -> int:
        """Enqueue a stack of windows as one contiguous block.

        Registration, dtype coercion and the feature-count check happen
        once for the whole block, sequence numbers are assigned in bulk,
        and the block lands in the ingress arena in one bulk copy
        (:meth:`FleetQueue.submit_block`).  Returns how many windows
        were admitted.
        """
        windows = np.ascontiguousarray(
            np.atleast_2d(np.asarray(windows, dtype=float))
        )
        if windows.size == 0:
            return 0
        shard = self.shards[self.router.shard_of(device_id)]
        shard.register(device_id)
        n_features = getattr(self.hmd, "n_features_in_", None)
        if n_features is not None and windows.shape[1] != n_features:
            raise ValueError(
                f"windows from {device_id!r} have {windows.shape[1]} features; "
                f"the fleet HMD expects {n_features}."
            )
        start = shard.seq[device_id]
        shard.seq[device_id] = start + len(windows)
        seqs = np.arange(start, start + len(windows), dtype=np.int64)
        if self.tracer is not None:
            self.tracer.begin_block(device_id, seqs)
        return shard.queue.submit_block(device_id, windows, seqs)

    @property
    def pending(self) -> int:
        """Windows currently queued across all partitions."""
        return sum(len(shard.queue) for shard in self.shards)

    @property
    def queue(self) -> FleetQueue:
        """The ingress queue of a one-partition monitor."""
        if len(self.shards) != 1:
            raise AttributeError(
                f"a monitor with {len(self.shards)} partitions has one "
                "queue per partition; read shards[i].queue."
            )
        return self.shards[0].queue

    @property
    def devices(self) -> dict[str, DeviceState]:
        """Every partition's device states by id (a view built on read)."""
        return {
            device_id: state
            for shard in self.shards
            for device_id, state in shard.devices.items()
        }

    @property
    def stats(self) -> MonitorStats:
        """Fleet-wide counters, merged from the partitions on read."""
        merged = MonitorStats()
        for shard in self.shards:
            merged.merge(shard.stats)
        return merged

    # -- fused inference rounds ----------------------------------------

    def _ensure_published(self) -> PublishedHmd:
        if not self.published.is_current():
            # One recompile per retrain/threshold/mode change; the new
            # parts serve every partition from this round on.
            self.published = PublishedHmd(self.hmd)
        return self.published

    def process_batch(self) -> FleetBatchResult | None:
        """One fused round: up to ``batch_size`` rows *per partition*.

        Returns the round's verdicts (rows grouped by partition, per
        device in submission order), or ``None`` when every queue is
        empty.
        """
        published = self._ensure_published()
        parts: list[tuple[_Partition, WindowBatch]] = []
        for shard in self.shards:
            if len(shard.queue):
                batch = shard.queue.take(self.batch_size)
                if len(batch):
                    parts.append((shard, batch))
        if not parts:
            return None
        return self._fused_round(parts, published)

    def drain(self, max_batches: int | None = None) -> list[FleetBatchResult]:
        """Run rounds until every queue is empty (or the cap hits)."""
        results: list[FleetBatchResult] = []
        while max_batches is None or len(results) < max_batches:
            result = self.process_batch()
            if result is None:
                break
            results.append(result)
        return results

    def _fused_round(self, parts, published: PublishedHmd) -> FleetBatchResult:
        """One verdict pass over ``[(partition, batch)]`` parts, folded back.

        The parts' features are stacked (a single part is not copied)
        and verdicted in one pass, then :meth:`_fold_round` folds the
        columns back.
        """
        if self._obs_on:
            self._trace(parts, "queue")
            t0 = time.perf_counter()
        if len(parts) == 1:
            features = parts[0][1].features
        else:
            features = np.vstack([batch.features for _, batch in parts])
        predictions, entropy, accepted = published.verdict(features)
        if self._obs_on:
            self._m_verdict.observe(time.perf_counter() - t0)
            self._trace(parts, "verdict")
        return self._fold_round(
            parts, predictions, entropy, accepted, published.threshold
        )

    def _fold_round(
        self, parts, predictions, entropy, accepted, threshold: float
    ) -> FleetBatchResult:
        """Fold one round's verdict columns back out; the round's result.

        The fold half of every backend's round, the worker backend's
        included: the verdict columns are the parts' rows in part
        order.  Each part's slice is folded into its own partition's
        device state, and its withheld rows stage on the forensic
        stage in part order.  The round instruments are recorded here
        once per round, whatever backend ran the verdict half (which
        times itself into ``fleet_verdict_seconds``).
        """
        if self._obs_on:
            t1 = time.perf_counter()
            self._m_batches.inc()
            self._m_drained.inc(len(predictions))
        offset = n_flagged = 0
        for shard, batch in parts:
            stop = offset + len(batch)
            part = (
                predictions[offset:stop], entropy[offset:stop], accepted[offset:stop]
            )
            base_step = shard._fold(batch.device_index, *part)
            n_flagged += self._stage.add(batch, *part, base_step)
            offset = stop
        self._m_flagged.inc(n_flagged)
        if self._obs_on:
            self._m_scatter.observe(time.perf_counter() - t1)
            self._m_scatter_rows.inc(len(predictions))
            if self.tracer is not None:
                for _, batch in parts:
                    self.tracer.complete_rows(batch.device_ids, batch.seqs, "scatter")
        return self._round_result(
            [batch for _, batch in parts], predictions, entropy, accepted, threshold
        )

    def _trace(self, parts, stage: str) -> None:
        """Stamp every part's sampled rows with a lifecycle stage."""
        if self.tracer is not None:
            for _, batch in parts:
                self.tracer.stamp_rows(batch.device_ids, batch.seqs, stage)

    def _round_result(
        self, batches, predictions, entropy, accepted, threshold: float
    ) -> FleetBatchResult:
        """Close a round: bound the stage, feed drift, build the result.

        ``batches`` are the round's parts in order and the verdict
        columns are already concatenated to match.
        """
        if self._stage.rows >= self._stage.limit:
            self._stage.flush()
        if self.drift is not None:
            self.drift.observe(entropy)
        self.n_batches += 1
        if len(batches) == 1:
            device_ids, seqs = batches[0].device_ids, batches[0].seqs
        else:
            device_ids = np.concatenate([batch.device_ids for batch in batches])
            seqs = np.concatenate([batch.seqs for batch in batches])
        return FleetBatchResult(
            device_ids=device_ids,
            seqs=seqs,
            predictions=predictions,
            entropy=entropy,
            accepted=accepted,
            threshold=threshold,
        )

    @property
    def forensics(self) -> ForensicQueue:
        """The triage stream (materialises any staged flagged rows)."""
        return self._stage.flush()

    # -- egress --------------------------------------------------------

    def report(self) -> FleetReport:
        """Aggregate every partition's current state into one report view."""
        stats = self.stats
        device_reports = tuple(
            DeviceReport(
                device_id=state.device_id,
                cohort=state.cohort,
                n_seen=state.n_seen,
                n_flagged=state.n_flagged,
                n_malware_alerts=state.n_malware_alerts,
                n_shed=shard.queue.shed_by_device.get(state.device_id, 0),
                n_pending=shard.queue.pending(state.device_id),
                rejection_rate=state.rejection_rate,
                alert_rate=state.alert_rate,
                recent_entropy=state.recent_entropy,
            )
            for shard in self.shards
            for state in shard.devices.values()
        )
        telemetry = None
        if self.metrics.enabled:
            # The partition queues share these gauges, each setting its
            # own level; the report reads the fleet-wide ones.
            self.metrics.gauge("fleet_queue_depth").set(self.pending)
            self.metrics.gauge("fleet_arena_blocks").set(
                sum(shard.queue.arena_blocks for shard in self.shards)
            )
            telemetry = self.metrics.snapshot()
        return FleetReport(
            devices=device_reports,
            n_seen=stats.n_seen,
            n_accepted=stats.n_accepted,
            n_flagged=stats.n_flagged,
            n_malware_alerts=stats.n_malware_alerts,
            n_shed=sum(shard.queue.total_shed for shard in self.shards),
            n_pending=self.pending,
            n_batches=self.n_batches,
            mean_entropy=stats.mean_entropy,
            drift_status=self.drift.observe([]).status if self.drift else None,
            telemetry=telemetry,
            **self._health_fields(),
        )

    def _health_fields(self) -> dict:
        """Supervision rows a report adds (none in process)."""
        return {}

    # -- rebalancing ---------------------------------------------------

    def rebalance(self, n_shards: int) -> dict[str, tuple[int, int]]:
        """Change the partition count, migrating device state and backlogs.

        Every moved device takes its :class:`DeviceState`, sequence
        counter, shed history and queued windows (in order) to its new
        partition, so subsequent verdicts are unchanged, and the
        telemetry counters keep counting.  Returns the router's
        deterministic move map ``{device: (old, new)}``.
        """
        if self._rebalance_refusal is not None:
            raise NotImplementedError(self._rebalance_refusal)
        plan = self.router.plan_rebalance(self.devices, n_shards)
        new_router = type(self.router)(n_shards)
        # Seed every new partition's step counter past all the old
        # ones, so post-rebalance flagged-sample steps and last_step
        # keep advancing monotonically (as snapshot/restore keep them).
        step_seed = max(shard.step for shard in self.shards)
        new_shards = [
            _Partition(self.policy, self.entropy_window) for _ in range(n_shards)
        ]
        for shard in new_shards:
            shard.step = step_seed
        for shard in self.shards:
            for device_id, state in shard.devices.items():
                target = new_shards[new_router.shard_of(device_id)]
                target.devices[device_id] = state
                target.seq[device_id] = shard.seq[device_id]
                target.stats.merge(state.stats)
                shard.queue.move_device(device_id, target.queue)
        self.router = new_router
        self._install(new_shards)
        return plan

    # -- persistence ---------------------------------------------------

    def snapshot(self) -> dict:
        """Checkpoint the full fleet (model excluded).

        Per-partition payloads (queue backlogs, device states,
        counters) plus the router/policy configuration and the
        forensic backlog — what :meth:`restore` needs to resume
        mid-stream with identical subsequent verdicts.  Two things are
        deliberately *not* included: the fitted HMD (models are trained
        artifacts with their own pickle lifecycle, and one snapshot
        must be restorable against a warm-retrained model without
        duplicating it) and the optional drift monitor's accumulated
        detector statistics (the drift reference is configuration —
        pass it to :meth:`restore` and the detector restarts from a
        clean window).
        """
        shards = [
            {
                "devices": [state.snapshot() for state in shard.devices.values()],
                "seq": dict(shard.seq),
                "step": shard.step,
                "stats": shard.stats.snapshot(),
                "queue": shard.queue.snapshot(),
                # Keys the schema kept from when every shard was a full
                # monitor: written for the payload shape, ignored on read.
                "batch_size": self.batch_size,
                "entropy_window": self.entropy_window,
                "n_batches": 0,
                "forensics": {
                    "samples": (),
                    "maxlen": self._stage.queue.maxlen,
                    "total_flagged": 0,
                },
            }
            for shard in self.shards
        ]
        return {
            "schema": SNAPSHOT_SCHEMA,
            "n_shards": self.n_shards,
            "batch_size": self.batch_size,
            "entropy_window": self.entropy_window,
            "n_batches": self.n_batches,
            "policy": asdict(self.policy),
            "shards": shards,
            "forensics": self._stage.snapshot(),
        }

    @classmethod
    def restore(
        cls,
        hmd: TrustedHMD,
        state: dict,
        *,
        drift_reference=None,
        router: ShardRouter | None = None,
        **options,
    ) -> "FleetMonitor":
        """Rebuild a fleet from :meth:`snapshot` output.

        ``hmd`` is the (separately persisted) fitted model; restoring
        against a newer warm-retrained HMD is supported — subsequent
        verdicts then come from the refreshed model, exactly as they
        would for a monitor that had stayed up through the retrain.  A
        ``drift_reference`` starts a fresh drift detector (its
        accumulated statistics are not part of the snapshot).  A fleet
        built with a custom ``router`` must pass an equivalent one here
        (the router is configuration, not serialisable state).
        ``options`` carry a subclass's extra constructor arguments.
        Every structural check runs before anything is built; a queue
        payload in a retired format raises ``ValueError``.
        """
        _validate_snapshot(state)
        fleet = cls(
            hmd,
            n_shards=state["n_shards"],
            batch_size=state["batch_size"],
            entropy_window=state["entropy_window"],
            policy=BackpressurePolicy(**state["policy"]),
            forensics=FlaggedStage.restore_queue(state["forensics"]),
            drift_reference=drift_reference,
            router=router,
            **options,
        )
        if fleet.router.n_shards != state["n_shards"]:
            raise ValueError(
                f"router has {fleet.router.n_shards} shards but the "
                f"snapshot holds {state['n_shards']}."
            )
        fleet.n_batches = int(state["n_batches"])
        for shard, payload in zip(fleet.shards, state["shards"]):
            shard.queue = FleetQueue.restore(payload["queue"])
            shard.devices = {
                device["device_id"]: DeviceState.restore(device)
                for device in payload["devices"]
            }
            shard.seq = dict(payload["seq"])
            shard.step = int(payload["step"])
            shard.stats = MonitorStats.restore(payload["stats"])
        # Bound after the backlog is in, so it is not counted as admitted.
        fleet._install(fleet.shards)
        return fleet
