"""The fleet-scale batched streaming inference engine.

:class:`FleetMonitor` is the central processing core the ROADMAP's
"millions of monitored devices" deployment needs.  Where
:class:`~repro.uncertainty.online.OnlineMonitor` screens one device's
windows, the fleet monitor multiplexes windows from *many* devices
through one bounded ingress queue and amortises the expensive part —
the ensemble vote pass — across fixed-size batches:

1. devices :meth:`submit` signature windows — or whole feature-matrix
   blocks via :meth:`submit_many`, which validates once and bulk-copies
   the block into the arena; the
   :class:`~repro.fleet.queueing.FleetQueue` applies the backpressure
   policy (bounded global and per-device depth, shed-oldest/newest);
2. :meth:`process_batch` takes up to ``batch_size`` windows as a
   pre-stacked :class:`~repro.fleet.queueing.WindowBatch` and runs a
   **single** vectorised :meth:`TrustedHMD.verdict` pass — one fused
   front transform, one routing sweep over all members, and three
   vote-count table lookups for the whole batch;
3. verdicts are folded back out on the batch's dense device indices
   (one ``bincount`` per counter and one stable argsort): fleet-wide
   counters, per-device ring-buffered state, flagged windows staged
   columnar for the forensic queue (tagged with their device), and the
   entropy stream into an optional fleet drift monitor;
4. the forensic queue feeds back into the model: a
   :class:`~repro.fleet.retrain.FleetRetrainer` triages it between
   batches, collects analyst labels and warm-refits the shared HMD
   (histogram-grown ensembles refit from their binned buffer and
   recompile the flat vote backend in-place), closing the paper's
   monitor → flag → label → retrain loop in-process.

Because every per-window computation in the pipeline is row-independent
(element-wise scaling, per-row tree routing, per-row vote histograms),
batched verdicts are *bitwise identical* to sequential per-window ones
— batching changes throughput, never results.  The benchmark
``benchmarks/test_bench_fleet.py`` asserts both properties.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..obs.metrics import resolve_registry
from ..uncertainty.drift import EntropyDriftMonitor
from ..uncertainty.online import FlaggedSample, ForensicQueue, MonitorStats
from ..uncertainty.trust import TrustedHMD, TrustedVerdict
from .queueing import BackpressurePolicy, FleetQueue, WindowBatch, WindowRequest
from .report import DeviceReport, FleetReport
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


class FleetMonitor:
    """Multiplex many device streams through one batched trusted HMD.

    Parameters
    ----------
    hmd:
        A *fitted* :class:`TrustedHMD` shared by the whole fleet.
    batch_size:
        Windows per vectorised ensemble pass.
    policy:
        Ingress backpressure policy (defaults to a 4096-deep
        shed-oldest queue).
    forensics:
        Forensic queue receiving flagged windows (shared with analyst
        tooling); created when omitted.
    drift_reference:
        Optional entropy sample from held-out known traffic; when
        given, the fleet-wide entropy stream is watched by an
        :class:`EntropyDriftMonitor` (campaign-level shift detection).
    entropy_window:
        Ring-buffer capacity of each device's recent-entropy view.
    telemetry:
        ``True`` for a fresh per-monitor
        :class:`~repro.obs.metrics.MetricsRegistry`, an explicit
        registry to share one, or ``None``/``False`` (default) for the
        zero-cost no-op registry.  Purely observational: verdicts are
        bitwise identical either way.
    tracer:
        Optional :class:`~repro.obs.tracing.TraceContext` recording
        sampled window-lifecycle spans (ingest→queue→verdict→scatter on
        this in-process path).
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
        compile_hmd = getattr(hmd, "compile", None)
        if callable(compile_hmd):
            # Warm the flattened vote backend so the first batch of
            # live traffic does not pay the one-off flattening cost.
            compile_hmd()
        self.batch_size = batch_size
        self.queue = FleetQueue(policy)
        self.stats = MonitorStats()
        self.entropy_window = entropy_window
        self.devices: dict[str, DeviceState] = {}
        self._seq: dict[str, int] = {}
        self._step = 0
        self._init_round(forensics, drift_reference, telemetry, tracer)
        self.queue.bind_metrics(self.metrics)

    def _init_round(self, forensics, drift_reference, telemetry, tracer) -> None:
        """The state a round owner keeps: forensic stage, drift, telemetry.

        Shared with the sharded facade, which owns the same fields for
        the rounds it runs over its shards.
        """
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

    # -- ingress -------------------------------------------------------

    def register(self, device_id: str, *, cohort: str = "unknown") -> DeviceState:
        """Idempotently create the state record for a device."""
        state = self.devices.get(device_id)
        if state is None:
            state = DeviceState(
                device_id=device_id,
                cohort=cohort,
                entropy_recent=RingBuffer(self.entropy_window),
            )
            self.devices[device_id] = state
            self._seq[device_id] = 0
        elif cohort != "unknown" and state.cohort == "unknown":
            state.cohort = cohort
        return state

    def register_fleet(self, devices) -> None:
        """Register a whole :class:`FleetDevice` population at once."""
        for device in devices:
            self.register(device.device_id, cohort=device.cohort)

    def submit(self, device_id: str, window) -> bool:
        """Enqueue one signature window; False when shed by backpressure."""
        self.register(device_id)
        window = np.asarray(window, dtype=float).ravel()
        n_features = getattr(self.hmd, "n_features_in_", None)
        if n_features is not None and window.shape != (n_features,):
            # Reject at ingress: a ragged window admitted here would
            # poison the whole batch at stack time.
            raise ValueError(
                f"window from {device_id!r} has {window.shape[0]} features; "
                f"the fleet HMD expects {n_features}."
            )
        seq = self._seq[device_id]
        self._seq[device_id] = seq + 1
        if self.tracer is not None:
            self.tracer.begin(device_id, seq)
        return self.queue.submit(
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
        self.register(device_id)
        n_features = getattr(self.hmd, "n_features_in_", None)
        if n_features is not None and windows.shape[1] != n_features:
            raise ValueError(
                f"windows from {device_id!r} have {windows.shape[1]} features; "
                f"the fleet HMD expects {n_features}."
            )
        start = self._seq[device_id]
        self._seq[device_id] = start + len(windows)
        seqs = np.arange(start, start + len(windows), dtype=np.int64)
        if self.tracer is not None:
            self.tracer.begin_block(device_id, seqs)
        return self.queue.submit_block(device_id, windows, seqs)

    @property
    def pending(self) -> int:
        """Windows currently queued for inference."""
        return len(self.queue)

    # -- batched inference core ----------------------------------------

    def process_batch(self) -> FleetBatchResult | None:
        """Run one vectorised ensemble pass over the next batch.

        Returns ``None`` when the queue is empty.
        """
        batch: WindowBatch = self.queue.take(self.batch_size)
        if len(batch) == 0:
            return None
        return self._fused_round(
            [(self, batch)], self._verdict, self.hmd.policy_.threshold
        )

    def _verdict(self, X) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(predictions, entropy, accepted)`` from :meth:`TrustedHMD.verdict`."""
        verdict: TrustedVerdict = self.hmd.verdict(X)
        return verdict.predictions, verdict.entropy, verdict.accepted

    def drain(self, max_batches: int | None = None) -> list[FleetBatchResult]:
        """Run rounds until every queue is empty (or the cap hits)."""
        results: list[FleetBatchResult] = []
        while max_batches is None or len(results) < max_batches:
            result = self.process_batch()
            if result is None:
                break
            results.append(result)
        return results

    def _fused_round(self, parts, verdict, threshold: float) -> FleetBatchResult:
        """One verdict pass over ``[(monitor, batch)]`` parts, folded back.

        The round of every in-process engine.  The parts' features are
        stacked (a single part is not copied) and verdicted in one
        pass, then :meth:`_fold_round` folds the columns back.  A
        single monitor runs it over its own batch, the sharded facade
        over one batch per shard.
        """
        if self._obs_on:
            self._trace(parts, "queue")
            t0 = time.perf_counter()
        if len(parts) == 1:
            features = parts[0][1].features
        else:
            features = np.vstack([batch.features for _, batch in parts])
        predictions, entropy, accepted = verdict(features)
        if self._obs_on:
            self._m_verdict.observe(time.perf_counter() - t0)
            self._trace(parts, "verdict")
        return self._fold_round(parts, predictions, entropy, accepted, threshold)

    def _fold_round(
        self, parts, predictions, entropy, accepted, threshold: float
    ) -> FleetBatchResult:
        """Fold one round's verdict columns back out; the round's result.

        The fold half of every engine's round, the worker backend's
        included: the verdict columns are the parts' rows in part
        order.  Each part's slice is folded into its own monitor's
        device state, and its withheld rows stage on this owner's
        forensic stage in part order.  The round instruments are
        recorded here once per round, whatever backend ran the verdict
        half (which times itself into ``fleet_verdict_seconds``).
        """
        if self._obs_on:
            t1 = time.perf_counter()
            self._m_batches.inc()
            self._m_drained.inc(len(predictions))
        offset = n_flagged = 0
        for monitor, batch in parts:
            stop = offset + len(batch)
            part = (
                predictions[offset:stop], entropy[offset:stop], accepted[offset:stop]
            )
            base_step = monitor._fold(batch.device_index, *part)
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

    def _fold(
        self,
        device_index: np.ndarray,
        predictions: np.ndarray,
        entropy: np.ndarray,
        accepted: np.ndarray,
    ) -> int:
        """Fold verdicts into fleet counters and per-device state.

        The one place :class:`DeviceState` counters change from a
        verdict batch, called only from :meth:`_fold_round`, on every
        backend.  Rows are grouped on their dense queue device
        indices: one bincount per counter and a single stable argsort.
        Counts are exact integers, and each device's entropy sum is the
        same ``np.sum`` over the same ordered slice that
        :meth:`MonitorStats.record_verdicts` would take, so state is
        bitwise independent of how rows are batched or sharded.
        Returns the step counter before the batch.
        """
        n = len(entropy)
        base_step = self._step
        self._step += n
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

    @property
    def forensics(self) -> ForensicQueue:
        """The triage stream (materialises any staged flagged rows)."""
        return self._stage.flush()

    # -- egress --------------------------------------------------------

    def report(self) -> FleetReport:
        """Aggregate the fleet's current state into a report view."""
        shed = self.queue.shed_by_device
        device_reports = tuple(
            DeviceReport(
                device_id=state.device_id,
                cohort=state.cohort,
                n_seen=state.n_seen,
                n_flagged=state.n_flagged,
                n_malware_alerts=state.n_malware_alerts,
                n_shed=shed.get(state.device_id, 0),
                n_pending=self.queue.pending(state.device_id),
                rejection_rate=state.rejection_rate,
                alert_rate=state.alert_rate,
                recent_entropy=state.recent_entropy,
            )
            for state in self.devices.values()
        )
        return FleetReport(
            devices=device_reports,
            n_seen=self.stats.n_seen,
            n_accepted=self.stats.n_accepted,
            n_flagged=self.stats.n_flagged,
            n_malware_alerts=self.stats.n_malware_alerts,
            n_shed=self.queue.total_shed,
            n_pending=len(self.queue),
            n_batches=self.n_batches,
            mean_entropy=self.stats.mean_entropy,
            drift_status=self.drift.observe([]).status if self.drift else None,
            telemetry=self.metrics.snapshot() if self.metrics.enabled else None,
        )

    # -- persistence ---------------------------------------------------

    def snapshot(self) -> dict:
        """Checkpoint the full monitor state (model excluded).

        Captures the engine state live traffic built up — queued
        windows, per-device states, sequence counters, fleet counters
        and the forensic backlog — as plain picklable data.  Two things
        are deliberately *not* included: the fitted HMD (models are
        trained artifacts with their own pickle lifecycle, and one
        snapshot must be restorable against a warm-retrained model
        without duplicating it) and the optional drift monitor's
        accumulated detector statistics (the drift reference is
        configuration — pass it to :meth:`restore` and the detector
        restarts from a clean window).
        """
        return {
            "batch_size": self.batch_size,
            "entropy_window": self.entropy_window,
            "devices": [state.snapshot() for state in self.devices.values()],
            "seq": dict(self._seq),
            "step": self._step,
            "n_batches": self.n_batches,
            "stats": self.stats.snapshot(),
            "queue": self.queue.snapshot(),
            "forensics": self._stage.snapshot(),
        }

    @classmethod
    def restore(
        cls,
        hmd: TrustedHMD,
        state: dict,
        *,
        drift_reference=None,
    ) -> "FleetMonitor":
        """Rebuild a monitor from :meth:`snapshot` output.

        ``hmd`` is the (separately persisted) fitted model; restoring
        against a newer warm-retrained HMD is supported — subsequent
        verdicts then come from the refreshed model, exactly as they
        would for a monitor that had stayed up through the retrain.
        A ``drift_reference`` starts a fresh drift detector (its
        accumulated statistics are not part of the snapshot).  A queue
        payload in a retired format raises ``ValueError``.
        """
        monitor = cls(
            hmd,
            batch_size=state["batch_size"],
            entropy_window=state["entropy_window"],
            drift_reference=drift_reference,
            forensics=FlaggedStage.restore_queue(state["forensics"]),
        )
        monitor._load(state)
        return monitor

    def _load(self, state: dict) -> None:
        """Install a :meth:`snapshot` payload's queue, devices and counters."""
        self.queue = FleetQueue.restore(state["queue"])
        self.queue.bind_metrics(self.metrics)
        self.devices = {
            device["device_id"]: DeviceState.restore(device)
            for device in state["devices"]
        }
        self._seq = dict(state["seq"])
        self._step = int(state["step"])
        self.n_batches = int(state["n_batches"])
        self.stats = MonitorStats.restore(state["stats"])
