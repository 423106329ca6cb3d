"""Process-per-shard execution backend for the sharded fleet.

:class:`WorkerShardedFleetMonitor` keeps the whole
:class:`~repro.fleet.sharding.ShardedFleetMonitor` API — register,
submit, ``process_batch``/``drain``, ``report``, ``snapshot``/
``restore`` — but runs every shard's verdict pass in its own worker
*process*, so K shards drain on K cores instead of time-slicing one
GIL.  The split of responsibilities:

Parent (this process)
    Owns ingress end to end: each shard's
    :class:`~repro.fleet.queueing.FleetQueue` (backpressure, shedding
    and sequence numbering are byte-for-byte the in-process
    semantics), the merged forensic stream, drift watching, and the
    mirrors that keep facade-level ``stats`` bitwise identical — the
    parent re-applies each round's verdict columns to its own
    per-shard :class:`~repro.uncertainty.online.MonitorStats` with the
    *same* ``record_verdicts`` call the worker makes, and stages the
    flagged rows from its own retained copies of the shipped blocks.

Worker (one per shard)
    Owns the shard's device-state table, ring buffers and counters —
    a :class:`~repro.fleet.engine.FleetMonitor` whose
    :meth:`~repro.fleet.engine.FleetMonitor._fold` (the device-state
    half of the in-process verdict fold) runs on every block — plus a
    read-only mapping of the published model (:mod:`repro.fleet.shm`).
    It drains block messages, runs the fused verdict pass, folds, and
    writes the verdict columns back into the same shared slot.  No
    window tensor is ever pickled.

Each protocol step has one path.  Every block frame — first delivery,
integrity re-ship, restart replay, post-quarantine re-ship — is written
and sent by ``_send_block``; blocks and bisection probes share one
worker verdict step (``_run_slot``); report and checkpoint requests
share one send → await → restart-and-retry loop (``_ask``); restart and
failover share one walk over the retained records.  A round closes with
the in-process engines' own result assembly
(:meth:`FleetMonitor._round_result`).

Supervision state machine
-------------------------

Each worker link is ``RUNNING → (dead | hung | errored) → RESTARTING →
RUNNING``.  Liveness is observed three ways: the pipe hitting EOF, the
process reporting not-alive with the pipe drained, or a response
deadline expiring (``worker_timeout``; :meth:`heartbeat` probes
explicitly).  A restart rebuilds the worker from its last checkpoint —
the worker periodically ships ``{epoch, FleetMonitor.snapshot(),
dense-registry order, reg-log high-water}`` (every
``checkpoint_every`` blocks and on demand) — and then **replays** every
retained block newer than that checkpoint.  The parent retains each
shipped batch until a checkpoint covers it, so replay is always
possible; verdict determinism makes replayed results identical, and
results for epochs the parent already merged are recognised by their
epoch and dropped.  Kill a worker mid-stream and the merged verdict
stream is indistinguishable from an uninterrupted run (the crash-
recovery test asserts exactly this).

Degradation beyond restart (see :mod:`repro.fleet.resilience`): every
shard carries a health state machine (healthy → degraded → dead).
Restarts back off exponentially (``restart_backoff``); after
``max_restarts`` consecutive failures the circuit breaker opens and the
shard **fails over** — its device states, sequence counters, shed
history and queued backlog migrate to the surviving shards (the router
re-deals the dead hash bucket deterministically), the lost in-flight
verdicts are recomputed in-process from the same published kernel, and
survivors adopt the moved device states over a checkpoint-pinned
control message.  Nothing is shed by failure; with a single shard the
breaker still raises (there is nowhere to fail over to).  Block frames
carry integrity checksums both ways (:class:`~repro.fleet.shm
.ShmBlockRing`), and a block that faults its worker twice is bisected
with verdict-only probes: offending rows are quarantined into a
bounded forensic side-queue, the rest are replayed under the original
epoch — exactly-once either way.  A seeded
:class:`~repro.fleet.resilience.FaultPlan` (``chaos=``) exercises all
of this deterministically.

Republish-on-retrain reuses the same checkpoint barrier: after a warm
retrain the parent checkpoints every worker (so no replay can cross
model generations), publishes the recompiled
:class:`~repro.fleet.sharding.PublishedHmd` into a fresh read-only
segment, and broadcasts the new header; workers swap views and ack —
no restart, no pause longer than one control round trip.
"""

from __future__ import annotations

import multiprocessing as mp
import time
import traceback
from collections import deque
from dataclasses import replace

import numpy as np

from ..uncertainty.online import ForensicQueue, MonitorStats
from .engine import FleetBatchResult, FleetMonitor
from .queueing import BackpressurePolicy, FleetQueue, WindowBatch
from .report import rebind_queue_counters
from .resilience import (
    FaultInjector,
    FaultPlan,
    QuarantineStore,
    QuarantinedWindow,
    ShardHealth,
    ShardHealthReport,
)
from .sharding import PublishedHmd, ShardedFleetMonitor
from .shm import (
    ShmBlockRing,
    ShmIntegrityError,
    _unlink,
    map_publication,
    publish_model,
)
from .state import DeviceState

__all__ = ["WorkerShardedFleetMonitor", "worker_main"]


class _SharedModelStub:
    """Stands in for the fitted HMD inside a worker's FleetMonitor.

    The worker's monitor never runs the model itself — verdicts come
    from the mapped shared publication — but :class:`FleetMonitor`
    insists on a fitted estimator at construction.  A class attribute
    satisfies the check; everything model-shaped the worker needs
    lives in the publication.
    """

    estimator_ = ()


class _WorkerDied(Exception):
    """A worker link failed (process death, pipe EOF, deadline, error)."""


# Ceiling on the exponential restart back-off, so a long fault storm
# degrades throughput smoothly instead of stalling the drain for minutes.
_BACKOFF_CAP = 2.0

# A block that is re-delivered this many times over integrity failures
# points at a parent-side arena problem, not transient corruption.
_MAX_RESHIPS = 3


# ---------------------------------------------------------------------------
# Worker side
# ---------------------------------------------------------------------------


def _apply_regs(monitor: FleetMonitor, applied: int, start: int, entries) -> int:
    """Apply a reg-log slice, deduplicating by absolute log index.

    Restart replay can deliver overlapping slices (the explicit
    post-checkpoint gap plus each replayed block's original span); the
    absolute start index makes re-application exact instead of
    inflating the applied count.
    """
    skip = max(0, applied - start)
    for name, cohort in entries[skip:]:
        monitor.register(name, cohort=cohort)
    return max(applied, start + len(entries))


def _apply_names(monitor: FleetMonitor, start: int, names) -> None:
    """Extend the worker's dense device registry in parent order.

    Dense indices are positional, so the worker must register exactly
    the parent's first-sight sequence; slices carry their absolute
    start offset so overlapping replays skip what is already applied.
    """
    skip = max(0, len(monitor.queue._names) - start)
    for name in names[skip:]:
        monitor.queue.register_device(name)
        monitor.register(name)


def _worker_checkpoint(monitor: FleetMonitor, epoch: int, regs_applied: int) -> dict:
    """The supervision hand-off payload: everything a restart needs."""
    return {
        "epoch": int(epoch),
        "monitor": monitor.snapshot(),
        "names": list(monitor.queue._names),
        "regs_applied": int(regs_applied),
    }


def _restore_worker_monitor(
    ckpt: dict | None, *, batch_size: int, entropy_window: int, telemetry=None
) -> tuple[FleetMonitor, int]:
    """A worker-side monitor from a checkpoint (or empty), and its reg count.

    The queue snapshot holds rows, not the dense registry, so the
    registry is rebuilt in the parent's first-sight order.
    """
    monitor = FleetMonitor(
        _SharedModelStub(),
        batch_size=batch_size,
        entropy_window=entropy_window,
        telemetry=telemetry,
    )
    if ckpt is None:
        return monitor, 0
    monitor._load(ckpt["monitor"])
    for name in ckpt["names"]:
        monitor.queue.register_device(name)
    return monitor, int(ckpt["regs_applied"])


def _adopt(monitor: FleetMonitor, payload) -> None:
    """Install failed-over ``(device snapshot, seq)`` pairs.

    Only devices the monitor does not already carry are applied, so a
    replayed adoption never regresses state.
    """
    for snap, seq in payload:
        device_id = snap["device_id"]
        if device_id not in monitor.devices:
            adopted = DeviceState.restore(snap)
            monitor.devices[device_id] = adopted
            monitor._seq[device_id] = int(seq)
            monitor.stats.merge(adopted.stats)


def _run_slot(
    ring: ShmBlockRing, publication, monitor, injector, slot: int, n: int, *, fold: bool
) -> None:
    """Verdict a slot's rows in place and seal the result columns.

    The worker's one verdict step.  A block folds its verdicts into the
    device table (``fold``); a bisection probe does not, so probing is
    repeatable and a probe crash attributes the fault to the probed
    rows alone.  A helper rather than inline in the dispatch loop so
    the zero-copy slot views die with this frame — lingering views
    would pin the segment buffer and make the worker's final
    ``ring.close()`` noisy.
    """
    views = ring.slot(slot)
    if injector is not None:
        injector.check_poison(
            monitor.queue._names, views["dev"][:n], views["seqs"][:n]
        )
    predictions, entropy, accepted = publication.verdict(views["features"][:n])
    if fold:
        monitor._fold(views["dev"][:n], predictions, entropy, accepted)
    views["predictions"][:n] = predictions
    views["entropy"][:n] = entropy
    views["accepted"][:n] = accepted
    # Trace sidecar column 1: the worker's seal timestamp, read back by
    # the parent to reconstruct the shm crossing (one float store; the
    # sidecar sits outside both checksums, see ShmBlockRing).
    ring.stamp_trace(slot, 1, time.monotonic())
    ring.seal_results(slot, n)


def worker_main(shard_id: int, conn, init: dict) -> None:
    """One shard worker: attach shared state, drain the control pipe.

    ``init`` carries the arena ring spec, the current model publication
    header, the monitor configuration, and — when this process replaces
    a dead predecessor — the checkpoint to restore from.  The loop is a
    plain message dispatcher; all heavy data rides in shared memory.

    Blocks are processed in strict epoch order: a block that arrives
    early (because a failed-integrity predecessor is being re-shipped,
    or a quarantine bisection is holding one epoch open) is stashed
    until its turn, so scatter order — and therefore device state —
    never depends on fault timing.
    """
    ring = ShmBlockRing.attach(init["ring"])
    publication = map_publication(init["model"])
    ckpt = init.get("ckpt")
    # With telemetry on, the worker's registry snapshot rides home
    # inside every report message and the parent folds it in.
    monitor, regs_applied = _restore_worker_monitor(
        ckpt,
        batch_size=init["batch_size"],
        entropy_window=init["entropy_window"],
        telemetry=init["telemetry"] or None,
    )
    epoch_done = int(ckpt["epoch"]) if ckpt is not None else -1
    checkpoint_every = int(init["checkpoint_every"])
    since_checkpoint = 0
    plan = init.get("chaos")
    injector = (
        FaultInjector(plan, shard_id, init.get("life", 0))
        if plan is not None
        else None
    )
    expected = epoch_done + 1
    stash: dict[int, tuple] = {}

    def process_block(msg) -> bool:
        """Handle one in-order block; False = integrity failure reported."""
        nonlocal regs_applied, epoch_done, since_checkpoint
        _, slot, epoch, n, names_start, names, regs_start, regs = msg
        if injector is not None:
            injector.on_block()
        regs_applied = _apply_regs(monitor, regs_applied, regs_start, regs)
        _apply_names(monitor, names_start, names)
        if not ring.verify_block(slot, n):
            # A corrupted frame must never reach scatter: report it and
            # hold this epoch open — the parent re-ships into the same
            # slot and later epochs wait in the stash meanwhile.
            conn.send(("badblock", slot, epoch))
            return False
        t0 = time.perf_counter()
        _run_slot(ring, publication, monitor, injector, slot, n, fold=True)
        if monitor._obs_on:
            monitor._m_verdict.observe(time.perf_counter() - t0)
            monitor._m_batches.inc()
            monitor._m_drained.inc(n)
        epoch_done = epoch
        conn.send(("result", slot, epoch))
        since_checkpoint += 1
        if since_checkpoint >= checkpoint_every:
            conn.send(
                ("ckpt", _worker_checkpoint(monitor, epoch_done, regs_applied))
            )
            since_checkpoint = 0
        return True

    try:
        while True:
            try:
                msg = conn.recv()
            except EOFError:
                break
            kind = msg[0]
            if kind in ("block", "skipblock"):
                epoch = msg[2] if kind == "block" else msg[1]
                if epoch != expected:
                    if epoch > expected:
                        stash[epoch] = msg
                    continue
                while msg is not None:
                    if msg[0] == "skipblock":
                        # Every row of this epoch was quarantined; the
                        # parent holds its (empty) result locally.
                        epoch_done = expected
                        advanced = True
                    else:
                        advanced = process_block(msg)
                    if not advanced:
                        break
                    expected += 1
                    msg = stash.pop(expected, None)
            elif kind == "probe":
                _, slot, n, token = msg
                _run_slot(ring, publication, monitor, injector, slot, n, fold=False)
                conn.send(("probed", slot, token))
            elif kind == "adopt":
                # Failover hand-off from a dead sibling shard.
                _adopt(monitor, msg[1])
            elif kind == "names":
                # Registry span of a block excluded from replay: dense
                # indices are positional, so the span still has to land.
                _apply_names(monitor, msg[1], msg[2])
            elif kind == "regs":
                regs_applied = _apply_regs(monitor, regs_applied, msg[1], msg[2])
            elif kind == "checkpoint":
                conn.send(
                    ("ckpt", _worker_checkpoint(monitor, epoch_done, regs_applied))
                )
                since_checkpoint = 0
            elif kind == "report":
                conn.send(("report", monitor.report()))
            elif kind == "republish":
                stale = publication
                publication = map_publication(msg[1])
                stale.close()
                conn.send(("republished", publication.generation))
            elif kind == "ping":
                conn.send(("pong", msg[1]))
            elif kind == "stop":
                break
            else:
                raise RuntimeError(f"unknown control message {kind!r}")
    except Exception:
        try:
            conn.send(("error", traceback.format_exc()))
        except Exception:
            pass
        raise
    finally:
        publication.close()
        ring.close()
        conn.close()


# ---------------------------------------------------------------------------
# Parent side
# ---------------------------------------------------------------------------


class _Retained:
    """One shipped block held until a worker checkpoint covers it."""

    __slots__ = (
        "batch",
        "n",
        "slot",
        "names_span",
        "regs_span",
        "consumed",
        "poisoned",
        "skipped",
        "reships",
    )

    def __init__(self, *, batch, n, slot, names_span, regs_span):
        self.batch = batch
        self.n = n
        self.slot = slot
        self.names_span = names_span
        self.regs_span = regs_span
        self.consumed = False
        self.poisoned = False       # faulted twice; bisect before reshipping
        self.skipped = False        # fully quarantined; replay as a gap marker
        self.reships = 0            # integrity-failure re-deliveries


class _WorkerHandle:
    """Parent-side bookkeeping for one worker link."""

    __slots__ = (
        "shard_id",
        "proc",
        "conn",
        "ring",
        "epoch",
        "consumed",
        "retained",
        "inflight",
        "free_slots",
        "names_sent",
        "regs_sent",
        "last_ckpt",
        "restarts",
        "health",
        "total_restarts",
        "spawns",
        "last_seen",
        "fault_counts",
        "ready",
        "local_results",
        "adopts",
    )

    def __init__(self, shard_id: int):
        self.shard_id = shard_id
        self.proc = None
        self.conn = None
        self.ring = None
        self.epoch = 0              # next block number to ship
        self.consumed = -1          # highest epoch merged into parent state
        self.retained: dict[int, _Retained] = {}
        self.inflight: deque[int] = deque()
        self.free_slots: set[int] = set()
        self.names_sent = 0         # parent registry entries shipped
        self.regs_sent = 0          # reg-log entries shipped
        self.last_ckpt: dict | None = None
        self.restarts = 0           # consecutive failures (reset on progress)
        self.health = ShardHealth.HEALTHY
        self.total_restarts = 0     # lifetime restarts (observability)
        self.spawns = 0             # worker incarnations (fault-plan key)
        self.last_seen = time.monotonic()
        self.fault_counts: dict[int, int] = {}  # epoch -> worker faults
        self.ready: dict[int, int] = {}  # early results: epoch -> slot
        # Verdicts resolved parent-side (failover recompute, fully
        # quarantined blocks): epoch -> (batch, pred, entropy, accepted).
        self.local_results: dict[int, tuple] = {}
        self.adopts: list[tuple] = []  # failover adoptions not yet checkpointed


class WorkerShardedFleetMonitor(ShardedFleetMonitor):
    """The sharded fleet facade with process-per-shard workers.

    Drop-in for :class:`ShardedFleetMonitor` (same constructor shape,
    same API), with the verdict work fanned out over ``n_shards``
    supervised worker processes through shared-memory arenas.  Verdicts,
    merged stats, forensic stream and report device rows are bitwise
    identical to the in-process facade — the workers run the *same*
    :func:`~repro.uncertainty.trust.count_table_verdict` on the same
    bytes and the same :meth:`FleetMonitor._fold` state updates; the
    process boundary changes where the work runs, never what it
    computes.

    Additional parameters
    ---------------------
    mp_context:
        ``multiprocessing`` start method (default ``"spawn"`` — the
        safe choice next to threaded BLAS; tests use ``"fork"`` for
        startup speed).
    checkpoint_every:
        Worker auto-checkpoint cadence in blocks; bounds both restart
        replay length and retained-block memory.
    pipeline_depth:
        Rounds in flight during :meth:`drain` (take/copy of round
        ``r+1`` overlaps worker compute of round ``r``).
    worker_timeout:
        Seconds a worker may go silent before it is declared hung and
        restarted from checkpoint.
    max_restarts:
        Consecutive failed restarts of one shard before the circuit
        breaker opens.  With surviving shards the broken shard fails
        over (devices, backlog and pending verdicts move — nothing is
        shed); with a single shard it raises.
    restart_backoff:
        Base seconds of the bounded exponential back-off between
        consecutive restarts of one shard (0 disables; capped at 2s).
    chaos:
        Optional :class:`~repro.fleet.resilience.FaultPlan` injecting a
        deterministic fault campaign (tests/benchmarks only; ``None``
        costs nothing).
    quarantine_maxlen:
        Bound of the poison-window quarantine store.

    Call :meth:`close` (or use as a context manager) to stop workers
    and unlink the shared segments.
    """

    def __init__(
        self,
        hmd,
        *,
        n_shards: int = 4,
        batch_size: int = 256,
        policy: BackpressurePolicy | None = None,
        forensics: ForensicQueue | None = None,
        drift_reference=None,
        entropy_window: int = 128,
        router=None,
        mp_context: str = "spawn",
        checkpoint_every: int = 16,
        pipeline_depth: int = 2,
        worker_timeout: float = 30.0,
        max_restarts: int = 3,
        restart_backoff: float = 0.0,
        chaos: FaultPlan | None = None,
        quarantine_maxlen: int = 256,
        telemetry=None,
        tracer=None,
    ):
        super().__init__(
            hmd,
            n_shards=n_shards,
            batch_size=batch_size,
            policy=policy,
            forensics=forensics,
            drift_reference=drift_reference,
            entropy_window=entropy_window,
            router=router,
            telemetry=telemetry,
            tracer=tracer,
        )
        if checkpoint_every < 1:
            raise ValueError(f"checkpoint_every must be >= 1; got {checkpoint_every}.")
        if pipeline_depth < 1:
            raise ValueError(f"pipeline_depth must be >= 1; got {pipeline_depth}.")
        self._ctx = mp.get_context(mp_context)
        self.checkpoint_every = int(checkpoint_every)
        self.pipeline_depth = int(pipeline_depth)
        self.worker_timeout = float(worker_timeout)
        self.max_restarts = int(max_restarts)
        self.restart_backoff = float(restart_backoff)
        self._chaos = chaos
        self._quarantine = QuarantineStore(maxlen=int(quarantine_maxlen))
        self._quarantine.bind_metrics(self.metrics)
        # Supervision instruments (no-ops when telemetry is off):
        # restart/failover/reship events plus the shm crossing latency
        # reconstructed from the per-slot trace sidecar.
        self._m_restarts = self.metrics.counter(
            "fleet_worker_restarts_total", "supervised worker restarts"
        )
        self._m_failovers = self.metrics.counter(
            "fleet_worker_failovers_total", "shards failed over to survivors"
        )
        self._m_reships = self.metrics.counter(
            "fleet_block_reships_total",
            "blocks re-shipped after an integrity failure",
        )
        self._m_roundtrip = self.metrics.histogram(
            "fleet_shm_roundtrip_seconds",
            "ship→seal shm crossing latency per block",
        )
        self._probe_token = 0
        # Slot budget: worst-case replay (a full checkpoint interval of
        # retained blocks plus in-flight rounds) must fit the ring with
        # margin, so a restart never waits on slot reclamation.
        self._n_slots = self.checkpoint_every + 2 * self.pipeline_depth + 2
        self._generation = 0
        self._ping = 0
        self._closed = False
        self._model_segment = None
        self._model_header, self._model_segment = publish_model(
            self.published, generation=self._generation
        )
        self._reg_logs: list[list[tuple[str, str]]] = [
            [] for _ in range(self.n_shards)
        ]
        # Feature-arena precision follows the published front: a
        # float32-mode hmd gets "<f4" slots (half the arena traffic);
        # write_block's f8→f4 cast rounds exactly like the in-process
        # front's own input cast, so verdicts stay identical.  A later
        # mode switch republishes the model but keeps the arena dtype —
        # the worker front casts whatever arrives, so a float64/
        # quantized republish over an f4 arena would *work* but lose
        # precision; the facade therefore only narrows the arena when
        # the hmd is already in float32 mode at construction.
        feat_dtype = (
            "<f4"
            if np.dtype(getattr(hmd, "_front_dtype_", np.float64)) == np.float32
            else "<f8"
        )
        self.handles: list[_WorkerHandle] = []
        try:
            for shard_id in range(self.n_shards):
                handle = _WorkerHandle(shard_id)
                handle.ring = ShmBlockRing(
                    n_slots=self._n_slots,
                    capacity=self.batch_size,
                    n_features=int(hmd.n_features_in_),
                    pred_dtype=self._model_header["pred_dtype"],
                    feat_dtype=feat_dtype,
                )
                handle.free_slots = set(range(self._n_slots))
                self._spawn_process(handle)
                self.handles.append(handle)
        except Exception:
            self.close()
            raise

    # -- lifecycle -----------------------------------------------------

    def _spawn_process(self, handle: _WorkerHandle) -> None:
        """Start (or replace) the worker process behind a handle."""
        parent_conn, child_conn = self._ctx.Pipe()
        init = {
            "ring": handle.ring.spec(),
            "model": self._model_header,
            "ckpt": handle.last_ckpt,
            "batch_size": self.batch_size,
            "entropy_window": self.entropy_window,
            "checkpoint_every": self.checkpoint_every,
            "chaos": self._chaos,
            "life": handle.spawns,
            "telemetry": self.metrics.enabled,
        }
        handle.spawns += 1
        proc = self._ctx.Process(
            target=worker_main,
            args=(handle.shard_id, child_conn, init),
            daemon=True,
            name=f"fleet-shard-{handle.shard_id}",
        )
        proc.start()
        # Close the parent's copy of the child end so a worker death
        # surfaces as pipe EOF instead of an eternal block.
        child_conn.close()
        handle.proc = proc
        handle.conn = parent_conn
        handle.last_seen = time.monotonic()

    def _kill_process(self, handle: _WorkerHandle) -> None:
        """Tear down a worker process and its pipe, escalating politely."""
        if handle.conn is not None:
            try:
                handle.conn.close()
            except Exception:
                pass
            handle.conn = None
        proc = handle.proc
        if proc is None:
            return
        handle.proc = None
        try:
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=2.0)
            if proc.is_alive():
                proc.kill()
                proc.join(timeout=2.0)
            else:
                proc.join(timeout=2.0)
        except Exception:
            pass
        try:
            proc.close()
        except Exception:
            pass

    def close(self) -> None:
        """Stop every worker and unlink the shared segments."""
        if self._closed:
            return
        self._closed = True
        for handle in getattr(self, "handles", []):
            if handle.conn is not None:
                try:
                    handle.conn.send(("stop",))
                except Exception:
                    pass
        for handle in getattr(self, "handles", []):
            self._kill_process(handle)
            if handle.ring is not None:
                handle.ring.close()
        if self._model_segment is not None:
            try:
                self._model_segment.close()
                _unlink(self._model_segment)
            except Exception:
                pass
            self._model_segment = None

    def __enter__(self) -> "WorkerShardedFleetMonitor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self):
        try:
            self.close()
        except Exception:
            pass

    # -- supervision ---------------------------------------------------

    def _restart(
        self, handle: _WorkerHandle, *, reason: str = "", count: bool = True
    ) -> None:
        """Replace a failed worker: restore from checkpoint, replay.

        Every retained block newer than the checkpoint is re-shipped in
        epoch order — the consumed ones rebuild the worker's device
        state (their duplicate results are dropped by epoch), the
        unconsumed ones are the lost in-flight work whose results the
        caller is still waiting for.  Blocks marked poisoned (two
        faults) or skipped (fully quarantined) are excluded from the
        replay; their registry spans still ship so dense indices stay
        aligned, and a skip marker keeps the worker's epoch cursor
        moving.

        ``count=False`` (bisection probes) skips the consecutive-failure
        breaker, the back-off and the fault attribution — probe crashes
        are *expected* while isolating a poison row.
        """
        handle.total_restarts += 1
        self._m_restarts.inc()
        if count:
            handle.restarts += 1
            if handle.restarts > self.max_restarts:
                self._failover(handle, reason=reason)
                return
            # Which block was the worker on?  Results arrive in epoch
            # order, so the oldest in-flight epoch without one is the
            # suspect; two strikes and it goes to bisection.
            suspect = next(
                (
                    e
                    for e in handle.inflight
                    if e not in handle.ready
                    and e in handle.retained
                    and not handle.retained[e].consumed
                    and not handle.retained[e].poisoned
                ),
                None,
            )
            if suspect is not None:
                faults = handle.fault_counts.get(suspect, 0) + 1
                handle.fault_counts[suspect] = faults
                if faults >= 2:
                    handle.retained[suspect].poisoned = True
            if self.restart_backoff > 0.0:
                time.sleep(
                    min(
                        self.restart_backoff * 2 ** (handle.restarts - 1),
                        _BACKOFF_CAP,
                    )
                )
        if handle.health is not ShardHealth.DEAD:
            handle.health = ShardHealth.DEGRADED
        self._kill_process(handle)
        handle.free_slots = set(range(self._n_slots))
        handle.ready.clear()
        for record in handle.retained.values():
            record.slot = None
        self._spawn_process(handle)
        log = self._reg_logs[handle.shard_id]
        try:
            # Adoptions not yet pinned by a checkpoint first (the
            # worker applies them only when the restored checkpoint
            # does not already carry the device), then registrations
            # since the checkpoint that are not attached to any
            # retained block (flushed standalone) — overlap with block
            # spans dedupes worker-side.
            if handle.adopts:
                handle.conn.send(("adopt", list(handle.adopts)))
            regs_from = int(handle.last_ckpt["regs_applied"]) if handle.last_ckpt else 0
            if regs_from < handle.regs_sent:
                handle.conn.send(("regs", regs_from, log[regs_from : handle.regs_sent]))
            for epoch, record, names, regs in self._retained_spans(handle):
                if not (record.poisoned or record.skipped):
                    self._send_block(handle, epoch)
                    continue
                if regs[1]:
                    handle.conn.send(("regs", *regs))
                if names[1]:
                    handle.conn.send(("names", *names))
                if record.skipped:
                    handle.conn.send(("skipblock", epoch))
        except (BrokenPipeError, OSError) as error:
            self._restart(handle, reason=f"replay failed: {error}", count=count)

    def _retained_spans(self, handle: _WorkerHandle):
        """Retained records in epoch order, with their registry spans.

        Yields ``(epoch, record, (names_start, names), (regs_start,
        regs))`` — the one walk restart replay and failover recompute
        share.
        """
        for epoch in sorted(handle.retained):
            record = handle.retained[epoch]
            yield (epoch, record, *self._spans(handle, record))

    def _spans(self, handle: _WorkerHandle, record: _Retained) -> tuple:
        """A record's dense-registry and reg-log spans, as (start, entries)."""
        ns, ne = record.names_span
        rs, re_ = record.regs_span
        names = self.shards[handle.shard_id].queue._names[ns:ne]
        return (ns, list(names)), (rs, list(self._reg_logs[handle.shard_id][rs:re_]))

    def _send_block(self, handle: _WorkerHandle, epoch: int, *, first: bool = False):
        """Write a retained record into its slot and send the block frame.

        The one block frame: first delivery, integrity re-ship, restart
        replay and post-quarantine re-ship all send ``("block", slot,
        epoch, n, names_start, names, regs_start, regs)``.  A record
        without a slot takes a free one.  Only the ``first`` delivery
        stamps the ship time and is exposed to scheduled corruption, so
        re-deliveries always converge.
        """
        record = handle.retained[epoch]
        if record.slot is None:
            record.slot = handle.free_slots.pop()
        slot, batch = record.slot, record.batch
        handle.ring.write_block(slot, batch.features, batch.device_index, batch.seqs)
        if first:
            if self._obs_on:
                # Trace sidecar column 0: the parent's ship timestamp.
                # The worker seals its own into column 1; _await_result
                # reads the pair back as the shm crossing.
                ship_ts = time.monotonic()
                handle.ring.stamp_trace(slot, 0, ship_ts)
                if self.tracer is not None:
                    self.tracer.stamp_rows(
                        batch.device_ids, batch.seqs, "ship", ship_ts
                    )
            if self._chaos is not None and self._chaos.should_corrupt(
                handle.shard_id, epoch
            ):
                # Scheduled arena corruption: flip stored bytes *after*
                # the checksum stamp, exactly like a bit-flip in flight.
                handle.ring.corrupt_slot(slot)
        names, regs = self._spans(handle, record)
        handle.conn.send(("block", slot, epoch, record.n, *names, *regs))

    def _failover(self, handle: _WorkerHandle, *, reason: str) -> None:
        """Retire a shard whose circuit breaker opened; move everything.

        With no survivors this raises (single-shard fleets keep the old
        fail-fast behaviour).  Otherwise:

        1. The dead worker's device table is rebuilt *in-process* from
           its last checkpoint plus the retained-block replay — the
           same restore-and-replay a restart performs, run against the
           same published verdict kernel, so the rebuilt states are
           bitwise what the worker held.  Verdicts for epochs the
           parent had not consumed yet are kept as local results, so
           the in-flight rounds complete without the worker.
        2. The router permanently re-deals the dead hash bucket over
           the survivors, and every device migrates rebalance-style:
           state, sequence counter, shed history and queued backlog
           move — nothing is shed, nothing is lost.
        3. Each survivor adopts its share over a control message that
           is replay-safe (re-sent on restart until a checkpoint pins
           it; the worker applies only devices its checkpoint does not
           already carry).

        The dead shard's parent mirror is zeroed — its contributions
        now live in the survivors' mirrors — and its arena segment is
        unlinked.
        """
        survivors = [
            h
            for h in self.handles
            if h is not handle and h.health is not ShardHealth.DEAD
        ]
        if not survivors:
            raise RuntimeError(
                f"shard {handle.shard_id} worker failed {handle.restarts} "
                f"consecutive times; giving up. Last failure: {reason}"
            )
        self._kill_process(handle)
        handle.health = ShardHealth.DEAD
        self._m_failovers.inc()
        mirror = self.shards[handle.shard_id]
        log = self._reg_logs[handle.shard_id]

        # 1. Restore-and-replay in-process: exactly what a replacement
        # worker would compute, minus the process.
        replay, regs_applied = _restore_worker_monitor(
            handle.last_ckpt,
            batch_size=self.batch_size,
            entropy_window=self.entropy_window,
        )
        _adopt(replay, handle.adopts)
        regs_applied = _apply_regs(
            replay, regs_applied, regs_applied, log[regs_applied : handle.regs_sent]
        )
        for epoch, record, names, regs in self._retained_spans(handle):
            regs_applied = _apply_regs(replay, regs_applied, *regs)
            _apply_names(replay, *names)
            if record.skipped:
                continue
            batch = record.batch
            predictions, entropy, accepted = self.published.verdict(batch.features)
            replay._fold(batch.device_index, predictions, entropy, accepted)
            if not record.consumed:
                # The in-flight verdicts the caller is still awaiting;
                # their stats ride inside the migrated device states,
                # so the consume-time merge skips the stats mirror.
                handle.local_results[epoch] = (
                    batch,
                    predictions,
                    entropy,
                    np.asarray(accepted, dtype=bool),
                )

        # 2. Re-route and migrate (rebalance semantics: moved, never
        # shed).  The mirror's registry is authoritative for *which*
        # devices exist; the replay monitor for their verdict state.
        self.router.disable(handle.shard_id)
        moves: dict[int, list[tuple]] = {}
        for device_id in list(mirror.devices):
            state = replay.devices.get(device_id, mirror.devices[device_id])
            target_id = self.router.shard_of(device_id)
            move = [(state.snapshot(), int(mirror._seq.get(device_id, 0)))]
            _adopt(self.shards[target_id], move)
            mirror.queue.move_device(device_id, self.shards[target_id].queue)
            moves.setdefault(target_id, []).extend(move)

        # 3. Survivors adopt their share.  Recorded before sending so a
        # send failure replays the adoption on restart.
        for target_id, payload in moves.items():
            thandle = self.handles[target_id]
            thandle.adopts.extend(payload)
            try:
                thandle.conn.send(("adopt", payload))
            except (BrokenPipeError, OSError) as error:
                self._restart(thandle, reason=str(error))

        # Zero the dead mirror: every contribution now lives in the
        # survivors (the replayed step counter keeps advancing through
        # the pending local results, so leave it be).
        mirror.devices = {}
        mirror._seq = {}
        mirror.stats = MonitorStats()
        handle.retained.clear()
        handle.ready.clear()
        handle.fault_counts.clear()
        handle.last_ckpt = None
        handle.free_slots = set(range(self._n_slots))
        if handle.ring is not None:
            handle.ring.close()
            handle.ring = None
        # Pin the adoptions: once a survivor checkpoint carries the
        # moved devices, the adopt payloads can be dropped from replay.
        self._sync_checkpoints()

    def _handle_side(self, handle: _WorkerHandle, msg: tuple) -> None:
        """Absorb a message that is not the one currently awaited."""
        kind = msg[0]
        if kind == "result":
            _, slot, epoch = msg
            if epoch <= handle.consumed:
                # A replayed block's duplicate verdict: determinism
                # makes it identical to what was already merged.
                handle.free_slots.add(slot)
            else:
                # Early arrival: an integrity re-ship or a mid-drain
                # checkpoint barrier can legitimately complete epochs
                # ahead of the one being awaited.  Hold the slot until
                # its turn comes around.
                handle.ready[epoch] = slot
            return
        if kind == "badblock":
            self._reship(handle, msg[1], msg[2])
            return
        if kind == "ckpt":
            self._absorb_checkpoint(handle, msg[1])
            return
        if kind == "error":
            raise _WorkerDied(
                f"worker {handle.shard_id} raised:\n{msg[1]}"
            )
        # Late pong/report/republished from a superseded request: drop.

    def _reship(self, handle: _WorkerHandle, slot: int, epoch: int) -> None:
        """Re-deliver a block whose frame failed the worker's checksum.

        The worker holds the epoch open, so re-writing the same slot
        and re-sending the same message is exactly-once by
        construction.  Corruption that survives ``_MAX_RESHIPS`` clean
        re-writes is not transient — treat the link as dead so the
        supervisor takes over.
        """
        record = handle.retained.get(epoch)
        if record is None or record.consumed or record.skipped:
            handle.free_slots.add(slot)
            return
        record.reships += 1
        self._m_reships.inc()
        if record.reships > _MAX_RESHIPS:
            raise _WorkerDied(
                f"shard {handle.shard_id} block {epoch} failed integrity "
                f"checks {record.reships} times."
            )
        record.slot = slot
        self._send_block(handle, epoch)

    def _absorb_checkpoint(self, handle: _WorkerHandle, state: dict) -> None:
        """Install a newer checkpoint and release the blocks it covers."""
        if handle.last_ckpt is not None and state["epoch"] < handle.last_ckpt["epoch"]:
            return
        handle.last_ckpt = state
        covered = int(state["epoch"])
        for epoch in [
            e
            for e, record in handle.retained.items()
            if e <= covered and record.consumed
        ]:
            del handle.retained[epoch]
        if handle.adopts:
            # Adoptions the checkpoint now carries no longer need the
            # replay-time re-send.
            carried = {d["device_id"] for d in state["monitor"]["devices"]}
            handle.adopts = [
                (snap, seq)
                for snap, seq in handle.adopts
                if snap["device_id"] not in carried
            ]

    def _recv_until(self, handle: _WorkerHandle, kind: str, *, match=None, timeout=None):
        """Receive until a matching message arrives; raise on link death."""
        budget = self.worker_timeout if timeout is None else timeout
        deadline = time.monotonic() + budget
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise _WorkerDied(
                    f"worker {handle.shard_id} unresponsive for {budget:.1f}s."
                )
            conn = handle.conn
            try:
                ready = conn.poll(min(0.05, remaining))
            except (OSError, ValueError):
                raise _WorkerDied(f"worker {handle.shard_id} pipe closed.")
            if not ready:
                if not handle.proc.is_alive() and not conn.poll(0):
                    raise _WorkerDied(
                        f"worker {handle.shard_id} died "
                        f"(exitcode {handle.proc.exitcode})."
                    )
                continue
            try:
                msg = conn.recv()
            except (EOFError, OSError):
                raise _WorkerDied(f"worker {handle.shard_id} pipe hit EOF.")
            handle.last_seen = time.monotonic()
            if msg[0] == kind and (match is None or match(msg)):
                return msg
            self._handle_side(handle, msg)

    def heartbeat(self, *, timeout: float | None = None) -> list[int]:
        """Ping every worker; restart the silent ones from checkpoint.

        Returns the shard ids that had to be restarted.  Call this from
        an operational loop between drains to catch workers that died
        or hung while no round was in flight.
        """
        restarted = []
        for handle in self.handles:
            if handle.health is ShardHealth.DEAD:
                continue
            self._ping += 1
            token = self._ping
            try:
                handle.conn.send(("ping", token))
                self._recv_until(
                    handle, "pong", match=lambda m: m[1] == token, timeout=timeout
                )
                handle.restarts = 0
                if handle.health is ShardHealth.DEGRADED:
                    handle.health = ShardHealth.HEALTHY
            except (_WorkerDied, BrokenPipeError, OSError) as error:
                self._restart(handle, reason=str(error))
                restarted.append(handle.shard_id)
        return restarted

    def _ask(self, handle: _WorkerHandle, request: tuple, kind: str, *, match=None):
        """Send a request and await its reply; restart and retry on failure.

        Returns the reply, or ``None`` once the shard is dead (its
        breaker opened during a restart and it failed over).
        """
        while handle.health is not ShardHealth.DEAD:
            try:
                handle.conn.send(request)
                return self._recv_until(handle, kind, match=match)
            except (_WorkerDied, BrokenPipeError, OSError) as error:
                self._restart(handle, reason=str(error))
        return None

    def _sync_checkpoints(self) -> None:
        """Barrier: a fresh checkpoint from every worker, retained drained.

        Registrations no block has carried yet ship first, so every
        checkpoint covers every device registered so far.
        """
        self._flush_regs()
        for handle in self.handles:
            msg = self._ask(
                handle,
                ("checkpoint",),
                "ckpt",
                match=lambda m: int(m[1]["epoch"]) >= handle.consumed,
            )
            if msg is not None:
                self._absorb_checkpoint(handle, msg[1])

    # -- ingress (reg-log hooks) ---------------------------------------

    def register(self, device_id: str, *, cohort: str = "unknown"):
        """Register on the home shard and log for worker propagation."""
        shard_index = self.router.shard_of(device_id)
        monitor = self.shards[shard_index]
        known = monitor.devices.get(device_id)
        if known is None or (cohort != "unknown" and known.cohort == "unknown"):
            self._reg_logs[shard_index].append((device_id, cohort))
        return monitor.register(device_id, cohort=cohort)

    def submit(self, device_id: str, window) -> bool:
        """Route one window to its shard (device logged for the worker)."""
        self.register(device_id)
        return super().submit(device_id, window)

    def submit_many(self, device_id: str, windows) -> int:
        """Route a block of windows (device logged for the worker)."""
        self.register(device_id)
        return super().submit_many(device_id, windows)

    def _flush_regs(self) -> None:
        """Ship registrations that no block has carried yet."""
        for handle in self.handles:
            if handle.health is ShardHealth.DEAD:
                continue
            log = self._reg_logs[handle.shard_id]
            if handle.regs_sent >= len(log):
                continue
            start = handle.regs_sent
            entries = log[start:]
            handle.regs_sent = len(log)
            try:
                handle.conn.send(("regs", start, entries))
            except (BrokenPipeError, OSError) as error:
                self._restart(handle, reason=str(error))

    # -- model publication ---------------------------------------------

    def _ensure_published(self) -> PublishedHmd:
        """Republish to every worker after a retrain/threshold change."""
        if self.published.is_current():
            return self.published
        # Checkpoint barrier first: restart replay must never cross a
        # model generation, or replayed verdicts would diverge from the
        # originals already merged.
        self._sync_checkpoints()
        self.published = PublishedHmd(self.hmd)
        self._generation += 1
        stale_segment = self._model_segment
        self._model_header, self._model_segment = publish_model(
            self.published, generation=self._generation
        )
        generation = self._generation
        for handle in self.handles:
            # A replacement spawned on failure already maps the new
            # header; the retried request re-acks the same generation.
            self._ask(
                handle,
                ("republish", self._model_header),
                "republished",
                match=lambda m: m[1] == generation,
            )
        if stale_segment is not None:
            try:
                stale_segment.close()
                _unlink(stale_segment)
            except Exception:
                pass
        return self.published

    # -- fused rounds across processes ---------------------------------

    def _ship(self, handle: _WorkerHandle, batch: WindowBatch) -> None:
        """Retain a dequeued batch under the next epoch and ship it."""
        if not handle.free_slots:
            raise RuntimeError(
                f"shard {handle.shard_id} arena ring exhausted "
                f"({self._n_slots} slots) — checkpoint cadence and "
                "pipeline depth are inconsistent."
            )
        names_end = len(self.shards[handle.shard_id].queue._names)
        regs_end = len(self._reg_logs[handle.shard_id])
        epoch = handle.epoch
        handle.epoch = epoch + 1
        handle.retained[epoch] = _Retained(
            batch=batch,
            n=len(batch),
            slot=None,
            names_span=(handle.names_sent, names_end),
            regs_span=(handle.regs_sent, regs_end),
        )
        handle.names_sent, handle.regs_sent = names_end, regs_end
        handle.inflight.append(epoch)
        try:
            self._send_block(handle, epoch, first=True)
        except (BrokenPipeError, OSError) as error:
            # Retained already — the restart replay re-ships it.
            self._restart(handle, reason=str(error))

    def _await_result(self, handle: _WorkerHandle):
        """Resolve the oldest in-flight epoch's verdicts.

        Returns ``(batch, predictions, entropy, accepted, mirrored)``.
        ``batch`` is the authoritative batch for the epoch — it may be
        a quarantine-filtered subset of what was shipped.  ``mirrored``
        is True when the verdicts' stats contributions already live in
        the parent's mirrors (failover recompute: the migrated device
        states carry them), so the caller must skip the stats half of
        the merge.
        """
        while True:
            expected = handle.inflight[0]
            local = handle.local_results.pop(expected, None)
            if local is not None:
                # Resolved parent-side: a failover recompute or a fully
                # quarantined (empty) block.
                handle.inflight.popleft()
                handle.consumed = max(handle.consumed, expected)
                batch, predictions, entropy, accepted = local
                return batch, predictions, entropy, accepted, True
            record = handle.retained[expected]
            if record.poisoned:
                self._quarantine_and_reship(handle, expected)
                continue
            if expected in handle.ready:
                slot = handle.ready.pop(expected)
            else:
                try:
                    msg = self._recv_until(
                        handle, "result", match=lambda m: m[2] == expected
                    )
                except _WorkerDied as error:
                    self._restart(handle, reason=str(error))
                    continue
                slot = msg[1]
            try:
                predictions, entropy, accepted = handle.ring.read_results(
                    slot, record.n
                )
            except ShmIntegrityError as error:
                # The result frame itself is damaged — indistinguishable
                # from a worker that scribbled and died; replay
                # recomputes it from the pre-block checkpoint.
                self._restart(handle, reason=str(error))
                continue
            if self._obs_on:
                ship_ts, seal_ts = handle.ring.read_trace(slot)
                if seal_ts > ship_ts > 0.0:
                    self._m_roundtrip.observe(seal_ts - ship_ts)
                if self.tracer is not None and seal_ts > 0.0:
                    self.tracer.stamp_rows(
                        record.batch.device_ids,
                        record.batch.seqs,
                        "verdict",
                        seal_ts,
                    )
            handle.free_slots.add(slot)
            record.slot = None
            record.consumed = True
            handle.consumed = expected
            handle.inflight.popleft()
            handle.restarts = 0
            handle.fault_counts.pop(expected, None)
            if handle.health is ShardHealth.DEGRADED:
                handle.health = ShardHealth.HEALTHY
            return record.batch, predictions, entropy, accepted, False

    def _quarantine_and_reship(self, handle: _WorkerHandle, epoch: int) -> None:
        """Bisect a twice-faulting block; quarantine rows, replay the rest.

        Verdict-only probes narrow the fault down to individual rows
        (a probe re-runs the verdict pass without touching device
        state, so probing is repeatable and free of side effects).
        Offending rows move to the bounded quarantine store — still
        accounted, never silently shed — and the surviving rows are
        re-shipped *under the original epoch*, so ordering, sequence
        numbers and exactly-once semantics are untouched.  A block
        whose probes all pass was a coincidence of two unrelated
        faults: it replays whole.
        """
        record = handle.retained[epoch]
        batch = record.batch
        keep = self._isolate_rows(handle, batch)
        bad = np.flatnonzero(~keep)
        for i in bad:
            self._quarantine.push(
                QuarantinedWindow(
                    device_id=str(batch.device_ids[i]),
                    seq=int(batch.seqs[i]),
                    features=np.array(batch.features[i], copy=True),
                    shard_id=handle.shard_id,
                    epoch=int(epoch),
                    reason=(
                        "worker faulted twice on this block; "
                        "row isolated by bisection"
                    ),
                )
            )
        record.poisoned = False
        handle.fault_counts.pop(epoch, None)
        if len(bad):
            # Genuine poison found and removed — that is progress, so
            # the consecutive-failure breaker resets.  A clean bisection
            # (two unrelated crashes) keeps the count: a crash storm
            # must still be able to open the breaker.
            handle.restarts = 0
            record.batch = WindowBatch(
                device_ids=batch.device_ids[keep],
                seqs=batch.seqs[keep],
                features=batch.features[keep],
                device_index=batch.device_index[keep],
            )
            record.n = len(record.batch.seqs)
        try:
            if record.n:
                # The restart replay ships the (now filtered) record.
                self._send_block(handle, epoch)
                return
            # Nothing left to verdict: the epoch resolves to an empty
            # local result and the worker is told to skip it so its
            # strict epoch cursor keeps moving.
            record.skipped = True
            record.consumed = True
            handle.local_results[epoch] = (
                record.batch,
                np.empty(0, dtype=np.dtype(self._model_header["pred_dtype"])),
                np.empty(0, dtype=np.float64),
                np.empty(0, dtype=bool),
            )
            handle.conn.send(("skipblock", epoch))
        except (BrokenPipeError, OSError) as error:
            self._restart(handle, reason=str(error))

    def _isolate_rows(self, handle: _WorkerHandle, batch) -> np.ndarray:
        """Delta-debug a faulting block down to its poison rows.

        Returns a keep-mask.  Probes the full row set first — if that
        passes, the double fault was two unrelated crashes and every
        row is kept.  Otherwise subsets split until failing singletons
        fall out: O(k log n) probes for k poison rows.
        """
        n = len(batch.seqs)
        keep = np.ones(n, dtype=bool)
        stack = [np.arange(n)]
        while stack:
            rows = stack.pop()
            if self._probe(handle, batch, rows):
                continue
            if len(rows) == 1:
                keep[rows[0]] = False
                continue
            mid = len(rows) // 2
            stack.append(rows[mid:])
            stack.append(rows[:mid])
        return keep

    def _probe(self, handle: _WorkerHandle, batch, rows: np.ndarray) -> bool:
        """Verdict-only probe of a row subset; False = the worker died.

        Probe deaths are the *expected* bisection signal, so the
        restart they trigger is uncounted — no breaker progress, no
        back-off, no fault attribution.
        """
        self._probe_token += 1
        token = self._probe_token
        slot = handle.free_slots.pop()
        try:
            handle.ring.write_block(
                slot,
                batch.features[rows],
                batch.device_index[rows],
                batch.seqs[rows],
            )
            handle.conn.send(("probe", slot, len(rows), token))
            self._recv_until(handle, "probed", match=lambda m: m[2] == token)
        except (_WorkerDied, BrokenPipeError, OSError) as error:
            # The restart reclaims every slot, including this probe's.
            self._restart(handle, reason=str(error), count=False)
            return False
        handle.free_slots.add(slot)
        return True

    def _merge_part(
        self,
        shard: FleetMonitor,
        batch: WindowBatch,
        predictions: np.ndarray,
        entropy: np.ndarray,
        accepted: np.ndarray,
        *,
        record_stats: bool = True,
    ) -> None:
        """Mirror one shard slice into the parent-side facade state.

        The worker already folded the device table; the parent applies
        the *same* ``record_verdicts`` call to its per-shard stats
        mirror (bitwise-identical merged counters), advances the same
        step counter, and stages flagged rows from its own retained
        feature arrays — the worker's are views of a recycled
        shared-memory slot.

        ``record_stats=False`` is the failover-recompute path: those
        verdicts' stats already travelled inside the migrated device
        states, so only the step counter and flagged staging apply.
        """
        n = len(batch)
        base_step = shard._step
        shard._step += n
        if record_stats:
            shard.stats.record_verdicts(
                predictions, entropy, np.asarray(accepted, dtype=bool)
            )
        n_flagged = self._stage.add(batch, predictions, entropy, accepted, base_step)
        if self._obs_on:
            self._m_scatter_rows.inc(n)
            self._m_flagged.inc(n_flagged)
            if self.tracer is not None:
                self.tracer.complete_rows(batch.device_ids, batch.seqs, "scatter")

    def _ship_round(self):
        """Take one round's blocks off the queues and ship them."""
        parts = []
        for shard, handle in zip(self.shards, self.handles):
            if handle.health is ShardHealth.DEAD:
                continue
            if len(shard.queue):
                batch = shard.queue.take(self.batch_size)
                if len(batch):
                    if self.tracer is not None:
                        self.tracer.stamp_rows(batch.device_ids, batch.seqs, "queue")
                    self._ship(handle, batch)
                    parts.append((handle, batch))
        return parts or None

    def _finish_round(self, parts) -> FleetBatchResult:
        """Await one round's results and merge them facade-side."""
        batches, verdicts = [], []
        for handle, _shipped in parts:
            # The resolved batch may differ from the shipped one (rows
            # quarantined mid-flight), so merge what came back.
            batch, *verdict, mirrored = self._await_result(handle)
            self._merge_part(
                self.shards[handle.shard_id], batch, *verdict, record_stats=not mirrored
            )
            batches.append(batch)
            verdicts.append(verdict)
        if len(verdicts) == 1:
            predictions, entropy, accepted = verdicts[0]
        else:
            predictions, entropy, accepted = map(np.concatenate, zip(*verdicts))
        return self._round_result(
            batches, predictions, entropy, accepted, self.published.threshold
        )

    def process_batch(self) -> FleetBatchResult | None:
        """One fused round, fanned across the workers."""
        self._ensure_published()
        parts = self._ship_round()
        if parts is None:
            return None
        return self._finish_round(parts)

    def drain(self, max_batches: int | None = None) -> list[FleetBatchResult]:
        """Drain every queue with round-level pipelining.

        Up to ``pipeline_depth`` rounds ride the arenas at once: the
        parent's take-and-copy of round ``r+1`` overlaps the workers'
        verdict compute of round ``r``, so the parent is never the
        bubble between worker batches.
        """
        self._ensure_published()
        results: list[FleetBatchResult] = []
        rounds: deque = deque()
        while True:
            while len(rounds) < self.pipeline_depth and (
                max_batches is None or len(results) + len(rounds) < max_batches
            ):
                parts = self._ship_round()
                if parts is None:
                    break
                rounds.append(parts)
            if not rounds:
                break
            results.append(self._finish_round(rounds.popleft()))
        return results

    # -- egress --------------------------------------------------------

    def shard_health(self) -> tuple[ShardHealthReport, ...]:
        """Per-shard supervision snapshot (health, restarts, liveness)."""
        now = time.monotonic()
        return tuple(
            ShardHealthReport(
                shard_id=handle.shard_id,
                health=handle.health,
                restarts=handle.restarts,
                total_restarts=handle.total_restarts,
                heartbeat_age=(
                    0.0
                    if handle.health is ShardHealth.DEAD
                    else max(0.0, now - handle.last_seen)
                ),
            )
            for handle in self.handles
        )

    @property
    def quarantine(self) -> QuarantineStore:
        """The poison-window quarantine store (bounded, accounted)."""
        return self._quarantine

    def report(self):
        """Merged fleet view: worker device tables + parent queues.

        Failed-over shards are skipped — their devices (and counters)
        already live in the survivors' tables.  The merged report also
        carries the per-shard health rows and the lifetime quarantine
        count.
        """
        self._flush_regs()
        reports = []
        for handle in self.handles:
            msg = self._ask(handle, ("report",), "report")
            if msg is not None:
                reports.append(
                    rebind_queue_counters(msg[1], self.shards[handle.shard_id].queue)
                )
        # Three telemetry planes fold here: the facade's supervision
        # instruments, the parent mirrors' queue instruments (the parent
        # owns ingress), and the worker snapshots inside the reports.
        merged = self._merge_reports(
            reports,
            *(m.snapshot() for m in (s.metrics for s in self.shards) if m.enabled),
        )
        return replace(
            merged,
            shard_health=self.shard_health(),
            n_quarantined=self._quarantine.total_quarantined,
        )

    # -- rebalancing ---------------------------------------------------

    def rebalance(self, n_shards: int):
        """Not supported live across processes (by design, for now).

        The migration path is: :meth:`snapshot` → restore in-process
        (:meth:`ShardedFleetMonitor.restore`) → ``rebalance(K)`` →
        ``snapshot()`` → :meth:`WorkerShardedFleetMonitor.restore` —
        checkpoints are cross-backend by construction, so the round
        trip is exact.
        """
        raise NotImplementedError(
            "live rebalance is not supported by the multi-process backend; "
            "snapshot(), restore in-process, rebalance, snapshot and "
            "restore with WorkerShardedFleetMonitor.restore instead."
        )

    # -- persistence ---------------------------------------------------

    def snapshot(self) -> dict:
        """Checkpoint the fleet — same schema as the in-process facade.

        Worker monitor checkpoints are fetched at a barrier, then each
        shard's payload is rebound to the parent's authoritative queue
        backlog and sequence counters, yielding a payload
        :meth:`ShardedFleetMonitor.restore` (in-process) and
        :meth:`WorkerShardedFleetMonitor.restore` both accept.
        """
        self._sync_checkpoints()
        shard_states = []
        for handle, shard in zip(self.handles, self.shards):
            if handle.health is ShardHealth.DEAD:
                # Failed-over shard: everything migrated, so its slot in
                # the snapshot is the (empty) parent mirror.  Restoring
                # such a snapshot needs a router with the same shard
                # disabled for identical routing — or a rebalance.
                worker_state = shard.snapshot()
            else:
                worker_state = dict(handle.last_ckpt["monitor"])
            worker_state["queue"] = shard.queue.snapshot()
            worker_state["seq"] = dict(shard._seq)
            shard_states.append(worker_state)
        return self._snapshot(shard_states)

    @classmethod
    def restore(
        cls,
        hmd,
        state: dict,
        *,
        drift_reference=None,
        router=None,
        **worker_options,
    ) -> "WorkerShardedFleetMonitor":
        """Rebuild a worker-backed fleet from a facade snapshot.

        Accepts checkpoints from either backend (the schema is shared):
        parent queues, sequence counters and stat mirrors restore
        in-process; each worker is reseeded from its shard's monitor
        payload with an emptied queue (the parent owns the backlog) and
        rebuilds its dense registry from the first blocks it receives.
        ``worker_options`` forwards ``mp_context``/``checkpoint_every``/
        ``pipeline_depth``/``worker_timeout``/``max_restarts``/
        ``restart_backoff``/``chaos``/``quarantine_maxlen``.
        """
        fleet = cls._restore(hmd, state, drift_reference, router, **worker_options)
        empty_queue_state = FleetQueue().snapshot()
        for handle, shard_state in zip(fleet.handles, state["shards"]):
            handle.last_ckpt = {
                "epoch": -1,
                "monitor": dict(shard_state, queue=empty_queue_state),
                "names": [],
                "regs_applied": 0,
            }
            # Reseed: replace the fresh worker with one restored from
            # the crafted checkpoint (nothing retained, nothing to
            # replay — the parent queue rebuilds the registry as blocks
            # ship).
            fleet._kill_process(handle)
            fleet._spawn_process(handle)
        return fleet
