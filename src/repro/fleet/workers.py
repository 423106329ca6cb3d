"""Process-per-shard execution backend for the partitioned fleet.

:class:`WorkerShardedFleetMonitor` is a
:class:`~repro.fleet.engine.FleetMonitor` — register, submit,
``process_batch``/``drain``, ``report``, ``snapshot``/``restore`` —
that runs every partition's verdict pass in its own worker *process*,
so K partitions verdict on K cores instead of time-slicing one GIL.
The split of responsibilities:

Parent (this process)
    The one owner of fleet state.  Each shard is one of the monitor's
    partition cores in the parent — ingress queue (backpressure,
    shedding, sequence numbering), device table, counters — and every
    round folds through the same
    :meth:`~repro.fleet.engine.FleetMonitor._fold_round` the in-process
    rounds run, with the forensic stream and drift watching on the
    monitor.  Registration, reports and snapshots are the inherited
    in-process ones.

Worker (one per shard)
    A stateless vote counter: a read-only mapping of the published
    model (:mod:`repro.fleet.shm`) and the shard's block ring.  It
    counts the votes of the rows in the slot each block frame names,
    writes the counts back into the same shared slot and seals them;
    the parent's fold expands them into verdicts.  No window tensor is
    ever pickled, and no worker holds anything a restart would need to
    rebuild.

Each protocol step has one path.  Every block frame — first delivery,
integrity re-ship, restart re-ship, post-quarantine re-ship — is
written and sent by ``_send_block``; blocks and bisection probes share
one worker verdict step (``_run_slot``); a round closes with the
in-process round's own fold half.

Supervision state machine
-------------------------

Each worker link is ``RUNNING → (dead | hung | errored) → RESTARTING →
RUNNING``.  Liveness is observed three ways: the pipe hitting EOF, the
process reporting not-alive with the pipe drained, or a response
deadline expiring (``worker_timeout``; :meth:`heartbeat` probes
explicitly).  The parent retains every shipped block until its
verdicts are consumed, so a restart just spawns a fresh worker and
re-ships the unconsumed blocks; verdict determinism makes the re-shipped
results identical.  Kill a worker mid-stream and the merged verdict
stream is indistinguishable from an uninterrupted run (the crash-
recovery test asserts exactly this).

Degradation beyond restart (see :mod:`repro.fleet.resilience`): every
shard carries a health state machine (healthy → degraded → dead).  A
failed worker is replaced at once; after ``max_restarts`` consecutive
failures the circuit breaker opens and the shard goes **dead**: its
retained blocks and every later round are verdicted in the parent
from the same published kernel.  No device
moves and nothing is shed; with no live worker left the breaker raises
instead.  Block frames carry integrity checksums both ways
(:class:`~repro.fleet.shm.ShmBlockRing`), and a block that faults its
worker twice is bisected with probes: offending rows are quarantined
into a bounded forensic side-queue, the rest are re-shipped under the
original epoch — exactly-once either way.  A seeded
:class:`~repro.fleet.resilience.FaultPlan` (``chaos=``) exercises all
of this deterministically.

Republish-on-retrain needs no barrier: nothing is in flight between
rounds, so the parent publishes the recompiled
:class:`~repro.fleet.sharding.PublishedHmd` into a fresh read-only
segment and broadcasts the new header; workers swap views and ack — no
restart, no pause longer than one control round trip.
"""

from __future__ import annotations

import multiprocessing as mp
import time
import traceback
from collections import deque

import numpy as np

from ..uncertainty.online import ForensicQueue
from .engine import FleetBatchResult, FleetMonitor
from .queueing import BackpressurePolicy, WindowBatch
from .resilience import (
    FaultInjector,
    FaultPlan,
    QuarantineStore,
    QuarantinedWindow,
    ShardHealth,
    ShardHealthReport,
)
from .shm import (
    ShmBlockRing,
    ShmIntegrityError,
    _unlink,
    map_publication,
    publish_model,
)

__all__ = ["WorkerShardedFleetMonitor", "worker_main"]


class _WorkerDied(Exception):
    """A worker link failed (process death, pipe EOF, deadline, error)."""


# Poison windows the quarantine store keeps (it counts every one).
_QUARANTINE_MAXLEN = 256

# A block that is re-delivered this many times over integrity failures
# points at a parent-side arena problem, not transient corruption.
_MAX_RESHIPS = 3


# ---------------------------------------------------------------------------
# Worker side
# ---------------------------------------------------------------------------


def _run_slot(ring: ShmBlockRing, publication, injector, slot, n, poisoned) -> None:
    """Count a slot's rows' votes in place and seal the result column.

    The worker's one verdict step, for blocks and bisection probes
    alike.  A helper rather than inline in the dispatch loop so the
    zero-copy slot views die with this frame — lingering views would
    pin the segment buffer and make the worker's final ``ring.close()``
    noisy.
    """
    if injector is not None:
        injector.check_poison(poisoned)
    views = ring.slot(slot)
    views["counts"][:n] = publication.counts(views["features"][:n])
    # Trace sidecar column 1: the worker's seal timestamp, read back by
    # the parent to reconstruct the shm crossing (one float store; the
    # sidecar sits outside both checksums, see ShmBlockRing).
    ring.stamp_trace(slot, 1, time.monotonic())
    ring.seal_results(slot, n)


def worker_main(shard_id: int, conn, init: dict) -> None:
    """One shard worker: attach shared state, drain the control pipe.

    ``init`` carries the arena ring spec, the current model publication
    header and the optional fault plan.  The loop is a plain message
    dispatcher handling frames in arrival order — the worker holds no
    fleet state, so ordering cannot change any result; all heavy data
    rides in shared memory.
    """
    ring = ShmBlockRing.attach(init["ring"])
    publication = map_publication(init["model"])
    plan = init["chaos"]
    injector = (
        FaultInjector(plan, shard_id, init["life"]) if plan is not None else None
    )
    try:
        while True:
            try:
                msg = conn.recv()
            except EOFError:
                break
            kind = msg[0]
            if kind == "block":
                _, slot, epoch, n, poisoned = msg
                if injector is not None:
                    injector.on_block()
                if not ring.verify_block(slot, n):
                    # A corrupted frame must never be verdicted: report
                    # it and the parent re-ships into the same slot.
                    conn.send(("badblock", slot, epoch))
                    continue
                _run_slot(ring, publication, injector, slot, n, poisoned)
                conn.send(("result", slot, epoch))
            elif kind == "probe":
                _, slot, n, token, poisoned = msg
                _run_slot(ring, publication, injector, slot, n, poisoned)
                conn.send(("probed", slot, token))
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
    """One shipped block, held until its verdicts are consumed."""

    __slots__ = ("batch", "slot", "sent", "reships")

    def __init__(self, batch: WindowBatch):
        self.batch = batch
        self.slot = None            # None: not (or no longer) at the worker
        self.sent = 0               # send order of the latest delivery
        self.reships = 0            # integrity-failure re-deliveries


class _WorkerHandle:
    """Parent-side bookkeeping for one worker link."""

    __slots__ = (
        "shard_id",
        "proc",
        "conn",
        "ring",
        "epoch",
        "sends",
        "retained",
        "free_slots",
        "restarts",
        "health",
        "total_restarts",
        "spawns",
        "last_seen",
        "fault_counts",
        "ready",
    )

    def __init__(self, shard_id: int):
        self.shard_id = shard_id
        self.proc = None
        self.conn = None
        self.ring = None
        self.epoch = 0              # next block number to ship
        self.sends = 0              # block frames sent (attribution order)
        # Unconsumed blocks by epoch; insertion order is epoch order,
        # so the first entry is always the one awaited next.
        self.retained: dict[int, _Retained] = {}
        self.free_slots: set[int] = set()
        self.restarts = 0           # consecutive failures (reset on progress)
        self.health = ShardHealth.HEALTHY
        self.total_restarts = 0     # lifetime restarts (observability)
        self.spawns = 0             # worker incarnations (fault-plan key)
        self.last_seen = time.monotonic()
        # Worker faults per epoch; two send the block to bisection.
        self.fault_counts: dict[int, int] = {}
        self.ready: dict[int, int] = {}  # early results: epoch -> slot


class WorkerShardedFleetMonitor(FleetMonitor):
    """A :class:`FleetMonitor` with process-per-partition workers.

    Same constructor shape and API as the in-process monitor (its
    ``n_shards`` defaults to 4), with the verdict work fanned out over
    ``n_shards`` supervised worker processes through shared-memory
    arenas.  Verdicts, stats, forensic stream and report device rows
    are bitwise identical to the in-process monitor — the workers run
    the *same* :func:`~repro.uncertainty.trust.vote_counts` on the
    same bytes, and the parent expands and folds their counts through
    the same :meth:`FleetMonitor._fold_round`; the process boundary
    changes where the votes are counted, never what is computed.  Live
    :meth:`~FleetMonitor.rebalance` is refused: snapshot, restore in
    process, rebalance, snapshot and :meth:`~FleetMonitor.restore`
    here instead (checkpoints are cross-backend by construction).
    :meth:`~FleetMonitor.restore` forwards the parameters below.

    Additional parameters
    ---------------------
    mp_context:
        ``multiprocessing`` start method (default ``"spawn"`` — the
        safe choice next to threaded BLAS; tests use ``"fork"`` for
        startup speed).
    pipeline_depth:
        Rounds in flight during :meth:`drain` (take/copy of round
        ``r+1`` overlaps worker compute of round ``r``); also sizes
        each worker's block ring.
    worker_timeout:
        Seconds a worker may go silent before it is declared hung and
        restarted.
    max_restarts:
        Consecutive failed restarts of one shard before the circuit
        breaker opens.  While another worker lives, the broken shard
        goes dead and the parent verdicts its rounds (nothing moves,
        nothing is shed); with no live worker left it raises.
    chaos:
        Optional :class:`~repro.fleet.resilience.FaultPlan` injecting a
        deterministic fault campaign (tests/benchmarks only; ``None``
        costs nothing).

    Call :meth:`close` (or use as a context manager) to stop workers
    and unlink the shared segments.
    """

    _rebalance_refusal = (
        "live rebalance is not supported by the multi-process backend; "
        "snapshot(), restore in-process, rebalance, snapshot and "
        "restore with WorkerShardedFleetMonitor.restore instead."
    )

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
        pipeline_depth: int = 2,
        worker_timeout: float = 30.0,
        max_restarts: int = 3,
        chaos: FaultPlan | None = None,
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
        if pipeline_depth < 1:
            raise ValueError(f"pipeline_depth must be >= 1; got {pipeline_depth}.")
        self._ctx = mp.get_context(mp_context)
        self.pipeline_depth = int(pipeline_depth)
        self.worker_timeout = float(worker_timeout)
        self.max_restarts = int(max_restarts)
        self._chaos = chaos
        self._quarantine = QuarantineStore(maxlen=_QUARANTINE_MAXLEN)
        self._quarantine.bind_metrics(self.metrics)
        # Supervision instruments (no-ops when telemetry is off):
        # restart/failover/reship events plus the shm crossing latency
        # reconstructed from the per-slot trace sidecar.
        self._m_restarts = self.metrics.counter(
            "fleet_worker_restarts_total", "supervised worker restarts"
        )
        self._m_failovers = self.metrics.counter(
            "fleet_worker_failovers_total", "shards failed over to the parent"
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
        # Slot budget: one block per in-flight round, plus one slot for
        # a bisection probe.
        self._n_slots = self.pipeline_depth + 1
        self._generation = 0
        self._ping = 0
        self._closed = False
        self._model_segment = None
        self._model_header, self._model_segment = publish_model(
            self.published, generation=self._generation
        )
        # Feature-arena precision follows the published front: a
        # float32-mode hmd gets "<f4" slots (half the arena traffic);
        # write_block's f8→f4 cast rounds exactly like the in-process
        # front's own input cast, so verdicts stay identical.  A later
        # mode switch republishes the model but keeps the arena dtype —
        # the worker front casts whatever arrives, so a float64/
        # quantized republish over an f4 arena would *work* but lose
        # precision; the monitor therefore only narrows the arena when
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
            "chaos": self._chaos,
            "life": handle.spawns,
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
        """Replace a failed worker.

        The unconsumed blocks stay retained with no slot, and
        :meth:`_await_result` re-ships each one as it is awaited.
        ``count=False`` (bisection probes) skips the consecutive-failure
        breaker and the fault attribution — probe crashes
        are *expected* while isolating a poison row.
        """
        handle.total_restarts += 1
        self._m_restarts.inc()
        if count:
            handle.restarts += 1
            if handle.restarts > self.max_restarts:
                self._failover(handle, reason=reason)
                return
            # Which block was the worker on?  It handles frames in
            # arrival order, so the earliest-sent block without a
            # result is the suspect; two strikes and it is bisected.
            suspects = [
                (record.sent, epoch)
                for epoch, record in handle.retained.items()
                if record.slot is not None and epoch not in handle.ready
            ]
            if suspects:
                suspect = min(suspects)[1]
                handle.fault_counts[suspect] = handle.fault_counts.get(suspect, 0) + 1
        handle.health = ShardHealth.DEGRADED
        self._kill_process(handle)
        handle.free_slots = set(range(self._n_slots))
        handle.ready.clear()
        for record in handle.retained.values():
            record.slot = None
        self._spawn_process(handle)

    def _failover(self, handle: _WorkerHandle, *, reason: str) -> None:
        """Retire a shard whose circuit breaker opened.

        The shard's device state never left the parent, so nothing
        migrates: the worker is stopped, the shard is marked dead, and
        :meth:`_await_result` verdicts its retained blocks — and every
        later round's — in the parent from the same published kernel.
        With no live worker left this raises instead (single-shard
        fleets keep their fail-fast behaviour).
        """
        if not any(
            h is not handle and h.health is not ShardHealth.DEAD
            for h in self.handles
        ):
            raise RuntimeError(
                f"shard {handle.shard_id} worker failed {handle.restarts} "
                f"consecutive times; giving up. Last failure: {reason}"
            )
        self._kill_process(handle)
        handle.health = ShardHealth.DEAD
        self._m_failovers.inc()
        handle.ready.clear()
        handle.fault_counts.clear()
        handle.ring.close()
        handle.ring = None

    def _handle_side(self, handle: _WorkerHandle, msg: tuple) -> None:
        """Absorb a message that is not the one currently awaited."""
        kind = msg[0]
        if kind == "result":
            # Early arrival: an integrity re-ship can complete epochs
            # ahead of the one being awaited.  Hold the slot until its
            # turn comes around.
            handle.ready[msg[2]] = msg[1]
        elif kind == "badblock":
            self._reship(handle, msg[2])
        elif kind == "error":
            raise _WorkerDied(f"worker {handle.shard_id} raised:\n{msg[1]}")
        # Late pong/probed/republished from a superseded request: drop.

    def _reship(self, handle: _WorkerHandle, epoch: int) -> None:
        """Re-deliver a block whose frame failed the worker's checksum.

        Re-writing the same slot and re-sending the same frame is
        exactly-once by construction.  Corruption that survives
        ``_MAX_RESHIPS`` clean re-writes is not transient — treat the
        link as dead so the supervisor takes over.
        """
        record = handle.retained[epoch]
        record.reships += 1
        self._m_reships.inc()
        if record.reships > _MAX_RESHIPS:
            raise _WorkerDied(
                f"shard {handle.shard_id} block {epoch} failed integrity "
                f"checks {record.reships} times."
            )
        self._send_block(handle, epoch)

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
        """Ping every worker; restart the silent ones.

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

    # -- model publication ---------------------------------------------

    def _ensure_published(self):
        """Republish to every worker after a retrain/threshold change."""
        if self.published.is_current():
            return self.published
        stale_segment = self._model_segment
        super()._ensure_published()
        self._generation += 1
        self._model_header, self._model_segment = publish_model(
            self.published, generation=self._generation
        )
        generation = self._generation
        for handle in self.handles:
            # A replacement spawned on failure already maps the new
            # header; the retried request re-acks the same generation.
            while handle.health is not ShardHealth.DEAD:
                try:
                    handle.conn.send(("republish", self._model_header))
                    self._recv_until(
                        handle, "republished", match=lambda m: m[1] == generation
                    )
                    break
                except (_WorkerDied, BrokenPipeError, OSError) as error:
                    self._restart(handle, reason=str(error))
        if stale_segment is not None:
            try:
                stale_segment.close()
                _unlink(stale_segment)
            except Exception:
                pass
        return self.published

    # -- fused rounds across processes ---------------------------------

    def _write_frame(self, handle: _WorkerHandle, slot: int, features, dev, seqs):
        """Write rows into a slot; True when the fault plan poisons them.

        The parent owns the device registry, so it evaluates the plan's
        poison windows on the rows it writes and the frame carries the
        flag to the worker's :class:`FaultInjector`.
        """
        handle.ring.write_block(slot, features, dev, seqs)
        if self._chaos is None:
            return False
        names = self.shards[handle.shard_id].queue.names_array()
        return bool(self._chaos.poison_rows(names, dev, seqs))

    def _send_block(self, handle: _WorkerHandle, epoch: int, *, first: bool = False):
        """Write a retained record into its slot and send the block frame.

        The one block frame: first delivery, integrity re-ship, restart
        re-ship and post-quarantine re-ship all send ``("block", slot,
        epoch, n, poisoned)``.  A record without a slot takes a free
        one.  Only the ``first`` delivery stamps the ship time and is
        exposed to scheduled corruption, so re-deliveries always
        converge.
        """
        record = handle.retained[epoch]
        if record.slot is None:
            record.slot = handle.free_slots.pop()
        record.sent = handle.sends
        handle.sends += 1
        slot, batch = record.slot, record.batch
        poisoned = self._write_frame(
            handle, slot, batch.features, batch.device_index, batch.seqs
        )
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
        handle.conn.send(("block", slot, epoch, len(batch), poisoned))

    def _ship(self, handle: _WorkerHandle, batch: WindowBatch) -> None:
        """Retain a dequeued batch under the next epoch and ship it.

        A dead shard's blocks are only retained: :meth:`_await_result`
        verdicts them in the parent.
        """
        epoch = handle.epoch
        handle.epoch = epoch + 1
        handle.retained[epoch] = _Retained(batch)
        if handle.health is ShardHealth.DEAD:
            return
        try:
            self._send_block(handle, epoch, first=True)
        except (BrokenPipeError, OSError) as error:
            # Retained already — re-shipped to the replacement when awaited.
            self._restart(handle, reason=str(error))

    def _await_result(self, handle: _WorkerHandle):
        """Resolve the oldest retained epoch's verdicts and release it.

        Returns ``(batch, counts)``: ``batch`` is the authoritative
        batch for the epoch — it may be a quarantine-filtered subset of
        what was shipped — and ``counts`` its rows' vote counts.
        """
        while True:
            epoch, record = next(iter(handle.retained.items()))
            batch = record.batch
            if handle.health is ShardHealth.DEAD or not len(batch):
                # Resolved parent-side: a dead shard's block, or one
                # quarantined down to nothing.
                del handle.retained[epoch]
                return batch, self._parent_counts(batch)
            if handle.fault_counts.get(epoch, 0) >= 2:
                self._bisect(handle, epoch)
                continue
            try:
                if record.slot is None:
                    # Lost with a failed worker: re-ship to its replacement.
                    self._send_block(handle, epoch)
                slot = handle.ready.pop(epoch, None)
                if slot is None:
                    slot = self._recv_until(
                        handle, "result", match=lambda m: m[2] == epoch
                    )[1]
                # A damaged result frame is indistinguishable from a
                # worker that scribbled and died: restart and recompute.
                counts = handle.ring.read_results(slot, len(batch))
            except (_WorkerDied, ShmIntegrityError, BrokenPipeError, OSError) as error:
                self._restart(handle, reason=str(error))
                continue
            if self._obs_on:
                ship_ts, seal_ts = handle.ring.read_trace(slot)
                if seal_ts > ship_ts > 0.0:
                    self._m_roundtrip.observe(seal_ts - ship_ts)
                if self.tracer is not None and seal_ts > 0.0:
                    self.tracer.stamp_rows(
                        batch.device_ids, batch.seqs, "verdict", seal_ts
                    )
            handle.free_slots.add(slot)
            del handle.retained[epoch]
            handle.restarts = 0
            handle.fault_counts.pop(epoch, None)
            if handle.health is ShardHealth.DEGRADED:
                handle.health = ShardHealth.HEALTHY
            return batch, counts

    def _parent_counts(self, batch: WindowBatch) -> np.ndarray:
        """The batch's vote counts, computed in this process."""
        if len(batch):
            return self.published.counts(batch.features)
        return np.empty(0, dtype=np.int64)

    def _bisect(self, handle: _WorkerHandle, epoch: int) -> None:
        """Bisect a twice-faulting block and quarantine its poison rows.

        Probes narrow the fault down to individual rows (a probe only
        verdicts, so probing is repeatable and free of side effects).
        Offending rows move to the bounded quarantine store — still
        accounted, never silently shed — and the surviving rows stay
        retained *under the original epoch*, to be re-shipped when
        awaited, so ordering, sequence numbers and exactly-once
        semantics are untouched.  A block whose probes all pass was a
        coincidence of two unrelated faults: it re-ships whole.
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
        fault attribution.
        """
        self._probe_token += 1
        token = self._probe_token
        slot = handle.free_slots.pop()
        try:
            poisoned = self._write_frame(
                handle,
                slot,
                batch.features[rows],
                batch.device_index[rows],
                batch.seqs[rows],
            )
            handle.conn.send(("probe", slot, len(rows), token, poisoned))
            self._recv_until(handle, "probed", match=lambda m: m[2] == token)
        except (_WorkerDied, BrokenPipeError, OSError) as error:
            # The restart reclaims every slot, including this probe's.
            self._restart(handle, reason=str(error), count=False)
            return False
        handle.free_slots.add(slot)
        return True

    def _ship_round(self):
        """Take one round's blocks off the queues and ship them."""
        handles = []
        for shard, handle in zip(self.shards, self.handles):
            if len(shard.queue):
                batch = shard.queue.take(self.batch_size)
                if len(batch):
                    if self.tracer is not None:
                        self.tracer.stamp_rows(batch.device_ids, batch.seqs, "queue")
                    self._ship(handle, batch)
                    handles.append(handle)
        return handles or None

    def _finish_round(self, handles) -> FleetBatchResult:
        """Await one round's verdicts and fold them like any engine."""
        if self._obs_on:
            t0 = time.perf_counter()
        parts, counts = [], []
        for handle in handles:
            batch, batch_counts = self._await_result(handle)
            parts.append((self.shards[handle.shard_id], batch))
            counts.append(batch_counts)
        if self._obs_on:
            self._m_verdict.observe(time.perf_counter() - t0)
        counts = counts[0] if len(counts) == 1 else np.concatenate(counts)
        return self._fold_round(parts, counts, self.published)

    def process_batch(self) -> FleetBatchResult | None:
        """One fused round, fanned across the workers."""
        self._ensure_published()
        handles = self._ship_round()
        if handles is None:
            return None
        return self._finish_round(handles)

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
                handles = self._ship_round()
                if handles is None:
                    break
                rounds.append(handles)
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

    def _health_fields(self) -> dict:
        """Per-shard health rows and the quarantine count for reports."""
        return {
            "shard_health": self.shard_health(),
            "n_quarantined": self._quarantine.total_quarantined,
        }
