"""Deterministic fault injection and degradation state for the fleet.

Chaos-hardening rests on one idea: every failure mode the supervisor
must survive is expressed as *data* — a :class:`FaultPlan`, a seeded,
step-indexed schedule of worker crashes, hangs, slow drains, shm-slot
corruptions and poison windows — so a "chaotic" run is exactly as
reproducible as a clean one.  The plan is consulted from two sides:

* the **parent**, which owns the device registry and every frame it
  writes: it flips bits in a just-written arena slot
  (:meth:`FaultPlan.should_corrupt`) so the worker's integrity
  checksum must catch it, and flags any block or probe frame whose
  rows hold a scheduled poison window (:meth:`FaultPlan.poison_rows`);
* the **worker-side** :class:`FaultInjector`, which fires scheduled
  crash/hang/slow events as block frames arrive and hard-exits on a
  flagged frame (simulating a malformed window taking the process
  down mid-verdict).

Both sides are ``None``-guarded at the call sites — a fleet built
without a plan pays nothing.

The degradation side lives here too: the per-shard health state
machine (:class:`ShardHealth`, surfaced as :class:`ShardHealthReport`
rows on the fleet report) and the bounded forensic side-queue for
quarantined poison windows (:class:`QuarantineStore`).  The supervisor
in :mod:`repro.fleet.workers` drives the transitions; this module only
defines the vocabulary, so it imports nothing from the rest of the
fleet package.
"""

from __future__ import annotations

import enum
import os
import time
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "FaultEvent",
    "FaultInjector",
    "FaultPlan",
    "QuarantineStore",
    "QuarantinedWindow",
    "ShardHealth",
    "ShardHealthReport",
    "account_windows",
]

# Distinctive exit codes so a chaos-test failure is attributable from
# the worker's exitcode alone.
CHAOS_EXIT = 57
POISON_EXIT = 58

_KINDS = ("crash", "hang", "slow")


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled worker fault.

    ``life`` is the worker incarnation (0 = first spawn, +1 per
    restart) and ``block`` the index of the block message within that
    incarnation — keying on the *life-local* count instead of the
    global epoch means a crash does not re-fire forever on every
    restart's re-ship of the same block.
    """

    shard_id: int
    life: int
    block: int
    kind: str
    delay: float = 0.0


class FaultPlan:
    """A seeded, fully deterministic schedule of fleet faults.

    Instances are immutable in spirit and picklable in practice (they
    ride to every worker in its spawn ``init`` dict).  Two plans built
    from the same arguments are equal in effect; :meth:`generate`
    derives everything from one integer seed.
    """

    def __init__(
        self,
        *,
        seed: int = 0,
        events: tuple = (),
        corrupt=(),
        poison=(),
        hang_seconds: float = 3600.0,
    ):
        self.seed = int(seed)
        self.events: dict[tuple[int, int, int], FaultEvent] = {}
        for event in events:
            if event.kind not in _KINDS:
                raise ValueError(
                    f"unknown fault kind {event.kind!r}; expected one of {_KINDS}."
                )
            self.events[(event.shard_id, event.life, event.block)] = event
        # (shard_id, epoch) pairs whose freshly shipped slot the parent
        # corrupts in place (restart and integrity re-ships stay clean,
        # so the badblock retry path converges).
        self.corrupt = frozenset((int(s), int(e)) for s, e in corrupt)
        # (device_id, seq) pairs that kill any worker verdicting them.
        self.poison = frozenset((str(d), int(q)) for d, q in poison)
        self.hang_seconds = float(hang_seconds)

    @classmethod
    def generate(
        cls,
        seed: int,
        *,
        n_shards: int,
        crashes: int = 2,
        hangs: int = 1,
        slows: int = 2,
        corruptions: int = 1,
        horizon: int = 24,
        lives: int = 2,
        slow_seconds: float = 0.02,
        hang_seconds: float = 3600.0,
        poison=(),
    ) -> "FaultPlan":
        """Derive a reproducible campaign from one seed.

        ``horizon`` bounds the block indices events land on; keep it
        under the number of blocks each shard will actually see or the
        tail of the schedule never fires (which is fine — plans are
        schedules, not guarantees).
        """
        rng = np.random.default_rng(seed)
        events = []
        for kind, count in (("crash", crashes), ("hang", hangs), ("slow", slows)):
            for _ in range(int(count)):
                events.append(
                    FaultEvent(
                        shard_id=int(rng.integers(n_shards)),
                        life=int(rng.integers(lives)),
                        block=int(rng.integers(horizon)),
                        kind=kind,
                        delay=slow_seconds if kind == "slow" else 0.0,
                    )
                )
        corrupt = {
            (int(rng.integers(n_shards)), int(rng.integers(horizon)))
            for _ in range(int(corruptions))
        }
        return cls(
            seed=seed,
            events=tuple(events),
            corrupt=corrupt,
            poison=poison,
            hang_seconds=hang_seconds,
        )

    def worker_event(self, shard_id: int, life: int, block: int) -> FaultEvent | None:
        """The fault scheduled for this (shard, incarnation, block), if any."""
        return self.events.get((shard_id, life, block))

    def should_corrupt(self, shard_id: int, epoch: int) -> bool:
        """Whether the parent corrupts this epoch's freshly shipped slot."""
        return (shard_id, epoch) in self.corrupt

    def poison_rows(self, names, dev, seqs) -> list[int]:
        """Row indices of poison windows in one block (or probe).

        ``names`` is the dense device registry, ``dev``/``seqs`` the
        block's index and sequence columns.
        """
        if not self.poison:
            return []
        return [
            i
            for i in range(len(seqs))
            if (str(names[int(dev[i])]), int(seqs[i])) in self.poison
        ]

    def counts(self) -> dict[str, int]:
        """Campaign size summary (for reports and benchmark JSON)."""
        summary = {kind: 0 for kind in _KINDS}
        for event in self.events.values():
            summary[event.kind] += 1
        summary["corrupt"] = len(self.corrupt)
        summary["poison"] = len(self.poison)
        return summary

    def __reduce__(self):
        return (
            _rebuild_plan,
            (
                self.seed,
                tuple(self.events.values()),
                tuple(self.corrupt),
                tuple(self.poison),
                self.hang_seconds,
            ),
        )


def _rebuild_plan(seed, events, corrupt, poison, hang_seconds) -> FaultPlan:
    return FaultPlan(
        seed=seed,
        events=events,
        corrupt=corrupt,
        poison=poison,
        hang_seconds=hang_seconds,
    )


class FaultInjector:
    """Worker-side hook firing a plan's scheduled faults.

    One instance per worker incarnation; the worker calls
    :meth:`on_block` as each block frame arrives (probes never count)
    and :meth:`check_poison` before verdicting any frame (blocks *and*
    bisection probes — poison is content-triggered, which is exactly
    what makes the parent's bisection isolate it).
    """

    def __init__(self, plan: FaultPlan, shard_id: int, life: int):
        self.plan = plan
        self.shard_id = int(shard_id)
        self.life = int(life)
        self._blocks = 0

    def on_block(self) -> None:
        """Fire the fault scheduled for the next block message, if any."""
        index = self._blocks
        self._blocks += 1
        event = self.plan.worker_event(self.shard_id, self.life, index)
        if event is None:
            return
        if event.kind == "crash":
            os._exit(CHAOS_EXIT)
        elif event.kind == "hang":
            time.sleep(self.plan.hang_seconds)
        else:  # slow
            time.sleep(event.delay)

    def check_poison(self, poisoned: bool) -> None:
        """Hard-exit on a frame the parent flagged as holding poison rows."""
        if poisoned:
            os._exit(POISON_EXIT)


# ---------------------------------------------------------------------------
# Degradation state: shard health and the quarantine side-queue
# ---------------------------------------------------------------------------


class ShardHealth(enum.Enum):
    """Per-shard supervision state: healthy → degraded → dead.

    ``DEGRADED`` means the shard restarted recently and has not yet
    proven itself by delivering a result; ``DEAD`` means the circuit
    breaker opened (``max_restarts`` consecutive failures), the worker
    is gone and the parent verdicts the shard's rounds itself.
    """

    HEALTHY = "healthy"
    DEGRADED = "degraded"
    DEAD = "dead"


@dataclass(frozen=True)
class ShardHealthReport:
    """Observability row for one shard's supervision state."""

    shard_id: int
    health: ShardHealth
    restarts: int
    total_restarts: int
    heartbeat_age: float

    def as_text(self) -> str:
        return (
            f"shard {self.shard_id}: {self.health.value}  "
            f"restarts={self.total_restarts}  "
            f"heartbeat_age={self.heartbeat_age:.1f}s"
        )


@dataclass(frozen=True)
class QuarantinedWindow:
    """One poison window pulled out of the stream for forensics."""

    device_id: str
    seq: int
    features: np.ndarray
    shard_id: int
    epoch: int
    reason: str


@dataclass
class QuarantineStore:
    """Bounded forensic side-queue of quarantined poison windows.

    Holds at most ``maxlen`` windows (oldest evicted first) but keeps
    the lifetime count, so accounting never loses a window even when
    forensics bounds memory.
    """

    maxlen: int = 256
    total_quarantined: int = 0
    _items: list = field(default_factory=list)
    _keys: set = field(default_factory=set)
    # Optional telemetry counter (kept as an injected object so this
    # module stays import-free of the rest of the fleet package).
    _metric: object = field(default=None, repr=False, compare=False)

    def bind_metrics(self, registry) -> None:
        """Count quarantine pushes in a telemetry registry."""
        self._metric = registry.counter(
            "fleet_windows_quarantined_total",
            "poison windows pulled into the quarantine store",
        )

    def push(self, window: QuarantinedWindow) -> None:
        self.total_quarantined += 1
        if self._metric is not None:
            self._metric.inc()
        self._keys.add((window.device_id, window.seq))
        self._items.append(window)
        if len(self._items) > self.maxlen:
            del self._items[: len(self._items) - self.maxlen]

    def __len__(self) -> int:
        return len(self._items)

    def snapshot(self) -> tuple:
        """The retained windows, oldest first."""
        return tuple(self._items)

    def keys(self) -> set:
        """Every ``(device_id, seq)`` ever quarantined (never evicted)."""
        return set(self._keys)


def account_windows(submitted, verdicts, quarantined, shed=0) -> list:
    """Exactly-once audit: every admitted window must be accounted for.

    ``submitted`` is the set of ``(device_id, seq)`` keys the ingress
    accepted, ``verdicts`` the keys that produced verdicts,
    ``quarantined`` the keys pulled into the quarantine store; ``shed``
    is the count the backpressure policy dropped *by design* (sheds are
    counted, not keyed — the policy drops before sequence assignment
    stabilises a key set).  Returns the keys silently lost (must be
    empty: ``len(submitted) == len(verdicts) + len(quarantined) +
    shed`` up to the shed count).
    """
    missing = sorted(set(submitted) - set(verdicts) - set(quarantined))
    if shed:
        # Shed windows never reach a verdict; they are accounted by
        # count.  Tolerate exactly `shed` unexplained keys.
        missing = missing[shed:] if len(missing) >= shed else []
    return missing
