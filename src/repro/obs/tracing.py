"""Sampled window-lifecycle tracing across the fleet pipeline.

A traced window carries monotonic timestamps through the stages

    ingest → queue → verdict → scatter

Sampling is deterministic: :class:`TraceSampler` hashes
``(device_id, seq)`` with a seeded integer mix, so at the default
1/1024 rate the *same* windows are sampled at every batch size
and on every replay — spans from two drains of the same traffic cover
the same windows.  The per-batch cost of the vectorised
row check is a few microseconds against a millisecond-scale verdict
pass (gated in ``benchmarks/test_bench_obs.py``).
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass

import numpy as np

__all__ = ["STAGES", "TraceContext", "TraceSampler", "TraceSpan"]

# Fleet stages in lifecycle order.  Percentiles are reported per
# *transition* between the consecutive stages a span actually visited.
STAGES = ("ingest", "queue", "verdict", "scatter")

_FNV_OFFSET = 0x811C9DC5
_FNV_PRIME = 0x01000193
_MASK32 = 0xFFFFFFFF


def _fnv1a_32(text: str) -> int:
    """FNV-1a over the utf-8 bytes: stable across runs and platforms."""
    value = _FNV_OFFSET
    for byte in text.encode("utf-8"):
        value = ((value ^ byte) * _FNV_PRIME) & _MASK32
    return value


class TraceSampler:
    """Deterministic 1-in-``rate`` sampler keyed on ``(device_id, seq)``."""

    __slots__ = ("rate", "seed", "_device_hashes", "_index_names", "_index_hashes")

    def __init__(self, rate: int = 1024, seed: int = 0):
        if rate < 1:
            raise ValueError(f"rate must be >= 1; got {rate}.")
        self.rate = int(rate)
        self.seed = int(seed)
        self._device_hashes: dict[str, int] = {}
        # Hashes by dense device index (-1: not hashed yet), valid for
        # the registry list they were read from.
        self._index_names: list | None = None
        self._index_hashes = np.empty(0, dtype=np.int64)

    def _device_hash(self, device_id: str) -> int:
        cached = self._device_hashes.get(device_id)
        if cached is None:
            cached = self._device_hashes[device_id] = _fnv1a_32(str(device_id))
        return cached

    def _mix(self, device_hash, seqs):
        return (
            seqs * 2654435761 + device_hash * 40503 + self.seed * 97
        ) & _MASK32

    def sample(self, device_id: str, seq: int) -> bool:
        """Whether this one window is traced."""
        return self._mix(self._device_hash(device_id), int(seq)) % self.rate == 0

    def sample_block(self, device_id: str, seqs) -> np.ndarray:
        """Boolean mask over one device's sequence block."""
        seqs = np.asarray(seqs, dtype=np.int64)
        return self._mix(self._device_hash(device_id), seqs) % self.rate == 0

    def sample_rows(self, device_ids, seqs) -> np.ndarray:
        """Boolean mask over a mixed-device batch (one vectorised pass)."""
        seqs = np.asarray(seqs, dtype=np.int64)
        unique, inverse = np.unique(np.asarray(device_ids), return_inverse=True)
        hashes = np.asarray(
            [self._device_hash(str(device_id)) for device_id in unique],
            dtype=np.int64,
        )
        return self._mix(hashes[inverse], seqs) % self.rate == 0

    def sample_indexed(self, device_index, seqs, names) -> np.ndarray:
        """Boolean mask over a batch keyed by dense device index.

        ``names`` is the append-only registry the indices point into
        (:attr:`~repro.fleet.queueing.FleetQueue.names`).  Each index is
        hashed the first time a batch carries it and cached while the
        same list is passed, so a batch costs one gather and the mix:
        no string sort.  The mask equals :meth:`sample_rows`'s.
        """
        if self._index_names is not names:
            self._index_names = names
            self._index_hashes = np.empty(0, dtype=np.int64)
        cache = self._index_hashes
        if len(cache) < len(names):
            grown = np.full(len(names), -1, dtype=np.int64)
            grown[: len(cache)] = cache
            cache = self._index_hashes = grown
        device_index = np.asarray(device_index, dtype=np.int64)
        hashes = cache[device_index]
        if (hashes < 0).any():
            for index in np.unique(device_index[hashes < 0]).tolist():
                cache[index] = self._device_hash(names[index])
            hashes = cache[device_index]
        seqs = np.asarray(seqs, dtype=np.int64)
        return self._mix(hashes, seqs) % self.rate == 0


@dataclass(frozen=True)
class TraceSpan:
    """One sampled window's completed lifecycle stamps."""

    device_id: str
    seq: int
    stamps: dict

    def duration(self, start: str = "ingest", stop: str = "scatter"):
        """Seconds between two stamped stages (``None`` if either missing)."""
        if start not in self.stamps or stop not in self.stamps:
            return None
        return self.stamps[stop] - self.stamps[start]

    def transitions(self) -> list[tuple[str, str, float]]:
        """``(from, to, seconds)`` between consecutive visited stages."""
        visited = [stage for stage in STAGES if stage in self.stamps]
        return [
            (a, b, self.stamps[b] - self.stamps[a])
            for a, b in zip(visited, visited[1:])
        ]


class TraceContext:
    """Collects sampled spans as batches move through a monitor.

    The monitor calls :meth:`begin`/:meth:`begin_block` at ingress (the
    sampler decides there, once, which windows are traced), then
    :meth:`stamp_rows` at each later stage and :meth:`complete_rows` at
    scatter.  Post-ingress stages take the same deterministic sampler
    mask (:meth:`sampled_rows`, computed once per batch and passed on)
    and touch only the handful of sampled rows, so a batch costs one
    vectorised hash plus O(sampled) dict work.

    A window shed by backpressure or quarantined never reaches
    scatter, so its span never closes; open spans are therefore capped at ``max_spans`` too,
    oldest dropped first.
    """

    def __init__(self, sampler: TraceSampler | None = None, *, max_spans: int = 4096):
        self.sampler = sampler if sampler is not None else TraceSampler()
        self.max_spans = max_spans
        self._pending: dict[tuple[str, int], dict] = {}
        self.spans: deque[TraceSpan] = deque(maxlen=max_spans)
        self.n_sampled = 0
        self.n_completed = 0

    # -- ingress -------------------------------------------------------

    def begin(self, device_id: str, seq: int, ts: float | None = None) -> bool:
        """Start a span if the sampler picks this window."""
        if not self.sampler.sample(device_id, seq):
            return False
        self._pending[(str(device_id), int(seq))] = {
            "ingest": time.monotonic() if ts is None else ts
        }
        self.n_sampled += 1
        self._bound_pending()
        return True

    def begin_block(self, device_id: str, seqs, ts: float | None = None) -> int:
        """Start spans for the sampled rows of one submitted block."""
        picked = np.flatnonzero(self.sampler.sample_block(device_id, seqs))
        if len(picked) == 0:
            return 0
        t = time.monotonic() if ts is None else ts
        device_id = str(device_id)
        for i in picked:
            self._pending[(device_id, int(seqs[i]))] = {"ingest": t}
        self.n_sampled += len(picked)
        self._bound_pending()
        return len(picked)

    def _bound_pending(self) -> None:
        """Drop the oldest open spans beyond ``max_spans``."""
        while len(self._pending) > self.max_spans:
            del self._pending[next(iter(self._pending))]

    # -- later stages --------------------------------------------------

    def sampled_rows(
        self, device_ids, seqs, device_index=None, names=None
    ) -> np.ndarray:
        """Positions of the batch's sampled rows (none while no span is open).

        With the batch's dense ``device_index`` and the registry
        ``names`` it points into, the mask comes from
        :meth:`TraceSampler.sample_indexed`; otherwise from the device
        ids.  A monitor computes this once per sweep and passes it to
        each stamp as ``rows``.
        """
        if not self._pending:
            return np.empty(0, dtype=np.int64)
        if device_index is not None:
            mask = self.sampler.sample_indexed(device_index, seqs, names)
        else:
            mask = self.sampler.sample_rows(device_ids, seqs)
        return np.flatnonzero(mask)

    def stamp_rows(
        self, device_ids, seqs, stage: str, ts: float | None = None, rows=None
    ) -> None:
        """Stamp a stage on every open span present in this batch.

        ``rows`` (from :meth:`sampled_rows`) skips the sampling pass.
        """
        if rows is None:
            rows = self.sampled_rows(device_ids, seqs)
        if len(rows) == 0:
            return
        t = time.monotonic() if ts is None else ts
        for i in rows:
            entry = self._pending.get((str(device_ids[i]), int(seqs[i])))
            if entry is not None:
                entry[stage] = t

    def complete_rows(
        self, device_ids, seqs, stage: str = "scatter", ts: float | None = None,
        rows=None,
    ) -> int:
        """Stamp the final stage and move finished spans out of pending."""
        if rows is None:
            rows = self.sampled_rows(device_ids, seqs)
        if len(rows) == 0:
            return 0
        t = time.monotonic() if ts is None else ts
        completed = 0
        for i in rows:
            key = (str(device_ids[i]), int(seqs[i]))
            entry = self._pending.pop(key, None)
            if entry is None:
                continue
            entry[stage] = t
            self.spans.append(
                TraceSpan(device_id=key[0], seq=key[1], stamps=entry)
            )
            completed += 1
        self.n_completed += completed
        return completed

    # -- aggregation ---------------------------------------------------

    @property
    def n_pending(self) -> int:
        return len(self._pending)

    def stages_covered(self) -> set:
        """Every stage stamped on at least one completed span."""
        covered: set = set()
        for span in self.spans:
            covered.update(span.stamps)
        return covered

    def summary(self, percentiles=(50, 95, 99)) -> dict:
        """Per-transition duration percentiles over completed spans.

        Returns ``{"n_sampled": ..., "n_completed": ..., "stages":
        [...], "transitions": {"queue→verdict": {"p50": ...}, ...},
        "total": {...}}`` — durations in seconds.  The ``total`` row is
        ingest→scatter.
        """
        durations: dict[tuple[str, str], list] = {}
        totals: list = []
        for span in self.spans:
            for a, b, dt in span.transitions():
                durations.setdefault((a, b), []).append(dt)
            total = span.duration()
            if total is not None:
                totals.append(total)

        def stats(values) -> dict:
            arr = np.asarray(values, dtype=float)
            return {
                f"p{q}": float(np.percentile(arr, q)) for q in percentiles
            } | {"n": len(values)}

        return {
            "n_sampled": self.n_sampled,
            "n_completed": self.n_completed,
            "n_pending": len(self._pending),
            "rate": self.sampler.rate,
            "stages": sorted(
                self.stages_covered(), key=STAGES.index
            ),
            "transitions": {
                f"{a}→{b}": stats(values)
                for (a, b), values in sorted(
                    durations.items(),
                    key=lambda kv: (STAGES.index(kv[0][0]), STAGES.index(kv[0][1])),
                )
            },
            "total": stats(totals) if totals else None,
        }
