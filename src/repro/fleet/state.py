"""Per-device monitoring state for the fleet engine.

Every monitored device keeps a constant-memory footprint regardless of
how long it has been streaming (the counters change in one place, the
partition core's verdict fold ``_fold`` in :mod:`repro.fleet.engine`): an embedded
:class:`~repro.uncertainty.online.MonitorStats` (the same counter
definitions the single-device monitor uses, so the two can never
drift) plus a fixed-capacity ring buffer of its most recent predictive
entropies.  The ring buffer is what the fleet report reads to rank
devices by *current* uncertainty — a device whose entropy regime
shifted recently is a drift/zero-day candidate even if its lifetime
mean looks benign.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..uncertainty.online import MonitorStats

__all__ = ["RingBuffer", "DeviceState"]


class RingBuffer:
    """Fixed-capacity float ring buffer with vectorised bulk appends."""

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1; got {capacity}.")
        self._data = np.zeros(capacity, dtype=float)
        self._capacity = capacity
        self._head = 0      # next write position
        self._size = 0

    @property
    def capacity(self) -> int:
        """Maximum number of retained values."""
        return self._capacity

    def __len__(self) -> int:
        return self._size

    def push(self, value: float) -> None:
        """Append one value, evicting the oldest when full."""
        self._data[self._head] = float(value)
        self._head = (self._head + 1) % self._capacity
        self._size = min(self._size + 1, self._capacity)

    def extend(self, values) -> None:
        """Append a batch of values in one vectorised write."""
        values = np.asarray(values, dtype=float).ravel()
        n = len(values)
        if n == 0:
            return
        if n >= self._capacity:
            # Only the newest `capacity` values survive.
            self._data[:] = values[-self._capacity:]
            self._head = 0
            self._size = self._capacity
            return
        stop = self._head + n
        if stop <= self._capacity:
            # Contiguous write — the overwhelmingly common case, and
            # the verdict fold's per-device hot path (plain slice
            # assignment, no index arithmetic).
            self._data[self._head : stop] = values
        else:
            idx = (self._head + np.arange(n)) % self._capacity
            self._data[idx] = values
        self._head = stop % self._capacity
        self._size = min(self._size + n, self._capacity)

    def values(self) -> np.ndarray:
        """Retained values, oldest first."""
        if self._size < self._capacity:
            return self._data[: self._size].copy()
        return np.roll(self._data, -self._head).copy()

    def mean(self) -> float:
        """Mean of the retained values (0.0 when empty)."""
        if self._size == 0:
            return 0.0
        if self._size < self._capacity:
            return float(self._data[: self._size].mean())
        return float(self._data.mean())

    def snapshot(self) -> dict:
        """Plain-data state for checkpointing (exact, including rotation).

        The raw storage/head/size triple is captured rather than the
        logical ``values()`` view so a restored buffer is *bit-exact*:
        re-pushing the values would normalise the rotation and perturb
        the last bit of :meth:`mean` (float summation order).
        """
        return {
            "capacity": self._capacity,
            "data": self._data.copy(),
            "head": self._head,
            "size": self._size,
        }

    @classmethod
    def restore(cls, state: dict) -> "RingBuffer":
        """Rebuild a buffer from :meth:`snapshot` output."""
        buffer = cls(state["capacity"])
        buffer._data[:] = state["data"]
        buffer._head = int(state["head"])
        buffer._size = int(state["size"])
        return buffer


@dataclass
class DeviceState:
    """Running verdict statistics for one monitored device."""

    device_id: str
    cohort: str = "unknown"
    stats: MonitorStats = field(default_factory=MonitorStats)
    last_step: int = -1
    entropy_recent: RingBuffer = field(default_factory=lambda: RingBuffer(128))

    @property
    def n_seen(self) -> int:
        """Windows screened for this device."""
        return self.stats.n_seen

    @property
    def n_accepted(self) -> int:
        """Windows whose verdict was emitted."""
        return self.stats.n_accepted

    @property
    def n_flagged(self) -> int:
        """Windows withheld as uncertain."""
        return self.stats.n_flagged

    @property
    def n_malware_alerts(self) -> int:
        """Accepted windows classified as malware."""
        return self.stats.n_malware_alerts

    @property
    def rejection_rate(self) -> float:
        """Fraction of this device's windows withheld as uncertain."""
        return self.stats.rejection_rate

    @property
    def alert_rate(self) -> float:
        """Fraction of *accepted* windows classified as malware."""
        return self.n_malware_alerts / self.n_accepted if self.n_accepted else 0.0

    @property
    def mean_entropy(self) -> float:
        """Lifetime mean predictive entropy."""
        return self.stats.mean_entropy

    @property
    def recent_entropy(self) -> float:
        """Mean entropy over the ring-buffered recent windows."""
        return self.entropy_recent.mean()

    def snapshot(self) -> dict:
        """Plain-data state for checkpointing (counters + entropy ring)."""
        return {
            "device_id": self.device_id,
            "cohort": self.cohort,
            "stats": self.stats.snapshot(),
            "last_step": self.last_step,
            "entropy_recent": self.entropy_recent.snapshot(),
        }

    @classmethod
    def restore(cls, state: dict) -> "DeviceState":
        """Rebuild a device record from :meth:`snapshot` output."""
        return cls(
            device_id=state["device_id"],
            cohort=state["cohort"],
            stats=MonitorStats.restore(state["stats"]),
            last_step=int(state["last_step"]),
            entropy_recent=RingBuffer.restore(state["entropy_recent"]),
        )
