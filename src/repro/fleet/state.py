"""Per-device monitoring state: read views of the fleet's device table.

The fleet monitor keeps each device's counters and recent-entropy ring
as columns of one table (``_DeviceTable`` in :mod:`repro.fleet.engine`,
whose verdict fold is the one place they change).  :class:`DeviceState`
— the single-device monitor's :class:`MonitorStats` plus a
:class:`RingBuffer` — is built from a table row on read.  The fleet
report ranks devices by the ring: a device whose entropy shifted
recently is a drift/zero-day candidate even if its lifetime mean looks
benign.
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
        self.extend([value])

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
        self._data[(self._head + np.arange(n)) % self._capacity] = values
        self._head = (self._head + n) % self._capacity
        self._size = min(self._size + n, self._capacity)

    def values(self) -> np.ndarray:
        """Retained values, oldest first."""
        if self._size < self._capacity:
            return self._data[: self._size].copy()
        return np.roll(self._data, -self._head).copy()

    def mean(self) -> float:
        """Mean of the retained values (0.0 when empty)."""
        return float(self._data[: self._size].mean()) if self._size else 0.0

    def snapshot(self) -> dict:
        """Plain-data state for checkpointing: raw storage, head and size.

        Not the logical ``values()``: re-pushing them would normalise the
        rotation and perturb the last bit of :meth:`mean`.
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
    """Running verdict statistics for one monitored device (a table-row view)."""

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
