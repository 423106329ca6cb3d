"""Window accounting for the fleet: the quarantine store and the audit.

A window the fleet refuses to verdict — today, one whose features hold
NaN or infinity — is never silently dropped: it moves into a bounded
forensic side-queue (:class:`QuarantineStore`), which keeps a lifetime
count and every quarantined key.  :func:`account_windows` is the
exactly-once audit over the three places an admitted window can end
up: a verdict, the quarantine, or the backpressure shed count.  This
module imports nothing from the rest of the fleet package.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["QuarantineStore", "QuarantinedWindow", "account_windows"]


@dataclass(frozen=True)
class QuarantinedWindow:
    """One window pulled out of the stream for forensics."""

    device_id: str
    seq: int
    features: np.ndarray
    reason: str


@dataclass
class QuarantineStore:
    """Bounded forensic side-queue of quarantined windows.

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
            "windows pulled into the quarantine store",
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
    is the count the backpressure policy dropped *by design*.  A shed
    window has its key, but the queue counts sheds per device and keeps
    no keys, so they are matched by count only (ROADMAP item 5 makes
    the audit exact).  Returns the keys silently lost (must be empty:
    ``len(submitted) == len(verdicts) + len(quarantined) + shed`` up to
    the shed count).
    """
    missing = sorted(set(submitted) - set(verdicts) - set(quarantined))
    if shed:
        # Shed windows never reach a verdict; they are accounted by
        # count.  Tolerate exactly `shed` unexplained keys.
        missing = missing[shed:] if len(missing) >= shed else []
    return missing
