"""Dataset-shift detection from the online entropy stream.

Section II.B of the paper motivates uncertainty with *dataset shift*:
"the underlying probability distribution of the data may change over
time, resulting in a mismatch between the distribution of the training
data and the test data."  In deployment that shift shows up as a drift
of the predictive-entropy stream — e.g. a new OS version changes every
app's governor behaviour, or a malware campaign floods the device with
an unseen family.

Two detectors are provided:

* :class:`PageHinkleyDetector` — classic sequential change-point test
  on the running mean of a scalar stream;
* :class:`EntropyDriftMonitor` — wraps a detector around a calibrated
  reference (the entropy distribution observed on held-out known data)
  and classifies the regime as ``stable`` / ``warning`` / ``drift``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

__all__ = ["PageHinkleyDetector", "EntropyDriftMonitor", "DriftState"]


class PageHinkleyDetector:
    """Page-Hinkley test for an upward shift of a stream's mean.

    Parameters
    ----------
    delta:
        Magnitude tolerance: deviations below ``delta`` are ignored.
    threshold:
        Alarm threshold ``lambda`` on the cumulative statistic.
    alpha:
        Forgetting factor for the running mean (1.0 = plain mean).
    """

    def __init__(self, *, delta: float = 0.02, threshold: float = 2.0, alpha: float = 1.0):
        if delta < 0 or threshold <= 0 or not 0 < alpha <= 1:
            raise ValueError("Require delta >= 0, threshold > 0, 0 < alpha <= 1.")
        self.delta = delta
        self.threshold = threshold
        self.alpha = alpha
        self.reset()

    def reset(self) -> None:
        """Clear all state (after handling an alarm)."""
        self._mean = 0.0
        self._n = 0
        self._cumulative = 0.0
        self._minimum = 0.0
        self.drift_detected = False

    def update(self, value: float) -> bool:
        """Feed one observation; returns True when drift is signalled."""
        self._n += 1
        if self._n == 1:
            self._mean = float(value)
        else:
            self._mean = self._mean + self.alpha * (value - self._mean) / self._n
        self._cumulative += value - self._mean - self.delta
        self._minimum = min(self._minimum, self._cumulative)
        self.drift_detected = (self._cumulative - self._minimum) > self.threshold
        return self.drift_detected

    @property
    def statistic(self) -> float:
        """Current PH statistic (distance above the running minimum)."""
        return self._cumulative - self._minimum

    def snapshot(self) -> dict:
        """Plain-data parameters and running state for checkpointing."""
        return {name.lstrip("_"): value for name, value in vars(self).items()}

    @classmethod
    def restore(cls, state: dict) -> "PageHinkleyDetector":
        """Rebuild a detector from :meth:`snapshot` output."""
        detector = cls(
            delta=state["delta"], threshold=state["threshold"], alpha=state["alpha"]
        )
        vars(detector).update({name: state[name.lstrip("_")] for name in vars(detector)})
        return detector


@dataclass(frozen=True)
class DriftState:
    """Assessment of the current entropy regime."""

    status: str          # "stable" | "warning" | "drift"
    recent_mean: float   # mean entropy over the sliding window
    reference_mean: float
    ph_statistic: float

    @property
    def is_drifting(self) -> bool:
        """True when a full drift alarm is active."""
        return self.status == "drift"


class EntropyDriftMonitor:
    """Monitor an entropy stream for departures from a reference regime.

    Parameters
    ----------
    reference_entropy:
        Entropies observed on held-out *known* data at deployment time;
        defines the expected regime.
    window:
        Sliding-window length for the recent-mean estimate.
    warning_quantile:
        Recent mean above this quantile of the reference distribution
        raises a ``warning``.
    detector:
        Optional pre-configured :class:`PageHinkleyDetector`.
    """

    def __init__(
        self,
        reference_entropy,
        *,
        window: int = 50,
        warning_quantile: float = 0.9,
        detector: PageHinkleyDetector | None = None,
    ):
        reference = np.asarray(reference_entropy, dtype=float)
        if reference.size < 5:
            raise ValueError("Need at least 5 reference entropies.")
        if window < 2:
            raise ValueError("window must be >= 2.")
        if not 0.5 < warning_quantile < 1.0:
            raise ValueError("warning_quantile must be in (0.5, 1).")
        self.reference_mean = float(reference.mean())
        self.warning_level = float(np.quantile(reference, warning_quantile))
        self.window = window
        self._buffer: deque[float] = deque(maxlen=window)
        if detector is None:
            # Default PH parameters scale with the reference spread so a
            # stream drawn from the reference regime itself does not trip
            # the alarm.
            spread = max(float(reference.std()), 1e-3)
            detector = PageHinkleyDetector(
                delta=0.5 * spread, threshold=max(1.0, 25.0 * spread)
            )
        self.detector = detector
        # Seed the PH test with the reference regime so its running
        # mean starts where deployment starts.
        for value in reference:
            self.detector.update(float(value))
        self.detector.drift_detected = False
        self.n_observed = 0

    def observe(self, entropy) -> DriftState:
        """Feed a batch (or scalar) of entropies; assess the regime."""
        values = np.atleast_1d(np.asarray(entropy, dtype=float))
        drift = False
        for value in values:
            self._buffer.append(float(value))
            drift = self.detector.update(float(value)) or drift
            self.n_observed += 1

        recent_mean = float(np.mean(self._buffer)) if self._buffer else 0.0
        if drift or self.detector.drift_detected:
            status = "drift"
        elif recent_mean > self.warning_level and len(self._buffer) >= self.window // 2:
            status = "warning"
        else:
            status = "stable"
        return DriftState(
            status=status,
            recent_mean=recent_mean,
            reference_mean=self.reference_mean,
            ph_statistic=self.detector.statistic,
        )

    def snapshot(self) -> dict:
        """Plain-data state for checkpointing (the detector's included)."""
        state = {name.lstrip("_"): value for name, value in vars(self).items()}
        return state | {"buffer": list(self._buffer), "detector": self.detector.snapshot()}

    @classmethod
    def restore(cls, state: dict) -> "EntropyDriftMonitor":
        """Rebuild a monitor from :meth:`snapshot` output, mid-stream."""
        monitor = cls.__new__(cls)
        for name in ("reference_mean", "warning_level", "window", "n_observed"):
            setattr(monitor, name, state[name])
        monitor._buffer = deque(state["buffer"], maxlen=monitor.window)
        monitor.detector = PageHinkleyDetector.restore(state["detector"])
        return monitor

    def reset(self) -> None:
        """Clear the sliding window and the PH statistic."""
        self._buffer.clear()
        self.detector.reset()
        self.n_observed = 0
