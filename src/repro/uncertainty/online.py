"""Online uncertainty-aware malware monitoring (S12).

The paper's title promises *online* uncertainty estimation, and its
introduction sketches the operational loop: uncertain predictions are
withheld, forensic data is collected, a security specialist labels the
flagged workloads, and the model is retrained on the new class of
malware.  This module implements that loop:

* :class:`ForensicQueue` — bounded queue of withheld signatures with
  analyst labelling hooks;
* :class:`OnlineMonitor` — streams signature windows through a
  :class:`TrustedHMD`, maintaining detection statistics and feeding the
  queue;
* :class:`RetrainingLoop` — drains analyst-labelled signatures into the
  training set and refits, demonstrating the uncertainty drop on
  previously-unknown workloads.
"""

from __future__ import annotations

from collections import deque
from dataclasses import asdict, dataclass, field

import numpy as np

from .trust import TrustedHMD, TrustedVerdict

__all__ = ["ForensicQueue", "FlaggedSample", "OnlineMonitor", "MonitorStats", "RetrainingLoop", "TriageCluster", "triage_queue"]


@dataclass(frozen=True)
class FlaggedSample:
    """One signature withheld by the trusted HMD."""

    features: np.ndarray
    prediction: int
    entropy: float
    step: int


class ForensicQueue:
    """Bounded FIFO of flagged signatures awaiting analyst review."""

    def __init__(self, maxlen: int = 10_000):
        if maxlen < 1:
            raise ValueError("maxlen must be >= 1.")
        self._queue: deque[FlaggedSample] = deque(maxlen=maxlen)
        self.total_flagged = 0

    def push(self, sample: FlaggedSample) -> None:
        """Add a flagged signature (oldest dropped when full)."""
        self._queue.append(sample)
        self.total_flagged += 1

    def push_many(self, samples) -> int:
        """Bulk-append flagged signatures in one call.

        Accepts any iterable of :class:`FlaggedSample`; the bounded
        deque sheds its oldest entries when full, exactly as repeated
        :meth:`push` calls would.  Returns how many were appended.
        """
        samples = list(samples)
        self._queue.extend(samples)
        self.total_flagged += len(samples)
        return len(samples)

    def __len__(self) -> int:
        return len(self._queue)

    def drain(self, n: int | None = None) -> list[FlaggedSample]:
        """Remove and return up to ``n`` samples (all by default)."""
        if n is None:
            n = len(self._queue)
        drained = []
        for _ in range(min(n, len(self._queue))):
            drained.append(self._queue.popleft())
        return drained

    def snapshot(self) -> tuple[FlaggedSample, ...]:
        """The currently queued samples, oldest first (no removal).

        The public read view for analyst tooling (triage clustering,
        dashboards) — callers never touch the underlying deque.  Also
        the checkpoint format: :meth:`restore` rebuilds a queue from
        this tuple.
        """
        return tuple(self._queue)

    @property
    def maxlen(self) -> int:
        """Capacity bound of the queue."""
        return self._queue.maxlen

    @classmethod
    def restore(
        cls,
        samples,
        *,
        maxlen: int = 10_000,
        total_flagged: int | None = None,
    ) -> "ForensicQueue":
        """Rebuild a queue from a :meth:`snapshot` tuple.

        ``total_flagged`` restores the lifetime counter; when omitted it
        is seeded from the backlog length (a fresh queue that happens to
        hold these samples).
        """
        queue = cls(maxlen=maxlen)
        samples = list(samples)
        queue._queue.extend(samples)
        queue.total_flagged = (
            len(samples) if total_flagged is None else int(total_flagged)
        )
        return queue

    def peek_entropies(self) -> np.ndarray:
        """Entropies of currently queued samples (no removal)."""
        return np.array([s.entropy for s in self._queue])


@dataclass
class MonitorStats:
    """Running counters of the online monitor."""

    n_seen: int = 0
    n_accepted: int = 0
    n_flagged: int = 0
    n_malware_alerts: int = 0
    entropy_sum: float = 0.0

    @property
    def rejection_rate(self) -> float:
        """Fraction of seen windows flagged as uncertain."""
        return self.n_flagged / self.n_seen if self.n_seen else 0.0

    @property
    def mean_entropy(self) -> float:
        """Mean predictive entropy over all seen windows."""
        return self.entropy_sum / self.n_seen if self.n_seen else 0.0

    def record_verdicts(
        self,
        predictions: np.ndarray,
        entropy: np.ndarray,
        accepted: np.ndarray,
    ) -> None:
        """Bulk-fold one batch of verdicts into the counters.

        The single definition of how verdicts become statistics, shared
        by :class:`OnlineMonitor` and :class:`repro.fleet.FleetMonitor`
        so the two can never drift apart.
        """
        n = len(predictions)
        n_accepted = int(np.count_nonzero(accepted))
        self.n_seen += n
        self.n_accepted += n_accepted
        self.n_flagged += n - n_accepted
        self.n_malware_alerts += int(
            np.count_nonzero(accepted & (predictions == 1))
        )
        self.entropy_sum += float(np.sum(entropy))

    def snapshot(self) -> dict:
        """Plain-data counter state for checkpointing."""
        return asdict(self)

    @classmethod
    def restore(cls, state: dict) -> "MonitorStats":
        """Rebuild counters from :meth:`snapshot` output."""
        return cls(**state)


class OnlineMonitor:
    """Stream signatures through a trusted HMD with forensic capture.

    Parameters
    ----------
    hmd:
        A *fitted* :class:`TrustedHMD`.
    queue:
        Forensic queue receiving the withheld signatures.
    """

    def __init__(self, hmd: TrustedHMD, *, queue: ForensicQueue | None = None):
        if not hasattr(hmd, "estimator_"):
            raise ValueError("hmd must be fitted before monitoring.")
        self.hmd = hmd
        compile_hmd = getattr(hmd, "compile", None)
        if callable(compile_hmd):
            # Warm the flattened vote backend before live traffic.
            compile_hmd()
        self.queue = queue if queue is not None else ForensicQueue()
        self.stats = MonitorStats()
        self._step = 0

    def observe(self, X) -> TrustedVerdict:
        """Process a batch of signature windows.

        Accepted malware predictions raise alerts (counted in stats);
        uncertain windows go to the forensic queue.
        """
        X = np.atleast_2d(np.asarray(X, dtype=float))
        verdict = self.hmd.analyze(X)
        return self.ingest_verdict(X, verdict)

    def ingest_verdict(self, X, verdict: TrustedVerdict) -> TrustedVerdict:
        """Fold an already-computed verdict into stats and the queue.

        Counter updates are bulk numpy reductions; only the (typically
        few) flagged windows are materialised as Python objects.
        """
        X = np.atleast_2d(np.asarray(X, dtype=float))
        n = len(verdict.predictions)
        if len(X) != n:
            raise ValueError(
                f"X has {len(X)} windows but the verdict covers {n}."
            )
        base_step = self._step
        self._step += n
        # dtype=bool: ~ on an int 0/1 mask would invert bitwise, not logically.
        accepted = np.asarray(verdict.accepted, dtype=bool)
        self.stats.record_verdicts(verdict.predictions, verdict.entropy, accepted)
        for i in np.flatnonzero(~accepted):
            self.queue.push(
                FlaggedSample(
                    features=X[i].copy(),
                    prediction=int(verdict.predictions[i]),
                    entropy=float(verdict.entropy[i]),
                    step=base_step + int(i) + 1,
                )
            )
        return verdict


class RetrainingLoop:
    """Close the loop: analyst labels flagged samples → model refits.

    Incorporated batches accumulate in a **list buffer** and are
    stacked once per refit — repeated small analyst batches stay
    ``O(batch)`` per call instead of the old quadratic
    re-``vstack``-everything-every-call behaviour.

    When the HMD supports warm partial refits
    (:meth:`TrustedHMD.supports_partial_refit` — ensembles fitted with
    the histogram grower), a retrain hands only the *pending* labelled
    rows to :meth:`TrustedHMD.partial_refit`: scaler, PCA and bin edges
    stay fixed, members regrow from the binned buffer, and the flat
    prediction backend is recompiled.  Otherwise the loop falls back to
    a full ``hmd.fit`` on the stacked training set.

    Parameters
    ----------
    hmd:
        Fitted :class:`TrustedHMD` to be refreshed.
    X_train / y_train:
        The current training set; retraining appends analyst-labelled
        forensic samples to it.
    min_batch:
        Minimum number of *accumulated* labelled samples required to
        trigger a refit.
    """

    def __init__(self, hmd: TrustedHMD, X_train, y_train, *, min_batch: int = 20):
        if min_batch < 1:
            raise ValueError("min_batch must be >= 1.")
        self.hmd = hmd
        self._X_blocks: list[np.ndarray] = [np.asarray(X_train, dtype=float)]
        self._y_blocks: list[np.ndarray] = [np.asarray(y_train)]
        self._pending_X: list[np.ndarray] = []
        self._pending_y: list[np.ndarray] = []
        self.min_batch = min_batch
        self.n_retrains = 0

    @property
    def X_train(self) -> np.ndarray:
        """The full training matrix (stacked lazily, at most once)."""
        if len(self._X_blocks) > 1:
            self._X_blocks = [np.vstack(self._X_blocks)]
        return self._X_blocks[0]

    @property
    def y_train(self) -> np.ndarray:
        """The full label vector (stacked lazily, at most once)."""
        if len(self._y_blocks) > 1:
            self._y_blocks = [np.concatenate(self._y_blocks)]
        return self._y_blocks[0]

    @property
    def n_pending(self) -> int:
        """Labelled samples accumulated since the last refit."""
        return sum(len(block) for block in self._pending_X)

    def incorporate(self, samples: list[FlaggedSample], labels) -> bool:
        """Add analyst-labelled samples; refit when enough accumulated.

        Parameters
        ----------
        samples:
            Flagged samples drained from the forensic queue.
        labels:
            Ground-truth labels supplied by the analyst (same order).

        Returns
        -------
        True when a retrain occurred.
        """
        labels = np.asarray(labels)
        if len(samples) != len(labels):
            raise ValueError("samples and labels lengths differ.")
        if len(samples) == 0:
            return False
        X_new = np.stack([s.features for s in samples])
        self._X_blocks.append(X_new)
        self._y_blocks.append(labels)
        self._pending_X.append(X_new)
        self._pending_y.append(labels)
        if self.n_pending < self.min_batch:
            return False
        self.retrain()
        return True

    def retrain(self) -> None:
        """Refit the HMD on everything incorporated so far.

        Warm path when available (only the pending rows travel),
        full-refit fallback otherwise.
        """
        supports = getattr(self.hmd, "supports_partial_refit", None)
        if self._pending_X and callable(supports) and supports():
            self.hmd.partial_refit(
                np.vstack(self._pending_X), np.concatenate(self._pending_y)
            )
        else:
            self.hmd.fit(self.X_train, self.y_train)
        self._pending_X = []
        self._pending_y = []
        self.n_retrains += 1


@dataclass(frozen=True)
class TriageCluster:
    """One group of flagged signatures proposed to the analyst."""

    samples: tuple[FlaggedSample, ...]
    centroid: np.ndarray
    mean_entropy: float
    majority_prediction: int

    @property
    def size(self) -> int:
        """Number of flagged signatures in the cluster."""
        return len(self.samples)


def triage_queue(
    queue: ForensicQueue,
    *,
    n_clusters: int | None = None,
    random_state: int | np.random.Generator | None = 0,
) -> list[TriageCluster]:
    """Group the forensic queue into candidate novel-workload clusters.

    Instead of presenting thousands of flagged windows one by one, the
    queue is k-means-clustered in feature space; each cluster is a
    candidate *new application or malware family* the analyst labels
    once.  The queue itself is not modified (drain it after labelling).

    Parameters
    ----------
    queue:
        The forensic queue to triage.
    n_clusters:
        Number of groups; default ``max(1, round(sqrt(n / 2)))``.
    random_state:
        Seed for the clustering.
    """
    from ..ml.cluster import KMeans

    samples = list(queue.snapshot())
    if not samples:
        return []
    X = np.stack([s.features for s in samples])
    n = len(samples)
    if n_clusters is None:
        n_clusters = max(1, int(round(np.sqrt(n / 2.0))))
    n_clusters = min(n_clusters, n)

    model = KMeans(n_clusters=n_clusters, random_state=random_state).fit(X)
    clusters: list[TriageCluster] = []
    for k in range(n_clusters):
        members = [s for s, label in zip(samples, model.labels_) if label == k]
        if not members:
            continue
        entropies = np.array([s.entropy for s in members])
        predictions = np.array([s.prediction for s in members])
        counts = np.bincount(predictions, minlength=2)
        clusters.append(
            TriageCluster(
                samples=tuple(members),
                centroid=model.cluster_centers_[k],
                mean_entropy=float(entropies.mean()),
                majority_prediction=int(np.argmax(counts)),
            )
        )
    clusters.sort(key=lambda c: -c.size)
    return clusters
