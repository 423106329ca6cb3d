"""Live fleet retraining: forensic queue → triage → label → warm refit.

The paper's operational story (intro, S12) is monitor → flag → label →
**retrain**.  PR 1–2 made the monitor/flag half fleet-scale;
:class:`FleetRetrainer` closes the other half *inside* the fleet
engine: between batches it triages the shared forensic queue into
candidate novel-workload clusters
(:func:`~repro.uncertainty.online.triage_queue`), asks an analyst
labeler for **one label per cluster**, drains the queue and hands the
labelled rows to a :class:`~repro.uncertainty.online.RetrainingLoop`.
With a histogram-grown ensemble the refit is warm
(:meth:`TrustedHMD.partial_refit` — fixed scaler/PCA/bin edges, member
regrowth from the binned buffer, flat backend recompiled), cheap enough
to run live between inference batches.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..uncertainty.online import RetrainingLoop, TriageCluster, triage_queue
from .engine import FleetMonitor

__all__ = ["FleetRetrainer", "RetrainOutcome"]


@dataclass(frozen=True)
class RetrainOutcome:
    """What one :meth:`FleetRetrainer.step` did."""

    n_labelled: int        # flagged windows labelled and incorporated
    n_clusters: int        # triage clusters presented to the analyst
    retrained: bool        # did the HMD refit in this step
    n_retrains: int        # lifetime refit count of the loop

    def __bool__(self) -> bool:
        return self.retrained


class FleetRetrainer:
    """Drain the fleet's forensic queue into live model refits.

    Parameters
    ----------
    monitor:
        The running :class:`FleetMonitor`, whose ``forensics`` queue is
        the triage stream of its one device table and whose next round
        republishes the warm-refitted HMD's verdict parts (recompiled
        once, at the next ``process_batch``).  Its ``forensics`` queue
        and its ``hmd`` are the retrainer's inputs and outputs.
    labeler:
        Analyst oracle: ``labeler(cluster) -> label`` called once per
        :class:`~repro.uncertainty.online.TriageCluster` — the paper's
        "specialist labels the flagged workload group" step.
    X_train / y_train:
        The training set the fleet HMD was originally fitted on.
    min_batch:
        Labelled samples that must accumulate before a refit triggers
        (forwarded to the :class:`RetrainingLoop`).
    n_clusters / random_state:
        Triage clustering controls (see :func:`triage_queue`).
    """

    def __init__(
        self,
        monitor: FleetMonitor,
        labeler: Callable[[TriageCluster], object],
        X_train,
        y_train,
        *,
        min_batch: int = 32,
        n_clusters: int | None = None,
        random_state: int | np.random.Generator | None = 0,
    ):
        self.monitor = monitor
        self.labeler = labeler
        self.loop = RetrainingLoop(
            monitor.hmd, X_train, y_train, min_batch=min_batch
        )
        self.n_clusters = n_clusters
        self.random_state = random_state
        self.n_steps = 0
        # Instruments land in the monitor's registry (no-op when its
        # telemetry is off), so retrain activity shows up in the same
        # snapshot as the inference path it interleaves with.
        metrics = monitor.metrics
        self._m_steps = metrics.counter(
            "fleet_retrain_steps_total", "analyst triage cycles"
        )
        self._m_labelled = metrics.counter(
            "fleet_retrain_windows_labelled_total",
            "flagged windows labelled and incorporated",
        )
        self._m_refits = metrics.counter(
            "fleet_retrain_refits_total", "warm HMD refits triggered"
        )
        self._m_step_seconds = metrics.histogram(
            "fleet_retrain_step_seconds", "triage→label→refit cycle latency"
        )

    def triage(self) -> list[TriageCluster]:
        """Cluster the queued flagged windows for analyst review."""
        return triage_queue(
            self.monitor.forensics,
            n_clusters=self.n_clusters,
            random_state=self.random_state,
        )

    def step(self) -> RetrainOutcome:
        """One analyst cycle: triage → label per cluster → incorporate.

        Empties the forensic queue.  When the accumulated labelled rows
        reach ``min_batch`` the HMD refits (warm partial refit for
        histogram-grown ensembles) and the recompiled model serves the
        monitor's next batch — no restart, no handoff.
        """
        self.n_steps += 1
        self._m_steps.inc()
        queue = self.monitor.forensics
        if len(queue) == 0:
            return RetrainOutcome(0, 0, False, self.loop.n_retrains)
        t0 = time.perf_counter()
        clusters = self.triage()
        label_of: dict[int, object] = {}
        for cluster in clusters:
            label = self.labeler(cluster)
            for sample in cluster.samples:
                label_of[id(sample)] = label
        samples = queue.drain()
        labels = [label_of[id(sample)] for sample in samples]
        retrained = self.loop.incorporate(samples, labels)
        self._m_step_seconds.observe(time.perf_counter() - t0)
        self._m_labelled.inc(len(samples))
        if retrained:
            self._m_refits.inc()
        return RetrainOutcome(
            n_labelled=len(samples),
            n_clusters=len(clusters),
            retrained=retrained,
            n_retrains=self.loop.n_retrains,
        )

    def drain(self, max_batches: int | None = None) -> list[RetrainOutcome]:
        """Interleave inference and retraining until the queue empties.

        The full in-process cycle: ``process_batch`` (monitor → flag)
        then :meth:`step` (triage → label → retrain → recompile) after
        every batch, so verdicts later in the drain come from a model
        that already learned from earlier flags.
        """
        outcomes: list[RetrainOutcome] = []
        n_batches = 0
        while max_batches is None or n_batches < max_batches:
            result = self.monitor.process_batch()
            if result is None:
                break
            n_batches += 1
            outcomes.append(self.step())
        return outcomes
