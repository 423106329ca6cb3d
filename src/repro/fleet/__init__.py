"""Fleet-scale batched streaming inference (the scaling layer).

The paper's online loop screens one device.  This subpackage is the
central-monitor deployment of the same trusted HMD: many device
streams multiplexed through one bounded arena ingress queue
(:mod:`~repro.fleet.queueing`), one vectorised ensemble pass per round
through the published verdict parts (:mod:`~repro.fleet.engine`),
verdicts folded into one columnar device table on dense device
indices (read views in :mod:`~repro.fleet.state`) and aggregated into
dashboard snapshots (:mod:`~repro.fleet.report`).  The flagged
windows feed back into the model: :mod:`~repro.fleet.retrain` triages
the forensic queue, collects analyst labels and warm-refits the shared
HMD live between batches.  ``FleetMonitor.snapshot``/``restore``
checkpoint the whole fleet mid-stream.  A window with NaN or
infinite features is never verdicted: it moves into the monitor's
quarantine store, and :func:`account_windows` audits that every
admitted window is verdicted, quarantined or shed exactly once
(:mod:`~repro.fleet.resilience`).  See ``docs/architecture.md`` for
the dataflow and the backpressure policy.
"""

from .engine import (
    FleetBatchResult,
    FleetFlaggedSample,
    FleetMonitor,
    PublishedHmd,
    batched_verdicts_equal_sequential,
)
from .queueing import BackpressurePolicy, FleetQueue, WindowBatch
from .report import DeviceReport, FleetReport, device_report_key
from .resilience import QuarantineStore, QuarantinedWindow, account_windows
from .retrain import FleetRetrainer, RetrainOutcome
from .sampler import FleetWindowSampler
from .state import DeviceState, RingBuffer

__all__ = [
    "BackpressurePolicy",
    "DeviceReport",
    "DeviceState",
    "FleetBatchResult",
    "FleetFlaggedSample",
    "FleetMonitor",
    "FleetQueue",
    "FleetReport",
    "FleetRetrainer",
    "FleetWindowSampler",
    "PublishedHmd",
    "QuarantineStore",
    "QuarantinedWindow",
    "RetrainOutcome",
    "RingBuffer",
    "WindowBatch",
    "account_windows",
    "batched_verdicts_equal_sequential",
    "device_report_key",
]
