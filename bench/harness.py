"""Measure one workload in this process.

The run has three parts:

1. **Set-up**, repeated ``SETUP_REPEATS`` times from scratch (dataset,
   simulation, fit, compile, monitor start, one warm-up pass); the
   kept build is the last one, and each earlier one is released before
   the next starts.  ``setup_s`` is the import time plus the median
   repetition, so one slow repetition does not move it.
2. **Timed segments**, tracing off: one closed-loop pass each (fixed
   work), repeated until ``seconds`` have passed; ``windows_per_s`` is
   their median rate.
3. **Traced segments** (``trace=True`` only): ``TRACED_SEGMENTS`` more
   segments with span wrappers installed on the monitor's methods,
   giving per-layer self time.

The end-to-end times are in *reference seconds*.  A shared host runs
the same code up to half again slower for seconds to minutes at a time,
so a fixed pure-Python loop (:func:`calibration_s`) is timed right after
every segment, and a wall time ``t`` counts as ``t * REFERENCE_S / c``
where ``c`` is the loop's time: that of the same segment for a segment,
and for set-up the median of ``SETUP_CALIBRATIONS`` loops before the
first repetition and after each one.  The loop is the benchmark's own
code, so a change to the program moves the reported times and a change
in host speed mostly does not.  The wall-clock values are reported too,
as ``wall.*`` per-layer metrics.

Every pass of the kept build is checked against ``TrustedHMD.analyze``
on the same rows: a window is *correct* only when its ``(device, seq)``
verdict — prediction, entropy and accept bit — is bitwise the oracle's.
The withheld shares are ``analyze`` on the reference pass, so they read
the same on every run and any change to them is a change of verdicts.
After the run the monitor's own accounting must balance (offered =
verdicted + shed + quarantined, nothing pending).
"""

from __future__ import annotations

import gc
import resource
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

from .spans import SpanRecorder

SETUP_REPEATS = 3
MIN_SEGMENTS = 5
TRACED_SEGMENTS = 8
CALIBRATION_LOOPS = 150_000
#: The calibration loop's time on the reference host: a wall time taken
#: while the loop runs this fast is reported unchanged.
REFERENCE_S = 0.010
SETUP_CALIBRATIONS = 3

#: Layers timed by the traced phase, named after the modules they sit in.
LAYERS = (
    "hmd.features",
    "ml.backend",
    "uncertainty.trust",
    "fleet.admit",
    "fleet.take",
    "fleet.scatter",
)


class Oracle:
    """``TrustedHMD.analyze`` on one pass's rows, keyed by (device, seq).

    Rows are analysed in ``batch_size`` chunks in submission order —
    the batches a FIFO monitor forms — so even a front whose GEMM could
    depend on batch shape is compared on the same rows it verdicted.
    """

    def __init__(self, fleet, rows, devices, batch_size: int):
        verdicts = [
            fleet.hmd.analyze(rows[start : start + batch_size])
            for start in range(0, len(rows), batch_size)
        ]
        self.ids = np.unique(devices)
        self.per_device = fleet.per_device
        local = np.empty(len(rows), dtype=np.int64)
        seen: dict[str, int] = {}
        for i, device_id in enumerate(devices):
            local[i] = seen.get(device_id, 0)
            seen[device_id] = local[i] + 1
        key = np.searchsorted(self.ids, devices) * self.per_device + local
        self.n = len(rows)
        self.predictions = np.empty(self.n, dtype=verdicts[0].predictions.dtype)
        self.entropy = np.empty(self.n)
        self.accepted = np.empty(self.n, dtype=bool)
        self.predictions[key] = np.concatenate([v.predictions for v in verdicts])
        self.entropy[key] = np.concatenate([v.entropy for v in verdicts])
        self.accepted[key] = np.concatenate([v.accepted for v in verdicts])
        cohorts = {device.device_id: device.cohort for device in fleet.devices}
        self.cohort = np.empty(self.n, dtype=object)
        self.cohort[key] = [cohorts[d] for d in devices]

    def withheld_share(self, cohorts) -> float:
        """Share of windows withheld among the given device cohorts."""
        mask = np.isin(self.cohort, cohorts)
        return float(np.count_nonzero(~self.accepted[mask]) / max(1, mask.sum()))

    def failures(self, results) -> int:
        """Windows of one pass that did not get the oracle's verdict."""
        if not results:
            return self.n
        ids = np.concatenate([r.device_ids for r in results]).astype(str)
        seqs = np.concatenate([r.seqs for r in results])
        index = np.minimum(np.searchsorted(self.ids, ids), len(self.ids) - 1)
        key = index * self.per_device + seqs % self.per_device
        ok = (
            (self.ids[index] == ids)
            & (np.concatenate([r.predictions for r in results]) == self.predictions[key])
            & (np.concatenate([r.entropy for r in results]) == self.entropy[key])
            & (np.concatenate([r.accepted for r in results]) == self.accepted[key])
        )
        return self.n - len(np.unique(key[ok]))


@dataclass
class Tally:
    """Windows attempted and failed, and accounting problems, per run."""

    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)


class Drive:
    """One monitor driven by closed-loop passes, checked as it goes."""

    def __init__(self, fleet, monitor, oracle: Oracle, tally: Tally):
        self.fleet, self.monitor, self.oracle, self.tally = fleet, monitor, oracle, tally
        self.offered = self.verdicted = self.batches = 0

    def record(self, out) -> None:
        """Score a pass against the oracle and count what was verdicted."""
        _admitted, results = out
        self.offered += self.oracle.n
        self.tally.attempted += self.oracle.n
        self.tally.failed += self.oracle.failures(results)
        self.verdicted += sum(len(r) for r in results)
        self.batches += len(results)

    def segment(self) -> tuple[float, float]:
        """One timed pass: its wall time and the calibration loop's after it."""
        start = time.perf_counter()
        out = self.fleet.run_pass(self.monitor)
        elapsed = time.perf_counter() - start
        calibration = calibration_s()
        self.record(out)
        return elapsed, calibration

    def audit(self):
        """offered = verdicted + shed + quarantined, nothing pending."""
        report = self.monitor.report()
        shed, quarantined = report.n_shed, report.n_quarantined
        if (
            self.offered != self.verdicted + shed + quarantined
            or report.n_pending
            or report.n_seen != self.verdicted
        ):
            self.tally.problems.append(
                f"accounting: offered {self.offered}, verdicted {self.verdicted} "
                f"(monitor saw {report.n_seen}), shed {shed}, "
                f"quarantined {quarantined}, pending {report.n_pending}"
            )
        return report


def calibration_s() -> float:
    """Wall time of a fixed pure-Python loop: how slow the host is now."""
    start = time.perf_counter()
    total = 0
    for i in range(CALIBRATION_LOOPS):
        total += i * i
    return time.perf_counter() - start


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _reference_rates(windows: int, segments) -> list[float]:
    """Windows per reference second of each ``(wall, calibration)`` segment."""
    return [windows / wall * calibration / REFERENCE_S for wall, calibration in segments]


def measure(name: str, *, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    """Run one workload; returns metrics, correctness and run facts."""
    start = time.perf_counter()
    from . import workloads  # imports numpy and the program: part of set-up

    import_s = time.perf_counter() - start
    size = workloads.SMOKE if smoke else workloads.FULL
    tally = Tally()
    metrics: dict[str, tuple[float, str]] = {}
    segments, missing, setups, phases = [], [], [], []
    calibrations = [calibration_s() for _ in range(SETUP_CALIBRATIONS)]
    for _ in range(SETUP_REPEATS):
        # Release the previous build before the next one starts, so
        # peak RSS measures one deployment, not two.
        fleet = monitor = warm = None
        gc.collect()
        phase = workloads.Phases()
        start = time.perf_counter()
        fleet = workloads.build(name, seed, size, phase)
        with phase("monitor"):
            monitor = fleet.new_monitor()
        with phase("warmup"):
            warm = fleet.run_pass(monitor)
        setups.append(time.perf_counter() - start)
        phases.append(phase.seconds)
        calibrations += [calibration_s() for _ in range(SETUP_CALIBRATIONS)]

    oracle = Oracle(fleet, *fleet.oracle_rows(), workloads.BATCH_SIZE)
    reference = Oracle(fleet, *fleet.reference_rows(), workloads.BATCH_SIZE)
    drive = Drive(fleet, monitor, oracle, tally)
    drive.record(warm)
    verdicted, batches = drive.verdicted, drive.batches
    gc.collect()  # set-up and oracle garbage is not the timed work's
    deadline = time.perf_counter() + seconds
    while len(segments) < MIN_SEGMENTS or time.perf_counter() < deadline:
        segments.append(drive.segment())
    verdicted, batches = drive.verdicted - verdicted, drive.batches - batches

    rates = _reference_rates(fleet.n_windows, segments)
    setup_s = import_s + statistics.median(setups)
    metrics["windows_per_s"] = (statistics.median(rates), "windows/s")
    metrics["setup_s"] = (setup_s * REFERENCE_S / statistics.median(calibrations), "s")
    metrics["withheld_known_share"] = (
        reference.withheld_share(["benign", "malware"]),
        "ratio",
    )
    metrics["withheld_zero_day_share"] = (reference.withheld_share(["zero_day"]), "ratio")
    q1, _, q3 = statistics.quantiles(rates, n=4)
    metrics["windows_per_s.q1"] = (q1, "windows/s")
    metrics["windows_per_s.q3"] = (q3, "windows/s")
    metrics["wall.windows_per_s"] = (
        statistics.median(fleet.n_windows / wall for wall, _ in segments),
        "windows/s",
    )
    metrics["wall.setup_s"] = (setup_s, "s")
    metrics["host.calibration_ms"] = (1e3 * statistics.median(c for _, c in segments), "ms")
    for key in workloads.SETUP_PHASES:
        metrics[f"setup.{key}_s"] = (statistics.median(p[key] for p in phases), "s")
    metrics["fleet.batch_fill"] = (verdicted / (batches * workloads.BATCH_SIZE), "ratio")
    metrics["fleet.batches_per_kwindow"] = (1000.0 * batches / verdicted, "count")
    if trace:
        missing = _traced(drive, metrics)
    drive.audit()
    metrics["peak_rss_mb"] = (_peak_rss_mb(), "MB")
    return {
        "workload": name,
        "seed": seed,
        "segments": segments,
        "setup_runs": setups,
        "setup_calibrations": calibrations,
        "correct": tally.failed == 0 and not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "problems": tally.problems,
        "missing_layers": missing,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def _traced(drive: Drive, metrics: dict) -> list:
    """Traced segments; fills the per-layer metrics, returns missing layers."""
    recorder = SpanRecorder()
    for layer, root, path in drive.fleet.hooks(drive.monitor):
        recorder.hook(layer, root, path)
    try:
        segments = [drive.segment() for _ in range(TRACED_SEGMENTS)]
    finally:
        recorder.remove()

    windows = drive.fleet.n_windows
    wall_ns = sum(wall for wall, _ in segments) * 1e9
    for layer in LAYERS:
        self_ns = recorder.self_ns.get(layer, 0)
        metrics[f"{layer}.ns_per_window"] = (self_ns / (windows * len(segments)), "ns")
        metrics[f"{layer}.share"] = (self_ns / wall_ns, "ratio")
    metrics["trace.remainder_share"] = (1.0 - recorder.covered_ns / wall_ns, "ratio")
    traced_rate = statistics.median(_reference_rates(windows, segments))
    metrics["trace.overhead_share"] = (
        1.0 - traced_rate / metrics["windows_per_s"][0],
        "ratio",
    )
    return recorder.missing
