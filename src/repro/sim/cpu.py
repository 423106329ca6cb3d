"""CPU microarchitecture counter substrate (S8).

The HPC-based HMD of Zhou et al. samples hardware performance counters
(instructions, branch misses, cache misses, ...) at fixed intervals
while workloads run.  This module reproduces that signal with an
analytic microarchitecture model:

* **pipeline**: cycles follow utilisation × frequency; instructions
  follow cycles / CPI, where CPI accumulates stall penalties;
* **branch predictor**: per-branch misprediction probability grows with
  the workload's branch-outcome entropy;
* **cache hierarchy**: L1/L2/LLC miss ratios follow a saturating
  working-set curve (a smooth stand-in for stack-distance profiles);
* **TLB / OS events**: TLB misses track working-set reach; page faults
  and context switches track I/O intensity and multiprogramming.

Measurement realism — counter multiplexing noise, background-process
interference and per-interval jitter — is modelled explicitly because it
is the mechanism behind the paper's central HPC finding: *benign and
malware workloads overlap in counter space* (Fig. 8b), making the HPC
dataset high in data (aleatoric) uncertainty.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..ml.validation import check_random_state
from .batch import ActivityBatch, HpcBatch
from .trace import ActivityTrace, HpcTrace

__all__ = ["CpuConfig", "HpcSimulator", "HPC_COUNTERS", "DEFAULT_CPU"]

# Counter columns emitted by the simulator, matching the style of the
# `perf stat` event list used by Zhou et al.
HPC_COUNTERS = (
    "instructions",
    "cycles",
    "branch_instructions",
    "branch_misses",
    "l1d_accesses",
    "l1d_misses",
    "l2_misses",
    "llc_misses",
    "dtlb_misses",
    "itlb_misses",
    "page_faults",
    "context_switches",
    "loads",
    "stores",
    "stalled_cycles_frontend",
    "stalled_cycles_backend",
)


@dataclass(frozen=True)
class CpuConfig:
    """Parameters of the analytic CPU model.

    Sizes are in KiB; penalties in cycles; ``freq_ghz`` is the fixed
    core frequency of the measurement platform (the HPC testbed pins the
    governor to ``performance``, unlike the DVFS substrate).
    """

    freq_ghz: float = 3.0
    base_cpi: float = 0.45
    l1d_size_kib: float = 32.0
    l2_size_kib: float = 512.0
    llc_size_kib: float = 8192.0
    l1_penalty: float = 10.0
    l2_penalty: float = 35.0
    llc_penalty: float = 180.0
    branch_penalty: float = 16.0
    branch_mispredict_floor: float = 0.002
    branch_mispredict_slope: float = 0.08
    dtlb_reach_kib: float = 2048.0
    measurement_noise: float = 0.18
    interference_scale: float = 0.25

    def __post_init__(self) -> None:
        if self.freq_ghz <= 0:
            raise ValueError(f"freq_ghz must be positive; got {self.freq_ghz}.")
        if self.base_cpi <= 0:
            raise ValueError(f"base_cpi must be positive; got {self.base_cpi}.")
        if not (0 < self.l1d_size_kib < self.l2_size_kib < self.llc_size_kib):
            raise ValueError("Cache sizes must be ascending and positive.")


DEFAULT_CPU = CpuConfig()


def _miss_ratio(working_set_kib: np.ndarray, cache_size_kib: float, *, sharpness: float = 1.4) -> np.ndarray:
    """Saturating miss-ratio curve of working set vs. cache capacity.

    Behaves like ``(ws / (ws + size))^sharpness``: ≈0 while the working
    set fits, rising smoothly toward 1 once it spills — a standard
    analytic approximation of stack-distance cache behaviour.
    """
    ratio = working_set_kib / (working_set_kib + cache_size_kib)
    return ratio**sharpness


class HpcSimulator:
    """Maps an :class:`ActivityTrace` to per-interval counter samples.

    Parameters
    ----------
    config:
        CPU model parameters.
    dt:
        Counter sampling interval in seconds (distinct from the activity
        trace step; the activity trace is resampled onto this grid).
    random_state:
        Seed / generator for measurement noise.
    """

    def __init__(
        self,
        config: CpuConfig = DEFAULT_CPU,
        *,
        dt: float = 0.1,
        random_state: int | np.random.Generator | None = None,
    ):
        if dt <= 0:
            raise ValueError(f"dt must be positive; got {dt}.")
        self.config = config
        self.dt = dt
        self.rng = check_random_state(random_state)

    def _resample(self, series: np.ndarray, n_intervals: int, steps_per_interval: float) -> np.ndarray:
        """Average an activity series onto the counter sampling grid."""
        idx = (np.arange(n_intervals + 1) * steps_per_interval).astype(int)
        idx = np.minimum(idx, len(series))
        sums = np.concatenate([[0.0], np.cumsum(series, dtype=float)])
        widths = np.maximum(idx[1:] - idx[:-1], 1)
        return (sums[idx[1:]] - sums[idx[:-1]]) / widths

    def run(self, activity: ActivityTrace) -> HpcTrace:
        """Simulate counter sampling for the full activity trace."""
        cfg = self.config
        rng = self.rng
        steps_per_interval = self.dt / activity.dt
        n_intervals = max(int(round(activity.n_steps * activity.dt / self.dt)), 1)

        util = self._resample(activity.cpu_demand, n_intervals, steps_per_interval)
        ws = self._resample(activity.working_set_kib, n_intervals, steps_per_interval)
        be = self._resample(activity.branch_entropy, n_intervals, steps_per_interval)
        io = self._resample(activity.io_rate, n_intervals, steps_per_interval)
        mix = np.stack(
            [
                self._resample(activity.instr_mix[:, k], n_intervals, steps_per_interval)
                for k in range(activity.instr_mix.shape[1])
            ],
            axis=1,
        )  # columns: alu, branch, load, store

        branch_frac = mix[:, 1]
        load_frac = mix[:, 2]
        store_frac = mix[:, 3]

        # --- microarchitectural rates -----------------------------------
        mispredict_rate = np.clip(
            cfg.branch_mispredict_floor + cfg.branch_mispredict_slope * be**1.5,
            0.0,
            0.5,
        )
        l1_miss_ratio = _miss_ratio(ws, cfg.l1d_size_kib)
        l2_miss_ratio = _miss_ratio(ws, cfg.l2_size_kib)
        llc_miss_ratio = _miss_ratio(ws, cfg.llc_size_kib, sharpness=1.8)
        dtlb_miss_ratio = 0.002 + 0.03 * _miss_ratio(ws, cfg.dtlb_reach_kib)

        mem_frac = load_frac + store_frac
        # Per-instruction stall contributions compose the CPI.
        branch_stalls = branch_frac * mispredict_rate * cfg.branch_penalty
        l1_stalls = mem_frac * l1_miss_ratio * (1.0 - l2_miss_ratio) * cfg.l1_penalty
        l2_stalls = mem_frac * l1_miss_ratio * l2_miss_ratio * (1.0 - llc_miss_ratio) * cfg.l2_penalty
        llc_stalls = mem_frac * l1_miss_ratio * l2_miss_ratio * llc_miss_ratio * cfg.llc_penalty
        cpi = cfg.base_cpi + branch_stalls + l1_stalls + l2_stalls + llc_stalls

        # --- absolute counts per interval -------------------------------
        cycles = util * cfg.freq_ghz * 1e9 * self.dt
        instructions = cycles / cpi

        branch_instructions = instructions * branch_frac
        branch_misses = branch_instructions * mispredict_rate
        loads = instructions * load_frac
        stores = instructions * store_frac
        l1d_accesses = loads + stores
        l1d_misses = l1d_accesses * l1_miss_ratio
        l2_misses = l1d_misses * l2_miss_ratio
        llc_misses = l2_misses * llc_miss_ratio
        dtlb_misses = l1d_accesses * dtlb_miss_ratio
        itlb_misses = instructions * 2e-5 * (1.0 + 4.0 * io)
        page_faults = (40.0 + 1500.0 * io) * self.dt * (0.5 + util)
        context_switches = (80.0 + 900.0 * io) * self.dt * (0.5 + 0.8 * util)
        stalled_frontend = cycles * np.clip(
            0.05 + branch_stalls / np.maximum(cpi, 1e-9), 0.0, 0.9
        )
        stalled_backend = cycles * np.clip(
            0.05 + (l1_stalls + l2_stalls + llc_stalls) / np.maximum(cpi, 1e-9),
            0.0,
            0.9,
        )

        counters = np.column_stack(
            [
                instructions,
                cycles,
                branch_instructions,
                branch_misses,
                l1d_accesses,
                l1d_misses,
                l2_misses,
                llc_misses,
                dtlb_misses,
                itlb_misses,
                page_faults,
                context_switches,
                loads,
                stores,
                stalled_frontend,
                stalled_backend,
            ]
        )

        # --- measurement realism -----------------------------------------
        # Counter multiplexing and background processes add heavy noise;
        # interference is correlated across counters within an interval.
        interference = 1.0 + cfg.interference_scale * np.abs(
            rng.normal(size=(n_intervals, 1))
        )
        multiplexing = rng.lognormal(
            mean=0.0, sigma=cfg.measurement_noise, size=counters.shape
        )
        counters = counters * interference * multiplexing
        np.maximum(counters, 0.0, out=counters)

        return HpcTrace(
            counters=counters,
            counter_names=HPC_COUNTERS,
            dt=self.dt,
            name=activity.name,
        )

    def _resample_batch(
        self, series: np.ndarray, n_intervals: int, steps_per_interval: float
    ) -> np.ndarray:
        """Batched :meth:`_resample` over the leading window axis.

        ``series`` is ``(n_windows, n_steps)`` or ``(n_windows,
        n_steps, k)``; the cumulative sum runs along the step axis, so
        every window reproduces the 1-d prefix-sum order bitwise.
        """
        n_steps = series.shape[1]
        idx = (np.arange(n_intervals + 1) * steps_per_interval).astype(int)
        idx = np.minimum(idx, n_steps)
        zeros = np.zeros((series.shape[0], 1) + series.shape[2:])
        sums = np.concatenate(
            [zeros, np.cumsum(series, axis=1, dtype=float)], axis=1
        )
        widths = np.maximum(idx[1:] - idx[:-1], 1)
        if series.ndim == 3:
            widths = widths[:, None]
        return (sums[:, idx[1:]] - sums[:, idx[:-1]]) / widths

    def run_batch(self, batch: ActivityBatch) -> HpcBatch:
        """Whole-tensor counter synthesis for a stack of activity windows.

        Bitwise identical to calling :meth:`run` on ``batch.window(i)``
        for ``i = 0, 1, ...`` with the same generator: the measurement
        noise is drawn window-by-window in the reference order, while
        the resampling and microarchitectural rate math run once over
        the full ``(n_windows, n_intervals)`` tensor — every operation
        is elementwise (or a per-window prefix sum), so no reduction
        order changes.
        """
        cfg = self.config
        rng = self.rng
        n_windows, n_steps = batch.n_windows, batch.n_steps
        steps_per_interval = self.dt / batch.dt
        n_intervals = max(int(round(n_steps * batch.dt / self.dt)), 1)

        util = self._resample_batch(batch.cpu_demand, n_intervals, steps_per_interval)
        ws = self._resample_batch(batch.working_set_kib, n_intervals, steps_per_interval)
        be = self._resample_batch(batch.branch_entropy, n_intervals, steps_per_interval)
        io = self._resample_batch(batch.io_rate, n_intervals, steps_per_interval)
        mix = self._resample_batch(batch.instr_mix, n_intervals, steps_per_interval)

        branch_frac = mix[..., 1]
        load_frac = mix[..., 2]
        store_frac = mix[..., 3]

        # --- microarchitectural rates (identical formulas, leading
        # window axis) ----------------------------------------------------
        mispredict_rate = np.clip(
            cfg.branch_mispredict_floor + cfg.branch_mispredict_slope * be**1.5,
            0.0,
            0.5,
        )
        l1_miss_ratio = _miss_ratio(ws, cfg.l1d_size_kib)
        l2_miss_ratio = _miss_ratio(ws, cfg.l2_size_kib)
        llc_miss_ratio = _miss_ratio(ws, cfg.llc_size_kib, sharpness=1.8)
        dtlb_miss_ratio = 0.002 + 0.03 * _miss_ratio(ws, cfg.dtlb_reach_kib)

        mem_frac = load_frac + store_frac
        branch_stalls = branch_frac * mispredict_rate * cfg.branch_penalty
        l1_stalls = mem_frac * l1_miss_ratio * (1.0 - l2_miss_ratio) * cfg.l1_penalty
        l2_stalls = mem_frac * l1_miss_ratio * l2_miss_ratio * (1.0 - llc_miss_ratio) * cfg.l2_penalty
        llc_stalls = mem_frac * l1_miss_ratio * l2_miss_ratio * llc_miss_ratio * cfg.llc_penalty
        cpi = cfg.base_cpi + branch_stalls + l1_stalls + l2_stalls + llc_stalls

        # --- absolute counts per interval -------------------------------
        cycles = util * cfg.freq_ghz * 1e9 * self.dt
        instructions = cycles / cpi

        branch_instructions = instructions * branch_frac
        branch_misses = branch_instructions * mispredict_rate
        loads = instructions * load_frac
        stores = instructions * store_frac
        l1d_accesses = loads + stores
        l1d_misses = l1d_accesses * l1_miss_ratio
        l2_misses = l1d_misses * l2_miss_ratio
        llc_misses = l2_misses * llc_miss_ratio
        dtlb_misses = l1d_accesses * dtlb_miss_ratio
        itlb_misses = instructions * 2e-5 * (1.0 + 4.0 * io)
        page_faults = (40.0 + 1500.0 * io) * self.dt * (0.5 + util)
        context_switches = (80.0 + 900.0 * io) * self.dt * (0.5 + 0.8 * util)
        stalled_frontend = cycles * np.clip(
            0.05 + branch_stalls / np.maximum(cpi, 1e-9), 0.0, 0.9
        )
        stalled_backend = cycles * np.clip(
            0.05 + (l1_stalls + l2_stalls + llc_stalls) / np.maximum(cpi, 1e-9),
            0.0,
            0.9,
        )

        counters = np.stack(
            [
                instructions,
                cycles,
                branch_instructions,
                branch_misses,
                l1d_accesses,
                l1d_misses,
                l2_misses,
                llc_misses,
                dtlb_misses,
                itlb_misses,
                page_faults,
                context_switches,
                loads,
                stores,
                stalled_frontend,
                stalled_backend,
            ],
            axis=2,
        )

        # --- measurement realism: one (interference, multiplexing) pair
        # per window, drawn in window order (reference RNG consumption).
        interference = np.empty((n_windows, n_intervals, 1))
        multiplexing = np.empty((n_windows, n_intervals, len(HPC_COUNTERS)))
        for w in range(n_windows):
            interference[w] = 1.0 + cfg.interference_scale * np.abs(
                rng.normal(size=(n_intervals, 1))
            )
            multiplexing[w] = rng.lognormal(
                mean=0.0, sigma=cfg.measurement_noise, size=(n_intervals, len(HPC_COUNTERS))
            )
        counters = counters * interference * multiplexing
        np.maximum(counters, 0.0, out=counters)

        return HpcBatch(
            counters=counters,
            counter_names=HPC_COUNTERS,
            dt=self.dt,
            names=batch.names,
        )
