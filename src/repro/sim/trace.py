"""Trace containers shared by the workload, DVFS and HPC simulators.

An :class:`ActivityTrace` is the hardware-agnostic description of what a
workload *does* over time (CPU demand, instruction mix, memory working
set, ...).  The DVFS simulator consumes it to produce a
:class:`DvfsTrace` of frequency-state indices, and the CPU counter model
consumes it to produce an :class:`HpcTrace` of counter samples — the two
signal families the paper's HMDs observe.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["ActivityTrace", "DvfsTrace", "HpcTrace", "INSTRUCTION_KINDS"]

# Instruction-mix categories modelled by the CPU substrate.
INSTRUCTION_KINDS = ("alu", "branch", "load", "store")


@dataclass
class ActivityTrace:
    """Time-series description of a workload's demands on the hardware.

    All arrays share the same length ``n_steps``; one step corresponds
    to ``dt`` seconds of wall-clock time.

    Attributes
    ----------
    cpu_demand:
        Requested CPU utilisation in [0, 1] (before governor decisions).
    gpu_demand:
        Requested GPU utilisation in [0, 1] (rendering / media load).
    instr_mix:
        ``(n_steps, 4)`` fractions over :data:`INSTRUCTION_KINDS`
        (rows sum to 1).
    working_set_kib:
        Active memory working-set size in KiB (drives cache miss rates).
    branch_entropy:
        Unpredictability of branch outcomes in [0, 1] (0 = perfectly
        predictable, 1 = random), drives branch-misprediction rates.
    io_rate:
        Relative I/O intensity in [0, 1] (drives context switches and
        page faults).
    phase_id:
        Integer id of the workload phase active at each step.
    dt:
        Seconds per step.
    name:
        Workload (application) name the trace was generated from.
    """

    cpu_demand: np.ndarray
    gpu_demand: np.ndarray
    instr_mix: np.ndarray
    working_set_kib: np.ndarray
    branch_entropy: np.ndarray
    io_rate: np.ndarray
    phase_id: np.ndarray
    dt: float = 0.05
    name: str = ""

    def __post_init__(self) -> None:
        n = len(self.cpu_demand)
        for attr in ("gpu_demand", "instr_mix", "working_set_kib", "branch_entropy", "io_rate", "phase_id"):
            if len(getattr(self, attr)) != n:
                raise ValueError(
                    f"ActivityTrace field {attr!r} has length "
                    f"{len(getattr(self, attr))}, expected {n}."
                )
        if self.instr_mix.ndim != 2 or self.instr_mix.shape[1] != len(INSTRUCTION_KINDS):
            raise ValueError(
                f"instr_mix must be (n_steps, {len(INSTRUCTION_KINDS)}); "
                f"got {self.instr_mix.shape}."
            )
        if self.dt <= 0:
            raise ValueError(f"dt must be positive; got {self.dt}.")

    @property
    def n_steps(self) -> int:
        """Number of simulation steps in the trace."""
        return len(self.cpu_demand)

    @property
    def duration(self) -> float:
        """Trace duration in seconds."""
        return self.n_steps * self.dt

    def slice(self, start: int, stop: int) -> "ActivityTrace":
        """Return a sub-trace covering steps ``[start, stop)``."""
        if not 0 <= start < stop <= self.n_steps:
            raise ValueError(
                f"Invalid slice [{start}, {stop}) for trace of {self.n_steps} steps."
            )
        return ActivityTrace(
            cpu_demand=self.cpu_demand[start:stop],
            gpu_demand=self.gpu_demand[start:stop],
            instr_mix=self.instr_mix[start:stop],
            working_set_kib=self.working_set_kib[start:stop],
            branch_entropy=self.branch_entropy[start:stop],
            io_rate=self.io_rate[start:stop],
            phase_id=self.phase_id[start:stop],
            dt=self.dt,
            name=self.name,
        )


@dataclass
class DvfsTrace:
    """Time series of DVFS states produced by the SoC power simulator.

    Attributes
    ----------
    states:
        ``(n_steps, n_channels)`` integer frequency-state indices,
        one column per DVFS channel (e.g. big cluster, LITTLE cluster,
        GPU).
    frequencies_mhz:
        Per-channel tuple of the frequency table, indexable by state.
    channel_names:
        Human-readable channel labels.
    temperature_c:
        Simulated die temperature per step (thermal-throttle telemetry).
    dt:
        Seconds per step.
    name:
        Source workload name.
    """

    states: np.ndarray
    frequencies_mhz: tuple[tuple[float, ...], ...]
    channel_names: tuple[str, ...]
    temperature_c: np.ndarray
    dt: float = 0.05
    name: str = ""

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        """Raise ``ValueError`` unless the fields describe one trace.

        Runs at construction and again before featurization, since the
        fields stay assignable: a ``temperature_c`` cut short afterwards
        fails here by name instead of deep inside a kernel.
        """
        if self.states.ndim != 2:
            raise ValueError(f"states must be 2-d; got shape {self.states.shape}.")
        if self.states.shape[1] != len(self.channel_names):
            raise ValueError(
                f"states has {self.states.shape[1]} channels but "
                f"{len(self.channel_names)} names were given."
            )
        if len(self.frequencies_mhz) != len(self.channel_names):
            raise ValueError("One frequency table per channel is required.")
        if len(self.temperature_c) != len(self.states):
            raise ValueError(
                f"temperature_c has {len(self.temperature_c)} steps but "
                f"states has {len(self.states)}."
            )

    @property
    def n_steps(self) -> int:
        """Number of DVFS samples."""
        return self.states.shape[0]

    @property
    def n_channels(self) -> int:
        """Number of DVFS channels."""
        return self.states.shape[1]

    def n_states(self, channel: int) -> int:
        """Number of frequency states available on ``channel``."""
        return len(self.frequencies_mhz[channel])

    def frequency_mhz(self) -> np.ndarray:
        """Decode state indices into frequencies (MHz), same shape as states."""
        out = np.empty_like(self.states, dtype=np.float64)
        for c in range(self.n_channels):
            table = np.asarray(self.frequencies_mhz[c])
            out[:, c] = table[self.states[:, c]]
        return out


@dataclass
class HpcTrace:
    """Per-interval hardware performance counter samples.

    Attributes
    ----------
    counters:
        ``(n_intervals, n_counters)`` non-negative event counts.
    counter_names:
        Names matching the counter columns.
    dt:
        Seconds per sampling interval.
    name:
        Source workload name.
    """

    counters: np.ndarray
    counter_names: tuple[str, ...]
    dt: float = 0.1
    name: str = ""

    def __post_init__(self) -> None:
        if self.counters.ndim != 2:
            raise ValueError(f"counters must be 2-d; got shape {self.counters.shape}.")
        if self.counters.shape[1] != len(self.counter_names):
            raise ValueError(
                f"counters has {self.counters.shape[1]} columns but "
                f"{len(self.counter_names)} names were given."
            )
        if np.any(self.counters < 0):
            raise ValueError("Counter values must be non-negative.")

    @property
    def n_intervals(self) -> int:
        """Number of sampling intervals."""
        return self.counters.shape[0]

    def column(self, counter: str) -> np.ndarray:
        """Return one counter's time series by name."""
        try:
            idx = self.counter_names.index(counter)
        except ValueError:
            raise KeyError(
                f"Unknown counter {counter!r}; available: {self.counter_names}."
            ) from None
        return self.counters[:, idx]
