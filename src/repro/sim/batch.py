"""Whole-tensor trace batches for the vectorized simulator backend.

The per-step simulators (:meth:`WorkloadGenerator.generate`,
:meth:`SocSimulator.run`, :meth:`HpcSimulator.run`) produce one trace
object per window.  The batched paths introduced alongside them
(``generate_batch`` / ``run_batch``) produce the containers in this
module instead: one contiguous tensor whose leading axis is the window
(device) axis, with ``window(i)`` returning a zero-copy per-window view
in the classic trace types.

Tensor layouts
--------------
``ActivityBatch``
    every per-step series is ``(n_windows, n_steps)`` C-contiguous;
    ``instr_mix`` is ``(n_windows, n_steps, 4)``.
``DvfsBatch``
    ``states`` is ``(n_windows, n_steps, n_channels)`` int64,
    ``temperature_c`` is ``(n_windows, n_steps)``.
``HpcBatch``
    ``counters`` is ``(n_windows, n_intervals, n_counters)``.

Because the window axis leads, ``reshape`` flattens a batch into the
step-concatenated single trace the feature extractors already accept
(:meth:`DvfsBatch.as_trace`, :meth:`HpcBatch.as_matrix`) without
copying.

RNG-stream contract
-------------------
Fleet-scale generation keeps one independent ``np.random.Generator``
per device so that a device's trace stream depends only on the root
seed and its ``device_id`` — never on fleet order, fleet membership, or
how many windows are generated per call.  The derivation is pinned as a
compatibility contract:

* ``device_stream_key(device_id)`` is the 64-bit FNV-1a hash of the
  UTF-8 encoded device id;
* the trace stream of a device is
  ``SeedSequence(entropy=root, spawn_key=(0, device_stream_key(id)))``;
* the duty-cycle stream (one draw per round, consumed whether or not
  the device emits) is the same with stream index ``1``.

Tests pin hash values and golden trace values; changing any part of
this derivation is a compatibility break.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .trace import INSTRUCTION_KINDS, ActivityTrace, DvfsTrace, HpcTrace

__all__ = [
    "ActivityBatch",
    "DvfsBatch",
    "HpcBatch",
    "device_stream_key",
    "device_seed_sequence",
    "TRACE_STREAM",
    "DUTY_STREAM",
]

#: Spawn-key stream indices of the per-device RNG contract.
TRACE_STREAM = 0
DUTY_STREAM = 1

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = 0xFFFFFFFFFFFFFFFF


def device_stream_key(device_id: str) -> int:
    """64-bit FNV-1a hash of a device id (the pinned stream key).

    FNV-1a is platform-stable, and the fleet's trace sampler hashes
    device ids with its 32-bit form; it is defined here independently so
    the simulator has no dependency on the fleet or telemetry packages.
    """
    h = _FNV_OFFSET
    for byte in device_id.encode("utf-8"):
        h = ((h ^ byte) * _FNV_PRIME) & _MASK64
    return h


def device_seed_sequence(
    root_entropy: int, device_id: str, *, stream: int = TRACE_STREAM
) -> np.random.SeedSequence:
    """The pinned per-device seed derivation (see module docstring)."""
    return np.random.SeedSequence(
        entropy=root_entropy, spawn_key=(stream, device_stream_key(device_id))
    )


@dataclass
class ActivityBatch:
    """A stack of same-length activity traces as one tensor per field.

    ``names[i]`` is the workload name of window ``i``; all windows share
    ``dt``.  Field semantics match :class:`ActivityTrace`.
    """

    cpu_demand: np.ndarray
    gpu_demand: np.ndarray
    instr_mix: np.ndarray
    working_set_kib: np.ndarray
    branch_entropy: np.ndarray
    io_rate: np.ndarray
    phase_id: np.ndarray
    dt: float
    names: tuple[str, ...]

    def __post_init__(self) -> None:
        if self.cpu_demand.ndim != 2:
            raise ValueError(
                f"cpu_demand must be (n_windows, n_steps); got shape "
                f"{self.cpu_demand.shape}."
            )
        shape = self.cpu_demand.shape
        for attr in ("gpu_demand", "working_set_kib", "branch_entropy", "io_rate", "phase_id"):
            if getattr(self, attr).shape != shape:
                raise ValueError(
                    f"ActivityBatch field {attr!r} has shape "
                    f"{getattr(self, attr).shape}, expected {shape}."
                )
        if self.instr_mix.shape != shape + (len(INSTRUCTION_KINDS),):
            raise ValueError(
                f"instr_mix must be {shape + (len(INSTRUCTION_KINDS),)}; "
                f"got {self.instr_mix.shape}."
            )
        if len(self.names) != shape[0]:
            raise ValueError(
                f"names has {len(self.names)} entries for {shape[0]} windows."
            )
        if self.dt <= 0:
            raise ValueError(f"dt must be positive; got {self.dt}.")

    @property
    def n_windows(self) -> int:
        """Number of stacked windows."""
        return self.cpu_demand.shape[0]

    @property
    def n_steps(self) -> int:
        """Steps per window."""
        return self.cpu_demand.shape[1]

    def __len__(self) -> int:
        return self.n_windows

    def window(self, i: int) -> ActivityTrace:
        """Zero-copy :class:`ActivityTrace` view of window ``i``."""
        return ActivityTrace(
            cpu_demand=self.cpu_demand[i],
            gpu_demand=self.gpu_demand[i],
            instr_mix=self.instr_mix[i],
            working_set_kib=self.working_set_kib[i],
            branch_entropy=self.branch_entropy[i],
            io_rate=self.io_rate[i],
            phase_id=self.phase_id[i],
            dt=self.dt,
            name=self.names[i],
        )

    def windows(self) -> list[ActivityTrace]:
        """All windows as per-window trace views."""
        return [self.window(i) for i in range(self.n_windows)]

    @classmethod
    def from_traces(cls, traces) -> "ActivityBatch":
        """Stack same-length :class:`ActivityTrace` objects (copies)."""
        traces = list(traces)
        if not traces:
            raise ValueError("At least one trace is required.")
        n_steps = traces[0].n_steps
        dt = traces[0].dt
        for t in traces:
            if t.n_steps != n_steps or t.dt != dt:
                raise ValueError(
                    "All traces must share n_steps and dt to be batched."
                )
        return cls(
            cpu_demand=np.stack([t.cpu_demand for t in traces]),
            gpu_demand=np.stack([t.gpu_demand for t in traces]),
            instr_mix=np.stack([t.instr_mix for t in traces]),
            working_set_kib=np.stack([t.working_set_kib for t in traces]),
            branch_entropy=np.stack([t.branch_entropy for t in traces]),
            io_rate=np.stack([t.io_rate for t in traces]),
            phase_id=np.stack([t.phase_id for t in traces]),
            dt=dt,
            names=tuple(t.name for t in traces),
        )

    @classmethod
    def empty(cls, n_windows: int, n_steps: int, dt: float, names) -> "ActivityBatch":
        """Uninitialised batch for scatter-fill assembly."""
        shape = (n_windows, n_steps)
        return cls(
            cpu_demand=np.empty(shape),
            gpu_demand=np.empty(shape),
            instr_mix=np.empty(shape + (len(INSTRUCTION_KINDS),)),
            working_set_kib=np.empty(shape),
            branch_entropy=np.empty(shape),
            io_rate=np.empty(shape),
            phase_id=np.empty(shape, dtype=np.int64),
            dt=dt,
            names=tuple(names),
        )

    def scatter(self, positions: np.ndarray, other: "ActivityBatch") -> None:
        """Write ``other``'s rows into this batch at ``positions``."""
        self.cpu_demand[positions] = other.cpu_demand
        self.gpu_demand[positions] = other.gpu_demand
        self.instr_mix[positions] = other.instr_mix
        self.working_set_kib[positions] = other.working_set_kib
        self.branch_entropy[positions] = other.branch_entropy
        self.io_rate[positions] = other.io_rate
        self.phase_id[positions] = other.phase_id


@dataclass
class DvfsBatch:
    """A stack of same-length DVFS state traces (window axis leads)."""

    states: np.ndarray
    frequencies_mhz: tuple[tuple[float, ...], ...]
    channel_names: tuple[str, ...]
    temperature_c: np.ndarray
    dt: float
    names: tuple[str, ...]

    def __post_init__(self) -> None:
        if self.states.ndim != 3:
            raise ValueError(
                f"states must be (n_windows, n_steps, n_channels); got "
                f"shape {self.states.shape}."
            )
        if self.states.shape[2] != len(self.channel_names):
            raise ValueError(
                f"states has {self.states.shape[2]} channels but "
                f"{len(self.channel_names)} names were given."
            )
        if self.temperature_c.shape != self.states.shape[:2]:
            raise ValueError(
                f"temperature_c must be {self.states.shape[:2]}; got "
                f"{self.temperature_c.shape}."
            )
        if len(self.names) != self.states.shape[0]:
            raise ValueError(
                f"names has {len(self.names)} entries for "
                f"{self.states.shape[0]} windows."
            )

    @property
    def n_windows(self) -> int:
        """Number of stacked windows."""
        return self.states.shape[0]

    @property
    def n_steps(self) -> int:
        """DVFS samples per window."""
        return self.states.shape[1]

    @property
    def n_channels(self) -> int:
        """Number of DVFS channels."""
        return self.states.shape[2]

    def __len__(self) -> int:
        return self.n_windows

    def window(self, i: int) -> DvfsTrace:
        """Zero-copy :class:`DvfsTrace` view of window ``i``."""
        return DvfsTrace(
            states=self.states[i],
            frequencies_mhz=self.frequencies_mhz,
            channel_names=self.channel_names,
            temperature_c=self.temperature_c[i],
            dt=self.dt,
            name=self.names[i],
        )

    def as_trace(self, name: str = "") -> DvfsTrace:
        """Window-concatenated single trace (zero-copy reshape).

        Equivalent to ``np.vstack`` of every window's states — the
        shape the batched feature extractor consumes directly.
        """
        n_windows, n_steps, n_channels = self.states.shape
        return DvfsTrace(
            states=self.states.reshape(n_windows * n_steps, n_channels),
            frequencies_mhz=self.frequencies_mhz,
            channel_names=self.channel_names,
            temperature_c=self.temperature_c.reshape(n_windows * n_steps),
            dt=self.dt,
            name=name,
        )


@dataclass
class HpcBatch:
    """A stack of same-length HPC counter traces (window axis leads)."""

    counters: np.ndarray
    counter_names: tuple[str, ...]
    dt: float
    names: tuple[str, ...]

    def __post_init__(self) -> None:
        if self.counters.ndim != 3:
            raise ValueError(
                f"counters must be (n_windows, n_intervals, n_counters); "
                f"got shape {self.counters.shape}."
            )
        if self.counters.shape[2] != len(self.counter_names):
            raise ValueError(
                f"counters has {self.counters.shape[2]} columns but "
                f"{len(self.counter_names)} names were given."
            )
        if len(self.names) != self.counters.shape[0]:
            raise ValueError(
                f"names has {len(self.names)} entries for "
                f"{self.counters.shape[0]} windows."
            )

    @property
    def n_windows(self) -> int:
        """Number of stacked windows."""
        return self.counters.shape[0]

    @property
    def n_intervals(self) -> int:
        """Sampling intervals per window."""
        return self.counters.shape[1]

    def __len__(self) -> int:
        return self.n_windows

    def window(self, i: int) -> HpcTrace:
        """Zero-copy :class:`HpcTrace` view of window ``i``."""
        return HpcTrace(
            counters=self.counters[i],
            counter_names=self.counter_names,
            dt=self.dt,
            name=self.names[i],
        )

    def windows(self) -> list[HpcTrace]:
        """All windows as per-window trace views."""
        return [self.window(i) for i in range(self.n_windows)]

    def as_matrix(self) -> np.ndarray:
        """Interval-concatenated ``(n_windows * n_intervals, n_counters)``
        counter matrix (zero-copy reshape)."""
        n_windows, n_intervals, n_counters = self.counters.shape
        return self.counters.reshape(n_windows * n_intervals, n_counters)
