"""SoC power-management substrate: DVFS governors and state traces (S7b).

The DVFS-based HMD of Chawla et al. observes the sequence of Dynamic
Voltage and Frequency Scaling states that the OS governor selects while
an application runs.  This module reproduces that signal chain:

``ActivityTrace`` (what the app demands)
    → per-channel utilisation (demand routed to CPU clusters / GPU,
      plus background system load)
    → governor policy (ondemand / conservative / performance)
    → thermal model (power ∝ C·V²·f, throttling caps the state)
    → :class:`DvfsTrace` of state indices per channel.

The governor's non-linear, hysteretic response is what makes DVFS
signatures so application-discriminative: bursty interactive apps pull
rapid max-frequency jumps followed by step-downs, steady compute pins
the top states, and low-duty beaconing malware hovers in the low states.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from ..ml.validation import check_random_state
from .batch import ActivityBatch, DvfsBatch
from .trace import ActivityTrace, DvfsTrace

__all__ = [
    "DvfsChannelConfig",
    "SocConfig",
    "OndemandGovernor",
    "ConservativeGovernor",
    "PerformanceGovernor",
    "SocSimulator",
    "DEFAULT_SOC",
]


@dataclass(frozen=True)
class DvfsChannelConfig:
    """One DVFS domain (CPU cluster or GPU).

    Attributes
    ----------
    name:
        Channel label (e.g. "cpu_big").
    frequencies_mhz:
        Ascending operating-point frequency table.
    voltages_v:
        Per-state supply voltage (same length as the frequency table).
    demand_share:
        Fraction of the workload's CPU demand routed to this channel.
    background_util:
        Mean background (OS/system services) utilisation added on top.
    capacitance_nf:
        Effective switched capacitance for the power model.
    """

    name: str
    frequencies_mhz: tuple[float, ...]
    voltages_v: tuple[float, ...]
    demand_share: float
    background_util: float = 0.03
    capacitance_nf: float = 1.0

    def __post_init__(self) -> None:
        if len(self.frequencies_mhz) != len(self.voltages_v):
            raise ValueError("frequencies_mhz and voltages_v lengths differ.")
        if len(self.frequencies_mhz) < 2:
            raise ValueError("At least 2 frequency states are required.")
        freqs = np.asarray(self.frequencies_mhz)
        if np.any(np.diff(freqs) <= 0):
            raise ValueError("frequencies_mhz must be strictly ascending.")
        if not 0.0 <= self.demand_share <= 1.0:
            raise ValueError(f"demand_share must be in [0, 1]; got {self.demand_share}.")

    @property
    def n_states(self) -> int:
        """Number of operating points."""
        return len(self.frequencies_mhz)


_FREQ_ARRAYS: dict[tuple[float, ...], np.ndarray] = {}


def _freq_array(channel: DvfsChannelConfig) -> np.ndarray:
    """Memoised float64 frequency table (the batch scan gathers it per
    step; rebuilding the array per call would dominate)."""
    freqs = _FREQ_ARRAYS.get(channel.frequencies_mhz)
    if freqs is None:
        freqs = np.asarray(channel.frequencies_mhz, dtype=np.float64)
        _FREQ_ARRAYS[channel.frequencies_mhz] = freqs
    return freqs


@dataclass(frozen=True)
class SocConfig:
    """Whole-SoC configuration: channels plus the thermal envelope."""

    channels: tuple[DvfsChannelConfig, ...]
    ambient_c: float = 30.0
    thermal_resistance: float = 18.0   # °C per Watt at steady state
    thermal_tau_s: float = 4.0         # thermal RC time constant
    throttle_temp_c: float = 75.0      # above this the max state is capped
    throttle_cap_states: int = 2       # how many top states throttling removes

    def __post_init__(self) -> None:
        if not self.channels:
            raise ValueError("At least one DVFS channel is required.")


# A Snapdragon-like big.LITTLE SoC with a GPU domain: the three DVFS
# channels whose state time-series form the HMD signature.
DEFAULT_SOC = SocConfig(
    channels=(
        DvfsChannelConfig(
            name="cpu_big",
            frequencies_mhz=(300, 652, 1036, 1401, 1766, 2016, 2150, 2457),
            voltages_v=(0.57, 0.62, 0.69, 0.76, 0.83, 0.90, 0.95, 1.05),
            demand_share=0.60,
            background_util=0.02,
            capacitance_nf=1.3,
        ),
        DvfsChannelConfig(
            name="cpu_little",
            frequencies_mhz=(300, 576, 748, 998, 1209, 1516, 1708),
            voltages_v=(0.55, 0.58, 0.62, 0.67, 0.73, 0.80, 0.86),
            demand_share=0.40,
            background_util=0.04,
            capacitance_nf=0.7,
        ),
        DvfsChannelConfig(
            name="gpu",
            frequencies_mhz=(180, 267, 355, 430, 504, 585),
            voltages_v=(0.60, 0.64, 0.70, 0.76, 0.82, 0.90),
            demand_share=0.05,
            background_util=0.06,
            capacitance_nf=1.8,
        ),
    ),
)


class OndemandGovernor:
    """The classic Linux ``ondemand`` policy.

    If utilisation exceeds ``up_threshold`` the governor jumps straight
    to the highest state; otherwise it picks the lowest state whose
    capacity covers the demand with margin, stepping down at most
    gradually (hysteresis via ``down_differential``).
    """

    def __init__(self, *, up_threshold: float = 0.80, down_differential: float = 0.10):
        if not 0.0 < up_threshold <= 1.0:
            raise ValueError(f"up_threshold must be in (0, 1]; got {up_threshold}.")
        if not 0.0 <= down_differential < up_threshold:
            raise ValueError(
                "down_differential must be in [0, up_threshold)."
            )
        self.up_threshold = up_threshold
        self.down_differential = down_differential

    def next_state(
        self, state: int, utilization: float, channel: DvfsChannelConfig
    ) -> int:
        """One governor decision given current state and utilisation.

        Implemented with :mod:`bisect` on the plain frequency tuple —
        this method runs once per step per channel, so it must stay free
        of NumPy per-call overhead.
        """
        n = channel.n_states
        freqs = channel.frequencies_mhz
        if utilization > self.up_threshold:
            return n - 1
        # Utilisation is measured relative to current capacity; convert
        # to absolute demand and find the smallest adequate state.
        demand = utilization * freqs[state]
        target_capacity = demand / max(self.up_threshold - self.down_differential, 1e-9)
        target = bisect_left(freqs, target_capacity)
        if target >= n:
            target = n - 1
        # Never step down more than one state per decision (hysteresis).
        if target < state - 1:
            target = state - 1
        return target

    def next_state_batch(
        self, states: np.ndarray, utilization: np.ndarray, channel: DvfsChannelConfig
    ) -> np.ndarray:
        """Vectorised :meth:`next_state` over a window axis.

        Bitwise-equal to the scalar policy: ``searchsorted`` on the
        float64 frequency table reproduces ``bisect_left`` on the plain
        tuple exactly (table values are exactly representable).
        """
        freqs = _freq_array(channel)
        n = channel.n_states
        demand = utilization * freqs[states]
        denom = max(self.up_threshold - self.down_differential, 1e-9)
        target = np.searchsorted(freqs, demand / denom, side="left")
        np.minimum(target, n - 1, out=target)
        np.maximum(target, states - 1, out=target)
        return np.where(utilization > self.up_threshold, n - 1, target)


class ConservativeGovernor:
    """Linux ``conservative`` policy: single-state steps up and down."""

    def __init__(self, *, up_threshold: float = 0.75, down_threshold: float = 0.35):
        if not 0.0 <= down_threshold < up_threshold <= 1.0:
            raise ValueError(
                "Require 0 <= down_threshold < up_threshold <= 1."
            )
        self.up_threshold = up_threshold
        self.down_threshold = down_threshold

    def next_state(
        self, state: int, utilization: float, channel: DvfsChannelConfig
    ) -> int:
        """Step at most one state per decision."""
        if utilization > self.up_threshold:
            return min(state + 1, channel.n_states - 1)
        if utilization < self.down_threshold:
            return max(state - 1, 0)
        return state

    def next_state_batch(
        self, states: np.ndarray, utilization: np.ndarray, channel: DvfsChannelConfig
    ) -> np.ndarray:
        """Vectorised :meth:`next_state` over a window axis."""
        n = channel.n_states
        return np.where(
            utilization > self.up_threshold,
            np.minimum(states + 1, n - 1),
            np.where(
                utilization < self.down_threshold,
                np.maximum(states - 1, 0),
                states,
            ),
        )


class PerformanceGovernor:
    """Pins the maximum state (used in ablations — it destroys the
    DVFS signature, illustrating why the sensor choice matters)."""

    def next_state(
        self, state: int, utilization: float, channel: DvfsChannelConfig
    ) -> int:
        """Always select the top state."""
        return channel.n_states - 1

    def next_state_batch(
        self, states: np.ndarray, utilization: np.ndarray, channel: DvfsChannelConfig
    ) -> np.ndarray:
        """Vectorised :meth:`next_state` over a window axis."""
        return np.full(states.shape, channel.n_states - 1, dtype=states.dtype)


class SocSimulator:
    """Simulates governor decisions and thermals for a workload trace.

    Parameters
    ----------
    config:
        SoC description (channels, thermal envelope).
    governor:
        Policy object with a ``next_state(state, util, channel)`` method;
        one independent instance of state per channel is maintained here.
    noise:
        Std-dev of multiplicative utilisation measurement noise.
    random_state:
        Seed / generator for reproducibility.
    """

    def __init__(
        self,
        config: SocConfig = DEFAULT_SOC,
        *,
        governor=None,
        noise: float = 0.04,
        random_state: int | np.random.Generator | None = None,
    ):
        self.config = config
        self.governor = governor if governor is not None else OndemandGovernor()
        self.noise = noise
        self.rng = check_random_state(random_state)

    def run(self, activity: ActivityTrace) -> DvfsTrace:
        """Produce the DVFS state trace for one workload activity trace.

        All stochastic inputs (background load, measurement noise) are
        drawn vectorised up front; the remaining sequential loop — the
        governor's state feedback and the thermal RC — uses plain Python
        scalars, keeping full-dataset generation fast.
        """
        config = self.config
        n_steps = activity.n_steps
        channels = config.channels
        n_channels = len(channels)
        rng = self.rng

        # Vectorised pre-computation of the measured utilisation demand.
        demand = activity.cpu_demand[:, None] * np.array(
            [c.demand_share for c in channels]
        )
        for c, channel in enumerate(channels):
            if channel.name == "cpu_little":
                # I/O and housekeeping threads land on the little cluster.
                demand[:, c] += 0.25 * activity.io_rate
            elif channel.name == "gpu":
                # The GPU domain serves rendering/media demand directly.
                demand[:, c] += activity.gpu_demand
        background = np.array([c.background_util for c in channels])
        demand += background[None, :] * rng.exponential(size=(n_steps, n_channels))
        demand *= 1.0 + rng.normal(scale=self.noise, size=(n_steps, n_channels))
        measured = np.clip(demand, 0.0, 1.0)
        measured_list = measured.tolist()

        # Per-channel lookup tables as plain Python objects.
        freq_tables = [c.frequencies_mhz for c in channels]
        inv_fmax = [1.0 / c.frequencies_mhz[-1] for c in channels]
        # Power per (channel, state) at unit activity: C * V^2 * f.
        power_tables = [
            [
                c.capacitance_nf * v * v * (f / 1000.0)
                for f, v in zip(c.frequencies_mhz, c.voltages_v)
            ]
            for c in channels
        ]
        throttle_caps = [
            max(c.n_states - 1 - config.throttle_cap_states, 0) for c in channels
        ]

        states = np.zeros((n_steps, n_channels), dtype=np.int64)
        states_list = states.tolist()
        temperature = [0.0] * n_steps
        temp = config.ambient_c + 5.0
        alpha = activity.dt / config.thermal_tau_s
        ambient = config.ambient_c
        thermal_r = config.thermal_resistance
        throttle_temp = config.throttle_temp_c
        governor_step = self.governor.next_state

        current = [0] * n_channels
        for t in range(n_steps):
            total_power = 0.0
            row_measured = measured_list[t]
            row_states = states_list[t]
            throttled = temp > throttle_temp
            for c in range(n_channels):
                m = row_measured[c]
                # Utilisation relative to the *current* state's capacity.
                cap_ratio = freq_tables[c][current[c]] * inv_fmax[c]
                utilization = m / cap_ratio
                if utilization > 1.0:
                    utilization = 1.0
                next_state = governor_step(current[c], utilization, channels[c])
                if throttled and next_state > throttle_caps[c]:
                    next_state = throttle_caps[c]
                current[c] = next_state
                row_states[c] = next_state
                activity_factor = m if m > 0.05 else 0.05
                total_power += power_tables[c][next_state] * activity_factor

            # First-order thermal RC update.
            steady = ambient + thermal_r * total_power
            temp += alpha * (steady - temp)
            temperature[t] = temp

        states = np.asarray(states_list, dtype=np.int64)
        temperature = np.asarray(temperature)

        return DvfsTrace(
            states=states,
            frequencies_mhz=tuple(c.frequencies_mhz for c in config.channels),
            channel_names=tuple(c.name for c in config.channels),
            temperature_c=temperature,
            dt=activity.dt,
            name=activity.name,
        )

    def _governor_step_batch(self):
        """Window-vectorised governor decision function.

        Uses the policy's ``next_state_batch`` when it provides one;
        custom governors without a batch method fall back to scalar
        calls per window (bitwise-equal by construction, just slower).
        """
        step_batch = getattr(self.governor, "next_state_batch", None)
        if step_batch is not None:
            return step_batch
        scalar = self.governor.next_state

        def fallback(states, utilization, channel):
            return np.array(
                [
                    scalar(int(s), float(u), channel)
                    for s, u in zip(states, utilization)
                ],
                dtype=states.dtype,
            )

        return fallback

    def run_batch(self, batch: ActivityBatch, *, rngs=None) -> DvfsBatch:
        """Whole-tensor DVFS simulation of a stack of activity windows.

        Bitwise identical to calling :meth:`run` on ``batch.window(i)``
        for ``i = 0, 1, ...`` with the same generator: the stochastic
        inputs are drawn window-by-window in the reference order (so
        the RNG stream is consumed identically), while the governor /
        thermal recurrence runs as a scan over the step axis — every
        step updates all windows at once with per-channel frequency,
        power and throttle tables gathered whole-tensor.  Per-window
        Python cost drops from ``n_steps * n_channels`` governor calls
        to ``n_steps * n_channels / n_windows`` vector operations.

        ``rngs`` optionally supplies one generator per window (fleet
        use: each device owns its stream); the default draws every
        window from this simulator's own stream.
        """
        config = self.config
        channels = config.channels
        n_windows, n_steps = batch.n_windows, batch.n_steps
        n_channels = len(channels)
        if rngs is not None and len(rngs) != n_windows:
            raise ValueError(
                f"rngs has {len(rngs)} generators for {n_windows} windows."
            )

        # Demand routing, identical elementwise math to the scalar path.
        demand = batch.cpu_demand[:, :, None] * np.array(
            [c.demand_share for c in channels]
        )
        for c, channel in enumerate(channels):
            if channel.name == "cpu_little":
                demand[:, :, c] += 0.25 * batch.io_rate
            elif channel.name == "gpu":
                demand[:, :, c] += batch.gpu_demand
        background = np.array([c.background_util for c in channels])
        # Stochastic inputs: one (exponential, normal) pair per window,
        # drawn in window order — the reference RNG consumption.
        expo = np.empty((n_windows, n_steps, n_channels))
        noise = np.empty((n_windows, n_steps, n_channels))
        for w in range(n_windows):
            rng = self.rng if rngs is None else rngs[w]
            expo[w] = rng.exponential(size=(n_steps, n_channels))
            noise[w] = rng.normal(scale=self.noise, size=(n_steps, n_channels))
        # In-place composition — same elementwise expressions as the
        # scalar path (`clip` is exactly maximum-then-minimum).
        expo *= background[None, None, :]
        demand += expo
        noise += 1.0
        demand *= noise
        np.maximum(demand, 0.0, out=demand)
        np.minimum(demand, 1.0, out=demand)
        # Step-leading contiguous layout so every scan slice is flat.
        measured_t = np.ascontiguousarray(demand.transpose(1, 2, 0))

        # Per-entry products f * (1/f_max) — the same two floats the
        # scalar path multiplies per step, precomputed per state.
        cap_tables = [
            np.array(
                [f * (1.0 / c.frequencies_mhz[-1]) for f in c.frequencies_mhz]
            )
            for c in channels
        ]
        power_tables = [
            np.array(
                [
                    c.capacitance_nf * v * v * (f / 1000.0)
                    for f, v in zip(c.frequencies_mhz, c.voltages_v)
                ]
            )
            for c in channels
        ]
        throttle_caps = [
            max(c.n_states - 1 - config.throttle_cap_states, 0) for c in channels
        ]
        governor_step = self._governor_step_batch()

        states_t = np.empty((n_steps, n_channels, n_windows), dtype=np.int64)
        temperature_t = np.empty((n_steps, n_windows))
        temp = np.full(n_windows, config.ambient_c + 5.0)
        alpha = batch.dt / config.thermal_tau_s
        ambient = config.ambient_c
        thermal_r = config.thermal_resistance
        throttle_temp = config.throttle_temp_c

        current = [np.zeros(n_windows, dtype=np.int64) for _ in range(n_channels)]
        for t in range(n_steps):
            throttled = temp > throttle_temp
            any_throttled = bool(throttled.any())
            total_power = np.zeros(n_windows)
            m_t = measured_t[t]
            s_t = states_t[t]
            for c in range(n_channels):
                m = m_t[c]
                cap_ratio = cap_tables[c][current[c]]
                utilization = m / cap_ratio
                np.minimum(utilization, 1.0, out=utilization)
                next_state = governor_step(current[c], utilization, channels[c])
                if any_throttled:
                    cap = throttle_caps[c]
                    next_state = np.where(
                        throttled & (next_state > cap), cap, next_state
                    )
                current[c] = next_state
                s_t[c] = next_state
                activity_factor = np.maximum(m, 0.05)
                # Accumulated channel-by-channel, matching the scalar
                # left-to-right summation order exactly.
                total_power += power_tables[c][next_state] * activity_factor

            steady = ambient + thermal_r * total_power
            temp += alpha * (steady - temp)
            temperature_t[t] = temp

        states = np.ascontiguousarray(states_t.transpose(2, 0, 1))
        temperature = np.ascontiguousarray(temperature_t.T)
        return DvfsBatch(
            states=states,
            frequencies_mhz=tuple(c.frequencies_mhz for c in config.channels),
            channel_names=tuple(c.name for c in config.channels),
            temperature_c=temperature,
            dt=batch.dt,
            names=batch.names,
        )
