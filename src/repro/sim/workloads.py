"""Synthetic workload archetypes and activity-trace generation (S7a).

The paper's datasets were collected by running real Android applications
and malware samples (DVFS dataset, Chawla et al.) and desktop
benign/malware binaries (HPC dataset, Zhou et al.).  Offline we replace
those with *parametric workload archetypes*: each application is a small
Markov machine over behavioural phases, each phase specifying the
demands the application places on the hardware (CPU utilisation
dynamics, instruction mix, memory working set, branch predictability,
I/O).  Running the machine produces an :class:`ActivityTrace` that the
DVFS and HPC substrates turn into sensor signatures.

Per-application *individuality* comes from two levels of randomness:

* every application instance draws a persistent parameter offset
  (``app_jitter``) once, making e.g. two browsing sessions similar but
  not identical;
* every step adds observation noise.

This mirrors the paper's setting where signatures cluster per
application, and lets the dataset builder place whole *applications*
(not samples) into the known/unknown buckets exactly as in Fig. 6.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..ml.validation import check_random_state
from .batch import (
    DUTY_STREAM,
    TRACE_STREAM,
    ActivityBatch,
    device_seed_sequence,
)
from .trace import INSTRUCTION_KINDS, ActivityTrace

__all__ = [
    "WorkloadPhase",
    "WorkloadSpec",
    "WorkloadGenerator",
    "blend_specs",
    "FleetDevice",
    "FleetPopulation",
    "FleetTraceGenerator",
]


@dataclass(frozen=True)
class WorkloadPhase:
    """One behavioural phase of an application.

    Attributes
    ----------
    name:
        Phase label (for debugging and trace inspection).
    cpu_mean / cpu_std:
        Mean and standard deviation of CPU demand in [0, 1].
    gpu_mean:
        Mean GPU demand in [0, 1] (rendering, video decode, UI
        compositing); most malware archetypes leave this near zero.
    burst_prob / burst_height:
        Per-step probability of a short demand burst and its amplitude —
        bursts are what distinguish interactive apps from steady
        compute loops in the DVFS signal.
    mix:
        Instruction-mix fractions over (alu, branch, load, store);
        normalised at generation time.
    working_set_kib:
        Log-mean of the active working set in KiB.
    working_set_sigma:
        Log-space standard deviation of the working set.
    branch_entropy:
        Branch-outcome unpredictability in [0, 1].
    io_rate:
        Relative I/O intensity in [0, 1].
    mean_duration_steps:
        Mean dwell time before the Markov machine may leave the phase.
    dwell_cv:
        Coefficient of variation of the dwell time.  ``None`` (default)
        uses a geometric distribution — the memoryless, human-driven
        case.  A small value (e.g. 0.05) makes dwells nearly
        deterministic, modelling timer-driven malware behaviour (ad
        popups, C2 beacons, SMS bursts) whose rigid cadence is exactly
        the "invariant functionality" HMDs key on.
    """

    name: str
    cpu_mean: float
    cpu_std: float = 0.05
    gpu_mean: float = 0.0
    burst_prob: float = 0.0
    burst_height: float = 0.0
    mix: tuple[float, float, float, float] = (0.55, 0.15, 0.20, 0.10)
    working_set_kib: float = 512.0
    working_set_sigma: float = 0.25
    branch_entropy: float = 0.3
    io_rate: float = 0.1
    mean_duration_steps: int = 40
    dwell_cv: float | None = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.cpu_mean <= 1.0:
            raise ValueError(f"cpu_mean must be in [0, 1]; got {self.cpu_mean}.")
        if len(self.mix) != len(INSTRUCTION_KINDS):
            raise ValueError(
                f"mix must have {len(INSTRUCTION_KINDS)} entries; got {len(self.mix)}."
            )
        if any(m < 0 for m in self.mix) or sum(self.mix) <= 0:
            raise ValueError(f"mix fractions must be non-negative and not all zero.")
        if self.mean_duration_steps < 1:
            raise ValueError("mean_duration_steps must be >= 1.")


@dataclass(frozen=True)
class WorkloadSpec:
    """A complete application archetype.

    Attributes
    ----------
    name:
        Application name (unique within a dataset).
    label:
        0 = benign, 1 = malware.
    family:
        Malware family or benign category (used for reporting).
    phases:
        The behavioural phases.
    transitions:
        Row-stochastic phase transition matrix (rows/cols follow
        ``phases`` order); ``None`` means uniform transitions.
    app_jitter:
        Scale of the per-instance persistent parameter offset: each
        generated trace perturbs phase means by a random factor drawn
        once, modelling device/app-session variation.
    """

    name: str
    label: int
    family: str
    phases: tuple[WorkloadPhase, ...]
    transitions: tuple[tuple[float, ...], ...] | None = None
    app_jitter: float = 0.05

    def __post_init__(self) -> None:
        if self.label not in (0, 1):
            raise ValueError(f"label must be 0 (benign) or 1 (malware); got {self.label}.")
        if not self.phases:
            raise ValueError("At least one phase is required.")
        if self.transitions is not None:
            n = len(self.phases)
            matrix = np.asarray(self.transitions, dtype=float)
            if matrix.shape != (n, n):
                raise ValueError(
                    f"transitions must be {n}x{n}; got {matrix.shape}."
                )
            if np.any(matrix < 0) or not np.allclose(matrix.sum(axis=1), 1.0, atol=1e-6):
                raise ValueError("transitions rows must be non-negative and sum to 1.")

    def transition_matrix(self) -> np.ndarray:
        """Return the (possibly default-uniform) transition matrix."""
        n = len(self.phases)
        if self.transitions is None:
            return np.full((n, n), 1.0 / n)
        return np.asarray(self.transitions, dtype=float)


def _sample_phase_schedule(
    rng: np.random.Generator,
    n_steps: int,
    n_phases: int,
    transition: np.ndarray,
    means: np.ndarray,
    dwell_cvs: list[float | None],
) -> np.ndarray:
    """Run the Markov phase machine and return per-step phase ids.

    The single phase-machine implementation shared by the per-window
    reference path and the batched kernel, so the two consume the RNG
    stream identically by construction.  Only the (few) phase
    *transitions* run in a Python loop; the schedule itself is
    materialised as one array via ``np.repeat`` over the sampled
    (phase, dwell) pairs.

    Transitions draw one uniform and invert the precomputed row CDF —
    exactly the stream consumption and arithmetic of
    ``rng.choice(n_phases, p=row)``, minus its per-call validation.
    """
    cdfs = np.asarray(transition, dtype=np.float64).cumsum(axis=1)
    cdfs /= cdfs[:, -1:]
    phases: list[int] = []
    dwells: list[int] = []
    total = 0
    phase_idx = int(rng.integers(n_phases))
    while total < n_steps:
        cv = dwell_cvs[phase_idx]
        if cv is None:
            dwell = int(rng.geometric(1.0 / means[phase_idx]))
        else:
            dwell = max(
                1,
                int(round(rng.normal(means[phase_idx], cv * means[phase_idx]))),
            )
        dwell = min(dwell, n_steps - total)
        phases.append(phase_idx)
        dwells.append(dwell)
        total += dwell
        phase_idx = int(cdfs[phase_idx].searchsorted(rng.random(), side="right"))
    return np.repeat(
        np.asarray(phases, dtype=np.int64), np.asarray(dwells, dtype=np.int64)
    )


def _generate_batch(
    spec: WorkloadSpec, rngs, n_steps: int, dt: float
) -> ActivityBatch:
    """Whole-tensor activity generation: one window per entry of ``rngs``.

    Window ``w`` consumes ``rngs[w]`` exactly as one
    :meth:`WorkloadGenerator.generate` call would (phase machine first,
    then session offsets, then the six per-step noise vectors), so:

    * passing the same generator ``n`` times is bitwise identical to
      ``n`` successive ``generate()`` calls on it;
    * passing per-device generators yields each device's own stream,
      independent of how windows are batched together.

    All remaining arithmetic — phase-table gathers, demand/noise
    composition, clipping — runs once over the full
    ``(n_windows, n_steps)`` tensor; every operation is elementwise (or
    a length-4 innermost-axis sum for the instruction-mix
    normalisation), so no reduction order changes.
    """
    n_windows = len(rngs)
    n_phases = len(spec.phases)
    transition = spec.transition_matrix()
    means = np.array([p.mean_duration_steps for p in spec.phases], dtype=float)
    dwell_cvs = [p.dwell_cv for p in spec.phases]
    n_kinds = len(INSTRUCTION_KINDS)

    phase_ids = np.empty((n_windows, n_steps), dtype=np.int64)
    cpu_offset = np.empty(n_windows)
    ws_offset = np.empty(n_windows)
    mix_offset = np.empty((n_windows, n_kinds))
    cpu_noise = np.empty((n_windows, n_steps))
    burst_draw = np.empty((n_windows, n_steps))
    gpu_noise = np.empty((n_windows, n_steps))
    ws_noise = np.empty((n_windows, n_steps))
    be_noise = np.empty((n_windows, n_steps))
    io_noise = np.empty((n_windows, n_steps))

    for w, rng in enumerate(rngs):
        phase_ids[w] = _sample_phase_schedule(
            rng, n_steps, n_phases, transition, means, dwell_cvs
        )
        cpu_offset[w] = rng.normal(scale=spec.app_jitter)
        ws_offset[w] = rng.normal(scale=spec.app_jitter)
        mix_offset[w] = rng.normal(scale=spec.app_jitter, size=n_kinds)
        cpu_noise[w] = rng.normal(size=n_steps)
        burst_draw[w] = rng.random(n_steps)
        gpu_noise[w] = rng.normal(scale=0.03, size=n_steps)
        ws_noise[w] = rng.normal(size=n_steps)
        be_noise[w] = rng.normal(scale=0.03, size=n_steps)
        io_noise[w] = rng.normal(scale=0.03, size=n_steps)

    cpu_mean = np.array([p.cpu_mean for p in spec.phases])
    cpu_std = np.array([p.cpu_std for p in spec.phases])
    gpu_mean = np.array([p.gpu_mean for p in spec.phases])
    burst_prob = np.array([p.burst_prob for p in spec.phases])
    burst_height = np.array([p.burst_height for p in spec.phases])
    ws_log_mean = np.log([p.working_set_kib for p in spec.phases])
    ws_sigma = np.array([p.working_set_sigma for p in spec.phases])
    be_mean = np.array([p.branch_entropy for p in spec.phases])
    io_mean = np.array([p.io_rate for p in spec.phases])
    mix_table = np.array([p.mix for p in spec.phases], dtype=float)
    mix_tables = mix_table[None, :, :] * np.exp(mix_offset * 0.5)[:, None, :]
    mix_tables = np.maximum(mix_tables, 1e-6)
    mix_tables /= mix_tables.sum(axis=2, keepdims=True)

    pid = phase_ids
    off = cpu_offset[:, None]
    cpu = cpu_mean[pid] + off + cpu_noise * cpu_std[pid]
    bursts = burst_draw < burst_prob[pid]
    cpu = np.clip(cpu + bursts * burst_height[pid], 0.0, 1.0)

    gpu = np.clip(gpu_mean[pid] + 0.5 * off + gpu_noise, 0.0, 1.0)

    mix = mix_tables[np.arange(n_windows)[:, None], pid]

    working_set = np.exp(ws_log_mean[pid] + ws_offset[:, None] + ws_noise * ws_sigma[pid])
    branch_entropy = np.clip(be_mean[pid] + be_noise, 0.0, 1.0)
    io_rate = np.clip(io_mean[pid] + io_noise, 0.0, 1.0)

    return ActivityBatch(
        cpu_demand=cpu,
        gpu_demand=gpu,
        instr_mix=mix,
        working_set_kib=working_set,
        branch_entropy=branch_entropy,
        io_rate=io_rate,
        phase_id=phase_ids,
        dt=dt,
        names=(spec.name,) * n_windows,
    )


class WorkloadGenerator:
    """Turns a :class:`WorkloadSpec` into :class:`ActivityTrace` windows.

    Parameters
    ----------
    dt:
        Seconds per step.
    random_state:
        Seed / generator for reproducible traces.
    """

    def __init__(self, *, dt: float = 0.05, random_state: int | np.random.Generator | None = None):
        if dt <= 0:
            raise ValueError(f"dt must be positive; got {dt}.")
        self.dt = dt
        self.rng = check_random_state(random_state)

    def _phase_sequence(self, spec: WorkloadSpec, n_steps: int) -> np.ndarray:
        """Run the Markov phase machine and return per-step phase ids."""
        return _sample_phase_schedule(
            self.rng,
            n_steps,
            len(spec.phases),
            spec.transition_matrix(),
            np.array([p.mean_duration_steps for p in spec.phases], dtype=float),
            [p.dwell_cv for p in spec.phases],
        )

    def generate(self, spec: WorkloadSpec, n_steps: int) -> ActivityTrace:
        """Simulate ``n_steps`` of the application's phase machine.

        Per-step sampling is fully vectorised; only phase transitions
        run in Python.
        """
        if n_steps < 1:
            raise ValueError(f"n_steps must be >= 1; got {n_steps}.")
        rng = self.rng
        phase_ids = self._phase_sequence(spec, n_steps)

        # Persistent per-instance offsets (the "session personality").
        cpu_offset = rng.normal(scale=spec.app_jitter)
        ws_offset = rng.normal(scale=spec.app_jitter)
        mix_offset = rng.normal(scale=spec.app_jitter, size=len(INSTRUCTION_KINDS))

        # Per-phase parameter tables, indexed by the phase sequence.
        cpu_mean = np.array([p.cpu_mean for p in spec.phases])
        cpu_std = np.array([p.cpu_std for p in spec.phases])
        gpu_mean = np.array([p.gpu_mean for p in spec.phases])
        burst_prob = np.array([p.burst_prob for p in spec.phases])
        burst_height = np.array([p.burst_height for p in spec.phases])
        ws_log_mean = np.log([p.working_set_kib for p in spec.phases])
        ws_sigma = np.array([p.working_set_sigma for p in spec.phases])
        be_mean = np.array([p.branch_entropy for p in spec.phases])
        io_mean = np.array([p.io_rate for p in spec.phases])
        mix_table = np.array([p.mix for p in spec.phases], dtype=float)
        mix_table = mix_table * np.exp(mix_offset * 0.5)[None, :]
        mix_table = np.maximum(mix_table, 1e-6)
        mix_table /= mix_table.sum(axis=1, keepdims=True)

        cpu = cpu_mean[phase_ids] + cpu_offset + rng.normal(size=n_steps) * cpu_std[phase_ids]
        bursts = rng.random(n_steps) < burst_prob[phase_ids]
        cpu = np.clip(cpu + bursts * burst_height[phase_ids], 0.0, 1.0)

        gpu = gpu_mean[phase_ids] + 0.5 * cpu_offset + rng.normal(scale=0.03, size=n_steps)
        gpu = np.clip(gpu, 0.0, 1.0)

        mix = mix_table[phase_ids]

        working_set = np.exp(
            ws_log_mean[phase_ids] + ws_offset + rng.normal(size=n_steps) * ws_sigma[phase_ids]
        )
        branch_entropy = np.clip(be_mean[phase_ids] + rng.normal(scale=0.03, size=n_steps), 0.0, 1.0)
        io_rate = np.clip(io_mean[phase_ids] + rng.normal(scale=0.03, size=n_steps), 0.0, 1.0)

        return ActivityTrace(
            cpu_demand=cpu,
            gpu_demand=gpu,
            instr_mix=mix,
            working_set_kib=working_set,
            branch_entropy=branch_entropy,
            io_rate=io_rate,
            phase_id=phase_ids,
            dt=self.dt,
            name=spec.name,
        )

    def generate_batch(
        self, spec: WorkloadSpec, n_windows: int, n_steps: int
    ) -> ActivityBatch:
        """Generate ``n_windows`` independent windows as one tensor.

        Bitwise identical to ``n_windows`` successive :meth:`generate`
        calls (each window re-draws the session personality from the
        same stream, in the same order), but with all per-step
        arithmetic batched over the ``(n_windows, n_steps)`` plane.
        """
        if n_windows < 1:
            raise ValueError(f"n_windows must be >= 1; got {n_windows}.")
        if n_steps < 1:
            raise ValueError(f"n_steps must be >= 1; got {n_steps}.")
        return _generate_batch(spec, [self.rng] * n_windows, n_steps, self.dt)

    def generate_windows(
        self, spec: WorkloadSpec, n_windows: int, window_steps: int
    ) -> list[ActivityTrace]:
        """Generate ``n_windows`` independent windows of the application.

        Each window re-draws the session personality, modelling separate
        runs / devices contributing signatures for the same app.  Runs
        on the batched path; bitwise identical to
        :meth:`generate_windows_reference`.
        """
        if n_windows < 1:
            raise ValueError(f"n_windows must be >= 1; got {n_windows}.")
        return self.generate_batch(spec, n_windows, window_steps).windows()

    def generate_windows_reference(
        self, spec: WorkloadSpec, n_windows: int, window_steps: int
    ) -> list[ActivityTrace]:
        """Per-window reference for :meth:`generate_windows` (bitwise)."""
        if n_windows < 1:
            raise ValueError(f"n_windows must be >= 1; got {n_windows}.")
        return [self.generate(spec, window_steps) for _ in range(n_windows)]


@dataclass(frozen=True)
class FleetDevice:
    """One simulated device in a monitored fleet.

    Attributes
    ----------
    device_id:
        Unique identifier within the fleet (e.g. ``"dev-0042"``).
    spec:
        The application archetype the device is currently running.
    cohort:
        Population bucket: ``"benign"``, ``"malware"`` or ``"zero_day"``
        — the latter runs apps *outside* the HMD's training catalogue.
    """

    device_id: str
    spec: WorkloadSpec
    cohort: str

    _COHORTS = ("benign", "malware", "zero_day")

    def __post_init__(self) -> None:
        if self.cohort not in self._COHORTS:
            raise ValueError(
                f"cohort must be one of {self._COHORTS}; got {self.cohort!r}."
            )


class FleetPopulation:
    """Draw mixed benign/malware/zero-day device populations.

    Models the deployment the ROADMAP targets: a central monitor serving
    many devices, most of them clean, a small fraction infected with
    known malware families, and a sliver running workloads the HMD has
    never seen (new apps or new malware — the Fig. 6 "unknown" bucket).

    Parameters
    ----------
    benign_specs / malware_specs / zero_day_specs:
        Archetype pools for each cohort (e.g. the
        :mod:`repro.hmd.apps` DVFS catalogues).
    malware_fraction / zero_day_fraction:
        Expected cohort fractions; the remainder is benign.
    random_state:
        Seed / generator for reproducible fleets.
    """

    def __init__(
        self,
        benign_specs,
        malware_specs,
        zero_day_specs=(),
        *,
        malware_fraction: float = 0.05,
        zero_day_fraction: float = 0.02,
        random_state: int | np.random.Generator | None = None,
    ):
        self.benign_specs = tuple(benign_specs)
        self.malware_specs = tuple(malware_specs)
        self.zero_day_specs = tuple(zero_day_specs)
        if not self.benign_specs:
            raise ValueError("At least one benign spec is required.")
        if malware_fraction < 0 or zero_day_fraction < 0:
            raise ValueError("Cohort fractions must be non-negative.")
        if malware_fraction + zero_day_fraction > 1.0:
            raise ValueError("Cohort fractions must sum to <= 1.")
        if malware_fraction > 0 and not self.malware_specs:
            raise ValueError("malware_fraction > 0 needs malware_specs.")
        if zero_day_fraction > 0 and not self.zero_day_specs:
            raise ValueError("zero_day_fraction > 0 needs zero_day_specs.")
        self.malware_fraction = float(malware_fraction)
        self.zero_day_fraction = float(zero_day_fraction)
        self.rng = check_random_state(random_state)

    def sample(self, n_devices: int) -> tuple[FleetDevice, ...]:
        """Draw ``n_devices`` devices with deterministic cohort counts.

        Cohort sizes are ``round(fraction * n)``, bumped to at least
        one whenever the fraction is positive so small test fleets
        still contain every requested cohort — but never at the cost
        of the benign majority: at least one device stays benign, with
        the zero-day cohort clipped first when a tiny fleet cannot fit
        every cohort.
        """
        if n_devices < 1:
            raise ValueError(f"n_devices must be >= 1; got {n_devices}.")
        n_zero = self._cohort_count(self.zero_day_fraction, n_devices)
        n_mal = self._cohort_count(self.malware_fraction, n_devices)
        overflow = n_mal + n_zero - (n_devices - 1)
        if overflow > 0:
            clipped = min(overflow, n_zero)
            n_zero -= clipped
            n_mal -= overflow - clipped
        cohorts = (
            ["benign"] * (n_devices - n_mal - n_zero)
            + ["malware"] * n_mal
            + ["zero_day"] * n_zero
        )
        self.rng.shuffle(cohorts)
        pools = {
            "benign": self.benign_specs,
            "malware": self.malware_specs,
            "zero_day": self.zero_day_specs,
        }
        width = max(4, len(str(n_devices - 1)))
        return tuple(
            FleetDevice(
                device_id=f"dev-{i:0{width}d}",
                spec=pools[cohort][int(self.rng.integers(len(pools[cohort])))],
                cohort=cohort,
            )
            for i, cohort in enumerate(cohorts)
        )

    @staticmethod
    def _cohort_count(fraction: float, n_devices: int) -> int:
        if fraction <= 0:
            return 0
        return max(1, int(round(fraction * n_devices)))


def _root_entropy(random_state: int | np.random.Generator | None) -> int:
    """Root entropy of the per-device seed-derivation contract.

    An integer seed *is* the root entropy (so the contract is a pure
    function of the user-visible seed); ``None`` or a generator derive
    one fresh 63-bit value.
    """
    if isinstance(random_state, (int, np.integer)):
        return int(random_state)
    return int(check_random_state(random_state).integers(2**63))


class FleetTraceGenerator:
    """Interleaved activity-trace streams for a whole device fleet.

    Each device owns two independent RNG streams derived from the root
    seed and its ``device_id`` alone (see
    :func:`repro.sim.batch.device_seed_sequence`): a *trace* stream
    feeding its :class:`WorkloadGenerator` and a *duty* stream deciding
    whether it emits in a round.  A device's output is therefore
    invariant under fleet reordering, fleet subsetting, and how many
    windows are generated per call — the reproducibility contract the
    fleet tests pin.

    Traces are produced by the batched kernel one fleet-tensor per
    round (:meth:`stream_batch`); :meth:`stream` is a thin per-device
    wrapper over it and remains bitwise identical to the per-device
    reference loop (:meth:`stream_reference`).

    Parameters
    ----------
    devices:
        The fleet, e.g. from :meth:`FleetPopulation.sample`.
    dt:
        Seconds per simulation step.
    duty_cycle:
        Probability that a device emits a window in a given round.
    random_state:
        Root seed; per-device streams are spawned from it by device id.
    """

    def __init__(
        self,
        devices,
        *,
        dt: float = 0.05,
        duty_cycle: float = 1.0,
        random_state: int | np.random.Generator | None = None,
    ):
        self.devices = tuple(devices)
        if not self.devices:
            raise ValueError("At least one device is required.")
        if not 0.0 < duty_cycle <= 1.0:
            raise ValueError(f"duty_cycle must be in (0, 1]; got {duty_cycle}.")
        self.dt = dt
        self.duty_cycle = duty_cycle
        self.root_entropy = _root_entropy(random_state)
        self._generators = {
            device.device_id: WorkloadGenerator(
                dt=dt,
                random_state=np.random.default_rng(
                    device_seed_sequence(
                        self.root_entropy, device.device_id, stream=TRACE_STREAM
                    )
                ),
            )
            for device in self.devices
        }
        self._duty_rngs = {
            device.device_id: np.random.default_rng(
                device_seed_sequence(
                    self.root_entropy, device.device_id, stream=DUTY_STREAM
                )
            )
            for device in self.devices
        }

    def device_windows(
        self, device: FleetDevice, n_windows: int, window_steps: int
    ) -> list[ActivityTrace]:
        """All windows of one device (independent sessions)."""
        generator = self._generators[device.device_id]
        return generator.generate_windows(device.spec, n_windows, window_steps)

    def _emitting(self) -> list[FleetDevice]:
        """One round of duty decisions (consumes one duty draw per
        device when thinning is active)."""
        if self.duty_cycle >= 1.0:
            return list(self.devices)
        return [
            device
            for device in self.devices
            if self._duty_rngs[device.device_id].random() < self.duty_cycle
        ]

    def _round_batch(self, emitting, window_steps: int) -> ActivityBatch:
        """One fleet tensor: a window per emitting device, device order.

        Devices are grouped by workload spec so each group runs through
        the batched kernel once (with that group's per-device RNG
        streams), then the group rows scatter back into fleet order.
        """
        batch = ActivityBatch.empty(
            len(emitting),
            window_steps,
            self.dt,
            (device.spec.name for device in emitting),
        )
        groups: dict[int, list[int]] = {}
        for pos, device in enumerate(emitting):
            groups.setdefault(id(device.spec), []).append(pos)
        for positions in groups.values():
            spec = emitting[positions[0]].spec
            rngs = [self._generators[emitting[p].device_id].rng for p in positions]
            sub = _generate_batch(spec, rngs, window_steps, self.dt)
            batch.scatter(np.asarray(positions), sub)
        return batch

    def stream_batch(self, n_rounds: int, window_steps: int):
        """Yield ``(devices, batch)`` — one whole-fleet tensor per round.

        ``devices`` is the tuple of devices that emitted this round (in
        fleet order) and ``batch`` an :class:`ActivityBatch` whose row
        ``i`` is ``devices[i]``'s window.  The rows feed the substrate
        batch simulators — and, featurised, land in
        ``FleetMonitor.submit_many`` as one block per device with no
        per-window Python work.
        """
        if n_rounds < 1:
            raise ValueError(f"n_rounds must be >= 1; got {n_rounds}.")
        for _ in range(n_rounds):
            emitting = self._emitting()
            if not emitting:
                continue
            yield tuple(emitting), self._round_batch(emitting, window_steps)

    def stream(self, n_rounds: int, window_steps: int):
        """Yield ``(device, trace)`` events, round-robin over the fleet.

        Each round visits every device once; a device emits a window
        with probability ``duty_cycle``.  This is the arrival process
        the fleet monitor multiplexes into batches.  Implemented as a
        thin per-device wrapper over :meth:`stream_batch`; bitwise
        identical to :meth:`stream_reference`.
        """
        for devices, batch in self.stream_batch(n_rounds, window_steps):
            for i, device in enumerate(devices):
                yield device, batch.window(i)

    def stream_reference(self, n_rounds: int, window_steps: int):
        """Per-device reference loop for :meth:`stream` (bitwise oracle)."""
        if n_rounds < 1:
            raise ValueError(f"n_rounds must be >= 1; got {n_rounds}.")
        for _ in range(n_rounds):
            for device in self._emitting():
                generator = self._generators[device.device_id]
                yield device, generator.generate(device.spec, window_steps)


def blend_specs(
    malware: WorkloadSpec,
    benign: WorkloadSpec,
    stealth: float,
    *,
    name: str | None = None,
) -> WorkloadSpec:
    """Build a mimicry variant: malware interleaving benign-like phases.

    Models the evasion strategy studied by the adversarial-HMD
    literature (Khasawneh et al. ICCAD'18; Kuruvila et al.): the
    malicious payload still has to run, but the binary pads its
    schedule with phases imitating a benign application.

    Parameters
    ----------
    malware / benign:
        Source archetypes (labels 1 and 0 respectively).
    stealth:
        Fraction of time spent in the mimicked benign phases, in
        [0, 1).  0 = plain malware; 0.9 = payload squeezed into 10% of
        the schedule.
    name:
        Optional name for the blended spec.

    Returns
    -------
    A new spec labelled **malware** (the payload is still there) whose
    phase machine spends ``stealth`` of its time in the benign phases.
    """
    if malware.label != 1 or benign.label != 0:
        raise ValueError("blend_specs expects (malware, benign) source specs.")
    if not 0.0 <= stealth < 1.0:
        raise ValueError(f"stealth must be in [0, 1); got {stealth}.")

    phases = malware.phases + benign.phases
    n_mal = len(malware.phases)
    n_ben = len(benign.phases)
    mal_matrix = malware.transition_matrix()
    ben_matrix = benign.transition_matrix()

    n = n_mal + n_ben
    matrix = np.zeros((n, n))
    # Within-group dynamics preserved; cross-group mass set by stealth.
    matrix[:n_mal, :n_mal] = (1.0 - stealth) * mal_matrix
    matrix[:n_mal, n_mal:] = stealth / n_ben
    matrix[n_mal:, n_mal:] = stealth * ben_matrix
    matrix[n_mal:, :n_mal] = (1.0 - stealth) / n_mal
    matrix /= matrix.sum(axis=1, keepdims=True)

    return WorkloadSpec(
        name=name if name is not None else f"{malware.name}_mimic_{benign.name}",
        label=1,
        family=f"mimicry_{malware.family}",
        phases=phases,
        transitions=tuple(tuple(row) for row in matrix),
        app_jitter=malware.app_jitter,
    )
