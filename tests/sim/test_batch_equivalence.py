"""Bitwise fuzz gates: batched simulator paths vs. the per-step reference.

The vectorized backend (``generate_batch`` / ``run_batch``) promises
*bitwise identity* with the retained per-step reference paths
(``generate`` / ``run``): the batched kernels consume the RNG
stream window-by-window in the reference order and keep every remaining
operation elementwise, so no float changes.  These tests fuzz that
promise across phase counts, window lengths (including ``n_steps=1``),
channel counts, governors, dt ratios and seeds.

Where a reduction order *would* have to change there is a drift-gated
(≤ 1e-9) variant instead — currently nothing needs it, and the
downstream check pins that: features extracted from both paths drift by
exactly 0.0 and the trusted-HMD verdicts are unchanged.
"""

import numpy as np
import pytest

from repro.ml import RandomForestClassifier
from repro.hmd.features import DvfsFeatureExtractor
from repro.sim import (
    ActivityBatch,
    ConservativeGovernor,
    DvfsChannelConfig,
    HpcSimulator,
    OndemandGovernor,
    PerformanceGovernor,
    SocConfig,
    SocSimulator,
    WorkloadGenerator,
    WorkloadPhase,
    WorkloadSpec,
)
from repro.uncertainty import TrustedHMD

# --------------------------------------------------------------------------
# fuzz material
# --------------------------------------------------------------------------


def _spec(n_phases, *, dwell_cv=None, jitter=0.05, seed=0):
    """A random-ish but deterministic spec with ``n_phases`` phases."""
    rng = np.random.default_rng(seed)
    phases = tuple(
        WorkloadPhase(
            f"p{i}",
            cpu_mean=float(rng.uniform(0.05, 0.95)),
            cpu_std=float(rng.uniform(0.01, 0.1)),
            gpu_mean=float(rng.uniform(0.0, 0.4)),
            burst_prob=float(rng.uniform(0.0, 0.2)),
            burst_height=float(rng.uniform(0.0, 0.4)),
            working_set_kib=float(rng.uniform(64, 4096)),
            io_rate=float(rng.uniform(0.0, 0.5)),
            mean_duration_steps=int(rng.integers(1, 40)),
            dwell_cv=dwell_cv,
        )
        for i in range(n_phases)
    )
    transitions = None
    if n_phases > 1:
        matrix = rng.uniform(0.05, 1.0, size=(n_phases, n_phases))
        matrix /= matrix.sum(axis=1, keepdims=True)
        transitions = tuple(tuple(row) for row in matrix)
    return WorkloadSpec(
        name=f"fuzz-{n_phases}-{seed}",
        label=0,
        family="fuzz",
        phases=phases,
        transitions=transitions,
        app_jitter=jitter,
    )


def _assert_traces_equal(batch_window, reference):
    """Bitwise equality of an activity window against a reference trace."""
    for attr in (
        "cpu_demand",
        "gpu_demand",
        "instr_mix",
        "working_set_kib",
        "branch_entropy",
        "io_rate",
        "phase_id",
    ):
        np.testing.assert_array_equal(
            getattr(batch_window, attr), getattr(reference, attr), err_msg=attr
        )
    assert batch_window.dt == reference.dt
    assert batch_window.name == reference.name


# --------------------------------------------------------------------------
# workload generation
# --------------------------------------------------------------------------


class TestWorkloadBatchEquivalence:
    @pytest.mark.parametrize("n_phases", [1, 2, 3, 5])
    @pytest.mark.parametrize("n_steps", [1, 2, 37, 240])
    def test_generate_batch_bitwise(self, n_phases, n_steps):
        for seed in (0, 7, 123):
            spec = _spec(n_phases, seed=seed)
            reference = WorkloadGenerator(random_state=seed)
            batched = WorkloadGenerator(random_state=seed)
            n_windows = 5
            expected = [reference.generate(spec, n_steps) for _ in range(n_windows)]
            batch = batched.generate_batch(spec, n_windows, n_steps)
            assert batch.n_windows == n_windows and batch.n_steps == n_steps
            for i, ref in enumerate(expected):
                _assert_traces_equal(batch.window(i), ref)

    def test_generate_batch_timer_driven_dwells(self):
        # dwell_cv != None exercises the normal-dwell branch of the
        # shared phase machine (malware-style rigid cadence).
        spec = _spec(3, dwell_cv=0.05, seed=11)
        reference = WorkloadGenerator(random_state=42)
        batched = WorkloadGenerator(random_state=42)
        expected = [reference.generate(spec, 120) for _ in range(8)]
        batch = batched.generate_batch(spec, 8, 120)
        for i, ref in enumerate(expected):
            _assert_traces_equal(batch.window(i), ref)

    def test_generate_windows_matches_reference_path(self):
        spec = _spec(2, seed=3)
        a = WorkloadGenerator(random_state=9)
        b = WorkloadGenerator(random_state=9)
        fast = a.generate_windows(spec, 6, 80)
        slow = b.generate_windows_reference(spec, 6, 80)
        for f, s in zip(fast, slow):
            _assert_traces_equal(f, s)

    def test_rng_stream_advances_identically(self):
        # After generating, both paths must leave the generator in the
        # same stream position — the property that lets callers mix
        # batched and per-window calls freely.
        spec = _spec(2, seed=5)
        a = WorkloadGenerator(random_state=1)
        b = WorkloadGenerator(random_state=1)
        a.generate_batch(spec, 4, 50)
        for _ in range(4):
            b.generate(spec, 50)
        assert a.rng.integers(2**63) == b.rng.integers(2**63)

    def test_choice_vs_cdf_searchsorted_pin(self):
        # The phase machine replaces ``rng.choice(n, p=row)`` with one
        # uniform inverted through the row CDF.  Pin the bitwise
        # equivalence (and the single-draw stream consumption) that
        # substitution relies on.
        rng = np.random.default_rng(0)
        for trial in range(200):
            n = int(rng.integers(1, 7))
            p = rng.uniform(0.0, 1.0, size=n) + 1e-12
            p /= p.sum()
            cdf = p.cumsum()
            cdf /= cdf[-1]
            a = np.random.default_rng(trial)
            b = np.random.default_rng(trial)
            via_choice = int(a.choice(n, p=p))
            via_cdf = int(cdf.searchsorted(b.random(), side="right"))
            assert via_choice == via_cdf
            assert a.integers(2**63) == b.integers(2**63)

    def test_clip_is_max_then_min_pin(self):
        # The batched kernels compose clipping as maximum-then-minimum
        # in place; pin that this is bitwise np.clip.
        rng = np.random.default_rng(4)
        x = rng.normal(size=(64, 64)) * 2.0
        via_clip = np.clip(x, 0.0, 1.0)
        y = x.copy()
        np.maximum(y, 0.0, out=y)
        np.minimum(y, 1.0, out=y)
        np.testing.assert_array_equal(via_clip, y)


# --------------------------------------------------------------------------
# SoC DVFS simulation
# --------------------------------------------------------------------------

_SMALL_SOC = SocConfig(
    channels=(
        DvfsChannelConfig(
            name="cpu",
            frequencies_mhz=(200.0, 600.0, 1200.0, 1800.0),
            voltages_v=(0.6, 0.7, 0.85, 1.0),
            demand_share=1.0,
        ),
    ),
)

_TWO_CHANNEL_SOC = SocConfig(
    channels=(
        DvfsChannelConfig(
            name="cpu_big",
            frequencies_mhz=(300.0, 900.0, 1600.0, 2100.0, 2600.0),
            voltages_v=(0.55, 0.65, 0.8, 0.9, 1.05),
            demand_share=0.7,
        ),
        DvfsChannelConfig(
            name="cpu_little",
            frequencies_mhz=(300.0, 700.0, 1100.0),
            voltages_v=(0.55, 0.62, 0.72),
            demand_share=0.3,
            background_util=0.05,
        ),
    ),
    # Low throttle point so the fuzz windows actually exercise the
    # thermal-cap branch of both paths.
    throttle_temp_c=40.0,
)


class _StubbornGovernor:
    """A custom governor with no ``next_state_batch`` — exercises the
    scalar fallback of the batched scan."""

    def next_state(self, state, utilization, channel):
        if utilization > 0.9:
            return channel.n_states - 1
        if utilization < 0.2 and state > 0:
            return state - 1
        return state


def _activity_batch(n_windows, n_steps, seed=0):
    spec = _spec(3, seed=seed)
    return WorkloadGenerator(random_state=seed).generate_batch(
        spec, n_windows, n_steps
    )


class TestSocBatchEquivalence:
    @pytest.mark.parametrize(
        "governor_factory",
        [
            OndemandGovernor,
            ConservativeGovernor,
            PerformanceGovernor,
            _StubbornGovernor,
        ],
    )
    @pytest.mark.parametrize("config", [None, _SMALL_SOC, _TWO_CHANNEL_SOC])
    def test_run_batch_bitwise(self, governor_factory, config):
        batch = _activity_batch(6, 90, seed=17)
        kwargs = {} if config is None else {"config": config}
        reference = SocSimulator(
            governor=governor_factory(), random_state=5, **kwargs
        )
        batched = SocSimulator(
            governor=governor_factory(), random_state=5, **kwargs
        )
        expected = [reference.run(w) for w in batch.windows()]
        result = batched.run_batch(batch)
        assert result.n_windows == batch.n_windows
        for i, ref in enumerate(expected):
            np.testing.assert_array_equal(result.window(i).states, ref.states)
            np.testing.assert_array_equal(
                result.window(i).temperature_c, ref.temperature_c
            )

    @pytest.mark.parametrize("n_steps", [1, 2, 240])
    def test_run_batch_window_lengths(self, n_steps):
        batch = _activity_batch(4, n_steps, seed=2)
        reference = SocSimulator(random_state=1)
        batched = SocSimulator(random_state=1)
        expected = [reference.run(w) for w in batch.windows()]
        result = batched.run_batch(batch)
        for i, ref in enumerate(expected):
            np.testing.assert_array_equal(result.window(i).states, ref.states)
            np.testing.assert_array_equal(
                result.window(i).temperature_c, ref.temperature_c
            )

    def test_run_batch_per_window_rngs(self):
        # Fleet use: one generator per window means window i is bitwise
        # what a dedicated simulator seeded the same way would produce.
        batch = _activity_batch(5, 60, seed=9)
        batched = SocSimulator(random_state=0)
        result = batched.run_batch(
            batch, rngs=[np.random.default_rng(100 + w) for w in range(5)]
        )
        for w in range(5):
            solo = SocSimulator(random_state=np.random.default_rng(100 + w))
            ref = solo.run(batch.window(w))
            np.testing.assert_array_equal(result.window(w).states, ref.states)
            np.testing.assert_array_equal(
                result.window(w).temperature_c, ref.temperature_c
            )

    def test_run_batch_rejects_mismatched_rngs(self):
        batch = _activity_batch(3, 20)
        with pytest.raises(ValueError, match="rngs"):
            SocSimulator().run_batch(batch, rngs=[np.random.default_rng(0)])

    def test_throttling_actually_engaged(self):
        # Guard against the throttle branch silently never firing in
        # the fuzz above.
        batch = _activity_batch(4, 120, seed=17)
        result = SocSimulator(config=_TWO_CHANNEL_SOC, random_state=5).run_batch(
            batch
        )
        assert (result.temperature_c > _TWO_CHANNEL_SOC.throttle_temp_c).any()


# --------------------------------------------------------------------------
# HPC counter synthesis
# --------------------------------------------------------------------------


class TestHpcBatchEquivalence:
    @pytest.mark.parametrize("dt", [0.1, 0.07])  # integer and fractional
    @pytest.mark.parametrize("n_steps", [1, 11, 200])
    def test_run_batch_bitwise(self, dt, n_steps):
        batch = _activity_batch(5, n_steps, seed=23)
        reference = HpcSimulator(dt=dt, random_state=3)
        batched = HpcSimulator(dt=dt, random_state=3)
        expected = [reference.run(w) for w in batch.windows()]
        result = batched.run_batch(batch)
        assert result.n_windows == batch.n_windows
        for i, ref in enumerate(expected):
            np.testing.assert_array_equal(
                result.window(i).counters, ref.counters
            )

    def test_as_matrix_is_window_concat(self):
        batch = _activity_batch(3, 40, seed=1)
        result = HpcSimulator(random_state=0).run_batch(batch)
        stacked = np.vstack([w.counters for w in result.windows()])
        np.testing.assert_array_equal(result.as_matrix(), stacked)


# --------------------------------------------------------------------------
# downstream: features and verdicts (fig. 5 style)
# --------------------------------------------------------------------------


class TestDownstreamVerdicts:
    def test_feature_drift_zero_and_verdicts_unchanged(self):
        # Features from both simulator paths must drift by exactly 0.0,
        # so any trusted-HMD verdict computed on top is unchanged.
        window_steps = 120
        n_windows = 16
        spec_b = _spec(3, seed=31)
        spec_m = _spec(3, dwell_cv=0.05, seed=32)
        extractor = DvfsFeatureExtractor()

        rows = {"reference": [], "batched": []}
        for spec in (spec_b, spec_m):
            gen_ref = WorkloadGenerator(random_state=77)
            soc_ref = SocSimulator(random_state=78)
            for _ in range(n_windows):
                trace = soc_ref.run(gen_ref.generate(spec, window_steps))
                rows["reference"].append(extractor.extract(trace))

            gen_fast = WorkloadGenerator(random_state=77)
            soc_fast = SocSimulator(random_state=78)
            activity = gen_fast.generate_batch(spec, n_windows, window_steps)
            dvfs = soc_fast.run_batch(activity)
            X = extractor.extract_windows(
                dvfs.as_trace(name=spec.name), window_steps
            )
            rows["batched"].extend(X)

        X_ref = np.asarray(rows["reference"])
        X_fast = np.asarray(rows["batched"])
        drift = np.abs(X_ref - X_fast).max()
        assert drift == 0.0, f"feature drift {drift} exceeds the bitwise gate"

        y = np.repeat([0, 1], n_windows)
        hmd = TrustedHMD(
            RandomForestClassifier(n_estimators=12, random_state=0),
            threshold=0.40,
        ).fit(X_ref, y)
        verdict_ref = hmd.analyze(X_ref)
        verdict_fast = hmd.analyze(X_fast)
        np.testing.assert_array_equal(
            verdict_ref.predictions, verdict_fast.predictions
        )
        np.testing.assert_array_equal(verdict_ref.entropy, verdict_fast.entropy)
        np.testing.assert_array_equal(
            verdict_ref.accepted, verdict_fast.accepted
        )
