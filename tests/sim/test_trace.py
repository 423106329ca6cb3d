"""Tests for the trace containers."""

import numpy as np
import pytest

from repro.sim import ActivityTrace, DvfsTrace, HpcTrace


def _activity(n=20, dt=0.05):
    return ActivityTrace(
        cpu_demand=np.linspace(0, 1, n),
        gpu_demand=np.zeros(n),
        instr_mix=np.tile([0.5, 0.2, 0.2, 0.1], (n, 1)),
        working_set_kib=np.full(n, 512.0),
        branch_entropy=np.full(n, 0.3),
        io_rate=np.zeros(n),
        phase_id=np.zeros(n, dtype=int),
        dt=dt,
        name="probe",
    )


class TestActivityTrace:
    def test_basic_properties(self):
        trace = _activity(30, dt=0.1)
        assert trace.n_steps == 30
        assert trace.duration == pytest.approx(3.0)

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError, match="length"):
            ActivityTrace(
                cpu_demand=np.zeros(5),
                gpu_demand=np.zeros(5),
                instr_mix=np.zeros((4, 4)),
                working_set_kib=np.zeros(5),
                branch_entropy=np.zeros(5),
                io_rate=np.zeros(5),
                phase_id=np.zeros(5, dtype=int),
            )

    def test_bad_mix_shape_raises(self):
        with pytest.raises(ValueError, match="instr_mix"):
            ActivityTrace(
                cpu_demand=np.zeros(5),
                gpu_demand=np.zeros(5),
                instr_mix=np.zeros((5, 3)),
                working_set_kib=np.zeros(5),
                branch_entropy=np.zeros(5),
                io_rate=np.zeros(5),
                phase_id=np.zeros(5, dtype=int),
            )

    def test_nonpositive_dt_raises(self):
        with pytest.raises(ValueError, match="dt"):
            _activity(dt=0.0)

    def test_slice(self):
        trace = _activity(20)
        sub = trace.slice(5, 15)
        assert sub.n_steps == 10
        np.testing.assert_array_equal(sub.cpu_demand, trace.cpu_demand[5:15])

    def test_slice_bounds_checked(self):
        trace = _activity(10)
        with pytest.raises(ValueError):
            trace.slice(5, 50)
        with pytest.raises(ValueError):
            trace.slice(8, 3)


class TestDvfsTrace:
    def _trace(self):
        return DvfsTrace(
            states=np.zeros((10, 2), dtype=int),
            frequencies_mhz=((100.0, 200.0), (300.0, 400.0, 500.0)),
            channel_names=("a", "b"),
            temperature_c=np.full(10, 40.0),
        )

    def test_shape_properties(self):
        trace = self._trace()
        assert trace.n_steps == 10
        assert trace.n_channels == 2
        assert trace.n_states(0) == 2
        assert trace.n_states(1) == 3

    def test_frequency_decoding(self):
        trace = self._trace()
        trace.states[:, 1] = 2
        freqs = trace.frequency_mhz()
        np.testing.assert_allclose(freqs[:, 0], 100.0)
        np.testing.assert_allclose(freqs[:, 1], 500.0)

    def test_channel_count_mismatch_raises(self):
        with pytest.raises(ValueError):
            DvfsTrace(
                states=np.zeros((5, 3), dtype=int),
                frequencies_mhz=((1.0, 2.0),),
                channel_names=("a", "b"),
                temperature_c=np.zeros(5),
            )

    def test_temperature_length_mismatch_raises(self):
        with pytest.raises(
            ValueError, match="temperature_c has 470 steps but states has 480"
        ):
            DvfsTrace(
                states=np.zeros((480, 2), dtype=int),
                frequencies_mhz=((1.0, 2.0), (1.0, 2.0)),
                channel_names=("a", "b"),
                temperature_c=np.full(470, 40.0),
            )


class TestHpcTrace:
    def _trace(self):
        return HpcTrace(
            counters=np.arange(12.0).reshape(4, 3),
            counter_names=("instructions", "cycles", "branch_misses"),
        )

    def test_column_lookup(self):
        trace = self._trace()
        np.testing.assert_array_equal(trace.column("cycles"), [1.0, 4.0, 7.0, 10.0])

    def test_unknown_column_raises(self):
        with pytest.raises(KeyError):
            self._trace().column("nonexistent")

    def test_negative_counters_rejected(self):
        with pytest.raises(ValueError):
            HpcTrace(
                counters=np.array([[-1.0]]),
                counter_names=("instructions",),
            )

    def test_n_intervals(self):
        assert self._trace().n_intervals == 4
