"""Tests for ring buffers and per-device state."""

import numpy as np
import pytest

from repro.fleet import DeviceState, RingBuffer


class TestRingBuffer:
    def test_push_below_capacity(self):
        buf = RingBuffer(4)
        buf.push(1.0)
        buf.push(2.0)
        np.testing.assert_allclose(buf.values(), [1.0, 2.0])
        assert len(buf) == 2

    def test_wraps_and_evicts_oldest(self):
        buf = RingBuffer(3)
        for v in (1, 2, 3, 4, 5):
            buf.push(v)
        np.testing.assert_allclose(buf.values(), [3.0, 4.0, 5.0])
        assert len(buf) == 3

    def test_extend_vectorised(self):
        buf = RingBuffer(4)
        buf.extend([1.0, 2.0, 3.0])
        buf.extend([4.0, 5.0])
        np.testing.assert_allclose(buf.values(), [2.0, 3.0, 4.0, 5.0])

    def test_extend_larger_than_capacity(self):
        buf = RingBuffer(3)
        buf.extend(np.arange(10.0))
        np.testing.assert_allclose(buf.values(), [7.0, 8.0, 9.0])

    def test_extend_matches_push_sequence(self):
        rng = np.random.default_rng(0)
        values = rng.random(57)
        pushed, extended = RingBuffer(16), RingBuffer(16)
        for v in values:
            pushed.push(v)
        for chunk in np.array_split(values, 9):
            extended.extend(chunk)
        np.testing.assert_array_equal(pushed.values(), extended.values())

    def test_mean_and_empty(self):
        buf = RingBuffer(8)
        assert buf.mean() == 0.0
        buf.extend([1.0, 3.0])
        assert buf.mean() == pytest.approx(2.0)

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            RingBuffer(0)


class TestDeviceState:
    def test_record_bulk_counters(self):
        """The derived rates read the bulk-recorded counters and ring."""
        state = DeviceState(device_id="dev-0", entropy_recent=RingBuffer(8))
        predictions = np.array([1, 0, 1, 1])
        entropy = np.array([0.1, 0.2, 0.9, 0.3])
        accepted = np.array([True, True, False, True])
        state.stats.record_verdicts(predictions, entropy, accepted)
        state.entropy_recent.extend(entropy)
        state.last_step = 4
        assert state.n_seen == 4
        assert state.n_accepted == 3
        assert state.n_flagged == 1
        assert state.n_malware_alerts == 2  # accepted & predicted malware
        assert state.rejection_rate == pytest.approx(0.25)
        assert state.alert_rate == pytest.approx(2 / 3)
        assert state.mean_entropy == pytest.approx(np.mean(entropy))
        assert state.recent_entropy == pytest.approx(np.mean(entropy))
        assert state.last_step == 4

    def test_rates_zero_when_unseen(self):
        state = DeviceState(device_id="dev-0")
        assert state.rejection_rate == 0.0
        assert state.alert_rate == 0.0
        assert state.mean_entropy == 0.0
