"""Backpressure fuzz across round sizes: with per-device caps tripping
and drains interleaved with submits, a monitor at ``batch_size`` and one
at three times it shed and serve the same rows under either drop mode.

Fixtures and arrival helpers are shared with ``test_verdict_path.py``.
"""

import pytest

from repro.fleet import BackpressurePolicy, FleetMonitor
from repro.fleet.engine import batch_verdict_key
from tests.fleet.test_verdict_path import (  # noqa: F401 (fitted_hmd is a fixture)
    _arrivals,
    fitted_hmd,
)


class TestBatchSizeEquivalence:
    @pytest.mark.parametrize("shed", ["drop_oldest", "drop_newest"])
    def test_drop_modes_with_interleaved_drains(self, fitted_hmd, shed):
        """Backpressure fuzz: submit/drain interleave, caps tripping."""
        X, y, hmd = fitted_hmd
        policy = BackpressurePolicy(
            max_pending=10_000, max_pending_per_device=4, shed=shed
        )
        arrivals = _arrivals(X, n_devices=8, rounds=24, seed=13)
        results = {}
        for batch_size in (32, 96):
            monitor = FleetMonitor(hmd, batch_size=batch_size, policy=policy)
            batches = []
            for i, (device_id, window) in enumerate(arrivals):
                monitor.submit(device_id, window)
                if i % 40 == 39:
                    result = monitor.process_batch()
                    if result is not None:
                        batches.append(result)
            batches.extend(monitor.drain())
            results[batch_size] = batches
        # The per-device caps keep at most 32 rows queued between
        # rounds, so both round sizes drain the same rows mid-stream.
        assert batch_verdict_key(results[96]) == batch_verdict_key(results[32])
