"""Tests for the fleet's window accounting vocabulary.

The bounded :class:`QuarantineStore` keeps a lifetime count and every
quarantined key, and :func:`account_windows` is the exactly-once audit
over verdicts, quarantine and shed counts.  The engine-level path (a
non-finite window quarantined mid-drain) is tested in
``tests/fleet/test_quantized.py::TestNonFiniteInput``.
"""

import numpy as np

from repro.fleet import QuarantinedWindow, QuarantineStore, account_windows


def _window(i):
    return QuarantinedWindow(
        device_id=f"dev-{i:03d}",
        seq=i,
        features=np.zeros(3),
        reason="test",
    )


class TestQuarantineStore:
    def test_bounded_with_lifetime_accounting(self):
        store = QuarantineStore(maxlen=4)
        for i in range(10):
            store.push(_window(i))
        assert len(store) == 4
        assert store.total_quarantined == 10
        retained = [w.seq for w in store.snapshot()]
        assert retained == [6, 7, 8, 9]  # oldest evicted first
        # Keys survive eviction — accounting never loses a window.
        assert store.keys() == {(f"dev-{i:03d}", i) for i in range(10)}

    def test_account_windows_flags_silent_loss(self):
        submitted = {("dev-a", 0), ("dev-a", 1), ("dev-b", 0)}
        verdicts = {("dev-a", 0)}
        quarantined = {("dev-b", 0)}
        assert account_windows(submitted, verdicts, quarantined) == [
            ("dev-a", 1)
        ]
        assert account_windows(submitted, verdicts, quarantined, shed=1) == []
        assert account_windows(submitted, submitted, set()) == []
