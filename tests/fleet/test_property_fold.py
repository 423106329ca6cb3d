"""Property test: the columnar device-table fold equals the per-device loop.

``_DeviceTable._fold`` folds a verdict batch into int64/float64 columns
and one ``(devices, entropy_window)`` ring array with no loop over
devices; ``tests.oracles.device_fold.fold_per_device`` is the loop it
replaced (``np.sum`` per ordered segment, ``RingBuffer.extend`` per
device).  Hypothesis draws the ring capacity, the per-device segment
lengths of each batch — around numpy's pairwise-sum block edge (7, 8,
9) and at or past the ring capacity — how the rows interleave, and the
entropy dtype, and requires every counter, ``entropy_sum``, the ring
storage/head/size, ``recent_entropy`` and ``last_step`` to agree
bitwise after every batch.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fleet import BackpressurePolicy, DeviceState, RingBuffer
from repro.fleet.engine import _DeviceTable
from tests.oracles.device_fold import fold_per_device

SEGMENT_LENGTHS = st.sampled_from([0, 1, 2, 7, 8, 9, 15, 16, 17, 33]) | st.integers(0, 70)


@st.composite
def fold_streams(draw):
    window = draw(st.sampled_from([1, 3, 8, 16, 32]))
    n_devices = draw(st.integers(1, 6))
    batches = draw(
        st.lists(
            st.lists(SEGMENT_LENGTHS, min_size=n_devices, max_size=n_devices).filter(
                any
            ),
            min_size=1,
            max_size=6,
        )
    )
    dtype = draw(st.sampled_from([np.float64, np.float32]))
    seed = draw(st.integers(0, 2**32 - 1))
    return window, n_devices, batches, dtype, seed


def _bits(value) -> bytes:
    return np.asarray(value, dtype=np.float64).tobytes()


@settings(max_examples=150, deadline=None)
@given(fold_streams())
def test_columnar_fold_matches_per_device_loop(stream):
    window, n_devices, batches, dtype, seed = stream
    rng = np.random.default_rng(seed)
    table = _DeviceTable(BackpressurePolicy(), window)
    oracle = []
    for d in range(n_devices):
        assert table.register(f"dev-{d}") == d
        oracle.append(DeviceState(device_id=f"dev-{d}", entropy_recent=RingBuffer(window)))
    step = 0
    for lengths in batches:
        device_index = np.repeat(np.arange(n_devices, dtype=np.int64), lengths)
        rng.shuffle(device_index)  # devices interleave within the batch
        n = len(device_index)
        # Magnitudes spread over six decades, so summation order shows.
        entropy = (rng.random(n) * 10.0 ** rng.integers(-3, 3, n)).astype(dtype)
        predictions = rng.integers(0, 2, n)
        accepted = rng.random(n) < 0.6

        base_step = table._fold(device_index, predictions, entropy, accepted)
        assert base_step == step
        fold_per_device(oracle, device_index, predictions, entropy, accepted, step)
        step += n

        for d, expected in enumerate(oracle):
            row = table.row(d)
            for name, value in expected.stats.snapshot().items():
                assert _bits(row["stats"][name]) == _bits(value), name
            assert row["last_step"] == expected.last_step
            ring, expected_ring = row["entropy_recent"], expected.entropy_recent.snapshot()
            assert ring["data"].tobytes() == expected_ring["data"].tobytes()
            assert (ring["head"], ring["size"]) == (
                expected_ring["head"],
                expected_ring["size"],
            )
            view = table.devices[f"dev-{d}"]
            assert _bits(view.recent_entropy) == _bits(expected.recent_entropy)
            assert view.stats == expected.stats
