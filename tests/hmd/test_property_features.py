"""Property test: the one-pass DVFS featurizer equals its reference.

``DvfsFeatureExtractor.extract_windows`` computes every channel of every
window in one pass; ``extract_windows_reference`` loops over windows
and channels.  Hypothesis draws the trace shape (channels, per-channel
state counts, window length, window count, a partial trailing window)
and the signal (per-channel switching probability, from constant to
switching every step) and requires the two to agree bitwise.  The
first test runs the native kernel wherever it is built; its ``_numpy``
twin runs the numpy kernel.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.hmd import DvfsFeatureExtractor
from repro.sim import DvfsTrace


@st.composite
def dvfs_traces(draw):
    cardinalities = draw(st.lists(st.integers(1, 8), min_size=1, max_size=4))
    window_steps = draw(st.integers(2, 260))
    n_windows = draw(st.integers(1, 12))
    n_steps = window_steps * n_windows + draw(st.integers(0, window_steps - 1))
    switch_p = draw(
        st.lists(
            st.sampled_from([0.0, 0.02, 0.2, 1.0]),
            min_size=len(cardinalities),
            max_size=len(cardinalities),
        )
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    steps = np.arange(n_steps)
    columns = []
    for k, p in zip(cardinalities, switch_p):
        # Hold each drawn state until the next switch: p = 0 is a
        # constant channel, p = 1 draws a fresh state every step.
        switch = rng.random(n_steps) < p
        switch[0] = True
        held = np.maximum.accumulate(np.where(switch, steps, 0))
        columns.append(rng.integers(0, k, n_steps)[held])
    trace = DvfsTrace(
        states=np.column_stack(columns),
        frequencies_mhz=tuple(
            tuple(100.0 * (i + 1) for i in range(k)) for k in cardinalities
        ),
        channel_names=tuple(f"ch{i}" for i in range(len(cardinalities))),
        temperature_c=rng.normal(40.0, 3.0, n_steps),
    )
    return trace, window_steps, n_windows


def check_equals_reference(case):
    trace, window_steps, n_windows = case
    extractor = DvfsFeatureExtractor()
    batched = extractor.extract_windows(trace, window_steps)
    reference = extractor.extract_windows_reference(trace, window_steps)
    assert batched.shape == (n_windows, len(extractor.feature_names(trace)))
    assert np.array_equal(batched, reference)


@given(case=dvfs_traces())
@settings(max_examples=200, deadline=None)
def test_extract_windows_equals_reference_bitwise(case):
    check_equals_reference(case)


# The fixture only clears the library handle, which every example
# should see cleared, so sharing it across examples is intended.
@pytest.mark.usefixtures("numpy_kernel")
@given(case=dvfs_traces())
@settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_extract_windows_equals_reference_bitwise_numpy(case):
    check_equals_reference(case)
