"""The native DVFS featurization against the numpy kernel it replaces.

``DvfsFeatureExtractor.extract_windows`` runs ``_features.c`` when the
loader built it and the operands fit it, and the numpy kernel
otherwise; the two must return the same bits.  The property test draws
state dtypes, strided state views, window lengths on both sides of the
pairwise-summation block (128) and of its multiples of 8, cardinalities
above 256, constant channels and NaN, ±inf and -0.0 temperatures.  The
rest pin which kernel serves (a trap handle, a float32 or strided or
short temperature, a dtype with no entry, unaligned states), that
unsigned states featurize as int64 ones under both, and that a bad
state raises the same error under both.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hmd import DvfsFeatureExtractor
from repro.ml import _native
from repro.sim import DvfsTrace
from tests.conftest import Spy, Trap

needs_native = pytest.mark.skipif(
    _native.library() is None, reason="no C compiler: only numpy can serve"
)

STATE_DTYPES = [np.int8, np.int16, np.int32, np.int64, np.uint8]


def run(handle, trace, window_steps):
    """``extract_windows`` with the library handle set to ``handle``."""
    saved = _native._handle
    _native._handle = handle
    try:
        with np.errstate(invalid="ignore", over="ignore"):
            return DvfsFeatureExtractor().extract_windows(trace, window_steps)
    finally:
        _native._handle = saved


def assert_bitwise(got, want):
    """Equal bits, except that a NaN only has to meet a NaN: which of two
    NaN operands an add returns depends on the instruction order, so the
    sign of a NaN sum is not pinned."""
    assert got.shape == want.shape and got.dtype == want.dtype
    nan = np.isnan(got)
    np.testing.assert_array_equal(nan, np.isnan(want))
    np.testing.assert_array_equal(
        got.view(np.uint64)[~nan], want.view(np.uint64)[~nan]
    )


def make_trace(states, temperature, cardinalities=None):
    if cardinalities is None:
        cardinalities = [int(column.max()) + 1 for column in states.T]
    return DvfsTrace(
        states=states,
        frequencies_mhz=tuple(tuple(range(1, k + 1)) for k in cardinalities),
        channel_names=tuple(f"ch{c}" for c in range(len(cardinalities))),
        temperature_c=temperature,
    )


@st.composite
def native_cases(draw):
    dtype = np.dtype(draw(st.sampled_from(STATE_DTYPES)))
    top = min(int(np.iinfo(dtype).max) + 1, 700)
    cardinalities = draw(
        st.lists(
            st.one_of(st.integers(1, 9), st.integers(1, top)),
            min_size=1,
            max_size=4,
        )
    )
    window_steps = draw(
        st.one_of(
            st.integers(2, 24),
            st.sampled_from([127, 128, 129, 136, 241, 256, 257, 263, 1023, 1024]),
            st.integers(2, 1030),
        )
    )
    n_windows = draw(st.integers(1, 4))
    n_steps = window_steps * n_windows + draw(st.integers(0, window_steps - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    steps = np.arange(n_steps)
    columns = []
    for k in cardinalities:
        # p = 0 holds one state (a constant channel); p = 1 draws a
        # fresh state every step.
        p = draw(st.sampled_from([0.0, 0.05, 0.5, 1.0]))
        switch = rng.random(n_steps) < p
        switch[0] = True
        held = np.maximum.accumulate(np.where(switch, steps, 0))
        columns.append(rng.integers(0, k, n_steps)[held])
    states = np.column_stack(columns).astype(dtype)
    view = draw(st.sampled_from(["contiguous", "column_slice", "fortran", "reversed"]))
    if view == "column_slice":
        wide = np.zeros((n_steps, len(cardinalities) + 2), dtype=dtype)
        wide[:, 1:-1] = states
        states = wide[:, 1:-1]
    elif view == "fortran":
        states = np.asfortranarray(states)
    elif view == "reversed":
        states = np.ascontiguousarray(states[::-1])[::-1]
    temperature = rng.normal(40.0, 3.0, n_steps)
    special = draw(st.sampled_from(["finite", "nan_inf", "negative_zero", "constant"]))
    if special == "nan_inf":
        for value in (np.nan, np.inf, -np.inf):
            temperature[rng.random(n_steps) < 0.03] = value
    elif special == "negative_zero":
        temperature[:] = -0.0
    elif special == "constant":
        temperature[:] = 40.0
    return make_trace(states, temperature, cardinalities), window_steps


@needs_native
class TestKernelsAgree:
    @settings(max_examples=150, deadline=None)
    @given(case=native_cases())
    def test_native_equals_numpy_bitwise(self, case):
        trace, window_steps = case
        spy = Spy(_native.library())
        native = run(spy, trace, window_steps)
        assert spy.resolved == [f"dvfs_features_{trace.states.dtype.name}"]
        assert_bitwise(native, run(None, trace, window_steps))

    def test_simulated_trace_takes_the_native_path(self):
        """A trap handle proves ``extract_windows`` reaches C."""
        rng = np.random.default_rng(0)
        trace = make_trace(rng.integers(0, 6, (480, 3)), rng.normal(40, 3, 480))
        with pytest.raises(AssertionError, match="native dvfs_features_int64"):
            run(Trap(), trace, 240)

    @pytest.mark.parametrize(
        "temperature, states",
        [
            ("float32", np.int64),  # served as is, not converted
            ("strided", np.int64),
            ("float64", np.uint16),  # no native entry
            ("float64", np.dtype(">i8")),  # byte-swapped
        ],
    )
    def test_operands_outside_the_kernel_go_to_numpy(self, temperature, states):
        rng = np.random.default_rng(1)
        temps = rng.normal(40, 3, 960)
        temps = {
            "float32": temps[:480].astype(np.float32),
            "strided": temps[::2],
            "float64": temps[:480],
        }[temperature]
        trace = make_trace(rng.integers(0, 6, (480, 3)).astype(states), temps)
        assert_bitwise(run(Trap(), trace, 96), run(None, trace, 96))

    def test_unaligned_states_go_to_numpy(self):
        rng = np.random.default_rng(3)
        buffer = np.zeros(480 * 3 * 8 + 1, dtype=np.uint8)
        states = buffer[1:].view(np.int64).reshape(480, 3)
        states[:] = rng.integers(0, 6, (480, 3))
        assert not states.flags.aligned
        trace = make_trace(states, rng.normal(40, 3, 480))
        assert_bitwise(run(Trap(), trace, 96), run(None, trace, 96))

    def test_short_temperature_is_not_read_past_its_end(self):
        rng = np.random.default_rng(2)
        states = rng.integers(0, 6, (480, 3))
        with pytest.raises(ValueError, match="400 steps but states has 480"):
            make_trace(states, rng.normal(40, 3, 400))
        # Cut short after construction, it fails the same check and
        # never reaches C.
        trace = make_trace(states, rng.normal(40, 3, 480))
        trace.temperature_c = trace.temperature_c[:400]
        with pytest.raises(ValueError, match="400 steps but states has 480"):
            run(Trap(), trace, 96)


@pytest.mark.parametrize("kernel", ["native", "numpy"])
@pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.uint32, np.uint64])
def test_unsigned_states_featurize_as_int64(kernel, dtype):
    """Steps down do not wrap into jumps up, and uint64 states count
    (uint16 and wider have no native entry, so numpy serves them)."""
    if kernel == "native" and _native.library() is None:
        pytest.skip("no C compiler: only numpy can serve")
    rng = np.random.default_rng(4)
    states = rng.integers(0, 7, (480, 3))
    temperature = rng.normal(40, 3, 480)
    handle = _native.library() if kernel == "native" else None
    want = run(handle, make_trace(states, temperature), 96)
    trace = make_trace(states.astype(dtype), temperature)
    assert_bitwise(run(handle, trace, 96), want)
    assert_bitwise(DvfsFeatureExtractor().extract_windows_reference(trace, 96), want)


@pytest.mark.parametrize("kernel", ["native", "numpy"])
class TestRangeErrors:
    """A state outside ``[0, k)`` raises the same ``ValueError`` under
    both kernels, naming the lowest-index channel that holds one."""

    def trace(self, dtype=np.int64):
        states = np.zeros((40, 3), dtype=dtype)
        states[:, 1] = 1
        states[:, 2] = 2
        return DvfsTrace(
            states=states,
            frequencies_mhz=((1.0, 2.0), (1.0, 2.0), (1.0, 2.0, 3.0)),
            channel_names=("big", "little", "gpu"),
            temperature_c=np.full(40, 40.0),
        )

    def run(self, kernel, trace, window_steps):
        if kernel == "numpy":
            return run(None, trace, window_steps)
        if _native.library() is None:
            pytest.skip("no C compiler: only numpy can serve")
        spy = Spy(_native.library())
        try:
            return run(spy, trace, window_steps)
        finally:
            assert spy.resolved == [f"dvfs_features_{trace.states.dtype.name}"]

    def message(self, kernel, trace):
        with pytest.raises(ValueError) as error:
            self.run(kernel, trace, 8)
        return str(error.value)

    @pytest.mark.parametrize("dtype", [np.int8, np.int64, np.uint8])
    def test_too_high_state_in_a_later_window(self, kernel, dtype):
        trace = self.trace(dtype)
        # The sweep meets gpu's bad state first (window 0), but numpy
        # names little (channel 1), whose bad state is in window 3.
        trace.states[3, 2] = 3
        trace.states[30, 1] = 2
        assert self.message(kernel, trace) == (
            "channel 'little' contains state 2 but only 2 frequency states "
            "are defined."
        )

    def test_negative_state(self, kernel):
        trace = self.trace()
        trace.states[13, 0] = -1
        assert self.message(kernel, trace) == (
            "channel 'big' contains state -1 but only 2 frequency states "
            "are defined."
        )

    def test_dropped_tail_is_not_checked(self, kernel):
        trace = self.trace()
        trace.states[-1, 0] = 9  # in the partial window 40 // 12 drops
        assert self.run(kernel, trace, 12).shape[0] == 3
