"""Bitwise-equivalence suite for the batched ingest front.

The batched feature paths and the fused scaler→PCA front are pure
performance backends: they must never change results.

* ``DvfsFeatureExtractor.extract_windows`` vs.
  ``extract_windows_reference`` (per-window loop): **bitwise identical**
  across randomized trace lengths, channel counts, state cardinalities,
  state dtypes, constant signals and minimal (len ≤ 2) windows.  The
  class runs the native kernel wherever it is built, and its ``Numpy``
  subclass reruns every test on the numpy kernel.
* ``HpcFeatureExtractor.extract_many`` vs. stacked per-trace
  ``extract``: bitwise identical.
* The fused affine front of ``TrustedHMD``/``UntrustedHMD`` vs. the
  two-pass scaler→PCA reference: ≤ 1e-9 per feature with PCA, bitwise
  without, and still valid after ``partial_refit``.
"""

import numpy as np
import pytest

from repro.hmd import DvfsFeatureExtractor, HpcFeatureExtractor
from repro.hmd.apps import DVFS_KNOWN_BENIGN
from repro.ml.ensemble import BaggingClassifier, RandomForestClassifier
from repro.ml.tree import DecisionTreeClassifier
from repro.sim import (
    DvfsTrace,
    HpcSimulator,
    SocSimulator,
    WorkloadGenerator,
)
from repro.uncertainty.trust import TrustedHMD, UntrustedHMD
from tests.conftest import make_blobs


#: State counts of the simulated SoC's channels (big, LITTLE, GPU).
SOC_CARDINALITIES = [8, 7, 6]


def random_dvfs_trace(
    rng,
    *,
    n_steps,
    n_channels=None,
    cardinalities=None,
    constant_channel=False,
    dtype=np.int64,
):
    """A synthetic DVFS trace with arbitrary channel/state structure."""
    if cardinalities is None:
        n_channels = n_channels or int(rng.integers(1, 5))
        cardinalities = [int(rng.integers(1, 9)) for _ in range(n_channels)]
    states = np.column_stack(
        [rng.integers(0, k, n_steps) for k in cardinalities]
    ).astype(dtype)
    if constant_channel:
        states[:, 0] = 0
    return DvfsTrace(
        states=states,
        frequencies_mhz=tuple(
            tuple(100.0 * (i + 1) for i in range(k)) for k in cardinalities
        ),
        channel_names=tuple(f"ch{i}" for i in range(len(cardinalities))),
        temperature_c=rng.normal(40.0, 3.0, n_steps),
    )


class TestDvfsBatchedEquivalence:
    def test_simulated_trace_bitwise(self):
        spec = DVFS_KNOWN_BENIGN[0]
        activity = WorkloadGenerator(random_state=0).generate(spec, 1200)
        trace = SocSimulator(random_state=0).run(activity)
        extractor = DvfsFeatureExtractor()
        batched = extractor.extract_windows(trace, 240)
        reference = extractor.extract_windows_reference(trace, 240)
        assert np.array_equal(batched, reference)

    @pytest.mark.parametrize("seed", range(8))
    def test_randomized_traces_bitwise(self, seed):
        rng = np.random.default_rng(1000 + seed)
        extractor = DvfsFeatureExtractor()
        for _ in range(6):
            window_steps = int(rng.choice([2, 3, 5, 17, 96, 240]))
            n_windows = int(rng.integers(1, 12))
            n_steps = window_steps * n_windows + int(rng.integers(0, window_steps))
            trace = random_dvfs_trace(
                rng,
                n_steps=n_steps,
                cardinalities=SOC_CARDINALITIES if rng.random() < 0.25 else None,
                constant_channel=rng.random() < 0.25,
                dtype=(np.int8, np.int32, np.int64)[int(rng.integers(3))],
            )
            batched = extractor.extract_windows(trace, window_steps)
            reference = extractor.extract_windows_reference(trace, window_steps)
            assert np.array_equal(batched, reference)
            assert batched.shape == (
                n_steps // window_steps,
                len(extractor.feature_names(trace)),
            )

    @pytest.mark.parametrize("dtype", [np.int8, np.int32, np.int64])
    def test_soc_shape_partial_window_bitwise(self, dtype):
        """The production shape: 8/7/6 states, 240-step windows (30-bin
        spectral bands), a partial trailing window dropped."""
        rng = np.random.default_rng(17)
        extractor = DvfsFeatureExtractor()
        trace = random_dvfs_trace(
            rng, n_steps=5 * 240 + 17, cardinalities=SOC_CARDINALITIES, dtype=dtype
        )
        batched = extractor.extract_windows(trace, 240)
        reference = extractor.extract_windows_reference(trace, 240)
        assert np.array_equal(batched, reference)
        assert batched.shape == (5, len(extractor.feature_names(trace)))

    def test_minimal_windows_bitwise(self):
        """window_steps == 2: single-diff transitions, tiny spectra."""
        rng = np.random.default_rng(7)
        extractor = DvfsFeatureExtractor()
        trace = random_dvfs_trace(rng, n_steps=40, cardinalities=[2, 5, 3])
        batched = extractor.extract_windows(trace, 2)
        reference = extractor.extract_windows_reference(trace, 2)
        assert np.array_equal(batched, reference)

    def test_constant_trace_bitwise(self):
        """Zero-variance channels: autocorr/xcorr/spectral guards."""
        extractor = DvfsFeatureExtractor()
        trace = DvfsTrace(
            states=np.zeros((120, 2), dtype=int),
            frequencies_mhz=((100.0, 200.0), (100.0,)),
            channel_names=("cpu", "gpu"),
            temperature_c=np.full(120, 40.0),
        )
        batched = extractor.extract_windows(trace, 30)
        reference = extractor.extract_windows_reference(trace, 30)
        assert np.array_equal(batched, reference)
        names = extractor.feature_names(trace)
        lookup = dict(zip(names, batched[0]))
        assert lookup["cpu_residency_0"] == 1.0
        assert lookup["cpu_lag1_autocorr"] == 0.0
        assert lookup["xcorr_cpu_gpu"] == 0.0

    def test_single_state_channel(self):
        """Cardinality-1 channels exercise the max(n_states-1, 1) guard."""
        rng = np.random.default_rng(3)
        extractor = DvfsFeatureExtractor()
        trace = random_dvfs_trace(rng, n_steps=64, cardinalities=[1, 4])
        batched = extractor.extract_windows(trace, 8)
        reference = extractor.extract_windows_reference(trace, 8)
        assert np.array_equal(batched, reference)

    def test_extract_matches_single_window_batch(self):
        """extract() on one window == that row of the batched matrix."""
        rng = np.random.default_rng(11)
        extractor = DvfsFeatureExtractor()
        trace = random_dvfs_trace(rng, n_steps=96)
        batched = extractor.extract_windows(trace, 48)
        first = DvfsTrace(
            states=trace.states[:48],
            frequencies_mhz=trace.frequencies_mhz,
            channel_names=trace.channel_names,
            temperature_c=trace.temperature_c[:48],
        )
        assert np.array_equal(batched[0], extractor.extract(first))

    def test_validation_matches_reference(self):
        rng = np.random.default_rng(0)
        extractor = DvfsFeatureExtractor()
        trace = random_dvfs_trace(rng, n_steps=10)
        with pytest.raises(ValueError):
            extractor.extract_windows(trace, 1)
        with pytest.raises(ValueError):
            extractor.extract_windows(trace, 11)

    def test_out_of_range_state_fails_loudly(self):
        """States beyond the frequency table must not corrupt bins."""
        extractor = DvfsFeatureExtractor()
        trace = DvfsTrace(
            states=np.full((8, 1), 2, dtype=int),  # only states 0-1 defined
            frequencies_mhz=((100.0, 200.0),),
            channel_names=("cpu",),
            temperature_c=np.full(8, 40.0),
        )
        with pytest.raises(ValueError, match="frequency states"):
            extractor.extract_windows(trace, 4)

    def test_negative_state_fails_loudly(self):
        """A negative state must not land in the previous window's bins."""
        extractor = DvfsFeatureExtractor()
        states = np.ones((8, 1), dtype=int)
        states[5] = -1  # window 1; would count as state 1 of window 0
        trace = DvfsTrace(
            states=states,
            frequencies_mhz=((100.0, 200.0),),
            channel_names=("cpu",),
            temperature_c=np.full(8, 40.0),
        )
        with pytest.raises(ValueError, match="'cpu' contains state -1"):
            extractor.extract_windows(trace, 4)
        with pytest.raises(ValueError):
            extractor.extract_windows_reference(trace, 4)


@pytest.mark.usefixtures("numpy_kernel")
class TestDvfsBatchedEquivalenceNumpy(TestDvfsBatchedEquivalence):
    """The same checks with the numpy kernel featurizing: the class
    above runs the native kernel wherever it is built."""


class TestHpcBulkEquivalence:
    def _traces(self, n_traces=3, n_steps=200):
        spec = DVFS_KNOWN_BENIGN[0]
        traces = []
        for s in range(n_traces):
            activity = WorkloadGenerator(random_state=s).generate(spec, n_steps)
            traces.append(HpcSimulator(random_state=s).run(activity))
        return traces

    def test_extract_many_bitwise(self):
        extractor = HpcFeatureExtractor()
        traces = self._traces()
        bulk = extractor.extract_many(traces)
        stacked = np.vstack([extractor.extract(t) for t in traces])
        assert np.array_equal(bulk, stacked)

    def test_extract_many_single_trace(self):
        extractor = HpcFeatureExtractor()
        (trace,) = self._traces(n_traces=1)
        assert np.array_equal(
            extractor.extract_many([trace]), extractor.extract(trace)
        )

    def test_extract_many_heterogeneous_dt(self):
        """Per-trace sampling periods must land on the right rows."""
        import dataclasses

        extractor = HpcFeatureExtractor()
        a, b, c = self._traces(n_traces=3)
        b = dataclasses.replace(b, dt=b.dt * 4)
        bulk = extractor.extract_many([a, b, c])
        stacked = np.vstack([extractor.extract(t) for t in (a, b, c)])
        assert np.array_equal(bulk, stacked)

    def test_extract_many_validation(self):
        extractor = HpcFeatureExtractor()
        with pytest.raises(ValueError):
            extractor.extract_many([])
        a, b = self._traces(n_traces=2)
        import dataclasses

        mangled = dataclasses.replace(
            b, counter_names=tuple(reversed(b.counter_names))
        )
        with pytest.raises(ValueError):
            extractor.extract_many([a, mangled])


class TestFusedAffineFront:
    def _data(self, seed=5):
        return make_blobs(n_per_class=100, separation=3.0, seed=seed)

    def _two_pass(self, hmd, X):
        Z = hmd.scaler_.transform(np.asarray(X, dtype=float))
        if hmd.pca_ is not None:
            Z = hmd.pca_.transform(Z)
        return Z

    def test_without_pca_bitwise(self):
        X, y = self._data()
        hmd = TrustedHMD(
            RandomForestClassifier(n_estimators=10, random_state=0)
        ).fit(X, y)
        assert np.array_equal(hmd._transform(X), self._two_pass(hmd, X))

    def test_with_pca_close(self):
        X, y = self._data()
        hmd = TrustedHMD(
            RandomForestClassifier(n_estimators=10, random_state=0),
            n_components=3,
        ).fit(X, y)
        fused = hmd._transform(X)
        assert fused.shape[1] == 3
        np.testing.assert_allclose(
            fused, self._two_pass(hmd, X), rtol=0.0, atol=1e-9
        )

    def test_untrusted_with_pca_close(self):
        from repro.ml.linear import LogisticRegression

        X, y = self._data()
        hmd = UntrustedHMD(LogisticRegression(), n_components=3).fit(X, y)
        np.testing.assert_allclose(
            hmd._transform(X), self._two_pass(hmd, X), rtol=0.0, atol=1e-9
        )

    def test_front_survives_partial_refit(self):
        """partial_refit keeps the frozen front valid (and rebuilt)."""
        X, y = self._data()
        hmd = TrustedHMD(
            BaggingClassifier(
                DecisionTreeClassifier(max_depth=4, grower="hist"),
                n_estimators=8,
                random_state=0,
            ),
            n_components=3,
        ).fit(X, y)
        before = hmd._transform(X)
        rng = np.random.default_rng(0)
        X_new = X[:20] + rng.normal(0, 0.05, (20, X.shape[1]))
        hmd.partial_refit(X_new, np.full(20, 1))
        after = hmd._transform(X)
        # Scaler and PCA are frozen across partial refits, so the
        # rebuilt fused front must reproduce the pre-refit transform.
        assert np.array_equal(before, after)
        np.testing.assert_allclose(
            after, self._two_pass(hmd, X), rtol=0.0, atol=1e-9
        )

    def test_legacy_fitted_state_composes_lazily(self):
        """A fitted HMD without the cached front rebuilds it on demand."""
        X, y = self._data()
        hmd = TrustedHMD(
            RandomForestClassifier(n_estimators=5, random_state=0),
            n_components=2,
        ).fit(X, y)
        expected = hmd._transform(X)
        del hmd._front_weight_, hmd._front_bias_
        np.testing.assert_array_equal(hmd._transform(X), expected)

    def test_analyze_verdicts_unchanged_by_fusion(self):
        """Fused-front verdicts match a manual two-pass analyze."""
        X, y = self._data()
        hmd = TrustedHMD(
            RandomForestClassifier(n_estimators=20, random_state=0),
            threshold=0.4,
            n_components=4,
        ).fit(X, y)
        verdict = hmd.analyze(X)
        labels, entropy = hmd.estimator_.predict_with_uncertainty(
            self._two_pass(hmd, X)
        )
        assert np.array_equal(verdict.predictions, labels)
        np.testing.assert_allclose(
            verdict.entropy, entropy, rtol=0.0, atol=1e-9
        )
