"""Fleet-level tests for the compile modes.

The fleet contract:

* ``"quantized"`` — every monitor produces
  verdicts *bitwise identical* to ``TrustedHMD`` in float64, because
  the uint8 kernel rewrites thresholds onto the bin grid without
  moving them;
* the mode is sticky across no-argument recompiles, and only the two
  modes are served (an older pickle's float32 mode is refused);
* switching the compile mode on a live HMD makes
  :meth:`PublishedHmd.is_current` go stale so the next drain
  republishes the right kernel;
* a window with NaN or infinite features is never verdicted, whatever
  the batch size or mode: it is quarantined, and the rest of its
  batch is verdicted as ``analyze`` verdicts it;
* a pickled model carries no compiled forest: loading it recompiles,
  so a model pickled with an older forest layout cached serves the
  same verdicts.
"""

import pickle

import numpy as np
import pytest

from repro.fleet import BackpressurePolicy, FleetMonitor, PublishedHmd
from repro.fleet.engine import batch_verdict_key, batch_window_keys
from repro.fleet.report import device_report_key
from repro.fleet.resilience import account_windows
from repro.ml import RandomForestClassifier
from repro.ml.backend import CompiledVotePath, FlatForest, QuantizedForest
from repro.uncertainty import TrustedHMD
from tests.conftest import make_blobs
from tests.fleet.test_verdict_path import _arrivals, _drive

def make_hmd(mode, *, n_components=None, n_estimators=15, seed=0):
    X, y = make_blobs(n_per_class=120, separation=4.0, seed=70)
    hmd = TrustedHMD(
        RandomForestClassifier(
            n_estimators=n_estimators,
            random_state=seed,
            grower="hist" if mode == "quantized" else "exact",
        ),
        threshold=0.4,
        n_components=n_components,
    ).fit(X, y)
    hmd.compile(mode=mode)
    return X, hmd


class TestCompileModes:
    def test_two_modes(self):
        assert TrustedHMD.COMPILE_MODES == ("float64", "quantized")

    def test_mode_is_sticky_and_reported(self):
        X, hmd = make_hmd("quantized", n_components=4)
        assert hmd.compile_mode == "quantized"
        hmd.compile()  # no-arg recompile keeps the mode
        assert hmd.compile_mode == "quantized"
        assert isinstance(hmd.ensemble_.compile(), QuantizedForest)
        hmd.compile(mode="float64")
        hmd.compile()
        assert hmd.compile_mode == "float64"
        assert isinstance(hmd.ensemble_.compile(), FlatForest)

    def test_quantized_requires_hist(self):
        X, hmd = make_hmd("float64")  # exact grower
        with pytest.raises(ValueError, match="hist"):
            hmd.compile(mode="quantized")
        with pytest.raises(ValueError, match="unknown compile mode"):
            hmd.compile(mode="bfloat16")

    @pytest.mark.parametrize("n_components", [None, 4])
    def test_float32_mode_refused(self, n_components):
        """Asked for, or left sticky in an older pickle, float32 is
        refused with the modes there are."""
        X, hmd = make_hmd("float64", n_components=n_components)
        with pytest.raises(ValueError, match="'float64', 'quantized'"):
            hmd.compile(mode="float32")
        assert hmd.compile_mode == "float64"
        hmd._compile_mode_ = "float32"  # as an older version pickled it
        restored = pickle.loads(pickle.dumps(hmd))
        with pytest.raises(ValueError, match="unknown compile mode 'float32'"):
            restored.compile()
        with pytest.raises(ValueError, match="'float64', 'quantized'"):
            PublishedHmd(restored)


class TestPublishedHmdModes:
    @pytest.mark.parametrize("n_components", [None, 4])
    def test_quantized_verdicts_bitwise(self, n_components):
        X, hmd = make_hmd("quantized", n_components=n_components)
        published = PublishedHmd(hmd)
        assert isinstance(published.backend, QuantizedForest)
        assert published.compile_mode == "quantized"
        rng = np.random.default_rng(4)
        probe = X[rng.integers(len(X), size=300)]
        reference = hmd.analyze(probe)
        predictions, entropy, accepted = published.verdict(probe)
        np.testing.assert_array_equal(predictions, reference.predictions)
        np.testing.assert_array_equal(entropy, reference.entropy)
        np.testing.assert_array_equal(accepted, reference.accepted)

    def test_is_current_tracks_compile_mode(self):
        """Satellite 2: a mode switch alone makes the publication stale."""
        X, hmd = make_hmd("quantized")
        published = PublishedHmd(hmd)
        assert published.is_current()
        hmd.compile(mode="float64")
        assert not published.is_current()
        republished = PublishedHmd(hmd)
        assert republished.is_current()
        assert republished.compile_mode == "float64"
        hmd.compile(mode="quantized")
        assert not republished.is_current()


@pytest.mark.usefixtures("numpy_kernel")
class TestPublishedHmdModesNumpy(TestPublishedHmdModes):
    """The mode verdicts with the numpy loop counting."""


class TestMonitorModes:
    def test_live_mode_switch_republishes(self, monkeypatch):
        """Satellite 2 end-to-end: recompile mid-stream, next drain
        serves the new kernel."""
        served = []
        for cls in (FlatForest, QuantizedForest):
            count_second = cls.count_second

            def spy(self, *args, _count=count_second):
                served.append(type(self))
                return _count(self, *args)

            monkeypatch.setattr(cls, "count_second", spy)
        X, hmd = make_hmd("quantized")
        arrivals = _arrivals(X, n_devices=8, rounds=30, seed=6)
        policy = BackpressurePolicy(max_pending=len(arrivals) + 1)
        monitor = FleetMonitor(hmd, batch_size=64, policy=policy)
        first = _drive(monitor, arrivals)
        assert set(served) == {QuantizedForest}
        assert isinstance(monitor.published.backend, QuantizedForest)

        hmd.compile(mode="float64")
        assert not monitor.published.is_current()
        served.clear()
        for device_id, window in arrivals:
            monitor.submit(device_id, window)
        second = monitor.drain()
        assert set(served) == {FlatForest}
        assert isinstance(monitor.published.backend, FlatForest)
        assert monitor.published.compile_mode == "float64"
        # Quantization is exact: replaying the same windows through the
        # float64 kernel yields the same verdicts (sequence numbers keep
        # counting across drains, so re-key the second drain back).
        rekeyed = {
            (device, seq - 30): value
            for (device, seq), value in batch_verdict_key(second).items()
        }
        assert rekeyed == batch_verdict_key(first)

    def test_quantized_snapshot_restore(self):
        X, hmd = make_hmd("quantized")
        arrivals = _arrivals(X, n_devices=10, rounds=30, seed=7)
        policy = BackpressurePolicy(max_pending=len(arrivals) + 1)
        probe = FleetMonitor(hmd, batch_size=64, policy=policy)
        for device_id, _ in arrivals:
            probe.register(device_id)
        for device_id, window in arrivals:
            probe.submit(device_id, window)
        probe.drain(max_batches=1)
        restored = FleetMonitor.restore(
            hmd, pickle.loads(pickle.dumps(probe.snapshot()))
        )
        assert batch_verdict_key(restored.drain()) == batch_verdict_key(
            probe.drain()
        )
        assert device_report_key(restored.report()) == device_report_key(
            probe.report()
        )


class TestPickledModel:
    def test_old_layout_cache_is_not_restored(self, monkeypatch):
        """The pickle holds no compiled forest; a pickle that does (an
        older layout's, planted here) drops it on load, recompiles and
        serves bitwise the same verdicts."""
        X, hmd = make_hmd("quantized", n_components=4)
        reference = PublishedHmd(hmd).verdict(X)
        blob = pickle.dumps(hmd)
        assert b"QuantizedForest" not in blob
        assert "_backend_cache_" not in pickle.loads(blob).ensemble_.__dict__

        forest = hmd.ensemble_.compile()
        old = object.__new__(QuantizedForest)  # the fields of an older layout
        old.__dict__.update(
            packed=forest.packed,
            leaf_label=forest.leaf_label,
            roots=forest.roots,
            n_features=forest.n_features,
            max_depth=forest.max_depth,
            n_members=forest.n_members,
            n_nodes=forest.n_nodes,
            edges_sorted=np.sort(forest.edges),
            edge_prefix=np.zeros((len(forest.edges) + 1, forest.n_features), np.int32),
        )
        hmd.ensemble_._backend_cache_[1]["quantized"] = old
        # Pickle the cache along, as a version without the rule did.
        monkeypatch.delattr(CompiledVotePath, "__getstate__")
        blob = pickle.dumps(hmd)
        monkeypatch.undo()
        assert b"edge_prefix" in blob
        restored = pickle.loads(blob)
        assert restored.compile_mode == "quantized"
        for got, want in zip(PublishedHmd(restored).verdict(X), reference):
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)


def _with_bad_row(arrivals, position, value):
    """Arrivals with one feature of one window set to ``value``."""
    device_id, window = arrivals[position]
    bad = window.copy()
    bad[1] = value
    return arrivals[:position] + [(device_id, bad)] + arrivals[position + 1 :]


class TestNonFiniteInput:
    """NaN/inf windows are quarantined, and nothing else in their batch is lost.

    The float64 and quantized kernels would disagree on such a window
    (NaN compares false in the float kernel, while the bin search puts
    it in the top bin), so no verdict is the right one: the round moves
    the row into the monitor's quarantine store and verdicts the rest
    of the batch.  ``analyze`` itself still refuses the row.
    """

    @pytest.mark.parametrize("mode", ["float64", "quantized"])
    @pytest.mark.parametrize("batch_size", [8, 1])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_window_quarantined(self, mode, batch_size, value):
        X, hmd = make_hmd(mode)
        # 24 windows in batches of 8: the bad one shares its batch with
        # good rows that must still be verdicted.  In batches of 1 its
        # round quarantines every row it took and takes again.
        arrivals = _with_bad_row(
            _arrivals(X, n_devices=6, rounds=4, seed=3), 17, value
        )
        device_id, bad_window = arrivals[17]
        bad_key = (device_id, sum(d == device_id for d, _ in arrivals[:17]))
        submitted = [
            (d, sum(e == d for e, _ in arrivals[:i])) for i, (d, _) in enumerate(arrivals)
        ]
        with pytest.raises(ValueError, match="NaN or infinite"):
            hmd.analyze(bad_window[None, :])

        monitor = FleetMonitor(hmd, batch_size=batch_size, telemetry=True)
        results = _drive(monitor, arrivals)

        assert monitor.pending == 0
        assert monitor.stats.n_seen == len(arrivals) - 1
        assert monitor.quarantine.keys() == {bad_key}
        (window,) = monitor.quarantine.snapshot()
        assert window.reason == "non-finite"
        np.testing.assert_array_equal(window.features, bad_window)
        assert account_windows(
            set(submitted), batch_window_keys(results), monitor.quarantine.keys()
        ) == []
        good = [i for i in range(len(arrivals)) if i != 17]
        reference = hmd.analyze(np.vstack([arrivals[i][1] for i in good]))
        assert batch_verdict_key(results) == {
            submitted[i]: (
                reference.predictions[j],
                reference.entropy[j],
                bool(reference.accepted[j]),
            )
            for j, i in enumerate(good)
        }
        report = monitor.report()
        assert report.n_quarantined == 1
        assert report.telemetry["counters"]["fleet_windows_quarantined_total"] == 1
