"""Benchmark: the batched ingest front vs. the per-window reference.

Acceptance criteria of the vectorized ingest rework:

* batched DVFS ``extract_windows`` is at least **10x** faster than the
  per-window reference path on a 500-window x 4-channel trace, with a
  **bitwise identical** feature matrix;
* end-to-end trace→verdict fleet throughput (raw trace → windowed
  features → bulk queue ingress → compiled vote path) is at least
  **2x** the PR 3 ingest front at 48 devices / batch 256, with
  bitwise-identical verdicts;
* the fused scaler→PCA affine front leaves fig5-style HPC verdicts
  unchanged: rejection/entropy drift vs. the two-pass transform is
  ≤ 1e-9 (and exactly zero without PCA, where fusion preserves the op
  order).

Measured numbers are printed and written to ``BENCH_ingest.json``
(uploaded as a CI artifact by the ``bench-ingest`` job).
"""

from __future__ import annotations

import time
from pathlib import Path

import numpy as np
import pytest

from repro.experiments import ExperimentConfig, ExperimentContext
from repro.experiments.ingest import run_ingest
from repro.hmd.features import DvfsFeatureExtractor
from repro.ml import RandomForestClassifier
from repro.sim.trace import DvfsTrace
from repro.uncertainty import TrustedHMD

RESULTS_PATH = Path(__file__).resolve().parent.parent / "BENCH_ingest.json"
_results: dict = {}

N_WINDOWS = 500
N_CHANNELS = 4
WINDOW_STEPS = 240

N_DEVICES = 48
WINDOWS_PER_DEVICE = 8
BATCH_SIZE = 256


@pytest.fixture(scope="module")
def ingest_context():
    config = ExperimentConfig(
        dvfs_scale=0.25, hpc_scale=0.05, n_estimators=60
    )
    return ExperimentContext(config)


def _bench_trace() -> DvfsTrace:
    rng = np.random.default_rng(7)
    cardinalities = (8, 6, 5, 7)
    n_steps = N_WINDOWS * WINDOW_STEPS
    states = np.column_stack(
        [rng.integers(0, k, n_steps) for k in cardinalities]
    )
    return DvfsTrace(
        states=states,
        frequencies_mhz=tuple(
            tuple(100.0 * (i + 1) for i in range(k)) for k in cardinalities
        ),
        channel_names=tuple(f"ch{i}" for i in range(N_CHANNELS)),
        temperature_c=rng.normal(40.0, 3.0, n_steps),
    )


def test_bench_extract_windows_speedup():
    """Gate: batched extraction >= 10x, bitwise identical features."""
    trace = _bench_trace()
    extractor = DvfsFeatureExtractor()

    # Warm both paths once (allocator, fft plan caches), then take the
    # best of a few repeats so host noise cannot flip the gate.
    extractor.extract_windows(trace, WINDOW_STEPS)
    batched_elapsed = np.inf
    for _ in range(3):
        t0 = time.perf_counter()
        batched = extractor.extract_windows(trace, WINDOW_STEPS)
        batched_elapsed = min(batched_elapsed, time.perf_counter() - t0)

    reference_elapsed = np.inf
    for _ in range(2):
        t0 = time.perf_counter()
        reference = extractor.extract_windows_reference(trace, WINDOW_STEPS)
        reference_elapsed = min(reference_elapsed, time.perf_counter() - t0)

    speedup = reference_elapsed / batched_elapsed
    identical = bool(np.array_equal(batched, reference))
    print(
        f"\nextract bench: {N_WINDOWS} windows x {N_CHANNELS} channels "
        f"x {WINDOW_STEPS} steps\n"
        f"  reference: {reference_elapsed * 1e3:9.1f} ms "
        f"({N_WINDOWS / reference_elapsed:8.0f} windows/sec)\n"
        f"  batched:   {batched_elapsed * 1e3:9.1f} ms "
        f"({N_WINDOWS / batched_elapsed:8.0f} windows/sec)\n"
        f"  speedup:   {speedup:9.1f}x   bitwise identical: {identical}"
    )
    _results["extract_windows"] = {
        "n_windows": N_WINDOWS,
        "n_channels": N_CHANNELS,
        "window_steps": WINDOW_STEPS,
        "reference_sec": reference_elapsed,
        "batched_sec": batched_elapsed,
        "speedup": speedup,
        "bitwise_identical": identical,
    }

    assert identical, "batched features drifted from the reference path"
    assert speedup >= 10.0, f"batched extraction only {speedup:.1f}x"


def test_bench_trace_to_verdict_throughput(ingest_context):
    """Gate: end-to-end ingest >= 2x the PR 3 front, verdicts identical."""
    result = run_ingest(
        context=ingest_context,
        n_devices=N_DEVICES,
        windows_per_device=WINDOWS_PER_DEVICE,
        batch_size=BATCH_SIZE,
    )
    print("\n" + result.as_text())
    _results["trace_to_verdict"] = {
        "n_devices": result.n_devices,
        "n_windows": result.n_windows,
        "batch_size": result.batch_size,
        "reference_wps": result.reference_wps,
        "batched_wps": result.batched_wps,
        "speedup": result.speedup,
        "features_identical": result.features_identical,
        "verdicts_identical": result.verdicts_identical,
    }

    assert result.features_identical
    assert result.verdicts_identical
    assert result.speedup >= 2.0, f"ingest speedup only {result.speedup:.1f}x"


def test_bench_fused_front_verdict_drift(ingest_context):
    """Gate: fused affine front leaves fig5 HPC verdicts unchanged."""
    dataset = ingest_context.dataset("hpc")
    hmd = TrustedHMD(
        RandomForestClassifier(n_estimators=60, random_state=7),
        threshold=0.40,
        n_components=0.95,
    ).fit(dataset.train.X, dataset.train.y)

    drift = {}
    for split, X in (("known", dataset.test.X), ("unknown", dataset.unknown.X)):
        fused = hmd._transform(X)
        two_pass = hmd.pca_.transform(
            hmd.scaler_.transform(np.asarray(X, dtype=float))
        )
        feature_drift = float(np.abs(fused - two_pass).max())

        verdict = hmd.analyze(X)
        labels, entropy = hmd.estimator_.predict_with_uncertainty(two_pass)
        rejection_ref = float(
            np.mean(entropy > hmd.policy_.threshold)
        )
        d_entropy = float(np.abs(verdict.entropy - entropy).max())
        d_rejection = abs(verdict.rejection_rate - rejection_ref)
        drift[split] = {
            "feature_drift": feature_drift,
            "entropy_drift": d_entropy,
            "rejection_fused": verdict.rejection_rate,
            "rejection_two_pass": rejection_ref,
        }
        print(
            f"\nfused front {split}: feature drift {feature_drift:.2e}, "
            f"entropy drift {d_entropy:.2e}, rejection "
            f"{verdict.rejection_rate:.4f} vs {rejection_ref:.4f}"
        )
        assert feature_drift <= 1e-9
        assert d_entropy <= 1e-9
        assert np.array_equal(verdict.predictions, labels)
        assert d_rejection <= 1e-12

    # Without PCA the fused front is the scaler itself: exactly zero.
    hmd_plain = TrustedHMD(
        RandomForestClassifier(n_estimators=20, random_state=7),
        threshold=0.40,
    ).fit(dataset.train.X, dataset.train.y)
    X = dataset.test.X
    assert np.array_equal(
        hmd_plain._transform(X),
        hmd_plain.scaler_.transform(np.asarray(X, dtype=float)),
    )
    drift["no_pca_bitwise"] = True
    _results["fused_front"] = drift
