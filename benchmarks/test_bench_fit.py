"""Benchmark: histogram-binned training backend vs. the seed grower.

Acceptance gates of the training backend (`repro.ml.training`), at the
fleet fitting configuration (n = 20 000 windows, d = 32 features,
M = 100 member trees):

* **ensemble fit >= 5x** — a bagging ensemble whose members grow from
  the shared binned dataset (bin once, per-bin class-count histograms,
  sibling subtraction, bootstrap multiplicities as native weights)
  must fit at least 5x faster than the seed's exact grower (per-node
  argsort over materialised bootstrap replicates);
* **retrain-loop step >= 3x** — one `RetrainingLoop` refit through the
  warm path (`TrustedHMD.partial_refit`: fixed scaler/bin edges,
  member regrowth from the appended binned buffer, flat backend
  recompile) must beat the seed behaviour (full `hmd.fit` from
  scratch) by at least 3x;
* **native tree growth** — the hpc benchmark forest (``bench``'s
  ``hpc_rows_quantized`` fit, M = 100) grown by ``_grow.c`` must be
  bitwise the numpy grower's forest and at least 2x faster, timed in
  interleaved native/numpy pairs;
* **flat-backend compatibility** — binned-trained trees must flow
  through the PR 2 flattened vote path unchanged (bitwise-identical
  votes/entropies vs. the member loop), and on the fig5 (HPC) workload
  a hist-trained trusted HMD's verdicts must sit within
  rejection-threshold tolerance of the exact-trained one.

Fit timings are single-shot (each fit runs for seconds to minutes, so
scheduler noise is amortised inside the measurement).  Results are
written to ``BENCH_fit.json`` (uploaded as a CI artifact).
"""

from __future__ import annotations

import time
from pathlib import Path

import numpy as np
import pytest

from bench.workloads import DEPLOYMENT_SEED, FULL, _fit
from repro.data import build_hpc_dataset
from repro.ml import (
    BaggingClassifier,
    DecisionTreeClassifier,
    RandomForestClassifier,
    _native,
)
from repro.uncertainty import TrustedHMD
from repro.uncertainty.entropy import vote_entropy
from repro.uncertainty.online import FlaggedSample, RetrainingLoop

N_WINDOWS = 20_000
N_FEATURES = 32
M = 100
THRESHOLD = 0.40
RESULTS_PATH = Path(__file__).resolve().parent.parent / "BENCH_fit.json"

_results: dict = {}


@pytest.fixture(scope="module")
def fit_workload():
    """Synthetic fleet-scale signature matrix (n=20k, d=32).

    A low-dimensional decision surface plus sensor noise, so the grown
    trees have realistic depth (~15 levels) rather than degenerate
    memorisation depth.
    """
    rng = np.random.default_rng(7)
    X = rng.normal(size=(N_WINDOWS, N_FEATURES))
    y = (X[:, :4].sum(axis=1) + rng.normal(scale=0.4, size=N_WINDOWS) > 0).astype(int)
    return X, y


@pytest.fixture(scope="module")
def hpc_dataset():
    """The fig5 workload: overlapping benign/malware HPC signatures."""
    return build_hpc_dataset(seed=7, scale=0.08)


def test_bench_ensemble_fit_gate(fit_workload):
    """Shared-binned bagging fit must be >= 5x the seed grower at M=100."""
    X, y = fit_workload

    t0 = time.perf_counter()
    exact = BaggingClassifier(n_estimators=M, random_state=7).fit(X, y)
    exact_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    hist = BaggingClassifier(
        DecisionTreeClassifier(grower="hist"), n_estimators=M, random_state=7
    ).fit(X, y)
    hist_s = time.perf_counter() - t0

    speedup = exact_s / hist_s
    # Both ensembles must actually have learned the workload.
    probe = X[::97]
    exact_acc = exact.score(probe, y[::97])
    hist_acc = hist.score(probe, y[::97])

    _results["ensemble_fit"] = {
        "n_windows": N_WINDOWS,
        "n_features": N_FEATURES,
        "n_members": M,
        "exact_fit_s": exact_s,
        "hist_fit_s": hist_s,
        "speedup": speedup,
        "exact_accuracy": exact_acc,
        "hist_accuracy": hist_acc,
    }
    print(
        f"\nensemble fit (n={N_WINDOWS}, d={N_FEATURES}, M={M}):\n"
        f"  seed (exact) grower: {exact_s:8.1f} s  (acc {exact_acc:.3f})\n"
        f"  binned grower:       {hist_s:8.1f} s  (acc {hist_acc:.3f})\n"
        f"  speedup:             {speedup:8.1f} x"
    )
    assert hist_acc > 0.9, f"hist ensemble underfits: acc {hist_acc:.3f}"
    assert abs(exact_acc - hist_acc) < 0.05, (
        f"accuracy drifted: exact {exact_acc:.3f} vs hist {hist_acc:.3f}"
    )
    assert speedup >= 5.0, (
        f"binned ensemble fit only {speedup:.1f}x over the seed grower"
    )


def test_bench_retrain_step_gate(fit_workload):
    """A warm partial-refit retrain step must be >= 3x a full refit."""
    X, y = fit_workload
    rng = np.random.default_rng(11)
    X_novel = rng.normal(size=(64, N_FEATURES)) * 0.4
    X_novel[:, 0] += 12.0
    flagged = [
        FlaggedSample(features=x, prediction=0, entropy=0.9, step=i)
        for i, x in enumerate(X_novel)
    ]
    labels = np.ones(len(flagged), dtype=int)
    # A leaner serving ensemble keeps the exact baseline measurable in
    # seconds; the ratio is per-refit and M-independent.
    M_loop = 30

    def step_time(grower):
        hmd = TrustedHMD(
            BaggingClassifier(
                DecisionTreeClassifier(grower=grower),
                n_estimators=M_loop,
                random_state=7,
            ),
            threshold=THRESHOLD,
        ).fit(X, y)
        loop = RetrainingLoop(hmd, X, y, min_batch=len(flagged))
        t0 = time.perf_counter()
        retrained = loop.incorporate(flagged, labels)
        elapsed = time.perf_counter() - t0
        assert retrained
        return elapsed, hmd

    exact_s, _ = step_time("exact")
    hist_s, hmd_hist = step_time("hist")
    # The warm path really retrained: the novel cluster got absorbed.
    assert hmd_hist.predictive_entropy(X_novel).mean() < THRESHOLD

    speedup = exact_s / hist_s
    _results["retrain_step"] = {
        "n_train": N_WINDOWS,
        "n_labelled": len(flagged),
        "n_members": M_loop,
        "full_refit_s": exact_s,
        "partial_refit_s": hist_s,
        "speedup": speedup,
    }
    print(
        f"\nretrain-loop step ({len(flagged)} labelled windows, M={M_loop}):\n"
        f"  seed full refit:     {exact_s:8.1f} s\n"
        f"  warm partial refit:  {hist_s:8.1f} s\n"
        f"  speedup:             {speedup:8.1f} x"
    )
    assert speedup >= 3.0, (
        f"retrain-loop step only {speedup:.1f}x over the seed full refit"
    )


@pytest.mark.skipif(_native.library() is None, reason="no C compiler")
def test_bench_native_grower_hpc_forest():
    """The hpc bench forest fit, native vs numpy grower, interleaved."""
    train = build_hpc_dataset(seed=DEPLOYMENT_SEED, scale=FULL.hpc_scale).train
    lib = _native.library()
    seconds = {"native": [], "numpy": []}
    forests = {}
    try:
        for _ in range(2):
            for kernel, handle in (("native", lib), ("numpy", None)):
                _native._handle = handle
                t0 = time.perf_counter()
                hmd = _fit(train.X, train.y, FULL, grower="hist", n_components=0.95)
                seconds[kernel].append(time.perf_counter() - t0)
                forests[kernel] = hmd.ensemble_
    finally:
        _native._handle = lib
    for a, b in zip(forests["native"].estimators_, forests["numpy"].estimators_):
        for name in ("feature", "threshold", "children_left", "children_right",
                     "value", "impurity", "n_node_samples"):
            assert getattr(a.tree_, name).tobytes() == getattr(b.tree_, name).tobytes()
    native_s, numpy_s = min(seconds["native"]), min(seconds["numpy"])
    speedup = numpy_s / native_s
    _results["native_grower_hpc_forest"] = {
        "n_train": len(train.y),
        "n_members": FULL.n_estimators,
        "n_nodes": int(sum(t.tree_.node_count for t in forests["native"].estimators_)),
        "native_fit_s": seconds["native"],
        "numpy_fit_s": seconds["numpy"],
        "speedup": speedup,
    }
    print(
        f"\nhpc bench forest fit (n={len(train.y)}, M={FULL.n_estimators}), "
        f"best of {len(seconds['native'])} interleaved pairs:\n"
        f"  numpy grower:  {numpy_s:8.2f} s\n"
        f"  native grower: {native_s:8.2f} s\n"
        f"  speedup:       {speedup:8.1f} x"
    )
    assert speedup >= 2.0, f"native grower only {speedup:.1f}x over numpy"


def test_bench_binned_trees_flow_through_flat_backend(hpc_dataset):
    """fig5 workload: binned-trained trees ride the PR 2 backend unchanged."""
    train = hpc_dataset.train
    splits = {"known": hpc_dataset.test.X, "unknown": hpc_dataset.unknown.X}

    verdicts = {}
    for grower in ("exact", "hist"):
        hmd = TrustedHMD(
            RandomForestClassifier(
                n_estimators=60, grower=grower, random_state=7
            ),
            threshold=THRESHOLD,
        ).fit(train.X, train.y)
        ensemble = hmd.ensemble_
        # (a) Bitwise: the compiled vote path reproduces the member
        # loop exactly for binned-trained trees.
        for X_probe in splits.values():
            Z = hmd._transform(X_probe)
            legacy = ensemble.decisions(Z)
            fast = ensemble.decisions_fast(Z)
            np.testing.assert_array_equal(fast, legacy)
            np.testing.assert_array_equal(
                vote_entropy(fast, ensemble.classes_),
                vote_entropy(legacy, ensemble.classes_),
            )
        verdicts[grower] = {
            split: hmd.analyze(X_probe) for split, X_probe in splits.items()
        }

    # (b) Tolerance: hist-trained verdict statistics track exact-trained
    # ones on the paper's fig5 operating point.
    tolerance = {}
    for split in splits:
        exact_v = verdicts["exact"][split]
        hist_v = verdicts["hist"][split]
        d_reject = abs(exact_v.rejection_rate - hist_v.rejection_rate)
        d_entropy = abs(exact_v.entropy.mean() - hist_v.entropy.mean())
        tolerance[split] = {
            "exact_rejection": exact_v.rejection_rate,
            "hist_rejection": hist_v.rejection_rate,
            "d_rejection": d_reject,
            "exact_mean_entropy": float(exact_v.entropy.mean()),
            "hist_mean_entropy": float(hist_v.entropy.mean()),
            "d_mean_entropy": d_entropy,
        }
        print(
            f"\nfig5 {split}: rejection exact {exact_v.rejection_rate:.3f} "
            f"vs hist {hist_v.rejection_rate:.3f} (|d|={d_reject:.3f}); "
            f"mean entropy {exact_v.entropy.mean():.3f} vs "
            f"{hist_v.entropy.mean():.3f}"
        )
        assert d_reject <= 0.05, (
            f"{split}: rejection rate drifted by {d_reject:.3f}"
        )
        assert d_entropy <= 0.05, (
            f"{split}: mean entropy drifted by {d_entropy:.3f}"
        )
    _results["fig5_verdict_tolerance"] = tolerance
