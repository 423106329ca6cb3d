"""Benchmark: the quantized inference fast path.

Acceptance gate of the uint8 bin-code layout:

* **uint8 drain** — batch-256 ``decisions`` through the
  :class:`QuantizedForest` records are at least **1.5x** the float64
  compiled path on a fleet-sized forest (M=100 hist-grown trees, ~1M
  nodes: node tables far larger than L2, where the 8-byte packed
  record + level-major layout pay off), with votes **exactly
  identical** — the bin-code rewrite is equivalence-preserving by
  construction, so this is an equality assert, not a tolerance.
  ``decisions`` is always the numpy routing loop (``_route``), over
  codes encoded once before the timed drains; the encode cost is
  measured and reported alongside.

Recorded without a gate:

* **served path** — what the fleet runs every round: float rows to
  vote counts.  The native ``count_second`` (encode and walk in one C
  call when the kernel is built) against the numpy ``encode`` +
  ``_route``, batch 256, with counts asserted identical.

Measured numbers are printed and written to ``BENCH_quant.json``
(uploaded as a CI artifact by the ``bench-quant`` job).
"""

from __future__ import annotations

import time
from pathlib import Path

import numpy as np
import pytest

from repro.ml import RandomForestClassifier
from repro.ml.backend import native_traversal

RESULTS_PATH = Path(__file__).resolve().parent.parent / "BENCH_quant.json"
_results: dict = {}

BATCH = 256
REPEATS = 5

# Fleet-scale synthetic traffic: overlapping classes (linear boundary
# + heavy label noise) force the hist grower into deep trees, so M=100
# members yield a ~1M-node forest — the regime the uint8 kernel is
# built for.  Feature count mirrors an HPC-counter window.
N_TRAIN = 45_000
N_FEATURES = 75
N_PROBE = 4_096
N_ESTIMATORS = 100


@pytest.fixture(scope="module")
def fleet_forest():
    rng = np.random.default_rng(7)
    X = rng.normal(size=(N_TRAIN, N_FEATURES))
    w = rng.normal(size=N_FEATURES)
    y = ((X @ w + rng.normal(scale=3.0, size=N_TRAIN)) > 0).astype(int)
    t0 = time.perf_counter()
    ensemble = RandomForestClassifier(
        n_estimators=N_ESTIMATORS, random_state=7, grower="hist"
    ).fit(X, y)
    fit_sec = time.perf_counter() - t0
    probe = rng.normal(size=(N_PROBE, N_FEATURES))
    return ensemble, probe, fit_sec


def _batched(fn, data):
    """One full sweep over ``data`` in BATCH-row drains; seconds."""
    t0 = time.perf_counter()
    for start in range(0, len(data), BATCH):
        fn(data[start : start + BATCH])
    return time.perf_counter() - t0


def test_bench_quantized_drain(fleet_forest):
    """Gate: uint8 bin-code drain >= 1.5x the float64 compiled path,
    votes exactly identical."""
    ensemble, probe, fit_sec = fleet_forest
    flat = ensemble.compile(mode="flat")
    quant = ensemble.compile(mode="quantized")

    # The equivalence contract first: every vote, bit for bit.
    votes_flat = flat.decisions(probe)
    votes_quant = quant.decisions(probe)
    votes_identical = np.array_equal(votes_flat, votes_quant)

    # One-off encode (measured, reported, not part of the timed drain,
    # which isolates the routing loop).
    t0 = time.perf_counter()
    codes = quant.encode(probe)
    encode_sec = time.perf_counter() - t0

    # Interleave the repeats so host noise hits both kernels alike and
    # take the best of each (same discipline as the other benches).
    flat_sec, quant_sec = np.inf, np.inf
    for _ in range(REPEATS):
        flat_sec = min(flat_sec, _batched(flat.decisions, probe))
        quant_sec = min(quant_sec, _batched(quant.decisions, codes))
    speedup = flat_sec / quant_sec

    flat_mb = (flat.fg.nbytes + flat.threshold.nbytes) / 1e6
    packed_mb = quant.packed.nbytes / 1e6
    print(
        f"\nquantized drain: M={N_ESTIMATORS}, {flat.n_nodes} nodes, "
        f"batch={BATCH}, {N_PROBE} windows (fit {fit_sec:.0f}s)\n"
        f"  float64 tables: {flat_mb:7.1f} MB   uint8 packed: {packed_mb:5.1f} MB\n"
        f"  float64 drain : {flat_sec * 1e3:8.1f} ms "
        f"({N_PROBE / flat_sec:8.0f} windows/sec)\n"
        f"  uint8 drain   : {quant_sec * 1e3:8.1f} ms "
        f"({N_PROBE / quant_sec:8.0f} windows/sec)\n"
        f"  one-off encode: {encode_sec * 1e3:8.1f} ms\n"
        f"  speedup: {speedup:.2f}x   votes identical: {votes_identical}"
    )
    _results["quantized_drain"] = {
        "n_estimators": N_ESTIMATORS,
        "n_nodes": int(flat.n_nodes),
        "max_depth": int(flat.max_depth),
        "batch_size": BATCH,
        "n_windows": N_PROBE,
        "fit_sec": fit_sec,
        "float64_table_mb": flat_mb,
        "packed_table_mb": packed_mb,
        "float64_sec": flat_sec,
        "uint8_sec": quant_sec,
        "encode_sec": encode_sec,
        "float64_wps": N_PROBE / flat_sec,
        "uint8_wps": N_PROBE / quant_sec,
        "speedup": speedup,
        "votes_identical": votes_identical,
    }

    assert votes_identical, "uint8 votes drifted from the float64 kernel"
    assert speedup >= 1.5, f"uint8 drain only {speedup:.2f}x"



def test_bench_quantized_served_path(fleet_forest):
    """Float batches to vote counts: native ``count_second`` against
    the numpy ``encode`` + ``_route``, counts exactly identical."""
    ensemble, probe, _ = fleet_forest
    quant = ensemble.compile(mode="quantized")
    leaf_is_second = (quant.leaf_label == ensemble.classes_[1]).astype(np.int64)

    def served(batch):
        return quant.count_second(batch, leaf_is_second)

    def numpy_path(batch):
        return quant._route(quant.encode(batch), leaf_is_second)

    counts_identical = np.array_equal(served(probe), numpy_path(probe))
    served_sec, numpy_sec = np.inf, np.inf
    for _ in range(REPEATS):
        served_sec = min(served_sec, _batched(served, probe))
        numpy_sec = min(numpy_sec, _batched(numpy_path, probe))
    native = native_traversal()
    print(
        f"\nserved path: M={N_ESTIMATORS}, {quant.n_nodes} nodes, batch={BATCH}, "
        f"{N_PROBE} float windows, native kernel: {native}\n"
        f"  count_second        : {served_sec / N_PROBE * 1e6:6.2f} us/window\n"
        f"  encode + numpy route: {numpy_sec / N_PROBE * 1e6:6.2f} us/window\n"
        f"  speedup: {numpy_sec / served_sec:.2f}x   counts identical: {counts_identical}"
    )
    _results["served_path"] = {
        "n_nodes": int(quant.n_nodes),
        "batch_size": BATCH,
        "n_windows": N_PROBE,
        "native": native,
        "count_second_sec": served_sec,
        "encode_route_sec": numpy_sec,
        "count_second_us_per_window": served_sec / N_PROBE * 1e6,
        "encode_route_us_per_window": numpy_sec / N_PROBE * 1e6,
        "speedup": numpy_sec / served_sec,
        "counts_identical": counts_identical,
    }

    assert counts_identical, "native counts drifted from encode + _route"
