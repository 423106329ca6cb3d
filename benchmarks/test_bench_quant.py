"""Benchmark: the quantized kernel the fleet serves.

Acceptance gate of the uint8 layout:

* **served counts** — batch-256 native ``count_second`` through the
  :class:`QuantizedForest` records (encode and walk in one C call) is
  at least **1.3x** the native float64 ``count_second`` of the same
  fleet-sized forest (M=100 hist-grown trees, ~1M nodes: node tables
  far larger than L2, where the 8-byte record and the level-major
  numbering pay off), with counts **exactly identical** — the bin-code
  rewrite is equivalence-preserving by construction, so this is an
  equality assert, not a tolerance.  Skipped when the native kernel is
  not built: without it both layouts count through the same float64
  numpy loop.

Recorded without a gate:

* **served path** — the native uint8 ``count_second`` against the
  float64 numpy loop (``FlatForest._route``), which serves both
  layouts when the library is not built, counts asserted identical.
* **rows per call** — per-row ``count_second`` cost of both layouts at
  256, 1,024, 4,096 and 8,192 rows per call: what a fleet sweep (many
  rounds in one call) buys over one call per round, and that the
  walk's row tiles keep the float64 layout's 75-feature rows from
  costing more per row in large calls.

Both compare medians of interleaved repeats
(:func:`conftest.time_interleaved`).  Measured numbers are printed and
written to ``BENCH_quant.json`` (uploaded as a CI artifact by the
``bench-quant`` job).
"""

from __future__ import annotations

import time
from pathlib import Path

import numpy as np
import pytest

from conftest import time_interleaved
from repro.ml import RandomForestClassifier
from repro.ml.backend import native_traversal

RESULTS_PATH = Path(__file__).resolve().parent.parent / "BENCH_quant.json"
_results: dict = {}

BATCH = 256
REPEATS = 31

# Fleet-scale synthetic traffic: overlapping classes (linear boundary
# + heavy label noise) force the hist grower into deep trees, so M=100
# members yield a ~1M-node forest — the regime the uint8 kernel is
# built for.  Feature count mirrors an HPC-counter window.
N_TRAIN = 45_000
N_FEATURES = 75
N_PROBE = 4_096
N_ESTIMATORS = 100
ROWS_PER_CALL = (256, 1024, 4096, 8192)


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


def _counter(forest, ensemble):
    """``forest``'s second-class count of a batch."""
    leaf_is_second = (forest.leaf_label == ensemble.classes_[1]).astype(np.int64)
    return lambda batch: forest.count_second(batch, leaf_is_second)


def _sweep(count, data):
    """One full sweep over ``data`` in BATCH-row calls."""

    def run():
        for start in range(0, len(data), BATCH):
            count(data[start : start + BATCH])

    return run


def _us_per_window(timing) -> float:
    return timing.median / N_PROBE * 1e6


@pytest.mark.skipif(not native_traversal(), reason="the native kernel is not built")
def test_bench_quantized_counts(fleet_forest):
    """Gate: native uint8 counts >= 1.3x native float64 counts, counts
    exactly identical."""
    ensemble, probe, fit_sec = fleet_forest
    flat = ensemble.compile(mode="flat")
    quant = ensemble.compile(mode="quantized")
    count_flat, count_quant = _counter(flat, ensemble), _counter(quant, ensemble)

    # The equivalence contract first: every count, bit for bit.
    counts_identical = np.array_equal(count_flat(probe), count_quant(probe))
    flat_t, quant_t = time_interleaved(
        _sweep(count_flat, probe), _sweep(count_quant, probe), repeats=REPEATS
    )
    speedup = flat_t.median / quant_t.median

    flat_mb = (flat.fg.nbytes + flat.threshold.nbytes) / 1e6
    packed_mb = quant.packed.nbytes / 1e6
    print(
        f"\nquantized counts: M={N_ESTIMATORS}, {flat.n_nodes} nodes, "
        f"batch={BATCH}, {N_PROBE} windows (fit {fit_sec:.0f}s)\n"
        f"  float64 tables: {flat_mb:7.1f} MB   uint8 packed: {packed_mb:5.1f} MB\n"
        f"  native float64: {_us_per_window(flat_t):6.2f} us/window "
        f"(q1-q3 {flat_t.q1 * 1e3:.1f}-{flat_t.q3 * 1e3:.1f} ms a sweep)\n"
        f"  native uint8  : {_us_per_window(quant_t):6.2f} us/window "
        f"(q1-q3 {quant_t.q1 * 1e3:.1f}-{quant_t.q3 * 1e3:.1f} ms a sweep)\n"
        f"  speedup: {speedup:.2f}x   counts identical: {counts_identical}"
    )
    _results["quantized_counts"] = {
        "n_estimators": N_ESTIMATORS,
        "n_nodes": int(flat.n_nodes),
        "max_depth": int(flat.max_depth),
        "batch_size": BATCH,
        "n_windows": N_PROBE,
        "repeats": REPEATS,
        "fit_sec": fit_sec,
        "float64_table_mb": flat_mb,
        "packed_table_mb": packed_mb,
        "float64": flat_t.as_dict(),
        "uint8": quant_t.as_dict(),
        "float64_us_per_window": _us_per_window(flat_t),
        "uint8_us_per_window": _us_per_window(quant_t),
        "speedup": speedup,
        "counts_identical": counts_identical,
    }

    assert counts_identical, "uint8 counts drifted from the float64 kernel"
    assert speedup >= 1.3, f"native uint8 counts only {speedup:.2f}x float64"


def test_bench_quantized_served_path(fleet_forest):
    """Float batches to vote counts: the uint8 ``count_second`` against
    the float64 numpy loop, counts exactly identical."""
    ensemble, probe, _ = fleet_forest
    flat = ensemble.compile(mode="flat")
    quant = ensemble.compile(mode="quantized")
    served = _counter(quant, ensemble)
    flat_second = (flat.leaf_label == ensemble.classes_[1]).astype(np.int64)

    def numpy_route(batch):
        return flat._route(flat.encode(batch), flat_second)

    counts_identical = np.array_equal(served(probe), numpy_route(probe))
    served_t, numpy_t = time_interleaved(
        _sweep(served, probe), _sweep(numpy_route, probe), repeats=REPEATS
    )
    native = native_traversal()
    print(
        f"\nserved path: M={N_ESTIMATORS}, {quant.n_nodes} nodes, batch={BATCH}, "
        f"{N_PROBE} float windows, native kernel: {native}\n"
        f"  count_second       : {_us_per_window(served_t):6.2f} us/window\n"
        f"  float64 numpy route: {_us_per_window(numpy_t):6.2f} us/window\n"
        f"  speedup: {numpy_t.median / served_t.median:.2f}x   "
        f"counts identical: {counts_identical}"
    )
    _results["served_path"] = {
        "n_nodes": int(quant.n_nodes),
        "batch_size": BATCH,
        "n_windows": N_PROBE,
        "repeats": REPEATS,
        "native": native,
        "count_second": served_t.as_dict(),
        "numpy_route": numpy_t.as_dict(),
        "count_second_us_per_window": _us_per_window(served_t),
        "numpy_route_us_per_window": _us_per_window(numpy_t),
        "speedup": numpy_t.median / served_t.median,
        "counts_identical": counts_identical,
    }

    assert counts_identical, "native counts drifted from the float64 numpy route"


def test_bench_rows_per_call(fleet_forest):
    """Per-row ``count_second`` cost by rows per call, both layouts
    (record-only): one sweep over the same 8,192 rows per timing."""
    ensemble, _, _ = fleet_forest
    data = np.random.default_rng(8).normal(size=(max(ROWS_PER_CALL), N_FEATURES))
    layouts = {
        "uint8": _counter(ensemble.compile(mode="quantized"), ensemble),
        "float64": _counter(ensemble.compile(mode="flat"), ensemble),
    }
    cells = [(layout, rows) for layout in layouts for rows in ROWS_PER_CALL]

    def sweep(count, rows):
        def run():
            for start in range(0, len(data), rows):
                count(data[start : start + rows])

        return run

    timings = time_interleaved(
        *(sweep(layouts[layout], rows) for layout, rows in cells), repeats=15
    )
    us = {cell: t.median / len(data) * 1e6 for cell, t in zip(cells, timings)}
    print(f"\nrows per call: M={N_ESTIMATORS}, native kernel: {native_traversal()}")
    for layout in layouts:
        base = us[(layout, ROWS_PER_CALL[0])]
        print(
            f"  {layout:7s}: "
            + "  ".join(
                f"{rows}: {us[(layout, rows)]:.2f} us ({us[(layout, rows)] / base:.3f})"
                for rows in ROWS_PER_CALL
            )
        )
    _results["rows_per_call"] = {
        "n_windows": len(data),
        "repeats": 15,
        "native": native_traversal(),
        **{
            layout: {
                str(rows): {
                    "us_per_window": us[(layout, rows)],
                    **timing.as_dict(),
                }
                for (cell_layout, rows), timing in zip(cells, timings)
                if cell_layout == layout
            }
            for layout in layouts
        },
    }
