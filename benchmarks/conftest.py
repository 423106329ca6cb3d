"""Shared fixtures for the benchmark harness.

Benchmarks regenerate every table/figure at "bench scale" — large
enough for the paper's qualitative shapes to be stable, small enough to
run in minutes.  The printed output of each benchmark is the series the
corresponding paper artifact plots; EXPERIMENTS.md records a full-scale
run.

A benchmark module that defines ``RESULTS_PATH`` and a ``_results``
dict gets its measurements persisted by :func:`persist_results` when
the module finishes, merged into the existing file; an entry whose
writing test the module no longer defines is dropped then.  Timed comparisons
go through :func:`time_interleaved` (``from conftest import
time_interleaved``).
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

from repro.experiments import ExperimentConfig, ExperimentContext


@pytest.fixture(scope="session")
def bench_context():
    """Experiment context shared by all figure benchmarks."""
    config = ExperimentConfig(dvfs_scale=0.5, hpc_scale=0.08, n_estimators=60)
    return ExperimentContext(config)


@pytest.fixture(scope="session")
def bench_context_warm(bench_context):
    """Context with datasets and the RF ensembles pre-fitted, so
    per-figure benchmarks measure the figure computation itself."""
    for domain in ("dvfs", "hpc"):
        bench_context.dataset(domain)
        bench_context.fitted(domain, "rf")
    return bench_context


# The file key naming each entry's writing test.
WRITERS_KEY = "_writers"


def merge_results(path: Path, results: dict, writers: dict, alive) -> None:
    """Merge ``results`` into the JSON object at ``path``.

    ``writers`` names the test that wrote each entry of ``results``, and
    ``alive`` holds the tests the module still defines.  Entries of
    tests that did not run this time (``-k``, a failure before
    recording) keep their last measured values while their test exists;
    an entry whose writing test is gone, or was never recorded, is
    dropped.  The file keeps the writers under :data:`WRITERS_KEY`.
    """
    stored = json.loads(path.read_text()) if path.exists() else {}
    known = stored.pop(WRITERS_KEY, {})
    merged = {k: v for k, v in stored.items() if known.get(k) in alive}
    merged.update(results)
    merged[WRITERS_KEY] = {
        k: w for k, w in (known | writers).items() if k in merged
    }
    path.write_text(json.dumps(merged, indent=2) + "\n")
    print(f"\nwrote {path}")


def _defined_tests(module) -> set[str]:
    """The test functions the module defines (benchmarks are functions)."""
    return {
        name
        for name, obj in vars(module).items()
        if name.startswith("test") and callable(obj)
    }


@pytest.fixture(scope="session")
def result_writers() -> dict[str, dict[str, str]]:
    """Per module name: ``_results`` entry -> the test that wrote it."""
    return {}


@pytest.fixture(autouse=True)
def record_writer(request, result_writers):
    """Name this test as the writer of the ``_results`` entries it sets."""
    results = getattr(request.module, "_results", None)
    if results is None:
        yield
        return
    before = dict(results)
    yield
    writers = result_writers.setdefault(request.module.__name__, {})
    for key, value in results.items():
        if before.get(key) is not value:
            writers[key] = request.node.originalname


@pytest.fixture(scope="module", autouse=True)
def persist_results(request, result_writers):
    """Write the module's ``_results`` to its ``RESULTS_PATH`` on teardown."""
    yield
    module = request.module
    results = getattr(module, "_results", None)
    if results:
        merge_results(
            module.RESULTS_PATH,
            results,
            result_writers.get(module.__name__, {}),
            _defined_tests(module),
        )


@dataclass(frozen=True)
class Timing:
    """Seconds per call over the repeats: median and quartiles."""

    median: float
    q1: float
    q3: float

    def as_dict(self) -> dict:
        return {"median_s": self.median, "q1_s": self.q1, "q3_s": self.q3}


def time_interleaved(
    *fns, repeats: int = 9, warmup: int = 1, setup=None
) -> list[Timing]:
    """One :class:`Timing` per function in ``fns``.

    Each repeat calls every function once, in an order that reverses
    from one repeat to the next, so host drift and cache pressure hit
    them alike; ``warmup`` untimed rounds go first.  Gates compare
    medians, and the quartiles show how far the host spread.
    ``setup``, when given, holds one untimed callable (or ``None``) per
    function, run right before each of its calls: what a timed call
    consumes, such as the filled queue a drain empties.
    """
    setup = setup if setup is not None else [None] * len(fns)

    def call(i: int) -> float:
        if setup[i] is not None:
            setup[i]()
        t0 = time.perf_counter()
        fns[i]()
        return time.perf_counter() - t0

    for _ in range(warmup):
        for i in range(len(fns)):
            call(i)
    samples = [[] for _ in fns]
    for repeat in range(repeats):
        order = range(len(fns)) if repeat % 2 == 0 else reversed(range(len(fns)))
        for i in order:
            samples[i].append(call(i))
    return [Timing(*np.percentile(s, [50, 25, 75])) for s in samples]
