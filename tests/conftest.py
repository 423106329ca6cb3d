"""Shared fixtures: synthetic classification blobs and small datasets.

Dataset builders memoise per (seed, scale), so the session-scoped
fixtures here cost one build for the whole test run.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.data import build_dvfs_dataset, build_hpc_dataset
from repro.experiments import ExperimentConfig, ExperimentContext


def make_blobs(
    n_per_class: int = 120,
    n_features: int = 6,
    *,
    separation: float = 3.0,
    seed: int = 0,
):
    """Two Gaussian blobs, labels 0/1, shuffled."""
    rng = np.random.default_rng(seed)
    X0 = rng.normal(loc=-separation / 2, size=(n_per_class, n_features))
    X1 = rng.normal(loc=+separation / 2, size=(n_per_class, n_features))
    X = np.vstack([X0, X1])
    y = np.array([0] * n_per_class + [1] * n_per_class)
    order = rng.permutation(len(y))
    return X[order], y[order]


class Spy:
    """A library handle that records which entry points are resolved."""

    def __init__(self, lib):
        self.lib = lib
        self.resolved = []

    def __getattr__(self, name):
        self.resolved.append(name)
        return getattr(self.lib, name)


class Trap:
    """A library handle that fails the test on any entry point."""

    def __getattr__(self, name):
        raise AssertionError(f"native {name} called")


@pytest.fixture
def numpy_kernel(monkeypatch):
    """Every native kernel's numpy fallback serves: one library handle
    holds the vote counting, the histogram tree growth and the DVFS
    featurization, so setting it to ``None`` sends all three through
    numpy."""
    from repro.ml import _native

    monkeypatch.setattr(_native, "_handle", None)


@pytest.fixture(scope="session")
def blobs():
    """Well-separated binary blobs (train-quality)."""
    return make_blobs(seed=0)


@pytest.fixture(scope="session")
def overlapping_blobs():
    """Heavily overlapping binary blobs (aleatoric-uncertainty regime)."""
    return make_blobs(separation=0.7, seed=1)


@pytest.fixture(scope="session")
def blobs_split(blobs):
    """(X_train, X_test, y_train, y_test) from the separated blobs."""
    X, y = blobs
    n_train = int(0.75 * len(y))
    return X[:n_train], X[n_train:], y[:n_train], y[n_train:]


@pytest.fixture(scope="session")
def dvfs_small():
    """DVFS dataset at 10% scale (210/70/28 samples)."""
    return build_dvfs_dataset(seed=7, scale=0.1)


@pytest.fixture(scope="session")
def hpc_small():
    """HPC dataset at 2% scale (~892/127/255 samples)."""
    return build_hpc_dataset(seed=7, scale=0.02)


@pytest.fixture(scope="session")
def small_context():
    """Experiment context at smoke scale, shared across runner tests."""
    config = ExperimentConfig(dvfs_scale=0.15, hpc_scale=0.03, n_estimators=25)
    return ExperimentContext(config)
