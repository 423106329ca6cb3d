"""Package hygiene: exports resolve, public API is documented.

These tests catch wiring regressions (an ``__all__`` entry that no
longer exists) and documentation gaps (public callables without
docstrings) across the whole library.
"""

import importlib
import inspect

import pytest

import repro

PACKAGES = [
    "repro",
    "repro.data",
    "repro.experiments",
    "repro.hmd",
    "repro.ml",
    "repro.ml.metrics",
    "repro.sim",
    "repro.uncertainty",
    "repro.viz",
]

MODULES = [
    "repro.data.builders",
    "repro.data.dataset",
    "repro.experiments.ablations",
    "repro.experiments.claims",
    "repro.experiments.common",
    "repro.experiments.extension_em",
    "repro.hmd.apps",
    "repro.hmd.features",
    "repro.hmd.pipeline",
    "repro.ml.base",
    "repro.ml.calibration",
    "repro.ml.cluster",
    "repro.ml.decomposition",
    "repro.ml.ensemble",
    "repro.ml.feature_selection",
    "repro.ml.linear",
    "repro.ml.manifold",
    "repro.ml.model_selection",
    "repro.ml.preprocessing",
    "repro.ml.svm",
    "repro.ml.tree",
    "repro.ml.validation",
    "repro.sim.cpu",
    "repro.sim.em",
    "repro.sim.power",
    "repro.sim.trace",
    "repro.sim.workloads",
    "repro.uncertainty.decomposition",
    "repro.uncertainty.drift",
    "repro.uncertainty.entropy",
    "repro.uncertainty.estimator",
    "repro.uncertainty.online",
    "repro.uncertainty.rejection",
    "repro.uncertainty.reliability",
    "repro.uncertainty.thresholds",
    "repro.uncertainty.trust",
]


@pytest.mark.parametrize("name", PACKAGES + MODULES)
def test_module_imports(name):
    importlib.import_module(name)


@pytest.mark.parametrize("name", PACKAGES + MODULES)
def test_all_entries_resolve(name):
    module = importlib.import_module(name)
    for symbol in getattr(module, "__all__", []):
        assert hasattr(module, symbol), f"{name}.__all__ lists missing {symbol!r}"


@pytest.mark.parametrize("name", PACKAGES + MODULES)
def test_module_has_docstring(name):
    module = importlib.import_module(name)
    assert module.__doc__, f"{name} lacks a module docstring"


@pytest.mark.parametrize("name", MODULES)
def test_public_callables_documented(name):
    module = importlib.import_module(name)
    for symbol in getattr(module, "__all__", []):
        obj = getattr(module, symbol)
        if inspect.isclass(obj) or inspect.isfunction(obj):
            assert obj.__doc__, f"{name}.{symbol} lacks a docstring"
            if inspect.isclass(obj):
                for method_name, method in inspect.getmembers(
                    obj, inspect.isfunction
                ):
                    if method_name.startswith("_"):
                        continue
                    if method.__qualname__.split(".")[0] != obj.__name__:
                        continue  # inherited
                    assert method.__doc__, (
                        f"{name}.{symbol}.{method_name} lacks a docstring"
                    )


def test_version_exposed():
    assert repro.__version__
