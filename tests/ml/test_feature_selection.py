"""Tests for feature scoring and selection."""

import numpy as np
import pytest

from repro.ml import SelectKBest, f_classif, mutual_info_classif


def _informative_data(seed=0, n=300):
    """Features 0-1 informative, 2-3 pure noise."""
    rng = np.random.default_rng(seed)
    y = rng.integers(0, 2, size=n)
    X = np.column_stack(
        [
            y * 2.0 + rng.normal(scale=0.5, size=n),
            -y * 1.5 + rng.normal(scale=0.5, size=n),
            rng.normal(size=n),
            rng.normal(size=n),
        ]
    )
    return X, y


class TestFClassif:
    def test_informative_score_higher(self):
        X, y = _informative_data()
        scores = f_classif(X, y)
        assert scores[0] > scores[2] * 10
        assert scores[1] > scores[3] * 10

    def test_constant_feature_zero(self):
        X, y = _informative_data()
        X = np.column_stack([X, np.ones(len(y))])
        scores = f_classif(X, y)
        assert scores[-1] == 0.0

    def test_requires_two_classes(self):
        with pytest.raises(ValueError):
            f_classif(np.zeros((5, 2)) + np.arange(2), np.zeros(5))


class TestMutualInfo:
    def test_informative_score_higher(self):
        X, y = _informative_data(seed=1)
        scores = mutual_info_classif(X, y)
        assert scores[0] > scores[2] + 0.1

    def test_nonnegative(self):
        X, y = _informative_data(seed=2)
        assert np.all(mutual_info_classif(X, y) >= 0)

    def test_independent_feature_near_zero(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(2000, 1))
        y = rng.integers(0, 2, size=2000)
        assert mutual_info_classif(X, y)[0] < 0.05

    def test_invalid_bins(self):
        X, y = _informative_data()
        with pytest.raises(ValueError):
            mutual_info_classif(X, y, n_bins=1)


class TestSelectKBest:
    def test_keeps_informative_features(self):
        X, y = _informative_data(seed=4)
        selector = SelectKBest(k=2).fit(X, y)
        np.testing.assert_array_equal(selector.get_support(indices=True), [0, 1])

    def test_transform_shape(self):
        X, y = _informative_data(seed=5)
        Z = SelectKBest(k=3).fit_transform(X, y)
        assert Z.shape == (len(y), 3)

    def test_k_all(self):
        X, y = _informative_data(seed=6)
        Z = SelectKBest(k="all").fit_transform(X, y)
        assert Z.shape == X.shape

    def test_custom_score_func(self):
        X, y = _informative_data(seed=7)
        selector = SelectKBest(mutual_info_classif, k=2).fit(X, y)
        assert set(selector.get_support(indices=True)) == {0, 1}

    def test_invalid_k(self):
        X, y = _informative_data()
        with pytest.raises(ValueError):
            SelectKBest(k=0).fit(X, y)
        with pytest.raises(ValueError):
            SelectKBest(k=100).fit(X, y)

    def test_transform_feature_mismatch(self):
        X, y = _informative_data()
        selector = SelectKBest(k=2).fit(X, y)
        with pytest.raises(ValueError):
            selector.transform(X[:, :2])
