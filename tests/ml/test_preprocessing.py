"""Tests for the standard scaler."""

import numpy as np
import pytest

from repro.ml import NotFittedError, StandardScaler


class TestStandardScaler:
    def test_zero_mean_unit_variance(self):
        X = np.random.default_rng(0).normal(loc=5, scale=3, size=(200, 4))
        Z = StandardScaler().fit_transform(X)
        np.testing.assert_allclose(Z.mean(axis=0), 0.0, atol=1e-10)
        np.testing.assert_allclose(Z.std(axis=0), 1.0, atol=1e-10)

    def test_constant_feature_maps_to_zero(self):
        X = np.column_stack([np.full(10, 7.0), np.arange(10.0)])
        Z = StandardScaler().fit_transform(X)
        np.testing.assert_allclose(Z[:, 0], 0.0)

    def test_inverse_roundtrip(self):
        X = np.random.default_rng(1).normal(size=(50, 3))
        scaler = StandardScaler().fit(X)
        np.testing.assert_allclose(scaler.inverse_transform(scaler.transform(X)), X)

    def test_transform_uses_train_stats(self):
        X_train = np.zeros((5, 2)) + [[1.0, 2.0]]
        X_train[0] = [3.0, 4.0]
        scaler = StandardScaler().fit(X_train)
        Z_new = scaler.transform([[1.0, 2.0]])
        expected = ([1.0, 2.0] - scaler.mean_) / scaler.scale_
        np.testing.assert_allclose(Z_new[0], expected)

    def test_without_mean(self):
        X = np.random.default_rng(2).normal(loc=10, size=(30, 2))
        Z = StandardScaler(with_mean=False).fit_transform(X)
        assert Z.mean() > 1.0  # mean not removed

    def test_unfitted_raises(self):
        with pytest.raises(NotFittedError):
            StandardScaler().transform([[1.0]])

    def test_feature_count_mismatch(self):
        scaler = StandardScaler().fit(np.zeros((4, 3)) + np.arange(3))
        with pytest.raises(ValueError, match="features"):
            scaler.transform(np.zeros((2, 2)))

    def test_inverse_feature_count_mismatch(self):
        scaler = StandardScaler().fit(np.zeros((4, 4)) + np.arange(4))
        with pytest.raises(ValueError, match="Expected 4 features, got 1"):
            scaler.inverse_transform(np.zeros((2, 1)))
