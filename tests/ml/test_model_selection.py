"""Tests for train/test splitting."""

import numpy as np
import pytest

from repro.ml.model_selection import train_test_split


class TestTrainTestSplit:
    def test_sizes_fraction(self):
        X = np.arange(100).reshape(-1, 1)
        X_train, X_test = train_test_split(X, test_size=0.25, random_state=0)
        assert len(X_train) == 75 and len(X_test) == 25

    def test_sizes_absolute(self):
        X = np.arange(50).reshape(-1, 1)
        X_train, X_test = train_test_split(X, test_size=10, random_state=0)
        assert len(X_train) == 40 and len(X_test) == 10

    def test_no_overlap_covers_all(self):
        X = np.arange(60).reshape(-1, 1)
        X_train, X_test = train_test_split(X, test_size=0.3, random_state=1)
        combined = np.sort(np.concatenate([X_train, X_test]).ravel())
        np.testing.assert_array_equal(combined, np.arange(60))

    def test_multiple_arrays_aligned(self):
        X = np.arange(40).reshape(-1, 1)
        y = np.arange(40)
        X_train, X_test, y_train, y_test = train_test_split(
            X, y, test_size=0.25, random_state=2
        )
        np.testing.assert_array_equal(X_train.ravel(), y_train)
        np.testing.assert_array_equal(X_test.ravel(), y_test)

    def test_stratified_preserves_ratio(self):
        y = np.array([0] * 80 + [1] * 20)
        X = np.arange(100).reshape(-1, 1)
        _, _, y_train, y_test = train_test_split(
            X, y, test_size=0.25, random_state=3, stratify=y
        )
        assert np.mean(y_test) == pytest.approx(0.2, abs=0.05)
        assert np.mean(y_train) == pytest.approx(0.2, abs=0.05)

    def test_deterministic_with_seed(self):
        X = np.arange(30).reshape(-1, 1)
        a = train_test_split(X, random_state=5)[1]
        b = train_test_split(X, random_state=5)[1]
        np.testing.assert_array_equal(a, b)

    def test_invalid_test_size(self):
        X = np.arange(10).reshape(-1, 1)
        with pytest.raises(ValueError):
            train_test_split(X, test_size=1.5)
        with pytest.raises(ValueError):
            train_test_split(X, test_size=10)

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            train_test_split(np.zeros((5, 1)), np.zeros(4))

