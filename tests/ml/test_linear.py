"""Tests for LogisticRegression."""

import numpy as np
import pytest

from repro.ml import LogisticRegression
from tests.conftest import make_blobs


class TestLogisticRegressionBinary:
    def test_separable_high_accuracy(self, blobs_split):
        X_train, X_test, y_train, y_test = blobs_split
        model = LogisticRegression().fit(X_train, y_train)
        assert model.score(X_test, y_test) > 0.97

    def test_proba_rows_sum_to_one(self, blobs_split):
        X_train, X_test, y_train, _ = blobs_split
        model = LogisticRegression().fit(X_train, y_train)
        proba = model.predict_proba(X_test)
        np.testing.assert_allclose(proba.sum(axis=1), 1.0, atol=1e-12)
        assert np.all((proba >= 0) & (proba <= 1))

    def test_decision_function_sign_matches_predict(self, blobs_split):
        X_train, X_test, y_train, _ = blobs_split
        model = LogisticRegression().fit(X_train, y_train)
        scores = model.decision_function(X_test)
        preds = model.predict(X_test)
        np.testing.assert_array_equal(preds, model.classes_[(scores > 0).astype(int)])

    def test_regularisation_shrinks_weights(self, blobs):
        X, y = blobs
        loose = LogisticRegression(C=100.0).fit(X, y)
        tight = LogisticRegression(C=0.001).fit(X, y)
        assert np.linalg.norm(tight.coef_) < np.linalg.norm(loose.coef_)

    def test_intercept_learned(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(300, 2))
        y = (X[:, 0] > 0.8).astype(int)  # boundary away from origin
        with_b = LogisticRegression(fit_intercept=True).fit(X, y)
        assert abs(with_b.intercept_[0]) > 0.5

    def test_invalid_c_raises(self, blobs):
        X, y = blobs
        with pytest.raises(ValueError):
            LogisticRegression(C=0.0).fit(X, y)

    def test_single_class_raises(self):
        with pytest.raises(ValueError, match="2 classes"):
            LogisticRegression().fit(np.zeros((5, 2)) + np.arange(2), np.zeros(5))

    def test_string_labels(self):
        X, y_int = make_blobs(n_per_class=40, seed=11)
        y = np.where(y_int == 0, "benign", "malware")
        model = LogisticRegression().fit(X, y)
        assert set(np.unique(model.predict(X))) <= {"benign", "malware"}

    def test_sample_weight_replication(self, blobs):
        X, y = blobs
        w = np.ones(len(y), dtype=int)
        a = LogisticRegression(random_state=0).fit(X, y, sample_weight=w)
        b = LogisticRegression(random_state=0).fit(X, y)
        np.testing.assert_allclose(a.coef_, b.coef_, atol=1e-4)


class TestLogisticRegressionMulticlass:
    def test_three_classes_ovr(self):
        rng = np.random.default_rng(1)
        centers = np.array([[-4, 0], [4, 0], [0, 6]])
        X = np.vstack([rng.normal(c, 1.0, size=(60, 2)) for c in centers])
        y = np.repeat([0, 1, 2], 60)
        model = LogisticRegression().fit(X, y)
        assert model.score(X, y) > 0.95
        assert model.coef_.shape == (3, 2)

    def test_multiclass_proba_normalised(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(90, 3))
        y = np.repeat([0, 1, 2], 30)
        model = LogisticRegression().fit(X, y)
        proba = model.predict_proba(X)
        np.testing.assert_allclose(proba.sum(axis=1), 1.0, atol=1e-9)
