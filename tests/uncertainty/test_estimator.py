"""Tests for the EnsembleUncertaintyEstimator (Fig. 2 module)."""

import numpy as np
import pytest

from repro.ml import BaggingClassifier, LogisticRegression, RandomForestClassifier
from repro.uncertainty import EnsembleUncertaintyEstimator
from tests.conftest import make_blobs


@pytest.fixture(scope="module")
def fitted_rf(blobs_module):
    X, y = blobs_module
    return RandomForestClassifier(n_estimators=30, random_state=0).fit(X, y)


@pytest.fixture(scope="module")
def blobs_module():
    return make_blobs(n_per_class=150, seed=40)


class TestConstruction:
    def test_requires_decisions_method(self, blobs_module):
        X, y = blobs_module
        model = LogisticRegression().fit(X, y)
        with pytest.raises(TypeError, match="decisions"):
            EnsembleUncertaintyEstimator(model)

    def test_requires_fitted(self):
        with pytest.raises(ValueError, match="fitted"):
            EnsembleUncertaintyEstimator(RandomForestClassifier())

    def test_wraps_all_ensemble_types(self, blobs_module):
        X, y = blobs_module
        for ensemble in (
            RandomForestClassifier(n_estimators=5, random_state=0).fit(X, y),
            BaggingClassifier(n_estimators=5, random_state=0).fit(X, y),
            # Non-tree members: the uncompiled decisions() path.
            BaggingClassifier(
                LogisticRegression(), n_estimators=5, random_state=0
            ).fit(X, y),
        ):
            estimator = EnsembleUncertaintyEstimator(ensemble)
            assert estimator.predictive_entropy(X[:5]).shape == (5,)


class TestEstimates:
    def test_in_distribution_low_entropy(self, fitted_rf, blobs_module):
        X, _ = blobs_module
        estimator = EnsembleUncertaintyEstimator(fitted_rf)
        ent = estimator.predictive_entropy(X)
        assert np.median(ent) < 0.1

    def test_boundary_points_high_entropy(self, fitted_rf, blobs_module):
        X, _ = blobs_module
        estimator = EnsembleUncertaintyEstimator(fitted_rf)
        X_boundary = np.zeros((20, X.shape[1]))  # midpoint between blobs
        ent_boundary = estimator.predictive_entropy(X_boundary)
        ent_train = estimator.predictive_entropy(X)
        assert ent_boundary.mean() > ent_train.mean()

    def test_entropy_bounded_binary(self, fitted_rf, blobs_module):
        X, _ = blobs_module
        ent = EnsembleUncertaintyEstimator(fitted_rf).predictive_entropy(X)
        assert np.all((ent >= 0) & (ent <= 1.0 + 1e-9))

    def test_distribution_rows_sum(self, fitted_rf, blobs_module):
        X, _ = blobs_module
        dist = EnsembleUncertaintyEstimator(fitted_rf).predictive_distribution(X[:10])
        np.testing.assert_allclose(dist.sum(axis=1), 1.0)

    def test_predict_matches_ensemble(self, fitted_rf, blobs_module):
        X, _ = blobs_module
        estimator = EnsembleUncertaintyEstimator(fitted_rf)
        np.testing.assert_array_equal(
            estimator.predict(X[:25]), fitted_rf.predict(X[:25])
        )

    def test_predict_with_uncertainty_consistent(self, fitted_rf, blobs_module):
        X, _ = blobs_module
        estimator = EnsembleUncertaintyEstimator(fitted_rf)
        labels, entropy = estimator.predict_with_uncertainty(X[:15])
        np.testing.assert_array_equal(labels, estimator.predict(X[:15]))
        np.testing.assert_allclose(entropy, estimator.predictive_entropy(X[:15]))

    def test_report_fields_consistent(self, fitted_rf, blobs_module):
        X, _ = blobs_module
        report = EnsembleUncertaintyEstimator(fitted_rf).report(X[:10])
        assert len(report) == 10
        np.testing.assert_allclose(report.distribution.sum(axis=1), 1.0)
        # variation ratio = 1 - max vote fraction
        np.testing.assert_allclose(
            report.variation_ratio, 1.0 - report.distribution.max(axis=1)
        )

    def test_n_members(self, fitted_rf):
        assert EnsembleUncertaintyEstimator(fitted_rf).n_members == 30


class TestEnsembleSizeSweep:
    def test_subsets_prefix_members(self, fitted_rf, blobs_module):
        X, _ = blobs_module
        estimator = EnsembleUncertaintyEstimator(fitted_rf)
        result = estimator.entropy_vs_ensemble_size(X[:50], [1, 5, 30])
        assert set(result) == {1, 5, 30}
        # Single member => zero entropy always.
        assert result[1] == pytest.approx(0.0)

    def test_invalid_sizes(self, fitted_rf, blobs_module):
        X, _ = blobs_module
        estimator = EnsembleUncertaintyEstimator(fitted_rf)
        with pytest.raises(ValueError):
            estimator.entropy_vs_ensemble_size(X[:5], [0])
        with pytest.raises(ValueError):
            estimator.entropy_vs_ensemble_size(X[:5], [500])
