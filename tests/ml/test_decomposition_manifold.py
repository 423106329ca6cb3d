"""Tests for PCA and t-SNE."""

import numpy as np
import pytest

from repro.ml import PCA, TSNE
from repro.ml.metrics import neighborhood_purity
from tests.conftest import make_blobs


class TestPCA:
    def _correlated_data(self, n=200, seed=0):
        rng = np.random.default_rng(seed)
        latent = rng.normal(size=(n, 2))
        mix = np.array([[1.0, 0.5, 0.2, 0.0], [0.0, 0.3, 1.0, 0.8]])
        return latent @ mix + 0.01 * rng.normal(size=(n, 4))

    def test_explained_variance_ratio_sums_to_one(self):
        X = self._correlated_data()
        pca = PCA().fit(X)
        assert pca.explained_variance_ratio_.sum() == pytest.approx(1.0, abs=1e-9)

    def test_ratio_decreasing(self):
        X = self._correlated_data()
        ratios = PCA().fit(X).explained_variance_ratio_
        assert np.all(np.diff(ratios) <= 1e-12)

    def test_two_components_capture_rank_two_data(self):
        X = self._correlated_data()
        pca = PCA(n_components=2).fit(X)
        assert pca.explained_variance_ratio_.sum() > 0.999

    def test_fraction_selects_enough_components(self):
        X = self._correlated_data()
        pca = PCA(n_components=0.99).fit(X)
        assert pca.n_components_ == 2

    def test_components_orthonormal(self):
        X = self._correlated_data()
        pca = PCA(n_components=2).fit(X)
        gram = pca.components_ @ pca.components_.T
        np.testing.assert_allclose(gram, np.eye(2), atol=1e-10)

    def test_transform_decorrelates(self):
        X = self._correlated_data()
        Z = PCA(n_components=2).fit_transform(X)
        cov = np.cov(Z.T)
        assert abs(cov[0, 1]) < 1e-8

    def test_inverse_transform_reconstructs(self):
        X = self._correlated_data()
        pca = PCA(n_components=2).fit(X)
        X_rec = pca.inverse_transform(pca.transform(X))
        np.testing.assert_allclose(X_rec, X, atol=0.1)

    @pytest.mark.parametrize("whiten", [False, True])
    @pytest.mark.parametrize("width", [1, 3])
    def test_inverse_transform_component_count_mismatch(self, whiten, width):
        pca = PCA(n_components=2, whiten=whiten).fit(self._correlated_data())
        with pytest.raises(ValueError, match=f"Expected 2 components, got {width}"):
            pca.inverse_transform(np.zeros((5, width)))

    def test_whiten_gives_unit_variance(self):
        X = self._correlated_data()
        Z = PCA(n_components=2, whiten=True).fit_transform(X)
        np.testing.assert_allclose(Z.std(axis=0, ddof=1), 1.0, atol=1e-6)

    def test_deterministic_sign_convention(self):
        X = self._correlated_data()
        a = PCA(n_components=2).fit(X).components_
        b = PCA(n_components=2).fit(X).components_
        np.testing.assert_allclose(a, b)

    def test_invalid_n_components(self):
        X = self._correlated_data()
        with pytest.raises(ValueError):
            PCA(n_components=100).fit(X)
        with pytest.raises(ValueError):
            PCA(n_components=0).fit(X)
        with pytest.raises(ValueError):
            PCA(n_components=1.5).fit(X)


class TestTSNE:
    def test_embedding_shape(self):
        X, _ = make_blobs(n_per_class=40, seed=30)
        Y = TSNE(n_iter=150, perplexity=15, random_state=0).fit_transform(X)
        assert Y.shape == (80, 2)
        assert np.all(np.isfinite(Y))

    def test_preserves_cluster_structure(self):
        X, y = make_blobs(n_per_class=60, separation=8.0, seed=31)
        Y = TSNE(n_iter=300, perplexity=20, random_state=0).fit_transform(X)
        # Well-separated input clusters stay separated in the embedding.
        purity = neighborhood_purity(Y, y, n_neighbors=5)
        assert purity > 0.9

    def test_kl_divergence_recorded(self):
        X, _ = make_blobs(n_per_class=30, seed=32)
        tsne = TSNE(n_iter=120, perplexity=10, random_state=0)
        tsne.fit_transform(X)
        assert np.isfinite(tsne.kl_divergence_)
        assert tsne.kl_divergence_ >= 0

    def test_deterministic_with_seed(self):
        X, _ = make_blobs(n_per_class=25, seed=33)
        a = TSNE(n_iter=100, perplexity=10, random_state=5).fit_transform(X)
        b = TSNE(n_iter=100, perplexity=10, random_state=5).fit_transform(X)
        np.testing.assert_allclose(a, b)

    def test_perplexity_too_large_raises(self):
        X, _ = make_blobs(n_per_class=10, seed=34)
        with pytest.raises(ValueError, match="perplexity"):
            TSNE(perplexity=50).fit_transform(X)

    def test_too_few_samples_raises(self):
        with pytest.raises(ValueError):
            TSNE().fit_transform(np.zeros((3, 2)))

    def test_three_components(self):
        X, _ = make_blobs(n_per_class=25, seed=35)
        Y = TSNE(n_components=3, n_iter=80, perplexity=10, random_state=0).fit_transform(X)
        assert Y.shape == (50, 3)
