"""Dimensionality reduction (the "Dimensionality Reduction" box of the
paper's HMD pipeline, Figs. 1-2).

:class:`PCA` is computed with a thin SVD on centred data — exact,
deterministic up to sign, and fast at HMD feature dimensionalities.
"""

from __future__ import annotations

import numpy as np

from .base import BaseEstimator, TransformerMixin
from .validation import check_array, check_is_fitted

__all__ = ["PCA"]


class PCA(BaseEstimator, TransformerMixin):
    """Principal component analysis via singular value decomposition.

    Parameters
    ----------
    n_components:
        ``None`` keeps all components; an int keeps that many; a float
        in (0, 1) keeps the smallest number of components explaining at
        least that fraction of variance.
    whiten:
        If True, scale projected components to unit variance.
    """

    def __init__(self, n_components: int | float | None = None, *, whiten: bool = False):
        self.n_components = n_components
        self.whiten = whiten

    def fit(self, X, y=None) -> "PCA":
        """Compute principal axes of ``X``."""
        X = check_array(X)
        n_samples, n_features = X.shape
        self.n_features_in_ = n_features
        self.mean_ = X.mean(axis=0)
        centered = X - self.mean_

        _, singular_values, vt = np.linalg.svd(centered, full_matrices=False)
        explained_variance = (singular_values**2) / max(n_samples - 1, 1)
        total_variance = explained_variance.sum()
        ratio = (
            explained_variance / total_variance
            if total_variance > 0
            else np.zeros_like(explained_variance)
        )

        max_rank = len(singular_values)
        if self.n_components is None:
            k = max_rank
        elif isinstance(self.n_components, float):
            if not 0.0 < self.n_components <= 1.0:
                raise ValueError(
                    f"n_components fraction must be in (0, 1]; got {self.n_components}."
                )
            cumulative = np.cumsum(ratio)
            k = int(np.searchsorted(cumulative, self.n_components - 1e-12) + 1)
            k = min(k, max_rank)
        else:
            k = int(self.n_components)
            if not 1 <= k <= max_rank:
                raise ValueError(
                    f"n_components={k} out of range [1, {max_rank}]."
                )

        # Deterministic sign convention: largest-|loading| entry positive.
        components = vt[:k]
        for i in range(k):
            j = np.argmax(np.abs(components[i]))
            if components[i, j] < 0:
                components[i] = -components[i]

        self.components_ = components
        self.singular_values_ = singular_values[:k]
        self.explained_variance_ = explained_variance[:k]
        self.explained_variance_ratio_ = ratio[:k]
        self.n_components_ = k
        return self

    def transform(self, X) -> np.ndarray:
        """Project ``X`` onto the principal axes."""
        check_is_fitted(self, "components_")
        X = check_array(X)
        if X.shape[1] != self.n_features_in_:
            raise ValueError(
                f"Expected {self.n_features_in_} features, got {X.shape[1]}."
            )
        projected = (X - self.mean_) @ self.components_.T
        if self.whiten:
            scale = np.sqrt(self.explained_variance_)
            scale[scale == 0.0] = 1.0
            projected = projected / scale
        return projected

    def inverse_transform(self, X) -> np.ndarray:
        """Reconstruct samples from their projections."""
        check_is_fitted(self, "components_")
        X = check_array(X)
        if X.shape[1] != self.n_components_:
            raise ValueError(
                f"Expected {self.n_components_} components, got {X.shape[1]}."
            )
        if self.whiten:
            X = X * np.sqrt(self.explained_variance_)
        return X @ self.components_ + self.mean_

    def as_affine(self) -> tuple[np.ndarray, np.ndarray]:
        """The fitted projection as ``X @ weight + bias``.

        ``weight`` is ``(n_features, n_components)`` with whitening
        folded in; ``bias`` absorbs the centering.  Lets upstream
        pipelines fuse scaling and projection into one matmul.  Equal to
        :meth:`transform` up to floating-point associativity.
        """
        check_is_fitted(self, "components_")
        weight = np.array(self.components_.T)
        if self.whiten:
            scale = np.sqrt(self.explained_variance_)
            scale[scale == 0.0] = 1.0
            weight = weight / scale
        return weight, -(self.mean_ @ weight)
