"""Feature preprocessing: the standard scaler.

The HMD pipeline (Fig. 1/2 of the paper) standardises features before
dimensionality reduction and classification; this transformer provides
that stage.
"""

from __future__ import annotations

import numpy as np

from .base import BaseEstimator, TransformerMixin
from .validation import check_array, check_is_fitted

__all__ = ["StandardScaler"]


class StandardScaler(BaseEstimator, TransformerMixin):
    """Standardise features to zero mean and unit variance.

    Constant features get scale 1.0 so they map to exactly zero instead
    of dividing by zero.
    """

    def __init__(self, *, with_mean: bool = True, with_std: bool = True):
        self.with_mean = with_mean
        self.with_std = with_std

    def fit(self, X, y=None) -> "StandardScaler":
        """Estimate per-feature mean and scale."""
        X = check_array(X)
        self.n_features_in_ = X.shape[1]
        self.mean_ = X.mean(axis=0) if self.with_mean else np.zeros(X.shape[1])
        if self.with_std:
            scale = X.std(axis=0)
            # Sub-normal spreads would overflow 1/scale; treat as constant.
            scale[scale < np.finfo(np.float64).tiny] = 1.0
            self.scale_ = scale
        else:
            self.scale_ = np.ones(X.shape[1])
        return self

    def _check_fitted_input(self, X) -> np.ndarray:
        check_is_fitted(self, "mean_")
        X = check_array(X)
        if X.shape[1] != self.n_features_in_:
            raise ValueError(
                f"Expected {self.n_features_in_} features, got {X.shape[1]}."
            )
        return X

    def transform(self, X) -> np.ndarray:
        """Standardise ``X`` with the fitted statistics."""
        X = self._check_fitted_input(X)
        return (X - self.mean_) / self.scale_

    def inverse_transform(self, X) -> np.ndarray:
        """Map standardised values back to the original scale."""
        X = self._check_fitted_input(X)
        return X * self.scale_ + self.mean_

    def as_affine(self) -> tuple[np.ndarray, np.ndarray]:
        """The fitted transform as ``X * mult + bias``.

        Lets downstream pipelines fuse the scaler into a single affine
        map (e.g. the scaler→PCA front of
        :class:`~repro.uncertainty.trust.TrustedHMD` collapses into one
        matmul).  Equal to :meth:`transform` up to floating-point
        associativity (multiplying by ``1/scale`` instead of dividing).
        """
        check_is_fitted(self, "mean_")
        mult = 1.0 / self.scale_
        return mult, -self.mean_ * mult

