"""Feature selection for HMD feature vectors.

HPC-based HMDs can only sample a handful of counters concurrently, so
the literature (Demme et al., Zhou et al., Sayadi et al.) ranks and
selects counters before training.  This module provides the standard
filter methods:

* :func:`f_classif` — one-way ANOVA F-statistic per feature;
* :func:`mutual_info_classif` — histogram-estimated mutual information
  between each feature and the label;
* :class:`SelectKBest` — keep the top-k features under either score.
"""

from __future__ import annotations

import numpy as np

from .base import BaseEstimator, TransformerMixin
from .validation import check_array, check_is_fitted, check_X_y

__all__ = ["f_classif", "mutual_info_classif", "SelectKBest"]


def f_classif(X, y) -> np.ndarray:
    """One-way ANOVA F-statistic of each feature against the labels."""
    X, y = check_X_y(X, y)
    classes = np.unique(y)
    if len(classes) < 2:
        raise ValueError("f_classif requires at least 2 classes.")
    n, _ = X.shape
    overall_mean = X.mean(axis=0)
    ss_between = np.zeros(X.shape[1])
    ss_within = np.zeros(X.shape[1])
    for cls in classes:
        members = X[y == cls]
        mean = members.mean(axis=0)
        ss_between += len(members) * (mean - overall_mean) ** 2
        ss_within += ((members - mean) ** 2).sum(axis=0)
    df_between = len(classes) - 1
    df_within = n - len(classes)
    if df_within <= 0:
        raise ValueError("Not enough samples for within-class variance.")
    ms_between = ss_between / df_between
    ms_within = ss_within / df_within
    with np.errstate(divide="ignore", invalid="ignore"):
        f = np.where(ms_within > 0, ms_between / np.maximum(ms_within, 1e-30), np.inf)
    f[(ms_within == 0) & (ms_between == 0)] = 0.0
    return f


def mutual_info_classif(X, y, *, n_bins: int = 16) -> np.ndarray:
    """Histogram-based mutual information I(feature; label) in nats.

    Each feature is quantile-binned into ``n_bins`` levels; MI is then
    computed from the joint discrete distribution.  Simple and robust
    for the feature counts used here.
    """
    X, y = check_X_y(X, y)
    if n_bins < 2:
        raise ValueError("n_bins must be >= 2.")
    classes, y_idx = np.unique(y, return_inverse=True)
    n = len(y)
    p_y = np.bincount(y_idx) / n

    mi = np.zeros(X.shape[1])
    for j in range(X.shape[1]):
        column = X[:, j]
        edges = np.quantile(column, np.linspace(0, 1, n_bins + 1)[1:-1])
        bins = np.searchsorted(edges, column)
        joint = np.zeros((bins.max() + 1, len(classes)))
        np.add.at(joint, (bins, y_idx), 1.0)
        joint /= n
        p_x = joint.sum(axis=1)
        value = 0.0
        for b in range(joint.shape[0]):
            for k in range(joint.shape[1]):
                if joint[b, k] > 0 and p_x[b] > 0 and p_y[k] > 0:
                    value += joint[b, k] * np.log(joint[b, k] / (p_x[b] * p_y[k]))
        mi[j] = max(value, 0.0)
    return mi


class SelectKBest(BaseEstimator, TransformerMixin):
    """Keep the k features with the highest score.

    Parameters
    ----------
    score_func:
        ``(X, y) -> scores`` callable; defaults to :func:`f_classif`.
    k:
        Number of features to keep (or ``"all"``).
    """

    def __init__(self, score_func=None, *, k: int | str = 10):
        self.score_func = score_func
        self.k = k

    def fit(self, X, y) -> "SelectKBest":
        """Score all features and memorise the top-k support."""
        X, y = check_X_y(X, y)
        score_func = self.score_func if self.score_func is not None else f_classif
        self.scores_ = np.asarray(score_func(X, y), dtype=float)
        if len(self.scores_) != X.shape[1]:
            raise ValueError("score_func returned the wrong number of scores.")
        self.n_features_in_ = X.shape[1]
        if self.k == "all":
            k = X.shape[1]
        else:
            k = int(self.k)
            if not 1 <= k <= X.shape[1]:
                raise ValueError(f"k={self.k} out of range [1, {X.shape[1]}].")
        order = np.argsort(-np.nan_to_num(self.scores_, nan=-np.inf))
        self.support_ = np.zeros(X.shape[1], dtype=bool)
        self.support_[order[:k]] = True
        return self

    def transform(self, X) -> np.ndarray:
        """Project onto the selected features."""
        check_is_fitted(self, "support_")
        X = check_array(X)
        if X.shape[1] != self.n_features_in_:
            raise ValueError(
                f"Expected {self.n_features_in_} features, got {X.shape[1]}."
            )
        return X[:, self.support_]

    def get_support(self, indices: bool = False) -> np.ndarray:
        """Boolean mask (or indices) of selected features."""
        check_is_fitted(self, "support_")
        return np.flatnonzero(self.support_) if indices else self.support_

