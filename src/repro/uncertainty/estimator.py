"""The Uncertainty Estimator module of the proposed framework (Fig. 2).

:class:`EnsembleUncertaintyEstimator` wraps any fitted ensemble that
exposes per-member decisions (``BaggingClassifier``,
``RandomForestClassifier`` — anything with a ``decisions(X)`` method
and a ``classes_`` attribute) and turns the
frequency distribution of those decisions into predictive-uncertainty
estimates:

* :meth:`predictive_distribution` — Eq. 3, the averaged ensemble
  posterior;
* :meth:`predictive_entropy` — Eq. 4, the paper's uncertainty score;
* :meth:`predict_with_uncertainty` — labels + entropies in one call,
  the online operating mode of the Trusted HMD.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .entropy import shannon_entropy, variation_ratio, vote_margin, votes_to_distribution

__all__ = ["EnsembleUncertaintyEstimator", "UncertaintyReport"]


@dataclass(frozen=True)
class UncertaintyReport:
    """Joint prediction/uncertainty output for a batch of inputs."""

    predictions: np.ndarray
    entropy: np.ndarray
    distribution: np.ndarray
    margin: np.ndarray
    variation_ratio: np.ndarray

    def __len__(self) -> int:
        return len(self.predictions)


class EnsembleUncertaintyEstimator:
    """Estimate predictive uncertainty from ensemble vote dispersion.

    Parameters
    ----------
    ensemble:
        A *fitted* ensemble exposing ``decisions(X)`` (per-member hard
        votes) and ``classes_``.
    base:
        Entropy logarithm base (2 → bits; the paper's threshold axes).
    """

    def __init__(self, ensemble, *, base: float = 2.0):
        if not hasattr(ensemble, "decisions"):
            raise TypeError(
                f"{type(ensemble).__name__} does not expose per-member "
                "decisions; the uncertainty estimator requires an ensemble "
                "with a `decisions(X)` method."
            )
        if not hasattr(ensemble, "classes_"):
            raise ValueError(
                "ensemble must be fitted before constructing the estimator."
            )
        self.ensemble = ensemble
        self.base = base

    @property
    def classes_(self) -> np.ndarray:
        """Class labels of the wrapped ensemble."""
        return self.ensemble.classes_

    @property
    def n_members(self) -> int:
        """Ensemble size M."""
        return len(self.ensemble.estimators_)

    def member_votes(self, X) -> np.ndarray:
        """Raw per-member decisions, shape ``(n_samples, M)``.

        Routed through the ensemble's compiled flat-tensor backend
        (``decisions_fast``) when available — bitwise identical to the
        per-member loop, one vectorised pass instead of M.
        """
        fast = getattr(self.ensemble, "decisions_fast", None)
        if fast is not None:
            return fast(X)
        return self.ensemble.decisions(X)

    def predictive_distribution(self, X) -> np.ndarray:
        """Frequency distribution of member decisions (Eq. 3)."""
        return votes_to_distribution(self.member_votes(X), self.classes_)

    def predictive_entropy(self, X) -> np.ndarray:
        """Entropy of the predictive distribution (Eq. 4), in ``base`` units."""
        return shannon_entropy(self.predictive_distribution(X), base=self.base)

    def predict(self, X) -> np.ndarray:
        """Majority-vote predictions."""
        distribution = self.predictive_distribution(X)
        return self.classes_[np.argmax(distribution, axis=1)]

    def predict_with_uncertainty(self, X) -> tuple[np.ndarray, np.ndarray]:
        """Labels and entropies computed from a single vote pass."""
        votes = self.member_votes(X)
        distribution = votes_to_distribution(votes, self.classes_)
        labels = self.classes_[np.argmax(distribution, axis=1)]
        return labels, shannon_entropy(distribution, base=self.base)

    def report(self, X) -> UncertaintyReport:
        """Full uncertainty report (entropy, margin, variation ratio)."""
        votes = self.member_votes(X)
        distribution = votes_to_distribution(votes, self.classes_)
        return UncertaintyReport(
            predictions=self.classes_[np.argmax(distribution, axis=1)],
            entropy=shannon_entropy(distribution, base=self.base),
            distribution=distribution,
            margin=vote_margin(votes, self.classes_),
            variation_ratio=variation_ratio(votes, self.classes_),
        )

    def entropy_vs_ensemble_size(self, X, sizes) -> dict[int, float]:
        """Mean entropy using only the first ``m`` members, for each m.

        Reproduces the convergence study of Fig. 9a: entropy estimates
        stabilise once the ensemble exceeds ~20 members.
        """
        votes = self.member_votes(X)
        result: dict[int, float] = {}
        for m in sizes:
            if not 1 <= m <= votes.shape[1]:
                raise ValueError(
                    f"size {m} out of range [1, {votes.shape[1]}]."
                )
            distribution = votes_to_distribution(votes[:, :m], self.classes_)
            result[int(m)] = float(
                shannon_entropy(distribution, base=self.base).mean()
            )
        return result
