"""Linear classifier: logistic regression.

Logistic Regression is one of the three base classifiers the paper bags
into uncertainty-aware ensembles (Figs. 4, 5, 7, 9).  The solver
minimises the L2-regularised negative log-likelihood with scipy's
L-BFGS-B, which converges in a handful of iterations on the HMD feature
dimensionalities used here.
"""

from __future__ import annotations

import warnings

import numpy as np
from scipy import optimize

from .base import BaseEstimator, ClassifierMixin
from .exceptions import ConvergenceWarning
from .validation import check_random_state, check_X_y

__all__ = ["LogisticRegression"]


def _sigmoid(z: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _log_sigmoid(z: np.ndarray) -> np.ndarray:
    """log(sigmoid(z)) computed without overflow."""
    return -np.logaddexp(0.0, -z)


class LogisticRegression(BaseEstimator, ClassifierMixin):
    """Binary / one-vs-rest logistic regression with L2 regularisation.

    Parameters
    ----------
    C:
        Inverse regularisation strength (like sklearn); larger = less
        regularisation.
    max_iter:
        L-BFGS iteration budget.
    tol:
        Gradient tolerance passed to the optimiser.
    fit_intercept:
        Whether to learn a bias term.
    """

    def __init__(
        self,
        *,
        C: float = 1.0,
        max_iter: int = 200,
        tol: float = 1e-6,
        fit_intercept: bool = True,
        random_state: int | np.random.Generator | None = None,
    ):
        self.C = C
        self.max_iter = max_iter
        self.tol = tol
        self.fit_intercept = fit_intercept
        self.random_state = random_state

    def _fit_binary(self, X: np.ndarray, y01: np.ndarray) -> tuple[np.ndarray, float, bool]:
        """Fit one binary problem; returns (coef, intercept, converged)."""
        n_samples, n_features = X.shape
        y_signed = 2.0 * y01 - 1.0  # {-1, +1}
        alpha = 1.0 / (self.C * n_samples)

        def objective(w_full: np.ndarray):
            w = w_full[:n_features]
            b = w_full[n_features] if self.fit_intercept else 0.0
            margins = y_signed * (X @ w + b)
            loss = -np.mean(_log_sigmoid(margins)) + 0.5 * alpha * (w @ w)
            # gradient: -mean(y * sigmoid(-m) * x) + alpha * w
            s = _sigmoid(-margins)
            grad_w = -(X.T @ (y_signed * s)) / n_samples + alpha * w
            if self.fit_intercept:
                grad_b = -np.mean(y_signed * s)
                return loss, np.concatenate([grad_w, [grad_b]])
            return loss, grad_w

        rng = check_random_state(self.random_state)
        size = n_features + (1 if self.fit_intercept else 0)
        w0 = rng.normal(scale=1e-3, size=size)
        result = optimize.minimize(
            objective,
            w0,
            jac=True,
            method="L-BFGS-B",
            options={"maxiter": self.max_iter, "gtol": self.tol},
        )
        coef = result.x[:n_features]
        intercept = float(result.x[n_features]) if self.fit_intercept else 0.0
        return coef, intercept, bool(result.success)

    def fit(self, X, y, sample_weight=None) -> "LogisticRegression":
        """Fit; multi-class problems are handled one-vs-rest."""
        X, y = check_X_y(X, y)
        if sample_weight is not None:
            weights = np.round(np.asarray(sample_weight)).astype(int)
            if np.any(weights < 0):
                raise ValueError("sample_weight must be non-negative.")
            X = np.repeat(X, weights, axis=0)
            y = np.repeat(y, weights, axis=0)
        if self.C <= 0:
            raise ValueError(f"C must be positive; got {self.C}.")
        self.classes_ = np.unique(y)
        self.n_features_in_ = X.shape[1]
        if len(self.classes_) < 2:
            raise ValueError("LogisticRegression needs at least 2 classes in y.")

        converged = True
        if len(self.classes_) == 2:
            y01 = (y == self.classes_[1]).astype(float)
            coef, intercept, ok = self._fit_binary(X, y01)
            self.coef_ = coef[None, :]
            self.intercept_ = np.array([intercept])
            converged &= ok
        else:
            coefs, intercepts = [], []
            for cls in self.classes_:
                coef, intercept, ok = self._fit_binary(X, (y == cls).astype(float))
                coefs.append(coef)
                intercepts.append(intercept)
                converged &= ok
            self.coef_ = np.stack(coefs)
            self.intercept_ = np.asarray(intercepts)

        if not converged:
            warnings.warn(
                "L-BFGS did not fully converge; consider increasing max_iter.",
                ConvergenceWarning,
                stacklevel=2,
            )
        return self

    def decision_function(self, X) -> np.ndarray:
        """Signed distances to the decision hyperplane(s)."""
        X = self._check_predict_input(X)
        scores = X @ self.coef_.T + self.intercept_
        return scores.ravel() if scores.shape[1] == 1 else scores

    def predict_proba(self, X) -> np.ndarray:
        """Class probabilities (sigmoid for binary, normalised OvR otherwise)."""
        scores = self.decision_function(X)
        if scores.ndim == 1:
            p1 = _sigmoid(scores)
            return np.column_stack([1.0 - p1, p1])
        p = _sigmoid(scores)
        totals = p.sum(axis=1, keepdims=True)
        totals[totals == 0.0] = 1.0
        return p / totals

    def predict(self, X) -> np.ndarray:
        """Most probable class per sample."""
        scores = self.decision_function(X)
        if scores.ndim == 1:
            return self.classes_[(scores > 0).astype(int)]
        return self.classes_[np.argmax(scores, axis=1)]

