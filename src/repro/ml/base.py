"""Estimator base classes for the from-scratch ML substrate.

The API deliberately mirrors the small core of scikit-learn's estimator
contract that the paper's pipeline relies on:

* constructor parameters are stored verbatim on ``self``;
* :meth:`get_params` / :meth:`set_params` expose them for cloning;
* :func:`clone` produces an unfitted copy with identical parameters —
  this is what bagging uses to stamp out base classifiers;
* fitted state lives in trailing-underscore attributes.
"""

from __future__ import annotations

import copy
import inspect
from typing import Any

import numpy as np

from .validation import check_array, check_is_fitted

__all__ = ["BaseEstimator", "ClassifierMixin", "TransformerMixin", "clone"]


class BaseEstimator:
    """Base class providing parameter introspection and cloning support."""

    @classmethod
    def _get_param_names(cls) -> list[str]:
        """Constructor argument names, sorted, excluding ``self``/varargs."""
        init = cls.__init__
        if init is object.__init__:
            return []
        signature = inspect.signature(init)
        names = [
            p.name
            for p in signature.parameters.values()
            if p.name != "self" and p.kind not in (p.VAR_POSITIONAL, p.VAR_KEYWORD)
        ]
        return sorted(names)

    def get_params(self, deep: bool = True) -> dict[str, Any]:
        """Return constructor parameters as a dict.

        With ``deep=True`` nested estimators contribute their own
        parameters under ``<name>__<param>`` keys.
        """
        params: dict[str, Any] = {}
        for name in self._get_param_names():
            value = getattr(self, name)
            params[name] = value
            if deep and isinstance(value, BaseEstimator):
                for sub_name, sub_value in value.get_params(deep=True).items():
                    params[f"{name}__{sub_name}"] = sub_value
        return params

    def set_params(self, **params: Any) -> "BaseEstimator":
        """Set constructor parameters; supports ``nested__param`` syntax."""
        if not params:
            return self
        valid = set(self._get_param_names())
        nested: dict[str, dict[str, Any]] = {}
        for key, value in params.items():
            name, _, sub_key = key.partition("__")
            if name not in valid:
                raise ValueError(
                    f"Invalid parameter {name!r} for estimator "
                    f"{type(self).__name__}. Valid parameters: {sorted(valid)}."
                )
            if sub_key:
                nested.setdefault(name, {})[sub_key] = value
            else:
                setattr(self, name, value)
        for name, sub_params in nested.items():
            sub_estimator = getattr(self, name)
            if not isinstance(sub_estimator, BaseEstimator):
                raise ValueError(
                    f"Parameter {name!r} is not an estimator; cannot set "
                    f"nested parameters {sorted(sub_params)}."
                )
            sub_estimator.set_params(**sub_params)
        return self

    def __repr__(self) -> str:
        params = ", ".join(
            f"{name}={getattr(self, name)!r}" for name in self._get_param_names()
        )
        return f"{type(self).__name__}({params})"


def clone(estimator: BaseEstimator) -> BaseEstimator:
    """Return an *unfitted* copy of ``estimator`` with identical parameters.

    Parameter values are deep-copied so that mutable defaults (lists,
    nested estimators) are not shared between the original and the clone.
    """
    if not isinstance(estimator, BaseEstimator):
        raise TypeError(
            f"clone expects a BaseEstimator, got {type(estimator).__name__}."
        )
    params = {
        name: copy.deepcopy(getattr(estimator, name))
        for name in estimator._get_param_names()
    }
    return type(estimator)(**params)


class ClassifierMixin:
    """Mixin adding :meth:`score` (accuracy) and prediction helpers."""

    _estimator_type = "classifier"

    def score(self, X: np.ndarray, y: np.ndarray) -> float:
        """Mean accuracy of :meth:`predict` on ``(X, y)``."""
        from .metrics import accuracy_score

        return accuracy_score(np.asarray(y).ravel(), self.predict(X))

    def _check_predict_input(self, X: Any) -> np.ndarray:
        """Validate ``X`` at predict time against the fitted feature count."""
        check_is_fitted(self)
        X = check_array(X)
        n_features = getattr(self, "n_features_in_", None)
        if n_features is not None and X.shape[1] != n_features:
            raise ValueError(
                f"{type(self).__name__} was fitted with {n_features} features "
                f"but predict received {X.shape[1]}."
            )
        return X


class TransformerMixin:
    """Mixin adding :meth:`fit_transform`."""

    def fit_transform(self, X: np.ndarray, y: np.ndarray | None = None) -> np.ndarray:
        """Fit to ``X`` then transform it in one call."""
        return self.fit(X, y).transform(X)
