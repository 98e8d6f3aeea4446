"""Estimator base class and shared input-validation helpers."""

from __future__ import annotations

import inspect

import numpy as np


class RankDeficiencyError(ValueError):
    """Raised when a design matrix does not have full column rank."""

    def __init__(self, message, columns=None):
        super().__init__(message)
        self.columns = list(columns) if columns is not None else []


class ConvergenceError(RuntimeError):
    """Raised when an iterative solver exhausts its iteration budget or
    produces a non-finite iterate."""


class BaseEstimator:
    """Minimal scikit-learn style estimator base.

    Constructor arguments are hyperparameters; everything learned by
    ``fit`` is stored on attributes with a trailing underscore.
    """

    @classmethod
    def _param_names(cls):
        sig = inspect.signature(cls.__init__)
        return [
            name
            for name, p in sig.parameters.items()
            if name != "self" and p.kind in (p.POSITIONAL_OR_KEYWORD, p.KEYWORD_ONLY)
        ]

    def get_params(self, deep=True):
        return {name: getattr(self, name) for name in self._param_names()}

    def set_params(self, **params):
        valid = set(self._param_names())
        for key, value in params.items():
            if key not in valid:
                raise ValueError(
                    f"invalid parameter {key!r} for {type(self).__name__}; "
                    f"valid parameters: {sorted(valid)}"
                )
            setattr(self, key, value)
        return self

    def __repr__(self):
        args = ", ".join(f"{k}={v!r}" for k, v in sorted(self.get_params().items()))
        return f"{type(self).__name__}({args})"


def as_float_array(values, name="array", ndim=1):
    """Coerce to a float64 ndarray of the requested dimensionality."""
    arr = np.asarray(values, dtype=float)
    if arr.ndim != ndim:
        raise ValueError(f"{name} must be {ndim}-dimensional, got shape {arr.shape}")
    return arr


def check_consistent_length(**named_arrays):
    lengths = {name: len(arr) for name, arr in named_arrays.items()}
    if len(set(lengths.values())) > 1:
        raise ValueError(f"length mismatch: {lengths}")
