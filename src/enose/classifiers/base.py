"""Shared classifier contract: probabilistic multiclass prediction."""

from __future__ import annotations

from typing import Protocol, runtime_checkable

import numpy as np


@runtime_checkable
class ClassifierModel(Protocol):
    """Fitted predictor exposing row-stochastic class probabilities."""

    n_classes: int

    def predict_proba(self, X: np.ndarray) -> np.ndarray: ...

    def predict(self, X: np.ndarray) -> np.ndarray: ...


def predict_from_proba(proba: np.ndarray) -> np.ndarray:
    """Per-row argmax with lowest-index tie-break."""
    return np.argmax(proba, axis=1).astype(np.int64)


def softmax(z: np.ndarray) -> np.ndarray:
    """Row-wise softmax, shifted by each row's maximum for stability."""
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)
