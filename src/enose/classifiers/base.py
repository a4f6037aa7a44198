"""Shared by the classifiers: the argmax ``predict``, the fit-input check and softmax."""

from __future__ import annotations

import numpy as np

from ..errors import ShapeMismatch


class Classifier:
    """A fitted model whose ``predict`` is the argmax of its ``predict_proba``."""

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Per-row argmax of the class probabilities, with lowest-index tie-break."""
        return np.argmax(self.predict_proba(X), axis=1).astype(np.int64)


def fit_input(X, y, n_classes: int | None) -> tuple[np.ndarray, np.ndarray, int]:
    """X and y as float64 and int64 arrays, and ``n_classes`` (by default the largest
    label + 1); ShapeMismatch unless X is 2-d with at least one row, one per label."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    if X.ndim != 2 or X.shape[0] != y.shape[0] or X.shape[0] < 1:
        raise ShapeMismatch(f"X {X.shape} incompatible with y {y.shape}")
    return X, y, (int(y.max()) + 1 if n_classes is None else n_classes)


def softmax(z: np.ndarray) -> np.ndarray:
    """Row-wise softmax, shifted by each row's maximum for stability.

    Computed in place: ``z`` (float64) is overwritten and returned.
    """
    z -= z.max(axis=1, keepdims=True)
    np.exp(z, out=z)
    z /= z.sum(axis=1, keepdims=True)
    return z
