"""Helpers shared by the classifiers: softmax and argmax prediction."""

from __future__ import annotations

import numpy as np


def predict_from_proba(proba: np.ndarray) -> np.ndarray:
    """Per-row argmax with lowest-index tie-break."""
    return np.argmax(proba, axis=1).astype(np.int64)


def softmax(z: np.ndarray) -> np.ndarray:
    """Row-wise softmax, shifted by each row's maximum for stability.

    Computed in place: ``z`` (float64) is overwritten and returned.
    """
    z -= z.max(axis=1, keepdims=True)
    np.exp(z, out=z)
    z /= z.sum(axis=1, keepdims=True)
    return z
