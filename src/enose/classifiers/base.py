"""Shared by the classifiers: the argmax ``predict``, the fit-input check and softmax."""

from __future__ import annotations

import numpy as np

from ..errors import ShapeMismatch


class Classifier:
    """A fitted model whose ``predict`` is the argmax of its ``predict_proba``."""

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Per-row argmax of the class probabilities, with lowest-index tie-break."""
        return argmax_rows(self.predict_proba(X))


def argmax_rows(proba: np.ndarray) -> np.ndarray:
    """``np.argmax(proba, axis=1)`` as int64: the lowest index on ties, the first NaN
    where a row has one.  numpy copies an array that is not row-major (a forest's
    class-major sums) before its argmax; this walks the columns instead."""
    if proba.flags.c_contiguous:
        return np.argmax(proba, axis=1).astype(np.int64, copy=False)
    best = proba[:, 0].copy()
    out = np.zeros(proba.shape[0], dtype=np.int64)
    for c in range(1, proba.shape[1]):
        column = proba[:, c]
        take = column > best
        take |= np.isnan(column) & ~np.isnan(best)
        out[take] = c
        best[take] = column[take]
    return out


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
