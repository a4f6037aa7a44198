"""PCA and LDA as fitted linear projections."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import distinct
from .errors import BadComponentCount, DegenerateInput, DimensionMismatch, SingleClass


@dataclass(frozen=True)
class PcaModel:
    """Top-m principal axes of the sample covariance.

    ``components`` rows are orthonormal; ``eigenvalues`` are the matching
    covariance eigenvalues, sorted descending.
    """

    means: np.ndarray
    components: np.ndarray  # m x d
    eigenvalues: np.ndarray  # m

    def transform(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        if X.shape[1] != self.means.shape[0]:
            raise DimensionMismatch(f"expected {self.means.shape[0]} columns, got {X.shape[1]}")
        return (X - self.means) @ self.components.T

    def inverse_transform(self, scores: np.ndarray) -> np.ndarray:
        return np.asarray(scores, dtype=np.float64) @ self.components + self.means


def _fix_signs(vectors: np.ndarray) -> np.ndarray:
    # each row's largest-magnitude entry made positive, for reproducibility
    out = vectors.copy()
    for i in range(out.shape[0]):
        j = int(np.argmax(np.abs(out[i])))
        if out[i, j] < 0:
            out[i] = -out[i]
    return out


def pca_fit(X: np.ndarray, m: int) -> PcaModel:
    """Fit PCA by eigendecomposition of the sample covariance of centered X."""
    X = np.asarray(X, dtype=np.float64)
    n, d = X.shape
    if n < 2:
        raise DegenerateInput(f"PCA needs at least 2 samples, got {n}")
    if not (1 <= m <= d):
        raise BadComponentCount(f"m must be in [1, {d}], got {m}")
    means = X.mean(axis=0)
    Xc = X - means
    cov = (Xc.T @ Xc) / (n - 1)
    evals, evecs = np.linalg.eigh(cov)
    order = np.argsort(evals)[::-1][:m]
    eigenvalues = np.clip(evals[order], 0.0, None)
    components = _fix_signs(evecs[:, order].T)
    return PcaModel(means, components, eigenvalues)


@dataclass(frozen=True)
class LdaModel:
    """Fisher discriminant directions of (S_w + ridge I)^-1 S_b."""

    means: np.ndarray
    directions: np.ndarray  # m x d, unit-norm rows
    class_means: np.ndarray  # C x d
    ridge: float
    eigenvalues: np.ndarray

    def transform(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        if X.shape[1] != self.means.shape[0]:
            raise DimensionMismatch(f"expected {self.means.shape[0]} columns, got {X.shape[1]}")
        return (X - self.means) @ self.directions.T


def lda_fit(X: np.ndarray, y: np.ndarray, m: int, ridge: float | None = None) -> LdaModel:
    """Fit LDA directions from within/between-class scatter matrices."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    classes = distinct(y)
    C = classes.shape[0]
    if C < 2:
        raise SingleClass("LDA needs at least 2 classes")
    if m > C - 1:
        raise BadComponentCount(f"m must be <= C-1 = {C - 1}, got {m}")
    n, d = X.shape
    mean = X.mean(axis=0)
    Sw = np.zeros((d, d))
    Sb = np.zeros((d, d))
    class_means = np.zeros((C, d))
    for i, c in enumerate(classes):
        Xi = X[y == c]
        mu = Xi.mean(axis=0)
        class_means[i] = mu
        diff = Xi - mu
        Sw += diff.T @ diff
        gap = (mu - mean)[:, None]
        Sb += Xi.shape[0] * (gap @ gap.T)
    if ridge is None:
        ridge = 1e-6 * np.trace(Sw) / d
        if ridge <= 0.0:
            ridge = 1e-6
    import scipy.linalg  # here, not at the top: only V4 pipelines pay its import time

    evals, evecs = scipy.linalg.eigh(Sb, Sw + ridge * np.eye(d))
    order = np.argsort(evals)[::-1][:m]
    directions = evecs[:, order].T
    norms = np.linalg.norm(directions, axis=1, keepdims=True)
    directions = _fix_signs(directions / norms)
    return LdaModel(mean, directions, class_means, float(ridge), evals[order])
