"""Z-score scaling, ambient-column dropping, and drift diagnostics."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import Dataset
from .errors import DegenerateInput, DimensionMismatch, EmptyMatrix, MissingColumn

DROPPED_AMBIENT = ("temperature", "pressure")
VERSIONS = ("V1", "V2", "V3", "V4")


@dataclass(frozen=True)
class Scaler:
    """Column-wise z-score scaler using the population standard deviation.

    Zero-variance columns store std 1.0 (flagged in ``degenerate``) so the
    transform maps them to zeros instead of dividing by zero.
    """

    means: np.ndarray
    stds: np.ndarray
    degenerate: np.ndarray  # bool mask of zero-variance columns

    def transform(self, X: np.ndarray, *, copy: bool = True) -> np.ndarray:
        """``(X - means) / stds``; with ``copy=False`` a float64 ``X`` is scaled in place."""
        X = np.asarray(X, dtype=np.float64)
        if X.shape[1] != self.means.shape[0]:
            raise DimensionMismatch(f"expected {self.means.shape[0]} columns, got {X.shape[1]}")
        if copy:
            X = X - self.means
        else:
            X -= self.means
        X /= self.stds
        return X


def fit_scaler(X: np.ndarray) -> Scaler:
    """Column means and population stds; DegenerateInput if one overflows float64."""
    X = np.asarray(X, dtype=np.float64)
    if X.size == 0:
        raise EmptyMatrix("cannot fit scaler on an empty matrix")
    with np.errstate(over="ignore", invalid="ignore"):
        means = X.mean(axis=0)
        stds = X.std(axis=0)  # population (divide by n)
    bad = np.flatnonzero(~(np.isfinite(means) & np.isfinite(stds)))
    if bad.size:
        j = int(bad[0])
        raise DegenerateInput(f"feature column {j} overflows float64: "
                              f"mean {means[j]}, std {stds[j]}")
    degenerate = stds == 0.0
    stds = np.where(degenerate, 1.0, stds)
    return Scaler(means, stds, degenerate)


def pearson_r(x: np.ndarray, y: np.ndarray) -> float:
    """Pearson correlation; 0.0 when either side is constant, NaN when a centred sum overflows."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.min() == x.max() or y.min() == y.max():
        return 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        xc = x - x.mean()
        yc = y - y.mean()
        denom = np.sqrt((xc * xc).sum() * (yc * yc).sum())
    if not np.isfinite(denom):
        return float("nan")
    if denom == 0.0:
        return 0.0
    return float((xc * yc).sum() / denom)


def feature_target_correlation(ds: Dataset) -> list[tuple[str, float]]:
    """Per-feature Pearson r against the encoded label, sorted descending.

    Ties in r break by ascending feature name, so the ranking is stable.
    DegenerateInput names a column whose sums overflow float64.
    """
    if ds.n < 2:
        raise EmptyMatrix("correlation needs at least 2 samples")
    y = ds.labels.astype(np.float64)
    rows = [(name, pearson_r(ds.features[:, j], y)) for j, name in enumerate(ds.feature_names)]
    for name, r in rows:
        if np.isnan(r):
            raise DegenerateInput(f"feature column {name!r} overflows float64 in its "
                                  "correlation with the label")
    return sorted(rows, key=lambda t: (-t[1], t[0]))


def drop_columns(ds: Dataset, names: tuple[str, ...]) -> Dataset:
    missing = [n for n in names if n not in ds.feature_names]
    if missing:
        raise MissingColumn(f"columns not present: {missing}")
    keep = [j for j, n in enumerate(ds.feature_names) if n not in names]
    return ds.with_features(tuple(ds.feature_names[j] for j in keep), ds.features[:, keep])
