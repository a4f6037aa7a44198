"""Random forest: bagged CART trees with per-split feature subsampling."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from ..errors import ConfigError, ShapeMismatch
from ..rng import derive_rng
from .base import predict_from_proba
from .tree import DecisionTree, TreeParams, dt_fit, presort


@dataclass(frozen=True)
class ForestParams:
    n_estimators: int = 100
    max_features: str | float = "sqrt"  # sqrt | log2 | all | fraction in (0, 1]
    bootstrap: bool = True
    tree: TreeParams = field(default_factory=TreeParams)
    seed: int = 0


def resolve_max_features(spec: str | float, d: int) -> int:
    if spec == "sqrt":
        return max(1, math.ceil(math.sqrt(d)))
    if spec == "log2":
        return max(1, math.ceil(math.log2(d))) if d > 1 else 1
    if spec == "all":
        return d
    try:
        f = float(spec)
    except (TypeError, ValueError):
        raise ConfigError(
            f"max_features must be sqrt, log2, all or a fraction, got {spec!r}"
        ) from None
    if not (0.0 < f <= 1.0):
        raise ConfigError(f"max_features fraction {f} outside (0, 1]")
    return max(1, math.ceil(f * d))


def draw_features(rng: np.random.Generator, d: int, k: int) -> np.ndarray:
    """k distinct features out of d, uniformly: the k smallest of d uniform draws.

    The fastest of the draws timed at d=7, k=3 (``Generator.choice`` without
    replacement and ``permutation(d)[:k]`` were slower).
    """
    return rng.random(d).argsort()[:k]


class RandomForest:
    """Unweighted probability average over member trees."""

    def __init__(self, params: ForestParams, trees: list[DecisionTree], n_classes: int):
        self.params = params
        self.trees = trees
        self.n_classes = n_classes

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        proba = self.trees[0].predict_proba(X)
        for tree in self.trees[1:]:
            proba += tree.predict_proba(X)
        proba /= len(self.trees)
        return proba

    def predict(self, X: np.ndarray) -> np.ndarray:
        return predict_from_proba(self.predict_proba(X))


def rf_fit(X: np.ndarray, y: np.ndarray, params: ForestParams, n_classes: int | None = None) -> RandomForest:
    """Fit a forest; each tree uses the stream derived from (seed, tree index).

    X is sorted once for the whole forest.  A bootstrap replica is passed to
    each tree as integer row weights (how often each row was drawn), which
    grows the same tree as the duplicated rows would.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    if X.ndim != 2 or X.shape[0] != y.shape[0] or X.shape[0] < 1:
        raise ShapeMismatch(f"X {X.shape} incompatible with y {y.shape}")
    if n_classes is None:
        n_classes = int(y.max()) + 1
    n, d = X.shape
    k = resolve_max_features(params.max_features, d)
    order = presort(X)
    trees = []
    for t in range(params.n_estimators):
        rng = derive_rng(params.seed, "tree", t)
        weights = None
        if params.bootstrap:
            weights = np.bincount(rng.integers(0, n, size=n), minlength=n).astype(np.float64)
        sampler = np.arange if k >= d else partial(draw_features, rng, k=k)
        trees.append(dt_fit(X, y, params.tree, n_classes=n_classes, feature_sampler=sampler,
                            presorted=order, weights=weights))
    return RandomForest(params, trees, n_classes)
