"""Random forest: bagged CART trees with per-split feature subsampling."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from ..errors import ConfigError
from ..rng import derive_rng
from .base import Classifier, fit_input
from .tree import DecisionTree, TreeParams, dt_fit, presort


@dataclass(frozen=True)
class ForestParams:
    n_estimators: int = 100
    max_features: str | float = "sqrt"  # sqrt | log2 | all | fraction in (0, 1]
    bootstrap: bool = True
    tree: TreeParams = field(default_factory=TreeParams)
    seed: int = 0


def resolve_max_features(spec: str | float, d: int) -> int:
    if type(spec) is bool:
        raise ConfigError(f"max_features must be sqrt, log2, all or a fraction, got {spec!r}")
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


def check_forest_params(params: ForestParams) -> None:
    """ConfigError unless n_estimators is an integer >= 1, max_features a rule that
    ``resolve_max_features`` takes, bootstrap a bool and seed an integer."""
    n = params.n_estimators
    if not (type(n) is int and n >= 1):
        raise ConfigError(f"forest n_estimators must be an integer >= 1, got {n!r}")
    resolve_max_features(params.max_features, 1)
    if type(params.bootstrap) is not bool:
        raise ConfigError(f"forest bootstrap must be true or false, got {params.bootstrap!r}")
    if type(params.seed) is not int:
        raise ConfigError(f"forest seed must be an integer, got {params.seed!r}")


def draw_features(rng: np.random.Generator, d: int, k: int) -> np.ndarray:
    """k distinct features out of d, uniformly: the k smallest of d uniform draws.

    The fastest of the draws timed at d=7, k=3 (``Generator.choice`` without
    replacement and ``permutation(d)[:k]`` were slower).
    """
    return rng.random(d).argsort()[:k]


class RandomForest(Classifier):
    """Unweighted probability average over member trees."""

    def __init__(self, params: ForestParams, trees: list[DecisionTree], n_classes: int):
        self.params = params
        self.trees = trees
        self.n_classes = n_classes

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Mean of the trees' probabilities, each tree added in order into one array,
        a rows x classes view of a class-major array (see ``DecisionTree.predict_proba``)."""
        X = np.asarray(X, dtype=np.float64)
        proba = np.zeros((self.n_classes, X.shape[0])).T
        for tree in self.trees:
            tree.predict_proba(X, add_to=proba)
        proba /= len(self.trees)
        return proba


def rf_fit(X: np.ndarray, y: np.ndarray, params: ForestParams, n_classes: int | None = None) -> RandomForest:
    """Fit a forest: ``grow_trees`` over all of its tree indices (which checks ``params``)."""
    X, y, n_classes = fit_input(X, y, n_classes)
    return RandomForest(params, grow_trees(X, y, params, n_classes), n_classes)


def grow_trees(X: np.ndarray, y: np.ndarray, params: ForestParams, n_classes: int | None = None,
               trees: range | None = None) -> list[DecisionTree]:
    """The trees of index in ``trees`` (all ``n_estimators`` by default) of the forest
    ``params`` makes; each tree uses the stream derived from (seed, tree index), so
    consecutive ranges grown apart and joined in index order are the whole forest.

    X is sorted once for the range.  A bootstrap replica is passed to each tree as
    integer row weights (how often each row was drawn), which grows the same tree as
    the duplicated rows would.
    """
    check_forest_params(params)
    X, y, n_classes = fit_input(X, y, n_classes)
    n, d = X.shape
    k = resolve_max_features(params.max_features, d)
    order = presort(X)
    grown = []
    for t in range(params.n_estimators) if trees is None else trees:
        rng = derive_rng(params.seed, "tree", t)
        weights = None
        if params.bootstrap:
            weights = np.bincount(rng.integers(0, n, size=n), minlength=n).astype(np.float64)
        sampler = np.arange if k >= d else partial(draw_features, rng, k=k)
        grown.append(dt_fit(X, y, params.tree, n_classes=n_classes, feature_sampler=sampler,
                            presorted=order, weights=weights))
    return grown
