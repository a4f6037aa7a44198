"""CART decision tree with the Gini criterion, grown greedily."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError, DimensionMismatch
from .base import Classifier, fit_input


@dataclass(frozen=True)
class TreeParams:
    max_depth: int | None = None
    min_samples_split: int = 2
    min_samples_leaf: int = 1


def check_tree_params(params: TreeParams) -> None:
    """ConfigError unless max_depth is None or an integer >= 0, min_samples_split an
    integer >= 2 and min_samples_leaf an integer >= 1."""
    depth = params.max_depth
    if not (depth is None or type(depth) is int and depth >= 0):
        raise ConfigError(f"tree max_depth must be None or an integer >= 0, got {depth!r}")
    for name, least in (("min_samples_split", 2), ("min_samples_leaf", 1)):
        value = getattr(params, name)
        if not (type(value) is int and value >= least):
            raise ConfigError(f"tree {name} must be an integer >= {least}, got {value!r}")


@dataclass(slots=True)
class TreeNode:
    counts: np.ndarray | None              # per-class sample counts; None at a loaded split
    feature: int | None = None
    threshold: float | None = None
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None

    @property
    def is_leaf(self) -> bool:
        return self.feature is None


def presort(X: np.ndarray) -> np.ndarray:
    """``d x n`` row indices; row f lists the rows of X in stable ascending order of feature f."""
    return np.ascontiguousarray(np.argsort(X, axis=0, kind="stable").T)


def _search(
    X: np.ndarray,
    table: np.ndarray,
    order: np.ndarray,
    counts: np.ndarray,
    n: float,
    feature_indices: np.ndarray,
    min_samples_leaf: int,
) -> tuple[int, float, float, int, np.ndarray] | None:
    """Best split of the impure node whose rows ``order`` lists, sorted by every feature.

    ``table[r]`` is row r's one-hot class times its weight, followed by the
    weight itself; ``counts`` (the vector T) are the node's weighted class
    counts and ``n`` their sum.  All k candidate features are searched at once
    over one ``k x m x (C+1)`` cumulative sum L.  The Gini decrease of a split
    is ``(|L|^2/n_l + |R|^2/n_r - |T|^2/n) / n`` with
    ``|R|^2 = |T|^2 - 2 L.T + |L|^2``; the squared norms and ``L.T`` are sums
    of integer products, exact in float64, so only the divisions round.
    Decreases within 1e-15 count as equal, within a feature and across
    features, so an exact tie goes to the lower feature, then the lower
    threshold.  Returns (feature, threshold, decrease, rows going left,
    left counts).
    """
    feats = np.sort(feature_indices)
    rows = order.take(feats, axis=0)                     # k x m, each row sorted by its feature
    sv = X[rows, feats[:, None]]
    cum = table.take(rows, axis=0)
    np.cumsum(cum, axis=1, out=cum)                      # class counts and size with value <= sv
    left = cum[:, :-1]                                   # split after position i
    nl = left[..., -1]
    nr = n - nl
    t2 = float(counts @ counts)
    # |(L, n_l)|^2 - n_l^2 = |L|^2, and |R|^2 = |T|^2 - 2 L.T + |L|^2
    ll = np.einsum("kmc,kmc->km", left, left)
    ll -= nl * nl
    rr = left[..., :-1] @ (-2.0 * counts)
    rr += ll
    rr += t2
    ll /= nl
    rr /= nr
    ll += rr                                             # n (1 - weighted child Gini)
    ok = sv[:, :-1] < sv[:, 1:]
    if min_samples_leaf > 1:
        ok &= (nl >= min_samples_leaf) & (nr >= min_samples_leaf)
    score = np.where(ok, ll, -np.inf)
    top = score.max(axis=1).tolist()
    best = None
    for j, s in enumerate(top):
        dec = (s - t2 / n) / n
        if dec > 1e-15 and (best is None or dec > best[1] + 1e-15):
            best = (j, dec)
    if best is None:
        return None
    j, dec = best
    i = int(np.argmax(score[j] >= top[j] - 1e-15 * n))  # first position within 1e-15 of the best
    lo, hi = float(sv[j, i]), float(sv[j, i + 1])
    threshold = 0.5 * (lo + hi)
    if not lo <= threshold < hi:  # the midpoint rounded onto hi, or overflowed
        threshold = lo
    return int(feats[j]), threshold, dec, i + 1, cum[j, i, :-1].copy()


class DecisionTree(Classifier):
    """Greedy binary CART tree; leaves store class counts."""

    def __init__(self, params: TreeParams, n_classes: int, n_features: int, root: TreeNode):
        self.params = params
        self.n_classes = n_classes
        self.n_features = n_features
        self.root = root

    def predict_proba(self, X: np.ndarray, *, add_to: np.ndarray | None = None) -> np.ndarray:
        """Class probabilities of X's rows, added into ``add_to`` if given; returns that sum.

        The sum is a rows x classes view of a class-major array (``add_to``
        should be one too), so a leaf's adds stay within one contiguous row of
        sums per class; a pure leaf adds 1.0 at its class and nothing
        elsewhere: adding +0.0 to a sum of probabilities leaves its bits
        unchanged.  A split takes its rows' values from X's feature column.
        """
        X = np.asarray(X, dtype=np.float64)
        if X.shape[1] != self.n_features:
            raise DimensionMismatch(f"expected {self.n_features} features, got {X.shape[1]}")
        out = np.zeros((self.n_classes, X.shape[0])).T if add_to is None else add_to
        sums, columns = out.T, X.T
        # route index blocks down the tree instead of looping per row
        stack = [(self.root, np.arange(X.shape[0]))]
        while stack:
            node, idx = stack.pop()
            if idx.size == 0:
                continue
            if node.is_leaf:
                counts = node.counts
                if np.count_nonzero(counts) == 1:
                    sums[counts.argmax()][idx] += 1.0
                else:
                    sums[:, idx] += (counts / np.add.reduce(counts))[:, None]
                continue
            mask = columns[node.feature].take(idx) <= node.threshold
            stack.append((node.left, idx[mask]))
            stack.append((node.right, idx[~mask]))
        return out


def _weighted_table(y: np.ndarray, w: np.ndarray, n_classes: int) -> np.ndarray:
    """``n x (C+1)``: row r holds ``w[r]`` in column ``y[r]`` and in the last column."""
    table = np.zeros((y.shape[0], n_classes + 1))
    table[np.arange(y.shape[0]), y] = w
    table[:, -1] = w
    return table


def _grow(X, table, params, feature_sampler, order: np.ndarray, counts: np.ndarray) -> TreeNode:
    """The CART tree over ``order``'s presorted rows, grown depth-first in preorder from
    an explicit stack, so its depth is not bounded by the recursion limit.

    A node is a ``d x m`` matrix whose row f lists the node's rows sorted by
    feature f.  A split partitions every row of it with one stable boolean
    gather, so the children stay sorted and no feature is sorted again.
    """
    # scratch side flags; a split writes and reads only its node's rows
    side = np.zeros(X.shape[0], dtype=bool)
    root = TreeNode(counts=counts)
    stack = [(root, order, 0)]
    while stack:
        node, order, depth = stack.pop()
        counts = node.counts
        n = counts.sum()
        if (
            counts.max() == n  # pure
            or n < params.min_samples_split
            or (params.max_depth is not None and depth >= params.max_depth)
            or n < 2 * params.min_samples_leaf
        ):
            continue
        d = order.shape[0]
        split = _search(X, table, order, counts, n, feature_sampler(d), params.min_samples_leaf)
        if split is None:
            continue
        f, threshold, _, n_left, left_counts = split
        node.feature = f
        node.threshold = threshold
        side[order[f, :n_left]] = True
        side[order[f, n_left:]] = False
        go_left = side[order]
        node.left = TreeNode(counts=left_counts)
        node.right = TreeNode(counts=counts - left_counts)
        # the left child is popped first, so the feature sampler draws in preorder
        stack.append((node.right, order[~go_left].reshape(d, -1), depth + 1))
        stack.append((node.left, order[go_left].reshape(d, -1), depth + 1))
    return root


def dt_fit(
    X: np.ndarray,
    y: np.ndarray,
    params: TreeParams = TreeParams(),
    n_classes: int | None = None,
    feature_sampler=None,
    *,
    presorted: np.ndarray | None = None,
    weights: np.ndarray | None = None,
) -> DecisionTree:
    """Fit a CART tree; ``feature_sampler`` enables per-split subsampling.

    ``weights`` are integer row multiplicities (a bootstrap replica): the
    tree equals the one grown on each row repeated that many times, and rows
    of weight 0 are left out.  ``presorted`` is ``presort(X)``, for callers
    that fit many trees on the same X.
    """
    X, y, n_classes = fit_input(X, y, n_classes)
    check_tree_params(params)
    if feature_sampler is None:
        feature_sampler = np.arange
    order = presort(X) if presorted is None else presorted
    if weights is None:
        weights = np.ones(X.shape[0])
    else:
        order = order[weights[order] > 0].reshape(X.shape[1], -1)
    counts = np.bincount(y, weights=weights, minlength=n_classes)
    table = _weighted_table(y, weights, n_classes)
    return DecisionTree(params, n_classes, X.shape[1],
                        _grow(X, table, params, feature_sampler, order, counts))
