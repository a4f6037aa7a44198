"""The model-family table: how each family fits, tunes and reads/writes JSON.

Adding a family is one entry in ``FAMILIES``.  Every ``fit`` entry calls its
learner through this module's globals at call time, so a wrapper installed on
``rf_fit`` and the others (a tracer, a test double) sees every fit.

Model selection fits each distinct model once per fold: a family's
``identity`` names the model its ``fit`` builds from a params dict, and its
``cut`` gives a smaller candidate's model from the shared one.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields, replace
from typing import Callable

import numpy as np

from .classifiers.forest import (ForestParams, RandomForest, check_forest_params, grow_trees,
                                 resolve_max_features, rf_fit)
from .classifiers.svm import (KERNELS, BinarySvm, MulticlassSvm, SvmParams, check_svm_params,
                              svm_fit_multiclass)
from .classifiers.tree import DecisionTree, TreeNode, TreeParams, check_tree_params, dt_fit
from .errors import ConfigError
from .evaluate import GridSpec
from .neural import BatchNorm, Dense, MlpModel, MlpSpec, OptimizerSpec, mlp_build, mlp_train, variant_spec


def _from_params(cls, params: dict, **fixed):
    """``cls`` built from the matching keys of ``params``; absent keys keep their defaults."""
    names = [f.name for f in fields(cls) if f.name in params and f.name not in fixed]
    return cls(**{n: params[n] for n in names}, **fixed)


def _from_doc(cls, doc: dict, **fixed):
    """``cls`` built from a saved document; every field must be present (KeyError)."""
    names = [f.name for f in fields(cls) if f.name not in fixed]
    return cls(**{n: doc[n] for n in names}, **fixed)


def _array(values) -> np.ndarray:
    return np.asarray(values, dtype=np.float64)


def number_array(values, what: str, shape: tuple[int, ...]) -> np.ndarray:
    """Saved ``values``, a list (1-D ``shape``) or a list of rows (2-D) of numbers that
    are not bools, as a float64 array; ConfigError naming ``what`` otherwise."""
    rows = values if len(shape) == 2 else [values]
    if not (type(rows) is list and len(rows) == math.prod(shape[:-1])
            and all(type(row) is list and len(row) == shape[-1] for row in rows)):
        raise ConfigError(f"{what} is not {' x '.join(map(str, shape))} numbers")
    flat = [v for row in rows for v in row]
    if not all(type(v) is float or type(v) is int for v in flat):
        raise ConfigError(f"{what} holds a value that is not a number")
    return _array(flat).reshape(shape)


def finite_array(values, what: str, shape: tuple[int, ...]) -> np.ndarray:
    """``number_array`` of numbers that are all finite."""
    out = number_array(values, what, shape)
    if not np.isfinite(out).all():
        raise ConfigError(f"{what} holds a number that is not finite")
    return out


# --- dt -----------------------------------------------------------------------


def _dt_params(params: dict) -> TreeParams:
    return _from_params(TreeParams, params)


def _fit_dt(X, y, params: dict, n_classes: int) -> DecisionTree:
    return dt_fit(X, y, _dt_params(params), n_classes=n_classes)


def _check_counts(counts, n_classes: int) -> None:
    # plain-Python checks on the parsed list, cheaper than numpy calls on C entries:
    # entries >= 0 with a finite sum are each finite, a non-number but a bool fails
    # sum(), and a bool is refused by its type
    if not (type(counts) is list and len(counts) == n_classes and bool not in map(type, counts)
            and min(counts) >= 0 and 0 < sum(counts) < math.inf):
        raise ConfigError(f"node counts {counts!r} are not {n_classes} finite numbers "
                          f">= 0 with a positive finite sum")


def _root_from_lists(feature, threshold, counts, n_features: int, n_classes: int) -> TreeNode:
    """The tree of the preorder lists ``feature`` (one entry per node, -1 at a leaf),
    ``threshold`` (one per split) and ``counts`` (one per leaf), built from an explicit
    stack; ConfigError if a list is not a list, runs out or has entries left over, or
    at the first bad split feature, threshold or leaf counts.  A split gets no counts:
    prediction reads only the leaves'."""
    for name, values in (("feature", feature), ("threshold", threshold), ("counts", counts)):
        if type(values) is not list:
            raise ConfigError(f"a tree's {name} is not a list")
    # one leaf more than splits, and an entry for each: then the walk runs out of no list
    n_leaves = sum(type(f) is int and f == -1 for f in feature)
    if not len(feature) - n_leaves == len(threshold) == len(counts) - 1 == n_leaves - 1:
        raise ConfigError(f"a tree's {len(feature)} nodes, {n_leaves} of them leaves, do not "
                          f"match its {len(threshold)} thresholds and {len(counts)} counts")
    top = TreeNode(None)  # the tree is its left child
    stack, splits, leaves = [(top, "left")], 0, 0  # where the next node goes
    for f in feature:
        if not stack:
            raise ConfigError("a tree's lists have entries after its last node")
        parent, side = stack.pop()
        if type(f) is int and f == -1:
            _check_counts(counts[leaves], n_classes)
            node = TreeNode(_array(counts[leaves]))
            leaves += 1
        else:
            if not (type(f) is int and 0 <= f < n_features):
                raise ConfigError(f"split feature {f!r} is not an index in [0, {n_features})")
            t = threshold[splits]
            splits += 1
            if not (type(t) in (int, float) and math.isfinite(t)):
                raise ConfigError(f"split threshold {t!r} is not a finite number")
            node = TreeNode(None, f, t)
            stack += ((node, "right"), (node, "left"))
        setattr(parent, side, node)
    return top.left


def _lists_from_nodes(root: dict, n_classes: int) -> tuple[list, list, list]:
    """A version-1 tree's nested node dicts, with counts at every node, as version 2's
    lists; ConfigError at a node whose counts are bad, or that has a threshold or
    children but no split feature."""
    feature, threshold, counts = [], [], []
    stack = [root]
    while stack:
        d = stack.pop()
        _check_counts(d["counts"], n_classes)
        if "feature" in d:
            feature.append(d["feature"])
            threshold.append(d["threshold"])
            stack += (d["right"], d["left"])
        elif d.keys().isdisjoint(("threshold", "left", "right")):
            feature.append(-1)
            counts.append(d["counts"])
        else:
            raise ConfigError("a node with a threshold or children has no split feature")
    return feature, threshold, counts


def _dt_to_dict(model: DecisionTree) -> dict:
    feature, threshold, counts = [], [], []
    stack = [model.root]
    while stack:
        node = stack.pop()
        if node.is_leaf:
            feature.append(-1)
            counts.append(node.counts.tolist())
        else:
            feature.append(node.feature)
            threshold.append(node.threshold)
            stack += (node.right, node.left)
    return {
        "params": asdict(model.params),
        "n_classes": model.n_classes,
        "n_features": model.n_features,
        "feature": feature,
        "threshold": threshold,
        "counts": counts,
    }


def _dt_from_dict(doc: dict) -> DecisionTree:
    n_classes, n_features = doc["n_classes"], doc["n_features"]
    for name, value in (("n_classes", n_classes), ("n_features", n_features)):
        if not (type(value) is int and value >= 1):
            raise ConfigError(f"a tree's {name} {value!r} is not a positive integer")
    params = _from_doc(TreeParams, doc["params"])
    check_tree_params(params)
    if "root" in doc:  # version 1
        lists = _lists_from_nodes(doc["root"], n_classes)
    else:
        lists = doc["feature"], doc["threshold"], doc["counts"]
    return DecisionTree(params, n_classes, n_features,
                        _root_from_lists(*lists, n_features, n_classes))


# --- rf -----------------------------------------------------------------------


def _rf_params(params: dict) -> ForestParams:
    return _from_params(ForestParams, params, tree=_dt_params(params))


def _fit_rf(X, y, params: dict, n_classes: int) -> RandomForest:
    return rf_fit(X, y, _rf_params(params), n_classes=n_classes)


def _rf_identity(params: dict, n_features: int):
    """Tree t of a forest depends only on the seed, t, the tree params and the
    resolved feature count k, so forests that differ only in ``n_estimators``
    are prefixes of the largest one (and ``log2`` grows the ``sqrt`` trees
    wherever both resolve to the same k)."""
    p = _rf_params(params)
    k = resolve_max_features(p.max_features, n_features)
    return replace(p, n_estimators=0, max_features=k), p.n_estimators


def _grow_rf(X, y, params: dict, n_classes: int, trees: range) -> list[DecisionTree]:
    return grow_trees(X, y, _rf_params(params), n_classes=n_classes, trees=trees)


def _rf_join(params: dict, trees: list[DecisionTree], n_classes: int) -> RandomForest:
    return RandomForest(_rf_params(params), trees, n_classes)


def _rf_cut(model: RandomForest, params: dict) -> RandomForest:
    p = _rf_params(params)
    return RandomForest(p, model.trees[:p.n_estimators], model.n_classes)


def _rf_to_dict(model: RandomForest) -> dict:
    # the tree params are stored once per member tree, not in the forest's params
    params = asdict(model.params)
    del params["tree"]
    return {"params": params, "n_classes": model.n_classes, "trees": list(model.trees)}


def _rf_from_dict(doc: dict) -> RandomForest:
    # the trees are models, as _rf_to_dict leaves them and as load_model decodes them
    trees = doc["trees"]
    if not trees:
        raise ConfigError("a forest needs at least one tree")
    if any(type(t) is not DecisionTree for t in trees):
        raise ConfigError("every member of a forest must be of kind 'dt'")
    for i, tree in enumerate(trees):
        if tree.n_classes != doc["n_classes"]:
            raise ConfigError(f"the forest has {doc['n_classes']!r} classes, "
                              f"its tree {i} has {tree.n_classes!r}")
        if tree.n_features != trees[0].n_features:
            raise ConfigError(f"the forest's tree 0 has {trees[0].n_features!r} features, "
                              f"its tree {i} has {tree.n_features!r}")
    params = _from_doc(ForestParams, doc["params"], tree=trees[0].params)
    check_forest_params(params)
    if params.n_estimators != len(trees):
        raise ConfigError(f"the forest's n_estimators {params.n_estimators} is not "
                          f"its {len(trees)} trees")
    return RandomForest(params, trees, doc["n_classes"])


# --- svm ----------------------------------------------------------------------


def _svm_params(params: dict) -> SvmParams:
    return _from_params(SvmParams, params)


def _fit_svm(X, y, params: dict, n_classes: int) -> MulticlassSvm:
    return svm_fit_multiclass(X, y, _svm_params(params), n_classes=n_classes)


def _svm_to_dict(model: MulticlassSvm) -> dict:
    return {
        "n_classes": model.n_classes,
        "machines": [
            {
                "params": asdict(m.params),
                "gamma": m.gamma,
                "sv_x": m.sv_x.tolist(),
                "sv_y": m.sv_y.tolist(),
                "sv_alpha": m.sv_alpha.tolist(),
                "b": m.b,
                "converged": m.converged,
                "n_passes": m.n_passes,
            }
            for m in model.machines
        ],
    }


def _svm_from_dict(doc: dict) -> MulticlassSvm:
    """ConfigError unless there is one machine per class, each with n_sv >= 1 support
    vectors of one width d for all, labels of +-1, alphas >= 0, b finite and gamma
    finite and positive, and a kernel of KERNELS."""
    saved, n_classes = doc["machines"], doc["n_classes"]
    if not (type(saved) is list and type(n_classes) is int and n_classes == len(saved) >= 2):
        raise ConfigError(f"an SVM's n_classes {n_classes!r} is not its number of machines, "
                          f"at least 2")
    machines, width = [], None
    for i, m in enumerate(saved):
        what = f"SVM machine {i}"
        sv_x = m["sv_x"]
        if not (type(sv_x) is list and sv_x and type(sv_x[0]) is list):
            raise ConfigError(f"{what} sv_x is not a list of support vectors")
        if width is None:
            width = len(sv_x[0])
        shape = (len(sv_x), width)
        x = finite_array(sv_x, f"{what} sv_x", shape)
        y = finite_array(m["sv_y"], f"{what} sv_y", shape[:1])
        if not (np.abs(y) == 1.0).all():
            raise ConfigError(f"{what} sv_y holds a label other than +1 and -1")
        alpha = finite_array(m["sv_alpha"], f"{what} sv_alpha", shape[:1])
        if (alpha < 0.0).any():
            raise ConfigError(f"{what} sv_alpha holds a negative number")
        b = finite_array([m["b"]], f"{what} b", (1,)).item()
        gamma = finite_array([m["gamma"]], f"{what} gamma", (1,)).item()
        if not gamma > 0.0:
            raise ConfigError(f"{what} gamma {gamma!r} is not positive")
        params = _from_doc(SvmParams, m["params"])
        if params.kernel not in KERNELS:
            raise ConfigError(f"{what} kernel {params.kernel!r} is not one of {KERNELS}")
        check_svm_params(params)
        converged, n_passes = m["converged"], m["n_passes"]
        if not (type(converged) is bool and type(n_passes) is int
                and 0 <= n_passes <= params.max_passes):
            raise ConfigError(f"{what} converged {converged!r} and n_passes {n_passes!r} are "
                              f"not a bool and a pass count in [0, {params.max_passes}]")
        machines.append(BinarySvm(params, gamma, x, y, alpha, b, converged, n_passes))
    return MulticlassSvm(machines, n_classes)


# --- mlp ----------------------------------------------------------------------


def _fit_mlp(X, y, params: dict, n_classes: int) -> MlpModel:
    overrides = {k: params[k] for k in ("epochs", "seed") if k in params}
    spec = variant_spec(params.get("variant", "baseline"), X.shape[1], n_classes, **overrides)
    return mlp_train(mlp_build(spec), X, y)


# the layers that carry saved arrays: (saved "type", array attributes)
_SAVED_LAYERS = {
    Dense: ("dense", ("W", "b")),
    BatchNorm: ("batchnorm", ("gamma", "beta", "running_mean", "running_var")),
}


def _mlp_to_dict(model: MlpModel) -> dict:
    weights = []
    for layer in model.layers:
        if type(layer) in _SAVED_LAYERS:
            kind, names = _SAVED_LAYERS[type(layer)]
            weights.append({"type": kind, **{n: getattr(layer, n).tolist() for n in names}})
    return {"spec": asdict(model.spec), "weights": weights}


def _mlp_from_dict(doc: dict) -> MlpModel:
    s = doc["spec"]
    model = mlp_build(_from_doc(MlpSpec, s, hidden_sizes=tuple(s["hidden_sizes"]),
                                optimizer=_from_doc(OptimizerSpec, s["optimizer"])))
    layers = [layer for layer in model.layers if type(layer) in _SAVED_LAYERS]
    if len(doc["weights"]) != len(layers):
        raise ConfigError(f"the spec has {len(layers)} weighted layers, "
                          f"the file saves {len(doc['weights'])}")
    for i, (layer, w) in enumerate(zip(layers, doc["weights"])):
        for name in _SAVED_LAYERS[type(layer)][1]:
            # written into the built arrays: W, b, gamma and beta are views of model.theta;
            # a weight that is not finite is refused where it makes a score not finite
            target, what = getattr(layer, name), f"weights[{i}] {name}"
            if np.shape(w[name]) != target.shape:
                raise ConfigError(f"{what} has shape {np.shape(w[name])}, "
                                  f"the spec needs {target.shape}")
            target[...] = number_array(w[name], what, target.shape)
    return model


# --- the table ------------------------------------------------------------------


@dataclass(frozen=True)
class Family:
    """One model family.  Grids are ordered ``(name, values)`` axes; a family
    that is never grid-searched has none, and no ``params`` or ``identity``."""

    model: type
    fit: Callable  # (X, y, params dict, n_classes) -> fitted model; ignores keys it lacks
    to_dict: Callable  # fitted model -> dict without its "kind", JSON-ready but for member models
    from_dict: Callable  # that dict -> fitted model; KeyError on a missing key
    params: Callable | None = None  # params dict -> the params dataclass ``fit`` builds
    # (params dict, n_features) -> (key, size): equal keys are one model up to a cut
    identity: Callable | None = None
    # (model of a group's largest candidate, params dict) -> that candidate's model;
    # None where equal keys are the same model
    cut: Callable | None = None
    # for a model of independent members (a forest's trees): (X, y, params dict,
    # n_classes, indices: range) -> the members of those indices of the model ``fit``
    # builds, and (params dict, the members of every index, in order, n_classes) -> it
    grow: Callable | None = None
    join: Callable | None = None
    small_grid: tuple = ()
    default_grid: tuple = ()


FAMILIES = {
    "dt": Family(
        DecisionTree, _fit_dt, _dt_to_dict, _dt_from_dict,
        params=_dt_params, identity=lambda params, d: (_dt_params(params), 0),
        small_grid=(("max_depth", (16, None)), ("min_samples_leaf", (1, 5))),
        default_grid=(("max_depth", (8, 16, None)), ("min_samples_leaf", (1, 5, 20))),
    ),
    "rf": Family(
        RandomForest, _fit_rf, _rf_to_dict, _rf_from_dict,
        params=_rf_params, identity=_rf_identity, cut=_rf_cut,
        grow=_grow_rf, join=_rf_join,
        small_grid=(("n_estimators", (25, 50)), ("max_features", ("sqrt", "all"))),
        default_grid=(("n_estimators", (50, 100, 200)),
                      ("max_features", ("sqrt", "log2", "all"))),
    ),
    "svm": Family(
        MulticlassSvm, _fit_svm, _svm_to_dict, _svm_from_dict,
        params=_svm_params, identity=lambda params, d: (_svm_params(params), 0),
        small_grid=(("kernel", ("rbf",)), ("C", (1.0, 10.0))),
        default_grid=(("kernel", ("linear", "rbf")), ("C", (0.1, 1.0, 10.0)),
                      ("gamma", ("scale", 0.1, 1.0))),
    ),
    "mlp": Family(MlpModel, _fit_mlp, _mlp_to_dict, _mlp_from_dict),
}

# families a run tunes by grid search; the MLP runs as the configured ANN variants
CLASSICAL_FAMILIES = tuple(f for f in FAMILIES if f != "mlp")


def default_grid(family: str, scale: str = "default") -> GridSpec:
    """Tuning grids spanning kernel/regularization, depth/leaf, and count/subset axes."""
    if family not in FAMILIES:
        raise ConfigError(f"no default grid for family {family!r}")
    entry = FAMILIES[family]
    return GridSpec(entry.small_grid if scale == "small" else entry.default_grid)


def candidates(family: str, scale: str, seed: int) -> list[dict]:
    """The params a run selects from: the baseline, then the cells of the ``scale``
    grid (``none``: the baseline alone), all drawing from ``seed``.

    The baseline spells each grid axis at its params default, so it is a row of
    the grid table, and being first it wins every tie.
    """
    base = {"seed": seed}
    if scale == "none":
        return [base]
    grid = default_grid(family, scale)
    defaults = FAMILIES[family].params(base)
    return [{**base, **{name: getattr(defaults, name) for name, _ in grid.axes}},
            *({**base, **cell} for cell in grid.cells())]
