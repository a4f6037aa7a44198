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

from .classifiers.forest import ForestParams, RandomForest, resolve_max_features, rf_fit
from .classifiers.svm import BinarySvm, MulticlassSvm, SvmParams, svm_fit_multiclass
from .classifiers.tree import DecisionTree, TreeNode, TreeParams, dt_fit
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


# --- dt -----------------------------------------------------------------------


def _dt_params(params: dict) -> TreeParams:
    return _from_params(TreeParams, params)


def _fit_dt(X, y, params: dict, n_classes: int) -> DecisionTree:
    return dt_fit(X, y, _dt_params(params), n_classes=n_classes)


def _node_to_dict(node: TreeNode) -> dict:
    if node.is_leaf:
        return {"counts": node.counts.tolist()}
    return {
        "counts": node.counts.tolist(),
        "feature": node.feature,
        "threshold": node.threshold,
        "left": _node_to_dict(node.left),
        "right": _node_to_dict(node.right),
    }


def _node_from_dict(d: dict, n_features: int, n_classes: int) -> TreeNode:
    # plain-Python checks on the parsed list, cheaper than numpy calls on C entries:
    # entries >= 0 with a finite sum are each finite, and a non-number fails sum()
    counts = d["counts"]
    if not (type(counts) is list and len(counts) == n_classes
            and min(counts) >= 0 and 0 < sum(counts) < math.inf):
        raise ConfigError(f"node counts {counts!r} are not {n_classes} finite numbers "
                          f">= 0 with a positive finite sum")
    node = TreeNode(counts=_array(counts))
    if "feature" in d:
        node.feature = d["feature"]
        if not (type(node.feature) is int and 0 <= node.feature < n_features):
            raise ConfigError(f"split feature {node.feature!r} is not an index "
                              f"in [0, {n_features})")
        node.threshold = d["threshold"]
        if not (type(node.threshold) in (int, float) and math.isfinite(node.threshold)):
            raise ConfigError(f"split threshold {node.threshold!r} is not a finite number")
        node.left = _node_from_dict(d["left"], n_features, n_classes)
        node.right = _node_from_dict(d["right"], n_features, n_classes)
    return node


def _dt_to_dict(model: DecisionTree) -> dict:
    return {
        "params": asdict(model.params),
        "n_classes": model.n_classes,
        "n_features": model.n_features,
        "root": _node_to_dict(model.root),
    }


def _dt_from_dict(doc: dict) -> DecisionTree:
    n_classes, n_features = doc["n_classes"], doc["n_features"]
    if not (type(n_classes) is int and n_classes >= 1):
        raise ConfigError(f"a tree's n_classes {n_classes!r} is not a positive integer")
    return DecisionTree(_from_doc(TreeParams, doc["params"]), n_classes, n_features,
                        _node_from_dict(doc["root"], n_features, n_classes))


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


def _rf_cut(model: RandomForest, params: dict) -> RandomForest:
    p = _rf_params(params)
    return RandomForest(p, model.trees[:p.n_estimators], model.n_classes)


def _rf_to_dict(model: RandomForest) -> dict:
    # the tree params are stored once per member tree, not in the forest's params
    params = asdict(model.params)
    del params["tree"]
    return {
        "params": params,
        "n_classes": model.n_classes,
        "trees": [{"kind": "dt", **_dt_to_dict(t)} for t in model.trees],
    }


def _rf_from_dict(doc: dict) -> RandomForest:
    if any(t["kind"] != "dt" for t in doc["trees"]):
        raise ConfigError("every member of a forest must be of kind 'dt'")
    trees = [_dt_from_dict(t) for t in doc["trees"]]
    for i, tree in enumerate(trees):
        if tree.n_classes != doc["n_classes"]:
            raise ConfigError(f"the forest has {doc['n_classes']!r} classes, "
                              f"its tree {i} has {tree.n_classes!r}")
    tree_params = trees[0].params if trees else TreeParams()
    return RandomForest(_from_doc(ForestParams, doc["params"], tree=tree_params),
                        trees, doc["n_classes"])


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
    machines = [
        BinarySvm(_from_doc(SvmParams, m["params"]), m["gamma"], _array(m["sv_x"]),
                  _array(m["sv_y"]), _array(m["sv_alpha"]), m["b"], m["converged"],
                  m["n_passes"])
        for m in doc["machines"]
    ]
    return MulticlassSvm(machines, doc["n_classes"])


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
            # written into the built arrays: W, b, gamma and beta are views of model.theta
            target, value = getattr(layer, name), _array(w[name])
            if value.shape != target.shape:
                raise ConfigError(f"weights[{i}] {name} has shape {value.shape}, "
                                  f"the spec needs {target.shape}")
            target[...] = value
    return model


# --- the table ------------------------------------------------------------------


@dataclass(frozen=True)
class Family:
    """One model family.  Grids are ordered ``(name, values)`` axes; a family
    that is never grid-searched has none, and no ``params`` or ``identity``."""

    model: type
    fit: Callable  # (X, y, params dict, n_classes) -> fitted model; ignores keys it lacks
    to_dict: Callable  # fitted model -> JSON-ready dict, without its "kind"
    from_dict: Callable  # that dict -> fitted model; KeyError on a missing key
    params: Callable | None = None  # params dict -> the params dataclass ``fit`` builds
    # (params dict, n_features) -> (key, size): equal keys are one model up to a cut
    identity: Callable | None = None
    # (model of a group's largest candidate, params dict) -> that candidate's model;
    # None where equal keys are the same model
    cut: Callable | None = None
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
