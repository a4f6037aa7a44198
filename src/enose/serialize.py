"""Versioned JSON serialization for fitted models and pipelines."""

from __future__ import annotations

import json

import numpy as np

from .classifiers.forest import ForestParams, RandomForest
from .classifiers.svm import BinarySvm, MulticlassSvm, SvmParams
from .classifiers.tree import DecisionTree, TreeNode, TreeParams
from .ensemble import VotingEnsemble
from .errors import ConfigError, CorruptModel
from .evaluate import FeaturePipeline
from .neural import Dense, BatchNorm, MlpModel, MlpSpec, OptimizerSpec, mlp_build
from .preprocess import Scaler
from .reduce import LdaModel, PcaModel

FORMAT = "enose-model"
FORMAT_VERSION = 1


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


def _node_from_dict(d: dict) -> TreeNode:
    node = TreeNode(counts=np.asarray(d["counts"], dtype=np.float64))
    if "feature" in d:
        node.feature = d["feature"]
        node.threshold = d["threshold"]
        node.left = _node_from_dict(d["left"])
        node.right = _node_from_dict(d["right"])
    return node


def model_to_dict(model) -> dict:
    if isinstance(model, DecisionTree):
        return {
            "kind": "dt",
            "params": {
                "max_depth": model.params.max_depth,
                "min_samples_split": model.params.min_samples_split,
                "min_samples_leaf": model.params.min_samples_leaf,
            },
            "n_classes": model.n_classes,
            "n_features": model.n_features,
            "root": _node_to_dict(model.root),
        }
    if isinstance(model, RandomForest):
        return {
            "kind": "rf",
            "params": {
                "n_estimators": model.params.n_estimators,
                "max_features": model.params.max_features,
                "bootstrap": model.params.bootstrap,
                "seed": model.params.seed,
            },
            "n_classes": model.n_classes,
            "trees": [model_to_dict(t) for t in model.trees],
        }
    if isinstance(model, MulticlassSvm):
        return {
            "kind": "svm",
            "n_classes": model.n_classes,
            "machines": [
                {
                    "params": {
                        "kernel": m.params.kernel,
                        "C": m.params.C,
                        "gamma": m.params.gamma,
                        "tol": m.params.tol,
                        "max_passes": m.params.max_passes,
                    },
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
    if isinstance(model, MlpModel):
        weights = []
        for layer in model.layers:
            if isinstance(layer, Dense):
                weights.append({"type": "dense", "W": layer.W.tolist(), "b": layer.b.tolist()})
            elif isinstance(layer, BatchNorm):
                weights.append({
                    "type": "batchnorm",
                    "gamma": layer.gamma.tolist(),
                    "beta": layer.beta.tolist(),
                    "running_mean": layer.running_mean.tolist(),
                    "running_var": layer.running_var.tolist(),
                })
        s = model.spec
        return {
            "kind": "mlp",
            "spec": {
                "input_dim": s.input_dim,
                "n_classes": s.n_classes,
                "hidden_sizes": list(s.hidden_sizes),
                "noise_sigma": s.noise_sigma,
                "dropout_p": s.dropout_p,
                "use_batchnorm": s.use_batchnorm,
                "l2_lambda": s.l2_lambda,
                "optimizer": {
                    "kind": s.optimizer.kind,
                    "lr": s.optimizer.lr,
                    "beta1": s.optimizer.beta1,
                    "beta2": s.optimizer.beta2,
                    "eps": s.optimizer.eps,
                },
                "epochs": s.epochs,
                "batch_size": s.batch_size,
                "seed": s.seed,
            },
            "weights": weights,
        }
    if isinstance(model, VotingEnsemble):
        return {"kind": "ensemble", "members": [model_to_dict(m) for m in model.members]}
    raise ConfigError(f"cannot serialize model of type {type(model).__name__}")


def model_from_dict(doc: dict):
    kind = doc["kind"]
    if kind == "dt":
        p = doc["params"]
        params = TreeParams(p["max_depth"], p["min_samples_split"], p["min_samples_leaf"])
        return DecisionTree(params, doc["n_classes"], doc["n_features"], _node_from_dict(doc["root"]))
    if kind == "rf":
        p = doc["params"]
        trees = [model_from_dict(t) for t in doc["trees"]]
        # every member tree carries the forest's TreeParams
        tree_params = trees[0].params if trees else TreeParams()
        params = ForestParams(p["n_estimators"], p["max_features"], p["bootstrap"], tree_params, p["seed"])
        return RandomForest(params, trees, doc["n_classes"])
    if kind == "svm":
        machines = []
        for m in doc["machines"]:
            p = m["params"]
            params = SvmParams(p["kernel"], p["C"], p["gamma"], p["tol"], p["max_passes"])
            machines.append(BinarySvm(
                params, m["gamma"],
                np.asarray(m["sv_x"], dtype=np.float64),
                np.asarray(m["sv_y"], dtype=np.float64),
                np.asarray(m["sv_alpha"], dtype=np.float64),
                m["b"], m["converged"], m["n_passes"],
            ))
        return MulticlassSvm(machines, doc["n_classes"])
    if kind == "mlp":
        s = doc["spec"]
        o = s["optimizer"]
        spec = MlpSpec(
            input_dim=s["input_dim"], n_classes=s["n_classes"],
            hidden_sizes=tuple(s["hidden_sizes"]), noise_sigma=s["noise_sigma"],
            dropout_p=s["dropout_p"], use_batchnorm=s["use_batchnorm"],
            l2_lambda=s["l2_lambda"],
            optimizer=OptimizerSpec(o["kind"], o["lr"], o["beta1"], o["beta2"], o["eps"]),
            epochs=s["epochs"], batch_size=s["batch_size"], seed=s["seed"],
        )
        model = mlp_build(spec)
        it = iter(doc["weights"])
        for layer in model.layers:
            if isinstance(layer, Dense):
                w = next(it)
                layer.W = np.asarray(w["W"], dtype=np.float64)
                layer.b = np.asarray(w["b"], dtype=np.float64)
            elif isinstance(layer, BatchNorm):
                w = next(it)
                layer.gamma = np.asarray(w["gamma"], dtype=np.float64)
                layer.beta = np.asarray(w["beta"], dtype=np.float64)
                layer.running_mean = np.asarray(w["running_mean"], dtype=np.float64)
                layer.running_var = np.asarray(w["running_var"], dtype=np.float64)
        return model
    if kind == "ensemble":
        return VotingEnsemble([model_from_dict(m) for m in doc["members"]])
    raise ConfigError(f"unknown model kind {kind!r}")


def pipeline_to_dict(pipe: FeaturePipeline) -> dict:
    out: dict = {"version": pipe.version}
    if pipe.scaler is not None:
        out["scaler"] = {
            "means": pipe.scaler.means.tolist(),
            "stds": pipe.scaler.stds.tolist(),
            "degenerate": pipe.scaler.degenerate.tolist(),
        }
    r = pipe.reducer
    if isinstance(r, PcaModel):
        out["reducer"] = {
            "kind": "pca", "means": r.means.tolist(),
            "components": r.components.tolist(), "eigenvalues": r.eigenvalues.tolist(),
        }
    elif isinstance(r, LdaModel):
        out["reducer"] = {
            "kind": "lda", "means": r.means.tolist(), "directions": r.directions.tolist(),
            "class_means": r.class_means.tolist(), "ridge": r.ridge,
            "eigenvalues": r.eigenvalues.tolist(),
        }
    return out


def pipeline_from_dict(doc: dict) -> FeaturePipeline:
    pipe = FeaturePipeline(doc["version"])
    if "scaler" in doc:
        s = doc["scaler"]
        pipe.scaler = Scaler(
            np.asarray(s["means"]), np.asarray(s["stds"]),
            np.asarray(s["degenerate"], dtype=bool),
        )
    r = doc.get("reducer")
    if r is not None:
        if r["kind"] == "pca":
            pipe.reducer = PcaModel(
                np.asarray(r["means"]), np.asarray(r["components"]), np.asarray(r["eigenvalues"])
            )
        else:
            pipe.reducer = LdaModel(
                np.asarray(r["means"]), np.asarray(r["directions"]),
                np.asarray(r["class_means"]), r["ridge"], np.asarray(r["eigenvalues"]),
            )
    return pipe


def save_model(path: str, model, pipeline: FeaturePipeline | None = None,
               classes: list[str] | None = None) -> None:
    doc = {
        "format": FORMAT,
        "format_version": FORMAT_VERSION,
        "model": model_to_dict(model),
    }
    if pipeline is not None:
        doc["pipeline"] = pipeline_to_dict(pipeline)
    if classes is not None:
        doc["classes"] = list(classes)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(doc, fh, sort_keys=True, indent=1)
        fh.write("\n")


def load_model(path: str):
    """Returns (model, pipeline-or-None, classes-or-None).

    Raises ConfigError for a document of another format, and CorruptModel
    for an enose document that is truncated, malformed (including an unknown
    model kind) or of another version.
    """
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise CorruptModel(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(doc, dict) or doc.get("format") != FORMAT:
        raise ConfigError(f"{path} is not an {FORMAT} document")
    if doc.get("format_version") != FORMAT_VERSION:
        raise CorruptModel(
            f"{path}: format_version {doc.get('format_version')!r} is not supported "
            f"(expected {FORMAT_VERSION})"
        )
    try:
        model = model_from_dict(doc["model"])
        pipeline = pipeline_from_dict(doc["pipeline"]) if "pipeline" in doc else None
    except KeyError as exc:
        raise CorruptModel(f"{path}: malformed {FORMAT} document, missing key {exc}") from exc
    except (ConfigError, TypeError, ValueError, IndexError, StopIteration) as exc:
        raise CorruptModel(f"{path}: malformed {FORMAT} document ({exc})") from exc
    return model, pipeline, doc.get("classes")
