"""Versioned JSON serialization for fitted models and pipelines."""

from __future__ import annotations

import json
from dataclasses import fields

import numpy as np

from .ensemble import VotingEnsemble
from .errors import ConfigError, CorruptModel
from .evaluate import REDUCTIONS, FeaturePipeline
from .models import FAMILIES, decode_node, finite_array
from .preprocess import VERSIONS, Scaler

FORMAT = "enose-model"
FORMAT_VERSION = 1


def model_to_dict(model) -> dict:
    """The model's saved form; a forest's trees are left as models, which ``save_model``'s
    encoder makes dicts one at a time as it writes them."""
    if isinstance(model, VotingEnsemble):
        return {"kind": "ensemble", "members": [model_to_dict(m) for m in model.members]}
    for kind, family in FAMILIES.items():
        if isinstance(model, family.model):
            return {"kind": kind, **family.to_dict(model)}
    raise ConfigError(f"cannot serialize model of type {type(model).__name__}")


def model_from_dict(doc: dict):
    kind = doc["kind"]
    if kind == "ensemble":
        return VotingEnsemble([model_from_dict(m) for m in doc["members"]])
    if kind not in FAMILIES:
        raise ConfigError(f"unknown model kind {kind!r}")
    return FAMILIES[kind].from_dict(doc)


def pipeline_to_dict(pipe: FeaturePipeline) -> dict:
    s = pipe.scaler
    out: dict = {
        "version": pipe.version,
        "scaler": {
            "means": s.means.tolist(),
            "stds": s.stds.tolist(),
            "degenerate": s.degenerate.tolist(),
        },
    }
    r = pipe.reducer
    if r is not None:
        out["reducer"] = {"kind": REDUCTIONS[pipe.version].kind,
                          **{f.name: np.asarray(getattr(r, f.name)).tolist() for f in fields(r)}}
    return out


def pipeline_from_dict(doc: dict) -> FeaturePipeline:
    """A fitted pipeline; ConfigError if a part is missing, extra or of another width."""
    version = doc["version"]
    if version not in VERSIONS:
        raise ConfigError(f"pipeline version {version!r} is not one of {VERSIONS}")
    pipe = FeaturePipeline(version)
    s = doc["scaler"]
    width, degenerate = len(s["means"]), s["degenerate"]
    if not width == len(s["stds"]) == len(degenerate):
        raise ConfigError("scaler means, stds and degenerate differ in length")
    if not (type(degenerate) is list and all(type(v) is bool for v in degenerate)):
        raise ConfigError(f"scaler degenerate is not {width} bools")
    pipe.scaler = Scaler(finite_array(s["means"], "scaler means", (width,)),
                         finite_array(s["stds"], "scaler stds", (width,)),
                         np.array(degenerate, dtype=bool))
    reduction = REDUCTIONS.get(version)
    kind = None if reduction is None else reduction.kind
    r = doc.get("reducer")
    found = None if r is None else r["kind"]
    if found != kind:
        raise ConfigError(f"a {version} pipeline needs reducer kind {kind!r}, found {found!r}")
    if r is not None:
        cls = reduction.model
        pipe.reducer = cls(**{f.name: np.asarray(r[f.name]) if isinstance(r[f.name], list)
                              else r[f.name] for f in fields(cls)})
        if len(pipe.reducer.means) != width:
            raise ConfigError(f"reducer width {len(pipe.reducer.means)} is not the scaler "
                              f"width {width}")
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
        json.dump(doc, fh, sort_keys=True, indent=1, default=model_to_dict)
        fh.write("\n")


def load_model(path: str):
    """Returns (model, pipeline-or-None, classes-or-None).

    Raises ConfigError for a document of another format, and CorruptModel
    for an enose document that is truncated, malformed (including an unknown
    model kind, and a pipeline without the scaler or reducer its version
    needs) or of another version.
    """
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh, object_hook=decode_node)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise CorruptModel(f"{path}: not valid JSON ({exc})") from exc
        except RecursionError as exc:
            raise CorruptModel(f"{path}: nested too deeply to decode ({exc})") from exc
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
        classes = doc.get("classes")
        if classes is not None and (type(classes) is not list
                                    or len(classes) != model.n_classes):
            raise ConfigError(f"classes {classes!r} do not name the model's "
                              f"{model.n_classes} classes")
    except KeyError as exc:
        raise CorruptModel(f"{path}: malformed {FORMAT} document, missing key {exc}") from exc
    except (ConfigError, TypeError, ValueError, IndexError, OverflowError, RecursionError) as exc:
        raise CorruptModel(f"{path}: malformed {FORMAT} document ({exc})") from exc
    return model, pipeline, classes
