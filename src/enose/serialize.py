"""Versioned JSON serialization for fitted models and pipelines."""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from dataclasses import fields

import numpy as np

from .classifiers.tree import TreeNode
from .ensemble import VotingEnsemble
from .errors import ConfigError, CorruptModel, ENoseError
from .evaluate import REDUCTIONS, FeaturePipeline
from .models import FAMILIES, finite_array
from .preprocess import VERSIONS, Scaler

FORMAT = "enose-model"
FORMAT_VERSION = 1


def model_to_dict(model) -> dict:
    """The model's saved form; a forest's trees are left as models and a tree's root as
    its node, which ``save_model`` writes one tree at a time."""
    if isinstance(model, VotingEnsemble):
        return {"kind": "ensemble", "members": [model_to_dict(m) for m in model.members]}
    for kind, family in FAMILIES.items():
        if isinstance(model, family.model):
            return {"kind": kind, **family.to_dict(model)}
    raise ConfigError(f"cannot serialize model of type {type(model).__name__}")


def model_from_dict(doc: dict):
    if type(doc) is FAMILIES["dt"].model:  # a tree load_model built as it decoded the file
        return doc
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
        pipe.reducer = _reducer_from_dict(reduction.model, r, width)
    return pipe


def _rows(value, what: str, width: int) -> np.ndarray:
    if not (type(value) is list and value):
        raise ConfigError(f"{what} is not rows of {width} numbers")
    return finite_array(value, what, (len(value), width))


def _reducer_from_dict(cls, r: dict, width: int):
    """The saved reducer as ``cls``; ConfigError unless ``means`` is ``width`` finite
    numbers, the m >= 1 projection rows (PCA ``components``, LDA ``directions``) and
    LDA's ``class_means`` are rows of ``width`` finite numbers, ``eigenvalues`` is m
    finite numbers and LDA's ``ridge`` is a finite number."""
    means = r["means"]
    if type(means) is list and len(means) != width:
        raise ConfigError(f"reducer width {len(means)} is not the scaler width {width}")
    saved = {"means": finite_array(means, "reducer means", (width,))}
    names = [f.name for f in fields(cls)]
    projection = names[1]  # the field after means in both reducer classes
    saved[projection] = _rows(r[projection], f"reducer {projection}", width)
    saved["eigenvalues"] = finite_array(r["eigenvalues"], "reducer eigenvalues",
                                        saved[projection].shape[:1])
    if "ridge" in names:
        saved["class_means"] = _rows(r["class_means"], "reducer class_means", width)
        saved["ridge"] = finite_array([r["ridge"]], "reducer ridge", (1,)).item()
    return cls(**saved)


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
    write_json(path, doc)


def write_json(path: str, doc) -> None:
    """``doc`` written to ``path``, and its directory made, as ``json.dumps(doc,
    indent=1, sort_keys=True)`` and a newline: a model file, report or summary.

    The standard encoder's text is streamed into the file, a model encoded as
    its ``model_to_dict``.  A tree node is handed to the encoder as a stand-in
    string, and the chunk the encoder makes of it, the next one, is replaced
    by the node's ``_tree_text`` at the indentation of the line it is on; so
    the text of at most one tree exists at once.
    """
    pending = []

    def default(value):
        if isinstance(value, TreeNode):
            pending.append(value)
            return STAND_IN
        return model_to_dict(value)

    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    level = 0
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for chunk in json.JSONEncoder(indent=1, sort_keys=True, default=default).iterencode(doc):
            if pending:
                chunk = _tree_text(pending.pop(), level)
            elif "\n" in chunk:
                level = len(chunk) - chunk.rindex("\n") - 1
            fh.write(chunk)
        fh.write("\n")


STAND_IN = "tree node"  # what write_json hands the encoder for a tree node


def _tree_text(root: TreeNode, level: int) -> str:
    """The node dicts of the tree under ``root`` as ``json`` writes them at ``level``
    (``counts``, then ``feature``, ``left``, ``right`` and ``threshold`` at a split),
    made in preorder from an explicit stack, so a tree of any depth is written."""
    chunks, stack = [], [(root, level)]
    while stack:
        item = stack.pop()
        if type(item) is str:
            chunks.append(item)
            continue
        node, level = item
        close = "\n" + " " * level
        inner = close + " "
        counts = ("," + inner + " ").join(map(float.__repr__, node.counts.tolist()))
        chunks.append(f'{{{inner}"counts": [{inner} {counts}{inner}]')
        if node.is_leaf:
            chunks.append(close + "}")
            continue
        chunks.append(f',{inner}"feature": {node.feature!r},{inner}"left": ')
        stack += (f',{inner}"threshold": {node.threshold!r}{close}}}',
                  (node.right, level + 1), f',{inner}"right": ', (node.left, level + 1))
    return "".join(chunks)


def _decode_tree(d: dict):
    """``json`` object hook: a saved tree built as soon as its dict is decoded, so that
    the node dicts of only one tree exist at a time; any other dict as it is."""
    return FAMILIES["dt"].from_dict(d) if d.get("kind") == "dt" else d


@contextmanager
def _malformed(path: str):
    """A toolkit or builtin error of a malformed document, raised in the block, as CorruptModel."""
    try:
        yield
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise CorruptModel(f"{path}: not valid JSON ({exc})") from exc
    except RecursionError as exc:
        raise CorruptModel(f"{path}: nested too deeply to decode ({exc})") from exc
    except KeyError as exc:
        raise CorruptModel(f"{path}: malformed {FORMAT} document, missing key {exc}") from exc
    except (ENoseError, TypeError, ValueError, IndexError, OverflowError) as exc:
        raise CorruptModel(f"{path}: malformed {FORMAT} document ({exc})") from exc


def load_model(path: str):
    """Returns (model, pipeline-or-None, classes-or-None).

    Raises ConfigError for a document of another format, and CorruptModel naming
    ``path`` for an enose document that is truncated, malformed (an unknown model
    kind, a pipeline without its version's scaler or reducer, ``classes`` that are
    not the model's class count of strings) or of another version.
    """
    with open(path, encoding="utf-8") as fh, _malformed(path):
        doc = json.load(fh, object_hook=_decode_tree)
    if not isinstance(doc, dict) or doc.get("format") != FORMAT:
        raise ConfigError(f"{path} is not an {FORMAT} document")
    if doc.get("format_version") != FORMAT_VERSION:
        raise CorruptModel(
            f"{path}: format_version {doc.get('format_version')!r} is not supported "
            f"(expected {FORMAT_VERSION})"
        )
    with _malformed(path):
        model = model_from_dict(doc["model"])
        pipeline = pipeline_from_dict(doc["pipeline"]) if "pipeline" in doc else None
        classes = doc.get("classes")
        if classes is not None and not (type(classes) is list
                                        and len(classes) == model.n_classes
                                        and all(type(c) is str for c in classes)):
            raise ConfigError(f"classes {classes!r} do not name the model's "
                              f"{model.n_classes} classes")
    return model, pipeline, classes
