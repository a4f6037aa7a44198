import json

import numpy as np
import pytest

from enose.classifiers.tree import TreeNode
from enose.dataset import Dataset, stratified_split
from enose.ensemble import VotingEnsemble
from enose.serialize import model_to_dict, pipeline_to_dict
from enose.synth import default_spec, generate


@pytest.fixture(scope="session")
def tiny_drifted():
    """100 samples/class, drift enabled."""
    return generate(default_spec(100, 0))


@pytest.fixture(scope="session")
def tiny_split(tiny_drifted):
    return stratified_split(tiny_drifted, 0.2, 7)


def make_dataset(X, y, n_classes=None, names=None):
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    C = n_classes or int(y.max()) + 1
    feature_names = names or tuple(f"f{i}" for i in range(X.shape[1]))
    return Dataset(tuple(feature_names), X, y, tuple(f"c{i}" for i in range(C)))


def node_dict(node: TreeNode) -> dict:
    """A fitted tree's node as format version 1 saved it: a nested dict, with counts
    at every node."""
    if node.is_leaf:
        return {"counts": node.counts.tolist()}
    return {"counts": node.counts.tolist(), "feature": node.feature,
            "threshold": node.threshold, "left": node_dict(node.left),
            "right": node_dict(node.right)}


def _version_1(value) -> dict:
    """``json``'s ``default=`` hook that writes a model as format version 1 did: a
    tree's nodes as nested dicts under ``root``, an ensemble's member trees too."""
    if isinstance(value, VotingEnsemble):
        return {"kind": "ensemble", "members": list(map(_version_1, value.members))}
    doc = model_to_dict(value)
    if doc["kind"] == "dt":
        for key in ("feature", "threshold", "counts"):
            del doc[key]
        doc["root"] = node_dict(value.root)
    return doc


def write_version_1(path, model, pipeline=None, classes=None) -> None:
    """A fitted ``model`` (and its pipeline and classes) written to ``path`` as a
    format version 1 file, the reference for reading old files."""
    doc = {"format": "enose-model", "format_version": 1, "model": model}
    if pipeline is not None:
        doc.update(pipeline=pipeline_to_dict(pipeline), classes=classes)
    path.write_text(json.dumps(doc, indent=1, sort_keys=True, default=_version_1) + "\n")
