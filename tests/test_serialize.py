import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from enose.classifiers.forest import ForestParams, rf_fit
from enose.classifiers.tree import TreeParams, dt_fit
from enose.ensemble import VotingEnsemble
from enose.errors import ConfigError
from enose.evaluate import FeaturePipeline
from enose.models import FAMILIES
from enose.serialize import (load_model, model_from_dict, model_to_dict, pipeline_to_dict,
                             save_model, write_json)
from tests.conftest import node_dict, write_version_1


def _blobs(n_per=20, C=3, d=4, seed=0):
    rng = np.random.default_rng(seed)
    X = np.vstack([rng.normal(size=(n_per, d)) + 3.0 * c for c in range(C)])
    y = np.repeat(np.arange(C), n_per)
    return X, y


def _round_trip(model, tmp_path, name):
    path = str(tmp_path / f"{name}.model.json")
    save_model(path, model)
    back, pipe, classes = load_model(path)
    assert pipe is None and classes is None
    return back


@pytest.fixture(scope="module")
def query():
    return np.random.default_rng(9).normal(size=(15, 4)) * 3.0


def _rf_params_kept(model, back, query):
    assert model.params.tree == TreeParams(max_depth=2, min_samples_leaf=3)
    assert back.params == model.params
    assert all(t.params == model.params.tree for t in back.trees)


def _svm_machines_kept(model, back, query):
    for m, b in zip(model.machines, back.machines, strict=True):
        assert b.params == m.params  # gamma stays "scale", not the resolved float
        assert (b.gamma, b.n_passes, b.converged, b.b) == (m.gamma, m.n_passes, m.converged, m.b)
        assert b.n_passes > 0
    assert np.array_equal(model.decision_values(query), back.decision_values(query))


# id -> (family, params, data seed, extra check); a family without a case here
# is covered with its default params
CASES = {
    "dt": ("dt", {"max_depth": 8}, 0, None),
    "rf": ("rf", {"n_estimators": 5, "seed": 2}, 1, None),
    "rf-tree-params": ("rf", {"n_estimators": 4, "max_features": "all", "bootstrap": False,
                              "max_depth": 2, "min_samples_leaf": 3, "seed": 2}, 1, _rf_params_kept),
    "svm": ("svm", {"kernel": "rbf", "C": 1.0, "gamma": "scale"}, 2, _svm_machines_kept),
    "mlp": ("mlp", {"variant": "baseline", "epochs": 3, "seed": 1}, 3, None),
}
CASES.update({f: (f, {}, 0, None) for f in FAMILIES if f not in CASES})


@pytest.mark.parametrize("family, params, seed, check", CASES.values(), ids=CASES.keys())
def test_family_round_trip(tmp_path, query, family, params, seed, check):
    """Save, load and save again: the same bytes and bit-identical probabilities."""
    X, y = _blobs(seed=seed)
    model = FAMILIES[family].fit(X, y, params, 3)
    back = _round_trip(model, tmp_path, "first")
    save_model(str(tmp_path / "second.model.json"), back)
    assert (tmp_path / "first.model.json").read_bytes() == (tmp_path / "second.model.json").read_bytes()
    assert np.array_equal(model.predict_proba(query), back.predict_proba(query))
    if check is not None:
        check(model, back, query)


def test_ensemble_round_trip(tmp_path, query):
    X, y = _blobs(seed=4)
    dt = dt_fit(X, y, TreeParams(max_depth=4), n_classes=3)
    rf = rf_fit(X, y, ForestParams(n_estimators=3, seed=0), n_classes=3)
    ens = VotingEnsemble([dt, rf])
    back = _round_trip(ens, tmp_path, "ens")
    assert np.array_equal(ens.predict_proba(query), back.predict_proba(query))


def test_pipeline_round_trip(tmp_path, tiny_split):
    train, test = tiny_split
    for version in ("V1", "V2", "V3", "V4"):
        pipe = FeaturePipeline(version).fit(train)
        X, y = train.features, train.labels
        t = pipe.transform(train)
        model = dt_fit(t.features, t.labels, TreeParams(max_depth=8), n_classes=train.n_classes)
        path = str(tmp_path / f"{version}.model.json")
        save_model(path, model, pipeline=pipe, classes=list(train.classes))
        back, bpipe, classes = load_model(path)
        assert classes == list(train.classes)
        a = model.predict(pipe.transform(test).features)
        b = back.predict(bpipe.transform(test).features)
        assert np.array_equal(a, b)


def test_format_header(tmp_path):
    X, y = _blobs()
    model = dt_fit(X, y, TreeParams(max_depth=2), n_classes=3)
    path = str(tmp_path / "m.model.json")
    save_model(path, model)
    with open(path) as fh:
        doc = json.load(fh)
    assert doc["format"] == "enose-model"
    assert doc["format_version"] == 2


def test_only_a_file_that_holds_a_tree_is_version_2(tmp_path):
    # an SVM or ANN file is the same in both versions, so an older release reads it
    X, y = _blobs()
    dt, svm, mlp = (FAMILIES[f].fit(X, y, {"epochs": 1}, 3) for f in ("dt", "svm", "mlp"))
    path = tmp_path / "m.model.json"
    for model, version in ((svm, 1), (mlp, 1), (VotingEnsemble([svm, mlp]), 1),
                           (VotingEnsemble([svm, dt]), 2)):
        save_model(str(path), model)
        assert json.loads(path.read_text())["format_version"] == version


def test_rejects_foreign_document(tmp_path):
    path = str(tmp_path / "bad.json")
    with open(path, "w") as fh:
        fh.write('{"format": "something-else"}\n')
    with pytest.raises(ConfigError):
        load_model(path)


def test_unknown_kinds():
    with pytest.raises(ConfigError):
        model_to_dict(object())
    with pytest.raises((ConfigError, KeyError)):
        model_from_dict({"kind": "mystery"})


def test_save_is_deterministic(tmp_path):
    X, y = _blobs(seed=5)
    model = rf_fit(X, y, ForestParams(n_estimators=3, seed=1), n_classes=3)
    p1, p2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    save_model(p1, model)
    save_model(p2, model)
    with open(p1, "rb") as f1, open(p2, "rb") as f2:
        assert f1.read() == f2.read()


def test_a_tree_as_deep_as_a_file_holds_round_trips(tmp_path):
    # a file holds a tree of any depth: this chain is 100 levels past the old 500 cap
    n = 601  # alternating labels on one feature: a chain of depth n - 1
    X, y = np.arange(n, dtype=np.float64)[:, None], np.arange(n) % 2
    back = _round_trip(dt_fit(X, y), tmp_path, "deep")
    assert np.array_equal(back.predict(X), y)


def _trees(model: dict):
    """The tree dicts of a saved model dict."""
    stack = [model]
    while stack:
        doc = stack.pop()
        if doc["kind"] == "dt":
            yield doc
        stack.extend(doc.get("members", ()) or doc.get("trees", ()))


def _nodes(tree: dict):
    """The node dicts of a version-1 tree dict."""
    stack = [tree["root"]]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(node[side] for side in ("left", "right") if side in node)


def _int_counts(counts: list) -> list:
    return [int(c) for c in counts]


@pytest.mark.parametrize("version, change", [
    (1, lambda node: node.update(counts=_int_counts(node["counts"]))),
    (1, lambda node: node.update(note="hand-edited")),
    (2, lambda tree: tree.update(counts=list(map(_int_counts, tree["counts"])))),
], ids=["int-counts", "extra-key", "v2-int-counts"])
def test_nodes_with_int_counts_or_extra_keys_load_as_before(tmp_path, query, version, change):
    # version 1: the change is made at every node; version 2: to every tree's lists
    X, y = _blobs(seed=6)
    model = rf_fit(X, y, ForestParams(n_estimators=3, seed=3), n_classes=3)
    path = tmp_path / "rf.model.json"
    if version == 1:
        write_version_1(path, model)
    else:
        save_model(str(path), model)
    doc = json.loads(path.read_text())
    for tree in _trees(doc["model"]):
        for part in (_nodes(tree) if version == 1 else [tree]):
            change(part)
    edited = json.dumps(doc, indent=1, sort_keys=True) + "\n"
    assert edited != path.read_text()
    path.write_text(edited)
    back, _, _ = load_model(str(path))
    assert np.array_equal(model.predict_proba(query), back.predict_proba(query))


def test_a_version_1_file_loads_scores_and_saves_as_version_2(tmp_path, tiny_split):
    train, test = tiny_split
    pipe = FeaturePipeline("V3").fit(train)
    t = pipe.transform(train)
    X = pipe.transform(test).features
    dt = dt_fit(t.features, t.labels, TreeParams(max_depth=6), n_classes=train.n_classes)
    rf = rf_fit(t.features, t.labels, ForestParams(n_estimators=4, seed=1),
                n_classes=train.n_classes)
    for name, model in (("dt", dt), ("rf", rf), ("ensemble", VotingEnsemble([dt, rf]))):
        old, new = tmp_path / f"{name}.v1.json", tmp_path / f"{name}.v2.json"
        write_version_1(old, model, pipe, list(train.classes))
        back, bpipe, classes = load_model(str(old))
        assert classes == list(train.classes)
        assert np.array_equal(model.predict_proba(X),
                              back.predict_proba(bpipe.transform(test).features))
        save_model(str(new), model, pipe, classes)
        save_model(str(old), back, bpipe, classes)
        assert old.read_bytes() == new.read_bytes()


def _traced_peak(run) -> int:
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _decoded_peak(path):
    def decode():
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    return _traced_peak(decode)


@pytest.fixture(scope="module")
def forest():
    X, y = _blobs(n_per=100, seed=7)
    return rf_fit(X, y, ForestParams(n_estimators=40, seed=4), n_classes=3)


def test_loading_a_forest_never_holds_its_whole_document(tmp_path, forest):
    path = str(tmp_path / "rf.model.json")
    save_model(path, forest)

    def decode_then_build():
        # the whole document decoded first: it and the built trees exist at once
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        return [FAMILIES["dt"].from_dict(tree) for tree in doc["model"]["trees"]]

    # 0.82x here: the file's text and the built trees, which outweigh the decoded lists
    assert _traced_peak(lambda: load_model(path)) < 0.9 * _traced_peak(decode_then_build)


def test_saving_a_forest_makes_one_tree_dict_at_a_time(tmp_path, forest):
    # the whole document built before it is written would be about as large as decoded
    path = str(tmp_path / "rf.model.json")
    peak = _traced_peak(lambda: save_model(path, forest))
    assert peak < 0.5 * _decoded_peak(path)


JSON_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(),
                        st.floats().map(np.float64), st.text())
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.one_of(st.lists(inner, max_size=4), st.lists(inner, max_size=4).map(tuple),
                            st.dictionaries(st.text(max_size=4), inner, max_size=4)),
    max_leaves=20)


def _written(tmp_path_factory, value) -> str:
    path = tmp_path_factory.mktemp("written") / "value.json"
    write_json(str(path), value)
    return path.read_text(encoding="utf-8")


@settings(max_examples=300, deadline=None)
@given(value=JSON_VALUES)
def test_the_writer_writes_a_value_as_json_dump_does(tmp_path_factory, value):
    # NaN and the infinities, np.float64, tuples and non-ASCII text included
    assert _written(tmp_path_factory, value) == json.dumps(value, indent=1, sort_keys=True) + "\n"


def _preorder(node: dict, lists: dict) -> dict:
    """Lay out a tree's node dicts as format version 2's preorder lists, by recursion."""
    if "feature" not in node:
        lists["feature"].append(-1)
        lists["counts"].append(node["counts"])
    else:
        lists["feature"].append(node["feature"])
        lists["threshold"].append(node["threshold"])
        _preorder(node["left"], lists)
        _preorder(node["right"], lists)
    return lists


def _from_node_dicts(value) -> dict:
    """``json``'s ``default=`` hook that writes a model with each tree's lists taken
    from its node dicts, not from ``model_to_dict``'s stack walk."""
    doc = model_to_dict(value)
    if doc["kind"] == "dt":
        doc.update(_preorder(node_dict(value.root),
                             {"feature": [], "threshold": [], "counts": []}))
    return doc


def _dumped(value) -> str:
    return json.dumps(value, indent=1, sort_keys=True, default=_from_node_dicts) + "\n"


def test_a_saved_forest_is_json_dump_of_its_node_dicts(tmp_path, forest, tiny_split):
    pipe = FeaturePipeline("V3").fit(tiny_split[0])
    classes = ["a, b", "caf\u00e9", "q\"uote"]
    path = tmp_path / "rf.model.json"
    save_model(str(path), forest, pipe, classes)
    doc = {"format": "enose-model", "format_version": 2, "model": forest,
           "pipeline": pipeline_to_dict(pipe), "classes": classes}
    assert path.read_text(encoding="utf-8") == _dumped(doc)


def _small_models() -> list:
    X, y = _blobs(n_per=6, seed=11)
    tree = dt_fit(X, y, TreeParams(max_depth=3), n_classes=3)
    forest = rf_fit(X, y, ForestParams(n_estimators=2, seed=5), n_classes=3)
    return [tree, forest, VotingEnsemble([tree, forest])]


# JSON containers with a tree, forest or ensemble at any depth
MODEL_VALUES = st.recursive(
    st.one_of(JSON_SCALARS, st.sampled_from(_small_models())),
    lambda inner: st.one_of(st.lists(inner, max_size=4), st.lists(inner, max_size=4).map(tuple),
                            st.dictionaries(st.sampled_from(["", "root", "z"]), inner,
                                            max_size=4)),
    max_leaves=12)


@settings(max_examples=200, deadline=None)
@given(value=MODEL_VALUES)
def test_the_writer_splices_each_tree_where_json_dump_writes_its_node_dicts(tmp_path_factory,
                                                                           value):
    # the writer no longer splices tree text; its output must still equal this oracle's
    assert _written(tmp_path_factory, value) == _dumped(value)


def test_a_class_named_as_the_stand_in_is_written_as_text(tmp_path, forest):
    # "tree node" is the string an older writer handed the encoder for each tree node
    # and then replaced with the tree's text; a class of that name must stay text
    report = {"classes": ["tree node", "b"], "per_class": {"tree node": {"recall": 1.0}},
              "model": forest, "name": "tree node"}
    path = tmp_path / "report.json"
    write_json(str(path), report)
    assert path.read_text(encoding="utf-8") == _dumped(report)
    assert json.loads(path.read_text())["per_class"] == {"tree node": {"recall": 1.0}}
