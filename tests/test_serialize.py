import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from enose.classifiers.forest import ForestParams, RandomForest, rf_fit
from enose.classifiers.tree import TreeNode, TreeParams, dt_fit
from enose.ensemble import VotingEnsemble
from enose.errors import ConfigError, ProblemTooLarge
from enose.evaluate import FeaturePipeline
from enose.models import FAMILIES, MAX_SAVED_DEPTH
from enose.serialize import (STAND_IN, load_model, model_from_dict, model_to_dict,
                             pipeline_to_dict, save_model, write_json)


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
    assert doc["format_version"] == 1


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
    n = MAX_SAVED_DEPTH + 1  # alternating labels on one feature: a chain of depth n - 1
    X, y = np.arange(n, dtype=np.float64)[:, None], np.arange(n) % 2
    back = _round_trip(dt_fit(X, y), tmp_path, "deep")
    assert np.array_equal(back.predict(X), y)


def _edit_nodes(doc, change):
    stack = [t["root"] for t in doc["model"]["trees"]]
    while stack:
        node = stack.pop()
        change(node)
        stack.extend(node[side] for side in ("left", "right") if side in node)


@pytest.mark.parametrize("change", [
    lambda node: node.update(counts=[int(c) for c in node["counts"]]),
    lambda node: node.update(note="hand-edited"),
], ids=["int-counts", "extra-key"])
def test_nodes_with_int_counts_or_extra_keys_load_as_before(tmp_path, query, change):
    X, y = _blobs(seed=6)
    model = rf_fit(X, y, ForestParams(n_estimators=3, seed=3), n_classes=3)
    path = tmp_path / "rf.model.json"
    save_model(str(path), model)
    doc = json.loads(path.read_text())
    _edit_nodes(doc, change)
    path.write_text(json.dumps(doc))
    back, _, _ = load_model(str(path))
    assert np.array_equal(model.predict_proba(query), back.predict_proba(query))


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
    # with the whole document decoded first, it and the built trees would exist at once (1.2x)
    path = str(tmp_path / "rf.model.json")
    save_model(path, forest)
    assert _traced_peak(lambda: load_model(path)) < _decoded_peak(path)


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


def _node_dict(node: TreeNode) -> dict:
    if node.is_leaf:
        return {"counts": node.counts.tolist()}
    return {"counts": node.counts.tolist(), "feature": node.feature,
            "threshold": node.threshold, "left": _node_dict(node.left),
            "right": _node_dict(node.right)}


def _expanded(value) -> dict:
    """``json``'s ``default=`` hook that makes every tree node and model a dict."""
    return _node_dict(value) if isinstance(value, TreeNode) else model_to_dict(value)


def _dumped(value) -> str:
    return json.dumps(value, indent=1, sort_keys=True, default=_expanded) + "\n"


def test_a_saved_forest_is_json_dump_of_its_node_dicts(tmp_path, forest, tiny_split):
    pipe = FeaturePipeline("V3").fit(tiny_split[0])
    classes = ["a, b", "caf\u00e9", "q\"uote"]
    path = tmp_path / "rf.model.json"
    save_model(str(path), forest, pipe, classes)
    doc = {"format": "enose-model", "format_version": 1, "model": model_to_dict(forest),
           "pipeline": pipeline_to_dict(pipe), "classes": classes}
    assert path.read_text(encoding="utf-8") == _dumped(doc)


def _small_models() -> list:
    X, y = _blobs(n_per=6, seed=11)
    tree = dt_fit(X, y, TreeParams(max_depth=3), n_classes=3)
    forest = rf_fit(X, y, ForestParams(n_estimators=2, seed=5), n_classes=3)
    return [tree, tree.root, forest, VotingEnsemble([tree, forest])]


# JSON containers with a tree, node, forest or ensemble at any depth, beside strings
# equal to the stand-in the writer hands the encoder for a node
MODEL_VALUES = st.recursive(
    st.one_of(JSON_SCALARS, st.just(STAND_IN), st.sampled_from(_small_models())),
    lambda inner: st.one_of(st.lists(inner, max_size=4), st.lists(inner, max_size=4).map(tuple),
                            st.dictionaries(st.sampled_from(["", STAND_IN, "root", "z"]), inner,
                                            max_size=4)),
    max_leaves=12)


@settings(max_examples=200, deadline=None)
@given(value=MODEL_VALUES)
def test_the_writer_splices_each_tree_where_json_dump_writes_its_node_dicts(tmp_path_factory,
                                                                           value):
    assert _written(tmp_path_factory, value) == _dumped(value)


def test_a_class_named_as_the_stand_in_is_written_as_text(tmp_path, forest):
    report = {"classes": [STAND_IN, "b"], "per_class": {STAND_IN: {"recall": 1.0}},
              "model": forest, "name": STAND_IN}
    path = tmp_path / "report.json"
    write_json(str(path), report)
    assert path.read_text(encoding="utf-8") == _dumped(report)
    assert json.loads(path.read_text())["per_class"] == {STAND_IN: {"recall": 1.0}}


def test_a_forest_with_a_tree_too_deep_to_save_writes_no_file(tmp_path):
    X, y = np.arange(600, dtype=np.float64)[:, None], np.arange(600) % 2
    deep = dt_fit(X, y)
    shallow = dt_fit(X, y, TreeParams(max_depth=2))
    path = tmp_path / "rf.model.json"
    with pytest.raises(ProblemTooLarge, match="a tree of depth 599"):
        save_model(str(path), RandomForest(ForestParams(n_estimators=2), [shallow, deep], 2))
    assert not path.exists()
