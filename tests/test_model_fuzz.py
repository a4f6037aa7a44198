"""A saved model with one JSON value changed is scored or refused, never a crash.

A small run saves a tree, a forest, an SVM, an ANN and an ensemble with V3 (PCA)
and V4 (LDA) pipelines.  Each example changes one value of one of those files,
or deletes it, and runs ``enose evaluate`` on the result: it must exit 0, 1 or
2 without raising, and an error must name the model file.
"""

import contextlib
import io
import json

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from enose.cli import main

CONFIG = """\
[data]
source = synth
samples = 10

[pipeline]
version = {version}
seed = 5
folds = 2

[models]
families = dt,rf,svm
grid = small
ann_variants = baseline
ann_epochs = 1
ensemble = yes

[output]
formats = json
"""
VERSIONS = ("V3", "V4")
MODELS = ("dt_tuned", "rf_tuned", "svm_tuned", "ann_baseline", "ensemble")
DELETE = object()
VALUES = ("x", None, True, [], {}, float("nan"), float("inf"), 1e308, -1, 0, DELETE)


def _quiet_main(argv: list[str]) -> tuple[int, str]:
    """``main(argv)``'s exit code and stderr; its stdout is dropped."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


@pytest.fixture(scope="module")
def saved(tmp_path_factory):
    """(path, saved text) of each model of a V3 and a V4 run."""
    root = tmp_path_factory.mktemp("fuzz")
    files = []
    for version in VERSIONS:
        config = root / f"{version}.ini"
        config.write_text(CONFIG.format(version=version))
        out = root / version
        assert _quiet_main(["--config", str(config), "--out", str(out), "run"])[0] == 0
        for name in MODELS:
            path = out / "models" / f"{name}.model.json"
            files.append((path, path.read_text()))
    return root, files


def _walk(doc, rnd):
    """The container and key of a value picked by descending from ``doc``: a child of
    each container at random, stopping at a leaf, or at a container one time in five."""
    parent, key = doc, rnd.choice(sorted(doc))
    while isinstance(parent[key], (dict, list)) and parent[key] and rnd.random() < 0.8:
        parent = parent[key]
        key = rnd.choice(sorted(parent) if isinstance(parent, dict) else range(len(parent)))
    return parent, key


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                            "ignore:invalid value encountered:RuntimeWarning")
@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(index=st.integers(0, len(VERSIONS) * len(MODELS) - 1),
       rnd=st.randoms(use_true_random=False), value=st.sampled_from(VALUES))
def test_a_model_with_one_value_changed_is_scored_or_refused_naming_its_file(saved, index,
                                                                              rnd, value):
    root, files = saved
    source, text = files[index]
    doc = json.loads(text)
    parent, key = _walk(doc, rnd)
    if value is DELETE:
        del parent[key]
    else:
        parent[key] = value
    path = root / "mutated" / source.name
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(doc))
    code, err = _quiet_main(["--samples", "3", "--out", str(root / "eval"), "evaluate",
                             str(path)])
    assert code in (0, 1, 2)
    if code:
        assert str(path) in err, err
