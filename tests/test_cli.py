import json
import os

import numpy as np
import pytest

from enose.classifiers.forest import ForestParams, rf_fit
from enose.cli import main
from enose.config import load_config
from enose.neural import mlp_build, variant_spec
from enose.serialize import save_model


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


CONFIG_SMALL = """\
[data]
source = synth
samples = 30

[pipeline]
version = V2
seed = 11
folds = 2

[models]
families = dt,rf
grid = none
ann_variants =
ensemble = no

[output]
formats = json,csv
"""


def write_config(tmp_path, text=CONFIG_SMALL):
    path = tmp_path / "run.ini"
    path.write_text(text)
    return str(path)


def test_synth_command(tmp_path, capsys):
    code, out, err = run_cli(capsys, "--samples", "5", "--out", str(tmp_path / "data"), "synth")
    assert code == 0
    assert "manifest" in out
    names = sorted(os.listdir(tmp_path / "data"))
    assert "manifest.csv" in names
    assert sum(n.endswith("__run0.csv") for n in names) == 10


def test_ingest_from_manifest(tmp_path, capsys):
    data_dir = tmp_path / "data"
    run_cli(capsys, "--samples", "4", "--out", str(data_dir), "synth")
    cfg = tmp_path / "ingest.ini"
    cfg.write_text(f"[data]\nsource = manifest\nmanifest = {data_dir / 'manifest.csv'}\n")
    code, out, err = run_cli(capsys, "--config", str(cfg), "ingest")
    assert code == 0
    assert "samples: 40" in out
    assert "classes: 10" in out
    assert "onion: 4" in out


def test_ingest_synth_default(tmp_path, capsys):
    code, out, err = run_cli(capsys, "--samples", "3", "ingest")
    assert code == 0
    assert "samples: 30  features: 9  classes: 10" in out


def test_inspect_reports_drift(tmp_path, capsys):
    code, out, err = run_cli(capsys, "--samples", "50", "--out", str(tmp_path), "inspect")
    assert code == 0
    assert "most positive: pressure" in out
    assert "most negative: temperature" in out
    assert (tmp_path / "correlation.csv").exists()


def test_run_produces_artifacts(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out_dir = tmp_path / "out"
    code, out, err = run_cli(capsys, "--config", cfg, "--out", str(out_dir), "run")
    assert code == 0, err
    assert (out_dir / "summary.csv").exists()
    assert (out_dir / "summary.json").exists()
    assert (out_dir / "correlation.csv").exists()
    assert (out_dir / "reports" / "dt_baseline.report.json").exists()
    assert (out_dir / "models" / "rf_baseline.model.json").exists()
    summary = json.loads((out_dir / "summary.json").read_text())
    assert {row["model"] for row in summary} == {"dt_baseline", "rf_baseline"}
    assert sum(row["best"] for row in summary) == 1
    # stdout shows one line per model with the best flagged
    assert out.count("test=") == 2
    assert "*" in out


def test_run_with_grid_and_ensemble(tmp_path, capsys):
    text = CONFIG_SMALL.replace("grid = none", "grid = small").replace("ensemble = no", "ensemble = yes")
    cfg = write_config(tmp_path, text)
    out_dir = tmp_path / "out"
    code, out, err = run_cli(capsys, "--config", cfg, "--out", str(out_dir), "run")
    assert code == 0, err
    assert (out_dir / "grids" / "dt.grid.csv").exists()
    assert (out_dir / "grids" / "rf.grid.csv").exists()
    summary = json.loads((out_dir / "summary.json").read_text())
    names = {row["model"] for row in summary}
    assert {"dt_tuned", "rf_tuned", "ensemble"} <= names
    assert (out_dir / "models" / "ensemble.model.json").exists()


def test_run_writes_learning_curves(tmp_path, capsys):
    text = CONFIG_SMALL.replace("families = dt,rf", "families = dt").replace(
        "grid = none", "grid = small\nlearning_curves = yes").replace(
        "formats = json,csv", "formats = json,csv,svg")
    out_dir = tmp_path / "out"
    code, out, err = run_cli(capsys, "--config", write_config(tmp_path, text), "--out",
                             str(out_dir), "run")
    assert code == 0, err
    header, *rows = (out_dir / "curves" / "dt.learning_curve.csv").read_text().splitlines()
    assert header == "size,train_acc,val_acc" and len(rows) == 4
    assert (out_dir / "svg" / "dt.learning_curve.svg").read_text().startswith("<svg")


def _spy(monkeypatch, name, record):
    """Replace ``enose.models.<name>`` by a wrapper that records what ``record``
    makes of each call's params and fitted model."""
    from enose import models

    real = getattr(models, name)

    def spy(X, y, params, n_classes=None):
        model = real(X, y, params, n_classes)
        record(params, model)
        return model

    monkeypatch.setattr(models, name, spy)


def _saved_params(out_dir, name):
    return json.loads((out_dir / "models" / f"{name}.model.json").read_text())["model"]["params"]


def test_rf_grid_cells_draw_from_the_master_seed(tmp_path, capsys, monkeypatch):
    from enose.rng import derive_seed

    seeds = []
    _spy(monkeypatch, "rf_fit", lambda params, model: seeds.append(params.seed))
    text = CONFIG_SMALL.replace("families = dt,rf", "families = rf").replace("grid = none",
                                                                             "grid = small")
    cfg = write_config(tmp_path, text)
    grids = {}
    for seed in ("11", "12"):
        out_dir = tmp_path / seed
        seeds.clear()
        assert run_cli(capsys, "--config", cfg, "--seed", seed, "--out", str(out_dir),
                       "run")[0] == 0
        grids[seed] = (out_dir / "grids" / "rf.grid.csv").read_text()
        # every forest of the run, the grid's included, draws from the baseline stream
        assert seeds and set(seeds) == {derive_seed(int(seed), "rf", "baseline")}
    assert grids["11"] != grids["12"]
    assert 0 not in seeds


def test_selection_fits_each_distinct_forest_and_tree_once_per_fold(tmp_path, capsys,
                                                                     monkeypatch):
    trees, dt_fits = [], []
    _spy(monkeypatch, "rf_fit", lambda params, model: trees.append(len(model.trees)))
    _spy(monkeypatch, "dt_fit", lambda params, model: dt_fits.append(params))
    text = CONFIG_SMALL.replace("folds = 2", "folds = 5").replace("grid = none", "grid = small")
    out_dir = tmp_path / "out"
    code, out, err = run_cli(capsys, "--config", write_config(tmp_path, text), "--out",
                             str(out_dir), "run")
    assert code == 0, err
    # per fold one 100-tree forest (the baseline, cut for the sqrt cells) and one 50-tree
    # forest (cut for all/25); then the baseline's train forest, which is cut for a sqrt
    # winner, and one train fit otherwise
    tuned = _saved_params(out_dir, "rf_tuned")
    assert tuned["seed"] == _saved_params(out_dir, "rf_baseline")["seed"]
    extra = [] if tuned["max_features"] == "sqrt" else [tuned["n_estimators"]]
    assert trees == [100] * 5 + [50] * 5 + [100] + extra
    # dt: 4 distinct trees per fold (the baseline is the cell None/1), then 1 or 2 train fits
    tuned_dt = _saved_params(out_dir, "dt_tuned")
    assert len(dt_fits) == 4 * 5 + 1 + (tuned_dt != _saved_params(out_dir, "dt_baseline"))


def test_svm_selection_fits_each_distinct_machine_set_once_per_fold(tmp_path, capsys,
                                                                     monkeypatch):
    fits = []
    _spy(monkeypatch, "svm_fit_multiclass", lambda params, model: fits.append(params.C))
    text = CONFIG_SMALL.replace("folds = 2", "folds = 5").replace(
        "families = dt,rf", "families = svm").replace("grid = none", "grid = small")
    out_dir = tmp_path / "out"
    code, out, err = run_cli(capsys, "--config", write_config(tmp_path, text), "--out",
                             str(out_dir), "run")
    assert code == 0, err
    # the baseline (rbf, C=1, scale) is the first cell: 2 distinct fits per fold, then
    # the baseline's train fit and the tuned one's unless it is the baseline
    tuned = json.loads((out_dir / "models" / "svm_tuned.model.json").read_text())
    tuned_c = tuned["model"]["machines"][0]["params"]["C"]
    assert fits == [1.0] * 5 + [10.0] * 5 + [1.0] + ([] if tuned_c == 1.0 else [tuned_c])


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_tuned_cv_contains_the_baseline(tmp_path, capsys, seed):
    text = CONFIG_SMALL.replace("families = dt,rf", "families = dt,rf,svm").replace(
        "grid = none", "grid = small")
    out_dir = tmp_path / "out"
    code, out, err = run_cli(capsys, "--config", write_config(tmp_path, text), "--seed",
                             str(seed), "--out", str(out_dir), "run")
    assert code == 0, err
    header, *lines = (out_dir / "summary.csv").read_text().splitlines()
    cv = {row[0]: float(row[1]) for row in (line.split(",") for line in lines) if row[1]}
    for family in ("dt", "rf", "svm"):
        assert cv[f"{family}_tuned"] >= cv[f"{family}_baseline"]


def test_summary_json_carries_cv_failures(tmp_path, capsys, monkeypatch):
    from enose import models
    from enose.errors import DegenerateInput

    real_dt_fit = models.dt_fit
    calls = []

    def fail_first(X, y, params, n_classes=None):
        calls.append(1)
        if len(calls) == 1:  # the baseline's first fold
            raise DegenerateInput("boom")
        return real_dt_fit(X, y, params, n_classes)

    monkeypatch.setattr(models, "dt_fit", fail_first)
    text = CONFIG_SMALL.replace("families = dt,rf", "families = dt").replace(
        "grid = none", "grid = small").replace("ann_variants =",
                                               "ann_variants = baseline\nann_epochs = 2")
    out_dir = tmp_path / "out"
    code, out, err = run_cli(capsys, "--config", write_config(tmp_path, text), "--out",
                             str(out_dir), "run")
    assert code == 0, err
    rows = {row["model"]: row for row in json.loads((out_dir / "summary.json").read_text())}
    assert rows["dt_baseline"]["cv_failures"] == ["fold 0: boom"]
    assert rows["dt_tuned"]["cv_failures"] in ([], ["fold 0: boom"])
    assert rows["ann_baseline"]["cv_failures"] is None
    # the baseline is the grid cell None/1, which shares its fits and its failure
    grid = (out_dir / "grids" / "dt.grid.csv").read_text().splitlines()
    assert [line.rsplit(",", 1)[1] for line in grid[1:]] == ["0", "0", "1", "0"]


@pytest.mark.parametrize("models, folds", [("families = dt,rf\ngrid = small", 5),
                                           ("families = svm\ngrid = none", 3)],
                         ids=["dt-rf-small-grid", "svm-no-grid"])
def test_run_fits_one_pipeline_per_fold_plus_one(tmp_path, capsys, monkeypatch, models, folds):
    from enose.evaluate import FeaturePipeline

    calls = []
    real_fit = FeaturePipeline.fit

    def spy(self, ds):
        calls.append(ds.n)
        return real_fit(self, ds)

    monkeypatch.setattr(FeaturePipeline, "fit", spy)
    text = CONFIG_SMALL.replace("folds = 2", f"folds = {folds}").replace(
        "families = dt,rf\ngrid = none", models)
    code, out, err = run_cli(capsys, "--config", write_config(tmp_path, text), "--out",
                             str(tmp_path / "out"), "run")
    assert code == 0, err
    # the full training set once, then each CV fold's train rows once, whatever the grid
    assert len(calls) == folds + 1


def test_learning_curves_fit_one_pipeline_per_distinct_training_set(tmp_path, capsys,
                                                                     monkeypatch):
    from enose.evaluate import FeaturePipeline

    calls = []
    real_fit = FeaturePipeline.fit

    def spy(self, ds):
        calls.append(ds.n)
        return real_fit(self, ds)

    monkeypatch.setattr(FeaturePipeline, "fit", spy)
    text = CONFIG_SMALL.replace("version = V2", "version = V4").replace(
        "folds = 2", "folds = 3").replace("families = dt,rf", "families = dt,rf,svm").replace(
        "grid = none", "grid = small\nlearning_curves = yes")
    code, out, err = run_cli(capsys, "--config", write_config(tmp_path, text), "--out",
                             str(tmp_path / "out"), "run")
    assert code == 0, err
    # the full training set, the 3 CV folds (which size 1.0 reuses), and 3 folds at each
    # of the sizes 0.25, 0.5 and 0.75, whatever the number of families
    assert len(calls) == 1 + 3 + 3 * 3


def test_fold_pipeline_error_fails_the_pipeline_stage(tmp_path, capsys, monkeypatch):
    from enose.errors import DegenerateInput
    from enose.evaluate import FeaturePipeline

    calls = []
    real_fit = FeaturePipeline.fit

    def fail_on_a_fold(self, ds):
        calls.append(ds.n)
        if len(calls) == 2:  # the first fold, after the full training set
            raise DegenerateInput("feature column 0 overflows float64")
        return real_fit(self, ds)

    monkeypatch.setattr(FeaturePipeline, "fit", fail_on_a_fold)
    code, out, err = run_cli(capsys, "--config", write_config(tmp_path), "--out",
                             str(tmp_path / "out"), "run")
    assert code == 2
    assert "[pipeline]" in err and "overflows" in err
    assert not (tmp_path / "out" / "summary.json").exists()


def test_evaluate_round_trip(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out_dir = tmp_path / "out"
    assert run_cli(capsys, "--config", cfg, "--out", str(out_dir), "run")[0] == 0
    model_path = out_dir / "models" / "rf_baseline.model.json"
    code, out, err = run_cli(
        capsys, "--config", cfg, "--out", str(tmp_path / "eval"), "evaluate", str(model_path)
    )
    assert code == 0, err
    assert "accuracy:" in out
    assert (tmp_path / "eval" / "evaluate.report.json").exists()


def test_flag_overrides_config(tmp_path, capsys):
    cfg = write_config(tmp_path)  # samples = 30 in file
    code, out, err = run_cli(capsys, "--config", cfg, "--samples", "6", "ingest")
    assert code == 0
    assert "samples: 60" in out


# --- exit codes ---------------------------------------------------------------


def test_missing_config_file_is_validation_error(tmp_path, capsys):
    code, out, err = run_cli(capsys, "--config", str(tmp_path / "nope.ini"), "ingest")
    assert code == 1
    assert "error:" in err


def test_config_directory_is_validation_error(tmp_path, capsys):
    code, out, err = run_cli(capsys, "--config", str(tmp_path), "ingest")
    assert code == 1
    assert f"cannot read config {tmp_path}" in err
    assert "samples:" not in out


def test_config_not_utf8_is_validation_error(tmp_path, capsys):
    cfg = tmp_path / "latin1.ini"
    cfg.write_bytes("[data]\n; r\u00e9sum\u00e9\nsamples = 3\n".encode("latin-1"))
    code, out, err = run_cli(capsys, "--config", str(cfg), "ingest")
    assert code == 1
    assert f"cannot read config {cfg}" in err and "utf-8" in err


def test_stale_workers_key_is_ignored(tmp_path):
    with_key = tmp_path / "with.ini"
    with_key.write_text(CONFIG_SMALL + "workers = 2\n")
    assert load_config(str(with_key)) == load_config(write_config(tmp_path))


@pytest.mark.parametrize("edit, named", [
    (("[models]", "[modles]"), "unknown section [modles]"),
    (("families = dt,rf", "famlies = dt,rf"), "unknown key 'famlies' in [models]"),
    (("ensemble = no", "ensemble = ture"), "bad value for [models] ensemble: 'ture'"),
], ids=["section", "key", "boolean"])
def test_misspelt_config_is_validation_error(tmp_path, capsys, edit, named):
    cfg = write_config(tmp_path, CONFIG_SMALL.replace(*edit))
    code, out, err = run_cli(capsys, "--config", cfg, "--out", str(tmp_path / "o"), "run")
    assert code == 1, err
    assert f"error: {cfg}: {named}" in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("comment", [" ; note", "\t# note"], ids=["semicolon", "hash"])
def test_inline_comment_is_validation_error(tmp_path, capsys, comment):
    out_dir = tmp_path / "o"
    cfg = write_config(tmp_path, f"[output]\ndir = {out_dir}{comment}\n")
    code, out, err = run_cli(capsys, "--config", cfg, "inspect")
    assert code == 1, err
    assert f"error: {cfg}: bad value for [output] dir:" in err and "inline comment" in err
    assert not out_dir.exists() and not (tmp_path / f"o{comment}").exists()


@pytest.mark.parametrize("source, key", [
    ("synth", "manifest"), ("synth", "glob"), ("manifest", "glob"), ("glob", "manifest"),
])
def test_data_key_the_source_ignores_is_validation_error(tmp_path, capsys, source, key):
    keys = {"manifest": "manifest = nothere.csv", "glob": "glob = nothere/*.csv"}
    data = "\n".join([f"source = {source}"] + [keys[k] for k in sorted({source, key} & set(keys))])
    cfg = write_config(tmp_path, CONFIG_SMALL.replace("source = synth", data))
    code, out, err = run_cli(capsys, "--config", cfg, "--out", str(tmp_path / "o"), "run")
    assert code == 1, err
    assert f"'{key}' key is read only with source={key}" in err
    assert not (tmp_path / "o").exists()


def test_invalid_config_value_names_the_key(tmp_path, capsys):
    cfg = tmp_path / "bad.ini"
    cfg.write_text("[pipeline]\nfolds = 1\n")
    code, out, err = run_cli(capsys, "--config", str(cfg), "run")
    assert code == 1
    assert "folds" in err


def test_learning_curves_without_grid_is_validation_error(tmp_path, capsys):
    cfg = write_config(tmp_path, CONFIG_SMALL.replace("grid = none",
                                                      "grid = none\nlearning_curves = yes"))
    code, out, err = run_cli(capsys, "--config", cfg, "--out", str(tmp_path / "o"), "run")
    assert code == 1
    assert "learning_curves" in err and "grid = none" in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("sizes", ["1.5", "0.5, 0.25", "0.5, 0.5", "0, 1", "nan", ","])
def test_bad_learning_curve_sizes_are_validation_errors(tmp_path, capsys, sizes):
    cfg = write_config(tmp_path, CONFIG_SMALL.replace("families = dt,rf", "families = dt").replace(
        "grid = none", f"grid = small\nlearning_curves = yes\nlearning_curve_sizes = {sizes}"))
    code, out, err = run_cli(capsys, "--config", cfg, "--out", str(tmp_path / "o"), "run")
    assert code == 1, err
    assert "learning_curve_sizes" in err
    assert not (tmp_path / "o").exists()


def test_nonpositive_ann_epochs_is_validation_error(tmp_path, capsys):
    cfg = write_config(tmp_path, CONFIG_SMALL.replace(
        "ann_variants =", "ann_variants = baseline\nann_epochs = -3"))
    code, out, err = run_cli(capsys, "--config", cfg, "--out", str(tmp_path / "o"), "run")
    assert code == 1
    assert "ann_epochs" in err
    assert not (tmp_path / "o").exists()


def test_unknown_family_is_validation_error(tmp_path, capsys):
    # "mlp" is not a classical family: the MLP runs as the ann_variants
    cfg = write_config(tmp_path, CONFIG_SMALL.replace("families = dt,rf", "families = dt,foo,mlp"))
    code, out, err = run_cli(capsys, "--config", cfg, "--out", str(tmp_path / "o"), "run")
    assert code == 1
    assert "['foo', 'mlp']" in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("edit, key", [
    (("ann_variants =", "ann_variants = baseline,huge"), "ann_variants"),
    (("ann_variants =", "ann_variants = baseline,l2,baseline"), "ann_variants"),
    (("families = dt,rf", "families = dt,dt"), "families"),
])
def test_bad_model_lists_are_validation_errors(tmp_path, capsys, edit, key):
    cfg = write_config(tmp_path, CONFIG_SMALL.replace(*edit))
    code, out, err = run_cli(capsys, "--config", cfg, "--out", str(tmp_path / "o"), "run")
    assert code == 1, err
    assert key in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["run", "synth"])
def test_zero_samples_flag_is_validation_error(tmp_path, capsys, command):
    code, out, err = run_cli(capsys, "--samples", "0", "--out", str(tmp_path / "o"), command)
    assert code == 1, err
    assert "samples" in err
    assert not (tmp_path / "o").exists()


def test_missing_manifest_key_is_validation_error(tmp_path, capsys):
    cfg = tmp_path / "bad.ini"
    cfg.write_text("[data]\nsource = manifest\n")
    code, out, err = run_cli(capsys, "--config", str(cfg), "ingest")
    assert code == 1
    assert "manifest" in err


def test_unreadable_manifest_is_runtime_error(tmp_path, capsys):
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(f"[data]\nsource = manifest\nmanifest = {tmp_path / 'missing.csv'}\n")
    code, out, err = run_cli(capsys, "--config", str(cfg), "ingest")
    assert code == 2
    assert "error:" in err


def test_run_stage_failure_reports_stage(tmp_path, capsys):
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(f"[data]\nsource = manifest\nmanifest = {tmp_path / 'missing.csv'}\n")
    code, out, err = run_cli(capsys, "--config", str(cfg), "--out", str(tmp_path / "o"), "run")
    assert code == 2
    assert "[ingest]" in err


def test_run_csv_with_a_non_numeric_cell_fails_at_ingest(tmp_path, capsys):
    data_dir = tmp_path / "data"
    run_cli(capsys, "--samples", "4", "--out", str(data_dir), "synth")
    run = data_dir / "onion__run0.csv"
    header, first, *rows = run.read_text().splitlines()
    run.write_text("\n".join([header, "abc," + first.split(",", 1)[1], *rows]) + "\n")
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(f"[data]\nsource = manifest\nmanifest = {data_dir / 'manifest.csv'}\n")
    code, out, err = run_cli(capsys, "--config", str(cfg), "--out", str(tmp_path / "o"), "run")
    assert code == 2
    assert err.startswith("error: [ingest]") and str(run) in err


def test_svm_problem_too_large_is_runtime_error(tmp_path, capsys, monkeypatch):
    from enose.classifiers import svm

    monkeypatch.setattr(svm, "GRAM_LIMIT_BYTES", 8 * 100 * 100)  # n > 100 refused
    text = CONFIG_SMALL.replace("families = dt,rf", "families = svm")
    cfg = write_config(tmp_path, text)
    code, out, err = run_cli(capsys, "--config", cfg, "--out", str(tmp_path / "o"), "run")
    assert code == 2
    assert "[baseline:svm]" in err and "n=240" in err and "460800 bytes" in err


def test_evaluate_foreign_file_fails(tmp_path, capsys):
    bad = tmp_path / "notamodel.json"
    bad.write_text('{"format": "other"}\n')
    code, out, err = run_cli(capsys, "evaluate", str(bad))
    assert code == 1
    assert "error:" in err


def _saved_forest(tmp_path):
    rng = np.random.default_rng(0)
    path = tmp_path / "rf.model.json"
    save_model(str(path), rf_fit(rng.normal(size=(20, 3)), rng.integers(0, 2, size=20),
                                 ForestParams(n_estimators=2), n_classes=2))
    return path


def _truncate(path):
    path.write_text(path.read_text()[:200])


def _edit(change):
    def apply(path):
        doc = json.loads(path.read_text())
        change(doc)
        path.write_text(json.dumps(doc))
    return apply


def _first_leaf(doc):
    """The leftmost leaf of the saved forest's first tree."""
    node = doc["model"]["trees"][0]["root"]
    while "feature" in node:
        node = node["left"]
    return node


def _root(**change):
    return _edit(lambda doc: doc["model"]["trees"][0]["root"].update(change))


def _leaf_counts(counts):
    return _edit(lambda doc: _first_leaf(doc).update(counts=counts))


def _pipeline(version, reducer=None, scaler=True, scaler_means=3, reducer_means=3):
    """An edit giving the saved forest a pipeline for its 3 features.

    ``scaler_means`` and ``reducer_means`` are the lengths of the two ``means`` arrays.
    """
    pipe = {"version": version}
    if scaler:
        pipe["scaler"] = {"means": [0.0] * scaler_means, "stds": [1.0] * 3,
                          "degenerate": [False] * 3}
    if reducer is not None:
        pipe["reducer"] = {"kind": reducer, "means": [0.0] * reducer_means,
                           "components": np.eye(3).tolist(), "eigenvalues": [1.0] * 3}
    return _edit(lambda doc: doc.update(pipeline=pipe))


@pytest.mark.parametrize("corrupt, message", [
    (_truncate, "not valid JSON"),
    (_edit(lambda doc: doc["model"].pop("trees")), "missing key 'trees'"),
    (_edit(lambda doc: doc.update(format_version=99)), "format_version 99"),
    (_edit(lambda doc: doc["model"].update(kind="forest")), "unknown model kind 'forest'"),
    (_edit(lambda doc: doc["model"]["trees"][0].update(kind="svm")), "must be of kind 'dt'"),
    (_pipeline("V1", scaler=False), "missing key 'scaler'"),
    (_pipeline("V9"), "pipeline version 'V9'"),
    (_pipeline("V3"), "V3 pipeline needs reducer kind 'pca', found None"),
    (_pipeline("V1", reducer="pca"), "V1 pipeline needs reducer kind None, found 'pca'"),
    (_pipeline("V3", reducer="ica"), "found 'ica'"),
    (_pipeline("V2", scaler_means=2), "scaler means, stds and degenerate differ in length"),
    (_pipeline("V3", reducer="pca", reducer_means=2), "reducer width 2 is not the scaler width 3"),
    (_edit(lambda doc: doc["model"]["trees"][0]["root"].update(feature=99)),
     "split feature 99 is not an index in [0, 3)"),
    (_edit(lambda doc: doc["model"]["trees"][0]["root"].update(feature=1.5)),
     "split feature 1.5 is not an index in [0, 3)"),
    (_root(threshold="abc"), "split threshold 'abc' is not a finite number"),
    (_root(threshold=True), "split threshold True is not a finite number"),
    (_root(threshold=float("nan")), "split threshold nan is not a finite number"),
    (_root(threshold=10 ** 400), "int too large to convert to float"),
    (_leaf_counts([1.0]), "node counts [1.0] are not 2 finite numbers >= 0"),
    (_leaf_counts([-1.0, 3.0]), "node counts [-1.0, 3.0] are not 2 finite numbers >= 0"),
    (_leaf_counts([1.0, float("inf")]), "node counts [1.0, inf] are not 2 finite numbers"),
    (_leaf_counts([0.0, 0.0]), "node counts [0.0, 0.0] are not 2 finite numbers >= 0 "
                               "with a positive finite sum"),
    (_edit(lambda doc: doc["model"].update(n_classes=3)),
     "the forest has 3 classes, its tree 0 has 2"),
    (_edit(lambda doc: [t.update(n_classes=2.0) for t in doc["model"]["trees"]]),
     "a tree's n_classes 2.0 is not a positive integer"),
    (_edit(lambda doc: doc.update(classes=["a", "b", "c"])),
     "classes ['a', 'b', 'c'] do not name the model's 2 classes"),
    # widths that agree inside the file but not with the 9-column data scored
    (lambda path: None, "expected 3 features, got 9"),
    (_pipeline("V2"), "expected 3 columns, got 7"),
], ids=["truncated", "missing-key", "format-version", "unknown-kind", "forest-member-kind",
        "no-scaler", "unknown-version", "v3-no-reducer", "v1-with-reducer",
        "unknown-reducer-kind", "scaler-width", "reducer-width", "split-feature",
        "split-feature-float", "threshold-string", "threshold-bool", "threshold-nan",
        "threshold-huge-int", "counts-length", "counts-negative", "counts-infinite",
        "leaf-counts-zero", "forest-n-classes", "tree-n-classes-float", "classes-length",
        "model-data-width", "pipeline-data-width"])
def test_evaluate_corrupt_model_is_runtime_error(tmp_path, capsys, corrupt, message):
    path = _saved_forest(tmp_path)
    corrupt(path)
    code, out, err = run_cli(capsys, "evaluate", str(path))
    assert code == 2
    assert str(path) in err and message in err


def _set_w(*entries):
    """An edit of the first layer's ``W``: ``(row, column, value)`` entries."""
    def change(doc):
        for row, col, value in entries:
            doc["model"]["weights"][0]["W"][row][col] = value
    return _edit(change)


@pytest.mark.parametrize("corrupt", [
    _set_w((0, 0, float("nan"))),
    _set_w((0, 0, 1e308), (1, 0, 1e308)),  # finite, but the logits overflow
], ids=["nan-weight", "overflowing-weights"])
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                            "ignore:invalid value encountered:RuntimeWarning")
def test_evaluate_non_finite_probabilities_is_runtime_error(tmp_path, capsys, corrupt):
    path = tmp_path / "ann.model.json"
    save_model(str(path), mlp_build(variant_spec("baseline", 9, 10)))
    corrupt(path)
    code, out, err = run_cli(capsys, "--samples", "20", "--out", str(tmp_path / "o"),
                             "evaluate", str(path))
    assert code == 2
    assert f"{path}: " in err and "class probabilities are NaN or infinite" in err
    assert "accuracy" not in out and not (tmp_path / "o").exists()


def test_run_non_finite_probabilities_fail_their_stage(tmp_path, capsys, monkeypatch):
    from enose.classifiers.tree import DecisionTree

    monkeypatch.setattr(DecisionTree, "predict_proba",
                        lambda self, X: np.full((len(X), self.n_classes), np.nan))
    text = CONFIG_SMALL.replace("families = dt,rf", "families = dt")
    code, out, err = run_cli(capsys, "--config", write_config(tmp_path, text), "--out",
                             str(tmp_path / "o"), "run")
    assert code == 2
    assert "[baseline:dt]" in err and "class probabilities are NaN or infinite" in err


def _ann_weights(change):
    return _edit(lambda doc: change(doc["model"]["weights"]))


# a weight array of the wrong shape would broadcast, or fail only in predict
@pytest.mark.parametrize("corrupt, message", [
    (_ann_weights(lambda w: w[-1].update(b=[0.0])),
     "weights[6] b has shape (1,), the spec needs (10,)"),
    (_ann_weights(lambda w: w[1].update(running_var=[1.0])),
     "weights[1] running_var has shape (1,), the spec needs (128,)"),
    (_ann_weights(lambda w: w[0].update(W=w[0]["W"][:-1])),
     "weights[0] W has shape (8, 128), the spec needs (9, 128)"),
    (_ann_weights(lambda w: w.append(w[-1])), "the spec has 7 weighted layers, the file saves 8"),
], ids=["last-bias", "running-var", "short-W", "extra-layer"])
def test_evaluate_misshapen_ann_is_runtime_error(tmp_path, capsys, corrupt, message):
    # an untrained baseline ANN for the 9 raw features and 10 classes of a synth session
    path = tmp_path / "ann.model.json"
    save_model(str(path), mlp_build(variant_spec("baseline", 9, 10)))
    corrupt(path)
    code, out, err = run_cli(capsys, "--samples", "20", "--out", str(tmp_path / "o"),
                             "evaluate", str(path))
    assert code == 2
    assert str(path) in err and message in err


# --- stage names ----------------------------------------------------------------


def test_overflowing_column_fails_at_pipeline(tmp_path, capsys):
    # finite values near 1e308 overflow the column mean; the run must not save Infinity
    data_dir = tmp_path / "data"
    run_cli(capsys, "--samples", "30", "--out", str(data_dir), "synth")
    for run in data_dir.glob("*__run0.csv"):
        header, *rows = run.read_text().splitlines()
        rows = ["1e308," + row.split(",", 1)[1] for row in rows]  # the first column, co
        run.write_text("\n".join([header, *rows]) + "\n")
    text = CONFIG_SMALL.replace("source = synth", f"source = manifest\nmanifest = "
                                f"{data_dir / 'manifest.csv'}")
    text = text.replace("families = dt,rf", "families = dt")
    out_dir = tmp_path / "o"
    code, out, err = run_cli(capsys, "--config", write_config(tmp_path, text), "--out",
                             str(out_dir), "run")
    assert code == 2
    assert "[pipeline]" in err and "feature column 0" in err
    assert not (out_dir / "models").exists()


def _overflowing_co_session(tmp_path, capsys):
    """A manifest config whose ``co`` column alternates 1e308 and 9e307; its sums overflow."""
    data_dir = tmp_path / "data"
    run_cli(capsys, "--samples", "30", "--out", str(data_dir), "synth")
    for run in data_dir.glob("*__run0.csv"):
        header, *rows = run.read_text().splitlines()
        rows = [f"{(1e308, 9e307)[i % 2]!r}," + row.split(",", 1)[1] for i, row in enumerate(rows)]
        run.write_text("\n".join([header, *rows]) + "\n")
    text = CONFIG_SMALL.replace("source = synth", f"source = manifest\nmanifest = "
                                f"{data_dir / 'manifest.csv'}")
    return write_config(tmp_path, text)


def test_overflowing_correlation_fails_at_inspect(tmp_path, capsys):
    cfg = _overflowing_co_session(tmp_path, capsys)
    code, out, err = run_cli(capsys, "--config", cfg, "--out", str(tmp_path / "i"), "inspect")
    assert code == 2
    assert "feature column 'co' overflows" in err and "nan" not in out
    assert not (tmp_path / "i" / "correlation.csv").exists()
    code, out, err = run_cli(capsys, "--config", cfg, "--out", str(tmp_path / "o"), "run")
    assert code == 2
    assert "[inspect]" in err and "feature column 'co'" in err
    assert not (tmp_path / "o").exists()


def test_diverging_mlp_names_its_stage(tmp_path, capsys, monkeypatch, recwarn):
    from dataclasses import replace

    from enose import models
    from enose.neural import OptimizerSpec, variant_spec

    monkeypatch.setattr(models, "variant_spec", lambda *a, **k: replace(
        variant_spec(*a, **k), optimizer=OptimizerSpec(lr=1e300)))
    text = CONFIG_SMALL.replace("families = dt,rf", "families = dt").replace(
        "ann_variants =", "ann_variants = baseline\nann_epochs = 2")
    code, out, err = run_cli(capsys, "--config", write_config(tmp_path, text), "--out",
                             str(tmp_path / "o"), "run")
    assert code == 2
    assert "[ann:baseline]" in err and "non-finite loss" in err
    assert [str(w.message) for w in recwarn if issubclass(w.category, RuntimeWarning)] == []


def test_models_path_taken_by_a_file_names_its_stage(tmp_path, capsys):
    out_dir = tmp_path / "o"
    out_dir.mkdir()
    (out_dir / "models").write_text("not a directory\n")
    code, out, err = run_cli(capsys, "--config", write_config(tmp_path), "--out", str(out_dir),
                             "run")
    assert code == 2
    assert "[models]" in err
