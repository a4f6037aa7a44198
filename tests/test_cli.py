import csv
import json
import os
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from enose.classifiers.forest import ForestParams, rf_fit
from enose.classifiers.svm import SvmParams, svm_fit_multiclass
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


def test_a_run_over_run_files_by_glob_is_the_run_by_manifest(tmp_path, capsys):
    data_dir = tmp_path / "data"
    run_cli(capsys, "--samples", "30", "--out", str(data_dir), "synth")
    runs = {}
    for source, key in (("manifest", data_dir / "manifest.csv"), ("glob", data_dir / "*__*.csv")):
        text = CONFIG_SMALL.replace("source = synth", f"source = {source}\n{source} = {key}")
        out_dir = tmp_path / source
        code, out, err = run_cli(capsys, "--config", write_config(tmp_path, text), "--out",
                                 str(out_dir), "run")
        assert code == 0, err
        runs[source] = out, (out_dir / "summary.json").read_bytes()
    assert runs["glob"] == runs["manifest"]


def test_the_format_flag_replaces_the_configured_formats(tmp_path, capsys):
    out_dir = tmp_path / "out"
    code, out, err = run_cli(capsys, "--config", write_config(tmp_path), "--format", "svg",
                             "--out", str(out_dir), "run")
    assert code == 0, err
    assert sorted(p.name for p in out_dir.iterdir()) == ["correlation.csv", "models", "svg"]
    assert (out_dir / "svg" / "rf_baseline.roc.svg").read_text().startswith("<svg")


def test_awkward_class_names_survive_csv_and_svg(tmp_path, capsys):
    # a comma, a double quote, & and < in class names: CSV cells are quoted, SVG text escaped;
    # a non-ASCII one is written to the JSON reports escaped, as json.dumps writes it
    awkward = ["juice, fresh", 'say "cheese"', "cardamom & co", "a<b", "café"]
    data_dir = tmp_path / "data"
    run_cli(capsys, "--samples", "30", "--out", str(data_dir), "synth")
    manifest = data_dir / "manifest.csv"
    with manifest.open(newline="") as fh:
        rows = list(csv.reader(fh))
    for k, name in enumerate(awkward):
        rows[k][1] = name
    with manifest.open("w", encoding="utf-8", newline="") as fh:  # CSV, so these get quoted
        csv.writer(fh, lineterminator="\n").writerows(rows)
    classes = {row[1] for row in rows}
    text = CONFIG_SMALL.replace("source = synth", f"source = manifest\nmanifest = {manifest}")
    text = text.replace("families = dt,rf", "families = dt").replace(
        "formats = json,csv", "formats = json,csv,svg")
    out_dir = tmp_path / "out"
    code, out, err = run_cli(capsys, "--config", write_config(tmp_path, text), "--out",
                             str(out_dir), "run")
    assert code == 0, err
    with (out_dir / "roc" / "dt_baseline.roc.csv").open(encoding="utf-8", newline="") as fh:
        header, *rows = csv.reader(fh)
    assert header == ["class", "fpr", "tpr"] and {len(row) for row in rows} == {3}
    assert {row[0] for row in rows} == classes
    svgs = sorted((out_dir / "svg").glob("*.svg"))
    assert [p.name for p in svgs] == ["dt_baseline.confusion.svg", "dt_baseline.roc.svg"]
    for svg in svgs:
        texts = {t.text for t in ET.parse(svg).iter("{http://www.w3.org/2000/svg}text")}
        assert classes <= texts, svg.name
    reports = sorted((out_dir / "reports").glob("*.report.json"))
    assert [p.name for p in reports] == ["dt_baseline.report.json"]
    for path in reports + [out_dir / "summary.json"]:
        text = path.read_text(encoding="utf-8")
        assert text == json.dumps(json.loads(text), indent=1, sort_keys=True) + "\n", path.name
    assert '"caf\\u00e9": {' in reports[0].read_text(encoding="utf-8")


def _spy(monkeypatch, name, record):
    """Replace ``enose.models.<name>`` by a wrapper that records what ``record``
    makes of each call's params and fitted model (``grow_trees``: its trees)."""
    from enose import models

    real = getattr(models, name)

    def spy(X, y, params, *args, **kwargs):
        model = real(X, y, params, *args, **kwargs)
        record(params, model)
        return model

    monkeypatch.setattr(models, name, spy)


@pytest.fixture
def one_process(monkeypatch):
    """Selection on the one-process path, where an in-process spy sees every fit."""
    from enose import pool

    monkeypatch.setattr(pool, "cpu_count", lambda: 1)


def _serial_and_pooled(tmp_path, capsys, monkeypatch, text, spies):
    """Config ``text`` run on the one-process path, then with two forked workers.

    Each ``(name, record)`` of ``spies`` spies on ``enose.models.<name>`` and appends
    ``[pid, record(params, model)]`` as one JSON line of a file from whichever
    process fits; each unit of ``pool.map_units`` (a fit the spies may not see,
    such as the ANN's) appends ``[pid]``.  Per run: its out dir, stdout, sorted fit
    records, the processes that fit or ran a unit and the ``CvResult``s of each
    ``merge_selection``.
    """
    from enose import cli, pool

    log = tmp_path / "fits.jsonl"

    def append(*record):
        with open(log, "a") as fh:
            fh.write(json.dumps([os.getpid(), *record]) + "\n")

    for name, record in spies:
        _spy(monkeypatch, name, lambda params, model, record=record:
             append(record(params, model)))
    real_map = pool.map_units

    def map_units(work, n, *args):
        return real_map(lambda unit: append() or work(unit), n, *args)

    monkeypatch.setattr(pool, "map_units", map_units)
    searches = []
    real_merge = cli.merge_selection

    def merge(*args):
        searches.append(real_merge(*args))
        return searches[-1]

    monkeypatch.setattr(cli, "merge_selection", merge)
    runs = []
    for workers in (1, 2):
        monkeypatch.setattr(pool, "cpu_count", lambda: workers)
        out_dir = tmp_path / f"workers{workers}"
        code, out, err = run_cli(capsys, "--config", write_config(tmp_path, text), "--out",
                                 str(out_dir), "run")
        assert code == 0, err
        lines = [json.loads(line) for line in log.read_text().splitlines()]
        log.unlink()
        runs.append({"out_dir": out_dir, "stdout": out,
                     "fits": sorted(line[1] for line in lines if len(line) == 2),
                     "pids": {line[0] for line in lines}, "cv": [r.cells for r in searches]})
        searches.clear()
    return runs


def _assert_same_selection(serial, pooled):
    """The pooled run fit in workers, and fit, selected and wrote what the serial run did."""
    assert serial["pids"] == {os.getpid()}
    assert len(pooled["pids"] - {os.getpid()}) >= 2
    assert pooled["fits"] == serial["fits"]  # the same multiset: the order is the scheduler's
    assert pooled["cv"] == serial["cv"]
    assert pooled["stdout"] == serial["stdout"]
    for name in ("summary.json", "summary.csv"):
        assert (pooled["out_dir"] / name).read_bytes() == (serial["out_dir"] / name).read_bytes()


def _saved_params(out_dir, name):
    return json.loads((out_dir / "models" / f"{name}.model.json").read_text())["model"]["params"]


@pytest.mark.usefixtures("one_process")
def test_rf_grid_cells_draw_from_the_master_seed(tmp_path, capsys, monkeypatch):
    from enose.rng import derive_seed

    seeds = []
    for name in ("rf_fit", "grow_trees"):  # selection's forests, the train forests
        _spy(monkeypatch, name, lambda params, model: seeds.append(params.seed))
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


@pytest.mark.usefixtures("one_process")
def test_selection_fits_each_distinct_forest_and_tree_once_per_fold(tmp_path, capsys,
                                                                     monkeypatch):
    trees, dt_fits = [], []
    _spy(monkeypatch, "rf_fit", lambda params, model: trees.append(len(model.trees)))
    _spy(monkeypatch, "grow_trees", lambda params, grown: trees.append(len(grown)))
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


def test_pooled_selection_fits_the_same_forests_and_trees(tmp_path, capsys, monkeypatch):
    text = CONFIG_SMALL.replace("folds = 2", "folds = 5").replace("grid = none", "grid = small")
    serial, pooled = _serial_and_pooled(
        tmp_path, capsys, monkeypatch, text,
        [("rf_fit", lambda params, model: ["rf", len(model.trees)]),
         ("dt_fit", lambda params, model: ["dt", repr(params)])])
    _assert_same_selection(serial, pooled)


def test_a_train_forest_grows_one_range_of_trees_per_cpu(tmp_path, capsys, monkeypatch):
    text = CONFIG_SMALL.replace("families = dt,rf", "families = rf")
    serial, pooled = _serial_and_pooled(tmp_path, capsys, monkeypatch, text,
                                        [("grow_trees", lambda params, grown: len(grown))])
    assert serial["fits"] == [100] and pooled["fits"] == [50, 50]
    assert os.getpid() not in pooled["pids"]
    saved = [run["out_dir"] / "models" / "rf_baseline.model.json" for run in (serial, pooled)]
    assert saved[0].read_bytes() == saved[1].read_bytes()


@pytest.mark.usefixtures("one_process")
def test_a_tuned_forest_with_more_trees_grows_on_from_the_baseline(tmp_path, capsys,
                                                                    monkeypatch):
    import pickle

    from enose import cli, models
    from enose.evaluate import GridResult

    grows, saved = [], {}
    real_grow, real_merge, real_save = models.grow_trees, cli.merge_selection, cli.save_model

    def grow(X, y, params, n_classes, trees):
        grows.append((X, y, params, n_classes, trees))
        return real_grow(X, y, params, n_classes=n_classes, trees=trees)

    def merge(params, *args):
        # the sqrt/200 cell wins: the baseline's identity with twice its trees
        win = next(i for i, p in enumerate(params)
                   if i and (p["max_features"], p["n_estimators"]) == ("sqrt", 200))
        return type("Pinned", (GridResult,), {"best_index": win})(real_merge(params, *args).cells)

    def save(path, model, *args):
        saved[os.path.basename(path)] = model
        real_save(path, model, *args)

    monkeypatch.setattr(models, "grow_trees", grow)
    monkeypatch.setattr(cli, "merge_selection", merge)
    monkeypatch.setattr(cli, "save_model", save)
    text = CONFIG_SMALL.replace("families = dt,rf", "families = rf").replace("grid = none",
                                                                             "grid = default")
    code, out, err = run_cli(capsys, "--config", write_config(tmp_path, text), "--out",
                             str(tmp_path / "out"), "run")
    assert code == 0, err
    # the baseline's train forest, then only the 100 trees the tuned forest adds to it
    assert [g[4] for g in grows] == [range(0, 100), range(100, 200)]
    X, y, params, n_classes, _ = grows[1]
    assert params.n_estimators == 200
    # tree by tree: one rf_fit shares one TreeParams object among its trees, a join does not
    tuned, direct = saved["rf_tuned.model.json"], rf_fit(X, y, params, n_classes=n_classes)
    assert (tuned.params, tuned.n_classes) == (direct.params, direct.n_classes)
    assert [pickle.dumps(t) for t in tuned.trees] == [pickle.dumps(t) for t in direct.trees]


@pytest.mark.usefixtures("one_process")
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


def test_pooled_svm_selection_fits_the_same_machine_sets(tmp_path, capsys, monkeypatch):
    text = CONFIG_SMALL.replace("folds = 2", "folds = 5").replace(
        "families = dt,rf", "families = svm").replace("grid = none", "grid = small")
    serial, pooled = _serial_and_pooled(
        tmp_path, capsys, monkeypatch, text,
        [("svm_fit_multiclass", lambda params, model: params.C)])
    _assert_same_selection(serial, pooled)


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


@pytest.mark.usefixtures("one_process")
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


def test_pooled_summary_json_carries_the_same_cv_failures(tmp_path, capsys, monkeypatch):
    import hashlib

    from enose import models
    from enose.errors import DegenerateInput

    real_dt_fit = models.dt_fit
    failing = []

    def fail_first_seen(X, y, params, n_classes=None):
        # fails every fit on the rows and params of the serial run's first fit, the
        # baseline's fold 0, in whichever process makes it
        key = (hashlib.sha256(X.tobytes()).hexdigest(), params)
        if not failing:
            failing.append(key)
        if key == failing[0]:
            raise DegenerateInput("boom")
        return real_dt_fit(X, y, params, n_classes)

    monkeypatch.setattr(models, "dt_fit", fail_first_seen)
    text = CONFIG_SMALL.replace("families = dt,rf", "families = dt").replace(
        "grid = none", "grid = small").replace("ann_variants =",
                                               "ann_variants = baseline\nann_epochs = 2")
    serial, pooled = _serial_and_pooled(tmp_path, capsys, monkeypatch, text,
                                        [("dt_fit", lambda params, model: repr(params))])
    _assert_same_selection(serial, pooled)
    rows = {row["model"]: row for row in
            json.loads((pooled["out_dir"] / "summary.json").read_text())}
    assert rows["dt_baseline"]["cv_failures"] == ["fold 0: boom"]
    grids = [run["out_dir"] / "grids" / "dt.grid.csv" for run in (serial, pooled)]
    assert grids[0].read_bytes() == grids[1].read_bytes()


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


@pytest.mark.parametrize("edit, named", [
    (("source = synth", "source = ftp"), "data source must be synth|manifest|glob, got 'ftp'"),
    (("source = synth", "source = glob"), "source=glob requires the 'glob' key"),
    (("version = V2", "version = V9"), "version must be one of"),
    (("folds = 2", "folds = 2\ntest_fraction = 1.5"), "test_fraction must be in (0, 1), got 1.5"),
    (("grid = none", "grid = huge"), "grid must be default|small|none, got 'huge'"),
    (("formats = json,csv", "formats = pdf"), "unknown report formats ['pdf']"),
    (("[data]", "data"), "cannot parse config {cfg}"),
], ids=["source", "glob-key", "version", "test-fraction", "grid", "formats", "unparsable"])
def test_bad_config_value_is_validation_error(tmp_path, capsys, edit, named):
    cfg = write_config(tmp_path, CONFIG_SMALL.replace(*edit))
    code, out, err = run_cli(capsys, "--config", cfg, "--out", str(tmp_path / "o"), "run")
    assert code == 1, err
    assert named.format(cfg=cfg) in err
    assert not (tmp_path / "o").exists()


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


def _pipeline(version, reducer=None, scaler=True, scaler_means=3, reducer_means=3, **change):
    """An edit giving the saved forest a pipeline for its 3 features.

    ``scaler_means`` and ``reducer_means`` are the lengths of the two ``means`` arrays;
    ``change`` replaces saved arrays of the reducer.
    """
    pipe = {"version": version}
    if scaler:
        pipe["scaler"] = {"means": [0.0] * scaler_means, "stds": [1.0] * 3,
                          "degenerate": [False] * 3}
    if reducer is not None:
        arrays = ({"directions": np.eye(3).tolist(), "class_means": np.eye(3).tolist(),
                   "ridge": 1e-6} if reducer == "lda" else {"components": np.eye(3).tolist()})
        pipe["reducer"] = {"kind": reducer, "means": [0.0] * reducer_means, **arrays,
                           "eigenvalues": [1.0] * 3, **change}
    return _edit(lambda doc: doc.update(pipeline=pipe))


def _scaler(**change):
    """An edit giving the saved forest a V1 pipeline whose scaler has ``change``."""
    scaler = {"means": [0.0] * 3, "stds": [1.0] * 3, "degenerate": [False] * 3, **change}
    return _edit(lambda doc: doc.update(pipeline={"version": "V1", "scaler": scaler}))


@pytest.mark.parametrize("corrupt, message", [
    (_truncate, "not valid JSON"),
    (lambda path: path.write_text("[" * 100_000), "nested too deeply to decode"),
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
    (_pipeline("V3", reducer="pca", components="abc"),
     "reducer components is not rows of 3 numbers"),
    (_pipeline("V3", reducer="pca", means=[0.0, "abc", 0.0]),
     "reducer means holds a value that is not a number"),
    (_pipeline("V3", reducer="pca", components=np.eye(3, 4).tolist()),
     "reducer components is not 3 x 3 numbers"),
    (_pipeline("V3", reducer="pca", eigenvalues=None), "reducer eigenvalues is not 3 numbers"),
    (_pipeline("V4", reducer="lda", class_means=[[0.0, 0.0, float("nan")]]),
     "reducer class_means holds a number that is not finite"),
    (_pipeline("V4", reducer="lda", ridge="abc"), "reducer ridge holds a value that is not a number"),
    (_scaler(means=[0.0, "abc", 0.0]), "scaler means holds a value that is not a number"),
    (_scaler(stds=[1.0, True, 1.0]), "scaler stds holds a value that is not a number"),
    (_scaler(stds=[1.0, float("inf"), 1.0]), "scaler stds holds a number that is not finite"),
    (_scaler(means=[0.0, [1.0], 0.0]), "scaler means holds a value that is not a number"),
    (_scaler(means="abc"), "scaler means is not 3 numbers"),
    (_scaler(degenerate=[False, 0, False]), "scaler degenerate is not 3 bools"),
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
    (_edit(lambda doc: doc["model"].update(trees=[])), "a forest needs at least one tree"),
    (_edit(lambda doc: [t.update(n_classes=2.0) for t in doc["model"]["trees"]]),
     "a tree's n_classes 2.0 is not a positive integer"),
    (_edit(lambda doc: doc.update(classes=["a", "b", "c"])),
     "classes ['a', 'b', 'c'] do not name the model's 2 classes"),
    (_edit(lambda doc: doc.update(model={"kind": "ensemble", "members": [doc["model"]]})),
     "malformed enose-model document (need at least 2 members)"),
    (_edit(lambda doc: doc.update(model={"kind": "ensemble", "members": [
        doc["model"], {**doc["model"]["trees"][0], "n_classes": 3,
                       "root": {"counts": [1.0, 1.0, 1.0]}}]})),
     "malformed enose-model document (member class counts differ: 2 vs 3)"),
    # widths that agree inside the file but not with the 9-column data scored
    (lambda path: None, "expected 3 features, got 9"),
    (_pipeline("V2"), "expected 3 columns, got 7"),
], ids=["truncated", "deeply-nested", "missing-key", "format-version", "unknown-kind",
        "forest-member-kind", "no-scaler", "unknown-version", "v3-no-reducer", "v1-with-reducer",
        "unknown-reducer-kind", "scaler-width", "reducer-width", "reducer-components-string",
        "reducer-means-string", "reducer-components-wide", "reducer-eigenvalues-null",
        "reducer-class-means-nan", "reducer-ridge-string", "scaler-means-string",
        "scaler-stds-bool", "scaler-stds-infinite", "scaler-means-list", "scaler-means-not-list",
        "scaler-degenerate-int", "split-feature",
        "split-feature-float", "threshold-string", "threshold-bool", "threshold-nan",
        "threshold-huge-int", "counts-length", "counts-negative", "counts-infinite",
        "leaf-counts-zero", "forest-n-classes", "forest-no-trees", "tree-n-classes-float",
        "classes-length", "ensemble-one-member", "ensemble-class-counts", "model-data-width",
        "pipeline-data-width"])
def test_evaluate_corrupt_model_is_runtime_error(tmp_path, capsys, corrupt, message):
    path = _saved_forest(tmp_path)
    corrupt(path)
    code, out, err = run_cli(capsys, "evaluate", str(path))
    assert code == 2
    assert str(path) in err and message in err


def _saved_svm(tmp_path):
    """An rbf SVM for the 9 raw features and 10 classes of a synth session; each of its
    machines has at least 2 support vectors."""
    rng = np.random.default_rng(0)
    path = tmp_path / "svm.model.json"
    save_model(str(path), svm_fit_multiclass(rng.normal(size=(30, 9)), np.arange(30) % 10,
                                             SvmParams(kernel="rbf")))
    return path


def _machine(i, change):
    return _edit(lambda doc: change(doc["model"]["machines"][i]))


@pytest.mark.parametrize("corrupt, message", [
    (_machine(0, lambda m: m.update(sv_y=m["sv_y"][:-1])), "SVM machine 0 sv_y is not"),
    (_machine(1, lambda m: m.update(b="abc")), "SVM machine 1 b holds a value that is not a number"),
    (_machine(0, lambda m: m.update(b=float("nan"))), "SVM machine 0 b holds a number that is not"),
    (_machine(0, lambda m: m.update(b=True)), "SVM machine 0 b holds a value that is not a number"),
    (_machine(0, lambda m: m["sv_y"].__setitem__(0, 0.5)),
     "SVM machine 0 sv_y holds a label other than +1 and -1"),
    (_machine(0, lambda m: m["sv_alpha"].__setitem__(0, -0.5)),
     "SVM machine 0 sv_alpha holds a negative number"),
    (_machine(0, lambda m: m.update(sv_alpha=m["sv_alpha"] + [0.5])), "SVM machine 0 sv_alpha is not"),
    (_machine(0, lambda m: m["sv_x"][0].__setitem__(1, float("inf"))),
     "SVM machine 0 sv_x holds a number that is not finite"),
    (_machine(0, lambda m: m["sv_x"][1].pop()), "SVM machine 0 sv_x is not"),
    (_machine(1, lambda m: [row.pop() for row in m["sv_x"]]), "SVM machine 1 sv_x is not"),
    (_machine(0, lambda m: m.update(sv_x=[])), "SVM machine 0 sv_x is not a list of support vectors"),
    (_machine(1, lambda m: m.update(gamma=0.0)), "SVM machine 1 gamma 0.0 is not positive"),
    (_machine(1, lambda m: m.update(gamma="scale")), "SVM machine 1 gamma holds a value that is not"),
    (_machine(0, lambda m: m["params"].update(kernel="poly")),
     "SVM machine 0 kernel 'poly' is not one of ('linear', 'rbf')"),
    (_edit(lambda doc: doc["model"].update(n_classes=11)),
     "an SVM's n_classes 11 is not its number of machines"),
], ids=["sv-y-short", "b-string", "b-nan", "b-bool", "sv-y-half", "alpha-negative",
        "alpha-long", "sv-x-infinite", "sv-x-ragged", "machines-differ-in-width", "no-support-vectors",
        "gamma-zero", "gamma-string", "kernel", "n-classes"])
def test_evaluate_corrupt_svm_is_runtime_error(tmp_path, capsys, corrupt, message):
    path = _saved_svm(tmp_path)
    argv = ["--samples", "20", "--out", str(tmp_path / "o"), "evaluate", str(path)]
    assert run_cli(capsys, *argv)[0] == 0
    corrupt(path)
    code, out, err = run_cli(capsys, *argv)
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


def _saved_synth_forest(tmp_path):
    """A 2-tree forest for the 9 raw features and 10 classes of a synth session."""
    rng = np.random.default_rng(0)
    path = tmp_path / "rf.model.json"
    save_model(str(path), rf_fit(rng.normal(size=(30, 9)), np.arange(30) % 10,
                                 ForestParams(n_estimators=2), n_classes=10))
    return path


def _saved_ann(tmp_path):
    path = tmp_path / "ann.model.json"
    save_model(str(path), mlp_build(variant_spec("baseline", 9, 10)))
    return path


def _tree_params(**change):
    return _edit(lambda doc: doc["model"]["trees"][0]["params"].update(change))


def _svm_params(i, **change):
    return _machine(i, lambda m: m["params"].update(change))


def _forest_params(**change):
    return _edit(lambda doc: doc["model"]["params"].update(change))


# each of these files used to load, and scored with exit 0 (but for trees of different
# n_features, which failed as they scored)
@pytest.mark.parametrize("saved, corrupt, message", [
    (_saved_synth_forest, _edit(lambda doc: doc["model"]["trees"][0]["root"].pop("feature")),
     "a node with a threshold or children has no split feature"),
    (_saved_synth_forest, _tree_params(max_depth=float("nan")),
     "tree max_depth must be None or an integer >= 0, got nan"),
    (_saved_synth_forest, _tree_params(max_depth={}),
     "tree max_depth must be None or an integer >= 0, got {}"),
    (_saved_synth_forest, _tree_params(min_samples_split=-1),
     "tree min_samples_split must be an integer >= 2, got -1"),
    (_saved_svm, _svm_params(0, C="x"), "SVM C must be finite and positive, got 'x'"),
    (_saved_svm, _svm_params(1, gamma=float("inf")),
     "SVM gamma must be positive and finite, or 'scale', got inf"),
    (_saved_svm, _svm_params(0, tol=-1.0), "SVM tol must be finite and positive, got -1.0"),
    (_saved_svm, _svm_params(0, max_passes=1e308),
     "SVM max_passes must be an integer >= 1, got 1e+308"),
    (_saved_svm, _machine(0, lambda m: m.update(converged=None)),
     "SVM machine 0 converged None and n_passes"),
    (_saved_svm, _machine(1, lambda m: m.update(n_passes=float("nan"))),
     "n_passes nan are not a bool and a pass count in [0, 200]"),
    (_saved_ann, _set_w((0, 0, True)), "weights[0] W holds a value that is not a number"),
    (_saved_ann, _ann_weights(lambda w: w[1].update(gamma=[False] * 128)),
     "weights[1] gamma holds a value that is not a number"),
    (_saved_synth_forest, _forest_params(n_estimators="x"),
     "forest n_estimators must be an integer >= 1, got 'x'"),
    (_saved_synth_forest, _forest_params(n_estimators=3),
     "the forest's n_estimators 3 is not its 2 trees"),
    (_saved_synth_forest, _forest_params(max_features=None),
     "max_features must be sqrt, log2, all or a fraction, got None"),
    (_saved_synth_forest, _forest_params(max_features=True),
     "max_features must be sqrt, log2, all or a fraction, got True"),
    (_saved_synth_forest, _forest_params(bootstrap=3.5),
     "forest bootstrap must be true or false, got 3.5"),
    (_saved_synth_forest, _forest_params(seed=[1]), "forest seed must be an integer, got [1]"),
    (_saved_synth_forest, _edit(lambda doc: doc["model"]["trees"][1].update(n_features=9.0)),
     "a tree's n_features 9.0 is not a positive integer"),
    (_saved_synth_forest, _edit(lambda doc: doc["model"]["trees"][1].update(n_features=10)),
     "the forest's tree 0 has 9 features, its tree 1 has 10"),
    (_saved_synth_forest, _edit(lambda doc: doc["model"]["trees"][0]["root"]["counts"]
                                .__setitem__(0, True)),
     "node counts [True, "),
], ids=["split-without-feature", "tree-max-depth-nan", "tree-max-depth-dict",
        "tree-min-samples-split-negative", "svm-c-string", "svm-gamma-infinite",
        "svm-tol-negative", "svm-max-passes-huge", "svm-converged-null", "svm-n-passes-nan",
        "ann-w-bool", "ann-batchnorm-bools", "rf-n-estimators-string",
        "rf-n-estimators-not-tree-count", "rf-max-features-null", "rf-max-features-bool",
        "rf-bootstrap-float", "rf-seed-list", "rf-tree-n-features-float",
        "rf-trees-n-features-differ", "rf-counts-bool"])
def test_evaluate_bad_params_fit_status_split_or_weights_is_runtime_error(tmp_path, capsys,
                                                                         saved, corrupt,
                                                                         message):
    path = saved(tmp_path)
    argv = ["--samples", "20", "--out", str(tmp_path / "o"), "evaluate", str(path)]
    assert run_cli(capsys, *argv)[0] == 0
    corrupt(path)
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert str(path) in err and message in err


@pytest.mark.parametrize("family", ["svm", "mlp"])
def test_evaluate_a_model_saved_with_another_versions_pipeline_names_its_file(tmp_path, capsys,
                                                                             family):
    from enose.evaluate import FeaturePipeline
    from enose.models import FAMILIES
    from enose.synth import default_spec, generate

    # fit on the 7 V2 features, saved with a V1 pipeline, which passes all 9 through
    data = generate(default_spec(3, 0))
    v2 = FeaturePipeline("V2").fit(data).transform(data)
    model = FAMILIES[family].fit(v2.features, v2.labels, {"epochs": 1}, v2.n_classes)
    path = tmp_path / f"{family}.model.json"
    save_model(str(path), model, FeaturePipeline("V1").fit(data), list(data.classes))
    code, out, err = run_cli(capsys, "--samples", "3", "--out", str(tmp_path / "o"),
                             "evaluate", str(path))
    assert code == 2
    assert f"error: {path}: expected 7 features, got 9" in err


# --- stage names ----------------------------------------------------------------


def test_a_model_too_deep_to_save_fails_at_models(tmp_path, capsys, monkeypatch):
    from enose import models
    monkeypatch.setattr(models, "MAX_SAVED_DEPTH", 1)
    text = CONFIG_SMALL.replace("families = dt,rf", "families = dt")
    code, out, err = run_cli(capsys, "--config", write_config(tmp_path, text), "--out",
                             str(tmp_path / "o"), "run")
    assert code == 2
    assert "[models]" in err and "deeper than the 1 levels a model file holds" in err


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
