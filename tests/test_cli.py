import filecmp
import json
import os

import numpy as np
import pytest

from enose.classifiers.forest import ForestParams, rf_fit
from enose.cli import main
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


def test_run_deterministic_across_workers(tmp_path, capsys):
    text = CONFIG_SMALL.replace("grid = none", "grid = small")
    cfg = write_config(tmp_path, text)
    a, b = tmp_path / "a", tmp_path / "b"
    assert run_cli(capsys, "--config", cfg, "--out", str(a), "--workers", "1", "run")[0] == 0
    assert run_cli(capsys, "--config", cfg, "--out", str(b), "--workers", "3", "run")[0] == 0
    mismatches = []
    for root, _, files in os.walk(a):
        rel = os.path.relpath(root, a)
        for f in files:
            pa = os.path.join(root, f)
            pb = os.path.join(b, rel, f)
            if not (os.path.exists(pb) and filecmp.cmp(pa, pb, shallow=False)):
                mismatches.append(os.path.join(rel, f))
    assert not mismatches


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


def test_invalid_config_value_names_the_key(tmp_path, capsys):
    cfg = tmp_path / "bad.ini"
    cfg.write_text("[pipeline]\nfolds = 1\n")
    code, out, err = run_cli(capsys, "--config", str(cfg), "run")
    assert code == 1
    assert "folds" in err


def test_unknown_family_is_validation_error(tmp_path, capsys):
    # "mlp" is not a classical family: the MLP runs as the ann_variants
    cfg = write_config(tmp_path, CONFIG_SMALL.replace("families = dt,rf", "families = dt,foo,mlp"))
    code, out, err = run_cli(capsys, "--config", cfg, "--out", str(tmp_path / "o"), "run")
    assert code == 1
    assert "['foo', 'mlp']" in err
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


def _pipeline(version, reducer=None, scaler=True):
    """An edit giving the saved forest a pipeline for its 3 features."""
    pipe = {"version": version}
    if scaler:
        pipe["scaler"] = {"means": [0.0] * 3, "stds": [1.0] * 3, "degenerate": [False] * 3}
    if reducer is not None:
        pipe["reducer"] = {"kind": reducer, "means": [0.0] * 3,
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
], ids=["truncated", "missing-key", "format-version", "unknown-kind", "forest-member-kind",
        "no-scaler", "unknown-version", "v3-no-reducer", "v1-with-reducer",
        "unknown-reducer-kind"])
def test_evaluate_corrupt_model_is_runtime_error(tmp_path, capsys, corrupt, message):
    path = _saved_forest(tmp_path)
    corrupt(path)
    code, out, err = run_cli(capsys, "evaluate", str(path))
    assert code == 2
    assert str(path) in err and message in err
