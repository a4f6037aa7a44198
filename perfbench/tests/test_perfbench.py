"""Tests of the benchmark's own code: span arithmetic, metric names, checks.

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import re
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest

import run
import spans
import workloads
from spans import Span

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_self_time_subtracts_merged_child_cover():
    tree = [
        Span(1, None, "root", 0.0, 10.0),
        Span(2, 1, "a", 1.0, 3.0),    # overlaps its sibling, as on two threads
        Span(3, 1, "b", 2.0, 5.0),
        Span(4, 1, "c", 8.0, 12.0),   # runs past its parent's end: clipped
        Span(5, 2, "a.inner", 1.5, 2.0),
    ]
    selfs = spans.self_times(tree)
    assert selfs[1] == pytest.approx(10.0 - (4.0 + 2.0))
    assert selfs[2] == pytest.approx(1.5)
    assert selfs[3] == pytest.approx(3.0)
    assert selfs[5] == pytest.approx(0.5)


def test_layer_metrics_from_hand_built_spans():
    tree = [
        Span(1, None, "evaluate.grid_search", 0.0, 4.0),
        Span(2, 1, "evaluate.cross_validate", 0.0, 4.0, {"folds": 5, "failures": 1}),
        Span(3, 1, "evaluate.cross_validate", 0.0, 2.0, {"folds": 5, "failures": 0}),
        Span(4, None, "evaluate.cross_validate", 5.0, 6.0, {"folds": 5, "failures": 0}),
        Span(5, None, "svm.svm_fit_binary", 6.0, 9.0,
             {"passes": 7, "converged": 1, "support_vectors": 30}),
        Span(6, 5, "svm.kernel_matrix", 6.0, 7.0, {"bytes": 1 << 20}),
        Span(7, None, "svm.kernel_matrix", 9.0, 9.5, {"bytes": 1 << 20}),
        Span(8, None, "forest.rf_fit", 10.0, 12.0, {"trees": 2}),
        Span(9, 8, "tree.dt_fit", 10.0, 11.0, {"nodes": 3}),
        Span(10, 8, "tree.dt_fit", 11.0, 12.0, {"nodes": 5}),
        Span(11, None, "tree.dt_fit", 12.0, 12.5, {"nodes": 1}),
    ]
    m = spans.layer_metrics(tree)
    assert set(m) == {k for k in spans.LAYER_UNITS if not k.startswith("trace.")}
    assert m["evaluate.grid_cells"] == 2
    assert m["evaluate.grid_overlap"] == pytest.approx(6.0 / 4.0)
    assert m["evaluate.cv_s"] == pytest.approx(1.0)
    assert (m["evaluate.folds"], m["evaluate.fold_failures"]) == (15, 1)
    assert m["svm.smo_s"] == pytest.approx(2.0)
    assert m["svm.kernel_calls"] == 2
    assert m["svm.gram_mb"] == pytest.approx(1.0)  # only the matrix built inside a fit
    assert m["svm.converged_ratio"] == 1.0
    assert (m["tree.fits"], m["tree.nodes"], m["forest.trees"]) == (3, 9, 2)
    assert m["forest.tree_fit_ms"] == pytest.approx(1000.0)
    assert m["neural.steps"] == 0 and m["neural.step_ms"] == 0.0


def test_worker_thread_spans_nest_under_the_waiting_span():
    tracer = spans.Tracer()
    cell = tracer.wrap("cell", lambda x: x)

    def grid():
        with ThreadPoolExecutor(max_workers=2) as pool:
            return list(pool.map(cell, range(4)))

    assert tracer.wrap("grid", grid)() == [0, 1, 2, 3]
    (outer,) = [s for s in tracer.spans if s.name == "grid"]
    cells = [s for s in tracer.spans if s.name == "cell"]
    assert len(cells) == 4 and all(s.parent == outer.id for s in cells)


def test_a_span_that_raised_is_still_recorded_as_parent():
    tracer = spans.Tracer()

    def failing():
        tracer.wrap("inner", lambda: 1)()
        raise ValueError("fold failed")

    with pytest.raises(ValueError):
        tracer.wrap("outer", failing)()
    by_name = {s.name: s for s in tracer.spans}
    assert by_name["inner"].parent == by_name["outer"].id
    spans.layer_metrics(tracer.spans)


def test_spans_survive_a_dump_and_load_with_offset(tmp_path):
    tracer = spans.Tracer()
    tracer.wrap("outer", lambda: tracer.wrap("inner", lambda: 1)())()
    tracer.dump(str(tmp_path / "spans.json"))
    loaded = spans.load_spans(str(tmp_path / "spans.json"), id_offset=100)
    by_name = {s.name: s for s in loaded}
    assert by_name["inner"].parent == by_name["outer"].id > 100


def test_install_wraps_names_other_modules_imported():
    code = (
        "import spans, enose.cli, enose.models, enose.classifiers.forest as f\n"
        "t = spans.Tracer(); spans.install(t)\n"
        "for fn in (enose.cli.cross_validate, enose.cli.evaluate_model, enose.models.rf_fit,"
        " f.dt_fit, enose.cli.save_model, enose.models.mlp_train):\n"
        "    assert hasattr(fn, '__wrapped__'), fn\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    subprocess.run([sys.executable, "-c", code], check=True, env=env, timeout=120)


def test_metric_names_units_and_workloads_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in bench["per_layer"]}
    assert e2e == run.E2E_UNITS
    assert layers == spans.LAYER_UNITS
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    names = [*e2e, *layers, *workloads.WORKLOADS]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for unit in [*e2e.values(), *layers.values()]:
        assert UNIT.fullmatch(unit), unit


def _write_run_outputs(out, accs):
    os.makedirs(os.path.join(out, "reports"))
    os.makedirs(os.path.join(out, "models"))
    rows = [{"model": name, "test_acc": acc} for name, acc in accs.items()]
    with open(os.path.join(out, "summary.json"), "w") as fh:
        json.dump(rows, fh)
    for name, acc in accs.items():
        with open(os.path.join(out, "reports", f"{name}.report.json"), "w") as fh:
            json.dump({"accuracy": acc}, fh)
        with open(os.path.join(out, "models", f"{name}.model.json"), "w") as fh:
            json.dump({"model": {}}, fh)


def _svm_job(out):
    return workloads.Job("cfg.ini", ["run"], out, {}, "summary.json",
                         ("svm_baseline", "svm_tuned"))


def test_check_accepts_a_good_run(tmp_path):
    out = str(tmp_path / "out")
    _write_run_outputs(out, {"svm_baseline": 0.99, "svm_tuned": 0.97})
    problems, acc = workloads.TrainSvmCsv().check(_svm_job(out), 0)
    assert problems == [] and acc == pytest.approx(0.98)


def test_check_rejects_a_failed_operation(tmp_path):
    out = str(tmp_path / "out")
    _write_run_outputs(out, {"svm_baseline": 0.99, "svm_tuned": 0.97})
    problems, acc = workloads.TrainSvmCsv().check(_svm_job(out), 2)
    assert problems == ["exit code 2"] and acc is None


def test_check_rejects_low_accuracy_and_missing_artifacts(tmp_path):
    out = str(tmp_path / "out")
    _write_run_outputs(out, {"svm_baseline": 0.99, "svm_tuned": 0.90})
    problems, acc = workloads.TrainSvmCsv().check(_svm_job(out), 0)
    assert acc is None and any("svm_tuned: accuracy 0.9 below" in p for p in problems)

    os.remove(os.path.join(out, "models", "svm_baseline.model.json"))
    problems, _ = workloads.TrainSvmCsv().check(_svm_job(out), 0)
    assert any("svm_baseline.model.json" in p for p in problems)


def test_check_rejects_a_low_scored_session(tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    (out / "evaluate.report.json").write_text(json.dumps({"accuracy": 0.5}))
    job = workloads.Job("cfg.ini", ["evaluate", "m.json"], str(out), {}, "evaluate.report.json")
    problems, acc = workloads.ScoreSaved().check(job, 0)
    assert acc is None and problems
    (out / "evaluate.report.json").write_text(json.dumps({"accuracy": 0.95}))
    assert workloads.ScoreSaved().check(job, 0) == ([], 0.95)


def test_sub_seeds_differ_by_seed_and_purpose():
    assert workloads.sub_seed(0, "config") == workloads.sub_seed(0, "config")
    assert len({workloads.sub_seed(s, p) for s in (0, 1) for p in ("config", "session")}) == 4


def test_train_forest_counts_come_from_the_config_grid(tmp_path):
    # only the winning cell is read from the output; a dropped cell must not
    # lower the expected counts
    (tmp_path / "grids").mkdir()
    (tmp_path / "grids" / "rf.grid.csv").write_text(
        "max_features,n_estimators,mean,std,failures\n"
        "sqrt,25,0.99,0.01,0\n"
        "all,25,0.98,0.01,0\n")
    job = workloads.Job("cfg.ini", ["run"], str(tmp_path), {}, "summary.json")
    counts = workloads.TrainForest().expected_counts(job)
    assert counts["forest.trees"] == 1375  # 5*100 + 100 + 5*(25+25+50+50) + 25
    assert counts["evaluate.folds"] == 50
    assert counts["evaluate.grid_cells"] == 8
