"""The fork pool that runs model selection's (identity group, fold) units.

Two workers are forced, so that these tests fork on a one-CPU host too.  Each
test also checks that no child process is left behind.
"""

import os
import signal

import numpy as np
import pytest

from enose import models, pool
from enose.cli import main
from enose.errors import DegenerateInput
from enose.evaluate import grid_search
from tests.conftest import make_dataset

RUN_CONFIG = """\
[data]
samples = 20
[pipeline]
folds = 2
[models]
families = dt
grid = small
ann_variants =
ensemble = no
"""


@pytest.fixture(autouse=True)
def two_workers(monkeypatch):
    monkeypatch.setattr(pool, "cpu_count", lambda: 2)


def assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class Constant:
    def predict(self, X):
        return np.zeros(X.shape[0], dtype=np.int64)


def numbered_folds(n=4):
    """``n`` prepared folds whose train features all equal the fold number."""
    y = np.repeat(np.arange(2), 3)
    return [(make_dataset(np.full((6, 1), float(f)), y), make_dataset(np.zeros((6, 1)), y))
            for f in range(n)]


def test_units_run_in_two_workers_and_come_back_in_unit_order():
    got = pool.map_units(lambda unit: (unit, os.getpid()), 5)
    assert [unit for unit, _ in got] == list(range(5))
    pids = [pid for _, pid in got]
    assert pids[0::2] == [pids[0]] * 3 and pids[1::2] == [pids[1]] * 2
    assert len(set(pids)) == 2 and os.getpid() not in pids
    assert_no_children()


def test_more_workers_than_cores_return_every_unit_in_order(monkeypatch):
    monkeypatch.setattr(pool, "cpu_count", lambda: 5)
    assert pool.map_units(lambda unit: [unit] * unit, 23) == [[u] * u for u in range(23)]
    assert_no_children()


def test_one_unit_or_one_cpu_runs_in_this_process(monkeypatch):
    assert pool.map_units(lambda unit: os.getpid(), 1) == [os.getpid()]
    monkeypatch.setattr(pool, "cpu_count", lambda: 1)
    assert pool.map_units(lambda unit: os.getpid(), 3) == [os.getpid()] * 3


def test_a_programmer_error_in_a_worker_is_raised_with_its_type():
    def fit(X, y, params, n_classes):
        raise AttributeError(f"no attribute in process {os.getpid()}")

    with pytest.raises(AttributeError, match="no attribute in process") as caught:
        grid_search([{}], numbered_folds(), fit)
    assert str(caught.value) != f"no attribute in process {os.getpid()}"
    assert_no_children()


def test_a_programmer_error_in_a_worker_is_chained_to_its_traceback_in_the_child():
    def fit_that_breaks_in_the_child(X, y, params, n_classes):
        raise TypeError("a bug")

    with pytest.raises(TypeError, match="a bug") as caught:
        grid_search([{}], numbered_folds(), fit_that_breaks_in_the_child)
    cause = caught.value.__cause__
    assert isinstance(cause, pool.ChildTraceback)
    assert str(cause).startswith("Traceback (most recent call last):")
    assert "in fit_that_breaks_in_the_child" in str(cause)
    assert_no_children()


def test_a_toolkit_error_in_a_worker_fails_only_its_own_fold():
    def fit(X, y, params, n_classes):
        if X[0, 0] == 3.0:
            raise DegenerateInput(f"boom in process {os.getpid()}")
        return Constant()

    cv = grid_search([{}], numbered_folds(), fit).best
    assert cv.accuracies == [0.5, 0.5, 0.5]
    assert cv.failures == [f"fold 3: boom in process {cv.failures[0].rsplit(' ', 1)[1]}"]
    assert not cv.failures[0].endswith(f" {os.getpid()}")
    assert_no_children()


def test_a_worker_that_dies_ends_the_run_with_exit_2_naming_the_stage(tmp_path, capsys,
                                                                     monkeypatch):
    parent, real_dt_fit = os.getpid(), models.dt_fit

    def dying(X, y, params, n_classes=None):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return real_dt_fit(X, y, params, n_classes)

    monkeypatch.setattr(models, "dt_fit", dying)
    cfg = tmp_path / "run.ini"
    cfg.write_text(RUN_CONFIG)
    code = main(["--config", str(cfg), "--out", str(tmp_path / "out"), "run"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: [baseline:dt] worker process ")
    assert f"ended by signal {int(signal.SIGKILL)} before sending its results" in err
    assert_no_children()


def test_a_pooled_run_leaves_no_process_behind(tmp_path, capsys):
    cfg = tmp_path / "run.ini"
    cfg.write_text(RUN_CONFIG)
    assert main(["--config", str(cfg), "--out", str(tmp_path / "out"), "run"]) == 0
    assert_no_children()
