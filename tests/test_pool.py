"""The fork pool that runs model selection's (identity group, fold) units.

Two workers are forced, so that these tests fork on a one-CPU host too.  Each
test also checks that no child process is left behind.
"""

import os
import signal
import time

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
    assert os.getpid() not in {pid for _, pid in got}
    assert_no_children()


def test_results_stay_in_unit_order_whichever_child_takes_a_unit():
    # the slowest unit is taken first; the quick ones then go to whichever child is free
    def work(unit):
        time.sleep(0.5 if unit == 7 else 0.001)
        return unit, os.getpid()

    got = pool.map_units(work, 8, order=[7, 0, 1, 2, 3, 4, 5, 6])
    assert [unit for unit, _ in got] == list(range(8))
    pids = {pid for _, pid in got}
    assert len(pids) == 2 and os.getpid() not in pids
    assert_no_children()


@pytest.mark.parametrize("workers", [1, 2])
def test_of_two_failing_units_the_lower_one_raises_on_any_worker_count(monkeypatch, workers):
    from enose.cli import _run_jobs

    monkeypatch.setattr(pool, "cpu_count", lambda: workers)

    def fail(message):
        raise DegenerateInput(message)

    # the later failure is the long one, so two workers run it first
    jobs = [("a", False, lambda: 0), ("b", False, lambda: fail("first")),
            ("c", False, lambda: 2), ("d", True, lambda: fail("second"))]
    with pytest.raises(DegenerateInput) as caught:
        _run_jobs(jobs)
    assert str(caught.value) == "[b] first"

    def work(unit):
        if unit in (3, 6):
            raise ValueError(f"unit {unit}")
        return unit

    with pytest.raises(ValueError, match="unit 3"):
        pool.map_units(work, 8, order=[6, 0, 1, 2, 3, 4, 5, 7])
    assert_no_children()


def test_a_schedule_longer_than_a_pipe_holds_finishes():
    n = 40_000  # 160 kB of unit indices, more than a pipe's 64 kB
    assert pool.map_units(lambda unit: unit, n) == list(range(n))
    assert_no_children()


class TwoArgumentError(Exception):
    def __init__(self, a, b):
        super().__init__(a)


def test_an_exception_that_does_not_unpickle_is_a_runtime_error_with_its_traceback():
    def work(unit):
        if unit == 1:
            raise TwoArgumentError("cannot come back", "b")
        return unit

    with pytest.raises(RuntimeError) as caught:
        pool.map_units(work, 3)
    assert "TwoArgumentError: cannot come back" in str(caught.value)
    assert "in work" in str(caught.value)
    assert isinstance(caught.value.__cause__, pool.ChildTraceback)
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
