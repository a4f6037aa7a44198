"""Benchmark of the enose CLI: end-to-end operations, or a traced per-layer run.

    python3 perfbench/run.py --workload train-forest --seed 0 --seconds 20 --trace 0

Run from the root of a source checkout (it needs ``src/enose``).  The
workload's inputs are made from ``--seed`` and set up at least
``SETUP_MIN_REPS`` times, and more while the set-ups add up to less than
``SETUP_MIN_S``;
then operations run one at a time, each one ``enose`` invocation in its own
process timed from outside, until ``--seconds`` have passed.  Every operation's
outputs are checked; a failed one counts in ``failed`` and its timing is left
out.  With ``--trace 1`` the operations alternate untraced and traced, and
the per-layer metrics of the traced ones (set-up included) are reported
instead of the end-to-end ones.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records the environment, the seeds and every operation.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OP = os.path.join(HERE, "op.py")
WORK = os.path.join(ROOT, ".perfbench_work")

SETUP_MIN_REPS = 3
SETUP_MIN_S = 3.0
SETUP_MAX_REPS = 9
TIME_LIMIT_S = 170.0  # the whole benchmark run stays under 180 s
MB = float(1 << 20)

# end-to-end metric name -> unit
E2E_UNITS = {
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "test_acc": "fraction",
    "ok_ratio": "fraction",
}


class SetupFailed(Exception):
    pass


@dataclass
class Op:
    traced: bool
    code: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    artifact_mb: float = 0.0
    test_acc: float | None = None
    problems: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems


def run_child(argv: list[str], log: str, env: dict, timeout: float) -> tuple[int, float, float, float]:
    """Exit code, wall s, CPU s and peak RSS MB of one child process.

    The child is killed after ``timeout`` seconds, or if this process is
    interrupted while waiting, and is always reaped before returning.
    """
    with open(log, "wb") as fh:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=fh, stderr=subprocess.STDOUT, env=env,
                                cwd=os.path.dirname(log))
    timer = threading.Timer(max(timeout, 1.0), proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        with open(log, encoding="utf-8", errors="replace") as fh:
            sys.stderr.write(fh.read()[-4000:])
    return (proc.returncode, wall, usage.ru_utime + usage.ru_stime,
            usage.ru_maxrss * 1024 / MB)


def tree_mb(path: str) -> float:
    total = 0
    for dirpath, _, files in os.walk(path):
        total += sum(os.path.getsize(os.path.join(dirpath, f)) for f in files)
    return total / MB


def git_commit() -> str | None:
    if not os.path.exists(os.path.join(ROOT, ".git")):  # an exported tree has no commit
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment(nproc: int, blas_threads: str) -> dict:
    import numpy as np
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": metadata.version("scipy"),
        "openblas_threads": blas_threads,
        "commit": git_commit(),
        "numpy_trapz_alias": not hasattr(np, "trapz"),
    }


def median(values):
    return statistics.median(values) if values else None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    began = time.perf_counter()

    if not os.path.isfile(os.path.join(SRC, "enose", "cli.py")):
        print(f"error: no enose source tree at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import spans
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"expected one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]

    nproc = len(os.sched_getaffinity(0))
    env = dict(os.environ)
    env["OPENBLAS_NUM_THREADS"] = "1"  # one BLAS thread per worker: no spinning, steadier times
    work = os.path.join(WORK, f"{workload.name}-{args.seed}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    log = os.path.join(work, "op.log")

    def remaining() -> float:
        return TIME_LIMIT_S - (time.perf_counter() - began)

    def set_up():
        """Write the inputs and make the warm-up call: the job and its seconds."""
        start = time.perf_counter()
        job = workload.setup(work, args.seed)
        code, *_ = run_child([sys.executable, OP, *job.warmup_argv], log, env, remaining())
        if code != 0:
            raise SetupFailed(f"set-up of {workload.name} failed: warm-up exited {code}")
        return job, time.perf_counter() - start

    try:
        # cheap set-ups are repeated more, so that the median rests on a few seconds
        setup_times: list[float] = []
        while len(setup_times) < SETUP_MIN_REPS or (
                sum(setup_times) < SETUP_MIN_S and len(setup_times) < SETUP_MAX_REPS):
            job, seconds = set_up()
            setup_times.append(seconds)
        setup_spans: list = []
        if args.trace:  # one more set-up, traced, counted in the per-layer metrics
            tracer = spans.Tracer()
            spans.install(tracer)
            job, _ = set_up()
            setup_spans = tracer.spans

        ops: list[Op] = []
        traced_metrics: list[dict] = []
        mismatches: dict[str, tuple] = {}
        reference = None
        trace_out = os.path.join(work, "spans.json")
        loop_start = last = time.perf_counter()
        while True:
            for traced in ((False, True) if args.trace else (False,)):
                shutil.rmtree(job.out, ignore_errors=True)
                extra = ["--trace-out", trace_out] if traced else []
                code, wall, cpu, rss = run_child([sys.executable, OP, *extra, *job.argv],
                                                 log, env, remaining())
                op = Op(traced, code, wall, cpu, rss)
                ops.append(op)
                op.problems, op.test_acc = workload.check(job, code)
                if not op.ok:
                    continue
                op.artifact_mb = tree_mb(job.out)
                with open(os.path.join(job.out, job.result_file), "rb") as fh:
                    result = fh.read()
                reference = reference or result
                if result != reference:
                    op.problems.append(f"{job.result_file} differs from the first operation's")
                elif traced:
                    offset = max((s.id for s in setup_spans), default=0)
                    metrics = spans.layer_metrics(
                        setup_spans + spans.load_spans(trace_out, id_offset=offset))
                    for name, want in workload.expected_counts(job).items():
                        if metrics[name] != want:
                            mismatches[name] = (want, metrics[name])
                    traced_metrics.append(metrics)
            # stop before a round that would end after --seconds
            now = time.perf_counter()
            if 2 * now - last - loop_start > args.seconds or remaining() < now - last:
                break
            last = now

        good = [op for op in ops if op.ok and not op.traced]
        if args.trace:
            traced_walls = [op.wall_s for op in ops if op.ok and op.traced]
            metrics = {name: median([m[name] for m in traced_metrics])
                       for name in traced_metrics[0]} if traced_metrics else {}
            if traced_walls and good:
                metrics["trace.wall_s"] = median(traced_walls)
                metrics["trace.overhead_s"] = median(traced_walls) - median(
                    [op.wall_s for op in good])
                metrics["trace.count_mismatches"] = len(mismatches)
            units = spans.LAYER_UNITS
        else:
            metrics = {
                "wall_s": median([op.wall_s for op in good]),
                "cpu_s": median([op.cpu_s for op in good]),
                "peak_rss_mb": median([op.peak_rss_mb for op in good]),
                "setup_s": median(setup_times),
                "test_acc": median([op.test_acc for op in good]),
                "ok_ratio": sum(op.ok for op in ops) / len(ops),
            }
            units = E2E_UNITS
        failed = sum(not op.ok for op in ops)
        complete = all(metrics.get(name) is not None for name in units)

        for name, (want, got) in sorted(mismatches.items()):
            print(f"trace cross-check: {name} traced {got}, config implies {want}",
                  file=sys.stderr)
        for op in ops:
            for problem in op.problems:
                print(f"failed operation: {problem}", file=sys.stderr)
        print(json.dumps({
            "workload": workload.name,
            "seed": args.seed,
            "input_seeds": job.seeds,
            "environment": environment(nproc, env["OPENBLAS_NUM_THREADS"]),
            "setup_s": setup_times,
            "operations": [vars(op) for op in ops],
            "trace_count_mismatches": {k: list(v) for k, v in mismatches.items()},
        }))
        print(json.dumps({
            "correct": failed == 0 and complete,
            "attempted": len(ops),
            "failed": failed,
            "metrics": {name: {"value": metrics[name], "unit": unit}
                        for name, unit in units.items() if metrics.get(name) is not None},
        }))
        return 0 if failed == 0 and complete else 1
    except SetupFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(WORK)  # only when no other run is using it
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
