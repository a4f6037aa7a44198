"""Independent units of work forked across the CPUs this process may run on.

Not ``multiprocessing``: importing its pool alone costs about 1 MB of RSS and
14 ms in every process.
"""

from __future__ import annotations

import os
import pickle

from .errors import WorkerDied


class ChildTraceback(Exception):
    """The traceback text of an exception raised in a forked child, which
    ``map_units`` raises that exception from."""


def cpu_count() -> int:
    """The CPUs in this process's affinity: the most children ``map_units`` forks."""
    return len(os.sched_getaffinity(0))


def map_units(work, n: int) -> list:
    """``[work(i) for i in range(n)]``, run by ``W = min(cpu_count(), n)`` forked children.

    Child ``w`` runs units ``w, w + W, ...``, sends their results back pickled
    through a pipe of its own and ends with ``os._exit``; the results are merged
    in unit order, so they do not depend on W.  With one CPU or one unit nothing
    is forked.  An exception raised by ``work`` in a child is raised here (the
    one of the lowest unit), chained to a ``ChildTraceback`` of its traceback in
    the child; a child that ends before it has sent its results is a
    ``WorkerDied``.  Every child is reaped before this returns or raises.
    """
    workers = min(cpu_count(), n)
    if workers <= 1:
        return [work(i) for i in range(n)]
    children = []  # (pid, read end of its pipe)
    try:
        for w in range(workers):
            read, write = os.pipe()
            pid = os.fork()
            if pid == 0:
                os.close(read)
                _child(work, range(w, n, workers), write)
            os.close(write)
            children.append((pid, read))
        messages = [_receive(read) for _, read in children]
    finally:
        statuses = []
        for pid, read in children:
            os.close(read)  # a child still writing gets EPIPE and ends
            statuses.append(os.waitpid(pid, 0)[1])
    for (pid, _), status, message in zip(children, statuses, messages):
        if message is None:
            code = os.waitstatus_to_exitcode(status)
            how = f"signal {-code}" if code < 0 else f"exit code {code}"
            raise WorkerDied(f"worker process {pid} ended by {how} before sending its results")
    raised = [message for message in messages if message[0] is not None]
    if raised:
        _, exc, trace = min(raised, key=lambda message: message[0])
        raise exc from ChildTraceback(trace)
    results = [None] * n
    for w, (_, share, _) in enumerate(messages):
        results[w::workers] = share
    return results


def _child(work, units: range, write: int) -> None:
    """Runs ``units`` in a forked child and sends ``(None, results, None)``, or
    ``(unit, exception, its formatted traceback)`` for the first unit that raised;
    never returns."""
    try:
        unit = units.start
        try:
            results = []
            for unit in units:
                results.append(work(unit))
            message = (None, results, None)
        except BaseException as exc:  # raised again in the parent
            import traceback  # only a child whose unit raised needs it

            message = (unit, exc, traceback.format_exc())
        try:
            data = pickle.dumps(message)
        except Exception:  # an exception that does not pickle
            data = pickle.dumps((unit, RuntimeError(repr(message[1])), message[2]))
        with open(write, "wb") as fh:
            fh.write(data)
    finally:
        os._exit(0)


def _receive(read: int):
    """The message a child sent on ``read``; None if it sent none or only a part."""
    with open(read, "rb", closefd=False) as fh:
        data = fh.read()
    try:
        return pickle.loads(data)
    except Exception:
        return None
