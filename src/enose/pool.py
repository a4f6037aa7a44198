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


def map_units(work, n: int, order=None) -> list:
    """``[work(i) for i in range(n)]``, run by ``W = min(cpu_count(), n)`` forked children.

    Every child takes its next unit from one pipe, to which the parent writes
    the unit indices in ``order`` (unit order by default; put the longest units
    first, so that no child is left with one long unit at the end), and once
    they run out sends its ``(unit, result)`` pairs back
    pickled through a pipe of its own and ends with ``os._exit``.  The results
    are merged by unit, so they do not depend on W or on which child ran what.
    With one CPU or one unit nothing is forked.  The exception of the lowest
    unit that raised is raised here, as the plain loop would (a child that
    caught one still runs each lower unit it takes), chained to a
    ``ChildTraceback`` of its traceback in the child; one that does not pickle
    or unpickle is a ``RuntimeError`` holding that traceback.  A child that
    ends before it has sent its results is a ``WorkerDied``.  Every child is
    reaped before this returns or raises.
    """
    workers = min(cpu_count(), n)
    if workers <= 1:
        return [work(i) for i in range(n)]
    order = range(n) if order is None else order
    tasks, feed = os.pipe()
    children = []  # (pid, read end of its pipe)
    try:
        for _ in range(workers):
            read, write = os.pipe()
            pid = os.fork()
            if pid == 0:
                for fd in (read, feed, *(r for _, r in children)):
                    os.close(fd)
                _child(work, tasks, write)
            os.close(write)
            children.append((pid, read))
        os.close(tasks)
        tasks = None
        try:  # 1,024 indices of 4 bytes, PIPE_BUF: a write that no pipe splits
            for start in range(0, n, 1024):
                os.write(feed, b"".join(i.to_bytes(4, "little") for i in order[start:start + 1024]))
        except BrokenPipeError:  # every child has ended; its message says how
            pass
        os.close(feed)
        feed = None
        messages = [_receive(read) for _, read in children]
    finally:
        for fd in (tasks, feed):
            if fd is not None:
                os.close(fd)
        statuses = []
        for pid, read in children:
            os.close(read)  # a child still writing gets EPIPE and ends
            statuses.append(os.waitpid(pid, 0)[1])
    results, raised = {}, [message[1] for message in messages if message and message[1]]
    for message in filter(None, messages):
        results.update(message[0])
    for (pid, _), status, message in zip(children, statuses, messages):
        if message is None:
            code = os.waitstatus_to_exitcode(status)
            how = f"signal {-code}" if code < 0 else f"exit code {code}"
            raise WorkerDied(f"worker process {pid} ended by {how} before sending its results",
                             min(set(range(n)) - results.keys()))
    if raised:
        _, data, trace = min(raised, key=lambda failure: failure[0])
        try:
            exc = pickle.loads(data)
        except Exception:  # it did not pickle in the child (data None) or does not unpickle
            exc = RuntimeError(f"a worker's exception that could not be sent back:\n{trace}")
        raise exc from ChildTraceback(trace)
    return [results[unit] for unit in range(n)]


def _child(work, tasks: int, write: int) -> None:
    """Runs the units whose indices it reads from ``tasks`` in a forked child and
    sends ``(results, None)``, or ``([], (unit, pickled exception or None,
    formatted traceback))`` for the lowest unit that raised; never returns."""
    try:
        results, failure = [], None
        while index := os.read(tasks, 4):
            unit = int.from_bytes(index, "little")
            if failure is not None and unit > failure[0]:
                continue  # only a lower unit's exception could be raised in its place
            try:
                results.append((unit, work(unit)))
            except BaseException as exc:  # raised again in the parent
                import traceback  # only a child whose unit raised needs it

                failure = (unit, exc, traceback.format_exc())
        if failure is not None:
            unit, exc, trace = failure
            try:
                data = pickle.dumps(exc)
            except Exception:  # an exception that does not pickle
                data = None
            results, failure = [], (unit, data, trace)
        with open(write, "wb") as fh:
            pickle.dump((results, failure), fh)
    finally:
        os._exit(0)


def _receive(read: int):
    """The message a child sent on ``read``; None if it sent none or only a part."""
    with open(read, "rb", closefd=False) as fh:
        try:
            return pickle.load(fh)
        except Exception:
            return None
