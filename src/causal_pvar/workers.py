"""Forked worker processes, and the one rule for when work may use them.

Work that splits into independent tasks (``verify``'s scenario groups, the
chunks of a bootstrap, the blocks of lines ``io.load_panel_csv`` parses and
of rows ``io.write_grid`` formats) runs in shares of whole tasks
(``in_shares``), one forked worker per usable CPU
(``os.sched_getaffinity``) and at most one per task, while this process
only collects.  It runs in this process instead
where that is one process, where another thread runs (fork copies only the
calling thread, so a lock another thread holds would stay held in every
worker; a worker's own watch thread counts, so a worker forks no workers),
or where the platform cannot fork.

A worker is a bare ``os.fork``: it imports nothing, sends its share's
result through a pipe and ends.  It ends with its parent too, even one
killed by a signal: the parent alone holds the write end of an "alive"
pipe, and a watch thread in the worker leaves on that pipe's end of file.
"""

from __future__ import annotations

import os
import pickle
import threading


def processes(n_tasks: int) -> int:
    """How many processes may share ``n_tasks`` tasks: one per usable CPU
    and at most one per task, or 1 (this one) by the rule above."""
    if (not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity")
            or threading.active_count() > 1):
        return 1
    return max(1, min(n_tasks, len(os.sched_getaffinity(0))))


def _fork_share(share, first: int, stop: int, alive: tuple[int, int]):
    """Fork a worker that sends ``share(first, stop)``, or the error it
    raises, through a pipe and ends, or ends once the read end of ``alive``
    sees end of file; its pid and the pipe's read end."""
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(read)
            os.close(alive[1])  # so that only the parent holds the pipe open

            def watch():
                os.read(alive[0], 1)  # returns at end of file: nothing is written
                os._exit(1)

            threading.Thread(target=watch, daemon=True).start()
            with os.fdopen(write, "wb") as fh:
                try:
                    sent = (share(first, stop), None)
                except Exception as exc:  # raised in the parent, as there
                    sent = (None, exc)
                pickle.dump(sent, fh, protocol=pickle.HIGHEST_PROTOCOL)
            status = 0
        finally:
            os._exit(status)  # never back into the parent's stack
    os.close(write)
    return pid, os.fdopen(read, "rb")


def in_shares(share, n_tasks: int) -> list:
    """``share(first, stop)``'s results for tasks ``first..stop - 1``, over
    all ``n_tasks`` tasks, as a list in task order.

    The tasks are split into ``processes(n_tasks)`` runs of whole tasks, and
    where that is more than one, a forked worker computes each run while
    this process collects them in turn, so each task's result does not
    depend on the split.  With one process, ``share(0, n_tasks)`` runs here.
    The first run's error, in task order, is raised here, and every worker
    has ended when this returns or raises.
    """
    count = processes(n_tasks)
    if count == 1:
        return [share(0, n_tasks)]
    bounds = [i * n_tasks // count for i in range(count + 1)]
    alive = os.pipe()
    workers = []
    try:
        for first, stop in zip(bounds, bounds[1:]):
            workers.append(_fork_share(share, first, stop, alive))
        results = []
        for pid, fh in workers:
            try:
                got, error = pickle.load(fh)
            except EOFError:  # killed, say by the kernel for lack of memory
                raise RuntimeError(f"worker {pid} ended without sending its share") from None
            if error is not None:
                raise error
            results.append(got)
        return results
    finally:
        os.close(alive[1])  # a worker still running, after an error, ends
        os.close(alive[0])
        for pid, fh in workers:
            fh.close()
            os.waitpid(pid, 0)
