"""Forked worker processes, and the one rule for when work may use them.

Work that splits into independent tasks (``verify``'s scenario groups, the
chunks of a bootstrap) may run on forked workers, one process per usable
CPU (``os.sched_getaffinity``) and at most one per task.  It runs in this
process instead where that is one process, where another thread runs
(fork copies only the calling thread, so a lock another thread holds would
stay held in every worker; a verify worker's own watch thread counts, so a
worker forks no workers), or where the platform cannot fork.

``worker_pool`` is the process pool ``verify`` hands its groups to;
``multiprocessing`` is imported only then, as other commands never need
it.  ``in_shares`` runs a bootstrap's chunks in shares: this process
computes one while each worker, a bare ``os.fork``, computes another and
sends its rows back through a pipe before it ends.  A share is one task
per worker, so it needs no pool: a bare fork takes about half a one-worker
pool's round trip and imports nothing, which counts against bootstraps
of a tenth of a second.
"""

from __future__ import annotations

import os
import pickle
import threading

import numpy as np


def processes(n_tasks: int) -> int:
    """How many processes, this one included, may share ``n_tasks`` tasks:
    one per usable CPU and at most one per task, or 1 by the rule above."""
    if (not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity")
            or threading.active_count() > 1):
        return 1
    return max(1, min(n_tasks, len(os.sched_getaffinity(0))))


def _exit_with_parent() -> None:
    """Pool initializer: end this worker once its parent process has ended,
    even by a signal.  Without it the worker would wait for ever on a call
    queue whose write end it holds open itself."""
    from multiprocessing import connection, parent_process

    sentinel = parent_process().sentinel

    def watch():
        connection.wait([sentinel])
        os._exit(1)

    threading.Thread(target=watch, daemon=True).start()


def worker_pool(n_tasks: int):
    """A pool of forked workers for ``n_tasks`` tasks, one per process that
    ``processes`` allows, each ending with its parent; None where that is one."""
    workers = processes(n_tasks)
    if workers < 2:
        return None
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    # a fork pool starts every worker before its manager thread
    return ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                               initializer=_exit_with_parent)


def _fork_share(share, first: int, stop: int):
    """Fork a worker that sends ``share(first, stop)``, or the error it
    raises, through a pipe and ends; its pid and the pipe's read end."""
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(read)
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


def in_shares(share, n_chunks: int) -> np.ndarray:
    """``share(first, stop)``'s rows for chunks ``first..stop - 1``, over all
    ``n_chunks`` chunks, concatenated in chunk order.

    The chunks are split into ``processes(n_chunks)`` runs of whole chunks:
    this process computes the first run while a forked worker computes each
    of the others, so each chunk's rows do not depend on the split.  With
    one process, ``share(0, n_chunks)`` runs here.  Every worker has ended
    when this returns or raises.
    """
    count = processes(n_chunks)
    if count == 1:
        return share(0, n_chunks)
    bounds = [i * n_chunks // count for i in range(count + 1)]
    workers = [_fork_share(share, first, stop) for first, stop in zip(bounds[1:-1], bounds[2:])]
    try:
        rows = [share(bounds[0], bounds[1])]
        for pid, fh in workers:
            try:
                got, error = pickle.load(fh)
            except EOFError:  # killed, say by the kernel for lack of memory
                raise RuntimeError(f"worker {pid} ended without sending its share") from None
            if error is not None:
                raise error
            rows.append(got)
    finally:
        for pid, fh in workers:
            fh.close()
            os.waitpid(pid, 0)
    return np.concatenate(rows)
