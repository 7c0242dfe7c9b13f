"""One fork-context process pool for the engines' parallel builds.

build_apsp splits its per-source builds over it, and build_offline the two
halves of a large recursion tree.  Workers inherit their inputs by fork:
fork_pool keeps them in this module while the pool is open, a worker reads
them back with inherited(), and only a task's call and result are pickled.
A worker, and a caller while its pool is open, gets no spare workers, so a
build never forks a nested pool.
"""

from __future__ import annotations

import contextlib
import gc
import os
import threading

_inputs: tuple | None = None  # fork_pool's inputs while a pool is open, and in its workers


def worker_count() -> int:
    """Processes a build may use: one per usable CPU.

    1 where os.fork is missing or a second thread runs, since a child
    forked beside a running thread may inherit a lock it holds and hang.
    """
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def spare_workers(wanted: int) -> int:
    """Workers a pool opened here may fork, at most wanted: worker_count() - 1,
    and none in a pool worker or while this process holds a pool open."""
    if _inputs is not None:
        return 0
    return max(0, min(wanted, worker_count() - 1))


def inherited() -> tuple:
    """In a pool worker: the inputs its fork_pool was given."""
    return _inputs


@contextlib.contextmanager
def fork_pool(workers: int, *inputs):
    """A ProcessPoolExecutor of `workers` fork-context processes (None when workers is 0).

    The pool forks every worker at the first submit, before it starts its
    thread, and each worker inherits `inputs` (see inherited()).  Around
    the fork every object the gc tracks is frozen, unless some already
    are, so a collection in either process does not write the pages they
    share; leaving the block unfreezes what it froze.  A worker's exception
    is re-raised as itself (the remote traceback is its __cause__), a dead
    worker raises BrokenProcessPool (a RuntimeError), and leaving the
    block, on return or failure, joins every worker and pool thread.
    """
    global _inputs
    if workers < 1:
        yield None
        return
    # Not at the top: they cost ~1.25 MiB of RSS, and `import incsp` imports this module.
    from concurrent.futures import ProcessPoolExecutor
    from multiprocessing import get_context

    freeze = gc.get_freeze_count() == 0
    if freeze:
        gc.freeze()
    _inputs = inputs
    try:
        with ProcessPoolExecutor(workers, get_context("fork")) as pool:
            yield pool
    finally:
        _inputs = None
        if freeze:
            gc.unfreeze()
