"""The process pool behind the Monte Carlo study and the bootstrap.

Results come back in task order, and every task draws its randomness from its
own seed, so they do not depend on the number of workers.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor

# (func, shared arguments); set once in each worker process by the pool
# initializer, never in the calling process
_WORKER_CALL = None


def _install(func, shared):
    global _WORKER_CALL
    _WORKER_CALL = (func, shared)


def _run(task):
    func, shared = _WORKER_CALL
    return func(*shared, task)


def map_jobs(func, tasks, jobs, shared=()):
    """``[func(*shared, task) for task in tasks]`` on up to ``jobs`` processes.

    With ``jobs == 1``, or a single task, the tasks run in this process.
    Otherwise ``min(jobs, len(tasks))`` workers start; ``func`` and ``shared``
    reach each worker once, through the pool initializer, and each task
    carries only its own argument.  ``func``, ``shared`` and the tasks must
    then be picklable.  An exception that ``func`` raises propagates, and the
    tasks not yet started are cancelled.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    tasks = list(tasks)
    workers = min(jobs, len(tasks))
    if workers <= 1:
        return [func(*shared, task) for task in tasks]
    pool = ProcessPoolExecutor(max_workers=workers, initializer=_install,
                               initargs=(func, shared))
    try:
        return list(pool.map(_run, tasks, chunksize=max(1, len(tasks) // (4 * workers))))
    finally:
        pool.shutdown(cancel_futures=True)
