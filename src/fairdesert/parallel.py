"""The process pool behind the Monte Carlo study, the bootstrap and the sieve
fit's restarts.

Results come back in task order, and every task draws its randomness from its
own seed, so they do not depend on the number of workers.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import importlib.util
import os
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

# (func, shared arguments); set once in each worker process by the pool
# initializer, never in the calling process
_WORKER_CALL = None

# (set, get) thread-count symbols of the OpenBLAS builds that the numpy and
# scipy wheels bundle in ``numpy.libs/`` and ``scipy.libs/``
_OPENBLAS_SYMBOLS = {
    "numpy": ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    "scipy": ("scipy_openblas_set_num_threads", "scipy_openblas_get_num_threads"),
}


@functools.cache
def _openblas():
    """{package: (set, get)} for each bundled OpenBLAS this process has loaded.

    Opening with ``RTLD_NOLOAD`` finds a library only if it is already
    loaded, so no second BLAS (and thread pool) starts here.  Importing the
    package loads numpy's only; scipy's is found when the caller's own code
    has loaded it.  A missing library or symbol leaves its package out.
    Cached, so that forked workers inherit the handles: resolving them again
    in each worker touches about 1 MB more of its memory.
    """
    found = {}
    for package, symbols in _OPENBLAS_SYMBOLS.items():
        spec = importlib.util.find_spec(package)
        if spec is None or spec.origin is None:
            continue
        libs = Path(spec.origin).parent.parent / f"{package}.libs"
        for path in sorted(libs.glob("libscipy_openblas*")):
            try:
                lib = ctypes.CDLL(str(path), mode=os.RTLD_NOLOAD)
                setter, getter = (getattr(lib, name) for name in symbols)
            except (OSError, AttributeError):
                continue
            setter.argtypes, setter.restype = [ctypes.c_int], None
            getter.argtypes, getter.restype = [], ctypes.c_int
            found[package] = (setter, getter)
    return found


def blas_threads():
    """{package: threads} in effect for each bundled OpenBLAS that is loaded."""
    return {package: getter() for package, (_, getter) in _openblas().items()}


@contextlib.contextmanager
def _blas_pinned():
    """Pin this process's BLAS to one thread while the block runs.

    Each pool worker is one of up to ``jobs`` busy processes, and BLAS
    threads on top of them oversubscribe the cores.  Workers forked inside
    the block inherit the pin.  Pinning in the worker instead would restart
    the BLAS thread pool, which a fork stops, and its idle threads spin for
    tens of milliseconds of CPU each.
    """
    pinned = [(setter, getter()) for setter, getter in _openblas().values() if getter() != 1]
    for setter, _ in pinned:
        setter(1)
    try:
        yield
    finally:
        for setter, threads in pinned:
            setter(threads)


def _install(func, shared):
    global _WORKER_CALL
    _WORKER_CALL = (func, shared)
    # a worker that was not forked loaded BLAS afresh, unpinned
    for setter, getter in _openblas().values():
        if getter() != 1:
            setter(1)


def _run(task):
    func, shared = _WORKER_CALL
    return func(*shared, task)


def map_jobs(func, tasks, jobs, shared=()):
    """``[func(*shared, task) for task in tasks]`` on up to ``jobs`` processes.

    With ``jobs == 1``, a single task, or a call from inside a pool worker
    (no pool nests in another), the tasks run in this process.  Otherwise
    ``min(jobs, len(tasks))`` workers start, each with BLAS pinned to one
    thread (this process's BLAS too, until they finish); ``func`` and
    ``shared`` reach each worker once, through the pool initializer, and each
    task carries only its own argument.  ``func``, ``shared`` and the tasks
    must then be picklable.  An exception that ``func`` raises propagates,
    and the tasks not yet started are cancelled.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    tasks = list(tasks)
    if _in_process(len(tasks), jobs):
        return [func(*shared, task) for task in tasks]
    with _blas_pinned():
        pool = ProcessPoolExecutor(max_workers=min(jobs, len(tasks)), initializer=_install,
                                   initargs=(func, shared))
        try:
            return list(pool.map(_run, tasks, chunksize=chunk_size(len(tasks), jobs)))
        finally:
            pool.shutdown(cancel_futures=True)


def _in_process(count, jobs):
    """Whether `map_jobs` runs ``count`` tasks in this process."""
    return min(jobs, count) <= 1 or _WORKER_CALL is not None


def chunk_size(count, jobs):
    """How many of ``count`` tasks `map_jobs` hands a worker at once: all of
    them when they run in this process."""
    if _in_process(count, jobs):
        return count
    return max(1, count // (4 * min(jobs, count)))
