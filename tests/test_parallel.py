import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from fairdesert.parallel import blas_threads, map_jobs

SRC = Path(__file__).resolve().parent.parent / "src"


def _pid(_task):
    return os.getpid()


def _pid_and_inner_pids(_task):
    return os.getpid(), map_jobs(_pid, range(3), jobs=2)


def test_no_pool_starts_inside_a_pool_worker():
    results = map_jobs(_pid_and_inner_pids, range(2), jobs=2)
    for outer, inner in results:
        assert outer != os.getpid()
        assert inner == [outer] * 3


def test_pool_workers_pin_blas_to_one_thread(tmp_path):
    if not blas_threads():
        pytest.skip("numpy and scipy bundle no OpenBLAS here")
    script = tmp_path / "probe.py"
    script.write_text(textwrap.dedent("""
        import json
        import os

        import fairdesert
        from fairdesert.parallel import blas_threads, map_jobs

        def probe(_task):
            # the pin must not restart BLAS's thread pool in a forked worker
            threads = len(os.listdir("/proc/self/task")) if os.path.isdir("/proc/self/task") else 1
            return blas_threads(), threads

        if __name__ == "__main__":
            before = blas_threads()
            workers = map_jobs(probe, range(2), jobs=2)
            print(json.dumps([before, workers, blas_threads()]))
    """), encoding="utf-8")
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(script)], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    before, workers, after = json.loads(proc.stdout)
    # importing the package loads numpy's OpenBLAS, and scipy's no longer
    assert before and "scipy" not in before
    assert workers == [[{package: 1 for package in before}, 1]] * 2
    assert after == before
