"""Record the reference answers that every benchmark run is checked against.

Run from the repository root at the commit whose answers are the reference:

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python3 perfbench/make_reference.py [WORKLOAD ...]

It runs the named workloads (default: all) of each profile in this process,
once per input seed, and replaces their entries in ``perfbench/reference.json``.
Record every workload again after changing its sizes or inputs.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import worker


def record(profile, workload, seed):
    size = worker.PROFILES[profile][workload]
    scratch = Path.cwd() / ".perfbench_work"
    scratch.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix="reference-", dir=scratch))
    try:
        inputs = worker.setup(workload, size, seed, work_dir)
        it = worker.Iteration()
        worker.RUNNERS[workload](it, size, inputs, {}, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    # with no reference given, only the reference comparisons may fail
    failed_checks = [c for c in it.checks if not c["ok"]]
    broken = [c for c in failed_checks if "reference" not in c["detail"]]
    if broken or it.failed > len(failed_checks):
        raise SystemExit(f"{profile}/{workload} seed {seed}: {broken or 'operations failed'}")
    print(f"{profile}/{workload} seed {seed}: {it.answers}", file=sys.stderr, flush=True)
    return it.answers


def main():
    workloads = sys.argv[1:] or list(worker.RUNNERS)
    path = worker.HERE / "reference.json"
    for profile in worker.PROFILES:
        for workload in workloads:
            answers = {str(s): record(profile, workload, s) for s in range(worker.INPUT_SEEDS)}
            doc = json.loads(path.read_text(encoding="utf-8"))
            doc.setdefault(profile, {})[workload] = answers
            path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
