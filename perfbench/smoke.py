"""Smoke self-test of the benchmark: every workload at tiny sizes, untraced and
traced, and the refusal to run outside a repository checkout.

    python3 perfbench/smoke.py      # from the repository root, about a minute

Asserts that each run exits 0 and ends with a result whose metrics are exactly
the BENCHMARK.json end-to-end metrics (untraced) or per-layer metrics (traced),
each with its unit; that the answer checks pass; that untraced runs also print
the workload's own stage figures, the failed fraction and the environment;
that the traced mc run holds spans from pool workers; and that in a directory
holding only BENCHMARK.json and perfbench/ the benchmark exits non-zero
without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

NAMED = {
    "mc": ("oracle_s", "mc_reps_per_s"),
    "pipeline": ("estimate_s", "predict_rows_per_s"),
    "variants": ("bootstrap_s", "sweep_s"),
}


def bench(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300, check=False)


def check_run(root, spec, workload, trace):
    kind = "per_layer" if trace else "end_to_end"
    done = bench(root, "--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", str(trace), "--profile", "tiny")
    assert done.returncode == 0, f"{workload} trace={trace}: {done.stdout}{done.stderr}"
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, result
    expected = {m["name"]: m["unit"] for m in spec[kind]}
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == expected, set(emitted) ^ set(expected)
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), (name, m)
    printed = {line.split()[0] for line in lines[:-1]}
    assert {"env", "fail_frac"} <= printed, printed
    if trace:
        values = {name: m["value"] for name, m in result["metrics"].items()}
        modules = sum(v for name, v in values.items() if name.count(".") == 1
                      and name.endswith(".self_s") and not name.startswith("trace."))
        assert abs(modules + values["trace.untraced_s"] - values["trace.wall_s"]) < 1e-6, values
        if workload == "mc":
            assert values["trace.worker_spans"] > 0
    else:
        assert set(NAMED[workload]) <= printed, printed
        for entry in spec["end_to_end"]:
            assert result["metrics"][entry["name"]]["value"] > 0, entry["name"]
    print(f"ok {workload} --trace {trace}", flush=True)


def check_bare(root):
    bare = root / ".perfbench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(root / "BENCHMARK.json", bare)
        shutil.copytree(root / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = bench(bare, "--workload", "mc", "--seed", "0", "--seconds", "1")
        assert done.returncode != 0 and not done.stdout.strip(), (done.returncode, done.stdout)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            bare.parent.rmdir()
        except OSError:  # a benchmark run still uses it
            pass
    print("ok refuses to run without src/fairdesert", flush=True)


def main():
    root = Path.cwd()
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            check_run(root, spec, workload, trace)
    check_bare(root)


if __name__ == "__main__":
    main()
