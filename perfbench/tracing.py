"""Span tracing for the benchmark's traced runs, applied from outside the package.

`install` wraps every public function and public method defined in the
``fairdesert`` modules and rebinds each wrapper wherever the original is bound:
callers use ``from .x import f``, so ``fit`` must be replaced in ``cli``,
``theta``, ``sensitivity`` and ``simulate`` as well as in ``sievemle``.  Nothing
under ``src/`` changes.

A span is (run id, pid, span id, parent pid, parent id, name, start, end,
attributes).  Spans stay in memory and are written out by `Tracer.flush`, one
JSON-lines file per process.  Pool workers inherit the wrappers through fork;
each worker writes its spans when its outermost span ends, and its first span
names the span that was open in the parent at fork time.

`layer_metrics` turns the span files of one traced iteration into the
benchmark's per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import statistics
import sys
import time
import types
from collections import defaultdict
from pathlib import Path

PACKAGE = "fairdesert"
MODULES = ("data", "basis", "regress", "identify", "optimize", "sievemle",
           "theta", "sensitivity", "simulate", "cli", "modelio")
# span names that differ from module.qualname
ALIASES = {"sievemle.SieveProblem.value_grad": "sievemle.value_grad"}
# sievemle.fit keeps a restart only if it ends with a finite value and this
# gradient sup-norm; used to find the winning restart from the outside
ACCEPT_GRAD_NORM = 1e-4


def _opt_attrs(args, kwargs, result):
    return {"iterations": result.iterations, "converged": bool(result.converged),
            "fun": float(result.fun), "grad_norm": float(result.grad_norm)}


def _fit_attrs(args, kwargs, result):
    options = args[2] if len(args) > 2 else kwargs.get("options")
    warm = options is not None and options.init_coefficients is not None
    return {"warm": warm}


ATTRIBUTES = {
    "optimize.bfgs_minimize": _opt_attrs,
    "optimize.newton_minimize": _opt_attrs,
    "sievemle.fit": _fit_attrs,
    "sievemle.value_grad": lambda args, kwargs, result: {"rows": int(args[0].n)},
    "theta.theta_bootstrap": lambda args, kwargs, result: {
        "replicates": int(result.flags.get("replicates", 0)),
        "failures": int(result.flags.get("failures", 0)),
    },
    "simulate.monte_carlo": lambda args, kwargs, result: {
        "jobs": int(kwargs.get("jobs", args[3] if len(args) > 3 else 1)),
    },
}


def span_name(module, qualname):
    name = f"{module}.{qualname}"
    if module == "cli" and qualname.startswith("cmd_"):
        name = f"cli.{qualname[4:]}"
    return ALIASES.get(name, name)


class Tracer:
    """In-memory span recorder shared by all wrappers of one process."""

    def __init__(self, out_dir, run_id):
        self.out_dir = Path(out_dir)
        self.run_id = run_id
        self.origin_pid = os.getpid()
        self.pid = self.origin_pid
        self.spans = []
        self.stack = []
        self.fork_parent = None
        self.next_id = 0
        os.register_at_fork(after_in_child=self._after_fork)

    def _after_fork(self):
        self.pid = os.getpid()
        self.spans = []
        self.fork_parent = self.stack[-1] if self.stack else self.fork_parent
        self.stack = []

    def wrap(self, name, func):
        tracer = self
        attributes = ATTRIBUTES.get(name)

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            parent = tracer.stack[-1] if tracer.stack else tracer.fork_parent
            span_id = (tracer.pid, tracer.next_id)
            tracer.next_id += 1
            tracer.stack.append(span_id)
            result = None
            start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                tracer.stack.pop()
                attrs = attributes(args, kwargs, result) if attributes and result is not None else None
                tracer.spans.append((span_id[1], parent, name, start, end, attrs))
                if not tracer.stack and tracer.pid != tracer.origin_pid:
                    tracer.flush()

        return wrapper

    def flush(self):
        """Append this process's spans to its file and clear them from memory."""
        path = self.out_dir / f"spans-{self.pid}.jsonl"
        with path.open("a", encoding="utf-8") as fh:
            for span_id, parent, name, start, end, attrs in self.spans:
                parent_pid, parent_id = parent if parent else (None, None)
                fh.write(json.dumps([self.run_id, self.pid, span_id, parent_pid, parent_id,
                                     name, start, end, attrs]) + "\n")
        self.spans = []


def install(tracer):
    """Wrap the package's public functions and methods in `tracer` spans."""
    modules = {m: importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES}
    replaced = {}
    for short, mod in modules.items():
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if isinstance(obj, types.FunctionType):
                replaced[obj] = tracer.wrap(span_name(short, attr), obj)
            elif isinstance(obj, type):
                for member_name, member in list(vars(obj).items()):
                    if not member_name.startswith("_") and isinstance(member, types.FunctionType):
                        name = span_name(short, f"{obj.__name__}.{member_name}")
                        setattr(obj, member_name, tracer.wrap(name, member))
    namespaces = list(modules.values()) + [sys.modules[PACKAGE]]
    for mod in namespaces:
        for attr, obj in list(vars(mod).items()):
            if isinstance(obj, types.FunctionType) and obj in replaced:
                setattr(mod, attr, replaced[obj])


class _Span:
    __slots__ = ("pid", "sid", "parent", "name", "start", "end", "attrs", "children")

    def __init__(self, row):
        _, self.pid, self.sid, ppid, pid_, self.name, self.start, self.end, self.attrs = row
        self.parent = (ppid, pid_) if ppid is not None else None
        self.children = []

    @property
    def dur(self):
        return self.end - self.start

    def self_time(self):
        """Duration minus the time covered by children in the same process."""
        return self.dur - sum(c.dur for c in self.children if c.pid == self.pid)


def load_spans(trace_dir):
    spans = {}
    for path in sorted(Path(trace_dir).glob("spans-*.jsonl")):
        with path.open(encoding="utf-8") as fh:
            for line in fh:
                span = _Span(json.loads(line))
                spans[(span.pid, span.sid)] = span
    for span in spans.values():
        if span.parent in spans:
            spans[span.parent].children.append(span)
    return list(spans.values())


def _ratio(num, den):
    return num / den if den else 0.0


def _descendants(span, name):
    out = []
    todo = list(span.children)
    while todo:
        child = todo.pop()
        if child.name == name:
            out.append(child)
        todo.extend(child.children)
    return out


def layer_metrics(spans, main_pid, wall_s):
    """Per-layer metrics of one traced iteration (see BENCHMARK.json)."""
    by_name = defaultdict(list)
    for span in spans:
        by_name[span.name].append(span)

    def calls(name):
        return len(by_name[name])

    def busy(name):
        return sum(s.dur for s in by_name[name])

    def self_s(name):
        return sum(s.self_time() for s in by_name[name])

    def attr_sum(name, key):
        return sum((s.attrs or {}).get(key, 0) for s in by_name[name])

    m = {}
    for name in ("basis.expit", "basis.expand_matrix", "data.Dataset.subset",
                 "regress.fit_mu_models", "regress.fit_series_logit",
                 "sievemle.predict_tau", "theta.theta_onestep", "simulate.gen_dataset",
                 "simulate.auc"):
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.s"] = busy(name)
    for name in ("data.load_csv", "regress.fit_propensity", "identify.check_testable_implications",
                 "theta.influence_coefficients", "simulate.ScoreModel.scores",
                 "simulate.fit_mlc", "simulate.fit_ld", "simulate.fit_uml", "simulate.fit_ftu"):
        m[f"{name}.s"] = busy(name)

    bfgs = "optimize.bfgs_minimize"
    m[f"{bfgs}.calls"] = calls(bfgs)
    m[f"{bfgs}.s"] = busy(bfgs)
    m[f"{bfgs}.self_s"] = self_s(bfgs)
    m[f"{bfgs}.iterations"] = attr_sum(bfgs, "iterations")
    m[f"{bfgs}.converged_frac"] = _ratio(attr_sum(bfgs, "converged"), calls(bfgs))
    newton = "optimize.newton_minimize"
    m[f"{newton}.calls"] = calls(newton)
    m[f"{newton}.s"] = busy(newton)
    m[f"{newton}.iterations"] = attr_sum(newton, "iterations")

    fits = by_name["sievemle.fit"]
    m["sievemle.fit.calls"] = len(fits)
    m["sievemle.fit.warm_calls"] = attr_sum("sievemle.fit", "warm")
    m["sievemle.fit.s"] = busy("sievemle.fit")
    m["sievemle.fit.self_s"] = self_s("sievemle.fit")
    vg = "sievemle.value_grad"
    m[f"{vg}.calls"] = calls(vg)
    m[f"{vg}.s"] = busy(vg)
    m[f"{vg}.ns_per_row"] = _ratio(busy(vg) * 1e9, attr_sum(vg, "rows"))
    fit_evals = winner_evals = 0
    for fit in fits:
        restarts = [(c, sum(1 for g in c.children if g.name == vg))
                    for c in fit.children if c.name == bfgs]
        fit_evals += sum(evals for _, evals in restarts)
        accepted = [(c.attrs["fun"], evals) for c, evals in restarts
                    if c.attrs and c.attrs["fun"] == c.attrs["fun"]
                    and abs(c.attrs["fun"]) != float("inf")
                    and c.attrs["grad_norm"] <= ACCEPT_GRAD_NORM]
        if accepted:
            winner_evals += min(accepted)[1]
    m["sievemle.evals_per_fit"] = _ratio(fit_evals, len(fits))
    m["sievemle.winner_eval_frac"] = _ratio(winner_evals, fit_evals)

    boot = "theta.theta_bootstrap"
    m[f"{boot}.replicates"] = attr_sum(boot, "replicates")
    m[f"{boot}.failures"] = attr_sum(boot, "failures")
    m[f"{boot}.self_s"] = self_s(boot)
    m["sensitivity.run_sweep.s"] = busy("sensitivity.run_sweep")
    m["sensitivity.run_sweep.fits"] = sum(
        len(_descendants(s, "sievemle.fit")) for s in by_name["sensitivity.run_sweep"])

    reps = by_name["simulate.run_replication"]
    m["simulate.run_replication.calls"] = len(reps)
    m["simulate.run_replication.p50_s"] = statistics.median(s.dur for s in reps) if reps else 0.0
    pool_capacity = sum(s.dur * (s.attrs or {}).get("jobs", 1) for s in by_name["simulate.monte_carlo"])
    m["simulate.pool_busy_frac"] = _ratio(sum(s.dur for s in reps), pool_capacity)
    m["cli.estimate.self_s"] = self_s("cli.estimate")
    m["cli.predict.self_s"] = self_s("cli.predict")

    # self time by module in the main process: these plus the untraced
    # remainder add up to the traced wall time (pool workers run alongside)
    main = [s for s in spans if s.pid == main_pid]
    for module in MODULES:
        m[f"{module}.self_s"] = sum(s.self_time() for s in main if s.name.split(".")[0] == module)
    top = sum(s.dur for s in main if s.parent is None)
    m["trace.untraced_s"] = wall_s - top
    m["trace.spans"] = len(spans)
    m["trace.worker_spans"] = len(spans) - len(main)
    return m
