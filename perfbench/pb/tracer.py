"""In-process tracing for the benchmark's traced run.

:func:`install` wraps the public entry points of the program's layers
(module attributes each caller looks up, or methods on the class), so
every call records a span ``(name, start, end, parent, id)`` in memory.
It also runs :mod:`cProfile` in every process of the program and folds
each process's self time into per-package buckets.

Processes: the program forks campaign pool workers, checkpoint holders
and their grandchildren.  After a fork the child starts a fresh profile
and an empty span list, and clips spans it inherited mid-call to the
fork time, so no work is counted twice.  Each process writes one JSON
file ``<out>/trace.<pid>.json`` when it exits: through ``atexit`` in
the main process, through ``os._exit`` (which the tracer wraps) in
pool workers and grandchildren, and, for checkpoint holders that are
killed rather than exit, once the prefix is run: just before the
holder's first message to its parent, so before the parent can close
it.

Nothing here changes what the program computes: every wrapper calls
the original with the same arguments and returns its result.
"""

from __future__ import annotations

import atexit
import cProfile
import functools
import importlib
import json
import os
import sys
import time

#: Span name -> dotted ``module:attribute`` of a function whose every
#: module-level binding (including re-exports) is wrapped.
FUNCTIONS = {
    "analysis.analyze_package": "repro.analysis.system_model:analyze_package",
    "analysis.flow": "repro.cache.flowcache:cached_propagation_graph",
    "cache.execute": "repro.cache.runcache:cached_execute",
    "sim.execute": "repro.sim.cluster:execute_workload",
}

#: Span name -> ``module:Class.method`` wrapped on the class.
METHODS = {
    "analysis.causal_build": "repro.analysis.causal:CausalGraphBuilder.build",
    "failures.failure_log": "repro.failures.case:FailureCase.failure_log",
    "explorer.prepare": "repro.core.explorer:Explorer.prepare",
    "priority.window": "repro.core.priority:FaultPriorityPool.window",
    "priority.mark_tried": "repro.core.priority:FaultPriorityPool.mark_tried",
    "priority.rank_of_site": "repro.core.priority:FaultPriorityPool.rank_of_site",
    "feedback.apply": "repro.core.observables:ObservableSet.apply_feedback",
    "logs.diff": "repro.logs.diff:PreparedComparator.compare",
    "baselines.run": "repro.baselines.base:StrategyRunner.run",
    "sim.run": "repro.sim.cluster:Cluster.run",
    "checkpoint.open": "repro.sim.checkpoint:Checkpoint.__init__",
    "checkpoint.fork": "repro.sim.checkpoint:Checkpoint.run",
    "checkpoint.runner": "repro.sim.checkpoint:CheckpointPool.runner",
    "obs.emit": "repro.obs.bus:EventBus.emit",
}

#: Fragments of built-in function names that block rather than compute.
WAITS = (
    "acquire",
    "posix.read",
    "posix.waitpid",
    "posix.wait",
    "select.",
    "poll",
    "time.sleep",
)


_HERE = os.path.dirname(os.path.abspath(__file__))


class Tracer:
    """Per-process span buffer, profile and exit-time writer."""

    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        self.pid = os.getpid()
        self.origin = 0.0          # spans starting earlier are clipped here
        self.spans: list[list] = []
        self.stack: list[tuple[int, str]] = []
        self.counter = 0
        self.dumped = False
        self.holder = False        # a checkpoint holder: dump before replying
        self.profile = cProfile.Profile()
        self._real_exit = os._exit

    # ------------------------------------------------------------- spans

    def span(self, name: str, fn, extra=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counter += 1
            ident = (self.pid << 32) | self.counter
            parent = self.stack[-1][0] if self.stack else 0
            self.stack.append((ident, name))
            started = time.perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                ended = time.perf_counter()
                if self.stack and self.stack[-1][0] == ident:
                    self.stack.pop()
                record = [name, max(started, self.origin), ended, parent, ident]
                if extra is not None and result is not None:
                    record.extend(extra(result))
                self.spans.append(record)

        return wrapper

    # ----------------------------------------------------------- process

    def after_fork_in_child(self) -> None:
        self.profile.disable()
        # A child forked from inside Checkpoint.__init__ is a holder; a
        # child a holder forks (still inside that call) is a grandchild.
        self.holder = (not self.holder and bool(self.stack)
                       and self.stack[-1][1] == "checkpoint.open")
        self.pid = os.getpid()
        self.origin = time.perf_counter()
        self.spans = []
        self.dumped = False
        self.profile = cProfile.Profile()
        self.profile.enable()

    def holder_message(self, write):
        """Wrap the checkpoint's message writer: a holder's first message
        ("ready") means its prefix is run, and the parent may kill it as
        soon as it has read it."""

        @functools.wraps(write)
        def wrapper(*args, **kwargs):
            if self.holder:
                self.dump()
            return write(*args, **kwargs)

        return wrapper

    def dump(self) -> None:
        """Write this process's spans and profile buckets (once)."""
        if self.dumped:
            return
        self.dumped = True
        self.profile.disable()
        try:
            self.profile.create_stats()
            buckets: dict[str, float] = {}
            for (filename, _, func), stat in self.profile.stats.items():
                key = bucket(filename, func)
                buckets[key] = buckets.get(key, 0.0) + stat[2]
            path = os.path.join(self.out_dir, f"trace.{os.getpid()}.json")
            with open(path, "w", encoding="utf-8") as handle:
                json.dump({"pid": os.getpid(), "spans": self.spans,
                           "profile": buckets}, handle)
        except Exception as error:  # a failed dump must not fail the run
            print(f"[perfbench tracer: dump failed: {error!r}]", file=sys.stderr)

    def exit(self, code: int) -> None:
        self.dump()
        self._real_exit(code)


def bucket(filename: str, func: str) -> str:
    """Profile bucket of one function: a package of the program, or
    ``builtins``/``wait``/``stdlib``/``tracer``."""
    if filename == "~":
        if any(w in func for w in WAITS):
            return "wait"
        if "pickle" in func or "marshal" in func:
            return "builtins.pickle"
        if "posix." in func:
            return "builtins.os"
        return "builtins.other"
    if os.path.dirname(os.path.abspath(filename)) == _HERE:
        return "tracer"
    path = filename.replace("\\", "/")
    marker = path.rfind("/repro/")
    if marker < 0:
        return "stdlib"
    parts = path[marker + len("/repro/"):].split("/")
    if len(parts) == 1:
        return "cli"
    if parts[0] == "sim":
        module = parts[1][:-3] if parts[1].endswith(".py") else parts[1]
        return f"sim.{module}" if module in ("scheduler", "sync", "env") else "sim.other"
    return parts[0]


def _resolve(spec: str):
    module_name, _, attr = spec.partition(":")
    module = importlib.import_module(module_name)
    owner = module
    *path, last = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, last


def _sim_run_extra(result):
    return [result.end_time, result.injection_requests]


def install(out_dir: str) -> Tracer:
    """Wrap every entry point, start profiling, and hook fork and exit."""
    import repro.__main__  # noqa: F401  (loads the CLI and its imports)
    for name in ("repro.sim.checkpoint", "repro.core.speculate",
                 "repro.cache.flowcache"):
        importlib.import_module(name)
    tracer = Tracer(out_dir)
    for name, spec in FUNCTIONS.items():
        owner, attr = _resolve(spec)
        original = getattr(owner, attr)
        wrapped = tracer.span(name, original)
        for module_name, module in list(sys.modules.items()):
            if module_name.split(".")[0] != "repro" or module is None:
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapped)
    for name, spec in METHODS.items():
        owner, attr = _resolve(spec)
        original = owner.__dict__[attr]
        extra = _sim_run_extra if name == "sim.run" else None
        setattr(owner, attr, tracer.span(name, original, extra))
    checkpoint = sys.modules["repro.sim.checkpoint"]
    checkpoint._write_message = tracer.holder_message(checkpoint._write_message)
    os.register_at_fork(after_in_child=tracer.after_fork_in_child)
    os._exit = tracer.exit
    atexit.register(tracer.dump)
    tracer.profile.enable()
    return tracer
