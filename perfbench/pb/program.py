"""Launching the program under test from an isolated copy of its source.

Every default output location of the program (run cache, flow cache,
ledger, event stream) sits under ``<source root>/benchmarks/out``, where
the source root is the directory that holds ``src/``.  The benchmark
therefore copies ``src/`` into a fresh work tree and runs the program
from there: the checkout's own ``benchmarks/out`` is never read or
written, and no cache filled by one run can be served to another.
"""

from __future__ import annotations

import dataclasses
import os
import shutil
import signal
import subprocess
import sys
import threading
import time

#: Environment variables through which the program relays its own
#: settings to worker processes; a stale value must not leak in.
_RELAYED = (
    "REPRO_CACHE",
    "REPRO_CACHE_DIR",
    "REPRO_EARLY_VERDICT",
    "REPRO_EVENTS",
    "REPRO_FAULT_DIMS",
)


def host_cpus() -> int:
    """CPUs this process may run on (what ``nproc`` prints)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


class WorkTree:
    """A throwaway source root: ``<path>/src`` copied from the checkout."""

    def __init__(self, checkout: str, path: str):
        self.checkout = checkout
        self.path = path
        shutil.copytree(
            os.path.join(checkout, "src"),
            os.path.join(path, "src"),
            ignore=shutil.ignore_patterns("__pycache__", "*.pyc", "*.egg-info"),
        )

    @property
    def out_dir(self) -> str:
        return os.path.join(self.path, "benchmarks", "out")

    @property
    def events_path(self) -> str:
        return os.path.join(self.out_dir, "events.jsonl")

    @property
    def ledger_path(self) -> str:
        return os.path.join(self.out_dir, "ledger.jsonl")

    @property
    def runcache_dir(self) -> str:
        return os.path.join(self.out_dir, "runcache")

    def reset_state(self) -> None:
        """Drop every output and cache the program left (cold start)."""
        shutil.rmtree(self.out_dir, ignore_errors=True)

    def env(self) -> dict:
        env = {k: v for k, v in os.environ.items() if k not in _RELAYED}
        env["PYTHONPATH"] = os.path.join(self.path, "src")
        # Pinned so every launch compiles its modules, as on a host that
        # sets it; the value is recorded with the run's environment.
        env["PYTHONDONTWRITEBYTECODE"] = "1"
        return env


@dataclasses.dataclass
class Launch:
    """One finished program process and what it cost."""

    returncode: int
    started_at: float      # time.time() just before the launch
    wall_s: float
    cpu_s: float           # user+sys of the process and reaped descendants
    peak_rss_mb: float     # largest resident set among those processes
    stdout: str
    stderr: str
    timed_out: bool = False


def _stop_group(pgid: int, timeout: float = 10.0) -> None:
    """Kill whatever is left of a process group and wait until it is gone."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            return
        time.sleep(0.02)


def launch(argv, tree: WorkTree, timeout: float) -> Launch:
    """Run ``argv`` in ``tree`` to completion and measure it.

    The process leads its own process group, so on a timeout the whole group
    (pool workers, checkpoint holders and forks) is killed; stragglers
    left behind after a normal exit are stopped the same way.
    """
    env = tree.env()
    out_path = os.path.join(tree.path, "stdout.txt")
    err_path = os.path.join(tree.path, "stderr.txt")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        started_at = time.time()
        clock = time.perf_counter()
        proc = subprocess.Popen(
            argv, cwd=tree.path, env=env, stdout=out, stderr=err,
            stdin=subprocess.DEVNULL, start_new_session=True,
        )
        expired = threading.Event()

        def expire() -> None:
            expired.set()
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass

        timer = threading.Timer(timeout, expire)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            # Interrupted (e.g. SIGTERM turned into SystemExit): take the
            # program down with us rather than leave it running.
            expire()
            os.waitpid(proc.pid, 0)
            _stop_group(proc.pid)
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - clock
        proc.returncode = os.waitstatus_to_exitcode(status)
    _stop_group(proc.pid)
    with open(out_path, encoding="utf-8", errors="replace") as handle:
        stdout = handle.read()
    with open(err_path, encoding="utf-8", errors="replace") as handle:
        stderr = handle.read()
    return Launch(
        returncode=proc.returncode,
        started_at=started_at,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
        stdout=stdout,
        stderr=stderr,
        timed_out=expired.is_set(),
    )


def repro_argv(*args) -> list:
    """``python -m repro <args>`` with the benchmark's own interpreter."""
    return [sys.executable, "-m", "repro", *args]


def dir_usage(path: str) -> tuple[int, int]:
    """``(files, bytes)`` under ``path`` (0, 0 when it does not exist)."""
    files = size = 0
    for root, _, names in os.walk(path):
        for name in names:
            try:
                size += os.path.getsize(os.path.join(root, name))
            except OSError:
                continue
            files += 1
    return files, size
