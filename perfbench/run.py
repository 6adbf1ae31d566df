"""Benchmark of record: the ``repro`` CLI run the way a user runs it.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload campaign|reproduce|rerun \\
        --seed N --seconds S --trace 0|1

Each run copies ``src/`` into a fresh work tree under
``.perfbench_work/`` (cold caches, ledger and event stream, nothing of
the checkout's ``benchmarks/out`` touched), launches the program one
process at a time, checks every output against the references in
``perfbench/reference/``, and prints one JSON object as its last line:
the end-to-end metrics of ``BENCHMARK.json`` with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  A full record of the run,
including the environment it saw, goes to ``.perfbench_out/``.

Exit status: 0 when every output matched, 1 when any did not, 2 when
the checkout has no program to run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from pb import workloads  # noqa: E402
from pb.program import host_cpus  # noqa: E402
from pb.stats import valid_name, valid_unit  # noqa: E402

#: A run must end well inside the 180 s a run is allowed.
RUN_DEADLINE_S = 170.0


def load_spec(checkout: str) -> dict:
    with open(os.path.join(checkout, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    for key in ("end_to_end", "per_layer"):
        for entry in spec[key]:
            if not valid_name(entry["name"]) or not valid_unit(entry["unit"]):
                raise ValueError(f"bad metric {entry!r} in BENCHMARK.json")
    return spec


def source_identity(checkout: str) -> dict:
    """Digest of ``src/`` plus, when the checkout is a git clone, its SHA."""
    digest = hashlib.sha256()
    src = os.path.join(checkout, "src")
    for root, dirs, files in os.walk(src):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".pyc"):
                continue
            path = os.path.join(root, name)
            digest.update(os.path.relpath(path, src).encode() + b"\0")
            with open(path, "rb") as handle:
                digest.update(handle.read())
    identity = {"src_sha256": digest.hexdigest()[:16], "git_sha": None,
                "git_dirty": None}
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=checkout,
                             capture_output=True, text=True, timeout=10)
        if sha.returncode == 0:
            status = subprocess.run(
                ["git", "status", "--porcelain", "--", "src"], cwd=checkout,
                capture_output=True, text=True, timeout=10,
            )
            identity["git_sha"] = sha.stdout.strip()
            identity["git_dirty"] = bool(status.stdout.strip())
    except (OSError, subprocess.SubprocessError):
        pass
    return identity


def environment(checkout: str) -> dict:
    return {
        "nproc": host_cpus(),
        "python": platform.python_version(),
        "PYTHONDONTWRITEBYTECODE (host)": os.environ.get("PYTHONDONTWRITEBYTECODE"),
        "PYTHONDONTWRITEBYTECODE (program)": "1",
        **source_identity(checkout),
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    started = time.monotonic()
    # A stop request unwinds normally, so launched programs are killed
    # and the work tree is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    checkout = os.getcwd()
    if not os.path.isdir(os.path.join(checkout, "src", "repro")):
        print("error: no src/repro in the current directory; run from the "
              "root of a checkout", file=sys.stderr)
        return 2
    spec = load_spec(checkout)
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    env = environment(checkout)
    print(json.dumps({"environment": env}), file=sys.stderr)
    work_root = os.path.join(checkout, ".perfbench_work", f"run-{os.getpid()}")
    bench = workloads.BenchRun(
        checkout, work_root, args.seconds, started + RUN_DEADLINE_S,
        os.path.join(HERE, "reference"),
    )
    try:
        if args.trace:
            values, how = workloads.traced(
                bench, args.workload, args.seed,
                os.path.join(HERE, "traced.py"),
            )
        else:
            values, how = workloads.WORKLOADS[args.workload](bench, args.seed)
    finally:
        shutil.rmtree(work_root, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work_root))
        except OSError:
            pass
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise KeyError(f"metrics not measured: {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    correct = bench.failed == 0 and not bench.problems
    result = {"correct": correct, "attempted": bench.attempted,
              "failed": bench.failed, "metrics": metrics}
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "environment": env, "how": how, "problems": bench.problems,
              # A launched child's ru_maxrss counts the memory of the
              # process it was forked from: this must stay below peak_rss_mb.
              "benchmark_peak_rss_mb":
                  resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
              "elapsed_s": time.monotonic() - started, **result}
    out_dir = os.path.join(checkout, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    record_path = os.path.join(
        out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    )
    with open(record_path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=2)
    for problem in bench.problems[:20]:
        print(f"mismatch: {problem}", file=sys.stderr)
    print(json.dumps({"how": how}), file=sys.stderr)
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
