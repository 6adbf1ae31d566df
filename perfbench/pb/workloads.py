"""The three workloads: what is launched, how it is checked and measured.

* ``campaign``: ``repro compare <cases> --jobs 1``, cold.
* ``reproduce``: one ``repro reproduce <case>`` per catalog case, each
  in its own interpreter, cold.
* ``rerun``: ``repro compare <cases> --jobs <nproc>`` against the run
  cache and flow cache that a cold compare of the same cases left
  behind.

Every program launch is an operation the output check covers: a
``compare`` cell, or a ``reproduce`` invocation.
"""

from __future__ import annotations

import dataclasses
import json
import os
import random
import shutil
import time

from . import check, layers
from .events import cell_seconds, first_round_begin, read_events, rounds_by_run, searched
from .program import WorkTree, dir_usage, host_cpus, launch, repro_argv
from .stats import median, tail

#: Cheapest catalog cases, listed first in a campaign; a two-case
#: ``compare`` of them, whose first cells are the campaign's first cells,
#: is the set-up probe.
HEAD = ("f3", "f10")
#: The rest of the campaign.  With HEAD: 100 cells and 937 committed
#: rounds, 4-8 s a pass at jobs 1 on 2 CPUs, so three to six passes fit
#: in a run.  f3 and f10 finish most rounds from the cache in ~0.1 ms,
#: while the long searches of f2 (310 rounds) and f5 (236) run full
#: simulations in a narrow 5.5-10 ms band, so most of a pass's round
#: time is simulator work.  f17, the one long search, stays in
#: ``reproduce``; f26 (31 cell-seconds) and f12 (27) alone would fill
#: a run.
REST = ("f2", "f5", "f13", "f14", "f15", "f19", "f21", "f22")
#: ``--jobs`` of a ``campaign`` launch.  At the host's CPU count (2) the
#: pool workers race on the shared cache and on fork calibration, so the
#: work itself changed from pass to pass (on 12 cases: 332-351 cache
#: hits, per-pass round median 4.0-5.5 ms); at jobs 1 the hits repeat.
#: ``rerun`` keeps jobs = nproc, so the pool fan-out is still measured.
CAMPAIGN_JOBS = 1
#: Set-up probes per campaign/rerun run (each adds one ``setup_s`` sample).
PROBES = 2
#: Wall-clock budget ``compare`` gives every cell (``max_seconds``).
CELL_BUDGET_S = 60.0
#: Round latency is taken over cells and launches that searched, i.e.
#: ran at least this many rounds.  26 of the 27 ``reproduce`` launches
#: finish in 1-3 rounds (their cost is in ``case_*``); pooling their 43
#: rounds with f17's 84 put the median at the fast edge of f17's rounds,
#: where a brief host speed-up moved it by a quarter.
SEARCH_MIN_ROUNDS = 4


@dataclasses.dataclass
class Op:
    """One measured program launch plus what its outputs showed.

    Only figures are kept, never the event stream or the ledger: a child's
    ``ru_maxrss`` includes the memory of the benchmark process it was
    forked from, so the benchmark must stay smaller than the program.
    """

    launch: object
    round_runs: list       # round durations, one list per (case, strategy)
    cell_seconds: list     # ``case.done`` seconds of each finished cell
    setup_s: float | None
    cases: int = 0
    event_count: int = 0
    events_bytes: int = 0
    ledger_entries: int = 0
    ledger_rounds: int = 0


class BenchRun:
    """State of one benchmark run: work trees, references, failure tally."""

    def __init__(self, checkout: str, work_root: str, seconds: float,
                 deadline: float, reference_dir: str):
        self.checkout = checkout
        self.work_root = work_root
        self.seconds = seconds
        self.deadline = deadline
        self.jobs = host_cpus()
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        with open(os.path.join(reference_dir, "compare_cells.json")) as handle:
            self.compare_reference = json.load(handle)
        with open(os.path.join(reference_dir, "reproduce.json")) as handle:
            self.reproduce_reference = json.load(handle)
        signatures = os.path.join(
            checkout, "benchmarks", "baselines", "signature_baselines.json"
        )
        try:
            with open(signatures) as handle:
                self.signatures = json.load(handle)
        except FileNotFoundError:
            self.signatures = {}
        self._trees = 0

    # ------------------------------------------------------------ plumbing

    def tree(self) -> WorkTree:
        self._trees += 1
        return WorkTree(self.checkout, os.path.join(self.work_root, f"t{self._trees}"))

    def timeout(self) -> float:
        return max(1.0, self.deadline - time.monotonic())

    def record(self, attempted: int, failed: int, problems) -> None:
        self.attempted += attempted
        self.failed += failed
        self.problems.extend(problems)

    def loop(self, operation) -> list:
        """Repeat ``operation`` while another one fits in ``seconds``."""
        results = []
        started = time.perf_counter()
        while True:
            op_started = time.perf_counter()
            results.append(operation())
            now = time.perf_counter()
            if now - started + (now - op_started) > self.seconds:
                return results
            if time.monotonic() + (now - op_started) > self.deadline:
                return results

    # --------------------------------------------------------- operations

    def compare(self, tree: WorkTree, cases, cold: bool, jobs: int,
                prefix=None) -> Op:
        """One ``compare`` launch, checked cell by cell."""
        if cold:
            tree.reset_state()
        argv = (prefix or repro_argv()) + [
            "compare", ",".join(cases), "--jobs", str(jobs)
        ]
        run = launch(argv, tree, self.timeout())
        events = read_events(tree.events_path)
        ledger = _pop_ledger(tree)
        columns = len(next(iter(self.compare_reference.values())))
        cells = len(cases) * columns
        if run.returncode != 0:
            problems = [f"compare {','.join(cases)}: exit {run.returncode}"
                        + (" (timed out)" if run.timed_out else "")]
            failed = cells
        else:
            table = check.parse_compare_table(run.stdout)
            bad = check.check_compare(table, self.compare_reference, cases)
            for entry in ledger:
                if float(entry.get("seconds", 0.0)) > CELL_BUDGET_S:
                    key = (entry.get("case_id"), entry.get("strategy"))
                    bad.setdefault(key, f"{key[0]}/{key[1]}: stopped by the "
                                        f"{CELL_BUDGET_S:g}s cell budget")
            problems = list(bad.values())
            inline = layers.counter_metrics(run.stderr)["parallel.inline_fallbacks"]
            if inline:
                problems.append(f"{inline} cell(s) re-run inline")
            failed = min(cells, len(bad) + inline)
        self.record(cells, failed, problems)
        return _op(run, events, ledger, tree, cases=len(cases))

    def reproduce(self, tree: WorkTree, case_id: str, prefix=None) -> Op:
        """One cold ``reproduce`` launch, checked against the references."""
        tree.reset_state()
        run = launch((prefix or repro_argv()) + ["reproduce", case_id], tree,
                     self.timeout())
        events = read_events(tree.events_path)
        ledger = _pop_ledger(tree)
        if run.returncode != 0:
            problems = [f"reproduce {case_id}: exit {run.returncode}"
                        + (" (timed out)" if run.timed_out else "")]
        else:
            problems = check.check_reproduce(
                case_id, run.stdout, self.reproduce_reference, self.signatures
            )
        self.record(1, 1 if problems else 0, problems)
        return _op(run, events, ledger, tree, cases=1)


def _op(run, events, ledger, tree: WorkTree, cases: int) -> Op:
    first = first_round_begin(events)
    return Op(
        run, rounds_by_run(events), cell_seconds(events),
        None if first is None else first - run.started_at,
        cases=cases, event_count=len(events),
        events_bytes=_size(tree.events_path), ledger_entries=len(ledger),
        ledger_rounds=sum(int(e.get("rounds", 0)) for e in ledger),
    )


def _pop_ledger(tree: WorkTree) -> list[dict]:
    """The ledger entries of the last launch (the file is then removed)."""
    entries = []
    try:
        with open(tree.ledger_path, encoding="utf-8") as handle:
            for line in handle:
                try:
                    entries.append(json.loads(line))
                except ValueError:
                    continue
        os.remove(tree.ledger_path)
    except FileNotFoundError:
        pass
    return entries


def _size(path: str) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


# ------------------------------------------------------------------ inputs


def catalog() -> list[str]:
    return [f"f{n}" for n in range(1, 28)]


def campaign_cases() -> list[str]:
    """HEAD first, then the rest of the campaign in catalog order.

    The order is not drawn from the seed: on ``rerun`` it decides how
    cells pack onto the worker pool, and so the wall time.
    """
    return list(HEAD) + list(REST)


def reproduce_cases(seed: int) -> list[str]:
    cases = catalog()
    random.Random(seed).shuffle(cases)
    return cases


# ------------------------------------------------------------ end to end


def end_to_end(passes, setups) -> tuple[dict, dict]:
    """End-to-end metrics from measured passes, plus how they were taken.

    A pass is a list of ops that together make one run of the workload
    (one ``compare``, or a whole ``reproduce`` sweep).  Each metric is
    taken per pass and the median over passes reported, so a tail
    percentile always rests on one pass's sample count.
    """
    per_pass = [_pass_metrics(ops) for ops in passes]
    metrics = {
        key: median([m[key] for m, _ in per_pass]) for key in per_pass[0][0]
    }
    setups = [s for s in setups if s is not None]
    metrics["setup_s"] = median(setups) if setups else 0.0
    metrics["peak_rss_mb"] = max(
        op.launch.peak_rss_mb for ops in passes for op in ops
    )
    how = dict(per_pass[0][1], passes=len(passes), setup_samples=len(setups))
    return metrics, how


def _pass_metrics(ops) -> tuple[dict, dict]:
    rounds = [d for op in ops for d in searched(op.round_runs, SEARCH_MIN_ROUNDS)]
    if all(op.cases == 1 for op in ops):
        cases = [op.launch.wall_s for op in ops]
    else:
        cases = [s for op in ops for s in op.cell_seconds]
    round_tail, round_q, round_n = tail(rounds) if rounds else (0.0, 0, 0)
    case_tail, case_q, case_n = tail(cases) if cases else (0.0, 0, 0)
    # Round latency is a mean, not a median: on ``rerun`` a round is
    # served from a worker's memory tier or from disk, depending on
    # which worker ran the cell, and the median jumped between the two
    # modes from pass to pass (0.24 spread over eight runs; the mean 0.04).
    metrics = {
        "wall_s": sum(op.launch.wall_s for op in ops),
        "cpu_s": sum(op.launch.cpu_s for op in ops),
        "round_mean_s": sum(rounds) / len(rounds) if rounds else 0.0,
        "round_tail_s": round_tail,
        "case_p50_s": median(cases) if cases else 0.0,
        "case_tail_s": case_tail,
    }
    how = {
        "round_samples": round_n,
        "round_tail_percentile": round_q,
        "case_samples": case_n,
        "case_tail_percentile": case_q,
        "rounds_committed": sum(op.ledger_rounds for op in ops),
        "counters": layers.add_counters(
            {}, *[layers.counter_metrics(op.launch.stderr) for op in ops]
        ),
    }
    return metrics, how


def campaign(bench: BenchRun, seed: int):
    cases, jobs = campaign_cases(), CAMPAIGN_JOBS
    tree = bench.tree()
    setups = [bench.compare(tree, HEAD, True, jobs).setup_s for _ in range(PROBES)]
    mains = bench.loop(lambda: bench.compare(tree, cases, True, jobs))
    setups += [op.setup_s for op in mains]
    metrics, how = end_to_end([[op] for op in mains], setups)
    return metrics, dict(how, jobs=jobs)


def reproduce(bench: BenchRun, seed: int):
    cases = reproduce_cases(seed)
    tree = bench.tree()
    sweeps = bench.loop(lambda: [bench.reproduce(tree, c) for c in cases])
    metrics, how = end_to_end(sweeps, [op.setup_s for ops in sweeps for op in ops])
    metrics["round_mean_s"] = median([_mean_launch_median(ops) for ops in sweeps])
    return metrics, how


def _mean_launch_median(ops) -> float:
    """Each launch's median round, averaged over the launches.

    Only f17 searches in a sweep, so any figure over the searching
    rounds rests on one ~6 s window, and the host's speed changes within
    seconds: f17's 84 nearly equal rounds read 37-67 ms from one launch
    to the next.  Their median spread by 0.14-0.47 over ten runs, their
    mean by 0.27 over five.  The average over all 27 launches samples
    the host across the whole sweep.
    """
    medians = [median(r) for r in (searched(op.round_runs, 1) for op in ops) if r]
    return sum(medians) / len(medians)


def rerun(bench: BenchRun, seed: int):
    cases, jobs = campaign_cases(), bench.jobs
    tree = bench.tree()
    bench.compare(tree, cases, True, jobs)          # fills the caches
    setups = [bench.compare(tree, HEAD, False, jobs).setup_s for _ in range(PROBES)]
    mains = bench.loop(lambda: bench.compare(tree, cases, False, jobs))
    setups += [op.setup_s for op in mains]
    metrics, how = end_to_end([[op] for op in mains], setups)
    return metrics, dict(how, jobs=jobs)


WORKLOADS = {"campaign": campaign, "reproduce": reproduce, "rerun": rerun}


# ----------------------------------------------------------------- traced


def traced(bench: BenchRun, workload: str, seed: int, tracer_script: str):
    """Per-layer metrics: one untraced and one traced pass of the workload.

    End-to-end figures are never taken from the traced pass; its wall
    time only gives ``trace.overhead_s`` against the untraced one.
    """
    tree = bench.tree()
    trace_root = os.path.join(tree.path, "trace")

    def prefix(label: str) -> list:
        out = os.path.join(trace_root, label)
        return [repro_argv()[0], tracer_script, out]

    if workload == "reproduce":
        cases = reproduce_cases(seed)
        plain = [bench.reproduce(tree, c) for c in cases]
        ops, disk = [], (0, 0)
        for case_id in cases:
            ops.append(bench.reproduce(tree, case_id, prefix=prefix(case_id)))
            disk = tuple(a + b for a, b in zip(disk, dir_usage(tree.runcache_dir)))
        traced_wall = sum(op.launch.wall_s for op in ops)
        plain_wall = sum(op.launch.wall_s for op in plain)
        parallel = {"parallel.busy_share": 0.0, "parallel.max_cell_s": 0.0,
                    "parallel.budget_headroom": 0.0}
    else:
        cases = campaign_cases()
        cold = workload == "campaign"
        jobs = CAMPAIGN_JOBS if cold else bench.jobs
        if not cold:
            bench.compare(tree, cases, True, jobs)
        plain_op = bench.compare(tree, cases, cold, jobs)
        op = bench.compare(tree, cases, cold, jobs, prefix=prefix("run"))
        ops = [op]
        disk = dir_usage(tree.runcache_dir)
        traced_wall, plain_wall = op.launch.wall_s, plain_op.launch.wall_s
        cells = plain_op.cell_seconds or [0.0]
        parallel = {
            "parallel.busy_share": sum(cells) / (plain_wall * jobs),
            "parallel.max_cell_s": max(cells),
            "parallel.budget_headroom": CELL_BUDGET_S - max(cells),
        }
    traces = []
    for label in sorted(os.listdir(trace_root)) if os.path.isdir(trace_root) else []:
        traces += layers.load_traces(os.path.join(trace_root, label))
    counters = layers.add_counters(
        {}, *[layers.counter_metrics(op.launch.stderr) for op in ops]
    )
    metrics = {}
    metrics.update(layers.span_metrics(traces))
    metrics.update(layers.profile_metrics(traces))
    metrics.update(counters)
    metrics.update(layers.derived_counter_metrics(counters))
    metrics.update(parallel)
    metrics["cache.entries"] = disk[0]
    metrics["cache.disk_mb"] = disk[1] / 1e6
    metrics["obs.events"] = sum(op.event_count for op in ops)
    metrics["obs.event_mb"] = sum(op.events_bytes for op in ops) / 1e6
    metrics["obs.ledger_entries"] = sum(op.ledger_entries for op in ops)
    metrics["trace.overhead_s"] = traced_wall - plain_wall
    how = {"traced_wall_s": traced_wall, "untraced_wall_s": plain_wall,
           "processes_traced": len(traces)}
    shutil.rmtree(trace_root, ignore_errors=True)
    return metrics, how

