"""Per-layer metrics: traced spans, profile buckets and program counters.

``load_traces`` reads the per-process files the tracer wrote;
``span_metrics`` and ``profile_metrics`` fold them into the per-layer
metric values; ``counter_metrics`` reads the one-line cache, checkpoint
and early-verdict summaries the CLI prints on stderr.
"""

from __future__ import annotations

import glob
import json
import os
import re

#: Profile buckets reported as shares of profiled compute time.
PROFILE_BUCKETS = (
    "sim.scheduler", "sim.sync", "sim.env", "sim.other", "injection",
    "systems", "logs", "core", "analysis", "cache", "obs", "baselines",
    "bench", "failures", "cli", "builtins.pickle", "builtins.os",
    "builtins.other", "stdlib",
)


def load_traces(out_dir: str) -> list[dict]:
    traces = []
    for path in sorted(glob.glob(os.path.join(out_dir, "trace.*.json"))):
        try:
            with open(path, encoding="utf-8") as handle:
                traces.append(json.load(handle))
        except (OSError, ValueError):
            continue
    return traces


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the part its same-process children cover.

    Children recorded by another process (a forked holder or grandchild)
    ran concurrently and are not subtracted.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for _, start, end, parent, ident, *_ in spans:
        if parent and (parent >> 32) == (ident >> 32):
            children.setdefault(parent, []).append((start, end))
    result = {}
    for _, start, end, _, ident, *_ in spans:
        covered = 0.0
        cursor = start
        for child_start, child_end in sorted(children.get(ident, ())):
            lo, hi = max(child_start, cursor), min(child_end, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result[ident] = max(end - start - covered, 0.0)
    return result


def span_metrics(traces) -> dict[str, float]:
    totals: dict[str, float] = {}
    counts: dict[str, int] = {}
    selfs: dict[str, float] = {}
    virtual = 0.0
    requests = 0
    for trace in traces:
        spans = trace.get("spans", [])
        own = self_times(spans)
        for record in spans:
            name, start, end, ident = record[0], record[1], record[2], record[4]
            totals[name] = totals.get(name, 0.0) + (end - start)
            counts[name] = counts.get(name, 0) + 1
            selfs[name] = selfs.get(name, 0.0) + own[ident]
            if name == "sim.run" and len(record) >= 7:
                virtual += record[5]
                requests += record[6]

    def total(*names):
        return sum(totals.get(n, 0.0) for n in names)

    sim_seconds = total("sim.run")
    return {
        "analysis.seconds": total("analysis.analyze_package", "analysis.causal_build"),
        "analysis.calls": counts.get("analysis.analyze_package", 0)
        + counts.get("analysis.causal_build", 0),
        "analysis.flow_seconds": total("analysis.flow"),
        "failures.log_seconds": total("failures.failure_log"),
        "explorer.prepare_seconds": selfs.get("explorer.prepare", 0.0),
        "priority.seconds": total(
            "priority.window", "priority.mark_tried", "priority.rank_of_site"
        ),
        "feedback.seconds": total("feedback.apply"),
        "logs.diff_seconds": total("logs.diff"),
        "baselines.seconds": selfs.get("baselines.run", 0.0),
        "sim.runs": counts.get("sim.run", 0),
        "sim.seconds": sim_seconds,
        "sim.virtual_s": virtual,
        "sim.runs_per_s": counts.get("sim.run", 0) / sim_seconds if sim_seconds else 0.0,
        "fir.requests": requests,
        "cache.overhead_s": selfs.get("cache.execute", 0.0),
        "checkpoint.open_s": total("checkpoint.open"),
        "checkpoint.fork_s": total("checkpoint.fork"),
        "obs.emit_s": total("obs.emit"),
    }


def profile_metrics(traces) -> dict[str, float]:
    """Self-time shares per package over all profiled processes.

    Blocking built-ins (lock waits, pipe reads, ``waitpid``) are left out
    of the shares and reported as ``profile.wait_s``; the tracer's own
    frames are left out altogether.
    """
    buckets: dict[str, float] = {}
    for trace in traces:
        for key, seconds in trace.get("profile", {}).items():
            buckets[key] = buckets.get(key, 0.0) + seconds
    compute = sum(buckets.get(key, 0.0) for key in PROFILE_BUCKETS)
    metrics = {
        f"profile.{key}": (buckets.get(key, 0.0) / compute if compute else 0.0)
        for key in PROFILE_BUCKETS
    }
    metrics["profile.compute_s"] = compute
    metrics["profile.wait_s"] = buckets.get("wait", 0.0)
    return metrics


_COUNTER_LINES = {
    "cache": re.compile(
        r"\[cache: (\d+) hit\(s\), (\d+) alias\(es\), (\d+) miss\(es\)"
    ),
    "checkpoint": re.compile(
        r"\[checkpoint: (\d+) snapshot\(s\), (\d+) fork\(s\), "
        r"(\d+) fallback\(s\), (\d+) prefix request\(s\) skipped\]"
    ),
    "verdict": re.compile(
        r"\[early-verdict: (\d+) cutoff\(s\), [0-9.e+-]+ virtual second\(s\) "
        r"and (\d+) event\(s\) saved\]"
    ),
    "inline": re.compile(r"\[campaign: (\d+) cell\(s\) re-run inline"),
}


def counter_metrics(stderr: str) -> dict[str, float]:
    """Counters from the summary lines the CLI prints (0 when silent)."""
    found = {
        key: [int(g) for g in match.groups()] if match else None
        for key, pattern in _COUNTER_LINES.items()
        for match in [pattern.search(stderr)]
    }
    hits, aliases, misses = found["cache"] or (0, 0, 0)
    opens, forks, fallbacks, saved = found["checkpoint"] or (0, 0, 0, 0)
    cutoffs, events_saved = found["verdict"] or (0, 0)
    (inline,) = found["inline"] or (0,)
    return {
        "cache.hits": hits,
        "cache.alias_hits": aliases,
        "cache.misses": misses,
        "checkpoint.opens": opens,
        "checkpoint.forks": forks,
        "checkpoint.fallbacks": fallbacks,
        "checkpoint.requests_saved": saved,
        "verdict.cutoffs": cutoffs,
        "verdict.events_saved": events_saved,
        "parallel.inline_fallbacks": inline,
    }


def add_counters(total: dict, *more: dict) -> dict:
    for counters in more:
        for key, value in counters.items():
            total[key] = total.get(key, 0) + value
    return total


def derived_counter_metrics(counters: dict) -> dict[str, float]:
    served = counters.get("cache.hits", 0) + counters.get("cache.alias_hits", 0)
    lookups = served + counters.get("cache.misses", 0)
    forks = counters.get("checkpoint.forks", 0)
    attempts = forks + counters.get("checkpoint.fallbacks", 0)
    return {
        "cache.hit_rate": served / lookups if lookups else 0.0,
        "checkpoint.fork_ratio": forks / attempts if attempts else 0.0,
    }
