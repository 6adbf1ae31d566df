"""Reading the program's JSONL event stream.

The program writes one JSON object per line and flushes after each, so
a stream read while (or after) a process died can end in a torn line;
such lines, and any other line that is not a JSON object, are skipped.
"""

from __future__ import annotations

import json


def read_events(path: str) -> list[dict]:
    try:
        with open(path, encoding="utf-8") as handle:
            lines = handle.readlines()
    except FileNotFoundError:
        return []
    events = []
    for line in lines:
        try:
            event = json.loads(line)
        except ValueError:
            continue
        if isinstance(event, dict) and isinstance(event.get("t"), (int, float)):
            events.append(event)
    return events


def first_round_begin(events) -> float | None:
    """Timestamp of the earliest ``round.begin`` event, if any."""
    times = [e["t"] for e in events if e.get("type") == "round.begin"]
    return min(times) if times else None


def rounds_by_run(events) -> list[list[float]]:
    """Seconds from each ``round.begin`` to its matching ``round.end``,
    one list per (case, strategy).

    Rounds are keyed by (case, strategy, round number); a round that
    began but never ended (a budget stop, a killed run) is dropped.
    """
    begins: dict[tuple, float] = {}
    by_run: dict[tuple, list[float]] = {}
    for event in events:
        kind = event.get("type")
        if kind not in ("round.begin", "round.end"):
            continue
        run = (event.get("case_id"), event.get("strategy"))
        key = (*run, event.get("round"))
        if kind == "round.begin":
            begins[key] = event["t"]
        elif key in begins:
            by_run.setdefault(run, []).append(event["t"] - begins.pop(key))
    return list(by_run.values())


def searched(runs, min_rounds: int) -> list[float]:
    """The durations of the runs (lists of rounds) that reach ``min_rounds``."""
    return [d for ds in runs if len(ds) >= min_rounds for d in ds]


def cell_seconds(events) -> list[float]:
    """In-process seconds of every finished campaign cell (``case.done``)."""
    return [
        float(e["seconds"])
        for e in events
        if e.get("type") == "case.done" and "seconds" in e
    ]
