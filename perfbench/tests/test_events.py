import json

from pb.events import cell_seconds, first_round_begin, read_events, rounds_by_run, searched


def _write(path, events, torn=None):
    with open(path, "w") as handle:
        for event in events:
            handle.write(json.dumps(event) + "\n")
        if torn is not None:
            handle.write(torn)


def test_torn_last_line_is_skipped(tmp_path):
    path = tmp_path / "events.jsonl"
    events = [
        {"t": 10.0, "type": "round.begin", "case_id": "f1", "strategy": "a", "round": 1},
        {"t": 10.5, "type": "round.end", "case_id": "f1", "strategy": "a", "round": 1},
    ]
    _write(path, events, torn='{"t": 11.0, "type": "round.beg')
    assert read_events(str(path)) == events


def test_missing_stream_reads_empty(tmp_path):
    assert read_events(str(tmp_path / "absent.jsonl")) == []


def test_rounds_pair_by_case_strategy_round():
    events = [
        {"t": 1.0, "type": "round.begin", "case_id": "f1", "strategy": "a", "round": 1},
        {"t": 1.2, "type": "round.begin", "case_id": "f2", "strategy": "a", "round": 1},
        {"t": 1.5, "type": "round.end", "case_id": "f1", "strategy": "a", "round": 1},
        {"t": 2.2, "type": "round.end", "case_id": "f2", "strategy": "a", "round": 1},
        # began, never ended (budget stop): dropped
        {"t": 3.0, "type": "round.begin", "case_id": "f3", "strategy": "a", "round": 1},
    ]
    assert [[round(d, 6) for d in run] for run in rounds_by_run(events)] == [[0.5], [1.0]]
    assert first_round_begin(events) == 1.0
    assert first_round_begin([]) is None


def test_searched_keeps_only_searching_runs():
    events = []
    for n in range(1, 5):  # f1/a searched for four rounds
        events += [
            {"t": float(n), "type": "round.begin", "case_id": "f1", "strategy": "a", "round": n},
            {"t": n + 0.5, "type": "round.end", "case_id": "f1", "strategy": "a", "round": n},
        ]
    events += [  # f2/a reproduced in one
        {"t": 9.0, "type": "round.begin", "case_id": "f2", "strategy": "a", "round": 1},
        {"t": 9.1, "type": "round.end", "case_id": "f2", "strategy": "a", "round": 1},
    ]
    runs = rounds_by_run(events)
    assert len(searched(runs, 1)) == 5
    assert searched(runs, 4) == [0.5] * 4


def test_cell_seconds_from_case_done():
    events = [{"t": 1.0, "type": "case.done", "seconds": 0.25},
              {"t": 2.0, "type": "case.start"}]
    assert cell_seconds(events) == [0.25]
