from pb.layers import counter_metrics, derived_counter_metrics, self_times
from pb.tracer import bucket

PID = 7 << 32


def test_self_time_subtracts_same_process_children():
    spans = [
        ["parent", 0.0, 10.0, 0, PID | 1],
        ["child", 1.0, 3.0, PID | 1, PID | 2],
        ["child", 5.0, 6.0, PID | 1, PID | 3],
        # a child recorded by another process is not subtracted
        ["forked", 2.0, 9.0, PID | 1, (8 << 32) | 1],
    ]
    own = self_times(spans)
    assert own[PID | 1] == 7.0
    assert own[PID | 2] == 2.0


def test_counter_lines():
    stderr = (
        "[cache: 10 hit(s), 2 alias(es), 8 miss(es), hit rate 60.0%]\n"
        "[checkpoint: 3 snapshot(s), 6 fork(s), 2 fallback(s), 900 prefix request(s) skipped]\n"
        "[early-verdict: 4 cutoff(s), 1.5 virtual second(s) and 77 event(s) saved]\n"
    )
    counters = counter_metrics(stderr)
    assert counters["cache.hits"] == 10
    assert counters["checkpoint.forks"] == 6
    assert counters["verdict.events_saved"] == 77
    assert counters["parallel.inline_fallbacks"] == 0
    derived = derived_counter_metrics(counters)
    assert derived["cache.hit_rate"] == 0.6
    assert derived["checkpoint.fork_ratio"] == 0.75
    assert counter_metrics("")["cache.misses"] == 0


def test_profile_buckets():
    assert bucket("/x/src/repro/sim/scheduler.py", "run") == "sim.scheduler"
    assert bucket("/x/src/repro/sim/cluster.py", "run") == "sim.other"
    assert bucket("/x/src/repro/systems/minizk/node.py", "f") == "systems"
    assert bucket("/x/src/repro/__main__.py", "main") == "cli"
    assert bucket("/usr/lib/python3.11/pickle.py", "dump") == "stdlib"
    assert bucket("~", "<built-in method posix.read>") == "wait"
    assert bucket("~", "<built-in method _pickle.loads>") == "builtins.pickle"
    assert bucket("~", "<built-in method posix.fork>") == "builtins.os"
    assert bucket("~", "<built-in method builtins.len>") == "builtins.other"
