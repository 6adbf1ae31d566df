"""Property test: the ready deque keeps the heap-only dispatch order.

The scheduler sends entries due at ``now`` to a FIFO deque instead of the
heap (DESIGN.md §4).  This is only sound if every run dispatches exactly
what a heap ordered by ``(when, seq)`` would.  ``HeapOnlySimulator``
below is that reference: it overrides the three methods that touch the
deque with the heap-only loop the deque replaced.  Hypothesis drives both
through random scripts of timers, wakeups, cancellations, condition
waits with timeouts, sleeps and a monitor that stops the run in the
middle of a time step, and the two must agree on the dispatch sequence,
``events_executed`` and the pending set.
"""

import heapq

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.scheduler import _RESUME, Simulator, Sleep
from repro.sim.sync import Condition


class HeapOnlySimulator(Simulator):
    """Reference: every entry goes through the heap, as before the deque."""

    def _schedule(self, when, fn, task, value, exc):
        if when < self.now:
            when = self.now
        self._seq += 1
        entry = [when, self._seq, fn, task, value, exc]
        heapq.heappush(self._heap, entry)
        return entry

    def _wake(self, task, value=None, exc=None):
        self._schedule(self.now, _RESUME, task, value, exc)

    def run(self, until, monitor=None):
        heap = self._heap
        while heap:
            when = heap[0][0]
            if when > until:
                break
            entry = heapq.heappop(heap)
            if when > self.now:
                self.now = when
            self.events_executed += 1
            fn = entry[2]
            if fn is None:
                continue
            if fn is _RESUME:
                self._resume(entry[3], value=entry[4], exc=entry[5])
            else:
                fn()
            if monitor is not None and monitor.should_stop():
                return True
        self.now = max(self.now, until)
        return False


class Park:
    """Effect: block until someone resumes the task explicitly."""

    def subscribe(self, sim, task):
        pass


class StopAfter:
    """Monitor stub: stop after ``limit`` polls (one per live dispatch)."""

    def __init__(self, limit):
        self.limit = limit
        self.polls = 0

    def should_stop(self):
        self.polls += 1
        return self.polls >= self.limit


#: ``1e-18`` collapses onto ``now`` once ``now`` is 1.0 or more (``now +
#: tiny == now``), and onto a distinct future time at ``now == 0``.
DELAYS = [0.0, 0.0, 0.25, 1.0, -1.0, 1e-18, 2.5]
OPS = ["call", "call_soon", "resume", "resume_soon", "cancel", "sleep",
       "wait", "notify", "notify_all"]

op_strategy = st.tuples(
    st.sampled_from(OPS), st.sampled_from(DELAYS), st.integers(0, 40)
)


def execute(sim_class, script, stop_after, until):
    """Interpret ``script`` on a fresh simulator; return what it did."""
    sim = sim_class(seed=0)
    cond = Condition(sim, "cond")
    dispatched = []
    cancellers = []
    cursor = [0]
    tasks = []

    def next_op():
        if cursor[0] >= len(script):
            return None
        op = script[cursor[0]]
        cursor[0] += 1
        return op

    def perform(op):
        """Run one scheduling op; return an effect for task-only ops."""
        kind, delay, target = op
        label = cursor[0]
        when = sim.now + delay
        if kind == "call":
            cancellers.append(sim.call_at(when, lambda: callback(label)))
        elif kind == "call_soon":
            cancellers.append(sim.call_soon(lambda: callback(label)))
        elif kind == "resume":
            task = tasks[target % len(tasks)]
            cancellers.append(sim.resume_at(when, task, value=label))
        elif kind == "resume_soon":
            task = tasks[target % len(tasks)]
            cancellers.append(sim.resume_soon(task, value=label))
        elif kind == "cancel":
            if cancellers:
                cancellers[target % len(cancellers)]()
        elif kind == "notify":
            cond.notify()
        elif kind == "notify_all":
            cond.notify_all()
        elif kind == "sleep":
            return Sleep(abs(delay))
        elif kind == "wait":
            return cond.wait(timeout=None if delay == 0.0 else abs(delay))
        return None

    def callback(label):
        dispatched.append(("call", label, sim.now))
        for _ in range(2):
            op = next_op()
            if op is not None:
                perform(op)

    def body(name):
        while True:
            value = yield Park()
            while True:
                dispatched.append((name, value, sim.now))
                op = next_op()
                effect = perform(op) if op is not None else None
                if effect is None:
                    break
                value = yield effect

    for index in range(3):
        tasks.append(sim.spawn(f"t{index}", body(f"t{index}")))
    for _ in range(3):
        op = next_op()
        if op is not None:
            perform(op)

    monitor = StopAfter(stop_after) if stop_after else None
    stopped = sim.run(until, monitor=monitor)
    first = (stopped, sim.events_executed, sim.now,
             sorted(sim.capture()["pending"]), list(dispatched))
    # Resume after a mid-step stop: the rest of the schedule must still
    # come out in heap order.
    sim.run(until + 1.0)
    return first, (sim.events_executed, sim.now,
                   sorted(sim.capture()["pending"]), dispatched)


@settings(max_examples=300, deadline=None)
@given(
    script=st.lists(op_strategy, max_size=80),
    stop_after=st.one_of(st.none(), st.integers(1, 40)),
    until=st.sampled_from([0.0, 1.0, 3.0, 10.0]),
)
def test_ready_deque_matches_heap_only_order(script, stop_after, until):
    assert execute(Simulator, script, stop_after, until) == execute(
        HeapOnlySimulator, script, stop_after, until
    )


def test_entries_due_now_skip_the_heap():
    sim = Simulator(seed=0)
    sim.now = 1.0
    sim.call_soon(lambda: None)
    sim.call_at(0.5, lambda: None)           # past: clamped to now
    sim.call_at(1.0 + 1e-18, lambda: None)   # collapses onto now
    sim.call_at(2.0, lambda: None)
    assert len(sim._ready) == 3 and len(sim._heap) == 1
    assert sim.pending_count == 4
    assert sim.capture()["pending"] == [(1.0, 1), (1.0, 2), (1.0, 3), (2.0, 4)]
