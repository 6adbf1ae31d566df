"""Deterministic discrete-event scheduler with generator-based tasks.

The simulator is the substrate under every mini distributed system.  A
"thread" is a Python generator; it blocks by yielding *effects* (sleeps,
condition waits, queue operations, futures) that the scheduler interprets.
Virtual time only advances when every runnable task has run, so a run is a
pure function of (workload, seed, injection plan) — the determinism that
lets ANDURIL's reproduction scripts replay a failure exactly.

Hang symptoms matter to the paper (stuck WAL rollers, blocked repairs), so
the scheduler records which tasks are still blocked when the run ends and
can capture a virtual stack (the ``yield from`` chain) for each, which
oracles match the way a developer matches a jstack dump.
"""

from __future__ import annotations

import collections
import dataclasses
import enum
import heapq
import random
import traceback
from typing import Any, Callable, Generator, Iterable, Optional

from .errors import InterruptedException

TaskGen = Generator[Any, Any, Any]


class TaskState(enum.Enum):
    READY = "ready"
    RUNNING = "running"
    BLOCKED = "blocked"
    DONE = "done"
    FAILED = "failed"
    KILLED = "killed"


# Module-level aliases: the run loop and ``_step`` test task states on
# every event, and a global read is cheaper than an enum attribute read.
_READY = TaskState.READY
_RUNNING = TaskState.RUNNING
_BLOCKED = TaskState.BLOCKED


@dataclasses.dataclass(frozen=True, slots=True)
class StackFrame:
    """One frame of a task's virtual stack."""

    file: str
    line: int
    function: str

    def __str__(self) -> str:
        return f"{self.function} ({self.file}:{self.line})"


class Sleep:
    """Effect: suspend the task for ``delay`` virtual seconds."""

    __slots__ = ("delay",)

    def __init__(self, delay: float) -> None:
        if delay < 0:
            raise ValueError("sleep delay must be non-negative")
        self.delay = delay

    def subscribe(self, sim: "Simulator", task: "Task") -> None:
        sim._schedule(sim.now + self.delay, _RESUME, task, None, None)


class Task:
    """A named simulated thread wrapping a generator."""

    __slots__ = (
        "name",
        "gen",
        "state",
        "result",
        "error",
        "error_traceback",
        "waiting_on",
        "_cancel_wakeup",
        "_watchers",
    )

    def __init__(self, name: str, gen: TaskGen) -> None:
        self.name = name
        self.gen = gen
        self.state = TaskState.READY
        self.result: Any = None
        self.error: Optional[BaseException] = None
        self.error_traceback: str = ""
        #: What the task is currently blocked on (effect object), if any.
        self.waiting_on: Any = None
        #: Set while blocked; calling it revokes the pending wakeup (used by
        #: interrupt and by timeout races).
        self._cancel_wakeup: Optional[Callable[[], None]] = None
        #: Callbacks to run when the task finishes (used by join()).
        self._watchers: list[Callable[["Task"], None]] = []

    def __repr__(self) -> str:
        return f"<Task {self.name} {self.state.value}>"

    @property
    def alive(self) -> bool:
        return self.state in (TaskState.READY, TaskState.RUNNING, TaskState.BLOCKED)

    def virtual_stack(self) -> list[StackFrame]:
        """The task's current ``yield from`` chain, outermost first."""
        frames: list[StackFrame] = []
        gen = self.gen
        while gen is not None:
            frame = getattr(gen, "gi_frame", None)
            if frame is not None:
                frames.append(
                    StackFrame(
                        file=frame.f_code.co_filename,
                        line=frame.f_lineno,
                        function=frame.f_code.co_name,
                    )
                )
            gen = getattr(gen, "gi_yieldfrom", None)
        return frames

    def stack_functions(self) -> list[str]:
        return [frame.function for frame in self.virtual_stack()]

    def blocked_in(self, function: str) -> bool:
        """Whether the task is blocked with ``function`` on its stack."""
        return self.state is TaskState.BLOCKED and function in self.stack_functions()


class Join:
    """Effect: wait for another task to finish; yields its result."""

    __slots__ = ("task",)

    def __init__(self, task: Task) -> None:
        self.task = task

    def subscribe(self, sim: "Simulator", waiter: Task) -> None:
        if not self.task.alive:
            # The task already finished, so its result is final.
            sim.resume_soon(waiter, value=self.task.result)
            return

        def on_done(done: Task) -> None:
            sim._resume(waiter, value=done.result)

        self.task._watchers.append(on_done)


#: Entry sentinel marking a task wakeup scheduled by ``resume_at``.
#: The run loop dispatches these straight into the task's generator
#: instead of through a per-wakeup closure — wakeups are by far the most
#: common event, and the closure allocations dominated the hot loop.
_RESUME: Any = object()


class Simulator:
    """Deterministic event loop over virtual time."""

    def __init__(self, seed: int = 0) -> None:
        self.now = 0.0
        self.random = random.Random(seed)
        self.current_task: Optional[Task] = None
        self.tasks: list[Task] = []
        #: Scheduler entries dispatched (a run-level counter the
        #: ``repro.obs`` layer reports; deterministic per ``(seed, plan)``).
        self.events_executed = 0
        #: Entries are 6-slot lists ``[when, seq, fn, task, value, exc]``.
        #: ``fn`` is ``None`` for a cancelled entry (cancellation mutates
        #: the entry in place instead of wrapping ``fn`` in a guard
        #: closure) and ``_RESUME`` for a task wakeup.  ``seq`` is unique,
        #: so heap comparisons never reach the non-orderable slots.
        #:
        #: Entries due in the future wait in ``_heap``; entries due *now*
        #: (zero-delay wakeups, clamped past times) skip it and go to the
        #: FIFO ``_ready`` deque.  Dispatch order is still exactly
        #: ``(when, seq)`` order — see :meth:`run` for why.
        self._heap: list[list] = []
        self._ready: collections.deque[list] = collections.deque()
        self._seq = 0
        self._crash_handlers: list[Callable[[Task], None]] = []

    # ------------------------------------------------------------------ events

    def _schedule(
        self,
        when: float,
        fn: Any,
        task: Optional[Task],
        value: Any,
        exc: Optional[BaseException],
    ) -> list:
        """Queue one entry (no canceller); returns the entry itself.

        Callers that may revoke the entry later keep it and set slot 2
        to ``None``; the sync primitives do that instead of allocating a
        canceller closure per wait.
        """
        self._seq += 1
        now = self.now
        if when <= now:
            entry = [now, self._seq, fn, task, value, exc]
            self._ready.append(entry)
        else:
            entry = [when, self._seq, fn, task, value, exc]
            heapq.heappush(self._heap, entry)
        return entry

    def _wake(
        self, task: Task, value: Any = None, exc: Optional[BaseException] = None
    ) -> None:
        """:meth:`resume_soon` without a canceller (the sync fast path)."""
        self._seq += 1
        self._ready.append([self.now, self._seq, _RESUME, task, value, exc])

    def call_at(self, when: float, fn: Callable[[], None]) -> Callable[[], None]:
        """Schedule ``fn`` at virtual time ``when``; returns a canceller."""
        entry = self._schedule(when, fn, None, None, None)

        def cancel() -> None:
            entry[2] = None

        return cancel

    def call_soon(self, fn: Callable[[], None]) -> Callable[[], None]:
        return self.call_at(self.now, fn)

    def resume_at(
        self,
        when: float,
        task: Task,
        value: Any = None,
        exc: Optional[BaseException] = None,
    ) -> Callable[[], None]:
        """Schedule ``_resume(task, value, exc)`` without a closure."""
        entry = self._schedule(when, _RESUME, task, value, exc)

        def cancel() -> None:
            entry[2] = None

        return cancel

    def resume_soon(
        self,
        task: Task,
        value: Any = None,
        exc: Optional[BaseException] = None,
    ) -> Callable[[], None]:
        return self.resume_at(self.now, task, value, exc)

    @property
    def pending_count(self) -> int:
        """Entries still queued (cancelled ones included)."""
        return len(self._heap) + len(self._ready)

    # ------------------------------------------------------------------- tasks

    def spawn(self, name: str, gen: TaskGen) -> Task:
        """Register a generator as a named task and schedule its first step."""
        if not hasattr(gen, "send"):
            raise TypeError(f"spawn() expects a generator, got {type(gen).__name__}")
        task = Task(name, gen)
        self.tasks.append(task)
        self.call_soon(lambda: self._step(task, value=None, first=True))
        return task

    def on_task_crash(self, handler: Callable[[Task], None]) -> None:
        """Register a handler invoked when a task dies of an unhandled error."""
        self._crash_handlers.append(handler)

    def interrupt(self, task: Task) -> None:
        """Throw :class:`InterruptedException` into a blocked task."""
        if task.state is not TaskState.BLOCKED:
            return
        self._resume(task, exc=InterruptedException(f"{task.name} interrupted"))

    def kill(self, task: Task) -> None:
        """Terminate a task without running its handlers (crash analog)."""
        if not task.alive:
            return
        if task._cancel_wakeup is not None:
            task._cancel_wakeup()
            task._cancel_wakeup = None
        task.state = TaskState.KILLED
        task.gen.close()
        self._notify_watchers(task)

    # -------------------------------------------------------------------- run

    def run(self, until: float, monitor=None) -> bool:
        """Run events until the queue drains or virtual ``until`` is reached.

        ``monitor`` (a :class:`repro.core.verdict.VerdictMonitor`) is
        polled after each dispatched event; when it reports the verdict
        decided, the loop exits *without* advancing ``now`` to ``until``
        and returns ``True``.
        """
        # Ordering: every entry in ``_ready`` is due at ``now``, and the
        # deque is empty whenever time advances.  Heap entries due at the
        # new ``now`` were pushed before time reached it, so their seqs
        # are lower than any entry pushed since; moving them (in heap
        # order) into the empty deque on each advance therefore keeps
        # the whole schedule in ``(when, seq)`` order.
        if self.now > until:
            return False
        heap = self._heap
        ready = self._ready
        pop = heapq.heappop
        popleft = ready.popleft
        step = self._step
        should_stop = monitor.should_stop if monitor is not None else None
        while True:
            while ready:
                entry = popleft()
                # Cancelled entries still count: the pre-rewrite loop
                # executed them as guarded no-ops, and ``events_executed``
                # feeds the deterministic run signature.
                self.events_executed += 1
                fn = entry[2]
                if fn is _RESUME:
                    # ``_resume`` inlined: wakeups are most of the events.
                    task = entry[3]
                    if task.state is _BLOCKED:
                        cancel = task._cancel_wakeup
                        if cancel is not None:
                            cancel()
                            task._cancel_wakeup = None
                        task.waiting_on = None
                        task.state = _READY
                        step(task, entry[4], entry[5])
                elif fn is not None:
                    fn()
                else:
                    continue
                if should_stop is not None and should_stop():
                    return True
            if not heap:
                break
            when = heap[0][0]
            if when > until:
                break
            self.now = when
            ready.append(pop(heap))
            while heap and heap[0][0] == when:
                ready.append(pop(heap))
        self.now = max(self.now, until)
        return False

    # ------------------------------------------------------------- checkpoint

    def capture(self) -> dict:
        """Snapshot the scheduler's restorable scalar state.

        Tasks and pending entries wrap live generators, which cannot
        be serialized or rebuilt in-process — process-level forking (see
        :mod:`repro.sim.checkpoint`) is what snapshots those.  This
        captures everything else, plus a digest of the pending schedule
        for fingerprinting.
        """
        return {
            "now": self.now,
            "seq": self._seq,
            "events_executed": self.events_executed,
            "rng_state": self.random.getstate(),
            "task_states": [(task.name, task.state.value) for task in self.tasks],
            # Dispatch order, so the digest does not depend on how the
            # entries are split between the heap and the ready deque.
            "pending": sorted(
                [(entry[0], entry[1]) for entry in self._heap]
                + [(entry[0], entry[1]) for entry in self._ready]
            ),
        }

    def restore(self, snapshot: dict) -> None:
        """Restore the scalar state captured by :meth:`capture`.

        Does not touch tasks or pending entries (see :meth:`capture`).
        """
        self.now = snapshot["now"]
        self._seq = snapshot["seq"]
        self.events_executed = snapshot["events_executed"]
        self.random.setstate(snapshot["rng_state"])

    def blocked_tasks(self) -> list[Task]:
        return [task for task in self.tasks if task.state is TaskState.BLOCKED]

    def failed_tasks(self) -> list[Task]:
        return [task for task in self.tasks if task.state is TaskState.FAILED]

    # --------------------------------------------------------------- internals

    def _resume(
        self,
        task: Task,
        value: Any = None,
        exc: Optional[BaseException] = None,
    ) -> None:
        """Wake a blocked task with a value or an exception."""
        if task.state is not TaskState.BLOCKED:
            return  # raced with another wakeup (e.g. timeout vs signal)
        if task._cancel_wakeup is not None:
            task._cancel_wakeup()
            task._cancel_wakeup = None
        task.waiting_on = None
        task.state = TaskState.READY
        self._step(task, value=value, exc=exc)

    def _step(
        self,
        task: Task,
        value: Any = None,
        exc: Optional[BaseException] = None,
        first: bool = False,
    ) -> None:
        """Advance the task's generator by one yield."""
        if task.state is not _READY:
            return  # killed or already resumed through another path
        previous = self.current_task
        self.current_task = task
        task.state = _RUNNING
        try:
            if exc is not None:
                effect = task.gen.throw(exc)
            else:
                effect = task.gen.send(value)
        except StopIteration as stop:
            task.state = TaskState.DONE
            task.result = stop.value
            self._notify_watchers(task)
            return
        except BaseException as error:  # noqa: BLE001 - task crash boundary
            task.state = TaskState.FAILED
            task.error = error
            task.error_traceback = traceback.format_exc()
            for handler in self._crash_handlers:
                handler(task)
            self._notify_watchers(task)
            return
        finally:
            self.current_task = previous

        task.state = _BLOCKED
        task.waiting_on = effect
        subscribe = getattr(effect, "subscribe", None)
        if subscribe is None:
            task.state = TaskState.FAILED
            task.error = TypeError(f"task {task.name} yielded {effect!r}")
            self._notify_watchers(task)
            return
        subscribe(self, task)

    def _notify_watchers(self, task: Task) -> None:
        watchers, task._watchers = task._watchers, []
        for watcher in watchers:
            watcher(task)


def stuck_report(tasks: Iterable[Task]) -> str:
    """Human-readable report of blocked tasks (a jstack analog)."""
    lines = []
    for task in tasks:
        lines.append(f'Thread "{task.name}" BLOCKED')
        for frame in task.virtual_stack():
            lines.append(f"    at {frame}")
    return "\n".join(lines)
