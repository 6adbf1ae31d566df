"""Synchronization primitives for simulated tasks.

All primitives are effects: a task blocks by ``yield``-ing the object the
primitive returns.  Wakeups are always scheduled as zero-delay entries
(the scheduler's ready deque) so that execution never recurses through
generator frames, keeping the run order a deterministic function of the
event queue.

The :class:`Future`/:class:`Executor` pair matters beyond plumbing: the
paper's exception analysis explicitly models cross-thread exception
propagation through futures (§4.1), and several failure cases hinge on a
fault thrown inside a submitted job surfacing as an ``ExecutionException``
at the waiting thread.
"""

from __future__ import annotations

import collections
from typing import Any, Callable, Generator, Optional

from .errors import ExecutionException, IllegalStateException
from .scheduler import _RESUME, Simulator, Task


def _discard(waiters: collections.deque, task: Task) -> None:
    # Most discards find the task already popped by the wakeup that is
    # resuming it, so test membership rather than raise and catch.
    if task in waiters:
        waiters.remove(task)


class _WaitEffect:
    """Base for effects that park the task on a waiter deque.

    A parked effect is its task's ``_cancel_wakeup``: the wakeup that
    resumes the task calls it, which drops the task from the waiter
    deque and revokes the timeout entry, with no closure allocated per
    wait.  So one effect object parks one task at a time; every
    primitive hands out a fresh effect per call.
    """

    # Both are set by ``_park``; the cleanup only ever runs after it.
    __slots__ = ("_task", "_timer")

    def _park(
        self,
        sim: Simulator,
        task: Task,
        timeout: Optional[float] = None,
        on_timeout: Any = None,
    ) -> None:
        """Register cleanup and (optionally) a timeout wakeup."""
        self._task = task
        self._timer = None
        if timeout is not None:
            self._timer = sim._schedule(
                sim.now + timeout, _RESUME, task, on_timeout, None
            )
        task._cancel_wakeup = self

    def __call__(self) -> None:
        """Cleanup on wakeup: unregister, then revoke the timeout."""
        self._unregister(self._task)
        timer = self._timer
        if timer is not None:
            timer[2] = None

    def _unregister(self, task: Task) -> None:
        raise NotImplementedError


class Condition:
    """Java-style condition variable.

    ``wait(timeout)`` yields ``True`` when signaled and ``False`` on
    timeout — the shape of ``Condition.await(long)`` that the motivating
    HBase example's ``doneCondition.await(timeoutNs)`` relies on.
    """

    def __init__(self, sim: Simulator, name: str = "cond") -> None:
        self._sim = sim
        self.name = name
        self._waiters: collections.deque[Task] = collections.deque()

    def wait(self, timeout: Optional[float] = None) -> "_ConditionWait":
        return _ConditionWait(self, timeout)

    def notify_all(self) -> None:
        waiters, self._waiters = self._waiters, collections.deque()
        wake = self._sim._wake
        for task in waiters:
            wake(task, True)

    def notify(self) -> None:
        if self._waiters:
            self._sim._wake(self._waiters.popleft(), True)

    def capture(self) -> dict:
        """Snapshot for fingerprinting (waiters referenced by name)."""
        return {"name": self.name, "waiters": [t.name for t in self._waiters]}


class _ConditionWait(_WaitEffect):
    __slots__ = ("_condition", "_timeout")

    def __init__(self, condition: Condition, timeout: Optional[float]) -> None:
        self._condition = condition
        self._timeout = timeout

    def subscribe(self, sim: Simulator, task: Task) -> None:
        self._condition._waiters.append(task)
        self._park(sim, task, timeout=self._timeout, on_timeout=False)

    def _unregister(self, task: Task) -> None:
        _discard(self._condition._waiters, task)


class Lock:
    """Non-reentrant mutual exclusion."""

    def __init__(self, sim: Simulator, name: str = "lock") -> None:
        self._sim = sim
        self.name = name
        self._holder: Optional[Task] = None
        self._waiters: collections.deque[Task] = collections.deque()

    @property
    def held(self) -> bool:
        return self._holder is not None

    @property
    def holder_name(self) -> Optional[str]:
        return self._holder.name if self._holder else None

    def acquire(self) -> "_LockAcquire":
        return _LockAcquire(self)

    def release(self) -> None:
        if self._holder is None:
            raise IllegalStateException(f"lock {self.name} released while free")
        self._holder = None
        if self._waiters:
            task = self._waiters.popleft()
            self._holder = task
            self._sim._wake(task, True)

    def force_release(self) -> None:
        """Drop the lock regardless of holder (crash-cleanup analog)."""
        if self._holder is not None:
            self.release()

    def capture(self) -> dict:
        """Snapshot for fingerprinting (tasks referenced by name)."""
        return {
            "name": self.name,
            "holder": self.holder_name,
            "waiters": [t.name for t in self._waiters],
        }


class _LockAcquire(_WaitEffect):
    __slots__ = ("_lock",)

    def __init__(self, lock: Lock) -> None:
        self._lock = lock

    def subscribe(self, sim: Simulator, task: Task) -> None:
        if self._lock._holder is None:
            self._lock._holder = task
            sim._wake(task, True)
            task._cancel_wakeup = None
            return
        self._lock._waiters.append(task)
        self._park(sim, task)

    def _unregister(self, task: Task) -> None:
        _discard(self._lock._waiters, task)


class Queue:
    """Bounded FIFO queue with blocking put/get.

    ``get(timeout)`` yields the item, or ``None`` on timeout (the shape of
    ``BlockingQueue.poll(long)``).  Items are reserved at subscribe time so
    two concurrent getters never race for the same element.
    """

    def __init__(
        self, sim: Simulator, name: str = "queue", capacity: Optional[int] = None
    ) -> None:
        self._sim = sim
        self.name = name
        self.capacity = capacity
        self._items: collections.deque[Any] = collections.deque()
        self._getters: collections.deque[Task] = collections.deque()
        self._putters: collections.deque[tuple[Task, Any]] = collections.deque()

    def __len__(self) -> int:
        return len(self._items)

    @property
    def empty(self) -> bool:
        return not self._items

    def put(self, item: Any) -> "_QueuePut":
        return _QueuePut(self, item)

    def put_nowait(self, item: Any) -> None:
        """Non-blocking put; raises when the queue is full."""
        if self.capacity is not None and len(self._items) >= self.capacity:
            raise IllegalStateException(f"queue {self.name} full")
        self._deliver(item)

    def get(self, timeout: Optional[float] = None) -> "_QueueGet":
        return _QueueGet(self, timeout)

    def get_nowait(self) -> Any:
        """Non-blocking get; returns None when empty."""
        if self._items:
            item = self._items.popleft()
            self._admit_putter()
            return item
        return None

    def peek(self) -> Any:
        return self._items[0] if self._items else None

    def drain(self) -> list[Any]:
        items = list(self._items)
        self._items.clear()
        while self._putters:
            self._admit_putter()
        return items

    # --------------------------------------------------------------- internals

    def _deliver(self, item: Any) -> None:
        """Hand an item to a waiting getter or store it."""
        if self._getters:
            self._sim._wake(self._getters.popleft(), item)
        else:
            self._items.append(item)

    def _admit_putter(self) -> None:
        if self._putters and (
            self.capacity is None or len(self._items) < self.capacity
        ):
            putter, item = self._putters.popleft()
            self._items.append(item)
            self._sim._wake(putter)

    # ------------------------------------------------------------- checkpoint

    def capture(self) -> dict:
        """Snapshot the queue's restorable state (items) plus waiter names."""
        return {
            "name": self.name,
            "capacity": self.capacity,
            "items": list(self._items),
            "getters": [t.name for t in self._getters],
            "putters": [t.name for t, _ in self._putters],
        }

    def restore(self, snapshot: dict) -> None:
        """Restore the stored items (waiters are live tasks; not restored)."""
        self.capacity = snapshot["capacity"]
        self._items = collections.deque(snapshot["items"])

    def _discard_putter(self, task: Task) -> None:
        self._putters = collections.deque(
            (t, i) for t, i in self._putters if t is not task
        )


class _QueuePut(_WaitEffect):
    __slots__ = ("_queue", "_item")

    def __init__(self, queue: Queue, item: Any) -> None:
        self._queue = queue
        self._item = item

    def subscribe(self, sim: Simulator, task: Task) -> None:
        queue = self._queue
        if queue.capacity is None or len(queue._items) < queue.capacity or queue._getters:
            queue._deliver(self._item)
            sim._wake(task)
            task._cancel_wakeup = None
            return
        queue._putters.append((task, self._item))
        self._park(sim, task)

    def _unregister(self, task: Task) -> None:
        self._queue._discard_putter(task)


class _QueueGet(_WaitEffect):
    __slots__ = ("_queue", "_timeout")

    def __init__(self, queue: Queue, timeout: Optional[float]) -> None:
        self._queue = queue
        self._timeout = timeout

    def subscribe(self, sim: Simulator, task: Task) -> None:
        queue = self._queue
        if queue._items:
            item = queue._items.popleft()
            queue._admit_putter()
            sim._wake(task, item)
            task._cancel_wakeup = None
            return
        queue._getters.append(task)
        self._park(sim, task, timeout=self._timeout, on_timeout=None)

    def _unregister(self, task: Task) -> None:
        _discard(self._queue._getters, task)


class Future:
    """A write-once result container; yielding it waits for completion.

    A waiter receives the result, or — when the future completed
    exceptionally — an :class:`ExecutionException` wrapping the original
    cause is thrown into it, matching ``Future.get()`` semantics.
    """

    def __init__(self, sim: Simulator, name: str = "future") -> None:
        self._sim = sim
        self.name = name
        self._done = False
        self._result: Any = None
        self._exception: Optional[BaseException] = None
        self._waiters: collections.deque[Task] = collections.deque()

    @property
    def done(self) -> bool:
        return self._done

    @property
    def exception(self) -> Optional[BaseException]:
        return self._exception

    def set_result(self, value: Any = None) -> None:
        if self._done:
            return
        self._done = True
        self._result = value
        self._wake_all()

    def set_exception(self, exc: BaseException) -> None:
        if self._done:
            return
        self._done = True
        self._exception = exc
        self._wake_all()

    # Java-flavored alias used by the mini systems.
    complete_exceptionally = set_exception

    def subscribe(self, sim: Simulator, task: Task) -> None:
        if self._done:
            self._schedule_wake(task)
            task._cancel_wakeup = None
            return
        self._waiters.append(task)
        # A future is shared by all its waiters, so the per-task cleanup
        # cannot live on the future itself the way a _WaitEffect's does.
        task._cancel_wakeup = lambda: _discard(self._waiters, task)

    def _wake_all(self) -> None:
        waiters, self._waiters = self._waiters, collections.deque()
        for task in waiters:
            self._schedule_wake(task)

    def _schedule_wake(self, task: Task) -> None:
        # The future is write-once and already done here, so capturing the
        # outcome now (rather than at fire time) is equivalent.
        if self._exception is not None:
            self._sim._wake(task, None, ExecutionException(self._exception))
        else:
            self._sim._wake(task, self._result)

    # ------------------------------------------------------------- checkpoint

    def capture(self) -> dict:
        """Snapshot the future's restorable state plus waiter names."""
        return {
            "name": self.name,
            "done": self._done,
            "result": self._result,
            "exception": self._exception,
            "waiters": [t.name for t in self._waiters],
        }

    def restore(self, snapshot: dict) -> None:
        """Restore completion state (waiters are live tasks; not restored)."""
        self._done = snapshot["done"]
        self._result = snapshot["result"]
        self._exception = snapshot["exception"]


GenFn = Callable[..., Generator[Any, Any, Any]]


class Executor:
    """Thread-pool analog: each submission runs as its own task.

    An unhandled exception inside a submitted job completes the job's
    future exceptionally instead of crashing the process — the executor
    swallows it exactly the way a Java pool does, which is why faults can
    hide until someone waits on the future.
    """

    def __init__(self, sim: Simulator, name: str) -> None:
        self._sim = sim
        self.name = name
        self._counter = 0

    def submit(self, fn: GenFn, *args: Any, **kwargs: Any) -> Future:
        self._counter += 1
        future = Future(self._sim, name=f"{self.name}-f{self._counter}")
        task_name = f"{self.name}-{self._counter}"

        def runner() -> Generator[Any, Any, Any]:
            try:
                result = yield from fn(*args, **kwargs)
            except GeneratorExit:
                raise
            except BaseException as error:  # noqa: BLE001 - pool boundary
                future.set_exception(error)
            else:
                future.set_result(result)

        self._sim.spawn(task_name, runner())
        return future


class SerialExecutor:
    """Single-threaded executor: jobs run in submission order on one task.

    This is the shape of HBase's WAL ``consumeExecutor``: one long-lived
    worker draining a job queue, so a job that blocks starves every later
    submission — the exact mechanism behind the motivating failure.
    """

    def __init__(self, sim: Simulator, name: str) -> None:
        self._sim = sim
        self.name = name
        self._jobs: Queue = Queue(sim, name=f"{name}-jobs")
        self._counter = 0
        self.worker = sim.spawn(name, self._loop())

    def submit(self, fn: GenFn, *args: Any, **kwargs: Any) -> Future:
        self._counter += 1
        future = Future(self._sim, name=f"{self.name}-f{self._counter}")
        self._jobs.put_nowait((fn, args, kwargs, future))
        return future

    def _loop(self) -> Generator[Any, Any, Any]:
        while True:
            job = yield self._jobs.get()
            if job is None:
                continue
            fn, args, kwargs, future = job
            try:
                result = yield from fn(*args, **kwargs)
            except GeneratorExit:
                raise
            except BaseException as error:  # noqa: BLE001 - pool boundary
                future.set_exception(error)
            else:
                future.set_result(result)
